"""Command-line front door.

Subcommands: gen (emit family members), check (degree conditions), cycles
(spectra and single witnesses), certify (claim verdicts), search (randomized
counterexample search), iso-d8 (exception isomorphism test).

Output contract: stdout is byte-stable for identical inputs and flags, in
key-value text or, with --json, one sorted-keys JSON document.  Anything
timing-dependent (runtimes) goes to stderr only.  Exit codes: 0 success with
a conclusion, 1 hypotheses not met, 2 violation found, 64 usage error, 65
unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conditions import Theorem, check_bk, check_two_sided_condition
from .cycles import (
    DEFAULT_MAX_ORDER,
    cycle_spectrum,
    find_cycle_of_length,
    longest_non_hamiltonian_cycle,
)
from .digraph import Digraph, parse, serialize
from .errors import DigraphError
from .families import Family, FamilySpec, generate
from .verify import (
    SearchConfig,
    TheoremVerdict,
    iso_to_D8,
    run_search,
    verify_theorem,
    write_violations,
)

USAGE_ERROR = 64
DATA_ERROR = 65
_OUTCOME_CODES = {"conclusion": 0, "hypotheses-not-met": 1, "violation": 2}


def _finish(parser: argparse.ArgumentParser, func, reads_input: bool = True) -> None:
    """Add the arguments every subcommand ends with, and its command."""
    if reads_input:
        parser.add_argument("input", help="digraph file or - for stdin")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=func)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipancyclic",
        description="Degree conditions, cycle spectra, and claim verdicts "
        "for balanced bipartite digraphs.",
        epilog="Input/output formats and exit codes are documented in docs/formats.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit the canonical member of a family")
    gen.add_argument("--family", required=True, choices=[f.value for f in Family])
    gen.add_argument("--size", type=int, default=None, help="side or cluster size")
    gen.add_argument("--mirrored", action="store_true", help="hm-m1-1: flip the link vertex")
    gen.add_argument("--both-link-arcs", action="store_true", help="h2m: add the reverse gate arc")
    _finish(gen, _cmd_gen, reads_input=False)

    check = sub.add_parser("check", help="evaluate a degree condition")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--bk", type=int, help="margin k of the dominating-pair condition")
    group.add_argument("--two-sided", action="store_true", help="two-sided condition instead")
    _finish(check, _cmd_check)

    cycles = sub.add_parser("cycles", help="cycle spectrum or a single witness")
    pick = cycles.add_mutually_exclusive_group()
    pick.add_argument("--length", type=int, default=None, help="only this cycle length")
    pick.add_argument(
        "--longest-non-hamiltonian",
        action="store_true",
        help="longest cycle below full order",
    )
    cycles.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_ORDER, help="exhaustive-scan order cap"
    )
    _finish(cycles, _cmd_cycles)

    certify = sub.add_parser("certify", help="verdict for one catalog claim")
    certify.add_argument(
        "--theorem", required=True, choices=[t.value for t in Theorem], help="claim id"
    )
    _finish(certify, _cmd_certify)

    search = sub.add_parser("search", help="seeded randomized counterexample search")
    search.add_argument(
        "--target", required=True, choices=[t.value for t in Theorem]
    )
    search.add_argument(
        "--a", type=int, nargs="+", default=SearchConfig.a_values, help="side sizes"
    )
    search.add_argument(
        "--p", type=float, nargs="+", default=SearchConfig.p_values, help="arc probabilities"
    )
    search.add_argument(
        "--samples", type=int, default=SearchConfig.samples, help="samples per (a, p) cell"
    )
    search.add_argument("--seed", type=int, default=SearchConfig.seed)
    search.add_argument("--workers", type=int, default=1)
    search.add_argument(
        "--violations-dir", default=None, help="write violation packages here"
    )
    _finish(search, _cmd_search, reads_input=False)

    iso = sub.add_parser("iso-d8", help="isomorphism test against the 8-vertex exception")
    _finish(iso, _cmd_iso)

    return parser


def _read_digraph(path: str) -> Digraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    return parse(text)


# Each command takes the parsed arguments and the input digraph (None for
# gen and search) and returns its exit code, its text and its JSON document.


def _cmd_gen(args, _):
    spec = FamilySpec(
        family=Family(args.family),
        size=args.size,
        mirrored=args.mirrored,
        both_link_arcs=args.both_link_arcs,
    )
    D = generate(spec)
    text = serialize(D)
    return 0, text, {
        "family": spec.family.value,
        "size": spec.size,
        "order": D.n,
        "arcs": D.arc_count,
        "serialization": text,
    }


def _pair(pair) -> list[str] | None:
    return None if pair is None else [str(pair.u), str(pair.v)]


def _cmd_check(args, D: Digraph):
    if args.two_sided:
        holds, bad = check_two_sided_condition(D)
        lines = ["condition: two-sided", f"holds: {'true' if holds else 'false'}"]
        if bad is not None:
            lines.append(f"failing_pair: {bad.u} {bad.v}")
        return 0, "\n".join(lines), {
            "condition": "two-sided",
            "holds": holds,
            "failing_pair": _pair(bad),
        }
    report = check_bk(D, args.bk)
    return 0, report.render(), {
        "condition": f"B_{report.k}",
        "k": report.k,
        "threshold": report.threshold,
        "pairs_checked": report.pairs_checked,
        "holds": report.holds,
        "worst_pair": _pair(report.worst_pair),
        "worst_max_degree": report.worst_degree,
    }


def _one_cycle(key: str, value: int | None, cycle):
    """A single-cycle answer: the key's value and its cycle, or absent."""
    shown = None if cycle is None else str(cycle)
    text = f"{key}: {'absent' if value is None else value}"
    if value is not None:
        text += f"\ncycle: {shown or 'absent'}"
    return 0, text, {key: value, "cycle": shown}


def _cmd_cycles(args, D: Digraph):
    if args.length is not None:
        return _one_cycle("length", args.length, find_cycle_of_length(D, args.length))
    if args.longest_non_hamiltonian:
        cycle = longest_non_hamiltonian_cycle(D, max_n=args.max_n)
        return _one_cycle(
            "longest_non_hamiltonian", None if cycle is None else cycle.length, cycle
        )
    spectrum = cycle_spectrum(D, max_n=args.max_n)
    bipartite = spectrum.side_size is not None
    even = spectrum.is_even_pancyclic() if bipartite else None
    lines = [f"order: {spectrum.order}"]
    if bipartite:
        lines.append(f"side_size: {spectrum.side_size}")
    lines.append("lengths: " + (" ".join(str(m) for m in spectrum.lengths()) or "none"))
    lines.extend(f"cycle {m}: {c}" for m, c in spectrum.witnesses)
    if bipartite:
        lines.append(f"even_pancyclic: {'true' if even else 'false'}")
    return 0, "\n".join(lines), {
        "order": spectrum.order,
        "side_size": spectrum.side_size,
        "lengths": list(spectrum.lengths()),
        "witnesses": {str(m): str(c) for m, c in spectrum.witnesses},
        "even_pancyclic": even,
    }


def render_verdict(verdict: TheoremVerdict) -> str:
    lines = [f"claim: {verdict.theorem.value}"]
    if verdict.hypotheses.satisfied:
        lines.append("hypotheses: satisfied")
    else:
        lines.append("hypotheses: not satisfied")
        lines.extend(f"  - {f}" for f in verdict.hypotheses.failures)
    lines.append(f"outcome: {verdict.outcome}")
    if verdict.conclusion is not None:
        lines.extend(verdict.conclusion.lines())
    return "\n".join(lines)


def _cmd_certify(args, D: Digraph):
    verdict = verify_theorem(D, Theorem(args.theorem))
    return _OUTCOME_CODES[verdict.outcome], render_verdict(verdict), {
        "claim": verdict.theorem.value,
        "hypotheses": {
            "satisfied": verdict.hypotheses.satisfied,
            "failures": list(verdict.hypotheses.failures),
        },
        "outcome": verdict.outcome,
        "conclusion": None if verdict.conclusion is None else verdict.conclusion.to_json(),
    }


def _cmd_search(args, _):
    config = SearchConfig(
        target=Theorem(args.target),
        a_values=tuple(args.a),
        p_values=tuple(args.p),
        samples=args.samples,
        seed=args.seed,
    )
    report = run_search(config, workers=args.workers)
    if args.violations_dir is not None and report.violations:
        write_violations(report, args.violations_dir)
    print(f"runtime: {report.runtime_seconds:.2f}s", file=sys.stderr)
    return 2 if report.violations else 0, report.render(), report.to_json()


def _cmd_iso(args, D: Digraph):
    witness = iso_to_D8(D)
    if witness is None:
        return 0, "isomorphic: false", {
            "isomorphic": False,
            "side_swap": None,
            "mapping": None,
        }
    text = f"isomorphic: true\nmapping: {witness.render()}"
    return 0, text, {"isomorphic": True, **witness.to_json()}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 after a usage error
        return USAGE_ERROR if exc.code == 2 else exc.code
    try:
        D = _read_digraph(args.input) if "input" in args else None
        code, text, payload = args.func(args, D)
    except UnicodeDecodeError as exc:  # only reading the input decodes bytes
        name = "stdin" if args.input == "-" else args.input
        print(f"error: {name}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (DigraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    if args.json:
        text = json.dumps(payload, sort_keys=True, indent=2)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
