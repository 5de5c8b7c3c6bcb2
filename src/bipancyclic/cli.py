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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bipancyclic",
        description="Degree conditions, cycle spectra, and claim verdicts "
        "for balanced bipartite digraphs.",
        epilog="Input/output formats and exit codes are documented in docs/formats.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="emit the canonical member of a family")
    gen.add_argument("--family", required=True, choices=[f.value for f in Family])
    gen.add_argument("--size", type=int, default=None, help="side or cluster size")
    gen.add_argument("--mirrored", action="store_true", help="hm-m1-1: flip the link vertex")
    gen.add_argument("--both-link-arcs", action="store_true", help="h2m: add the reverse gate arc")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="evaluate a degree condition")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--bk", type=int, help="margin k of the dominating-pair condition")
    group.add_argument("--two-sided", action="store_true", help="two-sided condition instead")
    check.add_argument("input", help="digraph file or - for stdin")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)

    cycles = sub.add_parser("cycles", help="cycle spectrum or a single witness")
    pick = cycles.add_mutually_exclusive_group()
    pick.add_argument("--length", type=int, default=None, help="only this cycle length")
    pick.add_argument(
        "--longest-non-hamiltonian",
        action="store_true",
        help="longest cycle below full order",
    )
    cycles.add_argument("--max-n", type=int, default=24, help="exhaustive-scan order cap")
    cycles.add_argument("input", help="digraph file or - for stdin")
    cycles.add_argument("--json", action="store_true")
    cycles.set_defaults(func=_cmd_cycles)

    certify = sub.add_parser("certify", help="verdict for one catalog claim")
    certify.add_argument(
        "--theorem", required=True, choices=[t.value for t in Theorem], help="claim id"
    )
    certify.add_argument("input", help="digraph file or - for stdin")
    certify.add_argument("--json", action="store_true")
    certify.set_defaults(func=_cmd_certify)

    search = sub.add_parser("search", help="seeded randomized counterexample search")
    search.add_argument(
        "--target", required=True, choices=[t.value for t in Theorem]
    )
    search.add_argument("--a", type=int, nargs="+", default=[4, 5, 6], help="side sizes")
    search.add_argument(
        "--p", type=float, nargs="+", default=[0.3, 0.5, 0.7], help="arc probabilities"
    )
    search.add_argument("--samples", type=int, default=1000, help="samples per (a, p) cell")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--workers", type=int, default=1)
    search.add_argument(
        "--violations-dir", default=None, help="write violation packages here"
    )
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=_cmd_search)

    iso = sub.add_parser("iso-d8", help="isomorphism test against the 8-vertex exception")
    iso.add_argument("input", help="digraph file or - for stdin")
    iso.add_argument("--json", action="store_true")
    iso.set_defaults(func=_cmd_iso)

    return parser


def _read_digraph(path: str) -> Digraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    return parse(text)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- gen ---------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = FamilySpec(
        family=Family(args.family),
        size=args.size,
        mirrored=args.mirrored,
        both_link_arcs=args.both_link_arcs,
    )
    D = generate(spec)
    text = serialize(D)
    if args.json:
        _emit_json(
            {
                "family": spec.family.value,
                "size": spec.size,
                "order": D.n,
                "arcs": D.arc_count,
                "serialization": text,
            }
        )
    else:
        sys.stdout.write(text)
    return 0


# -- check -------------------------------------------------------------------


def _cmd_check(args) -> int:
    D = _read_digraph(args.input)
    if args.two_sided:
        holds, bad = check_two_sided_condition(D)
        if args.json:
            payload = {
                "condition": "two-sided",
                "holds": holds,
                "failing_pair": None if bad is None else [str(bad.u), str(bad.v)],
            }
            _emit_json(payload)
        else:
            lines = ["condition: two-sided", f"holds: {'true' if holds else 'false'}"]
            if bad is not None:
                lines.append(f"failing_pair: {bad.u} {bad.v}")
            _emit("\n".join(lines))
        return 0
    report = check_bk(D, args.bk)
    if args.json:
        _emit_json(
            {
                "condition": f"B_{report.k}",
                "k": report.k,
                "threshold": report.threshold,
                "pairs_checked": report.pairs_checked,
                "holds": report.holds,
                "worst_pair": None
                if report.worst_pair is None
                else [str(report.worst_pair.u), str(report.worst_pair.v)],
                "worst_max_degree": report.worst_degree,
            }
        )
    else:
        _emit(report.render())
    return 0


# -- cycles ------------------------------------------------------------------


def _cmd_cycles(args) -> int:
    D = _read_digraph(args.input)
    if args.length is not None:
        cycle = find_cycle_of_length(D, args.length)
        if args.json:
            _emit_json(
                {
                    "length": args.length,
                    "cycle": None if cycle is None else str(cycle),
                }
            )
        else:
            _emit(
                f"length: {args.length}\ncycle: "
                + ("absent" if cycle is None else str(cycle))
            )
        return 0
    if args.longest_non_hamiltonian:
        cycle = longest_non_hamiltonian_cycle(D, max_n=args.max_n)
        if args.json:
            _emit_json(
                {
                    "longest_non_hamiltonian": None if cycle is None else cycle.length,
                    "cycle": None if cycle is None else str(cycle),
                }
            )
        elif cycle is None:
            _emit("longest_non_hamiltonian: absent")
        else:
            _emit(f"longest_non_hamiltonian: {cycle.length}\ncycle: {cycle}")
        return 0
    spectrum = cycle_spectrum(D, max_n=args.max_n)
    if args.json:
        _emit_json(
            {
                "order": spectrum.order,
                "side_size": spectrum.side_size,
                "lengths": list(spectrum.lengths()),
                "witnesses": {str(m): str(c) for m, c in spectrum.witnesses},
                "even_pancyclic": spectrum.is_even_pancyclic()
                if spectrum.side_size is not None
                else None,
            }
        )
    else:
        lines = [f"order: {spectrum.order}"]
        if spectrum.side_size is not None:
            lines.append(f"side_size: {spectrum.side_size}")
        lines.append("lengths: " + (" ".join(str(m) for m in spectrum.lengths()) or "none"))
        for m, c in spectrum.witnesses:
            lines.append(f"cycle {m}: {c}")
        if spectrum.side_size is not None:
            lines.append(
                f"even_pancyclic: {'true' if spectrum.is_even_pancyclic() else 'false'}"
            )
        _emit("\n".join(lines))
    return 0


# -- certify -------------------------------------------------------------------


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


def verdict_exit_code(verdict: TheoremVerdict) -> int:
    return {"conclusion": 0, "hypotheses-not-met": 1, "violation": 2}[verdict.outcome]


def _cmd_certify(args) -> int:
    D = _read_digraph(args.input)
    verdict = verify_theorem(D, Theorem(args.theorem))
    if args.json:
        _emit_json(
            {
                "claim": verdict.theorem.value,
                "hypotheses": {
                    "satisfied": verdict.hypotheses.satisfied,
                    "failures": list(verdict.hypotheses.failures),
                },
                "outcome": verdict.outcome,
                "conclusion": None
                if verdict.conclusion is None
                else verdict.conclusion.to_json(),
            }
        )
    else:
        _emit(render_verdict(verdict))
    return verdict_exit_code(verdict)


# -- search --------------------------------------------------------------------


def _cmd_search(args) -> int:
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
    if args.json:
        _emit_json(report.to_json())
    else:
        _emit(report.render())
    print(f"runtime: {report.runtime_seconds:.2f}s", file=sys.stderr)
    return 2 if report.violations else 0


# -- iso-d8 --------------------------------------------------------------------


def _cmd_iso(args) -> int:
    D = _read_digraph(args.input)
    witness = iso_to_D8(D)
    if args.json:
        _emit_json(
            {
                "isomorphic": witness is not None,
                "side_swap": None if witness is None else witness.side_swap,
                "mapping": None
                if witness is None
                else {str(s): str(d) for s, d in witness.mapping},
            }
        )
    elif witness is None:
        _emit("isomorphic: false")
    else:
        _emit(f"isomorphic: true\nmapping: {witness.render()}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (DigraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
