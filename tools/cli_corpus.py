"""Hash the command line's output over a seeded corpus of in-process calls.

Usage: PYTHONPATH=<checkout>/src python3 tools/cli_corpus.py [--per-cell K]

Every call runs ``bipancyclic.cli.main`` in this process, with the input
digraph's text on stdin.  The digest covers each call's arguments, input,
exit code, stdout and stderr, except the stderr line ``runtime: ...`` that
search writes, which is wall time.  Two checkouts whose digests agree gave
byte-identical output on every call.

The corpus, built only from the command line and the text format, with
every random choice drawn from random.Random(SEED):
  - random balanced bipartite digraphs, K per (a, p) cell, a = 1..7 and
    p in 0.3, 0.5, 0.7, 0.9;
  - the 8-vertex exception (gen --family d8), with K relabellings inside
    its sides, K relabellings as a general digraph and K one-arc mutants;
  - members of the h2m, hmm and hm-m1-1 families, cluster sizes 2..5;
each run through check --bk 0/1/2, check --two-sided, certify for every
statement with a verdict, iso-d8, cycles, cycles --longest-non-hamiltonian
and cycles --length L for L = 2, the input's order n and n + 1 (out of
range), in text and --json; plus search for every target on a small grid,
for each of the K seeds SEED, SEED + 1, ....
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys

from bipancyclic import cli

SEED = 0
P_VALUES = (0.3, 0.5, 0.7, 0.9)
SIDE_SIZES = range(1, 8)
CERTIFIABLE = ("1.6", "1.7", "1.8", "1.9", "1.10", "3.2", "3.4")
TARGETS = ("1.6", "1.7", "1.8", "1.9", "1.10", "3.2", "3.3", "3.4")
PER_INPUT = (
    [("check", "--bk", str(k)) for k in range(3)]
    + [("check", "--two-sided")]
    + [("certify", "--theorem", t) for t in CERTIFIABLE]
    + [("iso-d8",), ("cycles",), ("cycles", "--longest-non-hamiltonian")]
)


def run(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """One in-process call: exit code, stdout, stderr without runtime lines."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    kept = [line for line in err.getvalue().splitlines(True) if not line.startswith("runtime:")]
    return code, out.getvalue(), "".join(kept)


def _text(header: str, arcs: list[tuple[str, str]]) -> str:
    return header + "\n" + "".join(f"{u} {v}\n" for u, v in arcs)


def _arcs(text: str) -> tuple[str, list[tuple[str, str]]]:
    header, *lines = text.splitlines()
    return header, [tuple(line.split()) for line in lines]


def _order(text: str) -> int:
    """The order a text's header declares: 2a for bipartite, n for general."""
    kind, _, size = text.split("\n", 1)[0].partition("=")
    return int(size) * (2 if kind == "bipartite a" else 1)


def inputs(per_cell: int) -> list[str]:
    """The corpus's input texts, in a fixed order."""
    rng = random.Random(SEED)
    texts = []
    for a in SIDE_SIZES:
        xs = [f"x{i}" for i in range(a)]
        ys = [f"y{i}" for i in range(a)]
        slots = [(x, y) for x in xs for y in ys] + [(y, x) for y in ys for x in xs]
        for p in P_VALUES:
            for _ in range(per_cell):
                texts.append(_text(f"bipartite a={a}", [s for s in slots if rng.random() < p]))

    header, d8_arcs = _arcs(run(["gen", "--family", "d8"])[1])
    texts.append(_text(header, d8_arcs))
    for _ in range(per_cell):
        sx, sy = rng.sample(range(4), 4), rng.sample(range(4), 4)

        def inside(v: str) -> str:
            return f"{v[0]}{(sx if v[0] == 'x' else sy)[int(v[1:])]}"

        texts.append(_text(header, [(inside(u), inside(v)) for u, v in d8_arcs]))
    for _ in range(per_cell):
        perm = rng.sample(range(8), 8)

        def general(v: str) -> str:
            return f"v{perm[int(v[1:]) + (4 if v[0] == 'y' else 0)]}"

        texts.append(_text("general n=8", [(general(u), general(v)) for u, v in d8_arcs]))
    names = [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]
    present = set(d8_arcs)
    absent = [(u, v) for u in names for v in names if u[0] != v[0] and (u, v) not in present]
    for _ in range(per_cell):
        mutant = list(d8_arcs)
        if rng.random() < 0.5:
            mutant.remove(rng.choice(d8_arcs))
        else:
            mutant.append(rng.choice(absent))
        texts.append(_text(header, mutant))

    for family in ("h2m", "hmm", "hm-m1-1"):
        for size in range(2, 6):
            texts.append(run(["gen", "--family", family, "--size", str(size)])[1])
    return texts


def calls(per_cell: int):
    """Every (argv, stdin) pair of the corpus, in order."""
    for text in inputs(per_cell):
        n = _order(text)
        lengths = [("cycles", "--length", str(m)) for m in (2, n, n + 1)]
        for command in PER_INPUT + lengths:
            for extra in ((), ("--json",)):
                yield [*command, "-", *extra], text
    grid = ["--a", "4", "5", "--p", "0.5", "0.9", "--samples", "20"]
    for k in range(per_cell):
        for target in TARGETS:
            for extra in ((), ("--json",)):
                yield ["search", "--target", target, *grid, "--seed", str(SEED + k), *extra], ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-cell", type=int, default=20, help="inputs per corpus cell")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    for call_argv, text in calls(args.per_cell):
        code, out, err = run(call_argv, text)
        record = "\0".join([" ".join(call_argv), text, str(code), out, err]).encode()
        total.update(hashlib.sha256(record).digest())
        count += 1
    print(f"calls: {count}")
    print(f"sha256: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
