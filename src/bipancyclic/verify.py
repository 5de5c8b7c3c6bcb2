"""Executable verdicts with certificates, the 8-vertex-exception isomorphism
test, and a seeded randomized counterexample search.

A verdict evaluates one catalog statement (see conditions.Theorem) on one
input: it reports which hypothesis clauses fail, and when they all hold it
runs the statement's conclusion routine, which returns one Conclusion: a
checkable witness or a violation.  A violation is a reproducible
counterexample package (claim text plus the digraph's canonical
serialization); for the statements shipped here none is expected to ever
appear, and the test suite treats one as a loud failure.  Lemma 3.3 has no
verdict: its unit is a (cycle, vertex) pair, so only the search replays it.

The search harness samples seeded random digraphs over an (a, p) grid,
filters to hypothesis-satisfying ones, and replays the selected statement on
each.  Every sample's seed is a pure function of (config seed, a, p, sample
index), so reports are reproducible count-for-count regardless of worker
count or platform.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from itertools import permutations
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .conditions import (
    HypothesisReport,
    Theorem,
    _hold_with_premise,
    check_theorem_hypotheses,
)
from .cycles import (
    Cycle,
    _find_cycle_indices,
    _ladder,
    check_cycle,
    find_cycle_of_length,
    longest_non_hamiltonian_cycle,
)
from .digraph import (
    BipartiteDigraph,
    Digraph,
    Vertex,
    random_bipartite,
    serialize,
)
from .errors import BadConfig, BadParams
from . import families


# -- conclusions -----------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismWitness:
    """An arc-exact bijection onto the 8-vertex exception.

    mapping lists (source, image) pairs sorted by source.  side_swap records
    whether the bijection exchanges the two partite classes; for a general
    input the class containing v0 plays the x role.
    """

    mapping: tuple[tuple[Vertex, Vertex], ...]
    side_swap: bool

    def render(self) -> str:
        pairs = " ".join(f"{s}->{d}" for s, d in self.mapping)
        swap = "swapped" if self.side_swap else "preserved"
        return f"sides {swap}: {pairs}"


@dataclass(frozen=True)
class Conclusion:
    """What a verdict concludes once a statement's hypotheses hold.

    kind is the tag the JSON output carries:
      pancyclic-certificate  cycles holds one witness per even length, ascending;
      hamiltonian, directed-cycle, two-below-full-cycle, non-hamiltonian-cycle
                             cycles holds the single witness;
      d8-isomorphism         isomorphism maps the input onto the exception;
      violation              claim names what failed and serialization is the
                             input, a reproducible counterexample package.
    """

    kind: str
    cycles: tuple[tuple[int, Cycle], ...] = ()
    isomorphism: IsomorphismWitness | None = None
    claim: str = ""
    serialization: str = ""

    @property
    def cycle(self) -> Cycle:
        """The witness of a single-cycle conclusion."""
        return self.cycles[0][1]

    def lengths(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.cycles)

    def lines(self) -> list[str]:
        """The conclusion's lines of certify's text output."""
        if self.kind == "pancyclic-certificate":
            lines = [f"conclusion: cycles of every even length 2..{self.lengths()[-1]}"]
            return lines + [f"cycle {m}: {c}" for m, c in self.cycles]
        if self.kind == "d8-isomorphism":
            assert self.isomorphism is not None
            return [
                "conclusion: isomorphic to the 8-vertex exception",
                f"mapping: {self.isomorphism.render()}",
            ]
        if self.kind == "violation":
            lines = [f"VIOLATION: {self.claim}", "counterexample:"]
            return lines + ["  " + line for line in self.serialization.splitlines()]
        headline = {
            "hamiltonian": "Hamiltonian",
            "directed-cycle": "the digraph is a directed cycle",
            "non-hamiltonian-cycle": "longest non-Hamiltonian cycle of length"
            f" {self.cycle.length}",
        }.get(self.kind, f"cycle of length {self.cycle.length}")
        return [f"conclusion: {headline}", f"cycle: {self.cycle}"]

    def to_json(self) -> dict:
        """The conclusion object of certify's JSON output."""
        if self.kind == "pancyclic-certificate":
            return {"kind": self.kind, "cycles": {str(m): str(c) for m, c in self.cycles}}
        if self.kind == "d8-isomorphism":
            assert self.isomorphism is not None
            return {
                "kind": self.kind,
                "side_swap": self.isomorphism.side_swap,
                "mapping": {str(s): str(d) for s, d in self.isomorphism.mapping},
            }
        if self.kind == "violation":
            return {"kind": self.kind, "claim": self.claim, "counterexample": self.serialization}
        payload = {"kind": self.kind, "cycle": str(self.cycle)}
        if self.kind in ("two-below-full-cycle", "non-hamiltonian-cycle"):
            payload["length"] = self.cycle.length
        return payload


@dataclass(frozen=True)
class TheoremVerdict:
    """Hypothesis report plus (when hypotheses hold) exactly one conclusion."""

    theorem: Theorem
    hypotheses: HypothesisReport
    conclusion: Conclusion | None

    @property
    def outcome(self) -> str:
        if not self.hypotheses.satisfied:
            return "hypotheses-not-met"
        assert self.conclusion is not None
        if self.conclusion.kind == "violation":
            return "violation"
        return "conclusion"


def _single(kind: str, cycle: Cycle) -> Conclusion:
    return Conclusion(kind, cycles=((cycle.length, cycle),))


def _violation(claim: str, D: Digraph) -> Conclusion:
    return Conclusion("violation", claim=claim, serialization=serialize(D))


def _d8_or_violation(D: BipartiteDigraph, claim: str) -> Conclusion:
    witness = iso_to_D8(D)
    if witness is not None:
        return Conclusion("d8-isomorphism", isomorphism=witness)
    return _violation(claim, D)


def _certificate(D: BipartiteDigraph, top: int, top_cycle: Cycle | None = None) -> Conclusion:
    """Witness every even length 2..top or report the first missing one.

    top_cycle, when given, is the top length's witness, already found.
    """
    witnesses = []
    for m in range(2, top + 1, 2):
        cycle = top_cycle if m == top and top_cycle is not None else find_cycle_of_length(D, m)
        if cycle is None:
            return _violation(f"no cycle of length {m} (even lengths 2..{top} claimed)", D)
        witnesses.append((m, cycle))
    return Conclusion("pancyclic-certificate", cycles=tuple(witnesses))


def _conclude_1_7(D: BipartiteDigraph) -> Conclusion:
    """Hamiltonian, or the 8-vertex exception."""
    ham = find_cycle_of_length(D, D.n)
    if ham is not None:
        return _single("hamiltonian", ham)
    return _d8_or_violation(D, "not Hamiltonian and not the 8-vertex exception")


def _conclude_1_8(D: BipartiteDigraph) -> Conclusion:
    """A cycle two short of Hamiltonian, or the directed cycle itself."""
    if D.is_directed_cycle():
        cycle = find_cycle_of_length(D, D.n)
        assert cycle is not None
        return _single("directed-cycle", cycle)
    cycle = find_cycle_of_length(D, 2 * D.a - 2)
    if cycle is not None:
        return _single("two-below-full-cycle", cycle)
    return _violation(f"no cycle of length {2 * D.a - 2} and not a directed cycle", D)


def _conclude_1_10(D: BipartiteDigraph) -> Conclusion:
    """Even pancyclic, or the 8-vertex exception."""
    conclusion = _certificate(D, 2 * D.a)
    if conclusion.kind != "violation":
        return conclusion
    return _d8_or_violation(D, conclusion.claim + "; not the 8-vertex exception")


def _conclude_3_2(D: BipartiteDigraph) -> Conclusion:
    """The longest non-Hamiltonian cycle, of length >= 4."""
    cycle = longest_non_hamiltonian_cycle(D)
    if cycle is not None and cycle.length >= 4:
        return _single("non-hamiltonian-cycle", cycle)
    return _violation("no non-Hamiltonian cycle of length >= 4", D)


def _conclude_3_4(D: BipartiteDigraph, cycle: Cycle) -> Conclusion:
    """The premise's bypassed longest non-Hamiltonian cycle has length 2a - 2."""
    if cycle.length == 2 * D.a - 2:
        return _single("two-below-full-cycle", cycle)
    return _violation(
        f"gap-1 bypass on a longest non-Hamiltonian cycle of length {cycle.length},"
        f" expected {2 * D.a - 2}",
        D,
    )


# Each statement's conclusion routine, run only on inputs that meet its
# hypotheses, with the premise cycle those found (1.9's, 3.4's) or None.
# Lemma 3.3 has none: its unit is not a digraph (see _eval_l3_3).
_CONCLUSIONS: dict[Theorem, Callable[[BipartiteDigraph, Cycle | None], Conclusion]] = {
    Theorem.T1_6: lambda D, _: _certificate(D, 2 * D.a),
    Theorem.T1_7: lambda D, _: _conclude_1_7(D),
    Theorem.T1_8: lambda D, _: _conclude_1_8(D),
    Theorem.T1_9: lambda D, premise: _certificate(D, 2 * D.a - 2, premise),
    Theorem.T1_10: lambda D, _: _conclude_1_10(D),
    Theorem.L3_2: lambda D, _: _conclude_3_2(D),
    Theorem.L3_4: _conclude_3_4,
}


def verify_theorem(D: Digraph, theorem: Theorem) -> TheoremVerdict:
    """Check one catalog statement's hypotheses and, when they hold, its
    conclusion.

    Raises BadParams for lemma 3.3, which has no per-digraph verdict (search
    replays it), and TooLarge for lemmas 3.2 and 3.4 above the longest-cycle
    scan's order cap.
    """
    if theorem not in _CONCLUSIONS:
        raise BadParams(
            f"{theorem.value} is stated per (cycle, vertex) pair, not per digraph;"
            f" replay it with search --target {theorem.value}"
        )
    hyp = check_theorem_hypotheses(D, theorem)
    if not hyp.satisfied:
        return TheoremVerdict(theorem, hyp, None)
    assert isinstance(D, BipartiteDigraph)
    return TheoremVerdict(theorem, hyp, _CONCLUSIONS[theorem](D, hyp._premise))


# -- isomorphism to the 8-vertex exception ----------------------------------------


_D8 = families.d8()
_D8_ARCS = frozenset(
    (_D8._index(u), _D8._index(v)) for u, v in _D8.arcs()
)
_D8_DEGREES = tuple(sorted(_D8.degree(v).total for v in _D8.vertices()))


def _two_coloring(D: Digraph) -> tuple[list[int], list[int]] | None:
    """Split indices into two classes with every arc crossing, v0's class
    first; None if impossible or the underlying graph is disconnected."""
    und = [D._out[i] | D._in[i] for i in range(D.n)]
    color = [-1] * D.n
    color[0] = 0
    queue = [0]
    while queue:
        i = queue.pop()
        m = und[i]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            if color[j] == -1:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:
                return None
    if -1 in color:
        return None
    return (
        [i for i in range(D.n) if color[i] == 0],
        [i for i in range(D.n) if color[i] == 1],
    )


def iso_to_D8(D: Digraph) -> IsomorphismWitness | None:
    """Arc-exact isomorphism onto the canonical 8-vertex exception, or None.

    Fast-rejects on order, arc count, bipartite structure, and the degree
    multiset, then tries all 2 * 4! * 4! side-respecting bijections in a
    fixed order (sides preserved before swapped, then lexicographic on the
    two index permutations), so the returned witness is deterministic.
    """
    if D.n != 8 or D.arc_count != 20:
        return None
    if isinstance(D, BipartiteDigraph):
        xs, ys = [0, 1, 2, 3], [4, 5, 6, 7]
    else:
        split = _two_coloring(D)
        if split is None or len(split[0]) != 4:
            return None
        xs, ys = split
    if tuple(sorted(D.degree(v).total for v in D.vertices())) != _D8_DEGREES:
        return None
    arcs = [(D._index(u), D._index(v)) for u, v in D.arcs()]
    for swap in (False, True):
        left, right = (xs, ys) if not swap else (ys, xs)
        for sx in permutations(range(4)):
            image = {}
            for i, src in enumerate(left):
                image[src] = sx[i]  # x-block of the target
            for sy in permutations(range(4)):
                for j, src in enumerate(right):
                    image[src] = 4 + sy[j]  # y-block of the target
                if all((image[u], image[v]) in _D8_ARCS for u, v in arcs):
                    mapping = tuple(
                        sorted(
                            ((D._vertex(i), _D8._vertex(image[i])) for i in range(8)),
                            key=lambda pair: pair[0],
                        )
                    )
                    return IsomorphismWitness(mapping=mapping, side_swap=swap)
    return None


# -- randomized counterexample search ----------------------------------------------


# The search's former name for its targets, now every Theorem member.  Kept
# because bench/searchload.py still calls SearchTarget("1.9") and ("3.3").
SearchTarget = Theorem


# Largest per-cell sample count: thirty times the acceptance gate's largest run.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Grid plus budget for one search run.

    samples counts digraphs drawn per (a, p) cell, at most MAX_SAMPLES.  The
    per-sample RNG seed is sha256(f"{seed}|{a}|{p!r}|{index}") truncated to
    64 bits, so any single sample can be regenerated in isolation.
    """

    target: Theorem
    a_values: tuple[int, ...] = (4, 5, 6)
    p_values: tuple[float, ...] = (0.3, 0.5, 0.7)
    samples: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if not isinstance(self.target, Theorem):
            raise BadConfig(f"target must be a Theorem member, got {self.target!r}")
        if not self.a_values:
            raise BadConfig("need at least one side size")
        if not self.p_values:
            raise BadConfig("need at least one arc probability")
        for a in self.a_values:
            if not isinstance(a, int):
                raise BadConfig(f"side size must be an int, got {a!r}")
            if not 1 <= a <= 12:
                raise BadConfig(f"side size must be in [1, 12], got {a}")
        for p in self.p_values:
            if not isinstance(p, (int, float)):
                raise BadConfig(f"arc probability must be a number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise BadConfig(f"arc probability must be in [0, 1], got {p}")
        if not isinstance(self.samples, int):
            raise BadConfig(f"sample count must be an int, got {self.samples!r}")
        if not 0 <= self.samples <= MAX_SAMPLES:
            raise BadConfig(
                f"sample count must be in [0, {MAX_SAMPLES}], got {self.samples}"
            )
        # a repeated value would name one cell twice and count it twice
        if len(set(self.a_values)) < len(self.a_values):
            raise BadConfig("side sizes must be distinct")
        if len(set(self.p_values)) < len(self.p_values):
            raise BadConfig("arc probabilities must be distinct")


@dataclass(frozen=True)
class CellStats:
    a: int
    p: float
    samples: int
    satisfying: int
    violations: int


@dataclass(frozen=True)
class ViolationRecord:
    """Everything needed to replay one found counterexample."""

    target: Theorem
    a: int
    p: float
    sample_index: int
    claim: str
    serialization: str
    config_seed: int

    @property
    def sample_seed(self) -> int:
        """The sample's RNG seed, derived from the fields repro_command uses."""
        return sample_seed(self.config_seed, self.a, self.p, self.sample_index)

    def repro_command(self) -> str:
        return (
            f"bipancyclic search --target {self.target.value} --a {self.a}"
            f" --p {self.p} --samples {self.sample_index + 1} --seed {self.config_seed}"
        )


@dataclass(frozen=True)
class SearchReport:
    """Aggregated outcome of one search run.

    Counts and violations are a pure function of the config; runtime_seconds
    is informational and excluded from any stable rendering.  The run totals
    are sums over cells.
    """

    config: SearchConfig
    violations: tuple[ViolationRecord, ...]
    cells: tuple[CellStats, ...]
    runtime_seconds: float

    @property
    def samples_run(self) -> int:
        return sum(cell.samples for cell in self.cells)

    @property
    def hypothesis_satisfying(self) -> int:
        return sum(cell.satisfying for cell in self.cells)

    def render(self) -> str:
        """search's text output."""
        c = self.config
        lines = [
            f"target: {c.target.value}",
            f"a values: {' '.join(str(a) for a in c.a_values)}",
            f"p values: {' '.join(repr(p) for p in c.p_values)}",
            f"samples per cell: {c.samples}",
            f"seed: {c.seed}",
            f"samples run: {self.samples_run}",
            f"hypothesis-satisfying: {self.hypothesis_satisfying}",
            f"violations: {len(self.violations)}",
        ]
        for cell in self.cells:
            lines.append(
                f"cell a={cell.a} p={cell.p!r}: samples={cell.samples}"
                f" satisfying={cell.satisfying} violations={cell.violations}"
            )
        for v in self.violations:
            lines.append(f"VIOLATION [{v.claim}] repro: {v.repro_command()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """search's JSON output document."""
        c = self.config
        return {
            "target": c.target.value,
            "a_values": list(c.a_values),
            "p_values": list(c.p_values),
            "samples_per_cell": c.samples,
            "seed": c.seed,
            "samples_run": self.samples_run,
            "hypothesis_satisfying": self.hypothesis_satisfying,
            "violations": [
                {
                    "a": v.a,
                    "p": v.p,
                    "sample_index": v.sample_index,
                    "sample_seed": v.sample_seed,
                    "claim": v.claim,
                    "repro": v.repro_command(),
                    "serialization": v.serialization,
                }
                for v in self.violations
            ],
            "cells": [asdict(cell) for cell in self.cells],
        }


def sample_seed(seed: int, a: int, p: float, index: int) -> int:
    """The per-sample RNG seed; pure, platform-stable."""
    key = f"{seed}|{a}|{p!r}|{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def sample_digraph(seed: int, a: int, p: float, index: int) -> BipartiteDigraph:
    """Regenerate the index-th sample of a search cell."""
    return random_bipartite(a, p, sample_seed(seed, a, p, index))


# Per-target evaluation: returns (satisfying units, violation claims).  Every
# target but lemma 3.3 tests the hypotheses with the same clauses certify
# reports on, then runs the same conclusion routine certify runs.


def _eval_claim(theorem: Theorem, D: BipartiteDigraph) -> tuple[int, list[str]]:
    held, premise = _hold_with_premise(D, theorem)
    if not held:
        return 0, []
    conclusion = _CONCLUSIONS[theorem](D, premise)
    if conclusion.kind == "violation":
        return 1, [f"claim {theorem.value}: {conclusion.claim}"]
    return 1, []


def _eval_l3_3(D: BipartiteDigraph) -> tuple[int, list[str]]:
    """Lemma 3.3 on index masks: for each cycle length 2b < 2a, the least
    2b-cycle and any vertex off it with >= b + 1 arcs to it form one unit,
    whose ladder (``_ladder``, cycles_through_vertex's core) must reach 2b.

    check_cycle re-checks each cycle that has a unit, once per cycle rather
    than once per unit.  A missing rung gives the claim text of the
    WitnessNotFound that cycles_through_vertex would raise.
    """
    out, inn = D._out, D._in
    satisfying = 0
    claims: list[str] = []
    for b in range(1, D.a):  # cycle length 2b <= 2a - 2 < order
        hit = _find_cycle_indices(D, 2 * b)
        if hit is None:
            continue
        cmask = 0
        for i in hit:
            cmask |= 1 << i
        units = [
            x
            for x in range(D.n)
            if not cmask >> x & 1
            and (out[x] & cmask).bit_count() + (inn[x] & cmask).bit_count() > b
        ]
        if not units:
            continue
        check_cycle(D, [D._vertex(i) for i in hit])
        satisfying += len(units)
        for x in units:
            for m, cycle in _ladder(out, inn, x, cmask | 1 << x):
                if cycle is None:
                    claims.append(
                        f"claim 3.3: no cycle of length {m} through {D._vertex(x)}"
                        " within the cycle vertices"
                    )
                    break
    return satisfying, claims


# Targets evaluated other than by _eval_claim.
_EVALUATORS: dict[Theorem, Callable[[BipartiteDigraph], tuple[int, list[str]]]] = {
    Theorem.L3_3: _eval_l3_3,
}

_BLOCK = 512  # samples per worker task


def _run_block(
    target: Theorem, a: int, p: float, seed: int, start: int, stop: int
) -> tuple[int, list[ViolationRecord]]:
    """Evaluate sample indices [start, stop) of one cell; returns the
    satisfying count and the violation records, picklable for workers."""
    evaluate = _EVALUATORS.get(target) or partial(_eval_claim, target)
    satisfying = 0
    violations: list[ViolationRecord] = []
    for i in range(start, stop):
        D = sample_digraph(seed, a, p, i)
        units, claims = evaluate(D)
        satisfying += units
        if claims:
            text = serialize(D)
            violations.extend(
                ViolationRecord(target, a, p, i, claim, text, seed) for claim in claims
            )
    return satisfying, violations


def _block_results(blocks: Iterable[tuple], workers: int) -> Iterator[tuple[tuple, tuple]]:
    """Yield each block with its _run_block result, in block order.

    Blocks are drawn lazily, and a pool keeps at most 2 * workers of them in
    flight, so memory does not grow with the number of blocks.
    """
    if workers <= 1:
        for block in blocks:
            yield block, _run_block(*block)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        in_flight: deque[tuple[tuple, Future]] = deque()
        for block in blocks:
            in_flight.append((block, pool.submit(_run_block, *block)))
            if len(in_flight) == 2 * workers:
                done, future = in_flight.popleft()
                yield done, future.result()
        for done, future in in_flight:
            yield done, future.result()


def run_search(config: SearchConfig, workers: int = 1) -> SearchReport:
    """Run the configured search; counts are independent of worker count."""
    config.validate()
    if workers < 1:
        raise BadConfig(f"worker count must be >= 1, got {workers}")
    started = time.perf_counter()
    cells = [(a, p) for a in config.a_values for p in config.p_values]
    starts = range(0, config.samples, _BLOCK)
    blocks = (
        (config.target, a, p, config.seed, start, min(start + _BLOCK, config.samples))
        for a, p in cells
        for start in starts
    )
    # More processes than blocks or cores cannot help, and a pool forks all
    # of its workers up front.
    workers = min(workers, len(cells) * len(starts), os.cpu_count() or 1)
    # (samples, satisfying, violations) per cell, in grid order
    counts = {cell: [0, 0, 0] for cell in cells}
    violations: list[ViolationRecord] = []
    for (_, a, p, _, start, stop), (satisfying, found) in _block_results(blocks, workers):
        cell = counts[a, p]
        cell[0] += stop - start
        cell[1] += satisfying
        cell[2] += len(found)
        violations.extend(found)
    return SearchReport(
        config=config,
        violations=tuple(violations),
        cells=tuple(CellStats(a, p, *cell) for (a, p), cell in counts.items()),
        runtime_seconds=time.perf_counter() - started,
    )


def write_violations(report: SearchReport, directory: str | Path) -> list[Path]:
    """Persist each violation as a parseable serialization file with the
    claim and a one-line reproduction command in comments."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for v in report.violations:
        name = (
            f"violation-{v.target.value.replace('.', '_')}"
            f"-a{v.a}-p{v.p!r}-i{v.sample_index}.txt"
        )
        path = directory / name
        path.write_text(
            f"# {v.claim}\n# repro: {v.repro_command()}\n{v.serialization}",
            encoding="utf-8",
        )
        written.append(path)
    return written
