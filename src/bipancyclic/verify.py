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
screens each drawn block with the statement's gates (order and B_k on the
block's arc digits, before any sample is built), and runs the premise and
the same conclusion routine certify runs on each survivor.  Every
sample's seed is a pure function of (config seed, a, p, sample index), so
reports are reproducible count-for-count regardless of worker count or
platform.

Premises and conclusion routines work on vertex indices: a witness is an
index list until verify_theorem names it (_named), the one place a witness
gets vertex names and a violation its serialization.  The search reads
only a conclusion's kind and claim text, so it never names a witness.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import partial, reduce
from itertools import combinations, permutations
from operator import and_, or_
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .conditions import (
    HypothesisReport,
    Theorem,
    _CLAUSES,
    _Clause,
    _Found,
    _screen,
    check_theorem_hypotheses,
)
from .cycles import (
    Cycle,
    _as_cycle,
    _check_cycle_indices,
    _find_cycles,
    _length_mask,
    _lex_min_cycle_from,
    _longest_non_hamiltonian,
    find_cycle_of_length,  # not called: bench/cliload.py's traced run wraps it here
)
from .digraph import (
    BipartiteDigraph,
    Digraph,
    Vertex,
    _bits,
    _require_int,
    _require_probability,
    _threshold_digits,
    random_bipartite,
    serialize,
)
from .errors import BadConfig, BadParams
from . import families

if TYPE_CHECKING:
    from concurrent.futures import Future


# -- conclusions -----------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismWitness:
    """An arc-exact bijection onto the 8-vertex exception.

    mapping lists (source, image) pairs sorted by source.  side_swap records
    whether the bijection exchanges the two partite classes.  In both digraph
    classes the x role goes to the 4-set holding x0 or v0 that every arc
    crosses: the x side of a bipartite input, v0's class of a general one.
    """

    mapping: tuple[tuple[Vertex, Vertex], ...]
    side_swap: bool

    def render(self) -> str:
        pairs = " ".join(f"{s}->{d}" for s, d in self.mapping)
        swap = "swapped" if self.side_swap else "preserved"
        return f"sides {swap}: {pairs}"

    def to_json(self) -> dict:
        """The side_swap and mapping keys of certify's and iso-d8's JSON."""
        return {
            "side_swap": self.side_swap,
            "mapping": {str(s): str(d) for s, d in self.mapping},
        }


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

    A conclusion routine returns it on vertex indices: each witness in
    cycles an index list, and no serialization.  verify_theorem names it
    (_named) before anyone reads more than kind and claim.
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
            return {"kind": self.kind, **self.isomorphism.to_json()}
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


def _single(kind: str, hit: list[int]) -> Conclusion:
    return Conclusion(kind, cycles=((len(hit), hit),))


def _violation(claim: str) -> Conclusion:
    return Conclusion("violation", claim=claim)


def _named(D: BipartiteDigraph, conclusion: Conclusion) -> Conclusion:
    """A routine's index-level conclusion with each witness named as a
    Cycle, and a violation's input serialized."""
    return replace(
        conclusion,
        cycles=tuple((m, _as_cycle(D, hit)) for m, hit in conclusion.cycles),
        serialization=serialize(D) if conclusion.kind == "violation" else "",
    )


def _d8_or_violation(D: BipartiteDigraph, claim: str) -> Conclusion:
    witness = iso_to_D8(D)
    if witness is not None:
        return Conclusion("d8-isomorphism", isomorphism=witness)
    return _violation(claim)


def _certificate(
    D: BipartiteDigraph, top: int, found: dict[int, list[int]] | None = None
) -> Conclusion:
    """Witness every even length 2..top or report the least missing one.

    found, when given, is the witness of each even length 2..top that D
    has, by length, already found (claim 1.9's premise), and nothing is
    searched.  Else every length is searched in one pass over the starts
    (``_find_cycles``), each witness the same lex-min cycle a search for
    that length alone returns.
    """
    if found is None:
        found = _find_cycles(D, _length_mask(D, top))
    for m in range(2, top + 1, 2):
        if m not in found:
            return _violation(f"no cycle of length {m} (even lengths 2..{top} claimed)")
    return Conclusion("pancyclic-certificate", cycles=tuple(sorted(found.items())))


def _directed_cycle(D: BipartiteDigraph) -> Conclusion:
    """The directed-cycle conclusion: the input is its own Hamiltonian cycle."""
    return _single("directed-cycle", _find_cycles(D, 1 << D.n)[D.n])


def _conclude_1_6(D: BipartiteDigraph) -> Conclusion:
    """Even pancyclic, or a directed cycle, which meets the two-sided
    condition vacuously (no two vertices share an out-neighbor)."""
    conclusion = _certificate(D, 2 * D.a)
    if conclusion.kind == "violation" and D.is_directed_cycle():
        return _directed_cycle(D)
    return conclusion


def _conclude_1_7(D: BipartiteDigraph) -> Conclusion:
    """Hamiltonian, or the 8-vertex exception."""
    ham = _find_cycles(D, 1 << D.n).get(D.n)
    if ham is not None:
        return _single("hamiltonian", ham)
    return _d8_or_violation(D, "not Hamiltonian and not the 8-vertex exception")


def _conclude_1_8(D: BipartiteDigraph) -> Conclusion:
    """A cycle two short of Hamiltonian, or the directed cycle itself."""
    if D.is_directed_cycle():
        return _directed_cycle(D)
    cycle = _find_cycles(D, 1 << 2 * D.a - 2).get(2 * D.a - 2)
    if cycle is not None:
        return _single("two-below-full-cycle", cycle)
    return _violation(f"no cycle of length {2 * D.a - 2} and not a directed cycle")


def _conclude_1_10(D: BipartiteDigraph) -> Conclusion:
    """Even pancyclic, or the 8-vertex exception."""
    conclusion = _certificate(D, 2 * D.a)
    if conclusion.kind != "violation":
        return conclusion
    return _d8_or_violation(D, conclusion.claim + "; not the 8-vertex exception")


def _conclude_3_2(D: BipartiteDigraph) -> Conclusion:
    """The longest non-Hamiltonian cycle, of length >= 4."""
    cycle = _longest_non_hamiltonian(D)
    if cycle is not None and len(cycle) >= 4:
        return _single("non-hamiltonian-cycle", cycle)
    return _violation("no non-Hamiltonian cycle of length >= 4")


def _conclude_3_4(D: BipartiteDigraph, cycle: list[int]) -> Conclusion:
    """The premise's bypassed longest non-Hamiltonian cycle has length 2a - 2."""
    if len(cycle) == 2 * D.a - 2:
        return _single("two-below-full-cycle", cycle)
    return _violation(
        f"gap-1 bypass on a longest non-Hamiltonian cycle of length {len(cycle)},"
        f" expected {2 * D.a - 2}"
    )


# Each statement's conclusion routine, run only on inputs that meet its
# hypotheses, with what the premise found (conditions._Found) or None;
# certify and the search share it.  It answers on vertex indices (see
# Conclusion).  Lemma 3.3 has none: its unit is not a digraph (see
# _eval_l3_3).
_Conclude = Callable[[BipartiteDigraph, _Found | None], Conclusion]
_CONCLUSIONS: dict[Theorem, _Conclude] = {
    Theorem.T1_6: lambda D, _: _conclude_1_6(D),
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

    Raises BadParams when theorem is not a Theorem member (from
    check_theorem_hypotheses) and for lemma 3.3, which has no per-digraph
    verdict (search replays it), and TooLarge for lemmas 3.2 and 3.4 above
    the longest-cycle scan's order cap.
    """
    hyp = check_theorem_hypotheses(D, theorem)  # lemma 3.3's row is empty
    if theorem not in _CONCLUSIONS:
        raise BadParams(
            f"{theorem.value} is stated per (cycle, vertex) pair, not per digraph;"
            f" replay it with search --target {theorem.value}"
        )
    if not hyp.satisfied:
        return TheoremVerdict(theorem, hyp, None)
    assert isinstance(D, BipartiteDigraph)
    return TheoremVerdict(theorem, hyp, _named(D, _CONCLUSIONS[theorem](D, hyp._premise)))


# -- isomorphism to the 8-vertex exception ----------------------------------------


_D8 = families.d8()
_D8_ARCS = frozenset((i, j) for i in range(8) for j in _bits(_D8._out[i]))
_D8_DEGREES = sorted(_D8._total_degrees())


def iso_to_D8(D: Digraph) -> IsomorphismWitness | None:
    """Arc-exact isomorphism onto the canonical 8-vertex exception, or None.

    Fast-rejects on order, arc count and the degree multiset.  The x role then
    goes to the 4-set of indices holding index 0 (x0 of a bipartite input, v0
    of a general one) that every arc crosses, for both digraph classes; None
    if there is no such set.  A digraph with the exception's degrees has a
    connected underlying graph, so there is at most one, and for a bipartite
    input it is the x side.  All 2 * 4! * 4! side-respecting bijections are
    then tried in a fixed order (sides preserved before swapped, then
    lexicographic on the two index permutations), so the returned witness is
    deterministic.  Its mapping lists the input's vertices in index order,
    which is canonical order.
    """
    if D.n != 8 or D.arc_count != 20:
        return None
    if sorted(D._total_degrees()) != _D8_DEGREES:
        return None
    arcs = [(i, j) for i in range(8) for j in _bits(D._out[i])]
    for rest in combinations(range(1, 8), 3):
        xs = [0, *rest]
        if all((u in xs) != (v in xs) for u, v in arcs):
            break
    else:
        return None
    ys = [i for i in range(8) if i not in xs]
    for swap in (False, True):
        left, right = (xs, ys) if not swap else (ys, xs)
        for sx in permutations(range(4)):
            image = dict(zip(left, sx))  # x-block of the target
            for sy in permutations(range(4, 8)):
                image.update(zip(right, sy))  # y-block of the target
                if all((image[u], image[v]) in _D8_ARCS for u, v in arcs):
                    # ascending index order is canonical order
                    mapping = tuple((D._vertex(i), _D8._vertex(image[i])) for i in range(8))
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
    per-sample RNG seed is sha256(f"{seed}|{a}|{float(p)!r}|{index}")
    truncated to 64 bits, so any single sample can be regenerated in isolation.
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
            _require_int(a, "side size", 1, 12, error=BadConfig)
        for p in self.p_values:
            _require_probability(p, error=BadConfig)
        _require_int(self.samples, "sample count", 0, MAX_SAMPLES, error=BadConfig)
        _require_int(self.seed, "seed", error=BadConfig)
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
    """The per-sample RNG seed; pure, platform-stable.

    p enters the key as float(p), the value the command line parses from a
    repro command's ``--p``, so an int p keys the same seed as its float.
    This is the contract's one-index reference; the search derives a whole
    block's seeds inline (_block_digits).  Raises BadParams unless seed is an
    int, a an int >= 1, p a number in [0, 1] and index an int >= 0: any
    other value would key a seed that no search draws, or the seed of a
    different sample.
    """
    _require_int(seed, "seed")
    _require_int(a, "side size", 1)
    _require_probability(p)
    _require_int(index, "sample index", 0)
    key = f"{seed}|{a}|{float(p)!r}|{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def sample_digraph(seed: int, a: int, p: float, index: int) -> BipartiteDigraph:
    """Regenerate the index-th sample of a search cell."""
    return random_bipartite(a, p, sample_seed(seed, a, p, index))


# Per-target evaluation: returns (satisfying units, violation claims), which
# _run_block prefixes with the statement id.


def _eval_claim(
    premise: _Clause | None, conclude: _Conclude, D: BipartiteDigraph
) -> tuple[int, list[str]]:
    """A sample that passed every gate of its row (_screen): its premise,
    when the row has one, then the conclusion routine certify runs.

    Only the conclusion's kind and claim text are read, so no witness is
    named here.
    """
    found = None
    if premise is not None:
        found = premise.holds(D)
        if found is None:
            return 0, []
    conclusion = conclude(D, found)
    if conclusion.kind == "violation":
        return 1, [conclusion.claim]
    return 1, []


def _rung_masks(out: Sequence[int], inn: Sequence[int], hit: list[int]) -> list[int]:
    """Lemma 3.3's rungs that one stretch of the cycle ``hit`` closes, for
    every vertex at once.

    Entry j is rung m = 2j + 2's vertex mask: bit x is set iff x -> hit[i]
    and hit[i + m - 2] -> x for some position i (mod len(hit)), which is the
    m-cycle x -> hit[i] -> ... -> hit[i + m - 2] -> x.  heads[i] holds the
    vertices with an arc to hit[i], tails[i] those with an arc from it;
    tails is doubled so a slice of it wraps around the cycle.
    """
    heads = [inn[c] for c in hit]
    tails = [out[c] for c in hit] * 2
    return [reduce(or_, map(and_, heads, tails[k:])) for k in range(0, len(hit), 2)]


def _eval_l3_3(D: BipartiteDigraph) -> tuple[int, list[str]]:
    """Lemma 3.3 on index masks: for each cycle length 2b < 2a, the least
    2b-cycle C and any vertex x off it with >= b + 1 arcs to it form one
    unit, whose ladder of cycles through x inside V(C) + x must reach 2b.

    Each rung m is first settled by a segment: x, then m - 1 consecutive
    vertices of C, back to x, which exists exactly when some position x
    sends an arc to is m - 2 steps before one that sends an arc to x.
    ``_rung_masks`` settles each rung for every vertex at once, as one mask
    per rung and cycle, so a unit costs one bit test when all its rungs are
    settled.  That settles every rung of every unit.  x lies on one side,
    so its arcs meet only the b positions of C on the other side, and a
    shift by the even m - 2 permutes those positions; the positions x sends
    to and the shifted positions that send to x have more than b members
    between them, so they meet.  A rung left open would go to the
    exhaustive DFS (``_lex_min_cycle_from``), so a missing rung is reported
    only when no such cycle exists.

    The whole evaluation stays on vertex indices.  The least cycle of every
    length 2b is found in one pass over the starts (``_find_cycles``): one
    walk per start for all pending lengths, each witness the one a search
    for that length alone returns, and each start's strong component swept
    once per sample.  A rung left to the DFS asks for its one length.
    check_cycle's index core (``_check_cycle_indices``) re-checks each
    cycle that has a unit, once per cycle rather than once per unit.  A
    missing rung gives the claim text of the WitnessNotFound that
    cycles_through_vertex would raise.
    """
    out, inn = D._out, D._in
    satisfying = 0
    claims: list[str] = []
    hits = _find_cycles(D, _length_mask(D, 2 * D.a - 2))
    for b in range(1, D.a):  # cycle length 2b <= 2a - 2 < order
        hit = hits.get(2 * b)
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
        _check_cycle_indices(D, hit)
        satisfying += len(units)
        rungs = _rung_masks(out, inn, hit)
        settled = reduce(and_, rungs)
        for x in units:
            if settled >> x & 1:
                continue
            allowed = cmask | 1 << x
            for m, rung in zip(range(2, 2 * b + 1, 2), rungs):
                if not rung >> x & 1 and not _lex_min_cycle_from(out, inn, x, 1 << m, allowed):
                    claims.append(
                        f"no cycle of length {m} through {D._vertex(x)}"
                        " within the cycle vertices"
                    )
                    break
    return satisfying, claims


_BLOCK = 512  # samples per worker task


def _block_digits(seed: int, a: int, p: float, start: int, stop: int) -> bytearray:
    """The arc digits (digraph._arc_digits) of sample indices [start, stop)
    of one cell: the digits of sample_seed(seed, a, p, i) for each index i.

    One loop takes each index from key to digest: the sha256 key is a copy
    of the hash state of the cell's prefix, formatted and hashed once, plus
    the index; its first 8 bytes are the sample's seed; the seed's
    shake_256 digest gives its draws, as random_bipartite reads them.  The
    joined digests are thresholded once for the whole block.
    """
    prefix = hashlib.sha256(f"{seed}|{a}|{float(p)!r}|".encode())
    copy, shake, size = prefix.copy, hashlib.shake_256, 4 * a * a
    digests = []
    append = digests.append
    for index in range(start, stop):
        key = copy()
        key.update(b"%d" % index)
        append(shake(b"%d|%d" % (int.from_bytes(key.digest()[:8], "big"), a)).digest(size))
    return _threshold_digits(p, b"".join(digests))


def _run_block(
    target: Theorem, a: int, p: float, seed: int, start: int, stop: int
) -> tuple[int, list[ViolationRecord]]:
    """Evaluate sample indices [start, stop) of one cell; returns the
    satisfying count and the violation records, picklable for workers.

    Sample i is the digraph sample_digraph(seed, a, p, i) returns.  The
    block's arc digits come from one pass over its indices, each taken from
    key to seed to digest (_block_digits); a claim's gates screen the whole
    block from them (_screen), so only the samples that pass the order and
    B_k gates are built, a rejected sample costs no digraph, and only the
    survivors reach _eval_claim, each with its offset in the block.  Lemma
    3.3's row has no gates, so every sample is built for it.
    """
    row = _CLAUSES[target]
    survivors = _screen(row, a, _block_digits(seed, a, p, start, stop), stop - start)
    if target is Theorem.L3_3:
        evaluate = _eval_l3_3
    else:
        evaluate = partial(_eval_claim, row[1], _CONCLUSIONS[target])
    label = f"claim {target.value}: "
    satisfying = 0
    violations: list[ViolationRecord] = []
    for offset, D in survivors:
        units, claims = evaluate(D)
        satisfying += units
        if claims:
            text = serialize(D)
            violations.extend(
                ViolationRecord(target, a, p, start + offset, label + claim, text, seed)
                for claim in claims
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
    # Imported here: a single-process search never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

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
    _require_int(workers, "worker count", 1, error=BadConfig)
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
