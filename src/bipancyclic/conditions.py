"""Dominating-pair degree conditions and per-claim hypothesis reports.

The margin-k condition (written B_k, the name the command line also uses):
every pair of vertices with a common out-neighbor must contain one vertex of
total degree >= 2a - 2 + k, where a is the side size.  It is monotone in k
(B_{k+1} implies B_k) and holds vacuously when no dominating pair exists.

The statement catalog below numbers eight statements about balanced
bipartite digraphs: claims 1.6-1.10 and the lemmas 3.2-3.4 their proofs use.
The Theorem docstring states each in full.  check_theorem_hypotheses
evaluates every hypothesis clause of one statement and reports all failures,
not just the first; hypotheses_hold is the short-circuiting test over the
same clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .cycles import Cycle, find_bypass, find_cycle_of_length, longest_non_hamiltonian_cycle
from .digraph import BipartiteDigraph, Digraph, DominatingPair
from .errors import BadParams


class Theorem(Enum):
    """Catalog of statements, keyed by the identifiers the CLI accepts.

    Claims 1.6-1.10 quantify over strongly connected balanced bipartite
    digraphs with side size a; so do lemmas 3.2 and 3.4.

    T1_6: if every dominating pair {u, v} has d(u) >= 2a - 1 and d(v) >= a + 1
          (in one of the two orderings), the digraph has cycles of every even
          length 2..2a.
    T1_7: if a >= 4 and B_1 holds, the digraph is Hamiltonian or is one
          specific 8-vertex exception (see families.d8).
    T1_8: if a >= 4 and B_1 holds, the digraph has a cycle of length 2a - 2
          or is a directed cycle.
    T1_9: if a >= 4, B_0 holds, and a cycle of length 2a - 2 exists, the
          digraph has cycles of every even length 2..2a - 2.
    T1_10: if a >= 4, B_1 holds, and the digraph is not a directed cycle, it
           has cycles of every even length 2..2a or is the same 8-vertex
           exception as in T1_7.
    L3_2: if a >= 4, B_0 holds, and the digraph is not a directed cycle, its
          longest non-Hamiltonian cycle has length >= 4.
    L3_3: in any balanced bipartite digraph, if C is a cycle of length 2b and
          a vertex x off C has at least b + 1 arcs between it and V(C), both
          directions counted, then the subdigraph on V(C) + {x} has cycles
          through x of every even length 2..2b.  Its unit is a (cycle,
          vertex) pair, not a digraph, so only the search replays it: for
          each 2b < 2a, the lex-least 2b-cycle with each qualifying x.
    L3_4: if a >= 4, B_0 holds, and the longest non-Hamiltonian cycle C has
          length >= 4 and a bypass of gap 1, then C has length 2a - 2.
    """

    # Members are singletons compared by identity, so the identity hash is
    # exact; it spares the search Enum's Python-level __hash__ on the two
    # per-sample table lookups (clauses, conclusion routine).
    __hash__ = object.__hash__

    T1_6 = "1.6"
    T1_7 = "1.7"
    T1_8 = "1.8"
    T1_9 = "1.9"
    T1_10 = "1.10"
    L3_2 = "3.2"
    L3_3 = "3.3"
    L3_4 = "3.4"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a margin-k check over all dominating pairs.

    worst_pair is the dominating pair whose larger degree is smallest (ties
    broken lexicographically), together with that degree; None when the
    digraph has no dominating pair, in which case the condition holds
    vacuously.
    """

    k: int
    threshold: int
    holds: bool
    pairs_checked: int
    worst_pair: DominatingPair | None
    worst_degree: int | None

    def render(self) -> str:
        lines = [
            f"condition: B_{self.k}",
            f"threshold: {self.threshold}",
            f"pairs_checked: {self.pairs_checked}",
            f"holds: {'true' if self.holds else 'false'}",
        ]
        if self.worst_pair is not None:
            lines.append(f"worst_pair: {self.worst_pair.u} {self.worst_pair.v}")
            lines.append(f"worst_pair_witness: {self.worst_pair.witness}")
            lines.append(f"worst_max_degree: {self.worst_degree}")
        return "\n".join(lines)


def check_bk(D: BipartiteDigraph, k: int) -> ConditionReport:
    """Evaluate the margin-k dominating-pair degree condition.

    Scans every dominating pair; holds iff each pair's larger total degree
    reaches 2a - 2 + k.  Raises BadParams for negative k.
    """
    if k < 0:
        raise BadParams(f"condition margin must be >= 0, got {k}")
    if not isinstance(D, BipartiteDigraph):
        raise BadParams("degree condition is defined on balanced bipartite digraphs")
    threshold = 2 * D.a - 2 + k
    pairs = D.dominating_pairs()
    worst: DominatingPair | None = None
    worst_deg: int | None = None
    for pair in pairs:
        deg = max(D.degree(pair.u).total, D.degree(pair.v).total)
        if worst_deg is None or deg < worst_deg:
            worst, worst_deg = pair, deg
    holds = worst_deg is None or worst_deg >= threshold
    return ConditionReport(
        k=k,
        threshold=threshold,
        holds=holds,
        pairs_checked=len(pairs),
        worst_pair=worst,
        worst_degree=worst_deg,
    )


def bk_holds(D: BipartiteDigraph, k: int) -> bool:
    """Fast-path truth of the margin-k condition (no report, short-circuits).

    Must agree with check_bk(D, k).holds on every input; the test suite
    enforces that.
    """
    a = D.a
    threshold = 2 * a - 2 + k
    out, inn = D._out, D._in
    deg = [out[i].bit_count() + inn[i].bit_count() for i in range(2 * a)]
    # Only pairs where both degrees miss the threshold can violate, and in a
    # bipartite host dominating pairs are always same-side.
    for lo, hi in ((0, a), (a, 2 * a)):
        small = [i for i in range(lo, hi) if deg[i] < threshold and out[i]]
        for pos, i in enumerate(small):
            oi = out[i]
            for j in small[pos + 1 :]:
                if oi & out[j]:
                    return False
    return True


def check_two_sided_condition(D: BipartiteDigraph) -> tuple[bool, DominatingPair | None]:
    """Two-sided degree test on dominating pairs: one vertex of the pair must
    reach degree 2a - 1 and the other a + 1.  Returns (holds, first failing
    pair in lex order or None).  Raises BadParams for a general digraph."""
    if not isinstance(D, BipartiteDigraph):
        raise BadParams("degree condition is defined on balanced bipartite digraphs")
    a = D.a
    for pair in D.dominating_pairs():
        du = D.degree(pair.u).total
        dv = D.degree(pair.v).total
        if (du >= 2 * a - 1 and dv >= a + 1) or (dv >= 2 * a - 1 and du >= a + 1):
            continue
        return False, pair
    return True, None


@dataclass(frozen=True)
class HypothesisReport:
    """Which hypothesis clauses of a claim an input fails, if any."""

    theorem: Theorem
    failures: tuple[str, ...]
    # The cycle a premise clause found (claim 1.9's, lemma 3.4's), so that
    # the conclusion reuses it rather than searching for it again.
    _premise: Cycle | None = field(default=None, repr=False, compare=False)

    @property
    def satisfied(self) -> bool:
        return not self.failures


# A hypothesis clause: a cheap predicate plus a builder for its failure
# message, which runs only when the predicate fails.  A predicate holds when
# its value is truthy; a premise clause returns the cycle it found.
_Clause = tuple[Callable[[BipartiteDigraph], object], Callable[[BipartiteDigraph], str]]


def _order(min_side: int) -> _Clause:
    return (
        lambda D: D.a >= min_side,
        lambda D: f"order: needs side size >= {min_side}, got {D.a}",
    )


def _bk(k: int) -> _Clause:
    def explain(D: BipartiteDigraph) -> str:
        report = check_bk(D, k)
        assert report.worst_pair is not None
        return (
            f"degree condition: B_{k} fails, pair "
            f"{{{report.worst_pair.u}, {report.worst_pair.v}}} has max degree "
            f"{report.worst_degree} < {report.threshold}"
        )

    return (lambda D: bk_holds(D, k), explain)


def _explain_two_sided(D: BipartiteDigraph) -> str:
    _, bad = check_two_sided_condition(D)
    assert bad is not None
    return (
        f"degree condition: pair {{{bad.u}, {bad.v}}} has degrees "
        f"{D.degree(bad.u).total} and {D.degree(bad.v).total}, "
        f"needs {2 * D.a - 1} and {D.a + 1} in some order"
    )


_STRONG: _Clause = (Digraph.is_strong, lambda D: "connectivity: not strongly connected")
_TWO_SIDED: _Clause = (lambda D: check_two_sided_condition(D)[0], _explain_two_sided)
_PREMISE: _Clause = (
    lambda D: D.a < 2 or find_cycle_of_length(D, 2 * D.a - 2),
    lambda D: f"cycle premise: no cycle of length {2 * D.a - 2}",
)


def _bypassed_longest(D: BipartiteDigraph) -> Cycle | None:
    """The longest non-Hamiltonian cycle when it has length >= 4 and a
    gap-1 bypass (the least bypass has the least gap), else None."""
    C = longest_non_hamiltonian_cycle(D)
    if C is None or C.length < 4:
        return None
    bypass = find_bypass(D, C)
    return C if bypass is not None and bypass.gap == 1 else None


_BYPASS_PREMISE: _Clause = (
    _bypassed_longest,
    lambda D: "cycle premise: no longest non-Hamiltonian cycle of length >= 4"
    " with a gap-1 bypass",
)
_NOT_DIRECTED_CYCLE: _Clause = (
    lambda D: not D.is_directed_cycle(),
    lambda D: "shape: the digraph is a directed cycle",
)

# Each statement's hypotheses on a balanced bipartite input, in report order.
# Lemma 3.3's hypotheses hold per (cycle, vertex) unit, so its row is empty.
_CLAUSES: dict[Theorem, tuple[_Clause, ...]] = {
    Theorem.T1_6: (_STRONG, _order(1), _TWO_SIDED),
    Theorem.T1_7: (_STRONG, _order(4), _bk(1)),
    Theorem.T1_8: (_STRONG, _order(4), _bk(1)),
    Theorem.T1_9: (_STRONG, _order(4), _bk(0), _PREMISE),
    Theorem.T1_10: (_STRONG, _order(4), _bk(1), _NOT_DIRECTED_CYCLE),
    Theorem.L3_2: (_STRONG, _order(4), _bk(0), _NOT_DIRECTED_CYCLE),
    Theorem.L3_3: (),
    Theorem.L3_4: (_STRONG, _order(4), _bk(0), _BYPASS_PREMISE),
}


def check_theorem_hypotheses(D: Digraph, theorem: Theorem) -> HypothesisReport:
    """Evaluate every hypothesis clause of one statement; collect all failures.

    Clauses common to the catalog: balanced bipartite structure, strong
    connectivity, minimum side size.  Statement-specific clauses: the degree
    condition (two-sided for 1.6, margin 1 or 0 otherwise), existence of a
    cycle of length 2a - 2 (1.9), a longest non-Hamiltonian cycle of length
    >= 4 with a gap-1 bypass (3.4), and not being a directed cycle (1.10,
    3.2).  Lemma 3.3 has no clause on the digraph, so every bipartite input
    satisfies it here.  Raises TooLarge for lemma 3.4 above the longest-cycle
    scan's order cap.
    """
    if not isinstance(D, BipartiteDigraph):
        return HypothesisReport(theorem, ("structure: not a balanced bipartite digraph",))
    failures = []
    premise = None
    for holds, explain in _CLAUSES[theorem]:
        held = holds(D)
        if not held:
            failures.append(explain(D))
        elif isinstance(held, Cycle):
            premise = held
    return HypothesisReport(theorem, tuple(failures), premise)


def _hold_with_premise(D: BipartiteDigraph, theorem: Theorem) -> tuple[bool, Cycle | None]:
    """hypotheses_hold on a bipartite input, with the premise cycle its
    clauses found (claim 1.9, lemma 3.4), or None."""
    premise = None
    for holds, _ in _CLAUSES[theorem]:
        held = holds(D)
        if not held:
            return False, None
        if isinstance(held, Cycle):
            premise = held
    return True, premise


def hypotheses_hold(D: Digraph, theorem: Theorem) -> bool:
    """check_theorem_hypotheses(D, theorem).satisfied, stopping at the first
    failing clause and building no messages."""
    return isinstance(D, BipartiteDigraph) and _hold_with_premise(D, theorem)[0]
