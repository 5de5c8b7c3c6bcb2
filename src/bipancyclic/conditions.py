"""Dominating-pair degree conditions and per-claim hypothesis reports.

The margin-k condition (written B_k, the name the command line also uses):
every pair of vertices with a common out-neighbor must contain one vertex of
total degree >= 2a - 2 + k, where a is the side size.  It is monotone in k
(B_{k+1} implies B_k) and holds vacuously when no dominating pair exists.

The statement catalog below numbers eight statements about balanced
bipartite digraphs: claims 1.6-1.10 and the lemmas 3.2-3.4 their proofs use.
The Theorem docstring states each in full.  A statement's hypotheses are a
row of gate clauses (connectivity, order, degree condition, shape) plus at
most one premise clause, the cycles the conclusion starts from (claim 1.9's,
lemma 3.4's), found on vertex indices.  The premise runs only when every
gate held.  check_theorem_hypotheses walks the gates in report order and
reports every failing one (_walk); the search screens a whole block of
samples with the same gates and drops each sample at its first failure,
which changes no count (_screen).  The order and B_k gates decide the
block first, at once, from its arc digits (_bk_block), so the search
builds only the samples that pass them; the other gates then run in the
row's own order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import compress
from typing import Callable, NamedTuple

# find_cycle_of_length is not called here; bench/cliload.py's traced run
# wraps the name in this module.
from .cycles import _find_cycles, _length_mask, _longest_non_hamiltonian, find_cycle_of_length
from .digraph import BipartiteDigraph, Digraph, DominatingPair, _build_block, _reach, _require_int
from .errors import BadParams


class Theorem(Enum):
    """Catalog of statements, keyed by the identifiers the CLI accepts.

    Claims 1.6-1.10 quantify over strongly connected balanced bipartite
    digraphs with side size a; so do lemmas 3.2 and 3.4.

    T1_6: if every dominating pair {u, v} has d(u) >= 2a - 1 and d(v) >= a + 1
          (in one of the two orderings), the digraph has cycles of every even
          length 2..2a or is a directed cycle, which has no dominating pair
          and so meets the condition vacuously.
    T1_7: if a >= 4 and B_1 holds, the digraph is Hamiltonian or is one
          specific 8-vertex exception (see families.d8).
    T1_8: if a >= 4 and B_1 holds, the digraph has a cycle of length 2a - 2
          or is a directed cycle.
    T1_9: if a >= 4, B_0 holds, and a cycle of length 2a - 2 exists, the
          digraph has cycles of every even length 2..2a - 2.  Its premise
          walks for every even length 2..2a - 2 at once and hands the
          witnesses it found to the certificate, which searches no more.
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
    go to the first pair in canonical order), together with that degree;
    None when the digraph has no dominating pair, in which case the
    condition holds vacuously.
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
    reaches 2a - 2 + k.  The worst pair is the one with the least larger
    degree, and among those the first in canonical order.  Raises BadParams
    for a k that is not a nonnegative int.
    """
    _require_int(k, "condition margin", 0)
    if not isinstance(D, BipartiteDigraph):
        raise BadParams("degree condition is defined on balanced bipartite digraphs")
    threshold = 2 * D.a - 2 + k
    deg = D._total_degrees()
    scan = [(max(deg[i], deg[j]), i, j, w) for i, j, w in D._dominating_indices()]
    worst = min(scan, default=None)
    return ConditionReport(
        k=k,
        threshold=threshold,
        holds=worst is None or worst[0] >= threshold,
        pairs_checked=len(scan),
        worst_pair=None if worst is None else DominatingPair(*map(D._vertex, worst[1:])),
        worst_degree=None if worst is None else worst[0],
    )


def bk_holds(D: BipartiteDigraph, k: int) -> bool:
    """Fast-path truth of the margin-k condition (no report, short-circuits).

    Call a vertex low when its total degree is below 2a - 2 + k and it has
    an out-neighbor.  Only a pair of low vertices can violate the condition,
    so it holds iff the low vertices' out-sets are pairwise disjoint: each
    must miss the union of those before it.  One pass covers both sides,
    since an x vertex's out-set lies in Y and a y vertex's in X, so a cross
    pair never shares an out-neighbor.  ROADMAP item H's structural lemma
    starts from this rule.  Must agree with check_bk(D, k).holds on every
    input; the test suite enforces that.

    This is certify's path, one digraph at a time.  The search decides a
    whole block of samples from their arc digits instead (_bk_block), which
    shares no code with this rule and must agree with it sample for sample.
    """
    threshold = 2 * D.a - 2 + k
    covered = 0  # union of the out-sets of the low vertices seen so far
    # Degrees inline, not via D._total_degrees(): that list is built whole
    # before the first early exit, 2.5x the time per call on search-sparse's
    # samples (1.36 -> 3.33 us median, Python 3.11, 2-core Xeon).
    for out, inn in zip(D._out, D._in):
        if out and out.bit_count() + inn.bit_count() < threshold:
            if covered & out:
                return False
            covered |= out
    return True


def _bk_block(k: int, a: int, digits: bytearray, count: int) -> int:
    """bk_holds(D, k) for each of count samples at once, read from their
    arc digits as digraph._arc_digits lays them out: bit count - 1 - s of
    the result is set iff sample s passes.

    Bit-sliced: plane j holds slot j's digit of every sample, one bit each
    (the first sample highest), so each step below is one big-int operation
    for the whole block.  A vertex has exactly 2a arc slots, a out and a in,
    so its total degree is below 2a - 2 + k iff at least 3 - k of them are
    empty, which three saturating counters per vertex test.  bk_holds also
    asks a low vertex for an out-arc, but a vertex without one shares no
    head, so the test is left out here.  A sample fails iff two low tails
    share a head; a head's tails all lie on the other side.  On a single
    sample this takes 22, 45 and 158 us at a = 4, 6 and 12, against
    bk_holds' 0.4-0.5 us, so certify keeps bk_holds.
    """
    n, m, full = 2 * a, 2 * a * a, (1 << count) - 1
    planes = [int(digits[j::m], 2) for j in range(m)]
    empties = [full ^ plane for plane in planes]
    low = []
    for v in range(n):
        first = a * a if v < a else 0  # the in-slots of v: slot t * a + v % a
        at_least = [full, 0, 0, 0]  # samples with at least 0..3 empty slots at v
        for empty in empties[v * a : v * a + a] + empties[first + v % a : first + a * a : a]:
            at_least[3] |= at_least[2] & empty
            at_least[2] |= at_least[1] & empty
            at_least[1] |= empty
        low.append(at_least[max(0, 3 - k)])
    shared = 0  # samples where two low tails share a head
    for head in range(n):
        once = 0
        for tail in range(a, n) if head < a else range(a):
            hit = low[tail] & planes[tail * a + head % a]
            shared |= once & hit
            once |= hit
    return full ^ shared


def check_two_sided_condition(D: BipartiteDigraph) -> tuple[bool, DominatingPair | None]:
    """Two-sided degree test on dominating pairs: one vertex of the pair must
    reach degree 2a - 1 and the other a + 1.  Returns (holds, first failing
    pair in lex order or None).  Raises BadParams for a general digraph."""
    if not isinstance(D, BipartiteDigraph):
        raise BadParams("degree condition is defined on balanced bipartite digraphs")
    a = D.a
    deg = D._total_degrees()
    for i, j, w in D._dominating_indices():
        du, dv = deg[i], deg[j]
        if not (du >= 2 * a - 1 and dv >= a + 1 or dv >= 2 * a - 1 and du >= a + 1):
            return False, DominatingPair(*map(D._vertex, (i, j, w)))
    return True, None


# What a premise clause finds: claim 1.9's witness of each even length
# 2..2a - 2 that the input has, by length, or lemma 3.4's cycle, an index
# list.
_Found = dict[int, list[int]] | list[int]


@dataclass(frozen=True)
class HypothesisReport:
    """Which hypothesis clauses of a claim an input fails, if any."""

    theorem: Theorem
    failures: tuple[str, ...]
    # What the premise clause found (_Found), so that the conclusion reuses
    # it rather than searching again.
    _premise: _Found | None = field(default=None, repr=False, compare=False)

    @property
    def satisfied(self) -> bool:
        return not self.failures


class _Clause(NamedTuple):
    """A hypothesis clause: a predicate plus a builder for its failure
    message, which runs only when the predicate fails.  A gate's predicate
    returns a bool; a premise's returns what it found (_Found), or None.
    A gate may also have a block form, which decides a whole block of
    samples from their arc digits: block(a, digits, count) is a mask whose
    bit count - 1 - s says whether sample s passes (see _bk_block)."""

    holds: Callable[[BipartiteDigraph], object]
    explain: Callable[[BipartiteDigraph], str]
    block: Callable[[int, bytearray, int], int] | None = None


# A statement's hypotheses: its gates in report order, then its premise.
_Row = tuple[tuple[_Clause, ...], _Clause | None]


def _order(min_side: int) -> _Clause:
    return _Clause(
        lambda D: D.a >= min_side,
        lambda D: f"order: needs side size >= {min_side}, got {D.a}",
        lambda a, digits, count: (1 << count) - 1 if a >= min_side else 0,
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

    return _Clause(lambda D: bk_holds(D, k), explain, block=partial(_bk_block, k))


def _explain_two_sided(D: BipartiteDigraph) -> str:
    _, bad = check_two_sided_condition(D)
    assert bad is not None
    return (
        f"degree condition: pair {{{bad.u}, {bad.v}}} has degrees "
        f"{D.degree(bad.u).total} and {D.degree(bad.v).total}, "
        f"needs {2 * D.a - 1} and {D.a + 1} in some order"
    )


_STRONG = _Clause(Digraph.is_strong, lambda D: "connectivity: not strongly connected")
_TWO_SIDED = _Clause(lambda D: check_two_sided_condition(D)[0], _explain_two_sided)


def _cycles_to_top(D: BipartiteDigraph) -> dict[int, list[int]] | None:
    """Claim 1.9's premise: the lex-min cycle of each even length 2..2a - 2
    that D has, by length, when a (2a - 2)-cycle is among them, else None.

    One walk over the starts (_find_cycles) finds every length, each
    witness the one a search for that length alone returns, so the premise
    holds exactly when a one-length search would find a (2a - 2)-cycle, and
    the certificate reads the other lengths from the same map.  The walk
    needs the (2a - 2)-cycle, so it ends at the first start past which no
    such cycle fits, as a one-length search does.
    """
    top = 2 * D.a - 2
    found = _find_cycles(D, _length_mask(D, top), 1 << top)
    return found if top in found else None


_PREMISE = _Clause(
    _cycles_to_top,
    lambda D: f"cycle premise: no cycle of length {2 * D.a - 2}",
)


def _bypassed_longest(D: BipartiteDigraph) -> list[int] | None:
    """The longest non-Hamiltonian cycle C, as an index list, when it has
    length >= 4 and a gap-1 bypass, else None.

    A gap-1 bypass runs from a vertex u of C to its successor w on C through
    one or more vertices off C.  The sweep from u through the off-cycle
    vertices reaches exactly those that u reaches by a path whose inner
    vertices are all off C, so such a path to w exists iff one of them sends
    an arc to w.  Only existence matters: the least bypass has gap 1 iff
    some bypass has gap 1.
    """
    C = _longest_non_hamiltonian(D)
    if C is None or len(C) < 4:
        return None
    off = (1 << D.n) - 1 - sum(1 << i for i in C)
    for u, w in zip(C, [*C[1:], C[0]]):
        if _reach(D._out, u, off) & off & D._in[w]:
            return C
    return None


_BYPASS_PREMISE = _Clause(
    _bypassed_longest,
    lambda D: "cycle premise: no longest non-Hamiltonian cycle of length >= 4"
    " with a gap-1 bypass",
)
_NOT_DIRECTED_CYCLE = _Clause(
    lambda D: not D.is_directed_cycle(),
    lambda D: "shape: the digraph is a directed cycle",
)

# Each statement's hypotheses on a balanced bipartite input.  The gates are
# in report order, which is also the order _screen runs those without a
# block form in, so strong connectivity comes first (see _screen for why).
# Lemma 3.3's hypotheses hold per (cycle, vertex) unit, so its row is empty.
_CLAUSES: dict[Theorem, _Row] = {
    Theorem.T1_6: ((_STRONG, _order(1), _TWO_SIDED), None),
    Theorem.T1_7: ((_STRONG, _order(4), _bk(1)), None),
    Theorem.T1_8: ((_STRONG, _order(4), _bk(1)), None),
    Theorem.T1_9: ((_STRONG, _order(4), _bk(0)), _PREMISE),
    Theorem.T1_10: ((_STRONG, _order(4), _bk(1), _NOT_DIRECTED_CYCLE), None),
    Theorem.L3_2: ((_STRONG, _order(4), _bk(0), _NOT_DIRECTED_CYCLE), None),
    Theorem.L3_3: ((), None),
    Theorem.L3_4: ((_STRONG, _order(4), _bk(0)), _BYPASS_PREMISE),
}


def _walk(D: BipartiteDigraph, row: _Row) -> tuple[list[_Clause], _Found | None]:
    """Evaluate one row for check_theorem_hypotheses: every failing clause in
    the row's order, and what the premise found (None when the row has no
    premise or a clause failed).

    The premise runs only when every gate held, so its search never meets an
    input the gates reject.  The search does not walk rows: it screens a
    block with the gates (_screen) and runs the premise on the survivors.
    """
    gates, premise = row
    failed = [clause for clause in gates if not clause.holds(D)]
    if failed or premise is None:
        return failed, None
    found = premise.holds(D)
    if found is None:
        failed.append(premise)
    return failed, found


def _screen(
    row: _Row, a: int, digits: bytearray, count: int
) -> list[tuple[int, BipartiteDigraph]]:
    """The samples of one block that pass every gate of row, each with its
    offset in the block, in order; digits are the block's arc digits
    (digraph._arc_digits).

    The search asks only whether every gate holds, and each gate is a pure
    predicate of the digraph, so the order it tests them in, and dropping a
    sample at its first failure, cannot change that answer or any count;
    only the time it takes.  check_theorem_hypotheses lists every failure,
    so it keeps report order.  The gates with a block form go first: they
    decide the whole block at once, their masks ANDed in any order, so only
    the samples that pass them are built (_build_block), from their own runs
    of digits.  Each other gate then runs once on each sample still left, in
    the row's order.  A sample leaves at the first gate that rejects it, and
    no gate runs twice on it.  The premise is not run.

    Per search-sparse sample (claim 1.9, a = 4..6, p = .3/.5/.7, blocks of
    200; Python 3.11 on a shared 2-core host): the order test's block form
    costs about 0.01 us; B_0's block form 0.24, 0.33 and 0.44 us at a = 4,
    5 and 6 (bk_holds, certify's path, 0.4-0.5 us), and B_0 rejects 95.6%
    of samples and B_1 99.3%, which are then never built; strong
    connectivity takes 2.2 us per sample built (two reachability sweeps
    unless a mask is empty) and rejects 12% of them; the two-sided
    condition takes 4.7-4.9 us and passes 0.7%, so a row lists it after
    strong connectivity, or claim 1.6 gets slower.  The shape test runs on
    so few samples that its place does not matter.
    """
    mask, rest = (1 << count) - 1, []
    for clause in row[0]:
        if clause.block is None:
            rest.append(clause.holds)
        elif mask:
            mask &= clause.block(a, digits, count)
    if not mask:
        return []
    offsets = list(compress(range(count), map("1".__eq__, f"{mask:0{count}b}")))
    if len(offsets) < count:
        m = 2 * a * a
        digits = bytearray().join([digits[i * m : i * m + m] for i in offsets])
    digraphs = _build_block(a, digits, len(offsets))
    for holds in rest:
        passed = list(map(holds, digraphs))
        offsets, digraphs = list(compress(offsets, passed)), list(compress(digraphs, passed))
    return list(zip(offsets, digraphs))


def check_theorem_hypotheses(D: Digraph, theorem: Theorem) -> HypothesisReport:
    """Evaluate one statement's hypothesis clauses; collect all failures.

    Clauses common to the catalog: balanced bipartite structure, strong
    connectivity, minimum side size.  Statement-specific clauses: the degree
    condition (two-sided for 1.6, margin 1 or 0 otherwise), not being a
    directed cycle (1.10, 3.2), and a premise cycle, searched for only when
    every other clause held: one of length 2a - 2 (1.9), or a longest
    non-Hamiltonian cycle of length >= 4 with a gap-1 bypass (3.4).  Lemma
    3.3 has no clause on the digraph, so every bipartite input satisfies it
    here.  Raises TooLarge for lemma 3.4 when its premise scan runs above the
    longest-cycle scan's order cap, and BadParams when theorem is not a
    Theorem member.
    """
    if not isinstance(theorem, Theorem):
        raise BadParams(f"theorem must be a Theorem member, got {theorem!r}")
    if not isinstance(D, BipartiteDigraph):
        return HypothesisReport(theorem, ("structure: not a balanced bipartite digraph",))
    failed, premise = _walk(D, _CLAUSES[theorem])
    return HypothesisReport(theorem, tuple(clause.explain(D) for clause in failed), premise)
