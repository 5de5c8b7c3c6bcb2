"""Cycle engine: witnesses, spectra, and oracle agreement."""

import gc
import re
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipancyclic import (
    BipartiteDigraph,
    Cycle,
    Digraph,
    Vertex,
    check_cycle,
    complete_bipartite,
    cycle_spectrum,
    cycles_through_vertex,
    d6,
    d8,
    directed_cycle,
    find_cycle_of_length,
    is_hamiltonian,
    longest_non_hamiltonian_cycle,
    parse,
    serialize,
)
from bipancyclic import cycles
from bipancyclic.cycles import _has_cycle_cover
from bipancyclic.errors import (
    BadLength,
    BadParams,
    InvalidCycle,
    PreconditionUnmet,
    TooLarge,
    UnknownVertex,
)
from bipancyclic.families import h_2m, h_m_m1_1, h_mm
from bipancyclic.naive import (
    naive_cycle_lengths,
    naive_cycle_lengths_dp,
    naive_cycles,
    naive_find_cycle,
)

from test_digraph import bipartite_digraphs, general_digraphs


def _complete_digraph(n: int) -> Digraph:
    return Digraph(n, [(f"v{i}", f"v{j}") for i in range(n) for j in range(n) if i != j])


@st.composite
def disjoint_unions(draw, max_n=4):
    """Two random general digraphs side by side: never strong, and a cycle
    stays inside one part."""
    left = draw(general_digraphs(min_n=1, max_n=max_n))
    right = draw(general_digraphs(min_n=1, max_n=max_n))
    shift = [(f"v{u.index + left.n}", f"v{w.index + left.n}") for u, w in right.arcs()]
    return Digraph(left.n + right.n, list(left.arcs()) + shift)


def hall_deficient(a: int, src: str) -> BipartiteDigraph:
    """Complete both ways, except that the first ceil(a/2) vertices of side
    src send only to the first ceil(a/2) - 1 vertices of the other side.

    A cycle through all 2a vertices would give those ceil(a/2) vertices
    distinct successors among ceil(a/2) - 1, so none exists.
    """
    dst = "y" if src == "x" else "x"
    k = (a + 1) // 2
    arcs = []
    for i in range(a):
        for j in range(a):
            arcs.append((f"{dst}{j}", f"{src}{i}"))
            if i >= k or j < k - 1:
                arcs.append((f"{src}{i}", f"{dst}{j}"))
    return BipartiteDigraph(a, arcs)


# Members whose vertex sets split into several strong components once the
# earlier starts are removed, so restricting each start to its component
# cuts the search.
LINKED_CLUSTERS = {f"hmm{m}": h_mm(m) for m in range(2, 6)}
LINKED_CLUSTERS.update(
    (f"h2m{m}{'-both' if both else ''}", h_2m(m, both))
    for m in range(2, 6)
    for both in (False, True)
)


def placed(D: Digraph, where: list[int], n: int) -> Digraph:
    """A copy of D inside an order-n digraph, vertex i moved to where[i]."""
    return Digraph(n, [(f"v{where[u.index]}", f"v{where[w.index]}") for u, w in D.arcs()])


class TestFindCycle:
    def test_d8_witnesses_are_lex_min(self):
        D = d8()
        assert str(find_cycle_of_length(D, 2)) == "x0 y0"
        assert str(find_cycle_of_length(D, 4)) == "x0 y0 x1 y1"
        assert str(find_cycle_of_length(D, 6)) == "x0 y0 x2 y3 x3 y1"
        assert find_cycle_of_length(D, 8) is None

    def test_odd_length_none_in_bipartite(self):
        assert find_cycle_of_length(d8(), 3) is None
        assert find_cycle_of_length(d8(), 7) is None

    def test_bad_length(self):
        with pytest.raises(BadLength):
            find_cycle_of_length(d8(), 1)
        with pytest.raises(BadLength):
            find_cycle_of_length(d8(), 9)

    @pytest.mark.parametrize(
        "D", [complete_bipartite(3), Digraph(5, list(permutations([f"v{i}" for i in range(5)], 2)))]
    )
    @pytest.mark.parametrize("m", [4.5, 4.0, "4", None, True])
    def test_non_int_length_is_bad_length(self, D, m):
        # 4.5 once answered None ("no such cycle") and 4.0 raised TypeError
        message = f"cycle length must be an int, got {m!r}"
        with pytest.raises(BadLength, match=f"^{re.escape(message)}$"):
            find_cycle_of_length(D, m)

    def test_general_digraph_odd_cycles(self):
        tri = Digraph(3, [("v0", "v1"), ("v1", "v2"), ("v2", "v0")])
        assert str(find_cycle_of_length(tri, 3)) == "v0 v1 v2"
        assert find_cycle_of_length(tri, 2) is None

    @given(bipartite_digraphs(min_a=1, max_a=3), st.integers(2, 6))
    def test_matches_naive_oracle(self, D, m):
        if m > D.n:
            return
        got = find_cycle_of_length(D, m)
        want = naive_find_cycle(D, m)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.vertices == want

    @given(
        st.one_of(general_digraphs(min_n=2, max_n=5), disjoint_unions()),
        st.integers(2, 8),
    )
    def test_matches_naive_oracle_general(self, D, m):
        if m > D.n:
            return
        got = find_cycle_of_length(D, m)
        want = naive_find_cycle(D, m)
        assert (None if got is None else got.vertices) == want

    @pytest.mark.parametrize("D", list(LINKED_CLUSTERS.values()), ids=list(LINKED_CLUSTERS))
    def test_matches_naive_oracle_on_linked_clusters(self, D):
        for m in range(2, D.n + 1):
            got = find_cycle_of_length(D, m)
            assert (None if got is None else got.vertices) == naive_find_cycle(D, m)

    @given(st.one_of(bipartite_digraphs(max_a=4), general_digraphs(max_n=7)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_shared_components_match_fresh_and_naive(self, D, data):
        # A start's strong component among later vertices does not depend on
        # the length, so one digraph's component memo asked every length in
        # a shuffled order gives the hit of a fresh copy's memo per length
        # and of the naive enumeration.
        for m in data.draw(st.permutations(range(2, D.n + 1))):
            shared = cycles._find_cycles(D, 1 << m).get(m)
            assert shared == cycles._find_cycles(parse(serialize(D)), 1 << m).get(m)
            got = None if shared is None else tuple(D._vertex(i) for i in shared)
            assert got == naive_find_cycle(D, m)

    @given(bipartite_digraphs(min_a=2, max_a=4))
    def test_witnesses_validate(self, D):
        for m in range(2, D.n + 1, 2):
            cycle = find_cycle_of_length(D, m)
            if cycle is not None:
                check_cycle(D, cycle)


class TestSpectrum:
    def test_d8(self):
        spec = cycle_spectrum(d8())
        assert spec.lengths() == (2, 4, 6)
        assert spec.order == 8 and spec.side_size == 4
        assert not spec.is_even_pancyclic()
        witnesses = dict(spec.witnesses)
        assert str(witnesses[6]) == "x0 y0 x2 y3 x3 y1"
        assert 8 not in witnesses

    def test_complete_bipartite_even_pancyclic(self):
        spec = cycle_spectrum(complete_bipartite(4))
        assert spec.lengths() == (2, 4, 6, 8)
        assert spec.is_even_pancyclic()

    def test_directed_cycle(self):
        assert cycle_spectrum(directed_cycle(5)).lengths() == (10,)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            cycle_spectrum(complete_bipartite(13))
        # explicit cap override allows it through on a small digraph
        assert cycle_spectrum(directed_cycle(2), max_n=4).lengths() == (4,)

    @pytest.mark.parametrize("scan", [cycle_spectrum, longest_non_hamiltonian_cycle])
    @pytest.mark.parametrize("cap", ["24", None, 24.5, True])
    def test_non_int_order_cap_rejected(self, scan, cap):
        # True once capped at order 1 and 24.5 passed as a cap
        message = f"order cap must be an int, got {cap!r}"
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
            scan(directed_cycle(2), max_n=cap)

    @given(bipartite_digraphs(min_a=1, max_a=3))
    def test_lengths_match_naive(self, D):
        assert cycle_spectrum(D).lengths() == naive_cycle_lengths(D)

    @given(st.one_of(general_digraphs(min_n=1, max_n=5), disjoint_unions()))
    def test_lengths_match_naive_general(self, D):
        assert cycle_spectrum(D).lengths() == naive_cycle_lengths(D)

    @given(st.one_of(general_digraphs(max_n=8), bipartite_digraphs(max_a=4)))
    @example(_complete_digraph(2))
    @example(_complete_digraph(3))
    @example(_complete_digraph(5))
    @example(_complete_digraph(8))
    @settings(deadline=None)
    def test_early_stop_lengths_match_full_enumeration(self, D):
        # naive_cycle_lengths stops once it has seen every length 2..n; the
        # full enumeration's length set must agree, on complete digraphs too,
        # where the stop comes soonest.
        assert naive_cycle_lengths(D) == tuple(sorted({len(c) for c in naive_cycles(D)}))

    @given(st.one_of(general_digraphs(max_n=8), bipartite_digraphs(max_a=4), disjoint_unions()))
    @example(_complete_digraph(1))
    @example(_complete_digraph(2))
    @example(_complete_digraph(3))
    @example(_complete_digraph(5))
    @example(_complete_digraph(8))
    @settings(deadline=None)
    def test_subset_dp_lengths_match_enumeration(self, D):
        # Two oracles that share no code: the subset DP decides each length
        # without following a path, the enumeration lists cycles.
        assert naive_cycle_lengths_dp(D) == naive_cycle_lengths(D)

    @pytest.mark.parametrize(
        "D",
        [
            D
            for m in range(2, 10)
            for D in (h_mm(m), h_2m(m), h_2m(m, True), h_m_m1_1(m), h_m_m1_1(m, True))
            if D.n <= 18
        ],
        ids=str,
    )
    def test_one_pass_matches_per_length_on_families(self, D):
        # The spectrum's one pass and a search per length give the same
        # witnesses on every member up to order 18.
        per_length = [(m, find_cycle_of_length(D, m)) for m in range(2, D.n + 1)]
        assert cycle_spectrum(D).witnesses == tuple((m, c) for m, c in per_length if c)

    @pytest.mark.parametrize("both", [False, True])
    @pytest.mark.parametrize(
        "m", [pytest.param(m, marks=pytest.mark.acceptance) if m > 9 else m for m in range(2, 13)]
    )
    def test_h_2m_up_to_the_cap(self, m, both):
        # Inside a cluster every length up to m; a crossing cycle takes x, y
        # and the other vertices of one cluster only, so at most m + 1.
        D = h_2m(m, both)
        assert cycle_spectrum(D).lengths() == tuple(range(2, m + 2))
        assert not is_hamiltonian(D)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_h_mm_up_to_the_cap(self, m):
        # the longest cycle fills one cluster; nothing crosses back from B
        D = h_mm(m)
        assert cycle_spectrum(D).lengths() == tuple(range(2, m + 1))
        assert longest_non_hamiltonian_cycle(D).length == m


# Ten vertices placed at 0..4 and 256..260.  Their Hamiltonian search meets
# two states with one visited set whose end vertices are w and w + 256, which
# a key packing the end vertex into 8 bits would merge.
STRADDLE_ARCS = [
    (0, 2), (0, 3), (0, 4), (0, 6), (1, 7), (2, 1), (2, 3), (2, 5), (2, 9), (3, 0),
    (3, 1), (3, 6), (3, 9), (4, 2), (4, 6), (5, 0), (5, 1), (5, 2), (5, 4), (5, 7),
    (6, 0), (6, 8), (7, 0), (7, 1), (7, 3), (8, 3), (8, 6), (8, 7), (9, 3), (9, 5),
    (9, 7), (9, 8),
]

# Eleven vertices whose 10-cycle search fails a prefix and later meets the
# same vertex set ending at another vertex, which does complete: a key
# without the end vertex would skip the least 10-cycle.
SAME_SET_ARCS = [
    (0, 1), (0, 4), (0, 5), (0, 8), (0, 9), (0, 10), (1, 2), (1, 3), (1, 10), (2, 1),
    (2, 4), (2, 9), (2, 10), (3, 7), (4, 0), (4, 1), (4, 6), (4, 9), (5, 1), (5, 2),
    (5, 4), (5, 6), (5, 10), (6, 1), (6, 2), (6, 3), (6, 8), (7, 4), (7, 5), (7, 8),
    (7, 9), (8, 0), (8, 2), (8, 4), (8, 7), (8, 10), (9, 2), (10, 1),
]


def least_from(D: Digraph, found, start: int, m: int, allowed: int) -> list[int] | None:
    """The least m-cycle inside allowed, as indices rotated to begin at
    start, among the naive oracle's cycles, or None."""
    best = None
    for cycle in found:
        idx = [D._index(v) for v in cycle]
        if len(idx) == m and start in idx and all(allowed >> i & 1 for i in idx):
            k = idx.index(start)
            idx = idx[k:] + idx[:k]
            best = idx if best is None else min(best, idx)
    return best


class TestDeadStates:
    @pytest.mark.parametrize("cap", [0, 1])
    @pytest.mark.parametrize("D", list(LINKED_CLUSTERS.values()), ids=list(LINKED_CLUSTERS))
    def test_cap_keeps_linked_cluster_witnesses(self, D, cap, monkeypatch):
        want = [find_cycle_of_length(D, m) for m in range(2, D.n + 1)]
        monkeypatch.setattr(cycles, "_DEAD_STATE_CAP", cap)
        assert [find_cycle_of_length(D, m) for m in range(2, D.n + 1)] == want

    @pytest.mark.parametrize("cap", [0, 1])
    @given(
        st.one_of(
            bipartite_digraphs(min_a=1, max_a=3),
            general_digraphs(min_n=2, max_n=5),
            disjoint_unions(),
        )
    )
    def test_cap_keeps_oracle_witnesses(self, cap, D):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_DEAD_STATE_CAP", cap)
            got = [find_cycle_of_length(D, m) for m in range(2, D.n + 1)]
        for m, cycle in enumerate(got, start=2):
            assert (None if cycle is None else cycle.vertices) == naive_find_cycle(D, m)

    @pytest.mark.parametrize("cap", [0, 1])
    @given(
        st.one_of(bipartite_digraphs(min_a=1, max_a=4), general_digraphs(min_n=2, max_n=7)),
        st.data(),
    )
    def test_cap_keeps_two_cycles_and_covering_searches(self, cap, D, data):
        # The engine called directly at m == 2 (one mask) and at the
        # covering length (cover cuts and dead states together), from every
        # start of the whole vertex set or of a drawn subset.
        full = (1 << D.n) - 1
        allowed = data.draw(st.one_of(st.just(full), st.integers(1, full)), label="allowed")
        found = naive_cycles(D)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_DEAD_STATE_CAP", cap)
            for start in range(D.n):
                if not allowed >> start & 1:
                    continue
                for m in sorted({2, allowed.bit_count()} - {1}):
                    got = cycles._lex_min_cycle_from(D._out, D._in, start, 1 << m, allowed)
                    assert got.get(m) == least_from(D, found, start, m, allowed)

    @pytest.mark.parametrize(
        "D, where",
        [
            (h_2m(6), [300 + i for i in range(12)]),
            (
                Digraph(10, [(f"v{u}", f"v{w}") for u, w in STRADDLE_ARCS]),
                [i if i < 5 else 251 + i for i in range(10)],
            ),
        ],
        ids=["h2m6-at-300", "straddle-256"],
    )
    def test_copy_past_256_vertices(self, D, where):
        n = where[-1] + 1
        copy = cycle_spectrum(placed(D, where, n), max_n=n)
        assert [(m, tuple(v.index for v in C.vertices)) for m, C in copy.witnesses] == [
            (m, tuple(where[v.index] for v in C.vertices)) for m, C in cycle_spectrum(D).witnesses
        ]

    def test_end_vertex_is_part_of_the_state(self):
        D = Digraph(11, [(f"v{u}", f"v{w}") for u, w in SAME_SET_ARCS])
        for m in range(2, 12):
            got = find_cycle_of_length(D, m)
            assert (None if got is None else got.vertices) == naive_find_cycle(D, m)

    def test_h_2m_absences_reuse_dead_states(self, monkeypatch):
        calls = 0
        reach_within = cycles._reach_within

        def counted(*args):
            nonlocal calls
            calls += 1
            return reach_within(*args)

        monkeypatch.setattr(cycles, "_reach_within", counted)
        cycle_spectrum(h_2m(8))
        # 882 calls with the memo; 16,597 when every state is searched afresh
        assert calls < 3_000

    @pytest.mark.parametrize("cap", [0, 1, cycles._DEAD_STATE_CAP])
    @given(
        st.one_of(bipartite_digraphs(min_a=1, max_a=5), general_digraphs(min_n=1, max_n=9)),
        st.data(),
    )
    @settings(deadline=None)
    def test_one_pass_matches_one_length_walks(self, cap, D, data):
        # One walk asked for a set of lengths returns, for each, the witness
        # of a walk asked for that length alone and the naive least cycle
        # through start inside allowed.  The set may hold the covering length
        # (every allowed vertex) and lengths with no cycle, n + 1 included.
        start = data.draw(st.integers(0, D.n - 1), label="start")
        allowed = data.draw(st.integers(0, (1 << D.n) - 1), label="allowed") | 1 << start
        lengths = data.draw(st.sets(st.integers(2, D.n + 1)), label="lengths")
        if data.draw(st.booleans(), label="with the covering length"):
            lengths.add(max(2, allowed.bit_count()))
        found = naive_cycles(D)
        out, inn = D._out, D._in
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_DEAD_STATE_CAP", cap)
            mask = sum(1 << m for m in lengths)
            got = cycles._lex_min_cycle_from(out, inn, start, mask, allowed)
            assert set(got) <= lengths
            for m in lengths:
                alone = cycles._lex_min_cycle_from(out, inn, start, 1 << m, allowed)
                assert set(alone) <= {m}
                assert got.get(m) == alone.get(m) == least_from(D, found, start, m, allowed)

    @given(
        st.one_of(bipartite_digraphs(min_a=1, max_a=5), general_digraphs(min_n=1, max_n=10)),
        st.data(),
    )
    def test_inline_returns_imply_reach_within(self, D, data):
        # The DFS skips the depth-bounded sweep when w -> start or w -> v ->
        # start through a free v; with two or more arcs left either return
        # is short enough, so the sweep would say yes and no prune changes.
        w = data.draw(st.integers(0, D.n - 1), label="w")
        start = data.draw(st.integers(0, D.n - 1), label="start")
        free = data.draw(st.integers(0, (1 << D.n) - 1), label="free")
        steps = data.draw(st.integers(2, D.n + 1), label="steps")
        start_bit = 1 << start
        if D._out[w] & (start_bit | free & D._in[start]):
            assert cycles._reach_within(D._out, w, start_bit, free, steps)

    def test_dead_states_freed_on_return(self):
        D = h_2m(6)
        gc.collect()
        gc.disable()
        try:
            # no 9-cycle from v0: the search fails many states, none covering
            assert cycles._lex_min_cycle_from(D._out, D._in, 0, 1 << 9, (1 << D.n) - 1) == {}
            assert gc.collect() == 0  # nothing waits for the cycle collector
            # m == n: a covering search, which runs the cycle-cover check
            # first; h_2m(6) has a cycle cover and h_m_m1_1(3) has none
            for H in (D, h_m_m1_1(3)):
                assert cycles._lex_min_cycle_from(H._out, H._in, 0, 1 << H.n, (1 << H.n) - 1) == {}
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestHamiltonian:
    def test_known(self):
        assert is_hamiltonian(complete_bipartite(3))
        assert is_hamiltonian(directed_cycle(4))
        assert not is_hamiltonian(d8())
        assert not is_hamiltonian(d6())
        assert not is_hamiltonian(BipartiteDigraph(1, []))

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("m", range(2, 13))
    def test_h_m_m1_1_up_to_the_cap(self, m, mirrored):
        assert not is_hamiltonian(h_m_m1_1(m, mirrored))

    @pytest.mark.parametrize("src", ["x", "y"])
    @pytest.mark.parametrize("a", range(1, 13))
    def test_hall_deficient_up_to_the_cap(self, a, src):
        D = hall_deficient(a, src)
        assert find_cycle_of_length(D, 2 * a) is None
        if a > 1:
            assert find_cycle_of_length(D, 2 * a - 2) is not None

    def test_longest_non_hamiltonian(self):
        assert longest_non_hamiltonian_cycle(d8()).length == 6
        assert longest_non_hamiltonian_cycle(directed_cycle(4)) is None
        got = longest_non_hamiltonian_cycle(complete_bipartite(4))
        assert got.length == 6
        assert str(got) == "x0 y0 x1 y1 x2 y2"
        with pytest.raises(TooLarge):
            longest_non_hamiltonian_cycle(complete_bipartite(13))

    def test_longest_non_hamiltonian_stops_at_the_first_hit(self, monkeypatch):
        # K_{11,12} read as a general digraph: its 22-cycle closes on the first
        # path, while a walk still owing the odd lengths 3..21 would have to
        # prove each absent over millions of (visited set, end) states.
        a, n = 11, 23
        arcs = [(f"v{x}", f"v{y}") for x in range(a) for y in range(a, n)]
        D = Digraph(n, arcs + [(head, tail) for tail, head in arcs])
        asked = []
        walk = cycles._lex_min_cycle_from

        def one_length(out, inn, start, lengths, allowed):
            asked.append(lengths)
            assert lengths.bit_count() == 1
            return walk(out, inn, start, lengths, allowed)

        monkeypatch.setattr(cycles, "_lex_min_cycle_from", one_length)
        # K_{4,4} first: a scan that goes on past its first hit fails here at
        # once, where on K_{11,12} it would run for minutes
        assert longest_non_hamiltonian_cycle(complete_bipartite(4)).length == 6
        assert asked == [1 << 6]
        asked.clear()
        assert longest_non_hamiltonian_cycle(D).length == 22
        assert asked == [1 << 22]

    @given(st.one_of(bipartite_digraphs(min_a=1, max_a=4), general_digraphs(min_n=1, max_n=7)))
    def test_longest_non_hamiltonian_matches_naive(self, D):
        # naive_cycles lists cycles of equal length in lexicographic order
        shorter = [c for c in naive_cycles(D) if len(c) < D.n]
        got = longest_non_hamiltonian_cycle(D)
        if not shorter:
            assert got is None
        else:
            top = max(len(c) for c in shorter)
            assert got is not None and got.length == top
            assert got.vertices == next(c for c in shorter if len(c) == top)


class TestCycleCover:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(0, 7))
        out = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
        allowed = data.draw(st.integers(0, 2**n - 1))
        members = [v for v in range(n) if allowed >> v & 1]
        want = any(
            all(out[v] >> w & 1 for v, w in zip(members, image))
            for image in permutations(members)
        )
        assert _has_cycle_cover(out, allowed) == want


class TestValidators:
    def test_check_cycle_accepts(self):
        C = check_cycle(d8(), ["x1", "y1", "x2", "y3", "x3", "y0"])
        assert C.length == 6
        assert check_cycle(d8(), C) == C

    def test_check_cycle_rejects(self):
        D = d8()
        with pytest.raises(InvalidCycle):
            check_cycle(D, ["x0"])
        with pytest.raises(InvalidCycle):
            check_cycle(D, ["x0", "y0", "x0", "y1"])
        with pytest.raises(InvalidCycle):
            check_cycle(D, ["x0", "y0", "x1"])  # odd in bipartite
        with pytest.raises(InvalidCycle):
            check_cycle(D, ["x0", "y2"])  # no such arcs
        assert check_cycle(D, ["x0", "y0"]).length == 2


# A general digraph with one triangle v0 v1 v2 and a pendant arc v2 -> v3.
TRIANGLE_TAIL = Digraph(4, [("v0", "v1"), ("v1", "v2"), ("v2", "v0"), ("v2", "v3")])

# (host, sequence, exception class or None for a valid cycle, exact message).
# Rules apply in order: length, repeats, then in a bipartite host parity and
# alternating sides, then every arc (the closing one last); where a sequence
# breaks several, the first rule's message is the one raised.
CHECK_CYCLE_ROWS = [
    ("d8", [], InvalidCycle, "cycle needs >= 2 vertices, got 0"),
    ("d8", ["x0"], InvalidCycle, "cycle needs >= 2 vertices, got 1"),
    ("d8", ["x0", "y0", "x0", "y1"], InvalidCycle, "repeated vertex in cycle"),
    ("d8", ["x0", "x0"], InvalidCycle, "repeated vertex in cycle"),  # also one side
    ("d8", ["x0", "y0", "x0"], InvalidCycle, "repeated vertex in cycle"),  # also odd
    ("d8", ["x0", "y0", "x1"], InvalidCycle, "odd length 3 in a bipartite host"),
    ("d8", ["x0", "x1", "y0"], InvalidCycle, "odd length 3 in a bipartite host"),  # also one side
    ("d8", ["x0", "x1"], InvalidCycle, "consecutive vertices x0 x1 on one side"),
    ("d8", ["x0", "y0", "y1", "x1"], InvalidCycle, "consecutive vertices y0 y1 on one side"),
    ("d8", ["x0", "y2", "x2", "x3"], InvalidCycle, "consecutive vertices x2 x3 on one side"),
    ("d8", ["x0", "y2"], InvalidCycle, "missing arc x0 y2"),  # y2 -> x0 missing too
    ("d8", ["x0", "y1", "x1", "y0"], InvalidCycle, "missing arc x0 y1"),
    ("d8", ["x1", "y1", "x2", "y2"], InvalidCycle, "missing arc y2 x1"),  # closing arc
    ("d8", ["x0", "v0"], UnknownVertex, "unknown vertex v0"),
    ("d8", ["x0", "z0"], UnknownVertex, "bad vertex name 'z0'"),
    # An unknown vertex is raised before any rule, here the sides rule.
    ("d8", ["x0", "x9"], UnknownVertex, "unknown vertex x9"),
    ("d8", ["x1", "y1", "x2", "y3", "x3", "y0"], None, ""),
    ("d8", ["x0", "y0"], None, ""),
    ("k3", ["x0", "y0", "x1", "y1", "x2", "y2"], None, ""),
    ("k3", ["x0", "y0", "x1", "y1", "x2"], InvalidCycle, "odd length 5 in a bipartite host"),
    ("k3", ["x0", "y0", "x0", "y0"], InvalidCycle, "repeated vertex in cycle"),
    ("k3", ["x0", "y1", "x1", "x2"], InvalidCycle, "consecutive vertices x1 x2 on one side"),
    ("general", ["v1"], InvalidCycle, "cycle needs >= 2 vertices, got 1"),
    ("general", ["v0", "v0"], InvalidCycle, "repeated vertex in cycle"),
    ("general", ["v0", "v1", "v2"], None, ""),  # odd is fine outside a bipartite host
    ("general", ["v1", "v2", "v0"], None, ""),
    ("general", ["v0", "v2", "v1"], InvalidCycle, "missing arc v0 v2"),
    ("general", ["v0", "v1"], InvalidCycle, "missing arc v1 v0"),  # closing arc
    ("general", ["v0", "v1", "v2", "v3"], InvalidCycle, "missing arc v3 v0"),  # closing arc
    ("general", ["v0", "v3", "v3"], InvalidCycle, "repeated vertex in cycle"),  # also arcs
]

CHECK_CYCLE_HOSTS = {"d8": d8(), "k3": complete_bipartite(3), "general": TRIANGLE_TAIL}


class TestCheckCycleRules:
    @pytest.mark.parametrize(
        "host, sequence, error, message",
        CHECK_CYCLE_ROWS,
        ids=[f"{h}-{' '.join(s) or 'empty'}" for h, s, _, _ in CHECK_CYCLE_ROWS],
    )
    def test_rule_table(self, host, sequence, error, message):
        D = CHECK_CYCLE_HOSTS[host]
        if error is None:
            assert str(check_cycle(D, sequence)) == " ".join(sequence)
            return
        with pytest.raises(error) as caught:
            check_cycle(D, sequence)
        assert str(caught.value) == message

    @given(st.one_of(bipartite_digraphs(max_a=4), general_digraphs(min_n=2, max_n=7)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_index_core_matches_names(self, D, data):
        # Random index sequences of known vertices, and lex-min witnesses
        # rotated and perhaps cut short: check_cycle on the names, its index
        # core and a name-level reference of the rules agree on the Cycle or
        # on the exception's class and message.
        pick = st.integers(0, D.n - 1)
        idx = data.draw(
            st.one_of(
                st.lists(pick, max_size=D.n + 1),
                st.lists(pick, min_size=2, max_size=D.n, unique=True),
            )
        )
        m = data.draw(st.integers(2, max(2, D.n)))
        witness = find_cycle_of_length(D, m) if m <= D.n else None
        if witness is not None and data.draw(st.booleans()):
            idx = [D._index(v) for v in witness.vertices]
            k = data.draw(st.integers(0, m - 1))
            idx = idx[k:] + idx[:k]
            if data.draw(st.booleans()):
                idx.pop()
        names = [str(D._vertex(i)) for i in idx]

        def outcome(check, seq):
            try:
                return check(D, seq)
            except InvalidCycle as exc:
                return type(exc), str(exc)

        def core(D, seq):
            cycles._check_cycle_indices(D, seq)
            return Cycle(tuple(D._vertex(i) for i in seq))

        want = outcome(name_level_rules, names)
        assert outcome(check_cycle, names) == want
        assert outcome(core, idx) == want


def name_level_rules(D: Digraph, names: list[str]) -> Cycle:
    """check_cycle's rules stated on vertex names, as a reference."""
    vs = tuple(Vertex.parse(v) for v in names)
    if len(vs) < 2:
        raise InvalidCycle(f"cycle needs >= 2 vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        raise InvalidCycle("repeated vertex in cycle")
    closing = list(zip(vs, vs[1:] + vs[:1]))
    if isinstance(D, BipartiteDigraph):
        if len(vs) % 2:
            raise InvalidCycle(f"odd length {len(vs)} in a bipartite host")
        for u, w in closing:
            if u.side is w.side:
                raise InvalidCycle(f"consecutive vertices {u} {w} on one side")
    arcs = set(D.arcs())
    for u, w in closing:
        if (u, w) not in arcs:
            raise InvalidCycle(f"missing arc {u} {w}")
    return Cycle(vs)


class TestCyclesThroughVertex:
    def test_full_ladder_on_complete(self):
        D = complete_bipartite(4)
        C = check_cycle(D, ["x0", "y0", "x1", "y1", "x2", "y2"])
        found = cycles_through_vertex(D, C, "x3")
        assert sorted(found) == [2, 4, 6]
        for m, cycle in found.items():
            assert cycle.length == m
            check_cycle(D, cycle)
            assert any(str(v) == "x3" for v in cycle.vertices)

    def test_degree_precondition(self):
        D = d8()
        C = check_cycle(D, ["x1", "y1", "x2", "y3", "x3", "y0"])
        with pytest.raises(PreconditionUnmet) as exc:
            cycles_through_vertex(D, C, "x0")
        assert "got 3" in str(exc.value)

    def test_vertex_on_cycle_rejected(self):
        D = complete_bipartite(4)
        C = check_cycle(D, ["x0", "y0", "x1", "y1", "x2", "y2"])
        with pytest.raises(PreconditionUnmet):
            cycles_through_vertex(D, C, "x0")

    @given(bipartite_digraphs(min_a=2, max_a=5))
    @settings(max_examples=150)
    def test_ladder_matches_naive_oracle(self, D):
        # Each witness is the least m-cycle through x inside V(C) + {x} when
        # read from x, then rotated to start at its least vertex.
        for b in range(1, D.a):
            C = find_cycle_of_length(D, 2 * b)
            if C is None:
                continue
            for x in D.vertices():
                if x in C.vertices or D.restricted_degree(x, C.vertices) <= b:
                    continue
                keep = set(C.vertices) | {x}
                sub = BipartiteDigraph(
                    D.a, [(u, w) for u, w in D.arcs() if u in keep and w in keep]
                )
                from_x = {}
                for cycle in naive_cycles(sub, max_len=2 * b):
                    if x in cycle:
                        k = cycle.index(x)
                        seq = cycle[k:] + cycle[:k]
                        m = len(seq)
                        from_x[m] = min(from_x.get(m, seq), seq)
                expected = {}
                for m, seq in from_x.items():
                    k = seq.index(min(seq))
                    expected[m] = seq[k:] + seq[:k]
                found = cycles_through_vertex(D, C, x)
                assert {m: c.vertices for m, c in found.items()} == expected

    def test_y_side_vertex(self):
        D = complete_bipartite(4)
        C = check_cycle(D, ["x0", "y0", "x1", "y1", "x2", "y2"])
        found = cycles_through_vertex(D, C, "y3")
        assert sorted(found) == [2, 4, 6]
        for cycle in found.values():
            assert any(str(v) == "y3" for v in cycle.vertices)


def test_search_is_exact_on_sparse_instance():
    # a strong digraph with exactly one cycle length available
    D = directed_cycle(6)
    for m in range(2, 12, 2):
        got = find_cycle_of_length(D, m)
        assert (got is not None) == (m == 12)
