"""Core model: construction, validation, queries, text format, sampling."""

import hashlib
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipancyclic import (
    BipartiteDigraph,
    Digraph,
    Family,
    FamilySpec,
    Side,
    Vertex,
    complete_bipartite,
    d8,
    directed_cycle,
    generate,
    h_2m,
    h_m_m1_1,
    h_mm,
    parse,
    random_bipartite,
    sample_digraph,
    serialize,
)
from bipancyclic.digraph import _arc_digits, _build_block, _reach
from bipancyclic.errors import (
    BadParams,
    DuplicateArc,
    Loop,
    ParseError,
    UnknownVertex,
    WithinSideArc,
)
from bipancyclic.naive import (
    naive_dominating_pairs,
    naive_is_strong,
    naive_restricted_degree,
)


def _drawn(a, p, seeds):
    """The search's block draw: every sample of seeds, built from the
    block's arc digits."""
    return _build_block(a, _arc_digits(a, p, seeds), len(seeds))


@st.composite
def bipartite_digraphs(draw, min_a=1, max_a=4):
    a = draw(st.integers(min_a, max_a))
    bits = draw(st.integers(0, 2 ** (2 * a * a) - 1))
    arcs = []
    k = 0
    for i in range(a):
        for j in range(a):
            if bits >> k & 1:
                arcs.append((f"x{i}", f"y{j}"))
            k += 1
            if bits >> k & 1:
                arcs.append((f"y{j}", f"x{i}"))
            k += 1
    return BipartiteDigraph(a, arcs)


@st.composite
def general_digraphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    bits = draw(st.integers(0, 2 ** len(slots) - 1))
    arcs = [(f"v{i}", f"v{j}") for k, (i, j) in enumerate(slots) if bits >> k & 1]
    return Digraph(n, arcs)


class TestVertex:
    def test_parse_and_str(self):
        assert str(Vertex.parse("x3")) == "x3"
        assert Vertex.parse("y0") == Vertex(Side.Y, 0)
        assert Vertex.parse("v12") == Vertex(Side.GENERAL, 12)
        assert Vertex.parse("x" + "9" * 18).index == 10**18 - 1
        arcs = Digraph(1000, [("v999", "v0")]).arcs()
        assert [(str(u), str(w)) for u, w in arcs] == [("v999", "v0")]

    @pytest.mark.parametrize(
        "bad", ["", "x", "z1", "x-1", "1x", "xy1", "x1y", "y\u00b2", "x" + "1" * 19]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(UnknownVertex):
            Vertex.parse(bad)

    def test_canonical_order(self):
        names = ["y1", "x0", "y0", "x10", "x2"]
        ordered = sorted(Vertex.parse(s) for s in names)
        assert [str(v) for v in ordered] == ["x0", "x2", "x10", "y0", "y1"]


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(Loop):
            Digraph(2, [("v0", "v0")])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateArc):
            Digraph(2, [("v0", "v1"), ("v0", "v1")])

    def test_within_side_rejected(self):
        with pytest.raises(WithinSideArc):
            BipartiteDigraph(2, [("x0", "x1")])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            BipartiteDigraph(2, [("x0", "y2")])
        with pytest.raises(UnknownVertex):
            Digraph(2, [("v0", "x1")])

    def test_negative_order(self):
        with pytest.raises(BadParams):
            Digraph(-1, [])

    @pytest.mark.parametrize(
        "what,build",
        [
            ("order", lambda size: Digraph(size, [])),
            ("side size", lambda size: BipartiteDigraph(size, [])),
            ("side size", lambda size: random_bipartite(size, 1.0, 0)),
            ("side size", lambda size: _drawn(size, 1.0, [0, 1])),
            ("side size", directed_cycle),
            ("side size", complete_bipartite),
            ("cluster size", h_mm),
            ("cluster size", h_m_m1_1),
            ("cluster size", h_2m),
        ]
        + [
            (f"{family.value} size", lambda size, family=family: generate(FamilySpec(family, size)))
            for family in (
                Family.DIRECTED_CYCLE,
                Family.COMPLETE_BIPARTITE,
                Family.H_MM,
                Family.H_M_M1_1,
                Family.H_2M,
            )
        ],
    )
    @pytest.mark.parametrize("size", [True, False, 2.5, 3.0, "3"])
    def test_non_int_size_rejected(self, what, build, size):
        # a bool size once built a digraph serialized as "bipartite a=True"
        message = f"{what} must be an int, got {size!r}"
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
            build(size)

    def test_equality_and_hash(self):
        D1 = BipartiteDigraph(2, [("x0", "y0"), ("y0", "x1")])
        D2 = BipartiteDigraph(2, [("y0", "x1"), ("x0", "y0")])
        assert D1 == D2
        assert hash(D1) == hash(D2)
        assert D1 != BipartiteDigraph(2, [("x0", "y0")])
        # same arcs, different class: not equal
        assert BipartiteDigraph(1, [("x0", "y0")]) != Digraph(2, [("v0", "v1")])


class TestQueries:
    def test_degrees_on_d8(self):
        D = d8()
        expected = {
            "x0": (1, 2, 3), "x1": (1, 2, 3), "x2": (4, 3, 7), "x3": (4, 3, 7),
            "y0": (4, 3, 7), "y1": (4, 3, 7), "y2": (1, 2, 3), "y3": (1, 2, 3),
        }
        for name, (o, i, t) in expected.items():
            deg = D.degree(name)
            assert (deg.out, deg.in_, deg.total) == (o, i, t), name

    def test_dominating_pairs_on_d8(self):
        D = d8()
        got = [tuple(str(D._vertex(i)) for i in t) for t in D._dominating_indices()]
        assert got == [
            ("x0", "x2", "y0"), ("x0", "x3", "y0"), ("x1", "x2", "y1"),
            ("x1", "x3", "y1"), ("x2", "x3", "y0"), ("y0", "y1", "x0"),
            ("y0", "y2", "x2"), ("y0", "y3", "x3"), ("y1", "y2", "x2"),
            ("y1", "y3", "x3"),
        ]

    def test_restricted_degree_on_d8(self):
        D = d8()
        assert D.restricted_degree("y0", ["x2", "x3"]) == 4
        assert D.restricted_degree("x0", ["y1"]) == 1
        # membership of v itself is ignored
        assert D.restricted_degree("y0", ["y0", "x2", "x3"]) == 4

    def test_is_directed_cycle(self):
        assert directed_cycle(4).is_directed_cycle()
        assert not d8().is_directed_cycle()
        two = BipartiteDigraph(1, [("x0", "y0"), ("y0", "x0")])
        assert two.is_directed_cycle()

    def test_arcs_canonical_order(self):
        D = BipartiteDigraph(2, [("y1", "x0"), ("x0", "y1"), ("x0", "y0")])
        assert [(str(u), str(v)) for u, v in D.arcs()] == [
            ("x0", "y0"), ("x0", "y1"), ("y1", "x0"),
        ]

    @given(bipartite_digraphs())
    def test_degree_sum_equals_arc_count(self, D):
        assert sum(D.degree(v).out for v in D.vertices()) == D.arc_count
        assert sum(D.degree(v).in_ for v in D.vertices()) == D.arc_count

    @given(bipartite_digraphs())
    def test_dominating_pairs_match_naive(self, D):
        got = [tuple(map(D._vertex, t)) for t in D._dominating_indices()]
        assert got == naive_dominating_pairs(D)

    @given(general_digraphs())
    @example(Digraph(0, []))
    @example(Digraph(1, []))  # one vertex, no arcs: strong, though its masks are empty
    @example(Digraph(3, [("v0", "v1"), ("v1", "v0")]))  # v2 has empty masks
    @example(Digraph(2, [("v0", "v1")]))  # v1 has an empty out-mask
    @example(BipartiteDigraph(0, []))
    @example(BipartiteDigraph(2, []))
    def test_is_strong_matches_naive(self, D):
        assert D.is_strong() == naive_is_strong(D)

    @given(st.one_of(bipartite_digraphs(max_a=6), general_digraphs(max_n=8)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_component_memo_matches_fresh_sweeps(self, D, data):
        # Starts asked in any order, each twice, give the strong component of
        # two fresh sweeps through the start and the later vertices, and
        # strong connectivity read from the filled memo stays exact.
        for start in data.draw(st.permutations(range(D.n))):
            rest = (1 << D.n) - 1 >> start << start
            want = _reach(D._out, start, rest) & _reach(D._in, start, rest)
            assert D._core(start) == want
            assert D._core(start) == want
        assert D.is_strong() == naive_is_strong(D)

    @given(bipartite_digraphs(min_a=2, max_a=3), st.integers(0, 5))
    def test_restricted_degree_matches_naive(self, D, pick):
        vs = D.vertices()
        v = vs[pick % len(vs)]
        members = vs[::2]
        assert D.restricted_degree(v, members) == naive_restricted_degree(D, v, members)


class TestTextFormat:
    def test_header_forms(self):
        assert isinstance(parse("bipartite a=2\n"), BipartiteDigraph)
        D = parse("general n=3\nv0 v1\n")
        assert isinstance(D, Digraph) and not isinstance(D, BipartiteDigraph)

    def test_comments_and_blanks_ignored(self):
        D = parse("# note\n\nbipartite a=1\n# more\nx0 y0\n")
        assert D.arc_count == 1

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("x0 y0\n")

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse("bipartite a=2\nx0 y0\nx0 y0 y1\n")
        assert exc.value.line == 3
        with pytest.raises(DuplicateArc) as exc:
            parse("bipartite a=2\nx0 y0\nx0 y0\n")
        assert exc.value.line == 3
        with pytest.raises(WithinSideArc) as exc:
            parse("bipartite a=2\n\nx0 x1\n")
        assert exc.value.line == 3
        with pytest.raises(ParseError) as exc:
            parse("bipartite a=2\nx0 z1\n")
        assert exc.value.line == 2
        with pytest.raises(UnknownVertex) as exc:
            parse("bipartite a=2\nx0 y5\n")
        assert exc.value.line == 2
        with pytest.raises(Loop) as exc:
            parse("general n=2\nv0 v1\nv1 v1\n")
        assert exc.value.line == 3
        # non-ASCII digits and over-long suffixes never reach int()
        for name in ("y\u00b2", "y" + "1" * 5000):
            with pytest.raises(ParseError) as exc:
                parse(f"bipartite a=2\nx0 {name}\n")
            assert exc.value.line == 2
            assert str(exc.value) == f"line 2: bad vertex name {name!r}"
        # a malformed line wins over an earlier invalid arc
        with pytest.raises(ParseError) as exc:
            parse("bipartite a=2\nx0 x1\nx0 y0 y1\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "header",
        ["bipartite a=129", "general n=257", "general n=" + "9" * 5000],
        ids=["a129", "n257", "n5000digits"],
    )
    def test_header_order_cap(self, header):
        with pytest.raises(ParseError) as exc:
            parse(f"# comment\n{header}\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: order exceeds the cap of 256 vertices"

    def test_header_at_order_cap(self):
        assert parse("bipartite a=128\n").n == 256
        assert parse("general n=00256\nv0 v255\n").arc_count == 1

    def test_header_needs_decimal_digits(self):
        # "²".isdigit() holds, yet int() rejects it
        with pytest.raises(ParseError) as exc:
            parse("bipartite a=\u00b2\n")
        assert exc.value.line == 1

    def test_serialize_ends_with_newline(self):
        assert serialize(BipartiteDigraph(1, [])).endswith("\n")

    @given(bipartite_digraphs())
    def test_round_trip_bipartite(self, D):
        assert parse(serialize(D)) == D

    @given(general_digraphs())
    def test_round_trip_general(self, D):
        assert parse(serialize(D)) == D

    @given(bipartite_digraphs())
    def test_serialization_is_canonical(self, D):
        # re-parsing and re-serializing is byte-stable
        text = serialize(D)
        assert serialize(parse(text)) == text


def _contract_draws(a, seed):
    """The 16-bit draws U_k of random_bipartite's documented contract."""
    digest = hashlib.shake_256(f"{seed}|{a}".encode()).digest(4 * a * a)
    return [int.from_bytes(digest[2 * k : 2 * k + 2], "little") for k in range(2 * a * a)]


def _contract_draw(a, p, seed):
    """random_bipartite's documented contract, decided one slot at a time."""
    threshold = round(p * 65536)
    arcs = []
    for k, u in enumerate(_contract_draws(a, seed)):
        tail, head = divmod(k, a)
        if u < threshold:
            if tail < a:
                arcs.append((f"x{tail}", f"y{head}"))
            else:
                arcs.append((f"y{tail - a}", f"x{head}"))
    return BipartiteDigraph(a, arcs)


sides = st.integers(1, 12)
probabilities = st.floats(0.0, 1.0)
# negative and wider-than-64-bit seeds are valid keys too
seeds = st.integers(-(2**80), 2**80)
bad_probabilities = st.one_of(
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1.0, exclude_min=True),
    st.just(math.nan),
)


class TestRandomBipartite:
    def test_deterministic(self):
        assert random_bipartite(5, 0.4, 99) == random_bipartite(5, 0.4, 99)
        assert random_bipartite(5, 0.4, 99) != random_bipartite(5, 0.4, 100)

    @given(sides, seeds)
    @example(3, 7)
    def test_extremes(self, a, seed):
        assert random_bipartite(a, 0.0, seed).arc_count == 0
        assert random_bipartite(a, 1.0, seed).arc_count == 2 * a * a
        # an int p is a number too
        assert random_bipartite(a, 0, seed).arc_count == 0
        assert random_bipartite(a, 1, seed).arc_count == 2 * a * a

    @given(st.integers(-(2**70), 0), sides, bad_probabilities, probabilities, seeds)
    @example(0, 3, 1.5, 0.5, 1)
    def test_bad_params(self, bad_a, a, bad_p, p, seed):
        with pytest.raises(BadParams, match=f"^side size must be >= 1, got {bad_a}$"):
            random_bipartite(bad_a, p, seed)
        with pytest.raises(BadParams, match=r"^arc probability must be in \[0, 1\], got "):
            random_bipartite(a, bad_p, seed)

    @pytest.mark.parametrize(
        "p,seed,message",
        [
            (True, 0, "arc probability must be a number, got True"),
            (False, 0, "arc probability must be a number, got False"),
            ("0.5", 0, "arc probability must be a number, got '0.5'"),
            (None, 0, "arc probability must be a number, got None"),
            (0.5, "3", "seed must be an int, got '3'"),
            (0.5, 1.5, "seed must be an int, got 1.5"),
            (0.5, True, "seed must be an int, got True"),
            (0.5, None, "seed must be an int, got None"),
        ],
    )
    def test_non_number_p_and_non_int_seed_rejected(self, p, seed, message):
        # p=True once drew the complete digraph and seed "3" that of seed 3
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
            random_bipartite(2, p, seed)
        if type(seed) is int:  # the search draws whole blocks of int seeds
            with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
                _drawn(2, p, [seed, seed + 1])

    def test_known_draw(self):
        # frozen stream: a change to the draws, their order or the threshold
        # must fail here
        assert serialize(random_bipartite(2, 0.5, 0)) == (
            "bipartite a=2\nx0 y1\ny0 x0\ny1 x0\n"
        )
        assert serialize(random_bipartite(4, 0.3, 7)) == (
            "bipartite a=4\nx3 y0\ny0 x3\ny2 x0\ny2 x1\ny2 x3\n"
        )
        assert serialize(sample_digraph(0, 4, 0.7, 1234)).splitlines() == [
            "bipartite a=4",
            "x0 y0", "x0 y1", "x0 y2", "x0 y3", "x1 y0", "x1 y1", "x1 y3",
            "x2 y1", "x2 y2", "x3 y0", "x3 y1", "x3 y2", "x3 y3",
            "y1 x0", "y1 x1", "y1 x2", "y1 x3", "y2 x0", "y2 x1", "y2 x2",
            "y2 x3", "y3 x2", "y3 x3",
        ]

    @given(sides, probabilities, seeds)
    def test_masks_match_constructor_and_contract(self, a, p, seed):
        D = random_bipartite(a, p, seed)
        built = BipartiteDigraph(a, D.arcs())
        # the in-masks are the exact transpose of the out-masks
        assert D == built and D._in == built._in
        assert D._out == _contract_draw(a, p, seed)._out

    @pytest.mark.parametrize("size", [1, 2, 7, 200, 512, 513])
    def test_block_matches_contract(self, size):
        # negative and wider-than-64-bit seeds, alternating in sign; the
        # thresholds sit on and beside the byte boundaries of the draw test,
        # and 2a bits overflow a 32-bit word at a = 17 and a 64-bit one at 33
        seeds = [(-1) ** i * (i << 64 | 0x9E3779B97F4A7C15) for i in range(size)]
        checked = sorted({0, 1, size // 2, size - 2, size - 1} & set(range(size)))
        for a in [*range(1, 13), 17, 33]:
            for threshold in (0, 1, 255, 256, 257, 32768, 65280, 65535, 65536):
                p = threshold / 65536
                block = _drawn(a, p, seeds)
                assert len(block) == size
                for i in checked:
                    want = _contract_draw(a, p, seeds[i])
                    assert block[i] == want and block[i]._in == want._in
                    assert block[i].a == a and block[i].n == 2 * a

    @pytest.mark.parametrize("a", [17, 33])
    def test_block_matches_contract_past_machine_words(self, a):
        # 2a bits no longer fit a 32-bit (a = 17) or a 64-bit (a = 33) word
        seeds = [-5, 2**70, 11]
        for D, seed in zip(_drawn(a, 0.5, seeds), seeds):
            want = _contract_draw(a, 0.5, seed)
            assert D == want and D._in == want._in

    @pytest.mark.parametrize("a", [1, 4, 12])
    def test_samples_build_from_their_own_digits(self, a):
        # The search builds only the samples its screen keeps, from their
        # runs of the block's arc digits: each comes out as drawn whole.
        m, seeds = 2 * a * a, range(40, 552)
        for p in (0.0, 0.3, 1.0):
            digits = _arc_digits(a, p, seeds)
            assert len(digits) == m * len(seeds) and set(digits) <= set(b"01")
            block = _build_block(a, digits, len(seeds))
            assert block == [random_bipartite(a, p, seed) for seed in seeds]
            for kept in ([0], [511], [3, 4, 200, 510], list(range(0, 512, 7))):
                rows = bytearray().join(digits[i * m : i * m + m] for i in kept)
                built = _build_block(a, rows, len(kept))
                assert built == [block[i] for i in kept]
                assert [D._in for D in built] == [block[i]._in for i in kept]

    @given(sides, probabilities, probabilities, seeds)
    def test_monotone_coupling_in_p(self, a, p, q, seed):
        lo, hi = sorted((p, q))
        sparse, dense = random_bipartite(a, lo, seed), random_bipartite(a, hi, seed)
        assert all(m & ~n == 0 for m, n in zip(sparse._out, dense._out))

    @given(sides, seeds, st.data())
    def test_threshold_is_strict_and_rounded(self, a, seed, data):
        # slot k holds an arc iff U_k < round(p * 65536)
        k = data.draw(st.integers(0, 2 * a * a - 1))
        u = _contract_draws(a, seed)[k]
        tail, head = divmod(k, a)
        bit = 1 << (a + head if tail < a else head)
        for offset, present in ((0.0, False), (0.4, False), (0.6, True)):
            D = random_bipartite(a, (u + offset) / 65536, seed)
            assert bool(D._out[tail] & bit) is present

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sides, probabilities)
    def test_arc_frequency(self, a, p):
        q = round(p * 65536) / 65536
        slots = 300 * 2 * a * a
        arcs = sum(random_bipartite(a, p, seed).arc_count for seed in range(300))
        assert abs(arcs - q * slots) <= 5 * math.sqrt(slots * q * (1 - q))


def test_index_order_matches_canonical_order():
    # the engine's ascending-bit iteration relies on this
    for D in (d8(), Digraph(5, []), BipartiteDigraph(3, [])):
        vs = [D._vertex(i) for i in range(D.n)]
        assert vs == sorted(vs)
