"""Theorem verdicts, the 8-vertex-exception recognizer, and the search harness."""

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipancyclic import (
    BipartiteDigraph,
    Conclusion,
    Digraph,
    SearchConfig,
    Theorem,
    TheoremVerdict,
    ViolationRecord,
    check_cycle,
    check_theorem_hypotheses,
    complete_bipartite,
    cycles_through_vertex,
    d8,
    directed_cycle,
    find_cycle_of_length,
    iso_to_D8,
    parse,
    run_search,
    sample_digraph,
    sample_seed,
    serialize,
    verify_theorem,
    write_violations,
)
from bipancyclic.errors import BadConfig, BadParams, InvalidCycle, WitnessNotFound
from bipancyclic.naive import naive_isomorphism
from bipancyclic import cli, conditions, cycles, digraph, verify
from bipancyclic.verify import MAX_SAMPLES, _certificate

from test_conditions import _screened
from test_digraph import bipartite_digraphs

D8_ARC_LIST = [(str(u), str(v)) for u, v in d8().arcs()]

# Every statement with a per-digraph verdict: all but lemma 3.3.
CERTIFIABLE = [t for t in Theorem if t is not Theorem.L3_3]


class TestVerdicts:
    def test_1_6_complete(self):
        v = verify_theorem(complete_bipartite(4), Theorem.T1_6)
        assert v.outcome == "conclusion"
        assert v.conclusion.kind == "pancyclic-certificate"
        assert v.conclusion.lengths() == (2, 4, 6, 8)

    def test_1_6_d8_misses_hypotheses(self):
        v = verify_theorem(d8(), Theorem.T1_6)
        assert v.outcome == "hypotheses-not-met" and v.conclusion is None

    def test_1_6_directed_cycle(self):
        # no two vertices share an out-neighbor, so the condition holds vacuously
        v = verify_theorem(directed_cycle(4), Theorem.T1_6)
        assert v.conclusion.kind == "directed-cycle"
        assert str(v.conclusion.cycle) == "x0 y0 x1 y1 x2 y2 x3 y3"
        # K*_{1,1} is a directed cycle too, and its 2-cycle is a full certificate
        v = verify_theorem(complete_bipartite(1), Theorem.T1_6)
        assert v.conclusion.kind == "pancyclic-certificate"
        assert v.conclusion.lengths() == (2,)

    @pytest.mark.parametrize("theorem", CERTIFIABLE)
    def test_named_families_give_no_violation(self, theorem):
        inputs = [directed_cycle(a) for a in range(1, 7)]
        inputs += [complete_bipartite(a) for a in range(1, 6)]
        inputs.append(d8())
        for D in inputs:
            assert verify_theorem(D, theorem).outcome != "violation", serialize(D)

    def test_1_7_d8_is_the_exception(self):
        v = verify_theorem(d8(), Theorem.T1_7)
        assert v.conclusion.kind == "d8-isomorphism"

    def test_1_7_complete_is_hamiltonian(self):
        v = verify_theorem(complete_bipartite(4), Theorem.T1_7)
        assert v.conclusion.kind == "hamiltonian"
        assert v.conclusion.cycle.length == 8

    def test_1_8_directed_cycle(self):
        v = verify_theorem(directed_cycle(4), Theorem.T1_8)
        assert v.conclusion.kind == "directed-cycle"
        assert v.conclusion.cycle.length == 8

    def test_1_8_d8(self):
        v = verify_theorem(d8(), Theorem.T1_8)
        assert v.conclusion.kind == "two-below-full-cycle"
        assert str(v.conclusion.cycle) == "x0 y0 x2 y3 x3 y1"

    def test_1_9_d8(self):
        v = verify_theorem(d8(), Theorem.T1_9)
        assert v.conclusion.kind == "pancyclic-certificate"
        assert v.conclusion.lengths() == (2, 4, 6)

    def test_1_9_directed_cycle_misses_premise(self):
        v = verify_theorem(directed_cycle(4), Theorem.T1_9)
        assert v.outcome == "hypotheses-not-met"
        assert v.hypotheses.failures == ("cycle premise: no cycle of length 6",)

    def test_1_10_d8(self):
        v = verify_theorem(d8(), Theorem.T1_10)
        assert v.conclusion.kind == "d8-isomorphism"

    def test_1_10_directed_cycle_excluded(self):
        v = verify_theorem(directed_cycle(4), Theorem.T1_10)
        assert v.hypotheses.failures == ("shape: the digraph is a directed cycle",)

    def test_1_10_complete(self):
        v = verify_theorem(complete_bipartite(4), Theorem.T1_10)
        assert v.conclusion.kind == "pancyclic-certificate"
        assert v.conclusion.lengths() == (2, 4, 6, 8)
        assert dict(v.conclusion.cycles)[6].length == 6

    def test_outcome_mapping(self):
        hyp = check_theorem_hypotheses(d8(), Theorem.T1_10)
        bad = Conclusion("violation", claim="x", serialization="y")
        assert TheoremVerdict(Theorem.T1_10, hyp, bad).outcome == "violation"

    def test_3_2_longest_non_hamiltonian_cycle(self):
        v = verify_theorem(d8(), Theorem.L3_2)
        assert v.conclusion.kind == "non-hamiltonian-cycle"
        assert str(v.conclusion.cycle) == "x0 y0 x2 y3 x3 y1"

    def test_3_4_reuses_the_bypassed_cycle(self, monkeypatch):
        # one longest-cycle scan, the premise's; the conclusion names its cycle
        scans = []
        scan = cycles._longest_non_hamiltonian

        def counted(D, *args):
            scans.append(D)
            return scan(D, *args)

        monkeypatch.setattr(conditions, "_longest_non_hamiltonian", counted)
        monkeypatch.setattr(verify, "_longest_non_hamiltonian", counted)
        D = complete_bipartite(4)
        v = verify_theorem(D, Theorem.L3_4)
        assert v.conclusion.kind == "two-below-full-cycle"
        assert v.conclusion.cycle == cycles._as_cycle(D, v.hypotheses._premise)
        assert scans == [D]

    def test_3_3_has_no_verdict(self):
        with pytest.raises(BadParams, match="search --target 3.3"):
            verify_theorem(d8(), Theorem.L3_3)

    @pytest.mark.parametrize("theorem", ["1.10", None])
    def test_theorem_must_be_a_member(self, theorem):
        message = f"theorem must be a Theorem member, got {theorem!r}"
        for check in (verify_theorem, check_theorem_hypotheses):
            with pytest.raises(BadParams) as info:
                check(d8(), theorem)
            assert str(info.value) == message

    def test_certificate_violation_path(self):
        out = _certificate(directed_cycle(4), 8)
        assert out.kind == "violation"
        assert out.claim == "no cycle of length 2 (even lengths 2..8 claimed)"

    def test_lemma_violation_paths(self):
        # violation texts, which search reports after "claim <id>: "
        out = verify._CONCLUSIONS[Theorem.L3_2](directed_cycle(4), None)
        assert out.claim == "no non-Hamiltonian cycle of length >= 4"
        four = cycles._find_cycles(complete_bipartite(4), 1 << 4)[4]
        out = verify._CONCLUSIONS[Theorem.L3_4](complete_bipartite(4), four)
        assert out.claim == (
            "gap-1 bypass on a longest non-Hamiltonian cycle of length 4, expected 6"
        )

    def test_short_longest_cycle_is_a_3_2_violation(self):
        # A 2-cycle and six arcless vertices: the longest non-Hamiltonian
        # cycle has length 2, which lemma 3.2's conclusion must refuse.
        D = BipartiteDigraph(4, [("x0", "y0"), ("y0", "x0")])
        out = verify._CONCLUSIONS[Theorem.L3_2](D, None)
        assert out.kind == "violation"
        assert out.claim == "no non-Hamiltonian cycle of length >= 4"

    def test_shorter_cycle_is_a_1_8_violation(self):
        # A 4-cycle and four arcless vertices at a = 4: no 6-cycle and not a
        # directed cycle, so claim 1.8's conclusion must not take the 4-cycle.
        D = BipartiteDigraph(4, [("x0", "y0"), ("y0", "x1"), ("x1", "y1"), ("y1", "x0")])
        out = verify._CONCLUSIONS[Theorem.T1_8](D, None)
        assert out.kind == "violation"
        assert out.claim == "no cycle of length 6 and not a directed cycle"

    def test_six_cycle_at_a_4_violates_1_7_1_9_1_10(self):
        # A directed 6-cycle with x3 and y3 arcless, at a = 4: no 2-cycle and
        # no Hamiltonian cycle, and not the 8-vertex exception, so claim
        # 1.9's certificate, claim 1.7 and claim 1.10 must each refuse it.
        ring = ["x0", "y0", "x1", "y1", "x2", "y2"]
        D = BipartiteDigraph(4, list(zip(ring, ring[1:] + ring[:1])))
        premise = conditions._PREMISE.holds(D)  # the 6-cycle, and no shorter one
        assert [str(v) for v in cycles._as_cycle(D, premise[6]).vertices] == ring
        outs = [
            verify._certificate(D, 6, premise),
            verify._conclude_1_7(D),
            verify._conclude_1_10(D),
        ]
        assert [out.kind for out in outs] == ["violation"] * 3
        assert [out.claim for out in outs] == [
            "no cycle of length 2 (even lengths 2..6 claimed)",
            "not Hamiltonian and not the 8-vertex exception",
            "no cycle of length 2 (even lengths 2..8 claimed); not the 8-vertex exception",
        ]

    @settings(max_examples=40)
    @given(bipartite_digraphs(min_a=4, max_a=5), st.sampled_from(CERTIFIABLE))
    def test_verdicts_total_and_sound(self, D, theorem):
        v = verify_theorem(D, theorem)
        # the claims are proven: random inputs never produce a violation
        assert v.outcome in ("conclusion", "hypotheses-not-met")
        if v.outcome == "hypotheses-not-met":
            assert v.hypotheses.failures
            return
        c = v.conclusion
        # every witness is re-checked at the length it is claimed for
        for m, cycle in c.cycles:
            assert check_cycle(D, cycle).length == m
        if c.kind == "pancyclic-certificate":
            top = 2 * D.a - 2 if theorem is Theorem.T1_9 else 2 * D.a
            assert c.lengths() == tuple(range(2, top + 1, 2))
        elif c.kind == "d8-isomorphism":
            assert _witness_maps_arcs(c.isomorphism, D, d8())
        elif c.kind == "non-hamiltonian-cycle":
            assert 4 <= c.cycle.length < D.n
        else:
            claimed = {
                "hamiltonian": D.n,
                "directed-cycle": D.n,
                "two-below-full-cycle": 2 * D.a - 2,
            }
            assert c.lengths() == (claimed[c.kind],)


def _witness_maps_arcs(witness, D, target):
    """Every arc of D must land on an arc of target under the mapping."""
    image = dict(witness.mapping)
    arcs = set(target.arcs())
    for u, v in D.arcs():
        if (image[u], image[v]) not in arcs:
            return False
    return True


class TestIsoD8:
    def test_identity(self):
        w = iso_to_D8(d8())
        assert w is not None and not w.side_swap
        assert all(u == v for u, v in w.mapping)

    def test_relabelled_x_side(self):
        swap = {"x0": "x1", "x1": "x0"}
        D = BipartiteDigraph(
            4, [(swap.get(u, u), swap.get(v, v)) for u, v in D8_ARC_LIST]
        )
        w = iso_to_D8(D)
        assert w is not None and _witness_maps_arcs(w, D, d8())

    def test_side_flip_recognized(self):
        # the target equals its own side flip, so a side-preserving map
        # exists for the flipped labelling too; only validity is pinned
        flip = lambda s: ("y" if s[0] == "x" else "x") + s[1:]
        D = BipartiteDigraph(4, [(flip(u), flip(v)) for u, v in D8_ARC_LIST])
        w = iso_to_D8(D)
        assert w is not None and _witness_maps_arcs(w, D, d8())

    def test_general_relabelling_recognized(self):
        order = ["v3", "v6", "v0", "v5", "v7", "v1", "v4", "v2"]
        names = {str(v): order[i] for i, v in enumerate(d8().vertices())}
        D = Digraph(8, [(names[u], names[v]) for u, v in D8_ARC_LIST])
        w = iso_to_D8(D)
        assert w is not None and _witness_maps_arcs(w, D, d8())

    def test_near_misses_rejected(self):
        assert iso_to_D8(BipartiteDigraph(4, D8_ARC_LIST[:-1])) is None
        extra = D8_ARC_LIST + [("x0", "y1")]
        assert iso_to_D8(BipartiteDigraph(4, extra)) is None
        assert iso_to_D8(complete_bipartite(3)) is None
        assert iso_to_D8(directed_cycle(4)) is None

    def test_same_degree_multiset_rejected(self):
        # 20 arcs and the right degree multiset, but the wrong structure
        arcs = [
            ("x0", "y2"), ("x1", "y0"), ("x1", "y2"), ("x1", "y3"),
            ("x2", "y0"), ("x2", "y1"), ("x2", "y2"), ("x3", "y0"),
            ("y0", "x0"), ("y0", "x1"), ("y0", "x2"), ("y0", "x3"),
            ("y1", "x1"), ("y1", "x2"), ("y2", "x0"), ("y2", "x1"),
            ("y2", "x2"), ("y2", "x3"), ("y3", "x1"), ("y3", "x2"),
        ]
        D = BipartiteDigraph(4, arcs)
        assert sorted(D.degree(v).total for v in D.vertices()) == sorted(
            d8().degree(v).total for v in d8().vertices()
        )
        assert iso_to_D8(D) is None
        assert naive_isomorphism(D, d8()) is None

    def test_random_relabellings_agree_with_naive(self):
        rng = random.Random(11)
        base = d8()
        for _ in range(25):
            xs = [f"x{i}" for i in range(4)]
            ys = [f"y{i}" for i in range(4)]
            px = rng.sample(range(4), 4)
            py = rng.sample(range(4), 4)
            swap = rng.random() < 0.5
            def rename(s):
                i = int(s[1:])
                if s[0] == "x":
                    return ys[px[i]] if swap else xs[px[i]]
                return xs[py[i]] if swap else ys[py[i]]
            D = BipartiteDigraph(
                4, [(rename(u), rename(v)) for u, v in D8_ARC_LIST]
            )
            w = iso_to_D8(D)
            assert w is not None and _witness_maps_arcs(w, D, base)
            assert naive_isomorphism(D, base) is not None
            # The same digraph as a general one, x_i -> v_i and y_j -> v_{4+j},
            # gets the same witness under the translated names.
            general = lambda s: f"v{int(s[1:]) + (4 if s[0] == 'y' else 0)}"
            G = Digraph(8, [(general(str(u)), general(str(v))) for u, v in D.arcs()])
            g = iso_to_D8(G)
            assert g is not None and g.side_swap == w.side_swap
            assert [(str(s), str(d)) for s, d in g.mapping] == [
                (general(str(s)), str(d)) for s, d in w.mapping
            ]

    def test_random_20_arc_digraphs_agree_with_naive(self):
        rng = random.Random(7)
        slots = [
            (f"x{i}", f"y{j}") for i in range(4) for j in range(4)
        ] + [(f"y{j}", f"x{i}") for i in range(4) for j in range(4)]
        for _ in range(40):
            D = BipartiteDigraph(4, rng.sample(slots, 20))
            assert (iso_to_D8(D) is not None) == (
                naive_isomorphism(D, d8()) is not None
            )


def _inline_pool(monkeypatch) -> type:
    """Swap run_search's process pool for one that runs submitted calls
    in-process on a 64-core machine.

    Returns the pool class: ``sizes`` lists the requested pool sizes, and
    ``peak_in_flight`` is the most futures submitted but not yet read.
    """
    unread: set[Future] = set()

    class Tracked(Future):
        def result(self, timeout=None):
            unread.discard(self)
            return super().result(timeout)

    class InlinePool:
        sizes: list[int] = []
        peak_in_flight = 0

        def __init__(self, max_workers):
            InlinePool.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Tracked()
            done.set_result(fn(*args))
            unread.add(done)
            InlinePool.peak_in_flight = max(InlinePool.peak_in_flight, len(unread))
            return done

    # run_search imports the pool class from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    return InlinePool


class TestSampling:
    def test_sample_seed_is_stable(self):
        assert sample_seed(0, 4, 0.5, 0) == sample_seed(0, 4, 0.5, 0)
        assert sample_seed(0, 4, 0.5, 0) != sample_seed(0, 4, 0.5, 1)
        assert sample_seed(0, 4, 0.5, 0) != sample_seed(1, 4, 0.5, 0)

    @pytest.mark.parametrize(
        ("args", "expected"),
        [
            ((0, 4, 0.5, 0), 11999205790312156489),
            ((0, 4, 0.5, 1), 283947573263296871),
            ((1, 4, 0.5, 0), 12548404424043752316),
            ((5151000003, 6, 0.3, 511), 11203446274911889395),
            ((-7, 5, 1 / 3, 512), 14840022624616544035),
            ((12345678901234567890, 12, 1e-05, 0), 10117389584563339416),
            ((0, 4, 1.0, 0), 2360544451572589915),
            ((0, 4, 1, 0), 2360544451572589915),  # an int p keys as its float
        ],
    )
    def test_sample_seed_known_answers(self, args, expected):
        # docs/formats.md's contract: sha256 of "seed|a|p|index", p as a
        # float's repr, read big-endian from the first 8 bytes
        assert sample_seed(*args) == expected

    @pytest.mark.parametrize("p", [0.1, 1 / 3, 1e-05, 0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, -3, 12345678901234567890, -98765432109876543210])
    def test_block_seeds_match_per_index(self, p, seed):
        def contract(i):
            key = f"{seed}|5|{p!r}|{i}".encode()
            return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")

        # starts below, at and past the first block boundary: the search's
        # one-pass block draw takes each index through sample_seed's key
        for start, stop in [(0, 3), (509, 515), (512, 514), (1020, 1030)]:
            seeds = [sample_seed(seed, 5, p, i) for i in range(start, stop)]
            block = verify._block_digits(seed, 5, p, start, stop)
            assert block == digraph._arc_digits(5, p, seeds)
            assert seeds == [contract(i) for i in range(start, stop)]

    def test_repro_command_redraws_an_int_p_sample(self):
        # the command line parses --p 1 as 1.0, which must key the same seed
        record = ViolationRecord(Theorem.T1_8, 4, 1, 2, "claim 1.8: synthetic", "", 9)
        argv = shlex.split(record.repro_command())[1:]
        args = cli._build_parser().parse_args(argv)
        config = SearchConfig(
            Theorem(args.target), tuple(args.a), tuple(args.p), args.samples, args.seed
        )
        assert config.p_values == (1.0,)
        assert record.sample_seed == sample_seed(config.seed, 4, 1.0, config.samples - 1)

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (("0", 4, 0.5, 3), "seed must be an int, got '0'"),
            ((True, 4, 0.5, 3), "seed must be an int, got True"),
            ((0, 4.0, 0.5, 3), "side size must be an int, got 4.0"),
            ((0, 0, 0.5, 3), "side size must be >= 1, got 0"),
            ((0, 4, "0.5", 3), "arc probability must be a number, got '0.5'"),
            ((0, 4, True, 3), "arc probability must be a number, got True"),
            ((0, 4, 1.5, 3), "arc probability must be in [0, 1], got 1.5"),
            ((0, 4, 0.5, -1), "sample index must be >= 0, got -1"),
            ((0, 4, 0.5, 3.0), "sample index must be an int, got 3.0"),
            ((0, 4, 0.5, True), "sample index must be an int, got True"),
        ],
    )
    def test_sample_coordinates_rejected(self, args, message):
        # seed "0" once regenerated seed 0's sample, and index -1 a seed no
        # search draws
        for regenerate in (sample_seed, sample_digraph):
            with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
                regenerate(*args)

    def test_sample_digraph_reproducible(self):
        D1 = sample_digraph(5, 4, 0.5, 17)
        D2 = sample_digraph(5, 4, 0.5, 17)
        assert D1 == D2 and D1.a == 4

    def test_block_draws_sample_digraph(self, monkeypatch):
        # A stand-in row with no gates lets every sample through the screen,
        # and a stand-in evaluator reports each with its masks.  513 samples
        # are one block more than _BLOCK drawn at once, and a search splits
        # them into a full block and a block of one.
        def every(premise, conclude, D):
            return 1, [f"{D._out} {D._in}"]

        monkeypatch.setattr(verify, "_CLAUSES", {Theorem.T1_8: ((), None)})
        monkeypatch.setattr(verify, "_eval_claim", every)
        config = SearchConfig(Theorem.T1_8, a_values=(5,), p_values=(0.5,), samples=513, seed=16)
        assert config.samples == verify._BLOCK + 1
        _, whole = verify._run_block(Theorem.T1_8, 5, 0.5, config.seed, 0, config.samples)
        split = run_search(config).violations
        assert whole == list(split) and len(whole) == config.samples
        for i, v in enumerate(whole):
            D = sample_digraph(config.seed, 5, 0.5, i)
            assert v.sample_index == i
            assert v.claim == f"claim 1.8: {D._out} {D._in}"
            assert v.serialization == serialize(D)

    def test_block_split_is_worker_invariant(self):
        config = SearchConfig(Theorem.T1_9, a_values=(4,), p_values=(0.7,), samples=513, seed=16)
        serial, pooled = run_search(config), run_search(config, workers=2)
        assert serial.hypothesis_satisfying > 0
        assert serial.render() == pooled.render()
        assert serial.to_json() == pooled.to_json()


class TestBlockDraw:
    """The search's one-pass block draw, index to seed to digest to digits,
    against the one-index contract (sample_seed, then random_bipartite)."""

    # (config seed, a, p, start, stop): a whole first block, blocks that
    # start at 512, a short tail block, int p at 0 and 1, and the smallest
    # and largest side sizes the search accepts
    BLOCKS = [
        (0, 4, 0.5, 0, 512),
        (7, 5, 0.3, 512, 1024),
        (-2, 6, 0.7, 1024, 1031),
        (3, 4, 0, 512, 600),
        (3, 5, 1, 0, 40),
        (11, 1, 0.5, 512, 900),
        (5, 12, 0.9, 512, 530),
    ]

    @pytest.mark.parametrize("seed, a, p, start, stop", BLOCKS)
    def test_block_digits_match_per_index_draws(self, seed, a, p, start, stop):
        seeds = [sample_seed(seed, a, p, i) for i in range(start, stop)]
        digits = verify._block_digits(seed, a, p, start, stop)
        assert digits == digraph._arc_digits(a, p, seeds)

    @pytest.mark.parametrize("seed, a, p, start, stop", BLOCKS)
    def test_screen_builds_each_sample_as_drawn(self, monkeypatch, seed, a, p, start, stop):
        built = []
        build = conditions._build_block

        def recording(a, digits, count):
            block = build(a, digits, count)
            built.extend(block)
            return block

        monkeypatch.setattr(conditions, "_build_block", recording)
        drawn = [sample_digraph(seed, a, p, i) for i in range(start, stop)]
        digits = verify._block_digits(seed, a, p, start, stop)
        for row in [((), None), *conditions._CLAUSES.values()]:
            built.clear()
            blocks = [clause for clause in row[0] if clause.block is not None]
            survivors = conditions._screen(row, a, digits, stop - start)
            # built: exactly the samples that pass the order and B_k gates
            want = [D for D in drawn if all(clause.holds(D) for clause in blocks)]
            assert built == want and [D._in for D in built] == [D._in for D in want]
            for offset, D in survivors:  # drawn[offset] is sample start + offset
                assert D == drawn[offset] and D._in == drawn[offset]._in


class TestSearch:
    CONFIG = SearchConfig(
        target=Theorem.T1_9,
        a_values=(4,),
        p_values=(0.7,),
        samples=600,
        seed=3,
    )

    def test_deterministic(self):
        r1 = run_search(self.CONFIG)
        r2 = run_search(self.CONFIG)
        assert r1.render() == r2.render()
        assert r1.samples_run == 600
        assert r1.hypothesis_satisfying > 0
        assert r1.violations == ()

    def test_worker_count_invariant(self):
        serial = run_search(self.CONFIG)
        parallel = run_search(self.CONFIG, workers=2)
        assert serial.render() == parallel.render()

    def test_import_leaves_multiprocessing_unloaded(self):
        # Only a search with workers > 1 imports the process pool, and no
        # runtime path imports the naive oracle.
        probe = (
            "import sys, bipancyclic; "
            "print('multiprocessing' in sys.modules, 'bipancyclic.naive' in sys.modules)"
        )
        src = str(Path(verify.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False False\n"

    def test_zero_samples(self):
        r = run_search(SearchConfig(target=Theorem.T1_8, samples=0))
        assert r.samples_run == 0 and r.hypothesis_satisfying == 0
        assert len(r.cells) == 9  # full default grid still reported

    def test_render_is_stable_and_excludes_runtime(self):
        r = run_search(self.CONFIG)
        text = r.render()
        assert "runtime" not in text
        assert text.splitlines()[0] == "target: 1.9"
        assert "cell a=4 p=0.7:" in text

    def test_bad_configs(self):
        for cfg in (
            SearchConfig(target="1.8", samples=1),
            SearchConfig(Theorem.T1_8, a_values=(4.5,), samples=1),
            SearchConfig(Theorem.T1_8, samples=2.5),
            SearchConfig(Theorem.T1_8, p_values=("0.5",), samples=1),
            SearchConfig(Theorem.T1_8, a_values=()),
            SearchConfig(Theorem.T1_8, p_values=()),
            SearchConfig(Theorem.T1_8, a_values=(0,)),
            SearchConfig(Theorem.T1_8, a_values=(13,)),
            SearchConfig(Theorem.T1_8, p_values=(1.5,)),
            SearchConfig(Theorem.T1_8, samples=-1),
            SearchConfig(Theorem.T1_8, samples=MAX_SAMPLES + 1),
            SearchConfig(Theorem.T1_8, a_values=(4, 5, 4)),
            SearchConfig(Theorem.T1_8, p_values=(0.7, 0.5, 0.7)),
            # values the command line cannot express, whose repro it would reject
            SearchConfig(Theorem.T1_8, a_values=(True,), samples=1),
            SearchConfig(Theorem.T1_8, p_values=(True,), samples=1),
            SearchConfig(Theorem.T1_8, samples=True),
            SearchConfig(Theorem.T1_8, samples=1, seed="abc"),
            SearchConfig(Theorem.T1_8, samples=1, seed=True),
            SearchConfig(Theorem.T1_8, samples=1, seed=1.5),
        ):
            with pytest.raises(BadConfig):
                run_search(cfg)
        for workers in (0, True, 2.5, "2"):
            with pytest.raises(BadConfig):
                run_search(SearchConfig(Theorem.T1_8, samples=1), workers=workers)
        with pytest.raises(BadConfig):  # before any worker starts
            run_search(SearchConfig(target="1.8", samples=1), workers=2)

    def test_sample_cap_is_accepted(self):
        SearchConfig(Theorem.T1_8, samples=MAX_SAMPLES).validate()

    @pytest.mark.parametrize("theorem", CERTIFIABLE)
    def test_prefilter_matches_hypotheses(self, theorem):
        # the search's per-cell counts are exactly what certify concludes,
        # on dense cells, the benchmark's grid and one a = 3 cell
        grids = [((4, 5), (0.7, 0.9)), ((4, 5, 6), (0.3, 0.5, 0.7)), ((3,), (0.9,))]
        for a_values, p_values in grids:
            config = SearchConfig(theorem, a_values, p_values, samples=60, seed=1)
            report = run_search(config)
            for cell in report.cells:
                verdicts = [
                    verify_theorem(sample_digraph(config.seed, cell.a, cell.p, i), theorem)
                    for i in range(config.samples)
                ]
                assert cell.satisfying == sum(v.outcome != "hypotheses-not-met" for v in verdicts)
                assert cell.violations == sum(v.outcome == "violation" for v in verdicts) == 0
            assert report.hypothesis_satisfying > 0 or a_values == (3,)

    def test_premise_miss_is_not_satisfying(self):
        # Some samples pass every gate of lemma 3.4 and miss its premise (two
        # of these 60); the search counts them out, as certify does.
        config = SearchConfig(Theorem.L3_4, a_values=(4,), p_values=(0.7,), samples=60, seed=0)
        verdicts = [
            verify_theorem(sample_digraph(config.seed, 4, 0.7, i), Theorem.L3_4)
            for i in range(config.samples)
        ]
        miss = (
            "cycle premise: no longest non-Hamiltonian cycle of length >= 4"
            " with a gap-1 bypass"
        )
        assert sum(v.hypotheses.failures == (miss,) for v in verdicts) == 2
        satisfying = sum(v.hypotheses.satisfied for v in verdicts)
        assert run_search(config).hypothesis_satisfying == satisfying > 0

    # The lengths a stand-in engine misses, by statement and side size a, so
    # that a sample meeting the hypotheses gets a violation.
    MISSED = {
        Theorem.T1_6: lambda a: {2},
        Theorem.T1_7: lambda a: {2 * a},
        Theorem.T1_8: lambda a: {2 * a - 2},
        Theorem.T1_9: lambda a: {2},  # the certificate's; the premise still finds 2a - 2
        Theorem.T1_10: lambda a: {2},
        Theorem.L3_2: lambda a: set(range(4, 2 * a, 2)),
        Theorem.L3_4: lambda a: {2 * a - 2},  # the premise's scan then stops at 2a - 4
    }

    @pytest.mark.parametrize("theorem", CERTIFIABLE)
    def test_search_and_certify_share_claim_text(self, monkeypatch, theorem):
        # With the index engine the premises and conclusions reach
        # (directly, and through the longest-cycle scan) missing a length,
        # the search reports each violation with the claim text certify
        # gives on the same sample.
        search = cycles._find_cycles

        def missing(D, lengths, need=0):
            found = search(D, lengths, need)
            for m in self.MISSED[theorem](D.a):
                found.pop(m, None)
            return found

        for module in (conditions, cycles, verify):
            monkeypatch.setattr(module, "_find_cycles", missing)
        config = SearchConfig(theorem, a_values=(4, 5), p_values=(0.7, 0.9), samples=40, seed=3)
        report = run_search(config)
        assert len(report.violations) == report.hypothesis_satisfying > 0
        for v in report.violations:
            D = sample_digraph(config.seed, v.a, v.p, v.sample_index)
            conclusion = verify_theorem(D, theorem).conclusion
            assert conclusion.kind == "violation"
            assert v.claim == f"claim {theorem.value}: " + conclusion.claim
            assert v.serialization == conclusion.serialization

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_hypotheses_hold_matches_report(self, theorem):
        # the search's screen, in its own order and dropping a sample at its
        # first failing gate, then the premise on the survivors, agree with
        # certify's full report, here and on the benchmark's grid
        row = conditions._CLAUSES[theorem]
        cells = [(a, p) for a in (3, 4, 5) for p in (0.7, 0.9)]
        cells += [(a, p) for a in (4, 5, 6) for p in (0.3, 0.5, 0.7)]
        digraphs = [sample_digraph(2, a, p, i) for a, p in cells for i in range(100)]
        digraphs.append(Digraph(3, [("v0", "v1"), ("v1", "v2"), ("v2", "v0")]))
        satisfied = 0
        for D in digraphs:
            report = check_theorem_hypotheses(D, theorem)
            if isinstance(D, BipartiteDigraph):  # the search draws no other kind
                calls, passed, premise = _screened(D, row)
                assert all(result for _, result in calls[:-1])
                assert passed == all(result for _, result in calls)
                assert (passed and (premise is not None or row[1] is None)) == report.satisfied
                assert premise == report._premise
            satisfied += report.satisfied
        assert 0 < satisfied < len(digraphs)

    def test_search_tests_bk_before_strong_connectivity(self, monkeypatch):
        # Counting wrappers around every gate: order and B_k decide each
        # block once from its arc digits, so each sample once; the search
        # sweeps for strong connectivity only on samples that passed both,
        # tests each gate at most once per sample, and reports what it
        # reported before.
        targets = (Theorem.T1_7, Theorem.T1_9, Theorem.L3_2)
        configs = [SearchConfig(t, samples=150, seed=4) for t in targets]
        plain = [run_search(config).render() for config in configs]
        blocks = []  # (gate, block size, mask) per block-form call
        calls = []  # (sample, gate, result); holding D keeps its id unique

        def counted(clause):
            def holds(D):
                result = clause.holds(D)
                calls.append((D, clause.explain, result))
                return result

            def block(a, digits, count):
                mask = clause.block(a, digits, count)
                blocks.append((clause.explain, count, mask))
                return mask

            return clause._replace(holds=holds, block=clause.block and block)

        rows = {
            t: (tuple(map(counted, gates)), premise)
            for t, (gates, premise) in conditions._CLAUSES.items()
        }
        monkeypatch.setattr(verify, "_CLAUSES", rows)
        strong = conditions._STRONG.explain
        for config, expected in zip(configs, plain):
            calls.clear()
            blocks.clear()
            assert run_search(config).render() == expected
            order, bk = [g for g in conditions._CLAUSES[config.target][0] if g.block]
            # one block per cell, each decided by order, then B_k, once
            assert [gate for gate, _, _ in blocks] == [order.explain, bk.explain] * 9
            assert all(count == 150 for _, count, _ in blocks)
            passed = sum(
                (blocks[i][2] & blocks[i + 1][2]).bit_count() for i in range(0, len(blocks), 2)
            )
            walks = {}
            for D, gate, result in calls:
                walks.setdefault(id(D), (D, []))[1].append((gate, result))
            sweeps = 0
            for D, walk in walks.values():
                gates = [gate for gate, _ in walk]
                assert len(set(gates)) == len(gates)
                assert gates[0] == strong  # nothing before it runs per sample
                assert order.holds(D) and bk.holds(D)
                sweeps += 1
            assert sweeps == passed
            assert 0 < sweeps < 9 * 150 / 5

    def test_premise_runs_only_after_every_gate(self, monkeypatch):
        # Every cycle search goes through _find_cycles; claim 1.9's premise
        # is the only one, and the certificate reads what it found.
        calls = []
        search = cycles._find_cycles

        def counting(D, lengths, need=0):
            calls.append(tuple(m for m in range(lengths.bit_length()) if lengths >> m & 1))
            return search(D, lengths, need)

        for module in (cycles, conditions, verify):
            monkeypatch.setattr(module, "_find_cycles", counting)
        not_strong = BipartiteDigraph(3, [("x0", "y0"), ("x1", "y0")])
        verdict = verify_theorem(not_strong, Theorem.T1_9)
        assert verdict.outcome == "hypotheses-not-met"
        assert len(verdict.hypotheses.failures) == 3
        assert calls == []
        verify_theorem(d8(), Theorem.T1_9)  # the gates hold: one premise search
        assert calls == [(2, 4, 6)]  # for every length the certificate needs

    def test_premise_ends_where_its_cycle_no_longer_fits(self):
        # A directed cycle passes claim 1.9's gates and has no cycle shorter
        # than 2a, so every shorter length stays pending; the premise still
        # ends after start 2, past which no (2a - 2)-cycle fits, as a search
        # for that length alone does.
        for a in (4, 8, 12):
            D = parse(serialize(directed_cycle(a)))
            failures = verify_theorem(D, Theorem.T1_9).hypotheses.failures
            assert failures == (f"cycle premise: no cycle of length {2 * a - 2}",)
            assert sorted(D._cores) == [0, 1, 2]
            alone = parse(serialize(directed_cycle(a)))
            assert cycles._find_cycles(alone, 1 << 2 * a - 2) == {}
            assert sorted(alone._cores) == [0, 1, 2]

    def test_workers_clamped_before_pool_starts(self, monkeypatch):
        pool = _inline_pool(monkeypatch)
        report = run_search(self.CONFIG, workers=100_000)
        assert pool.sizes == [2]  # 600 samples make two blocks
        assert report.render() == run_search(self.CONFIG).render()
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        run_search(self.CONFIG, workers=100_000)
        assert pool.sizes == [2]  # one usable core: no pool at all

    def test_blocks_stream_in_order(self, monkeypatch):
        # A stand-in block names itself, so the report lists blocks in the
        # order they were reduced.
        def fake_block(target, a, p, seed, start, stop):
            return 1, [(a, p, start)]

        monkeypatch.setattr(verify, "_run_block", fake_block)
        config = SearchConfig(
            Theorem.T1_8, a_values=(4, 5, 6), p_values=(0.3, 0.5, 0.7),
            samples=20 * verify._BLOCK - 7,
        )
        expected = tuple(
            (a, p, start)
            for a in config.a_values
            for p in config.p_values
            for start in range(0, config.samples, verify._BLOCK)
        )
        serial = run_search(config)
        pool = _inline_pool(monkeypatch)
        pooled = run_search(config, workers=3)
        assert pool.sizes == [3]
        assert pool.peak_in_flight == 6  # two blocks per worker, 180 in all
        assert serial.violations == pooled.violations == expected
        assert serial.cells == pooled.cells
        for cell in serial.cells:
            assert cell.samples == config.samples
            assert cell.satisfying == cell.violations == 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_are_planned_lazily(self, monkeypatch, workers):
        # At the sample cap a 3 x 10 grid has 585,960 blocks; the first one
        # must run before the rest are planned.
        class FirstBlock(Exception):
            pass

        def fail(*block):
            raise FirstBlock

        monkeypatch.setattr(verify, "_run_block", fail)
        _inline_pool(monkeypatch)
        config = SearchConfig(
            Theorem.T1_8, a_values=(4, 5, 6),
            p_values=tuple(k / 10 for k in range(1, 11)), samples=MAX_SAMPLES,
        )
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock):
                run_search(config, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_gated_violations_name_their_sample(self, monkeypatch):
        # Claim 1.9 with its real gates and premise, and a stand-in
        # conclusion that always violates: the screen builds only the
        # samples that pass order and B_k, so each record must carry its
        # sample's index through the screen, here across two blocks a cell.
        def always(D, premise):  # premise: the witnesses by length
            return verify._violation(f"stand-in on {len(premise[2 * D.a - 2])} vertices")

        monkeypatch.setitem(verify._CONCLUSIONS, Theorem.T1_9, always)
        config = SearchConfig(Theorem.T1_9, a_values=(4, 5), p_values=(0.5, 0.7), samples=600)
        report = run_search(config)
        hypotheses = partial(check_theorem_hypotheses, theorem=Theorem.T1_9)
        expected = [
            (a, p, i)
            for a in config.a_values
            for p in config.p_values
            for i in range(config.samples)
            if hypotheses(sample_digraph(config.seed, a, p, i)).satisfied
        ]
        assert any(i >= verify._BLOCK for _, _, i in expected)
        assert [(v.a, v.p, v.sample_index) for v in report.violations] == expected
        for v in report.violations:
            D = sample_digraph(config.seed, v.a, v.p, v.sample_index)
            assert v.claim == f"claim 1.9: stand-in on {2 * v.a - 2} vertices"
            assert v.serialization == serialize(D)
        assert len(expected) == report.hypothesis_satisfying

    def test_violation_path(self, monkeypatch, capsys, tmp_path):
        # No shipped claim ever fails, so a stand-in row with no gates lets
        # every sample through the screen, and a stand-in evaluator flags
        # every sample with an even arc count to drive the violation path.
        def fake(premise, conclude, D):
            return 1, (["even arc count"] if D.arc_count % 2 == 0 else [])

        monkeypatch.setattr(verify, "_CLAUSES", {Theorem.T1_8: ((), None)})
        monkeypatch.setattr(verify, "_eval_claim", fake)
        config = SearchConfig(
            Theorem.T1_8, a_values=(4, 5), p_values=(0.5,), samples=600, seed=9
        )
        report = run_search(config)
        expected = [
            (a, p, i)
            for a in config.a_values
            for p in config.p_values
            for i in range(config.samples)
            if sample_digraph(config.seed, a, p, i).arc_count % 2 == 0
        ]
        assert 0 < len(expected) < 2 * config.samples
        assert [(v.a, v.p, v.sample_index) for v in report.violations] == expected
        for v in report.violations:
            assert v.target is Theorem.T1_8 and v.config_seed == config.seed
            assert v.sample_seed == sample_seed(config.seed, v.a, v.p, v.sample_index)
            assert v.serialization == serialize(
                sample_digraph(config.seed, v.a, v.p, v.sample_index)
            )
            assert v.claim == "claim 1.8: even arc count"
        for cell in report.cells:
            assert cell.samples == cell.satisfying == config.samples
            assert cell.violations == sum(1 for a, p, _ in expected if (a, p) == (cell.a, cell.p))
        assert report.samples_run == report.hypothesis_satisfying == 2 * config.samples

        text = report.render().splitlines()
        assert f"violations: {len(expected)}" in text
        assert [line for line in text if line.startswith("VIOLATION")] == [
            f"VIOLATION [claim 1.8: even arc count] repro: {v.repro_command()}"
            for v in report.violations
        ]

        rc = cli.main(
            ["search", "--target", "1.8", "--a", "4", "5", "--p", "0.5",
             "--samples", "600", "--seed", "9", "--json"]
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == [
            {
                "a": v.a,
                "p": v.p,
                "sample_index": v.sample_index,
                "sample_seed": v.sample_seed,
                "claim": v.claim,
                "repro": v.repro_command(),
                "serialization": v.serialization,
            }
            for v in report.violations
        ]
        assert [c["violations"] for c in payload["cells"]] == [
            c.violations for c in report.cells
        ]

        paths = write_violations(report, tmp_path)
        assert len(paths) == len(expected)
        for path, v in zip(paths, report.violations):
            lines = path.read_text().splitlines()
            assert lines[:2] == [f"# {v.claim}", f"# repro: {v.repro_command()}"]
            assert parse(path.read_text()) == sample_digraph(
                config.seed, v.a, v.p, v.sample_index
            )

        pool = _inline_pool(monkeypatch)
        pooled = run_search(config, workers=2)
        assert pool.sizes == [2]  # two cells of two blocks each
        assert pool.peak_in_flight == 4
        assert pooled.violations == report.violations
        assert pooled.cells == report.cells
        assert pooled.render() == report.render()

    def test_claim_1_9_reuses_its_premise_cycle(self, monkeypatch):
        # the premise's one search (the conditions module's call of
        # _find_cycles) asks for every even length 2..2a - 2, and the
        # certificate reads its witnesses from what the premise found:
        # verify calls _find_cycles for claim 1.9 no more
        calls = {"conditions": [], "verify": []}
        search = cycles._find_cycles
        for module in (conditions, verify):
            def counted(D, lengths, need=0, key=module.__name__.rsplit(".", 1)[1]):
                calls[key].append((D.a, lengths))
                return search(D, lengths, need)

            monkeypatch.setattr(module, "_find_cycles", counted)
        report = run_search(SearchConfig(Theorem.T1_9, samples=200, seed=1))
        assert report.hypothesis_satisfying == 69
        assert len(calls["conditions"]) == 69 and calls["verify"] == []
        assert all(
            lengths == sum(1 << m for m in range(2, 2 * a - 1, 2))
            for a, lengths in calls["conditions"]
        )
        calls.update(conditions=[], verify=[])
        verdict = verify_theorem(complete_bipartite(4), Theorem.T1_9)
        assert verdict.conclusion.lengths() == (2, 4, 6)
        assert calls == {"conditions": [(4, 1 << 2 | 1 << 4 | 1 << 6)], "verify": []}

    def test_lemma_targets_run_clean(self):
        for target in (Theorem.L3_2, Theorem.L3_3, Theorem.L3_4):
            r = run_search(
                SearchConfig(target, a_values=(4,), p_values=(0.7,), samples=200)
            )
            assert r.violations == ()
            assert r.samples_run == 200


def _eval_l3_3_public(D):
    """Lemma 3.3's search evaluator rebuilt from public calls only."""
    satisfying = 0
    claims = []
    for b in range(1, D.a):
        C = find_cycle_of_length(D, 2 * b)
        if C is None:
            continue
        for x in D.vertices():
            if x in C.vertices or D.restricted_degree(x, C.vertices) < b + 1:
                continue
            satisfying += 1
            try:
                cycles_through_vertex(D, C, x)
            except WitnessNotFound as exc:
                claims.append(str(exc))
    return satisfying, claims


def _no_rungs(out, inn, hit):
    """A rung-mask stand-in that settles no rung, so every rung takes the DFS."""
    return [0] * (len(hit) // 2)


class TestLemma33Evaluator:
    SAMPLES = [
        sample_digraph(5, a, p, i)
        for a in range(2, 8)
        for p in (0.2, 0.4, 0.6, 0.8, 0.9)
        for i in range(12)
    ]

    def test_matches_public_rebuild(self):
        units = 0
        for D in self.SAMPLES:
            got = verify._eval_l3_3(D)
            assert got == _eval_l3_3_public(D)
            units += got[0]
        assert units > 1000

    def test_checks_each_used_cycle_once(self, monkeypatch):
        checked = []
        core = verify._check_cycle_indices

        def recording(D, idx):
            checked.append(tuple(D._vertex(i) for i in idx))
            return core(D, idx)

        monkeypatch.setattr(verify, "_check_cycle_indices", recording)
        for D in self.SAMPLES:
            checked.clear()
            verify._eval_l3_3(D)
            used = []
            for b in range(1, D.a):
                C = find_cycle_of_length(D, 2 * b)
                if C is not None and any(
                    x not in C.vertices and D.restricted_degree(x, C.vertices) > b
                    for x in D.vertices()
                ):
                    used.append(C.vertices)
            assert checked == used

    @pytest.mark.parametrize(
        "broken, message",
        [
            ([0, 3, 1, 4], "missing arc y1 x0"),  # x0 y0 x1 y1 without y1 -> x0
            ([0, 3, 0, 4], "repeated vertex in cycle"),
        ],
    )
    def test_recheck_rejects_a_broken_search_hit(self, monkeypatch, broken, message):
        # complete_bipartite(3) without y1 -> x0: x2 has four arcs to either
        # sequence's vertices, more than b = 2, so the 4-cycle has a unit and
        # the re-check must reject what the search hands it.
        arcs = [(str(u), str(w)) for u, w in complete_bipartite(3).arcs()]
        arcs.remove(("y1", "x0"))
        D = BipartiteDigraph(3, arcs)
        search = verify._find_cycles
        monkeypatch.setattr(
            verify, "_find_cycles", lambda D, lengths: {**search(D, lengths), 4: broken}
        )
        with pytest.raises(InvalidCycle) as caught:
            verify._eval_l3_3(D)
        assert str(caught.value) == message

    def test_components_swept_once_per_start(self, monkeypatch):
        # Every length of one sample shares its starts' strong components,
        # so no component sweep repeats within one evaluation.  A component
        # sweep's source lies in its allowed set; a covering search's sweeps
        # start outside it and may repeat across branches, so they are not
        # recorded.  Mask lists are told apart by identity, since out- and
        # in-masks can be equal.  Each sample is evaluated as a fresh copy,
        # since other tests fill the shared samples' component memos.
        calls = []
        reach = digraph._reach

        def recording(masks, src, allowed):
            if allowed >> src & 1:
                calls.append((id(masks), src, allowed))
            return reach(masks, src, allowed)

        monkeypatch.setattr(digraph, "_reach", recording)
        for D in self.SAMPLES:
            D = parse(serialize(D))
            calls.clear()
            verify._eval_l3_3(D)
            assert calls and len(calls) == len(set(calls)), D

    def test_segments_settle_every_rung(self, monkeypatch):
        # x's arcs meet only C's b positions on the other side, and an even
        # shift permutes them, so b + 1 arcs always give a segment cycle: the
        # DFS fallback is never reached, wrap-around segments included.
        calls = []
        dfs = verify._lex_min_cycle_from

        def counted(*args):
            calls.append(args)
            return dfs(*args)

        monkeypatch.setattr(verify, "_lex_min_cycle_from", counted)
        units = sum(verify._eval_l3_3(D)[0] for D in self.SAMPLES)
        assert units > 1000
        assert calls == []

    def test_fallback_alone_matches_public_rebuild(self, monkeypatch):
        monkeypatch.setattr(verify, "_rung_masks", _no_rungs)
        for D in self.SAMPLES:
            assert verify._eval_l3_3(D) == _eval_l3_3_public(D)

    @given(bipartite_digraphs(min_a=2, max_a=6))
    @settings(max_examples=150, deadline=None)
    def test_settled_segments_are_cycles(self, D):
        # An (x, m) bit is set exactly when some position i has x -> C[i]
        # and C[i + m - 2] -> x; the segment from the least such i, rebuilt
        # as x followed by m - 1 consecutive cycle vertices, is an m-cycle
        # through x; a unit's vertex has every rung settled.
        arcs = set(D.arcs())
        for b in range(1, D.a):
            hit = cycles._find_cycles(D, 1 << 2 * b).get(2 * b)
            if hit is None:
                continue
            C = [D._vertex(i) for i in hit]
            rungs = verify._rung_masks(D._out, D._in, hit)
            assert len(rungs) == b
            for x in D.vertices():
                if x in C:
                    continue
                xi = D._index(x)
                settled = []
                for m, rung in zip(range(2, 2 * b + 1, 2), rungs):
                    closing = [
                        i
                        for i in range(2 * b)
                        if (x, C[i]) in arcs and (C[(i + m - 2) % (2 * b)], x) in arcs
                    ]
                    assert bool(rung >> xi & 1) == bool(closing)
                    if closing:
                        settled.append(m)
                        segment = [C[(closing[0] + k) % (2 * b)] for k in range(m - 1)]
                        cycle = check_cycle(D, [x, *segment])
                        assert cycle.length == m and x in cycle.vertices
                if D.restricted_degree(x, C) > b:
                    assert settled == list(range(2, 2 * b + 1, 2))

    def test_missing_rung_claim_text(self, monkeypatch):
        # With no rung settled by a segment and a DFS that loses every rung
        # from 4 up, the evaluator reports each ladder's first gap with the
        # text cycles_through_vertex raises for that gap.
        D = complete_bipartite(4)
        C = find_cycle_of_length(D, 4)
        dfs = cycles._lex_min_cycle_from

        def losing(out, inn, x, lengths, allowed):
            return {m: hit for m, hit in dfs(out, inn, x, lengths, allowed).items() if m < 4}

        monkeypatch.setattr(verify, "_rung_masks", _no_rungs)
        monkeypatch.setattr(verify, "_lex_min_cycle_from", losing)
        got = verify._eval_l3_3(D)
        # units: the 2-cycle with 6 off-cycle vertices, the 4- and 6-cycles
        # with 4 and 2; the 6 ladders that reach length 4 each give one claim
        assert got[0] == 12 and len(got[1]) == 6
        assert got[1][0] == "no cycle of length 4 through x2 within the cycle vertices"
        monkeypatch.setattr(cycles, "_lex_min_cycle_from", losing)
        with pytest.raises(WitnessNotFound) as exc:
            cycles_through_vertex(D, C, "x2")
        assert str(exc.value) == got[1][0]


def test_claim_1_9_sweeps_each_component_once(monkeypatch):
    # On the bench grid's claim 1.9 samples, the gates, the premise and every
    # certificate length share each sample's component memo, so no (sample,
    # start) component is swept twice.  A component sweep's source lies in
    # its allowed set, unlike the covering search's and the bypass test's
    # sweeps.  Every sample the screen builds stays alive, so no mask
    # tuple's identity is reused; out- and in-masks are told apart by
    # identity, since they can be equal.
    calls = []
    reach = digraph._reach

    def recording(masks, src, allowed):
        if allowed >> src & 1:
            calls.append((id(masks), src, allowed))
        return reach(masks, src, allowed)

    for module in (digraph, cycles, conditions):
        monkeypatch.setattr(module, "_reach", recording)
    row = conditions._CLAUSES[Theorem.T1_9]
    conclude = verify._CONCLUSIONS[Theorem.T1_9]
    samples, satisfying = [], 0
    for a in (4, 5, 6):
        for p in (0.3, 0.5, 0.7):
            digits = digraph._arc_digits(a, p, [sample_seed(16, a, p, i) for i in range(200)])
            survivors = [D for _, D in conditions._screen(row, a, digits, 200)]
            samples.extend(survivors)
            satisfying += sum(verify._eval_claim(row[1], conclude, D)[0] for D in survivors)
    assert satisfying > 30
    assert calls and len(calls) == len(set(calls))


class TestViolationFiles:
    def _fake_report(self):
        record_source = run_search(
            SearchConfig(Theorem.T1_8, a_values=(4,), p_values=(0.5,), samples=1)
        )
        from bipancyclic import ViolationRecord

        record = ViolationRecord(
            target=Theorem.T1_8,
            a=4,
            p=0.5,
            sample_index=3,
            claim="claim 1.8: synthetic record for format checks",
            serialization=serialize(d8()),
            config_seed=0,
        )
        return record_source, record

    def test_repro_command(self):
        _, record = self._fake_report()
        assert record.repro_command() == (
            "bipancyclic search --target 1.8 --a 4 --p 0.5 --samples 4 --seed 0"
        )
        assert record.sample_seed == sample_seed(0, 4, 0.5, 3)

    def test_write_violations(self, tmp_path):
        report, record = self._fake_report()
        report = dataclasses.replace(report, violations=(record,))
        paths = write_violations(report, tmp_path)
        assert [p.name for p in paths] == ["violation-1_8-a4-p0.5-i3.txt"]
        text = paths[0].read_text()
        lines = text.splitlines()
        assert lines[0] == "# claim 1.8: synthetic record for format checks"
        assert lines[1] == "# repro: " + record.repro_command()
        assert parse(text) == d8()


class TestSweep:
    def test_exhaustive_slice(self):
        # claim 1.10 on d8 with every subset of two of its arcs removed
        free = [("y2", "x2"), ("y3", "x3")]
        base = [a for a in D8_ARC_LIST if a not in free]
        subsets = [[], free[:1], free[1:], free]
        outcomes = [
            verify_theorem(BipartiteDigraph(4, base + s), Theorem.T1_10).outcome
            for s in subsets
        ]
        # only the full d8 arc set is strongly connected
        assert outcomes.count("conclusion") == 1
        assert outcomes.count("hypotheses-not-met") == 3
