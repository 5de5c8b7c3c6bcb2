"""Theorem verdicts, the 8-vertex-exception recognizer, and the search harness."""

import dataclasses
import json
import random
import tracemalloc
from concurrent.futures import Future

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
    check_cycle,
    check_theorem_hypotheses,
    complete_bipartite,
    cycles_through_vertex,
    d8,
    directed_cycle,
    find_cycle_of_length,
    hypotheses_hold,
    iso_to_D8,
    parse,
    run_search,
    sample_digraph,
    sample_seed,
    serialize,
    verify_theorem,
    write_violations,
)
from bipancyclic.errors import BadConfig, BadParams, WitnessNotFound
from bipancyclic.naive import naive_isomorphism
from bipancyclic import cli, conditions, cycles, verify
from bipancyclic.verify import MAX_SAMPLES, _certificate

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

    def test_3_4_reuses_the_bypassed_cycle(self):
        v = verify_theorem(complete_bipartite(4), Theorem.L3_4)
        assert v.conclusion.kind == "two-below-full-cycle"
        assert v.conclusion.cycle is v.hypotheses._premise

    def test_3_3_has_no_verdict(self):
        with pytest.raises(BadParams, match="search --target 3.3"):
            verify_theorem(d8(), Theorem.L3_3)

    def test_certificate_violation_path(self):
        out = _certificate(directed_cycle(4), 8)
        assert out.kind == "violation"
        assert out.claim == "no cycle of length 2 (even lengths 2..8 claimed)"

    def test_lemma_violation_paths(self):
        # violation texts, which search reports after "claim <id>: "
        out = verify._CONCLUSIONS[Theorem.L3_2](directed_cycle(4), None)
        assert out.claim == "no non-Hamiltonian cycle of length >= 4"
        four = find_cycle_of_length(complete_bipartite(4), 4)
        out = verify._CONCLUSIONS[Theorem.L3_4](complete_bipartite(4), four)
        assert out.claim == (
            "gap-1 bypass on a longest non-Hamiltonian cycle of length 4, expected 6"
        )

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
    for u, v in D.arcs():
        if not target.has_arc(image[u], image[v]):
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

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    return InlinePool


class TestSampling:
    def test_sample_seed_is_stable(self):
        assert sample_seed(0, 4, 0.5, 0) == sample_seed(0, 4, 0.5, 0)
        assert sample_seed(0, 4, 0.5, 0) != sample_seed(0, 4, 0.5, 1)
        assert sample_seed(0, 4, 0.5, 0) != sample_seed(1, 4, 0.5, 0)

    def test_sample_digraph_reproducible(self):
        D1 = sample_digraph(5, 4, 0.5, 17)
        D2 = sample_digraph(5, 4, 0.5, 17)
        assert D1 == D2 and D1.a == 4


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
        ):
            with pytest.raises(BadConfig):
                run_search(cfg)
        with pytest.raises(BadConfig):
            run_search(SearchConfig(Theorem.T1_8), workers=0)
        with pytest.raises(BadConfig):  # before any worker starts
            run_search(SearchConfig(target="1.8", samples=1), workers=2)

    def test_sample_cap_is_accepted(self):
        SearchConfig(Theorem.T1_8, samples=MAX_SAMPLES).validate()

    @pytest.mark.parametrize("theorem", CERTIFIABLE)
    def test_prefilter_matches_hypotheses(self, theorem):
        # the search's per-cell counts are exactly what certify concludes
        config = SearchConfig(theorem, a_values=(4, 5), p_values=(0.7, 0.9), samples=60, seed=1)
        report = run_search(config)
        for cell in report.cells:
            verdicts = [
                verify_theorem(sample_digraph(config.seed, cell.a, cell.p, i), theorem)
                for i in range(config.samples)
            ]
            assert cell.satisfying == sum(v.outcome != "hypotheses-not-met" for v in verdicts)
            assert cell.violations == sum(v.outcome == "violation" for v in verdicts) == 0
        assert report.hypothesis_satisfying > 0

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_hypotheses_hold_matches_report(self, theorem):
        digraphs = [
            sample_digraph(2, a, p, i)
            for a in (3, 4, 5)
            for p in (0.7, 0.9)
            for i in range(100)
        ]
        digraphs.append(Digraph(3, [("v0", "v1"), ("v1", "v2"), ("v2", "v0")]))
        satisfied = 0
        for D in digraphs:
            report = check_theorem_hypotheses(D, theorem)
            assert hypotheses_hold(D, theorem) == report.satisfied
            satisfied += report.satisfied
        assert 0 < satisfied < len(digraphs)

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

    def test_violation_path(self, monkeypatch, capsys, tmp_path):
        # No shipped claim ever fails, so a stand-in evaluator flags every
        # sample with an even arc count to drive the violation path.
        def fake(D):
            return 1, (["claim 1.8: even arc count"] if D.arc_count % 2 == 0 else [])

        monkeypatch.setitem(verify._EVALUATORS, Theorem.T1_8, fake)
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
        # the premise's (2a - 2)-cycle is the certificate's top witness, found once
        calls = {"conditions": 0, "verify": 0}
        for module in (conditions, verify):
            def counted(D, m, find=module.find_cycle_of_length, key=module.__name__):
                calls[key.rsplit(".", 1)[1]] += 1
                return find(D, m)

            monkeypatch.setattr(module, "find_cycle_of_length", counted)
        report = run_search(SearchConfig(Theorem.T1_9, samples=200, seed=1))
        assert report.hypothesis_satisfying == 69
        assert calls == {"conditions": 69, "verify": 146}
        calls.update(conditions=0, verify=0)
        verdict = verify_theorem(complete_bipartite(4), Theorem.T1_9)
        assert verdict.conclusion.lengths() == (2, 4, 6)
        assert calls == {"conditions": 1, "verify": 2}

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
                claims.append(f"claim 3.3: {exc}")
    return satisfying, claims


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

        def recording(D, vertices):
            checked.append(tuple(vertices))
            return check_cycle(D, vertices)

        monkeypatch.setattr(verify, "check_cycle", recording)
        for D in self.SAMPLES:
            checked.clear()
            verify._eval_l3_3(D)
            used = []
            for b in range(1, D.a):
                C = find_cycle_of_length(D, 2 * b)
                if C is not None and any(
                    x not in C and D.restricted_degree(x, C.vertices) > b
                    for x in D.vertices()
                ):
                    used.append(C.vertices)
            assert checked == used

    def test_missing_rung_claim_text(self, monkeypatch):
        # A ladder core missing every rung from 4 up: the evaluator reports
        # each ladder's first gap with the text the public path builds from
        # WitnessNotFound.
        ladder = cycles._ladder

        def broken(out, inn, x, allowed):
            for m, hit in ladder(out, inn, x, allowed):
                yield m, None if m >= 4 else hit

        monkeypatch.setattr(cycles, "_ladder", broken)
        monkeypatch.setattr(verify, "_ladder", broken)
        D = complete_bipartite(4)
        got = verify._eval_l3_3(D)
        assert got == _eval_l3_3_public(D)
        # units: the 2-cycle with 6 off-cycle vertices, the 4- and 6-cycles
        # with 4 and 2; the 6 ladders that reach length 4 each give one claim
        assert got[0] == 12 and len(got[1]) == 6
        assert got[1][0] == "claim 3.3: no cycle of length 4 through x2 within the cycle vertices"


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
