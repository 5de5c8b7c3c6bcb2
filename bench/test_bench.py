"""Self-tests for the benchmark's helpers.

    python3 -m pytest -q bench/test_bench.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (puts the package source on sys.path)

sys.path.insert(0, str(run.SRC))

import stats  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402
from cliload import Checker, build_corpus, call, hall_deficient  # noqa: E402
from searchload import FUNNEL_STAGES, GRID_A, GRID_P, SearchLoad, SearchWorkload  # noqa: E402
from spans import NO_PARENT, Recorder, aggregate, self_times  # noqa: E402


@pytest.fixture(scope="module")
def bp():
    return run.import_package()


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    if n >= 100:
        assert stats.beyond(n, q) >= stats.TAIL_MIN_BEYOND
    higher = [p for p in stats.PERCENTILE_LADDER if p > q]
    assert all(stats.beyond(n, p) < stats.TAIL_MIN_BEYOND for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([7.0], 99) == 7.0


# -- host-speed conversion -----------------------------------------------------------


def test_probe_factors_follow_a_speed_change_and_ignore_one_outlier():
    took = [0.001] * 20 + [0.002] * 20
    took[5] = 0.05  # one probe caught by a hiccup
    ticks = []
    for k, d in enumerate(took):  # probe k starts at second k
        ticks += [float(k), 0.0, d, k + d]
    clock = iter(ticks)
    probe = SpeedProbe(clock=lambda: next(clock), cpu=lambda: next(clock), task=lambda: None)
    for _ in took:  # each probe reads: wall start, CPU before, CPU after, wall end
        probe.probe()
    early, at_outlier, late = probe.factors([2.2, 5.4, 35.6])
    assert early == pytest.approx(REFERENCE_PROBE_S / 0.001)
    assert at_outlier == pytest.approx(REFERENCE_PROBE_S / 0.001)
    assert late == pytest.approx(REFERENCE_PROBE_S / 0.002)
    assert probe.due == pytest.approx(39.002 + 0.1)


# -- span arithmetic ---------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    durations = [10.0, 5.0, 1.0, 2.0]
    parents = [NO_PARENT, 0, 1, 0]
    assert self_times(durations, parents) == [3.0, 4.0, 1.0, 2.0]


def test_recorder_nesting_and_aggregate_with_a_fake_clock():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 6.0, 7.0, 9.0, 10.0, 20.0, 21.0])
    rec = Recorder(clock=lambda: next(ticks))
    setup = rec.begin(rec.name_id("bench.setup"))
    rec.finish(setup)  # [0, 1]
    first = len(rec)
    root = rec.begin(rec.name_id("cli.main"))  # 2
    a = rec.begin(rec.name_id("digraph.parse"))  # 3
    leaf = rec.wrap(lambda: None, "cycles.find_hit")
    leaf()  # [6, 7]
    rec.finish(a)  # 9
    rec.finish(root, None)  # 10
    rec.current_request = 1
    other = rec.begin(rec.name_id("cli.main"))  # 20
    rec.finish(other)  # 21
    table = aggregate(rec, first)
    assert table["cli.main"] == {"calls": 2, "total_s": 9.0, "self_s": 3.0}
    assert table["digraph.parse"] == {"calls": 1, "total_s": 6.0, "self_s": 5.0}
    assert table["cycles.find_hit"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert "bench.setup" not in table
    assert sum(r["self_s"] for r in table.values()) == 9.0  # the two roots' durations


def test_finish_out_of_order_is_an_error():
    rec = Recorder()
    outer = rec.begin(rec.name_id("a"))
    rec.begin(rec.name_id("b"))
    with pytest.raises(RuntimeError):
        rec.finish(outer)


# -- search replay -------------------------------------------------------------------


@pytest.mark.parametrize("target", ["1.9", "3.3"])
def test_replay_matches_run_search_on_a_tiny_config(bp, target):
    tiny = SearchWorkload("tiny", target, samples_per_cell=6, funnel_requests=2)
    load = SearchLoad(bp, tiny, seed=11)
    funnel = {}
    for index in range(2):
        want = load.run_one(index)
        got = load.replay(Recorder(), index, funnel)
        assert got == want
        assert load.is_correct(want)
    assert set(funnel) == {(a, p) for a in GRID_A for p in GRID_P}
    drawn, strong, bk_pass = (FUNNEL_STAGES.index(s) for s in ("drawn", "strong", "bk_pass"))
    for counts in funnel.values():
        assert counts[drawn] == 12
        assert counts[drawn] >= counts[strong] >= counts[bk_pass]
    satisfying = sum(c[FUNNEL_STAGES.index("satisfying")] for c in funnel.values())
    assert satisfying == sum(load.run_one(i).satisfying for i in range(2))


def test_replay_spans_cover_the_request(bp):
    tiny = SearchWorkload("tiny", "1.9", samples_per_cell=2, funnel_requests=1)
    rec = Recorder()
    SearchLoad(bp, tiny, seed=3).replay(rec, 0, None)
    table = aggregate(rec)
    assert table["bench.request"]["calls"] == 1
    assert table["verify.sample_seed"]["calls"] == 2 * len(GRID_A) * len(GRID_P)
    wall = table["bench.request"]["total_s"]
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(wall)


# -- cli corpus and its checker ------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(bp, tmp_path_factory):
    return build_corpus(bp, 5, tmp_path_factory.mktemp("corpus"))


def test_corpus_is_a_function_of_the_seed(bp, corpus, tmp_path):
    again = build_corpus(bp, 5, tmp_path)
    assert [r.argv[:-1] for r in again.requests] == [r.argv[:-1] for r in corpus.requests]
    assert {k: v.text for k, v in again.inputs.items()} == {k: v.text for k, v in corpus.inputs.items()}


def test_every_cheap_request_passes_its_check(bp, corpus):
    checker = Checker(bp, corpus)
    for req in corpus.requests:
        if corpus.inputs[req.input].n <= 10:
            assert checker.check(req, call(bp.cli.main, req.argv)), checker.errors
    assert checker.cross_check_naive(run.importlib.import_module("bipancyclic.naive")) > 0


def test_checker_rejects_wrong_answers(bp, corpus):
    checker = Checker(bp, corpus)
    by_kind = {}
    for req in corpus.requests:
        if corpus.inputs[req.input].n <= 10:
            by_kind.setdefault(req.expect, req)
    absent = next(r for e, r in by_kind.items() if e[0] == "length" and e[2] is False)
    present = next(r for e, r in by_kind.items() if e[0] == "length" and e[2] is True)
    spectrum = next(r for e, r in by_kind.items() if e[0] == "spectrum" and e[1][:2] == (2, 4))
    iso = next(r for e, r in by_kind.items() if e[0] == "iso")
    m = absent.expect[1]
    assert not checker.check(absent, (0, f"length: {m}\ncycle: x0 y0\n", ""))
    m = present.expect[1]
    assert not checker.check(present, (0, f"length: {m}\ncycle: absent\n", ""))
    code, out, err = call(bp.cli.main, spectrum.argv)
    assert not checker.check(spectrum, (code, out.replace("lengths: 2 ", "lengths: "), err))
    code, out, err = call(bp.cli.main, iso.argv)
    a, b = out.split("->")[1].split()[0], out.split("->")[2].split()[0]
    swapped = out.replace(f"->{a} ", "->TMP ").replace(f"->{b} ", f"->{a} ").replace("->TMP ", f"->{b} ")
    assert not checker.check(iso, (code, swapped, err))
    assert len(checker.errors) == 4


@pytest.mark.parametrize("a", [4, 5])
def test_hall_deficient_spectrum_matches_the_naive_oracle(bp, a):
    naive = run.importlib.import_module("bipancyclic.naive")
    for rng in (None, random.Random(a)):
        D = bp.top.BipartiteDigraph(a, hall_deficient(a, rng))
        assert naive.naive_cycle_lengths(D) == tuple(range(2, 2 * a - 1, 2))
