#!/usr/bin/env python3
"""Benchmark for the bipancyclic package.

    python3 bench/run.py --workload search-sparse --seed 1 --seconds 40 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The package is imported from ../src, never from an installed
copy, and every input is generated from --seed.

Workloads (one client, workers=1, closed loop: the next request starts when
the previous one returns):

* search-sparse -- run_search for claim 1.9 on a in {4,5,6}, p in
  {.3,.5,.7}: sample production dominates.
* search-lemma -- run_search for lemma 3.3 on the same grid: the cycle
  engine's presence searches dominate.
* cli-corpus -- bipancyclic.cli.main on a seeded corpus of certify, cycles
  and iso-d8 requests: cheap verdicts set the median, absence proofs the
  total.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
measures untraced for half of --seconds, then repeats the same requests, for
a quarter of --seconds, with a span around every call into the package, and
reports per-layer self-time shares, counts and the per-cell search funnel.  --workload all runs every
workload in its own process.

Set-up (import plus input generation) is repeated SETUP_REPEATS times and
its median reported.  Times are CPU time converted to reference-host speed
(see hostspeed), because the shared host preempts and re-clocks the process.
Every answer is checked (see cliload and searchload); the last stdout line
is one JSON object, and the exit code is 1 if any check failed, 2 if the
package source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
TRACED_SHARE = 0.25  # of --seconds spent replaying traced requests, after half untraced
SPAN_DUMP_REQUESTS = 10  # spans of the first requests written out; all are aggregated
WORKLOADS = ("search-sparse", "search-lemma", "cli-corpus")
MODULES = ("cli", "conditions", "cycles", "digraph", "errors", "families", "verify")
LAYERS = ("bench", "cli", "verify", "conditions", "cycles", "digraph")

# Self-time shares reported per span name in the traced run.
SHARE_SPANS = (
    "verify.sample_seed",
    "digraph.rng_init",
    "digraph.random_bipartite",
    "digraph.is_strong",
    "conditions.bk_holds",
    "cycles.find_hit",
    "cycles.find_miss",
    "cycles.cycles_through_vertex",
    "digraph.restricted_degree",
    "digraph.parse",
    "cli.render_verdict",
    "verify.verify_theorem",
    "conditions.check_theorem_hypotheses",
    "verify.iso_to_D8",
)
SAMPLER_SPANS = ("verify.sample_seed", "digraph.rng_init", "digraph.random_bipartite")

sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from cliload import Checker, build_corpus, call, closed_loop, traced  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from searchload import FUNNEL_STAGES, GRID_A, GRID_P, SEARCH_WORKLOADS, SearchLoad  # noqa: E402
from spans import NullRecorder, Recorder, aggregate, layer_of  # noqa: E402


def import_package() -> SimpleNamespace:
    """Import a fresh copy of the package from SRC (dropping any earlier one)."""
    for name in [m for m in sys.modules if m == "bipancyclic" or m.startswith("bipancyclic.")]:
        del sys.modules[name]
    top = importlib.import_module("bipancyclic")
    if not Path(top.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bipancyclic imported from {top.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"bipancyclic.{m}") for m in MODULES}
    return SimpleNamespace(top=top, **mods)


# -- set-up ------------------------------------------------------------------------


def setup_once(workload: str, seed: int, rec: Recorder | None = None):
    """Import the package and generate the workload's inputs; returns the state
    the measured loop needs."""
    root = None if rec is None else rec.begin(rec.name_id("bench.setup"))
    bp = import_package()
    if workload == "cli-corpus":
        state = build_corpus(bp, seed, OUT / f"corpus-{seed}", rec)
    else:
        state = SearchLoad(bp, SEARCH_WORKLOADS[workload], seed)
        state.config(0).validate()
    if rec is not None:
        rec.finish(root)
    return bp, state


def timed_setups(workload: str, seed: int, rec: Recorder | None):
    """SETUP_REPEATS set-ups, each after a host-speed probe; the last one
    (traced when rec is given) is kept.  Returns (bp, state, CPU seconds at
    reference speed, wall seconds)."""
    probe = SpeedProbe()
    cpus, walls, starts = [], [], []
    for k in range(SETUP_REPEATS):
        probe.probe()
        starts.append(time.perf_counter())
        c0 = time.process_time()
        bp, state = setup_once(workload, seed, rec if k == SETUP_REPEATS - 1 else None)
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - starts[-1])
    scaled = [c * f for c, f in zip(cpus, probe.factors(starts))]
    return bp, state, scaled, walls


# -- measurement -------------------------------------------------------------------


class Result:
    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.table: dict[str, dict[str, float]] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)


def end_to_end(res, cpu_times, starts, elapsed, probe, setups, work: int, satisfying: int) -> None:
    """The end-to-end metrics: CPU times converted to reference-host speed
    (see hostspeed).  Raw wall-clock rates and set-up time go to the notes."""
    setup, setup_wall = setups
    scaled = [t * f for t, f in zip(cpu_times, probe.factors(starts))]
    busy = sum(scaled)
    n = len(scaled)
    q = stats.tail_percentile(n)
    res.metric("samples_per_s", work / busy, "1/s")
    res.metric("satisfying_per_s", satisfying / busy, "1/s")
    res.metric("request_p50_ms", stats.percentile(scaled, 50.0) * 1e3, "ms")
    res.metric("request_tail_ms", stats.percentile(scaled, q) * 1e3, "ms")
    res.metric("requests_per_s", n / busy, "1/s")
    res.metric("setup_s", statistics.median(setup), "s")
    res.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    res.notes.append(f"request_tail_ms is p{q:g} of {n} requests ({stats.beyond(n, q)} beyond it)")
    res.notes.append(
        f"host ran at {probe.speed():.3f}x reference speed; "
        f"CPU/wall {sum(cpu_times) / elapsed:.3f}; raw wall figures: "
        f"samples_per_s {work / elapsed:.4f}, requests_per_s {n / elapsed:.4f}, "
        f"setup_s {statistics.median(setup_wall):.6f}"
    )


def run_search_workload(res: Result, seconds: float) -> None:
    rec = Recorder() if res.trace else None
    bp, load, *setups = timed_setups(res.workload, res.seed, rec)
    loop_seconds = seconds / 2 if res.trace else seconds
    probe = SpeedProbe()
    latencies, starts, outcomes, elapsed = load.closed_loop(loop_seconds, probe)
    if not res.trace:
        work = sum(o.samples_run for o in outcomes)
        satisfying = sum(o.satisfying for o in outcomes)
        end_to_end(res, latencies, starts, elapsed, probe, setups, work, satisfying)
    res.attempted += len(outcomes)
    for i, out in enumerate(outcomes):
        if not load.is_correct(out):
            res.fail(f"request {i}: {out}")

    # Off the clock, the first funnel_requests requests are replayed through
    # public functions and must match run_search cell for cell.  A traced run
    # keeps replaying timed requests into the recorder until its deadline.
    first = len(rec) if rec else 0
    funnel: dict = {}
    replayed = 0  # requests replayed into rec; always a prefix of the timed ones
    deadline = time.perf_counter() + seconds * TRACED_SHARE
    i = 0
    while i < load.w.funnel_requests or (
        res.trace and i < len(outcomes) and time.perf_counter() < deadline
    ):
        timed = res.trace and i < len(outcomes)
        out = load.replay(rec if timed else NullRecorder(), i, funnel if i < load.w.funnel_requests else None)
        want = outcomes[i] if i < len(outcomes) else load.run_one(i)
        replayed += timed
        res.attempted += 1
        if out.cells != want.cells or out.violations != want.violations:
            res.fail(f"replay of request {i} gives {out}, run_search gave {want}")
        i += 1
    if res.trace:
        traced_wall = trace_metrics(res, rec, first, replayed)
        res.metric("trace_overhead_frac", traced_wall / sum(latencies[:replayed]) - 1.0, "frac")
        funnel_metrics(res, funnel)
        write_trace(res, rec)


def funnel_metrics(res: Result, funnel: dict) -> None:
    """Per-cell and total funnel counts; all zero for a workload without search."""
    for stage_i, stage in enumerate(FUNNEL_STAGES):
        total = 0
        for a in GRID_A:
            for p in GRID_P:
                count = funnel.get((a, p), [0] * len(FUNNEL_STAGES))[stage_i]
                res.metric(f"verify.funnel.a{a}_p{p}.{stage}", count, "count")
                total += count
        res.metric(f"verify.funnel.{stage}", total, "count")


def run_cli_workload(res: Result, seconds: float) -> None:
    rec = Recorder() if res.trace else None
    bp, corpus, *setups = timed_setups(res.workload, res.seed, rec)
    loop_seconds = seconds / 2 if res.trace else seconds
    probe = SpeedProbe()
    latencies, starts, responses, elapsed = closed_loop(bp.cli.main, corpus.requests, loop_seconds, probe)
    checker = Checker(bp, corpus)
    requests = corpus.requests
    satisfied = 0
    for i, response in enumerate(responses):
        req = requests[i % len(requests)]
        if not checker.check(req, response):
            res.fail(f"request {i} failed its check")
        elif req.expect[0] == "certify" and req.expect[1] == "conclusion":
            satisfied += 1
    res.attempted += len(responses)
    if res.trace:
        first = len(rec)
        main_id = rec.name_id("cli.main")
        deadline = time.perf_counter() + seconds * TRACED_SHARE
        replayed = 0  # a prefix of the untraced requests, replayed in order
        with traced(bp, rec):
            while replayed < len(responses) and time.perf_counter() < deadline:
                rec.current_request = replayed
                req = requests[replayed % len(requests)]
                span = rec.begin(main_id)
                response = call(bp.cli.main, req.argv)
                rec.finish(span)
                res.attempted += 1
                if not checker.check(req, response):
                    res.fail(f"traced request {replayed} failed its check")
                replayed += 1
        traced_wall = trace_metrics(res, rec, first, replayed)
        res.metric("trace_overhead_frac", traced_wall / sum(latencies[:replayed]) - 1.0, "frac")
        funnel_metrics(res, {})
        write_trace(res, rec)
    else:
        end_to_end(res, latencies, starts, elapsed, probe, setups, len(responses), satisfied)
    compared = checker.cross_check_naive(importlib.import_module("bipancyclic.naive"))
    if compared < 0:
        res.fail("naive oracle disagrees")
    res.errors.extend(checker.errors)
    res.notes.append(f"naive oracle cross-checked {compared} requests on inputs of order <= 10")
    for inp in corpus.inputs.values():
        inp.path.unlink(missing_ok=True)
    (OUT / f"corpus-{res.seed}").rmdir()


def trace_metrics(res: Result, rec: Recorder, first: int, requests: int) -> float:
    """Per-layer metrics from the request spans at index >= first; returns the
    traced wall time (the sum of the request spans)."""
    table = aggregate(rec, first)
    res.table = table
    wall = sum(row["self_s"] for row in table.values())

    def share(names) -> float:
        return sum(table[n]["self_s"] for n in names if n in table) / wall

    for name in SHARE_SPANS:
        res.metric(f"{name}_share", share([name]), "frac")
    res.metric("cli.overhead_share", share(["cli.main"]), "frac")
    res.metric("bench.overhead_share", share(["bench.request"]), "frac")
    res.metric("sampler_share", share(SAMPLER_SPANS), "frac")
    for layer in LAYERS:
        res.metric(f"layer.{layer}_share", share([n for n in table if layer_of(n) == layer]), "frac")
    hits = table.get("cycles.find_hit", {}).get("calls", 0)
    misses = table.get("cycles.find_miss", {}).get("calls", 0)
    res.metric("cycles.find_calls", hits + misses, "count")
    res.metric("cycles.find_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "frac")
    setup_total = table_total(rec, first, "bench.setup")
    generate = table_total(rec, first, "families.generate")
    res.metric("families.generate_share", generate / setup_total if setup_total else 0.0, "frac")
    res.notes.append(f"traced {requests} requests, {len(rec) - first} spans, {wall:.3f}s traced wall")
    return wall


def table_total(rec: Recorder, stop: int, name: str) -> float:
    """Inclusive seconds of the spans called ``name`` among the first ``stop``."""
    nid = rec.name_id(name)
    return sum(rec.end[i] - rec.start[i] for i in range(stop) if rec.name[i] == nid)


def write_trace(res: Result, rec: Recorder) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    rec.write_tsv(OUT / f"spans-{res.workload}.tsv", SPAN_DUMP_REQUESTS)


# -- output ------------------------------------------------------------------------


def report(res: Result) -> dict:
    lines = [f"workload {res.workload}  seed {res.seed}  trace {res.trace}"]
    if res.table:
        lines.append(f"{'span':40s} {'calls':>9s} {'self us/call':>13s} {'total ms':>11s} {'self ms':>11s}")
        for name, row in sorted(res.table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"{name:40s} {row['calls']:9d} {row['self_s'] / row['calls'] * 1e6:13.2f}"
                f" {row['total_s'] * 1e3:11.2f} {row['self_s'] * 1e3:11.2f}"
            )
    for name, (value, unit) in res.metrics.items():
        lines.append(f"{name:48s} {value:16.6f} {unit}")
    lines.append(f"{'failed_frac':48s} {res.failed / max(res.attempted, 1):16.6f} frac")
    lines.extend(f"note: {n}" for n in res.notes)
    lines.extend(f"FAILED: {e}" for e in res.errors)
    print("\n".join(lines))
    payload = {
        "correct": res.failed == 0 and not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{res.workload}-trace{res.trace}.json").write_text(
        json.dumps({**payload, "seed": res.seed, "notes": res.notes, "errors": res.errors}, indent=1)
    )
    return payload


def run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bipancyclic" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    res = Result(args.workload, args.seed, args.trace)
    if args.workload == "cli-corpus":
        run_cli_workload(res, args.seconds)
    else:
        run_search_workload(res, args.seconds)
    payload = report(res)
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
