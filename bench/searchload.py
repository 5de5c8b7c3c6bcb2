"""The two search workloads: a closed loop of run_search calls, and a traced
replay of the same requests through the package's public functions.

One request is one run_search call over the acceptance grid with a small
per-cell sample count and a config seed derived from the workload seed and
the request index.  The replay re-implements the search evaluator from
public calls only (sample_seed, random_bipartite, is_strong, bk_holds,
find_cycle_of_length, restricted_degree, cycles_through_vertex), records a
span around each, and must reproduce run_search's per-cell satisfying and
violation counts exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

GRID_A = (4, 5, 6)
GRID_P = (0.3, 0.5, 0.7)
FUNNEL_STAGES = ("drawn", "strong", "bk_pass", "premise_pass", "satisfying", "violations")


@dataclass(frozen=True)
class SearchWorkload:
    name: str
    target: str  # SearchTarget value
    samples_per_cell: int  # per request
    funnel_requests: int  # the funnel counts cover exactly this many requests


# Request sizes put about 450 requests in a 40 s run, so the tail is p95 and
# stays p95 through a 2x slow-down or speed-up (stats.tail_percentile).
SEARCH_WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload("search-sparse", "1.9", samples_per_cell=200, funnel_requests=5),
        SearchWorkload("search-lemma", "3.3", samples_per_cell=12, funnel_requests=10),
    )
}


def request_seed(seed: int, index: int) -> int:
    """Config seed of the index-th request of a run with workload seed ``seed``."""
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class Outcome:
    """What one run_search call (or its replay) reported."""

    samples_run: int
    violations: int
    cells: tuple[tuple[int, int, int], ...]  # (samples, satisfying, violations) per cell

    @property
    def satisfying(self) -> int:
        return sum(c[1] for c in self.cells)


class SearchLoad:
    """One search workload bound to one imported package generation."""

    def __init__(self, bp, workload: SearchWorkload, seed: int):
        self.bp = bp
        self.w = workload
        self.seed = seed
        self.target = bp.top.SearchTarget(workload.target)

    def config(self, index: int):
        return self.bp.top.SearchConfig(
            target=self.target,
            a_values=GRID_A,
            p_values=GRID_P,
            samples=self.w.samples_per_cell,
            seed=request_seed(self.seed, index),
        )

    def run_one(self, index: int) -> Outcome:
        report = self.bp.top.run_search(self.config(index), workers=1)
        return Outcome(
            report.samples_run,
            len(report.violations),
            tuple((c.samples, c.satisfying, c.violations) for c in report.cells),
        )

    def expected_samples(self) -> int:
        return len(GRID_A) * len(GRID_P) * self.w.samples_per_cell

    def is_correct(self, out: Outcome) -> bool:
        """A report is right when every sample ran and nothing was violated."""
        s = self.w.samples_per_cell
        return (
            out.samples_run == self.expected_samples()
            and out.violations == 0
            and all(c[0] == s and c[2] == 0 for c in out.cells)
        )

    def closed_loop(self, seconds: float, probe, clock=time.perf_counter, cpu=time.process_time):
        """Back-to-back requests until ``seconds`` of wall time have passed,
        with a host-speed probe between requests when one is due.

        Returns (CPU time per request, wall-clock start per request, outcomes,
        wall seconds); the request that crosses the deadline is completed and
        counted.
        """
        times: list[float] = []
        starts: list[float] = []
        outcomes: list[Outcome] = []
        began = clock()
        index = 0
        while True:
            starts.append(clock())
            c0 = cpu()
            out = self.run_one(index)
            times.append(cpu() - c0)
            outcomes.append(out)
            index += 1
            now = clock()
            probe.maybe_probe(now)
            if now - began >= seconds:
                return times, starts, outcomes, now - began

    # -- traced replay ---------------------------------------------------------

    def replay(self, rec, index: int, funnel: dict | None) -> Outcome:
        """Re-run request ``index`` through public functions, one span per call.

        ``funnel`` maps (a, p) to a list of FUNNEL_STAGES counters that this
        call adds to; pass None to skip counting.
        """
        bp = self.bp
        sample_seed = bp.top.sample_seed
        random_bipartite = bp.top.random_bipartite
        cfg_seed = request_seed(self.seed, index)
        ids = _SpanIds(rec)
        evaluate = self._eval_t1_9 if self.w.target == "1.9" else self._eval_l3_3
        cells = []
        total_violations = 0
        rec.current_request = index
        root = rec.begin(ids.request)
        for a in GRID_A:
            for p in GRID_P:
                counts = [0] * len(FUNNEL_STAGES)
                for k in range(self.w.samples_per_cell):
                    i = rec.begin(ids.sample_seed)
                    s = sample_seed(cfg_seed, a, p, k)
                    rec.finish(i)
                    # random_bipartite seeds its own generator; this probe
                    # times that initialisation on its own.
                    i = rec.begin(ids.rng_init)
                    random.Random(s)
                    rec.finish(i)
                    i = rec.begin(ids.random_bipartite)
                    D = random_bipartite(a, p, s)
                    rec.finish(i)
                    counts[0] += 1
                    evaluate(rec, ids, D, counts)
                cells.append((counts[0], counts[4], counts[5]))
                total_violations += counts[5]
                if funnel is not None:
                    acc = funnel.setdefault((a, p), [0] * len(FUNNEL_STAGES))
                    for j, c in enumerate(counts):
                        acc[j] += c
        rec.finish(root)
        return Outcome(sum(c[0] for c in cells), total_violations, tuple(cells))

    def _find(self, rec, ids, D, m):
        i = rec.begin(ids.find)
        C = self.bp.top.find_cycle_of_length(D, m)
        rec.finish(i, ids.find_miss if C is None else ids.find_hit)
        return C

    def _eval_t1_9(self, rec, ids, D, counts) -> None:
        """Claim 1.9 evaluator: strong, B_0, a (2a-2)-cycle, then every even length."""
        if D.a < 4:
            return
        i = rec.begin(ids.is_strong)
        ok = D.is_strong()
        rec.finish(i)
        if not ok:
            return
        counts[1] += 1
        i = rec.begin(ids.bk_holds)
        ok = self.bp.conditions.bk_holds(D, 0)
        rec.finish(i)
        if not ok:
            return
        counts[2] += 1
        if self._find(rec, ids, D, 2 * D.a - 2) is None:
            return
        counts[3] += 1
        counts[4] += 1
        for m in range(2, 2 * D.a - 1, 2):
            if self._find(rec, ids, D, m) is None:
                counts[5] += 1

    def _eval_l3_3(self, rec, ids, D, counts) -> None:
        """Lemma 3.3 evaluator: for every cycle length 2b < 2a and every vertex
        off that cycle with >= b + 1 arcs to it, the ladder must exist.

        The lemma filters on neither strong connectivity nor B_k, so those
        funnel stages pass every sample.  premise_pass counts samples with at
        least one such cycle; satisfying counts (cycle, vertex) units, as
        run_search does.
        """
        counts[1] += 1
        counts[2] += 1
        not_found = self.bp.errors.WitnessNotFound
        through = self.bp.top.cycles_through_vertex
        any_cycle = False
        for b in range(1, D.a):
            C = self._find(rec, ids, D, 2 * b)
            if C is None:
                continue
            any_cycle = True
            for x in D.vertices():
                if x in C.vertices:
                    continue
                i = rec.begin(ids.restricted_degree)
                d = D.restricted_degree(x, C.vertices)
                rec.finish(i)
                if d < b + 1:
                    continue
                counts[4] += 1
                i = rec.begin(ids.cycles_through_vertex)
                try:
                    through(D, C, x)
                except not_found:
                    counts[5] += 1
                finally:
                    rec.finish(i)
        if any_cycle:
            counts[3] += 1


class _SpanIds:
    """Span-name ids used by the replay, interned once per recorder."""

    def __init__(self, rec):
        self.request = rec.name_id("bench.request")
        self.sample_seed = rec.name_id("verify.sample_seed")
        self.rng_init = rec.name_id("digraph.rng_init")
        self.random_bipartite = rec.name_id("digraph.random_bipartite")
        self.is_strong = rec.name_id("digraph.is_strong")
        self.bk_holds = rec.name_id("conditions.bk_holds")
        self.find = rec.name_id("cycles.find_cycle_of_length")
        self.find_hit = rec.name_id("cycles.find_hit")
        self.find_miss = rec.name_id("cycles.find_miss")
        self.restricted_degree = rec.name_id("digraph.restricted_degree")
        self.cycles_through_vertex = rec.name_id("cycles.cycles_through_vertex")
