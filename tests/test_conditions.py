"""Degree conditions: reports, fast path, monotonicity, hypothesis clauses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipancyclic import (
    BipartiteDigraph,
    Digraph,
    Theorem,
    check_bk,
    check_theorem_hypotheses,
    check_two_sided_condition,
    complete_bipartite,
    d8,
    directed_cycle,
    longest_non_hamiltonian_cycle,
    verify_theorem,
)
from bipancyclic.cli import render_verdict
from bipancyclic.conditions import (
    _CLAUSES,
    _STRONG,
    _TWO_SIDED,
    _bypassed_longest,
    _screen,
    _search_row,
    bk_holds,
)
from bipancyclic.cycles import _as_cycle
from bipancyclic.errors import BadParams
from bipancyclic.naive import naive_bypasses, naive_dominating_pairs

from test_digraph import bipartite_digraphs


def _degrees_from_arcs(D):
    """Total degree of every vertex, counted from the arc list."""
    degree = dict.fromkeys(D.vertices(), 0)
    for u, v in D.arcs():
        degree[u] += 1
        degree[v] += 1
    return degree


class TestCheckBk:
    def test_d8_satisfies_b1_not_b2(self):
        D = d8()
        r1 = check_bk(D, 1)
        assert r1.holds and r1.threshold == 7 and r1.pairs_checked == 10
        assert (str(r1.worst_pair.u), str(r1.worst_pair.v)) == ("x0", "x2")
        assert r1.worst_degree == 7
        r2 = check_bk(D, 2)
        assert not r2.holds and r2.threshold == 8

    def test_vacuous_on_directed_cycle(self):
        r = check_bk(directed_cycle(4), 1)
        assert r.holds and r.pairs_checked == 0 and r.worst_pair is None

    def test_complete_satisfies_everything_reachable(self):
        D = complete_bipartite(4)
        # every degree is 2a = 8, so margins up to 2 hold
        assert check_bk(D, 0).holds
        assert check_bk(D, 2).holds
        assert not check_bk(D, 3).holds

    def test_bad_params(self):
        with pytest.raises(BadParams):
            check_bk(d8(), -1)
        # a bool or non-int margin once gave "condition: B_True" or B_1.5
        for k in (True, False, 1.5, 1.0, "1"):
            with pytest.raises(BadParams, match=f"^condition margin must be an int, got {k!r}$"):
                check_bk(d8(), k)
        with pytest.raises(BadParams):
            check_bk(Digraph(2, [("v0", "v1")]), 1)

    def test_worst_pair_is_minimum(self):
        # x0/x1 both dominate y0; degrees differ so the max rules
        D = BipartiteDigraph(
            2, [("x0", "y0"), ("x1", "y0"), ("y0", "x0"), ("y1", "x0")]
        )
        r = check_bk(D, 0)
        assert (str(r.worst_pair.u), str(r.worst_pair.v)) == ("x0", "x1")
        assert r.worst_degree == max(D.degree("x0").total, D.degree("x1").total)

    @given(bipartite_digraphs(min_a=1, max_a=6), st.integers(0, 3))
    def test_fast_path_agrees_with_report(self, D, k):
        assert bk_holds(D, k) == check_bk(D, k).holds

    @given(bipartite_digraphs(min_a=1, max_a=4), st.integers(0, 2))
    def test_monotone_in_k(self, D, k):
        if check_bk(D, k + 1).holds:
            assert check_bk(D, k).holds

    @given(bipartite_digraphs(min_a=1, max_a=4))
    def test_report_against_direct_scan(self, D):
        threshold = 2 * D.a - 2
        violated = any(
            max(D.degree(u).total, D.degree(v).total) < threshold
            for u, v, _ in naive_dominating_pairs(D)
        )
        assert check_bk(D, 0).holds == (not violated)

    @given(bipartite_digraphs(min_a=1, max_a=5), st.integers(0, 3))
    def test_report_against_naive_oracle(self, D, k):
        # worst pair: least larger degree, then first in the oracle's order
        pairs = naive_dominating_pairs(D)
        degree = _degrees_from_arcs(D)
        worst = min(pairs, key=lambda p: max(degree[p[0]], degree[p[1]]), default=None)
        r = check_bk(D, k)
        assert r.pairs_checked == len(pairs)
        if worst is None:
            assert r.worst_pair is None and r.worst_degree is None and r.holds
        else:
            assert (r.worst_pair.u, r.worst_pair.v, r.worst_pair.witness) == worst
            assert r.worst_degree == max(degree[worst[0]], degree[worst[1]])
            assert r.holds == (r.worst_degree >= 2 * D.a - 2 + k)


class TestTwoSidedCondition:
    def test_complete_holds(self):
        holds, bad = check_two_sided_condition(complete_bipartite(4))
        assert holds and bad is None

    def test_d8_fails(self):
        holds, bad = check_two_sided_condition(d8())
        assert not holds
        assert (str(bad.u), str(bad.v)) == ("x0", "x2")

    def test_vacuous(self):
        holds, bad = check_two_sided_condition(directed_cycle(5))
        assert holds and bad is None

    def test_needs_bipartite(self):
        with pytest.raises(BadParams):
            check_two_sided_condition(Digraph(2, [("v0", "v1")]))

    @given(bipartite_digraphs(min_a=1, max_a=5))
    def test_first_failure_against_naive_oracle(self, D):
        a, degree = D.a, _degrees_from_arcs(D)
        failing = [
            (u, v, w)
            for u, v, w in naive_dominating_pairs(D)
            if not (degree[u] >= 2 * a - 1 and degree[v] >= a + 1)
            and not (degree[v] >= 2 * a - 1 and degree[u] >= a + 1)
        ]
        holds, bad = check_two_sided_condition(D)
        if not failing:
            assert holds and bad is None
        else:
            assert not holds and (bad.u, bad.v, bad.witness) == failing[0]


class TestHypotheses:
    def test_d8_per_claim(self):
        D = d8()
        assert check_theorem_hypotheses(D, Theorem.T1_7).satisfied
        assert check_theorem_hypotheses(D, Theorem.T1_8).satisfied
        assert check_theorem_hypotheses(D, Theorem.T1_9).satisfied
        assert check_theorem_hypotheses(D, Theorem.T1_10).satisfied
        rep = check_theorem_hypotheses(D, Theorem.T1_6)
        assert not rep.satisfied
        assert any("degree condition" in f for f in rep.failures)

    def test_directed_cycle_clauses(self):
        C8 = directed_cycle(4)
        assert check_theorem_hypotheses(C8, Theorem.T1_8).satisfied
        rep = check_theorem_hypotheses(C8, Theorem.T1_10)
        assert rep.failures == ("shape: the digraph is a directed cycle",)
        rep = check_theorem_hypotheses(C8, Theorem.T1_9)
        assert rep.failures == ("cycle premise: no cycle of length 6",)

    def test_small_side(self):
        D = complete_bipartite(3)
        rep = check_theorem_hypotheses(D, Theorem.T1_10)
        assert rep.failures == ("order: needs side size >= 4, got 3",)
        assert check_theorem_hypotheses(D, Theorem.T1_6).satisfied

    def test_not_bipartite(self):
        D = Digraph(3, [("v0", "v1"), ("v1", "v2"), ("v2", "v0")])
        rep = check_theorem_hypotheses(D, Theorem.T1_8)
        assert rep.failures == ("structure: not a balanced bipartite digraph",)

    def test_not_strong(self):
        D = BipartiteDigraph(4, [("x0", "y0")])
        rep = check_theorem_hypotheses(D, Theorem.T1_8)
        assert "connectivity: not strongly connected" in rep.failures

    def test_all_failures_reported(self):
        D = BipartiteDigraph(2, [("x0", "y0"), ("x1", "y0")])
        rep = check_theorem_hypotheses(D, Theorem.T1_8)
        kinds = {f.split(":")[0] for f in rep.failures}
        assert {"connectivity", "order", "degree condition"} <= kinds

    def test_render(self):
        # certify renders the hypothesis report inside its verdict
        lines = render_verdict(verify_theorem(d8(), Theorem.T1_10)).splitlines()
        assert lines[:2] == ["claim: 1.10", "hypotheses: satisfied"]
        rep = check_theorem_hypotheses(directed_cycle(4), Theorem.T1_10)
        lines = render_verdict(verify_theorem(directed_cycle(4), Theorem.T1_10)).splitlines()
        assert lines[1] == "hypotheses: not satisfied"
        assert lines[2 : 2 + len(rep.failures)] == [f"  - {f}" for f in rep.failures]


def _strong_not_b0():
    # the directed 8-cycle plus x0 -> y1, which x1 -> y1 already enters:
    # strong, but {x0, x1} is a dominating pair of degrees 3 and 2
    ring = ["x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3"]
    return BipartiteDigraph(4, list(zip(ring, ring[1:] + ring[:1])) + [("x0", "y1")])


def _b1_not_strong():
    # complete_bipartite(4) without the arcs into x0: every dominating pair
    # has a vertex of degree 7 or 8, but nothing reaches x0
    arcs = [(str(u), str(v)) for u, v in complete_bipartite(4).arcs() if str(v) != "x0"]
    return BipartiteDigraph(4, arcs)


def _neither():
    return BipartiteDigraph(4, [("x0", "y0"), ("x1", "y0")])


def _screened(D, row):
    """The search's screen on D alone: the gates it called, in order, each
    with its result, whether D passed, and the premise's index list (None
    unless D passed and the premise found a cycle)."""
    calls = []

    def counted(clause):
        def holds(D):
            result = clause.holds(D)
            calls.append((clause, result))
            return result

        return clause._replace(holds=holds)

    gates, premise = row
    passed = list(_screen((tuple(map(counted, gates)), premise), [D])) == [D]
    found = premise.holds(D) if passed and premise is not None else None
    return calls, passed, found


class TestSearchOrder:
    """The search screens with each row's gates cheapest first; certify
    lists the failures in report order.  Both must agree on whether the row
    holds."""

    @pytest.mark.parametrize(
        ("build", "failing"),
        [
            (_strong_not_b0, {"degree condition"}),
            (_b1_not_strong, {"connectivity"}),
            (_neither, {"connectivity", "degree condition"}),
        ],
    )
    def test_one_gate_each(self, build, failing):
        D = build()
        for theorem in [t for t in Theorem if t not in (Theorem.T1_6, Theorem.L3_3)]:
            # every row with a B_k gate fails exactly the expected gates
            report = check_theorem_hypotheses(D, theorem)
            assert {f.split(":")[0] for f in report.failures} == failing
        for theorem in Theorem:
            report = check_theorem_hypotheses(D, theorem)
            calls, passed, premise = _screened(D, _CLAUSES[theorem])
            assert all(result for _, result in calls[:-1])  # stops at a failure
            assert passed == all(result for _, result in calls)
            has_premise = _CLAUSES[theorem][1] is not None
            assert (passed and (premise is not None or not has_premise)) == report.satisfied
            assert premise == report._premise

    def test_degree_before_connectivity(self):
        # failing both, the search stops at B_k; the report lists
        # connectivity first
        D = _neither()
        for theorem in (Theorem.T1_8, Theorem.T1_9, Theorem.L3_2):
            calls, passed, _ = _screened(D, _CLAUSES[theorem])
            assert not passed and calls[-1][0].explain(D).startswith("degree condition: B_")
            assert _STRONG not in [clause for clause, _ in calls]
            report = check_theorem_hypotheses(D, theorem)
            assert report.failures[0] == "connectivity: not strongly connected"

    def test_rows_keep_their_clauses(self):
        # the search order permutes a row's gates and keeps its premise
        for row in _CLAUSES.values():
            gates, premise = _search_row(row)
            assert sorted(map(id, gates)) == sorted(map(id, row[0]))
            assert premise is row[1]
        # order, then B_k, then the reachability sweeps
        (strong, order, b0), _ = _CLAUSES[Theorem.T1_9]
        assert _search_row(_CLAUSES[Theorem.T1_9])[0] == (order, b0, strong)
        # the two-sided condition stays after strong connectivity
        assert _search_row(_CLAUSES[Theorem.T1_6])[0][1:] == (_STRONG, _TWO_SIDED)


class TestBypassPremise:
    """Lemma 3.4's premise against the naive bypass enumeration."""

    @staticmethod
    def bypassed(D):
        """The premise's index list, named as a Cycle."""
        hit = _bypassed_longest(D)
        return None if hit is None else _as_cycle(D, hit)

    @staticmethod
    def expected(D):
        C = longest_non_hamiltonian_cycle(D)
        if C is None or C.length < 4:
            return None
        gaps = {gap for gap, _ in naive_bypasses(D, C.vertices)}
        return C if 1 in gaps else None

    @given(bipartite_digraphs(max_a=4))
    def test_against_naive_oracle(self, D):
        assert self.bypassed(D) == self.expected(D)

    def test_d8_least_bypass_has_gap_4(self):
        D = d8()
        C = longest_non_hamiltonian_cycle(D)
        assert min(gap for gap, _ in naive_bypasses(D, C.vertices)) == 4
        assert self.bypassed(D) is None

    def test_complete_holds(self):
        D = complete_bipartite(4)
        C = self.bypassed(D)
        assert C is not None and C == longest_non_hamiltonian_cycle(D)
        assert C.length == 6

    def test_no_bypass(self):
        # a 6-cycle plus an arcless pair: nothing can leave the cycle
        ring = ["x0", "y0", "x1", "y1", "x2", "y2"]
        D = BipartiteDigraph(4, list(zip(ring, ring[1:] + ring[:1])))
        C = longest_non_hamiltonian_cycle(D)
        assert C.length == 6 and naive_bypasses(D, C.vertices) == []
        assert self.bypassed(D) is None

    def test_bypass_on_the_closing_arc(self):
        # the same 6-cycle, whose only bypass y2 x3 y3 x0 spans its closing arc
        ring = ["x0", "y0", "x1", "y1", "x2", "y2"]
        arcs = list(zip(ring, ring[1:] + ring[:1])) + [("y2", "x3"), ("x3", "y3"), ("y3", "x0")]
        D = BipartiteDigraph(4, arcs)
        C = longest_non_hamiltonian_cycle(D)
        assert [str(v) for v in C.vertices] == ring
        assert [g for g, _ in naive_bypasses(D, C.vertices)] == [1]
        assert self.bypassed(D) == C
