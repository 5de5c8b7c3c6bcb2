"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Each test computes its verdict, prints the one-line summary through the
shared recorder (shown in the terminal summary section), and then asserts.
The randomized criteria use the library's own seeded search harness, so
every number here is reproducible from a fresh checkout.
"""

import random
import time
from pathlib import Path

import pytest

from bipancyclic import (
    Digraph,
    Family,
    FamilySpec,
    SearchConfig,
    Theorem,
    check_bk,
    cycle_spectrum,
    d6,
    d6_prime,
    d8,
    directed_cycle,
    find_cycle_of_length,
    generate,
    is_hamiltonian,
    iso_to_D8,
    parse,
    random_bipartite,
    run_search,
    serialize,
    verify_theorem,
)
from bipancyclic.conditions import _CLAUSES, _screen
from bipancyclic.naive import naive_cycle_lengths, naive_cycle_lengths_dp
from bipancyclic.verify import _BLOCK, _CONCLUSIONS, _eval_claim

from _criteria import record
from _families import check_family

pytestmark = pytest.mark.acceptance

GOLDEN = Path(__file__).parent / "golden"

GRID_A = (4, 5, 6)
GRID_P = (0.3, 0.5, 0.7)


def _mixed_corpus(count, seed):
    """Deterministic stream of small digraphs, half bipartite, half general."""
    for i in range(count):
        rng = random.Random(seed * 1_000_003 + i)
        p = rng.choice(GRID_P)
        if i % 2 == 0:
            yield random_bipartite(rng.randrange(1, 6), p, seed=rng.randrange(2**32))
        else:
            n = rng.randrange(1, 11)
            arcs = [
                (f"v{u}", f"v{w}")
                for u in range(n)
                for w in range(n)
                if u != w and rng.random() < p
            ]
            yield Digraph(n, arcs)


def _small_family_members():
    """Every generated family member of order at most 10."""
    specs = [FamilySpec(Family.D8), FamilySpec(Family.D6), FamilySpec(Family.D6_PRIME)]
    specs += [FamilySpec(Family.DIRECTED_CYCLE, size=a) for a in range(1, 6)]
    specs += [FamilySpec(Family.COMPLETE_BIPARTITE, size=a) for a in range(1, 6)]
    for m in range(2, 6):
        specs.append(FamilySpec(Family.H_MM, size=m))
        specs.append(FamilySpec(Family.H_M_M1_1, size=m))
        specs.append(FamilySpec(Family.H_M_M1_1, size=m, mirrored=True))
        specs.append(FamilySpec(Family.H_2M, size=m))
        specs.append(FamilySpec(Family.H_2M, size=m, both_link_arcs=True))
    return [(spec, generate(spec)) for spec in specs]


def test_criterion_01_d8_suite():
    started = time.perf_counter()
    D = d8()
    strong = D.is_strong()
    b1 = check_bk(D, 1).holds
    spectrum = cycle_spectrum(D).lengths()
    ham = is_hamiltonian(D)
    witness = iso_to_D8(D)
    identity = witness is not None and all(u == v for u, v in witness.mapping)
    ok = strong and b1 and spectrum == (2, 4, 6) and not ham and identity
    record(
        1,
        ok,
        f"D(8) suite: strong={strong}, B_1={b1}, spectrum={spectrum}, "
        f"hamiltonian={ham}, identity_iso={identity} "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_criterion_02_d6_variants():
    started = time.perf_counter()
    results = {}
    for name, D in (("D_6", d6()), ("D'_6", d6_prime())):
        results[name] = (not is_hamiltonian(D), find_cycle_of_length(D, 5) is not None)
    ok = all(non_ham and has5 for non_ham, has5 in results.values())
    record(
        2,
        ok,
        "six-vertex pair: "
        + ", ".join(
            f"{name} non_hamiltonian={nh} has_5_cycle={h5}"
            for name, (nh, h5) in results.items()
        )
        + f" ({time.perf_counter() - started:.2f}s)",
    )


def test_criterion_03_directed_cycles():
    started = time.perf_counter()
    checked = 0
    ok = True
    for a in range(4, 11):
        D = directed_cycle(a)
        report = check_bk(D, 1)
        vacuous = report.holds and report.pairs_checked == 0
        spectrum = cycle_spectrum(D).lengths() == (2 * a,)
        verdict = verify_theorem(D, Theorem.T1_8)
        witness = verdict.conclusion.kind == "directed-cycle"
        ok = ok and vacuous and spectrum and witness
        checked += 1
    record(
        3,
        ok,
        f"directed cycles a=4..10: {checked} checked, B_1 vacuous, "
        f"spectrum {{2a}}, directed-cycle witness "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_criterion_04_h_families():
    started = time.perf_counter()
    failures = []
    members = 0
    for m in range(2, 7):
        for spec in (
            FamilySpec(Family.H_MM, size=m),
            FamilySpec(Family.H_M_M1_1, size=m),
            FamilySpec(Family.H_M_M1_1, size=m, mirrored=True),
            FamilySpec(Family.H_2M, size=m),
            FamilySpec(Family.H_2M, size=m, both_link_arcs=True),
        ):
            members += 1
            bad = [exp for exp, holds in check_family(spec) if not holds]
            if bad:
                failures.append((spec.label(), bad))
    record(
        4,
        not failures,
        f"H families m=2..6: {members} members, structure and "
        f"non-Hamiltonicity replayed, failures={failures or 'none'} "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_criterion_05_theorem_1_10_randomized():
    started = time.perf_counter()
    report = run_search(
        SearchConfig(
            target=Theorem.T1_10,
            a_values=GRID_A,
            p_values=GRID_P,
            samples=100_000,
            seed=0,
        )
    )
    elapsed = time.perf_counter() - started
    ok = (
        report.samples_run == 900_000
        and report.violations == ()
        and elapsed < 600
    )
    record(
        5,
        ok,
        f"claim 1.10 randomized: {report.samples_run} samples, "
        f"{report.hypothesis_satisfying} hypothesis-satisfying, "
        f"{len(report.violations)} violations ({elapsed:.0f}s)",
    )


def test_criterion_06_theorems_1_8_1_9_randomized():
    started = time.perf_counter()
    reports = {}
    for target in (Theorem.T1_8, Theorem.T1_9):
        reports[target] = run_search(
            SearchConfig(
                target=target,
                a_values=GRID_A,
                p_values=GRID_P,
                samples=300_000,
                seed=0,
            )
        )
    combined = sum(r.hypothesis_satisfying for r in reports.values())
    violations = sum(len(r.violations) for r in reports.values())
    ok = combined >= 100_000 and violations == 0
    record(
        6,
        ok,
        f"claims 1.8 and 1.9 randomized: "
        f"{reports[Theorem.T1_8].hypothesis_satisfying} + "
        f"{reports[Theorem.T1_9].hypothesis_satisfying} = {combined} "
        f"hypothesis-satisfying (>= 100000), {violations} violations "
        f"({time.perf_counter() - started:.0f}s)",
    )


def test_criterion_07_lemmas_3_2_3_4():
    started = time.perf_counter()
    counts = {}
    violations = 0
    for target in (Theorem.L3_2, Theorem.L3_4):
        report = run_search(
            SearchConfig(
                target=target,
                a_values=(4, 5),
                p_values=GRID_P,
                samples=100_000,
                seed=0,
            )
        )
        counts[target.value] = report.hypothesis_satisfying
        violations += len(report.violations)
    ok = violations == 0 and all(c >= 10_000 for c in counts.values())
    record(
        7,
        ok,
        f"lemma suites: qualifying 3.2={counts['3.2']} 3.4={counts['3.4']} "
        f"(each >= 10000), {violations} failures "
        f"({time.perf_counter() - started:.0f}s)",
    )


def test_criterion_08_lemma_3_3_triples():
    started = time.perf_counter()
    report = run_search(
        SearchConfig(
            target=Theorem.L3_3,
            a_values=(4, 5),
            p_values=GRID_P,
            samples=3_000,
            seed=0,
        )
    )
    triples = report.hypothesis_satisfying
    ok = triples >= 10_000 and report.violations == ()
    record(
        8,
        ok,
        f"vertex-ladder triples: {triples} qualifying (>= 10000), "
        f"{len(report.violations)} failures "
        f"({time.perf_counter() - started:.0f}s)",
    )


def test_criterion_09_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for D in _mixed_corpus(10_000, seed=90):
        if tuple(sorted(naive_cycle_lengths(D))) != cycle_spectrum(D).lengths():
            mismatches += 1
        checked += 1
    family_checked = 0
    for spec, D in _small_family_members():
        if tuple(sorted(naive_cycle_lengths(D))) != cycle_spectrum(D).lengths():
            mismatches += 1
        family_checked += 1
    record(
        9,
        mismatches == 0,
        f"oracle equivalence: {checked} random + {family_checked} family "
        f"spectra vs naive enumeration, {mismatches} mismatches "
        f"({time.perf_counter() - started:.0f}s)",
    )


def test_criterion_10_round_trip_and_goldens():
    started = time.perf_counter()
    bad_round_trips = 0
    checked = 0
    for D in _mixed_corpus(10_000, seed=100):
        if parse(serialize(D)) != D:
            bad_round_trips += 1
        checked += 1
    golden_files = {
        "d8.txt": FamilySpec(Family.D8),
        "d6.txt": FamilySpec(Family.D6),
        "d6prime.txt": FamilySpec(Family.D6_PRIME),
        "directed-cycle-4.txt": FamilySpec(Family.DIRECTED_CYCLE, size=4),
        "complete-bipartite-3.txt": FamilySpec(Family.COMPLETE_BIPARTITE, size=3),
        "hmm-3.txt": FamilySpec(Family.H_MM, size=3),
        "hm-m1-1-3.txt": FamilySpec(Family.H_M_M1_1, size=3),
        "h2m-3.txt": FamilySpec(Family.H_2M, size=3),
    }
    stale = [
        name
        for name, spec in golden_files.items()
        if serialize(generate(spec)) != (GOLDEN / name).read_text()
    ]
    ok = bad_round_trips == 0 and not stale
    record(
        10,
        ok,
        f"round-trip: {checked} digraphs, {bad_round_trips} mismatches; "
        f"goldens: {len(golden_files)} files, stale={stale or 'none'} "
        f"({time.perf_counter() - started:.0f}s)",
    )


def test_criterion_11_subset_dp_oracle():
    # Orders the enumeration oracle cannot reach: general digraphs of order
    # 11-14 and bipartite ones with a <= 7, from sparse (lengths missing
    # between present ones) to dense.
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for i in range(2_000):
        rng = random.Random(110_000 + i)
        if i % 2 == 0:
            n = 11 + i // 2 % 4
            p = rng.choice((0.1, 0.15, 0.2, 0.3, 0.5))
            slots = [(u, w) for u in range(n) for w in range(n) if u != w]
            D = Digraph(n, [(f"v{u}", f"v{w}") for u, w in slots if rng.random() < p])
        else:
            a = 1 + i // 2 % 7
            p = rng.choice((0.25, 0.35, 0.45, 0.55, 0.7))
            D = random_bipartite(a, p, seed=rng.randrange(2**32))
        if naive_cycle_lengths_dp(D) != cycle_spectrum(D).lengths():
            mismatches += 1
        checked += 1
    record(
        11,
        mismatches == 0,
        f"subset-DP oracle: {checked} spectra (general n 11-14, bipartite a <= 7), "
        f"{mismatches} mismatches ({time.perf_counter() - started:.0f}s)",
    )


def test_criterion_12_theorem_1_6_exhaustive():
    # Every labelled balanced bipartite digraph with a <= 3, as the search
    # meets it: each digit string of 2a^2 arc slots, screened by claim 1.6's
    # row in blocks of at most _BLOCK, then its conclusion on each survivor.
    # No other criterion runs claim 1.6's screen: strong connectivity, then
    # the two-sided condition, on each sample built.
    started = time.perf_counter()
    row = _CLAUSES[Theorem.T1_6]
    inputs, satisfying, violations = [], [], 0
    for a in (1, 2, 3):
        m, screened, found = 2 * a * a, 0, 0
        for start in range(0, 1 << m, _BLOCK):
            stop = min(start + _BLOCK, 1 << m)
            digits = bytearray("".join(f"{i:0{m}b}" for i in range(start, stop)), "ascii")
            screened += stop - start
            for _, D in _screen(row, a, digits, stop - start):
                units, claims = _eval_claim(row[1], _CONCLUSIONS[Theorem.T1_6], D)
                found += units
                violations += len(claims)
        inputs.append(screened)
        satisfying.append(found)
    ok = inputs == [4, 256, 262_144] and satisfying == [1, 15, 1_798] and violations == 0
    record(
        12,
        ok,
        f"claim 1.6 exhaustive a <= 3: {inputs} inputs, {satisfying} "
        f"hypothesis-satisfying, {violations} violations "
        f"({time.perf_counter() - started:.1f}s)",
    )
