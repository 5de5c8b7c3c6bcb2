"""
Hunting for counterexamples, reproducibly
=========================================

The search harness samples random balanced bipartite digraphs, keeps the
ones satisfying a claim's hypotheses, and replays the claimed conclusion
on each.  Every sample's RNG seed derives from (seed, a, p, index), so a
hit is reproducible in isolation years later.  The proven claims never
produce violations; the value of the run is the count of hypothesis-
satisfying instances that were actually exercised.
"""

from bipancyclic import (
    SearchConfig,
    Theorem,
    run_search,
    sample_digraph,
    serialize,
)

# a small sweep over two of the supporting statements and one claim
for target in (Theorem.T1_9, Theorem.L3_2, Theorem.L3_3):
    config = SearchConfig(
        target=target,
        a_values=(4, 5),
        p_values=(0.5, 0.7),
        samples=2000,
        seed=0,
    )
    report = run_search(config)
    print(report.render())
    print(f"(runtime {report.runtime_seconds:.1f}s)")
    print()

# any single sample can be regenerated without rerunning the sweep:
# cell (a=4, p=0.7), index 1234 of the seed-0 stream
D = sample_digraph(0, 4, 0.7, 1234)
print("sample (a=4, p=0.7, index=1234) of the seed-0 stream:")
print(serialize(D), end="")
print("strong:", D.is_strong())

# the same digraph comes back every time, on every machine; a violation
# record stores exactly these coordinates plus the failed claim, and its
# repro command replays the offending cell up to and including the hit
