"""
Claim verdicts on contrasting inputs
====================================

Each catalog statement is an implication: hypotheses in, guaranteed cycle
structure out.  The verifier makes that executable.  A verdict lands in
one of three buckets: hypotheses-not-met (the claim says nothing here),
conclusion (with an explicit certificate), or violation (a checked
counterexample, which the proven claims never produce).  Lemma 3.3 speaks
about (cycle, vertex) pairs rather than whole digraphs, so it has no
verdict; only the search replays it.
"""

from bipancyclic import (
    Theorem,
    complete_bipartite,
    d8,
    directed_cycle,
    random_bipartite,
    verify_theorem,
)
from bipancyclic.cli import render_verdict

CERTIFIABLE = [t for t in Theorem if t is not Theorem.L3_3]

INPUTS = (
    ("8-vertex exception", d8()),
    ("directed cycle C_8", directed_cycle(4)),
    ("complete bipartite K*_{4,4}", complete_bipartite(4)),
    ("sparse random (a=4, p=0.3, seed=7)", random_bipartite(4, 0.3, seed=7)),
)

for name, D in INPUTS:
    print("=" * 60)
    print(name)
    print("=" * 60)
    for theorem in CERTIFIABLE:
        verdict = verify_theorem(D, theorem)
        print(f"[claim {theorem.value}] -> {verdict.outcome}")
    print()

# the full report for one interesting case: the claim routes the
# exception through its isomorphism clause rather than reporting a
# missing Hamiltonian cycle
print("=" * 60)
print("full verdict: claim 1.10 on the exception")
print("=" * 60)
print(render_verdict(verify_theorem(d8(), Theorem.T1_10)))
