"""
A tour of the 8-vertex exception
================================

The one digraph that satisfies the margin-1 dominating-pair condition
without being Hamiltonian.  This walk-through builds it, inspects the
degrees that make it work, and watches the claim verdicts route it to
the exception clause instead of a violation.
"""

from bipancyclic import (
    Theorem,
    check_bk,
    cycle_spectrum,
    d8,
    is_hamiltonian,
    iso_to_D8,
    verify_theorem,
)

D = d8()
print("order:", D.n, " arcs:", D.arc_count)

# the degree profile is deliberately lopsided: two x-vertices and two
# y-vertices carry almost all arcs, the other four barely participate
for v in D.vertices():
    deg = D.degree(v)
    print(f"  {v}: out={deg.out} in={deg.in_} total={deg.total}")

# every dominating pair still clears the 2a-2+1 = 7 threshold
report = check_bk(D, 1)
print(report.render())
print()

# margin 2 is out of reach: the same worst pair tops out at degree 7
print("B_2 holds:", check_bk(D, 2).holds)
print()

# the even cycle lengths stop at 6, so no Hamiltonian cycle exists
spectrum = cycle_spectrum(D)
print("cycle lengths:", spectrum.lengths())
for m, cycle in spectrum.witnesses:
    print(f"  length {m}: {cycle}")
print("hamiltonian:", is_hamiltonian(D))
print()

# the recognizer maps the digraph onto the canonical copy
witness = iso_to_D8(D)
print("recognized as the exception:", witness is not None)
print(" ", witness.render())
print()

# both claims that allow the exception conclude through it
for theorem in (Theorem.T1_7, Theorem.T1_10):
    verdict = verify_theorem(D, theorem)
    print(f"claim {theorem.value}: {verdict.outcome} "
          f"({verdict.conclusion.kind})")
