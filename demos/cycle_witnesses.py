"""
Spectra, witnesses, and bypasses
================================

The cycle engine answers two kinds of question: which lengths occur, and
an explicit cycle for each length.  Lemma 3.4 then asks whether a cycle
can be shortcut through outside vertices.  This script runs all three on
the named families where the answers are known in advance.
"""

from bipancyclic import (
    Theorem,
    check_theorem_hypotheses,
    complete_bipartite,
    cycle_spectrum,
    d6,
    d6_prime,
    d8,
    directed_cycle,
    find_cycle_of_length,
    longest_non_hamiltonian_cycle,
    verify_theorem,
)

# the complete balanced bipartite digraph hits every even length
K = complete_bipartite(4)
spectrum = cycle_spectrum(K)
print("complete bipartite, a=4")
print("  lengths:", spectrum.lengths())
print("  even pancyclic:", spectrum.is_even_pancyclic())
for m, cycle in spectrum.witnesses:
    print(f"  length {m}: {cycle}")
print()

# a directed cycle has exactly one cycle: itself
C = directed_cycle(5)
print("directed cycle, a=5")
print("  lengths:", cycle_spectrum(C).lengths())
print("  longest below full order:", longest_non_hamiltonian_cycle(C))
print()

# the six-vertex pair are general digraphs: odd lengths allowed
for name, D in (("D_6", d6()), ("D'_6", d6_prime())):
    print(name)
    print("  lengths:", cycle_spectrum(D).lengths())
    print("  5-cycle:", find_cycle_of_length(D, 5))
print()

# a bypass leaves a cycle, wanders outside, and re-enters further along;
# its gap counts the hops of cycle skipped.  Lemma 3.4's premise asks for
# a gap-1 bypass on the longest non-Hamiltonian cycle.  On the 8-vertex
# exception the only bypasses skip four hops, so the premise fails; on the
# complete digraph every outside vertex gives one.
D = d8()
print("8-vertex exception")
print("  longest non-Hamiltonian cycle:", longest_non_hamiltonian_cycle(D))
for failure in check_theorem_hypotheses(D, Theorem.L3_4).failures:
    print("  lemma 3.4:", failure)
verdict = verify_theorem(K, Theorem.L3_4)
print("complete bipartite, a=4")
print("  lemma 3.4:", verdict.outcome, "->", verdict.conclusion.kind, verdict.conclusion.cycle)
