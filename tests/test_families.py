"""Named families: construction, expectations, golden serializations."""

from pathlib import Path

import pytest

from bipancyclic import (
    Family,
    FamilySpec,
    complete_bipartite,
    cycle_spectrum,
    d6,
    d6_prime,
    d8,
    directed_cycle,
    family_properties,
    generate,
    h_2m,
    h_m_m1_1,
    h_mm,
    is_hamiltonian,
    serialize,
)
from bipancyclic.errors import BadParams

from _families import check_family

GOLDEN = Path(__file__).parent / "golden"


def _arcs(D):
    """D's arcs as (tail, head) name pairs."""
    return {(str(u), str(w)) for u, w in D.arcs()}


class TestSpecs:
    def test_fixed_family_rejects_size(self):
        with pytest.raises(BadParams):
            FamilySpec(Family.D8, size=3).validate()

    def test_parametrized_requires_size(self):
        with pytest.raises(BadParams):
            FamilySpec(Family.H_MM).validate()
        with pytest.raises(BadParams):
            FamilySpec(Family.H_MM, size=1).validate()
        FamilySpec(Family.H_MM, size=2).validate()

    def test_order_cap(self):
        # every parametrized family has order 2 * size, capped at 256
        FamilySpec(Family.COMPLETE_BIPARTITE, size=128).validate()
        for size in (129, 10**15):
            with pytest.raises(BadParams):
                FamilySpec(Family.COMPLETE_BIPARTITE, size=size).validate()

    def test_flags_scoped_to_their_family(self):
        with pytest.raises(BadParams):
            FamilySpec(Family.H_MM, size=2, mirrored=True).validate()
        with pytest.raises(BadParams):
            FamilySpec(Family.H_M_M1_1, size=2, both_link_arcs=True).validate()
        FamilySpec(Family.H_M_M1_1, size=2, mirrored=True).validate()
        FamilySpec(Family.H_2M, size=2, both_link_arcs=True).validate()

    def test_generate_dispatch(self):
        assert generate(FamilySpec(Family.D8)) == d8()
        assert generate(FamilySpec(Family.DIRECTED_CYCLE, size=5)) == directed_cycle(5)
        assert generate(FamilySpec(Family.H_2M, size=3)) == h_2m(3)


class TestConstructions:
    def test_d8_shape(self):
        D = d8()
        assert D.a == 4 and D.arc_count == 20

    def test_d6_arcs(self):
        D = d6()
        assert D.n == 6 and D.arc_count == 15
        assert ("v3", "v0") in _arcs(D) and ("v4", "v3") in _arcs(D)
        assert ("v1", "v3") not in _arcs(D)

    def test_d6_prime_adds_one_arc(self):
        assert d6_prime().arc_count == 16
        assert ("v1", "v3") in _arcs(d6_prime())

    def test_directed_cycle(self):
        D = directed_cycle(3)
        assert D.arc_count == 6
        assert cycle_spectrum(D).lengths() == (6,)

    def test_complete_bipartite(self):
        D = complete_bipartite(3)
        assert D.arc_count == 18
        assert cycle_spectrum(D).is_even_pancyclic()

    def test_h_mm(self):
        D = h_mm(3)
        # two complete clusters of 3 plus 3 one-way links
        assert D.n == 6 and D.arc_count == 2 * 6 + 3
        assert ("v0", "v3") in _arcs(D) and ("v3", "v0") not in _arcs(D)
        assert not is_hamiltonian(D)

    def test_h_m_m1_1(self):
        D = h_m_m1_1(3)
        # A = v0..v2 independent, B = v3..v4, link vertex v5
        assert D.n == 6 and D.arc_count == 21
        assert ("v5", "v0") in _arcs(D) and ("v0", "v5") not in _arcs(D)
        assert ("v0", "v1") not in _arcs(D)
        M = h_m_m1_1(3, mirrored=True)
        assert ("v0", "v5") in _arcs(M) and ("v5", "v0") not in _arcs(M)
        assert not is_hamiltonian(D) and not is_hamiltonian(M)

    def test_h_2m(self):
        D = h_2m(3)
        assert D.n == 6
        assert ("v2", "v5") in _arcs(D) and ("v5", "v2") not in _arcs(D)
        both = h_2m(3, both_link_arcs=True)
        assert ("v5", "v2") in _arcs(both)
        assert not is_hamiltonian(D) and not is_hamiltonian(both)


class TestExpectations:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec(Family.D8),
            FamilySpec(Family.D6),
            FamilySpec(Family.D6_PRIME),
            FamilySpec(Family.DIRECTED_CYCLE, size=1),
            FamilySpec(Family.DIRECTED_CYCLE, size=4),
            FamilySpec(Family.COMPLETE_BIPARTITE, size=1),
            FamilySpec(Family.COMPLETE_BIPARTITE, size=4),
            FamilySpec(Family.H_MM, size=2),
            FamilySpec(Family.H_MM, size=3),
            FamilySpec(Family.H_M_M1_1, size=2),
            FamilySpec(Family.H_M_M1_1, size=3, mirrored=True),
            FamilySpec(Family.H_2M, size=2),
            FamilySpec(Family.H_2M, size=3, both_link_arcs=True),
        ],
        ids=lambda s: s.label(),
    )
    def test_check_family_green(self, spec):
        results = check_family(spec)
        assert results, "no expectations replayed"
        bad = [(exp, ok) for exp, ok in results if not ok]
        assert bad == [], bad

    def test_every_family_has_expectations(self):
        sized = {Family.DIRECTED_CYCLE: 1, Family.COMPLETE_BIPARTITE: 1}
        for fam in Family:
            size = sized.get(fam, 2 if fam.value.startswith("h") else None)
            assert family_properties(FamilySpec(fam, size=size)), fam


class TestGoldens:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("d8.txt", d8),
            ("d6.txt", d6),
            ("d6prime.txt", d6_prime),
            ("directed-cycle-4.txt", lambda: directed_cycle(4)),
            ("complete-bipartite-3.txt", lambda: complete_bipartite(3)),
            ("hmm-3.txt", lambda: h_mm(3)),
            ("hm-m1-1-3.txt", lambda: h_m_m1_1(3)),
            ("h2m-3.txt", lambda: h_2m(3)),
        ],
    )
    def test_serialization_is_stable(self, name, build):
        assert serialize(build()) == (GOLDEN / name).read_text()
