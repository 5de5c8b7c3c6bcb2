"""Deterministic generators for the package's named digraphs and families.

Fixed digraphs: d8 (the 8-vertex bipartite exception of claims 1.7/1.10) and
the 6-vertex pair d6 / d6prime.  Parametrized families: directed cycles and
complete digraphs on balanced sides, plus three non-Hamiltonian general
constructions hmm / hm_m1_1 / h2m built from two clusters with restricted
links.  Where a family definition admits many members, generate() returns one
documented canonical member; family_properties() lists the expectations any
member must satisfy.

Vertex naming for the general constructions (documented per generator):
cluster A occupies the low v-indices, cluster B the following block, and any
distinguished link vertices take the highest indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .digraph import MAX_INPUT_ORDER, BipartiteDigraph, Digraph, Side, Vertex, _require_int
from .errors import BadParams


class Family(Enum):
    D8 = "d8"
    D6 = "d6"
    D6_PRIME = "d6prime"
    DIRECTED_CYCLE = "directed-cycle"
    COMPLETE_BIPARTITE = "complete-bipartite"
    H_MM = "hmm"
    H_M_M1_1 = "hm-m1-1"
    H_2M = "h2m"


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters.

    size is the side size a for the bipartite families and the cluster size m
    for the H constructions; it must be absent for the fixed digraphs.
    mirrored flips the link-vertex orientation of hm-m1-1; both_link_arcs
    adds the reverse link arc to h2m.
    """

    family: Family
    size: int | None = None
    mirrored: bool = False
    both_link_arcs: bool = False

    def validate(self) -> None:
        low = _CATALOG[self.family][0]
        if low is not None:
            if self.size is not None:
                _require_int(self.size, f"{self.family.value} size")
            if self.size is None or self.size < low:
                raise BadParams(f"{self.family.value} needs size >= {low}, got {self.size}")
            # every parametrized family has order 2 * size
            if 2 * self.size > MAX_INPUT_ORDER:
                high = MAX_INPUT_ORDER // 2
                raise BadParams(f"{self.family.value} needs size <= {high}, got {self.size}")
        elif self.size is not None:
            raise BadParams(f"{self.family.value} takes no size parameter")
        if self.mirrored and self.family is not Family.H_M_M1_1:
            raise BadParams("mirrored applies to hm-m1-1 only")
        if self.both_link_arcs and self.family is not Family.H_2M:
            raise BadParams("both-link-arcs applies to h2m only")

    def label(self) -> str:
        bits = [self.family.value]
        if self.size is not None:
            bits.append(str(self.size))
        if self.mirrored:
            bits.append("mirrored")
        if self.both_link_arcs:
            bits.append("both-link-arcs")
        return " ".join(bits)


def _x(i: int) -> Vertex:
    return Vertex(Side.X, i)


def _y(i: int) -> Vertex:
    return Vertex(Side.Y, i)


def _v(i: int) -> Vertex:
    return Vertex(Side.GENERAL, i)


def d8() -> BipartiteDigraph:
    """The 8-vertex exception: side size 4, 20 arcs.

    Both members of {x2, x3} and {y0, y1} pair with everything opposite them
    in two-way arcs; x0/x1 pair two-way with y0/y1's mirrors; four one-way
    arcs complete it.  Every vertex has total degree 7 or 3.
    """
    arcs: list[tuple[Vertex, Vertex]] = []
    for i in range(4):
        arcs += [(_x(i), _y(i)), (_y(i), _x(i))]
    for yj in (0, 1):
        for xi in (2, 3):
            arcs += [(_y(yj), _x(xi)), (_x(xi), _y(yj))]
    arcs += [(_y(0), _x(1)), (_y(1), _x(0)), (_x(2), _y(3)), (_x(3), _y(2))]
    return BipartiteDigraph(4, arcs)


_D6_CORE: tuple[tuple[int, int], ...] = (
    # chain v0 -> v1 -> v2 -> v3 -> v4
    (0, 1), (1, 2), (2, 3), (3, 4),
    # hub v5 feeds the chain start
    (5, 0), (5, 1), (5, 2),
    # chords and returns
    (0, 4), (1, 4), (4, 0), (4, 3), (2, 1), (2, 5), (3, 0), (3, 5),
)


def d6() -> Digraph:
    """Fixed 6-vertex digraph with 15 arcs: non-Hamiltonian, has a 5-cycle.

    The five chain vertices are v0..v4 and the hub is v5.
    """
    return Digraph(6, [(_v(t), _v(h)) for t, h in _D6_CORE])


def d6_prime() -> Digraph:
    """d6 plus the one chord v1 -> v3 (16 arcs); same headline properties."""
    return Digraph(6, [(_v(t), _v(h)) for t, h in _D6_CORE + ((1, 3),)])


def directed_cycle(a: int) -> BipartiteDigraph:
    """The directed cycle x0 y0 x1 y1 ... x{a-1} y{a-1} back to x0."""
    _require_int(a, "side size", 1)
    arcs = []
    for i in range(a):
        arcs.append((_x(i), _y(i)))
        arcs.append((_y(i), _x((i + 1) % a)))
    return BipartiteDigraph(a, arcs)


def complete_bipartite(a: int) -> BipartiteDigraph:
    """Every cross arc in both directions: 2a^2 arcs."""
    _require_int(a, "side size", 1)
    arcs = []
    for i in range(a):
        for j in range(a):
            arcs.append((_x(i), _y(j)))
            arcs.append((_y(j), _x(i)))
    return BipartiteDigraph(a, arcs)


def h_mm(m: int) -> Digraph:
    """Two complete clusters with one-way links: canonical member.

    A = v0..v{m-1} and B = vm..v{2m-1} each induce a complete digraph, no
    arc runs from B back to A, and the A -> B arcs form the perfect matching
    v_i -> v_{m+i}, the sparsest choice meeting the requirement that every
    A-vertex sends and every B-vertex receives at least one link.
    Not Hamiltonian: a cycle visiting both clusters needs a B -> A arc.
    """
    _require_int(m, "cluster size", 2)
    arcs = _complete_cluster(range(m)) + _complete_cluster(range(m, 2 * m))
    arcs += [(_v(i), _v(m + i)) for i in range(m)]
    return Digraph(2 * m, arcs)


def h_m_m1_1(m: int, mirrored: bool = False) -> Digraph:
    """Independent set A fully linked to a smaller complete cluster: canonical
    member.

    A = v0..v{m-1} carries no internal arc, B = vm..v{2m-2} and the link
    vertex a = v{2m-1} induce a complete digraph, and all arcs between A and
    B run in both directions.  The link vertex receives from exactly B and
    sends to all of A (mirrored swaps that orientation).  Not Hamiltonian:
    the m vertices of A (plus the link vertex in one orientation) have more
    members than distinct successors available.
    """
    _require_int(m, "cluster size", 2)
    A = list(range(m))
    B = list(range(m, 2 * m - 1))
    a = 2 * m - 1
    arcs = _complete_cluster(B + [a])
    for i in A:
        for j in B:
            arcs.append((_v(i), _v(j)))
            arcs.append((_v(j), _v(i)))
    if mirrored:
        arcs += [(_v(i), _v(a)) for i in A]
    else:
        arcs += [(_v(a), _v(i)) for i in A]
    return Digraph(2 * m, arcs)


def h_2m(m: int, both_link_arcs: bool = False) -> Digraph:
    """Two complete clusters joined only through two gate vertices: canonical
    member.

    Cluster one is A = v0..v{m-2} plus gate x = v{m-1}; cluster two is
    B = vm..v{2m-2} plus gate y = v{2m-1}.  Each cluster induces a complete
    digraph, no arc joins A and B in either direction, y sends to all of A,
    every B-vertex sends to x, and the gates are joined by x -> y (plus
    y -> x when both_link_arcs).  Not Hamiltonian: x -> y is the only arc
    from cluster one to cluster two, so one cluster's interior is skipped.
    """
    _require_int(m, "cluster size", 2)
    A = list(range(m - 1))
    x = m - 1
    B = list(range(m, 2 * m - 1))
    y = 2 * m - 1
    arcs = _complete_cluster(A + [x]) + _complete_cluster(B + [y])
    arcs += [(_v(y), _v(i)) for i in A]
    arcs += [(_v(j), _v(x)) for j in B]
    arcs.append((_v(x), _v(y)))
    if both_link_arcs:
        arcs.append((_v(y), _v(x)))
    return Digraph(2 * m, arcs)


def _complete_cluster(indices: Iterable[int]) -> list[tuple[Vertex, Vertex]]:
    idx = list(indices)
    return [(_v(i), _v(j)) for i in idx for j in idx if i != j]


# Each family's minimum size (None for a fixed digraph, which takes no size)
# and the function that constructs its canonical member.
_CATALOG: dict[Family, tuple[int | None, Callable[[FamilySpec], Digraph]]] = {
    Family.D8: (None, lambda spec: d8()),
    Family.D6: (None, lambda spec: d6()),
    Family.D6_PRIME: (None, lambda spec: d6_prime()),
    Family.DIRECTED_CYCLE: (1, lambda spec: directed_cycle(spec.size)),
    Family.COMPLETE_BIPARTITE: (1, lambda spec: complete_bipartite(spec.size)),
    Family.H_MM: (2, lambda spec: h_mm(spec.size)),
    Family.H_M_M1_1: (2, lambda spec: h_m_m1_1(spec.size, spec.mirrored)),
    Family.H_2M: (2, lambda spec: h_2m(spec.size, spec.both_link_arcs)),
}


def generate(spec: FamilySpec) -> Digraph:
    """Build the canonical member for a FamilySpec; raises BadParams."""
    spec.validate()
    return _CATALOG[spec.family][1](spec)


# -- replayable expectations -----------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    """One machine-checkable claim about a generated family member."""

    check: str
    arg: object = None

    def __str__(self) -> str:
        return self.check if self.arg is None else f"{self.check}({self.arg})"


def family_properties(spec: FamilySpec) -> tuple[Expectation, ...]:
    """The claims each family member is on the hook for."""
    spec.validate()
    f = spec.family
    if f is Family.D8:
        return (
            Expectation("strong"),
            Expectation("satisfies_bk", 1),
            Expectation("not_hamiltonian"),
            Expectation("cycle_lengths", (2, 4, 6)),
        )
    if f in (Family.D6, Family.D6_PRIME):
        return (Expectation("not_hamiltonian"), Expectation("has_cycle_of_length", 5))
    if f is Family.DIRECTED_CYCLE:
        return (
            Expectation("strong"),
            Expectation("is_directed_cycle"),
            Expectation("hamiltonian"),
            Expectation("satisfies_bk", 1),
            Expectation("cycle_lengths", (2 * spec.size,)),
        )
    if f is Family.COMPLETE_BIPARTITE:
        return (
            Expectation("strong"),
            Expectation("hamiltonian"),
            Expectation("cycle_lengths", tuple(range(2, 2 * spec.size + 1, 2))),
        )
    return (Expectation("structure"), Expectation("not_hamiltonian"))
