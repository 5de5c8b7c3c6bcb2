"""Replay of each family's expectations (``family_properties``) on its
generated member, shared by acceptance criterion 4 and test_families.py."""

from __future__ import annotations

from typing import Callable

from bipancyclic.conditions import check_bk
from bipancyclic.cycles import cycle_spectrum, find_cycle_of_length, is_hamiltonian
from bipancyclic.digraph import Digraph, Vertex
from bipancyclic.errors import BadParams
from bipancyclic.families import Expectation, Family, FamilySpec, _v, family_properties, generate


# How check_family replays each expectation: (member, spec, arg) -> holds.
_CHECKS: dict[str, Callable[[Digraph, FamilySpec, object], bool]] = {
    "strong": lambda D, spec, arg: D.is_strong(),
    "is_directed_cycle": lambda D, spec, arg: D.is_directed_cycle(),
    "hamiltonian": lambda D, spec, arg: is_hamiltonian(D),
    "not_hamiltonian": lambda D, spec, arg: not is_hamiltonian(D),
    "satisfies_bk": lambda D, spec, arg: check_bk(D, int(arg)).holds,
    "has_cycle_of_length": lambda D, spec, arg: find_cycle_of_length(D, int(arg)) is not None,
    "cycle_lengths": lambda D, spec, arg: cycle_spectrum(D).lengths() == tuple(arg),
    "structure": lambda D, spec, arg: _structure_holds(D, spec),
}


def check_family(spec: FamilySpec) -> list[tuple[Expectation, bool]]:
    """Generate the member and replay every expectation against it."""
    D = generate(spec)
    return [(exp, _CHECKS[exp.check](D, spec, exp.arg)) for exp in family_properties(spec)]


# -- structural replay for the H constructions -------------------------------------


def _arcset(D: Digraph) -> set[tuple[Vertex, Vertex]]:
    return set(D.arcs())


def _cluster_complete(arcs: set, members: list[Vertex]) -> bool:
    return all((u, w) in arcs for u in members for w in members if u != w)


def _no_arcs_between(arcs: set, left: list[Vertex], right: list[Vertex]) -> bool:
    return not any(
        (u, w) in arcs or (w, u) in arcs for u in left for w in right
    )


def _structure_holds(D: Digraph, spec: FamilySpec) -> bool:
    """Replay the defining constraints of the H constructions verbatim."""
    m = spec.size
    assert m is not None
    arcs = _arcset(D)
    if spec.family is Family.H_MM:
        if D.n != 2 * m:
            return False
        A = [_v(i) for i in range(m)]
        B = [_v(i) for i in range(m, 2 * m)]
        return (
            _cluster_complete(arcs, A)
            and _cluster_complete(arcs, B)
            and not any((b, a) in arcs for b in B for a in A)
            and all(any((a, b) in arcs for b in B) for a in A)
            and all(any((a, b) in arcs for a in A) for b in B)
        )
    if spec.family is Family.H_M_M1_1:
        if D.n != 2 * m:
            return False
        A = [_v(i) for i in range(m)]
        B = [_v(i) for i in range(m, 2 * m - 1)]
        link = _v(2 * m - 1)
        if not _cluster_complete(arcs, B + [link]):
            return False
        if any((u, w) in arcs for u in A for w in A if u != w):
            return False
        if not all((a, b) in arcs and (b, a) in arcs for a in A for b in B):
            return False
        preds = {u for u, w in arcs if w == link}
        succs = {w for u, w in arcs if u == link}
        if spec.mirrored:
            return succs == set(B) and set(A) <= preds
        return preds == set(B) and set(A) <= succs
    if spec.family is Family.H_2M:
        if D.n != 2 * m:
            return False
        A = [_v(i) for i in range(m - 1)]
        x = _v(m - 1)
        B = [_v(i) for i in range(m, 2 * m - 1)]
        y = _v(2 * m - 1)
        return (
            _cluster_complete(arcs, A + [x])
            and _cluster_complete(arcs, B + [y])
            and _no_arcs_between(arcs, A, B)
            and all((y, a) in arcs for a in A)
            and all((b, x) in arcs for b in B)
            and (x, y) in arcs
            and ((y, x) in arcs) == spec.both_link_arcs
        )
    raise BadParams(f"no structural replay for {spec.family.value}")
