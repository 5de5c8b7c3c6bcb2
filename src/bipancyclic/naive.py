"""Slow reference implementations used to cross-check the search engine.

Everything here works off the public Digraph surface (arcs(), vertices())
with plain dicts and sets, shares no code with the bitmask engine, and favors
obviousness over speed.  Tests compare engine results against these on small
inputs; nothing in the package's runtime paths imports this module.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .digraph import Digraph, Vertex


def _succ(D: Digraph) -> dict[Vertex, list[Vertex]]:
    out: dict[Vertex, list[Vertex]] = {v: [] for v in D.vertices()}
    for u, w in D.arcs():
        out[u].append(w)
    for v in out:
        out[v].sort()
    return out


def _cycle_walk(D: Digraph, cap: int) -> Iterator[tuple[Vertex, ...]]:
    """Yield every simple cycle of at most cap vertices, as a min-first
    rotation, in naive_cycles' enumeration order."""
    succ = _succ(D)

    def walk(
        start: Vertex, path: list[Vertex], on_path: set[Vertex]
    ) -> Iterator[tuple[Vertex, ...]]:
        for nxt in succ[path[-1]]:
            if nxt == start and len(path) >= 2:
                yield tuple(path)
            if nxt > start and nxt not in on_path and len(path) < cap:
                path.append(nxt)
                on_path.add(nxt)
                yield from walk(start, path, on_path)
                on_path.discard(nxt)
                path.pop()

    for start in sorted(succ):
        yield from walk(start, [start], {start})


def naive_cycles(D: Digraph, max_len: int | None = None) -> list[tuple[Vertex, ...]]:
    """Every simple directed cycle, as min-first rotations.

    Enumeration order: starts ascend, and from each start the paths extend
    depth-first through ascending larger-than-start neighbors.  Relative to
    each other, cycles of equal length therefore appear in lexicographic
    order, which is what the engine's witness contract promises to match.
    """
    return list(_cycle_walk(D, max_len if max_len is not None else D.n))


def naive_find_cycle(D: Digraph, m: int) -> tuple[Vertex, ...] | None:
    """First length-m cycle in the naive enumeration order, or None."""
    for cycle in naive_cycles(D, max_len=m):
        if len(cycle) == m:
            return cycle
    return None


def naive_cycle_lengths(D: Digraph) -> tuple[int, ...]:
    """The lengths of D's simple cycles, ascending.

    Walks the naive enumeration and stops once it has seen every length
    2..n.  A simple cycle visits each vertex at most once, so none is longer
    than n, and none is shorter than 2; once all of 2..n are seen, no
    cycle still to come can add a length, and the stop cannot change the
    answer.
    """
    every = D.n - 1  # the lengths 2..n
    seen: set[int] = set()
    for cycle in _cycle_walk(D, D.n):
        seen.add(len(cycle))
        if len(seen) == every:
            break
    return tuple(sorted(seen))


def naive_cycle_lengths_dp(D: Digraph) -> tuple[int, ...]:
    """The lengths of D's simple cycles, ascending, decided by a subset DP
    (Bellman 1962; Held and Karp 1962) rather than by listing cycles.

    Each cycle is counted at its least vertex s.  For each set S of
    vertices above s, ends[S] holds the vertices of S at which some path
    from s through exactly s and S can end: a vertex w of S is such an end
    iff S is {w} and s -> w, or some end of S - {w} has an arc to w.  A set
    is built from its subsets one vertex smaller, so each (S, w) state is
    decided once and no path is followed.  Length |S| + 1 exists iff some
    end of S has an arc back to s.  Sets are ints over the positions of the
    vertices above s in canonical order; nothing is shared with the
    engine's masks.
    """
    order = sorted(D.vertices())
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    pred = [set() for _ in range(n)]
    for u, w in D.arcs():
        pred[pos[w]].add(pos[u])
    seen: set[int] = set()
    for s in range(n):
        above = range(s + 1, n)  # bit j of a set stands for vertex s + 1 + j
        first = sum(1 << j for j, w in enumerate(above) if s in pred[w])
        last = sum(1 << j for j, w in enumerate(above) if w in pred[s])
        into = [sum(1 << j for j, u in enumerate(above) if u in pred[w]) for w in above]
        ends = [0] * (1 << len(above))
        for S in range(1, len(ends)):
            if S & (S - 1) == 0:
                ends[S] = S & first
            else:
                for j in range(len(above)):
                    if S >> j & 1 and into[j] & ends[S ^ 1 << j]:
                        ends[S] |= 1 << j
            if ends[S] & last:
                seen.add(bin(S).count("1") + 1)
    return tuple(sorted(seen))


def naive_dominating_pairs(D: Digraph) -> list[tuple[Vertex, Vertex, Vertex]]:
    """(u, v, least common out-neighbor) for every dominated pair, lex order."""
    succ = _succ(D)
    vs = sorted(succ)
    pairs = []
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            common = sorted(set(succ[u]) & set(succ[v]))
            if common:
                pairs.append((u, v, common[0]))
    return pairs


def naive_is_strong(D: Digraph) -> bool:
    if D.n <= 1:
        return True
    succ = _succ(D)
    for source in succ:
        seen = {source}
        stack = [source]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != D.n:
            return False
    return True


def naive_bypasses(
    D: Digraph, cycle: Sequence[Vertex]
) -> list[tuple[int, tuple[Vertex, ...]]]:
    """Every (gap, path) bypass of the cycle, in no particular order.

    A bypass path starts and ends on the cycle (distinct endpoints) and its
    interior is nonempty and off the cycle.
    """
    succ = _succ(D)
    on = list(cycle)
    pos = {v: k for k, v in enumerate(on)}
    off = [v for v in sorted(succ) if v not in pos]
    results: list[tuple[int, tuple[Vertex, ...]]] = []

    def walk(entry: Vertex, path: list[Vertex]) -> None:
        for nxt in succ[path[-1]]:
            if nxt in pos:
                if nxt != entry and len(path) >= 2:
                    gap = (pos[nxt] - pos[entry]) % len(on)
                    results.append((gap, tuple(path) + (nxt,)))
            elif nxt not in path:
                path.append(nxt)
                walk(entry, path)
                path.pop()

    for entry in on:
        walk(entry, [entry])
    return results


def naive_isomorphism(D: Digraph, E: Digraph) -> dict[Vertex, Vertex] | None:
    """An arc-preserving bijection D -> E found by trying all of them.

    Intended for order <= 8; returns the first hit with targets taken in
    canonical order, or None.
    """
    if D.n != E.n or D.arc_count != E.arc_count:
        return None
    dv = sorted(D.vertices())
    darcs = set(D.arcs())
    earcs = set(E.arcs())
    for image in permutations(sorted(E.vertices())):
        f = dict(zip(dv, image))
        if all((f[u], f[w]) in earcs for u, w in darcs):
            return f
    return None


def naive_restricted_degree(D: Digraph, v: Vertex, members: Sequence[Vertex]) -> int:
    chosen = set(members) - {v}
    count = 0
    for u, w in D.arcs():
        if (u == v and w in chosen) or (w == v and u in chosen):
            count += 1
    return count
