"""Exhaustive cycle search with deterministic witnesses.

Search contract shared by every operation in this module: candidate witnesses
are explored in canonical vertex order and the first hit is returned, so the
witness for a given input is a pure function of that input.  For a cycle of a
given length the returned rotation starts at the cycle's least vertex and the
whole vertex sequence is lexicographically least among all cycles of that
length (rotations of the same cycle included).

Each search is a depth-first walk run as one loop over an explicit stack
that keeps, per path vertex, the mask of successors not yet tried
(``_lex_min_cycle_from``).  The searches are exact: a None result means no
witness exists, never that a budget ran out.  Three cuts shorten them, and
each discards only starts, searches or branches that have no completion, so
None stays exact:

- component: each start is searched only inside its strong component among
  the vertices not yet used as starts (a cycle through it cannot leave that
  component); the component depends only on the digraph and the start, so
  the digraph sweeps it once and keeps it (``Digraph._core``), and every
  length asked of one digraph, and its strong-connectivity test, share it;
- cover: a search that must cover every allowed vertex first checks that the
  allowed vertices have a cycle cover (each can take a distinct successor
  among them), and drops branches that strand an allowed vertex;
- dead state: a branch's remaining search depends only on its visited set
  and end vertex, so a (visited set, end vertex) pair whose subtree failed is
  not searched again when another order of the same vertices reaches it.

Order is capped only where a full spectrum or longest-cycle scan is
requested (TooLarge above ``max_n``).

Internal invariant (asserted in the test suite): in both digraph classes the
integer vertex index increases exactly with canonical vertex order, so
ascending-bit iteration over adjacency masks visits neighbors in canonical
order without sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .digraph import (
    BipartiteDigraph,
    Digraph,
    Vertex,
    VertexLike,
    _as_vertex,
    _bits,
    _reach,
    _require_int,
)
from .errors import BadLength, InvalidCycle, PreconditionUnmet, TooLarge, WitnessNotFound

DEFAULT_MAX_ORDER = 24


@dataclass(frozen=True)
class Cycle:
    """A directed cycle given as its vertex sequence (closing arc implied)."""

    vertices: tuple[Vertex, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.vertices)


@dataclass(frozen=True)
class CycleSpectrum:
    """Which cycle lengths a digraph achieves, with one witness per length."""

    order: int
    side_size: int | None
    witnesses: tuple[tuple[int, Cycle], ...]

    def lengths(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.witnesses)

    def is_even_pancyclic(self) -> bool:
        """True iff every even length 2..2a is achieved (bipartite host only).

        The package's definition counts the 2-cycle.  The paper's asks for a
        cycle of length 2k for every 2 <= k <= a, lengths 4..2a, so a
        bipartite digraph with every length 4..2a but no 2-cycle (the
        directed cycle on 4 vertices, say) is even pancyclic in the paper
        and not here.  The certificates of claims 1.6, 1.9 and 1.10 ask for
        the 2-cycle too.
        """
        if self.side_size is None:
            return False
        return self.lengths() == tuple(range(2, 2 * self.side_size + 1, 2))


# -- cycle validation ----------------------------------------------------------


def check_cycle(D: Digraph, vertices: Sequence[VertexLike]) -> Cycle:
    """Validate a vertex sequence as a cycle of D; returns the Cycle.

    Every name must be a vertex of D (UnknownVertex otherwise, raised before
    any other rule).  The indices then go to ``_check_cycle_indices``, which
    holds the rules: length >= 2, all vertices distinct, in a bipartite host
    even length with sides alternating, and every consecutive arc (closing
    arc included) present.  The rules share no code with the search.
    """
    if isinstance(vertices, Cycle):
        vertices = vertices.vertices
    vs = tuple(_as_vertex(v) for v in vertices)
    _check_cycle_indices(D, [D._index(v) for v in vs])
    return Cycle(vs)


def _check_cycle_indices(D: Digraph, idx: Sequence[int]) -> None:
    """check_cycle's rules on vertex indices, in order; raises InvalidCycle.

    Reads only D's out-masks and, in a bipartite host, its side size (an
    index below a is on the x side).  Vertex names are built only for an
    error message.
    """
    if len(idx) < 2:
        raise InvalidCycle(f"cycle needs >= 2 vertices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise InvalidCycle("repeated vertex in cycle")
    steps = list(zip(idx, [*idx[1:], idx[0]]))
    if isinstance(D, BipartiteDigraph):
        if len(idx) % 2:
            raise InvalidCycle(f"odd length {len(idx)} in a bipartite host")
        a = D.a
        for u, w in steps:
            if (u < a) == (w < a):
                raise InvalidCycle(
                    f"consecutive vertices {D._vertex(u)} {D._vertex(w)} on one side"
                )
    out = D._out
    for u, w in steps:
        if not out[u] >> w & 1:
            raise InvalidCycle(f"missing arc {D._vertex(u)} {D._vertex(w)}")


# -- index-level search core ----------------------------------------------------


def _reach_within(out: Sequence[int], src: int, target_bit: int, allowed: int, steps: int) -> bool:
    """Can src reach the target bit in <= steps arcs through allowed vertices?

    The target itself need not be in allowed; intermediate vertices must be.
    """
    frontier = 1 << src
    seen = frontier
    for _ in range(steps):
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= out[low.bit_length() - 1]
            m ^= low
        if nxt & target_bit:
            return True
        frontier = nxt & allowed & ~seen
        if not frontier:
            return False
        seen |= frontier
    return False


def _has_cycle_cover(out: Sequence[int], allowed: int) -> bool:
    """Can every allowed vertex take a distinct successor inside allowed?

    That is a perfect matching of allowed onto itself along arcs, found by
    Kuhn's augmenting paths; a cycle through every allowed vertex is one.
    """
    owner: dict[int, int] = {}  # successor -> the vertex matched to it
    seen = 0  # successors tried in the current augmenting search

    def augment(v: int) -> bool:
        nonlocal seen
        while cand := out[v] & allowed & ~seen:
            low = cand & -cand
            seen |= low
            w = low.bit_length() - 1
            if w not in owner or augment(owner[w]):
                owner[w] = v
                return True
        return False

    covered = True
    for v in _bits(allowed):
        seen = 0
        if not augment(v):
            covered = False
            break
    # augment refers to itself; break that cycle so it goes on return, not
    # with the cycle collector.
    del augment
    return covered


# Most (visited set, end vertex) pairs one search remembers as dead, about
# 20 MB; once full, the search goes on without adding more.
_DEAD_STATE_CAP = 1 << 18


def _lex_min_cycle_from(
    out: Sequence[int], inn: Sequence[int], start: int, m: int, allowed: int
) -> list[int] | None:
    """Least m-cycle starting at ``start`` inside ``allowed`` (start included).

    Exploration is depth-first with neighbors in ascending index order, so
    the first completed cycle is the least one starting at start.  It runs
    as one loop over an explicit stack: each path vertex keeps the mask of
    its successors not yet tried, a branch that passes the cuts pushes its
    vertex, and a vertex whose mask runs out is popped.  Three cuts drop
    only branches with no completion, so None still means no such cycle
    exists:

    - component: the caller passes start's strong component as allowed;
    - cover: a covering search (m equals the number of allowed vertices)
      returns None at once when the allowed vertices have no cycle cover,
      and cuts branches that strand an allowed vertex;
    - dead state: start, m and allowed are fixed per call, so the rest of a
      branch depends only on its visited set and end vertex (Held and Karp's
      subset-and-endpoint state).  A pair whose subtree failed goes into a
      set private to this call, capped at _DEAD_STATE_CAP pairs, and is not
      searched again when another order of the same vertices reaches it.

    A branch to w must be able to get back to start within the arcs left
    (``_reach_within``).  Two masks answer that first: an arc w -> start,
    or arcs w -> v -> start through a free v.  Wherever the test runs at
    least three arcs are left, so either return fits and the sweep would
    say yes too: the masks save sweeps but change no prune.  The last two
    vertices are taken directly: each w in order, then the least vertex
    that closes the cycle from it; m == 2 is that one mask at start.
    """
    require_cover = allowed.bit_count() == m
    if require_cover and not _has_cycle_cover(out, allowed):
        return None
    start_bit = 1 << start
    pool = allowed & ~start_bit
    back = inn[start] & pool  # the vertices with an arc back to start
    if m == 2:
        close = out[start] & back
        return [start, (close & -close).bit_length() - 1] if close else None
    path = [start]
    cands = [out[start] & pool]  # each path vertex's successors not yet tried
    used = start_bit
    dead: set[int] = set()  # visited set << shift | end vertex
    shift = allowed.bit_length()
    while cands:
        depth = len(path)
        remaining = m - depth  # vertices still to add before closing
        cand = cands[-1]
        if remaining == 2:
            last = pool & ~used & back
            while cand:
                low = cand & -cand
                cand ^= low
                w = low.bit_length() - 1
                close = out[w] & last & ~low
                if close:
                    return path + [w, (close & -close).bit_length() - 1]
        # A state is worth remembering once two interior vertices could have
        # come in either order; the last two vertices, chosen above, never are
        # remembered.
        memo = depth >= 2
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if memo:
                key = (used | low) << shift | w
                if key in dead:
                    continue
            free = pool & ~used & ~low
            if not out[w] & (start_bit | free & back) and not _reach_within(
                out, w, start_bit, free, remaining
            ):
                continue
            if require_cover:
                if _reach(out, w, free) & free != free:
                    continue
                if _reach(inn, start, free) & free != free:
                    continue
            cands[-1] = cand
            cands.append(out[w] & free)
            path.append(w)
            used |= low
            break
        else:
            cands.pop()
            w = path.pop()
            if depth >= 3 and len(dead) < _DEAD_STATE_CAP:  # the parent's memo
                dead.add(used << shift | w)
            used ^= 1 << w
    return None


def _find_cycle_indices(D: Digraph, m: int) -> list[int] | None:
    """Lex-min cycle of exactly m vertices, or None.

    Each start is searched inside its strong component among itself and the
    later vertices, read from D's component memo (``Digraph._core``): it
    depends only on D and the start, not on m, so every length asked of one
    D sweeps each start's component once.
    """
    out, inn = D._out, D._in
    for start in range(D.n - m + 1):  # at least m vertices from start on
        # Starts ascend in canonical order and branches only use later
        # vertices, so the first hit is the global lex-min witness.  A cycle
        # through start stays in start's strong component within them.
        core = D._core(start)
        if core.bit_count() >= m:
            hit = _lex_min_cycle_from(out, inn, start, m, core)
            if hit is not None:
                return hit
    return None


# -- public operations -----------------------------------------------------------


def find_cycle_of_length(D: Digraph, m: int) -> Cycle | None:
    """Lexicographically least cycle of exactly m vertices, or None.

    Raises BadLength unless m is an int with 2 <= m <= n.  In a bipartite
    host an odd m is immediately None (no odd cycles exist there).
    """
    _require_int(m, "cycle length", 2, D.n, error=BadLength)
    if isinstance(D, BipartiteDigraph) and m % 2:
        return None
    hit = _find_cycle_indices(D, m)
    if hit is None:
        return None
    return Cycle(tuple(D._vertex(i) for i in hit))


def cycle_spectrum(D: Digraph, max_n: int = DEFAULT_MAX_ORDER) -> CycleSpectrum:
    """All achievable cycle lengths with lex-min witnesses.

    Exhaustive, so the order is capped: raises TooLarge above max_n, and
    BadParams for a max_n that is not an int.  In a bipartite host
    find_cycle_of_length answers every odd length at once.
    """
    _require_int(max_n, "order cap")
    if D.n > max_n:
        raise TooLarge(f"spectrum scan capped at order {max_n}, got {D.n}")
    side = D.a if isinstance(D, BipartiteDigraph) else None
    witnesses = []
    for m in range(2, D.n + 1):
        cycle = find_cycle_of_length(D, m)
        if cycle is not None:
            witnesses.append((m, cycle))
    return CycleSpectrum(order=D.n, side_size=side, witnesses=tuple(witnesses))


def is_hamiltonian(D: Digraph) -> bool:
    """True iff some cycle visits every vertex (needs n >= 2)."""
    if D.n < 2:
        return False
    return _find_cycle_indices(D, D.n) is not None


def longest_non_hamiltonian_cycle(D: Digraph, max_n: int = DEFAULT_MAX_ORDER) -> Cycle | None:
    """Longest cycle on < n vertices (lex-min witness), or None if no such
    cycle exists.  Raises TooLarge above max_n, and BadParams for a max_n
    that is not an int."""
    _require_int(max_n, "order cap")
    if D.n > max_n:
        raise TooLarge(f"longest-cycle scan capped at order {max_n}, got {D.n}")
    for m in range(D.n - 1, 1, -1):  # an odd m in a bipartite host is None at once
        cycle = find_cycle_of_length(D, m)
        if cycle is not None:
            return cycle
    return None


def cycles_through_vertex(
    D: BipartiteDigraph, cycle: Sequence[VertexLike] | Cycle, x: VertexLike
) -> dict[int, Cycle]:
    """Even cycles of every length 2..len(C) through x, inside V(C) + {x}.

    Preconditions: bipartite host, x off the cycle, and x sends/receives at
    least len(C)/2 + 1 arcs to the cycle.  Under those the full ladder of
    lengths is claimed to exist; a missing length raises WitnessNotFound,
    which callers treat as a checked counterexample.  Each witness is the
    first cycle found by the deterministic search rooted at x, rotated to
    start at its least vertex: the least m-cycle through x is needed here,
    so every rung runs the DFS.  The search's lemma 3.3 evaluator settles
    rungs from the cycle's own arcs instead (verify._eval_l3_3).
    """
    if not isinstance(D, BipartiteDigraph):
        raise PreconditionUnmet("host must be balanced bipartite")
    C = check_cycle(D, cycle)
    xv = _as_vertex(x)
    xi = D._index(xv)
    if xv in C.vertices:
        raise PreconditionUnmet(f"{xv} lies on the cycle")
    b = C.length // 2
    d = D.restricted_degree(xv, C.vertices)
    if d < b + 1:
        raise PreconditionUnmet(
            f"needs degree >= {b + 1} between {xv} and the cycle, got {d}"
        )
    allowed = 1 << xi
    for v in C.vertices:
        allowed |= 1 << D._index(v)
    found: dict[int, Cycle] = {}
    for m in range(2, allowed.bit_count(), 2):
        hit = _lex_min_cycle_from(D._out, D._in, xi, m, allowed)
        if hit is None:
            raise WitnessNotFound(
                f"no cycle of length {m} through {xv} within the cycle vertices"
            )
        vs = tuple(D._vertex(i) for i in hit)
        k = vs.index(min(vs))
        found[m] = Cycle(vs[k:] + vs[:k])
    return found
