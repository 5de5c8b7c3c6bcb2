"""Exhaustive cycle search with deterministic witnesses.

Search contract shared by every operation in this module: candidate witnesses
are explored in canonical vertex order and the first hit is returned, so the
witness for a given input is a pure function of that input.  For a cycle of a
given length the returned rotation starts at the cycle's least vertex and the
whole vertex sequence is lexicographically least among all cycles of that
length (rotations of the same cycle included).

Every search takes a set of lengths (``_find_cycles``): a single length
for ``find_cycle_of_length``, ``is_hamiltonian`` and
``longest_non_hamiltonian_cycle`` (which tries n - 1 down and stops at the
first hit), every length at once for ``cycle_spectrum``.  Each start runs
one depth-first walk for all of its pending lengths, as one loop over an
explicit stack that keeps, per path vertex, the mask of successors not yet
tried (``_lex_min_cycle_from``).  Why each witness is lex-least and each
absence exact (None, or a length left out, means no such cycle exists,
never that a budget ran out; the one exception is a search told to end
once a length it needs is out of reach, see ``_find_cycles``):

- the walk visits paths from its start in preorder, which is lexicographic
  order, so the first closing of a given length is that length's least
  cycle from this start;
- a branch is cut only when no pending length can complete it;
- a dead state stays dead, because pending lengths are only ever removed;
- the cover cut runs only in a walk whose sole length is the covering one;
- starts ascend, so each length's first start with a hit gives its global
  least witness, and the length is dropped from the later starts.

The cuts, each of which discards only starts, walks or branches with no
completion of a pending length:

- component: each start is searched only inside its strong component among
  the vertices not yet used as starts (a cycle through it cannot leave that
  component); the component depends only on the digraph and the start, so
  the digraph sweeps it once and keeps it (``Digraph._core``), and every
  length asked of one digraph, and its strong-connectivity test, share it;
- return bound: a branch must be able to get back to the start within the
  arcs the longest pending length leaves;
- cover: a walk that must cover every allowed vertex first checks that the
  allowed vertices have a cycle cover (each can take a distinct successor
  among them), and drops branches that strand an allowed vertex;
- dead state: a branch's remaining search depends only on its visited set
  and end vertex, so a (visited set, end vertex) pair whose subtree
  completed no pending length is not searched again when another order of
  the same vertices reaches it.

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
    out: Sequence[int], inn: Sequence[int], start: int, lengths: int, allowed: int
) -> dict[int, list[int]]:
    """Least cycle starting at ``start`` inside ``allowed`` (start included)
    of each length in the mask ``lengths`` (bit m asks for length m), by
    length; a length with no such cycle is left out.

    Exploration is depth-first with neighbors in ascending index order, so
    paths from start are met in lexicographic order (preorder), and the first
    cycle of a given length that closes is that length's least one from
    start.  One walk serves every length asked: it records each pending
    length's first closing and drops the length, and stops once none is left.
    It runs as one loop over an explicit stack: each path vertex keeps the
    mask of its successors not yet tried, a branch that passes the cuts
    pushes its vertex, and a vertex whose mask runs out is popped.  The cuts
    drop only branches that no pending length can complete, so an absent
    length is absent:

    - component: the caller passes start's strong component as allowed;
    - return bound: a branch to w must be able to get back to start within
      the arcs the longest pending length leaves (``_reach_within``);
    - cover: a walk whose sole length is the covering one (the number of
      allowed vertices) returns at once when the allowed vertices have no
      cycle cover, and cuts branches that strand an allowed vertex.  A
      shorter length may leave vertices out, so the cut runs only in such a
      walk: a covering length asked with others is searched first, in a walk
      of its own;
    - dead state: start and allowed are fixed per call, so the rest of a
      branch depends only on its visited set and end vertex (Held and Karp's
      subset-and-endpoint state).  A pair whose subtree completed no pending
      length goes into a set private to this call, capped at
      _DEAD_STATE_CAP pairs, and is not searched again when another order of
      the same vertices reaches it.  Pending lengths are only ever removed,
      so a dead pair stays dead for the rest of the walk.

    The last two vertices of a length are taken directly from the path
    vertex before them (``_close_two``): each successor w in order, then the
    least vertex that closes the cycle from it.  The longest pending length
    takes them where that vertex is reached with two arcs left, and no
    branch is pushed from there; a shorter length takes them when that
    vertex is pushed.  A 2-cycle is one mask at start.  Two masks answer the
    return bound before any sweep: an arc w -> start, or arcs
    w -> v -> start through a free v.  A branch is pushed only for a
    pending length at least three arcs past it, so either return fits and
    the sweep would say yes too: the masks save sweeps but change no prune.
    """
    size = allowed.bit_count()
    found: dict[int, list[int]] = {}
    if lengths >> size & 1 and lengths != 1 << size:  # the covering length alone first
        found = _lex_min_cycle_from(out, inn, start, 1 << size, allowed)
        lengths ^= 1 << size
    require_cover = lengths == 1 << size
    if require_cover and not _has_cycle_cover(out, allowed):
        return found
    start_bit = 1 << start
    pool = allowed & ~start_bit
    back = inn[start] & pool  # the vertices with an arc back to start
    path = [start]
    cands = [out[start] & pool]  # each path vertex's successors not yet tried
    if lengths & 4 and (close := cands[0] & back):
        found[2] = [start, (close & -close).bit_length() - 1]
        lengths ^= 4
    if not lengths:
        return found
    top = lengths.bit_length() - 1  # the longest pending length
    below = lengths ^ 1 << top  # the shorter ones
    if below & 8 and (hit := _close_two(out, cands[0], back)):
        found[3] = path + hit
        lengths ^= 8
        below ^= 8
    used = start_bit
    dead: set[int] = set()  # visited set << shift | end vertex
    shift = allowed.bit_length()
    while cands:
        depth = len(path)
        remaining = top - depth  # arcs from a new vertex back to start
        cand = cands[-1]
        if remaining < 3:
            # The longest pending length closes two vertices on from here;
            # the shorter ones closed when their vertices were pushed.
            if remaining == 2 and (hit := _close_two(out, cand, pool & ~used & back)):
                found[top] = path + hit
                lengths ^= 1 << top
                if not lengths:
                    return found
                top = lengths.bit_length() - 1
                below = lengths ^ 1 << top
            cand = 0
        # A state is worth remembering once two interior vertices could have
        # come in either order.
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
            # a shorter length that closes two vertices past w
            if below and below >> depth + 3 & 1 and (
                hit := _close_two(out, cands[-1], free & back)
            ):
                found[depth + 3] = path + hit
                lengths ^= 1 << depth + 3
                below ^= 1 << depth + 3
            break
        else:
            cands.pop()
            w = path.pop()
            if depth >= 3 and len(dead) < _DEAD_STATE_CAP:  # the parent's memo
                dead.add(used << shift | w)
            used ^= 1 << w
    return found


def _close_two(out: Sequence[int], cand: int, last: int) -> list[int] | None:
    """[w, v] for the least w in cand, then the least v in last other than w
    with an arc w -> v, or None."""
    while cand:
        low = cand & -cand
        cand ^= low
        close = out[low.bit_length() - 1] & last & ~low
        if close:
            return [low.bit_length() - 1, (close & -close).bit_length() - 1]
    return None


def _find_cycles(D: Digraph, lengths: int, need: int = 0) -> dict[int, list[int]]:
    """Lex-min cycle of each length in the mask ``lengths`` (bit m asks for
    length m) that D has, by length; an absent length is left out.

    Starts ascend in canonical order and each walk only uses later vertices,
    so a length's first start with a hit gives its global lex-min witness,
    and the length is then dropped.  Each start runs one walk for all its
    pending lengths that fit inside its strong component among itself and
    the later vertices (a cycle through start cannot leave it), read from
    D's component memo (``Digraph._core``): the component depends only on D
    and the start, so every length asked of one D sweeps it once.

    need, a mask of lengths without which the caller has no use for the
    map (claim 1.9's premise), ends the search at the first start where one
    of them is still pending and no longer fits; the map may then miss
    lengths that D has.
    """
    out, inn, n = D._out, D._in, D.n
    found: dict[int, list[int]] = {}
    for start in range(n - 1):
        fit = (2 << n - start) - 1  # the lengths that fit in the vertices from start on
        if not lengths & fit or lengths & need & ~fit:
            break
        core = D._core(start)
        fits = lengths & (2 << core.bit_count()) - 1
        if fits:
            for m, hit in _lex_min_cycle_from(out, inn, start, fits, core).items():
                found[m] = hit
                lengths ^= 1 << m
    return found


def _length_mask(D: Digraph, top: int) -> int:
    """The lengths 2..top a cycle of D can have, as a mask (bit m for length
    m): in a bipartite host only the even ones."""
    mask = (2 << top) - 1 & ~3
    if isinstance(D, BipartiteDigraph):
        mask &= int("01" * (top // 2 + 1), 2)  # the even bits 0..top
    return mask


def _as_cycle(D: Digraph, hit: list[int]) -> Cycle:
    return Cycle(tuple(D._vertex(i) for i in hit))


# -- public operations -----------------------------------------------------------


def find_cycle_of_length(D: Digraph, m: int) -> Cycle | None:
    """Lexicographically least cycle of exactly m vertices, or None.

    Raises BadLength unless m is an int with 2 <= m <= n.  In a bipartite
    host an odd m is immediately None (no odd cycles exist there).
    """
    _require_int(m, "cycle length", 2, D.n, error=BadLength)
    if isinstance(D, BipartiteDigraph) and m % 2:
        return None
    hit = _find_cycles(D, 1 << m).get(m)
    return None if hit is None else _as_cycle(D, hit)


def cycle_spectrum(D: Digraph, max_n: int = DEFAULT_MAX_ORDER) -> CycleSpectrum:
    """All achievable cycle lengths with lex-min witnesses.

    Exhaustive, so the order is capped: raises TooLarge above max_n, and
    BadParams for a max_n that is not an int.  Every length is searched in
    one pass over the starts (``_find_cycles``); a bipartite host asks for
    no odd length.
    """
    _require_int(max_n, "order cap")
    if D.n > max_n:
        raise TooLarge(f"spectrum scan capped at order {max_n}, got {D.n}")
    side = D.a if isinstance(D, BipartiteDigraph) else None
    found = _find_cycles(D, _length_mask(D, D.n))
    witnesses = tuple((m, _as_cycle(D, found[m])) for m in sorted(found))
    return CycleSpectrum(order=D.n, side_size=side, witnesses=witnesses)


def is_hamiltonian(D: Digraph) -> bool:
    """True iff some cycle visits every vertex (needs n >= 2)."""
    if D.n < 2:
        return False
    return D.n in _find_cycles(D, 1 << D.n)


def longest_non_hamiltonian_cycle(D: Digraph, max_n: int = DEFAULT_MAX_ORDER) -> Cycle | None:
    """Longest cycle on < n vertices (lex-min witness), or None if no such
    cycle exists.  Raises TooLarge above max_n, and BadParams for a max_n
    that is not an int.  The scan is ``_longest_non_hamiltonian``'s.
    """
    hit = _longest_non_hamiltonian(D, max_n)
    return None if hit is None else _as_cycle(D, hit)


def _longest_non_hamiltonian(D: Digraph, max_n: int = DEFAULT_MAX_ORDER) -> list[int] | None:
    """longest_non_hamiltonian_cycle on vertex indices: the witness's index
    list, or None; raises as it does.

    Lengths are tried one at a time from n - 1 down (only the even ones in a
    bipartite host), and the first hit ends the scan.  A pass asking for
    every length at once could not stop there: its walks would still owe a
    proof of absence for each shorter length the spectrum skips.
    """
    _require_int(max_n, "order cap")
    if D.n > max_n:
        raise TooLarge(f"longest-cycle scan capped at order {max_n}, got {D.n}")
    step = 2 if isinstance(D, BipartiteDigraph) else 1  # n = 2a: n - 2 is even
    for m in range(D.n - step, 1, -step):
        hit = _find_cycles(D, 1 << m).get(m)
        if hit is not None:
            return hit
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
        hit = _lex_min_cycle_from(D._out, D._in, xi, 1 << m, allowed).get(m)
        if hit is None:
            raise WitnessNotFound(
                f"no cycle of length {m} through {xv} within the cycle vertices"
            )
        vs = tuple(D._vertex(i) for i in hit)
        k = vs.index(min(vs))
        found[m] = Cycle(vs[k:] + vs[:k])
    return found
