"""Immutable digraph model with a validated balanced bipartite refinement.

Vertices are named ``v0..v{n-1}`` in a general digraph and ``x0..x{a-1}`` /
``y0..y{a-1}`` in a balanced bipartite one.  Adjacency is stored as one
integer bitmask per vertex (bit j of ``_out[i]`` set iff the arc i -> j is
present), which keeps neighborhood intersections, reachability sweeps, and
the random sampler cheap at the orders this package targets (n <= ~30).

The canonical vertex order is (side letter, index): x0 < x1 < ... < y0 < ...
All iteration, serialization, and tie-breaking in the package follows it, and
it equals ascending index order, so walking a mask's bits upward visits
vertices in canonical order.
"""

from __future__ import annotations

import hashlib
import re
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    BadParams,
    DigraphError,
    DuplicateArc,
    Loop,
    ParseError,
    UnknownVertex,
    WithinSideArc,
)

# Largest order accepted from outside input (text headers, family sizes):
# ten times the exhaustive spectrum scan's cap, and far below any size whose
# adjacency allocation could exhaust memory.
MAX_INPUT_ORDER = 256

_VERTEX_NAME = re.compile(r"[xyv][0-9]{1,18}")


class Side(str, Enum):
    X = "x"
    Y = "y"
    GENERAL = "v"


@dataclass(frozen=True, order=True)
class Vertex:
    """A named vertex; ordering is (side letter, index).

    Side compares by its letter, so a Vertex sorts exactly like its name:
    x* < y*, and v* sorts alone in general digraphs.
    """

    side: Side
    index: int

    def __str__(self) -> str:
        return f"{self.side.value}{self.index}"

    def __repr__(self) -> str:
        return f"Vertex({self})"

    @staticmethod
    def parse(name: str) -> "Vertex":
        """Parse ``x3``/``y0``/``v7``; raises UnknownVertex on anything else.

        The index is 1 to 18 ASCII digits: int() rejects digits such as "²",
        and refuses suffixes beyond Python's digit limit.
        """
        if _VERTEX_NAME.fullmatch(name):
            return Vertex(Side(name[0]), int(name[1:]))
        raise UnknownVertex(f"bad vertex name {name!r}")


VertexLike = Union[Vertex, str]


def _as_vertex(v: VertexLike) -> Vertex:
    return v if isinstance(v, Vertex) else Vertex.parse(v)


def _require_int(
    value: object, what: str, low: int | None = None, high: int | None = None, error=BadParams
) -> None:
    """Raise error unless value is an int, not a bool, within [low, high].

    The one owner of the package's integer argument rule.  Its messages:
    "<what> must be an int, got <value!r>", then "<what> must be >= <low>,
    got <value>" when only low is given, or "<what> must be in [<low>,
    <high>], got <value>" when high is given too.  Sizes, margins, cycle
    lengths, order caps, seeds and sample indices pass through here: a bool
    side size would build a digraph serialized as ``bipartite a=True``,
    which parse rejects, and a seed "3" would draw the digraph of seed 3.
    """
    if type(value) is not int:
        raise error(f"{what} must be an int, got {value!r}")
    if high is not None and not low <= value <= high:
        raise error(f"{what} must be in [{low}, {high}], got {value}")
    if high is None and low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")


def _require_probability(p: object, error=BadParams) -> None:
    """Raise error unless p is a number (int or float, not a bool) in [0, 1]."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise error(f"arc probability must be a number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise error(f"arc probability must be in [0, 1], got {p}")


class Degree(NamedTuple):
    out: int
    in_: int
    total: int


@dataclass(frozen=True)
class DominatingPair:
    """An unordered pair {u, v} with a common out-neighbor.

    ``u < v`` in canonical order and ``witness`` is the least common
    out-neighbor.  In a bipartite host u and v necessarily lie on the same
    side: a common out-neighbor of a cross pair would have to sit on both
    sides at once.
    """

    u: Vertex
    v: Vertex
    witness: Vertex

    def __str__(self) -> str:
        return f"{{{self.u}, {self.v}}} -> {self.witness}"


class Digraph:
    """A finite digraph without loops or duplicate arcs.

    Instances are immutable: all mutating surface is absent and internals are
    tuples of ints.  Equality is structural (same class, order, arcs).

    The private ``_cores`` dict caches ``_core``, a pure function of the
    digraph, so it never changes what the digraph is: equality and hashing
    ignore it.  It maps a start index to the start's strong component among
    the start and the later vertices, filled the first time a start is
    asked, so strong connectivity and every cycle search of one digraph
    share one sweep per start.
    """

    __slots__ = ("n", "_out", "_in", "_cores")

    def __init__(self, n: int, arcs: Iterable[tuple[VertexLike, VertexLike]]):
        _require_int(n, "order")
        if n < 0:
            raise BadParams(f"order must be nonnegative, got {n}")
        self.n = n
        out = [0] * n
        inn = [0] * n
        for tail, head in arcs:
            tail, head = _as_vertex(tail), _as_vertex(head)
            t = self._index(tail)
            h = self._index(head)
            self._check_sides(tail, head)
            if t == h:
                raise Loop(f"loop at {tail}")
            if out[t] >> h & 1:
                raise DuplicateArc(f"duplicate arc {tail} {head}")
            out[t] |= 1 << h
            inn[h] |= 1 << t
        self._out = tuple(out)
        self._in = tuple(inn)
        self._cores: dict[int, int] = {}

    # -- vertex <-> index -------------------------------------------------

    def _index(self, v: Vertex) -> int:
        if v.side is not Side.GENERAL or not 0 <= v.index < self.n:
            raise UnknownVertex(f"unknown vertex {v}")
        return v.index

    def _vertex(self, i: int) -> Vertex:
        return Vertex(Side.GENERAL, i)

    def _check_sides(self, tail: Vertex, head: Vertex) -> None:
        pass  # no side structure in a general digraph

    # -- basic queries -----------------------------------------------------

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(self._vertex(i) for i in range(self.n))

    def arcs(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All arcs in canonical order (tail first, then head)."""
        for i in range(self.n):
            for j in _bits(self._out[i]):
                yield self._vertex(i), self._vertex(j)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self._out)

    def degree(self, v: VertexLike) -> Degree:
        i = self._index(_as_vertex(v))
        o = self._out[i].bit_count()
        in_ = self._in[i].bit_count()
        return Degree(o, in_, o + in_)

    def restricted_degree(self, v: VertexLike, members: Iterable[VertexLike]) -> int:
        """Arcs between v and the member set, counted with direction: out + in."""
        i = self._index(_as_vertex(v))
        mask = 0
        for w in members:
            mask |= 1 << self._index(_as_vertex(w))
        mask &= ~(1 << i)
        return (self._out[i] & mask).bit_count() + (self._in[i] & mask).bit_count()

    # -- pair queries --------------------------------------------------------

    def _dominating_indices(self) -> Iterator[tuple[int, int, int]]:
        """(i, j, least common out-neighbor) for every index pair i < j that
        has one, in lex order, which is canonical order."""
        out = self._out
        for i, oi in enumerate(out):
            if oi:
                for j in range(i + 1, self.n):
                    if common := oi & out[j]:
                        yield i, j, (common & -common).bit_length() - 1

    def _total_degrees(self) -> list[int]:
        """Total degree (out + in) of every index."""
        return [o.bit_count() + i.bit_count() for o, i in zip(self._out, self._in)]

    # -- connectivity ----------------------------------------------------------

    def _core(self, start: int) -> int:
        """Bitmask of start's strong component among start and the later
        vertices: those it reaches and is reached from through them.

        The only component sweep in the package, run once per start and
        kept in ``_cores``.  A cycle through start that uses no earlier
        vertex stays inside this component, whatever its length.
        """
        core = self._cores.get(start)
        if core is None:
            rest = (1 << self.n) - 1 >> start << start
            core = self._cores[start] = _reach(self._out, start, rest) & _reach(
                self._in, start, rest
            )
        return core

    def is_strong(self) -> bool:
        """True iff every vertex reaches every other (n <= 1 counts as strong)."""
        if self.n <= 1:
            return True
        # a vertex without out-arcs or in-arcs reaches or is reached by none
        if 0 in self._out or 0 in self._in:
            return False
        return self._core(0) == (1 << self.n) - 1

    def is_directed_cycle(self) -> bool:
        """True iff the digraph is a single directed cycle through all vertices."""
        if self.n < 2:
            return False
        if any(m.bit_count() != 1 for m in self._out):
            return False
        if any(m.bit_count() != 1 for m in self._in):
            return False
        return self.is_strong()

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.n, self._out))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, arcs={self.arc_count})"


class BipartiteDigraph(Digraph):
    """Balanced bipartite digraph with sides x0..x{a-1} and y0..y{a-1}.

    Internally x_i maps to index i and y_j to index a + j.  Every arc must
    cross sides; within-side arcs are rejected at construction.
    """

    __slots__ = ("a",)

    def __init__(self, a: int, arcs: Iterable[tuple[VertexLike, VertexLike]]):
        _require_int(a, "side size")
        if a < 0:
            raise BadParams(f"side size must be nonnegative, got {a}")
        self.a = a
        super().__init__(2 * a, arcs)

    def _index(self, v: Vertex) -> int:
        if v.side is Side.X and 0 <= v.index < self.a:
            return v.index
        if v.side is Side.Y and 0 <= v.index < self.a:
            return self.a + v.index
        raise UnknownVertex(f"unknown vertex {v}")

    def _vertex(self, i: int) -> Vertex:
        if i < self.a:
            return Vertex(Side.X, i)
        return Vertex(Side.Y, i - self.a)

    def _check_sides(self, tail: Vertex, head: Vertex) -> None:
        if tail.side is head.side:
            raise WithinSideArc(f"arc {tail} {head} stays within one side")

    def __repr__(self) -> str:
        return f"BipartiteDigraph(a={self.a}, arcs={self.arc_count})"


# -- reachability helper ---------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(masks: Sequence[int], src: int, allowed: int) -> int:
    """Bitmask of src plus every vertex it reaches through ``allowed`` ones."""
    seen = frontier = 1 << src
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= masks[low.bit_length() - 1]
            m ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


# -- text format -------------------------------------------------------------


def serialize(D: Digraph) -> str:
    """Canonical text form: header line, then one arc per line, LF endings.

    Arcs are sorted by (tail, head) in canonical vertex order, so equal
    digraphs serialize to byte-identical strings.
    """
    if isinstance(D, BipartiteDigraph):
        lines = [f"bipartite a={D.a}"]
    else:
        lines = [f"general n={D.n}"]
    lines.extend(f"{u} {v}" for u, v in D.arcs())
    return "\n".join(lines) + "\n"


_HEADERS = {"bipartite a": (BipartiteDigraph, 2), "general n": (Digraph, 1)}


def parse(text: str) -> Digraph:
    """Parse the canonical text form; inverse of serialize up to arc order.

    Blank lines and ``#`` comment lines are ignored.  Raises ParseError (or a
    more specific construction error) carrying the offending line number.
    A header declaring more than MAX_INPUT_ORDER vertices is a ParseError.
    """
    header: tuple[type[Digraph], int] | None = None
    arcs: list[tuple[int, Vertex, Vertex]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            kind, _, size = line.partition("=")
            if kind not in _HEADERS or not size.isdecimal():
                raise ParseError(
                    f"expected 'bipartite a=<int>' or 'general n=<int>', got {line!r}",
                    line=lineno,
                )
            cls, per_unit = _HEADERS[kind]
            # count digits before int() so a huge header costs nothing
            size = size.lstrip("0") or "0"
            if len(size) > len(str(MAX_INPUT_ORDER)) or per_unit * int(size) > MAX_INPUT_ORDER:
                raise ParseError(
                    f"order exceeds the cap of {MAX_INPUT_ORDER} vertices", line=lineno
                )
            header = (cls, int(size))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'tail head', got {line!r}", line=lineno)
        try:
            arcs.append((lineno, Vertex.parse(tokens[0]), Vertex.parse(tokens[1])))
        except UnknownVertex as exc:
            raise ParseError(str(exc), line=lineno) from None
    if header is None:
        raise ParseError("missing header line", line=max(1, len(text.splitlines())))

    # The constructor validates the arcs; this generator tracks which line's
    # arc it is checking so its errors can carry that line.
    current = 0

    def numbered() -> Iterator[tuple[Vertex, Vertex]]:
        nonlocal current
        for current, tail, head in arcs:
            yield tail, head

    cls, size = header
    try:
        return cls(size, numbered())
    except DigraphError as exc:
        raise type(exc)(str(exc), line=current) from None


# -- random sampling ----------------------------------------------------------


# array typecode per item size in bytes, for reading a block's masks in bulk
_WORD_CODES = {array(code).itemsize: code for code in "BHIQ"}


def random_bipartite(a: int, p: float, seed: int) -> BipartiteDigraph:
    """Sample a balanced bipartite digraph: each cross arc present independently
    with probability p, quantized to round(p * 65536) / 65536.

    Determinism contract: an (a, p, seed) triple yields the same digraph on
    any platform.  The draws are ``shake_256(f"{seed}|{a}")``'s first 4a^2
    bytes, read as one little-endian 16-bit draw U_k per arc slot k, in
    canonical slot order: all arcs out of x0 (heads y0..y{a-1}), then x1,
    ..., then y0 (heads x0..x{a-1}), ...  Slot k holds an arc iff
    U_k < round(p * 65536), so p = 0, 1/2 and 1 are exact, and since p is not
    part of the key the draws are coupled monotonically in p: for p <= p' at
    the same (a, seed), every arc drawn at p is drawn at p' too.

    This is a block of one seed, built whole: ``_arc_digits`` draws any
    number of seeds under the same contract, the search derives a block's
    digests from its sample indices in one pass and thresholds them the
    same way (``_threshold_digits``), and it screens a block's arc digits
    before it builds any sample from them (``_build_block``).  Raises
    BadParams for a side size or seed that is not an int, and for a p that
    is not a number in [0, 1].
    """
    _require_int(seed, "seed")
    return _build_block(a, _arc_digits(a, p, [seed]), 1)[0]


def _arc_digits(a: int, p: float, seeds: Sequence[int]) -> bytearray:
    """One ASCII digit per arc slot and seed, "1" iff the slot holds an arc
    in random_bipartite(a, p, seed): each sample's 2a^2 digits in canonical
    slot order, samples end to end in seed order.

    The seeds' digests are joined and thresholded once (_threshold_digits).
    Raises BadParams as random_bipartite does.
    """
    _require_int(a, "side size", 1)
    _require_probability(p)
    size = 4 * a * a  # draw bytes per sample
    return _threshold_digits(
        p, b"".join(hashlib.shake_256(f"{seed}|{a}".encode()).digest(size) for seed in seeds)
    )


def _threshold_digits(p: float, digests: bytes) -> bytearray:
    """The arc digits of the samples whose draws are digests, end to end:
    each sample's first 4a^2 shake_256 bytes, as random_bipartite reads
    them.  One digit per 16-bit draw, in order, "1" iff the draw is below
    round(p * 65536).

    Every step runs once over the whole block: the samples' draws and
    digits sit end to end in a few byte strings and big ints.  p is not
    checked here; the callers have checked it.
    """
    # Slot k holds an arc iff U_k < T, where U_k = 256 * hi + lo is its draw
    # and T = 256 * top + bottom the threshold, that is iff hi < top, or
    # hi == top and lo < bottom.  Each test is a byte table mapping straight
    # to ASCII "0"/"1" (top = 256 makes every hi pass the first), and "|" and
    # "&" of those digits are digits again, so one digit per slot comes out
    # in slot order: a run of a digits per (sample, tail), heads ascending.
    top, bottom = divmod(round(p * 65536), 256)
    below_top = b"1" * top + b"0" * (256 - top)
    at_top = (b"0" * top + b"1" + b"0" * 255)[:256]
    below_bottom = b"1" * bottom + b"0" * (256 - bottom)
    his, los = digests[1::2], digests[0::2]
    # A bytearray, since a bytes slice written into a bytearray is first
    # copied into a new one: 7x the cost of each write in a one-sample block.
    return bytearray(
        (
            int.from_bytes(his.translate(below_top), "big")
            | int.from_bytes(his.translate(at_top), "big")
            & int.from_bytes(los.translate(below_bottom), "big")
        ).to_bytes(len(his), "big")
    )


def _build_block(a: int, digits: bytearray, count: int) -> list[BipartiteDigraph]:
    """The count samples whose arc digits (as _arc_digits lays them out) are
    digits, in order; count must be at least 1.  int() rejects an empty
    digit string, but no caller has one: a block draws at least one seed,
    and _screen returns before it builds when no sample passes.

    Each arc slot's digits, one per sample, form one strided slice, which is
    written straight into the tail's out-field and the head's in-field of
    every sample at once; what is left per sample is two list slices and two
    tuples.
    """
    n, m = 2 * a, 2 * a * a  # order, arc slots per sample
    # Each sample gets 2n fields of the smallest machine word that holds n
    # bits, written as binary digits: its n out-masks, then its n in-masks,
    # both in vertex order.  Bit j of a field is the digit width - 1 - j
    # into it, and the fields of one sample take stride digits.
    size = next((s for s in sorted(_WORD_CODES) if 8 * s >= n), -(-n // 8))
    width = 8 * size
    stride = 2 * n * width
    fields = bytearray(b"0") * (stride * count)
    for tail in range(n):
        first_head = a if tail < a else 0
        for c in range(a):
            head = first_head + c
            arc = digits[tail * a + c :: m]
            fields[tail * width + width - 1 - head :: stride] = arc
            fields[(n + head) * width + width - 1 - tail :: stride] = arc
    raw = int(fields, 2).to_bytes(size * 2 * n * count, "big")
    if size in _WORD_CODES:
        words = array(_WORD_CODES[size], raw)
        if sys.byteorder == "little":
            words.byteswap()
        values = words.tolist()
    else:
        values = [int.from_bytes(raw[i : i + size], "big") for i in range(0, len(raw), size)]
    block = []
    for k in range(0, 2 * n * count, 2 * n):
        D = BipartiteDigraph.__new__(BipartiteDigraph)
        D.a, D.n, D._cores = a, n, {}
        D._out = tuple(values[k : k + n])
        D._in = tuple(values[k + n : k + 2 * n])
        block.append(D)
    return block
