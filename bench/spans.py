"""In-memory span recorder for the traced benchmark runs.

A span is (name, start, end, parent, request id).  Spans are opened and
closed from the benchmark's own code around calls into the package, so the
package itself is never edited to be traced.  Storage is a handful of typed
arrays, which keeps a few hundred thousand spans to a few megabytes.

A span's self time is its duration minus the durations of its direct
children; the recorder is single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

NO_PARENT = -1


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self._stack: list[int] = []
        self.current_request = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int, nid: int | None = None) -> None:
        """Close span i (the innermost open one), optionally renaming it."""
        self.end[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed while span {popped} is innermost")
        if nid is not None:
            self.name[i] = nid

    def wrap(self, fn, name: str):
        """fn wrapped so every call records one span named ``name``."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write_tsv(self, path: Path, requests: int) -> None:
        """The spans of the first ``requests`` requests, one per line, with
        times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\trequest\n")
            for i in range(len(self.start)):
                if self.request[i] >= requests:
                    continue
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.3f}"
                    f"\t{(self.end[i] - t0) * 1e6:.3f}\t{self.parent[i]}\t{self.request[i]}\n"
                )


class NullRecorder:
    """Recorder stand-in that keeps nothing, for replays run only as checks."""

    current_request = 0

    def name_id(self, name: str) -> int:
        return 0

    def begin(self, nid: int) -> int:
        return 0

    def finish(self, i: int, nid: int | None = None) -> None:
        pass


def self_times(durations, parents) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    covered = [0.0] * len(durations)
    for d, p in zip(durations, parents):
        if p != NO_PARENT:
            covered[p] += d
    return [d - c for d, c in zip(durations, covered)]


def aggregate(rec: Recorder, first: int = 0) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Only spans at index >= first are counted, so one recorder can hold
    set-up spans followed by request spans and each part be summarised on its
    own.  first must be an index at which no span is open: then every span
    from it on has its parent, if any, from it on too.
    """
    lo = first
    durations = [e - s for s, e in zip(rec.start[lo:], rec.end[lo:])]
    parents = [p - lo if p >= lo else NO_PARENT for p in rec.parent[lo:]]
    selfs = self_times(durations, parents)
    table: dict[str, dict[str, float]] = {}
    for nid, d, s in zip(rec.name[lo:], durations, selfs):
        row = table.setdefault(rec.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += d
        row["self_s"] += s
    return table


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the text before its first dot."""
    return name.split(".", 1)[0]
