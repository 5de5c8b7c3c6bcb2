"""Run hand-written source mutants against the fast test suite.

Usage: python3 tools/mutants.py [NAME ...]   (default: every mutant)

Each mutant replaces one exact text, which must occur exactly once, in one
file under src/bipancyclic.  For each one the script copies src/ to a
temporary directory, applies the replacement there and runs

    python -m pytest -q -x -m "not acceptance" -p no:cacheprovider

from the repository root with that copy first on PYTHONPATH, so the
checkout itself is never edited.  A failing suite kills the mutant; a
passing one lets it survive.  A mutant listed as equivalent cannot change
any answer (the table gives the reason), so it is expected to survive.
Prints one line per mutant and a summary, and exits 1 if a mutant not
listed as equivalent survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUITE = ["-m", "pytest", "-q", "-x", "-m", "not acceptance", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/bipancyclic
    old: str
    new: str
    equivalent: str = ""  # why no input can tell the mutant apart, if none can


MUTANTS = (
    Mutant(
        "bk-low-at-threshold",
        "conditions.py",
        "if out and out.bit_count() + inn.bit_count() < threshold:",
        "if out and out.bit_count() + inn.bit_count() <= threshold:",
    ),
    Mutant(
        "two-sided-a-for-a-plus-1",
        "conditions.py",
        "du >= 2 * a - 1 and dv >= a + 1 or dv >= 2 * a - 1 and du >= a + 1",
        "du >= 2 * a - 1 and dv >= a or dv >= 2 * a - 1 and du >= a",
    ),
    Mutant(
        "certificate-from-length-4",
        "verify.py",
        "    for m in range(2, top + 1, 2):\n        if m not in found:",
        "    for m in range(4, top + 1, 2):\n        if m not in found:",
    ),
    Mutant(
        "1.7-takes-a-6-cycle-at-order-8",
        "verify.py",
        "ham = _find_cycles(D, 1 << D.n).get(D.n)",
        "ham = _find_cycles(D, 1 << D.n - 2 * (D.n == 8)).get(D.n - 2 * (D.n == 8))",
    ),
    Mutant(
        "3.2-takes-a-2-cycle",
        "verify.py",
        "if cycle is not None and len(cycle) >= 4:",
        "if cycle is not None and len(cycle) >= 2:",
    ),
    Mutant(
        "1.8-takes-a-2a-4-cycle",
        "verify.py",
        "    cycle = _find_cycles(D, 1 << 2 * D.a - 2).get(2 * D.a - 2)\n",
        "    cycle = _find_cycles(D, 1 << 2 * D.a - 2).get(2 * D.a - 2)"
        " or _find_cycles(D, 1 << 2 * D.a - 4).get(2 * D.a - 4)\n",
    ),
    Mutant(
        "3.4-length-at-least",
        "verify.py",
        "if len(cycle) == 2 * D.a - 2:",
        "if len(cycle) >= 2 * D.a - 2:",
        "a non-Hamiltonian cycle in a balanced bipartite host has length at most 2a - 2",
    ),
    Mutant(
        "directed-cycle-without-in-degrees",
        "digraph.py",
        "        if any(m.bit_count() != 1 for m in self._in):\n            return False\n",
        "",
        "out-degree 1 everywhere and strong connectivity force in-degree 1",
    ),
    Mutant(
        "no-dead-state-memo",
        "cycles.py",
        "_DEAD_STATE_CAP = 1 << 18",
        "_DEAD_STATE_CAP = 0",
    ),
    Mutant(
        "prune-by-shortest-pending-length",
        "cycles.py",
        "remaining = top - depth",
        "remaining = (lengths & -lengths).bit_length() - 1 - depth",
    ),
    Mutant(
        "cover-cut-with-other-lengths",
        "cycles.py",
        "    if lengths >> size & 1 and lengths != 1 << size:"
        "  # the covering length alone first\n"
        "        found = _lex_min_cycle_from(out, inn, start, 1 << size, allowed)\n"
        "        lengths ^= 1 << size\n"
        "    require_cover = lengths == 1 << size\n",
        "    require_cover = lengths >> size & 1\n",
    ),
    Mutant(
        "two-vertex-close-only-for-the-longest",
        "cycles.py",
        "if below and below >> depth + 3 & 1 and (",
        "if False and (",
    ),
    Mutant(
        "screen-drops-its-last-gate",
        "conditions.py",
        "    for clause in _search_row(row)[0]:\n",
        "    for clause in _search_row(row)[0][:-1]:\n",
    ),
    Mutant(
        "missed-premise-counts-as-satisfying",
        "verify.py",
        "        if found is None:\n            return 0, []\n",
        "        if found is None:\n            return 1, []\n",
    ),
    Mutant(
        "longest-scan-goes-on-after-a-hit",
        "cycles.py",
        "    for m in range(D.n - step, 1, -step):\n"
        "        hit = _find_cycles(D, 1 << m).get(m)\n"
        "        if hit is not None:\n"
        "            return hit\n"
        "    return None\n",
        "    first = None\n"
        "    for m in range(D.n - step, 1, -step):\n"
        "        hit = _find_cycles(D, 1 << m).get(m)\n"
        "        if first is None:\n"
        "            first = hit\n"
        "    return first\n",
    ),
)


def apply(mutant: Mutant, package: Path) -> None:
    """Replace the mutant's old text in its file under package; the text must
    occur exactly once."""
    path = package / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) for one mutant, run on a temporary copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src / "bipancyclic")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *SUITE], cwd=ROOT, env=env, capture_output=True, text=True
        )
        return done.returncode != 0, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    known = {m.name for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = []
    for mutant in chosen:
        killed, seconds = run(mutant)
        status = "killed" if killed else "survived"
        note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{status:8} {mutant.name} [{seconds:.0f}s]{note}", flush=True)
        if not killed and not mutant.equivalent:
            survivors.append(mutant.name)
    print(f"mutants: {len(chosen)}; surviving, not equivalent: {' '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
