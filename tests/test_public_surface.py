"""Every public name has a caller outside the test suite.

A name in ``bipancyclic.__all__`` counts as used when a package module other
than ``__init__.py``, or a script under demos/, bench/ or tools/ (their
``test_*.py`` files excluded), refers to it as a name, an attribute or an
import.  Its own definition (a def, a class or an assignment target) and
mentions in docstrings or comments do not count, so a name that only the
tests call fails here.
"""

import ast
from pathlib import Path

import bipancyclic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(bipancyclic.__file__).resolve().parent


def _references(path: Path) -> set[str]:
    """Every name the file loads, every attribute it reads and every name
    it imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def _callers() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "bench", "tools"):
        files += [p for p in (ROOT / folder).glob("*.py") if not p.name.startswith("test_")]
    return set().union(*map(_references, files))


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _callers()
    assert [name for name in bipancyclic.__all__ if name not in used] == []
