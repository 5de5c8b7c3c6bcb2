"""The package names the benchmark in bench/ reaches.

The bench's own self-tests (bench/test_bench.py) sit outside the default
test paths, so a change that deletes or renames one of these names would
pass this suite and still break the benchmark run.  This test builds the
namespace bench/run.py's import_package builds, without re-importing the
package, and checks that each name resolves.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bipancyclic

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (module, dotted attribute) that bench/searchload.py and bench/cliload.py
# call outside their patch points; "top" is the package itself.
CALLED = [
    ("top", "SearchTarget"),
    ("top", "SearchConfig"),
    ("top", "run_search"),
    ("top", "sample_seed"),
    ("top", "random_bipartite"),
    ("top", "find_cycle_of_length"),
    ("top", "cycles_through_vertex"),
    ("top", "check_cycle"),
    ("top", "parse"),
    ("top", "serialize"),
    ("digraph", "BipartiteDigraph.restricted_degree"),
    ("digraph", "BipartiteDigraph.is_strong"),
    ("conditions", "bk_holds"),
    ("errors", "WitnessNotFound"),
    ("errors", "DigraphError"),
    ("families", "d8"),
    ("families", "generate"),
    ("families", "Family"),
    ("families", "Expectation"),
    ("families", "family_properties"),
    ("families", "FamilySpec.label"),
    ("cli", "main"),
]


def _load(name: str):
    """Import a bench module by path, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _modules() -> tuple[str, ...]:
    """run.MODULES, read from its source: importing run would put bench/ on
    sys.path for the rest of the session."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no MODULES")


@pytest.fixture(scope="module")
def bp():
    mods = {m: importlib.import_module(f"bipancyclic.{m}") for m in _modules()}
    return SimpleNamespace(top=bipancyclic, **mods)


def test_patch_points_resolve(bp):
    cliload = _load("cliload")
    for module, attr, _ in cliload.patch_points(bp):
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("module,name", CALLED, ids=[f"{m}.{n}" for m, n in CALLED])
def test_called_names_resolve(bp, module, name):
    obj = getattr(bp, module)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
