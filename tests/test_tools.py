"""The measurement scripts in tools/: code-line counter and CLI corpus hash."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    """Import a tools/ script by path; tools/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"_tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class C:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        return os.path.join(
            x,
            "not a docstring",
        )
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # import, class, def, and the four lines of the call
    assert _load("code_lines").code_lines(SNIPPET) == 7


def test_cli_corpus_digest_is_stable(capsys):
    corpus = _load("cli_corpus")
    code, out, err = corpus.run(
        ["search", "--target", "1.9", "--a", "4", "--p", "0.9", "--samples", "2"]
    )
    assert code == 0 and "samples run: 2" in out and err == ""  # runtime line dropped
    # The exception and twelve family members, 17 commands each, text and
    # --json.  The digest pins the bytes of certify, cycles (spectrum,
    # longest non-Hamiltonian and single lengths, one of them out of range)
    # and iso-d8; a run in the same process must not change them.
    pinned = (
        "calls: 442\n"
        "sha256: e45098cd8f772609bfddae957d7897f71b9b4c61d0fd37268383d13776dca5e9\n"
    )
    for _ in range(2):
        assert corpus.main(["--per-cell", "0"]) == 0
        assert capsys.readouterr().out == pinned


def test_mutant_table_texts_occur_once():
    # Each mutant's old text must name exactly one place in src/, so the
    # table cannot silently stop mutating anything; running the mutants is
    # left to tools/mutants.py.
    mutants = _load("mutants")
    package = mutants.SRC / "bipancyclic"
    sources = {p: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert sources[package / m.file].count(m.old) == 1, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name


def test_mutant_timeout_counts_as_killed(monkeypatch, capsys):
    # A suite that runs past the time limit kills its mutant, printed as a
    # timeout; a passing suite lets it survive, a failing one kills it.
    mutants = _load("mutants")
    name = mutants.MUTANTS[0].name
    seen = []

    def suite(result):
        def fake_run(args, **kwargs):
            seen.append(kwargs["timeout"])
            if result is None:
                raise mutants.subprocess.TimeoutExpired(args, kwargs["timeout"])
            return mutants.subprocess.CompletedProcess(args, result, "", "")

        return fake_run

    for result, outcome, code in ((None, "timeout", 0), (1, "killed", 0), (0, "survived", 1)):
        monkeypatch.setattr(mutants.subprocess, "run", suite(result))
        assert mutants.main([name]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == [outcome, name]
        assert lines[1].endswith(name if outcome == "survived" else "none")
    assert seen == [mutants.TIMEOUT] * 3
