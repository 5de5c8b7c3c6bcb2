"""Command-line behaviour: byte-stable stdout, exit codes, JSON mode."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bipancyclic import (
    BipartiteDigraph,
    Conclusion,
    Theorem,
    TheoremVerdict,
    check_theorem_hypotheses,
    complete_bipartite,
    d8,
    directed_cycle,
    serialize,
)
from bipancyclic import cli
from bipancyclic.cli import main, render_verdict

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def d8_file(tmp_path):
    path = tmp_path / "d8.txt"
    path.write_text(serialize(d8()))
    return str(path)


@pytest.fixture
def c8_file(tmp_path):
    path = tmp_path / "c8.txt"
    path.write_text(serialize(directed_cycle(4)))
    return str(path)


class TestGen:
    def test_d8_matches_golden(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "--family", "d8")
        assert rc == 0
        assert out == (GOLDEN / "d8.txt").read_text()

    def test_sized_family(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "--family", "directed-cycle", "--size", "3")
        assert rc == 0
        assert out == serialize(directed_cycle(3))

    def test_missing_size_is_data_error(self, capsys):
        rc, out, err = run_cli(capsys, "gen", "--family", "hmm")
        assert rc == 65 and out == ""
        assert err.startswith("error: ")

    def test_unknown_family_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "gen", "--family", "nope")
        assert rc == 64 and "error:" in err

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "--family", "d8", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["order"] == 8 and payload["arcs"] == 20
        assert payload["serialization"] == (GOLDEN / "d8.txt").read_text()
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestCheck:
    def test_bk_on_d8(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "check", "--bk", "1", d8_file)
        assert rc == 0
        assert out == (
            "condition: B_1\n"
            "threshold: 7\n"
            "pairs_checked: 10\n"
            "holds: true\n"
            "worst_pair: x0 x2\n"
            "worst_pair_witness: y0\n"
            "worst_max_degree: 7\n"
        )

    def test_bk_vacuous_on_directed_cycle(self, capsys, c8_file):
        rc, out, _ = run_cli(capsys, "check", "--bk", "1", c8_file)
        assert rc == 0
        assert "pairs_checked: 0" in out and "holds: true" in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(d8())))
        rc, out, _ = run_cli(capsys, "check", "--bk", "2", "-")
        assert rc == 0 and "holds: false" in out

    def test_two_sided_needs_bipartite(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("general n=2\nv0 v1\nv1 v0\n")
        rc, _, err = run_cli(capsys, "check", "--two-sided", str(path))
        assert rc == 65 and "bipartite" in err

    def test_two_sided_json(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "check", "--two-sided", d8_file, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["failing_pair"] == ["x0", "x2"]

    def test_bk_and_two_sided_exclusive(self, capsys, d8_file):
        rc, _, _ = run_cli(capsys, "check", "--bk", "1", "--two-sided", d8_file)
        assert rc == 64


class TestCycles:
    def test_spectrum(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "cycles", d8_file)
        assert rc == 0
        assert out == (
            "order: 8\n"
            "side_size: 4\n"
            "lengths: 2 4 6\n"
            "cycle 2: x0 y0\n"
            "cycle 4: x0 y0 x1 y1\n"
            "cycle 6: x0 y0 x2 y3 x3 y1\n"
            "even_pancyclic: false\n"
        )

    def test_length_witness(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "cycles", "--length", "6", d8_file)
        assert rc == 0
        assert out == "length: 6\ncycle: x0 y0 x2 y3 x3 y1\n"

    def test_length_absent(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "cycles", "--length", "8", d8_file)
        assert rc == 0
        assert out == "length: 8\ncycle: absent\n"

    def test_longest_non_hamiltonian(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "cycles", "--longest-non-hamiltonian", d8_file)
        assert rc == 0
        assert out == "longest_non_hamiltonian: 6\ncycle: x0 y0 x2 y3 x3 y1\n"

    def test_longest_absent(self, capsys, c8_file):
        rc, out, _ = run_cli(capsys, "cycles", "--longest-non-hamiltonian", c8_file)
        assert rc == 0 and out == "longest_non_hamiltonian: absent\n"

    def test_selectors_exclusive(self, capsys, d8_file):
        rc, _, _ = run_cli(
            capsys, "cycles", "--length", "4", "--longest-non-hamiltonian", d8_file
        )
        assert rc == 64

    def test_max_n_cap(self, capsys, tmp_path):
        from bipancyclic import complete_bipartite

        path = tmp_path / "big.txt"
        path.write_text(serialize(complete_bipartite(5)))
        rc, _, err = run_cli(capsys, "cycles", "--max-n", "8", str(path))
        assert rc == 65 and "error:" in err

    def test_json(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "cycles", d8_file, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["lengths"] == [2, 4, 6]
        assert payload["witnesses"]["6"] == "x0 y0 x2 y3 x3 y1"
        assert payload["even_pancyclic"] is False


class TestCertify:
    def test_d8_exception_verdict(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(d8())))
        rc, out, _ = run_cli(capsys, "certify", "--theorem", "1.10", "-")
        assert rc == 0
        assert out == (
            "claim: 1.10\n"
            "hypotheses: satisfied\n"
            "outcome: conclusion\n"
            "conclusion: isomorphic to the 8-vertex exception\n"
            "mapping: sides preserved: x0->x0 x1->x1 x2->x2 x3->x3"
            " y0->y0 y1->y1 y2->y2 y3->y3\n"
        )

    def test_hypotheses_not_met_exits_1(self, capsys, tmp_path):
        from bipancyclic import complete_bipartite

        path = tmp_path / "k33.txt"
        path.write_text(serialize(complete_bipartite(3)))
        rc, out, _ = run_cli(capsys, "certify", "--theorem", "1.10", str(path))
        assert rc == 1
        assert "hypotheses: not satisfied" in out
        assert "  - order: needs side size >= 4, got 3" in out
        assert "outcome: hypotheses-not-met" in out

    def test_directed_cycle_claim_1_8(self, capsys, c8_file):
        rc, out, _ = run_cli(capsys, "certify", "--theorem", "1.8", c8_file)
        assert rc == 0
        assert "conclusion: the digraph is a directed cycle" in out

    def test_json(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "certify", "--theorem", "1.9", d8_file, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["outcome"] == "conclusion"
        assert payload["conclusion"]["kind"] == "pancyclic-certificate"
        assert list(payload["conclusion"]["cycles"]) == ["2", "4", "6"]

    def test_unknown_theorem_is_usage_error(self, capsys, d8_file):
        rc, _, _ = run_cli(capsys, "certify", "--theorem", "9.9", d8_file)
        assert rc == 64

    def test_lemma_3_3_is_search_only(self, capsys, d8_file):
        rc, out, err = run_cli(capsys, "certify", "--theorem", "3.3", d8_file)
        assert rc == 65 and out == ""
        assert err.startswith("error: ") and "search --target 3.3" in err

    def test_longest_cycle_cap_is_data_error(self, capsys, tmp_path):
        # n = 26 meets lemma 3.2's hypotheses but is above the scan's cap of 24
        path = tmp_path / "k13.txt"
        path.write_text(serialize(complete_bipartite(13)))
        rc, out, err = run_cli(capsys, "certify", "--theorem", "3.2", str(path))
        assert rc == 65 and out == ""
        assert err == "error: longest-cycle scan capped at order 24, got 26\n"


# Not strongly connected, side size 3, and x0/x1 dominate y0 with degree 1
# each, so the order, connectivity and degree clauses all fail at once.
NOT_STRONG_A3 = BipartiteDigraph(3, [("x0", "y0"), ("x1", "y0")])

CERTIFY_GOLDENS = [
    # (golden stem, claim, input, exit code)
    ("1.6-complete-bipartite-4", "1.6", complete_bipartite(4), 0),
    ("1.7-complete-bipartite-4", "1.7", complete_bipartite(4), 0),
    ("1.8-directed-cycle-4", "1.8", directed_cycle(4), 0),
    ("1.8-d8", "1.8", d8(), 0),
    ("1.10-d8", "1.10", d8(), 0),
    ("1.8-not-strong-a3", "1.8", NOT_STRONG_A3, 1),
    ("1.9-not-strong-a3", "1.9", NOT_STRONG_A3, 1),
    ("3.2-d8", "3.2", d8(), 0),
    ("3.4-complete-bipartite-4", "3.4", complete_bipartite(4), 0),
    ("3.4-d8", "3.4", d8(), 1),  # only the bypass premise fails
]


def _violation_verdict():
    """A hand-built 1.10 verdict carrying a violation (no real input has one)."""
    return TheoremVerdict(
        Theorem.T1_10,
        check_theorem_hypotheses(d8(), Theorem.T1_10),
        Conclusion(
            "violation",
            claim="no cycle of length 8 (even lengths 2..8 claimed);"
            " not the 8-vertex exception",
            serialization=serialize(d8()),
        ),
    )


class TestCertifyGoldens:
    """certify text and --json, byte for byte, one golden pair per case."""

    @pytest.mark.parametrize(
        "stem,claim,D,code", CERTIFY_GOLDENS, ids=[c[0] for c in CERTIFY_GOLDENS]
    )
    def test_matches_golden(self, capsys, tmp_path, stem, claim, D, code):
        path = tmp_path / "in.txt"
        path.write_text(serialize(D))
        for suffix, extra in (("", ()), ("-json", ("--json",))):
            rc, out, _ = run_cli(capsys, "certify", "--theorem", claim, str(path), *extra)
            assert rc == code
            assert out == (GOLDEN / f"certify-{stem}{suffix}.txt").read_text()

    def test_violation_matches_golden(self, capsys, monkeypatch, d8_file):
        verdict = _violation_verdict()
        golden = (GOLDEN / "certify-violation.txt").read_text()
        assert render_verdict(verdict) + "\n" == golden
        monkeypatch.setattr(cli, "verify_theorem", lambda D, theorem: verdict)
        for suffix, extra in (("", ()), ("-json", ("--json",))):
            rc, out, _ = run_cli(capsys, "certify", "--theorem", "1.10", d8_file, *extra)
            assert rc == 2
            assert out == (GOLDEN / f"certify-violation{suffix}.txt").read_text()


SEARCH_GRID = ("--a", "4", "5", "--p", "0.5", "0.9", "--samples", "40", "--seed", "3")


class TestSearchGoldens:
    """search text and --json, byte for byte, one golden pair per target."""

    @pytest.mark.parametrize("target", [t.value for t in Theorem])
    def test_matches_golden(self, capsys, target):
        for suffix, extra in (("", ()), ("-json", ("--json",))):
            rc, out, _ = run_cli(capsys, "search", "--target", target, *SEARCH_GRID, *extra)
            assert rc == 0
            assert out == (GOLDEN / f"search-{target}{suffix}.txt").read_text()


class TestSearch:
    def test_clean_run(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "search", "--target", "1.9", "--a", "4", "--p", "0.7",
            "--samples", "50", "--seed", "1",
        )
        assert rc == 0
        assert "violations: 0" in out
        assert "runtime" not in out and "runtime" in err

    def test_output_is_stable(self, capsys):
        argv = ("search", "--target", "1.8", "--a", "4", "--p", "0.5", "--samples", "30")
        rc1, out1, _ = run_cli(capsys, *argv)
        rc2, out2, _ = run_cli(capsys, *argv)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_json(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "search", "--target", "3.3", "--a", "4", "--p", "0.5",
            "--samples", "20", "--json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["samples_run"] == 20
        assert len(payload["cells"]) == 1 and payload["violations"] == []

    def test_bad_grid_is_data_error(self, capsys):
        rc, _, err = run_cli(
            capsys, "search", "--target", "1.8", "--a", "13", "--samples", "1"
        )
        assert rc == 65 and "error:" in err

    def test_sample_count_over_cap_is_data_error(self, capsys):
        # rejected before any work is planned: no block list, no MemoryError
        rc, out, err = run_cli(
            capsys, "search", "--target", "1.8", "--samples", "1000000000000"
        )
        assert rc == 65 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "grid", [("--a", "4", "4", "--p", "0.7"), ("--a", "4", "--p", "0.7", "0.70")]
    )
    def test_repeated_grid_value_is_data_error(self, capsys, grid):
        rc, out, err = run_cli(capsys, "search", "--target", "1.8", *grid, "--samples", "10")
        assert rc == 65 and out == ""
        assert err.startswith("error: ") and "distinct" in err


class TestIsoD8Command:
    def test_positive(self, capsys, d8_file):
        rc, out, _ = run_cli(capsys, "iso-d8", d8_file)
        assert rc == 0
        assert out.splitlines()[0] == "isomorphic: true"
        assert out.splitlines()[1].startswith("mapping: sides preserved:")

    def test_negative(self, capsys, c8_file):
        rc, out, _ = run_cli(capsys, "iso-d8", c8_file)
        assert rc == 0 and out == "isomorphic: false\n"

    def test_json(self, capsys, c8_file):
        rc, out, _ = run_cli(capsys, "iso-d8", c8_file, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload == {"isomorphic": False, "mapping": None, "side_swap": None}


class TestErrors:
    def test_no_subcommand(self, capsys):
        rc, _, _ = run_cli(capsys)
        assert rc == 64

    def test_help_exits_0(self, capsys):
        rc, out, _ = run_cli(capsys, "--help")
        assert rc == 0 and "usage:" in out

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("bipartite a=2\nx0 y0\nx0 x1\n")
        rc, _, err = run_cli(capsys, "check", "--bk", "0", str(path))
        assert rc == 65
        assert err == "error: line 3: arc x0 x1 stays within one side\n"

    def test_bad_vertex_name(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("bipartite a=2\nx0 y\u00b2\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, "cycles", str(path))
        assert rc == 65 and out == ""
        assert err == "error: line 2: bad vertex name 'y\u00b2'\n"

    @pytest.mark.parametrize(
        "header",
        ["bipartite a=" + "7" * 5000, "bipartite a=1000000000000000"],
        ids=["a5000digits", "a1e15"],
    )
    def test_header_over_order_cap(self, capsys, tmp_path, header):
        path = tmp_path / "huge.txt"
        path.write_text(header + "\nx0 y0\n")
        rc, out, err = run_cli(capsys, "cycles", str(path))
        assert rc == 65 and out == ""
        assert err == "error: line 1: order exceeds the cap of 256 vertices\n"

    def test_family_size_over_order_cap(self, capsys):
        rc, out, err = run_cli(capsys, "gen", "--family", "complete-bipartite", "--size", "129")
        assert rc == 65 and out == ""
        assert err == "error: complete-bipartite needs size <= 128, got 129\n"

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "cycles", "/nonexistent/d.txt")
        assert rc == 65 and err.startswith("error: ")


def test_module_entry_point_pipe(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "bipancyclic", "gen", "--family", "d8"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0
    certify = subprocess.run(
        [sys.executable, "-m", "bipancyclic", "certify", "--theorem", "1.7", "-"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert certify.returncode == 0
    assert "outcome: conclusion" in certify.stdout
