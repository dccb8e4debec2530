import io
import json
import subprocess
import sys

import pytest

from coxtools import INFINITY, CoxeterSystem, Report, UndecidedSignature, standard_system
from coxtools.cli import MAX_RANK, DiagramParseError, main, parse_diagram, render_diagram
from conftest import coxeter_systems

from hypothesis import given, settings


# -- parsing -------------------------------------------------------------------


def test_parse_basic_diagram():
    s = parse_diagram("rank: 3\nedge: 0 1 3\nedge: 1 2 3")
    assert s == standard_system("A3")


def test_parse_type_shortcut():
    s = parse_diagram("type: ~A2")
    assert s == standard_system("~A2")
    assert s.edges() == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_parse_inf_label_and_defaults():
    s = parse_diagram("rank: 4\nedge: 1 3 inf\n")
    assert s.label(1, 3) == INFINITY
    assert s.label(0, 1) == 2


def test_parse_comments_and_blank_lines():
    text = "# a diagram\n\nrank: 2\n  edge: 0 1 5  # dihedral\n"
    s = parse_diagram(text)
    assert s.label(0, 1) == 5


def err(text: str) -> DiagramParseError:
    with pytest.raises(DiagramParseError) as info:
        parse_diagram(text)
    return info.value


def test_parse_error_label_two():
    e = err("rank: 2\nedge: 0 1 2")
    assert (e.line, e.column) == (2, 11)
    assert "label 2 is the default" in e.message


def test_parse_error_positions():
    assert (err("bogus: 3").line, err("bogus: 3").column) == (1, 1)
    e = err("rank: 3\nedge: 0 5 3")
    assert (e.line, e.column) == (2, 9)
    assert "out of range" in e.message
    e = err("rank: 3\nedge: 1 0 3")
    assert (e.line, e.column) == (2, 9)
    e = err("rank: 3\nedge: 0 1 3\nedge: 0 1 4")
    assert (e.line, e.column) == (3, 7)
    assert "duplicate edge" in e.message
    e = err("type: Z99")
    assert (e.line, e.column) == (1, 7)
    e = err("rank: 2\nedge: 0 1 x")
    assert (e.line, e.column) == (2, 11)
    e = err("edge: 0 1 3")
    assert "before rank" in e.message
    e = err("rank: 2\nrank: 3")
    assert "duplicate rank" in e.message
    e = err("rank: x")
    assert (e.line, e.column) == (1, 7)
    e = err("")
    assert "no rank or type line" in e.message
    e = err("rank: 2\ntype: A2")
    assert "cannot follow" in e.message
    e = err("type: A2\nedge: 0 1 3")
    assert "cannot follow" in e.message


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("rank: \u00b2", 1, 7),
        ("rank: 3\nedge: 0 1 \u00b2", 2, 11),
        ("rank: 3\nedge: \u00b2 1 3", 2, 7),
        ("rank: 3\nedge: 0 \u00b2 3", 2, 9),
    ],
    ids=["rank", "label", "first-vertex", "second-vertex"],
)
def test_parse_error_on_non_decimal_digits(text, line, column):
    # superscript two passes str.isdigit but int() rejects it
    e = err(text)
    assert (e.line, e.column) == (line, column)


def test_rank_at_the_limit_is_accepted():
    assert parse_diagram(f"rank: {MAX_RANK}").rank == MAX_RANK == 1000


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 99999999999])
def test_rank_above_the_limit_is_a_parse_error(rank, monkeypatch, capsys):
    # rejected before the rank^2 label matrix is built
    e = err(f"# big\n  rank: {rank}")
    assert (e.line, e.column) == (2, 9)
    assert e.message == f"rank {rank} is above the limit {MAX_RANK}"
    code, _, stderr = run_cli(
        ["classify", "--stdin"], f"rank: {rank}\n", monkeypatch, capsys
    )
    assert code == 2
    assert stderr == f"error: line 1, column 7: {e.message}\n"


def test_parse_error_str_carries_position():
    e = err("rank: 2\nedge: 0 1 2")
    assert str(e).startswith("line 2, column 11:")


# -- rendering -----------------------------------------------------------------


def test_render_canonical_order():
    s = CoxeterSystem.from_edges(3, {(1, 2): INFINITY, (0, 1): 4})
    assert render_diagram(s) == "rank: 3\nedge: 0 1 4\nedge: 1 2 inf\n"


@given(coxeter_systems(max_rank=6))
@settings(max_examples=60)
def test_parse_render_round_trip(s):
    assert parse_diagram(render_diagram(s)) == s


# -- commands -------------------------------------------------------------------


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, errtext = capsys.readouterr()
    return code, out, errtext


def test_classify_json_shape(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["classify", "--stdin", "--format", "json"],
        stdin_text="rank: 3\nedge: 0 1 3\nedge: 1 2 3",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == [
        {"aliases": [], "name": "A3", "type": "spherical", "vertices": [0, 1, 2]}
    ]
    assert payload["spherical"] is True


def test_hyperbolic_json_witness(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["hyperbolic", "--stdin", "--format", "json"],
        stdin_text="type: ~A2",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_hyperbolic"
    assert payload["witness"]["kind"] == "affine_subset"
    assert payload["witness"]["subset"] == [0, 1, 2]


def test_parabolics_text(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["parabolics", "--stdin"],
        stdin_text="type: ~A2",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "max spherical rank: 2" in out
    assert "{0, 1, 2}" in out


def test_threshold_json(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["threshold", "--stdin", "--format", "json"],
        stdin_text="type: A1",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1
    assert payload["q"] == 71
    assert payload["bound"] == {"numerator": 1764, "denominator": 25}


def test_threshold_rank_zero_is_input_error(monkeypatch, capsys):
    code, _, errtext = run_cli(
        ["threshold", "--stdin"],
        stdin_text="rank: 0",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "error" in errtext


def test_parse_error_exit_code(monkeypatch, capsys):
    code, _, errtext = run_cli(
        ["classify", "--stdin"],
        stdin_text="rank: 2\nedge: 0 1 2",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "line 2, column 11" in errtext


def test_non_decimal_label_exit_code(monkeypatch, capsys):
    code, _, errtext = run_cli(
        ["classify", "--stdin"],
        stdin_text="rank: 3\nedge: 0 1 \u00b2\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert errtext.startswith("error: line 2, column 11:")


def test_missing_file_exit_code(capsys):
    code = main(["classify", "--input", "/nonexistent/diagram.txt"])
    capsys.readouterr()
    assert code == 2


def test_input_file(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("type: E8\n")
    code = main(["classify", "--input", str(path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "E8" in out


def test_argparse_errors_return_2(capsys):
    assert main(["classify"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_enumerate_json(capsys):
    code = main(
        ["enumerate", "--max-rank", "3", "--labels", "2,3", "--format", "json"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["per_rank"] == {"1": 1, "2": 1, "3": 2}
    assert len(payload["classes"]["3"]) == 2


def test_enumerate_bad_labels(capsys):
    for labels in ("2,x", "2,\u00b2"):
        code = main(["enumerate", "--max-rank", "3", "--labels", labels])
        _, errtext = capsys.readouterr()
        assert code == 2
        assert "bad label" in errtext


@pytest.mark.parametrize(
    "scope", [["--jobs", "0"], ["--jobs", "-2"], ["--max-rank", "-1"]]
)
@pytest.mark.parametrize(
    "command",
    [
        ["enumerate", "--max-rank", "3"],
        ["verify", "--campaign", "engine-agreement", "--max-rank", "3"],
        ["verify", "--campaign", "minimal-infinite", "--max-rank", "3"],
    ],
)
def test_bad_scope_is_input_error(command, scope, capsys):
    code = main(command + scope)
    out, errtext = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert errtext.startswith("error: ")


def test_verify_campaign_exit_zero(capsys):
    code = main(
        ["verify", "--campaign", "size-bounds", "--labels", "2,3", "--max-rank", "11"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert "[pass]" in out and "[FAIL]" not in out


def test_verify_json_contains_hash_and_meta(capsys):
    code = main(
        [
            "verify",
            "--campaign",
            "quasi-minimal",
            "--labels",
            "2,3",
            "--max-rank",
            "5",
            "--format",
            "json",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "campaign",
        "parameters",
        "results",
        "tool_version",
        "content_hash",
        "meta",
    }
    assert payload["campaign"] == "quasi-minimal"


def test_verify_claim_failure_exits_one(monkeypatch, capsys):
    failing = Report(
        "size-bounds", {}, {"claims": [{"claim": "x", "passed": False}]}
    )
    monkeypatch.setattr(
        "coxtools.experiments.verify_size_bounds", lambda *a, **k: failing
    )
    code = main(["verify", "--campaign", "size-bounds"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL]" in out


def test_verify_internal_error_exits_three(monkeypatch, capsys):
    def undecided(*args, **kwargs):
        raise UndecidedSignature("sign of a pivot undecided")

    monkeypatch.setattr("coxtools.experiments.verify_engine_agreement", undecided)
    code = main(["verify", "--campaign", "engine-agreement", "--labels", "2,3,5,inf"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == (
        "internal error: UndecidedSignature: sign of a pivot undecided"
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coxtools", "classify", "--stdin"],
        input="type: H3\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "H3" in proc.stdout
