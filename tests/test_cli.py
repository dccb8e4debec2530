import contextlib
import importlib
import io
import json
import subprocess
import sys
import time

import pytest

from coxtools import (
    INFINITY,
    AffineSubset,
    CommutingInfinitePair,
    CoxeterSystem,
    Report,
    UndecidedSignature,
    classify,
    has_affine_parabolic,
    is_hyperbolic,
    is_spherical,
    kazhdan_threshold,
    label_text,
    max_spherical_rank,
    minimal_infinite_subsets,
    standard_system,
    validate_witness,
)
from coxtools.catalog import name_rank
from coxtools.cli import MAX_RANK, DiagramParseError, main, parse_diagram, render_diagram
from conftest import coxeter_systems

from coxtools.report import system_payload
from hypothesis import given, settings, strategies as st


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


@pytest.mark.parametrize("name, rank", [("A1001", 1001), ("~A1000", 1001), ("A99999999999", 99999999999)])
def test_type_name_above_the_limit_is_a_parse_error(name, rank, monkeypatch, capsys):
    # rejected before any builder makes the rank^2 label matrix
    e = err(f"\n type: {name}")
    assert (e.line, e.column) == (2, 8)
    assert e.message == f"type {name} has rank {rank}, above the limit {MAX_RANK}"
    code, _, stderr = run_cli(["classify", "--stdin"], f"type: {name}\n", monkeypatch, capsys)
    assert code == 2
    assert stderr == f"error: line 1, column 7: {e.message}\n"


@pytest.mark.parametrize("name", ["A1000", "~A999", "D1000"])
def test_type_name_at_the_limit_is_accepted(name):
    assert parse_diagram(f"type: {name}").rank == MAX_RANK


def test_unknown_family_with_a_big_subscript_is_an_unknown_name():
    e = err("type: Q2000")
    assert (e.line, e.column, e.message) == (1, 7, "unknown diagram name 'Q2000'")


@pytest.mark.parametrize(
    "name", ["A1", "B2", "C5", "D4", "E8", "F4", "G2", "H3", "I2(7)", "I2(inf)", "E10",
             "~A1", "~A4", "~B2", "~B5", "~C2", "~D4", "~D6", "~E6", "~E8", "~F4", "~G2"],
)
def test_name_rank_is_the_rank_of_the_built_diagram(name):
    assert name_rank(name) == standard_system(name).rank


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


def test_enumerate_label_too_large_to_encode(capsys):
    code = main(["enumerate", "--max-rank", "1", "--labels", "2,3,70000"])
    _, errtext = capsys.readouterr()
    assert code == 2
    assert "label 70000 cannot be encoded" in errtext


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


def test_closed_output_pipe_exits_141_quietly():
    # the reader closes its end before the command writes a byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "coxtools", "classify", "--stdin", "--format", "json"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    _, stderr = proc.communicate("type: E8\n", timeout=60)
    assert proc.returncode == 141
    assert stderr == ""


def _disjoint_a3(copies: int) -> str:
    lines = [f"rank: {3 * copies}"]
    lines += [f"edge: {3 * k + i} {3 * k + i + 1} 3" for k in range(copies) for i in (0, 1)]
    return "\n".join(lines) + "\n"


# the subset-lattice walk visits connected sets only, so these answer at once;
# an edgeless rank-20 diagram took 5.4 s and 125 MB when it visited them all
@pytest.mark.parametrize("text, rank", [("rank: 40\n", 40), (_disjoint_a3(13), 39)])
def test_many_small_components_answer_within_a_second(text, rank, monkeypatch, capsys):
    system = parse_diagram(text)
    start = time.perf_counter()
    assert kazhdan_threshold(system).d == rank
    assert is_hyperbolic(system).hyperbolic
    assert minimal_infinite_subsets(system) == []
    assert max_spherical_rank(system) == rank
    assert time.perf_counter() - start < 1
    for command in ("threshold", "hyperbolic", "parabolics"):
        importlib.import_module("coxtools.classify")._closure.cache_clear()  # walk afresh
        start = time.perf_counter()
        code, out, _ = run_cli([command, "--stdin", "--format", "json"], text, monkeypatch, capsys)
        assert time.perf_counter() - start < 1, command
        assert code == 0
        payload = json.loads(out)
        if command == "threshold":
            assert payload["d"] == rank
        elif command == "hyperbolic":
            assert payload["verdict"] == "hyperbolic"
        else:
            assert payload["max_spherical_rank"] == rank
            assert payload["minimal_infinite"] == []


# -- the exit-code contract, as a standing property -------------------------------


def _call(argv, text):
    """main(argv) in-process on stdin text, with its exit code, stdout and stderr."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


_QUERIES = ("classify", "hyperbolic", "parabolics", "threshold")
_BIG_LABELS = (2**61 - 1, 2**200)

# grammar pieces; every rank or subscript they can form is small or above
# MAX_RANK, so an accepted diagram answers fast
_NAMES = st.builds(
    "{}{}".format,
    st.sampled_from(["A", "B", "C", "D", "E", "F", "G", "H", "I", "~A", "~B", "~C", "~D",
                     "~E", "~F", "~G", "Z", "B/C"]),
    st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 1001, 99999999999]),
)
_SMALL = st.integers(min_value=0, max_value=14).map(str)
_PIECES = st.one_of(
    st.sampled_from(["rank:", "edge:", "type:", "inf", "#", "# note", ":", "-1", "x", "²",
                     "٣", "1001", "99999999999", *map(str, _BIG_LABELS)]),
    _SMALL,
    _NAMES,
)


@st.composite
def token_texts(draw):
    """Diagram text from grammar pieces: a rank and edges or a type line,
    then up to three lines inserted or tokens replaced or deleted."""
    if draw(st.booleans()):
        lines = [["type:", draw(_NAMES)]]
    else:
        n = draw(st.integers(min_value=0, max_value=12))
        lines = [["rank:", str(n)]]
        labels = st.sampled_from(["3", "4", "5", "6", "8", "inf", *map(str, _BIG_LABELS)])
        for i in range(n - 1):
            for j in draw(st.sets(st.integers(min_value=i + 1, max_value=n - 1), max_size=2)):
                lines.append(["edge:", str(i), str(j), draw(labels)])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        line = lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))]
        at = draw(st.integers(min_value=0, max_value=len(line)))
        edit = draw(st.sampled_from(["line", "replace", "delete"]))
        if edit == "line":
            lines.insert(at % (len(lines) + 1), draw(st.lists(_PIECES, max_size=5)))
        elif edit == "replace" and at < len(line):
            line[at] = draw(_PIECES)
        elif at < len(line):
            del line[at]
    return "\n".join(" ".join(line) for line in lines)


@given(st.sampled_from(_QUERIES), token_texts())
@settings(max_examples=300)
def test_query_commands_exit_zero_or_two_on_any_token_string(command, text):
    code, _, err = _call([command, "--stdin", "--format", "json"], text)
    assert code in (0, 2), err
    assert "Traceback" not in err


@st.composite
def query_diagrams(draw):
    """Rank 0 to 12, drawn sparse often enough that paths, forks and cycles
    come up, with labels 3 to 8, inf and two far beyond any table."""
    n = draw(st.integers(min_value=0, max_value=12))
    pool = [2] * draw(st.sampled_from([2, 8, 24, 64])) + [3, 3, 4, 5, 6, 7, 8, INFINITY]
    labels = st.sampled_from(pool + list(_BIG_LABELS))
    edges = {(i, j): draw(labels) for i in range(n) for j in range(i + 1, n)}
    return CoxeterSystem.from_edges(n, {ij: m for ij, m in edges.items() if m != 2})


def _witness_from_payload(w):
    if w is None:
        return None
    if w["kind"] == "affine_subset":
        return AffineSubset(tuple(w["subset"]))
    assert w["kind"] == "commuting_infinite_pair"
    return CommutingInfinitePair(tuple(w["left"]), tuple(w["right"]))


@given(query_diagrams())
@settings(max_examples=80)
def test_query_commands_answer_well_formed_diagrams_as_the_library(s):
    text = f"rank: {s.rank}\n" + "".join(f"edge: {i} {j} {label_text(m)}\n" for i, j, m in s.edges())
    got = {}
    for command in _QUERIES:
        code, out, err = _call([command, "--stdin", "--format", "json"], text)
        if command == "threshold" and s.rank == 0:  # no generator: an input error
            assert code == 2 and err.startswith("error:")
            with pytest.raises(ValueError):
                kazhdan_threshold(s)
            continue
        assert code == 0, err
        got[command] = json.loads(out)
        assert got[command]["diagram"] == system_payload(s)
    parts = classify(s)
    assert got["classify"]["components"] == [
        {"vertices": list(v), "type": t.kind, "name": t.name, "aliases": list(t.aliases)}
        for v, t in parts
    ]
    assert got["classify"]["spherical"] is is_spherical(s)
    verdict = is_hyperbolic(s)
    witness = _witness_from_payload(got["hyperbolic"]["witness"])
    assert got["hyperbolic"]["verdict"] == ("hyperbolic" if verdict.hyperbolic else "not_hyperbolic")
    assert witness == verdict.witness
    assert verdict.hyperbolic or validate_witness(s, witness)
    aff = has_affine_parabolic(s)
    assert got["parabolics"] == {
        "diagram": system_payload(s),
        "max_spherical_rank": max_spherical_rank(s),
        "minimal_infinite": [list(m) for m in minimal_infinite_subsets(s)],
        "affine_parabolic": None if aff is None else list(aff),
    }
    if s.rank:
        res = kazhdan_threshold(s)
        assert got["threshold"] == {
            "diagram": system_payload(s),
            "d": res.d,
            "bound": {"numerator": res.bound.numerator, "denominator": res.bound.denominator},
            "q": res.q,
        }
