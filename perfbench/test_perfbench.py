"""Self-test of the benchmark on tiny scopes.  From the checkout root:

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_workload_prints_the_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_wrong_scope_pin_is_a_failed_op():
    pins = copy.deepcopy(wl.load_pins())
    key = wl.SWEEPS["sweep-quasi-minimal"]["tiny"][0].key
    pins["scopes"][key]["report"]["content_hash"] = "0" * 64
    result, _, _ = run.run_one("sweep-quasi-minimal", 1, 0.1, 0, "tiny", pins=pins)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_query_pin_is_a_failed_op():
    pins = copy.deepcopy(wl.load_pins())
    answers = pins["queries"]["answers"]
    i = next(i for i, a in enumerate(answers) if a is not None)
    answers[i]["q"] += 1
    out = wl.Outcomes()
    stream = wl.query_stream(wl.PIN_SEED)
    for j in range(i + 1):
        wl.query_op(j, next(stream), answers, out)
    assert (out.attempted, out.wrong, out.correct) == (i + 1, 1, False)


def test_undecided_signature_is_counted_not_raised():
    # a pinned-seed query whose Gram matrix is singular and indefinite
    qp = wl.load_pins()["queries"]
    i = qp["undecided"][0]
    stream = wl.query_stream(qp["seed"])
    for _ in range(i):
        next(stream)
    out = wl.Outcomes()
    wl.query_op(i, next(stream), qp["answers"], out)
    assert (out.attempted, out.undecided, out.failed, out.correct) == (1, 1, 0, True)


def test_untruthful_undecided_signature_is_a_wrong_answer(monkeypatch):
    def undecided(system):
        raise wl.cx.UndecidedSignature("forced by the test")

    monkeypatch.setattr(wl.cx, "signature", undecided)
    out = wl.Outcomes()
    wl.query_op(0, wl.cx.path_system([3, 5]), None, out)  # H3 is spherical
    assert (out.attempted, out.undecided, out.wrong, out.correct) == (1, 1, 1, False)


def test_cross_checks_catch_a_wrong_answer():
    s = wl.cx.path_system([3, 3])
    a = wl.answer_query(s)
    assert wl.check_answer(s, a) == []
    a["signature"] = [[2, 1, 0]]
    assert wl.check_answer(s, a)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "queries", "--seconds", "1", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
