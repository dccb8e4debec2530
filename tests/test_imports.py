"""What a fresh interpreter loads: the query subcommands stay off the
campaign modules, no subcommand and no signature needs mpmath, and the lazy
names and imports still work.

The test process itself has loaded everything, so these checks run in
subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxtools import signature, standard_system
from coxtools.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("multiprocessing", "coxtools.enumeration", "coxtools.experiments")
# what classify does not run: hyperbolicity, the threshold's Fraction (which
# loads decimal) and the reports' hashlib
NOT_CLASSIFY = ("coxtools.hyperbolic", "fractions", "decimal", "hashlib")

# `python -m coxtools ARGS` after a JSON list of modules, then those of them
# it loaded as JSON on stderr
CLI = """
import json, runpy, sys
watch = json.loads(sys.argv.pop(1))
try:
    runpy.run_module("coxtools", run_name="__main__")
finally:
    print(json.dumps([m for m in watch if m in sys.modules]), file=sys.stderr)
"""


def fresh(code, *args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def cold_cli(args, stdin=None, watch=HEAVY):
    """(exit code, stdout, watched modules loaded) of one cold CLI call."""
    proc = fresh(CLI, json.dumps(watch), *args, stdin=stdin)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def answer(payload):
    return {k: v for k, v in payload.items() if k != "diagram"}


@pytest.mark.parametrize(
    "command, diagram, want",
    [
        (
            "classify",
            "E8",
            {
                "components": [
                    {"vertices": list(range(8)), "type": "spherical", "name": "E8", "aliases": []}
                ],
                "spherical": True,
            },
        ),
        (
            "classify",
            "H4",
            {
                "components": [
                    {"vertices": list(range(4)), "type": "spherical", "name": "H4", "aliases": []}
                ],
                "spherical": True,
            },
        ),
        ("hyperbolic", "E8", {"verdict": "hyperbolic", "witness": None}),
        (
            "parabolics",
            "E8",
            {"max_spherical_rank": 8, "minimal_infinite": [], "affine_parabolic": None},
        ),
        (
            "threshold",
            "E8",
            {
                "d": 8,
                "bound": {"numerator": 1764**8, "denominator": 25},
                "q": 3750149987347950019073819,
            },
        ),
    ],
)
def test_queries_load_no_campaign_modules(command, diagram, want):
    code, out, heavy = cold_cli([command, "--stdin", "--format", "json"], f"type: {diagram}\n")
    assert code == 0
    assert heavy == []
    assert answer(json.loads(out)) == want


def test_cold_classify_loads_only_what_it_runs():
    code, out, loaded = cold_cli(
        ["classify", "--stdin", "--format", "json"], "type: E8\n", HEAVY + NOT_CLASSIFY
    )
    assert code == 0
    assert loaded == []
    assert json.loads(out)["spherical"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--campaign", "engine-agreement", "--max-rank", "3"],
        ["verify", "--campaign", "engine-agreement", "--labels", "2,3,4,6", "--max-rank", "3"],
        ["enumerate", "--max-rank", "3"],
    ],
    ids=["verify", "verify-2346", "enumerate"],
)
def test_campaign_commands_run_cold(args, capsys):
    code, out, heavy = cold_cli(args)
    assert code == 0
    assert "coxtools.enumeration" in heavy
    assert main(args) == 0
    assert out == capsys.readouterr().out


# once sys.modules maps mpmath to None, any import of it raises ImportError
BLOCKED = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None
from coxtools import signature, standard_system
from coxtools.cli import main

outputs = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(args)
    outputs.append([code, out.getvalue()])
sigs = [signature(standard_system(name)).as_tuple for name in json.loads(sys.argv[2])]
print(json.dumps([outputs, sigs]))
"""

SIGNED = ["H3", "H4", "I2(7)", f"I2({2**40})"]


def test_no_command_or_signature_needs_mpmath(tmp_path, capsys):
    diagram = tmp_path / "diagram.txt"
    diagram.write_text("rank: 4\nedge: 0 1 5\nedge: 1 2 7\nedge: 2 3 inf\nedge: 0 3 3\n")
    calls = [
        [command, "--input", str(diagram), "--format", "json"]
        for command in ("classify", "hyperbolic", "parabolics", "threshold")
    ]
    # text, because the JSON report also carries its wall time
    calls.append(["verify", "--campaign", "engine-agreement", "--labels", "2,3,5", "--max-rank", "4"])
    proc = fresh(BLOCKED, json.dumps(calls), json.dumps(SIGNED))
    assert proc.returncode == 0, proc.stderr
    outputs, sigs = json.loads(proc.stdout)
    want = []
    for args in calls:
        code = main(args)
        want.append([code, capsys.readouterr().out])
    assert outputs == want
    assert [code for code, _ in outputs] == [0] * len(calls)
    assert sigs == [list(signature(standard_system(name)).as_tuple) for name in SIGNED]


FIRST_CALLS = """
import json, sys
import coxtools
from coxtools import signature, standard_system

before = [m for m in ("coxtools.enumeration", "coxtools.experiments") if m in sys.modules]
h4 = signature(standard_system("H4")).as_tuple
listed = sorted(set(coxtools.__all__) - set(dir(coxtools)))
star = {}
exec("from coxtools import *", star)
unbound = sorted(set(coxtools.__all__) - star.keys())
unresolved = sorted(n for n in coxtools.__all__ if getattr(coxtools, n, None) is None)
try:
    coxtools.no_such_name
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps(dict(before=before, h4=h4, listed=listed, unbound=unbound,
                      unresolved=unresolved, missing=missing)))
"""


def test_first_calls_in_a_fresh_interpreter():
    proc = fresh(FIRST_CALLS)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["before"] == []
    assert got["h4"] == [4, 0, 0]
    assert got["listed"] == []
    assert got["unbound"] == []
    assert got["unresolved"] == []
    assert got["missing"] == "module 'coxtools' has no attribute 'no_such_name'"
