"""A fixed battery of diagram shapes for the query subcommands.

Each row is one cold call: a shape built by code, a subcommand, a time budget
in seconds and the exit code the call must end with, plus the answer it must
give.  Calls run `python -m coxtools` on the copy of coxtools this module
imports or, when that copy is an installed package, the installed `coxtools`
script, so the same table checks the source tree and the installed package.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coxtools

SRC = Path(__file__).resolve().parents[1] / "src"
QUERIES = ("classify", "hyperbolic", "parabolics", "threshold")


def edgeless(n: int) -> str:
    return f"rank: {n}\n"


def named(name: str) -> str:
    return f"type: {name}\n"


def complete_pair(n: int) -> str:
    """Two disjoint complete diagrams of rank n, every label 3."""
    edges = [f"edge: {base + i} {base + j} 3" for base in (0, n)
             for i in range(n) for j in range(i + 1, n)]
    return "\n".join([f"rank: {2 * n}", *edges]) + "\n"


def complete(n: int, label: str) -> str:
    """The complete diagram of rank n with every label the same."""
    edges = [f"edge: {i} {j} {label}" for i in range(n) for j in range(i + 1, n)]
    return "\n".join([f"rank: {n}", *edges]) + "\n"


def spherical(name: str, rank: int) -> dict:
    """The answers on a spherical diagram: every subset is spherical."""
    return {"classify": [name], "hyperbolic": "hyperbolic", "parabolics": (rank, []),
            "threshold": rank}


def affine(name: str, rank: int) -> dict:
    """The answers on an affine diagram: it is its one minimal infinite subset."""
    return {"classify": [name], "hyperbolic": "not_hyperbolic",
            "parabolics": (rank - 1, [list(range(rank))]), "threshold": rank - 1}


# shape -> subcommand -> the answer, as _answer reads it from the JSON output
ANSWERS = {
    edgeless(40): {"hyperbolic": "hyperbolic", "parabolics": (40, []), "threshold": 40},
    edgeless(1000): {
        "classify": ["A1"] * 1000, "hyperbolic": "hyperbolic", "parabolics": (1000, []),
    },
    named("A60"): spherical("A60", 60),
    named("D60"): spherical("D60", 60),
    named("~A59"): affine("~A59", 60),
    named("~C59"): affine("~C59", 60),
    complete_pair(30): {"hyperbolic": "not_hyperbolic"},
    complete(40, "3"): {"hyperbolic": "not_hyperbolic"},
    complete(200, "inf"): {"hyperbolic": "hyperbolic"},
}

# (shape, subcommand, budget in seconds, expected exit code)
BATTERY = [
    *((edgeless(40), cmd, 10, 0) for cmd in ("threshold", "parabolics", "hyperbolic")),
    *((edgeless(1000), cmd, 10, 0) for cmd in ("classify", "hyperbolic", "parabolics")),
    *((named(name), cmd, 10, 0) for name in ("A60", "D60", "~A59", "~C59") for cmd in QUERIES),
    (complete_pair(30), "hyperbolic", 10, 0),
    (complete(40, "3"), "hyperbolic", 10, 0),
    (complete(200, "inf"), "hyperbolic", 10, 0),
]


def _command() -> list[str]:
    if Path(coxtools.__file__).resolve().is_relative_to(SRC):
        return [sys.executable, "-m", "coxtools"]
    script = shutil.which("coxtools")
    assert script, "coxtools is installed without its console script"
    return [script]


def _shape_id(shape: str) -> str:
    head, *edges = shape.splitlines()
    return f"{head} +{len(edges)} edges" if edges else head


def _answer(cmd: str, payload: dict):
    if cmd == "classify":
        return [c["name"] for c in payload["components"]]
    if cmd == "hyperbolic":
        return payload["verdict"]
    if cmd == "parabolics":
        return payload["max_spherical_rank"], payload["minimal_infinite"]
    return payload["d"]


@pytest.mark.parametrize(
    "shape, cmd, budget, code",
    BATTERY,
    ids=[f"{_shape_id(shape)}-{cmd}" for shape, cmd, _, _ in BATTERY],
)
def test_query_answers_within_its_budget(shape, cmd, budget, code):
    start = time.perf_counter()
    proc = subprocess.run(
        _command() + [cmd, "--stdin", "--format", "json"],
        input=shape,
        capture_output=True,
        text=True,
        timeout=budget,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert _answer(cmd, json.loads(proc.stdout)) == ANSWERS[shape][cmd]
    assert elapsed < budget
