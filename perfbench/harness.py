"""Shared pieces of the benchmark: locating the package, spans, probes, statistics.

The benchmark always runs the `coxtools` sources of the checkout it lives in
(`<checkout>/src`), the way the repository's test command does, and never an
installed copy.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no `src/coxtools` to measure."""


def import_coxtools():
    """Import `coxtools` from this checkout's `src`, refusing any other copy."""
    if not (SRC / "coxtools" / "__init__.py").is_file():
        raise MissingProgram(f"no coxtools package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coxtools

    if Path(coxtools.__file__).resolve().parent != SRC / "coxtools":
        raise MissingProgram(f"imported coxtools from {coxtools.__file__}, not {SRC}")
    return coxtools


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import mpmath

        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mp_version,
    }


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans: [id, name, parent id, op id, count, start, end].

    `count` is how many calls of the named function the span covers, so a
    batch of calls is one span and per-call time is duration / count.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None, count: int = 1):
        rec = [len(self.spans), name, self._stack[-1] if self._stack else None, op, count,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[6] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Per span: its duration minus the durations of its direct children."""
        own = {s[0]: s[6] - s[5] for s in self.spans}
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[6] - s[5]
        return own

    def totals(self, parents: set, start: int = 0) -> dict[str, tuple[float, float, int]]:
        """name -> (duration, self time, count), summed over the spans from
        index `start` on whose parent span has a name in `parents`."""
        own = self.self_times()
        out: dict[str, tuple[float, float, int]] = {}
        for s in self.spans[start:]:
            if s[2] is not None and self.spans[s[2]][1] in parents:
                d, o, c = out.get(s[1], (0.0, 0.0, 0))
                out[s[1]] = (d + s[6] - s[5], o + own[s[0]], c + s[4])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "parent", "op", "count", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def no_span(name: str, op=None, count: int = 1):
    return nullcontext()


# -- machine-speed calibration --------------------------------------------------------

# The calibration loop's median wall time on the machine the benchmark was
# defined on (2-core Intel Xeon VM, Python 3.11.7).  Normalised times read as
# seconds on that machine at its median speed.
CALIB_REF_S = 0.07


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop that never calls coxtools.

    It mixes the same kinds of work as the program (exact fraction
    elimination, tuple hashing, small containers), so both slow down
    together when the machine does.
    """
    t0 = time.perf_counter()
    for r in range(10):
        n = 7
        m = [[Fraction((i * 7 + j * 3 + r) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
             for i in range(n)]
        for k in range(n):
            piv = m[k][k] or Fraction(1)
            for i in range(k + 1, n):
                f = m[i][k] / piv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        seen: dict[tuple, int] = {}
        for i in range(3000):
            t = tuple((i * j) % 13 for j in range(8))
            seen[t] = seen.get(t, 0) + 1
    return time.perf_counter() - t0


class SpeedProbe:
    """Tracks how fast the machine runs around each measured stretch.

    A shared machine changes speed by tens of percent, within a second and
    over minutes.  Each `gap` runs `calibrate` for GAP_S and keeps the mean;
    `scale` converts a stretch measured between the last two gaps to the
    reference speed, at which the loop takes CALIB_REF_S.
    """

    GAP_S = 0.25

    def __init__(self) -> None:
        self.gaps: list[float] = []
        self.gap()

    def gap(self) -> None:
        end = time.perf_counter() + self.GAP_S
        samples = [calibrate()]
        while time.perf_counter() < end:
            samples.append(calibrate())
        self.gaps.append(statistics.mean(samples))

    def scale(self, seconds: float) -> float:
        return seconds * CALIB_REF_S / ((self.gaps[-2] + self.gaps[-1]) / 2)


# -- cold-start probes ----------------------------------------------------------

E8_INPUT = "type: E8\n"


def time_process(args: list[str], stdin: str = "") -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(args, input=stdin, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=60)
    return time.perf_counter() - t0, proc


def cold_classify_e8() -> float:
    """One cold `python -m coxtools classify --stdin` on E8; its answer is checked."""
    dt, proc = time_process(
        [sys.executable, "-m", "coxtools", "classify", "--stdin", "--format", "json"], E8_INPUT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold classify exited {proc.returncode}: {proc.stderr.strip()}")
    comps = json.loads(proc.stdout)["components"]
    if [(c["type"], c["name"]) for c in comps] != [("spherical", "E8")]:
        raise RuntimeError(f"cold classify answered {comps} for E8")
    return dt


def median_of(fn, reps: int) -> float:
    return statistics.median(fn() for _ in range(reps))


def bare_interpreter() -> float:
    dt, proc = time_process([sys.executable, "-c", "pass"])
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter exited {proc.returncode}")
    return dt


# Median wall time of `python -c pass` on the machine the benchmark was defined on.
BARE_REF_S = 0.078


def setup_seconds(reps: int) -> float:
    """Median cold `coxtools classify` time, each scaled to the reference speed
    by a bare interpreter start timed right before it.

    Process start-up slows with the machine in ways a compute loop does not
    track, but a bare interpreter start does.
    """
    return statistics.median(
        BARE_REF_S / bare_interpreter() * cold_classify_e8() for _ in range(reps)
    )


# -- statistics ------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(-(-p * len(sorted_values) // 100)) - 1))
    return sorted_values[k]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
