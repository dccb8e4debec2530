#!/usr/bin/env python3
"""Run every verification campaign and write one JSON report per scope.

The default scopes match the acceptance suite: they finish in a few minutes
on one core and each report is content-addressed, so two runs can be compared
by hash alone.  Use --jobs to run each campaign on one pool of that many
worker processes, which expands the parents of every rank and computes the
per-class rows of the affine-criterion and engine-agreement campaigns; the
reports are byte-identical regardless of the worker count.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from coxtools import (
    INFINITY,
    EnumFilter,
    enumerate_minimal_infinite,
    verify_affine_criterion,
    verify_engine_agreement,
    verify_size_bounds,
)


def write_report(report, out_dir: Path, slug: str) -> bool:
    path = out_dir / f"{slug}.json"
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    claims = report.results.get("claims", [])
    status = "pass" if report.passed() else "FAIL"
    print(f"[{status}] {slug}: {len(claims)} claim(s), hash {report.content_hash()[:16]}")
    for c in claims:
        if not c["passed"]:
            print(f"        FAILED: {c['claim']}")
    print(f"        -> {path}")
    return report.passed()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs
    t0 = time.monotonic()
    ok = True

    ok &= write_report(
        verify_affine_criterion("simply-laced", 7, jobs=jobs),
        out_dir,
        "affine-criterion-simply-laced-r7",
    )
    ok &= write_report(
        verify_affine_criterion("3-spherical-crystallographic", 6, jobs=jobs),
        out_dir,
        "affine-criterion-3-spherical-r6",
    )
    ok &= write_report(
        verify_engine_agreement(8, frozenset({2, 3}), jobs=jobs),
        out_dir,
        "engine-agreement-23-r8",
    )
    ok &= write_report(
        verify_engine_agreement(5, frozenset({2, 3, 4, 6}), jobs=jobs),
        out_dir,
        "engine-agreement-2346-r5",
    )
    ok &= write_report(
        verify_size_bounds(11, frozenset({2, 3}), jobs=jobs),
        out_dir,
        "size-bounds-23-r11",
    )
    ok &= write_report(
        verify_size_bounds(11, frozenset({2, 3, 4}), jobs=jobs),
        out_dir,
        "size-bounds-234-r11",
    )
    ok &= write_report(
        enumerate_minimal_infinite(
            EnumFilter(label_set=frozenset({2, 3, 4, 5, 6, INFINITY})), 6, jobs=jobs
        ),
        out_dir,
        "minimal-infinite-full-labels-r6",
    )

    print(f"total: {time.monotonic() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
