#!/usr/bin/env python3
"""Record one benchmark snapshot as BENCH_<n>.json at the checkout root.

    python3 scripts/bench.py --number <n>

Runs the perfbench harness twice, unchanged: every workload untraced
(`perfbench/run.py --workload all --trace 0`), then one traced queries run
(`--workload queries --trace 1`) for the per-layer and `cli.*` metrics.  It
measures nothing itself: the file holds the records the harness wrote to
`perfbench/out/<workload>-seed<n>-trace<t>.json`, machine block included,
next to the commands that made them.  Run length is the benchmark's
`run_seconds` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SEED = 1


def run(args: list[str]) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", *args]
    print("$", " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd[1:])} exited {proc.returncode}")
    return cmd[1:]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument(
        "--number", type=int, required=True, help="n in the output name BENCH_<n>.json"
    )
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    common = ["--seed", str(SEED), "--seconds", str(spec["run_seconds"])]
    untraced = run(["--workload", "all", *common, "--trace", "0"])
    traced = run(["--workload", "queries", *common, "--trace", "1"])
    made = [(w["name"], 0, untraced) for w in spec["workloads"]]
    made.append(("queries", 1, traced))
    records = []
    for workload, trace, cmd in made:
        path = OUT / f"{workload}-seed{SEED}-trace{trace}.json"
        records.append(dict(json.loads(path.read_text(encoding="utf-8")), command=cmd))
    dest = ROOT / f"BENCH_{args.number}.json"
    dest.write_text(json.dumps({"records": records}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {dest.name}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
