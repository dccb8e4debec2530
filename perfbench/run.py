#!/usr/bin/env python3
"""coxtools benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-agreement --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One workload per run.  With --trace 0 the run measures the end-to-end metrics
with tracing off; with --trace 1 it measures the per-layer metrics from spans.
Every answer is checked.  The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it summarise
the run, and a record of it is written under perfbench/out/.  With
--workload all, every workload runs in its own process and a table follows.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time

import harness
from harness import MissingProgram, Tracer, percentile, quartiles

END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "enumeration.levels_s": "s",
    "enumeration.classes": "count",
    "enumeration.canonical_code_us": "us",
    "filter.admits_us": "us",
    "filter.screened": "count",
    "filter.admit_ratio": "ratio",
    "scan.minimal_infinite_us": "us",
    "scan.has_affine_us": "us",
    "scan.k_spherical_us": "us",
    "scan.is_hyperbolic_us": "us",
    "scan.check_affine_criterion_us": "us",
    "scan.max_spherical_rank_us": "us",
    "scan.self_s": "s",
    "classify.irreducible_us": "us",
    "classify.calls": "count",
    "classify.self_s": "s",
    "signature.exact_us": "us",
    "signature.interval_us": "us",
    "signature.calls": "count",
    "signature.undecided": "count",
    "signature.self_s": "s",
    "threshold.kazhdan_us": "us",
    "threshold.self_s": "s",
    "campaign.self_s": "s",
    "campaign.pool_speedup": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
# span name -> per-call metric
PER_CALL = {
    "enumeration.canonical_code": "enumeration.canonical_code_us",
    "filter.admits": "filter.admits_us",
    "scan.minimal_infinite_subsets": "scan.minimal_infinite_us",
    "scan.has_affine_parabolic": "scan.has_affine_us",
    "scan.is_k_spherical": "scan.k_spherical_us",
    "scan.is_hyperbolic": "scan.is_hyperbolic_us",
    "scan.check_affine_criterion": "scan.check_affine_criterion_us",
    "scan.max_spherical_rank": "scan.max_spherical_rank_us",
    "classify.classify_irreducible": "classify.irreducible_us",
    "signature.exact": "signature.exact_us",
    "signature.interval": "signature.interval_us",
    "threshold.kazhdan_threshold": "threshold.kazhdan_us",
}
SELF_LAYERS = ("scan", "classify", "signature", "threshold")
SETUP_REPS = {"full": 7, "tiny": 1}
QUERY_STRETCH_S = 1.6
CLI_REPS = {"full": 5, "tiny": 1}


# -- untraced runs ----------------------------------------------------------------


def measure_sweep(wl, name, seed, seconds, scale, pins, out):
    scopes = wl.SWEEPS[name][scale]
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    speed = harness.SpeedProbe()
    raw, norm = [], []
    while True:
        raw.append(sum(wl.sweep_pass(scopes, 1, rng, pins, out).values()))
        speed.gap()
        norm.append(speed.scale(raw[-1]))
        # start another pass only if it should end within the run's time
        if time.perf_counter() + raw[-1] > deadline:
            break
    q1, med, q3 = quartiles(raw)
    summary = (f"sweep_s {med:.4f} s wall: median of {len(raw)} passes (quartiles "
               f"{q1:.4f}, {q3:.4f}), jobs=1; {statistics.median(norm):.4f} s at reference speed")
    return {"pass_s": statistics.median(norm)}, summary


def measure_queries(wl, seed, seconds, pins, out):
    pinned = wl.pinned_answers(seed, pins)
    stream = wl.query_stream(seed)
    deadline = time.perf_counter() + seconds
    speed = harness.SpeedProbe()
    lat, per_1000 = [], []
    while not lat or time.perf_counter() < deadline:
        stretch_end = min(deadline, time.perf_counter() + QUERY_STRETCH_S)
        first = len(lat)
        while len(lat) == first or time.perf_counter() < stretch_end:
            lat.append(wl.query_op(len(lat), next(stream), pinned, out))
        speed.gap()
        per_1000.append(speed.scale(1000 * sum(lat[first:]) / (len(lat) - first)))
    lat.sort()
    p99 = percentile(lat, 99)
    med = statistics.median(per_1000)
    summary = (f"queries_per_s {len(lat) / sum(lat):.2f}; query_p50_ms "
               f"{percentile(lat, 50) * 1e3:.3f}; query_p99_ms {p99 * 1e3:.3f} "
               f"over {len(lat)} queries ({sum(1 for x in lat if x > p99)} beyond p99), wall; "
               f"closed loop, one client; {med:.4f} s per 1000 at reference speed")
    return {"pass_s": med}, summary


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children are the cold-start probes,
    # and the largest single process counts
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


# -- traced runs ----------------------------------------------------------------------


def layer_metrics(tr, start, untraced_s, traced_s, per):
    """Per-layer metrics from the spans recorded since `start`.

    untraced_s is the untraced time of the work the spans cover; per scales
    totals to one pass (sweeps) or 1000 queries.
    """
    cover = tr.totals({"replay", "query"}, start)
    probe = tr.totals({"probe"}, start)
    m = dict.fromkeys(PER_LAYER, 0.0)
    for span, metric in PER_CALL.items():
        d1, _, c1 = cover.get(span, (0.0, 0.0, 0))
        d2, _, c2 = probe.get(span, (0.0, 0.0, 0))
        if c1 + c2:
            m[metric] = 1e6 * (d1 + d2) / (c1 + c2)
    m["classify.calls"] = sum(t.get("classify.classify_irreducible", (0, 0, 0))[2] for t in (cover, probe))
    m["signature.calls"] = sum(cover.get(n, (0, 0, 0))[2] for n in ("signature.exact", "signature.interval"))
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = per * sum(o for n, (_, o, _) in cover.items() if n.startswith(layer + "."))
    m["enumeration.levels_s"] = per * cover.get("enumeration.levels", (0.0, 0.0, 0))[0]
    covered = sum(d for d, _, _ in cover.values())
    m["trace.overhead"] = traced_s / untraced_s - 1
    m["trace.coverage"] = covered / untraced_s
    return m, covered


def trace_sweep(wl, name, seed, seconds, scale, pins, out, tr):
    scopes = wl.SWEEPS[name][scale]
    pool_jobs = wl.POOL_JOBS.get(name)
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        t0 = time.perf_counter()
        untraced = sum(wl.sweep_pass(scopes, 1, rng, pins, out).values())
        traced = sum(wl.sweep_pass(scopes, 1, rng, pins, out, span=tr.span).values())
        start = len(tr.spans)
        counts = [wl.replay_scope(sc, tr, rng, pins, out) for sc in scopes]
        m, covered = layer_metrics(tr, start, untraced, traced, 1)
        m["enumeration.classes"] = sum(c["classes"] for c in counts)
        m["filter.screened"] = sum(c["screened"] for c in counts)
        m["filter.admit_ratio"] = sum(c["admitted"] for c in counts) / m["filter.screened"]
        m["campaign.self_s"] = untraced - covered
        if pool_jobs:
            pooled = sum(wl.sweep_pass(scopes, pool_jobs, rng, pins, out).values())
            m["campaign.pool_speedup"] = untraced / pooled
        rounds.append(m)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return rounds


def trace_queries(wl, seed, seconds, scale, pins, out, tr):
    pinned = wl.pinned_answers(seed, pins)
    stream = wl.query_stream(seed)
    block = [next(stream) for _ in range(wl.QUERY_TRACE_BLOCK[scale])]
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        t0 = time.perf_counter()
        untraced = sum(wl.query_op(i, s, pinned, out) for i, s in enumerate(block))
        start = len(tr.spans)
        before = out.undecided
        traced = sum(wl.query_op(i, s, pinned, out, span=tr.span) for i, s in enumerate(block))
        undecided = out.undecided - before
        wl.query_probes(block, tr)
        m, _ = layer_metrics(tr, start, untraced, traced, 1000 / len(block))
        m["signature.undecided"] = undecided
        rounds.append(m)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return rounds


def cli_probes(scale):
    reps = CLI_REPS[scale]
    bare = harness.median_of(harness.bare_interpreter, reps)
    imp = harness.median_of(
        lambda: harness.time_process([sys.executable, "-c", "import coxtools"])[0], reps
    )
    return {"cli.interpreter_s": bare, "cli.import_s": imp - bare}


# -- one run ------------------------------------------------------------------------------


def run_one(workload, seed, seconds, trace, scale, pins=None):
    """Run one workload; return (result, summary lines, record)."""
    import workloads as wl

    pins = pins if pins is not None else wl.load_pins()
    out = wl.Outcomes()
    lines = []
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "scale": scale, "machine": harness.machine()}
    if trace:
        tr = Tracer()
        if workload == "queries":
            rounds = trace_queries(wl, seed, seconds, scale, pins, out, tr)
        else:
            rounds = trace_sweep(wl, workload, seed, seconds, scale, pins, out, tr)
        values = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER}
        values.update(cli_probes(scale))
        units = PER_LAYER
        tr.write(harness.OUT / f"{workload}-seed{seed}-spans.jsonl")
        info["tracing_overhead"] = values["trace.overhead"]
        lines.append(f"traced rounds {len(rounds)}; tracing overhead {values['trace.overhead']:+.4f}; "
                     f"layer spans cover {values['trace.coverage']:.4f} of the untraced time; "
                     f"{len(tr.spans)} spans")
    else:
        setup = harness.setup_seconds(SETUP_REPS[scale])
        if workload == "queries":
            values, summary = measure_queries(wl, seed, seconds, pins, out)
        else:
            values, summary = measure_sweep(wl, workload, seed, seconds, scale, pins, out)
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = setup
        units = END_TO_END
        info["tracing_overhead"] = "measured by --trace 1 runs"
        lines.append(summary)
    failed_share = out.failed / out.attempted
    lines.append(f"failed_share {failed_share:.6f} ({out.failed} of {out.attempted} ops: "
                 f"{out.errors} errors, {out.wrong} wrong); {out.undecided} answers hold an "
                 f"UndecidedSignature checked singular")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = dict(info, result=result, summary=lines, notes=out.notes)
    return result, lines, record


def run_all(args) -> int:
    """Every workload in its own process, then a table of their metrics."""
    import workloads as wl

    rows, ok = [], True
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            ok = False
            continue
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        ok &= result["correct"]
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}  correct={result['correct']}  failed {result['failed']}/{result['attempted']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload on small scopes, for the self-test")
    args = p.parse_args(argv)
    try:
        import workloads as wl
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")
    result, lines, record = run_one(args.workload, args.seed, args.seconds, args.trace, args.scale)
    harness.OUT.mkdir(parents=True, exist_ok=True)
    path = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed} on {json.dumps(record['machine'])}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
