#!/usr/bin/env python3
"""Write perfbench/pins.json, the answers the benchmark checks.

Run it only at a commit whose answers are trusted, from the checkout root:

    python3 perfbench/pin.py

Scopes get their per-rank counts, claim verdicts, report content hash and the
screened/admitted counts of the filter probe.  The first PINNED_QUERIES
queries of the PIN_SEED stream get their full answers; a query whose answer
holds an UndecidedSignature gets no pin, so fixing that defect is not a mismatch.
"""

import json
import sys

import workloads as wl


def main() -> int:
    pins = {"scopes": {}, "queries": {}}
    for by_scale in wl.SWEEPS.values():
        for scopes in by_scale.values():
            for sc in scopes:
                report = sc.run(1)
                if not report.passed():
                    sys.exit(f"{sc.key} fails its claims; refusing to pin it")
                filt = wl.filter_from_payload(report.parameters["filter"])
                levels = {k: wl.cx.enumerate_diagrams(k, filt) for k in range(1, sc.max_rank + 1)}
                pins["scopes"][sc.key] = {
                    "report": wl.report_summary(report),
                    "filter": report.parameters["filter"],
                    "screened_admitted": list(wl.screen_extensions(filt, levels)),
                }
    stream = wl.query_stream(wl.PIN_SEED)
    answers = []
    for i in range(wl.PINNED_QUERIES):
        s = next(stream)
        a = wl.answer_query(s)
        problems = wl.check_answer(s, a)
        if problems:
            sys.exit(f"query {i} {s!r} fails its cross-checks: {problems}")
        answers.append(None if None in a["signature"] else a)
    pins["queries"] = {
        "seed": wl.PIN_SEED,
        "stream_sha256": wl.stream_digest(wl.PIN_SEED, wl.PINNED_QUERIES),
        "undecided": [i for i, a in enumerate(answers) if a is None],
        "answers": answers,
    }
    with open(wl.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"pinned {len(pins['scopes'])} scopes and {len(answers)} queries "
          f"({len(pins['queries']['undecided'])} undecided) to {wl.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
