"""The four workloads, the answers they check and the layer replays of traced runs.

Sweeps run whole verification scopes through the public campaign functions.
`queries` answers a seeded stream of random diagrams one at a time (a closed
loop with one client).  NOTES.md explains why each workload is there.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath

from harness import import_coxtools, no_span

cx = import_coxtools()

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
PIN_SEED = 1
PINNED_QUERIES = 1500


@dataclass(frozen=True)
class Scope:
    """One verification scope: a campaign, its label set or mode, a maximum rank."""

    campaign: str
    max_rank: int
    labels: tuple = ()
    mode: str = ""

    @property
    def key(self) -> str:
        what = self.mode or ",".join(str(m) for m in self.labels)
        return f"{self.campaign}/{what}/r{self.max_rank}"

    def run(self, jobs: int):
        if self.campaign == "engine-agreement":
            return cx.verify_engine_agreement(self.max_rank, frozenset(self.labels), jobs=jobs)
        if self.campaign == "affine-criterion":
            return cx.verify_affine_criterion(self.mode, self.max_rank, jobs=jobs)
        filt = cx.EnumFilter(
            label_set=frozenset(self.labels), all_proper_parabolics_spherical_or_affine=True
        )
        return cx.enumerate_quasi_minimal(filt, self.max_rank, jobs=jobs)


# workload -> scale -> scopes, all run at jobs=1.  The full scopes are scaled
# down from the acceptance scopes so that many passes fit in one run; see
# NOTES.md.
SWEEPS = {
    "sweep-agreement": {
        "full": (Scope("engine-agreement", 5, (2, 3)), Scope("engine-agreement", 4, (2, 3, 4, 6))),
        "tiny": (Scope("engine-agreement", 4, (2, 3)), Scope("engine-agreement", 3, (2, 3, 4, 6))),
    },
    "sweep-criterion": {
        "full": (Scope("affine-criterion", 6, mode="simply-laced"),
                 Scope("affine-criterion", 5, mode="3-spherical-crystallographic")),
        "tiny": (Scope("affine-criterion", 4, mode="simply-laced"),
                 Scope("affine-criterion", 4, mode="3-spherical-crystallographic")),
    },
    "sweep-quasi-minimal": {
        "full": (Scope("quasi-minimal", 7, (2, 3, 4)),),
        "tiny": (Scope("quasi-minimal", 5, (2, 3, 4)),),
    },
}
# traced runs also time these workloads with a worker pool of this size
POOL_JOBS = {"sweep-criterion": 2}
WORKLOADS = (*SWEEPS, "queries")
QUERY_TRACE_BLOCK = {"full": 300, "tiny": 12}


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_summary(report) -> dict:
    """The pinned part of a campaign report."""
    return {
        "per_rank": report.results["per_rank"],
        "claims": [[c["claim"], c["passed"]] for c in report.results["claims"]],
        "content_hash": report.content_hash(),
    }


def filter_from_payload(p: dict):
    """The campaign's own filter, rebuilt from the report parameters."""
    return cx.EnumFilter(
        label_set=frozenset(cx.INFINITY if m == "inf" else m for m in p["label_set"]),
        connected_only=p["connected_only"],
        simply_laced=p["simply_laced"],
        crystallographic=p["crystallographic"],
        k_spherical=p["k_spherical"],
        all_proper_parabolics_spherical_or_affine=p["all_proper_parabolics_spherical_or_affine"],
    )


@dataclass
class Outcomes:
    """Op outcomes of one run.  An op is one campaign scope or one query."""

    attempted: int = 0
    undecided: int = 0  # answered, with a checked UndecidedSignature on a component
    errors: int = 0  # raised
    wrong: int = 0  # differs from its pin or fails a cross-check
    notes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def correct(self) -> bool:
        return self.errors == 0 and self.wrong == 0

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)
            print(f"perfbench: {text}", file=sys.stderr)


# -- sweeps ------------------------------------------------------------------------


def sweep_pass(scopes, jobs, rng, pins, out: Outcomes, span=no_span) -> dict[str, float]:
    """Run every scope once, in a seeded order; return seconds per scope key."""
    order = list(scopes)
    rng.shuffle(order)
    times = {}
    for sc in order:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with span("campaign." + sc.campaign, sc.key):
                report = sc.run(jobs)
        except Exception:
            times[sc.key] = time.perf_counter() - t0
            out.errors += 1
            out.note(f"{sc.key} raised:\n{traceback.format_exc()}")
            continue
        times[sc.key] = time.perf_counter() - t0
        got = report_summary(report)
        if got != pins["scopes"][sc.key]["report"]:
            out.wrong += 1
            out.note(f"{sc.key} differs from its pin: {json.dumps(got)}")
    return times


def relabel(system, perm):
    return cx.CoxeterSystem.from_rows(
        [[system.labels[perm[i]][perm[j]] for j in range(system.rank)] for i in range(system.rank)]
    )


def extensions(parent, labels, connected_only):
    """Every one-vertex extension of parent with the given labels."""
    n = parent.rank
    for vec in product(labels, repeat=n):
        if connected_only and all(m == 2 for m in vec):
            continue
        rows = [list(parent.labels[i]) + [vec[i]] for i in range(n)]
        rows.append(list(vec) + [1])
        yield cx.CoxeterSystem.from_rows(rows)


def _extendable(system, filt) -> bool:
    # children of a diagram with an indefinite component contain it as a
    # proper subdiagram, so the spherical-or-affine filter rejects them all
    if not filt.all_proper_parabolics_spherical_or_affine:
        return True
    return all(not t.is_indefinite for _, t in cx.classify(system))


def replay_scope(sc: Scope, tr, rng, pins, out: Outcomes) -> dict:
    """Re-run a scope's layers one by one, each batch in a span.

    Spans under "replay" are the work the campaign itself does: its levels,
    then one layer call per class.  Spans under "probe" time further public
    layer functions on the same classes.
    """
    pin = pins["scopes"][sc.key]
    filt = filter_from_payload(pin["filter"])
    op = sc.key
    with tr.span("replay", op):
        with tr.span("enumeration.levels", op):
            top = cx.enumerate_diagrams(sc.max_rank, filt)
    with tr.span("probe", op):
        with tr.span("enumeration.lower_levels", op):
            levels = {k: cx.enumerate_diagrams(k, filt) for k in range(1, sc.max_rank)}
    levels[sc.max_rank] = top
    classes = [s for k in sorted(levels) for s in levels[k]]

    with tr.span("replay", op):
        if sc.campaign == "affine-criterion":
            with tr.span("scan.check_affine_criterion", op, len(classes)):
                checks = [cx.check_affine_criterion(s) for s in classes]
            bad = sum(1 for c in checks if not c.consistent)
        else:
            with tr.span("classify.classify_irreducible", op, len(classes)):
                types = [cx.classify_irreducible(s) for s in classes]
            bad = 0
        if sc.campaign == "engine-agreement":
            with tr.span("signature.exact", op, len(classes)):
                sigs = [cx.signature(s).as_tuple for s in classes]
            bad = sum(1 for s, t, g in zip(classes, types, sigs) if not _sig_matches(t.kind, s.rank, g))
    if sc.campaign == "quasi-minimal":
        indefinite = [s.rank for s, t in zip(classes, types) if t.is_indefinite]
        counts = {str(k): indefinite.count(k) for k in levels}
        pinned = pin["report"]["per_rank"]
    else:
        counts = {str(k): len(v) for k, v in levels.items()}
        pinned = {k: v["classes"] for k, v in pin["report"]["per_rank"].items()}
    if bad or counts != pinned:
        out.wrong += 1
        out.note(f"replay of {sc.key}: per-rank counts {counts}, {bad} failed classes")

    with tr.span("probe", op):
        wanted = [cx.canonical_code(s) for s in classes]
        moved = []
        for s in classes:
            perm = list(range(s.rank))
            rng.shuffle(perm)
            moved.append(relabel(s, perm))
        with tr.span("enumeration.canonical_code", op, len(moved)):
            codes = [cx.canonical_code(s) for s in moved]
        if codes != wanted:
            out.wrong += 1
            out.note(f"canonical_code of a relabeled class differs in {sc.key}")

        screened, admitted = screen_extensions(filt, levels, tr.span, op)
        if [screened, admitted] != pin["screened_admitted"]:
            out.wrong += 1
            out.note(f"{sc.key}: screened/admitted {screened}/{admitted}, "
                     f"pinned {pin['screened_admitted']}")

        if sc.campaign == "affine-criterion":
            scan_probes(classes, tr, op)
            with tr.span("classify.classify_irreducible", op, len(classes)):
                for s in classes:
                    cx.classify_irreducible(s)
    return {"classes": len(classes), "screened": screened, "admitted": admitted}


def screen_extensions(filt, levels, span=no_span, op=None) -> tuple[int, int]:
    """Run filt.admits on the one-vertex extensions of every extendable class
    below the top level, one span per parent; return (screened, admitted)."""
    screened = admitted = 0
    labels = filt.effective_labels()
    for k in sorted(levels)[:-1]:
        for parent in levels[k]:
            if not _extendable(parent, filt):
                continue
            children = list(extensions(parent, labels, filt.connected_only))
            with span("filter.admits", op, len(children)):
                admitted += sum(1 for c in children if filt.admits(c))
            screened += len(children)
    return screened, admitted


def scan_probes(systems, tr, op) -> None:
    n = len(systems)
    with tr.span("scan.minimal_infinite_subsets", op, n):
        for s in systems:
            cx.minimal_infinite_subsets(s)
    with tr.span("scan.has_affine_parabolic", op, n):
        for s in systems:
            cx.has_affine_parabolic(s)
    with tr.span("scan.is_k_spherical", op, n):
        for s in systems:
            cx.is_k_spherical(s, 3)
    with tr.span("scan.is_hyperbolic", op, n):
        for s in systems:
            cx.is_hyperbolic(s)
    with tr.span("scan.max_spherical_rank", op, n):
        for s in systems:
            cx.max_spherical_rank(s)


def _sig_matches(kind: str, n: int, sig) -> bool:
    if kind == "spherical":
        return tuple(sig) == (n, 0, 0)
    if kind == "affine":
        return tuple(sig) == (n - 1, 1, 0)
    return kind == "indefinite" and sig[2] >= 1


# -- queries -------------------------------------------------------------------------

QUERY_LABELS = (3, 4, 5, 6, 7, cx.INFINITY)
EDGE_PROBABILITY = 0.35


def query_stream(seed: int):
    """Endless seeded stream of random diagrams of rank 3 to 9.

    Ranks come in shuffled rounds of 3..9, so every stretch of the stream has
    the same rank mix; each pair is an edge with probability 0.35, labelled
    uniformly from {3, 4, 5, 6, 7, inf}.
    """
    rng = random.Random(seed)
    while True:
        ranks = list(range(3, 10))
        rng.shuffle(ranks)
        for n in ranks:
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < EDGE_PROBABILITY:
                        edges[(i, j)] = QUERY_LABELS[int(rng.random() * len(QUERY_LABELS))]
            yield cx.CoxeterSystem.from_edges(n, edges)


def stream_digest(seed: int, count: int) -> str:
    h = hashlib.sha256()
    stream = query_stream(seed)
    for _ in range(count):
        h.update(repr(next(stream)).encode())
    return h.hexdigest()


def _witness(w):
    if w is None:
        return None
    if isinstance(w, cx.AffineSubset):
        return ["affine", list(w.subset)]
    return ["pair", list(w.left), list(w.right)]


def answer_query(s, span=no_span, op=None) -> dict:
    """The exact answers about one diagram, in JSON-ready form."""
    with span("classify.classify", op):
        parts = cx.classify(s)
    sigs = []
    for comp, _ in parts:
        sub = cx.restrict(s, comp)
        engine = "signature.exact" if cx.is_crystallographic(sub) else "signature.interval"
        with span(engine, op):
            try:
                sigs.append(list(cx.signature(sub).as_tuple))
            except cx.UndecidedSignature:
                sigs.append(None)  # checked by check_answer against a float oracle
    with span("scan.is_hyperbolic", op):
        verdict = cx.is_hyperbolic(s)
    valid = None
    if not verdict.hyperbolic:
        with span("scan.validate_witness", op):
            valid = cx.validate_witness(s, verdict.witness)
    with span("threshold.kazhdan_threshold", op):
        th = cx.kazhdan_threshold(s)
    return {
        "components": [[list(c), t.kind, t.name] for c, t in parts],
        "signature": sigs,
        "hyperbolic": verdict.hyperbolic,
        "witness": _witness(verdict.witness),
        "witness_valid": valid,
        "d": th.d,
        "q": th.q,
    }


def _singular_indefinite(sub, dps=50) -> bool:
    """Float oracle at 50 digits: the cosine Gram matrix has an eigenvalue at
    zero and one below it, so refusing to decide its signature is truthful."""
    with mpmath.mp.workdps(dps):
        n = sub.rank
        g = mpmath.eye(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    m = sub.labels[i][j]
                    g[i, j] = -1 if m == cx.INFINITY else -mpmath.cos(mpmath.pi / m)
        eigs = mpmath.eigsy(g, eigvals_only=True)
        tol = mpmath.mpf(10) ** (10 - dps)
        return any(abs(e) <= tol for e in eigs) and any(e < -tol for e in eigs)


def check_answer(s, a: dict) -> list[str]:
    """Oracle-free cross-checks of one answer; returns the problems found."""
    problems = []
    comps = a["components"]
    for (comp, kind, _), sig in zip(comps, a["signature"]):
        if sig is None:
            if not (kind == "indefinite" and _singular_indefinite(cx.restrict(s, comp))):
                problems.append(f"component {comp} is {kind} and its signature is undecided, "
                                "but its Gram matrix is not singular and indefinite")
        elif not _sig_matches(kind, len(comp), sig):
            problems.append(f"component {comp} is {kind} but has signature {sig}")
    if len(a["signature"]) != len(comps) or sorted(v for c, _, _ in comps for v in c) != list(range(s.rank)):
        problems.append("components do not partition the vertices")
    if a["hyperbolic"]:
        infinite = [c for c, kind, _ in comps if kind != "spherical"]
        if len(infinite) >= 2 or any(k == "affine" and len(c) >= 3 for c, k, _ in comps):
            problems.append("hyperbolic verdict although a Z x Z is visible from the components")
    elif a["witness_valid"] is not True:
        problems.append(f"witness {a['witness']} fails validate_witness")
    d = a["d"]
    spherical = sum(len(c) for c, kind, _ in comps if kind == "spherical")
    if not max(1, spherical) <= d <= s.rank or (spherical == s.rank and d != s.rank):
        problems.append(f"max spherical rank {d} impossible with spherical part {spherical}")
    if a["q"] < Fraction(1764) ** d / 25:
        problems.append(f"q = {a['q']} is below 1764^{d}/25")
    return problems


def query_op(i: int, s, pinned, out: Outcomes, span=no_span) -> float:
    """Answer and check query i; return its latency in seconds."""
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        with span("query", i):
            a = answer_query(s, span, i)
    except Exception:
        lat = time.perf_counter() - t0
        out.errors += 1
        out.note(f"query {i} {s!r} raised:\n{traceback.format_exc()}")
        return lat
    lat = time.perf_counter() - t0
    out.undecided += None in a["signature"]
    problems = check_answer(s, a)
    if pinned is not None and i < len(pinned) and pinned[i] is not None:
        if json.loads(json.dumps(a)) != pinned[i]:
            problems.append(f"differs from its pin {pinned[i]}")
    if problems:
        out.wrong += 1
        out.note(f"query {i} {s!r}: {'; '.join(problems)}; answer {a}")
    return lat


def pinned_answers(seed: int, pins: dict):
    """The pinned answers when the stream is the pinned one, else None."""
    qp = pins["queries"]
    if seed != qp["seed"]:
        return None
    if stream_digest(seed, len(qp["answers"])) != qp["stream_sha256"]:
        raise RuntimeError("the query generator no longer reproduces the pinned stream")
    return qp["answers"]


def query_probes(block, tr) -> None:
    """Scan and classifier probes on a block of query diagrams."""
    with tr.span("probe", "queries"):
        scan_probes(block, tr, "queries")
        with tr.span("scan.check_affine_criterion", "queries", len(block)):
            for s in block:
                cx.check_affine_criterion(s)
        comps = [cx.restrict(s, c) for s in block for c in cx.components(s)]
        with tr.span("classify.classify_irreducible", "queries", len(comps)):
            for sub in comps:
                cx.classify_irreducible(sub)
