"""Verification campaigns: exhaustive machine checks over enumerated diagrams.

Each campaign walks every isomorphism class in a declared scope, evaluates a
claim instance by instance, and packs the outcome into a content-addressed
Report.  A campaign passes only if every instance does; failures carry the
offending diagrams so they can be replayed by hand.  In affine-criterion and
engine-agreement a class's row is the names of the per-rank counters it sets,
and only a failing class also builds its payload.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Optional

from .core import CoxeterSystem, is_crystallographic, is_simply_laced
from .classify import (
    classify_irreducible,
    is_k_spherical,
    minimal_infinite_subsets,
    signature,
)
from .enumeration import EnumFilter, iter_levels, worker_map
from .hyperbolic import check_affine_criterion
from .report import Report, system_payload

_MODE_CAPS = {"simply-laced": 7, "3-spherical-crystallographic": 6}
_CRITERION_COUNTERS = ("in_hypothesis", "hyperbolic", "inconsistent")


def _sweep(
    campaign: str, parameters: dict, filt: EnumFilter, jobs: int, row: Callable,
    counters: tuple[str, ...], claim: str,
) -> Report:
    """The one-claim report of row over each class filt admits up to
    parameters["max_rank"]: row gives a class's counter names and its failing
    row or None, and the last counter counts the failures and keys their rows."""
    t0 = time.monotonic()
    per_rank: dict[str, dict[str, int]] = {}
    bad: list[dict] = []
    with worker_map(jobs) as imap:
        for k, level in iter_levels(filt, parameters["max_rank"], imap):
            counts = dict.fromkeys(counters, 0) | {"classes": len(level)}
            for names, failing in imap(row, level):
                for name in names:
                    counts[name] += 1
                if failing is not None:
                    bad.append(failing)
            per_rank[str(k)] = counts
    claims = [{"claim": claim, "passed": not bad, "details": {counters[-1]: bad}}]
    results = {"per_rank": per_rank, "claims": claims}
    duration = time.monotonic() - t0
    return Report(campaign, parameters, results, duration_seconds=duration, jobs=jobs)


def _criterion_row(system: CoxeterSystem) -> tuple[tuple[str, ...], Optional[dict]]:
    chk = check_affine_criterion(system)
    flags = (chk.hypotheses_ok, chk.hyperbolic, not chk.consistent)
    names = tuple(name for name, on in zip(_CRITERION_COUNTERS, flags) if on)
    if chk.consistent:
        return names, None
    return names, {
        "system": system_payload(system),
        "in_hypothesis": chk.hypotheses_ok,
        "hyperbolic": chk.hyperbolic,
        "has_affine": chk.affine_parabolic is not None,
        "consistent": chk.consistent,
    }


def verify_affine_criterion(
    mode: str = "simply-laced", max_rank: Optional[int] = None, jobs: int = 1
) -> Report:
    """Check, class by class, that absence of an affine parabolic of rank >= 3
    coincides with hyperbolicity on the diagrams satisfying the hypotheses.

    mode "simply-laced" covers labels {2,3} through rank 7; mode
    "3-spherical-crystallographic" covers {2,3,4,6} with every 3-subset
    spherical, through rank 6.
    """
    if mode not in _MODE_CAPS:
        raise ValueError(f"unknown mode {mode!r}")
    cap = _MODE_CAPS[mode]
    if max_rank is None:
        max_rank = cap
    if max_rank > cap:
        raise ValueError(f"mode {mode!r} is capped at rank {cap}")
    if mode == "simply-laced":
        filt = EnumFilter(label_set=frozenset({2, 3}))
    else:
        filt = EnumFilter(label_set=frozenset({2, 3, 4, 6}), k_spherical=3)
    parameters = {"mode": mode, "max_rank": max_rank, "filter": filt.payload()}
    claim = "hyperbolicity matches the affine-parabolic criterion on every in-hypothesis class"
    return _sweep(
        "affine-criterion", parameters, filt, jobs, _criterion_row, _CRITERION_COUNTERS, claim
    )


def _agreement_row(system: CoxeterSystem) -> tuple[tuple[str, ...], Optional[dict]]:
    tc = classify_irreducible(system)
    sig = signature(system)
    n = system.rank
    if tc.is_spherical:
        ok = sig.as_tuple == (n, 0, 0)
    elif tc.is_affine:
        ok = sig.as_tuple == (n - 1, 1, 0)
    else:
        ok = sig.n_minus >= 1
    if ok:
        return (), None
    return ("disagreements",), {
        "system": system_payload(system),
        "pattern": str(tc),
        "signature": list(sig.as_tuple),
        "agree": ok,
    }


def verify_engine_agreement(
    max_rank: int, label_set: frozenset = frozenset({2, 3}), jobs: int = 1
) -> Report:
    """Cross-check the shape tables against the Gram signature on every
    connected class up to max_rank: spherical must mean positive definite,
    affine positive semidefinite with a 1-dimensional kernel, indefinite a
    negative direction."""
    if max_rank > 8:
        raise ValueError("engine agreement is capped at rank 8")
    filt = EnumFilter(label_set=frozenset(label_set))
    parameters = {"max_rank": max_rank, "filter": filt.payload()}
    claim = "pattern and signature engines agree on every class"
    return _sweep(
        "engine-agreement", parameters, filt, jobs, _agreement_row, ("disagreements",), claim
    )


def _search_reports(
    search: EnumFilter, max_rank: int, filt: EnumFilter, mini_rank: int, jobs: int
) -> tuple[Report, Report]:
    """The quasi-minimal report of one quasi-minimal search to max_rank, and
    the minimal-infinite report of filt to mini_rank read off the same levels.

    A search with filt's constraints holds every connected minimal infinite
    class filt admits: its filter admits them, and each one loses a non-cut
    vertex to a connected spherical, so extendable, parent.  Every class the
    search yields is in turn admitted by filt, whose constraints it keeps,
    so the minimal infinite classes are read off the levels as they are.
    """
    t0 = time.monotonic()
    quasi: list[CoxeterSystem] = []
    quasi_per_rank: dict[str, int] = {}
    per_rank: dict[str, dict[str, int]] = {}
    affine: list[dict] = []
    non_affine: list[CoxeterSystem] = []
    with worker_map(jobs) as imap:
        for k, level in iter_levels(search, max_rank, imap):
            typed = [(s, classify_irreducible(s)) for s in level]
            found = [s for s, t in typed if t.is_indefinite]
            quasi_per_rank[str(k)] = len(found)
            quasi.extend(found)
            if k > mini_rank:
                continue
            found = [
                (s, t)
                for s, t in typed
                if not t.is_spherical
                and minimal_infinite_subsets(s) == [tuple(range(k))]
            ]
            pa = [dict(system_payload(s), type=str(t)) for s, t in found if t.is_affine]
            pn = [s for s, t in found if not t.is_affine]
            per_rank[str(k)] = {"affine": len(pa), "non_affine": len(pn)}
            affine.extend(pa)
            non_affine.extend(pn)
    three_sph_cryst = [
        s for s in non_affine if is_crystallographic(s) and is_k_spherical(s, 3)
    ]

    claims = [
        {
            "claim": "every non-affine minimal infinite class has rank <= 5",
            "passed": all(s.rank <= 5 for s in non_affine),
            "details": {
                "violations": [system_payload(s) for s in non_affine if s.rank > 5]
            },
        },
        {
            "claim": "no non-affine minimal infinite class is simply laced",
            "passed": all(not is_simply_laced(s) for s in non_affine),
            "details": {
                "violations": [
                    system_payload(s) for s in non_affine if is_simply_laced(s)
                ]
            },
        },
    ]
    results = {
        "per_rank": per_rank,
        "affine_classes": affine,
        "non_affine_classes": [system_payload(s) for s in non_affine],
        "three_spherical_crystallographic_non_affine": [
            system_payload(s) for s in three_sph_cryst
        ],
        "three_spherical_crystallographic_non_affine_count": len(three_sph_cryst),
        "claims": claims,
    }
    duration = time.monotonic() - t0
    return Report(
        campaign="quasi-minimal",
        parameters={"max_rank": max_rank, "filter": search.payload()},
        results={
            "per_rank": quasi_per_rank,
            "max_rank_attained": max((s.rank for s in quasi), default=0),
            "classes": [system_payload(s) for s in quasi],
            "claims": [],
        },
        duration_seconds=duration,
        jobs=jobs,
    ), Report(
        campaign="minimal-infinite",
        parameters={"max_rank": mini_rank, "filter": filt.payload()},
        results=results,
        duration_seconds=duration,
        jobs=jobs,
    )


def enumerate_minimal_infinite(
    filt: EnumFilter, max_rank: int, jobs: int = 1
) -> Report:
    """All connected minimal infinite classes up to max_rank, with the three
    structural claims about the non-affine ones evaluated within the label set.
    """
    if max_rank > 8:
        raise ValueError("minimal-infinite enumeration is capped at rank 8")
    search = replace(
        filt, connected_only=True, all_proper_parabolics_spherical_or_affine=True
    )
    return _search_reports(search, max_rank, filt, max_rank, jobs)[1]


def enumerate_quasi_minimal(filt: EnumFilter, max_rank: int, jobs: int = 1) -> Report:
    """All connected non-spherical non-affine classes whose proper subgroups
    are all spherical-or-affine, up to max_rank.
    """
    if not filt.all_proper_parabolics_spherical_or_affine:
        raise ValueError(
            "the filter must set all_proper_parabolics_spherical_or_affine"
        )
    filt = replace(filt, connected_only=True)
    return _search_reports(filt, max_rank, filt, 0, jobs)[0]


def verify_size_bounds(
    max_rank: int = 11,
    label_set: frozenset = frozenset({2, 3}),
    jobs: int = 1,
) -> Report:
    """Enumerate the quasi-minimal and minimal infinite classes and check the
    size bounds: quasi-minimal stops at rank 10, non-affine minimal infinite
    stops at rank 5 and always carries a label >= 4."""
    t0 = time.monotonic()
    quasi_filt = EnumFilter(
        label_set=frozenset(label_set),
        all_proper_parabolics_spherical_or_affine=True,
    )
    mini_filt = EnumFilter(label_set=frozenset(label_set))
    mini_rank = min(max_rank, 8)
    # quasi_filt is the search enumerate_minimal_infinite runs for mini_filt
    quasi, mini = _search_reports(quasi_filt, max_rank, mini_filt, mini_rank, jobs)

    claims = [
        {
            "claim": "no quasi-minimal class has rank above 10",
            "passed": quasi.results["max_rank_attained"] <= 10,
            "details": {"max_rank_attained": quasi.results["max_rank_attained"]},
        }
    ]
    claims.extend(mini.results["claims"])
    figure_count = mini.results["three_spherical_crystallographic_non_affine_count"]
    if frozenset({2, 3, 4, 6}) <= frozenset(label_set) and mini_rank >= 5:
        claims.append(
            {
                "claim": "exactly three non-affine minimal infinite classes are "
                "3-spherical and crystallographic",
                "passed": figure_count == 3,
                "details": {"count": figure_count},
            }
        )
    results = {
        "quasi_minimal": quasi.canonical_dict(),
        "minimal_infinite": mini.canonical_dict(),
        "claims": claims,
    }
    return Report(
        campaign="size-bounds",
        parameters={
            "max_rank": max_rank,
            "label_set": mini_filt.payload()["label_set"],
        },
        results=results,
        duration_seconds=time.monotonic() - t0,
        jobs=jobs,
    )
