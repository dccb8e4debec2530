import json
from dataclasses import replace

import pytest

from coxtools import (
    INFINITY,
    EnumFilter,
    Report,
    enumerate_minimal_infinite,
    enumerate_quasi_minimal,
    verify_affine_criterion,
    verify_engine_agreement,
    verify_size_bounds,
)
from coxtools import canonical_code, enumeration, experiments
from coxtools.classify import Signature, signature
from coxtools.hyperbolic import check_affine_criterion
from coxtools.report import TOOL_VERSION, system_payload
from coxtools.catalog import affine_G2
from conftest import edges_to_system


def test_report_hash_ignores_timing_and_jobs():
    a = Report("demo", {"x": 1}, {"claims": []}, duration_seconds=0.5, jobs=1)
    b = Report("demo", {"x": 1}, {"claims": []}, duration_seconds=9.9, jobs=8)
    assert a.content_hash() == b.content_hash()
    assert a.canonical_json() == b.canonical_json()
    assert a.to_dict()["meta"]["jobs"] == 1
    assert b.to_dict()["meta"]["duration_seconds"] == 9.9
    assert a.to_dict()["content_hash"] == a.content_hash()
    assert a.to_dict()["tool_version"] == TOOL_VERSION


def test_report_hash_depends_on_content():
    a = Report("demo", {"x": 1}, {"claims": []})
    b = Report("demo", {"x": 2}, {"claims": []})
    assert a.content_hash() != b.content_hash()


def test_report_passed_and_claim_lookup():
    rep = Report(
        "demo",
        {},
        {
            "claims": [
                {"claim": "first", "passed": True},
                {"claim": "second", "passed": False},
            ]
        },
    )
    assert not rep.passed()
    assert rep.claim("second")["passed"] is False
    with pytest.raises(KeyError):
        rep.claim("third")


def test_canonical_json_is_compact_and_sorted():
    rep = Report("demo", {"b": 1, "a": 2}, {"claims": []})
    text = rep.canonical_json()
    assert text.index('"a"') < text.index('"b"')
    assert ": " not in text
    assert json.loads(text)["campaign"] == "demo"


def test_system_payload_spells_out_infinity():
    pay = system_payload(affine_G2())
    assert pay == {"rank": 3, "edges": [[0, 1, 3], [1, 2, 6]]}
    from coxtools import CoxeterSystem

    pay2 = system_payload(CoxeterSystem.from_edges(2, {(0, 1): INFINITY}))
    assert pay2["edges"] == [[0, 1, "inf"]]


# -- campaigns ----------------------------------------------------------------


def test_affine_criterion_simply_laced():
    rep = verify_affine_criterion("simply-laced")
    assert rep.passed()
    per = rep.results["per_rank"]
    assert per["7"]["classes"] == 853
    assert all(v["classes"] == v["in_hypothesis"] for v in per.values())
    assert rep.parameters["mode"] == "simply-laced"


def test_affine_criterion_three_spherical_small():
    rep = verify_affine_criterion("3-spherical-crystallographic", max_rank=4)
    assert rep.passed()
    assert rep.results["per_rank"]["4"]["inconsistent"] == 0


def test_affine_criterion_rejects_bad_scopes():
    with pytest.raises(ValueError):
        verify_affine_criterion("simply-laced", max_rank=8)
    with pytest.raises(ValueError):
        verify_affine_criterion("3-spherical-crystallographic", max_rank=7)
    with pytest.raises(ValueError):
        verify_affine_criterion("other-mode")


def test_engine_agreement_small():
    rep = verify_engine_agreement(6, frozenset({2, 3}))
    assert rep.passed()
    per = rep.results["per_rank"]
    assert [per[str(k)]["classes"] for k in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    assert all(v["disagreements"] == 0 for v in per.values())


def test_engine_agreement_cap():
    with pytest.raises(ValueError):
        verify_engine_agreement(9)


def test_size_bounds_simply_laced_window():
    rep = verify_size_bounds(6, frozenset({2, 3}))
    assert rep.passed()
    names = [c["claim"] for c in rep.results["claims"]]
    assert "no quasi-minimal class has rank above 10" in names
    # conditional class-count claim only applies with the full label window
    assert not any("exactly three" in n for n in names)
    assert "quasi_minimal" in rep.results and "minimal_infinite" in rep.results
    assert rep.results["quasi_minimal"]["campaign"] == "quasi-minimal"


def test_size_bounds_crystallographic_window_counts_three_classes():
    rep = verify_size_bounds(5, frozenset({2, 3, 4, 6}))
    assert rep.passed()
    claim = rep.claim(
        "exactly three non-affine minimal infinite classes are "
        "3-spherical and crystallographic"
    )
    assert claim["passed"] and claim["details"]["count"] == 3


def test_campaigns_are_deterministic_across_jobs():
    a = verify_size_bounds(6, frozenset({2, 3}), jobs=1)
    b = verify_size_bounds(6, frozenset({2, 3}), jobs=3)
    assert a.canonical_json() == b.canonical_json()
    assert a.content_hash() == b.content_hash()


# -- failing classes -------------------------------------------------------------
#
# Each campaign is made to fail on chosen classes of {2,3}: the
# engine-agreement one by a signature with every negative square made
# positive and one positive square made zero, the affine-criterion one by an
# inconsistent check.  The patch is in
# place before the pool forks, so the workers see it too.  The first test
# fails the rank-4 class D4 or ~A3, picked by payload.

D4 = {"rank": 4, "edges": [[0, 3, 3], [1, 3, 3], [2, 3, 3]]}
AFFINE_A3 = {"rank": 4, "edges": [[0, 2, 3], [0, 3, 3], [1, 2, 3], [1, 3, 3]]}


def _failing_agreement(monkeypatch, jobs, chosen):
    real = signature

    def wrong_when_chosen(system):
        sig = real(system)
        if not chosen(system):
            return sig
        return Signature(sig.n_plus + sig.n_minus - 1, sig.n_zero + 1, 0)

    monkeypatch.setattr(experiments, "signature", wrong_when_chosen)
    return verify_engine_agreement(5, frozenset({2, 3}), jobs=jobs)


def _failing_criterion(monkeypatch, jobs, chosen):
    real = check_affine_criterion

    def inconsistent_when_chosen(system):
        chk = real(system)
        return replace(chk, consistent=False) if chosen(system) else chk

    monkeypatch.setattr(experiments, "check_affine_criterion", inconsistent_when_chosen)
    return verify_affine_criterion("simply-laced", 5, jobs=jobs)


FAILING_SCOPES = {
    "engine-agreement": (
        _failing_agreement,
        "disagreements",
        D4,
        {"system": D4, "pattern": "D4", "signature": [3, 1, 0], "agree": False},
    ),
    "affine-criterion": (
        _failing_criterion,
        "inconsistent",
        AFFINE_A3,
        {
            "system": AFFINE_A3,
            "in_hypothesis": True,
            "hyperbolic": False,
            "has_affine": True,
            "consistent": False,
        },
    ),
}


@pytest.mark.parametrize("campaign", sorted(FAILING_SCOPES))
def test_one_failing_class_fails_the_campaign(campaign, monkeypatch):
    run, counter, chosen, row = FAILING_SCOPES[campaign]
    texts = []
    for jobs in (1, 2):
        rep = run(monkeypatch, jobs, lambda system: system_payload(system) == chosen)
        assert not rep.passed()
        per = rep.results["per_rank"]
        assert [per[str(k)][counter] for k in range(1, 6)] == [0, 0, 0, 1, 0]
        (claim,) = rep.results["claims"]
        assert claim["details"] == {counter: [row]}
        texts.append(rep.canonical_json())
    assert texts[0] == texts[1]


# The same for three classes of rank 5, the top rank, which the sweep holds
# in parent order: they are picked by canonical code, so the patch fails them
# in any vertex order, and in parent order the third comes before the second.
# Their rows, in canonical-code order on canonical representatives, and the
# content hashes were read from sweeps whose top rank was canonical, as
# iter_levels gives it.

AFFINE_D4 = {"rank": 5, "edges": [[0, 4, 3], [1, 4, 3], [2, 4, 3], [3, 4, 3]]}
D5 = {"rank": 5, "edges": [[0, 4, 3], [1, 4, 3], [2, 3, 3], [3, 4, 3]]}
TRIANGLE_TWO_LEAVES = {"rank": 5, "edges": [[0, 4, 3], [1, 4, 3], [2, 3, 3], [2, 4, 3], [3, 4, 3]]}
TOP_CHOSEN = {
    canonical_code(edges_to_system(p["rank"], p["edges"]))
    for p in (AFFINE_D4, D5, TRIANGLE_TWO_LEAVES)
}

TOP_FAILING = {
    "engine-agreement": (
        [
            {"system": AFFINE_D4, "pattern": "~D4", "signature": [3, 2, 0], "agree": False},
            {"system": D5, "pattern": "D5", "signature": [4, 1, 0], "agree": False},
            {
                "system": TRIANGLE_TWO_LEAVES,
                "pattern": "indefinite",
                "signature": [4, 1, 0],
                "agree": False,
            },
        ],
        "6c981270ba701967ff3952e9fd7e3a59f6422d78d7d1ad64775decec4d2c4ba6",
    ),
    "affine-criterion": (
        [
            {
                "system": system,
                "in_hypothesis": True,
                "hyperbolic": hyperbolic,
                "has_affine": not hyperbolic,
                "consistent": False,
            }
            for system, hyperbolic in (
                (AFFINE_D4, False), (D5, True), (TRIANGLE_TWO_LEAVES, False)
            )
        ],
        "358917af69c677449770cf8af89b7ee0149df4c2ed5f1327833e522803f483c7",
    ),
}


@pytest.mark.parametrize("campaign", sorted(FAILING_SCOPES))
def test_failing_top_rank_classes_are_reported_on_canonical_representatives(
    campaign, monkeypatch
):
    run, counter, _, _ = FAILING_SCOPES[campaign]
    rows, pinned = TOP_FAILING[campaign]
    texts = []
    for jobs in (1, 2):
        rep = run(monkeypatch, jobs, lambda system: canonical_code(system) in TOP_CHOSEN)
        per = rep.results["per_rank"]
        assert [per[str(k)][counter] for k in range(1, 6)] == [0, 0, 0, 0, 3]
        (claim,) = rep.results["claims"]
        assert not claim["passed"] and claim["details"] == {counter: rows}
        assert rep.content_hash() == pinned
        texts.append(rep.canonical_json())
    assert texts[0] == texts[1]


def test_passing_classes_build_no_payload(monkeypatch):
    calls = []
    real = experiments.system_payload

    def counting_payload(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(experiments, "system_payload", counting_payload)
    assert verify_engine_agreement(5, frozenset({2, 3})).passed()
    assert verify_affine_criterion("simply-laced", 5).passed()
    assert calls == []


# -- pinned report hashes -------------------------------------------------------
#
# One small scope per campaign (both affine-criterion modes), with the
# content hash each report had before the campaign pipeline was consolidated.
# Any change to enumeration order, pruning or row assembly moves a hash.  The
# two scopes with labels 5 and 7 are the ones that reach the interval
# signature engine.

_QUASI = dict(all_proper_parabolics_spherical_or_affine=True)

PINNED_SCOPES = {
    "affine-criterion/simply-laced/r6": (
        lambda jobs: verify_affine_criterion("simply-laced", 6, jobs=jobs),
        "af54e1ec67ddd835232b101a9ee4f72f41631d27934fd8d516b84d581ed58312",
    ),
    "affine-criterion/3-spherical-crystallographic/r5": (
        lambda jobs: verify_affine_criterion(
            "3-spherical-crystallographic", 5, jobs=jobs
        ),
        "9c49c60428bf95d7dbfb6f058c144b7feee19f2b2581ba637cbefedfc346127e",
    ),
    "engine-agreement/2,3,4,6/r4": (
        lambda jobs: verify_engine_agreement(4, frozenset({2, 3, 4, 6}), jobs=jobs),
        "9ed9248e3f7ae7e92a4f854334192ba349ed4bd859b4ca235360ac4167ca6b73",
    ),
    "engine-agreement/2,3,5/r5": (
        lambda jobs: verify_engine_agreement(5, frozenset({2, 3, 5}), jobs=jobs),
        "55a0a624657ad1d3269b27c9b9e346d61253902fd84a74b81b024d581e157e51",
    ),
    "engine-agreement/2,3,5,inf/r5": (
        lambda jobs: verify_engine_agreement(5, frozenset({2, 3, 5, INFINITY}), jobs=jobs),
        "88a01e5a744d5916902e37b109cfac2285be23f73a0671ed42f061d9981f882b",
    ),
    "engine-agreement/2,3,5,7/r4": (
        lambda jobs: verify_engine_agreement(4, frozenset({2, 3, 5, 7}), jobs=jobs),
        "d1556b4f79671083b630447d585f3c6d5623d06cc93856f91b2311faac3e775c",
    ),
    "size-bounds/2,3/r8": (
        lambda jobs: verify_size_bounds(8, frozenset({2, 3}), jobs=jobs),
        "c5e2e6647ce8518ebbbba0a545faff695cc2e543af5ea73cefc273bea981f879",
    ),
    "size-bounds/2,3,4,6/r5": (
        lambda jobs: verify_size_bounds(5, frozenset({2, 3, 4, 6}), jobs=jobs),
        "dab5b224c4d87b9b283c11089ccdb872822a9f2970494e8134bd4411e009504a",
    ),
    "minimal-infinite/2,3,4,5,6,inf/r5": (
        lambda jobs: enumerate_minimal_infinite(
            EnumFilter(label_set=frozenset({2, 3, 4, 5, 6, INFINITY})), 5, jobs=jobs
        ),
        "346deffe20f64bd5aa98b997ddf35e2ee4b505362c40b8c5d837eeaa86f5dcb6",
    ),
    "quasi-minimal/2,3,4/r6": (
        lambda jobs: enumerate_quasi_minimal(
            EnumFilter(label_set=frozenset({2, 3, 4}), **_QUASI), 6, jobs=jobs
        ),
        "1bb34bfb299662234445acded77b647829cdeb90efac6dc9b0bfe4e890d32def",
    ),
    "quasi-minimal/2,3,4/r8": (
        lambda jobs: enumerate_quasi_minimal(
            EnumFilter(label_set=frozenset({2, 3, 4}), **_QUASI), 8, jobs=jobs
        ),
        "a1ac9d50f46c452c461a4909122880a44cb91449aa3ed75d0eeecea5cae5eb55",
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scope", sorted(PINNED_SCOPES))
def test_report_hash_is_pinned(scope, jobs):
    run, pinned = PINNED_SCOPES[scope]
    rep = run(jobs)
    assert rep.passed()
    assert rep.content_hash() == pinned


# -- one worker pool per campaign ----------------------------------------------

POOL_SCOPES = {
    "affine-criterion": lambda jobs: verify_affine_criterion(
        "simply-laced", 5, jobs=jobs
    ),
    "engine-agreement": lambda jobs: verify_engine_agreement(
        5, frozenset({2, 3}), jobs=jobs
    ),
    "minimal-infinite": lambda jobs: enumerate_minimal_infinite(
        EnumFilter(label_set=frozenset({2, 3, 4})), 4, jobs=jobs
    ),
    "quasi-minimal": lambda jobs: enumerate_quasi_minimal(
        EnumFilter(label_set=frozenset({2, 3, 4}), **_QUASI), 4, jobs=jobs
    ),
    "size-bounds": lambda jobs: verify_size_bounds(5, frozenset({2, 3}), jobs=jobs),
}


@pytest.fixture
def pool_count(monkeypatch):
    """Count the worker pools built while the test runs."""
    made = []
    real = enumeration.Pool

    def counting_pool(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "Pool", counting_pool)
    return made


@pytest.mark.parametrize("campaign", sorted(POOL_SCOPES))
def test_one_pool_per_campaign(campaign, pool_count):
    POOL_SCOPES[campaign](2)
    assert len(pool_count) == 1
    del pool_count[:]
    POOL_SCOPES[campaign](1)
    assert pool_count == []


def test_pool_maps_whole_levels_and_row_lists(monkeypatch):
    batches = []

    class RecordingPool:
        """A pool that maps in process and records the size of every batch."""

        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, func, items):
            batches.append(len(items))
            return [func(item) for item in items]

    monkeypatch.setattr(enumeration, "Pool", RecordingPool)
    run = POOL_SCOPES["engine-agreement"]
    assert run(2).content_hash() == run(1).content_hash()
    # per rank: the parents, then the classes
    assert batches == [1, 1, 1, 1, 1, 2, 2, 6, 6, 21]


@pytest.mark.parametrize("jobs", [0, -2])
def test_campaigns_reject_fewer_than_one_job(jobs):
    for run in POOL_SCOPES.values():
        with pytest.raises(ValueError, match="jobs"):
            run(jobs)
