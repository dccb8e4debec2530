import math
import pickle

import pytest
from hypothesis import given, strategies as st

from coxtools import (
    INFINITY,
    CoxeterSystem,
    classify,
    components,
    is_connected,
    is_crystallographic,
    is_hyperbolic,
    is_simply_laced,
    kazhdan_threshold,
    label_text,
    restrict,
    signature,
    validate,
    validate_witness,
)
from coxtools.classify import _closure
from conftest import coxeter_systems, permuted


def test_from_edges_sets_both_triangle_halves():
    s = CoxeterSystem.from_edges(3, {(0, 1): 4, (1, 2): INFINITY})
    assert s.label(0, 1) == 4
    assert s.label(1, 0) == 4
    assert s.label(2, 1) == INFINITY
    assert s.label(0, 2) == 2
    assert validate(s).ok


def test_edges_are_lexicographic_and_skip_commuting_pairs():
    s = CoxeterSystem.from_edges(4, {(2, 3): 5, (0, 3): 3})
    assert s.edges() == [(0, 3, 3), (2, 3, 5)]


def test_empty_system():
    e = CoxeterSystem.empty()
    assert e.rank == 0
    assert e.edges() == []
    assert components(e) == []
    assert is_connected(e)  # at most one component
    assert validate(e).ok


def test_validate_reports_each_violation():
    s = CoxeterSystem(labels=((1, 2), (3, 1)))
    res = validate(s)
    assert not res.ok
    assert any("symmetry" in v for v in res.violations)

    s2 = CoxeterSystem(labels=((2,),))
    assert any("diagonal" in v for v in validate(s2).violations)

    s3 = CoxeterSystem(labels=((1, 1), (1, 1)))
    assert any("label at (0, 1)" in v for v in validate(s3).violations)


def test_validate_rejects_bool_and_float_labels():
    assert not validate(CoxeterSystem(labels=((1, True), (True, 1)))).ok
    assert not validate(CoxeterSystem(labels=((1, 3.0), (3.0, 1)))).ok
    assert validate(CoxeterSystem(labels=((1, INFINITY), (INFINITY, 1)))).ok


def test_restrict_keeps_labels_and_sorts_vertices():
    s = CoxeterSystem.from_edges(4, {(0, 1): 3, (1, 2): 4, (2, 3): 6})
    sub = restrict(s, (3, 1, 2))
    assert sub.rank == 3
    # vertices relabeled in ascending original order: 1, 2, 3
    assert sub.label(0, 1) == 4
    assert sub.label(1, 2) == 6
    assert sub.label(0, 2) == 2


def test_restrict_rejects_bad_subsets():
    s = CoxeterSystem.from_edges(3, {(0, 1): 3})
    with pytest.raises(ValueError):
        restrict(s, (0, 3))
    with pytest.raises(ValueError):
        restrict(s, (1, 1))
    with pytest.raises(ValueError):
        restrict(s, (0, True))


def test_components_sorted_by_smallest_member():
    s = CoxeterSystem.from_edges(5, {(1, 3): 3, (2, 4): INFINITY})
    assert components(s) == [(0,), (1, 3), (2, 4)]
    assert not is_connected(s)


def test_flag_predicates():
    a3 = CoxeterSystem.from_edges(3, {(0, 1): 3, (1, 2): 3})
    assert is_simply_laced(a3) and is_crystallographic(a3)
    b3 = CoxeterSystem.from_edges(3, {(0, 1): 3, (1, 2): 4})
    assert not is_simply_laced(b3) and is_crystallographic(b3)
    h3 = CoxeterSystem.from_edges(3, {(0, 1): 5, (1, 2): 3})
    assert not is_crystallographic(h3)
    inf2 = CoxeterSystem.from_edges(2, {(0, 1): INFINITY})
    assert is_crystallographic(inf2) and not is_simply_laced(inf2)


def test_label_text():
    assert label_text(7) == "7"
    assert label_text(INFINITY) == "inf"
    assert math.isinf(INFINITY)


@given(coxeter_systems())
def test_generated_systems_validate(s):
    assert validate(s).ok


@given(coxeter_systems(), st.randoms(use_true_random=False))
def test_connectivity_is_permutation_invariant(s, rng):
    perm = list(range(s.rank))
    rng.shuffle(perm)
    p = permuted(s, perm)
    assert is_connected(p) == is_connected(s)
    assert len(components(p)) == len(components(s))


@given(coxeter_systems(min_rank=2))
def test_components_partition_the_vertex_set(s):
    comps = components(s)
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(s.rank))
    # no edges between distinct components
    for a in range(len(comps)):
        for b in range(a + 1, len(comps)):
            for u in comps[a]:
                for v in comps[b]:
                    assert s.label(u, v) == 2
    # each component is connected inside itself, by a search over its own edges
    for comp in comps:
        reached, frontier = {comp[0]}, [comp[0]]
        while frontier:
            u = frontier.pop()
            for v in comp:
                if v not in reached and s.label(u, v) != 2:
                    reached.add(v)
                    frontier.append(v)
        assert reached == set(comp)


@given(coxeter_systems(min_rank=0))
def test_masks_mark_the_diagram_neighbours(s):
    want = [sum(1 << j for j in range(s.rank) if j != i and s.label(i, j) != 2) for i in range(s.rank)]
    assert s.masks == tuple(want)


def test_masks_are_built_once_and_stay_out_of_identity_and_pickles(monkeypatch):
    # ~A2, an inf bond and a lone vertex: three components, and a commuting
    # infinite pair as the witness
    s = CoxeterSystem.from_edges(6, {(0, 1): 3, (1, 2): 3, (0, 2): 3, (3, 4): INFINITY})
    fresh = CoxeterSystem.from_edges(6, {(0, 1): 3, (1, 2): 3, (0, 2): 3, (3, 4): INFINITY})
    prop = CoxeterSystem.__dict__["masks"]
    build, built = prop.func, []

    def spy(system):
        built.append(system)
        return build(system)

    monkeypatch.setattr(prop, "func", spy)
    _closure.cache_clear()  # so the walk reads these masks, not a cached walk's
    assert [v for v, _ in classify(s)] == [(0, 1, 2), (3, 4), (5,)]
    assert signature(s).as_tuple == (4, 2, 0)
    verdict = is_hyperbolic(s)
    assert not verdict.hyperbolic and validate_witness(s, verdict.witness)
    assert kazhdan_threshold(s).d == 4
    assert components(s) == [(0, 1, 2), (3, 4), (5,)] and not is_connected(s)
    assert len(built) == 1 and built[0] is s  # no scan builds masks on a copy either

    assert "masks" in vars(s) and "masks" not in vars(fresh)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert pickle.dumps(s) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and "masks" not in vars(copy)
    assert copy.masks == s.masks
