import pytest
from hypothesis import given, settings

from coxtools import (
    INFINITY,
    AffineSubset,
    CommutingInfinitePair,
    CoxeterSystem,
    affine_from_commuting,
    check_affine_criterion,
    classify_irreducible,
    has_affine_parabolic,
    is_hyperbolic,
    restrict,
    standard_system,
    validate_witness,
)
from coxtools.catalog import affine_A, overextended_E8, path_system, type_A
from conftest import coxeter_systems, permuted


def square_of_triangles() -> CoxeterSystem:
    """Two commuting ~A2 triangles: 0-1-2 and 3-4-5, all cross labels 2."""
    edges = {}
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        edges[(a, b)] = 3
    return CoxeterSystem.from_edges(6, edges)


def test_affine_triangle_witness():
    v = is_hyperbolic(affine_A(2))
    assert not v.hyperbolic
    assert v.witness == AffineSubset((0, 1, 2))


def test_infinite_dihedral_is_hyperbolic():
    v = is_hyperbolic(path_system([INFINITY]))
    assert v.hyperbolic and v.witness is None


def test_spherical_is_hyperbolic():
    assert is_hyperbolic(standard_system("E8")).hyperbolic


def test_commuting_pair_preferred_over_affine_subset():
    # both witnesses exist here; the flat pair is the one reported
    v = is_hyperbolic(square_of_triangles())
    assert not v.hyperbolic
    assert v.witness == CommutingInfinitePair((0, 1, 2), (3, 4, 5))


def test_commuting_infinite_labels_pair():
    s = CoxeterSystem.from_edges(4, {(0, 1): INFINITY, (2, 3): INFINITY})
    v = is_hyperbolic(s)
    assert not v.hyperbolic
    assert v.witness == CommutingInfinitePair((0, 1), (2, 3))


def test_overextension_not_hyperbolic_by_affine_subset():
    v = is_hyperbolic(overextended_E8())
    assert not v.hyperbolic
    assert v.witness == AffineSubset(tuple(range(9)))


def test_validate_witness_accepts_real_witnesses():
    assert validate_witness(affine_A(2), AffineSubset((0, 1, 2)))
    assert validate_witness(
        square_of_triangles(), CommutingInfinitePair((0, 1, 2), (3, 4, 5))
    )


def test_validate_witness_rejects_bad_witnesses():
    tri = affine_A(2)
    assert not validate_witness(tri, AffineSubset((0, 1)))
    sq = square_of_triangles()
    # overlapping halves
    assert not validate_witness(sq, CommutingInfinitePair((0, 1, 2), (2, 3, 4)))
    # non-commuting halves
    s = CoxeterSystem.from_edges(6, {
        (0, 1): 3, (1, 2): 3, (0, 2): 3,
        (3, 4): 3, (4, 5): 3, (3, 5): 3,
        (2, 3): 3,
    })
    assert not validate_witness(s, CommutingInfinitePair((0, 1, 2), (3, 4, 5)))
    # spherical halves
    assert not validate_witness(sq, CommutingInfinitePair((0, 1), (3, 4)))


@given(coxeter_systems(max_rank=6))
@settings(max_examples=80)
def test_witnesses_always_revalidate(s):
    v = is_hyperbolic(s)
    assert v.hyperbolic == (v.witness is None)
    if v.witness is not None:
        assert validate_witness(s, v.witness)


@given(coxeter_systems(max_rank=5))
@settings(max_examples=50)
def test_hyperbolicity_is_isomorphism_invariant(s):
    perm = list(reversed(range(s.rank)))
    assert is_hyperbolic(permuted(s, perm)).hyperbolic == is_hyperbolic(s).hyperbolic


# -- affine criterion --------------------------------------------------------


def test_criterion_in_hypothesis_cases():
    chk = check_affine_criterion(overextended_E8())
    assert chk.hypotheses_ok
    assert not chk.hyperbolic
    assert chk.affine_parabolic == tuple(range(9))
    assert chk.consistent

    chk2 = check_affine_criterion(type_A(4))
    assert chk2.hypotheses_ok and chk2.hyperbolic and chk2.affine_parabolic is None
    assert chk2.consistent


def test_criterion_vacuous_outside_hypotheses():
    # two commuting infinite-dihedral pairs: not hyperbolic, yet no affine
    # subset of rank >= 3; the hypotheses exclude exactly this shape
    s = CoxeterSystem.from_edges(4, {(0, 1): INFINITY, (2, 3): INFINITY})
    chk = check_affine_criterion(s)
    assert not chk.hypotheses_ok
    assert not chk.hyperbolic
    assert chk.affine_parabolic is None
    assert chk.consistent


# -- constructive affine search ----------------------------------------------


def bridged(systems_edges, bridge_edges, rank):
    edges = {}
    for a, b, m in systems_edges:
        edges[(a, b)] = m
    for a, b, m in bridge_edges:
        edges[(a, b)] = m
    return CoxeterSystem.from_edges(rank, edges)


def two_cycles_with_bridge() -> CoxeterSystem:
    """Two non-affine minimal infinite 4-cycles joined through vertex 4."""
    return bridged(
        [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 4),
         (5, 6, 3), (6, 7, 3), (7, 8, 3), (5, 8, 4)],
        [(0, 4, 3), (4, 5, 3)],
        9,
    )


def test_affine_from_commuting_returns_affine_side_directly():
    s = bridged(
        [(0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 3), (4, 5, 3), (3, 5, 3)],
        [(0, 6, 3), (3, 6, 3)],
        7,
    )
    r = affine_from_commuting(s, (0, 1, 2), (3, 4, 5))
    assert r.subset == (0, 1, 2)
    assert not r.fallback_used


def test_affine_from_commuting_on_bridged_cycles():
    s = two_cycles_with_bridge()
    I, J = (0, 1, 2, 3), (5, 6, 7, 8)
    r = affine_from_commuting(s, I, J)
    sub = restrict(s, r.subset)
    assert classify_irreducible(sub).is_affine
    assert not r.fallback_used
    assert set(r.subset) <= set(I) | set(J) | {4}


def test_affine_from_commuting_is_order_insensitive():
    s = two_cycles_with_bridge()
    r1 = affine_from_commuting(s, (0, 1, 2, 3), (5, 6, 7, 8))
    r2 = affine_from_commuting(s, (8, 7, 6, 5), (3, 2, 1, 0))
    assert r1.subset == r2.subset


def test_affine_from_commuting_relabeled_instance():
    s = two_cycles_with_bridge()
    perm = [8, 0, 7, 1, 6, 2, 5, 3, 4]  # new index of old vertex i is perm[i]
    inv = [perm.index(k) for k in range(9)]
    p = permuted(s, inv)
    I = tuple(sorted(perm[v] for v in (0, 1, 2, 3)))
    J = tuple(sorted(perm[v] for v in (5, 6, 7, 8)))
    r = affine_from_commuting(p, I, J)
    assert classify_irreducible(restrict(p, r.subset)).is_affine
    assert not r.fallback_used


def test_affine_from_commuting_prefers_cycle_and_bounded_path_types():
    # the first affine subset of the bridged union is the ~B3 on 1, 2, 3, 4;
    # the constructive argument reports the later ~C6 instead
    s = CoxeterSystem.from_edges(
        10,
        {(0, 1): 3, (0, 3): 3, (1, 2): 3, (2, 3): 4, (2, 4): 3, (4, 9): 3,
         (5, 6): 3, (5, 8): 3, (6, 7): 4, (7, 8): 3, (8, 9): 3},
    )
    assert has_affine_parabolic(s) == (1, 2, 3, 4)
    r = affine_from_commuting(s, (0, 1, 2, 3), (5, 6, 7, 8))
    assert r.subset == (2, 3, 4, 6, 7, 8, 9)
    assert classify_irreducible(restrict(s, r.subset)).name == "~C6"
    assert not r.fallback_used


def test_affine_from_commuting_precondition_errors():
    sq = square_of_triangles()
    with pytest.raises(ValueError, match="connected"):
        affine_from_commuting(sq, (0, 1, 2), (3, 4, 5))

    s = two_cycles_with_bridge()
    with pytest.raises(ValueError, match="disjoint"):
        affine_from_commuting(s, (0, 1, 2, 3), (3, 5, 6, 7))
    with pytest.raises(ValueError, match="infinite"):
        affine_from_commuting(s, (0, 1, 2), (5, 6, 7, 8))
    with pytest.raises(ValueError, match="infinite"):
        affine_from_commuting(s, (), (5, 6, 7, 8))
    # a pendant vertex makes the left side infinite but no longer minimal
    pend = bridged(
        [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 4),
         (5, 6, 3), (6, 7, 3), (7, 8, 3), (5, 8, 4), (1, 9, 3)],
        [(0, 4, 3), (4, 5, 3)],
        10,
    )
    with pytest.raises(ValueError, match="minimal"):
        affine_from_commuting(pend, (0, 1, 2, 3, 9), (5, 6, 7, 8))
    # touching subsets do not commute
    t = bridged(
        [(0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 3), (4, 5, 3), (3, 5, 3)],
        [(2, 3, 3)],
        6,
    )
    with pytest.raises(ValueError, match="commute"):
        affine_from_commuting(t, (0, 1, 2), (3, 4, 5))

    h = bridged(
        [(0, 1, 5), (1, 2, 5), (3, 4, 5), (4, 5, 5)],  # label 5: not crystallographic
        [(2, 3, 3)],
        6,
    )
    with pytest.raises(ValueError, match="crystallographic"):
        affine_from_commuting(h, (0, 1, 2), (3, 4, 5))


# (valid side, bad side, message) in two_cycles_with_bridge(): an index past
# the rank, a bool that equals vertex 1 of the valid side, and -1, which
# Python would read as vertex 8, a neighbour of the valid side
BAD_INDICES = [
    ((0, 1, 2, 3), (5, 6, 99), "vertex index 99 "),
    ((0, 1, 2, 3), (4, 5, True), "vertex index True "),
    ((5, 6, 7, 8), (0, 1, 2, -1), "vertex index -1 "),
]


@pytest.mark.parametrize("good, bad, message", BAD_INDICES)
def test_affine_from_commuting_rejects_bad_indices(good, bad, message):
    s = two_cycles_with_bridge()
    with pytest.raises(ValueError, match=message):
        affine_from_commuting(s, good, bad)
    with pytest.raises(ValueError, match=message):
        affine_from_commuting(s, bad, good)


@pytest.mark.parametrize("good, bad, message", BAD_INDICES)
def test_validate_witness_rejects_bad_indices(good, bad, message):
    s = two_cycles_with_bridge()
    with pytest.raises(ValueError, match=message):
        validate_witness(s, CommutingInfinitePair(good, bad))
    with pytest.raises(ValueError, match=message):
        validate_witness(s, CommutingInfinitePair(bad, good))
    with pytest.raises(ValueError, match=message):
        validate_witness(s, AffineSubset(bad))


# subsets too small to be an affine witness are still checked for bad indices
@pytest.mark.parametrize(
    "subset, message", [((99, 100), "vertex index 99 "), ((0, -1), "vertex index -1 ")]
)
def test_validate_witness_rejects_bad_indices_in_small_affine_subsets(subset, message):
    with pytest.raises(ValueError, match=message):
        validate_witness(two_cycles_with_bridge(), AffineSubset(subset))
    assert validate_witness(affine_A(2), AffineSubset((0, 1))) is False
