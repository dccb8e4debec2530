import hashlib
import importlib
import json
import math
import random
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, islice, permutations, product

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from coxtools import (
    INFINITY,
    AffineSubset,
    CommutingInfinitePair,
    CoxeterSystem,
    HyperbolicityVerdict,
    check_affine_criterion,
    classify,
    classify_irreducible,
    has_affine_parabolic,
    is_connected,
    is_crystallographic,
    is_hyperbolic,
    is_k_spherical,
    is_spherical,
    kazhdan_threshold,
    max_spherical_rank,
    minimal_infinite_subsets,
    restrict,
    signature,
    standard_system,
)
from coxtools.catalog import (
    affine_A,
    affine_B,
    affine_C,
    affine_D,
    affine_E,
    affine_F4,
    affine_G2,
    cycle_system,
    overextended_E8,
    path_system,
    type_A,
    type_BC,
    type_D,
    type_E,
    type_F4,
    type_G2,
    type_H,
    type_I2,
)
from coxtools.classify import (
    _enclosure,
    _fx_add,
    _fx_sign,
    _inertia,
    _inertia_fixed,
    _least_prime_power,
    _pi,
)
from coxtools.cli import MAX_RANK
from coxtools.core import _reach, components
from coxtools.enumeration import EnumFilter, canonical_code, iter_levels
from conftest import coxeter_systems

# the package exports a function named classify, which hides the module
classify_module = importlib.import_module("coxtools.classify")


def _clear_memos():
    classify_module._TYPES.clear()
    classify_module._SIGNATURES.clear()


@pytest.fixture
def cold_memos():
    """Empty type and signature memos before and after the test, so that a
    test sees what its patched engine computes, whatever ran before it."""
    _clear_memos()
    yield
    _clear_memos()


# -- pattern tables, one entry per family and rank regime ------------------


SPHERICAL_CASES = [
    (type_A(1), "A1", ()),
    (type_A(2), "A2", ("I2(3)",)),
    (type_A(7), "A7", ()),
    (type_BC(2), "B/C2", ("B2", "C2", "I2(4)")),
    (type_BC(3), "B/C3", ("B3", "C3")),
    (type_BC(8), "B/C8", ("B8", "C8")),
    (type_D(4), "D4", ()),
    (type_D(9), "D9", ()),
    (type_E(6), "E6", ()),
    (type_E(7), "E7", ()),
    (type_E(8), "E8", ()),
    (type_F4(), "F4", ()),
    (type_G2(), "G2", ("I2(6)",)),
    (type_H(3), "H3", ()),
    (type_H(4), "H4", ()),
    (type_I2(5), "I2(5)", ("H2",)),
    (type_I2(7), "I2(7)", ()),
    (type_I2(97), "I2(97)", ()),
]

AFFINE_CASES = [
    (affine_A(1), "~A1", ("I2(inf)",)),
    (affine_A(2), "~A2", ()),
    (affine_A(9), "~A9", ()),
    (affine_B(3), "~B3", ()),
    (affine_B(8), "~B8", ()),
    (affine_C(2), "~C2", ("~B2",)),
    (affine_C(7), "~C7", ()),
    (affine_D(4), "~D4", ()),
    (affine_D(8), "~D8", ()),
    (affine_E(6), "~E6", ()),
    (affine_E(7), "~E7", ()),
    (affine_E(8), "~E8", ()),
    (affine_F4(), "~F4", ()),
    (affine_G2(), "~G2", ()),
]


@pytest.mark.parametrize(
    "system,name,aliases",
    SPHERICAL_CASES,
    ids=[c[1] for c in SPHERICAL_CASES],
)
def test_spherical_table(system, name, aliases):
    tc = classify_irreducible(system)
    assert tc.is_spherical
    assert tc.name == name
    assert set(aliases) <= set(tc.aliases)


@pytest.mark.parametrize(
    "system,name,aliases", AFFINE_CASES, ids=[c[1] for c in AFFINE_CASES]
)
def test_affine_table(system, name, aliases):
    tc = classify_irreducible(system)
    assert tc.is_affine
    assert tc.name == name
    assert set(aliases) <= set(tc.aliases)


def test_affine_D4_is_the_four_leaf_star():
    # the general ~D_n construction with an empty middle path
    assert affine_D(4).edges() == [(0, 2, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)]


INDEFINITE_CASES = [
    ("infinite dihedral path", path_system([INFINITY, 3])),
    ("triangle 3 3 4", CoxeterSystem.from_edges(3, {(0, 1): 3, (1, 2): 3, (0, 2): 4})),
    ("path 5 5", path_system([5, 5])),
    ("path 4 6", path_system([4, 6])),
    ("four-valent star with a 4", CoxeterSystem.from_edges(
        5, {(0, 4): 3, (1, 4): 3, (2, 4): 3, (3, 4): 4})),
    ("fork arms 2,2,3 all-3", CoxeterSystem.from_edges(
        8, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (2, 6): 3, (6, 7): 3})),
    ("overextended E8", overextended_E8()),
]


@pytest.mark.parametrize(
    "label,system", INDEFINITE_CASES, ids=[c[0] for c in INDEFINITE_CASES]
)
def test_indefinite_catch_all(label, system):
    tc = classify_irreducible(system)
    assert tc.is_indefinite
    assert str(tc) == "indefinite"


def test_classify_irreducible_rejects_disconnected_and_empty():
    with pytest.raises(ValueError):
        classify_irreducible(CoxeterSystem.from_edges(2, {}))
    with pytest.raises(ValueError):
        classify_irreducible(CoxeterSystem.empty())


def test_classify_componentwise():
    # A2 together with a ~A2 triangle
    s = CoxeterSystem.from_edges(
        5, {(0, 1): 3, (2, 3): 3, (3, 4): 3, (2, 4): 3}
    )
    out = classify(s)
    assert [(sub, tc.name) for sub, tc in out] == [((0, 1), "A2"), ((2, 3, 4), "~A2")]
    assert classify(CoxeterSystem.empty()) == []


def _edge_list_type(system):
    """The shape recognizer as it was before it typed masks: it reads the
    edge list of a sliced, nonempty, connected system."""
    sph, aff, indefinite = classify_module._sph, classify_module._aff, classify_module.INDEFINITE
    n = system.rank
    if n == 1:
        return sph("A1")
    if n == 2:
        return classify_module._classify_rank2(system.labels[0][1])
    edges = system.edges()
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    degrees = [len(a) for a in adj]
    if len(edges) >= n:
        if len(edges) == n and all(d == 2 for d in degrees) and all(m == 3 for _, _, m in edges):
            return aff(f"~A{n - 1}")
        return indefinite
    maxdeg = max(degrees)
    if maxdeg >= 4:
        if n == 5 and sorted(degrees) == [1, 1, 1, 1, 4] and all(m == 3 for _, _, m in edges):
            return aff("~D4")
        return indefinite
    branch = [v for v in range(n) if degrees[v] == 3]

    def arm(prev, cur):
        labels = [system.labels[prev][cur]]
        while degrees[cur] == 2:
            a, b = adj[cur]
            prev, cur = cur, b if a == prev else a
            labels.append(system.labels[prev][cur])
        return labels

    if not branch:
        start = degrees.index(1)
        return classify_module._classify_path(arm(start, adj[start][0]))
    if len(branch) == 1:
        return classify_module._classify_fork([arm(branch[0], first) for first in adj[branch[0]]])
    leaves = [v for v in range(n) if degrees[v] == 1]
    if (
        len(branch) == 2
        and all(m == 3 for _, _, m in edges)
        and len(leaves) == 4
        and all(adj[v][0] in branch for v in leaves)
    ):
        return aff(f"~D{n - 1}")
    return indefinite


def _assert_mask_type_matches_edge_list(system, mask):
    labels = system.labels
    got = classify_module._classify_mask(labels, system.masks, mask)
    want = _edge_list_type(restrict(system, [v for v in range(system.rank) if mask >> v & 1]))
    assert (got.kind, got.name, got.aliases) == (want.kind, want.name, want.aliases), mask
    return got


@st.composite
def typer_systems(draw, max_rank=9):
    """Systems up to rank 9 with labels {3, 4, 5, 6, 7, inf}, drawn sparse
    often enough that paths, forks and cycles come up among their subsets."""
    n = draw(st.integers(min_value=1, max_value=max_rank))
    pool = [2] * draw(st.sampled_from([1, 3, 6, 12])) + [3, 3, 3, 4, 5, 6, 7, INFINITY]
    labels = st.sampled_from(pool)
    edges = {(i, j): draw(labels) for i in range(n) for j in range(i + 1, n)}
    return CoxeterSystem.from_edges(n, {ij: m for ij, m in edges.items() if m != 2})


@given(typer_systems())
@settings(max_examples=150)
def test_mask_typer_matches_the_edge_list_recognizer(s):
    # every connected vertex set, contiguous or not
    for mask in range(1, 1 << s.rank):
        if _reach(s.masks, mask, mask & -mask) == mask:
            _assert_mask_type_matches_edge_list(s, mask)


def _table_names():
    names = ["F4", "G2", "~F4", "~G2", "E10", "~B2", "I2(5)", "I2(7)", "I2(12)", "I2(inf)"]
    for family in ("A", "B", "C", "D", "E", "H", "~A", "~B", "~C", "~D", "~E"):
        names += [f"{family}{k}" for k in range(1, 10)]
    out = []
    for name in names:
        try:
            standard_system(name)
        except ValueError:
            continue
        out.append(name)
    return out


TABLE_NAMES = _table_names()


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_mask_typer_finds_every_table_name_embedded_in_a_larger_diagram(name):
    # the table diagram sits at shuffled positions among three more vertices,
    # each joined to some vertices of it or of each other
    table = standard_system(name)
    rng = random.Random(name)
    n = table.rank + 3
    pos = rng.sample(range(n), table.rank)
    edges = {tuple(sorted((pos[i], pos[j]))): m for i, j, m in table.edges()}
    for v in set(range(n)) - set(pos):
        for w in rng.sample([u for u in range(n) if u != v], 2):
            edges[tuple(sorted((v, w)))] = rng.choice([3, 4, 5, INFINITY])
    s = CoxeterSystem.from_edges(n, edges)
    got = _assert_mask_type_matches_edge_list(s, sum(1 << v for v in pos))
    assert got == classify_irreducible(table)
    assert got.is_indefinite == (name == "E10")


# -- signature engine -------------------------------------------------------


def _numpy_gram(system):
    n = system.rank
    g = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = system.labels[i][j]
                g[i][j] = -1.0 if math.isinf(m) else -math.cos(math.pi / m)
    return g


def _float_signature(system, tol=1e-7):
    eigs = np.linalg.eigvalsh(_numpy_gram(system))
    if any(abs(e) <= tol for e in eigs):
        return None  # too close to zero to trust floats
    return (int(sum(e > 0 for e in eigs)), 0, int(sum(e < 0 for e in eigs)))


def test_signature_frozen_values():
    assert signature(type_A(2)).as_tuple == (2, 0, 0)
    assert signature(affine_A(2)).as_tuple == (2, 1, 0)
    assert signature(path_system([4, 4])).as_tuple == (2, 1, 0)
    t334 = CoxeterSystem.from_edges(3, {(0, 1): 3, (1, 2): 3, (0, 2): 4})
    assert signature(t334).as_tuple == (2, 0, 1)
    assert signature(overextended_E8()).as_tuple == (9, 0, 1)


def test_signature_definitions_on_tables():
    # spherical means positive definite; affine means corank exactly 1
    for system, _, _ in SPHERICAL_CASES:
        assert signature(system).as_tuple == (system.rank, 0, 0)
    for system, _, _ in AFFINE_CASES:
        assert signature(system).as_tuple == (system.rank - 1, 1, 0)


def test_signature_sums_over_components():
    s = CoxeterSystem.from_edges(5, {(0, 1): 3, (2, 3): 3, (3, 4): 3, (2, 4): 3})
    assert signature(s).as_tuple == (4, 1, 0)


def test_signature_interval_path_on_noncrystallographic():
    assert signature(type_H(4)).as_tuple == (4, 0, 0)
    assert signature(path_system([5, 5])).as_tuple == (2, 0, 1)


@given(coxeter_systems(max_rank=5))
@settings(max_examples=60)
def test_signature_matches_float_oracle(s):
    expected = _float_signature(s)
    if expected is None:
        return
    assert signature(s).as_tuple == expected


@given(coxeter_systems(min_rank=0, max_rank=6, max_finite=30))
@settings(max_examples=300)
def test_public_entry_points_never_raise(s):
    # the one deliberate exception is the threshold of the empty diagram
    parts = classify(s)
    sig = signature(s)
    assert sig.rank == s.rank
    for comp, tc in parts:
        # the two engines agree on every component
        p, z, m = signature(restrict(s, comp)).as_tuple
        assert tc.is_spherical == (z == m == 0)
        assert tc.is_affine == (z == 1 and m == 0)
    is_hyperbolic(s)
    if s.rank == 0:
        with pytest.raises(ValueError):
            kazhdan_threshold(s)
    else:
        kazhdan_threshold(s)
    minimal_infinite_subsets(s)
    has_affine_parabolic(s)
    has_affine_parabolic(s, include_rank2_infty=True)
    max_spherical_rank(s)
    for k in range(1, s.rank + 2):
        is_k_spherical(s, k)
    canonical_code(s)


# -- exact oracle for the crystallographic engine ------------------------------

_SQRT_FIELD = sympy.QQ.algebraic_field(sympy.sqrt(2), sympy.sqrt(3))
# cos(pi/5) = (1 + sqrt5) / 4
_SQRT5_FIELD = sympy.QQ.algebraic_field(sympy.sqrt(5))


def _sympy_signature(system, field=_SQRT_FIELD):
    """Signature from the exact characteristic polynomial of the cosine Gram.

    field must hold every cos(pi/m) of the labels: Q(sqrt2, sqrt3) for the
    crystallographic labels, Q(sqrt5) for {2, 3, 5, inf}.  A real symmetric
    matrix has only real eigenvalues, so Descartes' rule of signs on the
    exact coefficients counts the positive roots of p(x) and of p(-x)
    exactly; the zero eigenvalues are the trailing zero coefficients.
    """
    n = system.rank

    def entry(i, j):
        if i == j:
            return sympy.Integer(1)
        m = system.labels[i][j]
        return sympy.Integer(-1) if math.isinf(m) else -sympy.cos(sympy.pi / m)

    dm = DomainMatrix.from_Matrix(sympy.Matrix(n, n, entry)).convert_to(field)
    coeffs = dm.charpoly()  # leading coefficient first
    n_zero = 0
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
        n_zero += 1

    def sign_changes(values):
        signs = []
        for c in values:
            if field.is_zero(c):
                continue
            positive = field.to_sympy(c).is_positive
            assert positive is not None
            signs.append(positive)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    k = len(coeffs) - 1
    n_plus = sign_changes(coeffs)
    n_minus = sign_changes([c if (k - i) % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return n_plus, n_zero, n_minus


@st.composite
def crystallographic_systems(draw, max_rank=6):
    n = draw(st.integers(min_value=1, max_value=max_rank))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.sampled_from([2, 3, 4, 6, INFINITY]))
    return CoxeterSystem.from_rows(mat)


# connected, singular and indefinite: each has signature (3, 1, 1)
SINGULAR_INDEFINITE = [
    path_system([INFINITY, 3, 3, INFINITY]),
    path_system([INFINITY, 4, 4, INFINITY]),
    path_system([INFINITY, 3, 6, INFINITY]),
    path_system([INFINITY, 6, 6, INFINITY]),
    path_system([INFINITY] * 4),
    CoxeterSystem.from_edges(
        5, {(0, 4): INFINITY, (1, 2): 3, (1, 3): 3, (1, 4): 3, (2, 3): INFINITY}
    ),
]

SINGULAR_CASES = (
    [system for system, _, _ in AFFINE_CASES]
    + [cycle_system([3] * n) for n in (3, 4, 7, 12)]
    + SINGULAR_INDEFINITE
    # a disconnected sum of singular components
    + [CoxeterSystem.from_edges(6, {(0, 1): 4, (1, 2): 4, (3, 4): 6, (4, 5): 3})]
)


@pytest.mark.parametrize("system", SINGULAR_CASES, ids=repr)
def test_signature_exact_oracle_on_singular_systems(system):
    want = _sympy_signature(system)
    assert want[1] > 0
    if system in SINGULAR_INDEFINITE:
        assert len(classify(system)) == 1 and want == (3, 1, 1)
    assert signature(system).as_tuple == want


@given(crystallographic_systems(max_rank=6))
@settings(max_examples=50)
def test_signature_matches_exact_sympy_oracle(s):
    assert signature(s).as_tuple == _sympy_signature(s)


def test_signature_large_rank_known_values():
    # every Schur entry is an enclosure at the working 2^p whatever the rank,
    # so exact entries that grow with it never form; on a path each
    # least-degree pivot updates one entry
    assert signature(type_A(40)).as_tuple == (40, 0, 0)
    assert signature(affine_A(39)).as_tuple == (39, 1, 0)
    mixed = path_system([(4, 3, 6, 3)[i % 4] for i in range(39)])
    assert signature(mixed).as_tuple == _float_signature(mixed) == (30, 0, 10)


@pytest.mark.parametrize("system", SINGULAR_CASES, ids=repr)
def test_fixed_point_engine_certifies_exact_zeros(system):
    # the exact kernel of every singular case, crystallographic or not, is
    # found by the algebraic-integer gap of the fixed-point engine
    assert _inertia_fixed(system) == _sympy_signature(system)


def _upper(text):
    """A rank-5 system from its upper-triangle labels, row by row."""
    vals = iter(INFINITY if t == "inf" else int(t) for t in text.split())
    return CoxeterSystem.from_edges(5, {(i, j): next(vals) for i in range(5) for j in range(i + 1, 5)})


# the 30 connected {2,3,5,inf} classes of rank <= 5 whose signature the
# former mpmath interval engine could not decide: each is singular and
# indefinite, so its kernel must be certified exactly
SINGULAR_235INF = [_upper(t) for t in (
    "2 2 2 inf 2 3 5 inf 2 2", "2 2 2 inf 2 5 5 inf 2 2", "2 2 2 inf 2 5 inf inf 2 2",
    "2 2 2 inf 3 3 5 inf 2 2", "2 2 2 inf 3 5 3 inf 2 2", "2 2 2 inf 3 5 5 inf 2 2",
    "2 2 2 inf 3 5 inf inf 2 2", "2 2 2 inf 3 inf 2 inf 5 2", "2 2 2 inf 5 5 3 inf 2 2",
    "2 2 2 inf 5 5 5 inf 2 2", "2 2 2 inf 5 5 inf inf 2 2", "2 2 2 inf 5 inf 2 inf 3 2",
    "2 2 2 inf 5 inf 2 inf 5 2", "2 2 2 inf 5 inf 2 inf inf 2", "2 2 2 inf inf inf 2 inf 2 5",
    "2 2 3 inf inf 3 2 3 2 5", "2 2 3 inf inf 3 2 5 2 5", "2 2 3 inf inf 3 2 5 2 inf",
    "2 2 3 inf inf 5 2 5 2 3", "2 2 3 inf inf 5 2 5 2 5", "2 2 3 inf inf 5 2 5 2 inf",
    "2 2 3 inf inf 5 2 inf 2 3", "2 2 3 inf inf 5 2 inf 2 5", "2 2 3 inf inf 5 2 inf 2 inf",
    "2 2 3 inf inf inf 2 inf 2 5", "2 2 5 inf inf 5 2 5 2 5", "2 2 5 inf inf 5 2 5 2 inf",
    "2 2 5 inf inf 5 2 inf 2 inf", "2 2 5 inf inf inf 2 inf 2 5", "2 2 5 inf inf inf 2 inf 2 inf",
)]


def test_formerly_undecided_235inf_classes_match_sympy():
    assert len({canonical_code(s) for s in SINGULAR_235INF}) == 30
    for s in SINGULAR_235INF:
        assert is_connected(s) and not is_crystallographic(s)
        assert signature(s).as_tuple == _sympy_signature(s, _SQRT5_FIELD) == (3, 1, 1)


@pytest.mark.parametrize(
    "system, want",
    [
        (path_system([4, 4, 7, 11, 13, 29]), (5, 0, 2)),
        # two ~C2 joined at their ends by a label of degree phi(2 * 116116) / 2
        # = 40320: once both ~C2 are pivoted but for their ends, every active
        # diagonal entry is an exact 0 of Q(sqrt2), which must be certified
        # before the row/column addition; with the degree of the whole
        # component that would take about 10^6 bits
        (
            CoxeterSystem.from_edges(
                6, {(0, 1): 4, (1, 2): 4, (3, 4): 4, (4, 5): 4, (2, 5): 7 * 11 * 13 * 29}
            ),
            (5, 0, 1),
        ),
    ],
)
def test_gap_is_taken_per_entry(system, want, monkeypatch, cold_memos):
    def bounded(m, p):
        assert p <= 512, f"precision escalated to {p} bits"
        return _enclosure(m, p)

    monkeypatch.setattr(classify_module, "_enclosure", bounded)
    start = time.perf_counter()
    assert signature(system).as_tuple == want
    assert time.perf_counter() - start < 1.0  # a loose backstop; both take ~1 ms


@pytest.mark.parametrize("m", [2**40, 3**25, 2**61 - 1])
def test_tiny_nonzero_minor_is_not_snapped(m):
    # det 2B of I2(m) is 4 sin^2(pi/m), about 2^-76 for m = 2^40: inside the
    # 64-bit enclosure width, but far outside the gap of its degree-2^39 field.
    # The prime 2^61 - 1 is not factored in full: a cofactor left by bounded
    # trial division only raises the degree bound.
    assert _inertia_fixed(type_I2(m)) == (2, 0, 0)


def _mpmath_signature(system, dps=60):
    """Eigenvalue signs of the cosine form at dps digits, 0 within 10^(-dps/2)."""
    n = system.rank
    with mpmath.workdps(dps):
        g = mpmath.matrix(n, n)
        for i, row in enumerate(system.labels):
            for j, m in enumerate(row):
                g[i, j] = 1 if i == j else -1 if math.isinf(m) else -mpmath.cos(mpmath.pi / m)
        eigs = mpmath.eigsy(g, eigvals_only=True)
        tol = mpmath.mpf(10) ** (-dps // 2)
        return (sum(e > tol for e in eigs), sum(abs(e) <= tol for e in eigs),
                sum(e < -tol for e in eigs))


@pytest.mark.parametrize(
    "system, want",
    [
        (path_system([INFINITY, 5, 7, 4, 4, 7, 5, INFINITY]), (6, 1, 2)),
        (path_system([INFINITY, 7, 8, INFINITY]), (3, 1, 1)),
    ],
)
def test_precision_jumps_to_the_gap(system, want, monkeypatch, cold_memos):
    # the kernel of each needs the gap of Q(cos(pi/140)) or Q(cos(pi/56)),
    # about 2100 and 520 bits: the pass after p = 96 goes straight there
    # instead of doubling through 7 or 5 passes
    seen = set()

    def recording(m, p):
        seen.add(p)
        return _enclosure(m, p)

    monkeypatch.setattr(classify_module, "_enclosure", recording)
    assert signature(system).as_tuple == want
    assert len(seen) <= 2, sorted(seen)
    assert _mpmath_signature(system) == want


ORACLE_LABELS = (2, 3, 4, 5, 6, 7, 8, INFINITY, 7 * 11 * 13 * 29)


@st.composite
def oracle_systems(draw, max_rank=10):
    n = draw(st.integers(min_value=1, max_value=max_rank))
    sparse = draw(st.integers(min_value=0, max_value=3))  # in quarters of pairs
    edges = {}
    for pair in combinations(range(n), 2):
        if draw(st.integers(min_value=0, max_value=3)) >= sparse:
            edges[pair] = draw(st.sampled_from(ORACLE_LABELS))
    return CoxeterSystem.from_edges(n, edges)


@given(oracle_systems())
@settings(max_examples=200)
def test_sparse_engine_matches_the_dense_oracle(s):
    want = [0, 0, 0]
    for comp in components(s):
        want = [a + b for a, b in zip(want, _dense_signature(restrict(s, comp)))]
    assert signature(s).as_tuple == tuple(want)


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: path_system([(4, 5, 7)[i % 3] for i in range(999)]), (705, 0, 295)),
        (lambda: type_A(1000), (1000, 0, 0)),
        (lambda: affine_A(999), (999, 1, 0)),
        # pivoting on the centre first would fill in all C(999, 2) leaf pairs
        (lambda: CoxeterSystem.from_edges(1000, {(0, v): 3 for v in range(1, 1000)}), (999, 0, 1)),
    ],
    ids=["path-457", "A1000", "~A999", "star999"],
)
def test_signature_at_rank_1000_within_a_loose_budget(build, want):
    system = build()
    start = time.perf_counter()
    assert signature(system).as_tuple == want
    assert time.perf_counter() - start < 2.0  # a loose backstop; each takes ~0.1 s
    if want[1] == 0:  # the least |eigenvalue| of the path is 2.8e-4
        assert _float_signature(system) == want


def test_zero_certificate_counts_every_pivot():
    # S = 0 - 1 / 2^70 lies within 2^-64 of 0, but its minor
    # det [[2^70, 1], [1, 0]] = -1 does not, once the pivot 2^70 is counted
    assert _integer_inertia([[2**70, 1], [1, 0]]) == (1, 0, 1)
    # after a pivot 2^-64 of a field whose gap is 2^-1000, S times the
    # pivots is a minor of that field, and only its gap may certify S
    p = 64
    while True:
        one, tiny = (1 << p, 1 << p, 0), (1 << p - 64, 1 << p - 64, 1)
        m = [{0: (2**70 << p, 2**70 << p, 0), 1: one}, {0: one}, {2: tiny}]
        if isinstance(out := _inertia(m, p, lambda u: 1000 * (u & 1)), tuple):
            break
        p = max(out, 2 * p)
    assert out == (2, 0, 1) and p > 1000


def test_integer_labels_take_one_pass(monkeypatch, cold_memos):
    # 2^p 2B has integer entries when every label is 2, 3 or inf, and an
    # integer minor is 0 or at least 1, so p = 96 certifies every zero of
    # these and of every connected {2, 3} class to rank 7
    passes = []

    def recording(mat, p, gap):
        passes.append(p)
        return _inertia(mat, p, gap)

    monkeypatch.setattr(classify_module, "_inertia", recording)
    for s in (type_A(8), affine_A(7), overextended_E8(), path_system([INFINITY, 3, 3, INFINITY])):
        passes.clear()
        assert _inertia_fixed(s) == _sympy_signature(s) and passes == [96]
    classes = [s for _, level in iter_levels(EnumFilter(label_set=frozenset({2, 3})), 7) for s in level]
    assert len(classes) == 996
    for s in classes:
        passes.clear()
        _inertia_fixed(s)
        assert passes == [96]


@pytest.mark.parametrize("w", [0, 1, 24, 88, 1000, 8216])
def test_machin_series_brackets_pi(w):
    # the 24 guard bits of _enclosure would hide a wrong error bound here
    lo, hi = _pi(w)
    with mpmath.workprec(w + 64):
        assert lo < mpmath.pi * 2**w < hi


@given(
    st.sampled_from([24, 25, 64, 88, 1000]),
    st.fractions(min_value=0, max_value=Fraction(314159, 100000)),
    st.integers(min_value=0, max_value=48),
)
@settings(max_examples=150)
def test_cosine_bound_holds_over_its_whole_interval(w, t, width):
    # the 24 guard bits of _enclosure would hide a missing Lipschitz widening:
    # here [a, b] is up to 2^48 units wide at w bits, so the low end must
    # fall by 4^k (b - a) to stay under cos(b / 2^w)
    a = int(t * 2**w)
    b = min(a + (1 << width) - 1, int(Fraction(314159, 100000) * 2**w))
    lo, hi, v = classify_module._cos_bound(a, b, w)
    with mpmath.workprec(v + 64):
        assert lo < mpmath.cos(mpmath.mpf(b) / 2**w) * 2**v
        assert mpmath.cos(mpmath.mpf(a) / 2**w) * 2**v < hi


@pytest.mark.parametrize("p", [64, 100, 128, 256, 512, 1000, 1024, 2048, 4096, 8192])
def test_enclosures_contain_cosine_within_four_ulp(p):
    # integer series against mpmath 64 bits finer; the huge labels run the
    # cosine series at a tiny argument, where each term is about m^2 below the last
    with mpmath.workprec(p + 64):
        for m in [*range(2, 201), 2**40, 3**25, 2**61 - 1]:
            lo, hi = _enclosure(m, p)
            want = -2 * mpmath.cos(mpmath.pi / m) * 2**p
            assert lo <= want <= hi
            assert hi - lo <= 4


@pytest.mark.parametrize("p", [0, 1, 64, 1000])
def test_irrational_enclosures_are_floor_and_ceiling(p):
    # at w = p + 24 bits, the huge labels at p <= 64 lie within 2^-24 of
    # -2^(p+1) and straddle it, so they take further passes at w = 2(p + 24), ...
    with mpmath.workprec(p + 64):
        for m in [*range(4, 201), 2**40, 3**25, 2**61 - 1]:
            lo, hi = _enclosure(m, p)
            assert lo <= -2 * mpmath.cos(mpmath.pi / m) * 2**p <= hi == lo + 1


def test_interval_engine_row_column_addition():
    # Eliminating vertices 0, 1 and 2 leaves every diagonal entry an exact 0,
    # so the engine adds row and column 5 to row and column 3 to surface a
    # pivot.  Row 5 is nonzero in column 4, where row 3 is zero, so the
    # addition makes new nonzeros that the next elimination must reach.
    inf = INFINITY
    s = CoxeterSystem.from_edges(
        8,
        {
            (0, 3): inf, (1, 4): inf, (1, 6): inf, (2, 5): inf, (2, 7): inf,
            (3, 5): 3, (3, 6): 4, (3, 7): 3, (4, 5): 4, (4, 6): 3,
        },
    )
    assert _inertia_fixed(s) == signature(s).as_tuple == (6, 0, 2)


# -- the dense oracle, and the elimination on integer matrices ----------------


def _dense_inertia(m, p: int, divide):
    """The index-order Bareiss loop that the sparse engine replaced, kept as
    its oracle: inertia of a dense symmetric matrix of enclosures at scale
    2^p, eliminated in place, or None when a sign stays open.

    After k pivots every active entry is the minor bordering the k pivot
    rows and columns, so the update (d*S[x][y] - S[x][k]*S[k][y]) / d_prev
    divides exactly, and by Jacobi's rule the k-th pivot counts as positive
    iff it has the sign of the one before (d_0 = 1).  When every active
    diagonal entry vanishes, row and column j are added to row and column i
    for the first nonzero m[i][j].  divide(x, d) divides by the last pivot.
    """
    active = list(range(len(m)))
    plus = minus = zero = 0
    d_prev, s_prev = (1 << p, 1 << p, 0), 1
    while active:
        for piv in active:
            if s := _fx_sign(m[piv][piv]):
                break
        else:
            block = [(i, j) for a, i in enumerate(active) for j in active[a:]]
            signs = [_fx_sign(m[i][j]) for i, j in block]
            if None in signs:
                return None
            if not any(signs):
                zero += len(active)
                break
            i, j = next(ij for ij, sg in zip(block, signs) if sg)
            for k in active:
                m[i][k] = _fx_add(m[i][k], m[j][k])
            for k in active:
                m[k][i] = _fx_add(m[k][i], m[k][j])
            piv, s = i, _fx_sign(m[i][i])
        d = m[piv][piv]
        if s == s_prev:
            plus += 1
        else:
            minus += 1
        rest = [k for k in active if k != piv]
        under = d_prev if s > 0 else (-d_prev[1], -d_prev[0], d_prev[2])
        dl, dh = (d[0], d[1]) if s > 0 else (-d[1], -d[0])
        for ai, x in enumerate(rest):
            for y in rest[ai:]:
                a, b, u = m[x][y]
                (cl, ch, cu), (el, eh, eu) = m[x][piv], m[piv][y]
                if s < 0:
                    cl, ch = -ch, -cl
                dx = [v * w for v in (a, b) for w in (dl, dh)]
                ce = [v * w for v in (cl, ch) for w in (el, eh)]
                lo, hi = min(dx) - max(ce), max(dx) - min(ce)
                m[x][y] = m[y][x] = divide((lo, hi, u | cu | eu | d[2]), under)
        d_prev, s_prev = d, s
        active = rest
    return plus, zero, minus


def _dense_signature(system):
    """Signature by _dense_inertia, doubling p from 64 (0 for integer 2B)
    while a sign stays open, with the per-entry gap of _inertia_fixed."""
    twice_b = classify_module._TWICE_B
    n = system.rank
    irrational = sorted(set().union(*system.labels) - twice_b.keys())
    hbits = n * (64 * n).bit_length()
    p = 64 if irrational else 0

    def divide(x, d):
        lo, hi, u = x
        c, e, v = d
        if c < 0:
            lo, hi, c, e = -hi, -lo, -e, -c
        lo, hi, u = lo // (c if lo < 0 else e), -(-hi // (e if hi < 0 else c)), u | v
        if lo <= 0 <= hi and (lo or hi):
            L = math.lcm(*(m for k, m in enumerate(irrational) if u >> k & 1))
            b = ((classify_module._field_degree(L) - 1) * hbits + 1) // 2
            if p > b and -(1 << p - b) < lo and hi < 1 << p - b:
                return (0, 0, 0)
        return (lo, hi, u)

    while True:
        table = {m: (v << p, v << p, 0) for m, v in twice_b.items()}
        table.update((m, (*_enclosure(m, p), 1 << k)) for k, m in enumerate(irrational))
        mat = [[table[m] for m in row] for row in system.labels]
        if (out := _dense_inertia(mat, p, divide)) is not None:
            return out
        p = 2 * p or 64


def _exact_divide(x, d):
    """Division of point enclosures that must come out exact, as Bareiss's do."""
    (a, b, u), (c, e, v) = x, d
    q, r = divmod(a, c)
    assert a == b and c == e and r == 0
    return (q, q, u | v)


def _sparse(rows, p):
    """rows at scale 2^p as the engine holds them: zeros left out."""
    return [{j: (v << p, v << p, 0) for j, v in enumerate(row) if v} for row in rows]


def _integer_inertia(rows):
    # an integer minor is 0 or at least 1, so the gap is 2^0
    p = 64
    while isinstance(out := _inertia(_sparse(rows, p), p, lambda u: 0), int):
        p = max(out, 2 * p)
    return out


def _congruent(g, p):
    """P^T g P over the integers."""
    n = len(g)
    pt_g = [[sum(p[k][i] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pt_g[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_inertia_identity_and_negatives():
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert _integer_inertia(eye) == (4, 0, 0)
    assert _integer_inertia([[-v for v in row] for row in eye]) == (0, 0, 4)


def test_inertia_zero_diagonal_pair():
    # [[0,1],[1,0]] has eigenvalues +1 and -1; needs the congruence trick
    assert _integer_inertia([[0, 1], [1, 0]]) == (1, 0, 1)
    # eigenvalues sqrt5, 0, -sqrt5: the trick must add the column as well as the
    # row, or the pivot comes out as m[i][j] instead of 2*m[i][j] and the
    # remaining block gets the wrong inertia
    assert _integer_inertia([[0, 2, 0], [2, 0, 1], [0, 1, 0]]) == (1, 1, 1)


def test_inertia_singular_block():
    # rank-1 matrix of ones on 3 vertices: eigenvalues 3, 0, 0
    assert _integer_inertia([[1] * 3] * 3) == (1, 2, 0)


def test_inertia_sylvester_invariance_under_congruence():
    # twice the Gram of A3 is positive definite, and conjugating it by an
    # invertible integer matrix preserves the inertia
    g = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert _integer_inertia(g) == (3, 0, 0)
    p = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert _integer_inertia(_congruent(g, p)) == (3, 0, 0)
    # with irrational entries the congruences are the vertex orders: ~C2
    # (labels 4, 4) and ~G2 (labels 3, 6) are positive semidefinite of
    # corank 1 in every order, whichever vertex is pivoted first
    for system in (path_system([4, 4]), path_system([3, 6])):
        labels = system.labels
        for order in permutations(range(3)):
            permuted = CoxeterSystem.from_rows([[labels[i][j] for j in order] for i in order])
            assert _inertia_fixed(permuted) == (2, 1, 0)


def _charpoly_inertia(rows):
    """Inertia of a symmetric integer matrix by Descartes' rule of signs on
    its exact characteristic polynomial, as in _sympy_signature."""
    coeffs = DomainMatrix(
        [[sympy.ZZ(v) for v in row] for row in rows], (len(rows), len(rows)), sympy.ZZ
    ).charpoly()
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1

    def sign_changes(values):
        signs = [c > 0 for c in values if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    k = len(coeffs) - 1
    flipped = [c if (k - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), n_zero, sign_changes(flipped)


@st.composite
def symmetric_integer_matrices(draw, max_n=5, bound=3):
    # a zero diagonal sends the elimination through the row/column addition
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.integers(min_value=-bound, max_value=bound)
    zero_diagonal = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return rows


@given(symmetric_integer_matrices())
@settings(max_examples=200)
def test_integer_bareiss_divisions_are_exact_and_match_charpoly(rows):
    # zero blocks and singular matrices come up here too; _exact_divide
    # fails on any division of the dense oracle that leaves a remainder
    want = _charpoly_inertia(rows)
    assert _dense_inertia([[(v, v, 0) for v in row] for row in rows], 0, _exact_divide) == want
    assert _integer_inertia(rows) == want


@given(
    st.lists(st.sampled_from([2, 3, INFINITY]), min_size=15, max_size=15),
    st.integers(min_value=1, max_value=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([-1, 1])), max_size=8),
)
@settings(max_examples=100)
def test_inertia_sylvester_invariance_under_random_unimodular_congruence(labels, n, ops):
    # 2B of a {2, 3, inf} system is an integer matrix; P is a product of
    # elementary matrices I + c E_ij (i != j), so det P = 1
    pairs = dict(zip(combinations(range(n), 2), labels))
    system = CoxeterSystem.from_edges(n, {ij: m for ij, m in pairs.items() if m != 2})
    twice_b = [[{1: 2, 2: 0, 3: -1, INFINITY: -2}[m] for m in row] for row in system.labels]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i < n and j < n and i != j:
            for row in p:
                row[j] += c * row[i]
    want = _inertia_fixed(system)
    assert _integer_inertia(twice_b) == want
    assert _integer_inertia(_congruent(twice_b, p)) == want


def _enclosures(bound=1 << 70):
    """(lo, hi, mask) with lo <= hi, some point of it, and the mask."""
    ends = st.integers(min_value=-bound, max_value=bound)

    @st.composite
    def draw_one(draw):
        lo, hi = sorted((draw(ends), draw(ends)))
        point = draw(st.integers(min_value=lo, max_value=hi))
        return (lo, hi, draw(st.integers(0, 7))), point

    return draw_one()


def _schur_update(d, c, e, x):
    """Entry (1, 2) of [[d, c, e], [c, z, x], [e, x, z]] after pivot 0, as
    (lo, hi, mask) at scale 1, or None when it is an exact 0.  The diagonal
    z straddles 0, so vertex 0 is the first pivot, and the pass stops or
    pivots on 1 or 2, which leaves their own rows alone; no gap is reached."""
    z = (-1, 1, 0)
    m = [{0: d}, {1: z}, {2: z}]
    for (i, j), v in (((0, 1), c), ((0, 2), e), ((1, 2), x)):
        if v[0] or v[1]:
            m[i][j] = m[j][i] = v
    _inertia(m, 0, lambda u: 1 << 30)
    return m[1].get(2) or m[2].get(1)


@given(_enclosures(), _enclosures())
def test_fixed_point_sum_and_difference_enclose_exact_values(xv, yv):
    (x, a), (y, b) = xv, yv
    lo, hi, u = _fx_add(x, y)
    assert (lo, hi) == (x[0] + y[0], x[1] + y[1]) and lo <= a + b <= hi
    # the Schur update of x - 1 * y / 1
    one = (1, 1, 0)
    got = _schur_update(one, one, y, x)
    want = (x[0] - y[1], x[1] - y[0])
    if got is None:
        assert want == (0, 0)
    else:
        lo, hi, v = got
        assert (lo, hi) == want and lo <= a - b <= hi
        assert u == v == x[2] | y[2] or y[:2] == (0, 0)


def _decided(bound=1 << 70):
    return _enclosures(bound).filter(lambda dv: dv[0][0] > 0 or dv[0][1] < 0)


@given(_decided(), _enclosures(), _enclosures(), _enclosures())
def test_fixed_point_schur_update_is_the_rounded_hull(dv, cv, ev, xv):
    # the update x - c e / d, with the pivot d of decided sign, must be the
    # hull over all endpoint quotients, rounded outwards, and skip c e = 0
    (d, dp), (c, cp), (e, ep), (x, xp) = dv, cv, ev, xv
    got = _schur_update(d, c, e, x)
    if c[:2] == (0, 0) or e[:2] == (0, 0):
        assert got == (x if x[:2] != (0, 0) else None)
        return
    qs = [Fraction(s * t, q) for s in c[:2] for t in e[:2] for q in d[:2]]
    want = (x[0] - math.ceil(max(qs)), x[1] - math.floor(min(qs)), d[2] | c[2] | e[2] | x[2])
    assert got == (want if want[:2] != (0, 0) else None)
    assert want[0] <= xp - Fraction(cp * ep, dp) <= want[1]


@given(_enclosures(bound=8))
def test_fixed_point_sign_is_decided_only_off_zero(xv):
    (lo, hi, u), _ = xv
    s = _fx_sign((lo, hi, u))
    if lo > 0 or hi < 0:
        assert s == (1 if lo > 0 else -1)
    elif lo == hi == 0:
        assert s == 0
    else:
        assert s is None  # straddles 0 without being the point 0


@pytest.mark.parametrize("m", [4, 6])
@given(p=st.integers(min_value=0, max_value=4096))
def test_isqrt_enclosures_bracket_the_square_root_exactly(m, p):
    # -2cos(pi/m) is -sqrt(m/2); in integers, lo < -2^p sqrt(m/2) < hi = lo + 1
    # exactly when hi^2 < (m/2) 4^p < lo^2, so no float or mpf is involved
    lo, hi = _enclosure(m, p)
    assert hi == lo + 1 and hi < 0
    assert hi * hi < (m // 2) << 2 * p < lo * lo


# -- sphericity and parabolic scans -----------------------------------------


def test_is_spherical_agrees_with_classification():
    assert is_spherical(type_E(8))
    assert not is_spherical(affine_E(8))
    assert not is_spherical(path_system([INFINITY]))
    disc = CoxeterSystem.from_edges(4, {(0, 1): 5, (2, 3): 4})
    assert is_spherical(disc)


@given(coxeter_systems(max_rank=5))
@settings(max_examples=60)
def test_is_spherical_matches_componentwise_classify(s):
    want = all(tc.is_spherical for _, tc in classify(s))
    assert is_spherical(s) == want


# the per-subset scans the bitmask walk replaced, kept as brute-force references


def _ref_spherical(s, J) -> bool:
    return all(tc.is_spherical for _, tc in classify(restrict(s, J)))


def _ref_minimal_infinite(s):
    return [
        J
        for size in range(1, s.rank + 1)
        for J in combinations(range(s.rank), size)
        if not _ref_spherical(s, J)
        and all(_ref_spherical(s, J[:i] + J[i + 1 :]) for i in range(size))
    ]


def _ref_affine_parabolic(s, include_rank2_infty):
    for size in range(2 if include_rank2_infty else 3, s.rank + 1):
        for J in combinations(range(s.rank), size):
            sub = restrict(s, J)
            if is_connected(sub) and classify_irreducible(sub).is_affine:
                return J
    return None


@st.composite
def mixed_systems(draw, max_rank=7):
    """Systems up to rank 7 with non-crystallographic labels, often sparse."""
    n = draw(st.integers(min_value=0, max_value=max_rank))
    edge_labels = st.sampled_from((2, 2, 2, 3, 3, 4, 5, 6, 7, INFINITY))
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(edge_labels)
            if m != 2:
                edges[(i, j)] = m
    return CoxeterSystem.from_edges(n, edges)


@given(mixed_systems())
@settings(max_examples=150)
def test_is_k_spherical_brute_force(s):
    # the least size of a non-spherical subset, if there is one
    least = next(
        (
            size
            for size in range(1, s.rank + 1)
            for c in combinations(range(s.rank), size)
            if not is_spherical(restrict(s, c))
        ),
        math.inf,
    )
    for k in range(1, s.rank + 2):
        assert is_k_spherical(s, k) == (k < least), k


@given(mixed_systems())
@settings(max_examples=300)
def test_minimal_infinite_subsets_brute_force(s):
    assert minimal_infinite_subsets(s) == _ref_minimal_infinite(s)


@given(mixed_systems())
@settings(max_examples=300)
def test_has_affine_parabolic_brute_force(s):
    for flag in (False, True):
        want = _ref_affine_parabolic(s, flag)
        assert has_affine_parabolic(s, include_rank2_infty=flag) == want


# every public scan that reads the cached walk; the threshold needs rank >= 1
_CACHED_SCANS = {
    "minimal_infinite_subsets": minimal_infinite_subsets,
    "has_affine_parabolic": has_affine_parabolic,
    "has_affine_parabolic_rank2": lambda s: has_affine_parabolic(
        s, include_rank2_infty=True
    ),
    "max_spherical_rank": max_spherical_rank,
    "is_hyperbolic": is_hyperbolic,
    "check_affine_criterion": check_affine_criterion,
    "kazhdan_threshold": lambda s: kazhdan_threshold(s) if s.rank else None,
    "is_k_spherical_2": lambda s: is_k_spherical(s, 2),
    "is_k_spherical_3": lambda s: is_k_spherical(s, 3),
    "is_k_spherical_4": lambda s: is_k_spherical(s, 4),
    "is_k_spherical_5": lambda s: is_k_spherical(s, 5),
}


@given(mixed_systems(), mixed_systems(), st.data())
@settings(max_examples=150)
def test_scan_answers_do_not_depend_on_call_order(s, other, data):
    # each scan of s in a drawn order, sometimes followed by a scan of other,
    # so the closure cache holds whatever the previous scans walked
    names = sorted(_CACHED_SCANS)
    calls = []
    for name in data.draw(st.permutations(names)):
        calls.append((name, s))
        if data.draw(st.booleans()):
            calls.append((data.draw(st.sampled_from(names)), other))
    answers = [_CACHED_SCANS[name](system) for name, system in calls]
    for (name, system), answer in zip(calls, answers):
        classify_module._closure.cache_clear()
        assert answer == _CACHED_SCANS[name](system), name


MEMO_TYPE_LABELS = (2, 3, 4, 5, 6, INFINITY, 2**61 - 1)


def _neighbour_masks(rows):
    return [
        sum(1 << j for j, m in enumerate(row) if j != i and m != 2) for i, row in enumerate(rows)
    ]


def test_type_memo_matches_the_tables(cold_memos):
    # every connected labelled diagram on 3 or 4 vertices is memoized from a
    # copy at the vertices spots of a rank-7 diagram whose other vertices
    # join every vertex by a 3, then read back on the diagram alone
    types = classify_module._TYPES
    for n, spots in ((3, (1, 3, 4)), (4, (0, 2, 5, 6))):
        pairs = list(combinations(range(n), 2))
        whole, spot_mask = (1 << n) - 1, sum(1 << v for v in spots)
        rows = [[1] * n for _ in range(n)]
        big = [[1 if i == j else 3 for j in range(7)] for i in range(7)]
        for vec in product(MEMO_TYPE_LABELS, repeat=len(pairs)):
            for (i, j), m in zip(pairs, vec):
                rows[i][j] = rows[j][i] = big[spots[i]][spots[j]] = big[spots[j]][spots[i]] = m
            masks = _neighbour_masks(rows)
            if _reach(masks, whole, 1) != whole:
                continue
            types.clear()
            filled = classify_module._classify_mask(big, _neighbour_masks(big), spot_mask)
            assert list(types) == [vec]
            got = classify_module._classify_mask(rows, masks, whole)
            want = classify_module._table_type(rows, masks, tuple(range(n)), whole)
            assert got is filled
            assert (got.kind, got.name, got.aliases) == (want.kind, want.name, want.aliases), vec


def test_signature_memo_matches_the_engine(cold_memos):
    # every system of rank 1 to 3: the answer that fills the memo and the
    # one read back for an equal system both equal the per-component engine
    systems = [
        (vec, CoxeterSystem.from_edges(n, dict(zip(pairs, vec))))
        for n in (1, 2, 3)
        for pairs in [list(combinations(range(n), 2))]
        for vec in product((2, 3, 4, 5, 6, 7, INFINITY), repeat=len(pairs))
    ]
    assert len(systems) == 1 + 7 + 7**3
    for vec, s in systems:
        want = [0, 0, 0]
        for comp in components(s):
            want = [a + b for a, b in zip(want, _inertia_fixed(restrict(s, comp)))]
        filled = signature(s)
        assert classify_module._SIGNATURES[vec] is filled
        assert signature(CoxeterSystem(s.labels)) is filled
        assert filled.as_tuple == tuple(want), vec
    # rank 0 has the key of rank 1 and stays out of the memo
    assert signature(CoxeterSystem.empty()).as_tuple == (0, 0, 0)


def _memo_answers(s):
    verdict = is_hyperbolic(s)
    return (
        [(c, t.kind, t.name, t.aliases) for c, t in classify(s)],
        signature(s),
        verdict.hyperbolic,
        verdict.witness,
        minimal_infinite_subsets(s),
        kazhdan_threshold(s),
    )


def test_answers_do_not_depend_on_the_memos(cold_memos):
    # a seeded stream of random diagrams, answered with the memos filling as
    # they go, then each again with both memos and the closure cleared
    rng = random.Random(28)
    systems = []
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = {
            ij: rng.choice((3, 4, 5, 6, 7, INFINITY))
            for ij in combinations(range(n), 2)
            if rng.random() < 0.4
        }
        systems.append(CoxeterSystem.from_edges(n, edges))
    warm = [_memo_answers(s) for s in systems]
    assert classify_module._TYPES and classify_module._SIGNATURES
    for s, want in zip(systems, warm):
        _clear_memos()
        classify_module._closure.cache_clear()
        assert _memo_answers(CoxeterSystem(s.labels)) == want, s


def test_full_memos_stay_at_their_cap_and_answer_right(cold_memos):
    # paths 3, m with fresh labels m: indefinite, of signature (2, 0, 1) from
    # m = 7 on, each a new key of both memos; those past the cap are not kept
    cap = classify_module._MEMO_CAP
    for m in range(7, 7 + cap + 100):
        s = path_system([3, m])
        assert classify_irreducible(s) == classify_module.INDEFINITE
        assert signature(s).as_tuple == (2, 0, 1)
    assert len(classify_module._TYPES) == len(classify_module._SIGNATURES) == cap
    assert (3, 2, 7 + cap) not in classify_module._TYPES
    for _ in range(2):  # a key the full memos lack, answered twice
        assert classify_irreducible(affine_G2()).name == "~G2"
        assert signature(affine_G2()).as_tuple == (2, 1, 0)
    assert len(classify_module._TYPES) == len(classify_module._SIGNATURES) == cap


def test_disconnected_set_with_spherical_facets_is_spherical():
    # A2 + B2 + I2(5): every facet is spherical and the whole set is too
    s = CoxeterSystem.from_edges(6, {(0, 1): 3, (2, 3): 4, (4, 5): 5})
    assert minimal_infinite_subsets(s) == []
    assert max_spherical_rank(s) == 6
    assert has_affine_parabolic(s, include_rank2_infty=True) is None
    assert all(is_k_spherical(s, k) for k in range(1, 7))
    assert is_hyperbolic(s).hyperbolic


@pytest.mark.parametrize("rank", [0, 1])
def test_scans_on_rank_zero_and_one(rank):
    s = type_A(rank) if rank else CoxeterSystem.empty()
    assert minimal_infinite_subsets(s) == []
    assert has_affine_parabolic(s) is None
    assert has_affine_parabolic(s, include_rank2_infty=True) is None
    assert max_spherical_rank(s) == rank
    assert all(is_k_spherical(s, k) for k in range(1, 5))
    assert is_hyperbolic(s).hyperbolic
    crit = check_affine_criterion(s)
    assert crit.hypotheses_ok and crit.hyperbolic and crit.consistent
    assert crit.affine_parabolic is None
    if rank:
        assert kazhdan_threshold(s).d == 1
    else:
        with pytest.raises(ValueError):
            kazhdan_threshold(s)


def test_infinite_pair_precedes_affine_triangle():
    # the ~A2 triangle 0-1-2 is lex-first, but the ~A1 pair 3-4 is smaller
    s = CoxeterSystem.from_edges(
        5, {(0, 1): 3, (1, 2): 3, (0, 2): 3, (3, 4): INFINITY}
    )
    assert minimal_infinite_subsets(s) == [(3, 4), (0, 1, 2)]
    assert has_affine_parabolic(s, include_rank2_infty=True) == (3, 4)
    assert has_affine_parabolic(s) == (0, 1, 2)


def test_has_affine_parabolic_examples():
    assert has_affine_parabolic(type_E(8)) is None
    assert has_affine_parabolic(affine_A(2)) == (0, 1, 2)
    # the overextension has a unique affine subset: its first nine vertices
    assert has_affine_parabolic(overextended_E8()) == tuple(range(9))
    # infinite-label pairs count only when asked for
    pair = path_system([INFINITY])
    assert has_affine_parabolic(pair) is None
    assert has_affine_parabolic(pair, include_rank2_infty=True) == (0, 1)


def test_has_affine_parabolic_search_order_is_size_then_lex():
    # two triangles; the one on lower indices must be reported
    s = CoxeterSystem.from_edges(
        7,
        {(0, 1): 3, (1, 2): 3, (0, 2): 3,
         (3, 4): 3, (4, 5): 3, (3, 5): 3,
         (2, 6): 3, (6, 3): 3},
    )
    assert has_affine_parabolic(s) == (0, 1, 2)


def test_max_spherical_rank_examples():
    assert max_spherical_rank(type_A(5)) == 5
    assert max_spherical_rank(affine_A(2)) == 2
    assert max_spherical_rank(path_system([INFINITY])) == 1
    assert max_spherical_rank(overextended_E8()) == 9


def _ref_max_spherical_rank(s):
    return max(
        (len(c) for size in range(1, s.rank + 1) for c in combinations(range(s.rank), size)
         if is_spherical(restrict(s, c))),
        default=0,
    )


@given(mixed_systems())
@settings(max_examples=300)
def test_max_spherical_rank_brute_force(s):
    assert max_spherical_rank(s) == _ref_max_spherical_rank(s)


def _ref_hyperbolic(s):
    """First commuting pair of minimal infinite sets in (total size, lex)
    order, else the first affine subset of rank >= 3."""
    minimal = _ref_minimal_infinite(s)
    pairs = [
        (len(I) + len(J), I, J)
        for I, J in combinations(minimal, 2)
        if not set(I) & set(J) and all(s.labels[i][j] == 2 for i in I for j in J)
    ]
    if pairs:
        _, I, J = min(pairs)
        return HyperbolicityVerdict(False, CommutingInfinitePair(I, J))
    aff = _ref_affine_parabolic(s, False)
    return HyperbolicityVerdict(True) if aff is None else HyperbolicityVerdict(False, AffineSubset(aff))


@given(mixed_systems())
@settings(max_examples=300)
def test_is_hyperbolic_witness_brute_force(s):
    assert is_hyperbolic(s) == _ref_hyperbolic(s)


def _double_loop_pair(s):
    """The least (total size, lex) commuting pair of minimal infinite subsets,
    by the plain double loop over every pair."""
    minimal = minimal_infinite_subsets(s)
    return min(
        (
            (len(I) + len(J),) + tuple(sorted((I, J)))
            for a, I in enumerate(minimal)
            for J in minimal[a + 1 :]
            if not set(I) & set(J) and all(s.labels[i][j] == 2 for i in I for j in J)
        ),
        default=None,
    )


@given(typer_systems(max_rank=8))
@settings(max_examples=300)
def test_pair_search_stops_at_the_first_commuting_J(s):
    # is_hyperbolic leaves its inner loop at the first J commuting with I
    pair = _double_loop_pair(s)
    witness = is_hyperbolic(s).witness
    if pair is None:
        assert not isinstance(witness, CommutingInfinitePair)
    else:
        assert witness == CommutingInfinitePair(*pair[1:])


def test_pair_search_keeps_equal_totals_for_the_lex_order():
    # the infinite bond 7-8 and the ~A3 square 1-2-3-4 commute (total 6) and
    # are found first; the ~A2 triangles 0-5-6 and 9-10-11, found later, have
    # the same total and are lex-smaller.  7 joins 0 and 9, so the bond
    # commutes with neither triangle
    s = CoxeterSystem.from_edges(
        12,
        {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3, (7, 8): INFINITY,
         (0, 5): 3, (5, 6): 3, (0, 6): 3, (9, 10): 3, (10, 11): 3, (9, 11): 3,
         (0, 7): 3, (7, 9): 3},
    )
    assert minimal_infinite_subsets(s) == [(7, 8), (0, 5, 6), (9, 10, 11), (1, 2, 3, 4)]
    assert is_hyperbolic(s) == _ref_hyperbolic(s)
    assert is_hyperbolic(s).witness == CommutingInfinitePair((0, 5, 6), (9, 10, 11))


def test_pair_search_stops_at_the_first_total_it_cannot_beat():
    # two disjoint complete label-3 diagrams of rank 30: every triangle is an
    # ~A2, and the first triangle commutes with the first triangle of the
    # other copy, and no later pair of triangles (same total, later first
    # set) can beat that, so the outer loop stops at the second triangle
    k30 = CoxeterSystem.from_edges(30, {p: 3 for p in combinations(range(30), 2)})
    s = _shifted([k30, k30])
    start = time.perf_counter()
    witness = is_hyperbolic(s).witness
    assert time.perf_counter() - start < 1
    assert witness == CommutingInfinitePair((0, 1, 2), (30, 31, 32))


def test_pair_search_skips_an_I_with_no_room_for_a_J():
    # in a complete diagram every vertex outside I neighbours it, so no J can
    # commute with any I: every triangle of the label-3 K60 is a ~A2 (34,220
    # minimal subsets), and every pair of the all-inf K200 is one (19,900)
    for n, m, want in ((60, 3, AffineSubset((0, 1, 2))), (200, INFINITY, None)):
        s = CoxeterSystem.from_edges(n, {p: m for p in combinations(range(n), 2)})
        start = time.perf_counter()
        assert is_hyperbolic(s).witness == want
        assert time.perf_counter() - start < 1


def _shifted(parts):
    """Disjoint union of systems, with the vertices of each part shifted."""
    edges, base = {}, 0
    for p in parts:
        edges.update(((base + i, base + j), m) for i, j, m in p.edges())
        base += p.rank
    return CoxeterSystem.from_edges(base, edges)


def test_max_spherical_rank_sums_spherical_and_other_components():
    # E8 is spherical and counts its 8 vertices; the ~A2 triangle is not and
    # contributes 2; the commuting pair of infinite bonds contributes 1 + 1
    s = _shifted([type_E(8), affine_A(2), path_system([INFINITY]), path_system([INFINITY])])
    assert max_spherical_rank(s) == 8 + 2 + 1 + 1
    assert minimal_infinite_subsets(s) == [(11, 12), (13, 14), (8, 9, 10)]


def test_max_spherical_rank_of_all_inf_labels_is_maximum_independent_set():
    # the Petersen graph: outer 5-cycle, inner pentagram, five spokes
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = {tuple(sorted(p)): INFINITY for p in pairs}
    s = CoxeterSystem.from_edges(10, edges)
    independent = [
        c for size in range(11) for c in combinations(range(10), size)
        if all(s.labels[i][j] == 2 for i, j in combinations(c, 2))
    ]
    assert max(map(len, independent)) == 4
    assert max_spherical_rank(s) == 4
    assert minimal_infinite_subsets(s) == sorted((i, j) for i, j in edges)


def test_scans_on_a_twenty_component_union():
    parts = [
        type_A(3), affine_A(2), path_system([INFINITY]), type_A(1), type_BC(3),
        path_system([5, 3]), cycle_system([3, 3, 4]), type_A(1), path_system([4, 4]), type_G2(),
    ] * 2
    s = _shifted(parts)
    assert len(classify(s)) == 20
    assert max_spherical_rank(s) == sum(_ref_max_spherical_rank(p) for p in parts)
    want, base = [], 0
    for p in parts:
        want += [tuple(base + v for v in J) for J in _ref_minimal_infinite(p)]
        base += p.rank
    assert minimal_infinite_subsets(s) == sorted(want, key=lambda J: (len(J), J))
    # the two infinite bonds are the only minimal pairs, and they commute
    assert is_hyperbolic(s).witness == CommutingInfinitePair((6, 7), (30, 31))
    assert has_affine_parabolic(s) == (3, 4, 5)


def test_scans_do_not_build_the_packing_tables():
    s = _shifted([affine_A(2), path_system([INFINITY]), type_A(3)])
    classify_module._closure.cache_clear()
    is_hyperbolic(s)
    has_affine_parabolic(s)
    closure = classify_module._closure(s)
    assert "max_rank" not in vars(closure)
    assert max_spherical_rank(s) == 2 + 1 + 3
    assert "max_rank" in vars(closure)


def test_bounded_read_stays_bounded_and_is_resumed():
    # A30 has a walk of 30 levels; the triangle of ~A2 is minimal infinite.
    # k = 4 is the least k that reads the walk: k = 3 reads the masks alone
    s = _shifted([type_A(30), affine_A(2)])
    classify_module._closure.cache_clear()
    assert not is_k_spherical(s, 4)
    closure = classify_module._closure(s)
    assert max(mask.bit_count() for mask in closure.known) <= 3
    full = classify_module._SphericalClosure(s).walk()
    assert minimal_infinite_subsets(s) == [verts for verts, _, _ in full.minimal]
    assert classify_module._closure(s) is closure
    assert closure.known == full.known


def test_packing_of_an_all_inf_complete_diagram_at_the_rank_limit():
    # every pair is an infinite bond, so the only spherical sets are single
    # vertices and each drop leaves one connected part: a recursive drop
    # would nest once per vertex
    n = MAX_RANK
    s = CoxeterSystem.from_edges(n, {(i, j): INFINITY for i, j in combinations(range(n), 2)})
    assert max_spherical_rank(s) == 1
    assert kazhdan_threshold(s).d == 1


def test_packing_of_an_all_inf_path_at_the_rank_limit():
    # every take closes two vertices, so takes nest MAX_RANK / 2 deep
    n = MAX_RANK
    s = path_system([INFINITY] * (n - 1))
    assert max_spherical_rank(s) == n // 2


_TRIPLE_LABELS = (2, 3, 4, 5, 6, 7, 8, 12, INFINITY)


@pytest.mark.parametrize("p", _TRIPLE_LABELS)
def test_triple_label_test_matches_the_tables(p):
    # every connected triple is spherical by the label test iff by the tables
    for q in _TRIPLE_LABELS:
        for r in _TRIPLE_LABELS:
            s = CoxeterSystem.from_edges(3, {(0, 1): p, (0, 2): q, (1, 2): r})
            if not is_connected(s):
                continue
            t = classify_irreducible(s)
            assert classify_module._small_spherical(s.labels, (0, 1, 2)) == t.is_spherical


# -- pinned scan outputs -------------------------------------------------------

PIN_LABELS = (3, 4, 5, 6, 7, INFINITY)
PIN_DENSITIES = (0.15, 0.3, 0.5, 0.8)
# sha256 of the scan outputs below over the 2000 systems of _pin_systems()
SCAN_OUTPUTS_SHA256 = "4b9ef476f4d9aa3cca377f081d65e3b7d5dc9c09685153c86c4a108c4ff37555"


def _pin_systems(count=2000, seed=4):
    """Seeded random systems of rank 1 to 9 with mixed edge densities."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        p = rng.choice(PIN_DENSITIES)
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges[(i, j)] = rng.choice(PIN_LABELS)
        yield CoxeterSystem.from_edges(n, edges)


def _scan_outputs(s):
    verdict = is_hyperbolic(s)
    w = verdict.witness
    if w is None:
        witness = None
    elif isinstance(w, AffineSubset):
        witness = ["affine", list(w.subset)]
    else:
        witness = ["pair", list(w.left), list(w.right)]
    crit = check_affine_criterion(s)
    return [
        [list(J) for J in minimal_infinite_subsets(s)],
        has_affine_parabolic(s),
        has_affine_parabolic(s, include_rank2_infty=True),
        max_spherical_rank(s),
        [is_k_spherical(s, k) for k in range(1, 5)],
        verdict.hyperbolic,
        witness,
        [crit.hypotheses_ok, crit.hyperbolic, crit.affine_parabolic, crit.consistent],
    ]


def test_scan_outputs_match_pin():
    h = hashlib.sha256()
    for s in _pin_systems():
        h.update(json.dumps(_scan_outputs(s)).encode())
    assert h.hexdigest() == SCAN_OUTPUTS_SHA256


# -- pinned interval engine ---------------------------------------------------

INTERVAL_PIN_LABELS = (3, 4, 5, 6, 7, 8, INFINITY)
# sha256 of _interval_outputs over the 1500 systems of _interval_pin_systems().
# Re-pinned when the fixed-point engine replaced the mpmath interval one:
# only entry 1286 changed, from "undecided" to the signature that
# test_interval_pin_entry_1286_matches_sympy confirms.
INTERVAL_OUTPUTS_SHA256 = "bb4f1908507b7f80bdfdab1fea6c121d6f05acc40a3b31d42f94063c629942fb"


def _interval_pin_systems(count=1500, seed=5):
    """Seeded random connected non-crystallographic systems of rank 2 to 9.

    A random spanning tree makes each one connected; if no label is 5, 7 or
    8, one edge is relabelled with one of them.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        p = rng.choice(PIN_DENSITIES)
        edges = {(rng.randrange(j), j): rng.choice(INTERVAL_PIN_LABELS) for j in range(1, n)}
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges and rng.random() < p:
                    edges[(i, j)] = rng.choice(INTERVAL_PIN_LABELS)
        if all(m in (3, 4, 6, INFINITY) for m in edges.values()):
            edges[rng.choice(sorted(edges))] = rng.choice((5, 7, 8))
        yield CoxeterSystem.from_edges(n, edges)


def _gram_matrix(system):
    """B(s, t) = -cos(pi/m(s, t)) as mpmath intervals at the current iv
    precision, exact where rational (label 1 is the diagonal)."""
    iv = mpmath.iv
    exact = {m: iv.mpf(v) for m, v in {1: 1, 2: 0, 3: -0.5, INFINITY: -1}.items()}
    return [[exact[m] if m in exact else -iv.cos(iv.pi / m) for m in row] for row in system.labels]


def _interval_outputs(s):
    """Fixed-point signature and the exact mpmath Gram endpoints at 64 bits."""
    sig = list(_inertia_fixed(s))
    iv = mpmath.iv
    saved = iv.prec
    iv.prec = 64
    try:
        gram = _gram_matrix(s)
    finally:
        iv.prec = saved
    # _mpi_ holds both endpoints as exact (sign, mantissa, exponent, bits) tuples
    ends = [[[int(v) for end in x._mpi_ for v in end] for x in row] for row in gram]
    return [sig, ends]


def test_interval_engine_outputs_match_pin():
    h = hashlib.sha256()
    for s in _interval_pin_systems():
        assert not is_crystallographic(s) and is_connected(s)
        h.update(json.dumps(_interval_outputs(s)).encode())
    assert h.hexdigest() == INTERVAL_OUTPUTS_SHA256


def test_interval_pin_entry_1286_matches_sympy():
    # singular and indefinite, with labels 4, 6 and 8: cos(pi/8) = sqrt(2 + sqrt2) / 2
    s = next(islice(_interval_pin_systems(), 1286, None))
    field = sympy.QQ.algebraic_field(sympy.sqrt(2 + sympy.sqrt(2)), sympy.sqrt(3))
    assert _inertia_fixed(s) == _sympy_signature(s, field) == (4, 1, 1)


# -- threshold ---------------------------------------------------------------


def _prime_power_scan(start: int) -> int:
    q = start
    while True:
        if sympy.isprime(q):
            return q
        pp = sympy.perfect_power(q)
        if pp and sympy.isprime(pp[0]):
            return q
        q += 1


@pytest.mark.parametrize("d", range(1, 11))
def test_threshold_against_independent_oracle(d):
    res = kazhdan_threshold(type_A(d))
    assert res.d == d
    assert res.bound == Fraction(1764**d, 25)
    start = (1764**d) // 25 + 1  # bound is never integral, so ceil = floor + 1
    assert res.q == _prime_power_scan(start)


def test_threshold_frozen_values():
    assert kazhdan_threshold(type_A(1)).q == 71
    assert kazhdan_threshold(type_A(2)).q == 124471


def test_least_prime_power_against_sympy():
    # the proper powers 4, 8, 9, 16, 25, ... must count as prime powers
    powers = [
        q for q in range(2, 5004)
        if sympy.isprime(q) or (pp := sympy.perfect_power(q)) and sympy.isprime(pp[0])
    ]
    assert powers[-1] == 5003
    for n in range(5000):
        assert _least_prime_power(n) == powers[bisect_left(powers, n)], n


def test_threshold_searches_once_per_d(monkeypatch):
    calls = []
    real = classify_module._least_prime_power

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(classify_module, "_least_prime_power", counting)
    classify_module._threshold_for_rank.cache_clear()
    first = kazhdan_threshold(type_A(3))
    assert calls
    searched = len(calls)
    second = kazhdan_threshold(type_H(3))  # another system with d = 3
    assert len(calls) == searched
    assert second == first


def test_threshold_rejects_rank_zero():
    with pytest.raises(ValueError):
        kazhdan_threshold(CoxeterSystem.empty())
