import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from coxtools import INFINITY
from coxtools.quadratic import (
    NEG_TWICE_COS,
    ONE,
    TWO,
    ZERO,
    add,
    exact_div,
    inertia_exact,
    mul,
    sign,
    sub,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
SQRT6 = math.sqrt(6)


def approx(x) -> float:
    a, b, c, d = x
    return a + b * SQRT2 + c * SQRT3 + d * SQRT6


def mp_value(x):
    """x at 60 significant digits, from an independent evaluation of the basis."""
    with mpmath.workdps(60):
        a, b, c, d = (mpmath.mpf(v) for v in x)
        return a + b * mpmath.sqrt(2) + c * mpmath.sqrt(3) + d * mpmath.sqrt(6)


def quadints(bound=12):
    coeff = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(coeff, coeff, coeff, coeff)


@given(quadints(), quadints(), quadints())
def test_ring_axioms(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, y) == add(y, x)
    assert mul(x, y) == mul(y, x)
    assert add(x, ZERO) == x
    assert mul(x, ONE) == x
    assert sub(x, x) == ZERO
    assert mul(x, ZERO) == ZERO


@given(quadints(), quadints())
def test_arithmetic_tracks_floats(x, y):
    assert math.isclose(approx(add(x, y)), approx(x) + approx(y), abs_tol=1e-9)
    assert math.isclose(approx(mul(x, y)), approx(x) * approx(y), abs_tol=1e-7)


@given(quadints())
def test_sign_matches_float_sign(x):
    fx = approx(x)
    s = sign(x)
    if abs(fx) > 1e-7:
        assert s == (1 if fx > 0 else -1)
    else:
        # near-zero floats: the exact sign must at least square to consistency
        assert s in (-1, 0, 1)
        assert (s == 0) == (x == ZERO)


def _unit_powers():
    # powers of the units 1+sqrt2, 2+sqrt3, 5+2sqrt6 and sqrt2+sqrt3: some of
    # their conjugates are tiny, which is where float signs go wrong
    out = []
    for u in ((1, 1, 0, 0), (2, 0, 1, 0), (5, 0, 0, 2), (0, 1, 1, 0)):
        p = ONE
        for _ in range(12):
            p = mul(p, u)
            out.append(p)
    return out


UNIT_POWERS = _unit_powers()
CONJUGATIONS = ((1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


@given(
    st.sampled_from(UNIT_POWERS),
    st.sampled_from(CONJUGATIONS),
    quadints(3),
    st.sampled_from([0, 1, -1]),
)
@example(UNIT_POWERS[11], CONJUGATIONS[0], ZERO, 1)
def test_sign_matches_mpmath_60_digits(u, conj, delta, scale):
    # a conjugate of a unit power can be as small as 1e-12; perturb it a little
    tiny = tuple(e * v for e, v in zip(conj, u))
    x = add(tiny, tuple(scale * v for v in delta))
    want = mpmath.sign(mp_value(x))
    assert sign(x) == want
    assert sign(sub(ZERO, x)) == -want


@given(quadints(), quadints())
def test_total_order_matches_floats_when_separated(x, y):
    fx, fy = approx(x), approx(y)
    if abs(fx - fy) > 1e-7:
        assert (sign(sub(x, y)) < 0) == (fx < fy)


@given(quadints(), quadints())
def test_exact_division_round_trips(x, y):
    if y == ZERO:
        with pytest.raises(ZeroDivisionError):
            exact_div(x, y)
    else:
        assert exact_div(mul(x, y), y) == x
        if x != ZERO:
            assert exact_div(mul(x, y), x) == y


def test_exact_division_rejects_non_members():
    assert exact_div(ONE, (1, 1, 0, 0)) == (-1, 1, 0, 0)  # 1/(1+sqrt2) = sqrt2-1
    assert exact_div((6, 4, 2, 0), TWO) == (3, 2, 1, 0)
    for x, y in [(ONE, TWO), (ONE, (0, 1, 0, 0)), ((1, 1, 0, 0), (0, 0, 0, 2))]:
        with pytest.raises(ArithmeticError):
            exact_div(x, y)


def test_exact_values():
    with mpmath.workdps(60):
        for m in (2, 3, 4, 6):
            want = -2 * mpmath.cos(mpmath.pi / m)
            assert abs(mp_value(NEG_TWICE_COS[m]) - want) < mpmath.mpf(10) ** -55
    assert NEG_TWICE_COS[INFINITY] == (-2, 0, 0, 0)
    for m in (5, 7, 12):
        assert m not in NEG_TWICE_COS


def test_elements_are_immutable_hashable_int_tuples():
    x = (1, 2, 0, 0)
    with pytest.raises(TypeError):
        x[0] = 3
    assert hash(mul(x, ONE)) == hash((1, 2, 0, 0))
    values = [*NEG_TWICE_COS.values(), mul(x, (0, 1, 1, 0)), exact_div(mul(x, x), x)]
    for v in values:
        assert isinstance(v, tuple) and len(v) == 4
        assert all(type(c) is int for c in v)  # no Fraction, no float


def test_sqrt2_times_sqrt3_is_sqrt6():
    r2 = (0, 1, 0, 0)
    r3 = (0, 0, 1, 0)
    r6 = (0, 0, 0, 1)
    assert mul(r2, r3) == r6
    assert mul(r2, r2) == (2, 0, 0, 0)
    assert mul(r3, r3) == (3, 0, 0, 0)
    assert mul(r6, r6) == (6, 0, 0, 0)


def test_inertia_identity_and_negatives():
    n = 4
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert inertia_exact(eye) == (4, 0, 0)
    neg = [[sub(ZERO, ONE) if i == j else ZERO for j in range(n)] for i in range(n)]
    assert inertia_exact(neg) == (0, 0, 4)


def test_inertia_zero_diagonal_pair():
    # [[0,1],[1,0]] has eigenvalues +1 and -1; needs the congruence trick
    z, o = ZERO, ONE
    assert inertia_exact([[z, o], [o, z]]) == (1, 0, 1)
    # eigenvalues sqrt5, 0, -sqrt5: the trick must add the column as well as the
    # row, or the pivot comes out as m[i][j] instead of 2*m[i][j] and the
    # remaining block gets the wrong inertia
    t = TWO
    assert inertia_exact([[z, t, z], [t, z, o], [z, o, z]]) == (1, 1, 1)


def test_inertia_singular_block():
    # rank-1 matrix of ones on 3 vertices: eigenvalues 3, 0, 0
    o = ONE
    mat = [[o, o, o], [o, o, o], [o, o, o]]
    assert inertia_exact(mat) == (1, 2, 0)


def _congruent(g, p):
    """P^T g P."""
    n = len(g)

    def dot(terms):
        total = ZERO
        for t in terms:
            total = add(total, t)
        return total

    pt_g = [[dot(mul(p[k][i], g[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]
    return [[dot(mul(pt_g[i][k], p[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]


def test_inertia_sylvester_invariance_under_congruence():
    # conjugating by an invertible integer matrix preserves inertia
    m1 = NEG_TWICE_COS[3]
    g = [
        [TWO, m1, ZERO],
        [m1, TWO, m1],
        [ZERO, m1, TWO],
    ]  # twice the Gram of a rank-3 path with all labels 3: positive definite
    assert inertia_exact(g) == (3, 0, 0)
    # t = P^T g P for P = [[1,1,0],[0,1,1],[0,0,1]]
    p = [[ONE, ONE, ZERO], [ZERO, ONE, ONE], [ZERO, ZERO, ONE]]
    assert inertia_exact(_congruent(g, p)) == (3, 0, 0)
    # the same with irrational entries: twice the Gram of ~C2 (labels 4, 4),
    # positive semidefinite of corank 1
    m4 = NEG_TWICE_COS[4]
    c2 = [[TWO, m4, ZERO], [m4, TWO, m4], [ZERO, m4, TWO]]
    assert inertia_exact(c2) == (2, 1, 0)
    assert inertia_exact(_congruent(c2, p)) == (2, 1, 0)
