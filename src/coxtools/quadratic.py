"""Exact integer arithmetic in Z[sqrt2, sqrt3] and exact inertia by Bareiss elimination.

Twice the cosine Gram matrix of a crystallographic system, 2B, has diagonal 2
and off-diagonal entries -2cos(pi/m) in {0, -1, -sqrt2, -sqrt3, -2} for
m in {2, 3, 4, 6, inf}, so it lies in the ring Z[sqrt2, sqrt3], and so does
every minor of it.  An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 is the tuple
(a, b, c, d) of Python ints.

Signs are decided exactly by recursive squaring: first the sign of u + v*sqrt2
over Z, then the sign of u + v*sqrt3 over Z[sqrt2].  Inertia comes from
symmetric fraction-free elimination (Bareiss, Math. Comp. 22, 1968), whose
divisions are exact, and from Jacobi's rule on the signs of successive leading
minors.  No fraction and no float is ever formed.  The elimination, inertia,
takes its arithmetic as functions; classify also runs it on fixed-point
enclosures for the non-crystallographic labels.
"""

from __future__ import annotations

from .core import INFINITY

QuadInt = tuple[int, int, int, int]

ZERO: QuadInt = (0, 0, 0, 0)
ONE: QuadInt = (1, 0, 0, 0)
TWO: QuadInt = (2, 0, 0, 0)

# -2cos(pi/m), the off-diagonal entry of 2B, for each crystallographic label
NEG_TWICE_COS: dict = {
    2: ZERO,
    3: (-1, 0, 0, 0),
    4: (0, -1, 0, 0),
    6: (0, 0, -1, 0),
    INFINITY: (-2, 0, 0, 0),
}


def add(x: QuadInt, y: QuadInt) -> QuadInt:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def sub(x: QuadInt, y: QuadInt) -> QuadInt:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def mul(x: QuadInt, y: QuadInt) -> QuadInt:
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
        a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def _norm_form(y: QuadInt) -> tuple[QuadInt, int]:
    """(num, norm) with y * num == norm, an integer; num is ONE for rational y.

    num is the product of the three nontrivial conjugates of y, so norm is the
    field norm, which is fixed by both automorphisms and hence rational.
    """
    a, b, c, d = y
    if b == c == d == 0:
        if a == 0:
            raise ZeroDivisionError("division by zero in Z[sqrt2, sqrt3]")
        return ONE, a
    num = mul(mul((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))
    return num, mul(y, num)[0]


def _divide(x: QuadInt, prepared: tuple[QuadInt, int]) -> QuadInt:
    num, norm = prepared
    if num is not ONE:
        x = mul(x, num)
    elif norm == 1:
        return x
    out = []
    for v in x:
        q, r = divmod(v, norm)
        if r:
            raise ArithmeticError("inexact division in Z[sqrt2, sqrt3]")
        out.append(q)
    return tuple(out)


def exact_div(x: QuadInt, y: QuadInt) -> QuadInt:
    """x / y when it lies in Z[sqrt2, sqrt3]; ArithmeticError when it does not."""
    return _divide(x, _norm_form(y))


def _sign_sqrt2(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt2; a^2 == 2b^2 only when both vanish."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


def sign(x: QuadInt) -> int:
    """Exact sign in {-1, 0, 1}.

    Write x = u + v*sqrt3 with u = a + b*sqrt2 and v = c + d*sqrt2.  When the
    signs of u and v disagree, |u| vs |v|*sqrt3 is settled by the sign of
    u^2 - 3v^2, which lives in Z[sqrt2] and is never zero.
    """
    a, b, c, d = x
    su = _sign_sqrt2(a, b)
    sv = _sign_sqrt2(c, d)
    if sv == 0 or su == sv:
        return su
    if su == 0:
        return sv
    t = _sign_sqrt2(a * a + 2 * b * b - 3 * c * c - 6 * d * d, 2 * (a * b - 3 * c * d))
    return su if t > 0 else sv


def inertia(mat, one, add, sub, mul, prepare, divide, sign):
    """Inertia (n_plus, n_zero, n_minus) of a symmetric matrix over the
    arithmetic given by the functions; None when sign cannot decide.

    Symmetric Bareiss elimination: after k pivots every active entry is the
    minor bordering the k pivot rows and columns, so the update
    S[x][y] = (d*S[x][y] - S[x][p]*S[p][y]) / d_prev divides exactly, and the
    k-th pivot d_k is the k-th leading minor in pivot order.  By Jacobi's rule
    it counts as positive iff d_k and d_{k-1} have the same sign (d_0 = one).
    When every active diagonal entry vanishes but some m[i][j] does not,
    adding row and column j to row and column i is a unimodular congruence
    that leaves the pivot minors alone and produces the diagonal entry
    2*m[i][j].  sign is -1, 0, 1 or None (undecided), and the pivot is the
    first diagonal entry of decided nonzero sign; divide(x, prepare(d))
    divides exactly by the pivot d.
    """
    m = [row[:] for row in mat]
    active = list(range(len(m)))
    plus = minus = zero = 0
    prepared, s_prev = prepare(one), 1
    while active:
        for piv in active:
            if s := sign(m[piv][piv]):
                break
        else:  # every active diagonal entry is 0 or undecided
            block = [(i, j) for a, i in enumerate(active) for j in active[a:]]
            signs = [sign(m[i][j]) for i, j in block]
            if None in signs:
                return None
            if not any(signs):
                zero += len(active)
                break
            i, j = next(ij for ij, sg in zip(block, signs) if sg)
            for k in active:
                m[i][k] = add(m[i][k], m[j][k])
            for k in active:
                m[k][i] = add(m[k][i], m[k][j])
            piv, s = i, sign(m[i][i])
        d = m[piv][piv]
        if s == s_prev:
            plus += 1
        else:
            minus += 1
        rest = [k for k in active if k != piv]
        col = m[piv]
        for ai, x in enumerate(rest):
            row, cx = m[x], col[x]
            for y in rest[ai:]:
                row[y] = m[y][x] = divide(sub(mul(d, row[y]), mul(cx, col[y])), prepared)
        prepared, s_prev = prepare(d), s
        active = rest
    return plus, zero, minus


def inertia_exact(mat: list[list[QuadInt]]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_zero, n_minus) of a symmetric matrix over Z[sqrt2, sqrt3]."""
    return inertia(mat, ONE, add, sub, mul, _norm_form, _divide, sign)
