"""Spherical / affine / indefinite classification of Coxeter diagrams.

Two independent engines:

* a shape recognizer against the standard classification tables (paths,
  cycles, forks with prescribed label patterns), typed from masks, not slices, and
* the exact signature of the cosine Gram matrix, from one fraction-free
  elimination of 2B over fixed-point integer enclosures, where an
  algebraic-integer gap certifies every zero.  2B is an integer for labels
  2, 3 and inf; every other 2^p * -2cos(pi/m) is enclosed by its floor and
  ceiling, in Python ints, by Machin's series for pi and Taylor's for cos.

The recognizer is the primary engine; the signature is an oracle used to
cross-check it (a table transcription error cannot survive both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import combinations, count
from math import isqrt, lcm, log2
from typing import TYPE_CHECKING, Iterator, Optional

from .core import (
    INFINITY,
    CoxeterSystem,
    _slice,
    components,
    is_infinite_label,
)

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class TypeClass:
    """Classification of one irreducible diagram.

    kind is "spherical", "affine", or "indefinite"; name is the family name
    (e.g. "A3", "B/C4", "~E8") and None for indefinite.  Alternate names in
    circulation (B3/C3 for B/C3, ~B2 for ~C2, I2(6) for G2) are carried as
    aliases but do not participate in equality.
    """

    kind: str
    name: Optional[str] = None
    aliases: tuple[str, ...] = field(default=(), compare=False)

    @property
    def is_spherical(self) -> bool:
        return self.kind == "spherical"

    @property
    def is_affine(self) -> bool:
        return self.kind == "affine"

    @property
    def is_indefinite(self) -> bool:
        return self.kind == "indefinite"

    def __str__(self) -> str:
        return self.name if self.name is not None else "indefinite"


INDEFINITE = TypeClass("indefinite")


def _sph(name: str, *aliases: str) -> TypeClass:
    return TypeClass("spherical", name, aliases)


def _aff(name: str, *aliases: str) -> TypeClass:
    return TypeClass("affine", name, aliases)


@dataclass(frozen=True)
class Signature:
    """Eigenvalue sign counts (n_plus, n_zero, n_minus) of the cosine form."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus

    @property
    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_zero, self.n_minus)


class UndecidedSignature(Exception):
    """Never raised: the fixed-point engine decides every sign.  Kept because
    perfbench's queries workload catches it and its self-test raises it; it
    goes with the benchmark change that drops both."""


# -- the signature engine: 2B on integer enclosures scaled by 2^p ---------------

_TWICE_B = {1: 2, 2: 0, 3: -1, INFINITY: -2}  # 2B where it is an integer; 1 is the diagonal


@cache
def _pi(w: int) -> tuple[int, int]:
    """lo < 2^w pi < hi by Machin's 16 atan(1/5) - 4 atan(1/239).  The n-th term
    2^w / ((2n+1) x^(2n+1)) of 2^w atan(1/x), floored by chained floor-divisions
    (which floor exactly), is under 1 low, and the first to floor to 0 bounds
    the alternating tail by 1, so n summed terms err by under n + 1."""
    c = e = 0
    for x, f in ((5, 16), (239, -4)):
        power, n = (1 << w) // x, 0
        while term := power // (2 * n + 1):
            c, power, n = c + (-1) ** n * f * term, power // (x * x), n + 1
        e += abs(f) * (n + 1)
    return c - e, c + e


@cache
def _enclosure(m, p: int) -> tuple[int, int]:
    """Floor and ceiling of 2^p * -2cos(pi/m) (2 apart for the rational m = 2, 3),
    from integer series at w = p + 24 bits, doubling w until the ends are 1 apart,
    as some w does for m > 3, where the value is irrational.

    pi comes at W, a power of 2 above w + 16 - log2 m: lo < 2^W pi < hi, so
    a = floor(2^w lo / (m 2^W)) <= 2^w pi/m <= b = ceil(2^w hi / (m 2^W)), and
    _cos_bound encloses 2^v cos(pi/m).
    """
    for w in (p + 24 << j for j in count()):
        lo, hi = _pi(W := 1 << max(1, w + 16 - m.bit_length()).bit_length())
        c_lo, c_hi, v = _cos_bound((lo << w >> W) // m, -((-hi << w >> W) // m), w)
        lo, hi = -2 * c_hi >> v - p, -(2 * c_lo >> v - p)
        if hi - lo < 2 or m < 4:
            return lo, hi


def _cos_bound(a: int, b: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, v) with lo < 2^v cos t < hi for all t in [a, b] / 2^w, 0 <= a <= b <= 2^w pi.

    Once k halvings take t = a/2^w near 2^-isqrt(w)/2, c sums Taylor's series of 2^v
    cos(t/2^k), v = w + 2k, from x2 = a*a >> w, under 1 low, each term floored from
    the last: each is under 2 low and the first to floor to 0 bounds the tail by 2,
    so n terms err by under e = 2(n + 1).  k steps cos 2s = 2cos^2 s - 1 reach cos t,
    each taking e to under 4e + 2 as e^2 < 2^(v-1).  cos is 1-Lipschitz and
    decreasing on [0, pi], which widens the low end: lo = c - e - 4^k (b - a), hi = c + e.
    """
    k = max(0, a.bit_length() - w + isqrt(w) // 2)
    v = w + 2 * k
    x2, term, c, n, e = a * a >> w, 1 << v, 0, 0, 2
    while term:
        c, n, e = c + (-1) ** n * term, n + 1, e + 2
        term = (term * x2 >> v) // (2 * n * (2 * n - 1))
    for _ in range(k):
        c, e = (c * c >> v - 1) - (1 << v), 4 * e + 2
    return c - e - (b - a << 2 * k), c + e, v


@cache
def _field_degree(lcm_: int) -> int:
    """phi(2L)/2, the degree of Q(cos(pi/L)), or more: a cofactor left by trial
    division up to 2^16 counts as a prime, which can only raise the result."""
    n = phi = 2 * lcm_
    q = 2
    while q * q <= n and q < 1 << 16:
        if n % q == 0:
            phi -= phi // q
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        phi -= phi // n
    return max(1, phi // 2)


def _fx_add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] | y[2])


def _fx_sign(x) -> Optional[int]:
    """The sign of an enclosure, None when it straddles 0 without being 0."""
    return 1 if x[0] > 0 else -1 if x[1] < 0 else None if x[0] or x[1] else 0


def _inertia(m, p: int, divide) -> Optional[tuple[int, int, int]]:
    """Inertia (n_plus, n_zero, n_minus) of a symmetric matrix of enclosures
    at scale 2^p, eliminated in place; None when a sign stays open.

    Symmetric Bareiss elimination (Bareiss, Math. Comp. 22, 1968): after k
    pivots every active entry is the minor bordering the k pivot rows and
    columns, so the update S[x][y] = (d*S[x][y] - S[x][k]*S[k][y]) / d_prev
    divides exactly, and the k-th pivot d_k is the k-th leading minor in
    pivot order.  By Jacobi's rule it counts as positive iff d_k and d_{k-1}
    have the same sign (d_0 = 1).  When every active diagonal entry vanishes
    but some m[i][j] does not, adding row and column j to row and column i
    is a unimodular congruence that leaves the pivot minors alone and
    produces the diagonal entry 2*m[i][j].  The pivot is the first diagonal
    entry of decided nonzero sign; divide(x, d) divides by the last pivot d and
    brings x back to scale 2^p.
    """
    active = list(range(len(m)))
    plus = minus = zero = 0
    d_prev, s_prev = (1 << p, 1 << p, 0), 1
    while active:
        for piv in active:
            if s := _fx_sign(m[piv][piv]):
                break
        else:  # every active diagonal entry is 0 or undecided
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
        col = m[piv]
        neg = [(-hi, -lo, u) for lo, hi, u in col]
        # d x - cx cy over d_prev is |d| x - (s cx) cy over s d_prev, and
        # (s cx) cy is c (+-cy) with c = +-s cx nonnegative or straddling 0
        dl, dh, du = d if s > 0 else neg[piv]
        under = d_prev if s > 0 else (-d_prev[1], -d_prev[0], d_prev[2])
        for ai, x in enumerate(rest):
            row, (cl, ch, cu), ys = m[x], col[x] if s > 0 else neg[x], col
            if ch <= 0:
                cl, ch, ys = -ch, -cl, neg
            cu |= du
            for y in rest[ai:]:
                a, b, u = row[y]
                el, eh, v = ys[y]
                if a or b or (cl or ch) and (el or eh):  # else both products are the point 0
                    if cl >= 0:
                        plo, phi = el * (cl if el >= 0 else ch), eh * (ch if eh >= 0 else cl)
                    else:
                        plo, phi = min(cl * eh, ch * el), max(cl * el, ch * eh)
                    lo, hi = a * (dl if a >= 0 else dh) - phi, b * (dh if b >= 0 else dl) - plo
                    row[y] = m[y][x] = divide((lo, hi, u | v | cu), under)
        d_prev, s_prev = d, s
        active = rest
    return plus, zero, minus


def _inertia_fixed(system: CoxeterSystem) -> tuple[int, int, int]:
    """Inertia of 2B by _inertia on enclosures (lo, hi, mask):
    lo <= 2^p * x <= hi, and mask the irrational labels x was computed from;
    an entry of 2B is the point _TWICE_B[m] << p or _enclosure(m, p).

    When every label is 2, 3 or inf, 2B is an integer matrix: p is 0, every
    enclosure is a point and the elimination is integer Bareiss, which never
    leaves a sign open.  Otherwise p starts at 64 and doubles while a sign
    stays open.  This terminates: every active entry is a minor of a
    unimodular congruent of 2B, so an algebraic integer of Q(cos(pi/L)), L the
    lcm of its labels, of degree D <= phi(2L)/2.  The conjugates of an entry of 2B
    are at most 2 in size, so by Hadamard's bound and at most n row/column additions,
    each adding at most 4 minors, those of an entry are at most H = (2 sqrt(n))^n * 4^n.
    A nonzero entry has an integer norm, so |x| >= H^-(D-1), and an
    enclosure strictly inside that gap is an exact 0 (Yap, CGTA 7, 1997).
    """
    n = system.rank
    irrational = sorted(set().union(*system.labels) - _TWICE_B.keys())
    hbits = n * (64 * n).bit_length()  # at least 2 log2 H
    gap_bits: dict[int, int] = {}
    p = 64 if irrational else 0

    def divide(x, d):
        lo, hi, u = x
        c, e, v = d
        if c < 0:
            lo, hi, c, e = -hi, -lo, -e, -c
        lo, hi, u = lo // (c if lo < 0 else e), -(-hi // (e if hi < 0 else c)), u | v
        if lo <= 0 <= hi and (lo or hi):
            if (b := gap_bits.get(u)) is None:
                L = lcm(*(m for k, m in enumerate(irrational) if u >> k & 1))
                b = gap_bits[u] = ((_field_degree(L) - 1) * hbits + 1) // 2
            if p > b and -(1 << p - b) < lo and hi < 1 << p - b:  # inside 2^-b <= gap
                return (0, 0, 0)
        return (lo, hi, u)

    while True:
        table = {m: (v << p, v << p, 0) for m, v in _TWICE_B.items()}
        table.update((m, (*_enclosure(m, p), 1 << k)) for k, m in enumerate(irrational))
        mat = [[table[m] for m in row] for row in system.labels]
        if (out := _inertia(mat, p, divide)) is not None:
            return out
        p = 2 * p or 64


def signature(system: CoxeterSystem) -> Signature:
    """Exact signature of the cosine form, summed over connected components."""
    plus = zero = minus = 0
    for comp in components(system):
        sub = system if len(comp) == system.rank else _slice(system.labels, comp)
        p, z, m = _inertia_fixed(sub)
        plus, zero, minus = plus + p, zero + z, minus + m
    return Signature(plus, zero, minus)


# -- shape recognizer ----------------------------------------------------------


def _classify_rank2(m) -> TypeClass:
    if is_infinite_label(m):
        return _aff("~A1", "I2(inf)")
    if m == 3:
        return _sph("A2", "I2(3)")
    if m == 4:
        return _sph("B/C2", "B2", "C2", "I2(4)")
    if m == 5:
        return _sph("I2(5)", "H2")
    if m == 6:
        return _sph("G2", "I2(6)")
    return _sph(f"I2({m})")


def _classify_path(seq: list) -> TypeClass:
    """Classify a path diagram by its edge-label sequence (length >= 2)."""
    rank = len(seq) + 1
    rev = seq[::-1]
    if all(m == 3 for m in seq):
        return _sph(f"A{rank}")
    if any(is_infinite_label(m) for m in seq):
        return INDEFINITE
    tail3 = [3] * (len(seq) - 1)
    if seq == tail3 + [4] or rev == tail3 + [4]:
        return _sph(f"B/C{rank}", f"B{rank}", f"C{rank}")
    if seq == [4] + [3] * (len(seq) - 2) + [4]:
        n = rank - 1
        return _aff(f"~C{n}", "~B2") if n == 2 else _aff(f"~C{n}")
    if seq == [3, 4, 3]:
        return _sph("F4")
    if seq == [3, 3, 4, 3] or rev == [3, 3, 4, 3]:
        return _aff("~F4")
    if seq == [5, 3] or rev == [5, 3]:
        return _sph("H3")
    if seq == [5, 3, 3] or rev == [5, 3, 3]:
        return _sph("H4")
    if seq == [3, 6] or rev == [3, 6]:
        return _aff("~G2")
    return INDEFINITE


def _classify_fork(arms: list[list]) -> TypeClass:
    """Classify a tree with one degree-3 vertex from its three arm label lists.

    Each arm lists the edge labels outward from the branch vertex.
    """
    rank = 1 + sum(len(a) for a in arms)
    arms = sorted(arms, key=len)
    lens = tuple(len(a) for a in arms)
    flat = [m for a in arms for m in a]
    if all(m == 3 for m in flat):
        if lens[:2] == (1, 1):
            return _sph(f"D{rank}")
        if lens == (1, 2, 2):
            return _sph("E6")
        if lens == (1, 2, 3):
            return _sph("E7")
        if lens == (1, 2, 4):
            return _sph("E8")
        if lens == (2, 2, 2):
            return _aff("~E6")
        if lens == (1, 3, 3):
            return _aff("~E7")
        if lens == (1, 2, 5):
            return _aff("~E8")
        return INDEFINITE
    # one 4 at the outer end of one arm, two bare leaves, everything else 3: ~B
    if lens[:2] == (1, 1) and [m for m in flat if m != 3] == [4]:
        four_arm = next(a for a in arms if 4 in a)
        others = [a for a in arms if a is not four_arm]
        if (
            four_arm[-1] == 4
            and all(m == 3 for m in four_arm[:-1])
            and all(o == [3] for o in others)
        ):
            return _aff(f"~B{rank - 1}")
    return INDEFINITE


def classify_irreducible(system: CoxeterSystem) -> TypeClass:
    """Classify a connected diagram against the spherical and affine tables.

    Anything matching no table entry is Indefinite; that catch-all is what the
    signature oracle certifies.
    """
    labels = system.labels
    adj = _adjacency(labels)
    everything = (1 << len(adj)) - 1
    if not adj or _reach(adj, everything, 1) != everything:
        raise ValueError("classify_irreducible needs a nonempty connected diagram")
    return _classify_mask(labels, adj, everything)


def _classify_mask(labels, adj: list[int], mask: int) -> TypeClass:
    """The type of the connected subdiagram on the vertex bitmask mask, typed
    from masks, not slices: degrees, arms and cycles are read through the
    whole diagram's labels and neighbour masks adj."""
    verts = _vertices(mask)
    n = len(verts)
    if n <= 2:
        return _classify_rank2(labels[verts[0]][verts[1]]) if n == 2 else _sph("A1")
    degrees = [(adj[v] & mask).bit_count() for v in verts]
    leaves = [v for v, d in zip(verts, degrees) if d == 1]
    branch = [v for v, d in zip(verts, degrees) if d > 2]

    def arm(prev: int, cur: int) -> list:
        """Edge labels from prev through cur and on along degree-2 vertices
        to a leaf, a branch vertex or, round a cycle, back to the start."""
        start, out = prev, [labels[prev][cur]]
        while cur != start:
            nxt = adj[cur] & mask ^ 1 << prev
            if not nxt or nxt & nxt - 1:
                break
            prev, cur = cur, nxt.bit_length() - 1
            out.append(labels[prev][cur])
        return out

    if sum(degrees) >= 2 * n:
        # connected with >= n edges: a single all-3 cycle is ~A, all else is not
        if branch or any(m != 3 for m in arm(verts[0], (adj[verts[0]] & mask).bit_length() - 1)):
            return INDEFINITE
        return _aff(f"~A{n - 1}")
    if not branch:  # a path, read from its first end
        return _classify_path(arm(leaves[0], (adj[leaves[0]] & mask).bit_length() - 1))
    arms = [arm(b, w) for b in branch for w in _vertices(adj[b] & mask)]
    if len(branch) == 1:  # a fork, or the star ~D4
        if len(arms) == 3:
            return _classify_fork(arms)
        return _aff("~D4") if n == 5 and all(a == [3] for a in arms) else INDEFINITE
    # a tree has 2 + sum(degree - 2) leaves; only ~D has two branch vertices,
    # of degree 3, with all four leaves hanging off them and every label 3
    hubs = sum(1 << b for b in branch)
    plain = all(m == 3 for a in arms for m in a)
    if plain and len(branch) == 2 == len(leaves) - 2 and all(adj[v] & hubs for v in leaves):
        return _aff(f"~D{n - 1}")
    return INDEFINITE


def classify(system: CoxeterSystem) -> list[tuple[tuple[int, ...], TypeClass]]:
    """Classification of every connected component, in component order."""
    adj = _adjacency(system.labels)
    parts = _parts(adj, (1 << len(adj)) - 1)
    return [(_vertices(c), _classify_mask(system.labels, adj, c)) for c in parts]


def _parts(adj: list[int], mask: int) -> Iterator[int]:
    """The components of the subdiagram on mask, by least vertex."""
    while mask:
        comp = _reach(adj, mask, mask & -mask)
        mask ^= comp
        yield comp


def _vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _facet_types(system: CoxeterSystem) -> Iterator[TypeClass]:
    """Type of every component of every vertex-deleted subdiagram."""
    labels = system.labels
    adj = _adjacency(labels)
    everything = (1 << len(adj)) - 1
    for v in range(len(adj)):
        for comp in _parts(adj, everything ^ 1 << v):
            yield _classify_mask(labels, adj, comp)


def _types_through_last(labels, adj: list[int]) -> Iterator[TypeClass]:
    """Type of the component through the last vertex v of every subdiagram
    with one other vertex deleted, from the labels and neighbour masks adj.

    When the system minus v is a diagram whose components pass a hereditary
    test, every other component of such a facet lies inside it and passes too.
    """
    n = len(adj)
    everything = (1 << n) - 1
    for u in range(n - 1):
        yield _classify_mask(labels, adj, _reach(adj, everything ^ 1 << u, 1 << n - 1))


def _adjacency(labels) -> list[int]:
    """Neighbour bitmask of every vertex."""
    out = []
    for i, row in enumerate(labels):
        mask = 0
        for j, m in enumerate(row):
            if m != 2:
                mask |= 1 << j
        out.append(mask ^ (1 << i))  # the diagonal label 1 set bit i
    return out


def _reach(adj: list[int], mask: int, start: int) -> int:
    """Bitmask of the vertices of mask reachable inside it from start."""
    seen = frontier = start
    while frontier:
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        new = adj[v] & mask & ~seen
        seen |= new
        frontier |= new
    return seen


# -- derived predicates --------------------------------------------------------


def _small_spherical(labels, verts) -> bool:
    """Sphericity of the subdiagram on at most three vertices; larger sets
    are typed from masks, not slices, by _classify_mask.

    The label test is kept because it is the hot path of every subset scan:
    sending ranks 2 and 3 through the tables made the sweep-criterion
    benchmark pass about twice as slow.  Two bonds p, q form a path, which is
    spherical when (p-2)(q-2) < 4 (an inf bond makes the product inf); three
    form a triangle, which is never spherical."""
    bonds = [m for i, j in combinations(verts, 2) if (m := labels[i][j]) != 2]
    if len(bonds) == 2:
        p, q = bonds
        return (p - 2) * (q - 2) < 4
    return not bonds or len(bonds) == 1 and bonds[0] != INFINITY


def is_spherical(system: CoxeterSystem) -> bool:
    """True iff the group is finite (every component in the spherical tables)."""
    n = system.rank
    if n <= 3:
        return _small_spherical(system.labels, range(n))
    return all(t.is_spherical for _, t in classify(system))


def is_k_spherical(system: CoxeterSystem, k: int) -> bool:
    """True iff every generating subset of size <= k is spherical.

    A single vertex is spherical, and a pair is exactly when its label is
    finite, so an inf label decides every k above 1 and its absence k = 2.
    A triple is spherical unless it is a triangle or a path a-b-c with
    (m_ab - 2)(m_bc - 2) >= 4, which the neighbour masks show.  Above that
    a subset is spherical unless it holds a minimal infinite subset, so the
    walk decides, walked only up to size k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    labels = system.labels
    if any(INFINITY in row for row in labels):
        return k == 1
    if k == 3:
        adj = _adjacency(labels)
        tops = [sorted(m - 2 for m in row if m > 2)[-2:] for row in labels]
        triangle = any(adj[a] & around for around in adj for a in _vertices(around))
        return not triangle and all(len(t) < 2 or t[0] * t[1] < 4 for t in tops)
    return k <= 2 or all(len(verts) > k for verts, _, _ in _closure(system).walk(k).minimal)


class _SphericalClosure:
    """The connected spherical subsets of a system, found by one walk, and
    from them its minimal infinite subsets and largest spherical rank.

    Subsets are int bitmasks.  A minimal infinite subset is connected (a
    disconnected set with spherical facets is spherical), so the walk grows
    connected spherical sets only, level by level, each by a diagram
    neighbour v: a reverse search (Avis and Fukuda, Discrete Appl. Math. 65,
    1996).  A candidate S + v is made once, from the facet that drops its
    largest vertex whose facet is a known connected spherical set, and is
    classified only when every connected facet is a known spherical set, so
    supersets of infinite subsets are never touched.  That makes every proper
    subset spherical: a component T of a disconnected facet lies in a
    connected facet S + v - w, w a leaf outside T of a spanning tree that
    extends one of T.  _reach runs only to tell whether an unknown facet is
    connected.  Such a candidate is spherical or minimal infinite: the label
    test decides on at most three vertices, and above that the tables, on a
    candidate typed from masks, not slices.

    The walk resumes: walk(upto) stops once minimal is complete up to size
    upto, and a later walk() goes on from that level.  known maps every
    connected spherical set of a walked level to its diagram neighbours, in
    walk order.  minimal lists the minimal infinite subsets in (size, lex)
    order as (vertices, mask, type), with type None until the walk or affine
    classifies the subset; affine stores every type it classifies, so no
    subset is classified twice.  The worst case stays exponential: with
    every label inf the only connected spherical sets are the vertices, and
    max_rank is the size of a maximum independent set.
    """

    def __init__(self, system: CoxeterSystem):
        self.labels = system.labels
        self.adj = _adjacency(self.labels)
        self.minimal: list[tuple[tuple[int, ...], int, Optional[TypeClass]]] = []
        self.known: dict[int, int] = {}
        # the next level to walk, of connected spherical sets of size self.size
        self.level = [((v,), 1 << v, around) for v, around in enumerate(self.adj)]
        self.size = 1

    def walk(self, upto: Optional[int] = None) -> _SphericalClosure:
        """Walk on until minimal holds every minimal infinite subset of size
        <= upto (all of them when upto is None), and return self."""
        labels, adj, known = self.labels, self.adj, self.known
        while (level := self.level) and (upto is None or self.size < upto):
            known.update((mask, around) for _, mask, around in level)
            nxt, found = [], []
            for verts, mask, around in level:
                rest = around
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    v = bit.bit_length() - 1
                    cand = mask | bit
                    for u in verts:
                        facet = cand ^ 1 << u
                        if facet in known:
                            if u > v:
                                break  # cand is made from the facet without u
                        elif adj[v] & facet and _reach(adj, facet, bit) == facet:
                            break  # a connected facet that is not spherical
                    else:
                        cverts = verts + (v,)
                        t = None
                        if len(cverts) <= 3:
                            spherical = _small_spherical(labels, cverts)
                        else:
                            t = _classify_mask(labels, adj, cand)
                            spherical = t.is_spherical
                        if spherical:
                            nxt.append((cverts, cand, (around | adj[v]) & ~cand))
                        else:
                            found.append((tuple(sorted(cverts)), cand, t))
            found.sort()
            self.minimal.extend(found)
            self.level = nxt
            self.size += 1
        return self

    @cached_property
    def max_rank(self) -> int:
        """Largest size of a spherical subset, summed over the components.

        A spherical subset is a union of pairwise non-adjacent connected
        spherical sets, so a component that is a known set counts its size,
        and any other runs an exact memoised branch and bound on its lowest
        vertex v: drop v, or take one connected spherical set T through v and
        close T's neighbours.  v is T's lowest vertex, so the sets are tabled
        by lowest vertex, largest first; the tables are built here, on first
        use, so the other scans never pay for them.

        Drops run as a loop down a chain of parts, each the first component
        of the rest, and are memoised on the way back.  Only a take (which
        closes v and a neighbour) or the other components of the rest
        recurse, on at least two vertices fewer, so the depth stays within
        half the rank.
        """
        adj, known = self.walk().adj, self.known
        through: list[list[tuple[int, int, int]]] = [[] for _ in adj]
        for mask, around in reversed(known.items()):
            through[(mask & -mask).bit_length() - 1].append(
                (mask.bit_count(), mask, mask | around)
            )
        memo: dict[int, int] = {}

        def best(open_: int) -> int:
            total = 0
            while open_:
                part = _reach(adj, open_, open_ & -open_)
                open_ ^= part
                # (part, its best take, best of the rest's other components);
                # got ends as the best of the part the chain stops at
                chain = []
                while True:
                    if part in known:
                        got = part.bit_count()
                        break
                    if (got := memo.get(part)) is not None:
                        break
                    low = part & -part
                    room = part.bit_count() - 1  # the part is not spherical
                    take = 0
                    for size, mask, closed in through[low.bit_length() - 1]:
                        if not mask & ~part and size + (part & ~closed).bit_count() > take:
                            take = max(take, size + best(part & ~closed))
                            if take == room:
                                break
                    if take == room:  # no drop can do better
                        chain.append((part, take, 0))
                        got = 0
                        break
                    rest = part ^ low
                    on = _reach(adj, rest, rest & -rest)
                    chain.append((part, take, best(rest ^ on)))
                    part = on
                for part, take, side in reversed(chain):
                    got = max(take, side + got)
                    memo[part] = got
                total += got
            return total

        return best((1 << len(adj)) - 1)

    def affine(self, start: int) -> Iterator[tuple[tuple[int, ...], TypeClass]]:
        """(vertices, type) of each irreducible affine subset of size >= start,
        in (size, lex) order.

        Every irreducible affine diagram is minimal infinite, so these are
        the affine members of minimal.
        """
        for i, (verts, mask, t) in enumerate(self.walk().minimal):
            if len(verts) < start:
                continue
            if t is None:
                t = _classify_mask(self.labels, self.adj, mask)
                self.minimal[i] = (verts, mask, t)
            if t.is_affine:
                yield verts, t


# The only way to get a walk.  One entry suffices because scans of one diagram
# come in a row: is_k_spherical, is_hyperbolic and has_affine_parabolic in
# check_affine_criterion, or is_hyperbolic then kazhdan_threshold.  Each reads
# it through walk, so a full read resumes where is_k_spherical stopped.
_closure = lru_cache(maxsize=1)(_SphericalClosure)


def has_affine_parabolic(
    system: CoxeterSystem, include_rank2_infty: bool = False
) -> Optional[tuple[int, ...]]:
    """Smallest subset (then lexicographic) inducing an irreducible affine diagram.

    Rank-2 affine means an infinite bond; that pair generates the infinite
    dihedral group, which contains no Z x Z, so it only counts as a witness
    when include_rank2_infty is set.
    """
    start = 2 if include_rank2_infty else 3
    return next((verts for verts, _ in _closure(system).affine(start)), None)


def max_spherical_rank(system: CoxeterSystem) -> int:
    """Largest size of a generating subset spanning a finite subgroup."""
    return _closure(system).max_rank


def minimal_infinite_subsets(system: CoxeterSystem) -> list[tuple[int, ...]]:
    """All subsets inducing an infinite subgroup whose proper subsets are finite.

    Every infinite subset contains one of these, and they are pairwise
    incomparable; returned in (size, lex) order.
    """
    return [verts for verts, _, _ in _closure(system).walk().minimal]


# -- Kazhdan threshold ----------------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over all prime bases <= 100.

    A proof only below psi_13 ~ 3.317e24, where the first 13 prime bases are
    known to suffice (Sorenson and Webster, Math. Comp. 86, 2017).  The
    threshold q exceeds that from d = 8 on, so there q is a probable prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root by integer Newton iteration."""
    if k == 1 or n < 2:
        return n
    # start above the root by a factor of about 1 + 2^-30 (float logs are far
    # closer), so that Newton falls to it in a few steps
    e = log2(n) / k
    s = max(0, int(e) - 60)
    x = int(2.0 ** (e - s) * (1 + 2.0**-30) + 1) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _least_prime_power(n: int) -> int:
    """The least prime power p^k >= n.

    For each k the least candidate is the k-th power of the least prime at or
    above the ceiling of the k-th root of n, so the answer is the least of
    these.  The prime scan (k = 1) comes first, and a k whose ceiling root
    already reaches it in k-th power needs no prime search.
    """
    best = _next_prime(max(n, 2))
    for k in range(2, (n - 1).bit_length() + 1):
        r = _iroot(n - 1, k) + 1
        if r**k < best:
            best = min(best, _next_prime(r) ** k)
    return best


@dataclass(frozen=True)
class ThresholdResult:
    d: int  # maximal rank of a spherical special subgroup
    bound: Fraction  # exact 1764^d / 25
    q: int  # smallest prime power >= bound


def kazhdan_threshold(system: CoxeterSystem) -> ThresholdResult:
    """Smallest prime power q with q >= 1764^d / 25, d = max spherical rank."""
    d = max_spherical_rank(system)
    if d == 0:
        raise ValueError("threshold needs at least one generator")
    return ThresholdResult(d, *_threshold_for_rank(d))


@cache
def _threshold_for_rank(d: int) -> tuple[Fraction, int]:
    """The bound 1764^d / 25 and the prime power q, searched once per d."""
    from fractions import Fraction  # here, to keep it off the start-up path

    bound = Fraction(1764) ** d / 25
    # 1764 is coprime to 5, so the bound is never an integer
    return bound, _least_prime_power(-(-bound.numerator // bound.denominator))
