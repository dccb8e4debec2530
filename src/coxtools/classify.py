"""Spherical / affine / indefinite classification of Coxeter diagrams.

Two independent engines:

* a shape recognizer against the standard classification tables (paths,
  cycles, forks with prescribed label patterns), and
* the exact signature of the cosine Gram matrix, from one fraction-free
  elimination (quadratic.inertia) of 2B over Z[sqrt2, sqrt3] for
  crystallographic labels and over fixed-point integer enclosures otherwise,
  where an algebraic-integer gap certifies every zero.

The recognizer is the primary engine; the signature is an oracle used to
cross-check it (a table transcription error cannot survive both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import lcm
from typing import Iterator, Optional

from .core import (
    INFINITY,
    CoxeterSystem,
    _slice,
    components,
    is_connected,
    is_crystallographic,
    is_infinite_label,
)
from .quadratic import NEG_TWICE_COS, TWO, inertia, inertia_exact


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
    """Never raised: both signature arithmetics decide every sign.  Kept
    because callers catch it."""


# -- Gram matrix and signature ------------------------------------------------


def gram_matrix(system: CoxeterSystem):
    """Gram matrix of the cosine form B(s,t) = -cos(pi/m(s,t)), B(s,s) = 1.

    For a crystallographic system this is exactly 2B: diagonal 2, entries
    -2cos(pi/m) in {0, -1, -sqrt2, -sqrt3, -2}, each a 4-tuple of ints on the
    basis 1, sqrt2, sqrt3, sqrt6 of Z[sqrt2, sqrt3] (see quadratic.py).  It has
    the signature of B.  Otherwise it is B itself, as mpmath interval
    enclosures at the current mpmath.iv precision; signature does not use them.
    """
    labels = system.labels
    if is_crystallographic(system):
        return [[TWO if m == 1 else NEG_TWICE_COS[m] for m in row] for row in labels]
    from mpmath import iv  # only here and in _enclosure, to keep it off start-up

    exact = {m: iv.mpf(v) for m, v in _EXACT_ENTRIES.items()}
    return [[exact[m] if m in exact else -iv.cos(iv.pi / m) for m in row] for row in labels]


# -cos(pi/m) where it is rational, so zeros stay exact; label 1 is the diagonal
_EXACT_ENTRIES = {1: 1, 2: 0, 3: -0.5, INFINITY: -1}


# -- the fixed-point engine: 2B on integer enclosures scaled by 2^p -------------


@cache
def _enclosure(m, p: int) -> tuple[int, int]:
    """Floor and ceiling of 2^p * -2cos(pi/m), from exact mpmath endpoints."""
    from mpmath.libmp import from_int, mpf_shift, to_int
    from mpmath.libmp.libmpi import mpi_cos, mpi_div, mpi_pi

    wp = p + 16
    lo, hi = mpi_cos(mpi_div(mpi_pi(wp), (from_int(m),) * 2, wp), wp)
    return -to_int(mpf_shift(hi, p + 1), "c"), -to_int(mpf_shift(lo, p + 1), "f")


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


def _fx_sub(x, y):
    return (x[0] - y[1], x[1] - y[0], x[2] | y[2])


def _fx_mul(x, y):
    """Exact product of two enclosures, left at scale 2^(2p) for the division."""
    a, b, u = x
    c, d, v = y
    if b <= 0:  # x * y = (-x) * (-y)
        a, b, c, d = -b, -a, -d, -c
    if a >= 0:  # the extremes are known; only an x straddling 0 needs all four
        return (a * c if c >= 0 else b * c, b * d if d >= 0 else a * d, u | v)
    ps = (a * c, a * d, b * c, b * d)
    return (min(ps), max(ps), u | v)


def _fx_sign(x) -> Optional[int]:
    """The sign of an enclosure, None when it straddles 0 without being 0."""
    return 1 if x[0] > 0 else -1 if x[1] < 0 else None if x[0] or x[1] else 0


def _inertia_fixed(system: CoxeterSystem) -> tuple[int, int, int]:
    """Inertia of 2B by Bareiss elimination on enclosures (lo, hi, mask):
    lo <= 2^p * x <= hi, and mask the irrational labels x was computed from.

    p starts at 64 and doubles while a sign stays open.  This terminates:
    every active entry is a minor of a unimodular congruent of 2B, so an
    algebraic integer of Q(cos(pi/L)), L the lcm of its labels, of degree
    D <= phi(2L)/2.  The conjugates of an entry of 2B are at most 2 in size,
    so by Hadamard's bound and at most n row/column additions, each adding
    at most 4 minors, those of an entry are at most H = (2 sqrt(n))^n * 4^n.
    A nonzero entry has an integer norm, so |x| >= H^-(D-1), and an
    enclosure strictly inside that gap is an exact 0 (Yap, CGTA 7, 1997).
    """
    n = system.rank
    irrational = sorted(set().union(*system.labels) - _EXACT_ENTRIES.keys())
    hbits = n * (64 * n).bit_length()  # at least 2 log2 H
    gap_bits: dict[int, int] = {}
    p = 64

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
        table = {m: (int(2 * v) << p, int(2 * v) << p, 0) for m, v in _EXACT_ENTRIES.items()}
        table.update((m, (*_enclosure(m, p), 1 << k)) for k, m in enumerate(irrational))
        mat = [[table[m] for m in row] for row in system.labels]
        one = (1 << p, 1 << p, 0)
        if out := inertia(mat, one, _fx_add, _fx_sub, _fx_mul, lambda d: d, divide, _fx_sign):
            return out
        p *= 2


def signature(system: CoxeterSystem) -> Signature:
    """Exact signature of the cosine form, summed over connected components."""
    plus = zero = minus = 0
    for comp in components(system):
        sub = system if len(comp) == system.rank else _slice(system.labels, comp)
        crystallographic = is_crystallographic(sub)
        p, z, m = inertia_exact(gram_matrix(sub)) if crystallographic else _inertia_fixed(sub)
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
    if system.rank == 0 or not is_connected(system):
        raise ValueError("classify_irreducible needs a nonempty connected diagram")
    return _classify_connected(system)


def _classify_connected(system: CoxeterSystem) -> TypeClass:
    """classify_irreducible for a diagram already known to be nonempty and connected."""
    n = system.rank
    if n == 1:
        return _sph("A1")
    if n == 2:
        return _classify_rank2(system.labels[0][1])

    edges = system.edges()
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    degrees = [len(a) for a in adj]

    if len(edges) >= n:
        # connected with >= n edges: a single all-3 cycle is ~A, all else is not
        if (
            len(edges) == n
            and all(d == 2 for d in degrees)
            and all(m == 3 for _, _, m in edges)
        ):
            return _aff(f"~A{n - 1}")
        return INDEFINITE

    # tree cases
    maxdeg = max(degrees)
    if maxdeg >= 4:
        if (
            maxdeg == 4
            and n == 5
            and sorted(degrees) == [1, 1, 1, 1, 4]
            and all(m == 3 for _, _, m in edges)
        ):
            return _aff("~D4")
        return INDEFINITE

    branch = [v for v in range(n) if degrees[v] == 3]

    if not branch:
        # a path: read the label sequence from one endpoint
        start = next(v for v in range(n) if degrees[v] == 1)
        seq = []
        prev, cur = -1, start
        while True:
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                break
            nxt = nxts[0]
            seq.append(system.labels[cur][nxt])
            prev, cur = cur, nxt
        return _classify_path(seq)

    if len(branch) == 1:
        b = branch[0]
        arms = []
        for first in adj[b]:
            labels = [system.labels[b][first]]
            prev, cur = b, first
            while True:
                nxts = [w for w in adj[cur] if w != prev]
                if not nxts:
                    break
                labels.append(system.labels[cur][nxts[0]])
                prev, cur = cur, nxts[0]
            arms.append(labels)
        return _classify_fork(arms)

    if len(branch) == 2:
        # only ~D has two branch vertices: all four leaves hang off them directly
        leaves = [v for v in range(n) if degrees[v] == 1]
        if (
            all(m == 3 for _, _, m in edges)
            and len(leaves) == 4
            and all(adj[v][0] in branch for v in leaves)
        ):
            return _aff(f"~D{n - 1}")
        return INDEFINITE

    return INDEFINITE


def classify(system: CoxeterSystem) -> list[tuple[tuple[int, ...], TypeClass]]:
    """Classification of every connected component, in component order."""
    return [
        (comp, _classify_connected(_slice(system.labels, comp)))
        for comp in components(system)
    ]


def _facet_types(system: CoxeterSystem) -> Iterator[TypeClass]:
    """Type of every component of every vertex-deleted subdiagram."""
    verts = range(system.rank)
    for v in verts:
        for _, t in classify(_slice(system.labels, [j for j in verts if j != v])):
            yield t


def _types_through_last(system: CoxeterSystem) -> Iterator[TypeClass]:
    """Type of the component through the last vertex v of every subdiagram
    with one other vertex deleted.

    When the system minus v is a diagram whose components pass a hereditary
    test, every other component of such a facet lies inside it and passes too.
    """
    labels = system.labels
    n = system.rank
    adj = _adjacency(labels)
    everything = (1 << n) - 1
    for u in range(n - 1):
        comp = _reach(adj, everything ^ (1 << u), 1 << (n - 1))
        yield _classify_connected(_slice(labels, [j for j in range(n) if comp >> j & 1]))


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
    """Sphericity of the subdiagram on at most three ascending vertices.

    The label test is kept because it is the hot path of every subset scan:
    sending ranks 2 and 3 through classify_irreducible made the
    sweep-criterion benchmark pass about twice as slow.
    """
    bonds = [
        labels[i][j]
        for a, i in enumerate(verts)
        for j in verts[a + 1 :]
        if labels[i][j] != 2
    ]
    if any(is_infinite_label(m) for m in bonds):
        return False
    if len(bonds) <= 1:
        return True
    if len(bonds) == 2:
        p, q = bonds
        return (p - 2) * (q - 2) < 4
    return False  # a triangle is never finite


def is_spherical(system: CoxeterSystem) -> bool:
    """True iff the group is finite (every component in the spherical tables)."""
    n = system.rank
    if n <= 3:
        return _small_spherical(system.labels, range(n))
    return all(t.is_spherical for _, t in classify(system))


def is_k_spherical(system: CoxeterSystem, k: int) -> bool:
    """True iff every generating subset of size <= k is spherical."""
    if k < 1:
        raise ValueError("k must be positive")
    n = system.rank
    size = min(k, n)
    labels = system.labels
    if size <= 3:
        return all(_small_spherical(labels, J) for J in combinations(range(n), size))
    return all(is_spherical(_slice(labels, J)) for J in combinations(range(n), size))


class _SphericalClosure:
    """The spherical subsets of a system, found by one bottom-up walk.

    Subsets are int bitmasks.  Level k+1 is formed only from spherical sets of
    level k, by adding a vertex above the set's highest bit, and a candidate
    is examined only when all its facets are spherical, so supersets of
    infinite subsets are never touched.  Such a candidate is either spherical
    or minimal infinite:

    * disconnected, it is spherical: each component lies in some facet;
    * connected on at most three vertices, the label test decides;
    * connected and larger, it is classified against the tables.

    max_rank is the largest size of a spherical subset; minimal lists the
    minimal infinite subsets in (size, lex) order as (vertices, mask, type),
    with type None until the walk or affine classifies the subset; affine
    stores every type it classifies, so no subset is classified twice.
    """

    def __init__(self, system: CoxeterSystem):
        labels = system.labels
        n = system.rank
        self.labels = labels
        self.adj = adj = _adjacency(labels)
        self.minimal: list[tuple[tuple[int, ...], int, Optional[TypeClass]]] = []
        self.max_rank = 0
        level = [((v,), 1 << v) for v in range(n)]
        while level:
            self.max_rank = len(level[0][0])
            known = {mask for _, mask in level}
            nxt = []
            for verts, mask in level:
                for v in range(verts[-1] + 1, n):
                    cand = mask | 1 << v
                    if any(cand ^ 1 << u not in known for u in verts):
                        continue
                    cverts = verts + (v,)
                    t = None
                    if _reach(adj, cand, cand & -cand) != cand:
                        spherical = True
                    elif len(cverts) <= 3:
                        spherical = _small_spherical(labels, cverts)
                    else:
                        t = _classify_connected(_slice(labels, cverts))
                        spherical = t.is_spherical
                    if spherical:
                        nxt.append((cverts, cand))
                    else:
                        self.minimal.append((cverts, cand, t))
            level = nxt

    def affine(self, start: int) -> Iterator[tuple[tuple[int, ...], TypeClass]]:
        """(vertices, type) of each irreducible affine subset of size >= start,
        in (size, lex) order.

        Every irreducible affine diagram is minimal infinite, so these are
        the affine members of minimal.
        """
        for i, (verts, mask, t) in enumerate(self.minimal):
            if len(verts) < start:
                continue
            if t is None:
                t = _classify_connected(_slice(self.labels, verts))
                self.minimal[i] = (verts, mask, t)
            if t.is_affine:
                yield verts, t


# The only way to get a walk.  One entry suffices because scans of one diagram
# come in a row: is_hyperbolic then kazhdan_threshold or has_affine_parabolic.
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
    return [verts for verts, _, _ in _closure(system).minimal]


# -- Kazhdan threshold ----------------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over all prime bases <= 100.

    Deterministic far beyond the thresholds reached here (the d=10 threshold
    is ~1.2e31; twelve bases already cover 3.3e24, and every extra base
    multiplies the first failure point).
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
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    for k in range(1, n.bit_length() + 1):
        r = _iroot(n, k)
        if r ** k == n:
            return _is_prime(r)
        if r < 2:
            break
    return False


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
    bound = Fraction(1764) ** d / 25
    # 1764 is coprime to 5, so the bound is never an integer
    q = -(-bound.numerator // bound.denominator)
    while not _is_prime_power(q):
        q += 1
    return bound, q
