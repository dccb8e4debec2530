"""Isomorph-free generation of Coxeter diagrams by canonical augmentation.

Rank-k representatives are extended by one vertex with every admissible label
vector, and a child is kept only when the hereditary filters pass and its new
vertex lies in its canonical deletion orbit (McKay, J. Algorithms 26, 1998):
an isomorphism-invariant choice of one orbit of eligible vertices, the
non-cut ones under connected_only, else all.  Every connected diagram has a
non-cut vertex, and all the supported filters survive deleting one, so each
class is kept as the child of exactly one parent, the representative of the
class with that orbit deleted; filtering at every level loses nothing, and
children of different parents never coincide.

A filter also decides which admitted diagrams are extended at all
(`EnumFilter.extendable`).  The quasi-minimal search uses this to sharpen its
parent pool: a diagram all of whose proper subdiagrams are
spherical-or-affine loses a non-cut vertex to a diagram that is itself
spherical-or-affine, so only the classical families ever need extending and
the search stays small even at rank 11.  The same search holds every minimal
infinite diagram (all proper subdiagrams spherical), because each one grows
from a connected spherical facet.

A parent is admitted and extendable, so its children are screened only
through the new vertex v.  The label vector of v is assigned depth-first, and
a prefix is dropped as soon as it fixes a triple {a, b, v} or a 4-subset
{a, b, c, v} that the filter's subset tables reject.  The tables are built by
classify on 3- and 4-vertex systems on first use, one labelling of the
vertices other than v at a time, classifying a 4-subset only when its four
triples pass.  Under the proper-parabolic rule, they settle every facet of a
child up to rank 5, so only a surviving child of rank 6 and up needs the
component through v of each facet classified; every other component of a
facet lies in the parent.  Under k_spherical 3 or 4 they settle the whole
rule from rank 3 on.  EnumFilter.admits stays the standalone check.

The label vectors are also listed only up to the parent's automorphisms,
which extend to isomorphisms of the two children that fix v, so both would
give the same canonical deletion answer and code.  The twin swaps, of
vertices with the same label to every other vertex, are divided out in the
depth-first assignment (orderly generation, Read, Ann. Discrete Math. 2,
1978): inside each twin class the labels to v do not decrease.  Unless the
parent's vertices of one deletion invariant always lie in one twin class,
when the twin swaps are the whole group, the parent's own level search
gives its least vertex orders; the automorphisms mapping one onto the others
generate the rest of the group, and a vector is kept only if none of them
maps it to a lexicographically smaller one (McKay's extensions up to the
parent's automorphism group).  So no two children of one parent are
isomorphic by a map fixing v, and no kept code repeats: of two children
isomorphic by a map moving v, at most one has v in its deletion orbit.

A child is derived from its parent's encoded state, built once per parent:
rows plus one column, neighbour masks plus the bits of v, which the facet
test reads too, and twin classes, computed only on a tie in the deletion
test or for a level search, split by the labels to v.  The level search for a canonical code holds the unplaced
vertices of each least vertex order as cells sorted by their next column, and
builds only the orders still least at the next position.

A canonical code is needed only by a level that is extended, or shown: the
deletion test needs the least orders only to settle a tie of v with an
eligible vertex outside its twin class.  So the per-class campaigns, which
never extend or show their top level, take it from a private variant of
iter_levels that keeps each top-level child in parent order, encoded in its
own vertex order, and runs a level search there only for such a tie.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, combinations
from multiprocessing import Pool
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .core import (
    CRYSTALLOGRAPHIC_LABELS,
    INFINITY,
    CoxeterSystem,
    Label,
    _reach,
    _valid_label,
    is_connected,
    is_infinite_label,
    label_sort_key,
)
from .classify import (
    _facet_types,
    _types_through_last,
    classify,
    is_k_spherical,
)

RANK_CAP = 11

_CODE_INF = 0xFFFF


def _enc_label(m: Label) -> int:
    if is_infinite_label(m):
        return _CODE_INF
    if not 2 <= m < _CODE_INF:
        raise ValueError(f"label {m} cannot be encoded")
    return int(m)


def _twins(rows: list[list]) -> list[int]:
    """The twin class of every vertex, as its least member.

    Two vertices are twins when they carry the same label to every other
    vertex, so swapping them is an automorphism; twinship is an equivalence.
    """
    n = len(rows)
    twin_id = list(range(n))
    for v in range(n):
        for u in range(v):
            if twin_id[u] == u and all(
                rows[u][w] == rows[v][w] for w in range(n) if w != u and w != v
            ):
                twin_id[v] = u
                break
    return twin_id


def _level_search(
    enc: list[list[int]], twin_id: list[int], with_orders: bool = False
) -> tuple[bytes, Optional[list[list[int]]]]:
    """The canonical code of encoded rows enc (canonical_code's, or a child's
    derived from its parent by _child) with twin classes twin_id and, if
    with_orders is set, the least vertex orders the search keeps to the end.

    The code is the rank byte, then the lexicographically least
    column-by-column label encoding over all vertex orders.  A column packs
    one 16-bit label encoding per placed vertex into an int; the columns of
    a step have one length, so ints compare as codes do, and the least code
    takes the least column at every position.  The search keeps every order
    whose code so far is least, with its unplaced vertices as cells (next
    column, vertex mask) sorted by column.  Placing v splits each cell by
    the labels to v, from one (encoded label, vertex mask) list per vertex
    in label order; so an extension's least next column comes from its
    first non-empty cell, and only the extensions whose least next column is
    the least of all are built.  An order is extended by each vertex of its
    first cell with no earlier twin there: unplaced twins share a cell, and
    one stands for all.

    So a kept order places each twin class in increasing order, and every
    least order is a kept one with some twins swapped: no two kept orders
    differ by twin swaps alone, and the automorphisms mapping the first kept
    order onto the others generate, with the twin swaps, the whole
    automorphism group.  To list the kept orders the search records,
    per position, each extension as (index of the order it extends, vertex
    placed), and walks back from the orders kept at the end.
    """
    n = len(enc)
    if n < 2:
        return bytes([n]), ([list(range(n))] if with_orders else None)
    bits = [1 << u for u in range(n)]
    groups: list[dict[int, int]] = [{} for _ in enc]
    for v, row in enumerate(enc):
        for u, c in enumerate(row[:v]):
            groups[v][c] = groups[v].get(c, 0) | bits[u]
            groups[u][c] = groups[u].get(c, 0) | bits[v]
    split = [sorted(g.items()) for g in groups]
    earlier, members = [], [0] * n
    for v, t in enumerate(twin_id):
        earlier.append(members[t])
        members[t] |= bits[v]
    # position 0 adds the empty column, and placing v there leaves the cells split[v]
    least = min(split)[0][0]
    steps = [(0, v) for v in range(n) if not earlier[v] and split[v][0][0] == least]
    code, trail = [bytes([n]), b""], [steps]
    orders = [split[v] for _, v in steps]
    for k in range(1, n):
        least = orders[0][0][0]
        code.append(least.to_bytes(2 * k, "big"))
        steps = []
        for i, cells in enumerate(orders):
            first = rest = cells[0][1]
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if not first & earlier[v]:
                    steps.append((i, v))
        if len(steps) > 1 and k + 1 < n:
            ahead = []
            for i, v in steps:
                col, mask = orders[i][0] if orders[i][0][1] != bits[v] else orders[i][1]
                for c, group in split[v]:
                    if group & mask:
                        ahead.append(col << 16 | c)
                        break
            least = min(ahead)
            steps = [step for step, x in zip(steps, ahead) if x == least]
        trail.append(steps)
        extended = []
        for i, v in steps:
            cells = []
            for col, mask in orders[i]:
                col <<= 16
                if mask & (mask - 1):
                    for c, group in split[v]:
                        if sub := mask & group:
                            cells.append((col | c, sub))
                elif mask != bits[v]:
                    cells.append((col | enc[v][mask.bit_length() - 1], mask))
            extended.append(cells)
        orders = extended
    code_bytes = b"".join(code)
    if not with_orders:
        return code_bytes, None
    kept = []
    for end in range(len(orders)):
        i, order = end, []
        for steps in reversed(trail):
            i, v = steps[i]
            order.append(v)
        kept.append(order[::-1])
    return code_bytes, kept


def _orbits(twin_id: list[int], orders: list[list[int]]) -> tuple[list[int], list[int]]:
    """The automorphism orbit of every vertex (as its least member) and of
    every position, from the twin classes twin_id and the kept least orders
    of _level_search: two vertices share an orbit exactly when a chain of
    twin pairs and of kept orders placing them at one position joins them.
    """
    orbit = twin_id
    for column in zip(*orders):
        merged = {orbit[u] for u in column}
        rep = min(merged)
        orbit = [rep if x in merged else x for x in orbit]
    return orbit, [orbit[u] for u in orders[0]]


def canonical_code(system: CoxeterSystem) -> bytes:
    """Isomorphism-invariant code: rank byte, then the lexicographically
    least column-by-column label encoding over all vertex orders."""
    n, labels = system.rank, system.labels
    if n > RANK_CAP:
        raise ValueError(f"rank {n} exceeds the supported cap of {RANK_CAP}")
    enc = [[0 if i == j else _enc_label(labels[i][j]) for j in range(n)] for i in range(n)]
    return _level_search(enc, _twins(enc))[0]


def _invariant(enc: list[list[int]], deg: list[int], u: int) -> tuple:
    """Vertex u's isomorphism invariant in encoded rows enc with degrees deg:
    its degree, then the sorted (encoded label, neighbour degree) pairs."""
    # a neighbour w has enc[u][w] other than 2 and the diagonal's 0
    return deg[u], tuple(sorted([(c, deg[w]) for w, c in enumerate(enc[u]) if c != 2 and c]))


def _only_twin_swaps(enc: list[list[int]], adj: tuple[int, ...], twin_id: list[int]) -> bool:
    """Whether encoded rows enc with masks adj and twin classes twin_id have
    no vertices of one _invariant outside one twin class.  An automorphism
    keeps the invariant, so it then keeps every twin class: the twin swaps
    are the whole automorphism group."""
    deg = [mask.bit_count() for mask in adj]
    first: dict[tuple, int] = {}
    return all(
        first.setdefault(_invariant(enc, deg, u), t) == t for u, t in enumerate(twin_id)
    )


def _deletion_code(
    enc: list[list[int]], adj: list[int], twins: Callable, v: int, connected_only: bool,
    own: Optional[bytes] = None,
) -> Optional[bytes]:
    """The canonical code of encoded rows enc with masks adj (a child's, from
    _child) if vertex v lies in its canonical deletion orbit, else None; or,
    given own, the rows' code in their own vertex order, own in its place.

    The orbit is picked in three isomorphism-invariant steps: the eligible
    vertices (the non-cut ones under connected_only, else all), of these the
    ones with the largest _invariant, and of these the orbit of the one
    placed first by the least orders.  The answer is None as soon as an
    eligible vertex beats v.  Twins share an orbit, so the least orders and
    their orbits are searched only for an eligible tie outside v's twin
    class.  Without one, v is in the orbit, and a level search runs only for
    the canonical code, never when own is given.  twins() gives the twin
    classes, asked for only on a tie or for a level search.
    """
    n = len(enc)
    deg = [mask.bit_count() for mask in adj]
    full = (1 << n) - 1

    def eligible(u: int) -> bool:
        rest = full ^ (1 << u)
        return not connected_only or not rest or _reach(adj, rest, rest & -rest) == rest

    top = _invariant(enc, deg, v)
    equal = []
    for u in range(n):
        if u != v and deg[u] >= deg[v]:
            key = _invariant(enc, deg, u)
            if key > top and eligible(u):
                return None
            if key == top:
                equal.append(u)
    if not eligible(v):
        return None
    tied = [u for u in equal if eligible(u)]
    if own and not tied:
        return own
    twin_id = twins()
    tied = [u for u in tied if twin_id[u] != twin_id[v]]
    if not tied:
        return own or _level_search(enc, twin_id)[0]
    code, orders = _level_search(enc, twin_id, with_orders=True)
    orbit, by_position = _orbits(twin_id, orders)
    candidates = {orbit[u] for u in tied + [v]}
    first = next(o for o in by_position if o in candidates)
    return (own or code) if first == orbit[v] else None


def _pack(values: list[int]) -> bytes:
    """Encoded labels as code bytes, 16 bits each, big-endian."""
    return struct.pack(f">{len(values)}H", *values)


def system_from_code(code: bytes) -> CoxeterSystem:
    """Decode a code back into the system it encodes: the representative, for
    a canonical code; the child in parent order, for _expand_parent's own
    codes (the parent's columns, then the new vertex's)."""
    n = code[0] if code else 0
    if not code or len(code) != 1 + n * (n - 1):
        raise ValueError("malformed code")
    vals = struct.unpack(f">{len(code) // 2}H", code[1:])
    if any(x < 2 for x in vals):
        raise ValueError("malformed code")
    mat: list[list[Label]] = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    pos = 0
    for k in range(1, n):
        for i in range(k):
            m: Label = INFINITY if vals[pos] == _CODE_INF else vals[pos]
            mat[i][k] = m
            mat[k][i] = m
            pos += 1
    return CoxeterSystem.from_rows(mat)


# -- filters ---------------------------------------------------------------


@dataclass(frozen=True)
class EnumFilter:
    """Hereditary constraints applied at every rank of the augmentation.

    The generator screens children with _admits_extension, not admits.
    """

    label_set: frozenset
    connected_only: bool = True
    simply_laced: bool = False
    crystallographic: bool = False
    k_spherical: Optional[int] = None
    all_proper_parabolics_spherical_or_affine: bool = False

    def __post_init__(self):
        ls = frozenset(self.label_set)
        if 2 not in ls:
            raise ValueError("the label set must contain 2")
        for m in ls:
            if not _valid_label(m):
                raise ValueError(f"bad label {m!r} in label set")
            _enc_label(m)
        object.__setattr__(self, "label_set", ls)
        k = self.k_spherical
        if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
            raise ValueError(f"k_spherical must be a positive integer, not {k!r}")

    def effective_labels(self) -> tuple[Label, ...]:
        ls = self.label_set
        if self.simply_laced:
            ls = ls & frozenset({2, 3})
        if self.crystallographic:
            ls = ls & CRYSTALLOGRAPHIC_LABELS
        return tuple(sorted(ls, key=label_sort_key))

    def admits(self, system: CoxeterSystem) -> bool:
        allowed = set(self.effective_labels())
        n = system.rank
        for i in range(n):
            for j in range(i + 1, n):
                if system.labels[i][j] not in allowed:
                    return False
        if self.connected_only and not is_connected(system):
            return False
        if self.k_spherical is not None and not is_k_spherical(system, self.k_spherical):
            return False
        # the rule is hereditary, so checking the vertex-deleted subdiagrams
        # covers every proper subset
        proper = self.all_proper_parabolics_spherical_or_affine
        return not proper or not any(t.is_indefinite for t in _facet_types(system))

    def extendable(self, system: CoxeterSystem) -> bool:
        """Whether the children of an admitted system are worth generating."""
        # a child has its parent as a facet, so a parent with an indefinite
        # component has no admitted child and its subtree is cut up front
        proper = self.all_proper_parabolics_spherical_or_affine
        return not proper or not any(t.is_indefinite for _, t in classify(system))

    def _admits_extension(self, parent: CoxeterSystem, vec: tuple, adj: list[int]) -> bool:
        """admits, for the child of an admitted, extendable parent that adds
        a new vertex last with a label vector vec from _label_vectors, has
        neighbour masks adj and is connected if the filter asks for it.

        Every subset without the new vertex passed in the parent, so only the
        subsets through it are tested, and the child is built only if some
        are.  Under k_spherical 3 or 4 from rank 3 on, the size-3 and size-4
        subset tables have seen them all.  Under the proper-parabolic
        rule, only the component through the new vertex of each facet can
        fail, and only from rank 6 on: a facet of a smaller child has at most
        four vertices, so that component lies in a subset through the new
        vertex of size at most 4, which the tables of its rank have seen.
        """
        k = self.k_spherical
        if k in (3, 4) and parent.rank >= 2:
            k = None
        proper = self.all_proper_parabolics_spherical_or_affine and parent.rank >= 5
        if k is None and not proper:
            return True
        rows = tuple(row + (m,) for row, m in zip(parent.labels, vec)) + (vec + (1,),)
        if k is not None and not is_k_spherical(CoxeterSystem(rows), k):
            return False
        return not proper or not any(t.is_indefinite for t in _types_through_last(rows, adj))

    def payload(self) -> dict:
        return {
            "label_set": [
                m if isinstance(m, int) else "inf" for m in self.effective_labels()
            ],
            "connected_only": self.connected_only,
            "simply_laced": self.simply_laced,
            "crystallographic": self.crystallographic,
            "k_spherical": self.k_spherical,
            "all_proper_parabolics_spherical_or_affine": (
                self.all_proper_parabolics_spherical_or_affine
            ),
        }


# -- augmentation driver ------------------------------------------------------


@contextmanager
def worker_map(jobs: int = 1) -> Iterator[Callable]:
    """The map one campaign runs its work through, in input order.

    The builtin map for jobs=1, else the map of a single pool of `jobs`
    worker processes, started and ended with the context, which splits each
    list it is given into about four chunks per worker.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if jobs == 1:
        yield map
        return
    with Pool(processes=jobs) as pool:
        yield pool.map


def _subset_table(filt: EnumFilter, rank: int, size: int) -> Optional[Callable]:
    """Which subsets of the given size through the new vertex v a child of
    the given rank may induce, as a _kind_table, or None when the filter has
    no rule for them.

    The rule is every component spherical under k_spherical >= size, and
    from rank size + 1 on, where the subset is proper, spherical or affine
    under all_proper_parabolics_spherical_or_affine.
    """
    if rank < size:
        return None
    if filt.k_spherical is not None and filt.k_spherical >= size:
        kinds = frozenset({"spherical"})  # the proper-parabolic rule allows it too
    elif filt.all_proper_parabolics_spherical_or_affine and rank > size:
        kinds = frozenset({"spherical", "affine"})
    else:
        return None
    return _kind_table(filt.effective_labels(), kinds, size)


@cache
def _kind_table(labels: tuple, kinds: frozenset, size: int) -> Callable:
    """Which labellings of a triple (size 3) or 4-subset (size 4) through a
    vertex v have only components of the given kinds, as a cached function
    of the labels among its other vertices: (m(a, b)) for a triple {a, b, v},
    (m(a, b), m(a, c), m(b, c)) for a 4-subset {a, b, c, v}.

    Writing each vertex x for the index in labels of m(x, v), bit b of
    entry [a] of a triple, and bit c of entry [a][b] of a 4-subset, is set
    when that labelling passes; the function gives None when every labelling
    passes.  Each key is built on first use.  Both sets of kinds are
    hereditary, so a 4-subset is classified only when its four triples pass
    the size-3 table.
    """
    everything = (1 << len(labels)) - 1
    index = {m: x for x, m in enumerate(labels)}
    if size == 4:
        triples = _kind_table(labels, kinds, 3)

        def triple(ab: Label) -> list[int]:
            return triples((ab,)) or [everything] * len(labels)

    @cache
    def table(parent: tuple) -> Optional[list]:
        base = [[1] * (size - 1) for _ in range(size - 1)]
        for (i, j), m in zip(combinations(range(size - 1), 2), parent):
            base[i][j] = base[j][i] = m

        def mask(col: list) -> int:
            out = everything
            if size == 4:
                # {a, b, c} and {a, b, v} decide every bit, {a, c, v} and
                # {b, c, v} one bit each
                ab, ac, bc = parent
                p, q = index[col[0]], index[col[1]]
                whole = triple(ab)[index[ac]] >> index[bc] & triple(ab)[p] >> q & 1
                out = triple(ac)[p] & triple(bc)[q] if whole else 0
            for r, m in enumerate(labels):
                if out >> r & 1:
                    vec = col + [m]
                    sub = CoxeterSystem.from_rows(
                        [row + [x] for row, x in zip(base, vec)] + [vec + [1]]
                    )
                    if any(t.kind not in kinds for _, t in classify(sub)):
                        out ^= 1 << r
            return out

        if size == 3:
            out = [mask([p]) for p in labels]
            masks = out
        else:
            out = [[mask([p, q]) for q in labels] for p in labels]
            masks = list(chain.from_iterable(out))
        return out if min(masks) < everything else None

    return table


def _label_vectors(
    parent: CoxeterSystem, filt: EnumFilter, twin_id: list, orders: list
) -> list[tuple]:
    """The label vectors of a new vertex v, one per orbit of the parent's
    automorphism group, with no triple {a, b, v} or 4-subset {a, b, c, v}
    that the size-3 or size-4 _subset_table rejects.  The group is generated
    by the swaps of the parent twins twin_id and by the automorphisms mapping
    orders[0] onto each other of the parent's least vertex orders (none
    when orders holds at most one).

    They are assigned depth-first, and a prefix is dropped as soon as it
    fixes a rejected subset or gives a vertex a label before (in
    filt.effective_labels() order) that of an earlier twin: inside each twin
    class the labels do not decrease.  When position c is assigned, the
    triples {a, c, v} and 4-subsets {a, b, c, v} with a < b < c are fixed;
    the mask rows of each are fetched once per position.  A vector is then
    kept only if no image under an automorphism from the orders comes before
    it (comparing label indices).  The twin swaps are normal in the group,
    so every member of an orbit is such an image with twins swapped; and the
    level search keeps only orders that place each twin class in increasing
    order, so these automorphisms map every twin class increasingly onto its
    image, and the image of a sorted vector is sorted.  The tables and the automorphisms
    keep each other's vectors, so this lists exactly the least member of
    every orbit of the admissible vectors.
    """
    labels = filt.effective_labels()
    n = parent.rank
    pl = parent.labels
    triples = _subset_table(filt, min(n + 1, 4), 3)
    quads = _subset_table(filt, min(n + 1, 5), 4)
    everything = (1 << len(labels)) - 1
    vecs: list[tuple] = [()]
    for c in range(n):
        rows = (triples((pl[a][c],)) for a in range(c)) if triples else ()
        threes = [(a, row) for a, row in enumerate(rows) if row is not None]
        fours = []
        if quads:
            for a, b in combinations(range(c), 2):
                row = quads((pl[a][b], pl[a][c], pl[b][c]))
                if row is not None:
                    fours.append((a, b, row))
        twin = max((a for a in range(c) if twin_id[a] == twin_id[c]), default=None)
        nxt = []
        for vec in vecs:
            allowed = everything
            for a, row in threes:
                allowed &= row[vec[a]]
            for a, b, row in fours:
                allowed &= row[vec[a]][vec[b]]
            if twin is not None:
                allowed &= everything << vec[twin]
            nxt.extend(vec + (q,) for q in range(len(labels)) if allowed >> q & 1)
        vecs = nxt
    if len(orders) > 1:
        moves = [itemgetter(*[b for _, b in sorted(zip(orders[0], o))]) for o in orders[1:]]
        vecs = [vec for vec in vecs if all(move(vec) >= vec for move in moves)]
    return [tuple(labels[q] for q in vec) for vec in vecs]


def _child(enc: list[list[int]], adj: tuple[int, ...], twin_id: list[int], col: list[int]):
    """The encoded rows and masks of the child that adds v, with encoded
    labels col, to a parent with rows enc, masks adj and twin classes
    twin_id, and a function giving its twin classes: the parent's split by
    col, v joining that of any u with enc[u][w] == col[w] for all w != u."""
    n = len(enc)
    mask = sum(1 << w for w, c in enumerate(col) if c != 2)
    masks = [a | 1 << n if c != 2 else a for a, c in zip(adj, col)]

    def twins() -> list[int]:
        first: dict[tuple[int, int], int] = {}
        out = [first.setdefault(tc, u) for u, tc in enumerate(zip(twin_id, col))]
        twin = (out[u] for u, row in enumerate(enc) if row == col[:u] + [0] + col[u + 1 :])
        return out + [next(twin, n)]

    return [row + [c] for row, c in zip(enc, col)] + [col + [0]], masks + [mask], twins


def _expand_parent(parent: CoxeterSystem, filt: EnumFilter, canonical: bool = True) -> list[bytes]:
    """The admissible one-vertex extensions of one admitted, extendable
    parent whose new vertex lies in their canonical deletion orbit, as sorted
    canonical codes, or, unless canonical, as sorted codes of the children in
    their own vertex order (the parent's, then the new vertex).

    The parent's encoded rows, twin classes and least vertex orders (one
    level search, skipped when _only_twin_swaps holds) are built once, its
    masks are read from the system, and _child derives each child's, whose
    masks the facet test reads too.  _label_vectors lists one vector per
    orbit of the parent's automorphism group, so no kept code repeats, and
    no other parent gives any of them.
    """
    code = {1: 0} | {m: _enc_label(m) for m in filt.effective_labels()}
    enc = [[code[m] for m in row] for row in parent.labels]
    adj = parent.masks
    twin_id = _twins(enc)
    orders = []
    if not _only_twin_swaps(enc, adj, twin_id):
        orders = _level_search(enc, twin_id, with_orders=True)[1]
    # a child's code in its own order: the parent's columns, then col
    head = bytes([len(enc) + 1]) + b"".join(_pack(row[:k]) for k, row in enumerate(enc))
    out = []
    for vec in _label_vectors(parent, filt, twin_id, orders):
        # a new vertex joined to nothing leaves a nonempty parent disconnected
        if filt.connected_only and enc and all(m == 2 for m in vec):
            continue
        col = [code[m] for m in vec]
        rows, masks, twins = _child(enc, adj, twin_id, col)
        if filt._admits_extension(parent, vec, masks):
            own = None if canonical else head + _pack(col)
            out.append(_deletion_code(rows, masks, twins, parent.rank, filt.connected_only, own))
    return sorted(c for c in out if c is not None)


def _levels(
    filt: EnumFilter, max_rank: int, imap: Callable, canonical_top: bool
) -> Iterator[tuple[int, list[CoxeterSystem]]]:
    """iter_levels, except that unless canonical_top is set, the top level
    holds each class's representative in parent order: the canonical
    representative of its parent with the new vertex added last, sorted by
    that order's code.  A level search then runs for a top-level child only
    to settle a tie in its deletion test.
    """
    if not 0 <= max_rank <= RANK_CAP:
        raise ValueError(f"rank {max_rank} is outside 0..{RANK_CAP}")
    level = [CoxeterSystem.empty()]
    for k in range(1, max_rank + 1):
        parents = [s for s in level if filt.extendable(s)]
        expand = partial(_expand_parent, filt=filt, canonical=canonical_top or k < max_rank)
        chunks = imap(expand, parents)
        level = [system_from_code(c) for c in sorted(chain.from_iterable(chunks))]
        yield k, level


def iter_levels(
    filt: EnumFilter, max_rank: int, imap: Callable = map
) -> Iterator[tuple[int, list[CoxeterSystem]]]:
    """Yield (rank, representatives) for every rank 1..max_rank.

    Each level lists one representative per class passing filt, in
    canonical-code order, and is built from the members of the level below
    that filt.extendable keeps, starting from the empty diagram.  The parents
    of a level are expanded in one call of imap (the builtin map, or a
    worker_map's), so the output never depends on it; their sorted, disjoint
    chunks are merged.  Every level, the last included, is canonical; the
    per-class campaigns read theirs from _levels, whose top level is not.
    Raises ValueError, once iterated, unless 0 <= max_rank <= RANK_CAP.
    """
    return _levels(filt, max_rank, imap, canonical_top=True)


def enumerate_diagrams(
    rank: int, filt: EnumFilter, jobs: int = 1
) -> list[CoxeterSystem]:
    """One representative per isomorphism class of the given rank passing filt."""
    level = [CoxeterSystem.empty()]
    with worker_map(jobs) as imap:
        for _, level in iter_levels(filt, rank, imap):
            pass
    return level
