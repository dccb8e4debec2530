"""Coxeter systems as symmetric label matrices, with validation and diagram basics.

A Coxeter system (W, S) is encoded by the matrix m(s, t) of pairwise orders:
1 on the diagonal, an integer >= 2 or infinity off it.  The diagram has an edge
between s and t exactly when m(s, t) >= 3, labeled by m(s, t).  Each system
keeps its neighbour bitmasks, built once, and every component walk and subset
scan of it reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

INFINITY = math.inf

Label = int | float  # finite order as int, or INFINITY

CRYSTALLOGRAPHIC_LABELS = frozenset({2, 3, 4, 6, INFINITY})


def is_infinite_label(m: Label) -> bool:
    return m == INFINITY


def label_sort_key(m: Label) -> tuple[int, int]:
    """Total order on labels: finite ascending, infinity last."""
    if m == INFINITY:
        return (1, 0)
    return (0, int(m))


def label_text(m: Label) -> str:
    return "inf" if m == INFINITY else str(int(m))


@dataclass(frozen=True)
class CoxeterSystem:
    """Immutable Coxeter system; equality and hashing are structural on the matrix."""

    labels: tuple[tuple[Label, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbour bitmask of every vertex, built on first use.  It is a
        cache, kept out of equality, hashing, repr and pickles."""
        out = []
        for i, row in enumerate(self.labels):
            mask = 0
            for j, m in enumerate(row):
                if m != 2:
                    mask |= 1 << j
            out.append(mask ^ (1 << i))  # the diagonal label 1 set bit i
        return tuple(out)

    def __getstate__(self) -> dict:
        return {"labels": self.labels}

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Label]]) -> "CoxeterSystem":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_edges(cls, rank: int, edges: dict[tuple[int, int], Label]) -> "CoxeterSystem":
        """Build from an edge-label map; every unspecified pair commutes (label 2)."""
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        mat = [[2] * rank for _ in range(rank)]
        for i in range(rank):
            mat[i][i] = 1
        for (i, j), m in edges.items():
            if not (0 <= i < rank and 0 <= j < rank) or i == j:
                raise ValueError(f"bad edge ({i}, {j}) for rank {rank}")
            mat[i][j] = m
            mat[j][i] = m
        return cls.from_rows(mat)

    @classmethod
    def empty(cls) -> "CoxeterSystem":
        return cls(())

    def label(self, i: int, j: int) -> Label:
        return self.labels[i][j]

    def edges(self) -> list[tuple[int, int, Label]]:
        """Diagram edges (i, j, m) with i < j and m >= 3, in lexicographic order."""
        n = self.rank
        return [
            (i, j, self.labels[i][j])
            for i in range(n)
            for j in range(i + 1, n)
            if self.labels[i][j] != 2
        ]

    def __repr__(self) -> str:
        body = ", ".join(f"{i}-{j}:{label_text(m)}" for i, j, m in self.edges())
        return f"CoxeterSystem(rank={self.rank}, edges=[{body}])"


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _valid_label(m: object) -> bool:
    if isinstance(m, bool):
        return False
    if isinstance(m, int):
        return m >= 2
    return m == INFINITY


def validate(system: CoxeterSystem) -> ValidationResult:
    """Check matrix shape, diagonal, symmetry, and label ranges.

    Returns every violation with its coordinates rather than stopping at the first.
    """
    bad: list[str] = []
    n = system.rank
    for i, row in enumerate(system.labels):
        if len(row) != n:
            bad.append(f"row {i} has length {len(row)}, expected {n}")
    if bad:
        return ValidationResult(tuple(bad))
    for i in range(n):
        d = system.labels[i][i]
        if d != 1 or isinstance(d, bool) or not isinstance(d, int):
            bad.append(f"diagonal entry at ({i}, {i}) must be 1, got {d!r}")
    for i in range(n):
        for j in range(i + 1, n):
            a, b = system.labels[i][j], system.labels[j][i]
            if a != b:
                bad.append(f"symmetry violated at ({i}, {j}) vs ({j}, {i}): {a!r} != {b!r}")
            if not _valid_label(a):
                bad.append(
                    f"label at ({i}, {j}) must be an integer >= 2 or INFINITY, got {a!r}"
                )
    return ValidationResult(tuple(bad))


def _check_subset(system: CoxeterSystem, subset: Iterable[int]) -> tuple[int, ...]:
    js = tuple(subset)
    seen = set()
    for v in js:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"vertex index {v!r} is not an integer")
        if not 0 <= v < system.rank:
            raise ValueError(f"vertex index {v} out of range for rank {system.rank}")
        if v in seen:
            raise ValueError(f"duplicate vertex index {v}")
        seen.add(v)
    return tuple(sorted(js))


def _slice(labels, verts) -> CoxeterSystem:
    """Induced subsystem on already validated, ascending vertices."""
    return CoxeterSystem(tuple(tuple(labels[i][j] for j in verts) for i in verts))


def restrict(system: CoxeterSystem, subset: Iterable[int]) -> CoxeterSystem:
    """Induced subsystem on the given vertices, in ascending index order."""
    return _slice(system.labels, _check_subset(system, subset))


def _reach(masks, mask: int, start: int) -> int:
    """Bitmask of the vertices of mask reachable inside it from start."""
    seen = frontier = start
    while frontier:
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        new = masks[v] & mask & ~seen
        seen |= new
        frontier |= new
    return seen


def _parts(masks, mask: int) -> Iterator[int]:
    """The components of the subdiagram on mask, by least vertex."""
    while mask:
        comp = _reach(masks, mask, mask & -mask)
        mask ^= comp
        yield comp


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def components(system: CoxeterSystem) -> list[tuple[int, ...]]:
    """Connected components of the diagram, each sorted, ordered by smallest member."""
    return [_vertices(c) for c in _parts(system.masks, (1 << system.rank) - 1)]


def is_connected(system: CoxeterSystem) -> bool:
    """Vacuously true for the rank-0 system."""
    everything = (1 << system.rank) - 1
    return not everything or _reach(system.masks, everything, 1) == everything


def is_simply_laced(system: CoxeterSystem) -> bool:
    """True when every label lies in {2, 3}."""
    n = system.rank
    return all(system.labels[i][j] in (2, 3) for i in range(n) for j in range(i + 1, n))


def is_crystallographic(system: CoxeterSystem) -> bool:
    """True when every label lies in {2, 3, 4, 6, INFINITY}."""
    n = system.rank
    return all(
        system.labels[i][j] in CRYSTALLOGRAPHIC_LABELS
        for i in range(n)
        for j in range(i + 1, n)
    )
