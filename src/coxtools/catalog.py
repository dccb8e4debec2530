"""Builders for the standard irreducible spherical and affine diagrams.

Vertex layouts are fixed so that tests and rendered output are stable:
paths are numbered left to right, forks put the branch vertex before its
leaves, and the extending vertex of an affine diagram gets the last index.
"""

from __future__ import annotations

import re

from .core import INFINITY, CoxeterSystem, Label


def path_system(labels: list[Label] | tuple[Label, ...]) -> CoxeterSystem:
    """Path on len(labels)+1 vertices; labels[i] sits on edge (i, i+1)."""
    edges = {(i, i + 1): m for i, m in enumerate(labels)}
    return CoxeterSystem.from_edges(len(labels) + 1, edges)


def cycle_system(labels: list[Label] | tuple[Label, ...]) -> CoxeterSystem:
    """Cycle on len(labels) vertices; labels[i] sits on edge (i, (i+1) mod n)."""
    n = len(labels)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = {(i, (i + 1) % n): m for i, m in enumerate(labels)}
    return CoxeterSystem.from_edges(n, edges)


def type_A(n: int) -> CoxeterSystem:
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    return path_system([3] * (n - 1))


def type_BC(n: int) -> CoxeterSystem:
    if n < 2:
        raise ValueError("B/C_n needs n >= 2")
    return path_system([3] * (n - 2) + [4])


def type_D(n: int) -> CoxeterSystem:
    if n < 4:
        raise ValueError("D_n needs n >= 4")
    # path 0..n-2 plus a second leaf n-1 on the fork vertex n-3
    edges: dict[tuple[int, int], Label] = {(i, i + 1): 3 for i in range(n - 2)}
    edges[(n - 3, n - 1)] = 3
    return CoxeterSystem.from_edges(n, edges)


def type_E(n: int) -> CoxeterSystem:
    if n not in (6, 7, 8):
        raise ValueError("E_n needs n in {6, 7, 8}")
    # path 0..n-2 plus the leaf n-1 on vertex 2 (arm lengths 2, n-4, 1)
    edges: dict[tuple[int, int], Label] = {(i, i + 1): 3 for i in range(n - 2)}
    edges[(2, n - 1)] = 3
    return CoxeterSystem.from_edges(n, edges)


def type_F4() -> CoxeterSystem:
    return path_system([3, 4, 3])


def type_G2() -> CoxeterSystem:
    return path_system([6])


def type_H(n: int) -> CoxeterSystem:
    if n not in (3, 4):
        raise ValueError("H_n needs n in {3, 4}")
    return path_system([5] + [3] * (n - 2))


def type_I2(m: Label) -> CoxeterSystem:
    if m != INFINITY and (not isinstance(m, int) or m < 3):
        raise ValueError("I2(m) needs m >= 3 or the infinite label")
    return path_system([m])


def affine_A(n: int) -> CoxeterSystem:
    """~A_n has rank n+1: the all-3 cycle, except ~A_1 which is one infinite bond."""
    if n < 1:
        raise ValueError("~A_n needs n >= 1")
    if n == 1:
        return path_system([INFINITY])
    return cycle_system([3] * (n + 1))


def affine_B(n: int) -> CoxeterSystem:
    """~B_n (rank n+1): fork of two leaves, then a path ending in a 4-bond."""
    if n < 3:
        raise ValueError("~B_n needs n >= 3")
    edges: dict[tuple[int, int], Label] = {(0, 2): 3, (1, 2): 3}
    for i in range(2, n - 1):
        edges[(i, i + 1)] = 3
    edges[(n - 1, n)] = 4
    return CoxeterSystem.from_edges(n + 1, edges)


def affine_C(n: int) -> CoxeterSystem:
    """~C_n (rank n+1): path with 4-bonds at both ends; ~C_2 is also called ~B_2."""
    if n < 2:
        raise ValueError("~C_n needs n >= 2")
    return path_system([4] + [3] * (n - 2) + [4])


def affine_D(n: int) -> CoxeterSystem:
    """~D_n (rank n+1): forks at both ends; ~D_4 degenerates to the 4-leaf star."""
    if n < 4:
        raise ValueError("~D_n needs n >= 4")
    edges: dict[tuple[int, int], Label] = {(0, 2): 3, (1, 2): 3}
    for i in range(2, n - 2):
        edges[(i, i + 1)] = 3
    edges[(n - 2, n - 1)] = 3
    edges[(n - 2, n)] = 3
    return CoxeterSystem.from_edges(n + 1, edges)


def affine_E(n: int) -> CoxeterSystem:
    if n not in (6, 7, 8):
        raise ValueError("~E_n needs n in {6, 7, 8}")
    base = type_E(n)
    edges = {(i, j): m for i, j, m in base.edges()}
    # the extending vertex lengthens a specific arm of the fork
    if n == 6:
        edges[(n - 1, n)] = 3  # short arm grows: arms become 2, 2, 2
    elif n == 7:
        edges[(0, n)] = 3  # arms become 3, 3, 1
    else:
        edges[(n - 2, n)] = 3  # arms become 2, 5, 1
    return CoxeterSystem.from_edges(n + 1, edges)


def affine_F4() -> CoxeterSystem:
    return path_system([3, 3, 4, 3])


def affine_G2() -> CoxeterSystem:
    return path_system([3, 6])


def overextended_E8() -> CoxeterSystem:
    """Rank-10 tree: ~E8 with one more vertex on the long arm (arms 2, 6, 1)."""
    base = affine_E(8)
    edges = {(i, j): m for i, j, m in base.edges()}
    edges[(8, 9)] = 3
    return CoxeterSystem.from_edges(10, edges)


_PLAIN = {
    "F4": type_F4,
    "G2": type_G2,
    "~F4": affine_F4,
    "~G2": affine_G2,
    "E10": overextended_E8,
}

_FAMILY = {
    "A": (type_A, 1),
    "B": (type_BC, 2),
    "C": (type_BC, 2),
    "D": (type_D, 4),
    "E": (type_E, 6),
    "H": (type_H, 3),
    "~A": (affine_A, 1),
    "~B": (affine_B, 3),
    "~C": (affine_C, 2),
    "~D": (affine_D, 4),
    "~E": (affine_E, 6),
}

_NAME_RE = re.compile(r"^(~?[A-Z])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+|inf)\)$")


def name_rank(name: str) -> int:
    """Rank of the diagram standard_system(name) builds, read off the name
    without building it: n for a family name such as A5, n + 1 for an affine
    one such as ~A5.

    Raises ValueError for a name outside the naming grammar; a subscript
    that its family does not take (E9) is refused by standard_system only.
    """
    name = name.strip()
    if name in _PLAIN:
        return _PLAIN[name]().rank
    if _I2_RE.match(name):
        return 2
    m = _NAME_RE.match(name)
    if m and m.group(1) in _FAMILY:
        return int(m.group(2)) + m.group(1).startswith("~")
    raise ValueError(f"unknown diagram name: {name!r}")


def standard_system(name: str) -> CoxeterSystem:
    """Construct a standard diagram from its name, e.g. A4, B3, ~C2, I2(7), E10.

    B and C build the same spherical diagram; ~B2 is accepted as an alias
    for ~C2 (same shape, both names in circulation).
    """
    name = name.strip()
    if name in _PLAIN:
        return _PLAIN[name]()
    m = _I2_RE.match(name)
    if m:
        return type_I2(INFINITY if m.group(1) == "inf" else int(m.group(1)))
    m = _NAME_RE.match(name)
    if m:
        family, sub = m.group(1), int(m.group(2))
        if family == "~B" and sub == 2:
            return affine_C(2)
        if family in _FAMILY:
            builder, floor = _FAMILY[family]
            if sub >= floor:
                try:
                    return builder(sub)
                except ValueError:
                    pass
    raise ValueError(f"unknown diagram name: {name!r}")
