"""Gromov hyperbolicity of Coxeter groups via the flat-subgroup criterion.

A Coxeter group is word-hyperbolic iff it contains no Z x Z, and a Z x Z can
only arise from an irreducible affine special subgroup of rank >= 3 or from
two commuting infinite special subgroups.  Witnesses are reported explicitly
and re-validate against the classifier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    CoxeterSystem,
    _check_subset,
    is_connected,
    is_crystallographic,
    is_simply_laced,
    restrict,
)
from .classify import (
    _closure,
    classify_irreducible,
    has_affine_parabolic,
    is_k_spherical,
    is_spherical,
    minimal_infinite_subsets,
)


@dataclass(frozen=True)
class AffineSubset:
    """A generating subset spanning an irreducible affine subgroup of rank >= 3."""

    subset: tuple[int, ...]


@dataclass(frozen=True)
class CommutingInfinitePair:
    """Two disjoint infinite generating subsets with all cross labels 2."""

    left: tuple[int, ...]
    right: tuple[int, ...]


ZxZWitness = Union[AffineSubset, CommutingInfinitePair]


@dataclass(frozen=True)
class HyperbolicityVerdict:
    hyperbolic: bool
    witness: Optional[ZxZWitness] = None


def is_hyperbolic(system: CoxeterSystem) -> HyperbolicityVerdict:
    """Decide hyperbolicity; a negative verdict carries an explicit Z x Z witness.

    Any infinite subset contains a minimal infinite one, so commuting pairs
    are searched over minimal infinite subsets only.  The first witness in
    (total size, lex) order is returned, pairs before affine subsets, so the
    output is schedule-independent.  minimal is in (size, lex) order, so for
    each I the first J that commutes with it gives I's least key.
    """
    closure = _closure(system).walk()
    adj = closure.adj
    minimal = closure.minimal
    best: Optional[tuple] = None
    for a, (I, mask_i, _) in enumerate(minimal):
        # a later pair has a total above 2|I|, or 2|I| with a first set from I on
        if best is not None and (2 * len(I), I) > best[:2]:
            break
        # J is disjoint from I and commutes with it when it meets neither I
        # nor a diagram neighbour of I
        around_i = 0
        for v in I:
            around_i |= adj[v]
        for J, mask_j, _ in minimal[a + 1 :]:
            if best is not None and len(I) + len(J) > best[0]:
                break
            if not (mask_i | around_i) & mask_j:
                key = (len(I) + len(J),) + tuple(sorted((I, J)))
                if best is None or key < best:
                    best = key
                break
    if best is not None:
        return HyperbolicityVerdict(False, CommutingInfinitePair(best[1], best[2]))
    aff = has_affine_parabolic(system)
    if aff is not None:
        return HyperbolicityVerdict(False, AffineSubset(aff))
    return HyperbolicityVerdict(True)


def validate_witness(system: CoxeterSystem, witness: ZxZWitness) -> bool:
    """Re-check a witness against the classifier, from scratch.

    A vertex index outside the system raises ValueError.
    """
    if isinstance(witness, AffineSubset):
        sub = restrict(system, witness.subset)
        return sub.rank >= 3 and is_connected(sub) and classify_irreducible(sub).is_affine
    if isinstance(witness, CommutingInfinitePair):
        I, J = _check_subset(system, witness.left), _check_subset(system, witness.right)
        if not I or not J or set(I) & set(J):
            return False
        if any(system.labels[s][t] != 2 for s in I for t in J):
            return False
        return not any(is_spherical(restrict(system, K)) for K in (I, J))
    return False


@dataclass(frozen=True)
class AffineCriterionCheck:
    """Outcome of the affine-parabolic criterion on one system.

    The criterion: for crystallographic systems that are simply laced or
    3-spherical, hyperbolicity is equivalent to the absence of affine special
    subgroups.  consistent is vacuously true when the hypotheses fail.
    """

    hypotheses_ok: bool
    hyperbolic: bool
    affine_parabolic: Optional[tuple[int, ...]]
    consistent: bool


def check_affine_criterion(system: CoxeterSystem) -> AffineCriterionCheck:
    hypotheses_ok = is_crystallographic(system) and (
        is_simply_laced(system) or is_k_spherical(system, 3)
    )
    hyperbolic = is_hyperbolic(system).hyperbolic
    aff = has_affine_parabolic(system)
    consistent = (not hypotheses_ok) or (hyperbolic == (aff is None))
    return AffineCriterionCheck(hypotheses_ok, hyperbolic, aff, consistent)


@dataclass(frozen=True)
class AffineSearchResult:
    """Affine subset produced from a commuting pair.

    fallback_used means the subset was found by exhaustive search rather than
    by the path-based case analysis; that is legal output but worth eyeballing,
    so it is surfaced as data instead of being silently absorbed.
    """

    subset: tuple[int, ...]
    fallback_used: bool


def _check_minimal_infinite(system: CoxeterSystem, J: tuple[int, ...], tag: str) -> None:
    # J is minimal infinite iff it is its own only minimal infinite subset; an
    # empty J has none
    found = minimal_infinite_subsets(restrict(system, J))
    if not found:
        raise ValueError(f"{tag} must generate an infinite subgroup")
    if found != [tuple(range(len(J)))]:
        raise ValueError(f"{tag} must be minimal infinite")


def _shortest_bridge(
    system: CoxeterSystem, I: tuple[int, ...], J: tuple[int, ...]
) -> tuple[int, ...]:
    """Vertices of a shortest diagram path from I to J, endpoints included.

    Multi-source BFS with index-ordered expansion, so the chosen path is
    deterministic.
    """
    n = system.rank
    adj = [
        sorted(j for j in range(n) if j != i and system.labels[i][j] != 2)
        for i in range(n)
    ]
    target = set(J)
    parent: dict[int, int] = {v: -1 for v in I}
    queue = deque(sorted(I))
    while queue:
        v = queue.popleft()
        if v in target:
            path = [v]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    raise ValueError("no path between the subsets; the diagram is disconnected")


def affine_from_commuting(
    system: CoxeterSystem, I, J
) -> AffineSearchResult:
    """Locate an affine subset given two commuting minimal infinite subsets.

    Follows the constructive argument: if neither input is already affine,
    take a shortest path P joining them and scan P union I union J for an
    affine subdiagram of cycle type (~A) or bounded-path type (~C, including
    the rank-3 double-4 shape).  The exhaustive fallbacks never fire on the
    hypothesis class as far as the case analysis is trusted; when they do
    fire the flag says so.
    """
    I = _check_subset(system, I)
    J = _check_subset(system, J)
    if not is_connected(system):
        raise ValueError("system must be connected")
    if not is_crystallographic(system):
        raise ValueError("system must be crystallographic")
    if not (is_simply_laced(system) or is_k_spherical(system, 3)):
        raise ValueError("system must be simply laced or 3-spherical")
    if set(I) & set(J):
        raise ValueError("subsets must be disjoint")
    if any(system.labels[s][t] != 2 for s in I for t in J):
        raise ValueError("subsets must commute (all cross labels 2)")
    _check_minimal_infinite(system, I, "first subset")
    _check_minimal_infinite(system, J, "second subset")

    for K in (I, J):
        if classify_irreducible(restrict(system, K)).is_affine:
            return AffineSearchResult(K, False)

    P = _shortest_bridge(system, I, J)
    U = sorted(set(I) | set(J) | set(P))
    # restrict(system, U) meets the hypotheses and holds the commuting pair,
    # so by the criterion it has an affine subset unless the classifier errs
    found = [
        (tuple(U[i] for i in K), t.name)
        for K, t in _closure(restrict(system, U)).affine(3)
    ]
    for K, name in found:
        if name.startswith(("~A", "~C")):
            return AffineSearchResult(K, False)
    if found:
        return AffineSearchResult(found[0][0], True)
    raise RuntimeError(
        "no affine subset exists although the preconditions hold; "
        "this contradicts the criterion and indicates a classifier bug"
    )
