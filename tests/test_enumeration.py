import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from coxtools import (
    INFINITY,
    CoxeterSystem,
    EnumFilter,
    RANK_CAP,
    canonical_code,
    classify_irreducible,
    components,
    enumerate_diagrams,
    enumerate_minimal_infinite,
    enumerate_quasi_minimal,
    is_connected,
    is_k_spherical,
    is_spherical,
    iter_levels,
    minimal_infinite_subsets,
    restrict,
    system_from_code,
    worker_map,
)
from coxtools.catalog import affine_A, overextended_E8, type_A
from coxtools import enumeration
from coxtools.classify import _adjacency, classify
from coxtools.enumeration import (
    _child,
    _deletion_code,
    _enc_label,
    _expand_parent,
    _level_search,
    _subset_table,
    _twins,
)
from conftest import coxeter_systems, permuted


# -- an independent counting oracle for simply-laced enumeration -------------
#
# Unlabeled simple graphs on n vertices by Burnside over S_n acting on vertex
# pairs, then connected counts by the inverse Euler transform.  With k labels
# on the pairs (label 2 for no edge), a permutation fixes k^cycles of the
# labellings, not 2^cycles.  Nothing here shares code with the
# canonical-augmentation engine.


def unlabeled_graph_counts(max_n: int, labels: int = 2) -> list[int]:
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        index = {p: k for k, p in enumerate(pairs)}
        total = 0
        for perm in permutations(range(n)):
            seen = [False] * len(pairs)
            cycles = 0
            for k, _ in enumerate(pairs):
                if seen[k]:
                    continue
                cycles += 1
                x = k
                while not seen[x]:
                    seen[x] = True
                    a, b = pairs[x]
                    na, nb = perm[a], perm[b]
                    x = index[(na, nb) if na < nb else (nb, na)]
            total += labels**cycles
        out.append(total // factorial(n))
    return out


def connected_from_all(a: list[int]) -> list[int]:
    n_max = len(a)
    a0 = [1] + a
    b = [0] * (n_max + 1)
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        b[n] = n * a0[n] - sum(b[k] * a0[n - k] for k in range(1, n))
        s = sum(d * c[d] for d in range(1, n) if n % d == 0)
        assert (b[n] - s) % n == 0
        c[n] = (b[n] - s) // n
    return c[1:]


def test_graph_count_oracle_is_self_consistent():
    a = unlabeled_graph_counts(7)
    assert a == [1, 2, 4, 11, 34, 156, 1044]
    assert connected_from_all(a) == [1, 1, 2, 6, 21, 112, 853]


def test_simply_laced_counts_match_graph_oracle():
    filt = EnumFilter(label_set=frozenset({2, 3}))
    want = connected_from_all(unlabeled_graph_counts(7))
    got = [len(enumerate_diagrams(n, filt)) for n in range(1, 8)]
    assert got == want


def test_disconnected_counts_match_graph_oracle():
    filt = EnumFilter(label_set=frozenset({2, 3}), connected_only=False)
    want = unlabeled_graph_counts(5)
    got = [len(enumerate_diagrams(n, filt)) for n in range(1, 6)]
    assert got == want


@pytest.mark.parametrize("labels, max_rank", [({2, 3, 4}, 5), ({2, 3, 4, 6}, 4)])
def test_disconnected_counts_match_labelled_burnside_oracle(labels, max_rank):
    # full of twins, and more than two labels: the twin rule at its widest
    filt = EnumFilter(label_set=frozenset(labels), connected_only=False)
    got = [len(level) for _, level in iter_levels(filt, max_rank)]
    assert got == unlabeled_graph_counts(max_rank, len(labels))


@pytest.mark.parametrize("connected", [True, False])
def test_two_spherical_filter_only_drops_the_inf_label(connected):
    # a pair is spherical exactly when its label is finite; this oracle runs
    # no subset scan
    with_inf = EnumFilter(
        label_set=frozenset({2, 3, 4, INFINITY}), connected_only=connected, k_spherical=2
    )
    plain = EnumFilter(label_set=frozenset({2, 3, 4}), connected_only=connected)
    got = [[canonical_code(s) for s in level] for _, level in iter_levels(with_inf, 5)]
    assert got == [[canonical_code(s) for s in level] for _, level in iter_levels(plain, 5)]


# -- brute-force completeness: every labeling appears exactly once -----------


def brute_force_classes(n: int, labels, connected_only: bool) -> set[bytes]:
    pairs = list(combinations(range(n), 2))
    codes = set()
    for assignment in product(sorted(labels, key=str), repeat=len(pairs)):
        mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for (i, j), m in zip(pairs, assignment):
            mat[i][j] = mat[j][i] = m
        s = CoxeterSystem.from_rows(mat)
        if connected_only and not is_connected(s):
            continue
        codes.add(canonical_code(s))
    return codes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_is_complete_and_irredundant_simply_laced(n):
    filt = EnumFilter(label_set=frozenset({2, 3}))
    out = enumerate_diagrams(n, filt)
    codes = [canonical_code(s) for s in out]
    assert len(set(codes)) == len(codes)
    assert set(codes) == brute_force_classes(n, {2, 3}, connected_only=True)


@pytest.mark.parametrize("n", [2, 3])
def test_enumeration_is_complete_with_four_labels(n):
    labels = {2, 3, 4, INFINITY}
    filt = EnumFilter(label_set=frozenset(labels))
    out = enumerate_diagrams(n, filt)
    assert {canonical_code(s) for s in out} == brute_force_classes(
        n, labels, connected_only=True
    )


def test_rank_zero_and_rank_cap():
    filt = EnumFilter(label_set=frozenset({2, 3}))
    out = enumerate_diagrams(0, filt)
    assert len(out) == 1 and out[0].rank == 0
    with pytest.raises(ValueError):
        enumerate_diagrams(RANK_CAP + 1, filt)


def test_jobs_do_not_change_output():
    filt = EnumFilter(label_set=frozenset({2, 3, 4}))
    assert [s.labels for s in enumerate_diagrams(4, filt, jobs=1)] == [
        s.labels for s in enumerate_diagrams(4, filt, jobs=3)
    ]
    assert enumerate_diagrams(0, filt, jobs=2) == enumerate_diagrams(0, filt)


def test_iter_levels_yields_every_rank_in_code_order():
    filt = EnumFilter(label_set=frozenset({2, 3, 4}))
    levels = list(iter_levels(filt, 4))
    assert [k for k, _ in levels] == [1, 2, 3, 4]
    for k, level in levels:
        assert level == enumerate_diagrams(k, filt)
        codes = [canonical_code(s) for s in level]
        assert codes == sorted(set(codes))
    assert list(iter_levels(filt, 0)) == []
    with worker_map(2) as imap:
        assert list(iter_levels(filt, 4, imap)) == levels


def test_iter_levels_extends_only_what_the_filter_keeps():
    class StopAtRankThree(EnumFilter):
        def extendable(self, system):
            return system.rank < 3

    filt = StopAtRankThree(label_set=frozenset({2, 3}))
    assert [len(level) for _, level in iter_levels(filt, 4)] == [1, 1, 2, 0]


def test_scope_input_is_checked():
    filt = EnumFilter(label_set=frozenset({2, 3}))
    for bad in (-1, RANK_CAP + 1):
        with pytest.raises(ValueError, match="rank"):
            next(iter_levels(filt, bad))
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            with worker_map(jobs):
                pass
        for rank in (0, 3):
            with pytest.raises(ValueError, match="jobs"):
                enumerate_diagrams(rank, filt, jobs=jobs)
    with worker_map(1) as imap:
        assert imap is map


# -- canonical codes ----------------------------------------------------------


@given(coxeter_systems(max_rank=6), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_canonical_code_is_permutation_invariant(s, rng):
    perm = list(range(s.rank))
    rng.shuffle(perm)
    assert canonical_code(permuted(s, perm)) == canonical_code(s)


@given(coxeter_systems(max_rank=6))
@settings(max_examples=60)
def test_canonical_code_round_trip(s):
    code = canonical_code(s)
    rebuilt = system_from_code(code)
    assert canonical_code(rebuilt) == code
    assert rebuilt.rank == s.rank
    assert sorted(m for _, _, m in rebuilt.edges()) == sorted(
        m for _, _, m in s.edges()
    )


def test_canonical_code_shape_and_errors():
    s = affine_A(2)
    code = canonical_code(s)
    assert code[0] == 3
    assert len(code) == 1 + 2 * 3  # rank byte, then three 2-byte labels
    big = CoxeterSystem.from_edges(2, {(0, 1): 70000})
    with pytest.raises(ValueError):
        canonical_code(big)
    twelve = CoxeterSystem.from_edges(12, {(i, i + 1): 3 for i in range(11)})
    with pytest.raises(ValueError):
        canonical_code(twelve)
    with pytest.raises(ValueError):
        system_from_code(bytes([3, 0, 3]))  # truncated body
    for bad in (b"", bytes([2, 0, 0]), bytes([2, 0, 1]), bytes([3, 0, 3, 0, 1, 0, 2])):
        with pytest.raises(ValueError, match="malformed code"):
            system_from_code(bad)  # empty, or a label below 2


def brute_force_code(s: CoxeterSystem) -> bytes:
    """The rank byte, then the least column-by-column encoding over every
    vertex order, each label as 2 big-endian bytes and inf as 0xFFFF."""
    n = s.rank

    def enc(m):
        return 0xFFFF if m == INFINITY else m

    least = min(
        [enc(s.labels[p[i]][p[k]]) for k in range(n) for i in range(k)]
        for p in permutations(range(n))
    )
    return bytes([n]) + b"".join(x.to_bytes(2, "big") for x in least)


@given(coxeter_systems(max_rank=6))
@settings(max_examples=80)
def test_canonical_code_is_the_least_encoding(s):
    assert canonical_code(s) == brute_force_code(s)


def _cycle_edges(vertices, m=3):
    k = len(vertices)
    return {(vertices[i], vertices[(i + 1) % k]): m for i in range(k)}


def code_corpus() -> list[CoxeterSystem]:
    """Symmetric diagrams, where the search meets the most ties, and seeded
    random ones of ranks 7 to 11, sparse and dense."""
    petersen = {(i, i + 5): 3 for i in range(5)}
    petersen.update(_cycle_edges(range(5)))
    petersen.update({(5 + i, 5 + (i + 2) % 5): 3 for i in range(5)})
    two_pentagons = _cycle_edges(range(5)) | _cycle_edges(range(5, 10))
    corpus = [
        affine_A(10),
        overextended_E8(),
        CoxeterSystem.from_edges(10, petersen),
        CoxeterSystem.from_edges(11, two_pentagons),  # C5 + C5 + K1
        CoxeterSystem.from_edges(11, {}),
        CoxeterSystem.from_edges(11, {p: 3 for p in combinations(range(11), 2)}),
        CoxeterSystem.from_edges(11, _cycle_edges(range(11), INFINITY)),
    ]
    rng = random.Random(10)
    for n in range(7, RANK_CAP + 1):
        for weights in ([8, 2, 1, 1, 1], [2, 2, 2, 1, 1]):
            for _ in range(12):
                edges = {
                    p: m
                    for p in combinations(range(n), 2)
                    if (m := rng.choices([2, 3, 4, 6, INFINITY], weights)[0]) != 2
                }
                corpus.append(CoxeterSystem.from_edges(n, edges))
    return corpus


CODE_CORPUS_SHA256 = "92c8788189e5c264e0d5b68919dc06a668b7f7c9267a0ae3a4e177dba676724e"


def test_canonical_codes_of_a_fixed_corpus_are_pinned():
    codes = b"".join(canonical_code(s) for s in code_corpus())
    assert hashlib.sha256(codes).hexdigest() == CODE_CORPUS_SHA256


def test_canonical_codes_sort_by_rank_first():
    c2 = canonical_code(type_A(2))
    c3 = canonical_code(type_A(3))
    assert c2 < c3


# -- canonical deletion ---------------------------------------------------------


def brute_force_orbits(s: CoxeterSystem) -> set[frozenset]:
    """The vertex orbits of the group of label-preserving vertex permutations."""
    n = s.rank
    autos = [
        p
        for p in permutations(range(n))
        if all(s.labels[p[i]][p[j]] == s.labels[i][j] for i in range(n) for j in range(i))
    ]
    return {frozenset(p[v] for p in autos) for v in range(n)}


def encode(s: CoxeterSystem) -> list[list[int]]:
    return [[0 if m == 1 else _enc_label(m) for m in row] for row in s.labels]


def deletion_code(s: CoxeterSystem, v: int, connected_only: bool):
    enc = encode(s)
    return _deletion_code(enc, _adjacency(s.labels), lambda: _twins(enc), v, connected_only)


def deletion_orbit(s: CoxeterSystem, connected_only: bool) -> list[int]:
    return [v for v in range(s.rank) if deletion_code(s, v, connected_only) is not None]


@given(coxeter_systems(max_rank=6, max_finite=5))
@settings(max_examples=120)
def test_level_search_orbits_are_the_automorphism_orbits(s):
    n = s.rank
    enc = encode(s)
    code, (orbit, by_position) = _level_search(enc, _twins(enc), orbits=True)
    assert code == canonical_code(s)
    found = {frozenset(u for u in range(n) if orbit[u] == orbit[v]) for v in range(n)}
    assert found == brute_force_orbits(s)
    assert all(orbit[v] == min(u for u in range(n) if orbit[u] == orbit[v]) for v in range(n))
    # every least vertex order has the orbit of position k at position k;
    # labels compare as the code encodes them, inf last
    encodings = {
        p: [s.labels[p[i]][p[k]] for k in range(n) for i in range(k)]
        for p in permutations(range(n))
    }
    least = min(encodings.values())
    for p, e in encodings.items():
        if e == least:
            assert [orbit[v] for v in p] == by_position


def dict_level_search(enc, twin_id, orbits=False):
    """The level search as it was before it kept ordered cells: every least
    vertex order is a dict from each unplaced vertex to the column it would
    add next, and every extension by a vertex adding the least column, once
    per twin class, is built, including those that are no longer least at
    the next position."""
    n = len(enc)
    code = [bytes([n])]
    trail = []
    orders = [dict.fromkeys(range(n), 0)]
    for k in range(n):
        least = min(map(min, map(dict.values, orders)))
        code.append(least.to_bytes(2 * k, "big"))
        extended = []
        steps = []
        for i, order in enumerate(orders):
            tried = set()
            for v, column in order.items():
                if column == least and twin_id[v] not in tried:
                    tried.add(twin_id[v])
                    steps.append((i, v))
                    extended.append(
                        {u: col << 16 | enc[v][u] for u, col in order.items() if u != v}
                    )
        trail.append(steps)
        orders = extended
    code_bytes = b"".join(code)
    if not orbits:
        return code_bytes, None
    columns = []
    alive = range(len(orders))
    for steps in reversed(trail):
        columns.append({steps[i][1] for i in alive})
        alive = {steps[i][0] for i in alive}
    orbit = twin_id
    for column in columns:
        merged = {orbit[u] for u in column}
        rep = min(merged)
        orbit = [rep if x in merged else x for x in orbit]
    return code_bytes, (orbit, [orbit[min(column)] for column in reversed(columns)])


@st.composite
def tied_systems(draw, max_rank=9):
    """Ranks 0..max_rank with labels drawn from one to three of
    {2, 3, 4, 5, 6, inf}, so that vertices often tie, as in the symmetric
    diagrams where the level search keeps many orders."""
    n = draw(st.integers(min_value=0, max_value=max_rank))
    pool = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, INFINITY]), min_size=1, max_size=3))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.sampled_from(pool))
    return CoxeterSystem.from_rows(mat)


def check_against_dict_search(s: CoxeterSystem) -> None:
    enc = encode(s)
    twin_id = _twins(enc)
    want = dict_level_search(enc, twin_id, orbits=True)
    assert _level_search(enc, twin_id, orbits=True) == want
    assert _level_search(enc, twin_id) == (want[0], None)


@given(tied_systems(), st.randoms(use_true_random=False))
@settings(max_examples=400)
def test_level_search_matches_the_dict_search(s, rng):
    perm = list(range(s.rank))
    rng.shuffle(perm)
    check_against_dict_search(s)
    check_against_dict_search(permuted(s, perm))


def test_level_search_matches_the_dict_search_on_the_code_corpus():
    for s in code_corpus():
        check_against_dict_search(s)


def _complete(n, m):
    return CoxeterSystem.from_edges(n, {p: m for p in combinations(range(n), 2)})


@pytest.mark.parametrize(
    "s",
    [
        CoxeterSystem.from_edges(8, {}),
        _complete(8, 3),
        _complete(8, INFINITY),
        CoxeterSystem.from_edges(8, {(i, j): 3 for i in range(3) for j in range(3, 8)}),
    ],
    ids=["edgeless", "complete-3", "complete-inf", "K3,5"],
)
def test_level_search_tries_one_vertex_per_twin_class(s):
    # every vertex here has a twin, and the least orders differ by twin swaps
    # only; extended by one vertex per twin class, the search holds a handful
    # of orders, where one per twin placement would be 8! = 40,320 on the
    # edgeless and complete diagrams and 2 * 3! * 5! = 1440 on K3,5
    enc = encode(s)
    tracemalloc.start()
    try:
        _level_search(enc, _twins(enc), orbits=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def check_deletion_orbit(s: CoxeterSystem, perm: list[int]) -> None:
    moved = permuted(s, perm)
    for connected_only in {False, is_connected(s)}:
        orbit = deletion_orbit(s, connected_only)
        assert frozenset(orbit) in brute_force_orbits(s)
        if connected_only and s.rank > 1:
            for v in orbit:
                assert is_connected(restrict(s, tuple(u for u in range(s.rank) if u != v)))
        assert {deletion_code(s, v, connected_only) for v in orbit} == {canonical_code(s)}
        assert deletion_orbit(moved, connected_only) == [
            i for i in range(s.rank) if perm[i] in orbit
        ]


@given(coxeter_systems(max_rank=6, max_finite=5), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_deletion_orbit_is_one_orbit_and_relabelling_invariant(s, rng):
    perm = list(range(s.rank))
    rng.shuffle(perm)
    check_deletion_orbit(s, perm)


def test_deletion_orbit_breaks_ties_across_orbits_invariantly():
    # graphs whose eligible vertices of largest invariant lie in two orbits,
    # so the least order decides; random diagrams of rank 6 rarely are such
    rng = random.Random(11)
    for rank, edges in (
        (6, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5)]),
        (6, [(0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4)]),
        (7, [(0, 6), (1, 6), (2, 5), (3, 4), (4, 5), (5, 6)]),
    ):
        s = CoxeterSystem.from_edges(rank, {e: 3 for e in edges})
        for _ in range(10):
            perm = list(range(rank))
            rng.shuffle(perm)
            check_deletion_orbit(s, perm)


# -- filters -------------------------------------------------------------------


def test_filter_requires_label_two():
    with pytest.raises(ValueError, match="must contain 2"):
        EnumFilter(label_set=frozenset({3, 4}))
    for bad in (True, 1, 3.0, "3", -INFINITY):
        with pytest.raises(ValueError, match="bad label"):
            EnumFilter(label_set=frozenset({2, bad}))
    with pytest.raises(ValueError):
        EnumFilter(label_set=frozenset({2, 3}), k_spherical=0)


def test_filter_rejects_a_label_it_cannot_encode():
    # the codes hold a label in 16 bits, so the filter fails before rank 2
    for big in (65535, 70000):
        with pytest.raises(ValueError, match=f"label {big} cannot be encoded"):
            EnumFilter(label_set=frozenset({2, 3, big}))
    assert 65534 in EnumFilter(label_set=frozenset({2, 65534})).label_set


@pytest.mark.parametrize("k", [True, False, 2.5, 3.0, "3", 0, -1])
def test_filter_rejects_a_bad_k_spherical(k):
    with pytest.raises(ValueError, match="k_spherical"):
        EnumFilter(label_set=frozenset({2, 3}), k_spherical=k)


def test_filter_masks():
    f = EnumFilter(
        label_set=frozenset({2, 3, 4, 5, 6, INFINITY}),
        simply_laced=True,
    )
    assert f.effective_labels() == (2, 3)
    g = EnumFilter(
        label_set=frozenset({2, 3, 5, INFINITY}),
        crystallographic=True,
    )
    assert g.effective_labels() == (2, 3, INFINITY)


def test_filter_admits():
    f = EnumFilter(label_set=frozenset({2, 3}))
    assert f.admits(type_A(3))
    assert not f.admits(CoxeterSystem.from_edges(2, {(0, 1): 4}))
    assert not f.admits(CoxeterSystem.from_edges(2, {}))  # disconnected
    g = EnumFilter(
        label_set=frozenset({2, 3, 4}),
        all_proper_parabolics_spherical_or_affine=True,
    )
    assert g.admits(overextended_E8())
    # a diagram containing an indefinite proper subdiagram is rejected
    path_inf = CoxeterSystem.from_edges(
        4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 4, (0, 2): 4}
    )
    assert classify_irreducible(restrict(path_inf, (0, 2, 3))).is_indefinite
    assert not g.admits(path_inf)


# -- the hereditary filters against restrict-based brute force -----------------
#
# Each oracle restricts to every facet and then to every component with the
# public, validating `restrict`, and classifies each piece on its own.


def facets(s):
    verts = range(s.rank)
    return [restrict(s, tuple(j for j in verts if j != v)) for v in verts]


def oracle_sph_or_aff(s):
    return all(
        not classify_irreducible(restrict(s, c)).is_indefinite for c in components(s)
    )


def oracle_all_proper_ok(s):
    return all(oracle_sph_or_aff(f) for f in facets(s))


def oracle_facets_spherical(s):
    return is_connected(s) and all(is_spherical(f) for f in facets(s))


def oracle_admits(filt, s):
    allowed = set(filt.effective_labels())
    return (
        all(m in allowed for _, _, m in s.edges())
        and (not filt.connected_only or is_connected(s))
        and (filt.k_spherical is None or is_k_spherical(s, filt.k_spherical))
        and (
            not filt.all_proper_parabolics_spherical_or_affine
            or oracle_all_proper_ok(s)
        )
    )


ALL_LABELS = frozenset({2, 3, 4, 5, 6, 7, INFINITY})


@st.composite
def sparse_systems(draw, max_rank=7):
    """Ranks 0..max_rank, labels up to 7 and inf, about half the pairs
    commuting, so disconnected diagrams and spherical facets are common."""
    n = draw(st.integers(min_value=0, max_value=max_rank))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.one_of(st.just(2), st.sampled_from([3, 3, 4, 5, 6, 7, INFINITY])))
            mat[i][j] = mat[j][i] = m
    return CoxeterSystem.from_rows(mat)


@given(
    sparse_systems(),
    st.sampled_from([ALL_LABELS, frozenset({2, 3, 4}), frozenset({2, 3})]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 1, 2, 3, 4]),
)
@settings(max_examples=600)
def test_enum_filter_matches_restrict_oracle(s, labels, connected, proper, k):
    filt = EnumFilter(
        label_set=labels,
        connected_only=connected,
        k_spherical=k,
        all_proper_parabolics_spherical_or_affine=proper,
    )
    assert filt.admits(s) == oracle_admits(filt, s)
    assert filt.extendable(s) == (not proper or oracle_sph_or_aff(s))


@given(sparse_systems())
@settings(max_examples=400)
def test_minimal_infinite_rule_matches_restrict_oracle(s):
    # the rule the minimal-infinite campaign applies to the quasi-minimal search
    assert (minimal_infinite_subsets(s) == [tuple(range(s.rank))]) == (
        oracle_facets_spherical(s) and not is_spherical(s)
    )


def test_filter_oracles_see_both_verdicts():
    # the diagrams the campaigns keep and extend must reach the oracles too
    e10 = overextended_E8()
    assert oracle_all_proper_ok(e10) and not oracle_sph_or_aff(e10)
    assert oracle_all_proper_ok(affine_A(4)) and oracle_sph_or_aff(affine_A(4))
    assert oracle_facets_spherical(affine_A(4)) and not is_spherical(affine_A(4))
    assert not oracle_facets_spherical(CoxeterSystem.from_edges(2, {}))
    filt = EnumFilter(label_set=ALL_LABELS, all_proper_parabolics_spherical_or_affine=True)
    for s in (e10, affine_A(4), type_A(5)):
        assert filt.admits(s) == oracle_admits(filt, s)
        assert filt.extendable(s) == oracle_sph_or_aff(s)
        assert (minimal_infinite_subsets(s) == [tuple(range(s.rank))]) == (
            oracle_facets_spherical(s) and not is_spherical(s)
        )


# -- child generation against the unpruned generator ----------------------------
#
# The oracle tries every label vector of the new vertex, runs the full
# `admits` on each child and keeps the canonical codes.  Its levels are built
# with itself, so the parents the test draws never pass through the
# generator under test.


@cache
def oracle_expand(parent, filt):
    rows = [list(row) for row in parent.labels]
    out = set()
    for vec in product(filt.effective_labels(), repeat=parent.rank):
        child = CoxeterSystem.from_rows(
            [row + [m] for row, m in zip(rows, vec)] + [list(vec) + [1]]
        )
        if filt.admits(child):
            out.add(canonical_code(child))
    return frozenset(out)


_PROPER = dict(all_proper_parabolics_spherical_or_affine=True)
_FIVE_INF = frozenset({2, 3, 5, INFINITY})

# (filter, largest parent rank): every filter kind, label sets with 5 and inf
EXPANSION_SCOPES = [
    (EnumFilter(label_set=_FIVE_INF), 4),
    (EnumFilter(label_set=ALL_LABELS), 3),
    (EnumFilter(label_set=frozenset({2, 3, 4, INFINITY}), connected_only=False), 3),
    (EnumFilter(label_set=ALL_LABELS, k_spherical=1), 3),
    (EnumFilter(label_set=_FIVE_INF, k_spherical=2), 4),
    (EnumFilter(label_set=ALL_LABELS, k_spherical=3), 4),
    (EnumFilter(label_set=frozenset({2, 3, 4, 6}), k_spherical=3), 5),
    (EnumFilter(label_set=_FIVE_INF, k_spherical=4), 4),
    (EnumFilter(label_set=frozenset({2, 3, 4}), **_PROPER), 6),
    (EnumFilter(label_set=_FIVE_INF, **_PROPER), 5),
    (EnumFilter(label_set=ALL_LABELS, **_PROPER), 4),
    (EnumFilter(label_set=frozenset({2, 3}), **_PROPER), 7),
    (EnumFilter(label_set=frozenset({2, 3, 4}), connected_only=False, **_PROPER), 4),
    (EnumFilter(label_set=frozenset({2, 3, 4, 6}), k_spherical=3, **_PROPER), 5),
]

_ORACLE_PARENTS: dict[int, list[CoxeterSystem]] = {}


def oracle_parents(scope: int) -> list[CoxeterSystem]:
    """The admitted, extendable classes of ranks 0..max, from oracle_expand."""
    if scope not in _ORACLE_PARENTS:
        filt, max_rank = EXPANSION_SCOPES[scope]
        parents = [CoxeterSystem.empty()]
        level = parents
        for _ in range(max_rank):
            codes = set()
            for p in level:
                codes.update(oracle_expand(p, filt))
            level = [s for s in map(system_from_code, sorted(codes)) if filt.extendable(s)]
            parents.extend(level)
        _ORACLE_PARENTS[scope] = parents
    return _ORACLE_PARENTS[scope]


@given(st.integers(min_value=0, max_value=len(EXPANSION_SCOPES) - 1), st.data())
@settings(max_examples=200)
def test_expand_parent_matches_unpruned_generator(scope, data):
    # canonical deletion keeps only some children of each parent
    filt = EXPANSION_SCOPES[scope][0]
    parent = data.draw(st.sampled_from(oracle_parents(scope)), label="parent")
    chunk = _expand_parent(parent, filt)
    assert chunk == sorted(set(chunk))
    assert set(chunk) <= oracle_expand(parent, filt)


def test_expand_parent_gives_each_class_to_one_parent():
    # per rank, the parents keep disjoint parts of what the oracle finds, and
    # together all of it; below the largest rank the oracle has expanded them
    for scope, (filt, max_rank) in enumerate(EXPANSION_SCOPES):
        for rank in range(max_rank):
            parents = [p for p in oracle_parents(scope) if p.rank == rank]
            kept = [c for p in parents for c in _expand_parent(p, filt)]
            found = set().union(*(oracle_expand(p, filt) for p in parents))
            assert len(kept) == len(set(kept)), (filt, rank)
            assert set(kept) == found, (filt, rank)


@pytest.mark.parametrize("connected_only", [True, False])
def test_facets_are_classified_only_from_child_rank_six(connected_only, monkeypatch):
    # below rank 6 every proper subset through the new vertex is a vertex, a
    # pair, a triple or a 4-subset the subset tables have already screened
    ranks = []
    real = enumeration._types_through_last

    def recording(labels, adj):
        ranks.append(len(labels))
        return real(labels, adj)

    monkeypatch.setattr(enumeration, "_types_through_last", recording)
    filt = EnumFilter(label_set=frozenset({2, 3, 4}), connected_only=connected_only, **_PROPER)
    list(iter_levels(filt, 6))
    assert ranks and min(ranks) == 6


def twin_swap_orbits(parent: CoxeterSystem, vecs) -> list[set]:
    """The orbits of vecs under the swaps of two vertices of parent that are
    automorphisms, by closing each vector under them."""
    n = parent.rank
    swaps = []
    for u, v in combinations(range(n), 2):
        p = list(range(n))
        p[u], p[v] = v, u
        if permuted(parent, p).labels == parent.labels:
            swaps.append((u, v))
    orbits, seen = [], set()
    for vec in vecs:
        if vec in seen:
            continue
        orbit, todo = {vec}, [vec]
        while todo:
            w = list(todo.pop())
            for u, v in swaps:
                w[u], w[v] = w[v], w[u]
                if tuple(w) not in orbit:
                    orbit.add(tuple(w))
                    todo.append(tuple(w))
                w[u], w[v] = w[v], w[u]
        seen |= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize(
    "parent",
    [
        CoxeterSystem.from_edges(4, {}),
        CoxeterSystem.from_edges(5, {(0, v): 3 for v in range(1, 5)}),
        CoxeterSystem.from_edges(5, {(a, b): 3 for a in range(2) for b in range(2, 5)}),
    ],
    ids=["edgeless", "star", "K23"],
)
def test_label_vectors_keep_one_per_twin_swap_orbit(parent):
    for filt, _ in EXPANSION_SCOPES:
        kept = enumeration._label_vectors(parent, filt, _twins(parent.labels))
        unpruned = enumeration._label_vectors(parent, filt, list(range(parent.rank)))
        assert len(kept) == len(set(kept)) and set(kept) <= set(unpruned), filt
        orbits = twin_swap_orbits(parent, unpruned)
        assert set().union(*orbits) == set(unpruned), filt
        assert all(len(orbit & set(kept)) == 1 for orbit in orbits), filt


@st.composite
def parents_and_vectors(draw):
    """A parent of rank 0..7 over {2, 3, 5, inf} with some rows copied, so it
    has twin classes, and a label vector of a new vertex v, sometimes copied
    from a parent row so that v is a twin of that vertex."""
    labels = st.sampled_from([2, 3, 5, INFINITY])
    n = draw(st.integers(min_value=0, max_value=7))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        mat[i][j] = mat[j][i] = draw(labels)
    for b in range(1, n):
        if draw(st.booleans()):
            a = draw(st.integers(min_value=0, max_value=b - 1))
            for w in range(n):
                if w not in (a, b):
                    mat[b][w] = mat[w][b] = mat[a][w]
    vec = [draw(labels) for _ in range(n)]
    if n and draw(st.booleans()):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        vec = [vec[w] if w == u else mat[u][w] for w in range(n)]
    return CoxeterSystem.from_rows(mat), vec


@given(parents_and_vectors())
@settings(max_examples=300)
def test_child_state_is_derived_from_the_parent(drawn):
    parent, vec = drawn
    child = CoxeterSystem.from_rows(
        [list(row) + [m] for row, m in zip(parent.labels, vec)] + [vec + [1]]
    )
    enc = encode(parent)
    col = [_enc_label(m) for m in vec]
    rows, masks, twins = _child(enc, _adjacency(parent.labels), _twins(enc), col)
    assert rows == encode(child)
    assert masks == _adjacency(child.labels)
    assert twins() == _twins(encode(child))


def _triples_reject(filt: EnumFilter, rank: int) -> bool:
    """Whether the size-3 _subset_table rejects any triple through v."""
    table = _subset_table(filt, rank, 3)
    return table is not None and any(table((m,)) for m in filt.effective_labels())


def test_triple_table_is_skipped_when_it_rejects_nothing():
    # a triangle with a 4 is indefinite; no {2,3} triple is
    assert _triples_reject(EnumFilter(label_set=frozenset({2, 3, 4}), **_PROPER), 4)
    assert not _triples_reject(EnumFilter(label_set=frozenset({2, 3}), **_PROPER), 4)
    # proper subdiagrams have no rule below rank 4, connectivity none at all
    assert not _triples_reject(EnumFilter(label_set=frozenset({2, 3, 4}), **_PROPER), 3)
    assert not _triples_reject(EnumFilter(label_set=ALL_LABELS), 4)
    assert _triples_reject(EnumFilter(label_set=frozenset({2, 3, 4}), k_spherical=3), 3)


# (filter flags, kinds of a triple through v, kinds of a 4-subset through v
# or None for no table) in a child of rank 5, where every 4-subset is proper
SUBSET_RULES = [
    (_PROPER, {"spherical", "affine"}, {"spherical", "affine"}),
    (dict(k_spherical=3), {"spherical"}, None),
    (dict(k_spherical=4), {"spherical"}, {"spherical"}),
]


def subset_system(parent: tuple, vec: tuple) -> CoxeterSystem:
    """The system on u_1 < ... < u_{s-1} < v with the labels parent among the
    u's, in pair order, and vec from them to v."""
    s = len(vec) + 1
    mat = [[1] * s for _ in range(s)]
    for (i, j), m in zip(combinations(range(s - 1), 2), parent):
        mat[i][j] = mat[j][i] = m
    for i, m in enumerate(vec):
        mat[i][s - 1] = mat[s - 1][i] = m
    return CoxeterSystem.from_rows(mat)


@pytest.mark.parametrize("rule", range(len(SUBSET_RULES)))
@pytest.mark.parametrize(
    "label_set, sampled",
    [({2, 3, 4}, None), (_FIVE_INF, None), ({2, 3, 4, 5, 6, INFINITY}, 12)],
    ids=["234", "235inf", "23456inf"],
)
def test_subset_tables_match_classify(label_set, sampled, rule):
    flags, *kinds_by_size = SUBSET_RULES[rule]
    filt = EnumFilter(label_set=frozenset(label_set), **flags)
    labels = filt.effective_labels()
    rng = random.Random(rule)
    for size, kinds in zip((3, 4), kinds_by_size):
        table = _subset_table(filt, 5, size)
        if kinds is None:
            assert table is None
            continue
        keys = list(product(labels, repeat=math.comb(size - 1, 2)))
        if sampled and sampled < len(keys):
            keys = rng.sample(keys, sampled)
        for parent in keys:
            masks = table(parent)
            for col in product(range(len(labels)), repeat=size - 1):
                sub = subset_system(parent, tuple(labels[x] for x in col))
                passes = all(t.kind in kinds for _, t in classify(sub))
                if masks is None:
                    assert passes, (size, parent, col)
                    continue
                entry = masks[col[0]] if size == 3 else masks[col[0]][col[1]]
                assert bool(entry >> col[-1] & 1) == passes, (size, parent, col)


def test_subset_tables_start_where_the_subset_is_proper():
    proper = EnumFilter(label_set=frozenset({2, 3, 4}), **_PROPER)
    assert _subset_table(proper, 4, 4) is None and _subset_table(proper, 5, 4)
    k4 = EnumFilter(label_set=frozenset({2, 3, 4}), k_spherical=4)
    assert _subset_table(k4, 3, 4) is None and _subset_table(k4, 4, 4)
    k3 = EnumFilter(label_set=frozenset({2, 3, 4}), k_spherical=3)
    assert _subset_table(k3, 11, 4) is None


@pytest.mark.parametrize(
    "scope",
    [
        i
        for i, (filt, max_rank) in enumerate(EXPANSION_SCOPES)
        if filt.all_proper_parabolics_spherical_or_affine and max_rank >= 4
    ],
)
def test_label_vectors_keep_every_admitted_vector(scope):
    # without twin pruning, the tables drop only vectors whose child fails
    filt = EXPANSION_SCOPES[scope][0]
    for parent in oracle_parents(scope):
        if not 4 <= parent.rank <= 6:
            continue
        kept = set(enumeration._label_vectors(parent, filt, list(range(parent.rank))))
        rows = [list(row) for row in parent.labels]
        for vec in product(filt.effective_labels(), repeat=parent.rank):
            child = CoxeterSystem.from_rows(
                [row + [m] for row, m in zip(rows, vec)] + [list(vec) + [1]]
            )
            assert vec in kept or not filt.admits(child), (parent, vec)


def test_expansion_scopes_reach_their_largest_parents():
    for scope, (filt, max_rank) in enumerate(EXPANSION_SCOPES):
        assert max(p.rank for p in oracle_parents(scope)) == max_rank, filt


# -- minimal infinite subsets ---------------------------------------------------


def test_minimal_infinite_subsets_examples():
    assert minimal_infinite_subsets(type_A(4)) == []
    assert minimal_infinite_subsets(affine_A(2)) == [(0, 1, 2)]
    assert minimal_infinite_subsets(overextended_E8()) == [tuple(range(9))]
    two = CoxeterSystem.from_edges(
        6, {(0, 1): 3, (1, 2): 3, (0, 2): 3, (3, 4): 3, (4, 5): 3, (3, 5): 3}
    )
    assert minimal_infinite_subsets(two) == [(0, 1, 2), (3, 4, 5)]


@given(coxeter_systems(max_rank=5))
@settings(max_examples=40)
def test_minimal_infinite_subsets_brute_force(s):
    found = []
    for size in range(1, s.rank + 1):
        for c in combinations(range(s.rank), size):
            sub = restrict(s, c)
            if is_spherical(sub):
                continue
            if all(
                is_spherical(restrict(s, c[:i] + c[i + 1 :])) for i in range(size)
            ):
                found.append(c)
    assert minimal_infinite_subsets(s) == found


# -- campaign-shaped enumerations ----------------------------------------------


def brute_force_minimal_infinite_count(n: int, labels) -> int:
    pairs = list(combinations(range(n), 2))
    codes = set()
    for assignment in product(sorted(labels, key=str), repeat=len(pairs)):
        mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for (i, j), m in zip(pairs, assignment):
            mat[i][j] = mat[j][i] = m
        s = CoxeterSystem.from_rows(mat)
        if not is_connected(s) or is_spherical(s):
            continue
        verts = range(n)
        if all(
            is_spherical(restrict(s, tuple(j for j in verts if j != v)))
            for v in verts
        ):
            codes.add(canonical_code(s))
    return len(codes)


def test_minimal_infinite_campaign_counts_match_brute_force():
    for labels in ({2, 3, 4, 6}, {2, 3, 5, INFINITY}):
        rep = enumerate_minimal_infinite(EnumFilter(label_set=frozenset(labels)), 4)
        for n in (3, 4):
            got = rep.results["per_rank"][str(n)]
            assert got["affine"] + got["non_affine"] == (
                brute_force_minimal_infinite_count(n, labels)
            )


def test_minimal_infinite_campaign_simply_laced_has_no_non_affine():
    filt = EnumFilter(label_set=frozenset({2, 3}))
    rep = enumerate_minimal_infinite(filt, 8)
    assert rep.results["non_affine_classes"] == []
    assert rep.passed()


def test_minimal_infinite_campaign_rejects_rank_above_cap():
    filt = EnumFilter(label_set=frozenset({2, 3}))
    with pytest.raises(ValueError):
        enumerate_minimal_infinite(filt, 9)


def test_quasi_minimal_requires_the_proper_parabolic_flag():
    filt = EnumFilter(label_set=frozenset({2, 3}))
    with pytest.raises(ValueError):
        enumerate_quasi_minimal(filt, 6)


def brute_force_quasi_minimal_count(n: int, labels) -> int:
    pairs = list(combinations(range(n), 2))
    codes = set()
    for assignment in product(sorted(labels, key=str), repeat=len(pairs)):
        mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for (i, j), m in zip(pairs, assignment):
            mat[i][j] = mat[j][i] = m
        s = CoxeterSystem.from_rows(mat)
        if not is_connected(s):
            continue
        if not classify_irreducible(s).is_indefinite:
            continue
        flt = EnumFilter(
            label_set=frozenset(labels),
            all_proper_parabolics_spherical_or_affine=True,
        )
        if flt.admits(s):
            codes.add(canonical_code(s))
    return len(codes)


def test_quasi_minimal_counts_match_brute_force_at_small_rank():
    filt = EnumFilter(
        label_set=frozenset({2, 3}),
        all_proper_parabolics_spherical_or_affine=True,
    )
    rep = enumerate_quasi_minimal(filt, 5)
    for n in (4, 5):
        assert rep.results["per_rank"][str(n)] == brute_force_quasi_minimal_count(
            n, {2, 3}
        )


def test_quasi_minimal_forces_connected_search():
    filt = EnumFilter(
        label_set=frozenset({2, 3}),
        connected_only=False,
        all_proper_parabolics_spherical_or_affine=True,
    )
    rep = enumerate_quasi_minimal(filt, 4)
    assert rep.parameters["filter"]["connected_only"] is True
