"""Generalized roots, cubical relations, and the noncrossing expansion."""
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat import linalg, roots
from grascat.combinat import (_bits, _crossing_labels, clear_caches, compatibility_degree,
                              enumerate_maximal_noncrossing, is_frozen, nonfrozen_subsets)
from grascat.polytope import triangulation_volume
from grascat.roots import (DecompositionError, _Fan, _fan, combo_vector, gamma_hat,
                           noncrossing_decompose, v_root)
from claims import (check_four_term, cube_antipode, f_combination, grid_add, is_noncrossing,
                    lattice_coords, noncrossing_degree, project_f, tripod_vector)
from unit_pivot import _reference_locate, start_rows


def test_gamma_hat_examples():
    assert gamma_hat((1, 3, 5), 3, 6) == {(1, 1): 1, (2, 2): 1}
    assert gamma_hat((1, 2, 3), 3, 6) == {}
    assert gamma_hat((1, 4, 5, 8), 4, 9) == {(1, 1): 1, (1, 2): 1, (3, 3): 1, (3, 4): 1}


def test_project_f():
    e11 = {(1, 1): F(1)}
    assert project_f(e11, 3, 6) == {(1, 1): 1, (1, 2): -1}
    row = {(1, j): F(1) for j in (1, 2, 3)}
    assert project_f(row, 3, 6) == {}
    v = v_root((1, 3, 5), 3, 6)
    assert sum(c for (i, j), c in v.items() if i == 1) == 0
    assert sum(c for (i, j), c in v.items() if i == 2) == 0


def test_v_root_zero_iff_cyclic_interval():
    assert v_root((1, 5, 6), 3, 6) == {}
    assert v_root((1, 2, 6), 3, 6) == {}
    assert v_root((1, 3, 5), 3, 6) != {}


def _assert_v_root_closed_form(k, n):
    for J in combinations(range(1, n + 1), k):
        v = v_root(J, k, n)
        assert list(v.items()) == list(project_f(gamma_hat(J, k, n), k, n).items()), J
        assert (v == {}) == is_frozen(J, n), J


@pytest.mark.parametrize("k,n", [(k, n) for n in range(4, 11) for k in range(2, n - 1)])
def test_v_root_is_the_f_image_of_gamma_hat(k, n):
    _assert_v_root_closed_form(k, n)


@pytest.mark.slow
def test_v_root_is_the_f_image_of_gamma_hat_slow():
    _assert_v_root_closed_form(6, 12)


def test_root_combination_displays():
    # two tropical ray images written out in the source text
    s = grid_add(gamma_hat((1, 2, 4), 3, 6), gamma_hat((3, 5, 6), 3, 6))
    assert s == {(1, 3): 1, (2, 1): 1}
    s = grid_add(gamma_hat((1, 4, 5), 3, 6), gamma_hat((2, 3, 6), 3, 6))
    assert s == {(1, 1): 1, (1, 2): 1, (2, 2): 1, (2, 3): 1}


def test_four_term_and_jacobi():
    assert check_four_term((), 1, 2, 3, 4, 2, 6)
    assert check_four_term((2,), 1, 3, 4, 6, 3, 6)
    # gamma_145 + gamma_236 = gamma_135 + gamma_246 (all four pairings agree)
    lhs = grid_add(gamma_hat((1, 4, 5), 3, 6), gamma_hat((2, 3, 6), 3, 6))
    rhs = grid_add(gamma_hat((1, 3, 5), 3, 6), gamma_hat((2, 4, 6), 3, 6))
    assert lhs == rhs


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (3, 8), (4, 8)])
def test_four_term_exhaustive(k, n):
    for big in combinations(range(1, n + 1), k + 2):
        for moving in combinations(big, 4):
            I = tuple(sorted(set(big) - set(moving)))
            a, b, c, d = moving
            assert check_four_term(I, a, b, c, d, k, n)


def test_six_twelve_identity():
    lhs = grid_add(v_root((1, 3, 5, 7, 9, 11), 6, 12), v_root((2, 4, 6, 8, 10, 12), 6, 12))
    rhs = grid_add(v_root((1, 4, 5, 8, 9, 12), 6, 12), v_root((2, 3, 6, 7, 10, 11), 6, 12))
    assert lhs == rhs


def test_cube_antipode():
    m1, m2 = cube_antipode([(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)])
    assert (m1, m2) == ((1, 4, 5, 8, 9, 12), (2, 3, 6, 7, 10, 11))
    assert is_noncrossing(m1, m2, 12)
    # interlaced extra labels
    m1, m2 = cube_antipode([(1, 2), (4, 8)], (6, 10))
    assert set(m1) & set(m2) == {6, 10}
    # the interlaced-label worked identity
    lhs = grid_add(gamma_hat((1, 3, 5, 6, 10), 5, 12), gamma_hat((2, 4, 6, 8, 10), 5, 12))
    rhs = grid_add(gamma_hat((1, 4, 5, 6, 10), 5, 12), gamma_hat((2, 3, 6, 8, 10), 5, 12))
    assert lhs == rhs
    assert is_noncrossing((1, 4, 5, 6, 10), (2, 3, 6, 8, 10), 12)


def test_decompose_basic():
    v = grid_add(v_root((1, 3, 4), 3, 6), v_root((2, 3, 5), 3, 6))
    assert noncrossing_decompose(v, 3, 6) == {(1, 3, 5): 1}


def test_decompose_310_ray():
    v = f_combination({(1, 3): 3, (1, 4): 3, (1, 5): 2, (1, 6): 1,
                       (2, 1): 2, (2, 4): 1, (2, 5): 2, (2, 6): 2, (2, 7): 2}, 3, 10)
    assert noncrossing_decompose(v, 3, 10) == {
        (1, 2, 4): 2, (3, 6, 10): 1, (3, 7, 8): 1, (3, 8, 9): 1, (4, 5, 10): 1}


def test_decompose_48_pole():
    cmap = {(1, 3, 5, 7): 1, (2, 3, 5, 7): -1, (1, 4, 5, 7): -1, (1, 3, 6, 7): -1,
            (1, 3, 5, 8): -1, (3, 4, 5, 7): 1, (1, 2, 3, 5): 1, (1, 3, 7, 8): 1,
            (1, 4, 5, 8): 1, (1, 5, 6, 7): 1, (2, 3, 6, 7): 1}
    v = combo_vector(cmap, 4, 8)
    assert noncrossing_decompose(v, 4, 8) == {
        (1, 2, 3, 5): 1, (1, 5, 6, 7): 1, (3, 4, 7, 8): 1}


def test_decompose_48_tripod_sums():
    a = combo_vector({(1, 3, 5, 7): -2, (1, 3, 5, 8): 1, (1, 3, 6, 7): 1,
                      (1, 4, 5, 7): 1, (2, 3, 5, 7): 1}, 4, 8)
    assert a == combo_vector({(1, 4, 5, 8): 1, (2, 3, 6, 7): 1}, 4, 8)
    b = combo_vector({(2, 4, 6, 8): -2, (1, 2, 4, 6): 1, (2, 4, 7, 8): 1,
                      (2, 5, 6, 8): 1, (3, 4, 6, 8): 1}, 4, 8)
    assert b == combo_vector({(1, 2, 4, 6): 1, (3, 5, 7, 8): 1}, 4, 8)


def test_decompose_48_degree_four_example():
    # the flattened weighted arrangement from the worked (4,8) example; its
    # unique positive expansion has support of size 4 (the printed support
    # {1258,1357,2346,2348,4678} is not pairwise noncrossing)
    cmap = {(1, 2, 4, 7): -1, (1, 2, 4, 8): 1, (1, 2, 5, 7): 1, (2, 3, 4, 7): 1,
            (1, 3, 4, 6): -1, (1, 3, 4, 8): 1, (1, 3, 5, 6): 1, (2, 3, 4, 6): 1,
            (3, 5, 6, 8): -1, (3, 5, 7, 8): 1, (4, 5, 6, 8): 1,
            (2, 5, 7, 8): -1, (2, 6, 7, 8): 1}
    v = combo_vector(cmap, 4, 8)
    claimed = combo_vector({(1, 2, 5, 8): 1, (1, 3, 5, 7): 1, (2, 3, 4, 6): 1,
                            (2, 3, 4, 8): 1, (4, 6, 7, 8): 1}, 4, 8)
    assert v == claimed  # the displayed gamma-sum does match the input ...
    expansion = noncrossing_decompose(v, 4, 8)
    # ... but its support crosses, and the true expansion has degree 4
    assert expansion == {(1, 2, 5, 7): 1, (1, 3, 5, 6): 1, (2, 3, 4, 8): 2,
                         (4, 6, 7, 8): 1}
    assert noncrossing_degree(cmap, 4, 8) == 4


def test_decompose_5_10():
    cmap = {(1, 3, 5, 7, 9): -3, (1, 3, 5, 7, 10): 1, (1, 3, 5, 8, 9): 1,
            (1, 3, 6, 7, 9): 1, (1, 4, 5, 7, 9): 1, (2, 3, 5, 7, 9): 1}
    v = combo_vector(cmap, 5, 10)
    assert noncrossing_decompose(v, 5, 10) == {(1, 4, 5, 8, 9): 1, (2, 3, 6, 7, 10): 1}


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8), (3, 10), (5, 10)])
def test_decompose_zero_vector(k, n):
    # the zero vector expands over the empty collection: given as {}, with
    # explicit zero entries, or as a combination of roots that cancels
    assert noncrossing_decompose({}, k, n) == {}
    assert noncrossing_decompose({(1, 1): F(0), (k - 1, n - k): 0}, k, n) == {}
    coeffs = {J: (-1) ** t * (t % 3 + 1) for t, J in enumerate(nonfrozen_subsets(k, n)[:6])}
    for J, c in noncrossing_decompose(combo_vector(coeffs, k, n), k, n).items():
        coeffs[J] = coeffs.get(J, 0) - c
    assert any(coeffs.values())
    zero = combo_vector(coeffs, k, n)
    assert zero == {}
    assert noncrossing_decompose(zero, k, n) == {}


def test_decompose_zero_vector_builds_no_fan():
    # a zero input expands over the empty collection before the fan is built
    clear_caches()
    assert noncrossing_decompose({}, 5, 10) == {}
    assert noncrossing_decompose({(1, 1): F(0)}, 5, 10) == {}
    assert _fan.cache_info().currsize == 0
    with pytest.raises(DecompositionError, match="row 1 sums to 1, not 0"):
        noncrossing_decompose({(1, 1): 1}, 5, 10)
    assert _fan.cache_info().currsize == 0


def test_tripods():
    tp = tripod_vector((1, 3, 5), (2, 4, 6), 7)
    assert tp == {(1, 3, 5): -1, (2, 3, 5): 1, (1, 4, 5): 1, (1, 3, 6): 1}
    assert noncrossing_decompose(combo_vector(tp, 3, 7), 3, 7) == {
        (1, 4, 5): 1, (2, 3, 6): 1}
    tp = tripod_vector((2, 4, 6), (3, 5, 1), 7)
    assert noncrossing_decompose(combo_vector(tp, 3, 7), 3, 7) == {
        (1, 2, 4): 1, (3, 5, 6): 1}
    with pytest.raises(ValueError):
        tripod_vector((1, 3, 5), (2, 6, 4), 7)


def test_joined_tripods_39():
    cmap = {(2, 5, 9): -1, (1, 2, 5): 1, (3, 5, 9): 1, (2, 6, 9): 1,
            (2, 6, 8): -1, (2, 7, 8): 1, (5, 6, 8): 1}
    assert noncrossing_decompose(combo_vector(cmap, 3, 9), 3, 9) == {
        (1, 2, 5): 1, (3, 7, 8): 1, (5, 6, 9): 1}
    assert noncrossing_degree(cmap, 3, 9) == 3


def test_degree_examples():
    assert noncrossing_degree({(1, 3, 5): 1}, 3, 6) == 1
    assert noncrossing_degree({(2, 4, 6): -1, (1, 2, 4): 1, (3, 4, 6): 1,
                               (2, 5, 6): 1}, 3, 6) == 2


def test_decompose_rejects_bad_rows():
    with pytest.raises(DecompositionError):
        noncrossing_decompose({(1, 1): F(1)}, 3, 6)


@pytest.mark.parametrize("v,bad", [({(1, 0): 1, (1, 1): -1}, "x_{1,0}"),
                                   ({(0, 1): 1, (0, 2): -1}, "x_{0,1}"),
                                   ({(1, 1): 1, (1, 9): -1}, "x_{1,9}"),
                                   ({(3, 1): 1, (3, 2): -1}, "x_{3,1}")])
def test_decompose_rejects_keys_outside_the_grid(v, bad):
    # row sums zero, but a key is off the 2 x 3 grid: no expansion is given
    with pytest.raises(IndexError, match=re.escape(bad + " outside the (3,6) grid")):
        noncrossing_decompose(v, 3, 6)


def test_lattice_coords_rejects_keys_outside_the_grid():
    with pytest.raises(IndexError, match=re.escape("x_{1,4} outside the (3,6) grid")):
        lattice_coords({(1, 4): 1}, 3, 6)


@pytest.mark.parametrize("k,n", [(2, 3), (1, 5), (0, 5), (-1, 5), (3, 4)])
def test_decompose_rejects_impossible_k_n(k, n):
    # the zero vector too: it has no expansion to give outside the range
    with pytest.raises(ValueError, match=r"need 2 <= k <= n-2"):
        noncrossing_decompose({}, k, n)


def _random_h_vector(rng, k, n, int_only):
    v = {}
    for i in range(1, k):
        row = [F(rng.randint(-8, 8)) if int_only
               else F(rng.randint(-40, 40), rng.randint(1, 7))
               for _ in range(n - k)]
        row[-1] -= sum(row)
        for j, c in enumerate(row, 1):
            if c:
                v[(i, j)] = c
    return v


@pytest.mark.parametrize("k,n,trials", [(2, 7, 150), (3, 6, 150), (3, 8, 100),
                                        (4, 8, 100), (4, 9, 60), (5, 10, 40)])
def test_decompose_roundtrip_random(k, n, trials):
    rng = random.Random(10 * k + n)
    for t in range(trials):
        v = _random_h_vector(rng, k, n, int_only=(t % 2 == 0))
        res = noncrossing_decompose(v, k, n)
        total = {}
        for J, c in res.items():
            assert c > 0
            total = grid_add(total, v_root(J, k, n), c)
        assert total == v
        supp = sorted(res)
        for A, B in combinations(supp, 2):
            assert is_noncrossing(A, B, n)
        if t % 2 == 0:
            assert all(type(c) is int for c in res.values())


_maximal_collections = lru_cache(maxsize=None)(enumerate_maximal_noncrossing)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8)])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_decompose_recovers_a_positive_cone_point(k, n, data):
    # any positive combination over a maximal collection is its own
    # (unique) noncrossing expansion
    collection = data.draw(st.sampled_from(_maximal_collections(k, n)))
    positive = st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12)
    coeffs = {J: data.draw(positive) for J in collection}
    assert noncrossing_decompose(combo_vector(coeffs, k, n), k, n) == coeffs


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8), (5, 10)])
def test_fan_rows_are_the_roots_in_the_start_basis(k, n):
    fan = _fan(k, n)
    d, rows = fan.dim, start_rows(fan)
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in rows)
    assert [rows[i] for i in fan.start] == [tuple(int(t == p) for t in range(d))
                                            for p in range(d)]
    basis = [lattice_coords(v_root(fan.verts[i], k, n), k, n) for i in fan.start]
    for J, row in zip(fan.verts, rows):
        assert ([sum(c * b[t] for c, b in zip(row, basis)) for t in range(d)]
                == lattice_coords(v_root(J, k, n), k, n))


def test_volume_reads_the_cached_fan():
    clear_caches()
    triangulation_volume(3, 7)
    assert _fan.cache_info().currsize == 1


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (4, 7)])
def test_lattice_basis_unimodular(k, n):
    for coll in enumerate_maximal_noncrossing(k, n):
        M = [lattice_coords(v_root(J, k, n), k, n) for J in coll]
        assert abs(linalg.det(M)) == 1


# the fan walk's exchange relations, learned once per crossed pair

def _seeded_inputs(k, n, seed, count, rational=False):
    rng = random.Random(seed)
    nf = nonfrozen_subsets(k, n)
    out = []
    for _ in range(count):
        coeffs = {J: (F(rng.randint(-9, 9), rng.randint(1, 4)) if rational
                      else rng.choice((-3, -2, -1, 1, 2, 3))) for J in rng.sample(nf, 3)}
        out.append(combo_vector(coeffs, k, n))
    return out


def _typed(expansion):
    return [(J, type(c), c) for J, c in expansion.items()]


def _assert_certified(fan, r, X, S):
    """S is the certified exchange of the crossing pair (r, X):
    v_r + v_X = sum over S of v_s on the fan's rows, and each s in S is
    adjacent to every other common neighbour of r and X."""
    assert not fan.adj[r] >> X & 1 and r not in S and X not in S
    common = fan.adj[r] & fan.adj[X]
    assert all(common & ~fan.adj[s] & ~(1 << s) == 0 for s in S)
    rows = start_rows(fan)
    assert ([a + b for a, b in zip(rows[r], rows[X])]
            == [sum(rows[s][t] for s in S) for t in range(fan.dim)])


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8), (3, 9), (5, 10)])
def test_exchange_relations_are_vector_identities(k, n):
    # each stored relation, v_r + v_X = sum over S of v_s, checked on the
    # roots themselves rather than in the walk's basis, and certified
    clear_caches()
    for v in _seeded_inputs(k, n, 10 * k + n, 40):
        noncrossing_decompose(v, k, n)
    fan = _fan(k, n)
    assert fan.relations

    def coords(i):
        return lattice_coords(v_root(fan.verts[i], k, n), k, n)

    for (r, X), S in fan.relations.items():
        assert fan.relations[X, r] is S
        assert type(S) is tuple and all(type(s) is int for s in S)
        _assert_certified(fan, r, X, S)
        # S holds the nonfrozen tail swaps: |S| <= 2 (S is empty when
        # v_X = -v_r)
        assert len(S) <= 2
        lhs = [a + b for a, b in zip(coords(r), coords(X))]
        assert lhs == [sum(coords(s)[t] for s in S) for t in range(fan.dim)]


class _CountingDict(dict):
    """A dict that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = {}

    def __setitem__(self, key, value):
        self.writes[key] = self.writes.get(key, 0) + 1
        super().__setitem__(key, value)


def test_each_exchange_is_solved_at_most_once():
    shapes = [(2, 6), (3, 7), (4, 8), (3, 9), (5, 10)]
    clear_caches()
    fans = {(k, n): _fan(k, n) for k, n in shapes}
    for fan in fans.values():
        fan.relations = _CountingDict()
    try:
        for _ in range(2):
            for (k, n), fan in fans.items():
                for rational in (False, True):
                    for v in _seeded_inputs(k, n, 5 * k + n, 25, rational):
                        noncrossing_decompose(v, k, n)
        for fan in fans.values():
            # one certificate writes both orders of its pair, and no pair
            # is certified twice
            assert fan.relations and set(fan.relations.writes) == set(fan.relations)
            assert set(fan.relations.writes.values()) == {1}
    finally:
        clear_caches()


@pytest.mark.parametrize("how", ["adjacency", "degree"])
def test_uncertified_exchange_raises_naming_both_subsets(monkeypatch, how):
    k, n = 4, 8
    v = _seeded_inputs(k, n, 1, 1)[0]
    clear_caches()
    noncrossing_decompose(v, k, n)
    # the walk's first flip: its pair, and a member s of its S
    (r, X), S = next((key, S) for key, S in _fan(k, n).relations.items() if S)
    clear_caches()
    fan = _fan(k, n)
    try:
        if how == "adjacency":
            # join r and X to a vertex u crossing s: u enters L, but the
            # wall holds s, so u is no completion of it and the walk is as
            # before up to this flip
            u = next(u for u in range(len(fan.verts))
                     if u not in (r, X, S[0]) and not fan.adj[S[0]] >> u & 1)
            adj = list(fan.adj)
            adj[r] |= 1 << u
            adj[X] |= 1 << u
            adj[u] |= 1 << r | 1 << X
            monkeypatch.setattr(fan, "adj", adj)
            run, args = noncrossing_decompose, (v, k, n)
        else:
            # a bare pair that crosses twice, in a graph where it is the one
            # missing edge, so that every tail swap passes the L part
            r, X = next((r, X) for r, X in combinations(range(len(fan.verts)), 2)
                        if compatibility_degree(fan.verts[r], fan.verts[X], n) == 2)
            adj = [((1 << len(fan.verts)) - 1) & ~(1 << i) for i in range(len(fan.verts))]
            adj[r] &= ~(1 << X)
            adj[X] &= ~(1 << r)
            monkeypatch.setattr(fan, "adj", adj)
            run, args = fan.exchange, (r, X)
        with pytest.raises(AssertionError, match="fails its certificate") as info:
            run(*args)
        assert str(fan.verts[r]) in str(info.value) and str(fan.verts[X]) in str(info.value)
        assert (r, X) not in fan.relations
    finally:
        clear_caches()


@pytest.mark.parametrize("how,message", [
    ("short", "greedy collection is not maximal-pure"),
    ("doubled", "start cone is not unimodular")])
def test_broken_start_cone_raises(monkeypatch, how, message):
    clear_caches()
    try:
        if how == "short":
            # the greedy collection without its last member: the order cut
            # just before the vertex that completes it
            first = roots._first_collection

            def short(adj, chosen=0, order=None):
                last = max(map(order.index, _bits(first(adj, chosen, order))))
                return first(adj, chosen, order[:last])
            monkeypatch.setattr(roots, "_first_collection", short)
        else:
            # every gamma doubled: the start cone has |det| 2^d
            gamma = roots.gamma_functional
            monkeypatch.setattr(roots, "gamma_functional",
                                lambda J, k, n: [2 * x for x in gamma(J, k, n)])
        with pytest.raises(AssertionError, match=f"^{message}$"):
            _fan(3, 7)
    finally:
        clear_caches()


def _lexicographic_start_fan(monkeypatch, k, n):
    """A fan that starts its walks at the lexicographically first
    collection, the greedy one in index order."""
    first = roots._first_collection
    with monkeypatch.context() as m:
        m.setattr(roots, "_first_collection", lambda adj, chosen=0, order=None: first(adj))
        return _Fan(k, n)


def _count_flips(monkeypatch, fan):
    """A one-element list that counts the fan's flips: `exchange` runs once
    per flip of `locate`."""
    flips = [0]
    exchange = fan.exchange

    def counted(r, X):
        flips[0] += 1
        return exchange(r, X)
    monkeypatch.setattr(fan, "exchange", counted)
    return flips


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8), (3, 9), (5, 10)])
def test_walks_from_both_starts_agree_and_the_short_start_flips_less(monkeypatch, k, n):
    nf = nonfrozen_subsets(k, n)
    J1, J2, J3 = nf[1], nf[len(nf) // 2], nf[-2]
    targets = (_seeded_inputs(k, n, 7, 40) + _seeded_inputs(k, n, 8, 40, rational=True)
               + [v_root(J, k, n) for J in (J1, J2, J3)]
               + [combo_vector({J1: 2, J2: 0, J3: F(-1, 3)}, k, n)])
    fans = [_Fan(k, n), _lexicographic_start_fan(monkeypatch, k, n)]
    assert fans[0].start != fans[1].start
    flips = [_count_flips(monkeypatch, fan) for fan in fans]
    for v in targets:
        x = lattice_coords(v, k, n)
        new, old = (fan.locate(x) for fan in fans)
        assert _typed(new) == _typed(old)
    assert flips[0][0] < flips[1][0]
    assert [fans[0].locate(lattice_coords(v_root(J, k, n), k, n)) for J in (J1, J2, J3)] == [
        {J: 1} for J in (J1, J2, J3)]


def _record(monkeypatch, obj, name):
    """A list that records the arguments of each call of obj.name."""
    calls = []
    method = getattr(obj, name)

    def recorded(*args):
        calls.append(args)
        return method(*args)
    monkeypatch.setattr(obj, name, recorded)
    return calls


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8), (3, 9), (5, 10)])
def test_walk_matches_the_dense_row_reference(monkeypatch, k, n):
    targets = [lattice_coords(v, k, n) for v in _seeded_inputs(k, n, 11, 40)
               + _seeded_inputs(k, n, 12, 40, rational=True)]
    fan = _Fan(k, n)
    for x in targets:
        assert _typed(fan.locate(x)) == _typed(_reference_locate(fan, x))
    # all-ones weights start where the reference does, at sum_i v_{start_i}:
    # exit times tie there often, the eps columns decide, and the walk must
    # make the reference's flips
    monkeypatch.setattr(fan, "weights", [1] * fan.dim)
    flips = _record(monkeypatch, fan, "exchange")
    ties = _record(monkeypatch, fan, "_eps_exits_first")
    for x in targets:
        new = fan.locate(x)
        walked, flips[:] = flips[:], []
        assert _typed(new) == _typed(_reference_locate(fan, x))
        assert walked == flips
        flips.clear()
    assert ties


def _assert_start_is_a_unimodular_maximal_collection(k, n):
    fan = _Fan(k, n)
    start = [fan.verts[i] for i in fan.start]
    assert len(start) == fan.dim
    assert all(is_noncrossing(I, J, n) for I, J in combinations(start, 2))
    assert abs(linalg.det([lattice_coords(v_root(J, k, n), k, n) for J in start])) == 1


@pytest.mark.parametrize("k,n", [(k, n) for n in range(4, 12) for k in range(2, n - 1)])
def test_start_cone_is_a_unimodular_maximal_collection(k, n):
    _assert_start_is_a_unimodular_maximal_collection(k, n)


@pytest.mark.slow
@pytest.mark.parametrize("k", range(2, 11))
def test_start_cone_is_a_unimodular_maximal_collection_slow(k):
    _assert_start_is_a_unimodular_maximal_collection(k, 12)


def test_wall_with_two_completions_raises(monkeypatch):
    k, n = 4, 8
    v = _seeded_inputs(k, n, 1, 1)[0]
    clear_caches()
    noncrossing_decompose(v, k, n)
    # the walk's first flip: it leaves the start cone across the wall start - r
    r, X = next(iter(_fan(k, n).relations))
    clear_caches()
    fan = _fan(k, n)
    try:
        # join a vertex u outside the start cone to every member of that
        # wall: u and X both complete it
        wall = [w for w in fan.start if w != r]
        u = next(u for u in range(len(fan.verts)) if u not in fan.start and u != X)
        adj = list(fan.adj)
        for w in wall:
            adj[w] |= 1 << u
            adj[u] |= 1 << w
        monkeypatch.setattr(fan, "adj", adj)
        with pytest.raises(AssertionError, match="has 2 other completions$") as info:
            noncrossing_decompose(v, k, n)
        assert all(str(fan.verts[w]) in str(info.value) for w in wall)
    finally:
        clear_caches()


def test_decompose_with_warm_and_cleared_relations_agree():
    inputs = [(v, k, n) for k, n in [(2, 6), (3, 7), (4, 8), (3, 9), (5, 10)]
              for rational in (False, True)
              for v in _seeded_inputs(k, n, 7 * k + n, 15, rational)]
    clear_caches()
    warm = [_typed(noncrossing_decompose(v, k, n)) for v, k, n in inputs]
    learned = {(k, n): dict(_fan(k, n).relations) for _v, k, n in inputs}
    # a second pass crosses only pairs already learned: it reads every
    # relation and stores none anew
    assert [_typed(noncrossing_decompose(v, k, n)) for v, k, n in inputs] == warm
    assert all(_fan(k, n).relations[key] is rel
               for (k, n), rels in learned.items() for key, rel in rels.items())
    cold = []
    for v, k, n in inputs:
        clear_caches()
        assert not _fan(k, n).relations
        cold.append(_typed(noncrossing_decompose(v, k, n)))
    assert cold == warm


# the exchangeable pairs of the noncrossing fan: every crossing pair (r, X)
# whose common neighbours L hold a (d-1)-clique W, so that W + r and W + X
# are adjacent maximal cones

def _greedy_clique(adj, mask):
    """The clique greedy builds from the vertices of mask in index order."""
    chosen = 0
    for i in _bits(mask):
        if not chosen & ~adj[i]:
            chosen |= 1 << i
    return chosen


def _has_clique(adj, mask, size):
    """Whether the vertices of mask hold a clique of the given size."""
    if size == 0:
        return True
    for i in _bits(mask):
        mask &= ~(1 << i)
        if mask.bit_count() + 1 < size:
            return False
        if _has_clique(adj, mask & adj[i], size - 1):
            return True
    return False


def _crossing(I, J):
    """The one crossing (a, b) of a pair of compatibility degree 1, in
    `compatibility_degree`'s sense."""
    (ab,) = [(a, b) for a in range(len(I) - 1) for b in range(a + 1, len(I))
             if all(I[l] == J[l] for l in range(a + 1, b))
             and (I[a] < J[a] < I[b] < J[b] or J[a] < I[a] < J[b] < I[b])]
    return ab


def _tail_swaps(fan, r, X):
    """The vertex indices of the nonfrozen tail swaps at the second position
    b of the one crossing of the pair, found by `_crossing`."""
    I, J = fan.verts[r], fan.verts[X]
    _a, b = _crossing(I, J)
    return tuple(sorted(fan.index[T] for T in (I[:b] + J[b:], J[:b] + I[b:]) if T in fan.index))


def _solve_in_cone(fan, cone, X):
    """The oracle: the coordinates {vertex: c} of v_X in the basis of the
    cone, by an exact solve on the fan's rows; zeros dropped."""
    rows = start_rows(fan)
    A = [[rows[i][t] for i in cone] for t in range(fan.dim)]
    c = linalg.solve_columns(A, [[x] for x in rows[X]])
    return {i: row[0] for i, row in zip(cone, c) if row[0]}


def _sweep_exchangeable_pairs(k, n, full):
    """Check every crossing pair (r, X) with a greedy wall W in L: it has
    compatibility degree 1, and its tail swaps S lie in W and are
    certified.  As W + r is a basis, S is then the exchange of the pair.
    With `full`, also check that `fan.exchange(r, X)` is S and the solve of
    v_X in the cone W + r is -v_r + sum over S of v_s, that no other
    crossing pair has a (d-1)-clique in L, and that `fan.walls()` lists
    the pairs with a greedy wall.  Returns their number."""
    fan = _Fan(k, n)
    d, walls = fan.dim, []
    for r, X in combinations(range(len(fan.verts)), 2):
        if fan.adj[r] >> X & 1:
            continue
        common = fan.adj[r] & fan.adj[X]
        wall = list(_bits(_greedy_clique(fan.adj, common)))
        if len(wall) < d - 1:
            assert not full or not _has_clique(fan.adj, common, d - 1)
            continue
        walls.append((r, X))
        assert compatibility_degree(fan.verts[r], fan.verts[X], n) == 1
        S = _tail_swaps(fan, r, X)
        assert set(S) <= set(wall)
        _assert_certified(fan, r, X, S)
        if full:
            assert fan.exchange(r, X) == S and fan.relations[X, r] is fan.relations[r, X]
            assert _solve_in_cone(fan, wall + [r], X) == {r: -1, **dict.fromkeys(S, 1)}
    assert not full or fan.walls() == tuple(walls)
    return len(walls)


@pytest.mark.parametrize("k,n,pairs", [(2, 8, 70), (3, 7, 133), (4, 8, 658), (3, 9, 966)])
def test_exchangeable_pairs_are_certified_four_term_relations(k, n, pairs):
    assert _sweep_exchangeable_pairs(k, n, full=True) == pairs


@pytest.mark.slow
@pytest.mark.parametrize("k,n,pairs", [(5, 10, 10548), (4, 10, 7140), (3, 12, 7656)])
def test_exchangeable_pairs_are_certified_four_term_relations_slow(k, n, pairs):
    assert _sweep_exchangeable_pairs(k, n, full=False) == pairs


# the lemma behind `_Fan.exchange`: at the crossing (a, b) of a pair of
# degree 1, gamma_I + gamma_J = gamma_T1 + gamma_T2 for the tail swaps
# T1 = I[:b] + J[b:] and T2 = J[:b] + I[b:]

@pytest.mark.parametrize("k,n,pairs", [(2, 8, 70), (3, 7, 133), (4, 8, 658), (3, 9, 966)])
def test_tail_swaps_at_a_crossing_telescope(k, n, pairs):
    count = 0
    for I, J in combinations(nonfrozen_subsets(k, n), 2):
        if compatibility_degree(I, J, n) != 1:
            continue
        count += 1
        _a, b = _crossing(I, J)
        assert _crossing_labels(I, J) == 1 << I[b]
        T1, T2 = I[:b] + J[b:], J[:b] + I[b:]
        assert (grid_add(gamma_hat(I, k, n), gamma_hat(J, k, n))
                == grid_add(gamma_hat(T1, k, n), gamma_hat(T2, k, n)))
    assert count == pairs


def _degree_one_pairs_sum_to_their_tail_swaps(k, n):
    """Check v_r + v_X = sum over the tail swaps S of v_s on the fan's rows
    for every pair of degree 1; returns the number of pairs."""
    fan = _fan(k, n)
    rows, count = start_rows(fan), 0
    for r, X in combinations(range(len(fan.verts)), 2):
        if compatibility_degree(fan.verts[r], fan.verts[X], n) == 1:
            count += 1
            S = _tail_swaps(fan, r, X)
            assert ([a + b for a, b in zip(rows[r], rows[X])]
                    == [sum(rows[s][t] for s in S) for t in range(fan.dim)])
    return count


def _learned_relations_match_the_solve(k, n, inputs):
    """Walk each input, rebuilding the walk's cone W + r at each flip from
    the start cone and the exchanges so far, and check each relation the
    walk reads against the oracle solve of v_X in that cone.  Returns the
    number of flips."""
    fan = _fan(k, n)
    exchange, flips, cone = fan.exchange, [], set()

    def recording(r, X):
        flips.append((sorted(cone), r, X))
        cone.symmetric_difference_update((r, X))
        return exchange(r, X)

    fan.exchange = recording
    try:
        for v in inputs:
            cone.clear()
            cone.update(fan.start)
            noncrossing_decompose(v, k, n)
    finally:
        del fan.exchange
    for W_r, r, X in flips:
        assert r in W_r and X not in W_r
        assert _solve_in_cone(fan, W_r, X) == {r: -1, **dict.fromkeys(fan.relations[r, X], 1)}
    return len(flips)


@pytest.mark.slow
@pytest.mark.parametrize("k,n,pairs", [(6, 12, 156651), (4, 11, 18480)])
def test_tail_swap_relations_at_large_shapes(k, n, pairs):
    clear_caches()
    try:
        assert _degree_one_pairs_sum_to_their_tail_swaps(k, n) == pairs
        inputs = [v for rational in (False, True) for v in _seeded_inputs(k, n, k + n, 10, rational)]
        assert _learned_relations_match_the_solve(k, n, inputs) > 0
    finally:
        clear_caches()
