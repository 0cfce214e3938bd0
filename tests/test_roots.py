"""Generalized roots, cubical relations, and the noncrossing expansion."""
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat.combinat import (clear_caches, enumerate_maximal_noncrossing, is_noncrossing,
                              nonfrozen_subsets)
from grascat.polytope import triangulation_volume
from grascat.roots import (DecompositionError, _fan, check_four_term, combo_vector,
                           cube_antipode, f_combination, gamma_hat, grid_add, lattice_coords,
                           noncrossing_decompose, noncrossing_degree,
                           project_f, tripod_vector, v_root)


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
    d = fan.dim
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in fan.rows)
    assert [fan.rows[i] for i in fan.start] == [tuple(int(t == p) for t in range(d))
                                                for p in range(d)]
    basis = [lattice_coords(v_root(fan.verts[i], k, n), k, n) for i in fan.start]
    for J, row in zip(fan.verts, fan.rows):
        assert ([sum(c * b[t] for c, b in zip(row, basis)) for t in range(d)]
                == lattice_coords(v_root(J, k, n), k, n))


def test_volume_reads_the_cached_fan():
    clear_caches()
    triangulation_volume(3, 7)
    assert _fan.cache_info().currsize == 1


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (4, 7)])
def test_lattice_basis_unimodular(k, n):
    import grascat.linalg as linalg
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


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8), (3, 9), (5, 10)])
def test_exchange_relations_are_vector_identities(k, n):
    # each stored relation, v_r + v_X = sum c_s v_s, checked on the roots
    # themselves rather than in the walk's basis
    clear_caches()
    for v in _seeded_inputs(k, n, 10 * k + n, 40):
        noncrossing_decompose(v, k, n)
    fan = _fan(k, n)
    assert fan.relations

    def coords(i):
        return lattice_coords(v_root(fan.verts[i], k, n), k, n)

    for (r, X), rel in fan.relations.items():
        assert fan.relations[X, r] == rel
        assert r not in dict(rel) and X not in dict(rel)
        # as observed at every shape walked so far: |S| <= 2 (S is empty
        # when v_X = -v_r), coefficients 1
        assert len(rel) <= 2 and all(c == 1 for _s, c in rel)
        lhs = [a + b for a, b in zip(coords(r), coords(X))]
        assert lhs == [sum(c * coords(s)[t] for s, c in rel) for t in range(fan.dim)]


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


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8), (5, 10)])
def test_planted_relation_outside_the_wall_is_solved_again(k, n):
    vs = _seeded_inputs(k, n, 3, 10)
    clear_caches()
    want = [_typed(noncrossing_decompose(v, k, n)) for v in vs]
    fan = _fan(k, n)
    true = dict(fan.relations)
    # wrong entries naming the leaving root, or a root that crosses it and
    # so lies in no wall next to it
    for how in ("leaving", "crossing"):
        for r, X in true:
            u = r if how == "leaving" else next(
                u for u in range(len(fan.verts)) if u != r and not fan.adj[r] >> u & 1)
            fan.relations[r, X] = ((u, 1),) + true[r, X]
        assert [_typed(noncrossing_decompose(v, k, n)) for v in vs] == want
        assert fan.relations == true
