"""Subset combinatorics: frozen/weak separation/crossing predicates,
compatibility degree, and the noncrossing complex."""
import random
import re
from fractions import Fraction as F
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat import combinat, linalg
from grascat.combinat import (ResourceLimitExceeded, _bits, _degeneracy_order,
                              _first_collection, _fold_maximal_noncrossing,
                              _noncrossing_graph,
                              _search_dag, catalan_mdim, check_kn, check_subset,
                              compatibility_degree,
                              enumerate_maximal_noncrossing, is_crossing,
                              is_frozen, is_noncrossing, is_weakly_separated,
                              k3_exponent_rule, nonfrozen_subsets)
from grascat.kinematics import kin_basis, nc_amplitude
from grascat.polytope import triangulation_volume


def test_frozen():
    assert is_frozen((1, 2, 3), 6)
    assert is_frozen((1, 5, 6), 6)
    assert not is_frozen((1, 3, 5), 6)
    assert is_frozen((1, 2, 7, 8), 8)


def test_weak_separation():
    assert is_weakly_separated((1, 2), (3, 4), 4)
    assert not is_weakly_separated((1, 3), (2, 4), 4)
    assert not is_weakly_separated((1, 4, 5), (2, 3, 6), 6)


def test_weak_separation_cyclic_invariance():
    rng = random.Random(0)
    n = 8
    for _ in range(200):
        I = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        J = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        w = is_weakly_separated(I, J, n)
        for r in range(1, n):
            Ir = tuple(sorted((x + r - 1) % n + 1 for x in I))
            Jr = tuple(sorted((x + r - 1) % n + 1 for x in J))
            assert is_weakly_separated(Ir, Jr, n) == w


def test_compatibility_degree_values():
    assert compatibility_degree((1, 3, 5), (2, 4, 6), 6) == 2
    assert compatibility_degree((2, 4, 6, 8), (1, 3, 5, 7), 8) == 3
    assert compatibility_degree((1, 2, 4), (3, 5, 6), 6) == 0
    assert compatibility_degree((2, 4, 6, 8), (1, 2, 4, 7), 8) == 1
    # the exponent-2 correction factors of the (4,8) worked identity
    for I in ((1, 2, 4, 7), (1, 2, 5, 7), (1, 3, 4, 7), (1, 3, 5, 7)):
        assert compatibility_degree(I, (2, 3, 6, 8), 8) == 2


def _reference_weakly_separated(A, B, n):
    """Weak separation by definition: the nonzero entries of e_A - e_B,
    read around the circle, change sign at most twice."""
    signs = [(a in A) - (a in B) for a in range(1, n + 1)]
    signs = [s for s in signs if s]
    return sum(s != t for s, t in zip(signs, signs[1:] + signs[:1])) <= 2


def _reference_degree(I, J, n):
    """Position pairs a < b with agreeing interior whose endpoint pairs are
    not weakly separated."""
    k = len(I)
    return sum(1 for a in range(k) for b in range(a + 1, k)
               if I[a + 1:b] == J[a + 1:b]
               and not _reference_weakly_separated({I[a], I[b]}, {J[a], J[b]}, n))


@pytest.mark.parametrize("n", range(2, 10))
def test_compatibility_degree_matches_definition(n):
    for k in range(1, n):
        subsets = list(combinations(range(1, n + 1), k))
        for I, J in combinations(subsets, 2):
            assert compatibility_degree(I, J, n) == _reference_degree(I, J, n), (I, J)


@st.composite
def _subset_pairs(draw):
    n = draw(st.integers(2, 14))
    k = draw(st.integers(1, n - 1))
    labels = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    return tuple(sorted(draw(labels))), tuple(sorted(draw(labels))), n


@settings(derandomize=True, max_examples=300)
@given(_subset_pairs())
def test_compatibility_symmetry(pair):
    I, J, n = pair
    assert compatibility_degree(I, J, n) == compatibility_degree(J, I, n)


@settings(derandomize=True, max_examples=300)
@given(_subset_pairs())
def test_compatibility_degree_reflection_invariant(pair):
    I, J, n = pair

    def reflect(S):
        return tuple(sorted(n + 1 - s for s in S))
    assert compatibility_degree(reflect(I), reflect(J), n) == compatibility_degree(I, J, n)


def test_noncrossing_examples():
    assert is_noncrossing((1, 4, 5), (2, 3, 6), 6)
    assert not is_noncrossing((1, 3, 5), (2, 4, 6), 6)
    assert is_noncrossing((6, 7, 8, 15), (1, 6, 9, 10), 16)
    assert is_noncrossing((6, 7, 8, 15), (1, 3, 5, 6), 16)
    assert is_crossing((6, 7, 8, 15), (1, 3, 8, 9), 16)


def test_nonfrozen_counts():
    assert len(nonfrozen_subsets(3, 6)) == 14
    assert len(nonfrozen_subsets(2, 5)) == 5
    assert len(nonfrozen_subsets(4, 8)) == 62


def test_catalan():
    assert catalan_mdim(2, 2) == 2
    assert catalan_mdim(3, 3) == 42
    assert catalan_mdim(4, 4) == 24024
    assert [catalan_mdim(2, m) for m in range(2, 7)] == [2, 5, 14, 42, 132]


def test_k3_exponent_rule():
    assert k3_exponent_rule((1, 3, 5), (2, 4, 6)) == 2
    assert k3_exponent_rule((1, 2, 4), (3, 5, 6)) == 0
    assert k3_exponent_rule((1, 3, 4), (2, 3, 5)) == 1


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_k3_exponent_rule_is_compat_degree(n):
    nf = nonfrozen_subsets(3, n)
    for I, J in combinations(nf, 2):
        assert compatibility_degree(I, J, n) == k3_exponent_rule(I, J)


@pytest.mark.parametrize("k,n,count,size", [
    (2, 5, 5, 2), (2, 6, 14, 3), (3, 6, 42, 4), (2, 7, 42, 4), (3, 7, 462, 6),
])
def test_maximal_collections(k, n, count, size):
    cols = enumerate_maximal_noncrossing(k, n)
    assert len(cols) == count
    assert all(len(c) == size for c in cols)
    assert len(set(cols)) == count


@pytest.mark.parametrize("n", [6, 7, 8])
def test_noncrossing_not_ws_count(n):
    nf = nonfrozen_subsets(3, n)
    cnt = sum(1 for I, J in combinations(nf, 2)
              if is_noncrossing(I, J, n) and not is_weakly_separated(I, J, n))
    assert cnt == 2 * comb(n, 6)


def test_compat_support_count_5_14():
    J = (2, 4, 6, 8, 12)
    cnt = sum(1 for I in combinations(range(1, 15), 5)
              if I != J and compatibility_degree(I, J, 14) > 0)
    assert cnt == 1293


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8)])
def test_first_collection_is_the_sorted_first_through_each_subset(k, n):
    verts, adj = _noncrossing_graph(k, n)
    cols = enumerate_maximal_noncrossing(k, n)
    assert tuple(verts[i] for i in _bits(_first_collection(adj))) == cols[0]
    for v, J in enumerate(verts):
        first = tuple(verts[i] for i in _bits(_first_collection(adj, 1 << v)))
        assert first == next(c for c in cols if J in c), J


def _reference_fold(k, n, start, step, leaf):
    """The pivoting Bron-Kerbosch search as it was before its subtrees were
    merged: one recursive call per node of the search tree, each choosing
    its pivot from scratch, threading step(acc, v) down every branch and
    handing each maximal clique's value to leaf.  Returns the leaf count."""
    adj = _noncrossing_graph(k, n)[1]
    m = len(adj)
    leaves = 0

    def expand(acc, P, X):
        nonlocal leaves
        if not P and not X:
            leaves += 1
            leaf(acc)
            return
        best, pivot = -1, -1
        q = P | X
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            c = (P & adj[u]).bit_count()
            if c > best:
                best, pivot = c, u
        cand = P & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            expand(step(acc, v), P & adj[v], X & adj[v])
            P &= ~bit
            X |= bit

    done = 0
    for v in _degeneracy_order(m, adj):
        expand(step(start, v), (1 << m) - 1 & adj[v] & ~done, done & adj[v])
        done |= 1 << v
    return leaves


DAG_SHAPES = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (3, 8), (3, 9),
              (4, 7), (4, 8)]


def _add(R, v):
    return R | 1 << v


@pytest.mark.parametrize("k,n", DAG_SHAPES)
def test_search_dag_unfolds_to_the_search_tree(k, n):
    """The top-down walk of the DAG meets the reference tree's leaves in
    the same order, and the DAG's stored count is their number."""
    expected = []
    count = _reference_fold(k, n, 0, _add, expected.append)
    assert count == catalan_mdim(k, n - k)
    leaves = []
    assert _fold_maximal_noncrossing(k, n, count, 0, _add, leaves.append) == count
    assert leaves == expected
    assert _search_dag(k, n, count).count == count


@pytest.mark.parametrize("k,n", DAG_SHAPES)
def test_search_dag_amplitude_total(k, n):
    """The bottom-up DAG fold gives the reference tree's integer total of
    D / prod a_J, for all-distinct rational values and for values drawn
    from three repeated ones."""
    rng = random.Random(10 * k + n)
    verts = nonfrozen_subsets(k, n)
    tables = [[F(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 30))
               for _ in verts],
              [rng.choice((F(2, 3), F(-5), F(7, 2))) for _ in verts]]
    d = (k - 1) * (n - k - 1)
    for vals in tables:
        a, L = linalg._integral(vals)
        D = prod(a)
        expected = 0

        def add(Q):
            nonlocal expected
            expected += Q

        _reference_fold(k, n, D, lambda Q, v: Q // a[v], add)
        assert _search_dag(k, n, 10 ** 6).fold_up(D, lambda T, v: T // a[v]) == expected
        values = dict(zip(verts, vals))
        assert nc_amplitude(k, n, values) == F(expected * L ** d, D)


def test_capped_search_dag_build_caches_nothing():
    combinat.clear_caches()
    with pytest.raises(ResourceLimitExceeded,
                       match=re.escape("more than 461 maximal collections for (3, 7)")):
        _search_dag(3, 7, 461)
    assert (3, 7) not in combinat._SEARCH_DAGS
    dag = _search_dag(3, 7, 462)
    assert combinat._SEARCH_DAGS[3, 7] is dag and dag.count == 462
    # a cached DAG checks its stored count against the cap first
    with pytest.raises(ResourceLimitExceeded,
                       match=re.escape("more than 100 maximal collections for (3, 7)")):
        enumerate_maximal_noncrossing(3, 7, 100)


def test_search_dag_is_built_once_per_shape(monkeypatch):
    combinat.clear_caches()
    builds = []
    build = combinat._build_search_dag
    monkeypatch.setattr(combinat, "_build_search_dag",
                        lambda *args: builds.append(args) or build(*args))
    verts = nonfrozen_subsets(3, 7)
    nc_amplitude(3, 7, {J: F(i + 1) for i, J in enumerate(verts)})
    nc_amplitude(3, 7, {J: F(1, i + 2) for i, J in enumerate(verts)})
    assert len(enumerate_maximal_noncrossing(3, 7)) == 462
    assert builds == [(3, 7, 200000)]


def test_one_default_cap():
    import inspect

    from grascat import cli, polytope
    defaults = [inspect.signature(f).parameters["max_collections"].default
                for f in (enumerate_maximal_noncrossing, polytope.triangulation_volume,
                          nc_amplitude)]
    args = cli.build_parser().parse_args(["volume", "--k", "3", "--n", "6"])
    assert defaults + [args.max_cliques] == [combinat.MAX_COLLECTIONS] * 4


# ---------------------------------------------------------------------------
# the per-shape cache layer and its ints-only arguments

@pytest.mark.parametrize("J", [(1.0, 3, 5), (True, 3, 5), (1, 3, F(5)), ("1", 3, 5)])
def test_check_subset_takes_ints_only(J):
    with pytest.raises(ValueError, match="subset entries must be ints"):
        check_subset(J, 3, 6)


@pytest.mark.parametrize("k,n", [(3.0, 6), (3, 6.0), (True, 6), (3, F(6))])
def test_check_kn_takes_ints_only(k, n):
    with pytest.raises(ValueError, match="k and n must be ints"):
        check_kn(k, n)


@pytest.mark.parametrize("build", [triangulation_volume, kin_basis],
                         ids=lambda f: f.__name__)
def test_non_int_shape_raises_cold_and_warm(build):
    # typed keys: 3.0 misses the entry of 3, and the miss rejects it
    combinat.clear_caches()
    with pytest.raises(ValueError, match="is not an int or a tuple of ints"):
        build(3.0, 6)
    build(3, 6)
    for k, n in [(3.0, 6), (3, 6.0), (True, 6)]:
        with pytest.raises(ValueError, match="is not an int or a tuple of ints"):
            build(k, n)


def test_clear_caches_empties_every_shape_cache():
    from grascat import cli, kinematics, polynomial, roots
    caches = [combinat._noncrossing_graph, roots._fan, kinematics.eta_functional,
              kinematics.kin_basis, polynomial.bcfw_matrix, polynomial._ladder,
              polynomial._tau_ratio, polynomial._identity, cli._parser]
    # the registry holds the clears of these caches and of the search DAGs
    assert len(combinat._CLEARS) == len(caches) + 1
    assert set(combinat._CLEARS) == ({c.cache_clear for c in caches}
                                     | {combinat._SEARCH_DAGS.clear})
    triangulation_volume(3, 6)  # the graph, the fan and the search DAG
    kinematics.eta_functional((1, 3, 5), 3, 6)
    kinematics.kin_basis(3, 6)
    polynomial.plucker((2, 4, 6), 3, 6)  # and the matrix
    polynomial.binary_identity_check((1, 3, 5), 3, 6)  # ladders, taus, identity
    cli._parser()
    sizes = {c.__name__: c.cache_info().currsize for c in caches}
    assert all(sizes.values()) and combinat._SEARCH_DAGS, sizes
    combinat.clear_caches()
    sizes = {c.__name__: c.cache_info().currsize for c in caches}
    assert not any(sizes.values()) and not combinat._SEARCH_DAGS, sizes
