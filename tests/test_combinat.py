"""Subset combinatorics: frozen/weak separation/crossing predicates,
compatibility degree, and the noncrossing complex."""
import random
import re
import weakref
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat import cli, combinat, kinematics, linalg, polynomial
from grascat.combinat import (MAX_COLLECTIONS, ResourceLimitExceeded, _bits, _face_numbers,
                              _first_collection, _has_clique, _noncrossing_graph, _search_dag,
                              catalan_mdim, check_kn, check_subset, compatibility_degree,
                              enumerate_maximal_noncrossing, is_frozen, nonfrozen_subsets)
from grascat.kinematics import kin_basis, nc_amplitude
from grascat.polytope import triangulation_volume
import claims
from claims import is_crossing, is_noncrossing, is_weakly_separated, k3_exponent_rule
from unit_pivot import _reference_fold, _reference_graph


def test_frozen():
    assert is_frozen((1, 2, 3), 6)
    assert is_frozen((1, 5, 6), 6)
    assert not is_frozen((1, 3, 5), 6)
    assert is_frozen((1, 2, 7, 8), 8)
    assert is_frozen((1, 2, 3), 3)


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


# the noncrossing graph, row by row from bitmasks, against one crossing
# test per pair

GRAPH_SHAPES = [(k, n) for n in range(4, 11) for k in range(2, n - 1)] + [(3, 12), (4, 11)]


@pytest.mark.parametrize("k,n", GRAPH_SHAPES)
def test_noncrossing_graph_matches_the_pair_tests(k, n):
    verts, adj = _noncrossing_graph(k, n)
    assert (verts, adj) == _reference_graph(k, n)
    assert type(adj) is list and all(type(row) is int for row in adj)


@pytest.mark.slow
def test_noncrossing_graph_matches_the_pair_tests_slow():
    assert _noncrossing_graph(6, 12) == _reference_graph(6, 12)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8)])
def test_first_collection_in_an_order_is_the_first_listed_in_it(k, n):
    verts, adj = _noncrossing_graph(k, n)
    index = {J: i for i, J in enumerate(verts)}
    order = random.Random(f"{k},{n}").sample(range(len(verts)), len(verts))
    rank = {v: t for t, v in enumerate(order)}
    first = min(sorted(rank[index[J]] for J in c) for c in enumerate_maximal_noncrossing(k, n))
    assert sorted(map(rank.get, _bits(_first_collection(adj, order=order)))) == first


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8)])
def test_first_collection_is_the_sorted_first_through_each_subset(k, n):
    verts, adj = _noncrossing_graph(k, n)
    cols = enumerate_maximal_noncrossing(k, n)
    assert tuple(verts[i] for i in _bits(_first_collection(adj))) == cols[0]
    for v, J in enumerate(verts):
        first = tuple(verts[i] for i in _bits(_first_collection(adj, 1 << v)))
        assert first == next(c for c in cols if J in c), J


@st.composite
def clique_queries(draw):
    """A graph on at most 9 vertices as adjacency bitmasks, a candidate
    bitmask and a clique size."""
    m = draw(st.integers(1, 9))
    adj = [0] * m
    for a, b in draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))):
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj, draw(st.integers(0, (1 << m) - 1)), draw(st.integers(0, m + 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(clique_queries())
def test_has_clique_matches_brute_force(query):
    adj, cand, size = query
    brute = any(all(adj[a] >> b & 1 for a, b in combinations(S, 2))
                for S in combinations(_bits(cand), size))
    assert _has_clique(adj, cand, size) == brute


# face numbers of the noncrossing complex from standard Young tableaux

def _plain_clique_counts(adj):
    """counts[s]: the cliques of s vertices of the graph with adjacency
    bitmasks adj, the empty one included, by plain recursion with no memo:
    each clique is reached once, growing it in index order."""
    counts = []

    def grow(cand, size):
        if size == len(counts):
            counts.append(0)
        counts[size] += 1
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(cand & adj[v], size + 1)

    grow((1 << len(adj)) - 1, 0)
    return counts


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7), (3, 8), (5, 8)])
def test_face_numbers_count_the_cliques(k, n):
    assert _face_numbers(k, n) == _plain_clique_counts(_noncrossing_graph(k, n)[1])


@pytest.mark.slow
@pytest.mark.parametrize("k,n", [(4, 8), (3, 9)])
def test_face_numbers_count_the_cliques_slow(k, n):
    assert _face_numbers(k, n) == _plain_clique_counts(_noncrossing_graph(k, n)[1])


@pytest.mark.parametrize("k,n", [(k, n) for n in range(4, 13) for k in range(2, n - 1)])
def test_face_numbers_h_vector(k, n):
    """The h-vector read back from the face numbers is palindromic with
    h_0 = 1, sums to the tableaux count, and is the Narayana numbers at
    k = 2.  Also checked: the frozen subsets cross nothing, the join link
    of `_face_numbers`'s argument (the relation itself is checked against
    its definition in `test_compatibility_degree_matches_definition`)."""
    f = _face_numbers(k, n)
    d, m = (k - 1) * (n - k - 1), n - k
    assert len(f) == d + 1 and f[0] == 1 and f[-1] == catalan_mdim(k, m)
    h = [sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
         for j in range(d + 1)]
    assert h == h[::-1] and h[0] == 1 and sum(h) == f[-1]
    if k == 2:
        assert h == [comb(m, j) * comb(m, j + 1) // m for j in range(m)]
    subsets = list(combinations(range(1, n + 1), k))
    assert not any(compatibility_degree(J, I, n) for J in subsets if is_frozen(J, n)
                   for I in subsets)


DAG_SHAPES = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (3, 8), (3, 9),
              (4, 7), (4, 8)]


def _paths(paths, below, v):
    if paths is None:
        paths = []
    paths.extend((v,) + p for p in below)
    return paths


@pytest.mark.parametrize("k,n", DAG_SHAPES)
def test_search_dag_unfolds_to_the_search_tree(k, n):
    """The DAG's root-to-leaf vertex paths, folded up by fold_sets, are the
    reference tree's root-to-leaf paths, as multisets, and the DAG's stored
    count is their number."""
    expected = []
    count = _reference_fold(k, n, (), lambda p, v: p + (v,), expected.append)
    assert count == catalan_mdim(k, n - k)
    dag = _search_dag(k, n, count)
    assert Counter(dag.fold_sets([()], _paths)) == Counter(expected)
    assert dag.count == count


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
        assert _search_dag(k, n, 10 ** 6).fold_up(D, a, [1] * len(a)) == expected
        values = dict(zip(verts, vals))
        assert nc_amplitude(k, n, values) == F(expected * L ** d, D)


@pytest.mark.parametrize("k,n", DAG_SHAPES)
def test_search_dag_fold_with_multipliers(k, n):
    """fold_up with a mul table other than all ones, the values of
    nc_amplitude with Fraction values, gives the reference tree's total of
    D prod mul_J / div_J; a table with a single entry other than 1 takes
    the multiplying pass too."""
    rng = random.Random(10 * k + n + 1)
    m = len(nonfrozen_subsets(k, n))
    div = [rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(m)]
    D = prod(div)
    dag = _search_dag(k, n, 10 ** 6)
    one = [1] * m
    one[rng.randrange(m)] = -7
    for mul in ([rng.randint(1, 30) for _ in range(m)], one):
        expected = 0

        def add(Q):
            nonlocal expected
            expected += Q

        _reference_fold(k, n, D, lambda Q, v: Q // div[v] * mul[v], add)
        assert dag.fold_up(D, div, mul) == expected


@pytest.mark.parametrize("k,n", DAG_SHAPES)
def test_search_dag_edges_follow_their_owners(k, n):
    """Each edge is stored with its owner's other edges, after every edge
    of its child: owner is nondecreasing and child[e] < owner[e]; the root
    owns the last edge, and the leaf and the dead node own none."""
    dag = _search_dag(k, n, 10 ** 6)
    owner, child = dag.owner, dag.child
    assert len(owner) == len(child) == len(dag.vertex)
    assert all(a <= b for a, b in zip(owner, owner[1:]))
    assert all(c < o for o, c in zip(owner, child))
    assert owner[0] > 1 and owner[-1] == dag.root


class _Value:
    """A value that a weak reference can watch."""


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_fold_sets_drops_each_value_after_its_last_reader(k, n):
    """By the time fold_sets reaches edge e, it holds no value of a node
    whose last reader came before e; only the root's value outlives the
    fold.  (The leaf's value is the caller's.)"""
    dag = _search_dag(k, n, 10 ** 6)
    owner, child = dag.owner, dag.child
    last = dict(zip(child, range(len(child))))
    done = sorted((e, c) for c, e in last.items() if c != combinat._LEAF)
    refs, edges, i = {}, iter(range(len(child))), 0

    def add(value, below, v):
        nonlocal i
        e = next(edges)
        while done[i][0] < e:
            assert refs[done[i][1]]() is None
            i += 1
        if value is None:
            value = _Value()
            refs[owner[e]] = weakref.ref(value)
        return value

    root = dag.fold_sets(_Value(), add)
    assert next(edges, None) is None
    assert all(e == len(child) - 1 for e, _c in done[i:])
    assert [c for c, ref in refs.items() if ref() is not None] == [dag.root]
    assert refs[dag.root]() is root


def test_capped_search_dag_build_caches_nothing():
    combinat.clear_caches()
    with pytest.raises(ResourceLimitExceeded,
                       match=re.escape("more than 461 maximal collections for (3, 7)")):
        _search_dag(3, 7, 461)
    # the cap is read off (k, n): neither the graph nor the DAG is built
    assert _noncrossing_graph.cache_info().currsize == 0
    assert combinat._build_search_dag.cache_info().currsize == 0
    dag = _search_dag(3, 7, 462)
    assert combinat._build_search_dag(3, 7) is dag and dag.count == 462
    # a cached DAG still raises for a smaller cap
    with pytest.raises(ResourceLimitExceeded,
                       match=re.escape("more than 100 maximal collections for (3, 7)")):
        enumerate_maximal_noncrossing(3, 7, 100)


def test_search_dag_is_built_once_per_shape():
    combinat.clear_caches()
    verts = nonfrozen_subsets(3, 7)
    nc_amplitude(3, 7, {J: F(i + 1) for i, J in enumerate(verts)})
    nc_amplitude(3, 7, {J: F(1, i + 2) for i, J in enumerate(verts)})
    assert len(enumerate_maximal_noncrossing(3, 7)) == 462
    info = combinat._build_search_dag.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


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


@pytest.mark.parametrize("build", [
    # check_kn runs before any cache is read
    triangulation_volume,
    # shape caches with typed keys: 3.0 misses the entry of 3, and the
    # build's own check_kn rejects it
    kin_basis,
    claims.bcfw_matrix,
    lambda k, n: kinematics.eta_functional((1, 3, 5), k, n),
    _noncrossing_graph,
    cli._subset_keys,
    polynomial._identity_plan,
    lambda k, n: _search_dag(k, n, MAX_COLLECTIONS),
], ids=["triangulation_volume", "kin_basis", "bcfw_matrix", "eta_functional",
        "noncrossing_graph", "subset_keys", "identity_plan", "search_dag"])
def test_non_int_shape_raises_cold_and_warm(build):
    combinat.clear_caches()
    with pytest.raises(ValueError, match="k and n must be ints"):
        build(3.0, 6)
    build(3, 6)
    for k, n in [(3.0, 6), (3, 6.0), (True, 6)]:
        message = f"k and n must be ints, got ({k!r}, {n!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(k, n)


def test_clear_caches_empties_every_shape_cache():
    from grascat import roots
    caches = [combinat._noncrossing_graph, roots._fan, kinematics.eta_functional,
              kinematics.kin_basis, kinematics._shift_rows, polynomial._ladder_table,
              polynomial._tau_ratio, polynomial._identity, polynomial._one_minus_u,
              polynomial._identity_plan, cli._parser, cli._subset_keys, combinat._nonfrozen,
              combinat._build_search_dag]
    # the registry holds the clears of these caches and nothing else
    assert len(combinat._CLEARS) == len(caches)
    assert set(combinat._CLEARS) == {c.cache_clear for c in caches}
    triangulation_volume(3, 6)  # the graph, the fan and the search DAG
    kinematics.eta_functional((1, 3, 5), 3, 6)
    kinematics.kin_basis(3, 6)
    kinematics.eta_hat_shift(6)
    polynomial.binary_identity_check((1, 3, 5), 3, 6)  # ladder table, taus, identity, 1 - u
    polynomial.binary_identities_random_all(3, 6, trials=1)  # and the plan
    cli._parser()
    cli._subset_keys(3, 6)
    sizes = {c.__name__: c.cache_info().currsize for c in caches}
    assert all(sizes.values()), sizes
    combinat.clear_caches()
    sizes = {c.__name__: c.cache_info().currsize for c in caches}
    assert not any(sizes.values()), sizes


# ---------------------------------------------------------------------------
# the one table of the nonfrozen subsets

def test_every_module_reads_the_one_nonfrozen_table(monkeypatch, tmp_path):
    import json

    from grascat import cli, roots
    combinat.clear_caches()
    verts, index = combinat._nonfrozen(3, 6)
    assert index == {J: t for t, J in enumerate(verts)}
    assert _noncrossing_graph(3, 6)[0] is verts
    assert roots._fan(3, 6).index is index
    # KinBasis passes the table's dict to _s_row and _certify
    seen = []
    s_row, certify = kinematics._s_row, kinematics.KinBasis._certify
    monkeypatch.setattr(kinematics, "_s_row",
                        lambda I, n, position: seen.append(position) or s_row(I, n, position))
    monkeypatch.setattr(kinematics.KinBasis, "_certify",
                        lambda self, position: seen.append(position) or certify(self, position))
    kinematics.KinBasis(3, 6)
    assert len(seen) == 20 + 1 and all(position is index for position in seen)
    # cli keeps no table of its own: its known keys are the table's dict
    assert not hasattr(cli, "_nonfrozen")
    known = []
    table = combinat._nonfrozen
    monkeypatch.setattr(combinat, "_nonfrozen", lambda k, n: known.append(table(k, n)[1])
                        or table(k, n))
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"eta": {"1,3,5": 2, "1,2,3": 0}}))
    assert cli._load_subset_map(str(path), "eta", 3, 6)[0] == {(1, 3, 5): 2, (1, 2, 3): 0}
    assert known and all(keys is index for keys in known)


def test_nonfrozen_subsets_copies_the_table():
    combinat.clear_caches()
    nf = nonfrozen_subsets(3, 6)
    nf[0] = (9, 9, 9)
    nf.append((1, 2, 3))
    verts, index = combinat._nonfrozen(3, 6)
    assert nonfrozen_subsets(3, 6) == list(verts) and len(verts) == 14 == len(index)
    assert (9, 9, 9) not in index and (1, 2, 3) not in verts
    with pytest.raises(TypeError):
        index[9, 9, 9] = 0
    assert combinat._nonfrozen.cache_info().currsize == 1
    combinat.clear_caches()
    assert combinat._nonfrozen.cache_info().currsize == 0
    # the messages of nonfrozen_subsets are check_kn's
    with pytest.raises(ValueError, match=r"^k and n must be ints, got \(3\.0, 6\)$"):
        nonfrozen_subsets(3.0, 6)
    with pytest.raises(ValueError, match=r"^need 2 <= k <= n-2, got \(1, 4\)$"):
        combinat._nonfrozen(1, 4)
