"""Combinatorics of k-element subsets of {1..n}: frozen subsets,
compatibility degree (zero iff a pair is noncrossing), and enumeration of
maximal noncrossing collections.

Subsets are plain sorted tuples of ints in [1, n]; the ambient (k, n) is
passed explicitly where it matters (frozenness is a cyclic notion, so it
depends on n).

The C(n,k) - n nonfrozen k-subsets index the roots, the PK facets, the
planar basis eta_J and the noncrossing graph.  They are listed, and mapped
to their positions, in one table per shape, `_nonfrozen(k, n)`, which
every module reads.

Every per-shape structure that callers ask for more than once, here and
in `roots`, `kinematics`, `polynomial` and `cli`, is kept for the whole
process by one layer, the `shape_cache` decorator: a typed lru_cache
whose builds check their own shape.  `clear_caches()` empties it.
"""
from __future__ import annotations

import math
from array import array
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from operator import or_
from types import MappingProxyType


# the default cap on the maximal collections one search may find, shared by
# every enumeration and the CLI's --max-cliques
MAX_COLLECTIONS = 200000


class ResourceLimitExceeded(RuntimeError):
    """Raised when an enumeration would exceed a configured cap."""


# the clear of every per-shape cache, run in order by clear_caches
_CLEARS = []


def shape_cache(build):
    """Keep build(*args) for the whole process, one entry per argument
    tuple, and register the cache with `clear_caches`.  The layer holds
    the per-shape structures that callers ask for more than once.

    A plain lru_cache with typed keys: 3.0 or True misses the entry of 3,
    so a build that starts with `check_kn` rejects a bad shape on every
    call, cold or warm, with check_kn's message.  Typing does not reach
    into a tuple: a warm call with (1.0, 3, 5) hits the entry of
    (1, 3, 5).  So a tuple key, a subset, must be checked before the cache
    is read: the callers of `polynomial._identity` and `_one_minus_u` run
    `check_subset` first.  `kinematics.eta_functional`
    checks its subset in its body, on a miss only, and keeps that residual.
    """
    cached = lru_cache(maxsize=None, typed=True)(build)
    _CLEARS.append(cached.cache_clear)
    return cached


def clear_caches():
    """Empty every per-shape cache, each a `shape_cache`."""
    for clear in _CLEARS:
        clear()


def check_subset(J, k, n):
    """Validate that J is a strictly increasing k-tuple of ints inside
    [1, n]; bool is not an int here."""
    J = tuple(J)
    if not all(type(a) is int for a in J):
        raise ValueError(f"subset entries must be ints, got {J}")
    if len(J) != k:
        raise ValueError(f"expected a {k}-element subset, got {J}")
    if any(a >= b for a, b in zip(J, J[1:])):
        raise ValueError(f"subset must be strictly increasing: {J}")
    if J[0] < 1 or J[-1] > n:
        raise ValueError(f"subset {J} not inside [1, {n}]")
    return J


def is_frozen(J, n):
    """True iff the elements of J form one cyclic interval of (1..n).
    ValueError, naming J, for an empty J or a label outside [1, n]."""
    J = tuple(J)
    if not J or min(J) < 1 or max(J) > n:
        raise ValueError(f"subset {J} is not a nonempty subset of [1, {n}]")
    J = sorted(J)
    k = len(J)
    if k == n:
        return True
    # gaps in cyclic order; a cyclic interval has exactly one gap > 1
    gaps = 0
    for a, b in zip(J, J[1:]):
        if b - a > 1:
            gaps += 1
    if (J[0] + n) - J[-1] > 1:
        gaps += 1
    return gaps <= 1


def compatibility_degree(I, J, n):
    """Number of crossings of the pair (I, J): position pairs a < b whose
    interior entries agree, i_l == j_l for a < l < b, and whose endpoint
    pairs {i_a, i_b}, {j_a, j_b} are not weakly separated.

    Two 2-subsets fail weak separation exactly when their four labels are
    distinct and alternate around the circle, which for x = i_a < u = i_b
    and y = j_a < v = j_b reads x < y < u < v or y < x < v < u; so n does
    not enter.  With four distinct labels, a and b are consecutive
    positions where I and J differ: `_crossing_labels` scans them once.

    Symmetric in I and J and invariant under the reflection i -> n + 1 - i
    of the labels, but not under their cyclic rotation.  Zero iff the pair
    is noncrossing.
    """
    if len(J) != len(I):
        raise ValueError("subsets must have the same size")
    return _crossing_labels(I, J).bit_count()


def _crossing_labels(I, J):
    """Bitmask of the labels i_b, one per crossing (a, b), so b = I.index(label);
    x, y are the entries where I and J last differed (0, 0 crosses nothing)."""
    labels = x = y = 0
    for u, v in zip(I, J):
        if u != v:
            if x < y < u < v or y < x < v < u:
                labels |= 1 << u
            x, y = u, v
    return labels


def check_kn(k, n):
    """Raise ValueError unless k and n are ints (not bool) with
    2 <= k <= n - 2, the range of (k, n) that has nonfrozen k-subsets of
    [1, n]."""
    if type(k) is not int or type(n) is not int:
        raise ValueError(f"k and n must be ints, got ({k!r}, {n!r})")
    if not (2 <= k <= n - 2):
        raise ValueError(f"need 2 <= k <= n-2, got ({k}, {n})")


def nonfrozen_subsets(k, n):
    """All k-subsets of [1, n] that are not single cyclic intervals, in
    sorted order: a new list of the table `_nonfrozen(k, n)`."""
    return list(_nonfrozen(k, n)[0])


@shape_cache
def _nonfrozen(k, n):
    """The one table of the nonfrozen k-subsets of [1, n], which index the
    roots, the PK facets, the planar basis eta_J and the noncrossing graph:
    (their sorted tuple, a read-only {subset: position in it} mapping),
    both immutable, since every caller shares them.  Raises ValueError
    unless 2 <= k <= n - 2."""
    check_kn(k, n)
    verts = tuple(J for J in combinations(range(1, n + 1), k) if not is_frozen(J, n))
    return verts, MappingProxyType({J: t for t, J in enumerate(verts)})


def catalan_mdim(k, m):
    """k-dimensional Catalan number: standard Young tableaux of the k x m
    rectangle, by the hook length formula."""
    num = math.factorial(k * m)
    for i in range(k):
        num = num * math.factorial(i) // math.factorial(m + i)
    return num


def _face_numbers(k, n):
    """f[i]: the sets of i pairwise noncrossing nonfrozen k-subsets of
    [1, n], the cliques of `_noncrossing_graph`, for i = 0..d with
    d = (k-1)(n-k-1), counted from the standard Young tableaux of the
    k x (n-k) rectangle with no clique search; f[d] is
    catalan_mdim(k, n - k).

    Let h(t) = sum over i of f[i] t^i (1-t)^(d-i), the h-vector of the
    complex of these sets.  Then h_j is the number of tableaux with j
    descents, by this chain:
    1. `compatibility_degree` == 0, the relation of the noncrossing graph,
       is the noncrossing relation of Petersen, Pylyavskyy and Speyer (A
       non-crossing standard monomial basis for the coordinate ring of the
       Grassmannian, J. Algebra 2010): no a < b with i_l = j_l for
       a < l < b and {i_a, i_b}, {j_a, j_b} crossing.  Santos, Stump and
       Welker (Noncrossing sets and a Grassmann associahedron, Forum Math.
       Sigma 2017) prove that its flag complex on all k-subsets of [1, n]
       is a regular unimodular triangulation of the order polytope of the
       poset [k] x [n-k].
    2. The n frozen subsets cross nothing (`compatibility_degree` is 0
       on every pair with one), so a set is pairwise noncrossing iff its
       nonfrozen part is: that complex is the join of the simplex on the
       frozen subsets with the complex here.
    3. A join with a simplex keeps h: the f-polynomial sum of f[i] x^i
       multiplies over a join, so h(t), (1-t)^dim times it at
       x = t/(1-t), does too, and a simplex has h(t) = 1.
    4. A unimodular triangulation of a lattice polytope has h equal to
       the polytope's h* (Stanley, Decompositions of rational convex
       polytopes, 1980; Betke and McMullen, Lattice points in lattice
       polytopes, 1985).
    The h* of an order polytope counts the poset's linear extensions by
    descents under a natural labeling (Stanley, Two poset polytopes,
    Discrete Comput. Geom. 1986).  The linear extensions of [k] x [n-k]
    are the tableaux, and under the row-major labeling, which is natural,
    i is a descent iff i + 1 lies in a higher row.  Inverting h(t) gives
    f[i] = sum over j of h_j C(d - j, i - j).

    The tableaux are filled in one entry at a time, 1..k(n-k): a state is
    the partition filled so far, the row of its last entry and its number
    of descents, and holds the count of its fillings."""
    d, m = (k - 1) * (n - k - 1), n - k
    level = Counter({((0,) * k, 0, 0): 1})
    for _ in range(k * m):
        grown = Counter()
        for (shape, last, des), count in level.items():
            for r, (above, here) in enumerate(zip((m,) + shape, shape)):
                if here < above:
                    grown[shape[:r] + (here + 1,) + shape[r + 1:], r, des + (r < last)] += count
        level = grown
    h = [level[(m,) * k, k - 1, j] for j in range(d + 1)]
    return [sum(h[j] * math.comb(d - j, i - j) for j in range(i + 1)) for i in range(d + 1)]


@shape_cache
def _noncrossing_graph(k, n):
    """(the nonfrozen subsets of `_nonfrozen`, the adjacency bitmasks of
    the noncrossing graph on them): J is adjacent to I iff J != I and
    `_crossing_labels(I, J)` is 0.

    Each row is built whole, from bitmasks over the positions of the
    subsets: eq[a][x] holds the J with j_a = x, and below[a][t] the J with
    j_a < t.  J crosses I at positions a < b iff j_l = i_l for a < l < b
    (the AND of eq[l][i_l]) and i_a < j_a < i_b < j_b or
    j_a < i_a < j_b < i_b.  The strict inequalities make j_a != i_a and
    j_b != i_b, so with equality in between, a and b are consecutive
    positions where I and J differ, which is `_crossing_labels`'s rule.
    That is O(V k^2) operations on V-bit ints for V subsets, in place of
    V^2 / 2 pair tests."""
    verts = _nonfrozen(k, n)[0]
    eq = [[0] * (n + 2) for _ in range(k)]
    for t, J in enumerate(verts):
        for a, x in enumerate(J):
            eq[a][x] |= 1 << t
    below = [list(accumulate(row, or_, initial=0)) for row in eq]
    full = (1 << len(verts)) - 1
    adj = []
    for t, I in enumerate(verts):
        cross = 0
        for a in range(k - 1):
            x, low, high = I[a], below[a], full
            for b in range(a + 1, k):
                u = I[b]
                if u - x > 1:
                    lb = below[b]
                    inside_a = low[u] & ~low[x + 1]  # i_a < j_a < i_b
                    inside_b = lb[u] & ~lb[x + 1]  # i_a < j_b < i_b
                    cross |= high & (inside_a & ~lb[u + 1] | low[x] & inside_b)
                high &= eq[b][u]
        adj.append(full & ~cross & ~(1 << t))
    return verts, adj


def _has_clique(adj, cand, size):
    """Whether the vertices of the bitmask cand hold size pairwise adjacent
    ones in the graph with adjacency bitmasks adj: a plain recursive search
    that cuts a branch once fewer candidates remain than the clique still
    needs."""
    if not size:
        return True
    while cand.bit_count() >= size:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if _has_clique(adj, cand & adj[v], size - 1):
            return True
    return False


def _first_collection(adj, chosen=0, order=None):
    """The first maximal clique, in the vertex order given (index order by
    default), of the graph adj that holds the clique chosen: chosen
    extended by each vertex, in that order, that is adjacent to everything
    chosen so far.

    Greedy is maximal, since a vertex it skips is not adjacent to some
    vertex chosen before it.  Against any other maximal clique C holding
    chosen, take the first vertex i in the order in one of the two but not
    both.  Every vertex greedy had chosen before reaching i lies in C, so
    were i in C it would be adjacent to all of them, and greedy would have
    taken it.  So i is greedy's, and greedy's clique, listed in the order,
    comes first; in index order and for verts sorted, so does its sorted
    tuple of subsets.
    """
    for i in range(len(adj)) if order is None else order:
        if not chosen & ~adj[i]:
            chosen |= 1 << i
    return chosen


def enumerate_maximal_noncrossing(k, n, max_collections=MAX_COLLECTIONS):
    """All maximal pairwise-noncrossing collections of nonfrozen subsets,
    the leaves of the pivoting Bron-Kerbosch search with degeneracy
    ordering (see `_search_dag`), folded up the search DAG as lists of
    bitmasks over `_nonfrozen(k, n)`.

    Every maximal collection has exactly (k-1)(n-k-1) members; their number
    is the k-dimensional Catalan number catalan_mdim(k, n-k).  Output is
    sorted for determinism.
    """
    verts = _noncrossing_graph(k, n)[0]

    def add(masks, below, v):
        bit = 1 << v
        masks = [] if masks is None else masks
        masks.extend(R | bit for R in below)
        return masks

    masks = _search_dag(k, n, max_collections).fold_sets([0], add)
    return sorted(tuple(sorted(verts[i] for i in _bits(R))) for R in masks)


class SearchDag:
    """The pivoting Bron-Kerbosch search over the noncrossing graph of
    (k, n), with each distinct subproblem stored once.

    The search runs on the graph renumbered so that index order is the
    degeneracy order (`_build_search_dag`): the top level adds every
    vertex in that order with no pivot, and every node below it scans its
    candidates in renumbered index order.  A subtree of the search depends
    only on its (P, X) pair: the pivot, the candidates and each child's
    pair are functions of P and X alone.  So the search tree folds into a
    DAG with one node per distinct pair.  Nodes are numbered in
    post-order, children before parents.  Node ``_LEAF`` (0) is the empty
    pair, a maximal clique; node ``root`` (the last) is the top level.
    Edge e belongs to node owner[e], adds vertex[e], an index in
    `_nonfrozen(k, n)`, to the clique and leads to node child[e]; the
    three are flat int `array`s, one entry per edge.  A
    node's edges are stored together, in search order, when its branch
    ends, after every edge of its children, so owner is nondecreasing and
    child[e] < owner[e].  Branches that end in no maximal clique are
    dropped: node ``_DEAD`` (1) stands for every empty P with a nonempty
    X, and no edge leads to a node without leaves.  ``count`` is the
    number of maximal cliques, the number of root-to-leaf paths:
    catalan_mdim(k, n - k), which `_search_dag` compares with its cap
    before any build.  `test_search_dag_unfolds_to_the_search_tree` and
    the ``pass`` field of ``nc count`` hold the count to it.

    Every reader is one pass over the edges in storage order (``fold_up``,
    ``fold_sets``): every edge of child[e] comes before edge e, so the
    child's value is complete when e reads it.
    """

    __slots__ = ("owner", "vertex", "child", "root", "count")

    def __init__(self, owner, vertex, child, count):
        self.owner, self.vertex, self.child, self.count = owner, vertex, child, count
        self.root = owner[-1]  # the root's edges are stored last

    def fold_sets(self, leaf_value, add):
        """The value of the root when node ``_LEAF`` holds leaf_value and
        each edge e, in storage order, sets its owner's value to
        add(the owner's value, or None at its first edge, the value of
        child[e], vertex[e]).

        A child's value is dropped at the last edge that reads it, so only
        the values of nodes with a reader still to come are held.  add may
        change the owner's value in place, never the child's: a child is
        read by all of its parents."""
        last = dict(zip(self.child, range(len(self.child))))  # a later edge overwrites
        value = [None] * (self.root + 1)
        value[_LEAF] = leaf_value
        for e, (o, c, v) in enumerate(zip(self.owner, self.child, self.vertex)):
            value[o] = add(value[o], value[c], v)
            if last[c] == e:
                value[c] = None
        return value[self.root]

    def fold_up(self, leaf_value, div, mul):
        """The value of the root when node ``_LEAF`` holds leaf_value and
        every other node the sum over its edges e, adding v = vertex[e], of
        (value of child[e]) // div[v] * mul[v]; dead nodes hold 0.  div and
        mul are int sequences indexed by vertex.

        One flat pass over the edges in storage order adds each edge's
        term to its owner's value.  Every edge of child[e] is stored before
        edge e, so the child's value is complete when e reads it, and the
        pass is exact.  When every mul[v] is 1, as for integer values, the
        terms skip the multiply."""
        value = [0] * (self.root + 1)
        value[_LEAF] = leaf_value
        de = map(div.__getitem__, self.vertex)
        if all(x == 1 for x in mul):
            for o, c, d in zip(self.owner, self.child, de):
                value[o] += value[c] // d
        else:
            for o, c, d, x in zip(self.owner, self.child, de, map(mul.__getitem__, self.vertex)):
                value[o] += value[c] // d * x
        return value[self.root]


_LEAF, _DEAD = 0, 1


def _search_dag(k, n, max_collections):
    """The cached search DAG of (k, n) (`_build_search_dag`).  Raises
    ValueError unless 2 <= k <= n - 2, and ResourceLimitExceeded, with
    nothing built, when the DAG's count, catalan_mdim(k, n - k), exceeds
    max_collections."""
    check_kn(k, n)
    if catalan_mdim(k, n - k) > max_collections:
        raise ResourceLimitExceeded(
            f"more than {max_collections} maximal collections for ({k}, {n})")
    return _build_search_dag(k, n)


@shape_cache
def _build_search_dag(k, n):
    """Pivoting Bron-Kerbosch with degeneracy ordering over the noncrossing
    graph, memoised on (P, X) into a `SearchDag`.  It takes no cap:
    `_search_dag` compares the count, catalan_mdim(k, n - k), with it
    first.

    The graph is renumbered once so that index order is
    `_degeneracy_order`: vertex i here is order[i] in `_nonfrozen(k, n)`.
    Then one loop, `branch(P, X, cand)`, which adds each vertex of cand in
    bit order and moves it from P to X after its branch, is both the top
    level (every vertex, P all, X empty, no pivot: the degeneracy order of
    Eppstein, Loffler and Strash) and every node below it (cand =
    P & ~N(pivot), the pivot u in P | X maximizing |P & N(u)|, first in
    index order: Tomita, Tanaka and Takahashi).  Each edge records the
    vertex's original index.  The memo key is the one int X << m | P, and
    the memo starts with the leaf, so every leaf reached is a memo hit.
    """
    graph = _noncrossing_graph(k, n)[1]
    m = len(graph)
    order = _degeneracy_order(m, graph)
    rank = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << rank[u] for u in _bits(graph[v])) for v in order]
    owner, vertex, child = array("i"), array("i"), array("i")
    counts = array("q", [1, 0])  # maximal cliques below each node
    memo = {0: _LEAF}

    def branch(P, X, cand):
        edges = []
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            p, x = P & adj[v], X & adj[v]
            key = x << m | p
            c = memo.get(key)
            if c is None and p:
                # pivot maximizing |p & N(u)|
                best = -1
                q = p | x
                while q:
                    u = (q & -q).bit_length() - 1
                    q &= q - 1
                    size = (p & adj[u]).bit_count()
                    if size > best:
                        best, pivot = size, u
                c = memo[key] = branch(p, x, p & ~adj[pivot])
            elif c is None:
                c = _DEAD
            if counts[c]:
                edges.append((order[v], c))
            P &= ~bit
            X |= bit
        node = len(counts)
        for v, c in edges:
            owner.append(node)
            vertex.append(v)
            child.append(c)
        counts.append(sum(counts[c] for _v, c in edges))
        return node

    everything = (1 << m) - 1
    branch(everything, 0, everything)
    return SearchDag(owner, vertex, child, counts[-1])


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _degeneracy_order(m, adj):
    deg = [a.bit_count() for a in adj]
    removed = [False] * m
    order = []
    for _ in range(m):
        v = min((i for i in range(m) if not removed[i]), key=lambda i: deg[i])
        order.append(v)
        removed[v] = True
        for u in _bits(adj[v]):
            if not removed[u]:
                deg[u] -= 1
    return order
