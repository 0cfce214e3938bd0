"""Combinatorics of k-element subsets of {1..n}: frozen subsets, weak
separation, the crossing/noncrossing predicates, compatibility degree, and
enumeration of maximal noncrossing collections.

Subsets are plain sorted tuples of ints in [1, n]; the ambient (k, n) is
passed explicitly where it matters (frozenness and weak separation are
cyclic notions, so they depend on n).

The C(n,k) - n nonfrozen k-subsets index the roots, the PK facets, the
planar basis eta_J and the noncrossing graph.  They are listed, and mapped
to their positions, in one table per shape, `_nonfrozen(k, n)`, which
every module reads.

Every per-shape structure that callers ask for more than once, here and
in `roots`, `kinematics`, `polynomial` and `cli`, is kept for the whole
process by one layer: the `shape_cache` decorator, a typed lru_cache
whose builds check their own shape, and `_search_dag`'s DAGs.
`clear_caches()` empties all.
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import combinations
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
    is read: the callers of `polynomial._ladder`, `_identity` and
    `_one_minus_u` run `check_subset` first.  `kinematics.eta_functional`
    checks its subset in its body, on a miss only, and keeps that residual.
    """
    cached = lru_cache(maxsize=None, typed=True)(build)
    _CLEARS.append(cached.cache_clear)
    return cached


def clear_caches():
    """Empty every per-shape cache: each `shape_cache` and the search DAGs."""
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
    """True iff the elements of J form one cyclic interval of (1..n)."""
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


def is_weakly_separated(I, J, n):
    """Weak separation of two subsets with respect to the cyclic order.

    The indicator difference e_I - e_J must not contain a cyclically
    alternating sign pattern at four positions; equivalently the cyclic
    sequence of its nonzero signs has at most two sign changes.
    """
    I, J = set(I), set(J)
    signs = []
    for a in range(1, n + 1):
        if a in I and a not in J:
            signs.append(1)
        elif a in J and a not in I:
            signs.append(-1)
    if len(signs) <= 2:
        return True
    changes = sum(1 for s, t in zip(signs, signs[1:] + signs[:1]) if s != t)
    return changes <= 2


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


def is_noncrossing(I, J, n):
    """True iff the pair has compatibility degree zero.

    Frozen subsets cross nothing (their windows are always weakly
    separated from everything or shielded by differing interiors), so the
    predicate is safe to call on them too.
    """
    return compatibility_degree(I, J, n) == 0


def is_crossing(I, J, n):
    return compatibility_degree(I, J, n) > 0


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


def k3_exponent_rule(I, J):
    """Conjectured k=3 exponent: 0 when noncrossing, 2 when the two triples
    fully interleave, 1 for any other crossing."""
    I, J = tuple(I), tuple(J)
    if len(I) != 3 or len(J) != 3:
        raise ValueError("rule applies to 3-element subsets only")
    n = max(I[-1], J[-1])
    c = compatibility_degree(I, J, n)
    if c == 0:
        return 0
    i1, i2, i3 = I
    j1, j2, j3 = J
    if i1 < j1 < i2 < j2 < i3 < j3 or j1 < i1 < j2 < i2 < j3 < i3:
        return 2
    return 1


@shape_cache
def _noncrossing_graph(k, n):
    """(the nonfrozen subsets of `_nonfrozen`, the adjacency bitmasks of
    the noncrossing graph on them)."""
    verts = _nonfrozen(k, n)[0]
    m = len(verts)
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if not _crossing_labels(verts[a], verts[b]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
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


def _first_collection(adj, chosen=0):
    """The sorted-first maximal clique of the graph adj that holds the
    clique chosen: chosen extended by each vertex, in index order, that is
    adjacent to everything chosen so far.

    Greedy is maximal, since a vertex it skips is not adjacent to some
    vertex chosen before it.  Against any other maximal clique C holding
    chosen, take the least index i in one of the two but not both.  Every
    vertex greedy had chosen before reaching i lies in C, so were i in C it
    would be adjacent to all of them, and greedy would have taken it.  So
    i is greedy's, and the sorted index list of greedy's clique comes
    first; for verts sorted, so does its sorted tuple of subsets.
    """
    for i, nbrs in enumerate(adj):
        if not chosen & ~nbrs:
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
    `_nonfrozen(k, n)`, to the clique and leads to node child[e].  A
    node's edges are stored together, in search order, when its branch
    ends, after every edge of its children, so owner is nondecreasing and
    child[e] < owner[e].  Branches that end in no maximal clique are
    dropped: node ``_DEAD`` (1) stands for every empty P with a nonempty
    X, and no edge leads to a node without leaves.  ``count`` is the
    number of maximal cliques, the number of root-to-leaf paths.

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

# (k, n) -> SearchDag, filled by _search_dag; a build that hits its cap
# leaves no entry
_SEARCH_DAGS = {}
_CLEARS.append(_SEARCH_DAGS.clear)


def _search_dag(k, n, max_collections):
    """The cached search DAG of (k, n); raises ResourceLimitExceeded when
    it has, or while building finds, more than max_collections leaves."""
    dag = _SEARCH_DAGS.get((k, n))
    if dag is None:
        dag = _SEARCH_DAGS[k, n] = _build_search_dag(k, n, max_collections)
    elif dag.count > max_collections:
        raise _too_many(k, n, max_collections)
    return dag


def _too_many(k, n, max_collections):
    return ResourceLimitExceeded(
        f"more than {max_collections} maximal collections for ({k}, {n})")


def _build_search_dag(k, n, max_collections):
    """Pivoting Bron-Kerbosch with degeneracy ordering over the noncrossing
    graph, memoised on (P, X) into a `SearchDag`.

    The graph is renumbered once so that index order is
    `_degeneracy_order`: vertex i here is order[i] in `_nonfrozen(k, n)`.
    Then one loop, `branch(P, X, cand)`, which adds each vertex of cand in
    bit order and moves it from P to X after its branch, is both the top
    level (every vertex, P all, X empty, no pivot: the degeneracy order of
    Eppstein, Loffler and Strash) and every node below it (cand =
    P & ~N(pivot), the pivot u in P | X maximizing |P & N(u)|, first in
    index order: Tomita, Tanaka and Takahashi).  Each edge records the
    vertex's original index.  The memo key is the one int X << m | P.

    The memo starts with the leaf, so every leaf reached is a memo hit.
    The running leaf count adds a hit node's whole count, so it equals the
    unmerged search's count at the same point of the search order, and
    the build raises ResourceLimitExceeded no later than that search
    would.
    """
    graph = _noncrossing_graph(k, n)[1]
    m = len(graph)
    order = _degeneracy_order(m, graph)
    rank = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << rank[u] for u in _bits(graph[v])) for v in order]
    owner, vertex, child = array("i"), array("i"), array("i")
    counts = array("q", [1, 0])  # maximal cliques below each node
    memo = {0: _LEAF}
    leaves = 0

    def branch(P, X, cand):
        nonlocal leaves
        edges = []
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            p, x = P & adj[v], X & adj[v]
            key = x << m | p
            c = memo.get(key)
            if c is not None:
                leaves += counts[c]
                if leaves > max_collections:
                    raise _too_many(k, n, max_collections)
            elif p:
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
            else:
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
