"""Combinatorics of k-element subsets of {1..n}: frozen subsets, weak
separation, the crossing/noncrossing predicates, compatibility degree, and
enumeration of maximal noncrossing collections.

Subsets are plain sorted tuples of ints in [1, n]; the ambient (k, n) is
passed explicitly where it matters (frozenness and weak separation are
cyclic notions, so they depend on n).

Every per-shape structure that callers ask for more than once, here and
in `roots`, `kinematics`, `polynomial` and `cli`, is kept for the whole
process by one layer: the `shape_cache` decorator, whose keys are ints and
tuples of ints only, and `_search_dag`'s DAGs.  `clear_caches()` empties all.
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache, wraps
from itertools import combinations


# the default cap on the maximal collections one search may find, shared by
# every enumeration and the CLI's --max-cliques
MAX_COLLECTIONS = 200000


class ResourceLimitExceeded(RuntimeError):
    """Raised when an enumeration would exceed a configured cap."""


# the clear of every per-shape cache, run in order by clear_caches
_CLEARS = []


def _is_ints(arg):
    """arg is an exact int, or a tuple of exact ints (bool is not one)."""
    return type(arg) is int or type(arg) is tuple and all(type(a) is int for a in arg)


def shape_cache(build):
    """Keep build(*args) for the whole process, one entry per argument
    tuple, and register the cache with `clear_caches`.  The layer holds
    the per-shape structures that callers ask for more than once.

    An lru_cache with typed keys over a miss path that raises ValueError,
    before anything is built, unless every argument is an int or a tuple
    of ints (bool rejected).  A hit is a plain lru_cache hit, unchecked;
    typed keys make 3.0 miss where 3 hits, so it raises cold and warm.
    Typing does not reach into a tuple: a warm call with (1.0, 3, 5) hits
    the entry of (1, 3, 5) and returns its value.  The callers of
    `polynomial._ladder` and `_identity` run `check_subset` first;
    `kinematics.eta_functional` keeps that residual.
    """
    @wraps(build)
    def miss(*args):
        for arg in args:
            if not _is_ints(arg):
                raise ValueError(f"{build.__name__}: argument {arg!r} is not an int "
                                 f"or a tuple of ints")
        return build(*args)

    cached = lru_cache(maxsize=None, typed=True)(miss)
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
    if not _is_ints(J):
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
    not enter.  For each a the scan over b stops at the first position
    where I and J differ, which every later b would have in its interior.

    Symmetric in I and J and invariant under the reflection i -> n + 1 - i
    of the labels, but not under their cyclic rotation.  Zero iff the pair
    is noncrossing.
    """
    k = len(I)
    if len(J) != k:
        raise ValueError("subsets must have the same size")
    deg = 0
    for a in range(k - 1):
        x, y = I[a], J[a]
        for b in range(a + 1, k):
            u, v = I[b], J[b]
            if x < y < u < v or y < x < v < u:
                deg += 1
            if u != v:
                break
    return deg


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
    """All k-subsets of [1, n] that are not single cyclic intervals."""
    check_kn(k, n)
    return [J for J in combinations(range(1, n + 1), k) if not is_frozen(J, n)]


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
    """Adjacency bitmasks of the noncrossing graph on nonfrozen subsets."""
    verts = nonfrozen_subsets(k, n)
    m = len(verts)
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if is_noncrossing(verts[a], verts[b], n):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return verts, adj


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
    ordering (see `_search_dag`).

    Every maximal collection has exactly (k-1)(n-k-1) members; their number
    is the k-dimensional Catalan number catalan_mdim(k, n-k).  Output is
    sorted for determinism.
    """
    verts = nonfrozen_subsets(k, n)
    masks = []
    _fold_maximal_noncrossing(k, n, max_collections, 0,
                              lambda R, v: R | 1 << v, masks.append)
    return sorted(tuple(sorted(verts[i] for i in _bits(R))) for R in masks)


def _fold_maximal_noncrossing(k, n, max_collections, start, step, leaf):
    """Walk the Bron-Kerbosch search tree top-down, in search order,
    threading one value down each branch.

    A branch that adds vertex v (its index in nonfrozen_subsets(k, n)) to
    the clique maps the value acc it carries to step(acc, v); the tree's
    root carries start, and each maximal clique hands its value to leaf,
    in search order.  The tree is the unfolding of the cached search DAG,
    without its dead branches.  Returns the number of maximal cliques;
    raises ResourceLimitExceeded, before any leaf, when there are more
    than max_collections.
    """
    dag = _search_dag(k, n, max_collections)
    first, vertex, child = dag.first, dag.vertex, dag.child

    def walk(node, acc):
        if node == _LEAF:
            leaf(acc)
            return
        for e in range(first[node], first[node + 1]):
            walk(child[e], step(acc, vertex[e]))

    walk(dag.root, start)
    return dag.count


class SearchDag:
    """The pivoting Bron-Kerbosch search over the noncrossing graph of
    (k, n), with each distinct subproblem stored once.

    A subtree of the search depends only on its (P, X) pair: the pivot,
    the candidates and each child's pair are functions of P and X alone.
    So the search tree folds into a DAG with one node per distinct pair.
    Nodes are numbered in post-order, children before parents.  Node
    ``_LEAF`` (0) is the empty pair, a maximal clique; node ``root`` (the
    last) is the degeneracy-ordered top level.  The edges of node i are
    first[i] .. first[i+1]-1, in search order: edge e adds vertex[e] to the
    clique and leads to node child[e].  Branches that end in no maximal
    clique are dropped: node ``_DEAD`` (1) stands for every empty P with a
    nonempty X, and no edge leads to a node without leaves.  ``count`` is
    the number of maximal cliques, the number of root-to-leaf paths, and
    counts[i] the number of paths from node i to the leaf.

    Walking it top-down meets the leaves of the unmerged search tree in
    search order; a bottom-up fold (``fold_up``) visits each node once.
    """

    __slots__ = ("first", "vertex", "child", "counts", "root", "count")

    def __init__(self, first, vertex, child, counts):
        self.first, self.vertex, self.child, self.counts = first, vertex, child, counts
        self.root = len(counts) - 1
        self.count = counts[self.root]

    def fold_up(self, leaf_value, edge):
        """The value of the root when node ``_LEAF`` holds leaf_value and
        every other node the sum over its edges e of
        edge(value of child[e], vertex[e]); dead nodes hold 0."""
        first, vertex, child = self.first, self.vertex, self.child
        value = [0] * (self.root + 1)
        value[_LEAF] = leaf_value
        for node in range(_DEAD + 1, self.root + 1):
            value[node] = sum(edge(value[child[e]], vertex[e])
                              for e in range(first[node], first[node + 1]))
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

    The memo starts with the leaf, so every leaf reached is a memo hit.
    The running leaf count adds a hit node's whole count, so it equals the
    unmerged search's count at the same point of the search order, and
    the build raises ResourceLimitExceeded no later than that search
    would.
    """
    adj = _noncrossing_graph(k, n)[1]
    m = len(adj)
    first = array("i", [0, 0, 0])
    vertex, child = array("i"), array("i")
    counts = array("q", [1, 0])  # maximal cliques below each node
    memo = {(0, 0): _LEAF}
    leaves = 0

    def finish(edges):
        for v, c in edges:
            vertex.append(v)
            child.append(c)
        first.append(len(child))
        counts.append(sum(counts[c] for _v, c in edges))
        return len(counts) - 1

    def node(P, X):
        nonlocal leaves
        if not P and X:
            return _DEAD
        key = (P, X)
        hit = memo.get(key)
        if hit is not None:
            leaves += counts[hit]
            if leaves > max_collections:
                raise _too_many(k, n, max_collections)
            return hit
        # pivot maximizing |P & N(u)|
        best, pivot = -1, -1
        q = P | X
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            c = (P & adj[u]).bit_count()
            if c > best:
                best, pivot = c, u
        cand = P & ~adj[pivot]
        edges = []
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            c = node(P & adj[v], X & adj[v])
            if counts[c]:
                edges.append((v, c))
            P &= ~bit
            X |= bit
        memo[key] = hit = finish(edges)
        return hit

    P_all = (1 << m) - 1
    done = 0
    edges = []
    for v in _degeneracy_order(m, adj):
        c = node(P_all & adj[v] & ~done, done & adj[v])
        if counts[c]:
            edges.append((v, c))
        done |= 1 << v
    finish(edges)
    return SearchDag(first, vertex, child, counts)


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
