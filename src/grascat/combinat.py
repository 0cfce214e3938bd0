"""Combinatorics of k-element subsets of {1..n}: frozen subsets, weak
separation, the crossing/noncrossing predicates, compatibility degree, and
enumeration of maximal noncrossing collections.

Subsets are plain sorted tuples of ints in [1, n]; the ambient (k, n) is
passed explicitly where it matters (frozenness and weak separation are
cyclic notions, so they depend on n).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations


class ResourceLimitExceeded(RuntimeError):
    """Raised when an enumeration would exceed a configured cap."""


def check_subset(J, k, n):
    """Validate that J is a strictly increasing k-tuple inside [1, n]."""
    J = tuple(J)
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


def nonfrozen_subsets(k, n):
    """All k-subsets of [1, n] that are not single cyclic intervals."""
    if not (2 <= k <= n - 2):
        raise ValueError(f"need 2 <= k <= n-2, got ({k}, {n})")
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


@lru_cache(maxsize=None)
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


def enumerate_maximal_noncrossing(k, n, max_collections=200000):
    """All maximal pairwise-noncrossing collections of nonfrozen subsets,
    via pivoting Bron-Kerbosch with degeneracy ordering.

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
    """Pivoting Bron-Kerbosch with degeneracy ordering over the noncrossing
    graph, threading one value down each branch of the search tree.

    A branch that adds vertex v (its index in nonfrozen_subsets(k, n)) to
    the clique maps the value acc it carries to step(acc, v); the tree's
    root carries start, and each maximal clique hands its value to leaf,
    in search order.  Returns the number of maximal cliques; raises
    ResourceLimitExceeded once there are more than max_collections.
    """
    adj = _noncrossing_graph(k, n)[1]
    m = len(adj)
    leaves = 0

    def expand(acc, P, X):
        nonlocal leaves
        if not P and not X:
            leaves += 1
            if leaves > max_collections:
                raise ResourceLimitExceeded(
                    f"more than {max_collections} maximal collections for ({k}, {n})")
            leaf(acc)
            return
        PX = P | X
        # pivot maximizing |P & N(u)|
        best, pivot = -1, -1
        q = PX
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

    # degeneracy order start
    P_all = (1 << m) - 1
    done = 0
    for v in _degeneracy_order(m, adj):
        bit = 1 << v
        expand(step(start, v), P_all & adj[v] & ~done, done & adj[v])
        done |= bit
    return leaves


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
