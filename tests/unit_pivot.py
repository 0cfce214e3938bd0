"""Test oracles that the package no longer runs: the noncrossing graph
from one crossing test per pair of subsets, before its rows came from
bitmasks, the Bron-Kerbosch search of the maximal noncrossing collections
before its subtrees were merged into `combinat.SearchDag`, the roots in the
start-cone basis of `roots._Fan`, the per-leaf unit-pivot fold over
that search that checks every maximal collection unimodular on them, the
f-vector walked one dimension at a time before
`polytope.face_lattice_f_vector` became one memoised recursion, and the
fan walk on dense rows before `roots._Fan.locate` kept two ints per cone
member."""
import weakref
from fractions import Fraction
from math import gcd

from grascat import linalg
from grascat.combinat import (_bits, _degeneracy_order, _noncrossing_graph,
                              compatibility_degree, nonfrozen_subsets)
from grascat.roots import v_root
from claims import lattice_coords

_ROWS = weakref.WeakKeyDictionary()


def _reference_graph(k, n):
    """(the nonfrozen k-subsets of [1, n], the adjacency bitmasks of the
    noncrossing graph on them), as `combinat._noncrossing_graph` built it
    before its rows came from bitmasks: one `compatibility_degree` per
    pair of subsets."""
    verts = tuple(nonfrozen_subsets(k, n))
    m = len(verts)
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if not compatibility_degree(verts[a], verts[b], n):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return verts, adj


def _reference_locate(fan, target):
    """`fan.locate(target)` as `roots._Fan.locate` walked it before its cone
    members held two ints: a dense row [1 | e_p | b_p] per member, start
    position p, the coefficients of eps^0, ..., eps^d of the start point
    p0 = sum_i (1 + eps^i) v_{start_i} and the target's coordinate b_p,
    every flip adding the leaving row to the rows of S.  It reads the
    fan's start, start_terms, adj and exchange, so the flips it makes go
    through `fan.exchange`."""
    d = fan.dim
    goal, scale = linalg._integral(target)
    rows = {v: [1] + [int(q == p) for q in range(d)] + [sum([x * goal[t] for t, x in terms])]
            for p, (v, terms) in enumerate(zip(fan.start, fan.start_terms))}

    def exits_first(row_p, row_q):
        b_p, b_q = row_p[-1], row_q[-1]
        for t in range(d + 1):
            s = row_p[t] * b_q - row_q[t] * b_p
            if s:
                return s > 0
        raise AssertionError("two exit times coincide")

    while True:
        r = None
        for v, row in rows.items():
            if row[-1] < 0 and (r is None or exits_first(row, rows[r])):
                r = v
        if r is None:
            out = {fan.verts[v]: rows[v][-1] for v in sorted(rows) if rows[v][-1]}
            return out if scale == 1 else {J: linalg._exact(Fraction(b, scale))
                                           for J, b in out.items()}
        pivot = rows.pop(r)
        entering = ((1 << len(fan.verts)) - 1) & ~(1 << r)
        for i in rows:
            entering &= fan.adj[i]
        X = entering.bit_length() - 1
        for s in fan.exchange(r, X):
            rows[s] = [x + y for x, y in zip(rows[s], pivot)]
        rows[X] = [-y for y in pivot]


def _reference_f_vector(P):
    """f-vector including the empty face and the polytope itself, as
    `polytope.face_lattice_f_vector` walked it before it became one
    memoised recursion: faces are vertex bitmasks, walked one dimension at
    a time down from P, and the facets of a face are its inclusion-maximal
    nonempty proper intersections with the facets of P.  The walk starts
    at P unless P has no vertex: then the empty face is its only face."""
    level = {(1 << len(P.vertices)) - 1} - {0}
    counts = []
    while level:
        counts.append(len(level))
        below = set()
        for f in level:
            cuts = sorted({f & inc for inc in P.incidence} - {0, f},
                          key=int.bit_count, reverse=True)
            facets = []
            for g in cuts:
                if all(g & h != g for h in facets):
                    facets.append(g)
            below.update(facets)
        level = below
    return [1] + counts[::-1]


def _reference_fold(k, n, start, step, leaf):
    """The search that `_build_search_dag` memoises, as it was before its
    subtrees were merged: one recursive call per node of the search tree,
    threading step(acc, v) down every branch and handing each maximal
    clique's value to leaf.  Returns the leaf count.

    The build renumbers the graph so that index order is the degeneracy
    order; here the vertices keep their indices in `_nonfrozen(k, n)` and
    are ranked by that order instead.  The top level adds every vertex in
    degeneracy order, with no pivot; every node below it chooses its
    pivot from scratch, the first of highest |P & N(u)| in rank order, and
    adds its candidates in rank order."""
    adj = _noncrossing_graph(k, n)[1]
    m = len(adj)
    order = _degeneracy_order(m, adj)
    rank = {v: i for i, v in enumerate(order)}
    leaves = 0

    def ranked(mask):
        return sorted(_bits(mask), key=rank.__getitem__)

    def expand(acc, P, X):
        nonlocal leaves
        if not P and not X:
            leaves += 1
            leaf(acc)
            return
        pivot = max(ranked(P | X), key=lambda u: (P & adj[u]).bit_count())
        for v in ranked(P & ~adj[pivot]):
            expand(step(acc, v), P & adj[v], X & adj[v])
            P &= ~(1 << v)
            X |= 1 << v

    done = 0
    for v in order:
        expand(step(start, v), (1 << m) - 1 & adj[v] & ~done, done & adj[v])
        done |= 1 << v
    return leaves


def start_rows(fan):
    """rows[i]: v_{fan.verts[i]} in the basis of the fan's start cone, an
    int tuple (the start cone is a lattice basis), kept per fan object."""
    rows = _ROWS.get(fan)
    if rows is None:
        coords = [lattice_coords(v_root(J, fan.k, fan.n), fan.k, fan.n) for J in fan.verts]
        inv = linalg.inverse([[coords[i][t] for i in fan.start] for t in range(fan.dim)])
        rows = _ROWS[fan] = [tuple(sum(a * c for a, c in zip(row, v)) for row in inv)
                             for v in coords]
    return rows


def unit_pivot_fold(fan, rows, leaf):
    """Fold over the reference search tree (`_reference_fold`) of the
    maximal noncrossing collections of the fan's (k, n), whose branches
    carry (R, echelon), R the bitmask of the collection so far and echelon
    its members' rows, reduced; checks every collection unimodular, hands each one's
    (R, echelon) to leaf(R, echelon) and returns the number of leaves.

    rows[v] starts with v's d = fan.dim coordinates in the start-cone
    basis; any entries after them ride along through every row operation.
    A branch that adds v reduces v's row against the branch's rows, in the
    order kept, by `linalg._pivot` at prev = p = +-1 (exact), skipping a
    row whose pivot column the new row has 0 in, and keeps it with its
    first +-1 coordinate as pivot.  Each kept row has a +-1 pivot in a new
    column and 0 in the earlier pivot columns, and the row operations are
    integer and unimodular, so a leaf of d kept rows is triangular with
    +-1 on its diagonal up to a column permutation: unimodular.  A nonzero
    reduced row without a +-1 coordinate raises: when its coordinates
    share a factor g > 1, every completion of the branch has |det|
    divisible by g; when they are coprime, no unit pivot is found, which
    does not make the cone non-unimodular.  A zero reduced row leaves a
    short leaf, |det| 0, which raises before leaf sees it.
    """
    verts, d = fan.verts, fan.dim

    def named(R):
        return tuple(sorted(verts[i] for i in _bits(R)))

    def add(acc, v):
        R, echelon = acc
        R |= 1 << v
        M = [None, rows[v]]
        for M[0], col in echelon:
            if M[1][col]:
                linalg._pivot(M, 0, col, M[0][col])
        row = M[1]
        col = next((c for c, x in enumerate(row) if x == 1 or x == -1), d)
        if col < d:
            return R, echelon + ((row, col),)
        g = gcd(*row[:d])
        if g > 1:
            raise AssertionError(f"non-unimodular partial collection {named(R)}: "
                                 f"every completion has |det| divisible by {g}")
        if g:
            raise AssertionError(f"no unit pivot for the partial collection {named(R)}")
        return R, echelon

    def full(acc):
        R, echelon = acc
        if not len(echelon) == d == R.bit_count():
            raise AssertionError(f"non-unimodular collection {named(R)}: |det| 0")
        leaf(R, echelon)

    return _reference_fold(fan.k, fan.n, (0, ()), add, full)
