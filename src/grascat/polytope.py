"""Exact rational polyhedral machinery: V/H conversion by the double
description method, face lattices and f-vectors, Newton polytopes, and the
named polytopes of the build: root polytopes, the PK polytope, fibered
simplices, planar faces and the PK associahedron.  The LP membership test
`in_convex_hull` is kept only for perfbench's polytopes workload; nothing
in the package calls it.

The PK polytope, the tau-product Newton polytope and the PK associahedron
are H-polytopes P = {gamma_J >= c_J over nonfrozen J, row sums lam}
(`_newton_hrep`), and they are read off the noncrossing fan, with no double
description and no face-lattice walk (`_fan_polytope`; Hohlweg, Pilaud and
Stella, Polytopal realizations of finite type g-vector fans, 2018).  The
maximal noncrossing collections C are the cones of a complete unimodular
fan, and each gives the integer point x_C with gamma_J(x_C) = c_J for J in
C.  If every distinct x_C satisfies every inequality, the x_C are exactly
the vertices of P, and its faces are the sets F_S of vertices tight on
every J of a noncrossing S, of codimension the largest |S| giving F_S.
If some x_C is infeasible, or the search DAG of the collections has more
than MAX_COLLECTIONS leaves, P comes from the double description.

Every fold over the search DAG of the collections eliminates only through
`linalg._pivot`, as does the LP's integer simplex tableau: the
root-polytope volume and the vertices x_C keep, down each branch, the
members' `roots._fan` rows reduced to +-1 pivots, so every leaf is
unimodular by construction and no determinant is read.

Points are tuples of exact numbers in an ambient R^m, each an int when it
is integral and a Fraction otherwise (`linalg._exact`); a point of the
(k, n) grid is the dense form `roots.grid_point`, which holds the grid
layout (row-major, x_{i,j} at (i-1)(n-k) + j-1); inequality rows and
double-description rays are primitive int vectors (`linalg._primitive`).
The double description holds each extreme ray of the cone of the rows so
far exactly once, with the rows tight on it as a bitmask.
Polytopes that live in an affine subspace carry explicit equalities and
all conversions happen in reduced coordinates of the affine hull.
Combinatorial questions are answered from vertex-facet incidence bitmasks:
a point is a vertex iff the facets tight at it meet in it alone, and the
face lattice of any other polytope is walked one dimension at a time.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import comb, gcd
from operator import mul

from . import linalg
from .combinat import (MAX_COLLECTIONS, ResourceLimitExceeded, _bits,
                       _fold_maximal_noncrossing, check_kn, nonfrozen_subsets)
from .polynomial import chain_poly, delta, pk_factors, planar_face_range, tau
from .roots import _fan, gamma_functional, gamma_hat, grid_point, row_sums, v_root

F = Fraction
MAX_RAYS = 200000  # the most rays a double description may hold


# ---------------------------------------------------------------------------
# exact LP (integer phase-1 simplex with Bland's rule)

def in_convex_hull(p, points):
    """Is p a convex combination of the given points?  Phase-1 simplex
    with Bland's rule on an integer tableau: all rows, so the artificials
    and the objective (the last row), are scaled by one common denominator
    L (`linalg._integral`), which keeps Bland's pivot sequence;
    `linalg._pivot` keeps the tableau D > 0 times the rational one (D the
    basis determinant), so D cancels in ratios."""
    if not points:
        return False
    N = len(points)
    flat, L = linalg._integral([x for t in zip(*points, p, strict=True) for x in t])
    T = [flat[i:i + N + 1] for i in range(0, len(flat), N + 1)]
    T.append([L] * (N + 1))
    T = [row if row[-1] >= 0 else [-x for x in row] for row in T]
    m = len(T)
    T.append([sum(col) for col in zip(*T)])
    basis = list(range(N, N + m))
    prev = 1
    while True:
        z = T[-1]
        enter = next((c for c in range(N) if z[c] > 0), None)
        if enter is None:
            return z[-1] == 0
        # some row has a positive entry: phase 1 is bounded below by 0
        r = min((i for i in range(m) if T[i][enter] > 0),
                key=lambda i: (F(T[i][-1], T[i][enter]), basis[i]))
        prev = linalg._pivot(T, r, enter, prev)
        basis[r] = enter


# ---------------------------------------------------------------------------
# double description

def _independent_rows(rows):
    """Indices of the first maximal linearly independent subfamily of rows
    (each row kept iff it is independent of the rows before it): the pivot
    columns of one elimination of the transpose."""
    return linalg._eliminate([list(col) for col in zip(*rows)])[1]


def cone_rays(rows):
    """Extreme rays, as primitive int vectors, of the pointed cone
    {y : row . y >= 0 for all rows}.

    Incremental double description with the combinatorial adjacency test.
    Each row is replaced by its primitive int multiple, which leaves the
    cone as it is and keeps every dot product in ints.  The start cone is
    simplicial on D independent rows: ray c, column c of their inverse, is
    tight on each start row but the c-th.  Every other row, in order, keeps
    the rays on its nonnegative side, in their order, and appends one ray
    per adjacent (+, -) pair.
    Tight sets are bitmasks over row indices.

    No ray repeats (Fukuda & Prodon, Double description method revisited,
    1996): a pair is adjacent iff no third ray is tight wherever both are,
    so the two span a 2-face with no other old ray on it, and the new ray
    is where that face meets the new hyperplane, in its relative interior,
    which it shares with no other face.
    """
    rows = [linalg._primitive(row) for row in rows]
    D = len(rows[0])
    idxs = _independent_rows(rows)
    if len(idxs) < D:
        raise ValueError("cone is not full-dimensional (or input rank-deficient)")
    inv = linalg.inverse([rows[i] for i in idxs])
    rays = [linalg._primitive([inv[r][c] for r in range(D)]) for c in range(D)]
    start = _mask(idxs)
    tight = [start & ~(1 << i) for i in idxs]
    for i, row in enumerate(rows):
        if start >> i & 1:
            continue
        vals = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        minus = [t for t, v in enumerate(vals) if v < 0]
        new_rays, new_tight = [], []
        for tp in (t for t, v in enumerate(vals) if v > 0):
            for tm in minus:
                common = tight[tp] & tight[tm]
                for t, mask in enumerate(tight):
                    if mask & common == common and t != tp and t != tm:
                        break  # not adjacent
                else:
                    new_rays.append(linalg._primitive(
                        [vals[tp] * x - vals[tm] * y for x, y in zip(rays[tm], rays[tp])]))
                    new_tight.append(common | 1 << i)
        keep = [t for t, v in enumerate(vals) if v >= 0]
        rays = [rays[t] for t in keep] + new_rays
        tight = [tight[t] | (vals[t] == 0) << i for t in keep] + new_tight
        if len(rays) > MAX_RAYS:
            raise ResourceLimitExceeded(f"double description exceeded {MAX_RAYS} rays")
    return rays


# ---------------------------------------------------------------------------
# polytope representation

class PolytopeRep:
    """Vertices plus facet inequalities (c + a . x >= 0) plus the affine
    hull (b + e . x = 0 rows), with vertex-facet incidence bitmasks: one
    per inequality, bit i set iff vertex i is tight on it.  A caller that
    already has them passes them as incidence; otherwise they are read off
    the dot products."""

    def __init__(self, vertices, inequalities, equalities, ambient, incidence=None):
        self.vertices = vertices
        self.inequalities = inequalities
        self.equalities = equalities
        self.ambient = ambient
        if incidence is None:
            incidence = [_mask(i for i, v in enumerate(vertices)
                               if c + sum(a * x for a, x in zip(coeffs, v)) == 0)
                         for (c, coeffs) in inequalities]
        self.incidence = incidence

    @property
    def dim(self):
        if not self.vertices:
            return -1
        return linalg.rank([[x - y for x, y in zip(v, self.vertices[0])]
                            for v in self.vertices[1:]])

    def contains(self, point):
        return (all(b + sum(e * x for e, x in zip(coeffs, point)) == 0
                    for (b, coeffs) in self.equalities)
                and all(c + sum(a * x for a, x in zip(coeffs, point)) >= 0
                        for (c, coeffs) in self.inequalities))

    def f_vector(self):
        return face_lattice_f_vector(self)


def _mask(idxs):
    m = 0
    for i in idxs:
        m |= 1 << i
    return m


def _affine_basis(points):
    """(origin, basis) for the affine hull of the points: the first point
    and the first maximal independent family of differences from it."""
    origin = points[0]
    diffs = [[x - y for x, y in zip(p, origin)] for p in points[1:]]
    return origin, [diffs[i] for i in _independent_rows(diffs)]


def hull_of_points(points):
    """PolytopeRep of the convex hull of a finite point set: facets via the
    double description of the dual cone, vertices as the points that the
    facet incidence singles out."""
    pts = sorted(set(tuple(linalg._exact(x) for x in p) for p in points))
    if not pts:
        raise ValueError("empty point set")
    m = len(pts[0])
    origin, basis = _affine_basis(pts)
    d = len(basis)
    # equalities: null space of basis (R^m for one point), anchored at origin
    eqs = [(linalg._exact(-sum(a * x for a, x in zip(nv, origin))),
            tuple(linalg._exact(a) for a in nv)) for nv in linalg.nullspace(basis or [[0] * m])]
    if d == 0:
        return PolytopeRep([pts[0]], [], eqs, m)
    rays = cone_rays([list(p) + [1] for p in _reduce_points(pts, origin, basis)])
    # the constant ray (0, ..., 0, 1) is no facet
    ineqs = [_lift_inequality(ray[d], ray[:d], origin, basis)
             for ray in rays if any(ray[:d])]
    incidence = [_mask(i for i, p in enumerate(pts)
                       if c + sum(a * x for a, x in zip(coeffs, p)) == 0)
                 for (c, coeffs) in ineqs]
    keep = [i for i in range(len(pts)) if _singles_out(i, incidence)]
    # the masks over pts, re-indexed to the vertices
    incidence = [_mask(t for t, i in enumerate(keep) if inc >> i & 1) for inc in incidence]
    return PolytopeRep([pts[i] for i in keep], ineqs, eqs, m, incidence)


def _singles_out(i, incidence):
    """Is point i the only point tight on every inequality tight at it?

    With the incidence masks of a polytope's facets over a set of its points
    that holds its vertices, this is the vertex test: the facets tight at a
    point meet in the smallest face holding it, which is the point itself
    exactly when it is a vertex, and otherwise holds two or more vertices.
    """
    common = -1
    for inc in incidence:
        if inc >> i & 1:
            common &= inc
    return common == 1 << i


def _reduce_points(pts, origin, basis):
    """Coordinates of pts in the affine hull of (origin; basis): the dot
    products of p - origin with the basis vectors.

    They are an invertible linear image of the coordinates in the frame
    (origin; basis), so the dual cone's rays come in the same order and
    lower hulls have the same cells; and c + a . t >= 0 in them lifts to the
    ambient row c + (sum_i a_i basis_i) . (x - origin) >= 0, whose normal
    lies in the span of the basis, orthogonal to the equalities."""
    return [tuple(sum(b * (x - y) for b, x, y in zip(row, p, origin)) for row in basis)
            for p in pts]


def _lift_inequality(c, a, origin, basis):
    """The primitive int ambient row C + A . x >= 0 of c + a . t >= 0 in
    the coordinates t of _reduce_points."""
    A = [sum(ai * x for ai, x in zip(a, col)) for col in zip(*basis)]
    return _normalize_ineq(c - sum(x * y for x, y in zip(A, origin)), A)


def _normalize_ineq(c, a):
    vec = linalg._primitive([c, *a])
    return vec[0], vec[1:]


def polytope_from_inequalities(ineqs, eqs, ambient):
    """PolytopeRep from c + a . x >= 0 rows and affine-hull equalities."""
    ineqs = [(linalg._exact(c), tuple(linalg._exact(x) for x in a)) for (c, a) in ineqs]
    eqs = [(linalg._exact(c), tuple(linalg._exact(x) for x in a)) for (c, a) in eqs]
    # x = x0 + B t: the null space of [a | c] is B padded with 0s, then (x0, 1)
    null = linalg.nullspace([[*a, c] for (c, a) in eqs] or [[0] * (ambient + 1)])
    if not null or null[-1][ambient] != 1:
        raise ValueError("inconsistent equalities")
    *basis, x0 = [[linalg._exact(x) for x in vec[:ambient]] for vec in null]
    d = len(basis)
    cone = [[sum(x * y for x, y in zip(a, row)) for row in basis]
            + [c + sum(x * y for x, y in zip(a, x0))] for (c, a) in ineqs]
    cone.append([0] * d + [1])
    verts = []
    for ray in cone_rays(cone):
        if ray[d] == 0:
            raise ValueError("unbounded polyhedron")
        # x = x0 + B t with t = ray[:d] / ray[d]
        verts.append(tuple(
            linalg._exact(F(x0[j] * ray[d] + sum(ray[i] * basis[i][j] for i in range(d)), ray[d]))
            for j in range(ambient)))
    return PolytopeRep(sorted(verts), [_normalize_ineq(c, a) for (c, a) in ineqs],
                       [_normalize_ineq(c, a) for (c, a) in eqs], ambient)


def face_lattice_f_vector(P):
    """f-vector including the empty face and the polytope itself.

    Faces are vertex bitmasks, walked one dimension at a time down from P:
    the facets of a face are its inclusion-maximal nonempty proper
    intersections with the facets of P, and a vertex has none.
    """
    level = {_mask(range(len(P.vertices)))}
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


# ---------------------------------------------------------------------------
# Newton polytopes and the named polytopes

def newton_points(poly):
    """The exponent vectors of a polynomial, sorted."""
    return sorted(poly.terms)


def newton(poly):
    """Newton polytope (hull of exponent vectors)."""
    return hull_of_points(newton_points(poly))


def row_sum_equalities(k, n, lam):
    """The equalities sum_j x_{i,j} = lam_i on the dense grid."""
    return [(-lam[i - 1], grid_point({(i, j): 1 for j in range(1, n - k + 1)}, k, n))
            for i in range(1, k)]


def pk_polytope(k, n):
    """The PK polytope: H-rep {row sums 0, gamma_J + 1 >= 0 over nonfrozen
    J}, certified by `_newton_hrep` to be the Newton polytope of the Laurent
    product P_1...P_{k-1} Q_1...Q_{n-k-1} / prod x_{i,j}."""
    check_kn(k, n)
    Ps, Qs = pk_factors(k, n)
    # the Laurent shift by 1 / prod x_{i,j} moves P_1's points alone
    factors = [[tuple(e - 1 for e in p) for p in newton_points(Ps[0])]]
    factors += [newton_points(f) for f in Ps[1:] + Qs]
    constants, lam, P, agrees = _newton_hrep(factors, k, n)
    if any(c != -1 for c in constants.values()) or any(lam) or not agrees:
        raise AssertionError("the PK H-rep is not the Newton polytope of the PK product")
    return P


def root_polytope(k, n, hat=False):
    """Convex hull of the roots v_J over nonfrozen J (or of 0 and the
    unprojected gamma_hat vectors with hat=True)."""
    if hat:
        pts = [grid_point({}, k, n)]
        pts += [grid_point(gamma_hat(J, k, n), k, n) for J in nonfrozen_subsets(k, n)]
    else:
        pts = [grid_point(v_root(J, k, n), k, n) for J in nonfrozen_subsets(k, n)]
        pts.append(grid_point({}, k, n))
    return hull_of_points(pts)


def triangulation_volume(k, n, max_collections=MAX_COLLECTIONS):
    """Relative volume of the root polytope in units 1/d!: the number of
    maximal noncrossing collections C, each simplex conv(0, v_J : J in C)
    checked unimodular.

    A fold over the Bron-Kerbosch tree whose branches carry unit-pivot
    rows (`_unit_pivot_steps`): the roots in the start-cone basis of
    `roots._fan`, a lattice basis, so every |det| is as in lattice
    coordinates.  A leaf of d = (k-1)(n-k-1) kept rows is triangular with
    +-1 on its diagonal up to a column permutation: unimodular, and the
    leaf only counts its rows.
    """
    fan = _fan(k, n)
    add, full = _unit_pivot_steps(fan, fan.rows)
    return _fold_maximal_noncrossing(k, n, max_collections, (0, ()), add, full)


def _unit_pivot_steps(fan, rows):
    """(add, full): the step and the leaf check of a fold over the
    Bron-Kerbosch tree whose branches carry (R, echelon), R the bitmask of
    the collection so far and echelon its members' rows, reduced.

    rows[v] starts with v's d = fan.dim coordinates in the start-cone
    basis; any entries after them ride along through every row operation.
    A branch that adds v reduces v's row against the branch's rows, in the
    order kept, by `linalg._pivot` at prev = p = +-1 (exact), skipping a
    row whose pivot column the new row has 0 in, and keeps it with its
    first +-1 coordinate as pivot.  Each kept row has a +-1 pivot in a new
    column and 0 in the earlier pivot columns, and the row operations are
    integer and unimodular.  A nonzero reduced row without a +-1
    coordinate raises: when its coordinates share a factor g > 1, every
    completion of the branch has |det| divisible by g; when they are
    coprime, no unit pivot is found, which does not make the cone
    non-unimodular.  A zero reduced row leaves a short leaf, |det| 0, on
    which full raises.
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

    return add, full


def omega_vertices(k, m):
    """0/1 vertices of the fibered simplex: row i has its 1 in column c_i
    with c_1 <= c_2 <= ... <= c_{k-1}; dense points in R^{(k-1) x m}, the
    exponent vectors of the chain sum over [1, m] in the (k, k + m) grid."""
    return list(chain_poly(1, [(1, m)] * (k - 1), k, k + m).terms)


def planar_face_polytope(i, J, k, n):
    """Vertex list of the planar face F^{(i)}_J as a PolytopeRep: the
    exponent vectors of its face polynomial delta."""
    return hull_of_points(list(delta(i, J, k, n).terms))


def pk_associahedron(k, n):
    """Minkowski sum of all planar faces F^{(i)}_J, the Newton polytope of
    the product of the face polynomials delta^{(i)}_J, certified by
    `_newton_hrep` from the exponent vectors of each delta without forming
    the product.  The facets come out as gamma_J rows plus row-sum
    equalities, the form `pk_polytope` uses.  Returns (PolytopeRep,
    summand count)."""
    pairs = planar_face_range(k, n)
    _, _, P, agrees = _newton_hrep([newton_points(delta(i, J, k, n)) for (i, J) in pairs],
                                   k, n)
    if not agrees:
        raise AssertionError("the gamma_J H-rep is not the Minkowski sum of the planar faces")
    return P, len(pairs)


def minkowski_summand_count(k, n):
    return comb(n, k) - k * (n - k) - 1


def minimize_face(vertices, functional):
    """(minimum value, vertex sublist attaining it) of a . x over a vertex
    list."""
    vals = [sum(a * x for a, x in zip(functional, v)) for v in vertices]
    m = min(vals)
    return m, [v for v, val in zip(vertices, vals) if val == m]


def tau_newton_facets(k, n):
    """Facet data of Newt(prod over all k-subsets of tau_J), monomial
    content discarded: constants c_J = min of gamma_J over the polytope,
    row sums lambda_i, and whether the candidate H-rep {gamma_J >= c_J}
    carves out exactly the Newton polytope (`_newton_hrep`).  Returns dict
    with keys 'constants', 'lambda', 'agrees', 'polytope'."""
    factors = [pts for J in combinations(range(1, n + 1), k)
               if len(pts := newton_points(tau(J, k, n).content_split()[2])) > 1]
    constants, lam, P, agrees = _newton_hrep(factors, k, n)
    return {"constants": constants, "lambda": lam, "agrees": agrees, "polytope": P}


def _newton_hrep(factors, k, n):
    """(constants, lam, P, agrees) for the Newton polytope of a product of
    Laurent polynomials with positive coefficients on the (k, n) grid, given
    as the exponent vectors of its factors.

    No coefficients cancel, so Newt(prod f) is the Minkowski sum of the
    Newt(f), and a linear form's minimum over it is the sum of the
    per-factor minima: c_J for gamma_J, read off one table of gamma_J at
    every factor point.  Each factor's points have one row sum vector
    (ValueError otherwise), and these add up to lam.  So Newt lies in
    P = {gamma_J >= c_J over nonfrozen J, row sums lam}, and `agrees`
    (every vertex of P is in the sum, `_in_minkowski_sum`) gives P inside
    Newt: agrees iff P == Newt.

    P is read off the noncrossing fan (`_fan_polytope`), and vertex x_C is
    certified with the collection C that reached it.  Two cases fall back
    to the double description (`polytope_from_inequalities`): some x_C
    infeasible, so that P is not dual to the fan, and a search DAG with
    more than MAX_COLLECTIONS leaves.  There a vertex is certified with
    the facets tight at it, once `_singles_out` checks that they single it
    out.
    """
    lam = [0] * (k - 1)
    for pts in factors:
        sums = {tuple(row_sums(p, k, n)) for p in pts}
        if len(sums) != 1:
            raise ValueError(f"a factor has the unequal row sums {sorted(sums)}")
        lam = [a + b for a, b in zip(lam, sums.pop())]
    subsets = nonfrozen_subsets(k, n)
    gammas = [gamma_functional(J, k, n) for J in subsets]
    # the table: gamma_J at every point of every factor
    table = [[[sum(map(mul, gamma, p)) for p in pts] for pts in factors] for gamma in gammas]
    c = [sum(map(min, row)) for row in table]
    # argmin[j]: the points, numbered factor after factor, at which gamma_j
    # takes its factor's minimum; factor_bits[f]: the points of factor f
    argmin = []
    for row in table:
        low = [min(vals) for vals in row for _ in vals]
        argmin.append(_mask(t for t, (v, m) in enumerate(zip(chain(*row), low)) if v == m))
    factor_bits, offset = [], 0
    for pts in factors:
        factor_bits.append(((1 << len(pts)) - 1) << offset)
        offset += len(pts)
    ineqs = [(-cJ, gamma) for cJ, gamma in zip(c, gammas)]
    eqs = row_sum_equalities(k, n, lam)
    try:
        P, witnesses = _fan_polytope(k, n, lam, ineqs, eqs)
    except _NoFanRoute:
        P = polytope_from_inequalities(ineqs, eqs, (k - 1) * (n - k))
        witnesses = []
        for i in range(len(P.vertices)):
            if not _singles_out(i, P.incidence):
                raise AssertionError("tight facet normals do not single out a vertex")
            witnesses.append([j for j, inc in enumerate(P.incidence) if inc >> i & 1])
    agrees = all(_in_minkowski_sum(S, argmin, factor_bits) for S in witnesses)
    return dict(zip(subsets, c)), lam, P, agrees


class _NoFanRoute(Exception):
    """Some x_C of `_fan_polytope` is infeasible, or the search DAG has more
    than MAX_COLLECTIONS leaves."""


def _fan_polytope(k, n, lam, ineqs, eqs):
    """(P, witnesses) for P = {gamma_J >= c_J over nonfrozen J, row sums
    lam}, given as the rows -c_J + gamma_J >= 0 in `nonfrozen_subsets`
    order, read off the noncrossing fan; witnesses[i] lists (by index) the
    J of the first maximal noncrossing collection C, in search order, with
    x_C = vertex i.

    On the chart x = x0 + y of the row sums, x0 = lam_i in the last column
    of row i and y of zero row sums, gamma_J(x) = gamma_J(x0) + rows[J] . z,
    with rows[J] the start-cone row of `roots._fan` and z = A^T u, where A
    is the start cone's basis and u holds the first n-k-1 entries of each
    row of y.  So x_C, the point with gamma_J = c_J for J in C, solves
    rows[J] . z = b_J = c_J - gamma_J(x0) on C.  One fold over the search
    DAG, `triangulation_volume`'s, carries b_J as an entry after each row;
    a leaf's rows are triangular with +-1 pivots, and back-substitution
    gives x_C as an integer point.  It maps back through start_inv.

    If every distinct x_C satisfies every inequality, P is dual to the fan
    (Hohlweg, Pilaud and Stella, Polytopal realizations of finite type
    g-vector fans, 2018):
    - w = sum over J in C of a_J gamma_J with every a_J > 0 takes its
      minimum over P at x_C alone, since the gamma_J of C are a basis
      modulo the row sums; so x_C is a vertex;
    - every functional lies in some noncrossing cone (fan completeness),
      so the normal cone of any vertex meets the interior of a maximal
      one, and P has no other vertex;
    - a w in the relative interior of the cone of a noncrossing S is
      minimized on F_S, the vertices tight on every J in S, so every face
      is some F_S, and its codimension is the largest |S| with that F_S.
    `_FanPolytope.f_vector` counts the faces so.  Otherwise, and when the
    search DAG has more than MAX_COLLECTIONS leaves, raises
    _NoFanRoute.
    """
    fan = _fan(k, n)
    d, rows, w = fan.dim, fan.rows, n - k
    b = [-c0 - sum(gamma[r + w - 1] * s for r, s in zip(range(0, len(gamma), w), lam))
         for c0, gamma in ineqs]
    add, full = _unit_pivot_steps(fan, [row + (bJ,) for row, bJ in zip(rows, b)])
    found = {}  # z of x_C -> the first C, in search order, that reaches it

    def leaf(acc):
        full(acc)
        R, echelon = acc
        z = [0] * d
        for row, col in reversed(echelon):  # z is 0 at the columns not yet solved
            z[col] = row[col] * (row[d] - sum(map(mul, row, z)))
        found.setdefault(tuple(z), R)

    try:
        _fold_maximal_noncrossing(k, n, MAX_COLLECTIONS, (0, ()), add, leaf)
    except ResourceLimitExceeded as exc:
        raise _NoFanRoute from exc
    inv_cols = list(zip(*fan.start_inv))
    verts = []
    for z, R in found.items():
        slack = [sum(map(mul, row, z)) - bJ for row, bJ in zip(rows, b)]
        if min(slack) < 0:
            raise _NoFanRoute
        u = [sum(map(mul, col, z)) for col in inv_cols]
        x = []
        for i, s in enumerate(lam):
            part = u[i * (w - 1):(i + 1) * (w - 1)]
            x += part
            x.append(s - sum(part))
        verts.append((tuple(x), [j for j, t in enumerate(slack) if not t], list(_bits(R))))
    verts.sort()
    incidence = [0] * len(rows)
    for i, (_x, zeros, _C) in enumerate(verts):
        for j in zeros:
            incidence[j] |= 1 << i
    P = _FanPolytope([x for x, _zeros, _C in verts], [_normalize_ineq(c0, a) for c0, a in ineqs],
                     [_normalize_ineq(c0, a) for c0, a in eqs], (k - 1) * w, incidence,
                     fan.adj, all(len(zeros) == d for _x, zeros, _C in verts))
    return P, [C for _x, _zeros, C in verts]


class _FanPolytope(PolytopeRep):
    """A PolytopeRep read off the noncrossing fan (`_fan_polytope`), whose
    faces are the F_S over the noncrossing collections S."""

    def __init__(self, vertices, inequalities, equalities, ambient, incidence, adj, simple):
        super().__init__(vertices, inequalities, equalities, ambient, incidence)
        self._adj, self._simple = adj, simple

    def f_vector(self):
        """When every vertex is tight on exactly d facets, P is simple and
        x_C is tight on the J of C alone; then F_S holds the x_C with C
        containing S, and distinct S give distinct faces (in a simplicial
        sphere the maximal faces containing S meet in S), so the faces are
        counted by clique size and no face is stored.  Otherwise the F_S
        are deduplicated, each at its largest |S|."""
        if self._simple:
            return [1] + _clique_counts(self._adj)[::-1]
        codims = {}
        adj, incidence = self._adj, self.incidence

        def grow(cand, size, face):
            if codims.get(face, -1) < size:
                codims[face] = size
            while cand:
                v = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                grow(cand & adj[v], size + 1, face & incidence[v])

        grow((1 << len(adj)) - 1, 0, _mask(range(len(self.vertices))))
        d = max(codims.values())  # the codimension of a vertex x_C
        dims = Counter(d - size for size in codims.values())
        return [1] + [dims[j] for j in range(max(dims) + 1)]


def _clique_counts(adj):
    """counts[s]: the cliques of s vertices of the graph with adjacency
    bitmasks adj, the empty one included.

    The cliques inside a vertex set P are the empty one and, for each v in
    P, v joined to a clique inside the neighbours of v that follow it in
    P.  Their counts depend on P alone, so each distinct P is counted
    once."""
    memo = {}

    def inside(P):
        counts = memo.get(P)
        if counts is None:
            counts = [1]
            rest = P
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                for size, c in enumerate(inside(rest & adj[v]), 1):
                    if size < len(counts):
                        counts[size] += c
                    else:
                        counts.append(c)
            memo[P] = counts
        return counts

    return inside((1 << len(adj)) - 1)


def _in_minkowski_sum(S, argmin, factor_bits):
    """Certify that the vertex v of the bounding H-polytope P at which
    phi = sum of gamma_J over J in S takes its minimum over P alone lies in
    the Minkowski sum of the factor point sets.

    The sum lies in P, so phi is at least phi(v) = sum of c_J over J in S
    on it, and its minimum there is the sum of the per-factor minima of
    phi; if they add up to phi(v), the sum's face minimizing phi lies in
    the face {v} of P, and v is in the sum; if v is in the sum, they do.
    The minimum of a sum of linear forms is at least the sum of their
    minima, with equality iff one point attains each; so they add up to
    phi(v) iff every factor has a point at which each gamma_J, J in S,
    takes its minimum over the factor: iff the AND of the argmin masks of
    S meets the bits of every factor."""
    common = -1
    for j in S:
        common &= argmin[j]
    return all(common & bits for bits in factor_bits)


def lift_and_lower_hull(vertices, heights):
    """Cells of the regular subdivision induced by lifting vertex i to
    height h_i and projecting the lower hull.  Returns a sorted list of
    cells, each a tuple of vertex indices.

    Lifting happens in coordinates of the base affine hull, so inputs in a
    proper affine subspace are handled; an affine height function gives the
    trivial one-cell subdivision.
    """
    if len(vertices) != len(heights):
        raise ValueError("need one height per vertex")
    base = [tuple(linalg._exact(x) for x in v) for v in vertices]
    origin, basis = _affine_basis(sorted(set(base)))
    red = _reduce_points(base, origin, basis)
    d = len(basis)
    lifted = [p + (linalg._exact(h),) for p, h in zip(red, heights)]
    hull = hull_of_points(lifted)
    if hull.equalities:
        return [tuple(range(len(vertices)))]
    cells = []
    for (c, a) in hull.inequalities:
        if a[d] <= 0:
            continue  # keep lower facets: inner normal has positive height
        members = [i for i, v in enumerate(lifted)
                   if c + sum(x * y for x, y in zip(a, v)) == 0]
        cells.append(tuple(sorted(members)))
    return sorted(cells)
