"""Exact rational polyhedral machinery: V/H conversion by the double
description method, face lattices and f-vectors, Newton polytopes, and the
named polytopes of the build: root polytopes, the PK polytope and the PK
associahedron.  The LP membership test `in_convex_hull`, a revised
phase-1 simplex on ints with the lexicographic rule, is kept only for
perfbench's polytopes workload; nothing in the package calls it.
Membership in the root polytope needs no LP
(`root_polytope_contains`, one noncrossing expansion).  `pk_polytope`,
`root_polytope`, `root_polytope_contains`, `tau_newton_facets`,
`pk_associahedron` and `triangulation_volume` run `combinat.check_kn`
first.

The PK polytope, the tau-product Newton polytope and the PK associahedron
are H-polytopes P = {gamma_J >= c_J over nonfrozen J, row sums lam}
(`_newton_hrep`), and they are read off the noncrossing fan, with no double
description and no face-lattice walk (`_fan_polytope`; Hohlweg, Pilaud and
Stella, Polytopal realizations of finite type g-vector fans, 2018).  The
maximal noncrossing collections C are the cones of a complete fan, which
`roots._Fan.walls` certifies unimodular, and each gives the integer point
x_C with gamma_J(x_C) = c_J for J in C.  One pass over the edges of the
search DAG of the collections groups them by the AND of the members'
argmin masks, and each distinct mask is certified once to meet every
factor, so that x_C, the sum of its one point per factor, is in the
Minkowski sum, inside P.  Then the x_C are exactly the vertices of P, the
facets tight at x_C are the J of U, the union of the C that reach it (the
normal cone of x_C is the union of those C), and the faces are the sets
F_S of vertices tight on every J of a noncrossing S, of codimension the
largest |S| giving F_S.  When P is simple, as the tau-product Newton
polytope is, distinct S give distinct faces, and the faces are counted
from (k, n) alone, by the standard Young tableaux of the k x (n-k)
rectangle counted by descents (`combinat._face_numbers`); otherwise, as
for the PK polytope, the F_S are deduplicated.  If some certificate
fails, or the collections number more than MAX_COLLECTIONS (their number
is catalan_mdim(k, n - k), read before any search), P comes from the
double description.

The root-polytope volume is the number of collections, the leaf count of
the search DAG: with every cone unimodular, each simplex conv(0, v_J : J
in C) has relative volume 1/d!, and no determinant is read.

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
a point is a vertex iff the facets tight at it meet in it alone, and on
any other polytope a face's dimension is one more than the largest among
its nonempty proper intersections with the facets, memoised per face.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from operator import and_, mul

from . import linalg
from .combinat import (MAX_COLLECTIONS, ResourceLimitExceeded, _bits, _face_numbers, _search_dag,
                       check_kn, nonfrozen_subsets)
from .polynomial import delta, pk_factors, planar_face_range, tau
from .roots import _fan, _running_sums, gamma_hat, grid_point, row_sums, v_root

F = Fraction
MAX_RAYS = 200000  # the most rays a double description may hold


# ---------------------------------------------------------------------------
# exact LP (revised phase-1 simplex, lexicographic rule)

def in_convex_hull(p, points):
    """Is p a convex combination of the given points?  Raises ValueError
    when the points and p do not all have one length.

    Phase 1 of the revised simplex method (Dantzig, Orden and Wolfe, Pacific
    J. Math. 1955) on A'lam + S*a = b, lam, a >= 0, on ints: the columns of
    A' are the points, scaled by their common denominator L
    (`linalg._integral`), each over a last entry 1; b is L*p over 1, both
    scaled by the common denominator of L*p, which only rescales lam; and
    S = diag(sign b), so that the artificials a start basic at |b|.  p is
    in the hull iff a can reach 0.  Only the rows [beta_i | G_i] are stored,
    G = D*B^-1 for the basis matrix B and beta = G*b, plus the objective row
    [z0 | g], g = D*1*B^-1 over the basic artificials, and z0 = g*b their
    sum; at the start B = S, so G = S, beta = |b|, g = sign b and D = 1.
    Each step prices every point column, z_c = g*A'_c, enters the largest
    positive z_c (Dantzig; the lowest index on ties), forms its column
    G*A'_c and pivots it in through `linalg._pivot`, with the column
    prepended to each stored row.  That keeps every row D times the
    rational one, D > 0 the basis determinant up to sign (Edmonds, J. Res.
    NBS 1967), so D cancels in ratios.  It stops when z0 = 0 (p is in the
    hull) or no z_c is positive (p is not).

    The leaving row is the lexicographic least [beta_i | G_i] / col_i over
    col_i > 0, compared by cross-multiplication; the rows of a nonsingular
    G never tie.  Every stored row starts lexicographically positive
    (beta_i = |b_i|, and G_i = e_i where b_i = 0) and this rule keeps it
    so.  Each pivot subtracts a positive multiple of a lexicographically
    positive row from the objective row, so [z0 | g] / D, which the basis
    determines, strictly decreases, and no basis repeats: the method stops.
    Some row has col_i > 0 whenever z_c > 0, since z0 >= 0 bounds phase 1
    below."""
    if not points:
        return False
    d = len(p)
    if any(len(q) != d for q in points):
        raise ValueError("points of unequal lengths")
    flat, L = linalg._integral([*chain.from_iterable(points)])
    b, s = linalg._integral([L * x for x in p])
    b.append(s)
    m = d + 1
    # each column behind two zeros, so that it dots a stored row
    # [entering column | beta | G] straight to G*A'_c
    cols = [(0, 0, *flat[q * d:(q + 1) * d], 1) for q in range(len(points))]
    sign = [-1 if x < 0 else 1 for x in b]
    T = [[0, abs(b[i])] + [sign[i] * (i == j) for j in range(m)] for i in range(m)]
    T.append([0, sum(map(abs, b))] + sign)
    prev = 1
    while T[-1][1]:
        z = T[-1]
        costs = [sum(map(mul, z, col)) for col in cols]
        best = max(costs)
        if best <= 0:
            return False
        col = cols[costs.index(best)]
        r = None
        for i in range(m):
            row = T[i]
            a = row[0] = sum(map(mul, row, col))
            if a > 0:
                if r is not None:
                    lead = T[r]
                    # the first pair is the entering slots: a*ar - ar*a = 0
                    for x, y in zip(row, lead):
                        if cmp := x * ar - y * a:
                            break
                    if cmp > 0:
                        continue
                r, ar = i, a
        z[0] = best
        prev = linalg._pivot(T, r, 0, prev)
    return True


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
    which it shares with no other face.  ValueError, naming rows, for an
    empty list of rows.
    """
    if not rows:
        raise ValueError(f"cone_rays needs at least one row, got {rows!r}")
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

    def f_vector(self):
        return face_lattice_f_vector(self)


def _mask(idxs):
    m = 0
    for i in idxs:
        m |= 1 << i
    return m


def _affine_basis(points):
    """(origin, basis) for the affine hull of the points: the first point
    and the first maximal independent family of differences from it.
    ValueError for no points or points of unequal lengths."""
    if not points:
        raise ValueError("empty point set")
    if len({len(p) for p in points}) > 1:
        raise ValueError("points of unequal lengths")
    origin = points[0]
    diffs = [[x - y for x, y in zip(p, origin)] for p in points[1:]]
    return origin, [diffs[i] for i in _independent_rows(diffs)]


def hull_of_points(points):
    """PolytopeRep of the convex hull of a finite point set: facets via the
    double description of the dual cone, vertices as the points that the
    facet incidence singles out."""
    pts = sorted(set(tuple(linalg._exact(x) for x in p) for p in points))
    origin, basis = _affine_basis(pts)
    m = len(origin)
    d = len(basis)
    # equalities: null space of basis (R^m for one point), anchored at origin
    eqs = [(linalg._exact(-sum(a * x for a, x in zip(nv, origin))),
            tuple(nv)) for nv in linalg.nullspace(basis or [[0] * m])]
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
    *basis, x0 = [vec[:ambient] for vec in null]
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

    Faces are vertex bitmasks.  The face lattice is coatomic, so each facet
    of a face F is F's intersection with some facet of P, and dim F is one
    more than the largest dimension of its nonempty proper intersections
    with the facets of P; a vertex has none, and dimension 0.  Each face is
    reached from P by such intersections and memoised once.
    """
    dims = {}

    def dim(face):
        d = -1
        for g in {face & inc for inc in P.incidence} - {0, face}:
            e = dims[g] if g in dims else dim(g)
            if e > d:
                d = e
        dims[face] = d = d + 1
        return d

    if P.vertices:
        dim(_mask(range(len(P.vertices))))
    return _f_vector(dims.values())


def _f_vector(dims):
    """[1, then the number of faces of each dimension 0, 1, ...] from the
    dimensions of the nonempty faces."""
    counts = Counter(dims)
    return [1] + [counts[j] for j in range(max(counts, default=-1) + 1)]


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
    check_kn(k, n)
    if hat:
        pts = [grid_point({}, k, n)]
        pts += [grid_point(gamma_hat(J, k, n), k, n) for J in nonfrozen_subsets(k, n)]
    else:
        pts = [grid_point(v_root(J, k, n), k, n) for J in nonfrozen_subsets(k, n)]
        pts.append(grid_point({}, k, n))
    return hull_of_points(pts)


def root_polytope_contains(x, k, n):
    """Is the dense grid point x (`roots.grid_point`) in the root polytope
    R = conv(0, v_J : J nonfrozen)?  No LP: the simplices conv(0, v_J : J
    in C) over the maximal noncrossing collections C triangulate R, and
    their cones form a complete fan of the row-sum-zero space, so x is in
    R iff its row sums vanish and the coefficients of its unique expansion
    (`roots.noncrossing_decompose`, here the fan walk on x's lattice
    coordinates) sum to at most 1.  Raises ValueError unless
    2 <= k <= n - 2 and x has (k-1)(n-k) coordinates.  Nothing in the
    package or in perfbench calls it yet."""
    check_kn(k, n)
    w = n - k
    if len(x) != (k - 1) * w:
        raise ValueError(f"a ({k}, {n}) grid point has {(k - 1) * w} coordinates, not {len(x)}")
    if any(row_sums(x, k, n)):
        return False
    return not any(x) or sum(_fan(k, n).locate(_running_sums(x, w)).values()) <= 1


def triangulation_volume(k, n, max_collections=MAX_COLLECTIONS):
    """Relative volume of the root polytope in units 1/d!: the number of
    maximal noncrossing collections C, the leaves of the search DAG, each
    simplex conv(0, v_J : J in C) unimodular by `roots._Fan.walls`.
    """
    check_kn(k, n)
    count = _search_dag(k, n, max_collections).count
    _fan(k, n).walls()
    return count


def pk_associahedron(k, n):
    """Minkowski sum of all planar faces F^{(i)}_J, the Newton polytope of
    the product of the face polynomials delta^{(i)}_J, certified by
    `_newton_hrep` from the exponent vectors of each delta without forming
    the product.  The facets come out as gamma_J rows plus row-sum
    equalities, the form `pk_polytope` uses.  Returns (PolytopeRep,
    summand count)."""
    check_kn(k, n)
    pairs = planar_face_range(k, n)
    _, _, P, agrees = _newton_hrep([newton_points(delta(i, J, k, n)) for (i, J) in pairs],
                                   k, n)
    if not agrees:
        raise AssertionError("the gamma_J H-rep is not the Minkowski sum of the planar faces")
    return P, len(pairs)


def tau_newton_facets(k, n):
    """Facet data of Newt(prod over all k-subsets of tau_J), monomial
    content discarded: constants c_J = min of gamma_J over the polytope,
    row sums lambda_i, and whether the candidate H-rep {gamma_J >= c_J}
    carves out exactly the Newton polytope (`_newton_hrep`).  Returns dict
    with keys 'constants', 'lambda', 'agrees', 'polytope'."""
    check_kn(k, n)
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
    every factor point.  The gamma_J rows are the cached fan's
    (`roots._Fan.gammas`), in the order of its verts, so the inequality
    rows and the fan's vertices share one index.  Each factor's points
    have one row sum vector (ValueError otherwise), and these add up to
    lam.  So Newt lies in
    P = {gamma_J >= c_J over nonfrozen J, row sums lam}, and `agrees`
    (every vertex of P is in the sum, `_in_minkowski_sum`) gives P inside
    Newt: agrees iff P == Newt.

    P is read off the noncrossing fan (`_fan_polytope`), which certifies
    every vertex in the sum before it builds P, so agrees is True there.
    It returns None when some vertex fails its certificate or
    catalan_mdim(k, n - k), the number of collections, exceeds
    MAX_COLLECTIONS; then P comes from the double description
    (`polytope_from_inequalities`), and a vertex is certified with the
    facets tight at it, once `_singles_out` checks that they single it
    out.
    """
    lam = [0] * (k - 1)
    for pts in factors:
        sums = {tuple(row_sums(p, k, n)) for p in pts}
        if len(sums) != 1:
            raise ValueError(f"a factor has the unequal row sums {sorted(sums)}")
        lam = [a + b for a, b in zip(lam, sums.pop())]
    fan = _fan(k, n)
    # the table: gamma_J at every point of every factor
    table = [[[sum(map(mul, gamma, p)) for p in pts] for pts in factors] for gamma in fan.gammas]
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
    constants = dict(zip(fan.verts, c))
    # gamma_J is a nonzero 0/1 row and a row-sum row has 1s: both primitive
    ineqs = [(-cJ, gamma) for cJ, gamma in zip(c, fan.gammas)]
    eqs = row_sum_equalities(k, n, lam)
    P = _fan_polytope(fan, ineqs, eqs, list(chain(*factors)), argmin, factor_bits)
    if P is not None:
        return constants, lam, P, True
    P = polytope_from_inequalities(ineqs, eqs, (k - 1) * (n - k))
    if not all(_singles_out(i, P.incidence) for i in range(len(P.vertices))):
        raise AssertionError("tight facet normals do not single out a vertex")
    # the AND of the argmin masks of the facets tight at each vertex
    keys = [reduce(and_, (a for a, inc in zip(argmin, P.incidence) if inc >> i & 1), -1)
            for i in range(len(P.vertices))]
    return constants, lam, P, all(_in_minkowski_sum(key, factor_bits) for key in keys)


def _fan_polytope(fan, ineqs, eqs, points, argmin, factor_bits):
    """The _FanPolytope P = {gamma_J >= c_J over nonfrozen J, row sums
    lam}, given as the rows -c_J + gamma_J >= 0 in the order of fan.verts,
    read off the noncrossing fan; None when catalan_mdim(k, n - k), the
    number of collections, exceeds MAX_COLLECTIONS, with no search built,
    or some vertex fails its certificate.  points are the factor points,
    numbered factor after factor, argmin and factor_bits masks over them
    as in `_newton_hrep`.

    One pass over the search DAG's edges (`SearchDag.fold_sets`) gives
    each node a dict {key: U} over the paths from it to the leaf: key the
    AND of the argmin masks of the path's members and U the union of their
    bitmasks over fan.verts, so the paths that share a key are merged at
    every node.  At the root the paths are the maximal collections C, and
    C is certified by `_in_minkowski_sum` on its key: then each factor has
    a point at which every gamma_J, J in C, takes its factor minimum, and
    the sum q of such points has gamma_J(q) = c_J on C, whose gamma_J are
    a basis modulo the row sums, so q = x_C, in Newt, inside P.  `roots._Fan.walls` certifies
    every C unimodular, so the key holds one point per factor, and x_C is
    their sum.  A vertex of Newt is such a sum in one way only, so the C
    with one vertex share their key, and U is the union of those C.
    With every x_C feasible, P is dual to the fan (Hohlweg, Pilaud and
    Stella, Polytopal realizations of finite type g-vector fans, 2018):
    - w = sum over J in C of a_J gamma_J with every a_J > 0 takes its
      minimum over P at x_C alone, since the gamma_J of C are a basis
      modulo the row sums; so x_C is a vertex;
    - every functional lies in some noncrossing cone (fan completeness),
      so the normal cone of any vertex meets the interior of a maximal
      one, and P has no other vertex;
    - a w in the relative interior of the cone of a noncrossing S is
      minimized on F_S, the vertices tight on every J in S, so every face
      is some F_S, and its codimension is the largest |S| with that F_S.
    The facets tight at a vertex x are its U, with no slack read: J is
    tight at x iff gamma_J lies in the normal cone of x (c_J is the
    minimum of gamma_J over Newt, inside P); that normal cone is the union
    of the cones C with x_C = x; and a ray of a simplicial fan lies in a
    maximal cone only as one of that cone's rays.  So incidence[J] holds
    the vertices whose U holds J, and P is simple iff every U has d
    members.  `_FanPolytope.f_vector` counts the faces so.

    For PK every x_C is feasible, at every shape.  At a wall (r, X) with
    relation S (v_r + v_X = sum over S of v_s, `roots._Fan.exchange`),
    delta = gamma_r + gamma_X - sum over S of gamma_s vanishes modulo the
    row sums, so it is a combination of the row-sum functionals and takes
    the one value delta(lam) on P.  S lies in the wall W, so the slack of
    gamma_X at x_{W+r} is the sum of c_s over S, minus c_r, minus c_X, plus
    delta(lam).  For PK, c = -1 and lam = 0, so the slack is 2 - |S|, and
    |S| <= 2 because a pair has two tail swaps.  So no wall value is
    negative: each x_C satisfies the inequality of its neighbour across
    every wall, and local convexity across every wall is global (De Loera,
    Rambau and Santos, Triangulations, 2010).  A slack of 0, |S| = 2, is a
    tight wall, which makes PK non-simple.  The tau product's wall values
    are only measured (the least is 1 at every shape tried), so the key
    certificate still decides for both.
    """
    def add(keys, below, v):
        a, bit = argmin[v], 1 << v
        keys = {} if keys is None else keys
        for key, U in below.items():
            key &= a
            keys[key] = keys.get(key, 0) | U | bit
        return keys

    try:  # the cap, from (k, n) alone, raises before any search is built
        found = _search_dag(fan.k, fan.n, MAX_COLLECTIONS).fold_sets({-1: 0}, add)
    except ResourceLimitExceeded:
        return None
    if not all(_in_minkowski_sum(key, factor_bits) for key in found):
        return None
    fan.walls()
    # a certified key meets every factor: in one point each iff it has one per factor
    if any(key.bit_count() != len(factor_bits) for key in found):
        raise AssertionError("a certified key has two points of one factor")
    verts = sorted((tuple(map(sum, zip(*[points[(key & bits).bit_length() - 1]
                                         for bits in factor_bits]))), U)
                   for key, U in found.items())
    incidence = [0] * len(ineqs)
    for i, (_x, U) in enumerate(verts):
        for j in _bits(U):
            incidence[j] |= 1 << i
    return _FanPolytope([x for x, _U in verts], ineqs, eqs, len(points[0]), incidence, fan,
                        all(U.bit_count() == fan.dim for _x, U in verts))


class _FanPolytope(PolytopeRep):
    """A PolytopeRep read off the noncrossing fan (`_fan_polytope`), whose
    faces are the F_S over the noncrossing collections S."""

    def __init__(self, vertices, inequalities, equalities, ambient, incidence, fan, simple):
        super().__init__(vertices, inequalities, equalities, ambient, incidence)
        self._fan, self._simple = fan, simple

    def f_vector(self):
        """When every vertex is tight on exactly d facets, P is simple and
        x_C is tight on the J of C alone; then F_S holds the x_C with C
        containing S, and distinct S give distinct faces (in a simplicial
        sphere the maximal faces containing S meet in S), so the faces of
        codimension i are the noncrossing sets of i nonfrozen subsets,
        counted from (k, n) alone by `combinat._face_numbers`.  Otherwise
        the F_S are deduplicated, each at its largest |S|."""
        if self._simple:
            return [1] + _face_numbers(self._fan.k, self._fan.n)[::-1]
        codims = {}
        adj, incidence = self._fan.adj, self.incidence

        def grow(cand, size, face):
            if codims.get(face, -1) < size:
                codims[face] = size
            while cand:
                v = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                grow(cand & adj[v], size + 1, face & incidence[v])

        grow((1 << len(adj)) - 1, 0, _mask(range(len(self.vertices))))
        d = max(codims.values())  # the codimension of a vertex x_C
        return _f_vector(d - size for size in codims.values())


def _in_minkowski_sum(key, factor_bits):
    """Certify that the vertex v of the bounding H-polytope P at which
    phi = sum of gamma_J over J in S takes its minimum over P alone lies in
    the Minkowski sum of the factor point sets, given key, the AND of the
    argmin masks of S.

    The sum lies in P, so phi is at least phi(v) = sum of c_J over J in S
    on it, and its minimum there is the sum of the per-factor minima of
    phi; if they add up to phi(v), the sum's face minimizing phi lies in
    the face {v} of P, and v is in the sum; if v is in the sum, they do.
    The minimum of a sum of linear forms is at least the sum of their
    minima, with equality iff one point attains each; so they add up to
    phi(v) iff every factor has a point at which each gamma_J, J in S,
    takes its minimum over the factor: iff key meets the bits of every
    factor."""
    return all(key & bits for bits in factor_bits)
