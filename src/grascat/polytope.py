"""Exact rational polyhedral machinery: extreme points by LP, V/H
conversion by the double description method, face lattices and f-vectors,
Newton polytopes, Minkowski sums, and the named polytopes of the build:
root polytopes, the PK polytope, fibered simplices, planar faces and the
PK associahedron.

Points are tuples of Fractions in an ambient R^m; polytopes that live in
an affine subspace carry explicit equalities and all conversions happen in
reduced coordinates of the affine hull.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .combinat import _bits, nonfrozen_subsets, enumerate_maximal_noncrossing
from .polynomial import Poly, pk_factors, delta, planar_face_range, planar_face_vertices
from .roots import gamma_hat, v_root, lattice_coords

F = Fraction


class ResourceCap(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exact LP (phase-1 simplex with Bland's rule)

def in_convex_hull(p, points):
    """Is p a convex combination of the given points?  Exact phase-1
    simplex; Bland's rule guarantees termination."""
    if not points:
        return False
    d = len(p)
    m = d + 1
    N = len(points)
    rhs = [F(x) for x in p] + [F(1)]
    cols = [[F(q[r]) if r < d else F(1) for r in range(m)] for q in points]
    # flip rows to make rhs nonnegative
    for r in range(m):
        if rhs[r] < 0:
            rhs[r] = -rhs[r]
            for c in range(N):
                cols[c][r] = -cols[c][r]
    # tableau with artificial basis
    T = [[cols[c][r] for c in range(N)] + [F(1) if a == r else F(0) for a in range(m)] + [rhs[r]]
         for r in range(m)]
    basis = [N + r for r in range(m)]
    ncols = N + m
    # reduced cost row for min sum of artificials
    z = [F(0)] * (ncols + 1)
    for r in range(m):
        for c in range(ncols + 1):
            z[c] += T[r][c]
    while True:
        enter = next((c for c in range(N) if z[c] > 0 and c not in basis), None)
        if enter is None:
            return z[ncols] == 0
        ratios = [(T[r][ncols] / T[r][enter], r) for r in range(m) if T[r][enter] > 0]
        if not ratios:
            return z[ncols] == 0  # unbounded cannot happen in phase 1
        best = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        r = best[1]
        piv = T[r][enter]
        T[r] = [v / piv for v in T[r]]
        for rr in range(m):
            if rr != r and T[rr][enter]:
                f = T[rr][enter]
                T[rr] = [a - f * b for a, b in zip(T[rr], T[r])]
        f = z[enter]
        z = [a - f * b for a, b in zip(z, T[r])]
        basis[r] = enter


def extreme_points(points):
    """The extreme points of a finite rational point set, via exact LP
    separation; interior points are pruned as they are found."""
    pts = sorted(set(tuple(F(x) for x in p) for p in points))
    keep = list(pts)
    i = 0
    while i < len(keep):
        p = keep[i]
        others = keep[:i] + keep[i + 1:]
        if in_convex_hull(p, others):
            keep.pop(i)
        else:
            i += 1
    return keep


# ---------------------------------------------------------------------------
# double description

def _primitive(vec):
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    return tuple(F(v) for v in ints)


def cone_rays(rows, max_rays=200000):
    """Extreme rays of the pointed cone {y : row . y >= 0 for all rows}.

    Incremental double description with the combinatorial adjacency test.
    """
    rows = [tuple(F(v) for v in row) for row in rows]
    D = len(rows[0])
    # initial simplicial subcone from D independent rows
    base, idxs = [], []
    for i, row in enumerate(rows):
        if linalg.rank(base + [list(row)]) > len(base):
            base.append(list(row))
            idxs.append(i)
        if len(base) == D:
            break
    if len(base) < D:
        raise ValueError("cone is not full-dimensional (or input rank-deficient)")
    inv = linalg.inverse(base)
    rays = [_primitive([inv[r][c] for r in range(D)]) for c in range(D)]
    tight = []
    processed = list(idxs)
    for ray in rays:
        mask = 0
        for pos, i in enumerate(processed):
            if sum(a * b for a, b in zip(rows[i], ray)) == 0:
                mask |= 1 << pos
        tight.append(mask)
    for i, row in enumerate(rows):
        if i in idxs:
            continue
        vals = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        plus = [t for t, v in enumerate(vals) if v > 0]
        zero = [t for t, v in enumerate(vals) if v == 0]
        minus = [t for t, v in enumerate(vals) if v < 0]
        if not minus:
            pos = len(processed)
            processed.append(i)
            for t in zero:
                tight[t] |= 1 << pos
            continue
        new_rays, new_tight = [], []
        pos = len(processed)
        for tp in plus:
            for tm in minus:
                common = tight[tp] & tight[tm]
                adjacent = True
                for t in range(len(rays)):
                    if t not in (tp, tm) and tight[t] & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                r = _primitive([vals[tp] * rays[tm][c] - vals[tm] * rays[tp][c]
                                for c in range(D)])
                new_rays.append(r)
                new_tight.append(common | (1 << pos))
        keep_idx = plus + zero
        rays = [rays[t] for t in keep_idx] + new_rays
        tight = [tight[t] | ((1 << pos) if t in zero else 0) for t in keep_idx] + new_tight
        processed.append(i)
        if len(rays) > max_rays:
            raise ResourceCap(f"double description exceeded {max_rays} rays")
        # dedupe (plus x minus can regenerate an existing ray)
        seen = {}
        ded_r, ded_t = [], []
        for r, t in zip(rays, tight):
            if r in seen:
                ded_t[seen[r]] |= t
            else:
                seen[r] = len(ded_r)
                ded_r.append(r)
                ded_t.append(t)
        rays, tight = ded_r, ded_t
    return rays


# ---------------------------------------------------------------------------
# polytope representation

class PolytopeRep:
    """Vertices plus facet inequalities (c + a . x >= 0) plus the affine
    hull (b + e . x = 0 rows), with vertex-facet incidence bitmasks."""

    def __init__(self, vertices, inequalities, equalities, ambient):
        self.vertices = vertices
        self.inequalities = inequalities
        self.equalities = equalities
        self.ambient = ambient
        self.incidence = [
            _mask(i for i, v in enumerate(vertices)
                  if c + sum(a * x for a, x in zip(coeffs, v)) == 0)
            for (c, coeffs) in inequalities]

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
    """(origin, basis) for the affine hull of the points."""
    origin = points[0]
    basis = []
    for p in points[1:]:
        d = [x - y for x, y in zip(p, origin)]
        if linalg.rank(basis + [d]) > len(basis):
            basis.append(d)
    return origin, basis


def hull_of_points(points, ambient=None):
    """PolytopeRep of the convex hull of a finite point set: facets via the
    double description of the dual cone, vertices as the extreme subset."""
    pts = sorted(set(tuple(F(x) for x in p) for p in points))
    if not pts:
        raise ValueError("empty point set")
    m = len(pts[0])
    origin, basis = _affine_basis(pts)
    d = len(basis)
    # equalities: null space of basis (as functionals), anchored at origin
    eqs = []
    if d < m:
        for nv in linalg.nullspace(basis):
            const = -sum(a * x for a, x in zip(nv, origin))
            eqs.append((const, tuple(nv)))
    if d == 0:
        return PolytopeRep([pts[0]], [], eqs, m)
    # reduced coordinates
    red = _reduce_points(pts, origin, basis)
    dual_rows = [list(p) + [F(1)] for p in red]
    rays = cone_rays(dual_rows)
    ineqs_red = []
    for ray in rays:
        a, c = ray[:d], ray[d]
        if all(x == 0 for x in a):
            continue  # the trivial constant ray
        ineqs_red.append((c, a))
    ineqs = [_lift_inequality(c, a, origin, basis) for (c, a) in ineqs_red]
    verts = _vertices_from_hrep(red, ineqs_red)
    vout = [pts[i] for i in verts] if verts else pts
    return PolytopeRep(vout, ineqs, eqs, m)


def _reduce_points(pts, origin, basis):
    """Coordinates of pts in the affine frame (origin; basis)."""
    cols = [list(col) for col in zip(*basis)]  # m x d
    sq = _left_inverse(cols)
    out = []
    for p in pts:
        diff = [x - y for x, y in zip(p, origin)]
        out.append(tuple(sum(sq[r][c] * diff[c] for c in range(len(diff)))
                         for r in range(len(basis))))
    return out


def _left_inverse(cols):
    """(B^T B)^{-1} B^T for a full-column-rank matrix given as rows=m."""
    m, d = len(cols), len(cols[0])
    bt_b = [[sum(cols[r][i] * cols[r][j] for r in range(m)) for j in range(d)]
            for i in range(d)]
    inv = linalg.inverse(bt_b)
    return [[sum(inv[i][t] * cols[r][t] for t in range(d)) for r in range(m)]
            for i in range(d)]


def _lift_inequality(c, a, origin, basis):
    """Rewrite c + a . t >= 0 (reduced coords) as C + A . x >= 0 in ambient
    coordinates via t = (B^T B)^{-1} B^T (x - origin)."""
    cols = [list(col) for col in zip(*basis)]
    sq = _left_inverse(cols)
    d = len(basis)
    m = len(origin)
    A = [sum(a[r] * sq[r][j] for r in range(d)) for j in range(m)]
    C = c - sum(A[j] * origin[j] for j in range(m))
    cc, aa = _normalize_ineq(C, A)
    return (cc, aa)


def _normalize_ineq(c, a):
    vec = _primitive([F(c)] + [F(x) for x in a])
    return vec[0], tuple(vec[1:])


def _vertices_from_hrep(red_pts, ineqs_red):
    """Indices of points that are vertices: a point of a polytope is a
    vertex iff its tight facet normals span the full reduced space."""
    out = []
    for i, p in enumerate(red_pts):
        tight = [list(a) for (c, a) in ineqs_red
                 if c + sum(x * y for x, y in zip(a, p)) == 0]
        if tight and linalg.rank(tight) == len(p):
            out.append(i)
    return out


def dd_convert(vertices=None, inequalities=None, equalities=(), ambient=None):
    """Double-description conversion between representations: pass a vertex
    list to get facets, or inequality (and equality) rows to get vertices;
    either way the result is a full PolytopeRep with incidence."""
    if (vertices is None) == (inequalities is None):
        raise ValueError("pass exactly one of vertices / inequalities")
    if vertices is not None:
        return hull_of_points(vertices)
    if ambient is None:
        ambient = len(inequalities[0][1])
    return polytope_from_inequalities(inequalities, list(equalities), ambient)


def polytope_from_inequalities(ineqs, eqs, ambient):
    """PolytopeRep from c + a . x >= 0 rows and affine-hull equalities."""
    ineqs = [(F(c), tuple(F(x) for x in a)) for (c, a) in ineqs]
    eqs = [(F(c), tuple(F(x) for x in a)) for (c, a) in eqs]
    if eqs:
        # parameterize the affine subspace: x = x0 + B t
        A = [list(a) for (_c, a) in eqs]
        b = [-c for (c, _a) in eqs]
        x0 = _particular_solution(A, b, ambient)
        basis = linalg.nullspace(A)
    else:
        x0 = tuple(F(0) for _ in range(ambient))
        basis = [[F(1) if i == j else F(0) for j in range(ambient)]
                 for i in range(ambient)]
    d = len(basis)
    red_rows = []
    for (c, a) in ineqs:
        const = c + sum(x * y for x, y in zip(a, x0))
        coeffs = [sum(a[j] * basis[t][j] for j in range(ambient)) for t in range(d)]
        red_rows.append((const, coeffs))
    cone = [list(coeffs) + [const] for (const, coeffs) in red_rows]
    cone.append([F(0)] * d + [F(1)])
    rays = cone_rays(cone)
    verts_red = []
    for ray in rays:
        if ray[d] == 0:
            raise ValueError("unbounded polyhedron")
        verts_red.append(tuple(x / ray[d] for x in ray[:d]))
    verts = sorted(tuple(x0[j] + sum(t[i] * basis[i][j] for i in range(d))
                         for j in range(ambient)) for t in verts_red)
    norm_ineqs = [_normalize_ineq(c, a) for (c, a) in ineqs]
    return PolytopeRep(verts, norm_ineqs, [_normalize_ineq(c, a) for (c, a) in eqs], ambient)


def _particular_solution(A, b, ambient):
    M, pivots, d, _sign, _scale = linalg._eliminate(
        [list(A[r]) + [b[r]] for r in range(len(A))], ambient)
    if any(row[ambient] for row in M[len(pivots):]):
        raise ValueError("inconsistent equalities")
    sol = [F(0)] * ambient
    for row, col in zip(M, pivots):
        sol[col] = F(row[ambient], d)
    return tuple(sol)


def face_lattice_f_vector(P):
    """f-vector including the empty face and the polytope itself, from the
    closure of facet-incidence intersections."""
    nverts = len(P.vertices)
    full = _mask(range(nverts))
    faces = {full}
    frontier = {full}
    while frontier:
        new = set()
        for f in frontier:
            for inc in P.incidence:
                g = f & inc
                if g and g not in faces:
                    new.add(g)
        faces |= new
        frontier = new
    dims = {}
    verts = P.vertices
    for f in faces:
        pts = [verts[i] for i in _bits(f)]
        d = 0 if len(pts) == 1 else linalg.rank(
            [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])
        dims[f] = d
    topdim = dims[full]
    fv = [0] * (topdim + 1)
    for f, d in dims.items():
        fv[d] += 1
    return [1] + fv  # leading 1 for the empty face


# ---------------------------------------------------------------------------
# Newton polytopes and the named polytopes

def grid_point(vec_dict, k, n):
    """Dense tuple of a sparse grid vector."""
    return tuple(F(vec_dict.get((i, j), 0))
                 for i in range(1, k) for j in range(1, n - k + 1))


def newton_points(poly, laurent_shift=None):
    """Distinct exponent vectors of a polynomial, optionally shifted down
    by a monomial (Laurent normalization)."""
    shift = laurent_shift or (0,) * poly.nvars
    return sorted(set(tuple(e - s for e, s in zip(exp, shift))
                      for exp in poly.terms))


def newton(poly, laurent_shift=None):
    """Newton polytope (hull of exponent vectors)."""
    return hull_of_points(newton_points(poly, laurent_shift))


def gamma_functional(J, k, n):
    """(constant, coefficient tuple) of gamma_J on the dense grid."""
    g = gamma_hat(J, k, n)
    return tuple(F(g.get((i, j), 0))
                 for i in range(1, k) for j in range(1, n - k + 1))


def row_sum_equalities(k, n, lam=None):
    lam = lam or [0] * (k - 1)
    eqs = []
    m = (k - 1) * (n - k)
    for i in range(k - 1):
        coeffs = [F(0)] * m
        for j in range(n - k):
            coeffs[i * (n - k) + j] = F(1)
        eqs.append((F(-lam[i]), tuple(coeffs)))
    return eqs


def pk_polytope(k, n, cross_check=True):
    """The PK polytope: H-rep {row sums 0, gamma_J + 1 >= 0 over nonfrozen
    J}; the vertex set is checked against the Newton polytope of the
    Laurent product P_1...P_{k-1} Q_1...Q_{n-k-1} / prod x_{i,j}."""
    m = (k - 1) * (n - k)
    ineqs = [(F(1), gamma_functional(J, k, n)) for J in nonfrozen_subsets(k, n)]
    P = polytope_from_inequalities(ineqs, row_sum_equalities(k, n), m)
    if cross_check:
        Ps, Qs = pk_factors(k, n)
        prod = Poly.one(k, n)
        for f in Ps + Qs:
            prod = prod * f
        pts = newton_points(prod, laurent_shift=(1,) * m)
        ptset = set(pts)
        # Newt == Pi: every exponent satisfies the H-rep and every vertex of
        # the H-polytope is an exponent vector
        for p in pts:
            if not P.contains(p):
                raise AssertionError(f"exponent vector {p} escapes the PK H-rep")
        for v in P.vertices:
            if tuple(v) not in ptset:
                raise AssertionError(f"PK vertex {v} is not an exponent vector")
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


def triangulation_volume(k, n, max_collections=200000):
    """Sum of |det| of the lattice coordinates over all maximal noncrossing
    collections: the relative volume of the root polytope in units 1/d!.
    Every determinant must be +-1 (unimodularity)."""
    total = 0
    for coll in enumerate_maximal_noncrossing(k, n, max_collections):
        M = [lattice_coords(v_root(J, k, n), k, n) for J in coll]
        d = linalg.det([list(col) for col in zip(*M)])
        if abs(d) != 1:
            raise AssertionError(f"non-unimodular collection {coll}: det {d}")
        total += abs(d)
    return int(total)


def omega_vertices(k, m):
    """0/1 vertices of the fibered simplex: row i has its 1 in column c_i
    with c_1 <= c_2 <= ... <= c_{k-1}."""
    out = []

    def rec(row, prev, cols):
        if row == k:
            out.append(tuple(cols))
            return
        for c in range(prev, m + 1):
            rec(row + 1, c, cols + [c])

    rec(1, 1, [])
    # as dense points in R^{(k-1) x m}
    pts = []
    for cols in out:
        vec = [F(0)] * ((k - 1) * m)
        for i, c in enumerate(cols):
            vec[i * m + (c - 1)] = F(1)
        pts.append(tuple(vec))
    return pts


def planar_face_polytope(i, J, k, n):
    """Vertex list of the planar face F^{(i)}_J as a PolytopeRep."""
    pts = []
    for pairs in planar_face_vertices(i, J, k, n):
        vec = [F(0)] * ((k - 1) * (n - k))
        for (r, c) in pairs:
            vec[(r - 1) * (n - k) + (c - 1)] = F(1)
        pts.append(tuple(vec))
    return hull_of_points(pts)


def minkowski_sum_points(sets_of_points):
    """Iterated pairwise vertex sums with extreme-point filtering."""
    cur = [tuple(F(0) for _ in sets_of_points[0][0])]
    for pts in sets_of_points:
        cand = {tuple(a + b for a, b in zip(u, w)) for u in cur for w in pts}
        cur = extreme_points(cand)
    return cur


def pk_associahedron(k, n):
    """Minkowski sum of all planar faces, realized as the Newton polytope
    of the product of the face polynomials delta^{(i)}_J; returns
    (PolytopeRep, summand count)."""
    pairs = planar_face_range(k, n)
    prod = Poly.one(k, n)
    for (i, J) in pairs:
        prod = prod * delta(i, J, k, n)
    return newton(prod), len(pairs)


def minkowski_summand_count(k, n):
    from math import comb
    return comb(n, k) - k * (n - k) - 1


def minimize_face(vertices, functional, const=F(0)):
    """(minimum value, vertex sublist attaining it) of c + a . x over a
    vertex list."""
    vals = [const + sum(a * x for a, x in zip(functional, v)) for v in vertices]
    m = min(vals)
    return m, [v for v, val in zip(vertices, vals) if val == m]


def tau_newton_facets(k, n):
    """Facet data of Newt(prod over all k-subsets of tau_J), monomial
    content discarded: constants c_J = min of gamma_J over the polytope,
    row sums lambda_i, and whether the candidate H-rep {gamma_J >= c_J}
    carves out exactly the Newton polytope.  Returns dict with keys
    'constants', 'lambda', 'agrees', 'polytope'.

    Works summand by summand (gamma is linear, so its minimum over a
    Minkowski sum is the sum of per-summand minima), and certifies each
    H-rep vertex to lie in the Minkowski sum by comparing the per-summand
    minimum of a functional that the vertex uniquely minimizes.
    """
    from .polynomial import tau
    factors = []
    for J in combinations(range(1, n + 1), k):
        pts = newton_points(tau(J, k, n))
        mono = tuple(min(p[t] for p in pts) for t in range(len(pts[0])))
        pts = sorted(set(tuple(x - m for x, m in zip(p, mono)) for p in pts))
        if len(pts) > 1:
            factors.append(pts)
    m = (k - 1) * (n - k)
    nf = nonfrozen_subsets(k, n)
    gammas = {J: gamma_functional(J, k, n) for J in nf}
    constants = {J: sum(min(sum(g * x for g, x in zip(gammas[J], p)) for p in pts)
                        for pts in factors) for J in nf}
    lam = [sum(sum(pts[0][i * (n - k) + j] for j in range(n - k)) for pts in factors)
           for i in range(k - 1)]
    ineqs = [(-(constants[J]), gammas[J]) for J in nf]
    P = polytope_from_inequalities(ineqs, row_sum_equalities(k, n, lam), m)
    agrees = all(_in_minkowski_sum(v, factors, P, gammas, constants)
                 for v in P.vertices)
    return {"constants": constants, "lambda": lam, "agrees": agrees, "polytope": P}


def _in_minkowski_sum(v, factors, P, gammas, constants):
    """Certify that a vertex v of the bounding H-polytope P lies in the
    Minkowski sum of the factor point sets.

    The sum phi of the facet normals tight at v is minimized over P exactly
    on the points tight on all of those facets, which for a vertex is v
    alone; so v lies in the sum iff the per-summand minima of phi add up
    to phi(v)."""
    tight = [g for J, g in gammas.items()
             if constants[J] == sum(x * y for x, y in zip(g, v))]
    phi = [sum(g[t] for g in tight) for t in range(len(v))]
    val_v = sum(p * x for p, x in zip(phi, v))
    if not all(sum(p * x for p, x in zip(phi, u)) > val_v
               for u in P.vertices if tuple(u) != tuple(v)):
        raise AssertionError("tight facet normals do not single out a vertex")
    best = sum(min(sum(p * x for p, x in zip(phi, q)) for q in pts)
               for pts in factors)
    return best == val_v


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
    base = [tuple(F(x) for x in v) for v in vertices]
    origin, basis = _affine_basis(sorted(set(base)))
    red = _reduce_points(base, origin, basis)
    d = len(basis)
    lifted = [tuple(list(p) + [F(h)]) for p, h in zip(red, heights)]
    lorigin, lbasis = _affine_basis(sorted(set(lifted)))
    if len(lbasis) < d + 1:
        return [tuple(range(len(vertices)))]
    hull = hull_of_points(lifted)
    cells = []
    for (c, a) in hull.inequalities:
        if a[d] <= 0:
            continue  # keep lower facets: inner normal has positive height
        members = [i for i, v in enumerate(lifted)
                   if c + sum(x * y for x, y in zip(a, v)) == 0]
        cells.append(tuple(sorted(members)))
    return sorted(cells)
