"""The paper's side claims that only the tests check, kept out of the
package, which holds what its CLI and the benchmark run
(`test_library_surface.py` guards that): the crossing and weak-separation
predicates and the conjectured k = 3 exponent rule; the f-basis, the
lattice coordinates, the cubical relations and the tripod bijection for
Delta_{3,n}; the tropical height, the PK and root-kinematics points, the
K_D cone and the octahedral commutators; the positive parameterization,
its Plucker minors, the compound-determinant resolved minors and the
root-potential ratios; and the fibered simplex, the planar faces, face
minimization and regular subdivisions.

Each function is the package's code as it stood there, grouped by the
module it came from; `contains` and `value` were the methods
`PolytopeRep.contains` and `KinFunctional.value`.  The package's input
checks still guard what these functions call.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul

from grascat import linalg
from grascat.combinat import (_bits, _noncrossing_graph, _nonfrozen, check_kn, check_subset,
                              compatibility_degree, is_frozen, nonfrozen_subsets)
from grascat.kinematics import (PRIME_ETA_36, KinFunctional, _check_keys, _in_cyclic_open, _L,
                                check_conservation, eta_functional, eta_hat_shift, kin_basis,
                                nc_amplitude)
from grascat.polynomial import FactoredRatio, Poly, _product, chain_poly, delta, divide_exact
from grascat.polytope import hull_of_points
from grascat.roots import (_running_sums, combo_vector, gamma_hat, grid_point,
                           noncrossing_decompose)

F = Fraction


# ---------------------------------------------------------------------------
# combinat: crossing, weak separation, the k = 3 exponent rule

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


def is_noncrossing(I, J, n):
    """True iff the pair has compatibility degree zero.

    Frozen subsets cross nothing (their windows are always weakly
    separated from everything or shielded by differing interiors), so the
    predicate is safe to call on them too.
    """
    return compatibility_degree(I, J, n) == 0


def is_crossing(I, J, n):
    return compatibility_degree(I, J, n) > 0


def k3_exponent_rule(I, J):
    """Conjectured k=3 exponent: 0 when noncrossing, 2 when the two triples
    fully interleave, 1 for any other crossing.  Each triple must be a
    strictly increasing triple of ints from 1, as `check_subset` checks."""
    I, J = tuple(I), tuple(J)
    if len(I) != 3 or len(J) != 3:
        raise ValueError("rule applies to 3-element subsets only")
    for S in (I, J):
        check_subset(S, 3, S[-1])
    n = max(I[-1], J[-1])
    c = compatibility_degree(I, J, n)
    if c == 0:
        return 0
    i1, i2, i3 = I
    j1, j2, j3 = J
    if i1 < j1 < i2 < j2 < i3 < j3 or j1 < i1 < j2 < i2 < j3 < i3:
        return 2
    return 1


# ---------------------------------------------------------------------------
# roots: the f-basis, lattice coordinates, cubical relations, tripods

def grid_add(a, b, mult=1):
    """a + mult*b for sparse grid vectors; drops exact zeros."""
    return linalg._combine([(a, 1), (b, mult)])


def f_combination(fcoeffs, k, n):
    """Expand a combination of the cyclic differences f_{i,j} into e-basis
    coordinates; f_{i,j} = e_{i,j} - e_{i,j+1} with column n-k wrapping to 1."""
    w = n - k
    terms = []
    for (i, j), c in fcoeffs.items():
        terms += [({(i, j): c}, 1), ({(i, 1 if j == w else j + 1): c}, -1)]
    return linalg._combine(terms)


def project_f(v, k, n):
    """Image of a grid vector under e_{i,j} -> f_{i,j}; rows then sum to 0."""
    return f_combination(v, k, n)


def lattice_coords(v, k, n):
    """Coordinates of a row-sum-zero grid vector in the lattice basis
    {f_{i,j} : 1 <= j <= n-k-1} (last column dropped per row): the running
    partial sums of each dense row, ints for an int vector."""
    return _running_sums(grid_point(v, k, n), n - k)


def check_four_term(I, a, b, c, d, k, n):
    """Verify gamma_{Iac} + gamma_{Ibd} = gamma_{Iad} + gamma_{Ibc} as exact
    e-basis vectors (degenerating to the three-term identity when one of the
    subsets is a plain interval, whose gamma vanishes)."""
    I = tuple(sorted(I))
    if not a < b < c < d or set(I) & {a, b, c, d}:
        raise ValueError("need disjoint I and a < b < c < d")

    def gam(extra):
        J = tuple(sorted(I + extra))
        return gamma_hat(J, k, n)

    lhs = grid_add(gam((a, c)), gam((b, d)))
    rhs = grid_add(gam((a, d)), gam((b, c)))
    return lhs == rhs


def cube_antipode(pairs, L=()):
    """The unique noncrossing pair of antipodal vertices of the cube built
    on interlaced pairs (i_1, j_1), ..., (i_m, j_m) plus fixed labels L:
    take i from the odd pairs and j from the even ones, and conversely."""
    pairs = [tuple(p) for p in pairs]
    flat = [x for p in pairs for x in p]
    if flat != sorted(flat) or len(set(flat)) != len(flat):
        raise ValueError("pairs must interlace: i1 < j1 < i2 < j2 < ...")
    if set(flat) & set(L):
        raise ValueError("extra labels must avoid the interlaced pairs")
    m1, m2 = [], []
    for t, (i, j) in enumerate(pairs):
        if t % 2 == 0:
            m1.append(i)
            m2.append(j)
        else:
            m1.append(j)
            m2.append(i)
    return tuple(sorted(m1 + list(L))), tuple(sorted(m2 + list(L)))


def noncrossing_degree(coeffs, k, n):
    """Support size of the noncrossing expansion of sum c_J v_J."""
    return len(noncrossing_decompose(combo_vector(coeffs, k, n), k, n))


def tripod_vector(U, Uprime, n):
    """Coefficient map of the tripod on the triple U = (u, v, w), in cyclic
    order, with replacement labels Uprime = (u', v', w') in the cyclic gaps
    after u, v, w respectively: -[uvw] + [u'vw] + [uv'w] + [uvw'].  Raises
    ValueError unless U is a rotation of an increasing triple and all six
    labels lie in [1, n].
    """
    U = tuple(U)
    Uprime = tuple(Uprime)
    if len(U) != 3 or len(Uprime) != 3:
        raise ValueError("tripod needs triples")
    u, v, w = U
    if not (u < v < w or v < w < u or w < u < v):
        raise ValueError(f"tripod triple {U} is not in cyclic order")
    if not all(1 <= x <= n for x in U + Uprime):
        raise ValueError(f"tripod labels {U}, {Uprime} not inside [1, {n}]")
    for x, lo, hi in ((Uprime[0], u, v), (Uprime[1], v, w), (Uprime[2], w, u)):
        if not _in_cyclic_open(x, lo, hi, n):
            raise ValueError(f"label {x} not in the cyclic gap ({lo}, {hi})")
    return linalg._combine([({tuple(sorted(U)): 1}, -1)]
                           + [({tuple(sorted(set(U) - {old} | {new})): 1}, 1)
                              for old, new in zip(U, Uprime)])


def tripod_pair(U, Uprime, n):
    """The image of the tripod (U, Uprime) in the bijection of tripods of
    Delta_{3,n} with noncrossing pairs of 3-subsets that are not weakly
    separated: the noncrossing expansion of `tripod_vector`, which is that
    pair with coefficients 1, as a {subset: coefficient} map."""
    return noncrossing_decompose(combo_vector(tripod_vector(U, Uprime, n), 3, n), 3, n)


# ---------------------------------------------------------------------------
# kinematics: the tropical height, distinguished points, the K_D cone,
# octahedral commutators

def rho_height(u, v, n):
    """-(1/n) min_t L_t(v - u) for integer points u, v on the level-k
    hyperplane; this is the tropical height whose bending encodes the
    planar basis.  Raises ValueError unless u and v have n entries each."""
    if len(u) != n or len(v) != n:
        raise ValueError(f"u and v must have {n} entries, got {len(u)} and {len(v)}")
    return linalg._exact(F(-min(_L({a: v[a - 1] - u[a - 1] for a in range(1, n + 1)}, n)), n))


def value(f, point):
    """Evaluate the functional f on an s-value map, which must lie in
    K(k,n): the value is read off the point's eta values."""
    return f.on_eta(kin_basis(f.k, f.n).eta_values(point))


def functionals_equal_on_K(f, g):
    """Equality of two functionals modulo the conservation relations."""
    if (f.k, f.n) != (g.k, g.n):
        raise ValueError("ambient mismatch")
    return f.eta == g.eta


def eta_combination(coeffs, k, n):
    """sum c_J eta_J as a KinFunctional."""
    check_kn(k, n)
    return sum((eta_functional(tuple(J), k, n) * c for J, c in coeffs.items()),
               KinFunctional(k, n))


def pk_point(k, n):
    """s-values of the Planar Kinematics point: +1 on the n cyclic windows
    of length k, -1 on the windows with the last label shifted out by one."""
    check_kn(k, n)
    windows = [[(j + t) % n + 1 for t in range(k + 1)] for j in range(n)]
    return linalg._combine([({tuple(sorted(w[:k])): 1, tuple(sorted(w[:k - 1] + w[k:])): -1}, 1)
                            for w in windows])


def kd_membership(point, k, n, strict=False):
    """Membership of an s-value map in the planar cone K_D: nonpositive on
    nonfrozen subsets, nonnegative on the frozen windows.  Raises
    ValueError unless (k, n) passes `check_kn`, and for a key that is not
    a k-subset of [1, n], as `KinBasis.eta_values` does."""
    check_kn(k, n)
    subsets = dict.fromkeys(combinations(range(1, n + 1), k))
    _check_keys(point, subsets, k, n)
    if not check_conservation(point, k, n):
        return False
    for J in subsets:
        v = point.get(J, 0)
        if is_frozen(J, n):
            if v < 0 or (strict and v == 0):
                return False
        else:
            if v > 0 or (strict and v == 0):
                return False
    return True


def octahedral_commutator(J, a, b, c, d, k, n):
    """eta_J + eta_{J - e_b + e_a - e_d + e_c} - eta_{J - e_b + e_a}
    - eta_{J - e_d + e_c}; requires b, d in J, a, c not in J, and the four
    labels in alternating cyclic order (a < b < c < d up to rotation).
    Nonnegative on K_D."""
    J = tuple(sorted(J))
    if not (b in J and d in J and a not in J and c not in J):
        raise ValueError("need moves a<-b and c<-d with b, d in J and a, c outside")
    signs = [s for _x, s in sorted([(a, 1), (b, -1), (c, 1), (d, -1)])]
    if any(signs[i] == signs[i + 1] for i in range(3)):
        raise ValueError("labels a, b, c, d must alternate in cyclic order")
    J_ab = tuple(sorted(set(J) - {b} | {a}))
    J_cd = tuple(sorted(set(J) - {d} | {c}))
    J_both = tuple(sorted(set(J) - {b, d} | {a, c}))
    out = eta_functional(J, k, n) + eta_functional(J_both, k, n)
    out = out - eta_functional(J_ab, k, n) - eta_functional(J_cd, k, n)
    return out


def root_kinematics_point(alpha, k, n):
    """The K-point with eta_J = gamma_J(alpha) for every nonfrozen J.
    alpha is a sparse grid vector, read through `roots.grid_point`, so a
    key outside the (k, n) grid raises IndexError."""
    x = grid_point(alpha, k, n)
    values = {J: sum(map(mul, grid_point(gamma_hat(J, k, n), k, n), x))
              for J in nonfrozen_subsets(k, n)}
    return kin_basis(k, n).point_from_eta(values)


def prime_kinematics_reproduction():
    """Recompute the (3,6) prime-kinematics benchmark end to end: the
    shifts -s_356 = 714 and -s_236 = 1324 from the prime eta table, the
    shifted values eta-hat_124 = 7373 and eta-hat_145 = 11935, and the
    exact noncrossing amplitude."""
    point = kin_basis(3, 6).point_from_eta(PRIME_ETA_36)
    hats = eta_hat_shift(6)
    hat_values = {J: hat.on_eta(PRIME_ETA_36) for J, hat in hats.items()}
    amplitude = nc_amplitude(3, 6, hat_values)
    return {
        "point": point,
        "minus_s356": -point.get((3, 5, 6), 0),
        "minus_s236": -point.get((2, 3, 6), 0),
        "eta_hat_124": hat_values[(1, 2, 4)],
        "eta_hat_145": hat_values[(1, 4, 5)],
        "hat_values": hat_values,
        "amplitude": amplitude,
    }


# ---------------------------------------------------------------------------
# polynomial: the positive parameterization, Plucker and resolved minors,
# the root-potential ratios

def det_poly(rows):
    """Determinant of a square matrix of Poly, by cofactor expansion.
    Raises ValueError for a matrix that is empty or not square, as
    `linalg.det` does."""
    m = len(rows)
    if not m or any(len(row) != m for row in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for c in range(m):
        entry = rows[0][c]
        if not entry:
            continue
        sub = [[row[cc] for cc in range(m) if cc != c] for row in rows[1:]]
        term = entry * det_poly(sub)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return Poly.zero(rows[0][0].k, rows[0][0].n)
    return total


def _quotient(nums, dens, k, n):
    """prod nums / prod dens for lists of Poly, as one FactoredRatio."""
    return _product([(FactoredRatio.from_poly(p), 1) for p in nums]
                    + [(FactoredRatio.from_poly(p), -1) for p in dens], k, n)


def m_poly(i, j, k, n):
    """Matrix entry m_{i,j}: sum over weakly increasing column tuples
    (c_i <= ... <= c_{k-1}) in [1, j] of prod_a x_{a,c_a} --- the vertex sum
    of a fibered simplex.  Raises ValueError unless (k, n) passes
    `check_kn`."""
    check_kn(k, n)
    return chain_poly(i, [(1, j)] * (k - i), k, n)


# typed, as the package's shape caches are: 3.0 or True misses the entry
# of 3, so check_kn rejects a bad shape on every call
@lru_cache(maxsize=None, typed=True)
def bcfw_matrix(k, n):
    """k x n positive-parameterization matrix: identity block in columns
    1..k, then column k+j holding m_{i,j} 'in rows i < k and 1 in the last
    row.  Rows of the polynomial block carry alternating signs (-1)^{k-1-i}
    so that every maximal minor has nonnegative coefficients.  Built once
    per (k, n); ValueError unless (k, n) passes `check_kn`."""
    check_kn(k, n)
    cols = []
    for c in range(1, k + 1):
        cols.append([Poly.const(k, n, 1 if r == c else 0) for r in range(1, k + 1)])
    for j in range(1, n - k + 1):
        col = []
        for i in range(1, k):
            p = m_poly(i, j, k, n)
            if (k - i) % 2 == 1:
                p = p * (-1)
            col.append(p)
        col.append(Poly.one(k, n))
        cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(k))


def plucker(J, k, n):
    """Maximal minor with column set J of the positive parameterization;
    ValueError unless (k, n) passes `check_kn` and J `check_subset`."""
    check_kn(k, n)
    J = check_subset(J, k, n)
    M = bcfw_matrix(k, n)
    rows = [[M[r][c - 1] for c in J] for r in range(k)]
    return det_poly(rows)


def _col(M, j):
    """Column j of the 3 x n matrix M, for a label j in [1, n]; any other
    label raises ValueError, so `compound_X` and `compound_A` reject it."""
    n = len(M[0])
    if type(j) is not int or not 1 <= j <= n:
        raise ValueError(f"column label {j!r} not inside [1, {n}]")
    return [M[r][j - 1] for r in range(3)]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def compound_X(pair1, pair2, pair3, n):
    """X determinant of the three cross products of column pairs, k=3."""
    M = bcfw_matrix(3, n)
    vs = [_cross(_col(M, a), _col(M, b)) for (a, b) in (pair1, pair2, pair3)]
    return det_poly([[vs[c][r] for c in range(3)] for r in range(3)])


def compound_A(i, j, kk, n):
    """A_{ijk} = det((u1 x u2) x (u_i x u_{i+1}), u_j,
    (u_{j+1} x u_{j+2}) x (u_k x u_1)) on the k=3 parameterization."""
    if j + 2 > n:
        raise ValueError("A_{ijk} needs column j+2 <= n; use the X form")
    M = bcfw_matrix(3, n)
    c1 = _cross(_cross(_col(M, 1), _col(M, 2)), _cross(_col(M, i), _col(M, i + 1)))
    c2 = _col(M, j)
    c3 = _cross(_cross(_col(M, j + 1), _col(M, j + 2)), _cross(_col(M, kk), _col(M, 1)))
    return det_poly([[c1[r], c2[r], c3[r]] for r in range(3)])


def resolved_minor(J, n):
    """Resolved minor p-hat_J on the (3, n) parameterization, as an exact
    polynomial; equals plucker(J) unless some lexicographically smaller I
    forms a noncrossing-but-not-weakly-separated pair with J."""
    i, j, kk = check_subset(J, 3, n)
    if i == 1:
        return plucker(J, 3, n)
    if j == n - 1 and kk == n:
        num = compound_X((1, 2), (i, i + 1), (n - 1, n), n)
        return divide_exact(num, plucker((1, 2, i + 1), 3, n))
    num = compound_A(i, j, kk, n)
    den = plucker((1, 2, i + 1), 3, n) * plucker((1, j + 1, j + 2), 3, n)
    return divide_exact(num, den)


def needs_resolution(J, n):
    """Lexicographic criterion: some I < J with (I, J) noncrossing and not
    weakly separated.  Raises ValueError unless J passes `check_subset`
    as a 3-subset of [1, n].  The I < J noncrossing J are J's neighbours
    before it in the noncrossing graph (`combinat._noncrossing_graph`); a
    frozen J has none there, and is weakly separated from all."""
    J = check_subset(J, 3, n)
    verts, adj = _noncrossing_graph(3, n)
    t = _nonfrozen(3, n)[1].get(J)
    before = 0 if t is None else adj[t] & ((1 << t) - 1)
    return any(not is_weakly_separated(verts[i], J, n) for i in _bits(before))


def resolved_count_formula(n):
    """N_n = C(n-5, 3) + 2 (n-5)^2 nontrivially resolved minors on (3, n)."""
    return comb(n - 5, 3) + 2 * (n - 5) ** 2


ROOT_POTENTIAL_RATIOS = {
    (3, 6): {
        (1, 1): ((156, 234), (134, 256)),
        (1, 2): ((124, 156, 345), (134, 145, 256)),
        (1, 3): ((125, 456), (145, 256)),
        (2, 1): ((126, 134), (124, 136)),
        (2, 2): ((123, 126, 145), (124, 125, 136)),
        (2, 3): ((123, 156), (125, 136)),
    },
    (4, 8): {
        (1, 1): ((1678, 2345), (1345, 2678)),
        (1, 2): ((1245, 1678, 3456), (1345, 1456, 2678)),
        (1, 3): ((1256, 1678, 4567), (1456, 1567, 2678)),
        (1, 4): ((1267, 5678), (1567, 2678)),
        (2, 1): ((1278, 1345), (1245, 1378)),
        (2, 2): ((1235, 1278, 1456), (1245, 1256, 1378)),
        (2, 3): ((1236, 1278, 1567), (1256, 1267, 1378)),
        (2, 4): ((1237, 1678), (1267, 1378)),
        (3, 1): ((1238, 1245), (1235, 1248)),
        (3, 2): ((1234, 1238, 1256), (1235, 1236, 1248)),
        (3, 3): ((1234, 1238, 1267), (1236, 1237, 1248)),
        (3, 4): ((1234, 1278), (1237, 1248)),
    },
}


def _digits(code):
    return tuple(int(ch) for ch in str(code))


def root_potential_check(k, n):
    """Check every displayed minor-ratio coefficient of the root-kinematics
    potential against x_{i,j} / sum_l x_{i,l} on the parameterization.
    Returns {(i, j): bool}."""
    table = ROOT_POTENTIAL_RATIOS.get((k, n))
    if table is None:
        raise ValueError(f"no tabulated root potential for ({k}, {n})")
    results = {}
    for (i, j), (nums, dens) in table.items():
        ratio = _quotient([plucker(_digits(code), k, n) for code in nums],
                          [plucker(_digits(code), k, n) for code in dens], k, n)
        # x_{i,j} over the row sum P_i
        target = _quotient([Poly.var(i, j, k, n)], [chain_poly(i, [(1, n - k)], k, n)], k, n)
        results[(i, j)] = ratio.ratio_equal(target)
    return results


# ---------------------------------------------------------------------------
# polytope: fibered simplices, planar faces, face minimization, regular
# subdivisions

def contains(P, point):
    """Is the point in the PolytopeRep P?  ValueError for a point whose
    length is not P's ambient dimension."""
    if len(point) != P.ambient:
        raise ValueError(f"point of length {len(point)} in R^{P.ambient}")
    return (all(b + sum(e * x for e, x in zip(coeffs, point)) == 0
                for (b, coeffs) in P.equalities)
            and all(c + sum(a * x for a, x in zip(coeffs, point)) >= 0
                    for (c, coeffs) in P.inequalities))


def omega_vertices(k, m):
    """0/1 vertices of the fibered simplex: row i has its 1 in column c_i
    with c_1 <= c_2 <= ... <= c_{k-1}; dense points in R^{(k-1) x m}, the
    exponent vectors of the chain sum over [1, m] in the (k, k + m) grid."""
    return list(chain_poly(1, [(1, m)] * (k - 1), k, k + m).terms)


def planar_face_polytope(i, J, k, n):
    """Vertex list of the planar face F^{(i)}_J as a PolytopeRep: the
    exponent vectors of its face polynomial delta."""
    return hull_of_points(list(delta(i, J, k, n).terms))


def minkowski_summand_count(k, n):
    return comb(n, k) - k * (n - k) - 1


def minimize_face(vertices, functional):
    """(minimum value, vertex sublist attaining it) of a . x over a vertex
    list.  Raises ValueError on an empty list, or on a functional whose
    length differs from a vertex's."""
    if not vertices:
        raise ValueError("empty vertex list")
    if any(len(v) != len(functional) for v in vertices):
        raise ValueError("functional and vertices of unequal lengths")
    vals = [sum(a * x for a, x in zip(functional, v)) for v in vertices]
    m = min(vals)
    return m, [v for v, val in zip(vertices, vals) if val == m]


def lift_and_lower_hull(vertices, heights):
    """Cells of the regular subdivision induced by lifting vertex i to
    height h_i and projecting the lower hull.  Returns a sorted list of
    cells, each a tuple of vertex indices.

    The hull of the lifted points reduces to their affine hull itself, so
    inputs in a proper affine subspace are handled.  An equality of it with
    a nonzero height coefficient means the heights are affine: the trivial
    one-cell subdivision.  A lower facet has an inner normal of positive
    height.
    """
    if len(vertices) != len(heights):
        raise ValueError("need one height per vertex")
    lifted = [(*map(linalg._exact, v), linalg._exact(h)) for v, h in zip(vertices, heights)]
    hull = hull_of_points(lifted)
    if any(a[-1] for _c, a in hull.equalities):
        return [tuple(range(len(vertices)))]
    return sorted(tuple(i for i, v in enumerate(lifted) if c + sum(map(mul, a, v)) == 0)
                  for c, a in hull.inequalities if a[-1] > 0)
