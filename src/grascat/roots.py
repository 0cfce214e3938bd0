"""Generalized positive roots, their quotient-lattice images, cubical
relations, and the unique positive noncrossing expansion of any vector in
the row-sum-zero subspace (the complete simplicial fan of noncrossing
cones).

Grid vectors live in R^{(k-1) x (n-k)} and are stored sparsely as dicts
{(i, j): int or Fraction} with 1-based row/column indices; the ambient
(k, n) is passed alongside.  `grid_point` is their one dense form, the
row-major tuple, and the one bounds check of the grid layout: every
module that needs dense coordinates reads them from it.  gamma_hat gives
the e-basis coefficient vector of the linear function gamma_J; project_f
sends e_{i,j} to f_{i,j} so that every row sums to zero, and
v_root(J) = project_f(gamma_hat(J)) is the vertex of the root polytope
attached to J.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from . import linalg
from .combinat import (_bits, _first_collection, _noncrossing_graph, check_kn, check_subset,
                       shape_cache)
# perfbench's test_tracer_wraps_every_lookup_site_and_restores asserts that
# roots.compatibility_degree is combinat.compatibility_degree: keep the import
from .combinat import compatibility_degree  # noqa: F401


# ---------------------------------------------------------------------------
# grid vectors

def grid_point(v, k, n):
    """Dense row-major tuple of a sparse grid vector: x_{i,j} at
    (i-1)(n-k) + j-1, each entry exact (`linalg._exact`), missing keys 0.
    A key outside [1, k-1] x [1, n-k] raises IndexError."""
    w = n - k
    xs = [0] * ((k - 1) * w)
    for (i, j), c in v.items():
        if not (1 <= i <= k - 1 and 1 <= j <= w):
            raise IndexError(f"variable x_{{{i},{j}}} outside the ({k},{n}) grid")
        xs[(i - 1) * w + j - 1] = linalg._exact(c)
    return tuple(xs)


def grid_add(a, b, mult=1):
    """a + mult*b for sparse grid vectors; drops exact zeros."""
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + mult * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def f_combination(fcoeffs, k, n):
    """Expand a combination of the cyclic differences f_{i,j} into e-basis
    coordinates; f_{i,j} = e_{i,j} - e_{i,j+1} with column n-k wrapping to 1."""
    out = {}
    for (i, j), c in fcoeffs.items():
        if c:
            j2 = 1 if j == n - k else j + 1
            out[(i, j)] = out.get((i, j), 0) + c
            out[(i, j2)] = out.get((i, j2), 0) - c
    return {key: c for key, c in out.items() if c}


def gamma_hat(J, k, n):
    """0/1 int e-basis coefficient vector of gamma_J: row i carries the
    interval [j_i - (i-1), j_{i+1} - i - 1], possibly empty."""
    J = check_subset(J, k, n)
    return {(i, j): 1 for i in range(1, k) for j in range(J[i - 1] - (i - 1), J[i] - i)}


def project_f(v, k, n):
    """Image of a grid vector under e_{i,j} -> f_{i,j}; rows then sum to 0."""
    return f_combination(v, k, n)


def gamma_functional(J, k, n):
    """Coefficient tuple of the linear function gamma_J on the dense grid."""
    return grid_point(gamma_hat(J, k, n), k, n)


def v_root(J, k, n):
    """Root vector v_J in the quotient; zero iff J is a cyclic interval."""
    return project_f(gamma_hat(J, k, n), k, n)


def row_sums(x, k, n):
    """The k-1 row sums of a dense grid point."""
    w = n - k
    return [sum(x[r:r + w]) for r in range(0, (k - 1) * w, w)]


def lattice_coords(v, k, n):
    """Coordinates of a row-sum-zero grid vector in the lattice basis
    {f_{i,j} : 1 <= j <= n-k-1} (last column dropped per row): the running
    partial sums of each dense row, ints for an int vector."""
    return _running_sums(grid_point(v, k, n), n - k)


def _running_sums(x, w):
    """The running partial sums of each row of length w of the dense point
    x, the last (the row sum) dropped."""
    return [s for r in range(0, len(x), w) for s in accumulate(x[r:r + w - 1])]


# ---------------------------------------------------------------------------
# cubical relations

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


# ---------------------------------------------------------------------------
# the noncrossing fan

class DecompositionError(ValueError):
    pass


class _Fan:
    """Walker for the complete simplicial fan whose maximal cones are the
    maximal noncrossing collections: finds the cone holding a vector by
    walking the segment to it from a start cone, one wall at a time.

    Every cone is unimodular, so the start cone is a lattice basis, and
    rows[i], v_{verts[i]} in it, is an int tuple: a unit vector for a start
    root.  Row p of the walk's state holds the coordinates a_p of the start
    point and b_p of the target, scaled to ints, in the cone.  The start
    point p0 = sum_i (1 + eps^i) e_i is symbolic in an infinitesimal
    eps > 0, so a_p = [sum(inv_p) | inv_p] holds its coefficients of
    eps^0, ..., eps^d, with inv_p row p of the cone's inverse basis.  A
    wall's other completion is the one common neighbour of its members in
    the noncrossing graph; crossing to it is one pivot, on the entry -1.
    The first coordinate to hit zero on the segment has b_p < 0, and p
    hits zero before q iff a_p b_q - a_q b_p > 0, lexicographically.

    Termination: for every small enough real eps the walk is that of the
    segment from p0(eps), and it meets no cone of codimension 2 before its
    end, because a linear form h vanishing on such a cone and the target
    takes at p0(eps) the value sum_i (1 + eps^i) h(e_i), a nonzero
    polynomial in eps.  So exit times never tie, and the segment meets each
    convex cone in one interval: no cone is entered twice, and the walk
    ends within catalan_mdim(k, n - k) - 1 flips.
    """

    def __init__(self, k, n):
        self.dim = d = (k - 1) * (n - k - 1)
        self.verts, self.adj = _noncrossing_graph(k, n)
        # the running sums of x_{i,j} - x_{i,j-1} (column 0 read as n-k)
        # telescope: lattice_coords(project_f(x)) at (i, j) is x_{i,j} - x_{i,n-k}
        w = n - k
        coords = [[g[r + j] - g[r + w - 1] for r in range(0, len(g), w) for j in range(w - 1)]
                  for g in (gamma_functional(J, k, n) for J in self.verts)]
        self.start = list(_bits(_first_collection(self.adj)))
        if len(self.start) != d:
            raise AssertionError("greedy collection is not maximal-pure")
        inv = linalg.inverse([[coords[i][t] for i in self.start] for t in range(d)])
        if any(x.denominator != 1 for row in inv for x in row):
            raise AssertionError("start cone is not unimodular")
        self.start_inv = [[int(x) for x in row] for row in inv]
        cols = list(zip(*self.start_inv))  # rows[i] = sum c * cols[t], c = coords[i][t] != 0
        self.rows = [tuple(map(sum, zip(*[[c * x for x in cols[t]]
                                          for t, c in enumerate(v) if c]))) for v in coords]
        self.support = [[(t, c) for t, c in enumerate(row) if c] for row in self.rows]

    def locate(self, target):
        """Positive cone coefficients {J: t_J} of lattice coordinates; {} for 0."""
        d = self.dim
        goal, scale = linalg._integral(target)
        cone = list(self.start)
        # row p = [1 | e_p | b_p]: a_p = 1 + eps^(p+1) at the start
        rows = [[1] + [int(q == p) for q in range(d)]
                + [sum(x * y for x, y in zip(inv_p, goal))]
                for p, inv_p in enumerate(self.start_inv)]
        while True:
            leave = None
            for p, row in enumerate(rows):
                if row[-1] < 0 and (leave is None or _exits_first(row, rows[leave], d)):
                    leave = p
            if leave is None:
                return {self.verts[cone[p]]: linalg._exact(Fraction(rows[p][-1], scale))
                        for p in sorted(range(d), key=cone.__getitem__) if rows[p][-1]}
            entering = ((1 << len(self.verts)) - 1) & ~(1 << cone[leave])
            for i in cone[:leave] + cone[leave + 1:]:
                entering &= self.adj[i]
            if not entering or entering & (entering - 1):
                raise AssertionError(f"a wall of {[self.verts[i] for i in cone]} has "
                                     f"{bin(entering).count('1')} other completions")
            X = entering.bit_length() - 1
            c = [sum(row[1 + t] * x for t, x in self.support[X]) for row in rows]
            if c[leave] != -1:
                raise AssertionError(f"pivot entry {c[leave]}, not -1")
            pivot = [-y for y in rows[leave]]
            rows = [pivot if p == leave else [x - f * y for x, y in zip(row, pivot)] if f else row
                    for p, (row, f) in enumerate(zip(rows, c))]
            cone[leave] = X


def _exits_first(row_p, row_q, d):
    """Whether p hits zero before q: a_p b_q - a_q b_p > 0, lexicographically."""
    b_p, b_q = row_p[-1], row_q[-1]
    for t in range(d + 1):
        s = row_p[t] * b_q - row_q[t] * b_p
        if s:
            return s > 0
    raise AssertionError("two exit times coincide")


@shape_cache
def _fan(k, n):
    return _Fan(k, n)


def noncrossing_decompose(v, k, n):
    """Unique expansion v = sum t_J v_J with t_J > 0 over a pairwise
    noncrossing collection, for any rational v with zero row sums.

    Integer lattice input gives integer coefficients (the cone bases are
    unimodular), and the zero vector gives {} without building the fan.
    Raises ValueError unless 2 <= k <= n - 2, IndexError for a key outside
    the grid (`grid_point`), and DecompositionError when a row sum is
    nonzero.
    """
    check_kn(k, n)
    x = grid_point(v, k, n)
    for i, s in enumerate(row_sums(x, k, n), start=1):
        if s:
            raise DecompositionError(f"row {i} sums to {s}, not 0")
    if not any(x):
        return {}
    return _fan(k, n).locate(_running_sums(x, n - k))


def noncrossing_degree(coeffs, k, n):
    """Support size of the noncrossing expansion of sum c_J v_J."""
    return len(noncrossing_decompose(combo_vector(coeffs, k, n), k, n))


def combo_vector(coeffs, k, n):
    """Grid vector of a formal combination sum c_J v_J."""
    v = {}
    for J, c in coeffs.items():
        v = grid_add(v, v_root(J, k, n), c)
    return v


def tripod_vector(U, Uprime, n):
    """Coefficient map of the tripod on the triple U = (u, v, w) with
    replacement labels Uprime = (u', v', w') in the cyclic gaps after u, v,
    w respectively: -[uvw] + [u'vw] + [uv'w] + [uvw'].
    """
    U = tuple(U)
    Uprime = tuple(Uprime)
    if len(U) != 3 or len(Uprime) != 3:
        raise ValueError("tripod needs triples")
    u, v, w = U
    for x, lo, hi in ((Uprime[0], u, v), (Uprime[1], v, w), (Uprime[2], w, u)):
        if not _in_cyclic_open(x, lo, hi, n):
            raise ValueError(f"label {x} not in the cyclic gap ({lo}, {hi})")
    coeffs = {tuple(sorted(U)): -1}
    for old, new in zip(U, Uprime):
        S = tuple(sorted(set(U) - {old} | {new}))
        coeffs[S] = coeffs.get(S, 0) + 1
    return {J: c for J, c in coeffs.items() if c}


def tripod_pair(U, Uprime, n):
    """The image of the tripod (U, Uprime) in the bijection of tripods of
    Delta_{3,n} with noncrossing pairs of 3-subsets that are not weakly
    separated: the noncrossing expansion of `tripod_vector`, which is that
    pair with coefficients 1, as a {subset: coefficient} map."""
    return noncrossing_decompose(combo_vector(tripod_vector(U, Uprime, n), 3, n), 3, n)


def _in_cyclic_open(x, lo, hi, n):
    """x strictly inside the cyclic interval (lo, hi)."""
    if lo < hi:
        return lo < x < hi
    return x > lo or x < hi
