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

import random
from itertools import accumulate

from . import linalg
from .combinat import (_bits, _crossing_labels, _first_collection, _has_clique, _noncrossing_graph,
                       _nonfrozen, check_kn, check_subset, shape_cache)
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
    return linalg._combine([(a, 1), (b, mult)])


def f_combination(fcoeffs, k, n):
    """Expand a combination of the cyclic differences f_{i,j} into e-basis
    coordinates; f_{i,j} = e_{i,j} - e_{i,j+1} with column n-k wrapping to 1."""
    w = n - k
    terms = []
    for (i, j), c in fcoeffs.items():
        terms += [({(i, j): c}, 1), ({(i, 1 if j == w else j + 1): c}, -1)]
    return linalg._combine(terms)


def gamma_hat(J, k, n):
    """0/1 int e-basis coefficient vector of gamma_J: row i carries the
    interval [j_i - (i-1), j_{i+1} - i - 1], possibly empty."""
    check_kn(k, n)
    J = check_subset(J, k, n)
    return {(i, j): 1 for i in range(1, k) for j in range(J[i - 1] - (i - 1), J[i] - i)}


def project_f(v, k, n):
    """Image of a grid vector under e_{i,j} -> f_{i,j}; rows then sum to 0."""
    return f_combination(v, k, n)


def gamma_functional(J, k, n):
    """Coefficient tuple of the linear function gamma_J on the dense grid."""
    return grid_point(gamma_hat(J, k, n), k, n)


def v_root(J, k, n):
    """Root vector v_J in the quotient; zero iff J is a cyclic interval.

    project_f(gamma_hat(J)) in closed form: row i of gamma_hat(J) is the
    column interval [a, b] = [j_i - i + 1, j_{i+1} - i - 1], and its
    f-image telescopes to e_{i,a} - e_{i,b+1}, column n-k+1 read as 1.  An
    empty row gives nothing, and so does a full one, [1, n-k].
    """
    check_kn(k, n)
    J = check_subset(J, k, n)
    w = n - k
    v = {}
    for i in range(1, k):
        a, b = J[i - 1] - i + 1, J[i] - i - 1
        if 0 <= b - a < w - 1:
            v[i, a] = 1
            v[i, b + 1 if b < w else 1] = -1
    return v


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

    A walk costs one flip per wall it crosses, so the start cone is the
    greedy maximal collection over the roots shortest first (fewest grid
    cells of gamma_J, ties by index), not the lexicographically first
    collection, which sits at a corner of the fan: walks from that corner
    take 1.2 to 1.5 times the flips on seeded 3-term combinations from
    (3,7) to (6,12).  The expansion is unique, so the start changes no
    result.

    The start cone is checked unimodular, a lattice basis, and `walls`
    carries that to every cone; gammas[i] is gamma_{verts[i]} on the dense
    grid, built once per (k, n) with the fan and read by the fan polytopes
    of `polytope` as their inequality rows.  A walk keeps two ints per cone
    member v: a_v, its coordinate of the start point
    W = sum_i w_i v_{start_i}, and b_v, its coordinate of the target,
    scaled to ints.  The weights w_i are positive and fixed per (k, n),
    drawn from a generator seeded with the shape; any positive weights
    give the same expansions, and generic ones make the tie-break below
    rare.  A wall's other completion is the one common neighbour of its
    members in the noncrossing graph; crossing from r to it, X, is one
    pivot on the entry -1: a_s += a_r and b_s += b_r for s in S, then
    a_X, b_X = -a_r, -b_r.  The first coordinate to hit zero on the
    segment has b_p < 0, and p hits zero before q iff a_p b_q - a_q b_p > 0.

    Ties are broken by simulation of simplicity (Edelsbrunner and Mucke,
    ACM TOG 1990): the start point is in truth
    p0(eps) = sum_i (w_i + eps^i) v_{start_i}, symbolic in an
    infinitesimal eps > 0.  Its eps^t coefficient is start vector t in the
    current basis, and is needed only when a_p b_q - a_q b_p is 0: it is
    then built by replaying the walk's log of flips on the unit vector
    e_t, for t = 1, ..., d in turn until one column decides.

    Exchange relations come from a lemma: at a crossing (a, b) of I and J
    the tail swaps I[:b] + J[b:] and J[:b] + I[b:] are increasing, and
    their gammas sum to gamma_I + gamma_J (only row b differs, and its four
    intervals telescope), so v_I + v_J is the sum of v_s over S, the
    nonfrozen tail swaps.  `exchange` keeps S in `relations` once the pair
    crosses once and each s is in L = N(r) & N(X) and adjacent to the rest
    of L.  A wall W exchanging r and X is a maximal clique of L (a vertex of
    L adjacent to all of W would extend W + r), and s is in every maximal
    clique of L, so S is in W: the flip adds r's two ints to those of S.

    Termination: for every small enough real eps the walk is that of the
    segment from p0(eps), and it meets no cone of codimension 2 before its
    end, because a linear form h vanishing on such a cone and the target
    takes at p0(eps) the value sum_i (w_i + eps^i) h(v_{start_i}), a
    nonzero polynomial in eps, since the v_{start_i} are a basis.  So exit
    times never tie, and the segment meets each convex cone in one
    interval: no cone is entered twice, and the walk ends within
    catalan_mdim(k, n - k) - 1 flips.
    """

    def __init__(self, k, n):
        self.k, self.n = k, n
        self.dim = d = (k - 1) * (n - k - 1)
        self.verts, self.adj = _noncrossing_graph(k, n)
        self.index = _nonfrozen(k, n)[1]
        self.gammas = [gamma_functional(J, k, n) for J in self.verts]
        order = sorted(range(len(self.verts)), key=lambda i: sum(self.gammas[i]))
        self.start = list(_bits(_first_collection(self.adj, order=order)))
        if len(self.start) != d:
            raise AssertionError("greedy collection is not maximal-pure")
        # the lattice coordinates of the start members: the running sums of
        # x_{i,j} - x_{i,j-1} (column 0 read as n-k) telescope, so
        # lattice_coords(project_f(x)) at (i, j) is x_{i,j} - x_{i,n-k}
        w = n - k
        coords = [[g[r + j] - g[r + w - 1] for r in range(0, len(g), w) for j in range(w - 1)]
                  for g in (self.gammas[i] for i in self.start)]
        start_inv = linalg.inverse(list(zip(*coords)))
        if any(type(x) is not int for row in start_inv for x in row):
            raise AssertionError("start cone is not unimodular")
        # start_inv is sparse (one or two entries +-1 per row at every shape
        # with n <= 12)
        self.start_terms = [[(t, x) for t, x in enumerate(row) if x] for row in start_inv]
        rng = random.Random(f"{k},{n}")
        self.weights = [rng.randrange(1 << 40, 1 << 41) for _ in range(d)]
        self.relations = {}
        self._walls = None

    def locate(self, target):
        """Positive cone coefficients {J: t_J} of lattice coordinates; {} for 0."""
        goal, scale = linalg._integral(target)
        a = dict(zip(self.start, self.weights))
        b = {v: sum([x * goal[t] for t, x in terms])
             for v, terms in zip(self.start, self.start_terms)}
        log = []
        while True:
            r = None
            for v, bv in b.items():
                if bv < 0:
                    if r is not None:
                        s = a[v] * br - ar * bv
                        if s < 0 or not s and not self._eps_exits_first(v, r, b, log):
                            continue
                    r, ar, br = v, a[v], bv
            if r is None:
                out = {self.verts[v]: b[v] for v in sorted(b) if b[v]}
                return out if scale == 1 else {J: linalg._ratio(c, scale)
                                               for J, c in out.items()}
            del a[r], b[r]
            entering = ((1 << len(self.verts)) - 1) & ~(1 << r)
            for i in b:
                entering &= self.adj[i]
            if not entering or entering & (entering - 1):
                raise AssertionError(f"a wall of {[self.verts[i] for i in (*b, r)]} has "
                                     f"{bin(entering).count('1')} other completions")
            X = entering.bit_length() - 1
            S = self.exchange(r, X)
            for s in S:
                a[s] += ar
                b[s] += br
            a[X], b[X] = -ar, -br
            log.append((r, X, S))

    def _eps_exits_first(self, p, q, b, log):
        """Whether p hits zero before q when a_p b_q - a_q b_p is 0: the
        first eps column c, start vector t in the current basis (the log
        replayed on e_t), with c_p b_q - c_q b_p nonzero decides."""
        for u in self.start:
            c = {u: 1}
            # not `linalg._combine`: each flip pops r and sets X as it adds
            for r, X, S in log:
                cr = c.pop(r, 0)
                if cr:
                    for s in S:
                        c[s] = c.get(s, 0) + cr
                    c[X] = -cr
            s = c.get(p, 0) * b[q] - c.get(q, 0) * b[p]
            if s:
                return s > 0
        raise AssertionError("two exit times coincide")

    def exchange(self, r, X):
        """S, sorted vertex indices, with v_r + v_X = sum over S of v_s: the
        pair's tail swaps, certified on first use (L - adj[s] is {s})."""
        rel = self.relations.get((r, X))
        if rel is None:
            I, J = self.verts[r], self.verts[X]
            labels = _crossing_labels(I, J)
            b = I.index(labels.bit_length() - 1) if labels else 0
            swaps = (I[:b] + J[b:], J[:b] + I[b:])
            rel = tuple(sorted(self.index[T] for T in swaps if T in self.index))
            common = self.adj[r] & self.adj[X]
            if labels.bit_count() != 1 or any(common & ~self.adj[s] != 1 << s for s in rel):
                raise AssertionError(f"the exchange of {I} and {J} fails its certificate: "
                                     f"{labels.bit_count()} crossings, tail swaps {swaps}")
            self.relations[r, X] = self.relations[X, r] = rel
        return rel

    def walls(self):
        """The crossing pairs (r, X), r < X, that a wall can exchange, each
        certified by `exchange`, once every other crossing pair is refuted;
        computed once.  This certifies every cone of the fan unimodular.

        A pair of one crossing is certified by `exchange`: S lies in every
        wall W exchanging it, so v_X = -v_r + sum over S of v_s gives
        det(W + X) = -det(W + r).  A pair of two or more crossings is no
        wall: a wall would be d - 1 pairwise adjacent vertices of
        L = N(r) & N(X), and `_has_clique` finds none.  An adjacent pair is
        never exchanged, since W + r + X would be a clique of d + 1 members.
        The start cone is unimodular (checked at construction).  Assuming
        the fan complete and simplicial, its dual graph is connected
        (removing the cones of codimension 2 leaves the space connected; De
        Loera, Rambau and Santos, Triangulations, 2010), so every maximal
        cone is reached from the start cone across walls, and has |det| 1.
        The paper's triangulation theorem, the volume as a count and the
        fan polytopes' duality rest on the same assumption.  Raises
        AssertionError naming a pair that passes neither test.
        """
        if self._walls is None:
            verts, adj, d = self.verts, self.adj, self.dim
            walls = []
            for r, I in enumerate(verts):
                for X in _bits(((1 << len(verts)) - 1) & ~adj[r] & -(2 << r)):
                    crossings = _crossing_labels(I, verts[X]).bit_count()
                    if crossings == 1:
                        walls.append((r, X))
                    elif _has_clique(adj, adj[r] & adj[X], d - 1):
                        raise AssertionError(f"{I} and {verts[X]} cross {crossings} times, and "
                                             f"{d - 1} of their common neighbours are pairwise "
                                             f"noncrossing")
            for r, X in walls:
                self.exchange(r, X)
            self._walls = tuple(walls)
        return self._walls


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
    check_kn(k, n)
    return linalg._combine([(v_root(J, k, n), c) for J, c in coeffs.items()])


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


def _in_cyclic_open(x, lo, hi, n):
    """x strictly inside the cyclic interval (lo, hi)."""
    if lo < hi:
        return lo < x < hi
    return x > lo or x < hi
