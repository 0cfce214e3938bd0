"""The kinematic space K(k,n), the planar basis eta_J, distinguished
points (PK, root kinematics, the K_D cone), octahedral commutators, the
(3,n) kinematic shift eta-hat, and noncrossing amplitude evaluation.

The nonfrozen eta_J form a basis of the dual of K(k,n) and eta_J of a
frozen J vanishes on K, so functionals are kept as sparse eta-coordinates
and agree on K iff their coordinates do.  Only `KinBasis` touches s-space:
its n eta_J rows give the eta values of a point, and its integer map S,
s_I = sum_J S[I][J] eta_J, gives the point of given eta values.
"""
from __future__ import annotations

import random
import warnings
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, prod
from operator import mul, sub

from . import linalg
from .combinat import (MAX_COLLECTIONS, _bits, _first_collection, _noncrossing_graph,
                       _nonfrozen, _search_dag, check_kn, check_subset, is_frozen,
                       nonfrozen_subsets, shape_cache)
from .roots import _in_cyclic_open, gamma_hat, grid_point

F = Fraction


# ---------------------------------------------------------------------------
# the tropical heights and the planar basis

def _L(x, n):
    """[L_t(x) for t = 0..n-1] of a map x from labels to weights, where
    L_t(x) = x_{t+1} + 2 x_{t+2} + ... + (n-1) x_{t-1}, labels mod n."""
    return [sum((a - t) % n * w for a, w in x.items()) for t in range(n)]


def rho_height(u, v, n):
    """-(1/n) min_t L_t(v - u) for integer points u, v on the level-k
    hyperplane; this is the tropical height whose bending encodes the
    planar basis.  Raises ValueError unless u and v have n entries each."""
    if len(u) != n or len(v) != n:
        raise ValueError(f"u and v must have {n} entries, got {len(u)} and {len(v)}")
    return linalg._exact(F(-min(_L({a: v[a - 1] - u[a - 1] for a in range(1, n + 1)}, n)), n))


class KinFunctional:
    """Linear functional on K(k,n), held as its sparse coordinates ``eta``
    in the basis of nonfrozen planar invariants eta_J."""

    __slots__ = ("k", "n", "eta")

    def __init__(self, k, n, coeffs=None):
        """The functional sum_I coeffs[I] s_I, converted once through the
        integer eta -> s map: its eta_J-coordinate is sum_I coeffs[I] S[I][J].
        A key of coeffs is checked as `KinBasis.eta_values` checks one
        (`_check_keys`)."""
        self.k, self.n, self.eta = k, n, {}
        if coeffs:
            B = kin_basis(k, n)
            _check_keys(coeffs, B.index, k, n)
            self.eta = self._of(k, n, [(B.S[I], a) for I, a in coeffs.items()]).eta

    @classmethod
    def _of(cls, k, n, terms):
        """The functional whose eta-coordinates are the sum of c * eta over
        the (eta map, scalar c) terms (`linalg._combine`); zeros are
        dropped and integral values become ints."""
        out = cls(k, n)
        out.eta = {J: linalg._exact(c) for J, c in linalg._combine(terms).items()}
        return out

    def __add__(self, other):
        return self._of(self.k, self.n, [(self.eta, 1), (other.eta, 1)])

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        return self._of(self.k, self.n, [(self.eta, scalar)])

    __rmul__ = __mul__

    def on_eta(self, eta_values):
        """Evaluate on the point of K(k,n) with the given nonfrozen eta
        values (missing ones are zero)."""
        return linalg._exact(sum(c * eta_values.get(J, 0) for J, c in self.eta.items()))

    def value(self, point):
        """Evaluate on an s-value map, which must lie in K(k,n): the value
        is read off the point's eta values."""
        return self.on_eta(kin_basis(self.k, self.n).eta_values(point))


@shape_cache
def eta_functional(J, k, n):
    """Planar kinematic invariant eta_J as a functional: a unit coordinate
    vector, empty (identically zero on K(k,n)) iff J is frozen.  ValueError
    unless (k, n) passes `check_kn` and J `check_subset`."""
    check_kn(k, n)
    J = check_subset(J, k, n)
    return KinFunctional._of(k, n, [] if is_frozen(J, n) else [({J: 1}, 1)])


# ---------------------------------------------------------------------------
# the kinematic space and the eta <-> s change of basis

class KinBasis:
    """Rational basis of K(k,n) together with the change of basis between
    the nonfrozen planar invariants eta_J and s-values.

    The map S, the sparse int map ``S[I] = {J: c}`` with
    s_I = sum_J c eta_J on K, is written down in closed form (`_s_row`):

        s_I = sum over T subset of I with (T - 1) & I empty of
              (-1)^(|T|+1) eta_{(I - T) | (T - 1)},

    T - 1 lowering each label of T by one cyclically (1 - 1 = n), and a
    term on a frozen subset dropped.  An integer certificate proves it is
    the inverse of the eta rows: the null space of the n incidence rows
    has dimension C(n,k) - n, every column of S conserves momentum (lies
    in K), and the n eta_J rows times S are n times the identity.  So S
    maps onto K, the nonfrozen eta_J are a basis of the dual of K, and S
    is the integral eta -> s map.

    Every entry of S is +-1, so `point_from_eta` reads each row as two
    index rows, the J with +1 and the J with -1, and takes s_I as one sum
    minus the other, with no multiply.
    """

    def __init__(self, k, n):
        self.k, self.n = k, n
        self.subsets = list(combinations(range(1, n + 1), k))
        self.index = {J: t for t, J in enumerate(self.subsets)}
        incidence = [[int(a in J) for J in self.subsets] for a in range(1, n + 1)]
        self.basis = linalg.nullspace(incidence)
        self.nonfrozen, position = _nonfrozen(k, n)
        self._heights = [_L(dict.fromkeys(I, 1), n) for I in self.subsets]
        self._eta_rows = [self._n_eta_row(J) for J in self.nonfrozen]
        self.S = {I: _s_row(I, n, position) for I in self.subsets}
        self._signed_rows = [([J for J, c in row.items() if c == 1],
                              [J for J, c in row.items() if c == -1]) for row in self.S.values()]
        self._certify(position)

    def _certify(self, position):
        """Raise AssertionError unless K has dimension C(n,k) - n, every
        column of S conserves momentum and the eta rows times S are n I."""
        n, m = self.n, len(self.nonfrozen)
        if len(self.basis) != m:
            raise AssertionError("K does not have dimension C(n,k) - n")
        rows = [[(position[J], c) for J, c in row.items()] for row in self.S.values()]
        label_sums = [[0] * m for _ in range(n)]
        for I, row in zip(self.subsets, rows):
            for a in I:
                sums = label_sums[a - 1]
                for t, c in row:
                    sums[t] += c
        if any(map(any, label_sums)):
            raise AssertionError("the eta -> s map leaves K")
        for r, eta_row in enumerate(self._eta_rows):
            product = [0] * m
            product[r] = -n
            for x, row in zip(eta_row, rows):
                if x:
                    for t, c in row:
                        product[t] += x * c
            if any(product):
                raise AssertionError("the nonfrozen eta_J are not a basis of the dual of K")

    def _n_eta_row(self, J):
        """The s-coefficients of n eta_J, max_t (L_t(e_J) - L_t(e_I)), in
        the order of ``subsets``."""
        LJ = _L(dict.fromkeys(J, 1), self.n)
        return [max(map(sub, LJ, h)) for h in self._heights]

    def point_from_eta(self, eta_values):
        """The unique K-point whose nonfrozen eta-values are as given
        (missing ones are zero); returns the s-value map without zeros."""
        get, zeros = eta_values.get, repeat(0)
        point = {I: sum(map(get, plus, zeros)) - sum(map(get, minus, zeros))
                 for I, (plus, minus) in zip(self.subsets, self._signed_rows)}
        return {I: linalg._exact(v) for I, v in point.items() if v}

    def eta_values(self, point):
        """The nonfrozen eta values of an s-value map, which must be a point
        of K(k,n): ValueError for a key that is not a k-subset of [1, n] and
        for values that break momentum conservation."""
        k, n = self.k, self.n
        _check_keys(point, self.index, k, n)
        if not check_conservation(point, k, n):
            raise ValueError(f"the s-values break momentum conservation: "
                             f"not a point of K({k},{n})")
        return {J: linalg._exact(F(sum(c * point.get(I, 0) for I, c in zip(self.subsets, row)),
                                   self.n))
                for J, row in zip(self.nonfrozen, self._eta_rows)}


def _s_row(I, n, position):
    """s_I in the nonfrozen eta_J (keyed and ordered by ``position``): the
    term of T is (-1)^(|T|+1) eta_J with J = (I - T) | (T - 1).  J and I
    determine T = I - J, so no two terms share a J and each entry is +-1."""
    terms = []
    for size in range(len(I) + 1):
        for T in combinations(I, size):
            lowered = {(a - 2) % n + 1 for a in T}
            if lowered.isdisjoint(I):
                J = tuple(sorted(lowered.union(I).difference(T)))
                if J in position:
                    terms.append((position[J], J, -1 if size % 2 == 0 else 1))
    return {J: c for _t, J, c in sorted(terms)}


@shape_cache
def kin_basis(k, n):
    """The cached `KinBasis` of (k, n); ValueError unless k and n are ints
    with 2 <= k <= n - 2."""
    check_kn(k, n)
    return KinBasis(k, n)


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


# ---------------------------------------------------------------------------
# distinguished points

def check_conservation(point, k, n):
    for a in range(1, n + 1):
        if sum(v for J, v in point.items() if a in J):
            return False
    return True


def pk_point(k, n):
    """s-values of the Planar Kinematics point: +1 on the n cyclic windows
    of length k, -1 on the windows with the last label shifted out by one."""
    check_kn(k, n)
    windows = [[(j + t) % n + 1 for t in range(k + 1)] for j in range(n)]
    return linalg._combine([({tuple(sorted(w[:k])): 1, tuple(sorted(w[:k - 1] + w[k:])): -1}, 1)
                            for w in windows])


def _check_keys(point, subsets, k, n):
    """ValueError naming the first key of the s-indexed map point that is
    not in subsets, the k-subsets of [1, n], or whose entries are not all
    ints: (1.0, 3, 5) and (True, 3, 5) equal (1, 3, 5), but are rejected as
    `check_subset` rejects them."""
    bad = next((I for I in point
                if I not in subsets or not all(type(a) is int for a in I)), None)
    if bad is not None:
        raise ValueError(f"s-value key {bad!r} is not a {k}-subset of [1, {n}]")


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


def interior_kd_point(k, n, seed=None):
    """A strictly interior point of K_D: the uniform point (all nonfrozen
    s = -1) plus, when seeded, a small random K-perturbation that keeps
    every sign strict."""
    check_kn(k, n)
    frozen = linalg._ratio(comb(n - 1, k - 1) - k, k)
    base = {J: frozen if is_frozen(J, n) else -1 for J in combinations(range(1, n + 1), k)}
    if seed is None:
        return base
    rng = random.Random(seed)
    B = kin_basis(k, n)
    bound = max(max(abs(x) for x in vec) for vec in B.basis)
    eps = F(1, 4) / (bound * len(B.basis))
    for t, vec in enumerate(B.basis):
        c = eps * F(rng.randint(-1000, 1000), 1000)
        for J, idx in B.index.items():
            if vec[idx]:
                base[J] += c * vec[idx]
    return {J: v for J, v in base.items() if v}


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


# ---------------------------------------------------------------------------
# the (3, n) kinematic shift

def eta_tripod(A, B, k, n):
    """-eta_A + sum of eta with each element of A replaced by the unique
    element of B in the following cyclic gap; A and B must interleave."""
    A, B = tuple(A), tuple(B)
    out = eta_functional(A, k, n) * -1
    for t, a in enumerate(A):
        lo, hi = a, A[(t + 1) % len(A)]
        picks = [x for x in B if _in_cyclic_open(x, lo, hi, n)]
        if len(picks) != 1:
            raise ValueError(f"triples {A}, {B} do not interleave")
        repl = tuple(sorted(set(A) - {a} | {picks[0]}))
        out = out + eta_functional(repl, k, n)
    return out


def eta_hat_shift(n):
    """Resolved planar invariants eta-hat for (3, n) as functionals.

    eta-hat_I differs from eta_I exactly when I admits a crossing partner
    reachable by the shift construction: the correction adds, for each j
    with i1 < j < j+1 < i2 (and i3 < n), the tripod on (i1, j+1, i3) against
    (j, i2, n) minus eta_{j,j+1,n}, and for j = i2+1 (when i2+1 < i3 and
    i3 <= n-2) the tripod on (i2, i3, n) against (i1, j, n-1) minus
    eta_{j,n-1,n}; an overcount of (N-1) eta_I is subtracted when N terms
    contribute.  Warns (UserWarning) on every call with n > 9, beyond the
    validated range.  The rows are built once per n (`_shift_rows`); each
    call returns new functionals.  ValueError unless n is an int >= 5.
    """
    check_kn(3, n)
    if n > 9:
        warnings.warn(f"kinematic shift for (3, {n}) is beyond the validated range n <= 9",
                      stacklevel=2)
    out = {}
    for I, row in _shift_rows(n):
        out[I] = hat = KinFunctional(3, n)
        hat.eta = dict(row)
    return out


@shape_cache
def _shift_rows(n):
    """The eta-coordinates of every eta-hat_I of `eta_hat_shift`, as an
    immutable table ((I, ((J, c), ...)), ...) in nonfrozen order."""
    rows = []
    for I in nonfrozen_subsets(3, n):
        i1, i2, i3 = I
        first = [j for j in range(i1 + 1, i2 - 1)] if i3 < n else []
        second = [i2 + 1] if (i2 + 1 < i3 and i3 <= n - 2) else []
        acc = eta_functional(I, 3, n) * (1 - len(first) - len(second))
        for j in first:
            acc = acc + eta_tripod((i1, j + 1, i3), (j, i2, n), 3, n)
            acc = acc - eta_functional((j, j + 1, n), 3, n)
        for j in second:
            acc = acc + eta_tripod((i2, i3, n), (i1, j, n - 1), 3, n)
            acc = acc - eta_functional((j, n - 1, n), 3, n)
        rows.append((I, tuple(acc.eta.items())))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the noncrossing amplitude

class AmplitudePole(ZeroDivisionError):
    """A zero or missing value met by `nc_amplitude`.  ``collection`` is
    the sorted-first maximal collection holding one, which a sorted
    term-by-term sum meets first: the least of the greedy first
    collections through each such subset (`combinat._first_collection`),
    read off the noncrossing graph with no search, so the report does not
    depend on max_collections.  The CLI's `amplitude` never gets there: it
    lists every zero or missing value under ``poles``, with exit 1,
    before it calls `nc_amplitude`."""

    def __init__(self, collection):
        self.collection = collection
        super().__init__(f"zero or missing value on the collection {collection}")


def nc_amplitude(k, n, values, max_collections=MAX_COLLECTIONS):
    """Sum over all maximal noncrossing collections of the product of
    1/values[J]; values maps every nonfrozen subset to a nonzero int or
    Fraction.  Any other value, bool included, is a ValueError naming its
    subset.

    The sum is one bottom-up pass over the cached Bron-Kerbosch search DAG,
    in integers: `combinat.SearchDag.fold_up(D, p, q)`.  The search runs
    on the noncrossing graph renumbered in degeneracy order, but each edge
    carries its vertex's index in verts, so p and q stay in the order of
    verts.  With values[J] = p_J / q_J in lowest terms and D the product
    of every p_J, each node gets T = D at the leaf and T(node) = sum over
    its edges (v, child) of T(child) // p_v * q_v.  Unfolded, T(node) is
    the sum over the maximal cliques below it of D prod q_J / p_J over the
    vertices J added below it.  Every division is exact: the vertices
    below the edge of v lie in P & N(v), which excludes v, so p_v divides
    each term of T(child) and hence their sum.  Merging equal (P, X)
    subtrees changes nothing, because a subtree's T depends only on its
    pair.  So T(root) is D times the sum over collections R of
    prod_{J in R} 1 / values[J], and the amplitude is T(root) / D, made
    one Fraction at the end (an int where integral); no lcm of the
    denominators is formed.

    The pass reads the DAG's edges once each, in storage order, adding
    each term to the T of the edge's owner.  A node's edges are stored
    after all of its children's, so each T(child) is complete before it
    is read.  When every value is an int, every q_v is 1 and the pass
    does no multiply.
    """
    verts, adj = _noncrossing_graph(k, n)
    vals = [values.get(J, 0) for J in verts]
    for J, x in zip(verts, vals):
        if type(x) is bool or not isinstance(x, (int, F)):
            raise ValueError(f"the value of {J} is not an int or a Fraction: {x!r}")
    if not all(vals):
        # a missing or zero value: report it in the sorted-first collection
        # holding one, which is what a sorted term-by-term sum meets first,
        # the least of the sorted-first collections through each such
        # vertex; it holds one, so the loop below raises
        coll = min(tuple(verts[i] for i in _bits(_first_collection(adj, 1 << v)))
                   for v, x in enumerate(vals) if not x)
        for J in coll:
            if not values.get(J):
                raise AmplitudePole(coll)
    p, q = [x.numerator for x in vals], [x.denominator for x in vals]
    D = prod(p)
    total = _search_dag(k, n, max_collections).fold_up(D, p, q)
    return linalg._ratio(total, D)


# ---------------------------------------------------------------------------
# golden data: the (3,6) prime-kinematics benchmark

PRIME_ETA_36 = {
    (1, 2, 4): 8087, (1, 2, 5): 8537, (1, 3, 4): 9227, (1, 3, 5): 10247,
    (1, 3, 6): 11657, (1, 4, 5): 13259, (1, 4, 6): 15277, (2, 3, 5): 17599,
    (2, 3, 6): 20333, (2, 4, 5): 23321, (2, 4, 6): 26737, (2, 5, 6): 30637,
    (3, 4, 6): 34679, (3, 5, 6): 39293,
}

NC_AMPLITUDE_36_VALUE = F(
    123056338102581409136850198886105885604358154,
    117823347678612917535483161041113226062939619903306798191335)


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


# frozen golden values for the 19 shifted (3,8) functionals, written as
# eta-coefficient maps; the general eta_hat_shift construction must
# reproduce every row exactly (rows marked * repair copy slips that an
# earlier transcription of this table carried)
ETA_HAT_38_TABLE = {
    (1, 2, 4): {(1, 2, 4): 1, (2, 4, 8): -1, (3, 4, 8): 1, (2, 7, 8): 1, (3, 7, 8): -1},
    (1, 2, 5): {(1, 2, 5): 1, (2, 5, 8): -1, (3, 5, 8): 1, (2, 7, 8): 1, (3, 7, 8): -1},
    (1, 2, 6): {(1, 2, 6): 1, (2, 6, 8): -1, (3, 6, 8): 1, (2, 7, 8): 1, (3, 7, 8): -1},
    (1, 3, 5): {(1, 3, 5): 1, (3, 5, 8): -1, (4, 5, 8): 1, (3, 7, 8): 1, (4, 7, 8): -1},
    (1, 3, 6): {(1, 3, 6): 1, (3, 6, 8): -1, (4, 6, 8): 1, (3, 7, 8): 1, (4, 7, 8): -1},  # *
    (1, 4, 5): {(1, 4, 5): 1, (1, 3, 5): -1, (2, 3, 5): 1, (1, 3, 8): 1, (2, 3, 8): -1},
    (1, 4, 6): {(1, 4, 6): 1, (1, 3, 6): -1, (2, 3, 6): 1, (1, 3, 8): 1, (2, 3, 8): -1,
                (4, 6, 8): -1, (5, 6, 8): 1, (4, 7, 8): 1, (5, 7, 8): -1},
    (1, 4, 7): {(1, 4, 7): 1, (1, 3, 7): -1, (2, 3, 7): 1, (1, 3, 8): 1, (2, 3, 8): -1},
    (1, 5, 6): {(1, 5, 6): 1, (1, 3, 6): -1, (2, 3, 6): 1, (1, 3, 8): 1, (2, 3, 8): -1,  # *
                (1, 4, 6): -1, (3, 4, 6): 1, (1, 4, 8): 1, (3, 4, 8): -1},
    (1, 5, 7): {(1, 5, 7): 1, (1, 3, 7): -1, (2, 3, 7): 1, (1, 3, 8): 1, (2, 3, 8): -1,  # *
                (1, 4, 7): -1, (3, 4, 7): 1, (1, 4, 8): 1, (3, 4, 8): -1},
    (1, 6, 7): {(1, 6, 7): 1, (1, 3, 7): -1, (2, 3, 7): 1, (1, 3, 8): 1, (2, 3, 8): -1,  # *
                (1, 4, 7): -1, (3, 4, 7): 1, (1, 4, 8): 1, (3, 4, 8): -1,
                (1, 5, 7): -1, (4, 5, 7): 1, (1, 5, 8): 1, (4, 5, 8): -1},
    (2, 3, 5): {(2, 3, 5): 1, (3, 5, 8): -1, (4, 5, 8): 1, (3, 7, 8): 1, (4, 7, 8): -1},
    (2, 3, 6): {(2, 3, 6): 1, (3, 6, 8): -1, (4, 6, 8): 1, (3, 7, 8): 1, (4, 7, 8): -1},
    (2, 4, 6): {(2, 4, 6): 1, (4, 6, 8): -1, (5, 6, 8): 1, (4, 7, 8): 1, (5, 7, 8): -1},
    (2, 5, 6): {(2, 5, 6): 1, (2, 4, 6): -1, (3, 4, 6): 1, (2, 4, 8): 1, (3, 4, 8): -1},
    (2, 5, 7): {(2, 5, 7): 1, (2, 4, 7): -1, (3, 4, 7): 1, (2, 4, 8): 1, (3, 4, 8): -1},
    (2, 6, 7): {(2, 6, 7): 1, (2, 4, 7): -1, (3, 4, 7): 1, (2, 4, 8): 1, (3, 4, 8): -1,
                (2, 5, 7): -1, (4, 5, 7): 1, (2, 5, 8): 1, (4, 5, 8): -1},
    (3, 4, 6): {(3, 4, 6): 1, (4, 6, 8): -1, (5, 6, 8): 1, (4, 7, 8): 1, (5, 7, 8): -1},
    (3, 6, 7): {(3, 6, 7): 1, (3, 5, 7): -1, (4, 5, 7): 1, (3, 5, 8): 1, (4, 5, 8): -1},
}
