"""Generalized positive roots, their quotient-lattice images, cubical
relations, and the unique positive noncrossing expansion of any vector in
the row-sum-zero subspace (the complete simplicial fan of noncrossing
cones).

Grid vectors live in R^{(k-1) x (n-k)} and are stored sparsely as dicts
{(i, j): Fraction} with 1-based row/column indices; the ambient (k, n) is
passed alongside.  gamma_hat gives the e-basis coefficient vector of the
linear function gamma_J; project_f sends e_{i,j} to f_{i,j} so that every
row sums to zero, and v_root(J) = project_f(gamma_hat(J)) is the vertex of
the root polytope attached to J.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .combinat import check_subset, compatibility_degree, nonfrozen_subsets

F = Fraction


# ---------------------------------------------------------------------------
# grid vectors

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
    """0/1 e-basis coefficient vector of gamma_J: row i carries the interval
    [j_i - (i-1), j_{i+1} - i - 1]; empty intervals contribute nothing."""
    J = check_subset(J, k, n)
    v = {}
    for i in range(1, k):
        lo, hi = J[i - 1] - (i - 1), J[i] - i - 1
        for j in range(lo, hi + 1):
            v[(i, j)] = v.get((i, j), 0) + 1
    return {key: F(c) for key, c in v.items() if c}


def project_f(v, k, n):
    """Image of a grid vector under e_{i,j} -> f_{i,j}; rows then sum to 0."""
    return f_combination(v, k, n)


def v_root(J, k, n):
    """Root vector v_J in the quotient; zero iff J is a cyclic interval."""
    return project_f(gamma_hat(J, k, n), k, n)


def row_sums(v, k, n):
    sums = [F(0)] * (k - 1)
    for (i, _j), c in v.items():
        sums[i - 1] += c
    return sums


def lattice_coords(v, k, n):
    """Coordinates of a row-sum-zero vector in the lattice basis
    {f_{i,j} : 1 <= j <= n-k-1} (last column dropped per row): the running
    partial sums of each row."""
    coords = []
    for i in range(1, k):
        acc = F(0)
        for j in range(1, n - k):
            acc += v.get((i, j), F(0))
            coords.append(acc)
    return coords


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
    maximal noncrossing collections.  Finds the cone whose relative
    interior holds a given vector by walking the straight segment from an
    interior point of a fixed start cone, crossing one wall at a time; each
    wall has a unique opposite completion because the fan is simplicial and
    complete."""

    def __init__(self, k, n):
        self.k, self.n = k, n
        self.dim = (k - 1) * (n - k - 1)
        self.verts = nonfrozen_subsets(k, n)
        self.coords = {J: lattice_coords(v_root(J, k, n), k, n) for J in self.verts}
        self._nc = {}
        self.start = self._greedy_collection()

    def _noncrossing(self, A, B):
        key = (A, B) if A < B else (B, A)
        val = self._nc.get(key)
        if val is None:
            val = compatibility_degree(A, B, self.n) == 0
            self._nc[key] = val
        return val

    def _greedy_collection(self):
        chosen = []
        for J in self.verts:
            if all(self._noncrossing(J, C) for C in chosen):
                chosen.append(J)
        if len(chosen) != self.dim:
            raise AssertionError("greedy collection is not maximal-pure")
        return tuple(chosen)

    def _flip(self, collection, leave):
        wall = [J for J in collection if J != leave]
        wallset = set(wall)
        found = None
        for X in self.verts:
            if X == leave or X in wallset:
                continue
            if all(self._noncrossing(X, W) for W in wall):
                if found is not None:
                    raise AssertionError(
                        f"wall {wall} has several completions: {found}, {X}")
                found = X
        if found is None:
            raise AssertionError(f"wall {wall} has no second completion")
        return tuple(sorted(wall + [found]))

    def locate(self, target_coords, max_steps=20000):
        for attempt in range(20):
            try:
                return self._walk(target_coords, attempt, max_steps)
            except _Restart:
                continue
        raise DecompositionError("fan walk failed to converge")

    def _walk(self, target, attempt, max_steps):
        cone = self.start
        # interior start point; later attempts perturb it to dodge any
        # degenerate wall crossings
        weights = [F(1) + F(idx + 1, 1009 + 97 * attempt * (idx + 2))
                   for idx in range(self.dim)]
        if attempt == 0:
            weights = [F(1)] * self.dim
        p0 = [sum(w * self.coords[J][t] for w, J in zip(weights, cone))
              for t in range(self.dim)]
        s_cur = F(0)
        for _step in range(max_steps):
            cols = sorted(cone)
            A = [[self.coords[J][t] for J in cols] for t in range(self.dim)]
            sol = linalg.solve_columns(A, [[p0[t], target[t]] for t in range(self.dim)])
            t0 = [row[0] for row in sol]
            tau = [row[1] for row in sol]
            if all(x >= 0 for x in tau):
                return {J: x for J, x in zip(cols, tau) if x > 0}
            s_exit, leave = None, None
            for J, a, b in zip(cols, t0, tau):
                if b < a:
                    s = a / (a - b)  # where (1-s)*a + s*b hits zero
                    if s > s_cur and (s_exit is None or s < s_exit):
                        s_exit, leave = s, J
            if leave is None:
                raise _Restart
            s_cur = s_exit
            cone = self._flip(cone, leave)
        raise _Restart


class _Restart(Exception):
    pass


@lru_cache(maxsize=None)
def _fan(k, n):
    return _Fan(k, n)


def noncrossing_decompose(v, k, n):
    """Unique expansion v = sum t_J v_J with t_J > 0 over a pairwise
    noncrossing collection, for any rational v with zero row sums.

    Integer lattice input gives integer coefficients (the cone bases are
    unimodular).  Raises DecompositionError when a row sum is nonzero.
    """
    v = {key: F(c) for key, c in v.items() if c}
    for i, s in enumerate(row_sums(v, k, n), start=1):
        if s:
            raise DecompositionError(f"row {i} sums to {s}, not 0")
    if not v:
        return {}
    return _fan(k, n).locate(lattice_coords(v, k, n))


def noncrossing_degree(coeffs, k, n):
    """Support size of the noncrossing expansion of sum c_J v_J."""
    v = {}
    for J, c in coeffs.items():
        v = grid_add(v, v_root(J, k, n), F(c))
    return len(noncrossing_decompose(v, k, n))


def combo_vector(coeffs, k, n, hat=False):
    """Grid vector of a formal combination sum c_J v_J (or gamma_hat with
    hat=True)."""
    v = {}
    build = gamma_hat if hat else v_root
    for J, c in coeffs.items():
        v = grid_add(v, build(J, k, n), F(c))
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
    coeffs = {tuple(sorted(U)): F(-1)}
    for old, new in zip(U, Uprime):
        S = tuple(sorted(set(U) - {old} | {new}))
        coeffs[S] = coeffs.get(S, F(0)) + 1
    return {J: c for J, c in coeffs.items() if c}


def _in_cyclic_open(x, lo, hi, n):
    """x strictly inside the cyclic interval (lo, hi)."""
    if lo < hi:
        return lo < x < hi
    return x > lo or x < hi


# ---------------------------------------------------------------------------
# JSON wire format

def subset_key(J):
    return ",".join(str(j) for j in J)


def parse_subset(key):
    return tuple(int(p) for p in key.split(","))


def coeffs_to_json(coeffs, k, n):
    return {
        "k": k,
        "n": n,
        "coeffs": {subset_key(J): str(coeffs[J]) for J in sorted(coeffs)},
    }


def coeffs_from_json(obj):
    coeffs = {parse_subset(key): F(val) for key, val in obj["coeffs"].items()}
    return coeffs, obj["k"], obj["n"]


def load_coeffs(path):
    with open(path) as fh:
        return coeffs_from_json(json.load(fh))
