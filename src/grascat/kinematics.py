"""The kinematic space K(k,n), the planar basis eta_J, distinguished
points (PK, root kinematics, the K_D cone), octahedral commutators, the
(3,n) kinematic shift eta-hat, and noncrossing amplitude evaluation.

Functionals are kept as full s-coefficient maps; equality is only ever
decided by evaluating on a basis of K(k,n), because s-expansions of the
same functional are far from unique.
"""
from __future__ import annotations

import random
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm, prod

from . import linalg
from .combinat import (_fold_maximal_noncrossing, enumerate_maximal_noncrossing,
                       is_frozen, nonfrozen_subsets)
from .roots import _in_cyclic_open, gamma_hat

F = Fraction


# ---------------------------------------------------------------------------
# the tropical heights and the planar basis

def _L_value(t, x, n):
    """L_t(x) = x_{t+1} + 2 x_{t+2} + ... + (n-1) x_{t-1}, labels mod n."""
    tot = 0
    for r in range(1, n):
        tot += r * x[(t + r - 1) % n]
    return tot


def rho_height(u, v, n):
    """-(1/n) min_t L_t(v - u) for integer points u, v on the level-k
    hyperplane; this is the tropical height whose bending encodes the
    planar basis."""
    x = [F(v[i]) - F(u[i]) for i in range(n)]
    return -F(min(_L_value(t, x, n) for t in range(n)), n)


def _indicator(J, n):
    e = [0] * n
    for j in J:
        e[j - 1] = 1
    return e


class KinFunctional:
    """Linear functional on K(k,n) carried as a full s-coefficient map."""

    __slots__ = ("k", "n", "coeffs")

    def __init__(self, k, n, coeffs=None):
        self.k, self.n = k, n
        self.coeffs = {J: F(c) for J, c in (coeffs or {}).items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for J, c in other.coeffs.items():
            s = out.get(J, F(0)) + c
            if s:
                out[J] = s
            else:
                out.pop(J, None)
        return KinFunctional(self.k, self.n, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        return KinFunctional(self.k, self.n,
                             {J: c * scalar for J, c in self.coeffs.items()})

    __rmul__ = __mul__

    def value(self, point):
        """Evaluate against an s-value map."""
        return sum((c * point.get(J, F(0)) for J, c in self.coeffs.items()), F(0))


@lru_cache(maxsize=None)
def eta_functional(J, k, n):
    """Planar kinematic invariant eta_J as a functional; identically zero
    on K(k,n) iff J is frozen."""
    J = tuple(J)
    eJ = _indicator(J, n)
    coeffs = {}
    for I in combinations(range(1, n + 1), k):
        x = [a - b for a, b in zip(_indicator(I, n), eJ)]
        val = -F(min(_L_value(t, x, n) for t in range(n)), n)
        if val:
            coeffs[I] = val
    return KinFunctional(k, n, coeffs)


# ---------------------------------------------------------------------------
# the kinematic space and the eta <-> s change of basis

class KinBasis:
    """Rational basis of K(k,n) together with the change of basis between
    the nonfrozen planar invariants eta_J and K-coordinates."""

    def __init__(self, k, n):
        self.k, self.n = k, n
        self.subsets = list(combinations(range(1, n + 1), k))
        self.index = {J: t for t, J in enumerate(self.subsets)}
        rows = []
        for a in range(1, n + 1):
            rows.append([F(1) if a in J else F(0) for J in self.subsets])
        self.basis = linalg.nullspace(rows)
        self.nonfrozen = nonfrozen_subsets(k, n)
        if len(self.basis) != comb(n, k) - n:
            raise AssertionError("kinematic space has unexpected dimension")
        self.eta_matrix = [[self._on_basis(eta_functional(J, k, n), t)
                            for t in range(len(self.basis))]
                           for J in self.nonfrozen]
        self._inv = linalg.inverse(self.eta_matrix)

    def _on_basis(self, functional, t):
        vec = self.basis[t]
        return sum((c * vec[self.index[J]] for J, c in functional.coeffs.items()), F(0))

    def functional_vector(self, functional):
        """Values of a functional on the basis of K."""
        return [self._on_basis(functional, t) for t in range(len(self.basis))]

    def point_from_eta(self, eta_values):
        """The unique K-point whose nonfrozen eta-values are as given;
        returns the full s-value map."""
        y = [F(eta_values.get(J, 0)) for J in self.nonfrozen]
        c = [sum(self._inv[t][r] * y[r] for r in range(len(y)))
             for t in range(len(self.basis))]
        point = {}
        for J in self.subsets:
            idx = self.index[J]
            val = sum((c[t] * self.basis[t][idx] for t in range(len(c))), F(0))
            if val:
                point[J] = val
        return point

    def eta_values(self, point):
        return {J: eta_functional(J, self.k, self.n).value(point)
                for J in self.nonfrozen}


@lru_cache(maxsize=None)
def kin_basis(k, n):
    return KinBasis(k, n)


def functionals_equal_on_K(f, g):
    """Equality of two functionals modulo the conservation relations."""
    if (f.k, f.n) != (g.k, g.n):
        raise ValueError("ambient mismatch")
    B = kin_basis(f.k, f.n)
    diff = f - g
    return all(v == 0 for v in B.functional_vector(diff))


def eta_combination(coeffs, k, n):
    """sum c_J eta_J as a KinFunctional."""
    out = KinFunctional(k, n)
    for J, c in coeffs.items():
        out = out + eta_functional(tuple(J), k, n) * F(c)
    return out


# ---------------------------------------------------------------------------
# distinguished points

def check_conservation(point, k, n):
    for a in range(1, n + 1):
        tot = sum((v for J, v in point.items() if a in J), F(0))
        if tot:
            return False
    return True


def pk_point(k, n):
    """s-values of the Planar Kinematics point: +1 on the n cyclic windows
    of length k, -1 on the windows with the last label shifted out by one."""
    point = {}
    for j in range(n):
        plus = tuple(sorted((j + t) % n + 1 for t in range(k)))
        minus = tuple(sorted([(j + t) % n + 1 for t in range(k - 1)] + [(j + k) % n + 1]))
        point[plus] = point.get(plus, F(0)) + 1
        point[minus] = point.get(minus, F(0)) - 1
    return {J: v for J, v in point.items() if v}


def kd_membership(point, k, n, strict=False):
    """Membership of an s-value map in the planar cone K_D: nonpositive on
    nonfrozen subsets, nonnegative on the frozen windows."""
    if not check_conservation(point, k, n):
        return False
    for J in combinations(range(1, n + 1), k):
        v = point.get(J, F(0))
        if is_frozen(J, n):
            if v < 0 or (strict and v == 0):
                return False
        else:
            if v > 0 or (strict and v == 0):
                return False
    return True


def interior_kd_point(k, n, seed=None, spread=F(1, 4)):
    """A strictly interior point of K_D: the uniform point (all nonfrozen
    s = -1) plus, when seeded, a small random K-perturbation that keeps
    every sign strict."""
    base = {}
    r = comb(n - 1, k - 1) - k
    for J in combinations(range(1, n + 1), k):
        base[J] = F(r, k) if is_frozen(J, n) else F(-1)
    if seed is None:
        return base
    rng = random.Random(seed)
    B = kin_basis(k, n)
    bound = max(max(abs(x) for x in vec) for vec in B.basis)
    eps = spread / (bound * len(B.basis))
    for t, vec in enumerate(B.basis):
        c = eps * F(rng.randint(-1000, 1000), 1000)
        for J, idx in B.index.items():
            if vec[idx]:
                base[J] = base.get(J, F(0)) + c * vec[idx]
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
    """The K-point with eta_J = gamma_J(alpha) for every nonfrozen J."""
    values = {}
    for J in nonfrozen_subsets(k, n):
        g = gamma_hat(J, k, n)
        values[J] = sum((F(c) * F(alpha.get(key, 0)) for key, c in g.items()), F(0))
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


def eta_hat_shift(n, warn_beyond_validated=True):
    """Resolved planar invariants eta-hat for (3, n) as functionals.

    eta-hat_I differs from eta_I exactly when I admits a crossing partner
    reachable by the shift construction: the correction adds, for each j
    with i1 < j < j+1 < i2 (and i3 < n), the tripod on (i1, j+1, i3) against
    (j, i2, n) minus eta_{j,j+1,n}, and for j = i2+1 (when i2+1 < i3 and
    i3 <= n-2) the tripod on (i2, i3, n) against (i1, j, n-1) minus
    eta_{j,n-1,n}; an overcount of (N-1) eta_I is subtracted when N terms
    contribute.
    """
    if n > 9 and warn_beyond_validated:
        warnings.warn(f"kinematic shift for (3, {n}) is beyond the validated range n <= 9",
                      stacklevel=2)
    out = {}
    for I in nonfrozen_subsets(3, n):
        i1, i2, i3 = I
        first = [j for j in range(i1 + 1, i2 - 1)] if i3 < n else []
        second = [i2 + 1] if (i2 + 1 < i3 and i3 <= n - 2) else []
        terms = len(first) + len(second)
        if not terms:
            out[I] = eta_functional(I, 3, n)
            continue
        acc = eta_functional(I, 3, n) * (-(terms - 1))
        for j in first:
            acc = acc + eta_tripod((i1, j + 1, i3), (j, i2, n), 3, n)
            acc = acc - eta_functional((j, j + 1, n), 3, n)
        for j in second:
            acc = acc + eta_tripod((i2, i3, n), (i1, j, n - 1), 3, n)
            acc = acc - eta_functional((j, n - 1, n), 3, n)
        out[I] = acc
    return out


# ---------------------------------------------------------------------------
# the noncrossing amplitude

class AmplitudePole(ZeroDivisionError):
    def __init__(self, collection):
        self.collection = collection
        super().__init__(f"zero eta-hat on the collection {collection}")


def nc_amplitude(k, n, values, max_collections=200000):
    """Sum over all maximal noncrossing collections of the product of
    1/values[J]; values maps every nonfrozen subset to a nonzero rational.

    The sum is one pass over the Bron-Kerbosch tree in integers.  With L
    the lcm of the denominators, a_J = L values[J] and P the product of
    every a_J, a branch holding the collection R carries the exact quotient
    P / prod_{J in R} a_J, and each maximal collection adds its quotient to
    the total; every collection has d = (k-1)(n-k-1) members, so the sum
    is total L^d / P.
    """
    verts = nonfrozen_subsets(k, n)
    vals = [F(values.get(J, 0)) for J in verts]
    if not all(vals):
        # a missing or zero value: report the first one met in the sorted
        # term-by-term sum; every nonfrozen subset lies in some maximal
        # collection, so this raises
        for coll in enumerate_maximal_noncrossing(k, n, max_collections):
            for J in coll:
                if not F(values[J]):
                    raise AmplitudePole(coll)
    L = lcm(*[v.denominator for v in vals])
    a = [v.numerator * (L // v.denominator) for v in vals]
    P = prod(a)
    total = 0

    def add(Q):
        nonlocal total
        total += Q

    _fold_maximal_noncrossing(k, n, max_collections, P, lambda Q, v: Q // a[v], add)
    return F(total * L ** ((k - 1) * (n - k - 1)), P)


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
    B = kin_basis(3, 6)
    point = B.point_from_eta(PRIME_ETA_36)
    hats = eta_hat_shift(6)
    hat_values = {J: hats[J].value(point) for J in B.nonfrozen}
    amplitude = nc_amplitude(3, 6, hat_values)
    return {
        "point": point,
        "minus_s356": -point.get((3, 5, 6), F(0)),
        "minus_s236": -point.get((2, 3, 6), F(0)),
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
