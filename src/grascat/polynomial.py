"""Exact multivariate polynomials in the grid variables x_{i,j} for
(i, j) in [1, k-1] x [1, n-k], and everything built on them: the staircase
face polynomials tau, the PK factors P_i and Q_j, face polynomials delta,
the positive (BCFW-style) parameterization matrix, Plucker minors,
compound-determinant resolved minors, u-variables and the binary
identities they satisfy.

Polynomials are dicts from dense exponent tuples to integer (or rational)
coefficients; a FactoredRatio keeps products of polynomial factors
unexpanded so that the large cancellations in u-variable products stay
syntactic.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .combinat import compatibility_degree, is_frozen, nonfrozen_subsets

F = Fraction


class Poly:
    """Polynomial in the x_{i,j} grid for a fixed ambient (k, n)."""

    __slots__ = ("k", "n", "terms")

    def __init__(self, k, n, terms=None):
        self.k = k
        self.n = n
        self.terms = terms or {}

    @property
    def nvars(self):
        return (self.k - 1) * (self.n - self.k)

    def _idx(self, i, j):
        if not (1 <= i <= self.k - 1 and 1 <= j <= self.n - self.k):
            raise IndexError(f"variable x_{{{i},{j}}} outside the ({self.k},{self.n}) grid")
        return (i - 1) * (self.n - self.k) + (j - 1)

    @classmethod
    def zero(cls, k, n):
        return cls(k, n, {})

    @classmethod
    def const(cls, k, n, c):
        c = c if isinstance(c, (int, F)) else F(c)
        nv = (k - 1) * (n - k)
        return cls(k, n, {(0,) * nv: c} if c else {})

    @classmethod
    def one(cls, k, n):
        return cls.const(k, n, 1)

    @classmethod
    def var(cls, i, j, k, n):
        p = cls(k, n)
        exp = [0] * p.nvars
        exp[p._idx(i, j)] = 1
        p.terms[tuple(exp)] = 1
        return p

    @classmethod
    def monomial(cls, pairs, k, n, coeff=1):
        """Product of x_{i,j} over (i, j) pairs (repeats allowed)."""
        p = cls(k, n)
        exp = [0] * p.nvars
        for (i, j) in pairs:
            exp[p._idx(i, j)] += 1
        if coeff:
            p.terms[tuple(exp)] = coeff
        return p

    def _check(self, other):
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("ambient (k, n) mismatch")

    def __add__(self, other):
        if isinstance(other, (int, F)):
            other = Poly.const(self.k, self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.k, self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.k, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, F)):
            other = Poly.const(self.k, self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            if not other:
                return Poly.zero(self.k, self.n)
            return Poly(self.k, self.n, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(self.k, self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, m):
        out = Poly.one(self.k, self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, F)):
            other = Poly.const(self.k, self.n, other)
        return (self.k, self.n) == (other.k, other.n) and _sameterms(self.terms, other.terms)

    def __hash__(self):
        return hash((self.k, self.n, self.key()))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def key(self):
        """Canonical hashable form (graded-lex sorted term tuple)."""
        return tuple(sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0])))

    def eval(self, point):
        """Evaluate at {(i, j): rational}; missing variables default to 0."""
        vals = [F(0)] * self.nvars
        for (i, j), v in point.items():
            vals[self._idx(i, j)] = F(v)
        tot = F(0)
        for e, c in self.terms.items():
            m = F(c)
            for idx, p in enumerate(e):
                if p:
                    m *= vals[idx] ** p
            tot += m
        return tot

    def content_split(self):
        """(scalar, monomial exponent tuple, primitive polynomial) with the
        primitive part having integer coprime coefficients, positive leading
        coefficient and no common variable factor."""
        if not self.terms:
            return F(0), (0,) * self.nvars, Poly.zero(self.k, self.n)
        coeffs = [F(c) for c in self.terms.values()]
        from math import gcd
        num_gcd = 0
        den_lcm = 1
        for c in coeffs:
            num_gcd = gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        scale = F(num_gcd, den_lcm)
        mono = tuple(min(e[idx] for e in self.terms) for idx in range(self.nvars))
        terms = {}
        for e, c in self.terms.items():
            e2 = tuple(x - y for x, y in zip(e, mono))
            q = F(c) / scale
            terms[e2] = q.numerator if q.denominator == 1 else q
        prim = Poly(self.k, self.n, terms)
        lead = prim.terms[max(prim.terms, key=lambda e: (sum(e), e))]
        if lead < 0:
            scale = -scale
            prim = -prim
        return scale, mono, prim

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0])):
            mono = []
            for idx, p in enumerate(e):
                if p:
                    i, j = divmod(idx, self.n - self.k)
                    name = f"x{i + 1}{j + 1}"
                    mono.append(name if p == 1 else f"{name}^{p}")
            body = "*".join(mono) or "1"
            bits.append(f"{c}*{body}" if c != 1 or not mono else body)
        return " + ".join(bits)


def _sameterms(a, b):
    if len(a) != len(b):
        return False
    for e, c in a.items():
        if b.get(e) != c and F(b.get(e, 0)) != F(c):
            return False
    return True


def poly_from_json(obj, k, n):
    p = Poly.zero(k, n)
    seen = {}
    for term in obj:
        exp = [0] * p.nvars
        for (i, j, e) in term["exponents"]:
            exp[p._idx(i, j)] = e
        seen[tuple(exp)] = F(term["coeff"])
    p.terms = {e: c for e, c in seen.items() if c}
    return p


def poly_to_json(p):
    out = []
    for e, c in sorted(p.terms.items(), key=lambda ec: (sum(ec[0]), ec[0])):
        exps = []
        for idx, v in enumerate(e):
            if v:
                i, j = divmod(idx, p.n - p.k)
                exps.append([i + 1, j + 1, v])
        out.append({"exponents": exps, "coeff": str(c)})
    return out


def divide_exact(f, g):
    """Exact polynomial quotient f / g; raises when the division leaves a
    remainder (which signals a bug in the caller's identity)."""
    f._check(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    fk = dict(f.terms)
    quot = {}
    glead = max(g.terms, key=lambda e: (sum(e), e))
    gc = g.terms[glead]
    while fk:
        flead = max(fk, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(flead, glead))
        if any(d < 0 for d in diff):
            raise ArithmeticError("non-exact polynomial division")
        q = F(fk[flead]) / F(gc)
        if q.denominator == 1:
            q = q.numerator
        quot[diff] = q
        for e, c in g.terms.items():
            e2 = tuple(a + b for a, b in zip(diff, e))
            s = fk.get(e2, 0) - q * c
            if s:
                fk[e2] = s
            else:
                fk.pop(e2, None)
    return Poly(f.k, f.n, quot)


def det_poly(rows):
    """Determinant of a square matrix of Poly, by cofactor expansion."""
    m = len(rows)
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


# ---------------------------------------------------------------------------
# factored rational expressions

class FactoredRatio:
    """scalar * monomial * (product of polynomial factors) / (ditto).

    Factors are kept primitive and canonical so that the only normalization
    ever needed is multiset cancellation; monomial content is tracked in
    `mono` with integer (possibly negative) exponents.
    """

    __slots__ = ("k", "n", "scalar", "mono", "num", "den", "_polys")

    def __init__(self, k, n, scalar=F(1), mono=None, num=None, den=None, polys=None):
        self.k, self.n = k, n
        self.scalar = F(scalar)
        self.mono = mono or (0,) * ((k - 1) * (n - k))
        self.num = dict(num or {})
        self.den = dict(den or {})
        self._polys = dict(polys or {})

    @classmethod
    def from_poly(cls, p):
        scale, mono, prim = p.content_split()
        if not scale:
            return cls(p.k, p.n, scalar=F(0))
        out = cls(p.k, p.n, scalar=scale, mono=mono)
        if len(prim) > 1 or prim.key() != ((((0,) * prim.nvars), 1),):
            if prim != 1:
                key = prim.key()
                out.num[key] = 1
                out._polys[key] = prim
        return out

    @classmethod
    def one(cls, k, n):
        return cls(k, n)

    def copy(self):
        return FactoredRatio(self.k, self.n, self.scalar, self.mono,
                             self.num, self.den, self._polys)

    def _merge(self, other, flip=False):
        out = self.copy()
        out._polys.update(other._polys)
        if not flip:
            out.scalar *= other.scalar
            out.mono = tuple(a + b for a, b in zip(out.mono, other.mono))
            for side_my, side_ot in ((out.num, other.num), (out.den, other.den)):
                for key, e in side_ot.items():
                    side_my[key] = side_my.get(key, 0) + e
        else:
            if not other.scalar:
                raise ZeroDivisionError("division by zero ratio")
            out.scalar /= other.scalar
            out.mono = tuple(a - b for a, b in zip(out.mono, other.mono))
            for side_my, side_ot in ((out.den, other.num), (out.num, other.den)):
                for key, e in side_ot.items():
                    side_my[key] = side_my.get(key, 0) + e
        return out._cancel()

    def _cancel(self):
        for key in list(self.num):
            if key in self.den:
                m = min(self.num[key], self.den[key])
                self.num[key] -= m
                self.den[key] -= m
                if not self.num[key]:
                    del self.num[key]
                if not self.den[key]:
                    del self.den[key]
        return self

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            out = self.copy()
            out.scalar *= other
            return out
        if isinstance(other, Poly):
            other = FactoredRatio.from_poly(other)
        return self._merge(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, F)):
            out = self.copy()
            out.scalar /= other
            return out
        if isinstance(other, Poly):
            other = FactoredRatio.from_poly(other)
        return self._merge(other, flip=True)

    def __pow__(self, m):
        if m < 0:
            raise ValueError("use division for negative powers")
        out = FactoredRatio.one(self.k, self.n)
        for _ in range(m):
            out = out * self
        return out

    def _expand(self, side, mono_part):
        p = Poly.monomial([], self.k, self.n, coeff=1)
        p.terms = {tuple(mono_part): 1}
        for key, e in side.items():
            fac = self._polys[key]
            for _ in range(e):
                p = p * fac
        return p

    def num_poly(self):
        """Expanded numerator: scalar and positive monomial content included."""
        mono_pos = tuple(max(e, 0) for e in self.mono)
        p = self._expand(self.num, mono_pos)
        return p * self.scalar.numerator

    def den_poly(self):
        mono_neg = tuple(max(-e, 0) for e in self.mono)
        p = self._expand(self.den, mono_neg)
        return p * self.scalar.denominator

    def eval(self, point):
        val = self.scalar
        nk = self.n - self.k
        for idx, e in enumerate(self.mono):
            if e:
                i, j = divmod(idx, nk)
                val *= F(point[(i + 1, j + 1)]) ** e
        for key, e in self.num.items():
            val *= self._polys[key].eval(point) ** e
        for key, e in self.den.items():
            v = self._polys[key].eval(point)
            if not v:
                raise ZeroDivisionError("denominator factor vanished at the sample point")
            val /= v ** e
        return val

    def ratio_equal(self, other):
        """Exact equality as rational functions: cancel shared factors, then
        compare one cross-multiplied polynomial pair."""
        if isinstance(other, (int, F)):
            o = FactoredRatio.one(self.k, self.n)
            o.scalar = F(other)
            other = o
        if isinstance(other, Poly):
            other = FactoredRatio.from_poly(other)
        q = self._merge(other, flip=True)
        return q.num_poly() == q.den_poly()

    def __repr__(self):
        return (f"FactoredRatio(scalar={self.scalar}, mono={self.mono}, "
                f"num={[self._polys[k] for k in self.num]}, "
                f"den={[self._polys[k] for k in self.den]})")


# ---------------------------------------------------------------------------
# staircase face polynomials

def tau(I, k, n):
    """Planar face polynomial tau_I for a weakly increasing index tuple I of
    length k (strictly increasing for honest subsets; internal u-variable
    calls pass repeated indices).

    Strip the maximal prefix [1, s] from I, shift the rest down by s, and
    sum x_{s+1,a_1} ... x_{s+m-1,a_{m-1}} over weakly increasing tuples with
    a_t in [j_t - t, j_{t+1} - t], the last interval ending at j_m - m.
    """
    I = tuple(I)
    if len(I) != k:
        raise ValueError(f"tau index must have {k} entries")
    if any(a > b for a, b in zip(I, I[1:])):
        raise ValueError("tau index must be weakly increasing")
    s = 0
    while s < len(I) and I[s] == s + 1:
        s += 1
    J = [j - s for j in I[s:]]
    m = len(J)
    if m <= 1:
        return Poly.one(k, n)
    ivals = []
    for t in range(1, m):
        lo = J[t - 1] - t
        hi = (J[t] - t) if t < m - 1 else (J[t] - t - 1)
        ivals.append((max(lo, 1), min(hi, n - k)))
    out = Poly.zero(k, n)
    rows = [s + t for t in range(1, m)]

    def rec(t, prev, pairs):
        nonlocal out
        if t == len(ivals):
            out = out + Poly.monomial(pairs, k, n)
            return
        lo, hi = ivals[t]
        for a in range(max(lo, prev), hi + 1):
            rec(t + 1, a, pairs + [(rows[t], a)])

    rec(0, 1, [])
    return out


def pk_factors(k, n):
    """The PK potential factors: P_i = sum_j x_{i,j} and Q_j summing the
    monotone 0/1 column shifts (k monomials each)."""
    Ps = []
    for i in range(1, k):
        p = Poly.zero(k, n)
        for j in range(1, n - k + 1):
            p = p + Poly.var(i, j, k, n)
        Ps.append(p)
    Qs = []
    for j in range(1, n - k):
        q = Poly.zero(k, n)
        for ones in range(k):
            # t_1 <= ... <= t_{k-1} monotone: the last `ones` entries are 1
            pairs = [(i, j + (1 if i > k - 1 - ones else 0)) for i in range(1, k)]
            q = q + Poly.monomial(pairs, k, n)
        Qs.append(q)
    return Ps, Qs


def planar_face_range(k, n):
    """Admissible (i, J) pairs for the planar faces, grouped over the sizes
    m = 2..k: i in [1, k-m+1] and J an m-subset of [1, (n-2)-(k-m)]."""
    out = []
    for m in range(2, k + 1):
        top = (n - 2) - (k - m)
        for i in range(1, k - m + 2):
            for J in combinations(range(1, top + 1), m):
                out.append((i, J))
    return out


def planar_face_vertices(i, J, k, n):
    """Integer vertices of the planar face F^{(i)}_J: one unit in each of
    the rows i..i+m-2, column of row i+l-1 inside [j_l - (l-1),
    j_{l+1} - (l-1)], with columns weakly increasing down the rows."""
    J = tuple(J)
    m = len(J)
    if not (2 <= m <= k):
        raise ValueError("face index J must have between 2 and k entries")
    if not (1 <= i <= k - m + 1):
        raise ValueError(f"row index i={i} out of range for |J|={m}")
    if J[-1] > (n - 2) - (k - m):
        raise ValueError(f"face index {J} out of range for ({k}, {n})")
    ivals = []
    for t in range(1, m):
        lo, hi = J[t - 1] - (t - 1), J[t] - (t - 1)
        if lo < 1 or hi > n - k:
            raise ValueError(f"face interval [{lo},{hi}] escapes the grid")
        ivals.append((lo, hi))
    verts = []

    def rec(t, prev, pairs):
        if t == len(ivals):
            verts.append(tuple(pairs))
            return
        lo, hi = ivals[t]
        for c in range(max(lo, prev), hi + 1):
            rec(t + 1, c, pairs + [(i + t, c)])

    rec(0, 1, [])
    return verts


def delta(i, J, k, n):
    """Face polynomial: sum of x^v over the vertices of F^{(i)}_J."""
    out = Poly.zero(k, n)
    for pairs in planar_face_vertices(i, J, k, n):
        out = out + Poly.monomial(pairs, k, n)
    return out


# ---------------------------------------------------------------------------
# positive parameterization

@lru_cache(maxsize=None)
def m_poly(i, j, k, n):
    """Matrix entry m_{i,j}: sum over weakly increasing column tuples
    (c_i <= ... <= c_{k-1}) in [1, j] of prod_a x_{a,c_a} --- the vertex sum
    of a fibered simplex."""
    p = Poly.zero(k, n)

    def rec(row, prev, pairs):
        nonlocal p
        if row == k:
            p = p + Poly.monomial(pairs, k, n)
            return
        for c in range(prev, j + 1):
            rec(row + 1, c, pairs + [(row, c)])

    rec(i, 1, [])
    return p


@lru_cache(maxsize=None)
def bcfw_matrix(k, n):
    """k x n positive-parameterization matrix: identity block in columns
    1..k, then column k+j holding m_{i,j} 'in rows i < k and 1 in the last
    row.  Rows of the polynomial block carry alternating signs (-1)^{k-1-i}
    so that every maximal minor has nonnegative coefficients."""
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
    """Maximal minor with column set J of the positive parameterization."""
    M = bcfw_matrix(k, n)
    rows = [[M[r][c - 1] for c in J] for r in range(k)]
    return det_poly(rows)


def _col(M, j):
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
        raise IndexError("A_{ijk} needs column j+2 <= n; use the X form")
    M = bcfw_matrix(3, n)
    c1 = _cross(_cross(_col(M, 1), _col(M, 2)), _cross(_col(M, i), _col(M, i + 1)))
    c2 = _col(M, j)
    c3 = _cross(_cross(_col(M, j + 1), _col(M, j + 2)), _cross(_col(M, kk), _col(M, 1)))
    return det_poly([[c1[r], c2[r], c3[r]] for r in range(3)])


@lru_cache(maxsize=None)
def resolved_minor(J, n):
    """Resolved minor p-hat_J on the (3, n) parameterization, as an exact
    polynomial; equals plucker(J) unless some lexicographically smaller I
    forms a noncrossing-but-not-weakly-separated pair with J."""
    i, j, kk = J
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
    weakly separated."""
    from .combinat import is_weakly_separated
    for I in nonfrozen_subsets(3, n):
        if I >= tuple(J):
            break
        if compatibility_degree(I, J, n) == 0 and not is_weakly_separated(I, J, n):
            return True
    return False


def resolved_count_formula(n):
    """N_n = C(n-5, 3) + 2 (n-5)^2 nontrivially resolved minors on (3, n)."""
    from math import comb
    return comb(n - 5, 3) + 2 * (n - 5) ** 2


# ---------------------------------------------------------------------------
# u-variables

def u_variable(J, k, n):
    """Planar face ratio u_J as a normalized FactoredRatio, k in {3, 4}."""
    J = tuple(J)
    if is_frozen(J, n):
        raise ValueError(f"{J} is frozen; no u-variable")
    if k == 3:
        i, j, kk = J
        if (j, kk) == (n - 1, n):
            # same orientation as the k=4 ladder; the binary identities pin
            # the numerator to tau_{i+1} rather than tau_{i-1}
            num, den = [(i + 1, n - 1, n)], [(i, n - 1, n)]
        elif kk == n:
            num = [(i + 1, j, kk), (i, j + 1, j + 2)]
            den = [(i, j, kk), (i + 1, j + 1, j + 2)]
        else:
            num = [(i + 1, j, kk), (i, j, kk + 1)]
            den = [(i, j, kk), (i + 1, j, kk + 1)]
    elif k == 4:
        i, j, kk, l = J
        if (j, kk, l) == (n - 2, n - 1, n):
            num, den = [(i + 1, n - 2, n - 1, n)], [(i, n - 2, n - 1, n)]
        elif (kk, l) == (n - 1, n):
            num = [(i + 1, j, n - 1, n), (i, j + 1, j + 2, j + 3)]
            den = [(i, j, n - 1, n), (i + 1, j + 1, j + 2, j + 3)]
        elif l == n:
            num = [(i + 1, j, kk, n), (i, j, kk + 1, kk + 2)]
            den = [(i, j, kk, n), (i + 1, j, kk + 1, kk + 2)]
        else:
            num = [(i + 1, j, kk, l), (i, j, kk, l + 1)]
            den = [(i, j, kk, l), (i + 1, j, kk, l + 1)]
    else:
        raise ValueError("u-variables implemented for k = 3 and 4 only")
    out = FactoredRatio.one(k, n)
    for idx in num:
        out = out * tau(tuple(sorted(idx)), k, n)
    for idx in den:
        out = out / tau(tuple(sorted(idx)), k, n)
    return out


def crossing_profile(J, k, n):
    """Sorted list of (I, c_{I,J}) over subsets crossing J."""
    out = []
    for I in nonfrozen_subsets(k, n):
        if I == tuple(J):
            continue
        c = compatibility_degree(I, J, n)
        if c:
            out.append((I, c))
    return out


def binary_identity_check(J, k, n, mode="symbolic", trials=20, seed=0):
    """Verify u_J = 1 - prod over crossing I of u_I^{c_{I,J}}.

    Symbolic mode cancels factors syntactically and compares one
    cross-multiplied polynomial identity; random mode evaluates both sides
    at exact positive rational points.  Returns a verdict dict.
    """
    J = tuple(J)
    profile = crossing_profile(J, k, n)
    verdict = {"J": list(J), "k": k, "n": n, "mode": mode,
               "crossing": len(profile), "pass": False}
    uJ = u_variable(J, k, n)
    if mode == "symbolic":
        prod = FactoredRatio.one(k, n)
        for I, c in profile:
            prod = prod * (u_variable(I, k, n) ** c)
        lhs = FactoredRatio.from_poly(uJ.den_poly() - uJ.num_poly()) / uJ.den_poly()
        verdict["pass"] = lhs.ratio_equal(prod)
        return verdict
    if mode == "random":
        rng = random.Random(seed)
        us = [(u_variable(I, k, n), c) for I, c in profile]
        verdict["trials"] = trials
        verdict["seed"] = seed
        done = 0
        while done < trials:
            point = {(i, j): F(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
                     for i in range(1, k) for j in range(1, n - k + 1)}
            try:
                lhs = uJ.eval(point)
                rhs = F(1)
                for u, c in us:
                    rhs *= u.eval(point) ** c
            except ZeroDivisionError:
                continue
            if lhs != 1 - rhs:
                verdict["witness"] = {f"{i},{j}": str(v) for (i, j), v in point.items()}
                return verdict
            done += 1
        verdict["pass"] = True
        return verdict
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the potential-function coordinate identities

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


def binary_identities_random_all(k, n, trials=20, seed=0):
    """Random-exact verification of every binary identity at (k, n): each
    trial evaluates all u-variables once at an exact positive rational
    point and then checks u_J = 1 - prod u_I^{c_{I,J}} for every nonfrozen
    J.  Returns a verdict dict."""
    rng = random.Random(seed)
    nf = nonfrozen_subsets(k, n)
    us = {J: u_variable(J, k, n) for J in nf}
    profiles = {J: crossing_profile(J, k, n) for J in nf}
    done = 0
    while done < trials:
        point = {(i, j): F(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
                 for i in range(1, k) for j in range(1, n - k + 1)}
        try:
            vals = {J: us[J].eval(point) for J in nf}
        except ZeroDivisionError:
            continue
        for J in nf:
            rhs = F(1)
            for I, c in profiles[J]:
                rhs *= vals[I] ** c
            if vals[J] != 1 - rhs:
                return {"k": k, "n": n, "mode": "random", "trials": trials,
                        "seed": seed, "pass": False, "J": list(J),
                        "witness": {f"{i},{j}": str(v) for (i, j), v in point.items()}}
        done += 1
    return {"k": k, "n": n, "mode": "random", "trials": trials,
            "seed": seed, "pass": True, "checked": len(nf)}


def root_potential_check(k, n):
    """Check every displayed minor-ratio coefficient of the root-kinematics
    potential against x_{i,j} / sum_l x_{i,l} on the parameterization.
    Returns {(i, j): bool}."""
    table = ROOT_POTENTIAL_RATIOS.get((k, n))
    if table is None:
        raise ValueError(f"no tabulated root potential for ({k}, {n})")
    results = {}
    for (i, j), (nums, dens) in table.items():
        ratio = FactoredRatio.one(k, n)
        for code in nums:
            ratio = ratio * plucker(_digits(code), k, n)
        for code in dens:
            ratio = ratio / plucker(_digits(code), k, n)
        target = FactoredRatio.from_poly(Poly.var(i, j, k, n))
        denom = Poly.zero(k, n)
        for l in range(1, n - k + 1):
            denom = denom + Poly.var(i, l, k, n)
        target = target / denom
        results[(i, j)] = ratio.ratio_equal(target)
    return results
