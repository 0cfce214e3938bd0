"""Exact multivariate polynomials in the grid variables x_{i,j} for
(i, j) in [1, k-1] x [1, n-k], and everything built on them: the staircase
face polynomials tau, the PK factors P_i and Q_j, face polynomials delta,
the positive (BCFW-style) parameterization matrix, Plucker minors,
compound-determinant resolved minors, u-variables and the binary
identities they satisfy.

Polynomials are dicts from dense exponent tuples to integer (or rational)
coefficients.  Exponent tuples and evaluation points are laid out as
`roots.grid_point`, the one dense form of a grid vector, which also rejects
a variable outside the grid.  Every staircase polynomial (tau, m_{i,j},
P_i, Q_j, delta) is a sum of x_{r,c_1} x_{r+1,c_2} ... over weakly
increasing column chains c_1 <= c_2 <= ... with each c_t in an interval;
`chain_poly` enumerates them and builds the sum as one terms dict.

A FactoredRatio is scalar * prod f^{e_f} over factors f, each a grid
variable or a canonical primitive polynomial, with one signed exponent map
and no zero exponents stored, so multiplying and dividing add and subtract
exponents.

A u-variable is held as its ladder: the signed exponents of its (at most
four) tau indices.  A product of u-variables (u_J itself, or the crossing
product of a binary identity) sums the ladders' exponents on tau indices,
drops the indices that cancel and makes one FactoredRatio product over the
rest.  Each tau FactoredRatio is built once per (k, n) and index
(`_tau_ratio`), and each binary identity once per (k, n) and J
(`_identity`).  Polynomials are evaluated by one integer kernel,
`_term_sum`, over a sparse form of their terms (`_sparse`: each monomial as
the indices of its variables, so a term costs one multiplication per
variable it has rather than a pass over the whole grid): the point's
denominators are cleared once, each total degree is summed in ints, and one
Fraction is made at the end.  Each factor keeps its sparse form, built
once; `Poly.eval` converts once per call.  A FactoredRatio is evaluated on
int pairs: each factor's value at the point, a variable's as any other's,
is made one (numerator, denominator) pair (`_point_values`), and the ratio
multiplies the pairs of the factors it has into one unreduced pair.  The
random-exact identity checks make those pairs once per point for every
distinct factor, read both sides of every identity off them and
compare them cross-multiplied.  The symbolic check compares the crossing
product with 1 - u_J, built once per J (`_one_minus_u`) with u_J's
denominator kept factored, so its taus cancel against the product's before
anything is expanded.
"""
from __future__ import annotations

import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import add, sub

from .combinat import (_bits, _noncrossing_graph, _nonfrozen, check_kn, check_subset,
                       compatibility_degree, is_frozen, is_weakly_separated, shape_cache)
from .linalg import _exact, _integral, _ratio
from .roots import grid_point

F = Fraction


def _sparse(terms):
    """The (exponent tuple, coefficient) pairs `terms` in the sparse form
    `_term_sum` reads: one (index tuple, coefficient) pair per term, the
    index tuple naming each variable of the term's monomial, x^p p times."""
    return tuple([(tuple([i for i, p in enumerate(e) for _ in range(p)]), c)
                  for e, c in terms])


def _check_exponent(m):
    """Reject an exponent that is not an int (`bool` included), as
    `combinat.check_kn` rejects such a shape."""
    if type(m) is not int:
        raise TypeError(f"exponent must be an int, not {type(m).__name__}")


def _term_sum(sparse, point):
    """Value of the `_sparse` terms at a dense point given as
    `linalg._integral`'s (ints X, den D), i.e. at X / D, as a Fraction.
    Each term multiplies its coefficient by X at its indices only, each
    total degree d is summed in ints (in the coefficients' type), and the
    value is one Fraction sum_d N_d D^(top-d) / D^top."""
    X, D = point
    sums = {}
    for idx, c in sparse:
        for i in idx:
            c *= X[i]
        d = len(idx)
        sums[d] = sums.get(d, 0) + c
    if not sums:
        return F(0)
    top = max(sums)
    return F(sum([N * D ** (top - d) for d, N in sums.items()]), D ** top)


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

    @classmethod
    def zero(cls, k, n):
        return cls(k, n, {})

    @classmethod
    def const(cls, k, n, c):
        c = _exact(c)
        nv = (k - 1) * (n - k)
        return cls(k, n, {(0,) * nv: c} if c else {})

    @classmethod
    def one(cls, k, n):
        return cls.const(k, n, 1)

    @classmethod
    def var(cls, i, j, k, n):
        return cls.monomial([(i, j)], k, n)

    @classmethod
    def monomial(cls, pairs, k, n):
        """Product of x_{i,j} over (i, j) tuples (repeats allowed)."""
        return cls(k, n, {grid_point(Counter(pairs), k, n): 1})

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
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(self.k, self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, m):
        """self ** m for an int m >= 0, by square-and-multiply started from
        self, so that self ** 1 is self and self ** 0 is Poly.one."""
        _check_exponent(m)
        if m < 0:
            raise ValueError(f"Poly exponent must be nonnegative, not {m}")
        if not m:
            return Poly.one(self.k, self.n)
        out, base = None, self
        while True:
            if m & 1:
                out = base if out is None else out * base
            m >>= 1
            if not m:
                return out
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, F)):
            other = Poly.const(self.k, self.n, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        # an int and the equal Fraction compare equal, so do the term dicts
        return (self.k, self.n) == (other.k, other.n) and self.terms == other.terms

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
        cleared = _integral(grid_point(point, self.k, self.n))
        return _exact(_term_sum(_sparse(self.terms.items()), cleared))

    def content_split(self):
        """(scalar, monomial exponent tuple, primitive polynomial) with the
        primitive part having integer coprime coefficients, positive leading
        coefficient and no common variable factor.  The scalar is +-g / den
        for the ints den * c of `linalg._integral` and g their gcd, which for
        reduced fractions c is gcd(numerators) / lcm(denominators), an int
        when integral (`linalg._ratio`)."""
        if not self.terms:
            return 0, (0,) * self.nvars, Poly.zero(self.k, self.n)
        ints, den = _integral(self.terms.values())
        g = gcd(*ints)
        if self.terms[max(self.terms, key=lambda e: (sum(e), e))] < 0:
            g = -g
        mono = tuple([min(col) for col in zip(*self.terms)])
        terms = {tuple([x - y for x, y in zip(e, mono)]): c // g
                 for e, c in zip(self.terms, ints)}
        return _ratio(g, den), mono, Poly(self.k, self.n, terms)

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
        diff = tuple(map(sub, flead, glead))
        if any(d < 0 for d in diff):
            raise ArithmeticError("non-exact polynomial division")
        quot[diff] = q = _exact(F(fk[flead], gc))
        for e, c in g.terms.items():
            e2 = tuple(map(add, diff, e))
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

class _Factor:
    """A base of a FactoredRatio: a grid variable x_{i,j} (its one term,
    coefficient 1) or a canonical primitive polynomial of two or more terms
    (coprime integer coefficients, positive leading coefficient, no monomial
    factor), as its sorted (exponent, coefficient) term tuple `Poly.key()`,
    with the same terms in the `_sparse` form that `_term_sum` evaluates,
    built once here.
    `_factor` hands out one object per term tuple, so factors hash and
    compare by identity: a batch of identities updates the exponent maps
    tens of thousands of times, and rehashing the term tuple at each update
    would cost more than the rest of the batch."""

    __slots__ = ("terms", "sparse", "__weakref__")

    def __init__(self, terms):
        self.terms = terms
        self.sparse = _sparse(terms)


# the live factors by term tuple; an entry goes with the last ratio using it
_FACTORS = weakref.WeakValueDictionary()


def _factor(terms):
    return _FACTORS.get(terms) or _FACTORS.setdefault(terms, _Factor(terms))


class FactoredRatio:
    """scalar * prod over factors f of f^{exps[f]}.

    The factors are `_Factor`s, grid variables among them, and `exps` maps
    each to its signed exponent, never a zero one, so the only normalization
    a product or quotient needs is adding or subtracting exponents, and
    every pass over a ratio visits only the factors it has.
    """

    __slots__ = ("k", "n", "scalar", "exps")

    def __init__(self, k, n, scalar=1, exps=None):
        self.k, self.n = k, n
        self.scalar = _exact(scalar)
        self.exps = exps or {}

    @classmethod
    def from_poly(cls, p):
        """p as the scalar and primitive part of `Poly.content_split`, with
        each variable of the monomial it splits off a one-term factor."""
        scale, mono, prim = p.content_split()
        unit = (0,) * len(mono)
        exps = {_factor(((unit[:i] + (1,) + unit[i + 1:], 1),)): e
                for i, e in enumerate(mono) if e}
        # a primitive part with one term is the constant 1
        if len(prim) > 1:
            exps[_factor(prim.key())] = 1
        return cls(p.k, p.n, scale, exps)

    def _lift(self, other):
        if isinstance(other, FactoredRatio):
            return other
        if isinstance(other, Poly):
            return FactoredRatio.from_poly(other)
        return FactoredRatio(self.k, self.n, other)

    def __mul__(self, other):
        return _product([(self, 1), (self._lift(other), 1)], self.k, self.n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _product([(self, 1), (self._lift(other), -1)], self.k, self.n)

    def __pow__(self, m):
        _check_exponent(m)
        return _product([(self, m)], self.k, self.n)

    def expand(self):
        """(numerator, denominator) as polynomials: the product of the
        factors with positive (negative) exponents, scaled by the scalar's
        numerator (denominator)."""
        k, n = self.k, self.n
        sides = []
        for sign, c in ((1, self.scalar.numerator), (-1, self.scalar.denominator)):
            p = Poly.const(k, n, c)
            for f, e in self.exps.items():
                if sign * e > 0:
                    p = p * Poly(k, n, dict(f.terms)) ** (sign * e)
            sides.append(p)
        return tuple(sides)

    def _eval(self, table):
        """Value as an unreduced pair (num, den) of ints, given every
        factor's value at a point (table, by factor) as a (numerator,
        denominator) int pair: each factor's numerator and denominator go to
        the sides its exponent's sign says."""
        num, den = self.scalar.numerator, self.scalar.denominator
        for f, e in self.exps.items():
            a, b = table[f]
            if e < 0:
                a, b, e = b, a, -e
            if e == 1:
                num *= a
                den *= b
            else:
                num *= a ** e
                den *= b ** e
        if not den:
            raise ZeroDivisionError("denominator factor vanished at the sample point")
        return num, den

    def eval(self, point):
        table = _point_values(grid_point(point, self.k, self.n), self.exps)
        return _exact(F(*self._eval(table)))

    def ratio_equal(self, other):
        """Exact equality as rational functions: cancel shared factors, then
        compare one cross-multiplied polynomial pair."""
        num, den = (self / other).expand()
        return num == den

    def __repr__(self):
        factors = [(Poly(self.k, self.n, dict(f.terms)), e) for f, e in self.exps.items()]
        return f"FactoredRatio(scalar={self.scalar}, factors={factors})"


def _point_values(xs, factors):
    """The table `FactoredRatio._eval` reads at the dense point xs: the
    value there of each of `factors`, variables included (one `_term_sum`
    per factor), as a (numerator, denominator) int pair."""
    cleared = _integral(xs)
    table = {}
    for f in factors:
        v = _term_sum(f.sparse, cleared)
        table[f] = v.numerator, v.denominator
    return table


def _product(pairs, k, n):
    """prod r**c over (FactoredRatio r, int c) pairs: the signed exponents
    are summed in one pass, and the factors whose exponents cancel to zero
    are dropped."""
    num = den = 1
    exps = {}
    for r, c in pairs:
        a, b = r.scalar.numerator, r.scalar.denominator
        if c < 0:
            a, b = b, a
        num *= a ** abs(c)
        den *= b ** abs(c)
        for f, e in r.exps.items():
            exps[f] = exps.get(f, 0) + c * e
    return FactoredRatio(k, n, _ratio(num, den), {f: e for f, e in exps.items() if e})


def _quotient(nums, dens, k, n):
    """prod nums / prod dens for lists of Poly, as one FactoredRatio."""
    return _product([(FactoredRatio.from_poly(p), 1) for p in nums]
                    + [(FactoredRatio.from_poly(p), -1) for p in dens], k, n)


# ---------------------------------------------------------------------------
# staircase face polynomials

def chain_poly(row, ivals, k, n):
    """Sum of x_{row,c_1} x_{row+1,c_2} ... x_{row+r-1,c_r} over the weakly
    increasing chains c_1 <= ... <= c_r with lo_t <= c_t <= hi_t for
    (lo_t, hi_t) = ivals[t]: one coefficient-1 monomial per chain, in
    lexicographic chain order, built as one terms dict.  A chain is the
    tuple of its cells (row + t, c_t); one outside the grid raises
    IndexError (`grid_point`)."""
    chains = [()]
    for r, (lo, hi) in enumerate(ivals, start=row):
        chains = [ch + ((r, c),) for ch in chains
                  for c in range(max(lo, ch[-1][1]) if ch else lo, hi + 1)]
    return Poly(k, n, {grid_point(dict.fromkeys(ch, 1), k, n): 1 for ch in chains})


def tau(I, k, n):
    """Planar face polynomial tau_I for a weakly increasing index tuple I of
    length k (strictly increasing for honest subsets; internal u-variable
    calls pass repeated indices).

    Strip the maximal prefix [1, s] from I, shift the rest down by s, and
    sum x_{s+1,a_1} ... x_{s+m-1,a_{m-1}} over weakly increasing tuples with
    a_t in [j_t - t, j_{t+1} - t], the last interval ending at j_m - m.
    """
    check_kn(k, n)
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
    ivals = [(max(J[t - 1] - t, 1), min(J[t] - t - (t == m - 1), n - k)) for t in range(1, m)]
    return chain_poly(s + 1, ivals, k, n)


def pk_factors(k, n):
    """The PK potential factors: P_i = sum_j x_{i,j}, and Q_j summing the
    weakly increasing column chains in {j, j+1} down the rows (k monomials
    each)."""
    Ps = [chain_poly(i, [(1, n - k)], k, n) for i in range(1, k)]
    Qs = [chain_poly(1, [(j, j + 1)] * (k - 1), k, n) for j in range(1, n - k)]
    return Ps, Qs


def planar_face_range(k, n):
    """Admissible (i, J) pairs for the planar faces, grouped over the sizes
    m = 2..k: i in [1, k-m+1] and J an m-subset of [1, (n-2)-(k-m)]."""
    return [(i, J) for m in range(2, k + 1) for i in range(1, k - m + 2)
            for J in combinations(range(1, (n - 2) - (k - m) + 1), m)]


def delta(i, J, k, n):
    """Face polynomial of the planar face F^{(i)}_J: the sum of x^v over its
    integer vertices, which put one unit in each of the rows i..i+m-2, the
    column of row i+l-1 inside [j_l - (l-1), j_{l+1} - (l-1)], with columns
    weakly increasing down the rows.  Raises ValueError unless (k, n) passes
    `check_kn`, J passes `check_subset`, and the row i, an int, and J's
    last entry are in range."""
    check_kn(k, n)
    J = tuple(J)
    m = len(J)
    if not (2 <= m <= k):
        raise ValueError("face index J must have between 2 and k entries")
    check_subset(J, m, n)
    if type(i) is not int or not (1 <= i <= k - m + 1):
        raise ValueError(f"row index i={i!r} out of range for |J|={m}")
    if J[-1] > (n - 2) - (k - m):
        raise ValueError(f"face index {J} out of range for ({k}, {n})")
    return chain_poly(i, [(J[t - 1] - (t - 1), J[t] - (t - 1)) for t in range(1, m)], k, n)


# ---------------------------------------------------------------------------
# positive parameterization

def m_poly(i, j, k, n):
    """Matrix entry m_{i,j}: sum over weakly increasing column tuples
    (c_i <= ... <= c_{k-1}) in [1, j] of prod_a x_{a,c_a} --- the vertex sum
    of a fibered simplex."""
    return chain_poly(i, [(1, j)] * (k - i), k, n)


@shape_cache
def bcfw_matrix(k, n):
    """k x n positive-parameterization matrix: identity block in columns
    1..k, then column k+j holding m_{i,j} 'in rows i < k and 1 in the last
    row.  Rows of the polynomial block carry alternating signs (-1)^{k-1-i}
    so that every maximal minor has nonnegative coefficients."""
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


def _graph_row(J, k, n):
    """(nonfrozen subsets, mask of those crossing J, mask of those before J
    not crossing it), read off `combinat._noncrossing_graph` at J's position
    in `combinat._nonfrozen`; both masks are 0 for a frozen J, which crosses
    nothing and is weakly separated from all."""
    verts, adj = _noncrossing_graph(k, n)
    t = _nonfrozen(k, n)[1].get(J)
    if t is None:
        return verts, 0, 0
    return verts, ((1 << len(verts)) - 1) & ~adj[t] & ~(1 << t), adj[t] & ((1 << t) - 1)


def needs_resolution(J, n):
    """Lexicographic criterion: some I < J with (I, J) noncrossing and not
    weakly separated."""
    J = tuple(J)
    verts, _cross, before = _graph_row(J, 3, n)
    return any(not is_weakly_separated(verts[i], J, n) for i in _bits(before))


def resolved_count_formula(n):
    """N_n = C(n-5, 3) + 2 (n-5)^2 nontrivially resolved minors on (3, n)."""
    return comb(n - 5, 3) + 2 * (n - 5) ** 2


# ---------------------------------------------------------------------------
# u-variables

@shape_cache
def _ladder(J, k, n):
    """u_J as its ladder {tau index: +-1}, for a checked subset J and any
    k, by one rule in 0-based positions: with J[q+1:] the run of labels J
    ends with at n (q = k - 1 if none) and up, B' the tuples J, B with
    their first entry raised by one (the orientation the binary identities
    pin), u_J is tau(up) / tau(J) for q = 0 and else tau(up) tau(B) /
    (tau(J) tau(B')), for B = J[:q] + (j_q + 1, ..., j_q + k - q).  The four
    indices are distinct: up and B' differ from J and B in entry 0, and B
    from J and up from B' in entry q.  The ladder is cached, so callers
    only read the dict."""
    if is_frozen(J, n):
        raise ValueError(f"{J} is frozen; no u-variable")
    q = next(q for q in range(k - 1, -1, -1) if J[q] != n - k + 1 + q)
    num, den = [(J[0] + 1, *J[1:])], [J]
    if q:
        B = J[:q] + tuple(range(J[q] + 1, J[q] + k - q + 1))
        num.append(B)
        den.append((B[0] + 1, *B[1:]))
    return {**dict.fromkeys(num, 1), **dict.fromkeys(den, -1)}


def _ladder_product(pairs, k, n):
    """prod u^c over (ladder of u, int c) pairs as one FactoredRatio: the
    exponents are summed on tau indices first, the indices whose exponents
    cancel are dropped, and one `_product` runs over the rest."""
    exps = {}
    for ladder, c in pairs:
        for I, e in ladder.items():
            exps[I] = exps.get(I, 0) + c * e
    return _product([(_tau_ratio(I, k, n), e) for I, e in exps.items() if e], k, n)


@shape_cache
def _tau_ratio(I, k, n):
    """tau(I) as a FactoredRatio, built once per (k, n) and index."""
    return FactoredRatio.from_poly(tau(I, k, n))


def u_variable(J, k, n):
    """Planar face ratio u_J as a normalized FactoredRatio: the product over
    its ladder (see `_ladder`)."""
    check_kn(k, n)
    return _ladder_product([(_ladder(check_subset(J, k, n), k, n), 1)], k, n)


def crossing_profile(J, k, n):
    """Sorted list of (I, c_{I,J}) over subsets crossing J: J's
    non-neighbours in the noncrossing graph, none for a frozen J.
    ValueError unless (k, n) passes `check_kn` and J `check_subset`."""
    check_kn(k, n)
    J = check_subset(J, k, n)
    verts, cross, _before = _graph_row(J, k, n)
    return [(verts[i], compatibility_degree(verts[i], J, n)) for i in _bits(cross)]


@shape_cache
def _identity(J, k, n):
    """(number of subsets crossing J, u_J, prod over crossing I of
    u_I^{c_{I,J}}) for a checked subset J: the binary identity of J, both
    sides ladder products, built once per J."""
    profile = crossing_profile(J, k, n)
    return (len(profile), _ladder_product([(_ladder(J, k, n), 1)], k, n),
            _ladder_product([(_ladder(I, k, n), c) for I, c in profile], k, n))


@shape_cache
def _one_minus_u(J, k, n):
    """1 - u_J for a checked nonfrozen subset J, built once per J: the
    primitive factors of den - num (u_J = num / den expanded) times u_J's
    own denominator, inverted and still factored, so that its taus cancel
    against a crossing product's by adding exponents."""
    uJ = _identity(J, k, n)[1]
    num, den = uJ.expand()
    inverse = FactoredRatio(k, n, _ratio(1, uJ.scalar.denominator),
                            {f: e for f, e in uJ.exps.items() if e < 0})
    return FactoredRatio.from_poly(den - num) * inverse


def _first_random_failure(identities, k, n, trials, seed):
    """Check u = 1 - rhs for every (u, rhs) pair of FactoredRatios at
    `trials` exact positive rational points drawn from random.Random(seed);
    return (index of the first failing pair, witness point) or None.

    Each distinct factor's value, a variable's as any other's, is made a
    (numerator, denominator) int pair once per point (`_point_values`), and
    both sides of every identity are read off those pairs.  No denominator
    can vanish there: every factor is a grid variable or the primitive part
    of a tau polynomial, whose coefficients are all positive, so it is
    positive at a positive point; every drawn point is therefore used.
    Raises ValueError for trials < 1, which would check nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    rng = random.Random(seed)
    factors = {f for pair in identities for r in pair for f in r.exps}
    for _ in range(trials):
        point = {(i, j): F(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
                 for i in range(1, k) for j in range(1, n - k + 1)}
        table = _point_values(grid_point(point, k, n), factors)
        for index, (u, rhs) in enumerate(identities):
            # a/b = 1 - c/d, cross-multiplied
            (a, b), (c, d) = u._eval(table), rhs._eval(table)
            if a * d != (d - c) * b:
                return index, {f"{i},{j}": str(v) for (i, j), v in point.items()}
    return None


def binary_identity_check(J, k, n, mode="symbolic", trials=20, seed=0):
    """Verify u_J = 1 - prod over crossing I of u_I^{c_{I,J}}.

    Both sides come from the cached identity of J (`_identity`), so the
    product's cancelling taus are never built.  Symbolic mode compares the
    crossing product with 1 - u_J, built once per J with u_J's own
    denominator kept factored (`_one_minus_u`), so that its taus cancel
    against the product's by adding exponents; one cross-multiplied
    polynomial comparison of what is left decides.  Factors cancel only
    when they are the same canonical primitive polynomial, so this is an
    exact proof of equality as rational functions.  Random mode evaluates
    both sides at exact positive rational points as int pairs
    (`_first_random_failure`) and never builds 1 - u_J.  Returns a verdict
    dict.
    """
    check_kn(k, n)
    if mode not in ("symbolic", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    J = check_subset(J, k, n)
    crossing, uJ, rhs = _identity(J, k, n)
    verdict = {"J": list(J), "k": k, "n": n, "mode": mode,
               "crossing": crossing, "pass": False}
    if mode == "symbolic":
        verdict["pass"] = _one_minus_u(J, k, n).ratio_equal(rhs)
        return verdict
    verdict["trials"] = trials
    verdict["seed"] = seed
    failure = _first_random_failure([(uJ, rhs)], k, n, trials, seed)
    verdict["pass"] = failure is None
    if failure:
        verdict["witness"] = failure[1]
    return verdict


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
    """Random-exact verification of every binary identity at (k, n): the
    cached identity of every nonfrozen J (`_identity`) is read, and each
    trial evaluates every distinct factor once at an exact positive rational
    point and then checks u_J = 1 - prod u_I^{c_{I,J}} for every J.
    Returns a verdict dict."""
    nf = _nonfrozen(k, n)[0]
    identities = [_identity(J, k, n)[1:] for J in nf]
    failure = _first_random_failure(identities, k, n, trials, seed)
    verdict = {"k": k, "n": n, "mode": "random", "trials": trials,
               "seed": seed, "pass": failure is None}
    if failure:
        verdict["J"] = list(nf[failure[0]])
        verdict["witness"] = failure[1]
    else:
        verdict["checked"] = len(nf)
    return verdict


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
