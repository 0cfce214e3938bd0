"""Exact multivariate polynomials in the grid variables x_{i,j} for
(i, j) in [1, k-1] x [1, n-k], and everything built on them: the staircase
face polynomials tau, the PK factors P_i and Q_j, face polynomials delta,
u-variables and the binary identities they satisfy.

Polynomials are dicts from dense exponent tuples to integer (or rational)
coefficients.  Exponent tuples and evaluation points are laid out as
`roots.grid_point`, the one dense form of a grid vector, which also rejects
a variable outside the grid.  Every staircase polynomial (tau, P_i, Q_j,
delta) is a sum of x_{r,c_1} x_{r+1,c_2} ... over weakly increasing column
chains c_1 <= c_2 <= ... with each c_t in an interval; `_chains`
enumerates them, and `chain_poly` builds the sum as one terms dict.

A FactoredRatio is scalar * prod f^{e_f} over factors f, each a grid
variable or a canonical primitive polynomial, with one signed exponent map
and no zero exponents stored, so multiplying and dividing add and subtract
exponents.

A u-variable is held as its ladder: the signed exponents of its (at most
four) tau indices.  One table per (k, n) (`_ladder_table`) numbers the
ladder taus and holds each nonfrozen J's ladder as (tau id, +-1) pairs.  A
product of u-variables (u_J itself, or the crossing product of a binary
identity) adds its exponents into one list indexed by tau id and makes one
FactoredRatio product over the ids whose sums do not cancel.  Each tau
FactoredRatio is built once per (k, n) and index straight from its chains,
with no Poly (`_tau_ratio`): its scalar is 1, each cell on every chain is a
grid-variable factor, and the chains less those cells are the terms of its
primitive factor.  Each binary identity is built once per (k, n) and J
(`_identity`).  Everything is evaluated by one integer kernel, `_Plan`,
laid out once over a list of FactoredRatios (`Poly.eval` goes through its
`FactoredRatio.from_poly`): the distinct monomials of their factors, each
as the indices of its variables (`_Factor.sparse`, kept on each factor), so
that one monomial serves every factor that has it; each factor's terms grouped
by degree and coefficient; and each ratio as two rows of positions.  At a
point the denominators are cleared once, each monomial is one product,
each factor one int sum over D^top reduced by one gcd into an int pair,
and each side of a ratio one product over its row, all in ints
(`FactoredRatio.eval` makes its value's one Fraction at the end).
The random-exact batch check keeps the plan of every identity of a shape
(`_identity_plan`) and compares both sides of each identity
cross-multiplied.  The symbolic check compares the crossing
product with 1 - u_J, built once per J (`_one_minus_u`) with u_J's
denominator kept factored, so its taus cancel against the product's before
anything is expanded.

The symbolic check multiplies out on packed monomials (Monagan and Pearce,
CASC 2007; Kronecker substitution, von zur Gathen and Gerhard, "Modern
Computer Algebra").  A monomial x^e in nv variables is the one int
sum_i e_i 2^(8 w i), exponent i at bits [8 w i, 8 w (i + 1)) for a field of
w bytes (`_pack`), so that multiplying two monomials adds their ints.  Each
factor keeps its terms packed, built once with the factor, at the fewest
bytes for its own total degree.  `FactoredRatio._packed_sides`
multiplies out each side of a ratio (`_convolve`, `_power`) at one width w
with 2^(8w) > D, D the larger of the two sides' total degrees, the sum of
|e| deg f over the factors f of the side; a factor packed at another width
is repacked.  Every product and square formed on the way to a side divides
that side's product, so its total degree is at most D, and a variable's
exponent never exceeds its monomial's total degree: no field reaches 2^(8w)
and no sum carries into the next field, so adding the ints is exactly
adding the exponent tuples, at any degree, `FactoredRatio ** m` for a large
m included.  `ratio_equal` compares the two packed sides, and
`_one_minus_u` forms den - num of u_J packed.  Only two things are unpacked
to exponent tuples (`_unpacked`): that den - num, on its way into
`FactoredRatio.from_poly`, and the sides the public `expand` returns.
"""
from __future__ import annotations

import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress
from math import gcd, prod
from operator import add, and_, sub

from .combinat import (_bits, _noncrossing_graph, _nonfrozen, check_kn, check_subset,
                       compatibility_degree, shape_cache)
from .linalg import _combine, _exact, _integral, _ratio
from .roots import grid_point

F = Fraction


def _width(degree):
    """The bytes w of each exponent field of a packed monomial whose
    polynomial has total degree at most `degree`: the fewest, at least one,
    with 2^(8w) > degree."""
    return max(1, -(-degree.bit_length() // 8))


def _pack(e, width):
    """The exponent tuple e as one int, exponent i at bytes
    [width * i, width * (i + 1)), little-endian."""
    if width == 1:
        return int.from_bytes(bytes(e), "little")
    return int.from_bytes(b"".join([p.to_bytes(width, "little") for p in e]), "little")


def _unpacked(terms, k, n, width):
    """The packed terms dict `terms`, at `width` bytes per exponent, as a
    `Poly` of (k, n), keyed by exponent tuples."""
    size = (k - 1) * (n - k) * width
    out = {}
    for key, c in terms.items():
        data = key.to_bytes(size, "little")
        e = tuple(data) if width == 1 else tuple(
            [int.from_bytes(data[i:i + width], "little") for i in range(0, size, width)])
        out[e] = c
    return Poly(k, n, out)


def _convolve(a, b):
    """The product of two packed terms dicts: each pair of terms adds its
    keys, which is exact while no exponent field overflows (see the module
    docstring)."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:  # no stored coefficient is zero, so e held -c1 * c2
                del out[e]
    return out


def _power(a, m):
    """a ** m for a packed terms dict a and an int m >= 1, by
    square-and-multiply started from a, as `Poly.__pow__`: no square
    has degree above m deg a."""
    out = None
    while True:
        if m & 1:
            out = a if out is None else _convolve(out, a)
        m >>= 1
        if not m:
            return out
        a = _convolve(a, a)


def _check_exponent(m):
    """Reject an exponent that is not an int (`bool` included), as
    `combinat.check_kn` rejects such a shape."""
    if type(m) is not int:
        raise TypeError(f"exponent must be an int, not {type(m).__name__}")


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
        return Poly(self.k, self.n, _combine([(self.terms, 1), (other.terms, 1)]))

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
        # not `_combine`: a convolution, each pair of terms adds into one key
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
        self, so that self ** 1 is self and self ** 0 is Poly.one.  Raises
        TypeError for an m that is not an int (bool included) and
        ValueError for m < 0."""
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
        return FactoredRatio.from_poly(self).eval(point)

    def content_split(self):
        """(scalar, monomial exponent tuple, primitive polynomial) with the
        primitive part having integer coprime coefficients, positive leading
        coefficient and no common variable factor.  The scalar is +-g / den
        for the ints den * c of `linalg._integral` and g their gcd, which for
        reduced fractions c is gcd(numerators) / lcm(denominators), an int
        when integral (`linalg._ratio`).  The primitive part is computed in
        ints, so the scalar is the one Fraction made."""
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
            body = "*".join(mono)
            bits.append(f"{c}*{body}" if mono and c != 1 else body or f"{c}")
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
    # not `_combine`: each step reads the running leading term of fk
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


# ---------------------------------------------------------------------------
# factored rational expressions

class _Factor:
    """A base of a FactoredRatio: a grid variable x_{i,j} (its one term,
    coefficient 1) or a canonical primitive polynomial of two or more terms
    (coprime integer coefficients, positive leading coefficient, no monomial
    factor), as its sorted (exponent, coefficient) term tuple `Poly.key()`.
    The symbolic check reads the same terms as `packed`, a dict from packed
    monomials (`_pack`) at `width` bytes per exponent, the fewest for the
    factor's total degree `degree` (`_width`), built here once; a `_Plan`
    reads them as `sparse`, built on its first read.
    `_factor` hands out one object per term tuple, so factors hash and
    compare by identity: a batch of identities updates the exponent maps
    tens of thousands of times, and rehashing the term tuple at each update
    would cost more than the rest of the batch."""

    __slots__ = ("terms", "degree", "width", "packed", "_sparse", "__weakref__")

    def __init__(self, terms):
        self.terms = terms
        self.degree = max([sum(e) for e, _c in terms])
        self.width = _width(self.degree)
        self.packed = {_pack(e, self.width): c for e, c in terms}
        self._sparse = None

    @property
    def sparse(self):
        """The terms as (index tuple, coefficient) pairs, the index tuple
        naming each variable of the term's monomial, x^p p times, from which
        a `_Plan` reads the factor's monomials; built on the first read, so
        a factor that only the symbolic check reads holds none."""
        if self._sparse is None:
            cells = range(len(self.terms[0][0]))
            sparse = []
            for e, c in self.terms:
                idx = tuple(compress(cells, e))
                if len(idx) != sum(e):  # an exponent above 1
                    idx = tuple([i for i in idx for _ in range(e[i])])
                sparse.append((idx, c))
            self._sparse = tuple(sparse)
        return self._sparse

    def packed_at(self, width):
        """The packed terms at `width` bytes per exponent, at least the
        factor's own `width`."""
        if width == self.width:
            return self.packed
        return {_pack(e, width): c for e, c in self.terms}


# the live factors by term tuple; an entry goes with the last ratio using it
_FACTORS = weakref.WeakValueDictionary()


def _factor(terms):
    return _FACTORS.get(terms) or _FACTORS.setdefault(terms, _Factor(terms))


def _variable(i, nv):
    """The factor of the grid variable at dense index i of nv."""
    return _factor((((0,) * i + (1,) + (0,) * (nv - i - 1), 1),))


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
        exps = {_variable(i, len(mono)): e for i, e in enumerate(mono) if e}
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
        """self ** m for any int m; TypeError for any other m, bool
        included."""
        _check_exponent(m)
        return _product([(self, m)], self.k, self.n)

    def _packed_sides(self):
        """(numerator, denominator, width): the sides of `expand` as packed
        terms dicts at one width of `width` bytes per exponent, chosen so
        that 2^(8 width) exceeds the total degree of either side (see the
        module docstring)."""
        sides = ([(f, e) for f, e in self.exps.items() if e > 0],
                 [(f, -e) for f, e in self.exps.items() if e < 0])
        width = _width(max([sum([f.degree * e for f, e in side]) for side in sides]))
        out = []
        for c, side in zip((self.scalar.numerator, self.scalar.denominator), sides):
            powers = [_power(f.packed_at(width), e) for f, e in side]
            p = reduce(_convolve, powers) if powers else {0: 1}
            out.append(p if c == 1 else {e: c * x for e, x in p.items()} if c else {})
        return out[0], out[1], width

    def expand(self):
        """(numerator, denominator) as polynomials: the product of the
        factors with positive (negative) exponents, scaled by the scalar's
        numerator (denominator), multiplied out packed (`_packed_sides`)."""
        num, den, width = self._packed_sides()
        return _unpacked(num, self.k, self.n, width), _unpacked(den, self.k, self.n, width)

    def eval(self, point):
        """Value at {(i, j): rational}, missing variables 0, through a
        one-off `_Plan`; ZeroDivisionError when a denominator factor
        vanishes there."""
        nums, dens = _Plan([self]).pairs(grid_point(point, self.k, self.n))
        return _ratio(nums[0], dens[0])

    def ratio_equal(self, other):
        """Exact equality as rational functions: cancel shared factors, then
        compare one cross-multiplied pair of packed sides."""
        num, den = (self / other)._packed_sides()[:2]
        return num == den

    def __repr__(self):
        factors = [(Poly(self.k, self.n, dict(f.terms)), e) for f, e in self.exps.items()]
        return f"FactoredRatio(scalar={self.scalar}, factors={factors})"


class _Plan:
    """The evaluation of a list of FactoredRatios at many points, laid out
    flat once: the distinct monomials of their factors (`_Factor.sparse`
    index tuples, so one monomial serves every factor that has it), each factor's
    terms as (degree, coefficient, monomial slots) groups in increasing
    degree, and each side of each ratio as its scalar's numerator or
    denominator with a tuple of positions in the row of every factor's
    numerator and denominator (2p and 2p + 1 for the factor at position p),
    repeated |exponent| times, on the side the exponent's sign says."""

    __slots__ = ("monomials", "factors", "top", "num_rows", "den_rows")

    def __init__(self, ratios):
        slots, position, self.factors = {}, {}, []
        self.num_rows, self.den_rows = [], []
        for r in ratios:
            up, down = [], []
            for f, e in r.exps.items():
                p = position.get(f)
                if p is None:
                    p = position[f] = len(self.factors)
                    groups = {}
                    for idx, c in f.sparse:
                        slot = slots.setdefault(idx, len(slots))
                        groups.setdefault((len(idx), c), []).append(slot)
                    self.factors.append(tuple(sorted([(d, c, tuple(s))
                                                      for (d, c), s in groups.items()])))
                a, b = (2 * p, 2 * p + 1) if e > 0 else (2 * p + 1, 2 * p)
                up += [a] * abs(e)
                down += [b] * abs(e)
            self.num_rows.append((r.scalar.numerator, tuple(up)))
            self.den_rows.append((r.scalar.denominator, tuple(down)))
        self.monomials = tuple(slots)
        self.top = max([len(idx) for idx in slots], default=0)

    def pairs(self, xs):
        """The ratios' values at the dense point xs as two lists, their
        numerators and their denominators, ints and unreduced.  The point's
        denominators are cleared once (X / D, `linalg._integral`), each
        monomial is one product of X, and each factor is the int sum
        sum_d N_d D^(top-d) over its degree groups (N_d the group's sum of
        coefficient times monomial) over D^top, reduced by one gcd; each
        side of a ratio is then one product over its row.  Raises
        ZeroDivisionError when a denominator vanishes."""
        X, D = _integral(xs)
        M = [prod([X[i] for i in idx]) for idx in self.monomials]
        powers = [D ** d for d in range(self.top + 1)]
        row = []
        for groups in self.factors:
            num = last = 0
            for d, c, s in groups:
                num = num * powers[d - last] + c * sum(map(M.__getitem__, s))
                last = d
            g = gcd(num, powers[last])
            row += (num // g, powers[last] // g)
        get = row.__getitem__
        nums = [prod(map(get, up), start=a) for a, up in self.num_rows]
        dens = [prod(map(get, down), start=b) for b, down in self.den_rows]
        if not all(dens):
            raise ZeroDivisionError("denominator factor vanished at the sample point")
        return nums, dens


def _product(pairs, k, n):
    """prod r**c over (FactoredRatio r, int c) pairs: the signed exponents
    are summed in one pass, and the factors whose exponents cancel to zero
    are dropped.  The sum is copied once, since a dict keeps the room of
    every key it dropped, and a crossing product drops nearly all of its
    hundreds."""
    num = den = 1
    for r, c in pairs:
        a, b = r.scalar.numerator, r.scalar.denominator
        if c < 0:
            a, b = b, a
        num *= a ** abs(c)
        den *= b ** abs(c)
    return FactoredRatio(k, n, _ratio(num, den), dict(_combine([(r.exps, c) for r, c in pairs])))


# ---------------------------------------------------------------------------
# staircase face polynomials

def _chains(row, ivals):
    """The weakly increasing column chains c_1 <= ... <= c_r with
    lo_t <= c_t <= hi_t for (lo_t, hi_t) = ivals[t], each as the tuple of
    its cells (row + t, c_t), in lexicographic order: the one enumerator of
    every staircase polynomial."""
    chains = [()]
    for r, (lo, hi) in enumerate(ivals, start=row):
        chains = [ch + ((r, c),) for ch in chains
                  for c in range(max(lo, ch[-1][1]) if ch else lo, hi + 1)]
    return chains


def chain_poly(row, ivals, k, n):
    """Sum of x_{row,c_1} x_{row+1,c_2} ... x_{row+r-1,c_r} over the weakly
    increasing chains c_1 <= ... <= c_r with lo_t <= c_t <= hi_t for
    (lo_t, hi_t) = ivals[t] (`_chains`): one coefficient-1 monomial per
    chain, in lexicographic chain order, built as one terms dict.  A chain
    cell outside the grid raises IndexError (`grid_point`)."""
    return Poly(k, n, {grid_point(dict.fromkeys(ch, 1), k, n): 1 for ch in _chains(row, ivals)})


def _tau_ivals(I, k, n):
    """(first row, column intervals) of the chains of tau_I (see `tau`),
    read off a weakly increasing index I of k ints inside [1, n];
    ValueError, naming I, for any other I, and unless (k, n) passes
    `check_kn`."""
    check_kn(k, n)
    I = tuple(I)
    if not all(type(a) is int for a in I):
        raise ValueError(f"tau index entries must be ints, got {I}")
    if len(I) != k:
        raise ValueError(f"tau index must have {k} entries")
    if list(I) != sorted(I):
        raise ValueError("tau index must be weakly increasing")
    if I[0] < 1 or I[-1] > n:
        raise ValueError(f"tau index {I} not inside [1, {n}]")
    s = 0
    while s < len(I) and I[s] == s + 1:
        s += 1
    J = [j - s for j in I[s:]]
    m = len(J)
    ivals = [(max(J[t - 1] - t, 1), min(J[t] - t - (t == m - 1), n - k)) for t in range(1, m)]
    return s + 1, ivals


def tau(I, k, n):
    """Planar face polynomial tau_I for a weakly increasing index tuple I of
    k ints inside [1, n] (strictly increasing for honest subsets; u-variable
    ladders hold repeated indices); ValueError naming any other I.

    Strip the maximal prefix [1, s] from I, shift the rest down by s, and
    sum x_{s+1,a_1} ... x_{s+m-1,a_{m-1}} over weakly increasing tuples with
    a_t in [j_t - t, j_{t+1} - t], the last interval ending at j_m - m.
    """
    return chain_poly(*_tau_ivals(I, k, n), k, n)


def pk_factors(k, n):
    """The PK potential factors: P_i = sum_j x_{i,j}, and Q_j summing the
    weakly increasing column chains in {j, j+1} down the rows (k monomials
    each)."""
    Ps = [chain_poly(i, [(1, n - k)], k, n) for i in range(1, k)]
    Qs = [chain_poly(1, [(j, j + 1)] * (k - 1), k, n) for j in range(1, n - k)]
    return Ps, Qs


def planar_face_range(k, n):
    """Admissible (i, J) pairs for the planar faces, grouped over the sizes
    m = 2..k: i in [1, k-m+1] and J an m-subset of [1, (n-2)-(k-m)].
    Raises ValueError unless (k, n) passes `check_kn`."""
    check_kn(k, n)
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
# u-variables

@shape_cache
def _ladder_table(k, n):
    """(ladders, taus): the ladder of each nonfrozen J, in the order of
    `combinat._nonfrozen`, as a tuple of (tau id, +-1) pairs, and the tau
    index of each id, numbered as first met; both immutable, since every
    u-variable and identity of the shape reads them.

    The ladder of u_J holds the signed exponents of its tau indices, by one
    rule for any k in 0-based positions: with J[q+1:] the run of labels J
    ends with at n (q = k - 1 if none) and up, B' the tuples J, B with
    their first entry raised by one (the orientation the binary identities
    pin), u_J is tau(up) / tau(J) for q = 0 and else tau(up) tau(B) /
    (tau(J) tau(B')), for B = J[:q] + (j_q + 1, ..., j_q + k - q) (so every
    index lies in [1, n]).  The four indices are distinct: up and B' differ
    from J and B in entry 0, and B from J and up from B' in entry q."""
    ids, ladders = {}, []
    for J in _nonfrozen(k, n)[0]:
        q = next(q for q in range(k - 1, -1, -1) if J[q] != n - k + 1 + q)
        num, den = [(J[0] + 1, *J[1:])], [J]
        if q:
            B = J[:q] + tuple(range(J[q] + 1, J[q] + k - q + 1))
            num.append(B)
            den.append((B[0] + 1, *B[1:]))
        ladders.append(tuple([(ids.setdefault(I, len(ids)), e)
                              for e, side in ((1, num), (-1, den)) for I in side]))
    return tuple(ladders), tuple(ids)


def _ladder_product(pairs, k, n):
    """prod u_J^c over (checked subset J, int c) pairs as one FactoredRatio:
    c e is added into a list indexed by tau id over each (id, e) of J's
    ladder, and one `_product` runs over the taus whose sums do not cancel.
    ValueError for a frozen J, which has no u-variable."""
    ladders, taus = _ladder_table(k, n)
    index = _nonfrozen(k, n)[1]
    sums = [0] * len(taus)
    for J, c in pairs:
        if J not in index:
            raise ValueError(f"{J} is frozen; no u-variable")
        for i, e in ladders[index[J]]:
            sums[i] += c * e
    return _product([(_tau_ratio(taus[i], k, n), sums[i])
                     for i in compress(range(len(sums)), sums)], k, n)


@shape_cache
def _tau_ratio(I, k, n):
    """tau(I) as a FactoredRatio, built once per (k, n) and index straight
    from its chains (`_chains`), as `FactoredRatio.from_poly(tau(I, k, n))`
    would give it: every coefficient is 1, so the scalar is 1 (0 with no
    chain); each cell on every chain is a grid-variable factor; and with two
    or more chains, all of one degree, the chains less those cells are the
    terms of the primitive factor, sorted as `Poly.key()` sorts them.  Each
    chain's monomial is packed at one byte an exponent (`_pack`), so the
    common cells are the AND of the packed chains, and sorting the
    little-endian bytes of the rest sorts their exponent tuples."""
    chains = _chains(*_tau_ivals(I, k, n))
    if not chains:
        return FactoredRatio(k, n, 0)
    w, nv = n - k, (k - 1) * (n - k)
    mons = [sum([1 << 8 * ((r - 1) * w + c - 1) for r, c in ch]) for ch in chains]
    common = reduce(and_, mons)
    exps = {_variable(i, nv): 1 for i, e in enumerate(common.to_bytes(nv, "little")) if e}
    if len(chains) > 1:
        rest = sorted([(m - common).to_bytes(nv, "little") for m in mons])
        exps[_factor(tuple([(tuple(e), 1) for e in rest]))] = 1
    return FactoredRatio(k, n, 1, exps)


def u_variable(J, k, n):
    """Planar face ratio u_J as a normalized FactoredRatio: the product over
    its ladder (see `_ladder_table`); ValueError for a frozen J."""
    check_kn(k, n)
    return _ladder_product([(check_subset(J, k, n), 1)], k, n)


def crossing_profile(J, k, n):
    """Sorted list of (I, c_{I,J}) over subsets crossing J: J's
    non-neighbours in the noncrossing graph, read off its row at J's
    position in `combinat._nonfrozen`; none for a frozen J, which crosses
    nothing.  ValueError unless (k, n) passes `check_kn` and J
    `check_subset`."""
    check_kn(k, n)
    J = check_subset(J, k, n)
    verts, adj = _noncrossing_graph(k, n)
    t = _nonfrozen(k, n)[1].get(J)
    if t is None:
        return []
    cross = ((1 << len(verts)) - 1) & ~adj[t] & ~(1 << t)
    return [(verts[i], compatibility_degree(verts[i], J, n)) for i in _bits(cross)]


@shape_cache
def _identity(J, k, n):
    """(number of subsets crossing J, u_J, prod over crossing I of
    u_I^{c_{I,J}}) for a checked subset J: the binary identity of J, both
    sides ladder products, built once per J."""
    profile = crossing_profile(J, k, n)
    return len(profile), _ladder_product([(J, 1)], k, n), _ladder_product(profile, k, n)


@shape_cache
def _one_minus_u(J, k, n):
    """1 - u_J for a checked nonfrozen subset J, built once per J: the
    primitive factors of den - num (u_J = num / den expanded) times u_J's
    own denominator, inverted and still factored, so that its taus cancel
    against a crossing product's by adding exponents."""
    uJ = _identity(J, k, n)[1]
    num, den, width = uJ._packed_sides()
    diff = _unpacked(_combine([(den, 1), (num, -1)]), k, n, width)
    inverse = FactoredRatio(k, n, _ratio(1, uJ.scalar.denominator),
                            {f: e for f, e in uJ.exps.items() if e < 0})
    return FactoredRatio.from_poly(diff) * inverse


def _check_trials(trials):
    """Reject trials < 1, which would check nothing; the random checks run
    this before they build any identity or plan."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")


@shape_cache
def _identity_plan(k, n):
    """The `_Plan` of every binary identity at (k, n): u_J and then its
    crossing product, for each nonfrozen J in table order, read off the
    cached `_identity` entries once per shape."""
    check_kn(k, n)
    return _Plan([r for J in _nonfrozen(k, n)[0] for r in _identity(J, k, n)[1:]])


def _first_random_failure(plan, k, n, trials, seed):
    """Check u = 1 - rhs for every identity of `plan`, a `_Plan` over the
    ratios u_0, rhs_0, u_1, rhs_1, ..., at `trials` exact positive rational
    points drawn from random.Random(seed); return (index of the first
    failing identity, witness point) or None.

    The plan makes every distinct monomial and factor once per point and
    each side of every identity one product of the factors' reduced int
    pairs; the sides are compared cross-multiplied.  No denominator can
    vanish there: every factor is a grid variable or the primitive part of a
    tau polynomial, whose coefficients are all positive, so it is positive
    at a positive point; every drawn point is therefore used.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        point = {(i, j): F(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
                 for i in range(1, k) for j in range(1, n - k + 1)}
        nums, dens = plan.pairs(grid_point(point, k, n))
        # a/b = 1 - c/d, cross-multiplied
        sides = zip(nums[::2], dens[::2], nums[1::2], dens[1::2])
        for index, (a, b, c, d) in enumerate(sides):
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
    if mode == "random":
        _check_trials(trials)
    crossing, uJ, rhs = _identity(J, k, n)
    verdict = {"J": list(J), "k": k, "n": n, "mode": mode,
               "crossing": crossing, "pass": False}
    if mode == "symbolic":
        verdict["pass"] = _one_minus_u(J, k, n).ratio_equal(rhs)
        return verdict
    verdict["trials"] = trials
    verdict["seed"] = seed
    failure = _first_random_failure(_Plan([uJ, rhs]), k, n, trials, seed)
    verdict["pass"] = failure is None
    if failure:
        verdict["witness"] = failure[1]
    return verdict


def binary_identities_random_all(k, n, trials=20, seed=0):
    """Random-exact verification of every binary identity at (k, n)
    through the shape's cached plan (`_identity_plan`): each trial evaluates
    every distinct monomial and factor once at an exact positive rational
    point and then checks u_J = 1 - prod u_I^{c_{I,J}} for every nonfrozen
    J.  Returns a verdict dict."""
    nf = _nonfrozen(k, n)[0]
    _check_trials(trials)
    failure = _first_random_failure(_identity_plan(k, n), k, n, trials, seed)
    verdict = {"k": k, "n": n, "mode": "random", "trials": trials,
               "seed": seed, "pass": failure is None}
    if failure:
        verdict["J"] = list(nf[failure[0]])
        verdict["witness"] = failure[1]
    else:
        verdict["checked"] = len(nf)
    return verdict
