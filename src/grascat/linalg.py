"""Exact linear algebra on lists of lists of ints or Fractions, and the
one rule for exact numbers that every module follows: `_integral` clears
a vector's denominators, `_primitive` scales it to coprime ints, `_exact`
holds a value as an int when it is integral, else as a Fraction, `_ratio`
is the exact quotient of two ints, and `_combine` sums sparse vectors
(grid vectors, eta coordinates, polynomial terms, exponent maps), dropping
the zeros.  No other module calls `lcm`.

Every exact elimination but one runs through one fraction-free row
update, `_pivot`: the Gauss-Jordan kernel `_eliminate` (Bareiss-Montante
on Python ints) and the revised simplex of `polytope.in_convex_hull`,
which pivots its D*B^-1 rows with the entering column prepended.
The exception is the flip of the fan walk in `roots._Fan.locate`, its own
unit-pivot row update, which changes only the pivot row and the rows of
the exchange relation read off the crossed pair, not solved
(`roots._Fan.exchange`).  `_eliminate` scales each row to
integers with `_integral`; every update ``(p*a - f*b) // prev`` divides
exactly, as each entry stays a minor of the scaled matrix.  All pivots end
equal to one value ``d``, so the reduced matrix divided by ``d`` is the
reduced row echelon form.  Rank, determinant, solutions and null spaces
are read off it, each entry an int where it is integral (`_ratio`).
First-nonzero pivoting keeps every operation deterministic, and the RREF
is unique, so results do not depend on the pivot order.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

F = Fraction


def _eliminate(rows, ncols=None):
    """Fraction-free Gauss-Jordan elimination of an int/Fraction matrix,
    pivoting over its first ``ncols`` columns (all by default).

    Returns ``(M, pivots, d, sign, scale)``: the integer matrix M whose
    division by d is the RREF of the input, the pivot columns in order, the
    common pivot value d, the sign of the row permutation and the product
    of the row scales.
    """
    scaled = [_integral(row) for row in rows]
    M = [ints for ints, _den in scaled]
    scale = prod(den for _ints, den in scaled)
    m = len(M)
    if ncols is None:
        ncols = len(M[0]) if M else 0
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if M[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        prev = _pivot(M, r, col, prev)
        pivots.append(col)
    return M, pivots, prev, sign, scale


def _pivot(M, r, col, prev):
    """Pivot the int matrix M in place on p = M[r][col]: each other row
    becomes (p*row - f*M[r]) // prev, f its entry in col.  Returns p, the
    next prev.  Exact along a chain of pivots from prev = 1 (every entry a
    minor), on a fixed row order (Bareiss) or a simplex basis (Edmonds),
    and at a unit pivot p = +-1 with prev = p, where a row becomes
    row - f*p*M[r]."""
    prow = M[r]
    p = prow[col]
    for i, row in enumerate(M):
        if i != r:
            f = row[col]
            M[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
    return p


def _integral(vec):
    """(ints, den) for a sequence of ints and Fractions: den the lcm of the
    denominators, ints the list of den times each entry."""
    # a list, not a generator: the argument tuple built from a generator
    # is resized rather than taken from the tuple free list, but is
    # still released to it, so that list would fill up for each width
    den = lcm(*[c.denominator for c in vec])
    return [c.numerator * (den // c.denominator) for c in vec], den


def _primitive(vec):
    """The positive multiple of a rational vector whose entries are coprime
    ints, as a tuple (the zero vector stays zero)."""
    ints, _den = _integral(vec)
    g = gcd(*ints)
    return tuple([v // g for v in ints]) if g else tuple(ints)


def _exact(x):
    """The exact value of x: an int when it is integral, else a Fraction."""
    if type(x) is int:  # the common case, on every entry of `roots.grid_point`
        return x
    x = x if isinstance(x, F) else F(x)
    return x.numerator if x.denominator == 1 else x


def _ratio(a, d):
    """`_exact(Fraction(a, d))` for ints a and d != 0, built directly."""
    return a // d if a % d == 0 else F(a, d)


def _combine(terms):
    """sum of c*v over the (sparse dict v, scalar c) pairs terms, as a dict
    with no zero values and its keys in the order first seen; a key whose
    sum cancels is dropped at once, so if it comes back it is seen anew."""
    out = {}
    for v, c in terms:
        for key, x in v.items():
            s = out.get(key, 0) + c * x
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def rank(rows):
    return len(_eliminate(rows)[1])


def det(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _M, pivots, d, sign, scale = _eliminate(rows)
    return _ratio(sign * d, scale) if len(pivots) == n else 0


def solve_columns(A, B):
    """Solve A X = B columnwise; B given as rows of the RHS matrix."""
    n = len(A)
    M, pivots, d, _sign, _scale = _eliminate(
        [list(A[i]) + list(B[i]) for i in range(n)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [[_ratio(x, d) for x in row[n:]] for row in M]


def inverse(A):
    n = len(A)
    return solve_columns(A, [[int(i == j) for j in range(n)] for i in range(n)])


def nullspace(rows):
    """Basis of the right null space, echelon-normalized for determinism."""
    if not rows:
        return []
    M, pivots, d, _sign, _scale = _eliminate(rows)
    n = len(M[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [int(c == fc) for c in range(n)]
        for i, pc in enumerate(pivots):
            vec[pc] = _ratio(-M[i][fc], d)
        basis.append(vec)
    return basis
