"""Polynomial layer: tau/delta face polynomials, the positive
parameterization, resolved minors and the u-variable identities."""
import random
import re
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grascat import combinat, linalg, polynomial
from grascat.combinat import clear_caches, nonfrozen_subsets
from grascat.polynomial import (FactoredRatio, Poly, binary_identities_random_all,
                                binary_identity_check, delta, divide_exact, pk_factors,
                                planar_face_range, tau, u_variable)
from grascat.roots import grid_point
import claims
from claims import (bcfw_matrix, compound_X, det_poly, m_poly, needs_resolution, omega_vertices,
                    plucker, resolved_count_formula, resolved_minor, root_potential_check)


def x(i, j, k=3, n=6):
    return Poly.var(i, j, k, n)


def test_poly_ring_ops():
    a = x(1, 1) + x(1, 2)
    b = x(1, 1) - x(1, 2)
    assert a * b == x(1, 1) * x(1, 1) - x(1, 2) * x(1, 2)
    assert (a + 0) == a and a * 1 == a
    p = x(1, 1) + x(1, 2)
    assert p.eval({(1, 1): 1, (1, 2): 1}) == 2
    assert (a - a) == Poly.zero(3, 6)
    # constants on either side, the zero product, hashing and the zero repr
    assert a - 2 == a + (-2) and 2 - a == -a + 2 and Poly.one(3, 6) == 1
    assert a * 0 == Poly.zero(3, 6) and not a * 0
    # a stored zero coefficient multiplies into no term
    assert not Poly(3, 6, {(0,) * 6: 0}) * a
    assert hash(a * b) == hash(b * a) and repr(Poly.zero(3, 6)) == "0"
    assert det_poly([[a]]) == a


@pytest.mark.parametrize("other", [None, "x", 1.5, object()])
def test_poly_equality_with_a_foreign_operand_is_false(other):
    # __eq__ returns NotImplemented, so Python falls back to identity
    one = Poly.one(3, 6)
    assert not one == other and one != other and not other == one
    assert other not in [one] and one not in [other]


@pytest.mark.parametrize("m", [0, 1, 3])
def test_poly_power_is_repeated_product(m):
    p = x(1, 1) + 2 * x(2, 3) - F(1, 2)
    repeated = Poly.one(3, 6)
    for _ in range(m):
        repeated = repeated * p
    assert p ** m == repeated
    # the square-and-multiply starts from the base: no multiply by one
    assert (p ** 1) is p


def test_powers_reject_negative_and_non_int_exponents():
    p = x(1, 1) + 1
    # a negative exponent used to loop for ever on -1 >> 1 == -1
    with pytest.raises(ValueError, match="nonnegative, not -1"):
        p ** -1
    r = FactoredRatio.from_poly(4 * (x(1, 1) + 1))
    for m in (0.5, 2.0, True, F(2)):
        with pytest.raises(TypeError, match="exponent must be an int"):
            p ** m
        with pytest.raises(TypeError, match="exponent must be an int"):
            r ** m


def test_divide_exact():
    a = (x(1, 1) + x(1, 2)) * (x(2, 1) + 2 * x(2, 3))
    assert divide_exact(a, x(1, 1) + x(1, 2)) == x(2, 1) + 2 * x(2, 3)
    with pytest.raises(ArithmeticError):
        divide_exact(x(1, 1) * x(1, 1) + x(1, 2), x(1, 1))


def test_tau_displays():
    assert tau((2, 3, 6), 3, 6) == (x(1, 1) * x(2, 1) + x(1, 1) * x(2, 2)
                                    + x(1, 2) * x(2, 2) + x(1, 1) * x(2, 3)
                                    + x(1, 2) * x(2, 3))
    # k=3 with leading 1: a single second-row interval
    assert tau((1, 3, 6), 3, 6) == x(2, 1) + x(2, 2) + x(2, 3)
    assert tau((1, 4, 5), 3, 6) == x(2, 2)
    assert tau((1, 2, 4), 3, 6) == Poly.one(3, 6)

    def y(i, j):
        return Poly.var(i, j, 4, 8)

    t = tau((2, 3, 7, 8), 4, 8)
    assert t == (y(1, 1) * y(2, 1) + y(1, 1) * y(2, 2) + y(1, 2) * y(2, 2)
                 + y(1, 1) * y(2, 3) + y(1, 2) * y(2, 3) + y(1, 1) * y(2, 4)
                 + y(1, 2) * y(2, 4)) * y(3, 4)
    # repeated indices appear in the u-variable ladders
    assert tau((3, 3, 7, 8), 4, 8) == y(1, 2) * (y(2, 2) + y(2, 3) + y(2, 4)) * y(3, 4)
    assert len(tau((3, 3, 6, 8), 4, 8)) == 5 * 1  # x12 * (5 monomials)
    assert len(tau((2, 3, 6, 8), 4, 8)) == 12


def test_pk_factors():
    Ps, Qs = pk_factors(3, 6)
    assert Ps[0] == x(1, 1) + x(1, 2) + x(1, 3)
    assert Qs[0] == x(1, 1) * x(2, 1) + x(1, 1) * x(2, 2) + x(1, 2) * x(2, 2)
    assert all(len(q) == 3 for q in Qs)
    Ps, Qs = pk_factors(4, 8)
    assert all(len(q) == 4 for q in Qs)
    assert all(len(p) == 4 for p in Ps)


def test_delta_displays():
    assert delta(1, (1, 2, 3), 3, 6) == (x(1, 1) * x(2, 1) + x(1, 1) * x(2, 2)
                                         + x(1, 2) * x(2, 2))
    assert delta(1, (1, 2, 4), 3, 6) == (x(1, 1) * (x(2, 1) + x(2, 2) + x(2, 3))
                                         + x(1, 2) * (x(2, 2) + x(2, 3)))

    def y(i, j):
        return Poly.var(i, j, 4, 8)

    assert delta(2, (1, 2, 4), 4, 8) == (y(2, 1) * y(3, 1) + y(2, 1) * y(3, 2)
                                         + y(2, 1) * y(3, 3) + y(2, 2) * y(3, 2)
                                         + y(2, 2) * y(3, 3))
    # the weakly-increasing-tuple rule fills in the full staircase
    d = delta(1, (1, 3, 4, 6), 4, 8)
    expect = (y(1, 1) + y(1, 2)) * (y(2, 2) * (y(3, 2) + y(3, 3) + y(3, 4))
                                    + y(2, 3) * (y(3, 3) + y(3, 4)))
    expect = expect + y(1, 3) * y(2, 3) * (y(3, 3) + y(3, 4))
    assert d == expect and len(d) == 12


def test_planar_face_range_count():
    from math import comb
    for (k, n) in [(3, 6), (2, 7), (3, 7), (4, 8)]:
        assert len(planar_face_range(k, n)) == comb(n, k) - k * (n - k) - 1


def test_bcfw_entries():
    def y(i, j):
        return Poly.var(i, j, 4, 10)

    assert m_poly(3, 4, 4, 10) == y(3, 1) + y(3, 2) + y(3, 3) + y(3, 4)
    assert m_poly(1, 2, 4, 10) == (y(1, 1) * y(2, 1) * y(3, 1)
                                   + y(1, 1) * y(2, 1) * y(3, 2)
                                   + y(1, 1) * y(2, 2) * y(3, 2)
                                   + y(1, 2) * y(2, 2) * y(3, 2))
    assert m_poly(1, 3, 3, 6) == (x(1, 1) * (x(2, 1) + x(2, 2) + x(2, 3))
                                  + x(1, 2) * (x(2, 2) + x(2, 3))
                                  + x(1, 3) * x(2, 3))
    M = bcfw_matrix(3, 6)
    assert M[2][3] == Poly.one(3, 6) and M[0][0] == Poly.one(3, 6)


def test_plucker_values():
    assert plucker((1, 2, 3), 3, 6) == Poly.one(3, 6)
    assert plucker((2, 3, 6), 3, 6) == m_poly(1, 3, 3, 6)
    assert plucker((3, 5, 6), 3, 6) == (x(1, 2) * x(2, 1) + x(1, 3) * x(2, 1)
                                        + x(1, 3) * x(2, 2)) * x(2, 3)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
def test_plucker_positive(k, n):
    for J in combinations(range(1, n + 1), k):
        p = plucker(J, k, n)
        assert p and all(c > 0 for c in p.terms.values())


def test_resolved_minors_36():
    p236, p356 = resolved_minor((2, 3, 6), 6), resolved_minor((3, 5, 6), 6)
    assert p236 == x(1, 1) * (x(2, 1) + x(2, 2) + x(2, 3)) + x(1, 2) * (x(2, 2) + x(2, 3))
    assert p356 == (x(1, 2) + x(1, 3)) * x(2, 1) * x(2, 3)
    p123, p456 = plucker((1, 2, 3), 3, 6), plucker((4, 5, 6), 3, 6)
    assert p236 == plucker((2, 3, 6), 3, 6) - divide_exact(p123 * p456, plucker((1, 4, 5), 3, 6))
    assert p356 == plucker((3, 5, 6), 3, 6) - divide_exact(p123 * p456, plucker((1, 2, 4), 3, 6))


def test_resolved_minor_37():
    def y(i, j):
        return Poly.var(i, j, 3, 7)

    assert resolved_minor((3, 5, 7), 7) == (
        y(1, 2) * y(2, 3) + y(1, 3) * y(2, 3) + y(1, 2) * y(2, 4)
        + y(1, 3) * y(2, 4) + y(1, 4) * y(2, 4)) * y(2, 1)


@pytest.mark.parametrize("n", [6, 7])
def test_resolution_lex_criterion(n):
    resolved = sorted(J for J in combinations(range(1, n + 1), 3)
                      if resolved_minor(J, n) != plucker(J, 3, n))
    lexcrit = sorted(J for J in combinations(range(1, n + 1), 3)
                     if needs_resolution(J, n))
    assert resolved == lexcrit
    assert len(resolved) == resolved_count_formula(n)
    if n == 7:
        assert resolved == [(2, 3, 6), (2, 3, 7), (2, 4, 7), (3, 4, 7),
                            (3, 5, 6), (3, 5, 7), (3, 6, 7), (4, 6, 7)]


def test_resolved_count_formula():
    assert [resolved_count_formula(n) for n in range(6, 10)] == [2, 8, 19, 36]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_prop_case_formulas(n):
    """BCFW evaluations of the compound-determinant cases against the
    delta-product forms."""
    def dd(J):
        return delta(1, J, 3, n)

    def var(i, j):
        return Poly.var(i, j, 3, n)

    for i in range(3, n - 1):
        for j in range(i + 2, n):
            if j + 1 > n:
                continue
            # {i, j, j+1} with 3 <= i < i+1 < j < j+1 <= n
            got = resolved_minor((i, j, j + 1), n)
            want = dd((i - 1, j - 2)) * var(2, i - 2) * var(2, j - 2)
            assert got == want, (i, j)
    for i in range(3, n - 3):
        for j in range(i + 4, n + 1):
            # {i, i+1, j} with i+3 < j
            got = resolved_minor((i, i + 1, j), n)
            want = dd((i - 1, i, j - 2)) * var(2, i - 2)
            assert got == want, (i, j)
    for i in range(4, n - 1):
        for j in range(i + 3, n + 1):
            # {2, i, j} with i+2 < j
            got = resolved_minor((2, i, j), n)
            want = dd((1, i - 1, j - 2))
            assert got == want, (i, j)
    for i in range(3, n + 1):
        for j in range(i + 2, n + 1):
            for k3 in range(j + 2, n + 1):
                got = resolved_minor((i, j, k3), n)
                want = dd((i - 1, j - 1, k3 - 2)) * var(2, i - 2)
                assert got == want, (i, j, k3)


def test_compound_X_relation():
    # A_{i,j,j+1} = X_{(1,2),(i,i+1),(j,j+1)} * p_{1,j+1,j+2}
    from claims import compound_A
    n = 7
    for (i, j) in [(3, 5), (4, 6) if False else (3, 5)]:
        lhs = compound_A(i, j, j + 1, n)
        rhs = compound_X((1, 2), (i, i + 1), (j, j + 1), n) * plucker((1, j + 1, j + 2), 3, n)
        assert lhs == rhs


def test_u_variable_cancellation():
    u = u_variable((2, 3, 6), 3, 6)
    num = (x(1, 1) + x(1, 2)) * (x(2, 2) + x(2, 3))
    den = (x(1, 1) * x(2, 1) + x(1, 1) * x(2, 2) + x(1, 2) * x(2, 2)
           + x(1, 1) * x(2, 3) + x(1, 2) * x(2, 3))
    assert u.ratio_equal(FactoredRatio.from_poly(num) / den)
    with pytest.raises(ValueError):
        u_variable((1, 2, 3), 3, 6)


def test_binary_identity_single():
    v = binary_identity_check((1, 2, 4), 3, 6, "symbolic")
    assert v["pass"] and v["crossing"] == 4
    v = binary_identity_check((1, 3, 5), 3, 6, "symbolic")
    assert v["pass"]
    v = binary_identity_check((2, 3, 6, 7), 4, 8, "symbolic")
    assert v["pass"]
    v = binary_identity_check((2, 3, 6, 8), 4, 8, "symbolic")
    assert v["pass"]
    v = binary_identity_check((1, 2, 4), 3, 6, "random", trials=4, seed=3)
    assert v["pass"] and v["seed"] == 3


@pytest.mark.parametrize("trials", [0, -3])
def test_random_identity_checks_reject_trials_below_one(trials):
    # no point drawn would pass every identity without checking one, and
    # the count is checked before any identity or plan is built
    clear_caches()
    with pytest.raises(ValueError, match=f"trials must be at least 1, not {trials}"):
        binary_identity_check((1, 2, 4), 3, 7, "random", trials=trials)
    with pytest.raises(ValueError, match=f"trials must be at least 1, not {trials}"):
        binary_identities_random_all(3, 7, trials=trials)
    assert polynomial._identity.cache_info().currsize == 0
    assert polynomial._identity_plan.cache_info().currsize == 0


def test_root_potential_tables():
    assert all(root_potential_check(3, 6).values())
    assert all(root_potential_check(4, 8).values())


# ---------------------------------------------------------------------------
# staircase polynomials against their definitions: every column tuple of the
# box, kept when weakly increasing

def _chain_sum(row, ivals, k, n):
    """sum of x_{row,c_1} x_{row+1,c_2} ... over the weakly increasing tuples
    of the product of the intervals, each clipped to the grid columns."""
    boxes = [range(max(lo, 1), min(hi, n - k) + 1) for lo, hi in ivals]
    out = Poly.zero(k, n)
    for cols in product(*boxes):
        if all(a <= b for a, b in zip(cols, cols[1:])):
            out = out + Poly.monomial([(row + t, c) for t, c in enumerate(cols)], k, n)
    return out


def _tau_reference(I, k, n):
    s = 0
    while s < k and I[s] == s + 1:
        s += 1
    J = [j - s for j in I[s:]]
    m = len(J)
    ivals = [(J[t - 1] - t, J[t] - t - (1 if t == m - 1 else 0)) for t in range(1, m)]
    return _chain_sum(s + 1, ivals, k, n)


@pytest.mark.parametrize("k,n", [(3, 9), (4, 9)])
def test_staircase_polynomials_match_their_definitions(k, n):
    w = n - k
    for I in combinations(range(1, n + 1), k):
        assert tau(I, k, n) == _tau_reference(I, k, n), I
    for i, J in planar_face_range(k, n):
        ivals = [(J[t - 1] - (t - 1), J[t] - (t - 1)) for t in range(1, len(J))]
        assert delta(i, J, k, n) == _chain_sum(i, ivals, k, n), (i, J)
    for i in range(1, k):
        for j in range(1, w + 1):
            assert m_poly(i, j, k, n) == _chain_sum(i, [(1, j)] * (k - i), k, n), (i, j)
    Ps, Qs = pk_factors(k, n)
    assert Ps == [_chain_sum(i, [(1, w)], k, n) for i in range(1, k)]
    assert Qs == [_chain_sum(1, [(j, j + 1)] * (k - 1), k, n) for j in range(1, w)]
    omega = _chain_sum(1, [(1, w)] * (k - 1), k, n)
    assert sorted(omega_vertices(k, w)) == sorted(omega.terms)


# ---------------------------------------------------------------------------
# FactoredRatio laws on products of small positive factors

def _pool(k, n):
    taus = [tau(I, k, n) for I in combinations(range(1, n + 1), k)]
    return ([t for t in taus if len(t) > 1]
            + [x(1, 2), 2 * x(1, 1) + 3 * x(2, 2), 2 * x(1, 1) + 4 * x(1, 2) * x(2, 3)])


POOL = _pool(3, 6)


def _ratio(scalar, factors):
    out = FactoredRatio(3, 6, scalar)
    for index, e in factors:
        for _ in range(abs(e)):
            out = out * POOL[index] if e > 0 else out / POOL[index]
    return out


ratios = st.builds(
    _ratio,
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    st.lists(st.tuples(st.integers(0, len(POOL) - 1), st.integers(-2, 2)), max_size=5))


def _fields(r):
    return r.scalar, r.exps


points = st.dictionaries(st.sampled_from([(i, j) for i in (1, 2) for j in (1, 2, 3)]),
                         st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                         min_size=6, max_size=6)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios, ratios)
def test_factored_ratio_product_then_quotient(a, b):
    q = (a * b) / b
    assert q.ratio_equal(a)
    assert _fields(q) == _fields(a)
    assert _fields(3 * a / 3) == _fields(a)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios, st.integers(0, 4))
def test_factored_ratio_power_is_repeated_product(a, m):
    repeated = FactoredRatio(3, 6)
    for _ in range(m):
        repeated = repeated * a
    assert _fields(a ** m) == _fields(repeated)
    assert _fields(a ** -m) == _fields(FactoredRatio(3, 6) / repeated)


def _expand_reference(r):
    """(numerator, denominator) of r from the constant by one tuple product
    (`_tuple_product`) per unit of every exponent, variables included: the
    expansion that `FactoredRatio.expand` shortened, with no packed
    product in it."""
    sides = []
    for sign, c in ((1, F(r.scalar).numerator), (-1, F(r.scalar).denominator)):
        terms = {(0,) * ((r.k - 1) * (r.n - r.k)): c} if c else {}
        for f, e in r.exps.items():
            base = polynomial._unpacked(f.packed, r.k, r.n, f.width).terms
            for _ in range(max(sign * e, 0)):
                terms = _tuple_product(terms, base)
        sides.append(Poly(r.k, r.n, terms))
    return tuple(sides)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios)
def test_factored_ratio_expand_matches_repeated_products(a):
    a = a * x(1, 2) ** 2 / x(2, 1) ** 3
    assert a.expand() == _expand_reference(a)
    assert all(a.exps.values())


# ---------------------------------------------------------------------------
# the packed convolution against the tuple convolution it replaced

def _tuple_product(a, b):
    """The product of two exponent-tuple terms dicts, one tuple sum per
    pair of terms: the oracle for `polynomial._convolve`."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _degree(terms):
    return max([sum(e) for e in terms], default=0)


def _packed(terms, width):
    """An exponent-tuple terms dict as packed (monomial, coefficient) pairs."""
    return [(polynomial._pack(e, width), c) for e, c in terms.items()]


def _sparse_poly(nv):
    """Terms dicts in nv variables: up to six terms, each with up to four
    variables of exponent 1 to 3, and nonzero int coefficients."""
    exponents = st.dictionaries(st.integers(0, nv - 1), st.integers(1, 3), max_size=4).map(
        lambda e: tuple([e.get(i, 0) for i in range(nv)]))
    return st.dictionaries(exponents, st.integers(-9, 9).filter(bool), min_size=1, max_size=6)


packed_cases = st.sampled_from([(3, 9), (4, 8), (6, 13)]).flatmap(
    lambda kn: st.tuples(st.just(kn), _sparse_poly((kn[0] - 1) * (kn[1] - kn[0])),
                         _sparse_poly((kn[0] - 1) * (kn[1] - kn[0])), st.integers(1, 4)))


_X0, _X1 = (1,) + (0,) * 11, (0, 1) + (0,) * 10


@settings(derandomize=True, max_examples=80, deadline=None)
@given(packed_cases)
# (x0 + x1)(x0 - x1): the x0 x1 terms cancel and must leave no key
@example(((4, 8), {_X0: 1, _X1: 1}, {_X0: 1, _X1: -1}, 2))
def test_packed_product_and_power_match_the_tuple_convolution(case):
    (k, n), a, b, m = case
    # each at the width `FactoredRatio._packed_sides` picks: the fewest
    # bytes for the total degree of the result
    width = polynomial._width(_degree(a) + _degree(b))
    product = polynomial._convolve(_packed(a, width), _packed(b, width))
    assert polynomial._unpacked(product.items(), k, n, width).terms == _tuple_product(a, b)
    width = polynomial._width(m * _degree(a))
    repeated = a
    for _ in range(m - 1):
        repeated = _tuple_product(repeated, a)
    power = polynomial._power(_packed(a, width), m)
    assert polynomial._unpacked(power.items(), k, n, width).terms == repeated


def test_packed_fields_at_the_width_bound():
    assert [polynomial._width(d) for d in (0, 1, 255, 256, 65535, 65536)] == [1, 1, 1, 2, 2, 3]
    # 2^8 - 1 in the field of x_{1,2}, next to x_{1,1} and x_{1,3}: total
    # degree 255 still fits one byte, and no field carries into the next
    a = {(0, 200, 0, 0, 0, 0): 3, (0, 150, 2, 0, 0, 0): -1}
    b = {(0, 55, 0, 0, 0, 0): 2, (53, 0, 0, 0, 0, 0): 5}
    assert _degree(a) + _degree(b) == 255
    product = polynomial._convolve(_packed(a, 1), _packed(b, 1)).items()
    assert polynomial._unpacked(product, 3, 6, 1).terms == _tuple_product(a, b)
    assert polynomial._unpacked(product, 3, 6, 1).terms[(0, 255, 0, 0, 0, 0)] == 6
    # a power of total degree 256 needs two bytes a field: the factor is
    # packed at one byte and repacked at two by FactoredRatio.expand
    f = x(1, 1) + x(1, 2)
    r = FactoredRatio.from_poly(f) ** 256
    (factor,) = r.exps
    assert factor.width == 1 and polynomial._width(256 * factor.degree) == 2
    num, den = r.expand()
    assert num == f ** 256 and den == 1 and num.terms[(256, 0, 0, 0, 0, 0)] == 1
    # f^256 / x_{1,1} against the one factor f^256 of two bytes a field
    folded = FactoredRatio.from_poly(f ** 256 * x(1, 1) ** 255) / x(1, 1) ** 256
    assert (r / x(1, 1)).ratio_equal(folded)
    assert not (r / x(1, 1)).ratio_equal(folded * x(1, 2))
    # a factor of its own degree above 255, and a variable to the 2^70:
    # nine bytes a field
    g = x(1, 1) ** 300 + x(2, 3)
    assert FactoredRatio.from_poly(g).expand() == (g, Poly.one(3, 6))
    big = FactoredRatio.from_poly(x(2, 1)) ** (2 ** 70) / x(1, 1)
    assert big.expand() == (x(2, 1) ** (2 ** 70), x(1, 1))


def test_poly_product_at_the_width_bound():
    # Poly products pack at the fewest bytes for the product's total
    # degree: 255 fits one byte a field, 256 needs two
    a = Poly(3, 6, {(0, 200, 0, 0, 0, 0): 3, (0, 150, 2, 0, 0, 0): -1})
    for b in (Poly(3, 6, {(0, 55, 0, 0, 0, 0): 2, (53, 0, 0, 0, 0, 0): 5}),
              Poly(3, 6, {(0, 56, 0, 0, 0, 0): 2, (53, 1, 0, 0, 0, 0): 5})):
        assert (a * b).terms == _tuple_product(a.terms, b.terms)
    assert (a * b).terms[(0, 256, 0, 0, 0, 0)] == 6
    assert (a * b).terms[(53, 201, 0, 0, 0, 0)] == 15


def test_poly_product_with_a_negative_exponent_is_a_value_error():
    # a Poly built with a negative exponent has no packed form, at one byte
    # a field or at more
    negative = Poly(3, 6, {(-1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1})
    for other in (x(1, 1), x(1, 1) ** 300):
        with pytest.raises(ValueError, match=r"exponents \(-1, 0, 0, 0, 0, 0\) do not fit"):
            negative * other
        with pytest.raises(ValueError, match="do not fit"):
            other * negative
    with pytest.raises(ValueError, match="do not fit"):
        negative ** 2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios, ratios, points)
def test_factored_ratio_eval_is_multiplicative(a, b, point):
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)
    # eval gives an int where integral, and int / int is a float
    assert (a / b).eval(point) == F(a.eval(point)) / b.eval(point)


polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    max_size=4).map(lambda terms: Poly(3, 6, terms))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
    assert f + g == g + f and f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 4))
def test_poly_products_match_the_tuple_convolution(f, g, m):
    # Poly products run on the packed convolution: against the tuple oracle
    assert (f * g).terms == _tuple_product(f.terms, g.terms)
    repeated = {(0,) * 6: 1}
    for _ in range(m):
        repeated = _tuple_product(repeated, f.terms)
    assert (f ** m).terms == repeated


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys, polys.filter(bool))
def test_divide_exact_round_trip(f, g):
    assert divide_exact(f * g, g) == f


def _term_sum_reference(terms, xs):
    """One Fraction operation per term: the evaluation the integer kernel
    `polynomial._Plan` replaced."""
    tot = F(0)
    for e, c in terms:
        m = F(c)
        for x, p in zip(xs, e):
            if p:
                m *= x ** p
        tot += m
    return tot


coords = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=7))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polys, st.tuples(*[coords] * 6))
@example(Poly(3, 6, {(0,) * 6: F(1, 3), (1, 0, 0, 0, 0, 2): F(-2, 5)}), (0,) * 6)
@example(Poly(3, 6, {(2, 0, 0, 0, 0, 0): F(3, 2), (0, 1, 0, 0, 0, 0): 1}), (-3, -1, 0, 2, 4, -4))
@example(Poly(3, 6, {(1, 1, 0, 0, 0, 0): F(1, 2), (0, 0, 0, 0, 0, 0): F(5, 3)}),
         (F(-1, 2), F(3, 7), 0, 1, F(-4, 3), 2))
@example(Poly(3, 6, {(3, 0, 0, 0, 1, 0): F(-1, 4), (0, 0, 2, 0, 0, 0): 2}),
         (F(2, 3), -1, F(-5, 2), 0, 3, 1))
def test_term_sum_matches_one_fraction_per_term(f, xs):
    # f is not homogeneous in general, so neither is its primitive factor;
    # xs mixes ints, zeros, negatives and Fractions, as `roots.grid_point`
    # makes them
    nums, dens = polynomial._Plan([FactoredRatio.from_poly(f)]).pairs(xs)
    assert type(nums[0]) is int and type(dens[0]) is int
    assert F(nums[0], dens[0]) == _term_sum_reference(f.terms.items(), xs)


def test_factor_packed_terms_unpack_to_the_primitive_part():
    k, n = 3, 12
    sides = [r for J in nonfrozen_subsets(k, n) for r in polynomial._identity(J, k, n)[1:]]
    factors = list(dict.fromkeys([f for r in sides for f in r.exps]))
    assert factors
    for f in factors:
        # each factor's packed terms, sorted by monomial at the fewest bytes
        # for its degree, unpack to a primitive polynomial (or a variable)
        # that `from_poly` interns as the same factor
        p = polynomial._unpacked(f.packed, k, n, f.width)
        assert FactoredRatio.from_poly(p).exps == {f: 1}
        assert p.content_split()[2] == p or len(p) == 1
        assert list(f.packed) == sorted(f.packed)
        assert f.degree == _degree(p.terms) and f.width == 1
    # a plan over the same sides decodes each monomial into the indices of
    # its variables, and each factor's groups expand back to its terms
    plan = polynomial._Plan(sides)
    assert len(plan.factors) == len(factors)
    nv = (k - 1) * (n - k)
    for f, groups in zip(factors, plan.factors):
        dense = {}
        for d, c, slots in groups:
            for s in slots:
                idx = plan.monomials[s]
                assert len(idx) == d
                dense[tuple([Counter(idx)[i] for i in range(nv)])] = c
        assert dense == polynomial._unpacked(f.packed, k, n, f.width).terms


def test_factors_of_one_packed_tuple_at_two_widths_stay_apart():
    # x12 + x22 at one byte a field and x11^256 + x13 at two pack to the
    # same ints, 2^8 and 2^32: the width keys a factor too
    a, b = x(1, 2) + x(2, 2), x(1, 1) ** 256 + x(1, 3)
    ra, rb = FactoredRatio.from_poly(a), FactoredRatio.from_poly(b)
    (fa,), (fb,) = ra.exps, rb.exps
    assert fa.packed == fb.packed and (fa.width, fb.width) == (1, 2) and fa is not fb
    assert ra.expand() == (a, 1) and rb.expand() == (b, 1)


def _variable(i, j):
    """The factor x_{i,j} of a (3, 6) FactoredRatio, as `_factor` interns it."""
    return polynomial._variable((i - 1) * 3 + j - 1)


def test_monomial_content_becomes_variable_factors():
    r = FactoredRatio.from_poly(x(1, 1) ** 2 * (x(1, 2) + x(1, 3)))
    prim = polynomial._factor(tuple(sorted(_packed((x(1, 2) + x(1, 3)).terms, 1))), 1)
    assert r.scalar == 1 and r.exps == {_variable(1, 1): 2, prim: 1}
    # the variable cancels by identity, as any factor does
    assert (r / x(1, 1) / x(1, 1)).exps == {prim: 1}


def test_factored_ratio_repr():
    # the scalar, then each factor with its exponent in the order of the
    # exponent map; a Poly prints its terms by degree, a constant bare
    r = FactoredRatio.from_poly(6 * x(1, 1) ** 2 * (x(1, 2) + x(2, 1))) / (2 * x(1, 3) + 2)
    assert repr(r) == ("FactoredRatio(scalar=3, factors=[(x11, 2), (x21 + x12, 1), "
                       "(1 + x13, -1)])")
    assert repr(FactoredRatio(3, 6, 0)) == "FactoredRatio(scalar=0, factors=[])"
    assert repr(2 * x(1, 1) ** 2 * x(2, 3) - x(1, 2) - 3) == "-3 + -1*x12 + 2*x11^2*x23"


def test_factored_ratio_eval_rejects_vanishing_denominator():
    r = FactoredRatio(3, 6) / (x(1, 1) + x(1, 2))
    with pytest.raises(ZeroDivisionError):
        r.eval({(1, 1): 1, (1, 2): -1})


@pytest.mark.parametrize("row,ivals,bad", [(0, [(1, 1)], "x_{0,1}"), (3, [(1, 1)], "x_{3,1}"),
                                            (2, [(1, 1), (1, 1)], "x_{3,1}"),
                                            (1, [(1, 4)], "x_{1,4}")])
def test_chain_poly_rejects_cells_outside_the_grid(row, ivals, bad):
    # row 0 must not wrap round to the last row of the dense tuple
    with pytest.raises(IndexError, match=re.escape(bad + " outside the (3,6) grid")):
        polynomial.chain_poly(row, ivals, 3, 6)


def test_factored_ratio_eval_is_exact_on_negative_monomial_exponents():
    # the point's integral coordinate is an int, and 2 ** -1 is a float
    val = (FactoredRatio(3, 6) / Poly.var(1, 1, 3, 6)).eval({(1, 1): 2})
    assert val == F(1, 2) and type(val) is F


def test_integral_values_are_ints():
    # values and stored coefficients follow `linalg._exact`: an int where
    # integral, else a Fraction
    p, r = Poly.var(1, 1, 3, 6), FactoredRatio.from_poly(x(1, 1) + x(1, 2))
    for v, want in ((p.eval({(1, 1): 2}), 2), (p.eval({(1, 1): F(4, 2)}), 2),
                    (p.eval({(1, 1): F(1, 2)}), F(1, 2)), (r.eval({(1, 1): 2}), 2),
                    (r.eval({(1, 1): F(1, 3), (1, 2): F(2, 3)}), 1),
                    (r.eval({(1, 1): F(1, 3)}), F(1, 3))):
        assert v == want and type(v) is type(want)
    assert [type(c) for c in Poly.const(3, 6, F(2, 1)).terms.values()] == [int]
    assert [type(c) for c in Poly.const(3, 6, F(1, 2)).terms.values()] == [F]


# ---------------------------------------------------------------------------
# references: the exact-number rule, the u-variable ladder and the crossing
# profile against the formulas they replaced

def _content_split_reference(p):
    """content_split with one Fraction per term: the content is
    gcd(numerators) / lcm(denominators)."""
    from math import gcd, lcm
    if not p.terms:
        return F(0), (0,) * p.nvars, Poly.zero(p.k, p.n)
    coeffs = [F(c) for c in p.terms.values()]
    scale = F(gcd(*[c.numerator for c in coeffs]), lcm(*[c.denominator for c in coeffs]))
    mono = tuple(min(col) for col in zip(*p.terms))
    terms = {}
    for e, c in p.terms.items():
        q = F(c) / scale
        terms[tuple(x - y for x, y in zip(e, mono))] = q.numerator if q.denominator == 1 else q
    prim = Poly(p.k, p.n, terms)
    if prim.terms[max(prim.terms, key=lambda e: (sum(e), e))] < 0:
        scale, prim = -scale, -prim
    return scale, mono, prim


SPLIT_KINDS = ("int", "rational", "negative-leading", "common-monomial")


def _split_cases(seed, count=160):
    rng = random.Random(seed)
    for t in range(count):
        kind = SPLIT_KINDS[t % 4]
        terms = {}
        for _ in range(rng.randint(0, 7)):
            c = (rng.randint(-30, 30) if kind == "int"
                 else F(rng.randint(-30, 30), rng.randint(1, 12)))
            if c:
                terms[tuple(rng.randint(0, 3) for _ in range(6))] = c
        if terms and kind == "negative-leading":
            lead = max(terms, key=lambda e: (sum(e), e))
            terms[lead] = -abs(terms[lead])
        if kind == "common-monomial":
            shift = [rng.randint(1, 3) for _ in range(6)]
            terms = {tuple(x + s for x, s in zip(e, shift)): c for e, c in terms.items()}
        yield kind, Poly(3, 6, terms)


@pytest.mark.parametrize("seed", [1, 2])
def test_content_split_matches_fraction_reference(seed):
    seen = set()
    for kind, p in _split_cases(seed):
        scale, mono, prim = p.content_split()
        ref_scale, ref_mono, ref_prim = _content_split_reference(p)
        assert (scale, mono, prim.terms) == (ref_scale, ref_mono, ref_prim.terms)
        # the scale follows `linalg._exact`: an int iff it is integral
        assert type(scale) is (int if ref_scale.denominator == 1 else F)
        assert all(type(c) is int for c in prim.terms.values())
        seen.add((kind, type(scale)))
    assert {kind for kind, _t in seen} == set(SPLIT_KINDS)
    assert {t for _kind, t in seen} == {int, F}


def _split_counting_fractions(monkeypatch, p):
    """p.content_split() with every Fraction it builds counted."""
    made = []

    class Counting(F):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    for module in (polynomial, linalg):
        monkeypatch.setattr(module, "F", Counting)
    return p.content_split(), made


def test_content_split_builds_one_fraction(monkeypatch):
    p = tau((2, 5, 9), 3, 12) * F(9, 2) + tau((1, 4, 8), 3, 12) * F(3, 2)
    (scale, _mono, prim), made = _split_counting_fractions(monkeypatch, p)
    assert scale == F(3, 2) and len(prim) == len(p) and len(made) == 1


def test_content_split_builds_no_fraction_for_an_integral_scale(monkeypatch):
    p = tau((2, 5, 9), 3, 12) * 6 + tau((1, 4, 8), 3, 12) * 4
    (scale, _mono, prim), made = _split_counting_fractions(monkeypatch, p)
    assert scale == 2 and type(scale) is int and len(prim) == len(p) and not made
    # FactoredRatio keeps the scalar as content_split gives it
    r = FactoredRatio.from_poly(p)
    assert r.scalar == 2 and type(r.scalar) is int
    assert type((r * F(1, 2)).scalar) is int and isinstance((r / 4).scalar, F)


def _u_variable_table(J, k, n):
    """The seven hand-written k = 3 and k = 4 cases of u_J as (num, den)
    tau index lists."""
    if k == 3:
        i, j, kk = J
        if (j, kk) == (n - 1, n):
            return [(i + 1, n - 1, n)], [(i, n - 1, n)]
        if kk == n:
            return [(i + 1, j, kk), (i, j + 1, j + 2)], [(i, j, kk), (i + 1, j + 1, j + 2)]
        return [(i + 1, j, kk), (i, j, kk + 1)], [(i, j, kk), (i + 1, j, kk + 1)]
    i, j, kk, l = J
    if (j, kk, l) == (n - 2, n - 1, n):
        return [(i + 1, n - 2, n - 1, n)], [(i, n - 2, n - 1, n)]
    if (kk, l) == (n - 1, n):
        return ([(i + 1, j, n - 1, n), (i, j + 1, j + 2, j + 3)],
                [(i, j, n - 1, n), (i + 1, j + 1, j + 2, j + 3)])
    if l == n:
        return ([(i + 1, j, kk, n), (i, j, kk + 1, kk + 2)],
                [(i, j, kk, n), (i + 1, j, kk + 1, kk + 2)])
    return [(i + 1, j, kk, l), (i, j, kk, l + 1)], [(i, j, kk, l), (i + 1, j, kk, l + 1)]


@pytest.mark.parametrize("k,n", [(3, n) for n in range(5, 13)] + [(4, n) for n in range(6, 12)])
def test_u_variable_ladder_matches_case_table(k, n):
    for J in nonfrozen_subsets(k, n):
        num, den = _u_variable_table(J, k, n)
        ref = claims._quotient([tau(tuple(sorted(I)), k, n) for I in num],
                               [tau(tuple(sorted(I)), k, n) for I in den], k, n)
        assert _fields(u_variable(J, k, n)) == _fields(ref), J


@pytest.mark.parametrize("k,n", [(3, n) for n in range(6, 13)] + [(4, 8), (4, 9)])
def test_crossing_profile_matches_definition(k, n):
    from grascat.combinat import compatibility_degree, is_frozen
    nf = nonfrozen_subsets(k, n)
    frozen = 0
    for J in combinations(range(1, n + 1), k):
        expected = [(I, c) for I in nf if I != J and (c := compatibility_degree(I, J, n))]
        assert polynomial.crossing_profile(J, k, n) == expected, J
        frozen += is_frozen(J, n)
        assert expected or is_frozen(J, n)
    assert frozen == n


def _crossing_product_reference(J, k, n, us):
    """The crossing product of u_J's binary identity as a product of whole
    u-variables, the formula the ladder sum replaced."""
    return polynomial._product([(us[I], c) for I, c in polynomial.crossing_profile(J, k, n)],
                               k, n)


@pytest.mark.parametrize("k,n", [(3, n) for n in range(6, 11)] + [(4, 8), (4, 9)])
def test_ladder_sum_matches_product_of_u_variables(k, n):
    nf = nonfrozen_subsets(k, n)
    us = {I: u_variable(I, k, n) for I in nf}
    for J in nf:
        summed = polynomial._identity(J, k, n)[2]
        assert _fields(summed) == _fields(_crossing_product_reference(J, k, n, us)), J


def _combined_ladders(J, k, n):
    """The crossing product of J summed over whole ladder dicts keyed by tau
    index (`linalg._combine`), the route the per-shape tau ids replaced."""
    table, taus = polynomial._ladder_table(k, n)
    index = combinat._nonfrozen(k, n)[1]
    ladders = [({taus[i]: e for i, e in table[index[I]]}, c)
               for I, c in polynomial.crossing_profile(J, k, n)]
    return polynomial._product([(polynomial._tau_ratio(I, k, n), e)
                                for I, e in linalg._combine(ladders).items()], k, n)


@pytest.mark.parametrize("k,n", [(3, 9), (4, 8), (4, 9)])
def test_id_summed_crossing_product_matches_combined_ladders(k, n):
    for J in nonfrozen_subsets(k, n):
        summed, combined = polynomial._identity(J, k, n)[2], _combined_ladders(J, k, n)
        assert summed.scalar == combined.scalar and summed.exps == combined.exps, J


def test_identity_sides_keep_no_room_for_cancelled_factors():
    # a crossing product cancels nearly all of the factors it sums; its
    # exponent map is copied, so it holds only the room of what is left
    for J in nonfrozen_subsets(4, 8):
        for r in polynomial._identity(J, 4, 8)[1:]:
            assert sys.getsizeof(r.exps) == sys.getsizeof(dict(r.exps)), J


def _assert_direct_tau_ratios(k, n):
    for I in combinations_with_replacement(range(1, n + 1), k):
        direct, oracle = polynomial._tau_ratio(I, k, n), FactoredRatio.from_poly(tau(I, k, n))
        # the same scalar, of the same type, and the same interned factors in
        # the same order
        assert type(direct.scalar) is type(oracle.scalar) and direct.scalar == oracle.scalar, I
        assert list(direct.exps.items()) == list(oracle.exps.items()), I


@pytest.mark.parametrize("k,n", [(2, 6), (3, 8), (4, 9), (5, 10)])
def test_tau_ratio_from_chains_matches_from_poly(k, n):
    _assert_direct_tau_ratios(k, n)
    # zero, constant and variable-only taus are among them
    scalars = {polynomial._tau_ratio(I, k, n).scalar
               for I in combinations_with_replacement(range(1, n + 1), k)}
    assert scalars == {0, 1}
    assert not polynomial._tau_ratio(tuple(range(1, k + 1)), k, n).exps


def test_tau_ratio_of_degree_past_255_matches_from_poly():
    # 258 chains through 257 rows, each row's column 2 or 3: no common cell,
    # so the primitive factor has degree 257 and two bytes a field, and the
    # chains packed at one byte are repacked
    I, k, n = tuple(range(3, 260)) + (261,), 258, 261
    direct, oracle = polynomial._tau_ratio(I, k, n), FactoredRatio.from_poly(tau(I, k, n))
    assert list(direct.exps.items()) == list(oracle.exps.items())
    (f,) = direct.exps
    assert (f.degree, f.width, len(f.packed)) == (257, 2, 258)


@pytest.mark.slow
def test_tau_ratio_from_chains_matches_from_poly_slow():
    _assert_direct_tau_ratios(6, 12)


def _whole_denominator_verdict(J, k, n):
    """The symbolic verdict with u_J's expanded denominator lifted into one
    opaque factor, the form `binary_identity_check` replaced."""
    _crossing, uJ, rhs = polynomial._identity(J, k, n)
    num, den = uJ.expand()
    return (FactoredRatio.from_poly(den - num) / den).ratio_equal(rhs)


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_symbolic_verdict_matches_whole_denominator_form(k, n):
    for J in nonfrozen_subsets(k, n):
        assert binary_identity_check(J, k, n, "symbolic")["pass"] is True, J
        assert _whole_denominator_verdict(J, k, n) is True, J


def _fraction_value(r, point):
    """r at point as one Fraction from its expanded sides, by `Poly.eval`."""
    num, den = r.expand()
    return F(num.eval(point)) / den.eval(point)


def _seeded_points(k, n, seed, count=3):
    rng = random.Random(seed)
    return [{(i, j): F(rng.randint(1, 50), rng.randint(1, 50))
             for i in range(1, k) for j in range(1, n - k + 1)} for _ in range(count)]


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_pair_evaluation_matches_expanded_sides(k, n):
    sides = [r for J in nonfrozen_subsets(k, n) for r in polynomial._identity(J, k, n)[1:]]
    # one plan for every side, as the batch check makes it
    plan = polynomial._Plan(sides)
    for point in _seeded_points(k, n, seed=k * n):
        nums, dens = plan.pairs(grid_point(point, k, n))
        assert len(nums) == len(dens) == len(sides)
        for r, num, den in zip(sides, nums, dens):
            assert type(num) is int and type(den) is int
            assert F(num, den) == _fraction_value(r, point), r


def test_pair_evaluation_of_signed_powers():
    # exponents +-2 and +-3 on factors and on monomial variables, a
    # rational scalar, and points with negative and rational coordinates
    f = [FactoredRatio.from_poly(POOL[i]) for i in (0, 1, -2, -1)]
    r = (FactoredRatio(3, 6, F(-3, 7)) * f[0] ** 2 / f[1] ** 2 * f[2] ** 3 / f[3] ** 3
         / x(1, 2) ** 2 * x(2, 1) ** 3 / x(1, 1) ** 3 * x(2, 3))
    variables = {f: e for f, e in r.exps.items() if len(f.packed) == 1}
    assert variables == {_variable(1, 2): -2, _variable(2, 1): 3, _variable(1, 1): -3,
                         _variable(2, 3): 1}
    assert sorted(e for f, e in r.exps.items() if f not in variables) == [-3, -2, 2, 3]
    rng = random.Random(7)
    for _ in range(3):
        point = {(i, j): F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                 for i in (1, 2) for j in (1, 2, 3)}
        assert r.eval(point) == _fraction_value(r, point)


def _inline_one_minus_u(J, k, n):
    """1 - u_J built from the cached u_J on every call: the form that
    `polynomial._one_minus_u` builds once per J."""
    _crossing, uJ, _rhs = polynomial._identity(J, k, n)
    num, den = uJ.expand()
    inverse = FactoredRatio(k, n, F(1, uJ.scalar.denominator),
                            {f: e for f, e in uJ.exps.items() if e < 0})
    return FactoredRatio.from_poly(den - num) * inverse


def _inline_verdict(J, k, n):
    return _inline_one_minus_u(J, k, n).ratio_equal(polynomial._identity(J, k, n)[2])


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_cached_one_minus_u_matches_inline_form(k, n):
    for J in nonfrozen_subsets(k, n):
        cached, inline = polynomial._one_minus_u(J, k, n), _inline_one_minus_u(J, k, n)
        assert _fields(cached) == _fields(inline), J
        assert binary_identity_check(J, k, n)["pass"] is _inline_verdict(J, k, n) is True, J


@pytest.fixture
def tau_builds(monkeypatch):
    # a tau FactoredRatio is built from the chains `_tau_ivals` reads off its
    # index, once per build; identity builds call `tau` no more
    built = Counter()
    original = polynomial._tau_ivals

    def counting(I, k, n):
        built[tuple(I)] += 1
        return original(I, k, n)

    clear_caches()
    monkeypatch.setattr(polynomial, "_tau_ivals", counting)
    yield built
    clear_caches()


def test_each_tau_built_once_per_identity_check(tau_builds):
    # the tau FactoredRatios and the identities are kept per (k, n): over
    # every check at a shape each tau is built at most once in total
    for k, n in [(3, 7), (4, 8)]:
        for J in nonfrozen_subsets(k, n):
            assert binary_identity_check(J, k, n)["pass"]
    assert tau_builds and max(tau_builds.values()) == 1
    tau_builds.clear()
    assert binary_identities_random_all(4, 9, trials=1)["pass"]
    assert tau_builds and max(tau_builds.values()) == 1
    tau_builds.clear()
    assert binary_identities_random_all(4, 9, trials=1, seed=1)["pass"]
    assert not tau_builds


@pytest.mark.parametrize("seed", range(4))
def test_warm_identity_verdicts_equal_cold_ones(seed):
    def verdicts():
        return [binary_identities_random_all(3, 12, trials=2, seed=seed),
                binary_identities_random_all(4, 9, trials=2, seed=seed),
                [binary_identity_check(J, 4, 8, "random", trials=2, seed=seed)
                 for J in nonfrozen_subsets(4, 8)]]

    clear_caches()
    cold = verdicts()
    warm = verdicts()
    clear_caches()
    assert cold == warm == verdicts()
    assert all(v["pass"] for v in cold[:2] + cold[2])


def test_float_subset_neither_poisons_nor_reads_the_identity_cache():
    # lru_cache keys compare 1.0 == 1, so (1.0, 3, 5) must be rejected
    # before any cache is read or filled, whichever call comes first
    clear_caches()
    with pytest.raises(ValueError, match="subset entries must be ints"):
        binary_identity_check((1.0, 3, 5), 3, 6)
    assert binary_identity_check((1, 3, 5), 3, 6)["pass"]
    clear_caches()
    assert binary_identity_check((1, 3, 5), 3, 6)["pass"]
    for call in (binary_identity_check, u_variable):
        with pytest.raises(ValueError, match="subset entries must be ints"):
            call((1.0, 3, 5), 3, 6)


# ---------------------------------------------------------------------------
# random-mode witnesses: with one crossing entry dropped every identity is
# false, so the witness is the first point drawn from random.Random(seed).
# These tests come last in the file: a broken identity their fixture left
# cached would reach the next file run in the session (the corpus and the
# acceptance battery in CI) rather than be cleared by a later test here.

def _first_point(k, n, seed):
    rng = random.Random(seed)
    return {f"{i},{j}": str(F(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4)))
            for i in range(1, k) for j in range(1, n - k + 1)}


@pytest.fixture
def broken_profiles(monkeypatch):
    # identities are cached per (k, n) and J: build them afresh with the
    # broken profiles, and keep none of them for later tests
    original = polynomial.crossing_profile
    clear_caches()
    monkeypatch.setattr(polynomial, "crossing_profile", lambda J, k, n: original(J, k, n)[1:])
    yield
    clear_caches()


@pytest.mark.parametrize("k,n,J", [(3, 7, (2, 4, 6)), (4, 8, (2, 3, 6, 8))])
def test_single_random_witness_is_first_point(broken_profiles, k, n, J):
    verdict = binary_identity_check(J, k, n, "random", trials=3, seed=11)
    assert verdict["pass"] is False
    assert verdict["witness"] == _first_point(k, n, 11)


@pytest.mark.parametrize("k,n", [(3, 8), (4, 8)])
def test_batch_random_witness_is_first_point(broken_profiles, k, n):
    verdict = binary_identities_random_all(k, n, trials=3, seed=5)
    assert verdict["pass"] is False
    assert verdict["J"] == list(nonfrozen_subsets(k, n)[0])
    assert verdict["witness"] == _first_point(k, n, 5)


@pytest.mark.parametrize("k,n", [(3, 8), (4, 8)])
def test_batch_random_witness_names_the_one_broken_identity(monkeypatch, k, n):
    # one identity false, not the first: the plan pairs each J with its own
    # sides, so the verdict names that J and the first point drawn
    nf = nonfrozen_subsets(k, n)
    broken = nf[len(nf) // 2]
    original = polynomial.crossing_profile
    clear_caches()
    monkeypatch.setattr(polynomial, "crossing_profile",
                        lambda J, k, n: original(J, k, n)[1:] if J == broken
                        else original(J, k, n))
    try:
        verdict = binary_identities_random_all(k, n, trials=3, seed=5)
    finally:
        clear_caches()
    assert verdict["pass"] is False
    assert verdict["J"] == list(broken)
    assert verdict["witness"] == _first_point(k, n, 5)


@pytest.mark.parametrize("k,n,J", [(3, 7, (2, 4, 6)), (4, 8, (2, 3, 6, 8))])
def test_symbolic_check_fails_on_broken_profile(broken_profiles, k, n, J):
    assert binary_identity_check(J, k, n, "symbolic")["pass"] is False


@pytest.mark.parametrize("k,n,J", [(3, 7, (2, 4, 6)), (4, 8, (2, 3, 6, 8))])
def test_broken_identity_leaves_packed_sides_that_differ(broken_profiles, k, n, J):
    # with one crossing entry dropped, factors are left after cancelling:
    # the packed sides are really multiplied out and compared, and they
    # unpack to the tuple expansion
    assert binary_identity_check(J, k, n, "symbolic")["pass"] is False
    left = polynomial._one_minus_u(J, k, n) / polynomial._identity(J, k, n)[2]
    assert left.exps
    num, den, width = left._packed_sides()
    assert num != den and len(num) > 1
    assert (polynomial._unpacked(num.items(), k, n, width),
            polynomial._unpacked(den.items(), k, n, width)) == _expand_reference(left)


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_broken_symbolic_verdicts_match_whole_denominator_form(broken_profiles, k, n):
    nf = nonfrozen_subsets(k, n)
    verdicts = [binary_identity_check(J, k, n, "symbolic")["pass"] for J in nf]
    assert verdicts == [_whole_denominator_verdict(J, k, n) for J in nf]
    assert verdicts == [_inline_verdict(J, k, n) for J in nf]
    assert not any(verdicts)
