"""Exact linear algebra: solves, null spaces, ranks and determinants on
seeded random int, 0/+-1 and Fraction matrices, rank-deficient ones
included; the exact-number rule; and `linalg._combine`, checked directly
and against the accumulation loops that `roots` and `kinematics` ran
before it."""
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat import kinematics, linalg, roots
from grascat.combinat import nonfrozen_subsets
import claims

KINDS = ("int", "sign", "fraction")


def _matrix(rng, m, n, kind, deficient=False):
    if kind == "int":
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    elif kind == "sign":
        M = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
    else:
        M = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
             for _ in range(m)]
    if deficient and m > 1:
        i, j, l = rng.sample(range(m), 2) + [rng.randrange(m)]
        c = rng.randint(-3, 3)
        M[i] = [c * a + b for a, b in zip(M[j], M[l])]
    return M


def _cases(seed, count=60):
    rng = random.Random(seed)
    for t in range(count):
        yield rng, KINDS[t % 3], rng.randint(1, 8), rng.randint(1, 8), t % 4 == 0


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _cofactor_det(M):
    if not M:
        return 1
    return sum((-1) ** c * M[0][c] * _cofactor_det([row[:c] + row[c + 1:] for row in M[1:]])
               for c in range(len(M)) if M[0][c])


def _exact_typed(x):
    """Whether x is an int when it is integral, else a Fraction."""
    return type(x) is (int if F(x).denominator == 1 else F)


def test_solve_columns():
    solved = singular = 0
    for rng, kind, n, w, deficient in _cases(1):
        A = _matrix(rng, n, n, kind, deficient)
        B = _matrix(rng, n, w % 3 + 1, kind)
        try:
            X = linalg.solve_columns(A, B)
        except ValueError:
            # singular: certified by a nonzero kernel vector
            vec = linalg.nullspace(A)[0]
            assert any(vec) and _mul(A, [[x] for x in vec]) == [[0]] * n
            singular += 1
            continue
        assert _mul(A, X) == B
        inv = linalg.inverse(A)
        assert _mul(A, inv) == [[int(i == j) for j in range(n)] for i in range(n)]
        # integral entries are ints, the others Fractions
        assert all(_exact_typed(x) for row in X + inv for x in row)
        solved += 1
    assert solved > 30 and singular > 5


def test_nullspace_and_rank():
    assert linalg.nullspace([]) == []
    for rng, kind, m, n, deficient in _cases(2):
        A = _matrix(rng, m, n, kind, deficient)
        basis = linalg.nullspace(A)
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in A)
            assert all(_exact_typed(x) for x in vec)
        assert linalg.rank(A) + len(basis) == n
        if basis:
            assert linalg.rank(basis) == len(basis)
        assert linalg.rank([list(col) for col in zip(*A)]) == linalg.rank(A)


def test_det_matches_cofactor_expansion_and_is_multiplicative():
    for rng, kind, n, _w, deficient in _cases(3, count=45):
        n = min(n, 6)
        A = _matrix(rng, n, n, kind, deficient)
        B = _matrix(rng, n, n, KINDS[(KINDS.index(kind) + 1) % 3])
        assert linalg.det(A) == _cofactor_det(A)
        assert _exact_typed(linalg.det(A))
        assert linalg.det(_mul(A, B)) == linalg.det(A) * linalg.det(B)


def test_singular_input_raises():
    with pytest.raises(ValueError, match="singular"):
        linalg.solve_columns([[1, 2], [2, 4]], [[1], [2]])
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        linalg.det([[1, 2, 3], [4, 5, 6]])
    det = linalg.det([[F(1, 2), 1], [1, 2]])
    assert det == 0 and type(det) is int


def test_nullspace_pinned_echelon_form():
    A = [[1, 2, 0, 3, F(1, 2)],
         [2, 4, 1, 7, 0],
         [-1, -2, 1, -2, F(-3, 2)]]
    assert linalg.rank(A) == 2
    assert linalg.nullspace(A) == [
        [-2, 1, 0, 0, 0],
        [-3, 0, -1, 1, 0],
        [F(-1, 2), 0, 1, 0, 1],
    ]
    assert [[type(x) for x in vec] for vec in linalg.nullspace(A)] == [
        [int] * 5, [int] * 5, [F] + [int] * 4]


# ---------------------------------------------------------------------------
# the exact-number rule

exacts = st.one_of(st.integers(-60, 60), st.fractions(max_denominator=12))
vectors = st.lists(exacts, max_size=6)


@settings(derandomize=True, max_examples=300)
@given(vectors)
def test_integral_clears_the_least_denominator(vec):
    ints, den = linalg._integral(vec)
    assert type(ints) is list and all(type(a) is int for a in ints)
    assert ints == [den * x for x in vec]
    # no smaller den: a common factor of den and every int would divide out
    assert den >= 1 and gcd(den, *ints) == 1


@settings(derandomize=True, max_examples=300)
@given(vectors)
def test_primitive_is_the_coprime_positive_multiple(vec):
    prim = linalg._primitive(vec)
    assert type(prim) is tuple and all(type(a) is int for a in prim)
    assert gcd(*prim) == (1 if any(vec) else 0)
    # the same ray: one positive ratio on the support, zeros where vec has them
    assert [a == 0 for a in prim] == [x == 0 for x in vec]
    ratios = {F(a) / x for a, x in zip(prim, vec) if x}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)
    assert linalg._primitive(list(prim)) == prim


@settings(derandomize=True, max_examples=300)
@given(st.one_of(exacts, exacts.map(str)))
def test_exact_is_int_iff_integral(x):
    value = linalg._exact(x)
    assert value == F(x)
    assert type(value) is (int if F(x).denominator == 1 else F)


# ---------------------------------------------------------------------------
# sparse sums

def test_combine_keeps_keys_in_first_seen_order():
    out = linalg._combine([({"b": 1, "a": 2}, 1), ({"c": 1, "a": 1}, 3)])
    assert list(out.items()) == [("b", 1), ("a", 5), ("c", 3)]


def test_combine_drops_zero_sums():
    assert linalg._combine([({"a": 1, "b": 2}, 1), ({"a": 1}, -1)]) == {"b": 2}
    # a key that cancels and comes back is seen anew, after "b"
    out = linalg._combine([({"a": 1, "b": 1}, 1), ({"a": 1}, -1), ({"a": 3}, 1)])
    assert list(out.items()) == [("b", 1), ("a", 3)]
    assert linalg._combine([({"a": 1}, 1), ({"a": 1}, -1), ({"a": 2}, 1), ({"a": 1}, -2)]) == {}
    assert linalg._combine([({"a": 1, "b": 0}, 1), ({"c": 4}, 0)]) == {"a": 1}


def test_combine_takes_int_and_fraction_scalars():
    out = linalg._combine([({"a": F(1, 2), "b": 1}, 2), ({"a": 1, "b": 3}, F(1, 3))])
    assert out == {"a": F(4, 3), "b": 3}
    assert linalg._combine([({"a": F(1, 3)}, 3), ({"a": 1}, -1)]) == {}


def test_combine_of_no_terms_is_empty():
    assert linalg._combine([]) == {}
    assert linalg._combine([({}, 5)]) == {}


sparse = st.dictionaries(st.sampled_from("abcdef"), exacts, max_size=6)


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.tuples(sparse, exacts), max_size=5))
def test_combine_is_the_sum_of_the_scaled_vectors(terms):
    out = linalg._combine(terms)
    assert all(out.values())
    assert {key: sum(c * v.get(key, 0) for v, c in terms) for key in "abcdef"} == {
        key: out.get(key, 0) for key in "abcdef"}


# the accumulation loops that `linalg._combine` replaced, kept as oracles

def _retired_grid_add(a, b, mult=1):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + mult * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _retired_combo_vector(coeffs, k, n):
    v = {}
    for J, c in coeffs.items():
        v = _retired_grid_add(v, roots.v_root(J, k, n), c)
    return v


def _retired_tripod_vector(U, Uprime):
    coeffs = {tuple(sorted(U)): -1}
    for old, new in zip(U, Uprime):
        S = tuple(sorted(set(U) - {old} | {new}))
        coeffs[S] = coeffs.get(S, 0) + 1
    return {J: c for J, c in coeffs.items() if c}


def _retired_eta(pairs):
    """`KinFunctional._of` before it summed eta maps: the eta-coordinates
    summed from (J, c) pairs."""
    acc = {}
    for J, c in pairs:
        acc[J] = acc.get(J, 0) + c
    return {J: linalg._exact(c) for J, c in acc.items() if c}


def _same(got, want):
    """Equal maps with the same keys in the same order and equal values of
    the same type."""
    assert list(got) == list(want)
    assert [(v, type(v)) for v in got.values()] == [(v, type(v)) for v in want.values()]


SHAPES = [(3, 6), (3, 7), (4, 8)]
scalars = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


@st.composite
def _combinations(draw):
    k, n = draw(st.sampled_from(SHAPES))
    coeffs = draw(st.dictionaries(st.sampled_from(nonfrozen_subsets(k, n)), scalars, max_size=6))
    return k, n, coeffs


def _tripods(n):
    """Every tripod (U, Uprime) on [1, n] with U increasing."""
    def gaps(lo, hi):
        return [x for x in range(1, n + 1) if kinematics._in_cyclic_open(x, lo, hi, n)]
    return [((u, v, w), (a, b, c)) for u, v, w in combinations(range(1, n + 1), 3)
            for a in gaps(u, v) for b in gaps(v, w) for c in gaps(w, u)]


@settings(derandomize=True, max_examples=100)
@given(_combinations(), _combinations())
def test_grid_sums_match_the_retired_loops(first, second):
    k, n, coeffs = first
    _same(roots.combo_vector(coeffs, k, n), _retired_combo_vector(coeffs, k, n))
    if second[:2] == (k, n):
        a, b = roots.combo_vector(coeffs, k, n), roots.combo_vector(second[2], k, n)
        for mult in (1, -1, F(2, 3)):
            _same(claims.grid_add(a, b, mult), _retired_grid_add(a, b, mult))


@settings(derandomize=True, max_examples=100)
@given(st.sampled_from([(n, *t) for n in (6, 7, 8) for t in _tripods(n)]))
def test_tripod_vector_matches_the_retired_loop(tripod):
    n, U, Uprime = tripod
    _same(claims.tripod_vector(U, Uprime, n), _retired_tripod_vector(U, Uprime))


@st.composite
def _s_coefficients(draw):
    k, n = draw(st.sampled_from(SHAPES))
    subsets = list(combinations(range(1, n + 1), k))
    return k, n, [draw(st.dictionaries(st.sampled_from(subsets), scalars, max_size=5))
                  for _ in range(2)]


@settings(derandomize=True, max_examples=100)
@given(_s_coefficients(), scalars)
def test_kin_functional_sums_match_the_retired_loop(data, scalar):
    k, n, (cf, cg) = data
    S = kinematics.kin_basis(k, n).S
    f, g = kinematics.KinFunctional(k, n, cf), kinematics.KinFunctional(k, n, cg)
    # keys may come in another order: one that cancels is now seen anew
    assert f.eta == _retired_eta((J, a * c) for I, a in cf.items() for J, c in S[I].items())
    for got, want in (((f + g).eta, _retired_eta([*f.eta.items(), *g.eta.items()])),
                      ((f * scalar).eta, _retired_eta((J, c * scalar) for J, c in f.eta.items())),
                      ((f - g).eta, _retired_eta([*f.eta.items(),
                                                  *((J, -c) for J, c in g.eta.items())]))):
        assert got == want
        assert {J: type(c) for J, c in got.items()} == {J: type(c) for J, c in want.items()}
