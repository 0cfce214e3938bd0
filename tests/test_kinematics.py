"""Kinematic space, planar basis, distinguished points, the kinematic
shift and amplitude evaluation."""
import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat import kinematics, linalg
from grascat.combinat import (ResourceLimitExceeded, enumerate_maximal_noncrossing,
                              is_noncrossing, nonfrozen_subsets)
from grascat.kinematics import (ETA_HAT_38_TABLE, KinFunctional,
                                NC_AMPLITUDE_36_VALUE, PRIME_ETA_36,
                                prime_kinematics_reproduction, check_conservation,
                                eta_combination, eta_functional, eta_hat_shift,
                                eta_tripod, functionals_equal_on_K,
                                interior_kd_point, kd_membership, kin_basis,
                                nc_amplitude, octahedral_commutator, pk_point,
                                rho_height, root_kinematics_point)
from grascat.roots import gamma_hat


def test_rho_height():
    assert rho_height([0] * 6, [0] * 6, 6) == 0
    # the tropical height of a single root move is (n - (b - a)) / n
    for (a, b, n) in [(1, 3, 6), (2, 5, 7), (1, 2, 5)]:
        u = [0] * n
        u[a - 1], u[b - 1] = 1, -1
        assert rho_height(u, [0] * n, n) == F(n - (b - a), n)


def test_eta_24():
    f = eta_functional((1, 3), 2, 4)
    g = KinFunctional(2, 4, {(2, 3): 1})
    assert functionals_equal_on_K(f, g)


def test_eta_k2_identity():
    n = 6
    for (i, j) in [(1, 4), (2, 5), (2, 6), (3, 6)]:
        f = eta_functional((i, j), 2, n)
        g = KinFunctional(2, n, {(a, b): 1 for a in range(i + 1, j + 1)
                                 for b in range(a + 1, j + 1)})
        assert functionals_equal_on_K(f, g)


def test_eta_135_three_expansions():
    f = eta_functional((1, 3, 5), 3, 6)
    exps = [
        {(1, 2, 3): 1, (1, 2, 6): 1, (1, 3, 6): 1, (2, 3, 4): 1, (2, 3, 5): 1, (2, 3, 6): 1},
        {(1, 4, 5): 1, (2, 3, 4): 1, (2, 3, 5): 1, (2, 4, 5): 1, (3, 4, 5): 1, (4, 5, 6): 1},
        {(1, 2, 6): 1, (1, 3, 6): 1, (1, 4, 5): 1, (1, 4, 6): 1, (1, 5, 6): 1, (4, 5, 6): 1},
    ]
    for e in exps:
        assert functionals_equal_on_K(f, KinFunctional(3, 6, e))


@pytest.mark.parametrize("k,n", [(2, 6), (2, 8), (3, 6), (3, 7), (3, 8), (4, 8)])
def test_frozen_eta_vanish_and_basis(k, n):
    B = kin_basis(k, n)  # construction asserts dimension and invertibility
    for j in range(n):
        J = tuple(sorted((j + t) % n + 1 for t in range(k)))
        row = B._n_eta_row(J)
        assert all(sum(c * x for c, x in zip(row, vec)) == 0 for vec in B.basis)
        assert eta_functional(J, k, n).eta == {}


def test_functionals_equal_trivial():
    f = eta_functional((1, 3, 5), 3, 6)
    assert functionals_equal_on_K(f, f)
    g = KinFunctional(3, 6, {(1, 2, 3): 1, (1, 2, 4): 1})
    assert not functionals_equal_on_K(f, g)


def test_change_of_basis_roundtrip():
    B = kin_basis(3, 6)
    rng = random.Random(4)
    values = {J: F(rng.randint(-50, 50), rng.randint(1, 9)) for J in B.nonfrozen}
    point = B.point_from_eta(values)
    assert check_conservation(point, 3, 6)
    assert B.eta_values(point) == values


_rational = st.fractions(min_value=-60, max_value=60, max_denominator=9)


@st.composite
def _eta_and_s(draw):
    """A shape, eta values for its nonfrozen subsets and a point of K given
    as a rational combination of the basis of K."""
    k, n = draw(st.sampled_from([(2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (3, 8), (4, 8)]))
    B = kin_basis(k, n)
    eta = {J: draw(_rational) for J in B.nonfrozen}
    c = [draw(_rational) for _ in B.basis]
    s = {I: sum((c[t] * vec[i] for t, vec in enumerate(B.basis)), F(0))
         for i, I in enumerate(B.subsets)}
    return B, eta, {I: v for I, v in s.items() if v}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_eta_and_s())
def test_eta_s_round_trip(case):
    B, eta, s = case
    point = B.point_from_eta(eta)
    assert check_conservation(point, B.k, B.n)
    assert B.eta_values(point) == eta
    assert B.point_from_eta(B.eta_values(s)) == s


@pytest.mark.parametrize("k,n", [(2, 8), (3, 6), (3, 7), (3, 8), (3, 9), (4, 8), (4, 9)])
def test_eta_to_s_map_is_integral(k, n):
    B = kin_basis(k, n)
    nonfrozen = set(B.nonfrozen)
    assert set(B.S) == set(B.subsets)
    assert all(type(c) is int and c and J in nonfrozen
               for row in B.S.values() for J, c in row.items())


def _eliminated_S(B):
    """S as an elimination gives it: the square integer system of the n
    eta_J rows and the n incidence rows, augmented with a unit column per
    eta row, reduced; n times those columns of its inverse are S."""
    N, m, n = len(B.subsets), len(B.nonfrozen), B.n
    incidence = [[int(a in J) for J in B.subsets] for a in range(1, n + 1)]
    system = [row + [int(r == i) for i in range(m)] for r, row in enumerate(B._eta_rows)]
    system += [row + [0] * m for row in incidence]
    M, pivots, d, _sign, _scale = linalg._eliminate(system, N)
    assert len(pivots) == N
    assert not any(n * x % d for row in M for x in row[N:])
    return {I: {J: n * x // d for J, x in zip(B.nonfrozen, row[N:]) if x}
            for I, row in zip(B.subsets, M)}


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (2, 7), (2, 9), (3, 6), (3, 7), (3, 8),
                                 (3, 9), (4, 8), (4, 9),
                                 pytest.param(5, 10, marks=pytest.mark.slow)])
def test_closed_form_S_is_the_elimination(k, n):
    B = kin_basis(k, n)
    # the same entries, in the same key order
    assert ([(I, list(row.items())) for I, row in B.S.items()]
            == [(I, list(row.items())) for I, row in _eliminated_S(B).items()])


def _flip_a_sign(real):
    def row(I, n, position):
        out = real(I, n, position)
        if I == (1, 2, 4):
            J = next(iter(out))
            out[J] = -out[J]
        return out
    return row


def _add_the_pk_point(real):
    # moves the column of (1, 3, 5) by a K-point: still in K, wrong eta values
    pk = pk_point(3, 6)

    def row(I, n, position):
        out = real(I, n, position)
        out[(1, 3, 5)] = out.get((1, 3, 5), 0) + pk.get(I, 0)
        return {J: c for J, c in out.items() if c}
    return row


@pytest.mark.parametrize("breaks,match", [
    (_flip_a_sign, "the eta -> s map leaves K"),
    (_add_the_pk_point, "the nonfrozen eta_J are not a basis of the dual of K"),
])
def test_kin_basis_certificate_rejects_a_wrong_row(monkeypatch, breaks, match):
    monkeypatch.setattr(kinematics, "_s_row", breaks(kinematics._s_row))
    with pytest.raises(AssertionError, match=match):
        kinematics.KinBasis(3, 6)


def test_kin_basis_certificate_checks_the_dimension(monkeypatch):
    real = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows: real(rows)[:-1])
    with pytest.raises(AssertionError, match="K does not have dimension"):
        kinematics.KinBasis(3, 6)


def test_pk_point():
    from math import comb
    for (k, n) in [(2, 5), (3, 6), (4, 7), (4, 8)]:
        pk = pk_point(k, n)
        assert all(type(v) is int for v in pk.values())
        assert check_conservation(pk, k, n)
        assert kd_membership(pk, k, n)
        # strict only in the tiny case where every subset is a window
        assert kd_membership(pk, k, n, strict=True) == (comb(n, k) == 2 * n)
        B = kin_basis(k, n)
        assert all(v == 1 and type(v) is int for v in B.eta_values(pk).values())


def test_kd_membership():
    assert kd_membership({}, 3, 6)  # the origin, not interior
    assert not kd_membership({}, 3, 6, strict=True)
    # every sign right, but momentum is not conserved
    assert not kd_membership({(1, 2, 4): -1}, 3, 6)
    p = interior_kd_point(3, 6)
    assert kd_membership(p, 3, 6, strict=True)
    p = interior_kd_point(3, 9, seed=11)
    assert kd_membership(p, 3, 9, strict=True)


def test_octahedral_commutator_examples():
    f = octahedral_commutator((1, 4), 2, 1, 5, 4, 2, 9)
    assert functionals_equal_on_K(f, KinFunctional(2, 9, {(2, 5): -1}))
    f = octahedral_commutator((1, 3, 6), 4, 3, 7, 6, 3, 9)
    assert functionals_equal_on_K(
        f, KinFunctional(3, 9, {(1, 4, 7): -1, (4, 7, 8): -1, (4, 7, 9): -1}))
    # the sign-ambiguous (3,6) relation: eta_136+eta_245-eta_145-eta_236 = s236 - s245
    d = (eta_functional((1, 3, 6), 3, 6) + eta_functional((2, 4, 5), 3, 6)
         - eta_functional((1, 4, 5), 3, 6) - eta_functional((2, 3, 6), 3, 6))
    assert functionals_equal_on_K(d, KinFunctional(3, 6, {(2, 3, 6): 1, (2, 4, 5): -1}))


@pytest.mark.parametrize("k,n", [(2, 7), (3, 6), (3, 7)])
def test_octahedral_commutators_nonnegative(k, n):
    point = interior_kd_point(k, n, seed=17)
    count = 0
    for J in nonfrozen_subsets(k, n):
        outside = [a for a in range(1, n + 1) if a not in J]
        for b, d in combinations(J, 2):
            for a, c in combinations(outside, 2):
                try:
                    f = octahedral_commutator(J, a, b, c, d, k, n)
                except ValueError:
                    continue
                # strict at an interior point of the planar cone
                assert f.value(point) > 0, (J, a, b, c, d)
                count += 1
    assert count > 0


def test_root_kinematics():
    rng = random.Random(6)
    for (k, n) in [(3, 6), (2, 6), (4, 7)]:
        alpha = {(i, j): F(rng.randint(-20, 20), rng.randint(1, 5))
                 for i in range(1, k) for j in range(1, n - k + 1)}
        pt = root_kinematics_point(alpha, k, n)
        assert check_conservation(pt, k, n)
        for J in nonfrozen_subsets(k, n):
            g = gamma_hat(J, k, n)
            want = sum((F(c) * alpha.get(key, F(0)) for key, c in g.items()), F(0))
            assert eta_functional(J, k, n).value(pt) == want


def test_eta_tripod_orientations():
    # both interleaving patterns of the tripod construction
    f = eta_tripod((1, 3, 5), (2, 4, 6), 3, 6)
    g = eta_combination({(1, 3, 5): -1, (2, 3, 5): 1, (1, 4, 5): 1, (1, 3, 6): 1}, 3, 6)
    assert functionals_equal_on_K(f, g)
    f = eta_tripod((2, 4, 6), (1, 3, 5), 3, 6)
    g = eta_combination({(2, 4, 6): -1, (3, 4, 6): 1, (2, 5, 6): 1, (1, 2, 4): 1}, 3, 6)
    assert functionals_equal_on_K(f, g)


def test_eta_hat_36():
    hats = eta_hat_shift(6)
    # unshifted everywhere except 124 and 145
    for J in nonfrozen_subsets(3, 6):
        same = functionals_equal_on_K(hats[J], eta_functional(J, 3, 6))
        assert same == (J not in ((1, 2, 4), (1, 4, 5)))
    lhs = hats[(1, 2, 4)] + eta_functional((3, 5, 6), 3, 6)
    rhs = eta_combination({(2, 4, 6): -1, (1, 2, 4): 1, (3, 4, 6): 1, (2, 5, 6): 1}, 3, 6)
    assert functionals_equal_on_K(lhs, rhs)
    lhs = hats[(1, 4, 5)] + eta_functional((2, 3, 6), 3, 6)
    rhs = eta_combination({(1, 3, 5): -1, (2, 3, 5): 1, (1, 4, 5): 1, (1, 3, 6): 1}, 3, 6)
    assert functionals_equal_on_K(lhs, rhs)


def test_eta_hat_38_against_table():
    hats = eta_hat_shift(8)
    shifted = {J for J in nonfrozen_subsets(3, 8)
               if not functionals_equal_on_K(hats[J], eta_functional(J, 3, 8))}
    assert shifted == set(ETA_HAT_38_TABLE)
    assert len(shifted) == 19
    for J, coeffs in ETA_HAT_38_TABLE.items():
        assert functionals_equal_on_K(hats[J], eta_combination(coeffs, 3, 8)), J


def test_eta_hat_warns_beyond_range():
    # on every call: the rows are cached, the warning is not
    for _ in range(2):
        with pytest.warns(UserWarning, match="beyond the validated range"):
            eta_hat_shift(10)


def test_eta_hat_shift_shares_no_mutable_object():
    want = {J: dict(f.eta) for J, f in eta_hat_shift(6).items()}
    hats = eta_hat_shift(6)
    hats[(1, 2, 4)].eta.clear()
    hats[(1, 3, 5)].eta[(1, 2, 4)] = 7
    del hats[(1, 4, 5)]
    assert {J: f.eta for J, f in eta_hat_shift(6).items()} == want
    assert eta_functional((1, 3, 5), 3, 6).eta == {(1, 3, 5): 1}


def test_prime_kinematics_benchmark():
    rep = prime_kinematics_reproduction()
    assert rep["minus_s356"] == 714
    assert rep["minus_s236"] == 1324
    assert rep["eta_hat_124"] == 7373
    assert rep["eta_hat_145"] == 11935
    assert rep["amplitude"] == NC_AMPLITUDE_36_VALUE
    # unshifted subsets keep their prime values
    for J, v in PRIME_ETA_36.items():
        if J not in ((1, 2, 4), (1, 4, 5)):
            assert rep["hat_values"][J] == v
    den = NC_AMPLITUDE_36_VALUE.denominator
    primes = [8537, 9227, 10247, 11657, 15277, 17599, 20333, 23321, 26737,
              30637, 34679, 39293]
    prod = 1
    for p in primes:
        prod *= p
    assert den % prod == 0
    assert den // prod == 87996755 == 7373 * 11935


def test_prime_point_kd_report():
    # the prime-kinematics point is not actually inside the planar cone:
    # s_{125}, s_{134} and s_{135} come out positive
    B = kin_basis(3, 6)
    pt = B.point_from_eta(PRIME_ETA_36)
    assert not kd_membership(pt, 3, 6)
    assert pt[(1, 3, 5)] == 144 and pt[(1, 2, 5)] == 3450
    # int etas give an int point
    assert all(type(v) is int for v in pt.values())


def test_nc_amplitude_pk_values():
    from grascat.combinat import catalan_mdim
    for (k, n) in [(2, 5), (2, 6), (3, 6)]:
        values = {J: F(1) for J in nonfrozen_subsets(k, n)}
        value = nc_amplitude(k, n, values)
        assert value == catalan_mdim(k, n - k) and type(value) is int


def _reference_amplitude(k, n, values):
    """The amplitude as written: a Fraction sum of prod 1/v_J over the
    sorted maximal collections."""
    total = F(0)
    for coll in enumerate_maximal_noncrossing(k, n):
        term = F(1)
        for J in coll:
            term /= F(values[J])
        total += term
    return total


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6), (3, 7), (4, 8)])
def test_nc_amplitude_matches_reference(k, n):
    rng = random.Random(100 * k + n)
    draws = [lambda: rng.randint(1, 60),
             lambda: F(rng.randint(1, 60), rng.randint(1, 30)),
             lambda: F(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 30))]
    # one mixed-sign table at (4,8), whose reference sum takes about a second
    for draw in draws[2:] if (k, n) == (4, 8) else draws:
        values = {J: draw() for J in nonfrozen_subsets(k, n)}
        assert nc_amplitude(k, n, values) == _reference_amplitude(k, n, values)


@st.composite
def _amplitude_tables(draw):
    """A (k, n) and a table of nonzero values of mixed signs: all ints, or
    Fractions with unrelated denominators up to 1000."""
    k, n = draw(st.sampled_from([(2, 6), (3, 6), (3, 7), (4, 7)]))
    ints = st.integers(-10 ** 6, 10 ** 6).filter(bool)
    value = ints if draw(st.booleans()) else st.builds(F, ints, st.integers(1, 10 ** 3))
    return k, n, {J: draw(value) for J in nonfrozen_subsets(k, n)}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_amplitude_tables())
def test_nc_amplitude_is_the_collection_sum(table):
    k, n, values = table
    assert nc_amplitude(k, n, values) == _reference_amplitude(k, n, values)


def test_point_from_eta_takes_numbers_only():
    with pytest.raises(TypeError):
        kin_basis(3, 6).point_from_eta({(1, 2, 4): "3"})


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 8), (4, 8), (4, 9)])
@pytest.mark.parametrize("exact", [int, F])
def test_point_from_eta_is_the_S_row_sum(k, n, exact):
    # the +1 and -1 index rows give s_I = sum_J S[I][J] eta_J, zeros dropped,
    # with missing and zero etas among the inputs
    B = kin_basis(k, n)
    rng = random.Random(100 * k + n)
    draw = {int: lambda: rng.randint(-9, 9),
            F: lambda: F(rng.randint(-9, 9), rng.randint(1, 6))}[exact]
    eta = {J: draw() for J in B.nonfrozen if rng.random() < 0.8}
    want = {I: sum(c * eta.get(J, 0) for J, c in row.items()) for I, row in B.S.items()}
    want = {I: linalg._exact(v) for I, v in want.items() if v}
    got = B.point_from_eta(eta)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert B.point_from_eta({}) == {}


_nonzero = st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(bool)


@st.composite
def _scaled_tables(draw):
    k, n = draw(st.sampled_from([(2, 5), (2, 6), (2, 7), (3, 6), (3, 7)]))
    values = {J: draw(_nonzero) for J in nonfrozen_subsets(k, n)}
    return k, n, values, draw(_nonzero)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_scaled_tables())
def test_nc_amplitude_homogeneity(table):
    k, n, values, lam = table
    d = (k - 1) * (n - k - 1)
    scaled = {J: lam * v for J, v in values.items()}
    assert nc_amplitude(k, n, scaled) == nc_amplitude(k, n, values) / lam ** d


def test_nc_amplitude_pole_report():
    from grascat.kinematics import AmplitudePole
    values = {J: F(1) for J in nonfrozen_subsets(2, 5)}
    values[(1, 3)] = F(0)
    with pytest.raises(AmplitudePole) as exc:
        nc_amplitude(2, 5, values)
    assert exc.value.collection == ((1, 3), (1, 4))
    # the first sorted collection holding any zero is named
    values[(1, 3)], values[(2, 5)], values[(3, 5)] = F(1), F(0), F(0)
    with pytest.raises(AmplitudePole) as exc:
        nc_amplitude(2, 5, values)
    assert exc.value.collection == ((1, 3), (3, 5))
    # a missing subset is a pole too: with (1, 4) missing and (2, 5) zero,
    # the first collection through (1, 4) is named
    values[(3, 5)] = F(1)
    del values[(1, 4)]
    with pytest.raises(AmplitudePole) as exc:
        nc_amplitude(2, 5, values)
    assert exc.value.collection == ((1, 3), (1, 4))


@pytest.mark.parametrize("k,n", [(2, 7), (3, 7), (3, 8), (4, 8)])
def test_nc_amplitude_pole_is_the_sorted_first(k, n):
    """The pole report names the first sorted collection holding a zero
    or missing value, as a sorted term-by-term sum would meet it."""
    from grascat.kinematics import AmplitudePole
    rng = random.Random(7 * k + n)
    verts = nonfrozen_subsets(k, n)
    cols = enumerate_maximal_noncrossing(k, n)
    for _ in range(6):
        zeros = set(rng.sample(verts, rng.randint(1, 3)))
        values = {J: F(0) if J in zeros else F(rng.randint(1, 9)) for J in verts}
        with pytest.raises(AmplitudePole) as exc:
            nc_amplitude(k, n, values)
        assert exc.value.collection == next(c for c in cols if zeros.intersection(c))


def test_nc_amplitude_pole_ignores_the_collection_cap():
    """The pole report reads the noncrossing graph, not the search, so a
    zero at (5,10), with far more than 1000 collections, still names one."""
    from grascat.kinematics import AmplitudePole
    verts = nonfrozen_subsets(5, 10)
    zero = verts[len(verts) // 2]
    values = {J: F(0) if J == zero else F(1) for J in verts}
    with pytest.raises(AmplitudePole) as exc:
        nc_amplitude(5, 10, values, max_collections=1000)
    coll = exc.value.collection
    assert len(coll) == 16 and zero in coll and list(coll) == sorted(coll)
    assert all(is_noncrossing(I, J, 10) for I, J in combinations(coll, 2))


def test_nc_amplitude_collection_cap():
    values = {J: F(1) for J in nonfrozen_subsets(2, 5)}
    assert nc_amplitude(2, 5, values, max_collections=5) == 5
    with pytest.raises(ResourceLimitExceeded,
                       match=re.escape("more than 4 maximal collections for (2, 5)")):
        nc_amplitude(2, 5, values, max_collections=4)


def test_degenerate_26_amplitude():
    """At the worked (2,6) kinematics the 14-term noncrossing sum collapses
    to the 6-term reduced expansion."""
    rng = random.Random(12)
    for _ in range(5):
        a = [F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(3)]
        a.append(-sum(a))
        a1, a2, a3, a4 = a
        values = {
            (1, 3): a1 + 1, (1, 4): a1 + a2 + 2, (1, 5): a1 + a2 + a3 + 1,
            (2, 4): a2 + 1, (2, 5): a2 + a3 + 3, (2, 6): a2 + a3 + a4 + 2,
            (3, 5): a3 + 2, (3, 6): a3 + a4 + 1, (4, 6): a4 + 1,
        }
        if any(v == 0 for v in values.values()):
            continue
        lhs = nc_amplitude(2, 6, values)
        rhs = (1 / ((a1 + 1) * (a4 + 1) * (a3 + a4 + 1))
               + 1 / ((a2 + 1) * (a4 + 1) * (a3 + a4 + 1))
               + 1 / ((a1 + 1) * (a2 + 1) * (a4 + 1))
               + 1 / ((a1 + 1) * (a3 + a4 + 1) * (a1 + a2 + a3 + 1))
               + 1 / ((a2 + 1) * (a3 + a4 + 1) * (a1 + a2 + a3 + 1))
               + 1 / ((a1 + 1) * (a2 + 1) * (a1 + a2 + a3 + 1)))
        assert lhs == rhs
