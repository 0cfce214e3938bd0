"""Acceptance battery: one test per criterion, each printing a pass/fail
line.  Everything is exact arithmetic; a tolerance is always exact
equality.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  The two large enumerations of criterion 1 sit
behind the `slow` marker; criterion 4's f-vector attribution is recorded
as a strict expected failure (the reference f-vectors belong to the
tau-product Newton polytope, not to the PK polytope itself; both are
computed and checked here).
"""
import json
import random
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from grascat import combinat, kinematics, linalg, polynomial, polytope, roots
import claims


def report(tag, ok, detail=""):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {tag} failed: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_catalan_counts():
    table = {(2, 4): 2, (2, 5): 5, (2, 6): 14, (2, 7): 42, (2, 8): 132,
             (3, 6): 42, (3, 7): 462, (4, 7): 462}
    for (k, n), want in table.items():
        cols = combinat.enumerate_maximal_noncrossing(k, n)
        assert len(cols) == want == combinat.catalan_mdim(k, n - k), (k, n)
        assert all(len(c) == (k - 1) * (n - k - 1) for c in cols)
    report("1 (Catalan counts, desk scale)", True)


@pytest.mark.slow
@pytest.mark.parametrize("k,n,want", [(3, 8, 6006), (4, 8, 24024)])
def test_criterion_1_catalan_counts_slow(k, n, want):
    cols = combinat.enumerate_maximal_noncrossing(k, n)
    assert len(cols) == want == combinat.catalan_mdim(k, n - k)
    assert all(len(c) == (k - 1) * (n - k - 1) for c in cols)
    report(f"1-slow ({k},{n})", True)


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_unimodular_triangulation():
    for (k, n) in [(2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7)]:
        vol = polytope.triangulation_volume(k, n)  # asserts every det = +-1
        assert vol == combinat.catalan_mdim(k, n - k), (k, n)
    report("2 (unimodular triangulation, volume = Catalan)", True)


# -- 3 ----------------------------------------------------------------------

def _random_h_vector(rng, k, n, int_only):
    v = {}
    for i in range(1, k):
        row = [F(rng.randint(-9, 9)) if int_only
               else F(rng.randint(-60, 60), rng.randint(1, 11))
               for _ in range(n - k)]
        row[-1] -= sum(row)
        for j, c in enumerate(row, 1):
            if c:
                v[(i, j)] = c
    return v


def test_criterion_3_fan_completeness():
    for (k, n) in [(3, 6), (3, 7), (4, 8)]:
        rng = random.Random(100 * k + n)
        for t in range(1000):
            v = _random_h_vector(rng, k, n, int_only=(t % 3 == 0))
            res = roots.noncrossing_decompose(v, k, n)
            total = {}
            for J, c in res.items():
                assert c > 0
                total = claims.grid_add(total, roots.v_root(J, k, n), c)
            assert total == v, (k, n, t)
            supp = sorted(res)
            for A, B in combinations(supp, 2):
                assert claims.is_noncrossing(A, B, n)
            # determinism doubles as a uniqueness spot check
            assert roots.noncrossing_decompose(v, k, n) == res
    # the worked decompositions
    v = claims.f_combination({(1, 3): 3, (1, 4): 3, (1, 5): 2, (1, 6): 1, (2, 1): 2,
                              (2, 4): 1, (2, 5): 2, (2, 6): 2, (2, 7): 2}, 3, 10)
    assert roots.noncrossing_decompose(v, 3, 10) == {
        (1, 2, 4): 2, (3, 6, 10): 1, (3, 7, 8): 1, (3, 8, 9): 1, (4, 5, 10): 1}
    cmap = {(1, 3, 5, 7): 1, (2, 3, 5, 7): -1, (1, 4, 5, 7): -1, (1, 3, 6, 7): -1,
            (1, 3, 5, 8): -1, (3, 4, 5, 7): 1, (1, 2, 3, 5): 1, (1, 3, 7, 8): 1,
            (1, 4, 5, 8): 1, (1, 5, 6, 7): 1, (2, 3, 6, 7): 1}
    assert roots.noncrossing_decompose(roots.combo_vector(cmap, 4, 8), 4, 8) == {
        (1, 2, 3, 5): 1, (1, 5, 6, 7): 1, (3, 4, 7, 8): 1}
    tp = claims.tripod_vector((1, 3, 5), (2, 4, 6), 7)
    assert roots.noncrossing_decompose(roots.combo_vector(tp, 3, 7), 3, 7) == {
        (1, 4, 5): 1, (2, 3, 6): 1}
    tp = claims.tripod_vector((2, 4, 6), (3, 5, 1), 7)
    assert roots.noncrossing_decompose(roots.combo_vector(tp, 3, 7), 3, 7) == {
        (1, 2, 4): 1, (3, 5, 6): 1}
    report("3 (fan completeness, 1000 random vectors each + worked examples)", True)


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_pk_polytope_facets_and_vertices():
    from math import comb
    for (k, n) in [(3, 6), (3, 7), (2, 4), (2, 5), (2, 6), (2, 7)]:
        P = polytope.pk_polytope(k, n)  # internal Newton polytope certificate
        assert len(P.inequalities) == comb(n, k) - n
        d = P.dim
        for inc in P.incidence:
            verts = [P.vertices[i] for i in _bits(inc)]
            rank = linalg.rank([[a - b for a, b in zip(v, verts[0])]
                                for v in verts[1:]])
            assert rank == d - 1  # every inequality is facet-defining
    report("4 (PK polytope: facet counts, facet-defining, vertex set = "
           "Laurent Newton polytope)", True)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


@pytest.mark.xfail(strict=True, reason=(
    "recorded attribution defect: the reference f-vectors (1,42,84,56,14,1) and "
    "(1,462,1386,1596,882,238,28,1) belong to the Newton polytope of the "
    "tau product (see test_criterion_4_fvectors_tau_product); the PK "
    "polytope itself has f-vectors (1,27,60,47,14,1) and "
    "(1,128,456,661,483,178,28,1), consistent with its duality with the "
    "root polytope"))
def test_criterion_4_fvectors_as_stated():
    assert polytope.pk_polytope(3, 6).f_vector() == \
        [1, 42, 84, 56, 14, 1]
    assert polytope.pk_polytope(3, 7).f_vector() == \
        [1, 462, 1386, 1596, 882, 238, 28, 1]


def test_criterion_4_fvectors_tau_product():
    tf = polytope.tau_newton_facets(3, 6)
    assert tf["agrees"] and tf["polytope"].f_vector() == [1, 42, 84, 56, 14, 1]
    tf = polytope.tau_newton_facets(3, 7)
    assert tf["agrees"]
    assert tf["polytope"].f_vector() == [1, 462, 1386, 1596, 882, 238, 28, 1]
    # the PK polytope's own combinatorics, frozen and duality-checked
    P36 = polytope.pk_polytope(3, 6)
    assert P36.f_vector() == [1, 27, 60, 47, 14, 1]
    assert len(polytope.root_polytope(3, 6).inequalities) == 27
    P37 = polytope.pk_polytope(3, 7)
    assert P37.f_vector() == [1, 128, 456, 661, 483, 178, 28, 1]
    report("4 (reference f-vectors, realized by the tau-product Newton polytope)",
           True, "PK polytope itself has (1,27,...), (1,128,...): see ledger")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_newton_facet_constants():
    tf = polytope.tau_newton_facets(3, 6)
    want = {(1, 3, 5): 1, (2, 4, 6): 1, (1, 2, 5): 2, (2, 5, 6): 2,
            (1, 4, 5): 3, (2, 3, 6): 3, (1, 3, 6): 5, (1, 4, 6): 5,
            (1, 3, 4): 0, (2, 4, 5): 0, (3, 5, 6): 0, (1, 2, 4): 0,
            (2, 3, 5): 0, (3, 4, 6): 0}
    assert {J: int(c) for J, c in tf["constants"].items()} == want
    assert tf["lambda"] == [7, 7]
    assert tf["agrees"]
    report("5 (Newton facet constants for (3,6), row sums 7)", True)


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_binary_identities_symbolic():
    for (k, n) in [(3, 6), (3, 7), (3, 8), (4, 8)]:
        for J in combinat.nonfrozen_subsets(k, n):
            verdict = polynomial.binary_identity_check(J, k, n, "symbolic")
            assert verdict["pass"], (k, n, J)
    # the compatibility-degree exponents of the worked (4,8) identity
    for I in ((1, 2, 4, 7), (1, 2, 5, 7), (1, 3, 4, 7), (1, 3, 5, 7)):
        assert combinat.compatibility_degree(I, (2, 3, 6, 8), 8) == 2
    report("6a (binary identities, symbolic, all nonfrozen J)", True)


@pytest.mark.slow
def test_criterion_6_binary_identities_symbolic_7_14(capsys):
    # the worldsheet u-equations of W+_{7,14}: every binary identity at
    # (7,14) proved symbolically, through the CLI
    from grascat.cli import main
    assert main(["u-check", "--k", "7", "--n", "14"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is True and verdict["checked"] == 3418 and not verdict["failures"]
    report("6a-slow (binary identities, symbolic, all 3418 at (7,14))", True)


def test_criterion_6_binary_identities_random():
    for (k, n) in [(3, 9), (3, 10), (3, 11), (3, 12), (4, 9), (4, 10)]:
        verdict = polynomial.binary_identities_random_all(k, n, trials=20, seed=1)
        assert verdict["pass"], verdict
    report("6b (binary identities, 20 random exact trials up to (3,12), (4,10))", True)


def test_criterion_6_compatibility_spot_values():
    assert combinat.compatibility_degree((1, 3, 5), (2, 4, 6), 6) == 2
    assert combinat.compatibility_degree((2, 4, 6, 8), (1, 3, 5, 7), 8) == 3
    J = (2, 4, 6, 8, 12)
    cnt = sum(1 for I in combinations(range(1, 15), 5)
              if I != J and combinat.compatibility_degree(I, J, 14) > 0)
    assert cnt == 1293
    report("6c (compatibility spot values, 1293 at (5,14))", True)


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_prime_kinematics():
    rep = claims.prime_kinematics_reproduction()
    assert rep["minus_s356"] == 714
    assert rep["minus_s236"] == 1324
    assert rep["eta_hat_124"] == 7373
    assert rep["eta_hat_145"] == 11935
    assert rep["amplitude"] == kinematics.NC_AMPLITUDE_36_VALUE
    report("7 (prime kinematics: shifts 714/1324, hats 7373/11935, exact amplitude)",
           True)


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_pk_amplitude():
    for (k, n) in [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (4, 7)]:
        values = {J: F(1) for J in combinat.nonfrozen_subsets(k, n)}
        assert kinematics.nc_amplitude(k, n, values) == \
            combinat.catalan_mdim(k, n - k), (k, n)
        # and the PK point really has eta = 1 everywhere
        if (k, n) in [(2, 6), (3, 6), (4, 7)]:
            pk = claims.pk_point(k, n)
            etas = kinematics.kin_basis(k, n).eta_values(pk)
            assert all(v == 1 for v in etas.values())
    report("8 (PK amplitude equals the multidimensional Catalan number)", True)


@pytest.mark.slow
def test_criterion_8_pk_amplitude_slow(capsys):
    from grascat.cli import main
    want = combinat.catalan_mdim(3, 8)
    assert main(["nc", "count", "--k", "3", "--n", "11", "--max-cliques", str(want)]) == 0
    assert '"count": %d' % want in capsys.readouterr().out
    values = dict.fromkeys(combinat.nonfrozen_subsets(3, 11), 1)
    value = kinematics.nc_amplitude(3, 11, values, max_collections=want)
    assert value == want and type(value) is int
    report("8-slow (PK amplitude at (3,11))", True)


@pytest.mark.slow
def test_criterion_8_pk_amplitude_slow_4_10(capsys):
    from grascat.cli import main
    want = combinat.catalan_mdim(4, 6)
    assert want == 140229804
    assert main(["nc", "count", "--k", "4", "--n", "10", "--max-cliques", str(want)]) == 0
    assert '"count": %d' % want in capsys.readouterr().out
    assert main(["amplitude", "--k", "4", "--n", "10", "--pk", "--max-cliques", str(want)]) == 0
    assert '"value": "%d"' % want in capsys.readouterr().out
    # the same cached DAG read as the volume, once walls() certifies the fan
    assert main(["volume", "--k", "4", "--n", "10", "--max-cliques", str(want)]) == 0
    out = capsys.readouterr().out
    assert '"relative_volume": %d' % want in out and '"pass": true' in out
    report("8-slow (PK amplitude at (4,10))", True)


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_resolved_minors():
    p123, p456 = claims.plucker((1, 2, 3), 3, 6), claims.plucker((4, 5, 6), 3, 6)
    assert claims.resolved_minor((2, 3, 6), 6) == (
        claims.plucker((2, 3, 6), 3, 6)
        - polynomial.divide_exact(p123 * p456, claims.plucker((1, 4, 5), 3, 6)))
    assert claims.resolved_minor((3, 5, 6), 6) == (
        claims.plucker((3, 5, 6), 3, 6)
        - polynomial.divide_exact(p123 * p456, claims.plucker((1, 2, 4), 3, 6)))
    resolved7 = sorted(J for J in combinations(range(1, 8), 3)
                       if claims.resolved_minor(J, 7) != claims.plucker(J, 3, 7))
    assert resolved7 == [(2, 3, 6), (2, 3, 7), (2, 4, 7), (3, 4, 7),
                        (3, 5, 6), (3, 5, 7), (3, 6, 7), (4, 6, 7)]
    assert [claims.resolved_count_formula(n) for n in (6, 7, 8, 9)] == [2, 8, 19, 36]
    for n in (6, 7):
        lexcrit = sorted(J for J in combinations(range(1, n + 1), 3)
                         if claims.needs_resolution(J, n))
        symbolic = sorted(J for J in combinations(range(1, n + 1), 3)
                          if claims.resolved_minor(J, n) != claims.plucker(J, 3, n))
        assert lexcrit == symbolic
        assert len(lexcrit) == claims.resolved_count_formula(n)
    report("9 (resolved minors: relations, the (3,7) list, N_n, lex criterion)", True)


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_kinematic_shift():
    hats = kinematics.eta_hat_shift(8)
    shifted = {J for J in combinat.nonfrozen_subsets(3, 8)
               if not claims.functionals_equal_on_K(
                   hats[J], kinematics.eta_functional(J, 3, 8))}
    assert shifted == set(kinematics.ETA_HAT_38_TABLE) and len(shifted) == 19
    for J, coeffs in kinematics.ETA_HAT_38_TABLE.items():
        assert claims.functionals_equal_on_K(
            hats[J], claims.eta_combination(coeffs, 3, 8)), J
    report("10 (general (3,n) shift equals the explicit (3,8) table, 19 subsets)",
           True)


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_root_potential():
    r36 = claims.root_potential_check(3, 6)
    assert len(r36) == 6 and all(r36.values())
    r48 = claims.root_potential_check(4, 8)
    assert len(r48) == 12 and all(r48.values())
    report("11 (root-potential coordinate identities: 6 ratios at (3,6), "
           "12 at (4,8))", True)


# -- 12 ---------------------------------------------------------------------

def test_criterion_12_tripod_bijection():
    for n in range(6, 11):
        images = set()
        for a, b, c, d, e, f in combinations(range(1, n + 1), 6):
            # the two tripods of a 6-subset
            for U, Uprime in (((a, c, e), (b, d, f)), ((b, d, f), (c, e, a))):
                pair = claims.tripod_pair(U, Uprime, n)
                assert sorted(pair.values()) == [1, 1], (n, U, Uprime)
                images.add(tuple(sorted(pair)))
        expected = {(I, J) for I, J in combinations(combinations(range(1, n + 1), 3), 2)
                    if claims.is_noncrossing(I, J, n)
                    and not claims.is_weakly_separated(I, J, n)}
        assert len(images) == 2 * comb(n, 6) and images == expected, n
    report("12 (tripod bijection: 2 C(n,6) tripods onto the noncrossing pairs that "
           "are not weakly separated, n = 6..10)", True)
