"""Polyhedral engine: LP membership, double description, face lattices,
Newton polytopes, the PK polytope and associahedron."""
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grascat import linalg, polytope, roots
from grascat.combinat import ResourceLimitExceeded, enumerate_maximal_noncrossing, nonfrozen_subsets
from grascat.polynomial import Poly, pk_factors, tau
from grascat.polytope import (cone_rays, hull_of_points, in_convex_hull, newton, newton_points,
                              pk_associahedron, pk_polytope, polytope_from_inequalities,
                              root_polytope, root_polytope_contains, tau_newton_facets,
                              triangulation_volume, grid_point)
from grascat.roots import gamma_functional, v_root
from claims import (contains, is_noncrossing, lift_and_lower_hull, minimize_face,
                    minkowski_summand_count, omega_vertices, planar_face_polytope, value)
import unit_pivot
from unit_pivot import start_rows, unit_pivot_fold


def test_extreme_points():
    assert hull_of_points([(0,), (1,), (2,)]).vertices == [(0,), (2,)]
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]
    assert len(hull_of_points(pts).vertices) == 4
    tri = [(0, 0), (2, 0), (0, 2)]
    assert hull_of_points(tri).vertices == sorted(tri)


def test_hull_roundtrips():
    sq = hull_of_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(sq.inequalities) == 4 and sq.f_vector() == [1, 4, 4, 1]
    back = polytope_from_inequalities(sq.inequalities, sq.equalities, 2)
    assert sorted(back.vertices) == sorted(sq.vertices)
    # a polytope inside an affine subspace
    tri = hull_of_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert tri.dim == 2 and len(tri.equalities) == 1
    back = polytope_from_inequalities(tri.inequalities, tri.equalities, 3)
    assert sorted(back.vertices) == sorted(tri.vertices)
    # a single point is its own hull
    one = hull_of_points([(1, 2), (1, 2)])
    assert contains(one, (1, 2)) and not contains(one, (5, 7)) and one.f_vector() == [1, 1]
    # x >= 1 and x <= 0: no vertex, dimension -1
    none = polytope_from_inequalities([(-1, (1,)), (0, (-1,))], [], 1)
    assert none.vertices == [] and none.dim == -1 and none.f_vector() == [1]


def test_conversion_errors():
    with pytest.raises(ValueError, match="inconsistent equalities"):
        polytope_from_inequalities([(0, (1, 0))], [(-1, (1, 1)), (-3, (2, 2))], 2)
    with pytest.raises(ValueError, match="inconsistent equalities"):
        polytope_from_inequalities([(0, (1, 0))], [(-1, (1, 0)), (0, (0, 1)), (-1, (0, 1))], 2)
    # the quadrant x, y >= 0
    with pytest.raises(ValueError, match="unbounded polyhedron"):
        polytope_from_inequalities([(0, (1, 0)), (0, (0, 1))], [], 2)
    # the rows (1, 0, 0), (2, 0, 0), (0, 1, 0) leave a line in the cone
    with pytest.raises(ValueError, match="not full-dimensional"):
        cone_rays([(1, 0, 0), (2, 0, 0), (0, 1, 0)])


def test_cone_rays_cap(monkeypatch):
    square = [(x, y, 1) for x in (0, 1) for y in (0, 1)]
    assert len(cone_rays(square)) == 4
    monkeypatch.setattr(polytope, "MAX_RAYS", 1)
    with pytest.raises(ResourceLimitExceeded, match="exceeded 1 rays"):
        cone_rays(square)


@st.composite
def cone_rows(draw):
    """Int rows of full rank D, each flipped to be >= 0 at a point y0 so the
    cone is not just 0, with some repeated (up to a positive factor) and
    some redundant (a positive sum of two others)."""
    D = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(*[entry] * D), min_size=D, max_size=D + 4))
    y0 = draw(st.tuples(*[entry] * D))
    rows = [r if sum(a * y for a, y in zip(r, y0)) >= 0 else tuple(-a for a in r)
            for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.integers(1, 3))
        rows.append(tuple(c * a for a in r) if draw(st.booleans())
                    else tuple(a + b for a, b in zip(r, s)))
    rows = draw(st.permutations(rows))
    assume(linalg.rank(rows) == D)
    return rows


def _brute_force_rays(rows):
    """The primitive generators y != 0 of the cone tight on D - 1 independent
    rows."""
    D = len(rows[0])
    out = set()
    for sub in combinations(rows, D - 1):
        null = linalg.nullspace(list(sub))
        if len(null) == 1:
            for ray in (linalg._primitive(null[0]), linalg._primitive([-x for x in null[0]])):
                if all(sum(a * y for a, y in zip(r, ray)) >= 0 for r in rows):
                    out.add(ray)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cone_rows())
def test_cone_rays_are_distinct_primitive_extreme_rays(rows):
    rays = cone_rays(rows)
    assert len(set(rays)) == len(rays)
    D = len(rows[0])
    for ray in rays:
        assert all(type(x) is int for x in ray) and gcd(*ray) == 1
        vals = [sum(a * y for a, y in zip(r, ray)) for r in rows]
        assert min(vals) >= 0
        assert linalg.rank([r for r, v in zip(rows, vals) if v == 0]) == D - 1
    assert set(rays) == _brute_force_rays(rows)


def test_simplex_fvector():
    for d in (2, 3, 4):
        pts = [tuple(F(1) if i == j else F(0) for j in range(d + 1)) for i in range(d + 1)]
        P = hull_of_points(pts)
        from math import comb
        assert P.f_vector() == [1] + [comb(d + 1, i + 1) for i in range(d + 1)]


def test_newton_of_factors():
    Ps, Qs = pk_factors(3, 6)
    NP = newton(Ps[0])
    assert NP.dim == 2 and len(NP.vertices) == 3  # an (n-k-1)-simplex
    NQ = newton(Qs[0])
    assert NQ.dim == 2 and len(NQ.vertices) == 3  # a (k-1)-simplex
    pt = newton(Poly.monomial([(1, 1), (2, 2)], 3, 6))
    assert len(pt.vertices) == 1


def test_grid_point_rejects_keys_outside_the_grid():
    with pytest.raises(IndexError, match=re.escape("x_{5,9} outside the (3,6) grid")):
        grid_point({(5, 9): 1, (1, 1): 2}, 3, 6)


@pytest.mark.parametrize("k,n,facets", [
    (2, 4, 2), (2, 5, 5), (2, 6, 9), (2, 7, 14), (2, 8, 20), (3, 6, 14), (3, 7, 28),
    (4, 7, 28)])
def test_pk_polytope(k, n, facets):
    from math import comb
    P = pk_polytope(k, n)  # certified internally as the Laurent product's Newton polytope
    assert len(P.inequalities) == facets == comb(n, k) - n
    # every inequality is facet-defining
    d = P.dim
    import grascat.linalg as linalg
    for (c, coeffs), inc in zip(P.inequalities, P.incidence):
        verts = [P.vertices[i] for i in _bits(inc)]
        rank = linalg.rank([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]])
        assert rank == d - 1
    # containment in the cube [-1, 2]
    for v in P.vertices:
        assert all(-1 <= xi <= 2 for xi in v)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def test_pk_polytope_rejects_a_wrong_product(monkeypatch):
    # without Q_1 the product's row sums are -1, not 0, and its Newton
    # polytope is not the PK H-rep
    def without_q1(k, n):
        Ps, Qs = pk_factors(k, n)
        return Ps, Qs[1:]

    monkeypatch.setattr(polytope, "pk_factors", without_q1)
    with pytest.raises(AssertionError, match="PK H-rep"):
        pk_polytope(3, 6)


def test_newton_hrep_needs_constant_row_sums():
    # row sums (1, 0) and (2, 0) in the 2 x 3 grid of (3, 6)
    factor = [(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)]
    with pytest.raises(ValueError, match="unequal row sums"):
        polytope._newton_hrep([factor], 3, 6)


def test_newton_hrep_flags_a_sum_smaller_than_its_hrep():
    # a segment: the minima of the gamma_J bound a triangle around it, and
    # the triangle's third vertex is not in the sum
    segment = [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0)]
    _constants, lam, P, agrees = polytope._newton_hrep([segment], 3, 6)
    assert lam == [1, 1] and len(P.vertices) == 3 and not agrees


def test_pk_polytope_vertex_counts():
    # frozen facts of this implementation, dual to the root polytope
    assert len(pk_polytope(3, 6).vertices) == 27
    assert len(pk_polytope(2, 6).vertices) == 12


@pytest.mark.parametrize("k,n", [(3, 6), (2, 5), (2, 6), (2, 7)])
def test_pk_root_duality(k, n):
    P = pk_polytope(k, n)
    R = root_polytope(k, n)
    # facets of Pi <-> vertices of R and vice versa
    assert len(R.inequalities) == len(P.vertices)
    assert len(R.vertices) == len(nonfrozen_subsets(k, n))


def test_root_polytope_hat_variant():
    R = root_polytope(2, 5)
    Rhat = root_polytope(2, 5, hat=True)
    assert R.dim == 2 and Rhat.dim == 3
    assert tuple(F(0) for _ in range(3)) in Rhat.vertices


@pytest.mark.parametrize("k,n,vol", [(2, 5, 5), (2, 6, 14), (2, 7, 42),
                                     (3, 6, 42), (4, 7, 462), (3, 8, 6006),
                                     (4, 8, 24024), (3, 9, 87516), (3, 10, 1385670),
                                     (5, 9, 1662804)])
def test_triangulation_volume(k, n, vol):
    assert triangulation_volume(k, n, max_collections=2000000) == vol


# the per-leaf unit-pivot fold, kept as the oracle of the walls certificate

def _oracle_volume(k, n):
    """The root-polytope volume by the unit-pivot fold: the number of
    collections, each checked unimodular on the roots in the start basis."""
    fan = roots._fan(k, n)
    return unit_pivot_fold(fan, start_rows(fan), lambda R, echelon: None)


def _oracle_pk_vertices(k, n):
    """The PK polytope's vertices by the unit-pivot fold, in start-cone
    coordinates z.  With row sums 0, gamma_J = -1 reads rows[J] . z = -1,
    carried as an entry after each row; a leaf's rows are triangular with
    +-1 pivots, and back-substitution gives the integer z of x_C."""
    fan = roots._fan(k, n)
    d, found = fan.dim, set()

    def leaf(R, echelon):
        z = [0] * d
        for row, col in reversed(echelon):  # z is 0 at the columns not yet solved
            z[col] = row[col] * (row[d] - sum(map(mul, row, z)))
        found.add(tuple(z))

    unit_pivot_fold(fan, [row + (-1,) for row in start_rows(fan)], leaf)
    return found


@pytest.mark.parametrize("k,n", [(3, 9), (4, 8)])
def test_triangulation_volume_matches_the_unit_pivot_fold(k, n):
    assert _oracle_volume(k, n) == triangulation_volume(k, n)
    assert len(_oracle_pk_vertices(k, n)) == len(pk_polytope(k, n).vertices)


@pytest.mark.slow
@pytest.mark.parametrize("k,n,vol", [(3, 10, 1385670), (5, 9, 1662804)])
def test_triangulation_volume_slow(k, n, vol):
    assert _oracle_volume(k, n) == triangulation_volume(k, n, max_collections=2000000) == vol


def _patch_root(monkeypatch, J, new_row):
    """Give J the row new_row(row of each subset) in the start rows of the
    cached (3,6) fan."""
    fan = roots._fan(3, 6)
    row = dict(zip(fan.verts, start_rows(fan)))
    monkeypatch.setitem(unit_pivot._ROWS, fan,
                        [new_row(row) if I == J else row[I] for I in fan.verts])


# the unit-pivot fold checks every collection, with or without entries
# riding along after the rows
FOLD_CALLERS = pytest.mark.parametrize("build", [_oracle_volume, _oracle_pk_vertices],
                                       ids=["triangulation_volume", "pk_polytope"])


@FOLD_CALLERS
def test_unit_pivot_fold_names_a_non_unimodular_collection(monkeypatch, build):
    # doubling v_J makes every simplex holding J of volume 2
    _patch_root(monkeypatch, (1, 3, 5), lambda row: tuple(2 * c for c in row[(1, 3, 5)]))
    with pytest.raises(AssertionError, match=r"non-unimodular partial collection "
                       r".*\(1, 3, 5\).*: every completion has \|det\| divisible by 2"):
        build(3, 6)


@FOLD_CALLERS
def test_unit_pivot_fold_names_a_row_without_a_unit_pivot(monkeypatch, build):
    # row (2, 3, 0, 0): coprime entries, none of them +-1
    _patch_root(monkeypatch, (1, 3, 5), lambda row: (2, 3, 0, 0))
    with pytest.raises(AssertionError,
                       match=r"no unit pivot for the partial collection .*\(1, 3, 5\)"):
        build(3, 6)


@FOLD_CALLERS
def test_unit_pivot_fold_names_a_singular_collection(monkeypatch, build):
    # v_{135} = v_{145}: a collection holding both reduces one row to 0
    _patch_root(monkeypatch, (1, 3, 5), lambda row: row[(1, 4, 5)])
    with pytest.raises(AssertionError, match=r"non-unimodular collection "
                       r".*\(1, 3, 5\), \(1, 4, 5\).*: \|det\| 0"):
        build(3, 6)


@pytest.mark.parametrize("build", [triangulation_volume, pk_polytope], ids=lambda f: f.__name__)
def test_a_pair_crossing_twice_with_a_wall_raises_naming_it(monkeypatch, build):
    # join X = (2, 4, 6), which crosses r = (1, 3, 5) twice, to a cone W + r
    # of a fresh (3,7) fan: W, d - 1 pairwise adjacent vertices, enters
    # L = N(r) & N(X).  No single planted edge gives a pair crossing twice
    # such an L at (3,7): their L has at most 4 members and no triangle.
    fan = roots._Fan(3, 7)
    r, X = fan.index[(1, 3, 5)], fan.index[(2, 4, 6)]
    cone = next(C for C in enumerate_maximal_noncrossing(3, 7) if (1, 3, 5) in C)
    fan.adj = adj = list(fan.adj)
    for w in (fan.index[J] for J in cone):
        if w != r and not adj[X] >> w & 1:
            adj[X] |= 1 << w
            adj[w] |= 1 << X
    monkeypatch.setattr(polytope, "_fan", lambda k, n: fan)
    with pytest.raises(AssertionError, match=re.escape(
            "(1, 3, 5) and (2, 4, 6) cross 2 times, and 5 of their common neighbours are "
            "pairwise noncrossing")):
        build(3, 7)


ROOT_POINTS = {(k, n): [grid_point(v_root(J, k, n), k, n) for J in nonfrozen_subsets(k, n)]
               + [grid_point({}, k, n)] for (k, n) in [(3, 6), (4, 7), (2, 7)]}
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def root_hull_queries(draw):
    """A rational point near the hull of all root points at (3,6), (4,7) or
    (2,7), or of a few of them (a lower-dimensional set)."""
    pts = ROOT_POINTS[draw(st.sampled_from(sorted(ROOT_POINTS)))]
    if draw(st.booleans()):
        pts = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                            min_size=len(pts), max_size=len(pts)))
    scale = draw(st.fractions(min_value=0, max_value=2, max_denominator=5)) / (sum(weights) or 1)
    p = [scale * sum(w * q[t] for w, q in zip(weights, pts)) for t in range(len(pts[0]))]
    if draw(st.booleans()):
        p[draw(st.integers(0, len(p) - 1))] += draw(small)
    return tuple(p), pts


@st.composite
def rational_hull_queries(draw):
    """Rational points spanning at most d dimensions of R^m, and a point of
    their linear span or of R^m."""
    d, extra = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    A = [[draw(small) for _ in range(d)] for _ in range(d + extra)]
    image = lambda x: tuple(sum(a * y for a, y in zip(row, x)) for row in A)
    pts = [image(x) for x in draw(st.lists(st.tuples(*[small] * d), min_size=1, max_size=6))]
    if draw(st.booleans()):
        return image(draw(st.tuples(*[small] * d))), pts
    return draw(st.tuples(*[small] * (d + extra))), pts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(root_hull_queries(), rational_hull_queries()))
def test_in_convex_hull_matches_double_description(query):
    p, pts = query
    assert in_convex_hull(p, pts) == contains(hull_of_points(pts), p)
    assert not in_convex_hull(p, [])


# degenerate inputs of the LP, each checked against the double description
TRIANGLE = [(0, 0), (1, 0), (0, 1)]
LINE_IN_R3 = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (-1, -1, -1)]  # rank 1: two redundant rows
PLANE_IN_R4 = [(1, 0, 1, 2), (0, 1, 1, 1), (1, 1, 2, 3), (0, 0, 0, 0)]  # rank 2
DEGENERATE_LP = {
    "duplicated points": (TRIANGLE + TRIANGLE, [(F(1, 3), F(1, 3)), (1, 1), (0, F(1, 2))]),
    "origin twice": ([(0, 0), (2, 0), (0, 0), (0, 2)], [(0, 0), (1, 1), (1, F(3, 2))]),
    "p a vertex": (TRIANGLE, TRIANGLE),
    "subspace, inside": (LINE_IN_R3, [(F(3, 2),) * 3, (2, 2, 2), (-1, -1, -1), (0, 0, 0)]),
    "subspace, past an end": (LINE_IN_R3, [(3, 3, 3), (F(-5, 4),) * 3]),
    "subspace, off it": (LINE_IN_R3, [(1, 1, 0), (0, 0, F(1, 7))]),
    "plane, mixed": (PLANE_IN_R4, [(1, 1, 2, 3), (F(1, 2), F(1, 3), F(5, 6), F(4, 3)),
                                   (F(1, 2), F(1, 2), 1, 2), (1, 1, 2, F(5, 2))]),
    "mixed denominators": ([(F(1, 2), 0), (0, F(2, 3)), (F(-3, 4), F(-1, 5))],
                           [(0, 0), (F(1, 6), F(1, 5)), (F(1, 2), F(1, 7)), (F(-3, 4), F(-1, 5)),
                            (F(-3, 4), F(-1, 6))]),
}


@pytest.mark.parametrize("name", DEGENERATE_LP)
def test_in_convex_hull_degenerate_inputs(name):
    pts, queries = DEGENERATE_LP[name]
    hull = hull_of_points(pts)
    answers = [in_convex_hull(p, pts) for p in queries]
    assert answers == [contains(hull, p) for p in queries]
    assert any(answers) or name in ("subspace, past an end", "subspace, off it")


def test_in_convex_hull_zero_dimensional_and_lengths():
    assert in_convex_hull((), [()]) and in_convex_hull((), [(), ()])
    for p, pts in [((0, 0), [(0, 0), (1,)]), ((0,), [(0, 0), (1, 0)]), ((), [(0,)])]:
        with pytest.raises(ValueError, match="^points of unequal lengths$"):
            in_convex_hull(p, pts)


@lru_cache(maxsize=None)
def root_hull(k, n):
    """The nonfrozen J, and the dense points v_J and 0 of R^(k)_{n-k}."""
    Js = nonfrozen_subsets(k, n)
    return Js, [grid_point(v_root(J, k, n), k, n) for J in Js] + [grid_point({}, k, n)]


@st.composite
def root_polytope_queries(draw, shapes):
    """(x, k, n, expected): x a grid point of one of the shapes.  Either
    x = sum t_J v_J over a noncrossing set with positive t_J summing to s,
    so x is in R iff s <= 1 and on its boundary iff s = 1 (expected is
    s <= 1); or a scaled mix of any root points (expected None); either
    one, maybe, moved off the row-sum-zero space (expected False)."""
    k, n = draw(st.sampled_from(shapes))
    Js, pts = root_hull(k, n)
    picks = draw(st.lists(st.integers(0, len(Js) - 1), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6),
                            min_size=len(picks), max_size=len(picks)))
    total = draw(st.sampled_from([F(1, 3), F(5, 6), F(1), F(1), F(7, 6), F(2)]))
    if draw(st.booleans()):
        chosen = []
        for i in picks:
            if all(is_noncrossing(Js[i], Js[j], n) for j in chosen):
                chosen.append(i)
        weights, expected = weights[:len(chosen)], total <= 1
    else:
        chosen, expected = picks, None
    scale = total / sum(weights)
    x = [scale * sum(w * pts[i][t] for w, i in zip(weights, chosen)) for t in range(len(pts[0]))]
    if draw(st.integers(0, 4)) == 0:
        x[draw(st.integers(0, len(x) - 1))] += draw(st.sampled_from([F(-1, 3), F(1, 5), 1]))
        expected = False
    return tuple(x), k, n, expected


def _check_root_polytope_contains(query):
    x, k, n, expected = query
    answer = root_polytope_contains(x, k, n)
    assert answer == in_convex_hull(x, root_hull(k, n)[1])
    assert expected is None or answer == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(root_polytope_queries([(3, 6), (3, 7), (4, 7), (3, 8)]))
def test_root_polytope_contains_matches_the_lp(query):
    _check_root_polytope_contains(query)


@pytest.mark.slow
@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_polytope_queries([(4, 8), (3, 9)]))
def test_root_polytope_contains_matches_the_lp_slow(query):
    _check_root_polytope_contains(query)


def test_root_polytope_contains_vertices_and_origin():
    for k, n in [(2, 5), (3, 6), (4, 8)]:
        _Js, pts = root_hull(k, n)
        assert all(root_polytope_contains(v, k, n) for v in pts)
        assert not root_polytope_contains(tuple(2 * x for x in pts[0]), k, n)


def test_omega_vertices():
    assert len(omega_vertices(3, 1)) == 1
    assert len(omega_vertices(2, 4)) == 4  # the standard simplex
    # brute force count over 0/1 grids for (3, 2)
    assert len(omega_vertices(3, 2)) == 3
    # the projection e_{i,j} -> e_j is injective on vertices
    for (k, m) in [(3, 3), (4, 2)]:
        verts = omega_vertices(k, m)
        proj = {tuple(sum(v[i * m + j] for i in range(k - 1)) for j in range(m))
                for v in verts}
        assert len(proj) == len(verts)


def test_planar_faces():
    P = planar_face_polytope(1, (1, 2), 3, 6)
    assert len(P.vertices) == 2
    P = planar_face_polytope(1, (1, 2, 3), 3, 6)
    assert len(P.vertices) == 3
    P = planar_face_polytope(2, (1, 2, 4), 4, 8)
    assert len(P.vertices) == 5
    with pytest.raises(ValueError):
        planar_face_polytope(2, (1, 2, 3), 3, 6)


def test_pk_associahedron_36():
    KA, count = pk_associahedron(3, 6)
    assert count == 10 == minkowski_summand_count(3, 6)
    assert KA.f_vector() == [1, 42, 84, 56, 14, 1]


def test_pk_associahedron_37():
    KA, count = pk_associahedron(3, 7)
    assert count == 22 == minkowski_summand_count(3, 7)
    assert KA.f_vector() == [1, 462, 1386, 1596, 882, 238, 28, 1]
    assert len(KA.inequalities) == 28


def test_pk_associahedron_needs_the_certificate(monkeypatch):
    monkeypatch.setattr(polytope, "_in_minkowski_sum", lambda *args: False)
    with pytest.raises(AssertionError):
        pk_associahedron(2, 5)


def test_pk_associahedron_is_loday_for_k2():
    KA, count = pk_associahedron(2, 6)
    from math import comb
    assert count == comb(4, 2)
    # 3-dimensional associahedron: 14 vertices, 21 edges, 9 facets
    assert KA.f_vector() == [1, 14, 21, 9, 1]


def test_summand_count_formula():
    from math import comb
    from grascat.polynomial import planar_face_range
    for n in range(4, 11):
        for k in range(2, n - 1):
            assert len(planar_face_range(k, n)) == comb(n, k) - k * (n - k) - 1


def test_tau_newton_facets_36():
    tf = tau_newton_facets(3, 6)
    want = {(1, 3, 5): 1, (2, 4, 6): 1, (1, 2, 5): 2, (2, 5, 6): 2,
            (1, 4, 5): 3, (2, 3, 6): 3, (1, 3, 6): 5, (1, 4, 6): 5,
            (1, 3, 4): 0, (2, 4, 5): 0, (3, 5, 6): 0, (1, 2, 4): 0,
            (2, 3, 5): 0, (3, 4, 6): 0}
    assert {J: int(c) for J, c in tf["constants"].items()} == want
    assert tf["lambda"] == [7, 7]
    assert tf["agrees"]
    assert len(tf["polytope"].inequalities) == 14
    assert tf["polytope"].f_vector() == [1, 42, 84, 56, 14, 1]


@pytest.mark.slow
def test_tau_newton_facets_48():
    tf = tau_newton_facets(4, 8)
    assert tf["agrees"] and len(tf["polytope"].inequalities) == 62
    assert tf["polytope"].f_vector() == [1, 24024, 108108, 204204, 210210, 128106, 46992,
                                         10086, 1170, 62, 1]


# the fan route of _newton_hrep against the double description

def _newton_hrep_calls(monkeypatch):
    """Record (factors, k, n, result) of every _newton_hrep call."""
    calls = []
    real = polytope._newton_hrep

    def spy(factors, k, n):
        out = real(factors, k, n)
        calls.append((factors, k, n, out))
        return out

    monkeypatch.setattr(polytope, "_newton_hrep", spy)
    return calls


def _dot(a, x):
    return sum(p * q for p, q in zip(a, x))


def _double_description_hrep(factors, k, n):
    """(constants, lam, P, f-vector, agrees) by the double description, the
    face-lattice walk and the per-vertex certificate with phi the sum of
    the facet normals tight at the vertex."""
    lam = [sum(col) for col in zip(*(roots.row_sums(pts[0], k, n) for pts in factors))]
    gammas = {J: gamma_functional(J, k, n) for J in nonfrozen_subsets(k, n)}
    constants = {J: sum(min(_dot(g, p) for p in pts) for pts in factors)
                 for J, g in gammas.items()}
    P = polytope_from_inequalities([(-constants[J], g) for J, g in gammas.items()],
                                   polytope.row_sum_equalities(k, n, lam), (k - 1) * (n - k))
    agrees = True
    for i, v in enumerate(P.vertices):
        tight = [g for g, inc in zip(gammas.values(), P.incidence) if inc >> i & 1]
        phi = [sum(col) for col in zip(*tight)]
        agrees &= sum(min(_dot(phi, q) for q in pts) for pts in factors) == _dot(phi, v)
    return constants, lam, P, polytope.face_lattice_f_vector(P), agrees


BUILDS = {"pk": pk_polytope, "tau": tau_newton_facets, "assoc": pk_associahedron}


@pytest.mark.parametrize("build,k,n", [
    ("pk", 2, 5), ("pk", 2, 6), ("pk", 3, 6), ("pk", 3, 7), ("pk", 4, 7),
    ("tau", 3, 6), ("tau", 3, 7), ("assoc", 2, 6), ("assoc", 3, 6)])
def test_fan_route_matches_the_double_description(monkeypatch, build, k, n):
    calls = _newton_hrep_calls(monkeypatch)
    BUILDS[build](k, n)
    (factors, _k, _n, (constants, lam, P, agrees)), = calls
    assert type(P) is polytope._FanPolytope
    ref_constants, ref_lam, Q, ref_fv, ref_agrees = _double_description_hrep(factors, k, n)
    assert (constants, lam, agrees) == (ref_constants, ref_lam, ref_agrees) and agrees
    assert P.vertices == Q.vertices
    assert P.inequalities == Q.inequalities and P.equalities == Q.equalities
    assert P.incidence == Q.incidence and P.ambient == Q.ambient
    assert P.f_vector() == ref_fv


def test_fan_route_runs_no_double_description(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the double description or the face lattice ran")

    monkeypatch.setattr(polytope, "cone_rays", unreachable)
    monkeypatch.setattr(polytope, "face_lattice_f_vector", unreachable)
    P = pk_polytope(3, 7)
    assert P.f_vector() == [1, 128, 456, 661, 483, 178, 28, 1] and not P._simple
    tf = tau_newton_facets(3, 6)
    assert tf["agrees"] and tf["polytope"].f_vector() == [1, 42, 84, 56, 14, 1]
    KA, _count = pk_associahedron(3, 6)
    assert KA.f_vector() == [1, 42, 84, 56, 14, 1]
    # simple: the f-vector is counted off the noncrossing cliques
    assert tf["polytope"]._simple and KA._simple


def test_fan_route_falls_back_past_max_collections(monkeypatch):
    fan_P = pk_polytope(3, 7)
    rays = []
    real = polytope.cone_rays
    monkeypatch.setattr(polytope, "cone_rays", lambda rows: rays.append(1) or real(rows))
    monkeypatch.setattr(polytope, "MAX_COLLECTIONS", 461)  # (3,7) has 462
    P = pk_polytope(3, 7)
    assert rays and type(P) is polytope.PolytopeRep
    assert P.vertices == fan_P.vertices and P.incidence == fan_P.incidence
    assert P.inequalities == fan_P.inequalities and P.equalities == fan_P.equalities
    assert P.f_vector() == fan_P.f_vector()


@pytest.mark.parametrize("segment", [
    # the triangle of test_newton_hrep_flags_a_sum_smaller_than_its_hrep: a
    # polytope of lower dimension whose x_C are all feasible, but not all
    # in the sum
    [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0)],
    # some x_C is infeasible
    [(1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 1)]])
def test_newton_hrep_of_a_segment(segment):
    # some x_C fails its certificate, and P comes from the double description
    constants, lam, P, agrees = polytope._newton_hrep([segment], 3, 6)
    ref_constants, ref_lam, Q, ref_fv, ref_agrees = _double_description_hrep([segment], 3, 6)
    assert type(P) is polytope.PolytopeRep
    assert (constants, lam, agrees) == (ref_constants, ref_lam, ref_agrees) and not agrees
    assert (P.vertices, P.incidence) == (Q.vertices, Q.incidence)
    assert P.f_vector() == ref_fv


def _certify_spy(monkeypatch, fail_at=None):
    """Wrap the certificate `_in_minkowski_sum` within every _fan_polytope
    call; record the key of each call, and fail the call numbered fail_at
    (from 0)."""
    calls = []
    real, certify = polytope._fan_polytope, polytope._in_minkowski_sum

    def wrapped(key, factor_bits):
        calls.append(key)
        return len(calls) - 1 != fail_at and certify(key, factor_bits)

    def spy(*args):
        with monkeypatch.context() as patch:
            patch.setattr(polytope, "_in_minkowski_sum", wrapped)
            return real(*args)

    monkeypatch.setattr(polytope, "_fan_polytope", spy)
    return calls


@pytest.mark.parametrize("build,k,n", [("pk", 3, 6), ("tau", 3, 6), ("assoc", 3, 6)])
def test_a_failed_certificate_falls_back_to_the_double_description(monkeypatch, build, k, n):
    calls = _newton_hrep_calls(monkeypatch)
    certified = _certify_spy(monkeypatch, fail_at=2)
    BUILDS[build](k, n)
    (factors, _k, _n, (constants, lam, P, agrees)), = calls
    assert len(certified) == 3 and type(P) is polytope.PolytopeRep
    ref_constants, ref_lam, Q, ref_fv, ref_agrees = _double_description_hrep(factors, k, n)
    assert (constants, lam, agrees) == (ref_constants, ref_lam, ref_agrees) and agrees
    assert (P.vertices, P.incidence) == (Q.vertices, Q.incidence)
    assert (P.inequalities, P.equalities) == (Q.inequalities, Q.equalities)
    assert P.f_vector() == ref_fv


def _check_against_the_slacks(P, d):
    """The slack oracle: every vertex of P satisfies its rows, the incidence
    masks are the zero sets of the slacks, and P._simple holds iff every
    vertex lies on exactly d facets."""
    zeros = [0] * len(P.inequalities)
    on = []
    for i, v in enumerate(P.vertices):
        assert all(b + _dot(e, v) == 0 for b, e in P.equalities)
        slack = [c + _dot(a, v) for c, a in P.inequalities]
        assert min(slack) >= 0
        for j, t in enumerate(slack):
            if not t:
                zeros[j] |= 1 << i
        on.append(slack.count(0))
    assert P.incidence == zeros
    assert P._simple == all(t == d for t in on)


@pytest.mark.parametrize("k,n", [
    (2, 6), (3, 6), (3, 7), (4, 7), (3, 8),
    pytest.param(4, 8, marks=pytest.mark.slow), pytest.param(3, 9, marks=pytest.mark.slow)])
@pytest.mark.parametrize("build", ["pk", "tau", "assoc"])
def test_fan_polytope_against_the_slacks(monkeypatch, build, k, n):
    calls = _newton_hrep_calls(monkeypatch)
    certified = _certify_spy(monkeypatch)
    BUILDS[build](k, n)
    (_factors, _k, _n, (_constants, _lam, P, agrees)), = calls
    assert type(P) is polytope._FanPolytope and agrees
    # one certificate per vertex, on its own key
    assert len(certified) == len(set(certified)) == len(P.vertices)
    _check_against_the_slacks(P, (k - 1) * (n - k - 1))


def _seeded_newton_polytopes():
    rng = random.Random(11)
    for k, n in [(3, 6), (3, 7), (4, 7), (4, 8)]:
        subsets = list(combinations(range(1, n + 1), k))
        p = Poly.one(k, n)
        for J in rng.sample(subsets, 3):
            p = p * tau(J, k, n)
        yield newton(p)


def _assorted_hulls():
    """Hulls of full and of lower dimension, some with points inside."""
    rng = random.Random(3)
    hulls = [hull_of_points([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]),
             hull_of_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
             hull_of_points([(1, 1, 2, 1), (0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1),
                             (2, 2, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1)])]
    return hulls + [hull_of_points(_random_hull_points(rng, d, d + extra))
                    for d in (2, 3, 4) for extra in (0, 1)]


def test_passed_incidence_is_the_dot_product_one():
    # the fan route's masks are checked in test_fan_route_matches_the_double_description
    for P in _assorted_hulls() + list(_seeded_newton_polytopes()):
        dot = polytope.PolytopeRep(P.vertices, P.inequalities, P.equalities, P.ambient)
        assert P.incidence == dot.incidence


# name: the polytopes; they are built with polytope.MAX_COLLECTIONS at 0,
# which sends the PK polytope through the double description
F_VECTOR_CASES = {
    "point": lambda: [hull_of_points([(1, 2)])],
    "segment": lambda: [hull_of_points([(0, 0, 1), (2, 1, 1)])],
    "empty": lambda: [polytope_from_inequalities([(-1, (1,)), (0, (-1,))], [], 1)],
    "assorted hulls": _assorted_hulls,
    "seeded newton": lambda: list(_seeded_newton_polytopes()),
}
for _k, _n in [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7)]:
    for _hat in (False, True):
        F_VECTOR_CASES[f"root_polytope({_k}, {_n}, hat={_hat})"] = (
            lambda k=_k, n=_n, hat=_hat: [root_polytope(k, n, hat)])
for _k, _n in [(3, 6), (3, 7), (4, 8)]:
    F_VECTOR_CASES[f"pk_polytope({_k}, {_n})"] = lambda k=_k, n=_n: [pk_polytope(k, n)]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=[pytest.mark.slow] if "(4, 8)" in name else [])
    for name in F_VECTOR_CASES])
def test_f_vector_matches_the_level_walk(monkeypatch, name):
    monkeypatch.setattr(polytope, "MAX_COLLECTIONS", 0)
    for P in F_VECTOR_CASES[name]():
        assert type(P) is polytope.PolytopeRep
        assert polytope.face_lattice_f_vector(P) == unit_pivot._reference_f_vector(P)


def test_minimize_face_Q_rule():
    # min of gamma_J over Newt(Q_t) is 1 exactly when j_1 <= t < t+k+1 <= j_k
    for (k, n) in [(3, 6), (3, 7), (4, 8)]:
        Ps, Qs = pk_factors(k, n)
        for t, Q in enumerate(Qs, start=1):
            pts = newton_points(Q)
            for J in nonfrozen_subsets(k, n):
                m, _face = minimize_face(pts, gamma_functional(J, k, n))
                expect = 1 if (J[0] <= t and t + k + 1 <= J[-1]) else 0
                assert m == expect, (k, n, t, J)


def test_minimize_face_tau_2368():
    # gamma_1458 is identically 2 on Newt(tau_2368) in the (4,8) grid
    pts = newton_points(tau((2, 3, 6, 8), 4, 8))
    g = gamma_functional((1, 4, 5, 8), 4, 8)
    vals = {sum(a * x for a, x in zip(g, p)) for p in pts}
    assert vals == {2}


def test_minimize_face_associahedron_26():
    # the K^(2)_4 facet minimizing gamma_36 is Newt(x12^2 (x11+x12)^3 (x13+x14))
    KA, _ = pk_associahedron(2, 6)
    g = gamma_functional((3, 6), 2, 6)
    m, face = minimize_face(KA.vertices, g)
    xx = lambda i, j: Poly.var(i, j, 2, 6)
    target = (xx(1, 2) ** 2) * ((xx(1, 1) + xx(1, 2)) ** 3) * (xx(1, 3) + xx(1, 4))
    tgt_pts = newton_points(target)
    tgt_extreme = set(hull_of_points(tgt_pts).vertices)
    # the minimized face agrees with the product's Newton polytope up to a
    # translation by the difference of minima
    shift = tuple(a - b for a, b in zip(sorted(face)[0], sorted(tgt_extreme)[0]))
    assert {tuple(a - s for a, s in zip(v, shift)) for v in face} == tgt_extreme
    # the minimized face is the Minkowski sum of the per-summand minimized
    # faces, and the per-summand minima add up to its minimum
    from grascat.polynomial import delta, planar_face_range
    total = 0
    summand_faces = []
    for (i, J) in planar_face_range(2, 6):
        mi, fi = minimize_face(newton_points(delta(i, J, 2, 6)), g)
        total += mi
        summand_faces.append(fi)
    assert total == m
    sums = {(0,) * len(g)}
    for fi in summand_faces:
        sums = {tuple(a + b for a, b in zip(u, w)) for u in sums for w in fi}
    assert hull_of_points(sums).vertices == sorted(face)


def test_lift_and_lower_hull():
    rng = random.Random(5)
    pts = [grid_point(v_root(J, 2, 5), 2, 5) for J in nonfrozen_subsets(2, 5)]
    pts = [tuple(F(0) for _ in pts[0])] + pts
    assert lift_and_lower_hull(pts, [0] * len(pts)) == [tuple(range(len(pts)))]
    heights = [0] + [F(rng.randint(1, 100), rng.randint(1, 9)) for _ in pts[1:]]
    cells = lift_and_lower_hull(pts, heights)
    assert len(cells) == 5  # a triangulation: cell count equals the volume


def _lift_and_lower_hull_reduced(vertices, heights):
    """The former body of `lift_and_lower_hull`, the oracle below: lift in
    the coordinates of the base's affine hull, so a lifted hull with any
    equality means affine heights."""
    base = [tuple(linalg._exact(x) for x in v) for v in vertices]
    origin, basis = polytope._affine_basis(sorted(set(base)))
    red = polytope._reduce_points(base, origin, basis)
    d = len(basis)
    lifted = [p + (linalg._exact(h),) for p, h in zip(red, heights)]
    hull = hull_of_points(lifted)
    if hull.equalities:
        return [tuple(range(len(vertices)))]
    cells = []
    for (c, a) in hull.inequalities:
        if a[d] <= 0:
            continue
        members = [i for i, v in enumerate(lifted)
                   if c + sum(x * y for x, y in zip(a, v)) == 0]
        cells.append(tuple(sorted(members)))
    return sorted(cells)


def _lift_case(rng):
    """Seeded points in R^m spanning an affine subspace of dimension up to
    m, some repeated, with random, affine or constant heights."""
    m = rng.randint(1, 4)
    dim = rng.randint(0, min(m, 3))
    origin = [rng.randint(-3, 3) for _ in range(m)]
    dirs = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(dim)]
    pts = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [F(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in dirs]
        pts.append(tuple(o + sum(c * u[t] for c, u in zip(coeffs, dirs))
                         for t, o in enumerate(origin)))
    pts += rng.sample(pts, rng.randint(0, len(pts) // 2))
    kind = rng.randrange(4)
    if kind == 0:
        grad = [rng.randint(-3, 3) for _ in range(m)]
        heights = [F(rng.randint(-5, 5), 2) + sum(map(mul, grad, p)) for p in pts]
    elif kind == 1:
        heights = [7] * len(pts)
    else:
        heights = [F(rng.randint(0, 12), rng.randint(1, 3)) for _ in pts]
    return pts, heights


def test_lift_and_lower_hull_matches_the_reduced_lift():
    rng = random.Random(2024)
    nontrivial = 0
    for _ in range(400):
        pts, heights = _lift_case(rng)
        cells = lift_and_lower_hull(pts, heights)
        assert cells == _lift_and_lower_hull_reduced(pts, heights), (pts, heights)
        nontrivial += cells != [tuple(range(len(pts)))]
    assert 100 < nontrivial < 300


def test_octahedron_fold():
    # Delta_{2,4}(1,3,4,5,6) in the (3,6) root space folds across the square
    # holding v_{136}, v_{145} when lifted by eta at an interior point
    from grascat.kinematics import eta_functional, interior_kd_point
    from claims import grid_add
    point = interior_kd_point(3, 6, seed=9)
    names = [(1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6)]
    base = [grid_point(v_root(J, 3, 6), 3, 6) for J in names]
    apex_vec = grid_add(v_root((1, 3, 5), 3, 6), v_root((1, 4, 6), 3, 6))
    verts = [tuple(F(0) for _ in base[0])] + base + [grid_point(apex_vec, 3, 6)]
    hts = [F(0)] + [value(eta_functional(J, 3, 6), point) for J in names]
    hts.append(value(eta_functional((1, 3, 6), 3, 6), point)
               + value(eta_functional((1, 4, 5), 3, 6), point))
    cells = lift_and_lower_hull(verts, hts)
    assert len(cells) == 2
    shared = set(cells[0]) & set(cells[1])
    # the internal square: origin, v_{136}, v_{145}, apex
    assert shared == {0, 2, 3, 5}


def _reference_f_vector(P):
    """The f-vector as it was computed before the graded walk: close the
    facet masks under intersection, then take one rank per face."""
    import grascat.linalg as linalg
    full = (1 << len(P.vertices)) - 1
    faces, frontier = {full}, {full}
    while frontier:
        frontier = {f & inc for f in frontier for inc in P.incidence} - faces - {0}
        faces |= frontier
    fv = [0] * (P.dim + 1)
    for f in faces:
        pts = [P.vertices[i] for i in _bits(f)]
        fv[linalg.rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])] += 1
    return [1] + fv


def _random_hull_points(rng, d, m):
    """Seeded rational points spanning a d-dimensional affine subspace of
    R^m, plus points inside edges of their hull."""
    base = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            for _ in range(rng.randint(d + 1, d + 8))]
    A = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(m)]
    if m == d:
        A = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    pts = [tuple(sum(a * x for a, x in zip(row, p)) + r for r, row in enumerate(A))
           for p in base]
    for _ in range(3):
        u, v = rng.sample(pts, 2)
        pts.append(tuple((x + 2 * y) / 3 for x, y in zip(u, v)))
    return pts


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_graded_f_vector_matches_rank_reference(d, extra):
    rng = random.Random(100 * d + extra)
    for _ in range(4):
        pts = _random_hull_points(rng, d, d + extra)
        P = hull_of_points(pts)
        assert P.dim == d and len(P.equalities) == extra
        fv = P.f_vector()
        assert fv == _reference_f_vector(P)
        assert sum((-1) ** i * f for i, f in enumerate(fv)) == 0  # Euler
        # the H-representation gives back the same polytope
        back = polytope_from_inequalities(P.inequalities, P.equalities, d + extra)
        assert back.vertices == sorted(P.vertices) and back.f_vector() == fv


def _assert_exact_ints(values):
    for x in values:
        assert not isinstance(x, float)
        assert type(x) is int or (isinstance(x, F) and x.denominator != 1), x


def _assert_int_fields(P):
    for v in P.vertices:
        _assert_exact_ints(v)
    for c, coeffs in P.inequalities + P.equalities:
        _assert_exact_ints((c, *coeffs))
    _assert_exact_ints(P.incidence)
    assert type(P.ambient) is int


def test_integral_values_are_ints():
    _assert_int_fields(pk_polytope(3, 6))
    _assert_int_fields(root_polytope(2, 6))
    _assert_int_fields(root_polytope(3, 6, hat=True))
    _assert_int_fields(newton(tau((1, 3, 5), 3, 6) * tau((2, 4, 6), 3, 6)))
    _assert_int_fields(polytope_from_inequalities(
        [(F(1), (F(-2), F(0))), (0, (1, 0)), (0, (F(0), F(1))), (F(1, 2), (0, -1))], [], 2))
    _assert_int_fields(hull_of_points([(F(1, 2), 0), (0, 1), (1, 1)]))
    cells = lift_and_lower_hull([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, F(1, 2)])
    _assert_exact_ints(i for cell in cells for i in cell)
    tf = tau_newton_facets(3, 6)
    _assert_exact_ints(tf["constants"].values())
    _assert_exact_ints(tf["lambda"])
    _assert_int_fields(tf["polytope"])


def test_relative_interior_points_are_not_vertices():
    # a square pyramid in R^4 (inside the hyperplane x_4 = 1) with points in
    # the relative interiors of an edge, of the base and of a triangle
    apex, base = (1, 1, 2, 1), [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (2, 2, 0, 1)]
    inner = [(1, 0, 0, 1), (1, 1, 0, 1), (1, F(1, 3), F(2, 3), 1)]
    P = hull_of_points([apex] + base + inner)
    assert sorted(P.vertices) == sorted([apex] + base)
    assert P.f_vector() == [1, 5, 8, 5, 1]
