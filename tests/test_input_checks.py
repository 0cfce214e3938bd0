"""Every library input check fires: each call below is rejected with its
exception type and message, before any result is built."""
import re
from fractions import Fraction as F

import pytest

from grascat import combinat, kinematics, polynomial, polytope, roots
from grascat.polynomial import Poly
import claims

CASES = {
    "is_frozen empty": (
        lambda: combinat.is_frozen((), 40),
        ValueError, "subset () is not a nonempty subset of [1, 40]"),
    "is_frozen label past n": (
        lambda: combinat.is_frozen((1, 3, 9), 6),
        ValueError, "subset (1, 3, 9) is not a nonempty subset of [1, 6]"),
    "is_frozen label below 1": (
        lambda: combinat.is_frozen((0, 1, 2), 6),
        ValueError, "subset (0, 1, 2) is not a nonempty subset of [1, 6]"),
    "compatibility_degree sizes": (
        lambda: combinat.compatibility_degree((1, 2), (1, 2, 3), 5),
        ValueError, "subsets must have the same size"),
    "k3_exponent_rule": (
        lambda: claims.k3_exponent_rule((1, 2), (1, 2, 3)),
        ValueError, "rule applies to 3-element subsets only"),
    "k3_exponent_rule unsorted": (
        lambda: claims.k3_exponent_rule((3, 2, 1), (1, 2, 4)),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "k3_exponent_rule repeated": (
        lambda: claims.k3_exponent_rule((1, 3, 5), (2, 2, 4)),
        ValueError, "subset must be strictly increasing: (2, 2, 4)"),
    "k3_exponent_rule float": (
        lambda: claims.k3_exponent_rule((1, 3, 5), (2.0, 3, 4)),
        ValueError, "subset entries must be ints, got (2.0, 3, 4)"),
    "check_four_term": (
        lambda: claims.check_four_term((1,), 3, 2, 4, 5, 3, 6),
        ValueError, "need disjoint I and a < b < c < d"),
    "cube_antipode order": (
        lambda: claims.cube_antipode([(1, 3), (2, 4)]),
        ValueError, "pairs must interlace: i1 < j1 < i2 < j2 < ..."),
    "cube_antipode labels": (
        lambda: claims.cube_antipode([(1, 2), (3, 4)], L=(2,)),
        ValueError, "extra labels must avoid the interlaced pairs"),
    "tripod_vector": (
        lambda: claims.tripod_vector((1, 3), (2, 4, 6), 7),
        ValueError, "tripod needs triples"),
    "tripod_vector order": (
        lambda: claims.tripod_vector((3, 1, 5), (5, 2, 6), 6),
        ValueError, "tripod triple (3, 1, 5) is not in cyclic order"),
    "tripod_vector labels": (
        lambda: claims.tripod_vector((1, 3, 5), (2, 4, 9), 6),
        ValueError, "tripod labels (1, 3, 5), (2, 4, 9) not inside [1, 6]"),
    "root_kinematics_point key off the grid": (
        lambda: claims.root_kinematics_point({(9, 9): 1}, 3, 6),
        IndexError, "variable x_{9,9} outside the (3,6) grid"),
    "rho_height long vectors": (
        lambda: claims.rho_height([1, 0, 0, 0, 9], [0, 1, 0, 0, 7], 4),
        ValueError, "u and v must have 4 entries, got 5 and 5"),
    "rho_height short vector": (
        lambda: claims.rho_height([1, -1, 0, 0], [0, 0, 0], 4),
        ValueError, "u and v must have 4 entries, got 4 and 3"),
    "eta_tripod": (
        lambda: kinematics.eta_tripod((1, 3, 5), (2, 3, 4), 3, 6),
        ValueError, "triples (1, 3, 5), (2, 3, 4) do not interleave"),
    "octahedral_commutator moves": (
        lambda: claims.octahedral_commutator((1, 2, 4), 3, 5, 6, 7, 3, 7),
        ValueError, "need moves a<-b and c<-d with b, d in J and a, c outside"),
    "functionals_equal_on_K": (
        lambda: claims.functionals_equal_on_K(
            kinematics.eta_functional((1, 3, 5), 3, 6),
            kinematics.eta_functional((1, 3, 5), 3, 7)),
        ValueError, "ambient mismatch"),
    "tau length": (
        lambda: polynomial.tau((1, 3), 3, 6),
        ValueError, "tau index must have 3 entries"),
    "tau order": (
        lambda: polynomial.tau((1, 3, 2), 3, 6),
        ValueError, "tau index must be weakly increasing"),
    "tau index above n": (
        lambda: polynomial.tau((1, 2, 9), 3, 6),
        ValueError, "tau index (1, 2, 9) not inside [1, 6]"),
    "tau index below 1": (
        lambda: polynomial.tau((0, 1, 2), 3, 6),
        ValueError, "tau index (0, 1, 2) not inside [1, 6]"),
    "tau index float": (
        lambda: polynomial.tau((1.0, 2, 4), 3, 6),
        ValueError, "tau index entries must be ints, got (1.0, 2, 4)"),
    "tau index bool": (
        lambda: polynomial.tau((True, 2, 4), 3, 6),
        ValueError, "tau index entries must be ints, got (True, 2, 4)"),
    "u_variable frozen": (
        lambda: polynomial.u_variable((1, 2, 3), 3, 6),
        ValueError, "(1, 2, 3) is frozen; no u-variable"),
    "binary_identity_check frozen": (
        lambda: polynomial.binary_identity_check((4, 5, 6), 3, 6, "random"),
        ValueError, "(4, 5, 6) is frozen; no u-variable"),
    "delta size": (
        lambda: polynomial.delta(1, (1,), 3, 6),
        ValueError, "face index J must have between 2 and k entries"),
    "delta row": (
        lambda: polynomial.delta(3, (1, 2), 3, 6),
        ValueError, "row index i=3 out of range for |J|=2"),
    "delta face": (
        lambda: polynomial.delta(1, (1, 5), 3, 6),
        ValueError, "face index (1, 5) out of range for (3, 6)"),
    "delta decreasing": (
        lambda: polynomial.delta(1, (3, 2), 3, 6),
        ValueError, "subset must be strictly increasing: (3, 2)"),
    "delta repeated": (
        lambda: polynomial.delta(1, (2, 2), 3, 6),
        ValueError, "subset must be strictly increasing: (2, 2)"),
    "delta below 1": (
        lambda: polynomial.delta(1, (0, 3), 3, 6),
        ValueError, "subset (0, 3) not inside [1, 6]"),
    "delta bool row": (
        lambda: polynomial.delta(True, (1, 3), 3, 6),
        ValueError, "row index i=True out of range for |J|=2"),
    "delta float row": (
        lambda: polynomial.delta(1.0, (1, 3), 3, 6),
        ValueError, "row index i=1.0 out of range for |J|=2"),
    "delta float k": (
        lambda: polynomial.delta(1, (1, 3), 3.0, 6),
        ValueError, "k and n must be ints, got (3.0, 6)"),
    "compound_A": (
        lambda: claims.compound_A(1, 5, 2, 6),
        ValueError, "A_{ijk} needs column j+2 <= n; use the X form"),
    "compound_X label 0": (
        lambda: claims.compound_X((0, 1), (2, 3), (5, 6), 6),
        ValueError, "column label 0 not inside [1, 6]"),
    "compound_A label 0": (
        lambda: claims.compound_A(0, 2, 5, 6),
        ValueError, "column label 0 not inside [1, 6]"),
    "compound_A label past n": (
        lambda: claims.compound_A(5, 2, 9, 6),
        ValueError, "column label 9 not inside [1, 6]"),
    "root_potential_check": (
        lambda: claims.root_potential_check(2, 5),
        ValueError, "no tabulated root potential for (2, 5)"),
    "binary_identity_check mode": (
        lambda: polynomial.binary_identity_check((1, 3, 5), 3, 6, mode="exact"),
        ValueError, "unknown mode 'exact'"),
    "Poly ambient": (
        lambda: Poly.var(1, 1, 3, 6) + Poly.var(1, 1, 3, 7),
        ValueError, "ambient (k, n) mismatch"),
    "divide_exact by zero": (
        lambda: polynomial.divide_exact(Poly.var(1, 1, 3, 6), Poly.const(3, 6, 0)),
        ZeroDivisionError, "division by the zero polynomial"),
    "det_poly one row of two": (
        lambda: claims.det_poly([[Poly.var(1, 1, 3, 6), Poly.var(1, 2, 3, 6)]]),
        ValueError, "determinant needs a nonempty square matrix"),
    "det_poly empty": (
        lambda: claims.det_poly([]),
        ValueError, "determinant needs a nonempty square matrix"),
    "det_poly two rows of one": (
        lambda: claims.det_poly([[Poly.var(1, 1, 3, 6)], [Poly.var(1, 2, 3, 6)]]),
        ValueError, "determinant needs a nonempty square matrix"),
    "det_poly empty dict": (
        lambda: claims.det_poly({}),
        ValueError, "determinant needs a nonempty square matrix"),
    "det_poly ragged": (
        lambda: claims.det_poly([[Poly.var(1, 1, 3, 6), Poly.var(1, 2, 3, 6)],
                                 [Poly.var(2, 1, 3, 6)]]),
        ValueError, "determinant needs a nonempty square matrix"),
    "resolved_minor order": (
        lambda: claims.resolved_minor((3, 2, 1), 6),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "resolved_minor repeat": (
        lambda: claims.resolved_minor((2, 4, 4), 6),
        ValueError, "subset must be strictly increasing: (2, 4, 4)"),
    "resolved_minor size": (
        lambda: claims.resolved_minor((2, 4), 6),
        ValueError, "expected a 3-element subset, got (2, 4)"),
    "cone_rays no rows": (
        lambda: polytope.cone_rays([]),
        ValueError, "cone_rays needs at least one row, got []"),
    "hull_of_points": (
        lambda: polytope.hull_of_points([]),
        ValueError, "empty point set"),
    "hull_of_points lengths": (
        lambda: polytope.hull_of_points([(0, 0), (1,), (0, 1)]),
        ValueError, "points of unequal lengths"),
    "lift_and_lower_hull": (
        lambda: claims.lift_and_lower_hull([(0,), (1,)], [0]),
        ValueError, "need one height per vertex"),
    "lift_and_lower_hull empty": (
        lambda: claims.lift_and_lower_hull([], []),
        ValueError, "empty point set"),
    "lift_and_lower_hull lengths": (
        lambda: claims.lift_and_lower_hull([(0, 0), (1,), (0, 1)], [0, 0, 0]),
        ValueError, "points of unequal lengths"),
    "PolytopeRep.contains short point": (
        lambda: claims.contains(polytope.hull_of_points([(0, 0), (1, 0), (0, 1)]), (0,)),
        ValueError, "point of length 1 in R^2"),
    "PolytopeRep.contains long point": (
        lambda: claims.contains(polytope.hull_of_points([(0, 0), (1, 0), (0, 1)]), (0, 0, 7)),
        ValueError, "point of length 3 in R^2"),
    "minimize_face empty": (
        lambda: claims.minimize_face([], (1, 2)),
        ValueError, "empty vertex list"),
    "minimize_face lengths": (
        lambda: claims.minimize_face([(0, 0), (1, 0)], (1,)),
        ValueError, "functional and vertices of unequal lengths"),
    "minimize_face long functional": (
        lambda: claims.minimize_face([(0, 0), (1, 0)], (1, 2, 3)),
        ValueError, "functional and vertices of unequal lengths"),
    "root_polytope_contains length": (
        lambda: polytope.root_polytope_contains((0,) * 5, 3, 6),
        ValueError, "a (3, 6) grid point has 6 coordinates, not 5"),
    "root_polytope_contains shape": (
        lambda: polytope.root_polytope_contains((), 1, 3),
        ValueError, "need 2 <= k <= n-2, got (1, 3)"),
    "KinFunctional.value outside K": (
        lambda: claims.value(kinematics.eta_functional((1, 3, 5), 3, 6), {(1, 2, 3): 1}),
        ValueError, "the s-values break momentum conservation: not a point of K(3,6)"),
    "KinFunctional.value short key": (
        lambda: claims.value(kinematics.eta_functional((1, 3, 5), 3, 6), {(1, 2): 5}),
        ValueError, "s-value key (1, 2) is not a 3-subset of [1, 6]"),
    "eta_values key outside [1, n]": (
        lambda: kinematics.kin_basis(3, 6).eta_values({(1, 2, 7): 1, (1, 2, 3): -1}),
        ValueError, "s-value key (1, 2, 7) is not a 3-subset of [1, 6]"),
    "eta_values unsorted key": (
        lambda: kinematics.kin_basis(3, 6).eta_values({(3, 2, 1): 0}),
        ValueError, "s-value key (3, 2, 1) is not a 3-subset of [1, 6]"),
    "KinFunctional short key": (
        lambda: kinematics.KinFunctional(3, 6, {(1, 2): 1}),
        ValueError, "s-value key (1, 2) is not a 3-subset of [1, 6]"),
    "eta_functional short": (
        lambda: kinematics.eta_functional((1, 2), 3, 6),
        ValueError, "expected a 3-element subset, got (1, 2)"),
    "eta_functional decreasing": (
        lambda: kinematics.eta_functional((3, 2, 1), 3, 6),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "eta_functional long": (
        lambda: kinematics.eta_functional((1, 3, 5, 6), 3, 6),
        ValueError, "expected a 3-element subset, got (1, 3, 5, 6)"),
    "eta_combination label outside [1, n]": (
        lambda: claims.eta_combination({(1, 2, 9): 2}, 3, 6),
        ValueError, "subset (1, 2, 9) not inside [1, 6]"),
    "eta_tripod pairs": (
        lambda: kinematics.eta_tripod((1, 3), (2, 4), 3, 6),
        ValueError, "expected a 3-element subset, got (1, 3)"),
    "plucker label outside [1, n]": (
        lambda: claims.plucker((1, 2, 9), 3, 6),
        ValueError, "subset (1, 2, 9) not inside [1, 6]"),
    "plucker short": (
        lambda: claims.plucker((1, 2), 3, 6),
        ValueError, "expected a 3-element subset, got (1, 2)"),
    "crossing_profile label outside [1, n]": (
        lambda: polynomial.crossing_profile((1, 2, 9), 3, 7),
        ValueError, "subset (1, 2, 9) not inside [1, 7]"),
    "crossing_profile short": (
        lambda: polynomial.crossing_profile((1, 2), 3, 7),
        ValueError, "expected a 3-element subset, got (1, 2)"),
    "crossing_profile decreasing": (
        lambda: polynomial.crossing_profile((3, 2, 1), 3, 7),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "needs_resolution label outside [1, n]": (
        lambda: claims.needs_resolution((1, 2, 9), 6),
        ValueError, "subset (1, 2, 9) not inside [1, 6]"),
    "needs_resolution decreasing": (
        lambda: claims.needs_resolution((3, 2, 1), 6),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "needs_resolution short": (
        lambda: claims.needs_resolution((1, 3), 6),
        ValueError, "expected a 3-element subset, got (1, 3)"),
    "kd_membership short key": (
        lambda: claims.kd_membership({(1, 2): -1}, 3, 6),
        ValueError, "s-value key (1, 2) is not a 3-subset of [1, 6]"),
    "kd_membership unsorted key": (
        lambda: claims.kd_membership({(3, 2, 1): 0}, 3, 6),
        ValueError, "s-value key (3, 2, 1) is not a 3-subset of [1, 6]"),
    "combo_vector k = n": (
        lambda: roots.combo_vector({(1, 2, 3): 1}, 3, 3),
        ValueError, "need 2 <= k <= n-2, got (3, 3)"),
    "gamma_hat k = n - 1": (
        lambda: roots.gamma_hat((1, 3), 2, 3),
        ValueError, "need 2 <= k <= n-2, got (2, 3)"),
    "v_root decreasing": (
        lambda: roots.v_root((3, 2, 1), 3, 6),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "v_root short": (
        lambda: roots.v_root((1, 3), 3, 6),
        ValueError, "expected a 3-element subset, got (1, 3)"),
    "v_root label outside [1, n]": (
        lambda: roots.v_root((1, 3, 7), 3, 6),
        ValueError, "subset (1, 3, 7) not inside [1, 6]"),
    "v_root float label": (
        lambda: roots.v_root((1, 3.0, 5), 3, 6),
        ValueError, "subset entries must be ints, got (1, 3.0, 5)"),
    "combo_vector bad subset": (
        lambda: roots.combo_vector({(1, 3, 5): 1, (2, 2, 4): 1}, 3, 6),
        ValueError, "subset must be strictly increasing: (2, 2, 4)"),
}
# an s-value key must be a tuple of ints: one that only equals a subset is
# rejected, as check_subset rejects it
for _key in ((1.0, 2, 4), (True, 2, 4), (F(1), 2, 4)):
    for _name, _f in (("kd_membership", lambda p: claims.kd_membership(p, 3, 6)),
                      ("eta_values", lambda p: kinematics.kin_basis(3, 6).eta_values(p)),
                      ("KinFunctional", lambda p: kinematics.KinFunctional(3, 6, p))):
        CASES[f"{_name} key {_key!r}"] = (lambda f=_f, key=_key: f({key: 0}), ValueError,
                                          f"s-value key {_key!r} is not a 3-subset of [1, 6]")
# nc_amplitude takes int and Fraction values only, checked before the fold
for _value in (1.5, "3", True):
    CASES[f"nc_amplitude value {_value!r}"] = (
        lambda v=_value: kinematics.nc_amplitude(
            3, 6, {J: v if J == (1, 3, 5) else 1 for J in combinat.nonfrozen_subsets(3, 6)}),
        ValueError, f"the value of (1, 3, 5) is not an int or a Fraction: {_value!r}")
# these entry points check (k, n) with check_kn before anything else
for _name, _f in (("tau_newton_facets", polytope.tau_newton_facets),
                  ("pk_associahedron", polytope.pk_associahedron),
                  ("triangulation_volume", polytope.triangulation_volume),
                  ("root_polytope hat", lambda k, n: polytope.root_polytope(k, n, hat=True)),
                  ("binary_identities_random_all", polynomial.binary_identities_random_all),
                  ("crossing_profile", lambda k, n: polynomial.crossing_profile((1, 3, 5), k, n)),
                  ("u_variable", lambda k, n: polynomial.u_variable((1, 3, 5), k, n)),
                  ("binary_identity_check",
                   lambda k, n: polynomial.binary_identity_check((1, 3, 5), k, n)),
                  ("nc_amplitude", lambda k, n: kinematics.nc_amplitude(k, n, {})),
                  ("kin_basis", kinematics.kin_basis),
                  ("pk_point", claims.pk_point),
                  ("interior_kd_point", kinematics.interior_kd_point),
                  ("eta_combination", lambda k, n: claims.eta_combination({}, k, n)),
                  ("tau", lambda k, n: polynomial.tau((1, 2, 3), k, n)),
                  ("plucker", lambda k, n: claims.plucker((2, 4, 6), k, n)),
                  ("bcfw_matrix", claims.bcfw_matrix),
                  ("eta_functional", lambda k, n: kinematics.eta_functional((1, 3, 5), k, n)),
                  ("kd_membership", lambda k, n: claims.kd_membership({}, k, n)),
                  ("planar_face_range", polynomial.planar_face_range),
                  ("m_poly", lambda k, n: claims.m_poly(1, 2, k, n)),
                  ("v_root", lambda k, n: roots.v_root((1, 3, 5), k, n)),
                  ("gamma_hat", lambda k, n: roots.gamma_hat((1, 3, 5), k, n)),
                  ("combo_vector", lambda k, n: roots.combo_vector({}, k, n))):
    for _k, _n in ((3.0, 6), (True, 6), (3, 6.0)):
        CASES[f"{_name}({_k}, {_n})"] = (lambda f=_f, k=_k, n=_n: f(k, n), ValueError,
                                         f"k and n must be ints, got ({_k!r}, {_n!r})")
    CASES[f"{_name}(1, 4)"] = (lambda f=_f: f(1, 4), ValueError, "need 2 <= k <= n-2, got (1, 4)")
# the (3, n) shift checks (3, n) with check_kn first
for _n, _message in ((7.0, "k and n must be ints, got (3, 7.0)"),
                     (True, "k and n must be ints, got (3, True)"),
                     (4, "need 2 <= k <= n-2, got (3, 4)")):
    CASES[f"eta_hat_shift({_n})"] = (lambda n=_n: kinematics.eta_hat_shift(n), ValueError,
                                     _message)


@pytest.mark.parametrize("name", CASES)
def test_input_check_fires(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
