"""Every library input check fires: each call below is rejected with its
exception type and message, before any result is built."""
import re

import pytest

from grascat import combinat, kinematics, polynomial, polytope, roots
from grascat.polynomial import Poly

CASES = {
    "compatibility_degree sizes": (
        lambda: combinat.compatibility_degree((1, 2), (1, 2, 3), 5),
        ValueError, "subsets must have the same size"),
    "k3_exponent_rule": (
        lambda: combinat.k3_exponent_rule((1, 2), (1, 2, 3)),
        ValueError, "rule applies to 3-element subsets only"),
    "check_four_term": (
        lambda: roots.check_four_term((1,), 3, 2, 4, 5, 3, 6),
        ValueError, "need disjoint I and a < b < c < d"),
    "cube_antipode order": (
        lambda: roots.cube_antipode([(1, 3), (2, 4)]),
        ValueError, "pairs must interlace: i1 < j1 < i2 < j2 < ..."),
    "cube_antipode labels": (
        lambda: roots.cube_antipode([(1, 2), (3, 4)], L=(2,)),
        ValueError, "extra labels must avoid the interlaced pairs"),
    "tripod_vector": (
        lambda: roots.tripod_vector((1, 3), (2, 4, 6), 7),
        ValueError, "tripod needs triples"),
    "eta_tripod": (
        lambda: kinematics.eta_tripod((1, 3, 5), (2, 3, 4), 3, 6),
        ValueError, "triples (1, 3, 5), (2, 3, 4) do not interleave"),
    "octahedral_commutator moves": (
        lambda: kinematics.octahedral_commutator((1, 2, 4), 3, 5, 6, 7, 3, 7),
        ValueError, "need moves a<-b and c<-d with b, d in J and a, c outside"),
    "functionals_equal_on_K": (
        lambda: kinematics.functionals_equal_on_K(
            kinematics.eta_functional((1, 3, 5), 3, 6),
            kinematics.eta_functional((1, 3, 5), 3, 7)),
        ValueError, "ambient mismatch"),
    "tau length": (
        lambda: polynomial.tau((1, 3), 3, 6),
        ValueError, "tau index must have 3 entries"),
    "tau order": (
        lambda: polynomial.tau((1, 3, 2), 3, 6),
        ValueError, "tau index must be weakly increasing"),
    "delta size": (
        lambda: polynomial.delta(1, (1,), 3, 6),
        ValueError, "face index J must have between 2 and k entries"),
    "delta row": (
        lambda: polynomial.delta(3, (1, 2), 3, 6),
        ValueError, "row index i=3 out of range for |J|=2"),
    "delta face": (
        lambda: polynomial.delta(1, (1, 5), 3, 6),
        ValueError, "face index (1, 5) out of range for (3, 6)"),
    "compound_A": (
        lambda: polynomial.compound_A(1, 5, 2, 6),
        IndexError, "A_{ijk} needs column j+2 <= n; use the X form"),
    "root_potential_check": (
        lambda: polynomial.root_potential_check(2, 5),
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
    "resolved_minor order": (
        lambda: polynomial.resolved_minor((3, 2, 1), 6),
        ValueError, "subset must be strictly increasing: (3, 2, 1)"),
    "resolved_minor repeat": (
        lambda: polynomial.resolved_minor((2, 4, 4), 6),
        ValueError, "subset must be strictly increasing: (2, 4, 4)"),
    "resolved_minor size": (
        lambda: polynomial.resolved_minor((2, 4), 6),
        ValueError, "expected a 3-element subset, got (2, 4)"),
    "hull_of_points": (
        lambda: polytope.hull_of_points([]),
        ValueError, "empty point set"),
    "lift_and_lower_hull": (
        lambda: polytope.lift_and_lower_hull([(0,), (1,)], [0]),
        ValueError, "need one height per vertex"),
}


@pytest.mark.parametrize("name", CASES)
def test_input_check_fires(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
