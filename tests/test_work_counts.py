"""Deterministic work counts, read off structures the code already builds.

A wall-clock time on a shared host cannot catch a change that makes a
search a third larger; these counts can.  A change that moves a count
updates the table here and says in CHANGES.md which count moved, and why:
a smaller number is how a change that saves work shows.
"""
import pytest

from grascat import polynomial
from grascat.combinat import _build_search_dag
from grascat.roots import _Fan, _fan, lattice_coords
from test_roots import _seeded_inputs

# shape: (search-DAG nodes, search-DAG edges, walls of the fan, members of
# the walls' exchange relations, summed)
SEARCH = {
    (3, 8): (1067, 2094, 392, 634),
    (4, 8): (3220, 6251, 658, 1110),
    (4, 9): (46911, 95770, 2394, 4315),
    (3, 10): (30064, 61603, 2100, 3738),
}

# shape: flips of the fan walk over the seeded targets of
# test_roots.test_walk_matches_the_dense_row_reference, at the fan's own
# weights
FLIPS = {(3, 7): 287, (4, 8): 459, (3, 9): 470, (5, 10): 757}

# shape: (distinct monomials, factor terms) of the random batch's plan
PLAN = {(3, 12): (63, 1782), (4, 9): (80, 750)}

# shape: (taus of the per-shape ladder table, distinct factors of their
# FactoredRatios, grid variables included)
LADDERS = {(3, 12): (264, 210), (4, 9): (175, 120)}


@pytest.mark.parametrize("k,n", SEARCH)
def test_search_dag_and_wall_counts(k, n):
    dag = _build_search_dag(k, n)
    walls = _fan(k, n).walls()
    relations = _fan(k, n).relations
    assert (dag.root + 1, len(dag.owner), len(walls),
            sum(len(relations[pair]) for pair in walls)) == SEARCH[k, n]


@pytest.mark.parametrize("k,n", FLIPS)
def test_walk_flip_counts(k, n):
    targets = [lattice_coords(v, k, n) for v in _seeded_inputs(k, n, 11, 40)
               + _seeded_inputs(k, n, 12, 40, rational=True)]
    # a fan of its own, as that test walks: the cached one may already
    # hold relations, which change no flip but would be shared
    fan = _Fan(k, n)
    exchange, flips = fan.exchange, []

    def counted(r, X):
        flips.append((r, X))
        return exchange(r, X)

    fan.exchange = counted
    for x in targets:
        fan.locate(x)
    assert len(flips) == FLIPS[k, n]


@pytest.mark.parametrize("k,n", PLAN)
def test_identity_plan_counts(k, n):
    plan = polynomial._identity_plan(k, n)
    terms = sum(len(slots) for groups in plan.factors for _d, _c, slots in groups)
    assert (len(plan.monomials), terms) == PLAN[k, n]


@pytest.mark.parametrize("k,n", LADDERS)
def test_ladder_table_counts(k, n):
    _ladders, taus = polynomial._ladder_table(k, n)
    factors = {f for I in taus for f in polynomial._tau_ratio(I, k, n).exps}
    assert (len(taus), len(factors)) == LADDERS[k, n]
