"""The benchmark's own tests: seeded op lists are reproducible, a second
seed gives different inputs that still pass every check, and the traced run's
wrappers count calls wherever the library looks a name up.

    python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return workloads.load_library()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    count = workloads.op_count(workload, 20)
    first = workloads.make_ops(workload, 7, count)
    again = workloads.make_ops(workload, 7, count)
    assert workloads.digest(first) == workloads.digest(again)
    assert len(first) == count


def test_warmup_ops_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        warm = workloads.warmup_ops(workload)
        shapes = {(op["k"], op["n"]) for op in workloads.make_ops(workload, 3, 48)}
        assert {(op["k"], op["n"]) for op in warm} == shapes
        assert workloads.digest(warm) == workloads.digest(workloads.warmup_ops(workload))


def test_local_scale_follows_the_nearby_kernel_times():
    for workload in workloads.WORKLOADS:
        fast = hostspeed.REF_S[workload]
        scale = hostspeed.local_scale(workload, [fast] * 10 + [2 * fast] * 10, window=3)
        assert scale[:7] == [1.0] * 7 and scale[-7:] == [0.5] * 7
        assert hostspeed.reference_seconds(workload) > 0


def _sample(ops):
    """First op of every class and eta role, with the base of each scaled op."""
    seen, chosen = set(), set()
    for i, op in enumerate(ops):
        variant = (workloads.op_class(op), "scale_of" in op, "equal" in op)
        if variant not in seen:
            seen.add(variant)
            chosen |= {i, op.get("scale_of", i)}
    return sorted(chosen)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_differs_and_passes_checks(workload, lib, tmp_path):
    count = workloads.op_count(workload, 20)
    ops = workloads.make_ops(workload, 8, count)
    assert workloads.digest(ops) != workloads.digest(workloads.make_ops(workload, 7, count))
    runner = workloads.Runner(lib, workloads.write_eta_files(ops, tmp_path))
    chosen = _sample(ops)
    results = {i: runner.run(i, ops[i]) for i in chosen}
    assert {i: workloads.check(i, ops, results, lib) for i in chosen} == dict.fromkeys(chosen)


def test_checks_reject_wrong_answers(lib):
    ops = workloads.make_ops("polytopes", 8, workloads.op_count("polytopes", 20))
    lp = next(i for i, op in enumerate(ops) if op["kind"] == "lp")
    assert workloads.check(lp, ops, {lp: [not x for x in ops[lp]["inside"]]}, lib)
    volume = next(i for i, op in enumerate(ops) if op["kind"] == "volume")
    assert workloads.check(volume, ops, {volume: 461}, lib)
    newton = next(i for i, op in enumerate(ops) if op["kind"] == "newton")
    p, P, fv, quotient, rest = workloads.Runner(lib, [None] * len(ops)).run(newton, ops[newton])
    assert workloads.check(newton, ops, {newton: (p, P, fv, quotient, rest)}, lib) is None
    assert workloads.check(newton, ops, {newton: (p, P, fv, p, rest)}, lib)

    ops = workloads.make_ops("decompose", 8, 6)
    expansion = workloads.Runner(lib, [None] * 6).run(0, ops[0])
    J = next(iter(expansion))
    assert workloads.check(0, ops, {0: expansion}, lib) is None
    assert workloads.check(0, ops, {0: {**expansion, J: expansion[J] + 1}}, lib)

    ops = workloads.make_ops("amplitude", 8, workloads.op_count("amplitude", 20))
    scaled = next(i for i, op in enumerate(ops) if "scale_of" in op)
    same = (0, '{"value": "1/7"}')
    assert workloads.check(scaled, ops, {ops[scaled]["scale_of"]: same, scaled: same}, lib)


def test_root_points_match_the_library(lib):
    roots, polytope = lib["roots"], lib["polytope"]
    for k, n in ((3, 7), (4, 7), (3, 8)):
        want = [polytope.grid_point(roots.v_root(J, k, n), k, n)
                for J in workloads.nonfrozen(k, n)] + [polytope.grid_point({}, k, n)]
        assert list(workloads.root_points(k, n)) == want


def test_tracer_wraps_every_lookup_site_and_restores(lib):
    roots, combinat, polynomial = lib["roots"], lib["combinat"], lib["polynomial"]
    original = combinat.compatibility_degree
    tracer = Tracer(lib)
    tracer.install()
    try:
        assert roots.compatibility_degree is combinat.compatibility_degree is not original
        tracer.run_op(0, "demo", polynomial.binary_identity_check, (2, 4, 6), 3, 7)
        (polynomial.Poly.one(3, 7) * 2) * polynomial.tau((2, 4, 6), 3, 7)
    finally:
        tracer.uninstall()
    assert roots.compatibility_degree is original is combinat.compatibility_degree
    metrics = tracer.metrics()
    assert metrics["polynomial.binary_identity_check.calls"][0] == 1
    assert metrics["combinat.compatibility_degree.calls"][0] > 0
    assert metrics["polynomial.Poly.mul.calls"][0] > 0
    spans = tracer.dump()["spans"]
    by_id = {s[0]: s for s in spans}

    def root(span):
        while span[1] is not None:
            span = by_id[span[1]]
        return span
    # spans of the op share its index; the calls made outside it have none
    assert all((root(s)[3] == "op.demo") == (s[2] == 0) for s in spans)
    assert all(s[2] in (0, None) for s in spans)
