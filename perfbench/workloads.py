"""Seeded op lists, op runners and output checks for the four workloads.

An op is a JSON-serialisable dict.  ``make_ops`` builds the op list from the
seed alone, without calling grascat, so the library only ever sees the
generated inputs and the same seed always gives a byte-identical list.
``Runner`` turns an op into library calls; ``check`` decides whether the
op's output is right, with tests that do not trust the code under test
where that is cheap (exact round trips, golden values, closed formulas,
homogeneity between seeded op pairs).

Each workload repeats a fixed cycle of op classes (``kind@k,n``) with fresh
seeded inputs, so every prefix of the list has the same mix.  The cycles are
weighted so that the median and the 90th-percentile latency each fall inside
one class cluster rather than in the gap between two clusters.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

WORKLOADS = ("decompose", "identities", "polytopes", "amplitude")

# Op classes per cycle.  The order interleaves cheap and expensive classes so
# that any prefix of the list is representative, and puts first, for each
# (k, n), the op that fills the most caches (see warmup_ops).
_SYMBOLIC = [("symbolic", 3, 9), ("symbolic", 3, 10), ("symbolic", 4, 8)] * 3
CYCLES = {
    # the fan walk and its Fraction solves; (3,9) and (4,8) carry the median;
    # (5,10) is the top fifth of the ops, so the 90th percentile sits near the
    # middle of its wide cluster rather than in its tail
    "decompose": [("decompose", 3, 7), ("decompose", 3, 9), ("decompose", 5, 10),
                  ("decompose", 4, 8), ("decompose", 3, 9), ("decompose", 3, 7),
                  ("decompose", 3, 9), ("decompose", 5, 10), ("decompose", 4, 8),
                  ("decompose", 3, 9)],
    # symbolic batches carry the median; the two random batches are the top
    # 1/8 of the ops, so the 90th percentile sits inside the (4,9) block
    "identities": ([("random_all", 3, 12)] + _SYMBOLIC[:7]
                   + [("random_all", 4, 9)] + _SYMBOLIC[2:9]),
    # seeded Newton polytopes and LP batches plus one of each fixed
    # construction per cycle.  In latency order: 8 Newton, 2 LP (3,7),
    # 4 LP (4,7) (the median falls mid-block), the (3,6) PK polytope, 6 LP
    # (3,8), then tau_newton (the 90th percentile falls mid-block), volume
    # and the (3,7) PK polytope.
    "polytopes": [("pk_fvector", 3, 7), ("newton", 3, 6), ("lp", 4, 7), ("newton", 4, 7),
                  ("lp", 3, 8), ("newton", 3, 7), ("lp", 3, 7), ("lp", 4, 7),
                  ("volume", 4, 7), ("lp", 3, 8), ("newton", 3, 6), ("lp", 3, 8),
                  ("tau_newton", 3, 6), ("lp", 3, 7), ("newton", 3, 7), ("lp", 4, 7),
                  ("pk_fvector", 3, 6), ("lp", 3, 8), ("newton", 4, 7), ("lp", 3, 8),
                  ("newton", 3, 6), ("lp", 4, 7), ("newton", 3, 7), ("lp", 3, 8)],
    # in-process CLI calls (the fourth field is the eta role, see _gen_eta).
    # Per cycle, in latency order: 2 prime, 6 (3,7) amplitudes, 8 eta-to-s
    # (the median falls mid-block), 3 shifted (3,7), one (3,8) amplitude,
    # 3 shifted (3,8) (the 90th percentile falls mid-block), one (4,8).
    "amplitude": [("prime36", 3, 6, None), ("shift", 3, 7, "base"),
                  ("shift", 3, 8, "cross"), ("amplitude", 3, 7, "base"),
                  ("eta_to_s", 3, 8, None), ("amplitude", 3, 7, -2),
                  ("eta_to_s", 3, 8, None), ("shift", 3, 7, -6),
                  ("amplitude", 3, 7, "equal"), ("eta_to_s", 3, 8, None),
                  ("shift", 3, 8, "cross"), ("eta_to_s", 3, 8, None),
                  ("prime36", 3, 6, None), ("amplitude", 3, 8, "cross"),
                  ("amplitude", 3, 7, "base"), ("eta_to_s", 3, 8, None),
                  ("amplitude", 3, 7, -2), ("eta_to_s", 3, 8, None),
                  ("shift", 3, 7, "equal"), ("shift", 3, 8, "cross"),
                  ("amplitude", 3, 7, "equal"), ("eta_to_s", 3, 8, None),
                  ("amplitude", 4, 8, "cross"), ("eta_to_s", 3, 8, None)],
}

# Ops per ``--seconds``; sizes the fixed op list, which later commits run
# unchanged.  At the commit that defined the benchmark a run measures about
# ``--seconds`` nominal seconds (see hostspeed.py), decompose about 1.5 times
# that: its 90th percentile is the median of the wide (5,10) cluster, which
# needs the samples.
NOMINAL_RATE = {"decompose": 70.0, "identities": 9.0, "polytopes": 15.0,
                "amplitude": 11.0}

# terms of a decompose input, J's per symbolic identity op, points per LP
# op (even)
DECOMPOSE_TERMS = 3
SYMBOLIC_BATCH = 3
LP_BATCH = 6

# the 90th percentile needs ten samples beyond it
MIN_OPS = 100

# (3,6) prime-kinematics eta table of the paper; the op's answer is checked
# against grascat.kinematics.NC_AMPLITUDE_36_VALUE
PRIME_ETA_36 = {
    (1, 2, 4): 8087, (1, 2, 5): 8537, (1, 3, 4): 9227, (1, 3, 5): 10247,
    (1, 3, 6): 11657, (1, 4, 5): 13259, (1, 4, 6): 15277, (2, 3, 5): 17599,
    (2, 3, 6): 20333, (2, 4, 5): 23321, (2, 4, 6): 26737, (2, 5, 6): 30637,
    (3, 4, 6): 34679, (3, 5, 6): 39293,
}

PK_F_VECTORS = {(3, 6): [1, 27, 60, 47, 14, 1],
                (3, 7): [1, 128, 456, 661, 483, 178, 28, 1]}


def op_class(op):
    return f"{op['kind']}@{op['k']},{op['n']}"


def op_count(workload, seconds):
    """Length of the fixed op list: at least MIN_OPS, in an even number of
    whole cycles (amplitude pairs span two cycles, and the traced run
    splits the list into two halves with the same mix)."""
    pair = 2 * len(CYCLES[workload])
    return pair * max(math.ceil(MIN_OPS / pair), round(seconds * NOMINAL_RATE[workload] / pair))


def digest(ops):
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def referenced(ops):
    """Indices of the ops whose output a later op's check reads."""
    return {op["scale_of"] for op in ops if "scale_of" in op}


# fixed constructions: they take no seeded input and fill no cache
FIXED_KINDS = ("pk_fvector", "tau_newton", "volume")


def warmup_ops(workload):
    """The set-up ops: one op of every (k, n) shape from the first cycle of
    a fixed seed, so that set-up does the same work whatever ``--seed`` is.
    It is the shape's first op in the cycle that is not a fixed
    construction; the cycles put first the op that fills the most caches."""
    first = {}
    for op in make_ops(workload, "warmup", len(CYCLES[workload])):
        shape = (op["k"], op["n"])
        if shape not in first or (first[shape]["kind"] in FIXED_KINDS
                                  and op["kind"] not in FIXED_KINDS):
            first[shape] = op
    return list(first.values())


# ---------------------------------------------------------------------------
# combinatorics the generator and the checks need, kept independent of the
# library under test

@lru_cache(maxsize=None)
def nonfrozen(k, n):
    """k-subsets of [1, n] that are not one cyclic interval."""
    out = []
    for J in combinations(range(1, n + 1), k):
        gaps = sum(1 for a, b in zip(J, J[1:]) if b - a > 1)
        gaps += (J[0] + n) - J[-1] > 1
        if gaps > 1:
            out.append(J)
    return tuple(out)


def catalan_mdim(k, m):
    """Standard Young tableaux of the k x m rectangle (hook lengths)."""
    hooks = 1
    for i in range(k):
        for j in range(m):
            hooks *= (k - i) + (m - j) - 1
    return math.factorial(k * m) // hooks


@lru_cache(maxsize=None)
def root_points(k, n):
    """Dense vertices v_J (J nonfrozen) plus the origin of the root
    polytope: gamma_J is 1 on row i over columns j_i-(i-1)..j_{i+1}-i-1, and
    v_J maps each e_{i,j} to e_{i,j} - e_{i,j+1}, column n-k wrapping to 1."""
    w = n - k
    pts = []
    for J in nonfrozen(k, n):
        v = [0] * ((k - 1) * w)
        for i in range(1, k):
            for j in range(J[i - 1] - (i - 1), J[i] - i):
                v[(i - 1) * w + j - 1] += 1
                v[(i - 1) * w + (j % w)] -= 1
        pts.append(tuple(v))
    pts.append(tuple([0] * ((k - 1) * w)))
    return tuple(pts)


def key(J):
    return ",".join(str(j) for j in J)


# ---------------------------------------------------------------------------
# generation

def make_ops(workload, seed, count):
    """The seeded op list: ``count`` ops cycling through the workload's
    classes, each with its own inputs drawn from one seeded generator."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    ops = []
    for index in range(count):
        kind, k, n, *role = cycle[index % len(cycle)]
        op = {"kind": kind, "k": k, "n": n}
        op.update(_GENERATORS[kind](rng, k, n, index, ops, role[0] if role else None))
        ops.append(op)
    return ops


def _gen_decompose(rng, k, n, _index, _ops, _role):
    # three random nonfrozen J with small nonzero coefficients; a varying
    # number of terms would double the seed-to-seed spread of the walk length
    Js = rng.sample(nonfrozen(k, n), DECOMPOSE_TERMS)
    return {"coeffs": [[list(J), rng.choice((-3, -2, -1, 1, 2, 3))] for J in sorted(Js)]}


def _gen_random_all(rng, _k, _n, _index, _ops, _role):
    return {"trials": 1, "seed": rng.randrange(2 ** 31)}


def _gen_symbolic(rng, k, n, _index, _ops, _role):
    # one J's check costs 5-60 ms depending on J; a batch evens that out
    return {"Js": [list(J) for J in rng.sample(nonfrozen(k, n), SYMBOLIC_BATCH)]}


def _gen_newton(rng, k, n, _index, _ops, _role):
    # tau_J is 1 when J starts with 1..k-1; draw among the others
    cand = [J for J in combinations(range(1, n + 1), k) if J[:k - 1] != tuple(range(1, k))]
    m = 3 if n == 6 else 2
    return {"factors": [list(J) for J in sorted(rng.sample(cand, m))]}


def _gen_lp(rng, k, n, _index, _ops, _role):
    # one query costs 3-60 ms depending on the point; a batch of half
    # inside and half outside points evens that out
    inside = [True, False] * (LP_BATCH // 2)
    rng.shuffle(inside)
    points = [_lp_point(rng, root_points(k, n), flag) for flag in inside]
    return {"points": [[str(x) for x in p] for p in points], "inside": inside}


def _lp_point(rng, pts, inside):
    if inside:
        # a convex combination with positive weights lies in the hull
        chosen = rng.sample(pts, rng.randint(3, 6))
        weights = [rng.randint(1, 9) for _ in chosen]
        total = sum(weights)
        return [sum(Fraction(w, total) * q[t] for w, q in zip(weights, chosen))
                for t in range(len(pts[0]))]
    # step past the maximiser of a random functional w: w.p exceeds the
    # maximum of w over the hull
    w = [0] * len(pts[0])
    while not any(w):
        w = [rng.randint(-3, 3) for _ in w]
    top = max(pts, key=lambda q: sum(a * b for a, b in zip(w, q)))
    step = Fraction(1, rng.randint(2, 9))
    return [q + step * a for q, a in zip(top, w)]


def _gen_fixed(_rng, _k, _n, _index, _ops, _role):
    return {}


def _gen_prime(_rng, _k, _n, _index, _ops, _role):
    return {"eta": {key(J): v for J, v in PRIME_ETA_36.items()}}


def _gen_eta_to_s(rng, k, n, _index, _ops, _role):
    return {"eta": {key(J): rng.randint(1, 10 ** 4) for J in nonfrozen(k, n)}}


# Shifted eta-hat values are eta-combinations whose coefficients sum to 1
# with absolute sum at most 4n - 19 (13 at n = 8), so eta_J = 1000 + e_J with
# 0 <= e_J <= 60 keeps every shifted value positive: no op hits a pole.
ETA_BASE, ETA_JITTER = 1000, 60


def _gen_eta(rng, k, n, index, ops, role):
    """eta table of an amplitude-workload op.  Roles: "base" draws a fresh
    table; a negative int scales the table of the op that many places back,
    and "cross" does so one cycle back in odd cycles (a base in even ones),
    so that the pair can be checked by homogeneity; "equal" is all-equal."""
    cycle = len(CYCLES["amplitude"])
    if role == "cross":
        role = -cycle if (index // cycle) % 2 else "base"
    if role == "base":
        return {"eta": {key(J): ETA_BASE + rng.randint(0, ETA_JITTER) for J in nonfrozen(k, n)}}
    if role == "equal":
        c = rng.randint(2, 9)
        return {"eta": {key(J): c for J in nonfrozen(k, n)}, "equal": c}
    base = index + role
    lam = rng.choice((2, 3, 5))
    return {"eta": {J: lam * v for J, v in ops[base]["eta"].items()},
            "scale_of": base, "lam": lam}


_GENERATORS = {
    "decompose": _gen_decompose,
    "random_all": _gen_random_all,
    "symbolic": _gen_symbolic,
    "newton": _gen_newton,
    "lp": _gen_lp,
    "pk_fvector": _gen_fixed,
    "tau_newton": _gen_fixed,
    "volume": _gen_fixed,
    "prime36": _gen_prime,
    "amplitude": _gen_eta,
    "shift": _gen_eta,
    "eta_to_s": _gen_eta_to_s,
}


# ---------------------------------------------------------------------------
# running ops

def write_eta_files(ops, workdir, prefix="op"):
    """Eta files for the CLI ops, written before the library is imported;
    returns one path (or None) per op."""
    paths = []
    for index, op in enumerate(ops):
        path = None
        if "eta" in op:
            path = workdir / f"{prefix}-{index}.json"
            path.write_text(json.dumps({"eta": op["eta"]}))
        paths.append(path)
    return paths


def load_library():
    """Import the package under test; the first import is part of set-up."""
    from grascat import cli, combinat, kinematics, linalg, polynomial, polytope, roots
    return {"cli": cli, "combinat": combinat, "kinematics": kinematics,
            "linalg": linalg, "polynomial": polynomial, "polytope": polytope,
            "roots": roots}


class Runner:
    """Runs one op against the library; every name is looked up on its
    module at call time, so the traced run's wrappers see every call."""

    def __init__(self, lib, paths):
        self.lib = lib
        self.paths = paths

    def run(self, index, op):
        return getattr(self, "_" + op["kind"])(op, self.paths[index])

    def _decompose(self, op, _path):
        roots = self.lib["roots"]
        k, n = op["k"], op["n"]
        coeffs = {tuple(J): c for J, c in op["coeffs"]}
        return roots.noncrossing_decompose(roots.combo_vector(coeffs, k, n), k, n)

    def _random_all(self, op, _path):
        return self.lib["polynomial"].binary_identities_random_all(
            op["k"], op["n"], trials=op["trials"], seed=op["seed"])

    def _symbolic(self, op, _path):
        check = self.lib["polynomial"].binary_identity_check
        return [check(tuple(J), op["k"], op["n"]) for J in op["Js"]]

    def _newton(self, op, _path):
        polynomial, polytope = self.lib["polynomial"], self.lib["polytope"]
        k, n = op["k"], op["n"]
        rest = polynomial.Poly.one(k, n)
        for J in op["factors"][:-1]:
            rest = rest * polynomial.tau(tuple(J), k, n)
        last = polynomial.tau(tuple(op["factors"][-1]), k, n)
        p = rest * last
        P = polytope.newton(p)
        # dividing the product by its last factor must give back the others
        return p, P, P.f_vector(), polynomial.divide_exact(p, last), rest

    def _lp(self, op, _path):
        in_hull, pts = self.lib["polytope"].in_convex_hull, root_points(op["k"], op["n"])
        return [in_hull(tuple(Fraction(x) for x in p), pts) for p in op["points"]]

    def _pk_fvector(self, op, _path):
        return self.lib["polytope"].pk_polytope(op["k"], op["n"]).f_vector()

    def _tau_newton(self, op, _path):
        report = self.lib["polytope"].tau_newton_facets(op["k"], op["n"])
        return report["agrees"], report["polytope"].f_vector()

    def _volume(self, op, _path):
        return self.lib["polytope"].triangulation_volume(op["k"], op["n"])

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.lib["cli"].main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue()

    def _amplitude(self, op, path):
        argv = ["amplitude", "--k", str(op["k"]), "--n", str(op["n"]), "--eta", str(path)]
        return self._cli(argv + (["--shift"] if op["kind"] != "amplitude" else []))

    _shift = _prime36 = _amplitude

    def _eta_to_s(self, op, path):
        return self._cli(["kinematics", "eta-to-s", "--k", str(op["k"]), "--n", str(op["n"]),
                          "--input", str(path)])


# ---------------------------------------------------------------------------
# output checks

def check(index, ops, results, lib):
    """None when op ``index`` produced the right output, else the reason.
    ``results`` maps op indices to outputs; it must hold ``index`` and the
    op that a scaled amplitude op names in ``scale_of``."""
    op, result = ops[index], results[index]
    k, n = op["k"], op["n"]
    kind = op["kind"]
    if kind == "decompose":
        return _check_expansion(op, result, lib)
    if kind == "symbolic":
        if len(result) != len(op["Js"]) or any(v.get("pass") is not True for v in result):
            return "identity verdict is not pass"
        return None
    if kind == "random_all":
        if result.get("pass") is not True:
            return "identity verdict is not pass"
        if result.get("checked") != len(nonfrozen(k, n)):
            return "random batch did not check every nonfrozen subset"
        return None
    if kind == "newton":
        return _check_newton(*result)
    if kind == "lp":
        return None if result == op["inside"] else "LP answer contradicts the construction"
    if kind == "pk_fvector":
        return None if result == PK_F_VECTORS[(k, n)] else f"PK f-vector {result}"
    if kind == "tau_newton":
        agrees, fv = result
        if agrees is not True:
            return "tau Newton H-rep does not agree"
        return None if _euler(fv) else f"f-vector {fv} breaks the Euler relation"
    if kind == "volume":
        return None if result == catalan_mdim(k, n - k) else f"volume {result}"
    return _check_cli(op, result, ops, results, lib)


def _euler(fv):
    """Euler-Poincare relation of a face lattice f-vector that counts the
    empty face and the polytope itself."""
    return sum((-1) ** i * f for i, f in enumerate(fv)) == 0


def _check_expansion(op, expansion, lib):
    k, n = op["k"], op["n"]
    if any(t <= 0 or t.denominator != 1 for t in expansion.values()):
        return "expansion coefficient is not a positive integer"
    vec = dict(zip(nonfrozen(k, n), root_points(k, n)))
    dim = len(root_points(k, n)[0])
    want = [sum(c * vec[tuple(J)][t] for J, c in op["coeffs"]) for t in range(dim)]
    got = [sum(c * vec[J][t] for J, c in expansion.items()) for t in range(dim)]
    if want != got:
        return "expansion does not sum back to the input vector"
    degree = lib["combinat"].compatibility_degree
    if any(degree(A, B, n) for A, B in combinations(sorted(expansion), 2)):
        return "expansion support is not pairwise noncrossing"
    return None


def _check_newton(p, P, fv, quotient, rest):
    if quotient.terms != rest.terms:
        return "product divided by its last factor is not the other factors"
    if not _euler(fv):
        return f"f-vector {fv} breaks the Euler relation"
    points = set(p.terms)
    if len(P.vertices) != fv[1] or any(tuple(v) not in points for v in P.vertices):
        return "Newton polytope vertex is not an exponent vector"
    for e in points:
        if any(c + sum(a * x for a, x in zip(coeffs, e)) != 0 for c, coeffs in P.equalities) \
                or any(c + sum(a * x for a, x in zip(coeffs, e)) < 0
                       for c, coeffs in P.inequalities):
            return "exponent vector escapes the Newton polytope"
    return None


def _check_cli(op, result, ops, results, lib):
    code, out = result
    if code != 0:
        return f"CLI exited {code}"
    data = json.loads(out)
    k, n = op["k"], op["n"]
    if op["kind"] == "eta_to_s":
        return _check_eta_to_s(op, data, k, n)
    value = Fraction(data["value"])
    d = (k - 1) * (n - k - 1)
    if op["kind"] == "prime36":
        kin = lib["kinematics"]
        if {key(J): v for J, v in kin.PRIME_ETA_36.items()} != op["eta"]:
            return "prime eta table differs from the library's"
        return None if value == kin.NC_AMPLITUDE_36_VALUE else "prime amplitude differs"
    if value <= 0:
        return "amplitude of a positive eta table is not positive"
    if "equal" in op and value != Fraction(catalan_mdim(k, n - k), op["equal"] ** d):
        return "all-equal eta does not give Catalan / c^d"
    if "scale_of" in op:
        base = Fraction(json.loads(results[op["scale_of"]][1])["value"])
        if value * op["lam"] ** d != base:
            return "scaled eta does not divide the amplitude by lambda^d"
    return None


@lru_cache(maxsize=None)
def _eta_matrix(k, n):
    return {J: {I: _eta_coefficient(I, J, n) for I in combinations(range(1, n + 1), k)}
            for J in nonfrozen(k, n)}


def _eta_coefficient(I, J, n):
    """Coefficient of s_I in eta_J: -(1/n) min_t L_t(e_I - e_J), where
    L_t(x) = x_{t+1} + 2 x_{t+2} + ... + (n-1) x_{t-1}, labels mod n."""
    x = [(a in I) - (a in J) for a in range(1, n + 1)]
    low = min(sum(r * x[(t + r - 1) % n] for r in range(1, n)) for t in range(n))
    return Fraction(-low, n)


def _check_eta_to_s(op, data, k, n):
    s = {tuple(int(a) for a in J.split(",")): Fraction(v) for J, v in data["s"].items()}
    if any(sum(v for J, v in s.items() if a in J) for a in range(1, n + 1)):
        return "s-values break momentum conservation"
    for J, row in _eta_matrix(k, n).items():
        if sum(c * s.get(I, 0) for I, c in row.items()) != op["eta"][key(J)]:
            return "s-values do not reproduce the input eta"
    return None
