"""Command-line front end: every verification and computation as a
reproducible, scriptable subcommand with JSON output.

Exit code 0 means every requested check passed; structured failure
reports otherwise.  All randomness is seeded and the seed is echoed in
the report, so identical invocations produce byte-identical output.

This module alone reads and writes the JSON format: input maps keyed by
subsets ("1,3,5") with exact values, read by `_load_subset_map`, and the
reports; the library modules take and return plain tuples and numbers.
Beyond its parser it keeps one per-shape cache, `_subset_keys(k, n)`: the
key string of each k-subset of [1, n] both ways, so that a map read under
--k/--n parses no canonical key and a map written joins no key; the
nonfrozen subsets come from the one table `combinat._nonfrozen`.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import combinations
from operator import add

from . import combinat, kinematics, linalg, polynomial, polytope, roots

SCHEMA = "grascat/1"
# the option value under which u-check and amplitude run something random,
# the only case in which they read --seed and --trials
RANDOM_MODE = {"u-check": ("mode", "random"), "amplitude": ("eta", "random-interior")}
MAX_EXPONENT = 4300  # the largest decimal exponent read: CPython's default int-string digit limit


def _emit(args, payload, ok=True):
    payload = {"schema": SCHEMA, **payload}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(f"{k}: {v}" for k, v in payload.items())
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def subset_key(J):
    return ",".join(str(j) for j in J)


def parse_subset(key):
    """The tuple of ints of a subset key such as "1,3,5"; a ValueError
    naming the key when a part is not an int."""
    try:
        return tuple(int(p) for p in key.split(","))
    except ValueError:
        raise ValueError(f"subset key {key!r} is not a comma-separated list of ints") from None


def parse_value(val):
    """The exact number (`linalg._exact`) of an input value, the one
    conversion of input numbers: an int (not a bool), a Fraction or a string
    such as "3/2" or "0.1" (a JSON decimal, as load_json keeps it); ValueError
    otherwise, also for a zero denominator or an exponent over MAX_EXPONENT."""
    if type(val) is int:  # a JSON integer, the common case
        return val
    exp = isinstance(val, str) and re.search(r"e([-+]?\d+(?:_\d+)*)", val, re.IGNORECASE)
    if exp and abs(int(exp[1])) > MAX_EXPONENT:
        raise ValueError(f"input value {val!r} has a decimal exponent over {MAX_EXPONENT}")
    if not isinstance(val, bool) and isinstance(val, (int, Fraction, str)):
        try:
            return linalg._exact(val)
        except ZeroDivisionError:
            pass
    raise ValueError(f"input value {json.dumps(val, default=str)} is not a number")


def load_json(path):
    """The JSON document in a file, with each decimal kept as its text, for
    `parse_value` to read exactly (0.1 is 1/10, not the nearest double); a
    key repeated in one object raises ValueError."""
    with open(path) as fh:
        return json.load(fh, parse_float=str, object_pairs_hook=_unique_keys)


def _unique_keys(pairs):
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"input JSON repeats the key {key!r}")
        obj[key] = val
    return obj


@combinat.shape_cache
def _subset_keys(k, n):
    """The key table of (k, n): ({key string: subset}, {subset: key string})
    over the k-subsets of [1, n], both in sorted order; its build runs
    check_kn first.  Shared by every call, so never written to."""
    combinat.check_kn(k, n)
    texts = {J: subset_key(J) for J in combinations(range(1, n + 1), k)}
    return {text: J for J, text in texts.items()}, texts


def _load_subset_map(path, key, k=None, n=None):
    """(values, k, n) of a JSON input file: the map under ``key`` as
    {subset: int or Fraction}, every key a k-subset of [1, n].  Without k and n
    (a ``coeffs`` file) they are read from the file as well.  An ``eta``
    map may not give a frozen subset, whose eta vanishes on K(k,n), a
    nonzero value.  Every ValueError about the file names it; a bad k and n
    fail first, with check_kn's message."""
    table = _subset_keys(k, n) if k is not None else ({}, {})
    try:
        return _read_subset_map(path, key, k, n, table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_subset_map(path, key, k, n, table):
    # a key in the table of (k, n) names a k-subset of [1, n] as written
    # out, and a key spelled otherwise ("01,2,4") one if its subset is in
    # the table, so only the rest are checked; a coeffs file gives its own
    # (k, n), of any size, so it has no table and its keys are all checked
    subsets, texts = table
    data = load_json(path)
    if k is None:
        if not isinstance(data, dict):
            raise ValueError("input JSON is not an object")
        bad = [name for name, kind in ((key, dict), ("k", int), ("n", int))
               if not isinstance(data.get(name), kind) or isinstance(data.get(name), bool)]
        if bad:
            raise ValueError(f"input JSON lacks {', '.join(map(repr, bad))} "
                             f"or has the wrong type")
        k, n = data["k"], data["n"]
    elif not isinstance(data, dict) or not isinstance(data.get(key), dict):
        raise ValueError(f"input JSON has no {key!r} object")
    nonfrozen = combinat._nonfrozen(k, n)[1] if key == "eta" else ()
    out = {}
    for text, val in data[key].items():
        J = subsets.get(text)
        if J is None:
            J = parse_subset(text)
            if J not in texts:
                J = combinat.check_subset(J, k, n)
        if J in out:
            raise ValueError(f"two {key} keys name the subset {subset_key(J)}")
        out[J] = parse_value(val)
        if key == "eta" and out[J] and J not in nonfrozen:
            raise ValueError(f"eta of the frozen subset {text} is zero on K({k},{n}), "
                             f"not {out[J]}")
    return out, k, n


def _dump_subset_map(values, k, n):
    """The output form of a {subset: number} map of k-subsets of [1, n]:
    subset keys in sorted order, from the key table, and numbers as exact
    strings.  An empty map builds no table."""
    if not values:
        return {}
    return {text: str(values[J]) for J, text in _subset_keys(k, n)[1].items() if J in values}


# ---------------------------------------------------------------------------
# subcommands

def _expansion(path):
    """(k, n, {subset key: coefficient}) of the noncrossing expansion of the
    combination in an input file, sorted by subset."""
    coeffs, k, n = _load_subset_map(path, "coeffs")
    expansion = roots.noncrossing_decompose(roots.combo_vector(coeffs, k, n), k, n)
    return k, n, _dump_subset_map(expansion, k, n)


def cmd_nc_count(args):
    # the leaf count stored in the search DAG, with no collection built
    count = combinat._search_dag(args.k, args.n, args.max_cliques).count
    expected = combinat.catalan_mdim(args.k, args.n - args.k)
    ok = count == expected
    return _emit(args, {"command": "nc count", "k": args.k, "n": args.n,
                        "count": count, "catalan": expected, "pass": ok}, ok)


def cmd_nc_list(args):
    cols = combinat.enumerate_maximal_noncrossing(args.k, args.n, args.max_cliques)
    keys = _subset_keys(args.k, args.n)[1]
    return _emit(args, {"command": "nc list", "k": args.k, "n": args.n,
                        "collections": [[keys[J] for J in c] for c in cols]})


def cmd_nc_degree(args):
    k, n, expansion = _expansion(args.input)
    return _emit(args, {"command": "nc degree", "k": k, "n": n,
                        "degree": len(expansion), "expansion": expansion})


def cmd_decompose(args):
    k, n, expansion = _expansion(args.input)
    return _emit(args, {"command": "decompose", "k": k, "n": n,
                        "expansion": expansion, "degree": len(expansion)})


def cmd_volume(args):
    vol = polytope.triangulation_volume(args.k, args.n, args.max_cliques)
    expected = combinat.catalan_mdim(args.k, args.n - args.k)
    ok = vol == expected
    return _emit(args, {"command": "volume", "k": args.k, "n": args.n,
                        "relative_volume": vol, "catalan": expected, "pass": ok}, ok)


def cmd_pk(args):
    P = polytope.pk_polytope(args.k, args.n)
    if args.action == "facets":
        payload = {"command": "pk facets", "k": args.k, "n": args.n,
                   "facets": len(P.inequalities),
                   "inequalities": [{"const": str(c), "coeffs": [str(a) for a in coeffs]}
                                    for (c, coeffs) in P.inequalities]}
    elif args.action == "vertices":
        payload = {"command": "pk vertices", "k": args.k, "n": args.n,
                   "count": len(P.vertices),
                   "vertices": [[str(x) for x in v] for v in P.vertices]}
    else:
        payload = {"command": "pk fvector", "k": args.k, "n": args.n,
                   "f_vector": P.f_vector()}
    return _emit(args, payload)


def cmd_newton(args):
    report = polytope.tau_newton_facets(args.k, args.n)
    payload = {"command": "newton", "k": args.k, "n": args.n,
               "facets": len(report["polytope"].inequalities),
               "vertices": len(report["polytope"].vertices),
               "lambda": [str(x) for x in report["lambda"]],
               "constants": _dump_subset_map(report["constants"], args.k, args.n),
               "hrep_agrees": report["agrees"]}
    if args.fvector:
        payload["f_vector"] = report["polytope"].f_vector()
    return _emit(args, payload, report["agrees"])


def cmd_ucheck(args):
    if args.J is None and args.mode == "random":
        # batch mode shares the u evaluations across all subsets per point
        verdict = polynomial.binary_identities_random_all(
            args.k, args.n, trials=args.trials, seed=args.seed)
        return _emit(args, {"command": "u-check", **verdict}, verdict["pass"])
    targets = ([parse_subset(args.J)] if args.J is not None
               else combinat.nonfrozen_subsets(args.k, args.n))
    results = []
    ok = True
    for J in targets:
        verdict = polynomial.binary_identity_check(
            J, args.k, args.n, mode=args.mode, trials=args.trials, seed=args.seed)
        ok &= verdict["pass"]
        results.append(verdict)
    return _emit(args, {"command": "u-check", "k": args.k, "n": args.n,
                        "mode": args.mode, "seed": args.seed,
                        "checked": len(results), "pass": ok,
                        "failures": [v for v in results if not v["pass"]]}, ok)


def cmd_amplitude(args):
    k, n = args.k, args.n
    nf = combinat._nonfrozen(k, n)[0]
    seed = args.seed
    if args.pk:
        values = dict.fromkeys(nf, 1)
        source = "pk"
    elif args.eta == "random-interior":
        point = kinematics.interior_kd_point(k, n, seed=seed)
        values = kinematics.kin_basis(k, n).eta_values(point)
        source = "random-interior"
    else:
        values = _load_subset_map(args.eta, "eta", k, n)[0]
        source = args.eta
    if args.shift:
        hats = kinematics.eta_hat_shift(n)
        values = {J: hats[J].on_eta(values) for J in nf}
    zeros = [J for J in nf if not values.get(J)]
    if zeros:
        return _emit(args, {"command": "amplitude", "k": k, "n": n,
                            "error": "zero pole",
                            "poles": [subset_key(J) for J in zeros]}, ok=False)
    value = kinematics.nc_amplitude(k, n, values, args.max_cliques)
    terms = combinat.catalan_mdim(k, n - k)
    return _emit(args, {"command": "amplitude", "k": k, "n": n, "source": source,
                        "shift": bool(args.shift), "seed": seed,
                        "value": str(value), "terms": terms})


def cmd_kinematics_basis(args):
    B = kinematics.kin_basis(args.k, args.n)
    return _emit(args, {"command": "kinematics basis", "k": args.k, "n": args.n,
                        "dimension": len(B.basis), "nonfrozen": len(B.nonfrozen)})


# eta-to-s reads and checks the input before the basis is built; s-to-eta
# leaves momentum conservation to `KinBasis.eta_values`

def cmd_eta_to_s(args):
    k, n = args.k, args.n
    etas = _load_subset_map(args.input, "eta", k, n)[0]
    gap = next((J for J in combinat._nonfrozen(k, n)[0] if J not in etas), None)
    if gap:
        raise ValueError(f"{args.input}: no eta for the subset {subset_key(gap)}")
    point = kinematics.kin_basis(k, n).point_from_eta(etas)
    return _emit(args, {"command": "kinematics eta-to-s", "k": k, "n": n,
                        "s": _dump_subset_map(point, k, n)})


def cmd_s_to_eta(args):
    k, n = args.k, args.n
    point = _load_subset_map(args.input, "s", k, n)[0]
    values = kinematics.kin_basis(k, n).eta_values(point)
    return _emit(args, {"command": "kinematics s-to-eta", "k": k, "n": n,
                        "eta": _dump_subset_map(values, k, n)})


def cmd_search(args):
    """Search for a counterexample to the positivity of eta-hat flips on
    interior points of the planar cone; reports the minimum flip value
    found (the underlying question is open, nothing is asserted)."""
    k, n = 3, args.n
    hats = kinematics.eta_hat_shift(n)
    B = kinematics.kin_basis(k, n)
    quads = _flip_quadruples(k, n)
    worst = None
    violations = []
    for t in range(args.trials):
        etas = B.eta_values(kinematics.interior_kd_point(k, n, seed=args.seed + t))
        hat = {J: f.on_eta(etas) for J, f in hats.items()}
        for (I, J, I2, J2) in quads:
            val = hat[I2] + hat[J2] - hat[I] - hat[J]
            if worst is None or val < worst[0]:
                worst = (val, t, (I, J, I2, J2))
            if val <= 0:
                violations.append({
                    "trial": t,
                    "noncrossing_pair": [subset_key(I), subset_key(J)],
                    "crossing_pair": [subset_key(I2), subset_key(J2)],
                    "value": str(val)})
    return _emit(args, {"command": "search", "k": k, "n": n,
                        "trials": args.trials, "seed": args.seed,
                        "quadruples": len(quads),
                        "min_flip_value": str(worst[0]) if worst else None,
                        "violations": violations})


def _flip_quadruples(k, n):
    """Quadruples (I, J, I', J') with gamma_I + gamma_J = gamma_I' +
    gamma_J', the first pair noncrossing and the second not, read off the
    cached fan's dense gamma rows and noncrossing graph."""
    fan = roots._fan(k, n)
    verts, gammas = fan.verts, fan.gammas
    groups = {}
    for a, b in combinations(range(len(verts)), 2):
        groups.setdefault(tuple(map(add, gammas[a], gammas[b])), []).append((a, b))
    quads = []
    for pairs in groups.values():
        if len(pairs) < 2:
            continue
        nc = [(a, b) for (a, b) in pairs if fan.adj[a] >> b & 1]
        if len(nc) != 1:
            continue
        i, j = nc[0]
        quads += [(verts[i], verts[j], verts[a], verts[b]) for (a, b) in pairs if (a, b) != (i, j)]
    return quads


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that reads an option only under its full name;
    its subparsers are of its own class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser():
    top = _Parser(
        prog="grascat",
        description="exact computations for noncrossing complexes, generalized "
                    "root systems, PK polytopes and noncrossing amplitudes")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, func, kn=True):
        # every parser that runs a command: its shared options and handler
        if kn:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None)
        p.set_defaults(func=func)

    def max_cliques(p):
        p.add_argument("--max-cliques", type=int, default=combinat.MAX_COLLECTIONS)

    # nc and kinematics: one subparser per action, with exactly the options
    # that action reads
    nc = sub.add_parser("nc", help="noncrossing complex queries").add_subparsers(
        dest="action", required=True)
    for action, func in (("count", cmd_nc_count), ("list", cmd_nc_list)):
        p = nc.add_parser(action)
        common(p, func)
        max_cliques(p)
    p = nc.add_parser("degree")
    p.add_argument("--input", required=True)
    common(p, cmd_nc_degree, kn=False)

    p = sub.add_parser("decompose", help="noncrossing expansion of a combination")
    p.add_argument("--input", required=True)
    common(p, cmd_decompose, kn=False)

    p = sub.add_parser("volume", help="relative volume of the root polytope")
    common(p, cmd_volume)
    max_cliques(p)

    p = sub.add_parser("pk", help="PK polytope reports")
    p.add_argument("action", choices=("facets", "vertices", "fvector"))
    common(p, cmd_pk)

    p = sub.add_parser("newton", help="facet data of the tau-product Newton polytope")
    p.add_argument("--fvector", action="store_true")
    common(p, cmd_newton)

    p = sub.add_parser("u-check", help="binary identity verification")
    p.add_argument("--J", default=None, help="single subset, e.g. 2,3,6,8")
    p.add_argument("--mode", choices=("symbolic", "random"), default="symbolic")
    p.add_argument("--trials", type=int, default=None, help="random mode only (default 20)")
    p.add_argument("--seed", type=int, default=None, help="random mode only (default 0)")
    common(p, cmd_ucheck)

    p = sub.add_parser("amplitude", help="noncrossing amplitude evaluation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pk", action="store_true")
    source.add_argument("--eta", help="JSON file with an 'eta' map, or 'random-interior'")
    p.add_argument("--shift", action="store_true",
                   help="apply the (3,n) kinematic shift to the eta values")
    p.add_argument("--seed", type=int, default=None,
                   help="--eta random-interior only (default 0)")
    common(p, cmd_amplitude)
    max_cliques(p)

    kin = sub.add_parser("kinematics", help="basis-change utilities").add_subparsers(
        dest="action", required=True)
    common(kin.add_parser("basis"), cmd_kinematics_basis)
    for action, func in (("eta-to-s", cmd_eta_to_s), ("s-to-eta", cmd_s_to_eta)):
        p = kin.add_parser(action)
        p.add_argument("--input", required=True)
        common(p, func)

    p = sub.add_parser("search", help="eta-hat flip positivity search (open question)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    common(p, cmd_search, kn=False)

    return top


@combinat.shape_cache
def _parser():
    """The parser of `main`, built once per process; parsing leaves it
    unchanged."""
    return build_parser()


def _error(message, **extra):
    """Structured failure report on stderr; exit code 2."""
    print(json.dumps({"schema": SCHEMA, "error": message, **extra}), file=sys.stderr)
    return 2


def main(argv=None):
    cap = os.environ.get("GRASCAT_CAP_MB")
    if cap:
        try:
            import resource
            limit = int(cap) << 20
            if limit <= 0:
                raise ValueError("the cap must be a positive number of MB")
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError) as exc:
            return _error(f"cannot apply GRASCAT_CAP_MB={cap!r}: {exc}")
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command in RANDOM_MODE:
        # None marks an option not given: it takes its default, and one given
        # where nothing random runs is rejected
        option, value = RANDOM_MODE[args.command]
        for name, default in (("seed", 0), ("trials", 20)):
            if getattr(args, name, default) is None:
                setattr(args, name, default)
            elif hasattr(args, name) and getattr(args, option) != value:
                parser.error(f"--{name} is read only with --{option} {value}")
    if getattr(args, "trials", 1) < 1:
        parser.error(f"--trials must be at least 1, not {args.trials}")
    if getattr(args, "max_cliques", 1) < 1:
        parser.error(f"--max-cliques must be at least 1, not {args.max_cliques}")
    if getattr(args, "shift", False) and args.k != 3:
        parser.error("--shift is defined for k = 3")
    # exact values of any size print and parse: str() and int() refuse ints
    # over 4300 digits by default (Python 3.10.7 and later)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        # a closed stdout fails here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): as the Python docs'
        # note on SIGPIPE does, point stdout at devnull so that the flush at
        # exit does not fail again, and exit 1 with no report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (combinat.ResourceLimitExceeded, ValueError, OSError) as exc:
        return _error(str(exc))
    except MemoryError:
        return _error(f"out of memory under GRASCAT_CAP_MB={cap!r}" if cap else "out of memory")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
