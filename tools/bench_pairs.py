"""Compare two checkouts on one benchmark workload, in alternating pairs.

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py /tmp/parent [--workload identities]
        [--pairs 10] [--seed 1] [--seconds 10] [--change DIR]

Each pair runs the workload once in the parent checkout and once in the
change (this checkout unless --change is given), the parent first in the
odd pairs and the change first in the even ones, each in a fresh process
through `tools/bench_record.py`'s `record`, so with the same
PYTHONDONTWRITEBYTECODE=1 and `--trace 0`.  Give both checkouts without
cached bytecode, as a fresh checkout is, or set-up compiles on one side
only.

For each end-to-end metric it prints the quartiles of either side and the
pairs the change wins, in the direction BENCHMARK.json gives the metric.
A claimed gain wants at least nine wins in ten and a gap between the
medians larger than the parent's interquartile range; the last column
says whether that holds.
Exit code 1 when a run does not report every op correct with 0 failed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import ROOT, record


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the checkout to compare against")
    ap.add_argument("--change", default=str(ROOT), help="the changed checkout")
    ap.add_argument("--workload", default="identities")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = {"parent": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        for side in sorted(runs, reverse=pair % 2 == 0):
            _meta, result = record(args.workload, args.seconds, args.seed,
                                   Path(getattr(args, side)).resolve())
            ok &= result["correct"] is True and result["failed"] == 0
            runs[side].append({m: v["value"] for m, v in result["metrics"].items()})
        print(f"pair {pair + 1}: " + json.dumps({side: r[-1] for side, r in runs.items()}),
              flush=True)
    print(f"{'metric':<12} {'parent q1 / median / q3':>28} {'change q1 / median / q3':>28}"
          f" {'wins':>6}  claim")
    for metric, direction in better.items():
        a = [r[metric] for r in runs["parent"]]
        b = [r[metric] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        claim = wins >= 0.9 * args.pairs and sign * (qb[1] - qa[1]) > qa[2] - qa[0]
        print(f"{metric:<12} {' / '.join(f'{q:.4g}' for q in qa):>28}"
              f" {' / '.join(f'{q:.4g}' for q in qb):>28} {wins:>3}/{args.pairs:<2}  {claim}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
