"""Compare two checkouts in alternating pairs, on one perfbench workload or
on one CLI command.

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/pairs.py /tmp/parent [--change DIR] [--pairs 10] \\
        (--workload identities [--seed 1] [--seconds 10] | -- u-check --k 6 --n 12)

Each pair runs once in the parent checkout and once in the change (this
checkout unless --change is given), each in a fresh process, the parent
first in the odd pairs and the change first in the even ones.  What one run
is, is the only difference between the two modes:

- a workload run is `tools/bench_record.py`'s `record`, so `perfbench/run.py
  --workload W --seed S --seconds T --trace 0` with PYTHONDONTWRITEBYTECODE=1.
  Give both checkouts without cached bytecode, as a fresh checkout is, or
  set-up compiles on one side only.  Its metrics are BENCHMARK.json's
  end-to-end metrics, in the directions given there;
- a CLI run is `python -m grascat.cli ARGV` from the checkout's `src`, both
  `src` trees compiled first (`compileall`), so every run reads cached
  bytecode.  Its metrics are the wall seconds and the peak RSS of that child
  alone (`ru_maxrss` from `os.wait4`, which Linux gives in KB, over 1024),
  both lower is better, and it prints the sha256 of its stdout.

It prints each run's metrics, then for each metric the quartiles of either
side, the pairs the change wins and whether a gain may be claimed: at least
ten pairs, at least nine wins in ten, and a gap between the medians larger
than the parent's interquartile range.  With fewer than ten pairs the claim
column reads "-".
Exit code 1 when a workload run does not report every op correct with 0
failed, when a CLI run exits nonzero, or when the CLI runs' stdouts differ;
exit code 2, with the usage, when both --workload and a command are given,
or neither.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from bench_record import ROOT, record

CLAIM_PAIRS = 10  # the fewest pairs that may claim a gain


def workload_run(workload, seed, seconds, root):
    """One run of `workload` in the checkout at `root`: (its end-to-end
    metrics, every op correct with 0 failed, None)."""
    _meta, result = record(workload, seconds, seed, root)
    return ({m: v["value"] for m, v in result["metrics"].items()},
            result["correct"] is True and result["failed"] == 0, None)


def cli_run(argv, root):
    """One `python -m grascat.cli argv` from the `src` of the checkout at
    `root`: ({wall_s, peak_mb}, exit code 0, stdout sha256)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "grascat.cli", *argv], cwd=root / "src",
                          stdout=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}) as proc:
        digest = hashlib.sha256(proc.stdout.read()).hexdigest()
        # this child's own rusage, not the sum over every child reaped so far
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = round(time.perf_counter() - start, 3)
    return {"wall_s": wall, "peak_mb": round(usage.ru_maxrss / 1024, 1)}, proc.returncode == 0, digest


def quartiles(values):
    """(first quartile, median, third quartile) of `values`; a lone value
    is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the checkout to compare against")
    ap.add_argument("--change", default=str(ROOT), help="the changed checkout")
    ap.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    ap.add_argument("--workload", help="the perfbench workload to run, instead of a command")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if (args.workload is None) == (not command):
        ap.error("give either --workload W or a grascat command line after --")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {side: Path(getattr(args, side)).resolve() for side in ("parent", "change")}
    if command:
        better = {"wall_s": "lower", "peak_mb": "lower"}
        run = partial(cli_run, command)
        for root in roots.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                           check=True)
    else:
        better = {m["name"]: m["better"]
                  for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        run = partial(workload_run, args.workload, args.seed, args.seconds)
    runs = {"parent": [], "change": []}
    digests, ok = set(), True
    for pair in range(args.pairs):
        for side in sorted(runs, reverse=pair % 2 == 0):
            metrics, passed, digest = run(roots[side])
            ok &= passed
            digests.add(digest)
            runs[side].append(metrics)
            print(f"pair {pair + 1} {side:<6} {json.dumps(metrics)}"
                  f"{f'  sha256 {digest}' if digest else ''}{'' if passed else '  FAILED'}",
                  flush=True)
    print(f"{'metric':<12} {'parent q1 / median / q3':>28} {'change q1 / median / q3':>28}"
          f" {'wins':>6}  claim")
    for metric, direction in better.items():
        a = [r[metric] for r in runs["parent"]]
        b = [r[metric] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        claim = (wins >= 0.9 * args.pairs and sign * (qb[1] - qa[1]) > qa[2] - qa[0]
                 if args.pairs >= CLAIM_PAIRS else "-")
        print(f"{metric:<12} {' / '.join(f'{q:.4g}' for q in qa):>28}"
              f" {' / '.join(f'{q:.4g}' for q in qb):>28} {wins:>3}/{args.pairs:<2}  {claim}")
    if command:
        print(f"stdout identical across every run: {len(digests) == 1}")
    return 0 if ok and len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
