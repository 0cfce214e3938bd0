"""Compare two checkouts on one CLI command, in alternating pairs.

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/cli_pairs.py /tmp/parent [--change DIR] [--pairs N] \\
        -- u-check --k 6 --n 12

Each pair runs `python -m grascat.cli ARGV` once from the parent's `src`
and once from the change's (this checkout unless --change is given), each
in a fresh process, the parent first in the odd pairs and the change first
in the even ones.  Both `src` trees are compiled first (`compileall`), so
every run reads cached bytecode.

For each run it prints the wall seconds, the peak RSS of that child alone
(`ru_maxrss` from `os.wait4`, which Linux gives in KB, over 1024) and the sha256 of its
stdout; then the quartiles of either side's wall seconds and peaks, and
whether every run printed the same stdout.
Exit code 1 when a run exits nonzero or the stdouts differ.
"""
import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(src, argv):
    """(wall seconds, peak RSS in MB, stdout sha256, exit code) of one
    `python -m grascat.cli argv` from the `src` directory `src`."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "grascat.cli", *argv], cwd=src,
                                stdout=out, env={**os.environ, "PYTHONPATH": str(src)})
        # this child's own rusage, not the sum over every child reaped so far
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return wall, usage.ru_maxrss / 1024, digest, proc.returncode


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
    ap.add_argument("--pairs", type=int, default=2)
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv[-1] == "--":
        ap.error("give the grascat command line after --")
    cut = argv.index("--")
    args, cli_argv = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    srcs = {side: Path(getattr(args, side)).resolve() / "src" for side in ("parent", "change")}
    for src in srcs.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True)
    runs = {"parent": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        for side in sorted(runs, reverse=pair % 2 == 0):
            wall, peak, digest, code = run(srcs[side], cli_argv)
            ok &= code == 0
            runs[side].append((wall, peak, digest))
            print(f"pair {pair + 1} {side:<6} {wall:8.2f} s {peak:8.1f} MB  sha256 {digest}"
                  f"{'' if code == 0 else f'  exit {code}'}", flush=True)
    print(f"{'side':<6} {'wall s q1 / median / q3':>28} {'peak MB q1 / median / q3':>28}")
    for side, rows in runs.items():
        wall, peak = (quartiles([r[i] for r in rows]) for i in (0, 1))
        print(f"{side:<6} {' / '.join(f'{q:.2f}' for q in wall):>28}"
              f" {' / '.join(f'{q:.1f}' for q in peak):>28}")
    same = len({r[2] for rows in runs.values() for r in rows}) == 1
    print(f"stdout identical across every run: {same}")
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
