"""Record one run of every benchmark workload into a BENCH_<N>.json file.

    python3 tools/bench_record.py BENCH_51.json [--seconds 10]

For each workload it runs, in a fresh process from the checkout root,

    python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 0

and keeps two lines of its output as `run.py` prints them: the metadata
line (`meta`: commit, Python, nproc, CPU, op-list sha256, ...) and the last
line, the result (`correct`, `attempted`, `failed` and the end-to-end
metrics).  Only the output of `run.py` is read; nothing under perfbench/
is imported.

Every file of the series is recorded with PYTHONDONTWRITEBYTECODE=1 in
the child's environment, so no run writes bytecode, and set-up compiles
the modules that have none cached, as a fresh checkout does.  The file
records the setting.  Exit code 1 when a workload does not report every op
correct with 0 failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("decompose", "identities", "polytopes", "amplitude")
DONT_WRITE_BYTECODE = "1"


def record(workload, seconds, seed=1, root=ROOT):
    """(meta, result) of one fresh run of `workload` in the checkout at
    `root`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE=DONT_WRITE_BYTECODE)
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    meta = next(json.loads(line)["meta"] for line in out if line.startswith('{"meta"'))
    return meta, json.loads(out[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("output", help="the BENCH_<N>.json file to write")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    runs = {}
    for workload in WORKLOADS:
        meta, result = record(workload, args.seconds)
        runs[workload] = {"meta": meta, "result": result}
        print(f"{workload}: {json.dumps(result)}", flush=True)
    report = {"command": "python3 perfbench/run.py --workload W --seed 1 "
                         f"--seconds {args.seconds} --trace 0",
              "PYTHONDONTWRITEBYTECODE": DONT_WRITE_BYTECODE, "workloads": runs}
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    ok = all(r["result"]["correct"] is True and r["result"]["failed"] == 0
             for r in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
