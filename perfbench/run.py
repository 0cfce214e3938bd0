"""grascat benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 10 --trace 0

One process and one thread run the workload's fixed op list (built from
``--seed`` and sized from ``--seconds``) back to back: the next op starts
when the last returns.  Each op's output is checked as soon as its timer
stops, and then dropped unless a later check needs it.

Times are host-speed-normalised (see hostspeed.py): before every op the
benchmark times a fixed reference kernel that calls no grascat code, and
each op's wall time is scaled by REF_S over the kernel's median time around
that op.  The raw wall-clock figures are in the metadata line.

``--trace 0`` reports the end-to-end metrics: ops_per_s, op_p50_ms,
op_p90_ms, setup_s (median of three fresh set-ups: this process and two
child interpreters, each importing grascat and running one warm-up op per
(k, n) shape), and peak_rss_mb.  ``--trace 1`` runs the first half of the op
list twice, once with span wrappers around the library's public functions,
and reports the per-layer metrics, the tracing overhead, and a span file
under .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before the metric table
holds the run metadata.  The exit code is 0 whenever a result is printed,
and nonzero when the benchmark cannot run (for example when src/grascat is
missing).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# kernel runs around each set-up that give its host-speed scale
SETUP_REFS = 5
PROBE_TIMEOUT_S = 150


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time import plus warm-up and print the seconds")
    return ap.parse_args(argv)


def check_source():
    """The package under test must come from this checkout's src/."""
    if not (ROOT / "src" / "grascat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/grascat under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))


def set_up(workload, warm, warm_paths):
    """Import grascat and run the warm-up ops.  Returns (lib, raw seconds,
    normalised seconds).  The import and each warm-up op is one segment,
    scaled by the kernel runs just before and after it."""
    refs = [hostspeed.reference_seconds(workload) for _ in range(SETUP_REFS)]
    raw = nominal = 0.0

    def segment(fn, *args):
        nonlocal raw, nominal, refs
        start = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - start
        after = [hostspeed.reference_seconds(workload) for _ in range(SETUP_REFS)]
        raw += seconds
        nominal += seconds * hostspeed.REF_S[workload] / statistics.median(refs + after)
        refs = after
        return out

    lib = segment(workloads.load_library)
    runner = workloads.Runner(lib, warm_paths)
    for i, op in enumerate(warm):
        segment(runner.run, i, op)
    return lib, raw, nominal


class Phase:
    """Ops run back to back: per op, in run order, its wall seconds and the
    reference kernel's seconds just before it; failure reasons by op index."""

    def __init__(self, workload, ops, lib):
        self.workload, self.ops, self.lib = workload, ops, lib
        self.order, self.wall, self.refs = [], [], []
        self.failures = {}
        self._needed = workloads.referenced(ops)
        self._kept = {}

    def run(self, indices, call):
        ops = self.ops
        for i in indices:
            self.refs.append(hostspeed.reference_seconds(self.workload))
            start = time.perf_counter()
            try:
                result = call(i, ops[i])
            except Exception as exc:  # a raising op is a failed op, not a crash
                result = exc
            self.wall.append(time.perf_counter() - start)
            self.order.append(i)
            self._check(i, result)

    def _check(self, i, result):
        if isinstance(result, Exception):
            self.failures[i] = f"raised {type(result).__name__}: {result}"
            return
        self._kept[i] = result
        try:
            reason = workloads.check(i, self.ops, self._kept, self.lib)
        except Exception as exc:  # malformed output is a wrong answer
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            self.failures[i] = reason
        if i not in self._needed:
            del self._kept[i]

    def nominal(self):
        """Each op's wall seconds at the nominal host speed, in run order."""
        return [w * s for w, s in zip(self.wall, hostspeed.local_scale(self.workload, self.refs))]


def setup_probe(args):
    """(raw, normalised) set-up seconds of one fresh interpreter running
    this same script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    raw, nominal = json.loads(proc.stdout.strip().splitlines()[-1])
    return raw, nominal


def percentile_ms(latencies):
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


def metadata(args, ops, counts):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        # stop git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "op_list_sha256": workloads.digest(ops), **counts}


def class_summary(ops, phase):
    """Median nominal latency (ms) and op count per op class."""
    by_class = {}
    for i, lat in zip(phase.order, phase.nominal()):
        by_class.setdefault(workloads.op_class(ops[i]), []).append(lat)
    return {c: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3}
            for c, v in sorted(by_class.items())}


def run_untraced(args, ops, lib, runner, setup_first):
    phase = Phase(args.workload, ops, lib)
    gc.collect()
    phase.run(range(len(ops)), runner.run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_first] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    nominal = phase.nominal()
    p50, p90 = percentile_ms(nominal)
    wall_p50, wall_p90 = percentile_ms(phase.wall)
    metrics = {
        "ops_per_s": (len(ops) / sum(nominal), "op/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(s for _raw, s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    counts = {"ops": len(ops), "latency_samples": len(nominal),
              "setup_samples": len(setups),
              "host_speed": statistics.median(hostspeed.REF_S[args.workload] / r
                                            for r in phase.refs),
              "wall": {"ops_per_s": len(ops) / sum(phase.wall), "op_p50_ms": wall_p50,
                       "op_p90_ms": wall_p90, "setup_s": [raw for raw, _s in setups]},
              "classes": class_summary(ops, phase)}
    return metrics, phase.failures, counts


def run_traced(args, ops, lib, runner):
    """Each cycle of the first half of the op list runs twice, untraced and
    traced, in alternating order, so the tracing overhead is measured on the
    same inputs and machine state and warm caches favour neither side."""
    from tracing import Tracer

    cycle = len(workloads.CYCLES[args.workload])
    tracer = Tracer(lib)

    def traced_call(i, op):
        return tracer.run_op(i, workloads.op_class(op), runner.run, i, op)

    plain, traced = Phase(args.workload, ops, lib), Phase(args.workload, ops, lib)
    gc.collect()
    for c, first in enumerate(range(0, len(ops) // 2, cycle)):
        indices = range(first, first + cycle)
        for with_trace in ((False, True) if c % 2 == 0 else (True, False)):
            if not with_trace:
                plain.run(indices, runner.run)
                continue
            tracer.install()
            try:
                traced.run(indices, traced_call)
            finally:
                tracer.uninstall()
    failures = dict(plain.failures)
    failures.update({f"{i}-traced": r for i, r in traced.failures.items()})
    plain_rate = len(plain.order) / sum(plain.nominal())
    traced_rate = len(traced.order) / sum(traced.nominal())
    metrics = tracer.metrics()
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "op/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "op/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "1")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps(tracer.dump()))
    counts = {"ops": len(plain.order) + len(traced.order), "traced_ops": len(traced.order),
              "span_file": str(span_file.relative_to(ROOT)),
              "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
    return metrics, failures, counts


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    check_source()
    ops = workloads.make_ops(args.workload, args.seed,
                             workloads.op_count(args.workload, args.seconds))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        paths = workloads.write_eta_files(ops, workdir)
        warm = workloads.warmup_ops(args.workload)
        warm_paths = workloads.write_eta_files(warm, workdir, "warm")
        lib, setup_raw, setup_s = set_up(args.workload, warm, warm_paths)
        if args.setup_probe:
            print(json.dumps([setup_raw, setup_s]))
            return 0
        runner = workloads.Runner(lib, paths)
        if args.trace:
            metrics, failures, counts = run_traced(args, ops, lib, runner)
        else:
            metrics, failures, counts = run_untraced(args, ops, lib, runner, (setup_raw, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(args, ops, counts)
    meta["failures"] = {str(i): r for i, r in list(failures.items())[:20]}
    attempted = counts["ops"]
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<52} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
