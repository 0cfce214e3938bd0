"""Host-speed reference: fixed pure-Python kernels timed between ops.

The shared host the benchmark was defined on changes speed by up to about
1.9x for seconds to minutes at a time.  The kernels below do the kinds of
work grascat does but call no grascat code, so no change to the library can
move them.  A workload's times are scaled by ``REF_S[workload]`` over the
time of its kernel mix measured around each op (``local_scale``): a time
reported that way reads as the time the op would take at the host speed
where the mix takes ``REF_S``.

The slow state does not slow all code alike: small-number ``Fraction`` and
hashing work slows about 1.85x, big-number ``Fraction`` arithmetic about
1.45x.  Each workload's mix (``MIX``) weights the two parts the way its own
ops are slowed: the fan walk and the CLI's eta tables like small numbers,
the identity checks' evaluations at rational points like big ones.

    python3 perfbench/hostspeed.py      # time each workload's mix 50 times
"""
from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import combinations

# runs of (small-number kernel, big-number kernel) per reference
MIX = {"decompose": (2, 1), "identities": (1, 6), "polytopes": (2, 2),
       "amplitude": (2, 1)}

# seconds each mix takes at the nominal host speed (about its time on the
# 2-vCPU Xeon host the benchmark was defined on, in its faster state, where
# the small-number kernel takes 0.9 ms and the big-number one 0.5 ms)
REF_S = {"decompose": 0.0023, "identities": 0.0039, "polytopes": 0.0028,
         "amplitude": 0.0023}

_SIZE = 6
_MATRIX = tuple(tuple(Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + j) % 3)
                      for j in range(_SIZE)) for i in range(_SIZE))
_rng = random.Random(0)
_BIG = tuple(Fraction(_rng.getrandbits(400) + 1, _rng.getrandbits(400) + 1)
             for _ in range(24))


def _small():
    """Exact elimination of a small rational matrix, then set hashing."""
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(_SIZE):
        p = next((i for i in range(rank, _SIZE) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(_SIZE):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    seen = {}
    for J in combinations(range(10), 4):
        seen[frozenset(J)] = tuple(x + 1 for x in J)
    return rank, len(seen)


def _big():
    """A sum of products of 400-bit fractions."""
    acc = Fraction(0)
    for a, b in zip(_BIG[::2], _BIG[1::2]):
        acc += a * b
    return acc


def reference_seconds(workload):
    """Wall seconds of one run of the workload's kernel mix, with the
    collector off so that the heap the library has built does not enter
    the figure."""
    small, big = MIX[workload]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(small):
            _small()
        for _ in range(big):
            _big()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_scale(workload, refs, window=3):
    """For each position of ``refs`` (mix seconds, in run order), REF_S over
    the median mix time of the ``window`` positions on either side: the
    factor that turns a wall time measured there into nominal time."""
    out = []
    for i in range(len(refs)):
        near = refs[max(0, i - window):i + window + 1]
        out.append(REF_S[workload] / statistics.median(near))
    return out


if __name__ == "__main__":
    for name in sys.argv[1:] or MIX:
        runs = [reference_seconds(name) for _ in range(50)]
        print(f"{name:<11} median {statistics.median(runs):.6f} s, "
              f"min {min(runs):.6f} s, max {max(runs):.6f} s")
