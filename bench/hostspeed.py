"""Yardstick for the host's speed, measured between rounds of tasks.

On a shared host the speed of this process drifts by up to half over
tens of seconds (on a 2-core Xeon VM, a fixed pure-Python loop timed in
5 s chunks ran between 0.13 s and 0.205 s), and CPU time drifts with
wall time, so the drift is slower execution, not waiting.  Code with a
small working set (argument parsing) slows less than the yardstick, so
the scaling corrects the larger tasks best.  Timed runs are therefore scaled by
``NOMINAL_S / reference_seconds()``: a time is reported as it would read
on a host where ``reference_work()`` takes NOMINAL_S.  The reference is
fixed benchmark code with the program's mix of operations (big-integer
convolutions, products over tuple-keyed dicts, prefix scans, string
formatting), so it slows with the host but not with the program.
"""

from __future__ import annotations

import gc
import time
from math import factorial

NOMINAL_S = 0.004
REPEATS = 3


def reference_work() -> int:
    """Fixed pure-Python work, about 4 ms on a 2-core Xeon VM."""
    cat = [1]
    for n in range(40):
        cat.append(cat[-1] * 2 * (2 * n + 1) // (n + 2))
    acc = cat[:]
    for _ in range(3):
        acc = [sum(acc[i] * cat[j - i] for i in range(j + 1)) for j in range(41)]
    terms = {((2, i % 4 + 1), (3, i % 3 + 1), (i % 5 + 4, 1)): factorial(i % 20 + 3)
             for i in range(40)}
    prod: dict = {}
    for a, ca in terms.items():
        for b, cb in terms.items():
            merged = dict(a)
            for k, m in b:
                merged[k] = merged.get(k, 0) + m
            key = tuple(sorted(merged.items()))
            prod[key] = prod.get(key, 0) + ca * cb
    sigma = [2, 0, 3, 0, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0] * 4
    found = 0
    for off in range(len(sigma)):
        cum, ok = 0, True
        rot = sigma[off:] + sigma[:off]
        for i, a in enumerate(rot):
            cum += a - 1
            if cum <= -4 and i + 1 < len(rot):
                ok = False
                break
        found += ok
    text = " + ".join(f"{c}t{k[0][0]}^{k[0][1]}" for k, c in list(prod.items())[:200])
    return acc[-1] + len(prod) + found + len(text)


def reference_seconds() -> float:
    """Fastest of REPEATS timings of reference_work, with the cyclic GC off.

    The GC stays off so that a full collection over the program's heap
    cannot land inside the yardstick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()
