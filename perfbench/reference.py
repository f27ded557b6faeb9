"""In-process reference figures quoted in the README.

Usage (from the repository root)::

    python3 perfbench/reference.py

Prints, for the host it runs on:

* the fill-versus-sliding ingest gap: ``ECMSketch.add_many`` and
  ``HierarchicalECMSketch.add_many`` arrivals/s with a window longer than the
  trace and with a window of 62,500 clock units;
* that EH state depends on when expiry runs: one 65,536-record trace over
  about 10^6 clock units with window 62,500, expired every 3 batches or only
  at the end, serialized;
* the host's own drift: a fixed in-process ingest loop timed in 1 s slices.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Any

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from repro.core import ECMSketch  # noqa: E402
from repro.queries.hierarchical import HierarchicalECMSketch  # noqa: E402
from repro.serialization import dumps  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

BATCH = 1024


def trace(records: int, family: str) -> tuple[list, list]:
    name = "flat-durable" if family == "wc98" else "hier-dyadic"
    plan = build_plan(WORKLOADS[name], 1, records)
    keys = [plan.key_of(int(k)) for k in plan.keys]
    # Integer clocks advancing by one per arrival on average in both families.
    clocks = np.cumsum(np.random.default_rng(1).integers(0, 3, records)).tolist()
    return keys, clocks


def rate(make: Any, keys: list, clocks: list) -> float:
    sketch = make()
    started = time.perf_counter()
    for start in range(0, len(keys), BATCH):
        sketch.add_many(keys[start : start + BATCH], clocks[start : start + BATCH])
    return len(keys) / (time.perf_counter() - started)


def main() -> int:
    records = 1 << 18
    keys, clocks = trace(records, "wc98")
    for window in (10 ** 9, 62_500):
        made = rate(lambda: ECMSketch.for_point_queries(epsilon=0.05, delta=0.05, window=window),
                    keys, clocks)
        print("ECMSketch.add_many, %d records, window %d: %.0f arrivals/s" % (records, window, made))
    ints, _ = trace(records // 4, "dyadic")
    for window in (10 ** 9, 62_500):
        made = rate(lambda: HierarchicalECMSketch(universe_bits=16, epsilon=0.05, delta=0.05,
                                                  window=window),
                    ints, clocks[: records // 4])
        print("HierarchicalECMSketch.add_many, %d records, window %d: %.0f arrivals/s"
              % (records // 4, window, made))

    keys, clocks = trace(1 << 16, "wc98")
    # Spread the clocks over about 10^6 units (as a day of wc98 requests), so
    # the window slides across most of the trace.
    clocks = [clock * 16 for clock in clocks]
    states = []
    for every in (3, None):
        sketch = ECMSketch.for_point_queries(epsilon=0.05, delta=0.05, window=62_500)
        for index, start in enumerate(range(0, len(keys), BATCH)):
            sketch.add_many(keys[start : start + BATCH], clocks[start : start + BATCH])
            if every is not None and (index + 1) % every == 0:
                sketch.expire(clocks[start + BATCH - 1])
        sketch.expire(clocks[-1])
        states.append(dumps(sketch))
    print("65,536 records over ~10^6 clock units, window 62,500: expired every 3 batches vs"
          " at the end -> states %s"
          " (%d vs %d bytes)" % ("identical" if states[0] == states[1] else "differ",
                                 len(states[0]), len(states[1])))

    keys, clocks = trace(1 << 16, "wc98")
    slices = []
    for _ in range(30):
        sketch = ECMSketch.for_point_queries(epsilon=0.05, delta=0.05, window=10 ** 9)
        started = time.perf_counter()
        done = 0
        while time.perf_counter() - started < 1.0:
            start = done % len(keys)
            sketch.add_many(keys[start : start + BATCH], list(range(done, done + BATCH)))
            done += BATCH
        slices.append(done / (time.perf_counter() - started))
    q1, median, q3 = statistics.quantiles(slices, n=4)
    print("host drift: 30 one-second slices of a fixed ingest loop, median %.0f arrivals/s,"
          " range %.0f-%.0f, quartile spread %.3f"
          % (median, min(slices), max(slices), (q3 - q1) / median))
    return 0


if __name__ == "__main__":
    sys.exit(main())
