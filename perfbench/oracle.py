"""Exact sliding-window oracle and the paper's error bounds (no ``repro`` import).

The oracle recomputes, from the generated trace alone, the exact in-window
frequencies, self-join size, ranks and heavy hitters at a probe clock, and
checks served answers against the guarantees of the ECM-sketch paper:

* point queries, Theorem 1: ``|est - f| <= eps * ||a||_1`` for at least a
  ``1 - delta`` share of probes;
* self-join, Theorem 2: ``|est - F2| <= eps_ip * ||a||_1 ** 2``, and on the
  low side ``est >= (1 - eps_sw) ** 2 * F2``: every Count-Min row sums the
  squares of cells that each hold at least ``1 - eps_sw`` of their in-window
  count, so the estimate cannot fall further (on a Zipf trace ``F2`` is
  below ``eps_ip * ||a||_1 ** 2``, so the two-sided bound alone would pass 0);
* heavy hitters, Theorem 5: every key with ``f >= phi ||a||_1`` is reported
  (recall at ``phi``) and no reported key has ``f < (phi - eps) ||a||_1``
  (precision at ``phi - eps``);
* quantiles: the returned key's exact rank interval lies within
  ``eps * ||a||_1`` of ``q * ||a||_1``;
* range sums: within ``blocks * eps * ||a||_1``, ``blocks`` being the size of
  the range's dyadic cover;
* multisite root answers, Theorem 4: the sketch error after the aggregation
  tree's merges, ``eps_sw`` compounding once per tree level.

The error split follows Section 4 for deterministic window counters:
``eps_sw = eps_cm = sqrt(1 + eps) - 1`` and the totals of Theorems 1 and 2.
A window covers clocks in ``(t - W, t]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def split(epsilon: float) -> tuple[float, float]:
    value = math.sqrt(1.0 + epsilon) - 1.0
    return value, value


def point_error(eps_sw: float, eps_cm: float) -> float:
    return eps_sw + eps_cm + eps_sw * eps_cm


def inner_product_error(eps_sw: float, eps_cm: float) -> float:
    return eps_sw ** 2 + 2.0 * eps_sw + eps_cm * (1.0 + eps_sw) ** 2


def merged_eps_sw(eps_sw: float, levels: int) -> float:
    """Window error after ``levels`` order-preserving merges with ``eps' = eps_sw``."""
    value = eps_sw
    for _ in range(levels):
        value = value + eps_sw + value * eps_sw
    return value


def dyadic_blocks(lo: int, hi: int) -> int:
    """Number of maximal dyadic intervals covering ``[lo, hi]``."""
    count = 0
    while lo <= hi:
        size = lo & -lo if lo else 1 << 62
        while size > hi - lo + 1:
            size >>= 1
        lo += size
        count += 1
    return count


def round_clocks(clocks: np.ndarray, period: float) -> list[tuple[float, int]]:
    """``(round clock, index of the record that fired it)`` for every round.

    The first arrival schedules a round ``period`` later; a round fires at
    the first arrival whose clock reaches the scheduled clock (after that
    arrival is observed) and schedules the next one ``period`` after itself.
    """
    rounds = []
    if clocks.size == 0:
        return rounds
    scheduled = float(clocks[0]) + period
    position = 1
    while True:
        index = int(np.searchsorted(clocks[position:], scheduled, side="left")) + position
        if index >= clocks.size:
            return rounds
        clock = float(clocks[index])
        rounds.append((clock, index))
        scheduled = clock + period
        position = index + 1


@dataclass
class Verdict:
    """Outcome of one set of checks; ``failures`` lists what broke."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)


class WindowOracle:
    """Exact answers over the records ``[0, stop)`` of a trace at clock ``now``."""

    def __init__(self, keys: np.ndarray, clocks: np.ndarray, window: float,
                 stop: int | None = None, domain: int | None = None) -> None:
        stop = keys.size if stop is None else stop
        now = float(clocks[stop - 1])
        live = clocks[:stop] > now - window
        self.now = now
        self.frequencies = np.bincount(keys[:stop][live],
                                       minlength=domain or int(keys.max()) + 1).astype(np.int64)
        self.total = int(self.frequencies.sum())

    def frequency(self, key_id: int) -> int:
        return int(self.frequencies[key_id]) if 0 <= key_id < self.frequencies.size else 0

    def self_join(self) -> int:
        return int(np.dot(self.frequencies, self.frequencies))

    def heavy_hitters(self, threshold: float) -> set[int]:
        return {int(k) for k in np.flatnonzero(self.frequencies >= threshold)}

    def rank_interval(self, key: int) -> tuple[int, int]:
        cumulative = np.cumsum(self.frequencies)
        below = int(cumulative[key - 1]) if key > 0 else 0
        return below, int(cumulative[key])

    def range_sum(self, lo: int, hi: int) -> int:
        return int(self.frequencies[lo : hi + 1].sum())


def check_answers(
    oracle: WindowOracle,
    probes: list[tuple[str, dict, Any]],
    epsilon: float,
    delta: float,
    key_id: Any,
    merge_levels: int = 0,
) -> Verdict:
    """Check served probe answers ``(op, params, answer)`` against ``oracle``.

    ``key_id`` maps a served key back to its trace id.  ``merge_levels`` is
    the depth of the aggregation tree the answers went through (0 = none).
    """
    eps_sw, eps_cm = split(epsilon)
    eps_sw = merged_eps_sw(eps_sw, merge_levels)
    eps = point_error(eps_sw, eps_cm)
    eps_ip = inner_product_error(eps_sw, eps_cm)
    total = oracle.total
    verdict = Verdict()
    point_misses: list[str] = []
    points = 0
    for op, params, answer in probes:
        if op == "point":
            truth = oracle.frequency(key_id(params["key"]))
            points += 1
            if not (math.isfinite(answer) and abs(answer - truth) <= eps * total):
                point_misses.append(
                    "point %r: served %r, exact %d, bound %.1f" % (params["key"], answer, truth, eps * total)
                )
        elif op == "self_join":
            truth = oracle.self_join()
            floor = (1.0 - eps_sw) ** 2 * truth
            verdict.expect(
                math.isfinite(answer) and floor <= answer and abs(answer - truth) <= eps_ip * total * total,
                "self_join: served %r, exact %d, floor %.1f, bound %.1f"
                % (answer, truth, floor, eps_ip * total * total),
            )
        elif op == "heavy_hitters":
            phi = params["phi"]
            reported = {int(key) for key, _ in answer}
            missing = oracle.heavy_hitters(phi * total) - reported
            verdict.expect(not missing, "heavy_hitters(%g): missed %s" % (phi, sorted(missing)[:5]))
            weak = {k for k in reported if oracle.frequency(k) < (phi - eps) * total}
            verdict.expect(not weak, "heavy_hitters(%g): reported light keys %s" % (phi, sorted(weak)[:5]))
        elif op == "quantiles":
            for fraction, key in zip(params["fractions"], answer):
                below, upto = oracle.rank_interval(int(key))
                target = fraction * total
                error = 0.0 if below <= target <= upto else min(abs(target - below), abs(target - upto))
                verdict.expect(
                    error <= eps * total,
                    "quantile(%g) = %d: rank in [%d, %d], target %.1f, bound %.1f"
                    % (fraction, key, below, upto, target, eps * total),
                )
        elif op == "range":
            lo, hi = params["lo"], params["hi"]
            truth = oracle.range_sum(lo, hi)
            bound = dyadic_blocks(lo, hi) * eps * total
            verdict.expect(
                math.isfinite(answer) and abs(answer - truth) <= bound,
                "range [%d, %d]: served %r, exact %d, bound %.1f" % (lo, hi, answer, truth, bound),
            )
        else:
            verdict.failures.append("no check for probe op %r" % (op,))
    # Theorem 1 holds per probe with probability 1 - delta.
    verdict.expect(
        len(point_misses) <= delta * points,
        "point probes: %d of %d outside the Theorem 1 bound (allowed share %g): %s"
        % (len(point_misses), points, delta, "; ".join(point_misses[:3])),
    )
    return verdict
