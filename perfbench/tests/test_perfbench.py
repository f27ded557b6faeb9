"""Tests of the served-tier benchmark, at ``--size small``.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(BENCH, "hook")]

import oracle  # noqa: E402
from workloads import WORKLOADS, arrivals_for, build_plan  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run(workload: str, seed: int = 3, trace: int = 0, env: dict | None = None) -> tuple[int, dict, str]:
    command = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.6", "--trace", str(trace), "--size", "small"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300,
                               env=dict(os.environ, **(env or {})))
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return completed.returncode, result, completed.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_passes_every_check(workload: str) -> None:
    code, result, output = run(workload)
    assert code == 0, output
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, op, failure", [
    ("flat-durable", "point", "point probes"),
    ("flat-durable", "self_join", "self_join:"),
    ("hier-dyadic", "range", "range ["),
    ("hier-dyadic", "heavy_hitters", "heavy_hitters("),
    ("hier-dyadic", "quantiles", "quantile("),
    ("multisite-sliding", "point", "point probes"),
])
def test_perturbed_served_answer_fails_its_check(workload: str, op: str, failure: str) -> None:
    code, result, output = run(workload, env={"PERFBENCH_PERTURB": op})
    assert code == 1
    assert result["correct"] is False and result["failed"] == 0
    assert "CHECK FAILED: live: " + failure in output
    assert "CHECK FAILED: recovered: " + failure in output


def test_traced_run_reports_every_layer_on_its_path() -> None:
    code, result, output = run("hier-dyadic", trace=1)
    assert code == 0, output
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # One add_many (and one hash pass) per dyadic level and ingest batch.
    assert metrics["ecm.add_many_calls_per_batch"] == 16
    assert metrics["hash.calls_per_batch"] == 16
    assert metrics["router.fanouts_per_query"] >= 1
    for name in ("service.apply_us_per_arrival", "hier.add_many_us_per_arrival",
                 "journal.recover_s", "snapshot.load_ms", "router.shard_wait_ms"):
        assert metrics[name] > 0, name


def test_plans_repeat_per_seed() -> None:
    for workload in WORKLOADS.values():
        n = arrivals_for(workload, 0.5)
        first, again, other = (build_plan(workload, seed, n) for seed in (5, 5, 6))
        assert np.array_equal(first.keys, again.keys) and np.array_equal(first.clocks, again.clocks)
        assert first.queries == again.queries and first.probes == again.probes
        assert not np.array_equal(first.keys, other.keys)
        # The operation sequence (not its content) is the same for every seed.
        assert [q[:2] for q in first.queries] == [q[:2] for q in other.queries]
        assert [p[0] for p in first.probes] == [p[0] for p in other.probes]
        assert first.window == other.window and first.period == other.period


def test_dyadic_blocks_match_a_greedy_cover() -> None:
    rng = np.random.default_rng(0)
    for _ in range(200):
        lo, hi = sorted(int(x) for x in rng.integers(0, 1 << 16, 2))
        blocks, position = 0, lo
        while position <= hi:
            level = 0
            while position % (1 << (level + 1)) == 0 and position + (1 << (level + 1)) - 1 <= hi:
                level += 1
            position += 1 << level
            blocks += 1
        assert oracle.dyadic_blocks(lo, hi) == blocks


def test_round_clocks_follow_the_per_record_rule() -> None:
    clocks = np.cumsum(np.random.default_rng(1).integers(0, 3, 5000)) + 1
    expected, scheduled = [], None
    for index, clock in enumerate(clocks.tolist()):
        if scheduled is None:
            scheduled = clock + 100
        elif clock >= scheduled:
            expected.append((float(clock), index))
            scheduled = clock + 100
    assert oracle.round_clocks(clocks, 100) == expected


def test_oracle_rejects_answers_outside_the_bounds() -> None:
    keys = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3] * 10)
    clocks = np.arange(1, keys.size + 1)
    truth = oracle.WindowOracle(keys, clocks, window=1000, domain=4)
    exact = [("point", {"key": k}, float(truth.frequency(k))) for k in range(4)]
    assert oracle.check_answers(truth, exact, 0.05, 0.05, int).ok
    off = [("point", {"key": k}, f + 50.0) for _, params, f in exact for k in [params["key"]]]
    assert not oracle.check_answers(truth, off, 0.05, 0.05, int).ok
    assert not oracle.check_answers(truth, [("self_join", {}, 0.0)], 0.05, 0.05, int).ok
    heavy = [(3, 40.0), (2, 30.0)]
    assert oracle.check_answers(truth, [("heavy_hitters", {"phi": 0.3}, heavy)], 0.05, 0.05, int).ok
    assert not oracle.check_answers(truth, [("heavy_hitters", {"phi": 0.3}, [])], 0.05, 0.05, int).ok
    # Key 1 holds 20%, below phi - eps = 25%: reporting it breaks precision.
    light = heavy + [(1, 30.0)]
    assert not oracle.check_answers(truth, [("heavy_hitters", {"phi": 0.3}, light)], 0.05, 0.05, int).ok
