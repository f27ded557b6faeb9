"""Served-tier benchmark: one workload against real ``repro serve`` processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flat-durable --seed 1 --seconds 10 --trace 0

One closed-loop generator (this process, one connection, one request in
flight) drives the tier through the public ``ServiceClient``.  A run

1. builds its trace and operation plan from ``--seed`` before any timing;
2. boots the tier several times with an empty journal (``setup_s`` is the
   median launch-to-first-answer time) and keeps the last boot;
3. streams the trace (the timed phase) in rounds of ingest batches, each
   round ending with one query, with ``expire`` at a fixed cadence (and a
   ``drain`` after every ingest on multisite), one ``snapshot`` at the
   midpoint, then ``drain``;
4. issues a final ``expire``, reads ``stats`` and checks the probe answers
   against the exact oracle (:mod:`oracle`) under the paper's bounds;
5. SIGKILLs every serving process, restarts the tier on the snapshot and
   journal, and checks the recovered tier (exactly-once count and bounds);
   it does so several times (``recovery_s`` is the median).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (:mod:`layers`) with ``--trace 1``, by
the names and units ``BENCHMARK.json`` lists.  A traced run makes one
untraced pass first, so it can report the tracing overhead.  ``--size
small`` boots and recovers fewer times, for the benchmark's own tests.  Exit
status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import layers
import oracle
from workloads import DELTA, EPSILON, SITES, WORKLOADS, arrivals_for, build_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(HERE, "hook")

#: Boots per run behind ``setup_s`` (one boot was not steady).
SETUP_BOOTS = {"full": 5, "small": 2}
#: Kill/restart cycles per run behind ``recovery_s`` (one was not steady).
RECOVERY_CYCLES = {"full": 3, "small": 2}


def tail(samples: list[float]) -> float:
    """Highest-percentile sample with at least ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def tail_percentile(count: int) -> float:
    return 100.0 * max(1, count - 10) / count


@dataclass
class PassResult:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    timed: tuple[float, float] = (0.0, 0.0)
    arrivals: int = 0
    cpu_seconds: float = 0.0
    batches: int = 0
    queries: int = 0
    ingest_latency: list[float] = field(default_factory=list)
    query_latency: list[float] = field(default_factory=list)
    trace_dirs: dict[str, str] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


async def ask(client: Any, op: str, params: dict) -> Any:
    if op == "point":
        return await client.point(params["key"])
    if op == "self_join":
        return await client.self_join()
    if op == "range":
        return await client.range_query(params["lo"], params["hi"])
    if op == "quantile":
        return await client.quantile(params["fraction"])
    if op == "quantiles":
        return await client.quantiles(params["fractions"])
    if op == "heavy_hitters":
        return [(int(key), float(estimate)) for key, estimate in await client.heavy_hitters(params["phi"])]
    raise ValueError("unknown query op %r" % (op,))


def plausible(op: str, answer: Any, universe: int) -> bool:
    """Sanity of an interleaved answer (its exact value moves while ingest runs)."""
    if op in ("point", "self_join", "range"):
        return isinstance(answer, float) and math.isfinite(answer) and answer >= 0.0
    if op == "quantile":
        return isinstance(answer, int) and 0 <= answer < universe
    if op == "heavy_hitters":
        return all(0 <= key < universe and estimate > 0 for key, estimate in answer)
    return False


def directory_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def wait_for_dumps(directory: str, pids: list[int], timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not all(os.path.exists(os.path.join(directory, "%d.json" % pid)) for pid in pids):
        if time.monotonic() > deadline:
            raise RuntimeError("trace dumps of %r did not appear in %s" % (pids, directory))
        time.sleep(0.02)


class Pass:
    """One pass over a plan: set-up boots, timed phase, checks, recovery."""

    def __init__(self, plan: Any, work: str, traced: bool, boots: int, cycles: int) -> None:
        self.plan = plan
        self.work = work
        self.traced = traced
        self.boots = boots
        self.cycles = cycles
        self.result = PassResult()
        self.tiers: list[Any] = []
        self.journal_dir = os.path.join(work, "journal")
        self.snapshot_path = os.path.join(work, "snapshot.json")
        self.serve_args = plan.serve_args(self.journal_dir, self.snapshot_path)
        os.makedirs(work, exist_ok=True)
        workload = plan.workload
        if workload.mode == "multisite":
            # Root answers are those of the last aggregation round.
            self.round_clock, last = oracle.round_clocks(plan.clocks, plan.period)[-1]
            self.truth = oracle.WindowOracle(plan.keys, plan.clocks, plan.window,
                                             stop=last + 1, domain=plan.domain)
            self.merge_levels = math.ceil(math.log2(SITES))
        else:
            self.round_clock = None
            self.truth = oracle.WindowOracle(plan.keys, plan.clocks, plan.window, domain=plan.domain)
            self.merge_levels = 0

    async def op(self, coroutine: Any) -> tuple[bool, Any]:
        """Await one protocol operation, counting it as attempted/failed."""
        self.result.attempted += 1
        try:
            return True, await coroutine
        except Exception as exc:  # every failed operation is counted and reported
            self.result.failed += 1
            self.result.failures.append("%s: %s" % (type(exc).__name__, exc))
            return False, None

    def boot(self, extra: list[str], phase: str | None) -> Any:
        from tier import Tier, serve_env

        trace_dir = None
        if self.traced and phase is not None:
            trace_dir = os.path.join(self.work, "trace-" + phase)
            os.makedirs(trace_dir, exist_ok=True)
            self.result.trace_dirs[phase] = trace_dir
        tier = Tier(self.serve_args + extra, serve_env(SRC, HOOK if self.traced else None, trace_dir))
        self.tiers.append(tier)
        return tier

    async def run(self) -> PassResult:
        try:
            tier = await self.setup()
            acked = await self.timed(tier)
            if self.traced:
                wait_for_dumps(self.result.trace_dirs["live"], tier.signal_all(signal.SIGUSR1))
            await self.recover(tier, acked)
        finally:
            for tier in self.tiers:
                tier.kill()
        return self.result

    async def setup(self) -> Any:
        """Several boots on an empty journal; ``setup_s`` is their median; keeps the last."""
        from repro.service.client import ServiceClient

        times = []
        for attempt in range(self.boots):
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            last = attempt == self.boots - 1
            started = time.perf_counter()
            tier = self.boot([], "live" if last else None)
            probe = await ServiceClient.connect("127.0.0.1", tier.port)
            await self.op(probe.ping())
            times.append(time.perf_counter() - started)
            await probe.close()
            if not last:
                tier.kill()
        self.result.metrics["setup_s"] = statistics.median(times)
        return tier

    async def timed(self, tier: Any) -> int:
        """Stream the plan, then check the live tier; returns the acked arrivals."""
        from tier import connect_counting

        plan, result, m = self.plan, self.result, self.result.metrics
        workload = plan.workload
        batches = plan.batch_lists()
        # The generator's own collector pauses are not the tier's latency:
        # move the trace's objects out of the collector's reach.
        gc.collect()
        gc.freeze()
        client, reader, writer = await connect_counting(tier.port)
        queries = plan.queries
        next_query = 0
        acked = 0
        for index, (keys, clocks, site) in enumerate(batches):
            if index == plan.warmup:
                # (time, serving CPU, acked arrivals, wire bytes) at the start
                # of the timed phase.
                start = (time.perf_counter(), tier.cpu_seconds(), acked, reader.bytes + writer.bytes)
            sent = time.perf_counter()
            ok, accepted = await self.op(client.ingest(keys, clocks, site=site))
            if index >= plan.warmup:
                result.ingest_latency.append(time.perf_counter() - sent)
            acked += int(accepted) if ok else 0
            if workload.drain_each_batch:
                await self.op(client.drain())
            if index == plan.snapshot_after:
                await self.op(client.snapshot())
            if (index + 1) % workload.expire_every == 0:
                await self.op(client.expire())
            while next_query < len(queries) and queries[next_query][0] == index:
                _, op, params = queries[next_query]
                sent = time.perf_counter()
                ok, answer = await self.op(ask(client, op, params))
                result.query_latency.append(time.perf_counter() - sent)
                if ok and not plausible(op, answer, plan.domain):
                    result.failures.append("interleaved %s%r answered %r" % (op, params, answer))
                next_query += 1
        await self.op(client.drain())
        end = time.perf_counter()
        timed_arrivals = acked - start[2]
        result.timed = (start[0], end)
        result.arrivals = timed_arrivals
        result.cpu_seconds = tier.cpu_seconds() - start[1]
        result.batches = len(batches) - plan.warmup
        result.queries = len(queries) + len(plan.probes)
        # The whole timed phase, snapshot included: its write is on the path.
        m["ingest_rate"] = timed_arrivals / (end - start[0])
        m["ingest_ack_p50_ms"] = statistics.median(result.ingest_latency) * 1e3
        m["ingest_ack_tail_ms"] = tail(result.ingest_latency) * 1e3
        m["query_p50_ms"] = statistics.median(result.query_latency) * 1e3
        m["query_tail_ms"] = tail(result.query_latency) * 1e3
        m["server_cpu_us_per_arrival"] = result.cpu_seconds * 1e6 / timed_arrivals
        m["server_peak_rss_mb"] = tier.peak_rss_mb()
        m["wire_bytes_per_arrival"] = (reader.bytes + writer.bytes - start[3]) / timed_arrivals
        m["journal_bytes_per_arrival"] = directory_bytes(self.journal_dir) / acked
        result.notes.append(
            "%d ingest acks (tail = p%.1f), %d interleaved queries (tail = p%.1f)"
            % (len(result.ingest_latency), tail_percentile(len(result.ingest_latency)),
               len(result.query_latency), tail_percentile(len(result.query_latency)))
        )

        await self.op(client.expire())
        ok, stats = await self.op(client.get_stats())
        m["state_bytes"] = float(stats.memory_bytes or 0) if ok else 0.0
        if ok:
            self.check_exactly_once("live", stats, acked)
        await self.check_probes(client, "live")
        await client.close()
        return acked

    async def recover(self, tier: Any, acked: int) -> None:
        """Kill, restart on the same snapshot and journal, time the first correct answer.

        Every cycle kills the tier it recovered last and recovers the same
        state again (recovery does not write the snapshot or the journal).
        ``recovery_s`` is the median; the last cycle is the traced one.
        """
        from repro.service.client import ServiceClient

        times = []
        for cycle in range(self.cycles):
            killed_at = tier.kill()
            last = cycle == self.cycles - 1
            tier = self.boot(["--restore", self.snapshot_path], "recovered" if last else None)
            client = await ServiceClient.connect("127.0.0.1", tier.port)
            ok, stats = await self.op(client.get_stats())
            if ok:
                self.check_exactly_once("recovered", stats, acked)
            times.append(time.perf_counter() - killed_at)
            await self.check_probes(client, "recovered")
            await client.close()
        self.result.metrics["recovery_s"] = statistics.median(times)
        if self.traced:
            wait_for_dumps(self.result.trace_dirs["recovered"], tier.signal_all(signal.SIGUSR1))

    def check_exactly_once(self, phase: str, stats: Any, acked: int) -> None:
        failures = self.result.failures
        if stats.records_ingested != acked:
            failures.append("%s: records_ingested %d != %d acked arrivals"
                            % (phase, stats.records_ingested, acked))
        if self.round_clock is not None and stats.raw.get("last_round_clock") != self.round_clock:
            failures.append("%s: last round clock %r, oracle %r"
                            % (phase, stats.raw.get("last_round_clock"), self.round_clock))

    async def check_probes(self, client: Any, phase: str) -> None:
        answered = []
        for op, params in self.plan.probes:
            ok, answer = await self.op(ask(client, op, params))
            if ok:
                answered.append((op, params, perturb(op, answer)))
        verdict = oracle.check_answers(self.truth, answered, EPSILON, DELTA,
                                       self.plan.key_id, self.merge_levels)
        self.result.failures.extend("%s: %s" % (phase, failure) for failure in verdict.failures)


def perturb(op: str, answer: Any) -> Any:
    """Test hook: a wrong answer for probes of the op named in ``PERFBENCH_PERTURB``.

    Numbers become 0, heavy-hitter lists empty and quantile keys 0.
    """
    if os.environ.get("PERFBENCH_PERTURB") != op:
        return answer
    if op == "heavy_hitters":
        return []
    if op == "quantiles":
        return [0] * len(answer)
    return 0.0


def parse_args(argv: list[str] | None, run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="trace length: arrivals_per_second x seconds arrivals (see workloads.py); "
                             "default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro package under %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HOOK]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    args = parse_args(argv, spec["run_seconds"])
    workload = WORKLOADS[args.workload]
    plan = build_plan(workload, args.seed, arrivals_for(workload, args.seconds))
    counts = SETUP_BOOTS[args.size], RECOVERY_CYCLES[args.size]
    work = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (workload.name, os.getpid()))
    passes: list[PassResult] = []
    try:
        passes.append(asyncio.run(Pass(plan, os.path.join(work, "plain"), False, *counts).run()))
        if args.trace:
            import perfbench_tracer

            perfbench_tracer.install(None)
            traced = asyncio.run(Pass(plan, os.path.join(work, "traced"), True, *counts).run())
            passes.append(traced)
            metrics = layers.per_layer(traced, perfbench_tracer.SPANS, passes[0].metrics["ingest_rate"])
        else:
            metrics = passes[0].metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    correct = all(p.correct for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("workload %s  seed %d  arrivals %d  batches %d  window %d  period %d"
          % (workload.name, args.seed, plan.arrivals, plan.batches, plan.window, plan.period))
    for p in passes:
        for note in p.notes:
            print("  " + note)
        shown: dict[str, int] = {}
        for failure in p.failures:
            phase = failure.split(":", 1)[0]
            shown[phase] = shown.get(phase, 0) + 1
            if shown[phase] <= 10:
                print("  CHECK FAILED: " + failure)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name in units:
        print("  %-40s %16.6g %s" % (name, metrics[name], units[name]))
    print("  attempted %d  failed %d  correct %s" % (attempted, failed, correct))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
