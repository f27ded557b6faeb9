"""Per-layer metrics from the spans of one traced pass.

Spans come from three places: the generator (this process), the live tier
(one dump per serving process, written on ``SIGUSR1`` before the SIGKILL) and
the recovered tier.  ``perf_counter`` reads the system-wide monotonic clock,
so spans of every process compare with the generator's timed interval.

A span's *self* time is its active time minus the active time of the spans
it directly caused on the same thread.  Per-arrival figures divide by the
acked arrivals of the traced pass and count only spans inside its timed
phase; per-call figures (``_us``, ``_ms`` without ``per_arrival``) average
every call of the live tier, final probes included.  A layer that a
workload's path does not reach reads 0.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any


class Span:
    __slots__ = ("id", "name", "start", "end", "active", "parent", "rid", "n", "self_time", "process")

    def __init__(self, row: list, process: dict) -> None:
        self.id, self.name, self.start, self.end, self.active, self.parent, self.rid, self.n = row
        self.self_time = self.active
        self.process = process

    def ancestors(self) -> Any:
        span = self.process.get(self.parent)
        while span is not None:
            yield span
            span = self.process.get(span.parent)

    def under(self, name: str) -> bool:
        return any(span.name == name for span in self.ancestors())


def load(rows_by_process: list[list]) -> list[Span]:
    """Spans of several processes, with self times resolved per process."""
    spans: list[Span] = []
    for rows in rows_by_process:
        process: dict[int, Span] = {}
        for row in rows:
            span = Span(list(row), process)
            process[span.id] = span
        for span in process.values():
            parent = process.get(span.parent)
            if parent is not None:
                parent.self_time -= span.active
        spans.extend(process.values())
    return spans


def load_dir(directory: str | None) -> list[Span]:
    if directory is None or not os.path.isdir(directory):
        return []
    rows = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                rows.append(json.load(handle)["spans"])
    return load(rows)


def per_layer(traced: Any, generator_rows: list, untraced_rate: float) -> dict[str, float]:
    live = load_dir(traced.trace_dirs.get("live"))
    recovered = load_dir(traced.trace_dirs.get("recovered"))
    generator = load([generator_rows])
    start, end = traced.timed
    arrivals = max(1, traced.arrivals)
    batches = max(1, traced.batches)
    queries = max(1, traced.queries)

    by_name: dict[str, list[Span]] = defaultdict(list)
    timed: dict[str, list[Span]] = defaultdict(list)
    for span in live:
        by_name[span.name].append(span)
        if start <= span.start and span.end <= end:
            timed[span.name].append(span)

    def total(spans: list[Span], attribute: str = "active") -> float:
        return float(sum(getattr(span, attribute) for span in spans))

    def mean(spans: list[Span], attribute: str = "active") -> float:
        return total(spans, attribute) / len(spans) if spans else 0.0

    def per_arrival(name: str, attribute: str = "active") -> float:
        return total(timed[name], attribute) * 1e6 / arrivals

    def per_unit(name: str) -> float:
        units = sum(span.n for span in by_name[name])
        return total(by_name[name]) * 1e6 / units if units else 0.0

    encode = [s for s in generator if s.name == "protocol.encode.ingest" and start <= s.start <= end]
    ingest_waits = [s for s in timed["router.gather"] if s.under("router.ingest")]
    rows_in = sum(span.n for span in timed["store.ingest_sorted_rows"])
    fallback = sum(span.n for span in timed["eh.add_batch"] if span.under("store.ingest_sorted_rows"))
    router_queries = by_name["router.query"]
    fanouts = [s for s in by_name["router.submit"] if s.under("router.query")]
    roots = [s for spans in timed.values() for s in spans if s.parent == 0]
    cpu_seconds = traced.cpu_seconds
    recovered_names: dict[str, list[Span]] = defaultdict(list)
    for span in recovered:
        recovered_names[span.name].append(span)

    return {
        "client.encode_us_per_arrival": total(encode) * 1e6 / arrivals,
        "server.decode_us_per_arrival": per_arrival("protocol.decode"),
        "server.dispatch_self_us_per_arrival": per_arrival("server.dispatch.ingest", "self_time"),
        "service.ingest_self_us_per_arrival": per_arrival("service.ingest", "self_time"),
        "service.apply_us_per_arrival": per_arrival("service.apply"),
        "journal.append_us_per_arrival": per_arrival("journal.append"),
        "journal.recover_s": total(recovered_names["journal.recover"]),
        "snapshot.write_ms": total(by_name["snapshot.write"]) * 1e3,
        "snapshot.load_ms": total(recovered_names["snapshot.load"]) * 1e3,
        "router.ingest_self_us_per_arrival": per_arrival("router.ingest", "self_time"),
        "router.shard_wait_ms": (
            sum(s.end - s.start for s in ingest_waits) * 1e3 / len(ingest_waits) if ingest_waits else 0.0
        ),
        "router.fanouts_per_query": len(fanouts) / len(router_queries) if router_queries else 0.0,
        "router.query_self_ms": mean(router_queries, "self_time") * 1e3,
        "hash.us_per_arrival": per_arrival("hash.hash_fingerprints") + per_arrival("hash.fingerprint"),
        "hash.calls_per_batch": sum(
            1 for s in timed["hash.hash_fingerprints"] if s.under("service.apply")
        ) / batches,
        "ecm.add_many_us_per_arrival": per_arrival("ecm.add_many"),
        "ecm.add_many_calls_per_batch": sum(
            1 for s in timed["ecm.add_many"] if s.under("service.apply")
        ) / batches,
        "ecm.point_query_us": mean(by_name["ecm.point_query"]) * 1e6,
        "ecm.self_join_ms": mean(by_name["ecm.self_join"]) * 1e3,
        "ecm.merge_many_ms": mean(by_name["ecm.merge_many"]) * 1e3,
        "store.ingest_us_per_arrival": per_arrival("store.ingest_sorted_rows"),
        "store.fallback_arrival_share": fallback / rows_in if rows_in else 0.0,
        "store.expire_us_per_cell": per_unit("store.expire_all"),
        "store.estimate_cells_per_query": len(by_name["store.estimate_cells"]) / queries,
        "store.estimate_us_per_cell": per_unit("store.estimate_cells"),
        "store.get_set_counter_us_per_cell": mean(by_name["store.get_set_counter"]) * 1e6,
        "merge.bulk_eh_us_per_cell": mean(by_name["merge.bulk_eh"]) * 1e6,
        "agg.round_ms": mean(by_name["agg.round"]) * 1e3,
        "agg.rounds": float(len(by_name["agg.round"])),
        "hier.add_many_us_per_arrival": per_arrival("hier.add_many"),
        "hier.heavy_hitters_ms": mean(by_name["hier.heavy_hitters"]) * 1e3,
        "hier.range_us": mean(by_name["hier.range_query"]) * 1e6,
        "trace.overhead_share": 1.0 - traced.metrics["ingest_rate"] / untraced_rate,
        "trace.cpu_covered_share": total(roots) / cpu_seconds if cpu_seconds else 0.0,
    }
