"""Workload definitions and seeded input generation (NumPy only, no ``repro``).

Each workload is one served tier (``repro serve`` flags), one trace family
and one fixed operation plan.  The plan is a list of rounds; every round
sends ``query_every`` ingest batches and then one query; ``expire`` follows
every ``expire_every``-th batch.  A query comes right after an ``expire``
or, with ``drain_each_batch``, after a ``drain``: either waits out the apply
in progress, so the query times the query path alone.  One ``snapshot``
follows the batch at the trace midpoint.  The trace holds
``arrivals_per_second`` arrivals per second of ``--seconds``, in whole
rounds, so every seed sends exactly the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Pages of the wc98-like family and their Zipf exponent.
WC98_PAGES = 5_000
WC98_EXPONENT = 1.1
#: Universe and Zipf exponent of the dyadic integer family.
DYADIC_BITS = 16
DYADIC_EXPONENT = 1.1
#: Error budget and failure probability of every served sketch.
EPSILON = 0.05
DELTA = 0.05
#: Observation sites of the multisite tier.
SITES = 4
#: Seed of the rank-to-key assignment shared by every run of a family.
FAMILY_SEED = 2012
#: Interleaved query order of the dyadic workload.
HIER_QUERY_CYCLE = ("quantile", "range", "point", "range", "quantile", "range", "heavy_hitters", "point")
QUANTILE_CYCLE = (0.25, 0.5, 0.75, 0.9)
#: Heavy-hitter probes: above EPSILON, so precision at phi - eps means
#: something (the top Zipf(1.1) key holds about 14% of a dyadic trace).
HEAVY_HITTER_PHIS = (0.08, 0.1)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    family: str
    batch: int
    #: Ingest batches per round; each round ends with one query.
    query_every: int
    expire_every: int
    #: Trace arrivals per second of ``--seconds``: about the rate the tier
    #: sustains on the reference host, so the timed phase lasts about
    #: ``--seconds`` (longer on multisite, see the README).
    arrivals_per_second: int
    #: ``drain`` after every ingest, so the acks time the ingest request
    #: alone and the apply is waited for by the ``drain``.
    drain_each_batch: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="flat-durable",
            mode="flat",
            family="wc98",
            # An ``expire`` (and a query) every 4 batches of 4,096: 3 of 4 acks
            # wait for the previous batch's apply, so the ack median and tail
            # both sit inside that mode.  Interleaved 5-run comparisons on a
            # shared 2-vCPU host gave ack tail spreads of 0.65 for batches of 1,024
            # with an ``expire`` every 8 (tail p99.2 of 1,224 acks), 0.30 for
            # 16,384 with an ``expire`` after each, and 0.12 for this shape.
            batch=4096,
            query_every=4,
            expire_every=4,
            arrivals_per_second=200_000,
        ),
        Workload(
            name="hier-dyadic",
            mode="hierarchical",
            family="dyadic",
            batch=256,
            query_every=4,
            expire_every=4,
            arrivals_per_second=7_000,
        ),
        Workload(
            name="multisite-sliding",
            mode="multisite",
            family="wc98",
            batch=1536,
            query_every=1,
            expire_every=4,
            drain_each_batch=True,
            arrivals_per_second=13_000,
        ),
    )
}


@dataclass
class Plan:
    """Everything one run sends, generated from the seed before timing."""

    workload: Workload
    keys: np.ndarray  # key ids (wc98: page index; dyadic: the integer key)
    clocks: np.ndarray  # int64, non-decreasing
    batch_sites: np.ndarray  # site of each batch
    window: int
    period: int
    vocabulary: list[Any] | None
    domain: int
    #: Untimed leading batches (queries start after them).
    warmup: int
    #: ``(batch_index_after_which_it_runs, op, params)`` interleaved queries.
    queries: list[tuple[int, str, dict]] = field(default_factory=list)
    #: Final checked probes: ``(op, params)``.
    probes: list[tuple[str, dict]] = field(default_factory=list)

    @property
    def arrivals(self) -> int:
        return int(self.keys.size)

    @property
    def batches(self) -> int:
        return int(self.keys.size) // self.workload.batch

    @property
    def snapshot_after(self) -> int:
        """Index of the batch after which the single snapshot is taken."""
        return self.batches // 2 - 1

    def key_of(self, key_id: int) -> Any:
        return self.vocabulary[key_id] if self.vocabulary is not None else int(key_id)

    def key_id(self, key: Any) -> int:
        """Inverse of :meth:`key_of` (page names are ``/page/%05d``)."""
        return int(key) if self.vocabulary is None else int(key[len("/page/"):])

    def batch_lists(self) -> list[tuple[list, list, int]]:
        """Per-batch ``(keys, clocks, site)`` as plain lists, built before timing."""
        b = self.workload.batch
        if self.vocabulary is not None:
            words = np.asarray(self.vocabulary, dtype=object)
            key_lists = [words[self.keys[i : i + b]].tolist() for i in range(0, self.arrivals, b)]
        else:
            key_lists = [self.keys[i : i + b].tolist() for i in range(0, self.arrivals, b)]
        clock_lists = [self.clocks[i : i + b].tolist() for i in range(0, self.arrivals, b)]
        sites = self.batch_sites.tolist()
        return list(zip(key_lists, clock_lists, sites))

    def serve_args(self, journal_dir: str, snapshot_path: str) -> list[str]:
        w = self.workload
        args = [
            "--mode", w.mode,
            "--epsilon", repr(EPSILON),
            "--delta", repr(DELTA),
            "--window", str(self.window),
            # One client batch per server micro-batch: every chunk is applied
            # by one add_many/observe_batch call, never coalesced with another.
            "--batch-size", str(w.batch),
            "--expire-every", "0",
            "--journal-dir", journal_dir,
            "--snapshot-path", snapshot_path,
            "--seed", "0",
        ]
        if w.mode == "hierarchical":
            args += ["--window-model", "count", "--universe-bits", str(DYADIC_BITS), "--shards", "1"]
        if w.mode == "multisite":
            args += ["--sites", str(SITES), "--period", str(self.period)]
        return args


def _zipf(rng: np.random.Generator, n: int, domain: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, domain + 1, dtype=np.float64) ** exponent
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    ranks = np.searchsorted(cumulative, rng.random(n), side="right")
    return np.minimum(ranks, domain - 1).astype(np.int64)


def arrivals_for(workload: Workload, seconds: float) -> int:
    """Trace length for a run of about ``seconds`` (whole rounds of batches)."""
    per_round = workload.batch * workload.query_every
    rounds = max(4, int(round(seconds * workload.arrivals_per_second / per_round)))
    return rounds * per_round


def build_plan(workload: Workload, seed: int, arrivals: int) -> Plan:
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([int(seed), index])
    n = arrivals
    batches = n // workload.batch
    # Which names are popular is part of the family, not of the seed (as in a
    # real access log, where the same pages stay hot from day to day): a
    # seed-dependent permutation moved the heavy keys between Count-Min cells
    # and changed the per-arrival cost by about 11% from seed to seed.
    popularity = np.random.default_rng(FAMILY_SEED)
    if workload.family == "wc98":
        keys = popularity.permutation(WC98_PAGES)[_zipf(rng, n, WC98_PAGES, WC98_EXPONENT)]
        clocks = np.cumsum(rng.integers(0, 3, n), dtype=np.int64) + 1
        vocabulary: list[Any] | None = ["/page/%05d" % i for i in range(WC98_PAGES)]
        domain = WC98_PAGES
    else:
        universe = 1 << DYADIC_BITS
        keys = popularity.permutation(universe)[_zipf(rng, n, universe, DYADIC_EXPONENT)]
        clocks = np.arange(1, n + 1, dtype=np.int64)  # count window: arrival index
        vocabulary = None
        domain = universe
    # Window and period depend on the trace length only (the wc98 clock
    # advances one unit per arrival on average), never on the seed.
    warmup = 0
    if workload.mode == "multisite":
        window = n // 16
        period = window // 2
        # Sites take turns batch by batch, the same order for every seed.
        batch_sites = np.arange(batches) % SITES
        # Two windows of untimed warm-up: the timed phase starts in the
        # sliding-window steady state, past the first aggregation rounds.
        warmup = -(-2 * window // (workload.batch * workload.query_every)) * workload.query_every
        first_round = int(np.searchsorted(clocks, clocks[0] + period, side="left"))
        assert first_round < warmup * workload.batch, "first round after the warm-up"
    else:
        # Longer than the whole trace: the fill regime, nothing expires.
        window = 4 * n
        period = 0
        batch_sites = np.zeros(batches, dtype=np.int64)
    plan = Plan(workload, keys, clocks, batch_sites, window, period, vocabulary, domain, warmup)

    def random_key() -> Any:
        return plan.key_of(int(keys[rng.integers(0, n)]))

    # One interleaved query per round.  Latency differs by query type, so each
    # mix puts one type across the median (points on wc98, ranges on dyadic)
    # and, on dyadic, the tail inside the slowest type (quantiles), never on a
    # boundary between two.  Interleaved quantiles and ranges take their
    # parameters from the family, not the seed, so the dyadic covers they walk
    # cost the same in every run.
    first_query = warmup + workload.query_every - 1
    family_queries = np.random.default_rng(FAMILY_SEED + 1)
    for position, after in enumerate(range(first_query, batches, workload.query_every)):
        if workload.mode == "hierarchical":
            kind = HIER_QUERY_CYCLE[position % len(HIER_QUERY_CYCLE)]
            if kind == "heavy_hitters":
                plan.queries.append((after, kind, {"phi": 0.02}))
            elif kind == "quantile":
                fraction = QUANTILE_CYCLE[(position // len(HIER_QUERY_CYCLE)) % len(QUANTILE_CYCLE)]
                plan.queries.append((after, kind, {"fraction": fraction}))
            elif kind == "range":
                lo, hi = sorted(int(x) for x in family_queries.integers(0, domain, 2))
                plan.queries.append((after, kind, {"lo": lo, "hi": hi}))
            else:
                plan.queries.append((after, kind, {"key": random_key()}))
        elif position % 4 == 3:
            plan.queries.append((after, "self_join", {}))
        else:
            plan.queries.append((after, "point", {"key": random_key()}))

    # 96 keys drawn like the trace (mostly heavy) and 32 uniform ones.
    probe_keys = [int(k) for k in rng.choice(keys, 96)] + [int(k) for k in rng.integers(0, domain, 32)]
    for key_id in probe_keys:
        plan.probes.append(("point", {"key": plan.key_of(key_id)}))
    if workload.mode == "hierarchical":
        for phi in HEAVY_HITTER_PHIS:
            plan.probes.append(("heavy_hitters", {"phi": phi}))
        plan.probes.append(("quantiles", {"fractions": [i / 20 for i in range(1, 20)]}))
        # One to three aligned blocks of 2^11..2^14 keys: a dyadic cover of
        # one or two blocks, so the bound (blocks x eps ||a||_1) stays below
        # the exact sum of most probes and a wrong range path shows.
        for _ in range(32):
            level = int(rng.integers(11, 15))
            count = int(rng.integers(1, 4))
            start = int(rng.integers(0, (domain >> level) - count + 1))
            plan.probes.append(("range", {"lo": start << level, "hi": ((start + count) << level) - 1}))
    else:
        plan.probes.append(("self_join", {}))
    return plan
