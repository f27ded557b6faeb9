"""Span tracer for the served-tier benchmark, installed from outside ``repro``.

The tracer wraps public calls of the ``repro`` modules named in
:data:`TARGETS` without touching their source.  In a serving process it is
installed at interpreter start by the ``sitecustomize`` module beside this
file (the benchmark puts this directory on ``PYTHONPATH`` and names an output
directory in ``PERFBENCH_TRACE_DIR``; spawned shard workers inherit both).
Target modules are patched right after they execute, before any other module
can bind their functions with ``from ... import``.

Every wrapped call records one span: ``(id, name, start, end, active,
parent, rid, n)``.  ``active`` is the time the call was actually running:
the whole interval for a plain function, the sum of its resumptions for a
coroutine (time suspended on an ``await`` belongs to whatever ran instead).
``parent`` is the span that was running on the same thread when the call
began, ``rid`` the ``(client, seq)`` ingest id where the call carries one,
and ``n`` the call's size (arrivals, cells) where one is defined.  Spans stay
in memory; :func:`dump` writes them out (on ``SIGUSR1`` in serving
processes, which the benchmark sends before it kills the tier).
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable

_clock = time.perf_counter
_ids = itertools.count(1)
_local = threading.local()

#: Every finished span, in completion order.
SPANS: list[tuple] = []
_state: dict[str, Any] = {"dir": None, "installed": False}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def wrap_sync(
    fn: Callable,
    name: str | Callable[..., str],
    size: Callable[..., int] | None = None,
    rid: Callable[..., Any] | None = None,
) -> Callable:
    """Wrap a plain function so every call records one span."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        label = name(*args, **kwargs) if callable(name) else name
        stack = _stack()
        if stack and stack[-1][1] == label:
            # A subclass override calling up to the wrapped base method: one
            # logical call, one span.
            return fn(*args, **kwargs)
        span_id = next(_ids)
        parent = stack[-1][0] if stack else 0
        n = size(*args, **kwargs) if size is not None else 0
        request = rid(*args, **kwargs) if rid is not None else None
        stack.append((span_id, label))
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            SPANS.append((span_id, label, start, end, end - start, parent, request, n))

    traced.__perfbench_traced__ = True  # type: ignore[attr-defined]
    return traced


class _TimedAwait:
    """Drive a coroutine step by step, timing each resumption as one span."""

    __slots__ = ("coro", "label", "n", "request")

    def __init__(self, coro: Any, label: str, n: int, request: Any) -> None:
        self.coro = coro
        self.label = label
        self.n = n
        self.request = request

    def __await__(self) -> Any:
        coro = self.coro
        stack = _stack()
        span_id = next(_ids)
        parent = stack[-1][0] if stack else 0
        first = None
        active = 0.0
        send_value: Any = None
        error: BaseException | None = None
        while True:
            stack = _stack()
            stack.append((span_id, self.label))
            start = _clock()
            if first is None:
                first = start
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(send_value)
            except StopIteration as stop:
                end = _clock()
                stack.pop()
                active += end - start
                SPANS.append((span_id, self.label, first, end, active, parent, self.request, self.n))
                return stop.value
            except BaseException:
                end = _clock()
                stack.pop()
                active += end - start
                SPANS.append((span_id, self.label, first, end, active, parent, self.request, self.n))
                raise
            active += _clock() - start
            stack.pop()
            try:
                send_value = yield yielded
                error = None
            except BaseException as exc:  # delivered into the coroutine
                send_value = None
                error = exc


def wrap_async(
    fn: Callable,
    name: str | Callable[..., str],
    size: Callable[..., int] | None = None,
    rid: Callable[..., Any] | None = None,
) -> Callable:
    """Wrap a coroutine function; the span's ``active`` time excludes awaits."""

    @functools.wraps(fn)
    async def traced(*args: Any, **kwargs: Any) -> Any:
        label = name(*args, **kwargs) if callable(name) else name
        n = size(*args, **kwargs) if size is not None else 0
        request = rid(*args, **kwargs) if rid is not None else None
        return await _TimedAwait(fn(*args, **kwargs), label, n, request)

    traced.__perfbench_traced__ = True  # type: ignore[attr-defined]
    return traced


# ------------------------------------------------------------------ targets
def _len_arg(index: int, keyword: str) -> Callable[..., int]:
    def size(*args: Any, **kwargs: Any) -> int:
        value = kwargs.get(keyword, args[index] if len(args) > index else None)
        try:
            return len(value) if value is not None else 0
        except TypeError:
            return 0

    return size


def _rows_size(self: Any, payloads: Any) -> int:
    return int(sum(int(payload[3][-1]) for payload in payloads if len(payload[3])))


def _chunks_size(self: Any, chunks: Any) -> int:
    return int(sum(len(chunk) for chunk in chunks))


def _store_cells(self: Any, *args: Any, **kwargs: Any) -> int:
    return int(getattr(self, "width", 0)) * int(getattr(self, "depth", 0))


def _encode_name(message: Any, *args: Any, **kwargs: Any) -> str:
    if isinstance(message, dict) and message.get("op") == "ingest":
        return "protocol.encode.ingest"
    return "protocol.encode"


def _dispatch_name(service: Any, message: Any, *args: Any, **kwargs: Any) -> str:
    op = message.get("op") if isinstance(message, dict) else None
    return "server.dispatch.%s" % (op if isinstance(op, str) else "?")


def _dispatch_rid(service: Any, message: Any, *args: Any, **kwargs: Any) -> list | None:
    """``(client, seq)`` of a protocol message, where it carries one."""
    if isinstance(message, dict) and message.get("client") is not None:
        return [message.get("client"), message.get("seq")]
    return None


def _rid_method(self: Any, *args: Any, **kwargs: Any) -> list | None:
    """``(client_id, seq)`` keyword arguments of an ingest call."""
    client, seq = kwargs.get("client_id"), kwargs.get("seq")
    return None if client is None or seq is None else [client, seq]


# (module, owner class or None, attribute, span name, kind, size, rid)
TARGETS: list[tuple] = [
    ("repro.service.protocol", None, "encode_message", _encode_name, "sync", None, None),
    ("repro.service.protocol", None, "decode_line", "protocol.decode", "sync", None, None),
    ("repro.service.server", None, "dispatch_service_op", _dispatch_name, "async", None, _dispatch_rid),
    ("repro.service.core", "SketchService", "ingest", "service.ingest", "async",
     _len_arg(1, "keys"), _rid_method),
    ("repro.service.core", "SketchService", "_apply_chunks", "service.apply", "sync",
     _chunks_size, None),
    ("repro.service.journal", "IngestJournal", "append", "journal.append", "sync",
     _len_arg(2, "keys"), None),
    ("repro.service.journal", "IngestJournal", "recover", "journal.recover", "sync", None, None),
    ("repro.service.snapshot", None, "write_snapshot", "snapshot.write", "sync", None, None),
    ("repro.service.snapshot", None, "load_snapshot", "snapshot.load", "sync", None, None),
    ("repro.service.snapshot", None, "service_state_from_snapshot", "snapshot.load", "sync",
     None, None),
    ("repro.service.router", "ShardRouter", "ingest", "router.ingest", "async",
     _len_arg(1, "keys"), _rid_method),
    ("repro.service.router", "ShardRouter", "query", "router.query", "async", None, None),
    ("repro.service.router", "ShardRouter", "_gather", "router.gather", "async", None, None),
    ("repro.service.router", "ProcessShardBackend", "submit", "router.submit", "sync", None, None),
    ("repro.core.hashing", None, "stable_fingerprint", "hash.fingerprint", "sync", None, None),
    ("repro.core.hashing", "HashFamily", "hash_fingerprints", "hash.hash_fingerprints", "sync",
     _len_arg(1, "fingerprints"), None),
    ("repro.core.ecm_sketch", "ECMSketch", "add_many", "ecm.add_many", "sync",
     _len_arg(1, "items"), None),
    ("repro.core.ecm_sketch", "ECMSketch", "point_query", "ecm.point_query", "sync", None, None),
    ("repro.core.ecm_sketch", "ECMSketch", "self_join", "ecm.self_join", "sync", None, None),
    ("repro.core.ecm_sketch", "ECMSketch", "merge_many", "ecm.merge_many", "classmethod",
     None, None),
    ("repro.core.counter_store", "CounterStore", "ingest_sorted_rows", "store.ingest_sorted_rows",
     "sync", _rows_size, None),
    ("repro.core.counter_store", "ObjectCounterStore", "expire_all", "store.expire_all", "sync",
     _store_cells, None),
    ("repro.core.counter_store", "ObjectCounterStore", "estimate_cells", "store.estimate_cells",
     "sync", _len_arg(1, "cells"), None),
    ("repro.core.counter_store", "ObjectCounterStore", "get_counter", "store.get_set_counter",
     "sync", None, None),
    ("repro.core.counter_store", "ObjectCounterStore", "set_counter", "store.get_set_counter",
     "sync", None, None),
    ("repro.windows.columnar_eh", "ColumnarEHStore", "ingest_sorted_rows",
     "store.ingest_sorted_rows", "sync", _rows_size, None),
    ("repro.windows.columnar_eh", "ColumnarEHStore", "expire_all", "store.expire_all", "sync",
     _store_cells, None),
    ("repro.windows.columnar_eh", "ColumnarEHStore", "estimate_cells", "store.estimate_cells",
     "sync", _len_arg(1, "cells"), None),
    ("repro.windows.columnar_eh", "ColumnarEHStore", "get_counter", "store.get_set_counter",
     "sync", None, None),
    ("repro.windows.columnar_eh", "ColumnarEHStore", "set_counter", "store.get_set_counter",
     "sync", None, None),
    ("repro.windows.kernel_eh", "KernelEHStore", "expire_all", "store.expire_all", "sync",
     _store_cells, None),
    ("repro.windows.kernel_eh", "KernelEHStore", "estimate_cells", "store.estimate_cells",
     "sync", _len_arg(1, "cells"), None),
    ("repro.windows.exponential_histogram", "ExponentialHistogram", "add_batch", "eh.add_batch",
     "sync", _len_arg(1, "clocks"), None),
    ("repro.windows.merge", None, "bulk_merge_exponential_histograms", "merge.bulk_eh", "sync",
     None, None),
    ("repro.distributed.continuous", "PeriodicAggregationCoordinator", "run_round", "agg.round",
     "sync", None, None),
    ("repro.queries.hierarchical", "HierarchicalECMSketch", "add_many", "hier.add_many", "sync",
     _len_arg(1, "keys"), None),
    ("repro.queries.hierarchical", "HierarchicalECMSketch", "heavy_hitters", "hier.heavy_hitters",
     "sync", None, None),
    ("repro.queries.hierarchical", "HierarchicalECMSketch", "range_query", "hier.range_query",
     "sync", None, None),
]

_MODULES = {entry[0] for entry in TARGETS}


def _patch_module(module: Any) -> None:
    """Wrap every target attribute of one freshly executed module."""
    for module_name, owner_name, attribute, name, kind, size, rid in TARGETS:
        if module_name != module.__name__:
            continue
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None:
            continue
        raw = owner.__dict__.get(attribute) if owner_name is not None else getattr(owner, attribute, None)
        if raw is None:
            continue
        if kind == "classmethod":
            function = raw.__func__
            if getattr(function, "__perfbench_traced__", False):
                continue
            setattr(owner, attribute, classmethod(wrap_sync(function, name, size, rid)))
            continue
        if getattr(raw, "__perfbench_traced__", False):
            continue
        wrapper = wrap_async if kind == "async" else wrap_sync
        traced = wrapper(raw, name, size, rid)
        setattr(owner, attribute, traced)
        if owner_name is None:
            # Rebind copies already taken with ``from module import name``.
            for other in list(sys.modules.values()):
                if other is not None and getattr(other, "__dict__", {}).get(attribute) is raw:
                    setattr(other, attribute, traced)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Meta-path finder that patches target modules right after they execute."""

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname not in _MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        loader = spec.loader
        original = loader.exec_module

        def exec_module(module: Any) -> None:
            original(module)
            _patch_module(module)

        loader.exec_module = exec_module  # type: ignore[method-assign]
        return spec


def install(trace_dir: str | None) -> None:
    """Start tracing this process: patch loaded targets, hook later imports."""
    _state["dir"] = trace_dir
    if _state["installed"]:
        return
    _state["installed"] = True
    for module_name in sorted(_MODULES):
        module = sys.modules.get(module_name)
        if module is not None:
            _patch_module(module)
    sys.meta_path.insert(0, _PatchingFinder())


def dump() -> None:
    """Write this process's spans to ``<trace dir>/<pid>.json`` (atomically)."""
    directory = _state["dir"]
    if directory is None:
        return
    path = os.path.join(directory, "%d.json" % os.getpid())
    partial = path + ".part"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump({"spans": list(SPANS)}, handle, separators=(",", ":"))
    os.replace(partial, path)


def install_from_env() -> None:
    """Start-up entry point: trace when ``PERFBENCH_TRACE_DIR`` is set."""
    directory = os.environ.get("PERFBENCH_TRACE_DIR")
    if not directory:
        return
    install(directory)
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump())
