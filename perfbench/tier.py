"""The served tier under test: launch, observe through ``/proc``, kill.

A tier is one ``repro serve`` process plus whatever it spawns (the shard
worker of a routed tier).  The generator reaches it only through the public
:class:`repro.service.client.ServiceClient`; this module adds the operating
system view the client cannot give: CPU time and peak RSS of every serving
process, and SIGKILL of the whole process tree.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from typing import Any

from repro.service.client import ServiceClient
from repro.service.launch import ServeProcess
from repro.service.protocol import MAX_LINE_BYTES

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open("/proc/%d/stat" % pid, encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return text[text.rindex(")") + 2 :].split()


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children first-level first)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child in children.get(parent, []):
            found.append(child)
            frontier.append(child)
    return found


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process, in seconds."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    try:
        with open("/proc/%d/status" % pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CountingReader:
    """StreamReader proxy counting the bytes the client reads."""

    def __init__(self, inner: asyncio.StreamReader) -> None:
        self._inner = inner
        self.bytes = 0

    async def readline(self) -> bytes:
        line = await self._inner.readline()
        self.bytes += len(line)
        return line

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class CountingWriter:
    """StreamWriter proxy counting the bytes the client writes."""

    def __init__(self, inner: asyncio.StreamWriter) -> None:
        self._inner = inner
        self.bytes = 0

    def write(self, data: bytes) -> None:
        self.bytes += len(data)
        self._inner.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


async def connect_counting(port: int) -> tuple[ServiceClient, CountingReader, CountingWriter]:
    """A handshaken client whose socket traffic is counted."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)
    counting_reader, counting_writer = CountingReader(reader), CountingWriter(writer)
    client = ServiceClient(counting_reader, counting_writer, host="127.0.0.1", port=port)  # type: ignore[arg-type]
    await client.hello()
    return client, counting_reader, counting_writer


class Tier:
    """One booted tier: the ``repro serve`` process and its port."""

    def __init__(self, args: list[str], env: dict[str, str]) -> None:
        self.server = ServeProcess(*args, env=env)
        self.killed_at: float | None = None
        self.port = self.server.wait_ready()

    @property
    def pid(self) -> int:
        return self.server.process.pid

    def pids(self) -> list[int]:
        return [self.pid, *descendants(self.pid)]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def signal_all(self, signum: int) -> list[int]:
        pids = self.pids()
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        return pids

    def kill(self, timeout: float = 30.0) -> float:
        """SIGKILL every serving process, wait until all are gone; returns the kill time."""
        if self.killed_at is not None:
            return self.killed_at
        pids = self.pids()
        killed_at = self.killed_at = time.perf_counter()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.server.wait(timeout)
        deadline = time.monotonic() + timeout
        while any(alive(pid) for pid in pids[1:]):
            if time.monotonic() > deadline:
                raise RuntimeError("serving processes %r outlived SIGKILL" % (pids,))
            time.sleep(0.005)
        return killed_at


def serve_env(src: str, hook: str | None, trace_dir: str | None) -> dict[str, str]:
    """Environment of a serving process: ``src`` first, plus the hook when tracing."""
    env = dict(os.environ)
    paths = [src] + ([hook] if hook else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


__all__ = ["Tier", "connect_counting", "serve_env"]
