"""Workload ``certifier-tcp``: the online certifier server over TCP.

``python -m repro serve --store <file>`` runs in its own process.  The
benchmark process drives it over two TCP connections, a closed loop on each:
every connection keeps a block of 25 ``service.loadgen`` streams open and
sends the next request only after the reply to the previous one.  A round
is one block on each connection, run concurrently; it is the segment the
rates are medians over.

Per stream: ``open``, one ``ops`` request per burst of 8 shorthand
operations, ``verdict``, ``close`` (which persists the stream's certificates
to the store).  One stream in fifty is abandoned halfway: it is never
closed, and when its block ends its connection drops and reconnects.
Stream ``g`` of a run is ``loadgen.generate_stream(LoadConfig(seed=seed),
g)``, so the offline check can regenerate it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import checks
from .common import (
    CHECKOUT,
    PERFBENCH_DIR,
    SRC,
    process_peak_rss_mb,
    steal_seconds,
)

CONNECTIONS = 2
STREAMS_PER_BLOCK = 25
#: One stream in this many is abandoned (one per round of 2 x 25 streams).
ABANDON_EVERY = CONNECTIONS * STREAMS_PER_BLOCK
CAMPAIGN = "service"

_clock = time.perf_counter


def load_config(seed: int):
    """The loadgen defaults: 20 transactions of 6 operations per stream, up
    to 4 in flight, 12 zipfian items (s=1.2), 45% writes, 8% aborts, 5%
    stalls, 10% predicate operations, bursts of 8."""
    from repro.service.loadgen import LoadConfig
    return LoadConfig(seed=seed)


# -- the server process -----------------------------------------------------------


def server_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def server_command(store: Path, trace_out: Optional[Path] = None) -> List[str]:
    if trace_out is None:
        return [sys.executable, "-m", "repro", "serve", "--store", str(store)]
    return [sys.executable, str(PERFBENCH_DIR / "run.py"), "--role", "serve-traced",
            "--store", str(store), "--trace-out", str(trace_out)]


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int


def start_server(store: Path, trace_out: Optional[Path] = None) -> Server:
    """Start the server and wait until it listens."""
    process = subprocess.Popen(server_command(store, trace_out), cwd=CHECKOUT,
                               env=server_env(), stdout=subprocess.PIPE,
                               text=True)
    line = process.stdout.readline()
    if not line.startswith("certifier listening on "):
        stop_server(process)
        raise RuntimeError(f"certifier did not start: {line!r}")
    host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
    return Server(process, host, int(port))


def stop_server(process: subprocess.Popen) -> int:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode


# -- the client ----------------------------------------------------------------------


class Connection:
    """One JSON-lines connection with one request in flight at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def drop(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def call(self, payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        began = _clock()
        self.writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await self.writer.drain()
        line = await self.reader.readline()
        elapsed_ms = (_clock() - began) * 1e3
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), elapsed_ms


@dataclass
class Stream:
    name: str
    index: int
    bursts: List[str]
    abandon_after: Optional[int] = None     #: bursts sent before abandoning
    sent: int = 0
    acked: List[Tuple] = field(default_factory=list)


@dataclass
class Tally:
    ops: int = 0
    requests: int = 0
    failed: int = 0
    closed: int = 0
    ops_ms: List[float] = field(default_factory=list)
    close_ms: List[float] = field(default_factory=list)
    all_ms: float = 0.0
    closed_streams: Dict[str, Tuple] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def round_blocks(config, seed: int, round_index: int) -> List[List[Stream]]:
    """The streams of one round, one block per connection (untimed)."""
    from repro.service.loadgen import generate_stream
    rng = random.Random(seed * 100_003 + round_index)
    dropping = round_index % CONNECTIONS
    abandoned = rng.randrange(STREAMS_PER_BLOCK)
    blocks = []
    for conn in range(CONNECTIONS):
        block = []
        for position in range(STREAMS_PER_BLOCK):
            index = (round_index * CONNECTIONS + conn) * STREAMS_PER_BLOCK + position
            tokens = generate_stream(config, index)
            bursts = [" ".join(tokens[i:i + config.burst])
                      for i in range(0, len(tokens), config.burst)]
            stream = Stream(f"s{seed}-{index}", index, bursts)
            if conn == dropping and position == abandoned:
                stream.abandon_after = len(bursts) // 2
            block.append(stream)
        blocks.append(block)
    return blocks


async def _request(conn: Connection, tally: Tally, payload: Dict[str, Any],
                   expect: str) -> Optional[Dict[str, Any]]:
    reply, elapsed_ms = await conn.call(payload)
    tally.requests += 1
    tally.all_ms += elapsed_ms
    if reply.get("type") != expect:
        tally.failed += 1
        tally.failures.append(f"{payload['type']} {payload.get('stream')}: {reply}")
        return None
    if expect == "ack":
        tally.ops_ms.append(elapsed_ms)
    elif expect == "closed":
        tally.close_ms.append(elapsed_ms)
    return reply


async def drive_block(conns: List[Connection], slot: int, block: List[Stream],
                      tally: Tally, config) -> None:
    conn = conns[slot]
    active = []
    for stream in block:
        if await _request(conn, tally, {"type": "open", "stream": stream.name},
                          "opened") is not None:
            active.append(stream)
    drops = any(stream.abandon_after is not None for stream in block)
    while active:
        for stream in list(active):
            if stream.abandon_after is not None and stream.sent >= stream.abandon_after:
                active.remove(stream)
                continue
            if stream.sent < len(stream.bursts):
                reply = await _request(conn, tally, {
                    "type": "ops", "stream": stream.name,
                    "ops": stream.bursts[stream.sent]}, "ack")
                stream.sent += 1
                if reply is None:
                    active.remove(stream)
                    continue
                tally.ops += int(reply["ops"])
                stream.acked.extend(
                    (c["seq"], c["code"], tuple(c["txns"]), tuple(c["items"]),
                     c["op_index"]) for c in reply["certificates"])
                continue
            active.remove(stream)
            verdict = await _request(conn, tally, {"type": "verdict",
                                                   "stream": stream.name}, "verdict")
            closed = await _request(conn, tally, {"type": "close",
                                                  "stream": stream.name}, "closed")
            if verdict is None or closed is None:
                continue
            tally.closed += 1
            tally.closed_streams[stream.name] = (config, stream.index, verdict,
                                                 tuple(stream.acked))
    if drops:
        await conn.drop()
        fresh = Connection(conn.host, conn.port)
        await fresh.connect()
        conns[slot] = fresh


async def _gather(*coroutines) -> list:
    return await asyncio.gather(*coroutines)


async def stats(conn: Connection) -> Dict[str, Any]:
    reply, _ = await conn.call({"type": "stats"})
    return reply


# -- the workload ----------------------------------------------------------------------


def stored_certificates(store_path: Path) -> Dict[str, List[Tuple]]:
    from repro.persist import SqliteStore
    store = SqliteStore(store_path)
    try:
        if store.get_campaign(CAMPAIGN) is None:
            return {}
        out: Dict[str, List[Tuple]] = {}
        for cert in store.load_certificates(CAMPAIGN):
            out.setdefault(cert.stream, []).append(
                (cert.seq, cert.code, tuple(cert.txns), tuple(cert.items),
                 cert.op_index))
        return out
    finally:
        store.close()


def offline_verdicts(closed: Dict[str, Tuple], processes: int,
                     workdir: Path) -> Dict[str, Tuple]:
    """Offline classification of every closed stream, on ``processes`` cores.

    The share of each extra process is handed over in a file under
    ``workdir`` and its verdicts come back as JSON on its standard output
    (``run.py --role verify``).
    """
    names = sorted(closed)
    jobs = [(closed[name][0].seed, closed[name][1]) for name in names]
    shares = [jobs[k::processes] for k in range(max(1, processes))]
    children = []
    for k, share in enumerate(shares[1:], start=1):
        path = workdir / f"verify-{k}.json"
        path.write_text(json.dumps(share))
        children.append(subprocess.Popen(
            [sys.executable, str(PERFBENCH_DIR / "run.py"), "--role", "verify",
             "--store", str(path)],
            cwd=CHECKOUT, stdout=subprocess.PIPE, text=True))
    verdicts = {}
    try:
        verdicts.update(zip(shares[0], verify_jobs(shares[0])))
    finally:
        for share, child in zip(shares[1:], children):
            out, _ = child.communicate()
            if child.returncode == 0:
                verdicts.update(zip(share, (tuple(tuple(v) if isinstance(v, list) else v
                                                  for v in row)
                                            for row in json.loads(out))))
    return {name: verdicts[job] for name, job in zip(names, jobs) if job in verdicts}


def verify_jobs(jobs) -> List[Tuple]:
    """Offline verdicts for ``(load seed, stream index)`` pairs."""
    return [checks.offline_verdict(load_config(seed), index) for seed, index in jobs]


def setup(workdir: Path, seed: int, trace_out: Optional[Path]) -> Dict[str, Any]:
    """Start the server on a fresh store and open both connections."""
    store = workdir / f"certifier-{seed}.sqlite"
    for suffix in ("", "-wal", "-shm"):
        Path(str(store) + suffix).unlink(missing_ok=True)
    server = start_server(store, trace_out)
    loop = asyncio.new_event_loop()
    conns = [Connection(server.host, server.port) for _ in range(CONNECTIONS)]
    try:
        loop.run_until_complete(_gather(*(c.connect() for c in conns)))
    except BaseException:
        loop.close()
        stop_server(server.process)
        raise
    return dict(store=store, server=server, loop=loop, conns=conns,
                config=load_config(seed))


def teardown(state: Dict[str, Any]) -> int:
    """Close both connections, then stop the server; returns its exit code."""
    loop = state["loop"]
    try:
        loop.run_until_complete(_gather(*(c.drop() for c in state["conns"])))
    finally:
        loop.close()
        code = stop_server(state["server"].process)
    return code


def run(state: Dict[str, Any], seed: int, seconds: float,
        check_processes: int = 2, max_segments: int = 10_000) -> Dict[str, Any]:
    """Rounds until ``seconds`` of them are timed; the server, when traced,
    records its own spans and writes them when it stops."""
    loop, conns, config = state["loop"], state["conns"], state["config"]
    server: Server = state["server"]
    tally = Tally()
    segments: List[Dict[str, Any]] = []
    timed = 0.0
    index = 0
    cores = os.sched_getaffinity(0)
    try:
        # Server and client share one core while the rounds run.  The server
        # is single-threaded; across two cores every request/reply hop on a
        # virtual machine waits for the host to wake an idle virtual CPU, and
        # that wait, not the program, then sets the figures.
        shared = {min(cores)}
        os.sched_setaffinity(server.process.pid, shared)
        os.sched_setaffinity(0, shared)
        while index < max_segments and (index == 0 or timed < seconds):
            blocks = round_blocks(config, seed, index)
            ops_before, closed_before = tally.ops, tally.closed
            tally.ops_ms, tally.close_ms = [], []
            stolen = steal_seconds()
            started = _clock()
            loop.run_until_complete(_gather(*(
                drive_block(conns, slot, blocks[slot], tally, config)
                for slot in range(CONNECTIONS))))
            wall = _clock() - started
            stolen = steal_seconds() - stolen
            timed += wall
            segments.append({"wall_s": wall, "steal_s": stolen, "ops": tally.ops - ops_before,
                             "schedules": tally.closed - closed_before,
                             "request_ms": tally.ops_ms,
                             "close_ms": tally.close_ms})
            index += 1
        server_stats = loop.run_until_complete(stats(conns[0]))
        rss = process_peak_rss_mb(server.process.pid)
    finally:
        os.sched_setaffinity(0, cores)
        code = teardown(state)
    errors = list(tally.failures)
    if code != 0:
        errors.append(f"certifier exited with code {code}")
    stored = stored_certificates(state["store"])
    offline = offline_verdicts(tally.closed_streams, check_processes,
                               state["store"].parent)
    errors.extend(checks.certifier_errors(tally.closed_streams, stored, offline))
    return {
        "attempted": tally.requests,
        "failed": tally.failed,
        "errors": errors,
        "segments": segments,
        "peak_rss_mb": rss if rss is not None else float("nan"),
        "level_rows": {},
        "counts": {
            "retained_streams": server_stats.get("streams", -1),
            "server_ops": server_stats.get("ops", 0),
            "server_certificates": server_stats.get("certificates", 0),
            "closed_streams": tally.closed,
            "abandoned_streams": index,
            "client_round_trip_s": tally.all_ms / 1e3,
            "connections": CONNECTIONS,
        },
    }
