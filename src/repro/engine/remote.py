"""Socket transport: schedule plan-ordered chunks across ``repro-worker`` hosts.

The multi-host twin of the in-machine process pool.  A coordinator (the
parallel engine running with ``hosts=``) connects to long-lived
``repro-worker`` processes -- started on each machine with the
``repro-worker`` console script -- and drives the exact same chunk
protocol as the multiprocessing transport: install the batch's trace
suite once, then stream demand-driven, plan-ordered scheme chunks and
collect flat payloads plus per-chunk telemetry snapshots.  Both sides
execute through :mod:`repro.engine.transport`'s worker functions, so the
math cannot differ between transports.

Wire protocol (version :data:`WIRE_SCHEMA`): newline-delimited JSON
messages over TCP, with one binary extension -- an ``install`` message in
``bulk`` mode is followed by exactly ``nbytes`` of raw array data.  Ops:

``hello``     handshake; the worker reports its schema and pid.
``install``   pin a trace suite (and kernel backend) in the worker.
              Mode ``cached`` is a zero-byte probe: the worker keeps its
              last few installed suites keyed by the transport's
              fingerprint tuple, and a coordinator whose suite matches
              re-pins them without shipping anything (coordinator-side
              counter ``engine.remote.trace_cache.hits``).  Mode ``shm``
              ships :class:`~repro.trace.shm.TraceDescriptor`
              records for a same-machine worker to attach zero-copy
              (fingerprint-verified, exactly the pool path); mode
              ``files`` ships ``.rtrace`` path+fingerprint records the
              worker opens and streams itself (shared-filesystem
              assumption, fingerprint-refused on mismatch).  A worker
              that cannot serve any of those answers ``ok: false`` and
              the coordinator falls back to mode ``bulk``: flat
              per-field layouts plus the concatenated array bytes,
              rebuilt and then verified against the same content
              fingerprints.  Every successful install also populates the
              worker's suite cache.
``chunk``     score one chunk (``kind`` evaluate/traffic, scheme full
              names, JSON args) and reply with the payload quadruple.
``shutdown``  acknowledge and exit the worker process.

Failure model: the coordinator is the only stateful party.  A worker that
dies (connection reset, EOF) or hangs (no reply within the per-chunk
deadline) is dropped -- its socket is closed first, so a late reply can
never race a recomputation -- and its outstanding chunks are *re-stolen*
by the survivors, counted under ``engine.remote.resteals`` and
``engine.remote.host.<addr>.resteals``.  Chunks are pure functions of
(schemes, installed traces), so a re-run is bit-identical by
construction; the engine's ``SweepJournal`` integration is untouched
because the transport still completes every chunk exactly once.  Only
when *every* worker is gone does the transport raise, handing the batch
to the engine's serial fallback (which recomputes from scratch -- same
bits, one machine).

Test hooks (read by the worker per chunk, for the fault-injection suite):

* ``REPRO_WORKER_TEST_DELAY`` -- seconds to sleep before each chunk;
* ``REPRO_WORKER_TEST_EXIT_AFTER`` -- after completing N chunks,
  ``os._exit(137)`` *mid-request* on the next one (a SIGKILL stand-in
  that cannot race the test);
* ``REPRO_WORKER_TEST_DROP_AFTER`` -- after N chunk replies, drop the
  coordinator connection but keep the process alive (a network fault, as
  opposed to a dead host).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import queue
import socket
import threading
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from collections import OrderedDict

from repro.core.kernel_backends import resolve_kernel_backend
from repro.core.schemes import parse_scheme
from repro.engine.transport import (
    ChunkResult,
    WorkTransport,
    file_trace_specs,
    install_traces,
    installed_traces,
    resolve_worker_traces,
    run_chunk,
)
from repro.machine import MachineSpec
from repro.telemetry import Telemetry
from repro.trace.events import SharingTrace
from repro.trace.shm import (
    TraceDescriptor,
    _FieldLayout,
    publish_traces,
    shm_available,
)
from repro.trace.source import CHUNK_FIELDS, stream_fingerprint

logger = logging.getLogger("repro.engine.remote")

#: wire protocol version; both sides refuse a mismatch at hello time
WIRE_SCHEMA = 1

#: seconds a chunk may stay unanswered before its worker counts as hung
DEFAULT_CHUNK_TIMEOUT = 300.0


def _truthy(raw: Optional[str]) -> bool:
    return (raw or "").strip().lower() not in ("", "0", "false", "off", "no")


def remote_shm_enabled() -> bool:
    """Whether the coordinator offers shm descriptors to socket workers.

    Off by default: a worker on another machine can never attach, and on
    CPython < 3.13 a same-machine worker's resource tracker unlinks
    attached segments when that worker exits, which the fault-injection
    tests exercise on purpose.  Set ``REPRO_REMOTE_SHM=1`` when the
    workers share the machine and outlive the coordinator's batches.
    """
    return _truthy(os.environ.get("REPRO_REMOTE_SHM"))


def parse_hosts(raw) -> Tuple[str, ...]:
    """Normalize a hosts option: comma-separated string or iterable."""
    if raw is None:
        return ()
    if isinstance(raw, str):
        parts = raw.split(",")
    else:
        parts = list(raw)
    hosts = []
    for part in parts:
        part = str(part).strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(
                f"host {part!r} must be host:port (e.g. 127.0.0.1:7045)"
            )
        hosts.append(part)
    return tuple(hosts)


def _host_key(address: str) -> str:
    """A telemetry-friendly spelling of ``host:port``."""
    return address.replace(":", "_").replace(".", "_")


# ----------------------------------------------------------------------
# Framing: JSON lines + an optional binary trailer
# ----------------------------------------------------------------------


def _send_message(sock: socket.socket, message: dict, blob: bytes = b"") -> int:
    data = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    sock.sendall(data)
    if blob:
        sock.sendall(blob)
    return len(data) + len(blob)


def _read_message(rfile) -> Optional[dict]:
    line = rfile.readline()
    if not line:
        return None
    return json.loads(line.decode("utf-8"))


def _read_exact(rfile, nbytes: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining > 0:
        piece = rfile.read(remaining)
        if not piece:
            raise ConnectionError("connection closed mid binary transfer")
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Trace encoding: shm descriptors (JSON-ified) or verified bulk bytes
# ----------------------------------------------------------------------


def _descriptors_to_json(descriptors: Sequence[TraceDescriptor]) -> List[dict]:
    return [asdict(descriptor) for descriptor in descriptors]


def _descriptors_from_json(payload: Sequence[dict]) -> List[TraceDescriptor]:
    descriptors = []
    for entry in payload:
        fields = {
            name: _FieldLayout(**layout) for name, layout in entry["fields"].items()
        }
        descriptors.append(TraceDescriptor(**{**entry, "fields": fields}))
    return descriptors


def encode_bulk_traces(traces: Sequence[SharingTrace]) -> Tuple[List[dict], bytes]:
    """Flatten traces for the wire: JSON headers + concatenated array bytes.

    Every field array is shipped C-contiguous in :data:`CHUNK_FIELDS`
    order; the header carries dtype/shape per field plus the trace's
    content fingerprint, which the receiving worker re-derives from the
    rebuilt trace -- a truncated or reordered transfer can never install.
    """
    headers = []
    blobs = []
    for trace in traces:
        fields = []
        for field in CHUNK_FIELDS:
            array = np.ascontiguousarray(getattr(trace, field))
            fields.append(
                {
                    "name": field,
                    "dtype": str(array.dtype),
                    "length": len(array),
                    "words": array.shape[1] if array.ndim == 2 else 0,
                    "nbytes": array.nbytes,
                }
            )
            blobs.append(array.tobytes())
        headers.append(
            {
                "trace_name": trace.name,
                "num_nodes": trace.num_nodes,
                "fingerprint": stream_fingerprint(trace),
                "machine": trace.machine.to_json() if trace.machine is not None else "",
                "fields": fields,
            }
        )
    return headers, b"".join(blobs)


def decode_bulk_traces(headers: Sequence[dict], blob: bytes) -> List[SharingTrace]:
    """Rebuild and fingerprint-verify traces from a bulk transfer."""
    traces = []
    offset = 0
    for header in headers:
        arrays = {}
        for field in header["fields"]:
            nbytes = int(field["nbytes"])
            elements = int(field["length"]) * (int(field["words"]) or 1)
            # copy out of the receive buffer into an owned, writable array
            flat = np.frombuffer(
                blob, dtype=np.dtype(field["dtype"]), count=elements, offset=offset
            ).copy()
            if field["words"]:
                flat = flat.reshape(int(field["length"]), int(field["words"]))
            arrays[field["name"]] = flat
            offset += nbytes
        trace = SharingTrace(
            num_nodes=int(header["num_nodes"]),
            name=header["trace_name"],
            machine=(
                MachineSpec.from_json(header["machine"]) if header["machine"] else None
            ),
            **arrays,
        )
        actual = stream_fingerprint(trace)
        if actual != header["fingerprint"]:
            raise ValueError(
                f"bulk trace {header['trace_name']!r} fingerprint mismatch: "
                f"{actual} != {header['fingerprint']}"
            )
        traces.append(trace)
    if offset != len(blob):
        raise ValueError(
            f"bulk transfer size mismatch: decoded {offset} of {len(blob)} bytes"
        )
    return traces


# ----------------------------------------------------------------------
# Worker side: the repro-worker process
# ----------------------------------------------------------------------

#: suites a worker retains between installs (each entry is one batch's
#: whole trace list) -- enough for a coordinator alternating among a few
#: scenario cells without re-shipping, small enough to bound memory
TRACE_CACHE_CAPACITY = 4

#: worker-lifetime suite cache: transport fingerprint tuple -> installed
#: trace list.  Survives coordinator reconnects, which is the whole point:
#: a restarted sweep re-pins its traces with a zero-byte ``cached`` probe.
_TRACE_CACHE: "OrderedDict[Tuple[str, ...], list]" = OrderedDict()


def _trace_cache_store(key: Optional[Sequence[str]]) -> None:
    """Retain the just-installed suite under the coordinator's key (LRU)."""
    if not key:
        return
    cache_key = tuple(key)
    _TRACE_CACHE[cache_key] = list(installed_traces())
    _TRACE_CACHE.move_to_end(cache_key)
    while len(_TRACE_CACHE) > TRACE_CACHE_CAPACITY:
        _TRACE_CACHE.popitem(last=False)


class _WorkerSession:
    """One coordinator connection served by a repro-worker process."""

    def __init__(self, conn: socket.socket, peer: str):
        self.conn = conn
        self.peer = peer
        self.rfile = conn.makefile("rb")
        self.chunks_done = 0

    def serve(self) -> bool:
        """Handle messages until disconnect; True means shut the worker down."""
        try:
            while True:
                message = _read_message(self.rfile)
                if message is None:
                    return False
                if self._dispatch(message):
                    return True
        except (ConnectionError, OSError) as error:
            logger.info("coordinator %s dropped: %s", self.peer, error)
            return False
        finally:
            try:
                self.rfile.close()
                self.conn.close()
            except OSError:
                pass

    def _reply(self, message: dict) -> None:
        _send_message(self.conn, message)

    def _dispatch(self, message: dict) -> bool:
        op = message.get("op")
        if op == "hello":
            self._reply(
                {
                    "ok": True,
                    "schema": WIRE_SCHEMA,
                    "pid": os.getpid(),
                    "shm": shm_available(),
                }
            )
            if int(message.get("schema", -1)) != WIRE_SCHEMA:
                logger.warning(
                    "coordinator %s speaks schema %s, worker speaks %s",
                    self.peer,
                    message.get("schema"),
                    WIRE_SCHEMA,
                )
            return False
        if op == "install":
            return self._handle_install(message)
        if op == "chunk":
            return self._handle_chunk(message)
        if op == "shutdown":
            self._reply({"ok": True})
            return True
        self._reply({"ok": False, "error": f"unknown op {op!r}"})
        return False

    def _handle_install(self, message: dict) -> bool:
        mode = message.get("mode")
        try:
            if mode == "cached":
                cached = _TRACE_CACHE.get(tuple(message.get("key") or ()))
                if cached is None:
                    self._reply({"ok": False, "error": "trace cache miss"})
                    return False
                _TRACE_CACHE.move_to_end(tuple(message["key"]))
                install_traces(
                    {
                        "mode": "objects",
                        "traces": cached,
                        "kernel": message.get("kernel"),
                    }
                )
            elif mode == "shm":
                descriptors = _descriptors_from_json(message["descriptors"])
                install_traces(
                    {
                        "mode": "shm",
                        "descriptors": descriptors,
                        "kernel": message.get("kernel"),
                    }
                )
            elif mode == "files":
                install_traces(
                    {
                        "mode": "files",
                        "files": message["files"],
                        "kernel": message.get("kernel"),
                    }
                )
            elif mode == "bulk":
                blob = _read_exact(self.rfile, int(message["nbytes"]))
                traces = decode_bulk_traces(message["traces"], blob)
                install_traces(
                    {
                        "mode": "objects",
                        "traces": traces,
                        "kernel": message.get("kernel"),
                    }
                )
            else:
                raise ValueError(f"unknown install mode {mode!r}")
        except ConnectionError:
            raise
        except Exception as error:  # noqa: BLE001 - reported to the coordinator
            logger.info("install (%s) failed: %s: %s", mode, type(error).__name__, error)
            self._reply(
                {"ok": False, "error": f"{type(error).__name__}: {error}"}
            )
            return False
        if mode != "cached":
            _trace_cache_store(message.get("key"))
        self._reply({"ok": True, "mode": mode})
        return False

    def _handle_chunk(self, message: dict) -> bool:
        exit_after = os.environ.get("REPRO_WORKER_TEST_EXIT_AFTER")
        if exit_after is not None and self.chunks_done >= int(exit_after):
            # Deterministic SIGKILL stand-in: die mid-request, reply unsent.
            logging.shutdown()
            os._exit(137)
        delay = os.environ.get("REPRO_WORKER_TEST_DELAY")
        if delay:
            time.sleep(float(delay))
        try:
            schemes = [parse_scheme(name) for name in message["schemes"]]
            payloads, elapsed, events, snapshot = run_chunk(
                message["kind"],
                schemes,
                message.get("args", {}),
                with_telemetry=bool(message.get("telemetry")),
                prefix=message.get("prefix"),
            )
        except Exception as error:  # noqa: BLE001 - reported to the coordinator
            self._reply(
                {
                    "ok": False,
                    "id": message.get("id"),
                    "error": f"{type(error).__name__}: {error}",
                }
            )
            return False
        self.chunks_done += 1
        self._reply(
            {
                "ok": True,
                "id": message["id"],
                "payloads": payloads,
                "elapsed": elapsed,
                "events": events,
                "snapshot": snapshot,
            }
        )
        drop_after = os.environ.get("REPRO_WORKER_TEST_DROP_AFTER")
        if drop_after is not None and self.chunks_done >= int(drop_after):
            # Simulated network fault: sever the connection, stay alive.
            raise ConnectionError("test hook: dropping coordinator connection")
        return False


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[str] = None,
) -> None:
    """Run the repro-worker accept loop until a coordinator says shutdown.

    One coordinator is served at a time (the engine holds one connection
    per worker); a disconnect returns to ``accept``, so workers survive
    coordinator restarts and repeated batches.
    """
    listener = socket.create_server((host, port))
    bound_port = listener.getsockname()[1]
    if port_file:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(str(bound_port))
    logger.info("repro-worker pid %d listening on %s:%d", os.getpid(), host, bound_port)
    try:
        while True:
            conn, peer = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _WorkerSession(conn, f"{peer[0]}:{peer[1]}")
            logger.info("coordinator connected from %s", session.peer)
            if session.serve():
                logger.info("shutdown requested; exiting")
                return
    finally:
        listener.close()


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-worker`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Long-lived sweep worker: serves plan-ordered scheme chunks to a "
            "repro coordinator over the socket transport."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free port)"
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log connections and installs"
    )
    options = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if options.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        serve_worker(options.host, options.port, options.port_file)
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# Coordinator side: the socket transport
# ----------------------------------------------------------------------


class _RemoteWorker:
    """Coordinator-side handle for one connected repro-worker."""

    def __init__(self, address: str, sock: socket.socket):
        self.address = address
        self.key = _host_key(address)
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.alive = True
        self.pid: Optional[int] = None
        # chunk_id -> (kind, scheme names, args, with_telemetry)
        self.outstanding: Dict[int, Tuple[str, List[str], dict, bool]] = {}
        self.lock = threading.Lock()

    def send(self, message: dict, blob: bytes = b"") -> int:
        with self.lock:
            return _send_message(self.sock, message, blob)

    def close(self) -> None:
        """Sever the connection (idempotent, callable from the engine thread).

        Only shuts down and closes the *socket*: a blocked reader thread
        wakes with EOF and exits.  The buffered ``rfile`` must not be
        closed here -- closing it races the reader's blocking read and can
        deadlock on the buffer lock; :meth:`release_rfile` does it once
        the reader is gone.
        """
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def release_rfile(self) -> None:
        """Close the read buffer; call only with no reader thread running."""
        try:
            self.rfile.close()
        except OSError:
            pass


class SocketTransport(WorkTransport):
    """Drive repro-worker processes over TCP with re-steal fault tolerance.

    Connects to every host up front, installs the batch's trace suite
    (shm descriptors first when :func:`remote_shm_enabled`, verified bulk
    bytes otherwise), then serves the engine's stealing loop.  One reader
    thread per worker funnels replies into a single completion queue; all
    scheduling state -- outstanding chunks, re-steals, telemetry -- is
    mutated only on the engine thread, inside :meth:`submit` and
    :meth:`next_completed`.
    """

    name = "socket"

    def __init__(
        self,
        traces: Sequence[SharingTrace],
        key: Tuple[str, ...],
        hosts: Sequence[str],
        chunk_timeout: Optional[float] = None,
        use_shm: Optional[bool] = None,
    ):
        self.key = key
        self.hosts = parse_hosts(hosts)
        if not self.hosts:
            raise ValueError("socket transport needs at least one host:port")
        if chunk_timeout is None:
            raw = os.environ.get("REPRO_REMOTE_TIMEOUT")
            chunk_timeout = float(raw) if raw else DEFAULT_CHUNK_TIMEOUT
        self.chunk_timeout = chunk_timeout
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._telemetry = Telemetry()
        self._workers: List[_RemoteWorker] = []
        self._readers: List[threading.Thread] = []
        self.published = None
        kernel = resolve_kernel_backend().name
        # A fully file-backed suite prefers the zero-copy ``files`` install
        # (workers stream the .rtrace paths themselves), so skip the shm
        # publish; mixed/resident suites publish as before, with any
        # streamed members filling their segments chunk-wise.
        offer_shm = (
            (use_shm if use_shm is not None else remote_shm_enabled())
            and shm_available()
            and file_trace_specs(traces) is None
        )
        if offer_shm:
            try:
                self.published = publish_traces(traces)
            except (OSError, RuntimeError, ValueError) as error:
                logger.warning(
                    "cannot publish shm traces for remote workers (%s); "
                    "using bulk transfer only",
                    error,
                )
        bulk: Optional[Tuple[List[dict], bytes]] = None
        try:
            for address in self.hosts:
                try:
                    worker = self._connect(address)
                    bulk = self._install(worker, kernel, traces, bulk)
                except (OSError, ConnectionError, ValueError, RuntimeError) as error:
                    logger.warning("worker %s unavailable: %s", address, error)
                    self._telemetry.count("engine.remote.connect_failures")
                    continue
                self._workers.append(worker)
            if not self._workers:
                raise RuntimeError(
                    f"no repro-worker reachable among {list(self.hosts)}"
                )
        except BaseException:
            self.close()
            raise
        for worker in self._workers:
            thread = threading.Thread(
                target=self._reader, args=(worker,), daemon=True,
                name=f"repro-remote-{worker.address}",
            )
            thread.start()
            self._readers.append(thread)
        self._telemetry.gauge("engine.remote.workers", len(self._workers))

    # -- setup ---------------------------------------------------------

    def _connect(self, address: str) -> _RemoteWorker:
        host, port = address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker = _RemoteWorker(address, sock)
        worker.send({"op": "hello", "schema": WIRE_SCHEMA})
        reply = self._read_reply(worker, timeout=10.0)
        if not reply.get("ok") or int(reply.get("schema", -1)) != WIRE_SCHEMA:
            worker.close()
            raise RuntimeError(
                f"worker {address} handshake failed (schema {reply.get('schema')})"
            )
        worker.pid = reply.get("pid")
        return worker

    def _install(self, worker, kernel, traces, bulk):
        """Install the trace suite in one worker; returns the cached bulk.

        Escalating negotiation, cheapest first: a zero-byte ``cached``
        probe against the worker's fingerprint-keyed suite cache, then shm
        descriptors, then ``.rtrace`` path records for file-backed suites,
        then verified bulk bytes.  Every data-bearing message carries the
        transport key so the worker caches what it installed.
        """
        key = list(self.key)
        if key:
            sent = worker.send(
                {"op": "install", "mode": "cached", "kernel": kernel, "key": key}
            )
            reply = self._read_reply(worker)
            if reply.get("ok"):
                self._telemetry.count("engine.remote.trace_cache.hits")
                self._telemetry.count("engine.remote.bytes_shipped", sent)
                return bulk
            self._telemetry.count("engine.remote.trace_cache.misses")
        if self.published is not None:
            sent = worker.send(
                {
                    "op": "install",
                    "mode": "shm",
                    "kernel": kernel,
                    "key": key,
                    "descriptors": _descriptors_to_json(self.published.descriptors),
                }
            )
            reply = self._read_reply(worker)
            if reply.get("ok"):
                self._telemetry.count("engine.remote.shm_installs")
                self._telemetry.count("engine.remote.bytes_shipped", sent)
                return bulk
            logger.info(
                "worker %s cannot attach shm (%s); shipping bulk traces",
                worker.address,
                reply.get("error"),
            )
        specs = file_trace_specs(traces)
        if specs is not None:
            sent = worker.send(
                {
                    "op": "install",
                    "mode": "files",
                    "kernel": kernel,
                    "key": key,
                    "files": specs,
                }
            )
            reply = self._read_reply(worker)
            if reply.get("ok"):
                self._telemetry.count("engine.remote.file_installs")
                self._telemetry.count("engine.remote.bytes_shipped", sent)
                return bulk
            logger.info(
                "worker %s cannot open trace files (%s); shipping bulk traces",
                worker.address,
                reply.get("error"),
            )
        if bulk is None:
            bulk = encode_bulk_traces(resolve_worker_traces(traces))
        headers, blob = bulk
        sent = worker.send(
            {
                "op": "install",
                "mode": "bulk",
                "kernel": kernel,
                "key": key,
                "traces": headers,
                "nbytes": len(blob),
            },
            blob,
        )
        reply = self._read_reply(worker)
        if not reply.get("ok"):
            raise RuntimeError(
                f"worker {worker.address} rejected traces: {reply.get('error')}"
            )
        self._telemetry.count("engine.remote.bulk_installs")
        self._telemetry.count("engine.remote.bytes_shipped", sent)
        return bulk

    def _read_reply(self, worker: _RemoteWorker, timeout: float = 60.0) -> dict:
        """Synchronous reply read, used only before the reader threads start."""
        worker.sock.settimeout(timeout)
        try:
            reply = _read_message(worker.rfile)
        finally:
            worker.sock.settimeout(None)
        if reply is None:
            raise ConnectionError(f"worker {worker.address} closed the connection")
        return reply

    # -- reader threads ------------------------------------------------

    def _reader(self, worker: _RemoteWorker) -> None:
        """Funnel one worker's replies into the completion queue.

        Reads block with no socket timeout: a single timed-out read would
        poison the buffered reader (CPython raises "cannot read from
        timed out object" on every read after one timeout), so hang
        detection lives in :meth:`next_completed`, which scans dispatch
        timestamps and closes the socket to wake this thread.  Only this
        thread reads the socket, so reply order is the worker's send
        order and a worker can never deliver a chunk twice.
        """
        while worker.alive:
            try:
                reply = _read_message(worker.rfile)
            except (ConnectionError, OSError, ValueError) as error:
                if worker.alive:
                    self._events.put(("dead", worker, str(error)))
                return
            if reply is None:
                if worker.alive:
                    self._events.put(("dead", worker, "connection closed"))
                return
            self._events.put(("reply", worker, reply))

    # -- the WorkTransport surface -------------------------------------

    @property
    def workers(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    def _live(self) -> List[_RemoteWorker]:
        return [worker for worker in self._workers if worker.alive]

    def submit(self, chunk_id, kind, schemes, args, with_telemetry) -> None:
        names = [scheme.full_name for scheme in schemes]
        self._dispatch(chunk_id, (kind, names, args, with_telemetry))

    def _dispatch(self, chunk_id: int, spec: tuple) -> None:
        """Send one chunk to the least-loaded live worker (retrying on death)."""
        kind, names, args, with_telemetry = spec
        while True:
            live = self._live()
            if not live:
                raise RuntimeError("all remote workers are gone")
            worker = min(live, key=lambda candidate: len(candidate.outstanding))
            message = {
                "op": "chunk",
                "id": chunk_id,
                "kind": kind,
                "schemes": names,
                "args": args,
                "telemetry": with_telemetry,
                "prefix": f"engine.remote.worker.{worker.key}",
            }
            with worker.lock:
                worker.outstanding[chunk_id] = (spec, time.monotonic())
            try:
                sent = worker.send(message)
            except (ConnectionError, OSError) as error:
                # un-register this chunk first so _mark_dead's re-steal of the
                # worker's *other* chunks cannot double-dispatch it; the outer
                # loop retries it on a surviving worker.
                with worker.lock:
                    worker.outstanding.pop(chunk_id, None)
                self._mark_dead(worker, f"send failed: {error}", resteal=True)
                continue
            self._telemetry.count("engine.remote.bytes_shipped", sent)
            self._telemetry.count(f"engine.remote.host.{worker.key}.chunks")
            return

    def _mark_dead(self, worker: _RemoteWorker, reason: str, resteal: bool) -> None:
        """Drop a worker and (optionally) re-dispatch everything it owed.

        Closing the socket *before* re-stealing guarantees a late reply
        from this worker can never be delivered, so each chunk completes
        exactly once no matter how the worker failed.
        """
        if not worker.alive:
            return
        logger.warning("remote worker %s lost (%s)", worker.address, reason)
        worker.close()
        with worker.lock:
            orphans = dict(worker.outstanding)
            worker.outstanding.clear()
        self._telemetry.count("engine.remote.worker_deaths")
        if not resteal or not orphans:
            return
        self._telemetry.count("engine.remote.resteals", len(orphans))
        self._telemetry.count(
            f"engine.remote.host.{worker.key}.resteals", len(orphans)
        )
        for chunk_id, (spec, _dispatched) in orphans.items():
            self._dispatch(chunk_id, spec)

    def next_completed(self) -> List[ChunkResult]:
        completed: List[ChunkResult] = []
        poll = min(1.0, self.chunk_timeout / 4.0)
        while not completed:
            try:
                kind, worker, payload = self._events.get(timeout=poll)
            except queue.Empty:
                self._reap_overdue()
                continue
            while True:
                if kind == "dead":
                    self._mark_dead(worker, payload, resteal=True)
                elif worker.alive:  # replies from a closed worker are stale
                    completed.extend(self._handle_reply(worker, payload))
                try:
                    kind, worker, payload = self._events.get_nowait()
                except queue.Empty:
                    break
        return completed

    def _reap_overdue(self) -> None:
        """Kill workers holding a chunk past its dispatch deadline.

        The deadline is measured per chunk from its own dispatch time, so
        a chunk freshly re-stolen onto a busy worker never counts against
        it.  Runs on the engine thread between completions; closing the
        socket here wakes the worker's reader thread with an error it
        ignores (``worker.alive`` is already false), and the orphaned
        chunks are re-dispatched before we resume waiting.
        """
        now = time.monotonic()
        for worker in self._live():
            with worker.lock:
                overdue = any(
                    now - dispatched > self.chunk_timeout
                    for _spec, dispatched in worker.outstanding.values()
                )
            if overdue:
                self._mark_dead(worker, "chunk deadline exceeded", resteal=True)

    def _handle_reply(self, worker: _RemoteWorker, reply: dict) -> List[ChunkResult]:
        chunk_id = reply.get("id")
        with worker.lock:
            known = worker.outstanding.pop(chunk_id, None)
        if not reply.get("ok"):
            raise RuntimeError(
                f"worker {worker.address} failed chunk {chunk_id}: "
                f"{reply.get('error')}"
            )
        if known is None:  # stale or duplicate id: drop, never double-complete
            logger.warning(
                "worker %s sent unknown chunk id %r; ignoring", worker.address, chunk_id
            )
            return []
        return [
            ChunkResult(
                chunk_id=chunk_id,
                payloads=reply["payloads"],
                elapsed=float(reply["elapsed"]),
                events=int(reply["events"]),
                snapshot=reply.get("snapshot"),
            )
        ]

    def reusable_for(self, key, workers) -> bool:
        return self.key == key and self.workers > 0

    def on_reuse(self, telemetry, num_traces: int) -> None:
        telemetry.count("engine.remote.transport_reuses")

    def record_telemetry(self, telemetry) -> None:
        """Fold (and reset) the transport's counters into the run telemetry."""
        telemetry.gauge("engine.parallel.transport_shm", 0.0)
        telemetry.gauge("engine.remote.workers", self.workers)
        drained, self._telemetry = self._telemetry, Telemetry()
        telemetry.merge(drained)

    def close(self, cancel: bool = False) -> None:
        for worker in self._workers:
            worker.close()
        for thread in self._readers:
            thread.join(timeout=5.0)
        for worker in self._workers:
            worker.release_rfile()
        self._readers = []
        self._workers = []
        if self.published is not None:
            self.published.close()
            self.published = None


def shutdown_workers(hosts: Sequence[str], timeout: float = 10.0) -> int:
    """Ask each listed repro-worker to exit; returns how many acknowledged."""
    stopped = 0
    for address in parse_hosts(hosts):
        host, port = address.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=timeout) as sock:
                sock.settimeout(timeout)
                _send_message(sock, {"op": "shutdown"})
                reply = _read_message(sock.makefile("rb"))
                if reply and reply.get("ok"):
                    stopped += 1
        except (OSError, ConnectionError, ValueError) as error:
            logger.warning("cannot stop worker %s: %s", address, error)
    return stopped


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(worker_main())


__all__ = [
    "SocketTransport",
    "serve_worker",
    "worker_main",
    "shutdown_workers",
    "parse_hosts",
    "encode_bulk_traces",
    "decode_bulk_traces",
    "remote_shm_enabled",
    "WIRE_SCHEMA",
    "DEFAULT_CHUNK_TIMEOUT",
]
