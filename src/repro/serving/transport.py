"""Socket transport: remote components and a wire state plane.

In-process serving keeps shard replicas as objects and moves state by
reference.  This module moves both the request plane and the state
plane onto TCP sockets on localhost, so replicas and workers run as
separate processes behind the same :class:`~repro.core.servable.
Servable` and :class:`~repro.serving.backends.ExecutionBackend`
protocols:

- **Framing** — every message is one length-prefixed frame: a fixed
  header (magic, wire version, kind, message id, payload length)
  followed by a pickled payload.  :func:`encode_frame` /
  :func:`decode_frame` are pure (unit-testable); :func:`write_frame` /
  :func:`read_frame` move frames over sockets and count bytes.

- **Request plane** — :class:`RemoteServable` spawns a service process
  (or any :class:`~repro.core.servable.Servable` factory) and speaks
  the request/response framing to it.  It exposes ``build_tasks`` /
  ``serve`` / ``aserve`` / update methods, so it plugs into
  :class:`~repro.serving.router.ReplicaGroup` (and, wrapped in one,
  :class:`~repro.serving.router.ShardedService`) **unchanged**: its
  tasks carry a submit hook that ships one shard copy's components as
  **one** pipelined frame: a router's fan-out is a scatter-gather.

- **State plane** — :class:`RemoteBackend` is the one out-of-process
  execution backend: worker processes connect back over TCP, state
  snapshots are published **once per epoch per worker** as explicit
  frames, and per task only a detached :class:`~repro.core.state.
  StateRef` travels.  On an epoch-to-epoch transition the parent ships
  the smallest of three encodings: a *semantic* delta (only the groups
  the updater re-aggregated, via
  :func:`~repro.core.state.compute_semantic_delta` when the store
  recorded an :class:`~repro.core.state.UpdateHint`), a content-defined
  *CDC* byte delta (:func:`~repro.core.state.compute_delta`), or the
  full snapshot — so state traffic scales with **update size**, not
  synopsis size.  Whole-blob checksums on apply keep reconstruction
  bit-identical or loudly failed.

- **Multiplexing** — both planes pipeline: any number of RPCs can be
  in flight per socket, correlated by the header's ``msg_id``, with a
  reader thread matching out-of-order replies to pending futures.
  :class:`RemoteServable` can hold N parallel links to one service
  process (``spawn(..., n_links=N)``) and picks the least-loaded link
  per call; :class:`RemoteChannel` supports an optional per-link
  in-flight cap.

- **Batch framing** — :meth:`RemoteBackend.submit_batch` ships a whole
  coalesced batch (e.g. from :class:`~repro.serving.backends.
  BatchingBackend`) as **one** ``KIND_BATCH`` frame and the worker
  runs it through :func:`~repro.serving.backends.run_component_batch`,
  so vectorized same-state kernels survive the process boundary.

Frames on one connection are strictly ordered and workers apply state
frames in their reader thread *before* resolving any later task frame,
so a task can never observe a half-applied or missing epoch that was
published ahead of it.

Hedging note: a :class:`RemoteBackend` task future is set running at
submit, so :meth:`~concurrent.futures.Future.cancel` on the losing
copy returns ``False`` and the remote copy runs to completion —
exactly Dean & Barroso's tied-request semantics for in-service copies.
:class:`RemoteChannel` futures stay cancellable until their reply
arrives: cancelling one in-flight RPC leaves its siblings on the same
socket untouched (the reader simply drops the late reply); cancelling
any task of a :class:`RemoteServable` shard copy abandons its one RPC.
"""

from __future__ import annotations

import errno
import io
import itertools
import pickle
import socket
import struct
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.core.clock import DeadlineClock, SimulatedClock, monotonic
from repro.core.servable import default_merge
from repro.core.state import (PICKLE_PROTOCOL, StaleEpochError, apply_delta,
                              apply_semantic_delta, blob_digest,
                              compute_delta, compute_semantic_delta)
from repro.serving.backends import (ComponentOutcome, ComponentTask,
                                    ExecutionBackend, _scatter_batch_future,
                                    run_component_batch, run_component_task)
from repro.serving.telemetry import get_tracer, trace_context_of

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_ERROR",
    "KIND_STATE",
    "KIND_TASK",
    "KIND_OUTCOME",
    "KIND_CONTROL",
    "KIND_BATCH",
    "encode_frame",
    "decode_frame",
    "write_frame",
    "read_frame",
    "bind_with_retry",
    "connect_with_retry",
    "RemoteError",
    "RemoteChannel",
    "RemoteServable",
    "RemoteBackend",
]


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

MAGIC = b"RPRO"
#: Version 2: payloads pickled with :data:`~repro.core.state.
#: PICKLE_PROTOCOL` (``pickle.HIGHEST_PROTOCOL``) instead of the
#: interpreter default, plus the ``KIND_BATCH`` frame kind.  Decoding
#: is strict — a version-1 peer is refused, never silently mis-read.
WIRE_VERSION = 2

#: magic(4) | version(1) | kind(1) | msg_id(8) | payload length(8)
_HEADER = struct.Struct(">4sBBQQ")

KIND_REQUEST = 1   # ServingRequest-level RPC (client -> service process)
KIND_RESPONSE = 2  # successful RPC reply
KIND_ERROR = 3     # RPC reply carrying a remote exception
KIND_STATE = 4     # state-plane publication (parent -> backend worker)
KIND_TASK = 5      # ComponentTask shipment (parent -> backend worker)
KIND_OUTCOME = 6   # ComponentOutcome reply (backend worker -> parent)
KIND_CONTROL = 7   # connection control ("shutdown", ...)
KIND_BATCH = 8     # coalesced ComponentTask batch (parent -> worker)


class RemoteError(RuntimeError):
    """An exception raised on the far side of a transport connection.

    ``remote_type`` is the remote exception's class name and
    ``remote_traceback`` its formatted traceback, so the local failure
    is debuggable without attaching to the worker process.
    """

    def __init__(self, remote_type: str, message: str,
                 remote_traceback: str = ""):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback


def encode_frame(kind: int, msg_id: int, obj: Any = None,
                 payload: bytes | None = None) -> bytes:
    """One wire frame: header + pickled payload.

    Pass ``payload`` to ship pre-pickled bytes (the backend does this so
    byte accounting sees exactly what travels); otherwise ``obj`` is
    pickled here with :data:`~repro.core.state.PICKLE_PROTOCOL` —
    pinned, so both ends of a connection frame identically regardless
    of interpreter defaults.
    """
    if payload is None:
        payload = pickle.dumps(obj, PICKLE_PROTOCOL)
    return _HEADER.pack(MAGIC, WIRE_VERSION, kind, msg_id,
                        len(payload)) + payload


def decode_frame(buf: bytes) -> tuple[int, int, Any, int]:
    """Decode one frame from ``buf``: ``(kind, msg_id, obj, consumed)``.

    Raises :class:`ValueError` on a bad magic/version or a truncated
    buffer — this is the strict pure-function counterpart of
    :func:`read_frame`, used by the framing tests.
    """
    if len(buf) < _HEADER.size:
        raise ValueError("buffer shorter than a frame header")
    magic, version, kind, msg_id, length = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ValueError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {version}")
    end = _HEADER.size + length
    if len(buf) < end:
        raise ValueError("buffer truncated mid-frame")
    obj = pickle.loads(buf[_HEADER.size:end])
    return kind, msg_id, obj, end


def write_frame(sock: socket.socket, kind: int, msg_id: int,
                obj: Any = None, payload: bytes | None = None) -> int:
    """Send one frame; returns the number of bytes written."""
    frame = encode_frame(kind, msg_id, obj, payload)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, n: int,
                at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ConnectionError` on EOF mid-frame (a torn frame is a bug or
    a crashed peer, never a clean shutdown).
    """
    buf = io.BytesIO()
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if at_boundary and got == 0:
                return None
            raise ConnectionError("connection closed mid-frame")
        buf.write(chunk)
        got += len(chunk)
    return buf.getvalue()


def read_frame(sock: socket.socket) -> tuple[int, int, Any, int] | None:
    """Read one frame: ``(kind, msg_id, obj, nbytes)``; ``None`` on EOF."""
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    magic, version, kind, msg_id, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ConnectionError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise ConnectionError(f"unsupported wire version {version}")
    payload = _recv_exact(sock, length, at_boundary=False) if length else b""
    return kind, msg_id, pickle.loads(payload), _HEADER.size + length


# ---------------------------------------------------------------------------
# Socket helpers
# ---------------------------------------------------------------------------


def bind_with_retry(host: str = "127.0.0.1", port: int = 0,
                    retries: int = 5, backoff: float = 0.05,
                    ) -> socket.socket:
    """Bind and listen, retrying ``EADDRINUSE`` with linear backoff.

    ``port=0`` (the default everywhere in this module) lets the kernel
    pick a free port and never conflicts; the retry path exists for
    callers that pin a port on shared CI runners, where a previous
    run's socket may linger in ``TIME_WAIT``.
    """
    last: OSError | None = None
    for attempt in range(retries):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.bind((host, port))
            sock.listen(64)
            return sock
        except OSError as exc:
            sock.close()
            if exc.errno != errno.EADDRINUSE:
                raise
            last = exc
            time.sleep(backoff * (attempt + 1))
    raise OSError(errno.EADDRINUSE,
                  f"could not bind {host}:{port} after {retries} attempts"
                  ) from last


def connect_with_retry(host: str, port: int, retries: int = 40,
                       backoff: float = 0.05) -> socket.socket:
    """Connect, retrying refusals while the listener is still starting."""
    last: OSError | None = None
    for attempt in range(retries):
        try:
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(backoff * min(attempt + 1, 10))
    raise ConnectionError(
        f"could not connect to {host}:{port} after {retries} attempts"
    ) from last


def _preferred_mp_context(start_method: str | None):
    """A multiprocessing context preferring ``forkserver``.

    Pools may be created lazily from a harness worker thread, and
    forking an already-multithreaded process can inherit held locks
    (deprecated in Python 3.12+); forkserver forks from a clean helper
    process instead.
    """
    import multiprocessing as mp

    method = start_method
    if method is None:
        available = mp.get_all_start_methods()
        method = "forkserver" if "forkserver" in available else None
    return mp.get_context(method) if method is not None else None


def _error_payload(exc: BaseException) -> tuple[str, str, str]:
    return (type(exc).__name__, str(exc), traceback.format_exc())


def _raise_remote(payload: tuple[str, str, str]) -> Exception:
    """Map a wire error payload back to a local exception instance."""
    remote_type, message, tb = payload
    if remote_type == "StaleEpochError":
        return StaleEpochError(message)
    return RemoteError(remote_type, message, tb)


# ---------------------------------------------------------------------------
# Request plane: RPC channel + remote servable
# ---------------------------------------------------------------------------


class RemoteChannel:
    """One request/response connection with concurrent in-flight calls.

    Writers serialise on a lock; a daemon reader thread matches replies
    to pending futures by message id, so any number of threads can have
    calls outstanding on the same socket and replies may arrive in any
    order.  Byte and frame counters cover both directions.

    Futures stay *cancellable* until their reply arrives: cancelling
    one in-flight RPC abandons only that call (its pending entry and
    in-flight slot free at once, the reader drops its late reply) and
    leaves sibling RPCs on the socket untouched.

    ``max_in_flight`` optionally caps concurrent outstanding RPCs on
    this link; :meth:`submit` blocks until a slot frees.  ``None`` (the
    default) means unbounded pipelining.
    """

    def __init__(self, sock: socket.socket,
                 max_in_flight: int | None = None):
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        self._sock = sock
        self._wlock = threading.Lock()
        self._plock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._slots = (threading.BoundedSemaphore(max_in_flight)
                       if max_in_flight is not None else None)
        self.max_in_flight = max_in_flight
        self.bytes_sent = self.frames_sent = 0
        self.bytes_received = self.frames_received = 0
        self._reader = threading.Thread(target=self._read_loop, daemon=True,
                                        name="repro-transport-reader")
        self._reader.start()

    @property
    def in_flight(self) -> int:
        """RPCs currently awaiting a reply on this link."""
        with self._plock:
            return len(self._pending)

    def submit(self, obj: Any) -> Future:
        """Send one RPC; the future completes when the reply arrives."""
        future: Future = Future()
        if self._slots is not None:
            self._slots.acquire()
        msg_id = next(self._ids)
        with self._plock:
            closed = self._closed
            if not closed:
                self._pending[msg_id] = future
        future.add_done_callback(lambda _f: self._settle(msg_id))
        if closed:
            future.cancel()
            raise ConnectionError("channel is closed")
        try:
            with self._wlock:
                self.bytes_sent += write_frame(self._sock, KIND_REQUEST,
                                               msg_id, obj)
                self.frames_sent += 1
        except OSError as exc:
            if not future.done():
                future.set_exception(
                    ConnectionError(f"channel write failed: {exc}"))
            raise
        return future

    def _settle(self, msg_id: int) -> None:
        """An RPC completed or was abandoned: free its entry and slot."""
        with self._plock:
            self._pending.pop(msg_id, None)
        if self._slots is not None:
            self._slots.release()

    def call(self, obj: Any, timeout: float | None = None) -> Any:
        """Blocking RPC round-trip; a timeout abandons the RPC."""
        future = self.submit(obj)
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            future.cancel()
            raise

    def send_control(self, obj: Any) -> None:
        """Fire-and-forget control frame (e.g. ``"shutdown"``)."""
        with self._wlock:
            self.bytes_sent += write_frame(self._sock, KIND_CONTROL, 0, obj)
            self.frames_sent += 1

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame(self._sock)
                if frame is None:
                    break
                kind, msg_id, obj, nbytes = frame
                self.bytes_received += nbytes
                self.frames_received += 1
                with self._plock:
                    future = self._pending.pop(msg_id, None)
                if future is None or not future.set_running_or_notify_cancel():
                    continue  # unknown id or locally-cancelled RPC
                if kind == KIND_ERROR:
                    future.set_exception(_raise_remote(obj))
                else:
                    future.set_result(obj)
        except (ConnectionError, OSError) as exc:
            self._fail_all(exc)
        else:
            self._fail_all(ConnectionError("connection closed by peer"))

    def _fail_all(self, exc: BaseException) -> None:
        with self._plock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)

    def close(self) -> None:
        with self._plock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _run_remote_components(service, specs: list) -> list[ComponentOutcome]:
    """Service-process side of one shard-copy frame.

    One ``(component, payload, deadline, clock, envelope)`` per task:
    all pin the service's *current* epoch up front (the cut an
    in-process ``build_tasks`` takes), then run in order through the one
    execution choke point, so each outcome — state epoch, envelope
    stamping included — is bit-identical to the in-process path.
    """
    tasks = [ComponentTask(
        component=component, adapter=service.adapter, request=payload,
        deadline=deadline, state_ref=service.store.ref(component),
        clock=clock, i_max=service._i_max,
        i_max_fraction=service._i_max_fraction, envelope=envelope)
        for component, payload, deadline, clock, envelope in specs]
    return [run_component_task(task) for task in tasks]


def _dispatch_rpc(service, obj: Any) -> Any:
    """Service-process RPC dispatch table."""
    op, args = obj[0], obj[1:]
    if op == "component_tasks":
        return _run_remote_components(service, *args)
    if op == "serve":
        request, clocks = args
        return service.serve(request, clocks=clocks)
    if op == "hello":
        return {"n_components": service.n_components,
                "adapter": service.adapter}
    if op == "exact":
        return service.exact(*args)
    if op == "exact_components":
        return service.exact_components(*args)
    if op == "add_points":
        return service.add_points(*args)
    if op == "change_points":
        return service.change_points(*args)
    if op == "replace_partition":
        return service.replace_partition(*args)
    if op == "component_epoch":
        return service.component_epoch(*args)
    raise ValueError(f"unknown transport op {op!r}")


def _service_worker_main(conn, spec) -> None:
    """Entry point of a spawned service process.

    Builds the service from ``spec = (factory, args, kwargs)``, binds a
    listener on an OS-assigned port, reports ``("ok", port)`` (or
    ``("error", traceback)``) over the bootstrap pipe, then serves RPCs
    from **any number of accepted connections** — one
    :class:`RemoteServable` may open N parallel links — all sharing one
    service instance and one RPC thread pool.  Each connection gets its
    own reader thread and per-connection write lock.  The process exits
    on a shutdown control frame (from any link) or once every accepted
    connection has reached EOF.
    """
    try:
        factory, args, kwargs = spec
        service = factory(*args, **kwargs)
        listener = bind_with_retry()
        port = listener.getsockname()[1]
        conn.send(("ok", port))
    except BaseException:  # noqa: BLE001 - reported over the pipe
        conn.send(("error", traceback.format_exc()))
        return
    finally:
        conn.close()

    stop = threading.Event()
    conns_lock = threading.Lock()
    live_conns = 0
    accepted_any = threading.Event()

    def serve_conn(sock: socket.socket, pool: ThreadPoolExecutor) -> None:
        nonlocal live_conns
        wlock = threading.Lock()

        def handle(msg_id: int, obj: Any) -> None:
            try:
                reply_kind, reply = KIND_RESPONSE, _dispatch_rpc(service, obj)
            except BaseException as exc:  # noqa: BLE001 - to the client
                reply_kind, reply = KIND_ERROR, _error_payload(exc)
            with wlock:
                try:
                    write_frame(sock, reply_kind, msg_id, reply)
                except OSError:
                    pass

        try:
            while not stop.is_set():
                try:
                    frame = read_frame(sock)
                except (ConnectionError, OSError):
                    break
                if frame is None:
                    break
                kind, msg_id, obj, _ = frame
                if kind == KIND_CONTROL:
                    if obj == "shutdown":
                        stop.set()
                        break
                    continue
                pool.submit(handle, msg_id, obj)
        finally:
            sock.close()
            with conns_lock:
                live_conns -= 1
                if live_conns == 0 and accepted_any.is_set():
                    stop.set()

    with ThreadPoolExecutor(max_workers=8,
                            thread_name_prefix="repro-remote-rpc") as pool:
        listener.settimeout(0.2)
        deadline = monotonic() + 60.0
        readers: list[threading.Thread] = []
        try:
            while not stop.is_set():
                if not accepted_any.is_set() and monotonic() > deadline:
                    break  # nobody ever connected
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with conns_lock:
                    live_conns += 1
                accepted_any.set()
                reader = threading.Thread(target=serve_conn,
                                          args=(sock, pool), daemon=True,
                                          name="repro-remote-conn")
                reader.start()
                readers.append(reader)
        finally:
            listener.close()
        for reader in readers:
            reader.join(timeout=5.0)


class _CopyFuture(Future):
    """One task's share of a shard-copy RPC, which is one unit:
    cancelling any share abandons the RPC (its siblings fail with
    ``CancelledError``) and a blocking :meth:`result` is bounded by the
    servable's timeout, abandoning the RPC on expiry."""

    def __init__(self, rpc: Future, timeout: float | None):
        super().__init__()
        self._rpc, self._timeout = rpc, timeout

    def cancel(self) -> bool:
        self._rpc.cancel()
        return super().cancel()

    def result(self, timeout: float | None = None):
        try:
            return super().result(
                self._timeout if timeout is None else timeout)
        except FutureTimeout:
            self.cancel()
            raise


class RemoteServable:
    """A servable living in another process, reached over pipelined links.

    Satisfies the :class:`~repro.core.servable.Servable` protocol, so a
    :class:`~repro.serving.router.ReplicaGroup` accepts it as a replica
    (and, wrapped in a group, :class:`~repro.serving.router.
    ShardedService` accepts it as a shard) with **no router changes**:

    - :meth:`serve` / :meth:`aserve` forward the whole envelope as one
      RPC and return the remote :class:`~repro.serving.envelope.
      ServingResponse`.
    - :meth:`build_tasks` returns local :class:`~repro.serving.backends.
      ComponentTask` values whose submit hook ships the whole shard
      copy as one frame — the local execution backend still schedules
      (and hedges) the copy, while the state stays remote.
    - update methods (:meth:`add_points` / :meth:`change_points` /
      :meth:`replace_partition`) forward to the remote service, so the
      router's update fan-out works unchanged.

    Use :meth:`spawn` to launch the service in a fresh process from an
    importable factory (e.g. :class:`~repro.core.service.
    AccuracyTraderService` plus its constructor arguments — the factory
    and arguments must be picklable, the built service need not be).
    ``spawn(..., n_links=N)`` opens N parallel sockets to the one
    process; each call then rides the least-loaded link, so concurrent
    requests spread across connections instead of serialising.
    """

    def __init__(self, channel, process=None, timeout: float = 60.0):
        """``channel`` is one :class:`RemoteChannel` or a list of them."""
        channels = (list(channel) if isinstance(channel, (list, tuple))
                    else [channel])
        if not channels:
            raise ValueError("need at least one channel")
        self._channels: list[RemoteChannel] = channels
        self._rr = itertools.count()
        self._process = process
        self._timeout = timeout
        self._closed = False
        hello = channels[0].call(("hello",), timeout=timeout)
        self._n_components = hello["n_components"]
        self._merge = default_merge(hello["adapter"])

    @classmethod
    def spawn(cls, factory: Callable, *args, start_method: str | None = None,
              timeout: float = 60.0, n_links: int = 1,
              max_in_flight: int | None = None,
              **kwargs) -> "RemoteServable":
        """Launch ``factory(*args, **kwargs)`` in a new process and attach.

        The child binds an OS-assigned port (no conflicts) and reports
        it over a bootstrap pipe; a build failure in the child surfaces
        here as a :class:`RuntimeError` carrying the child traceback.
        ``n_links`` opens that many parallel connections to the child;
        ``max_in_flight`` caps outstanding RPCs per link (see
        :class:`RemoteChannel`).
        """
        import multiprocessing as mp

        if n_links < 1:
            raise ValueError("n_links must be positive")
        ctx = _preferred_mp_context(start_method) or mp
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_service_worker_main,
                              args=(child_conn, (factory, args, kwargs)),
                              daemon=True)
        process.start()
        child_conn.close()
        if not parent_conn.poll(timeout):
            process.terminate()
            raise TimeoutError("remote service did not start in time")
        status, value = parent_conn.recv()
        parent_conn.close()
        if status != "ok":
            process.join(timeout=5.0)
            raise RuntimeError(f"remote service failed to build:\n{value}")
        channels = [RemoteChannel(connect_with_retry("127.0.0.1", value),
                                  max_in_flight=max_in_flight)
                    for _ in range(n_links)]
        return cls(channels, process=process, timeout=timeout)

    # -- Servable protocol ----------------------------------------------

    @property
    def n_components(self) -> int:
        return self._n_components

    @property
    def merge(self) -> Callable:
        """The merge function (derived from the remote adapter)."""
        return self._merge

    @property
    def n_links(self) -> int:
        """Parallel connections to the remote process."""
        return len(self._channels)

    def _pick_channel(self) -> RemoteChannel:
        """The least-loaded link (fewest in-flight RPCs; round-robin tie)."""
        if len(self._channels) == 1:
            return self._channels[0]
        start = next(self._rr) % len(self._channels)
        best = None
        best_depth = -1
        for i in range(len(self._channels)):
            channel = self._channels[(start + i) % len(self._channels)]
            depth = channel.in_flight
            if best is None or depth < best_depth:
                best, best_depth = channel, depth
                if depth == 0:
                    break
        return best

    def build_tasks(self, request, deadline: float | None = None,
                    clocks: list[DeadlineClock] | None = None) -> list:
        """Per-component tasks whose execution happens remotely.

        Mirrors :meth:`AccuracyTraderService.build_tasks` envelope and
        deadline handling exactly; the returned tasks carry no adapter
        or state — their submit hook ships ``(component, payload,
        deadline, clock, envelope)`` per task over the socket and the
        service process pins its current epoch at execution.
        """
        from repro.serving.envelope import ServingRequest

        envelope = None
        payload = request
        if isinstance(request, ServingRequest):
            envelope = request.detached()
            payload = request.payload
            if deadline is None:
                deadline = request.deadline
        if deadline is None:
            raise ValueError(
                "a deadline is required: set it on the envelope or pass "
                "deadline= explicitly")
        if clocks is None:
            clocks = [SimulatedClock(speed=1e12)
                      for _ in range(self._n_components)]
        if len(clocks) != self._n_components:
            raise ValueError("need one clock per component")
        return [
            ComponentTask(
                component=c, adapter=None, request=payload,
                deadline=deadline, clock=clock, envelope=envelope,
                submit=self._submit_copy)
            for c, clock in enumerate(clocks)
        ]

    def _submit_copy(self, tasks: Sequence[ComponentTask]) -> list[Future]:
        """Ship one shard copy as one pipelined frame; never waits.

        The payload and envelope the tasks share pickle once (memo);
        the ``wire.rpc`` span is recorded as the reply lands.
        """
        channel = self._pick_channel()
        ctx = trace_context_of(tasks[0].envelope)
        traced = ctx is not None and ctx.sampled
        if traced:
            sent0, received0 = channel.bytes_sent, channel.bytes_received
            # Depth *before* this RPC joins the link: 0 means it had the
            # socket to itself, >0 means it pipelined behind siblings.
            depth, t0 = channel.in_flight, monotonic()
            components = [t.component for t in tasks]
        rpc = channel.submit(("component_tasks", [
            (t.component, t.request, t.deadline, t.clock, t.envelope)
            for t in tasks]))
        if traced:
            rpc.add_done_callback(lambda _f: get_tracer().record(
                "wire.rpc", ctx, t0, monotonic(),
                components=components, in_flight=depth,
                bytes_sent=channel.bytes_sent - sent0,
                bytes_received=channel.bytes_received - received0))
        return _scatter_batch_future(
            rpc, len(tasks), lambda: _CopyFuture(rpc, self._timeout))

    def serve(self, request, clocks: list[DeadlineClock] | None = None,
              backend=None):
        """One envelope RPC; execution runs on the remote service.

        ``backend`` is accepted for signature compatibility and
        ignored — the remote process executes with its own backend.
        """
        return self._pick_channel().call(("serve", request, clocks),
                                         timeout=self._timeout)

    async def aserve(self, request,
                     clocks: list[DeadlineClock] | None = None,
                     backend=None):
        """Async :meth:`serve`: the RPC waits in an executor thread."""
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.serve(request, clocks=clocks))

    def exact(self, request) -> Any:
        """Remote full exact computation (ground truth)."""
        return self._pick_channel().call(("exact", request), timeout=None)

    def exact_components(self, request) -> list:
        """Remote unmerged exact per-component results."""
        return self._pick_channel().call(("exact_components", request),
                                         timeout=None)

    # -- update fan-out --------------------------------------------------

    def add_points(self, component: int, partition, new_record_ids):
        return self._pick_channel().call(
            ("add_points", component, partition, new_record_ids),
            timeout=None)

    def change_points(self, component: int, partition, changed_record_ids):
        return self._pick_channel().call(
            ("change_points", component, partition, changed_record_ids),
            timeout=None)

    def replace_partition(self, component: int, partition):
        return self._pick_channel().call(
            ("replace_partition", component, partition), timeout=None)

    def component_epoch(self, component: int) -> int:
        """The remote component's current state epoch (test/debug)."""
        return self._pick_channel().call(("component_epoch", component),
                                         timeout=self._timeout)

    # -- lifecycle -------------------------------------------------------

    def transport_counters(self) -> dict:
        """Bytes and frames moved over this servable's links."""
        return {key: sum(getattr(c, key) for c in self._channels)
                for key in ("bytes_sent", "bytes_received",
                            "frames_sent", "frames_received")}

    def close(self) -> None:
        """Shut down the remote process and every link (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._channels[0].send_control("shutdown")
        except OSError:
            pass
        for channel in self._channels:
            channel.close()
        if self._process is not None:
            self._process.join(timeout=10.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)

    def __enter__(self) -> "RemoteServable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# State plane: socket backend with delta epochs
# ---------------------------------------------------------------------------


def _backend_worker_main(host: str, port: int) -> None:
    """Entry point of a :class:`RemoteBackend` worker process.

    Connects back to the parent's listener and serves two frame kinds:

    - ``KIND_STATE`` — applied synchronously in the reader thread, so
      every task frame sent after a publication observes it.  A full
      frame with ``cache=True`` replaces the newest cached snapshot for
      its ``(store, component)``; ``cache=False`` goes to a small
      one-off cache for straggler epochs; a ``delta`` frame
      reconstructs the new blob from the cached base via
      :func:`~repro.core.state.apply_delta` and a ``semantic`` frame
      via :func:`~repro.core.state.apply_semantic_delta` (both
      checksum-verified against the sender's bytes).
    - ``KIND_TASK`` — the detached ref is resolved against the caches
      *in the reader thread* (eviction can never race execution), then
      the materialised task runs on a small pool and its outcome (or
      error) is framed back under a write lock.
    - ``KIND_BATCH`` — a list of tasks sharing one ref; resolved once
      in the reader, run through :func:`~repro.serving.backends.
      run_component_batch` on the pool (vectorized same-state kernels),
      and answered as one list-of-outcomes frame.

    A resolved task's adapter is interned by its pickled bytes (at most
    64 distinct ones, oldest dropped first), so the adapter's
    per-process memos live as long as the worker and a snapshot's
    derived layouts are built once per epoch.
    """
    sock = connect_with_retry(host, port)
    wlock = threading.Lock()
    # (store_id, component) -> (epoch, blob, state): the newest snapshot.
    newest: dict[tuple, tuple[int, bytes, Any]] = {}
    # Straggler epochs, bounded: (store_id, component, epoch) -> state.
    oneoff: OrderedDict[tuple, Any] = OrderedDict()
    # (store_id, component) -> message from a failed state apply.
    failed: dict[tuple, str] = {}
    # Pickled bytes -> the one adapter this worker runs for them.
    adapters: dict[bytes, Any] = {}

    def reply(msg_id: int, kind: int, obj: Any) -> None:
        with wlock:
            try:
                write_frame(sock, kind, msg_id, obj)
            except OSError:
                pass

    def run(msg_id: int, task: ComponentTask, epoch: int | None) -> None:
        try:
            outcome = run_component_task(task)
            if epoch is not None:
                outcome.report.state_epoch = epoch
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            reply(msg_id, KIND_ERROR, _error_payload(exc))
            return
        reply(msg_id, KIND_OUTCOME, outcome)

    def run_batch(msg_id: int, tasks: list, epoch: int | None) -> None:
        try:
            outcomes = run_component_batch(tasks)
            if epoch is not None:
                for outcome in outcomes:
                    outcome.report.state_epoch = epoch
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            reply(msg_id, KIND_ERROR, _error_payload(exc))
            return
        reply(msg_id, KIND_OUTCOME, outcomes)

    def apply_state(obj) -> None:
        if obj[0] == "full":
            _, store_id, component, epoch, cache, blob = obj
            group = (store_id, component)
            state = pickle.loads(blob)
            if not cache:
                oneoff[(store_id, component, epoch)] = state
                while len(oneoff) > 16:
                    oneoff.popitem(last=False)
                return
            current = newest.get(group)
            if current is None or epoch >= current[0]:
                newest[group] = (epoch, blob, state)
            failed.pop(group, None)
        else:  # ("delta"|"semantic", store_id, comp, base_epoch, epoch, d)
            op, store_id, component, base_epoch, epoch, delta = obj
            group = (store_id, component)
            current = newest.get(group)
            if current is None or current[0] != base_epoch:
                failed[group] = (
                    f"{op} delta for epoch {epoch} arrived with base "
                    f"{base_epoch} but worker holds "
                    f"{current[0] if current else None}")
                return
            if op == "semantic":
                blob = apply_semantic_delta(current[1], delta)
            else:
                blob = apply_delta(current[1], delta)
            newest[group] = (epoch, blob, pickle.loads(blob))
            failed.pop(group, None)

    with ThreadPoolExecutor(max_workers=4,
                            thread_name_prefix="repro-remote-task") as pool:
        while True:
            try:
                frame = read_frame(sock)
            except (ConnectionError, OSError):
                break
            if frame is None:
                break
            kind, msg_id, obj, _ = frame
            if kind == KIND_CONTROL:
                if obj == "shutdown":
                    break
                continue
            if kind == KIND_STATE:
                try:
                    apply_state(obj)
                except BaseException as exc:  # noqa: BLE001
                    group = (obj[1], obj[2])
                    failed[group] = str(exc)
                continue
            # KIND_TASK / KIND_BATCH: resolve state here, in the
            # reader, so a later publication can never evict a snapshot
            # out from under a queued task.
            def resolve(task: ComponentTask):
                """(task, epoch) with inline state, or an error string."""
                ref = task.state_ref
                if ref is None or task.partition is not None \
                        or task.synopsis is not None:
                    return task, None
                group = (ref.store_id, ref.component)
                entry = newest.get(group)
                if entry is not None and entry[0] == ref.epoch:
                    state = entry[2]
                else:
                    state = oneoff.get(ref.key)
                if state is None:
                    detail = failed.get(group, "no snapshot for this epoch "
                                        "has been published to this worker")
                    return None, f"cannot resolve {ref.key}: {detail}"
                # Byte-equal adapters are interchangeable, so every
                # task runs on one interned object and its memos
                # (components, layouts, stage-1 indexes) are built once
                # per epoch, not once per unpickled task.
                key = pickle.dumps(task.adapter, PICKLE_PROTOCOL)
                adapter = adapters.get(key)
                if adapter is None:
                    if len(adapters) >= 64:
                        adapters.pop(next(iter(adapters)))
                    adapter = adapters[key] = task.adapter
                return replace(task, adapter=adapter,
                               partition=state.partition,
                               synopsis=state.synopsis,
                               state_ref=None), ref.epoch

            if kind == KIND_BATCH:
                resolved = [resolve(t) for t in obj]
                bad = next((err for t, err in resolved if t is None), None)
                if bad is not None:
                    reply(msg_id, KIND_ERROR, ("StaleEpochError", bad, ""))
                    continue
                epochs = {e for _, e in resolved}
                epoch = epochs.pop() if len(epochs) == 1 else None
                pool.submit(run_batch, msg_id,
                            [t for t, _ in resolved], epoch)
                continue
            task, epoch = resolve(obj)
            if task is None:
                reply(msg_id, KIND_ERROR, ("StaleEpochError", epoch, ""))
                continue
            pool.submit(run, msg_id, task, epoch)
    sock.close()


class _WorkerLink:
    """Parent-side handle on one connected backend worker."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.wlock = threading.Lock()
        self.plock = threading.Lock()
        self.pending: dict[int, Future] = {}
        self.closed = False  # reader gone: no reply can arrive here
        self.ids = itertools.count(1)
        # (store_id, component) -> (epoch, blob): the newest snapshot
        # this worker caches, mirrored byte-for-byte parent-side so
        # delta bases always match what the worker actually holds.
        self.held: dict[tuple, tuple[int, bytes]] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reader = threading.Thread(target=self._read_loop, daemon=True,
                                       name="repro-backend-reader")
        self.reader.start()

    @property
    def in_flight(self) -> int:
        with self.plock:
            return len(self.pending)

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame(self.sock)
                if frame is None:
                    break
                kind, msg_id, obj, nbytes = frame
                self.bytes_received += nbytes
                with self.plock:
                    future = self.pending.pop(msg_id, None)
                if future is None:
                    continue
                if kind == KIND_ERROR:
                    future.set_exception(_raise_remote(obj))
                else:
                    future.set_result(obj)
        except (ConnectionError, OSError) as exc:
            self._fail_all(exc)
        else:
            self._fail_all(ConnectionError("backend worker disconnected"))

    def _fail_all(self, exc: BaseException) -> None:
        with self.plock:
            self.closed = True
            pending = list(self.pending.values())
            self.pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


#: Cache-miss sentinel: the semantic cache stores ``None`` for "tried,
#: no semantic encoding exists", which is distinct from "never tried".
_SEMANTIC_MISS = object()


class RemoteBackend(ExecutionBackend):
    """Socket execution backend: workers over TCP, state as delta epochs.

    Worker processes connect back over localhost TCP, each task travels
    as a small frame holding a detached :class:`~repro.core.state.
    StateRef`, and snapshots are published out-of-band at most once per
    epoch per worker.  On an epoch-to-epoch transition the parent
    picks the smallest of three encodings — a **semantic**
    delta carrying only the re-aggregated group vectors (when the
    store recorded an :class:`~repro.core.state.UpdateHint` for the
    transition), a content-defined **CDC** byte delta
    (:func:`~repro.core.state.compute_delta`), or the **full**
    snapshot — so for incremental updates (``add_points`` /
    ``change_points``) state bytes-on-wire scale with the size of the
    *update*, not the synopsis.  Checksums on apply make
    reconstruction bit-identical (to the sender's bytes) or loudly
    failed, never silently wrong.

    Links are multiplexed: every worker connection can carry many
    in-flight tasks (``msg_id``-correlated), and :meth:`submit_task`
    picks the least-loaded link.  :meth:`submit_batch` ships a whole
    coalesced batch as one ``KIND_BATCH`` frame that the worker runs
    through :func:`~repro.serving.backends.run_component_batch`.

    Straggler epochs (a task pinned to an epoch older than the newest a
    worker holds) are served by a one-off full publication that does
    not displace the worker's newest snapshot — sent per straggler
    task, since the worker's one-off cache is small and bounded.

    Tasks must carry a live (pinned) ref or inline state; a detached
    ref cannot be materialised parent-side and is rejected with
    :class:`~repro.core.state.StaleEpochError`.

    :meth:`payload_counters` keeps the standard four keys —
    ``state_bytes`` / ``state_publishes`` cover full and delta frames
    combined — and :meth:`transport_counters` breaks the state plane
    down further (full vs delta counts and bytes, raw socket totals).
    """

    name = "remote"

    def __init__(self, n_workers: int = 2, start_method: str | None = None,
                 retain_blobs: int = 4):
        self.n_workers = n_workers
        self.start_method = start_method
        self.retain_blobs = retain_blobs
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._links: list[_WorkerLink] = []
        self._procs: list = []
        self._rr = 0
        # (store_id, component) -> OrderedDict[epoch -> serialized blob],
        # bounded by retain_blobs: the delta bases.
        self._blobs: dict[tuple, OrderedDict[int, bytes]] = {}
        # Payload accounting lives in the registry; the historical
        # counter dicts below read through to these.
        self._task_bytes = self.metrics.counter("task_bytes")
        self._tasks_shipped = self.metrics.counter("tasks_shipped")
        self._state_full_bytes = self.metrics.counter("state_full_bytes")
        self._state_full_publishes = self.metrics.counter(
            "state_full_publishes")
        self._state_delta_bytes = self.metrics.counter("state_delta_bytes")
        self._state_delta_publishes = self.metrics.counter(
            "state_delta_publishes")
        self._state_semantic_bytes = self.metrics.counter(
            "state_semantic_bytes")
        self._state_semantic_publishes = self.metrics.counter(
            "state_semantic_publishes")
        self._batches_shipped = self.metrics.counter("batches_shipped")
        # (store_id, component, base_epoch, target_epoch) ->
        #   (SemanticDelta, as-applied blob) | None (None: tried, no
        #   semantic encoding exists for this transition).
        self._semantic_cache: OrderedDict[tuple, Any] = OrderedDict()

    # -- worker management ----------------------------------------------

    def _ensure_links(self) -> list[_WorkerLink]:
        with self._lock:
            if self._links:
                return self._links
            listener = bind_with_retry()
            listener.settimeout(60.0)
            port = listener.getsockname()[1]
            import multiprocessing as mp

            ctx = _preferred_mp_context(self.start_method) or mp
            procs = [ctx.Process(target=_backend_worker_main,
                                 args=("127.0.0.1", port), daemon=True)
                     for _ in range(self.n_workers)]
            for proc in procs:
                proc.start()
            links = []
            try:
                for _ in range(self.n_workers):
                    sock, _ = listener.accept()
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY,
                                    1)
                    links.append(_WorkerLink(sock))
            except OSError:
                for proc in procs:
                    proc.terminate()
                listener.close()
                raise
            self._listener = listener
            self._procs = procs
            self._links = links
            return self._links

    def _next_link(self, links: list[_WorkerLink]) -> _WorkerLink:
        """Least-loaded live link (fewest in-flight tasks; round-robin
        tie); ``ConnectionError`` when every worker's link is closed."""
        links = [link for link in links if not link.closed]
        if not links:
            raise ConnectionError("no live backend worker")
        with self._lock:
            start = self._rr % len(links)
            self._rr += 1
        best = links[start]
        best_depth = best.in_flight
        for i in range(1, len(links)):
            if best_depth == 0:
                break
            link = links[(start + i) % len(links)]
            depth = link.in_flight
            if depth < best_depth:
                best, best_depth = link, depth
        return best

    # -- state plane -----------------------------------------------------

    def _epoch_blob(self, ref) -> bytes:
        """The serialized snapshot for ``ref``'s epoch (memoised)."""
        group = (ref.store_id, ref.component)
        with self._lock:
            cache = self._blobs.setdefault(group, OrderedDict())
            blob = cache.get(ref.epoch)
        if blob is None:
            blob = pickle.dumps(ref.resolve(), PICKLE_PROTOCOL)
            with self._lock:
                cache[ref.epoch] = blob
                while len(cache) > self.retain_blobs:
                    cache.popitem(last=False)
        return blob

    def _semantic_delta_for(self, ref, adapter, held_epoch: int,
                            held_blob: bytes):
        """``(SemanticDelta, as-applied blob)`` for the transition, or None.

        Semantic encoding needs a live store (for the recorded
        :class:`~repro.core.state.UpdateHint` chain) and the adapter
        (to recover per-group vectors).  Results are memoised per
        ``(group, base, target, base-digest)`` — the digest is part of
        the key because different links can hold *different bytes* for
        the same base epoch (a full publication vs an earlier delta's
        as-applied blob).
        """
        if adapter is None or ref.store is None:
            return None
        hint = ref.store.transition_hint(ref.component, held_epoch,
                                         ref.epoch)
        if hint is None:
            return None
        key = (ref.store_id, ref.component, held_epoch, ref.epoch,
               blob_digest(held_blob))
        with self._lock:
            cached = self._semantic_cache.get(key, _SEMANTIC_MISS)
            if cached is not _SEMANTIC_MISS:
                self._semantic_cache.move_to_end(key)
                return cached
        result = compute_semantic_delta(adapter, held_blob, ref.resolve(),
                                        hint)
        with self._lock:
            self._semantic_cache[key] = result
            while len(self._semantic_cache) > 32:
                self._semantic_cache.popitem(last=False)
        return result

    def _state_frames_locked(self, link: _WorkerLink, ref,
                             adapter=None) -> list[bytes]:
        """Frames that must precede a task pinned to ``ref`` (wlock held).

        Chooses, per worker, between nothing (epoch already held), the
        smallest of a semantic delta / CDC delta / full publication
        from the worker's held bytes, or a one-off straggler
        publication.  ``link.held`` is only read and written under the
        link's write lock, so the decision and the frames it produces
        are atomic with respect to other submitters.
        """
        group = (ref.store_id, ref.component)
        held = link.held.get(group)
        if held is not None and held[0] == ref.epoch:
            return []
        blob = self._epoch_blob(ref)
        if held is not None and ref.epoch < held[0]:
            # Straggler: one-off, does not displace the newest snapshot.
            frame = encode_frame(KIND_STATE, 0, (
                "full", ref.store_id, ref.component, ref.epoch, False,
                blob))
            self._state_full_bytes.inc(len(frame))
            self._state_full_publishes.inc()
            return [frame]
        full = encode_frame(KIND_STATE, 0, (
            "full", ref.store_id, ref.component, ref.epoch, True, blob))
        # (encoding, frame, bytes the worker will hold after applying).
        best = ("full", full, blob)
        if held is not None:
            held_epoch, held_blob = held
            delta = compute_delta(held_blob, blob)
            delta_frame = encode_frame(KIND_STATE, 0, (
                "delta", ref.store_id, ref.component, held_epoch,
                ref.epoch, delta))
            if len(delta_frame) < len(best[1]):
                best = ("delta", delta_frame, blob)
            semantic = self._semantic_delta_for(ref, adapter, held_epoch,
                                                held_blob)
            if semantic is not None:
                sdelta, applied = semantic
                semantic_frame = encode_frame(KIND_STATE, 0, (
                    "semantic", ref.store_id, ref.component, held_epoch,
                    ref.epoch, sdelta))
                if len(semantic_frame) < len(best[1]):
                    best = ("semantic", semantic_frame, applied)
        encoding, frame, held_after = best
        link.held[group] = (ref.epoch, held_after)
        if encoding == "semantic":
            self._state_semantic_bytes.inc(len(frame))
            self._state_semantic_publishes.inc()
        elif encoding == "delta":
            self._state_delta_bytes.inc(len(frame))
            self._state_delta_publishes.inc()
        else:
            self._state_full_bytes.inc(len(frame))
            self._state_full_publishes.inc()
        return [frame]

    # -- ExecutionBackend ------------------------------------------------

    def _ship(self, kind: int, wire, tasks: list, ref) -> Future:
        """Send ``wire`` — a task, or a list of tasks sharing ``ref`` — as
        one ``kind`` frame on the least-loaded link, preceded by the state
        frames ``ref`` needs there (``None``: state travels inline)."""
        link = self._next_link(self._ensure_links())
        ctx = next((c for c in (trace_context_of(t.envelope)
                                for t in tasks)
                    if c is not None and c.sampled), None)
        t_send = monotonic() if ctx is not None else 0.0
        depth = link.in_flight
        payload = pickle.dumps(wire, PICKLE_PROTOCOL)
        self._task_bytes.inc(len(payload))
        self._tasks_shipped.inc(len(tasks))
        future: Future = Future()
        future.set_running_or_notify_cancel()  # tied-request semantics
        msg_id = next(link.ids)
        with link.plock:
            closed = link.closed
            if not closed:
                link.pending[msg_id] = future
        if closed:
            future.set_exception(ConnectionError(
                "backend worker connection closed"))
            return future
        try:
            with link.wlock:
                state_frames = [] if ref is None else \
                    self._state_frames_locked(link, ref, tasks[0].adapter)
                for frame in state_frames:
                    link.sock.sendall(frame)
                    link.bytes_sent += len(frame)
                link.bytes_sent += write_frame(link.sock, kind, msg_id,
                                               payload=payload)
        except OSError as exc:
            with link.plock:
                link.pending.pop(msg_id, None)
            future.set_exception(ConnectionError(
                f"backend worker connection failed: {exc}"))
            return future
        if ctx is not None:
            get_tracer().record(
                "wire.send", ctx, t_send, monotonic(),
                component=tasks[0].component, task_bytes=len(payload),
                in_flight=depth, batch_size=len(tasks),
                state_bytes=sum(len(f) for f in state_frames))
        return future

    def _submit_plain(self, task: ComponentTask) -> "Future[ComponentOutcome]":
        ref = task.state_ref
        live = ref is not None and (ref.store is not None
                                    or ref.pinned is not None)
        if ref is not None and not live and task.partition is None \
                and task.synopsis is None:
            raise StaleEpochError(
                f"detached ref {ref.key} cannot be materialised for the "
                "wire; submit the task with its live (pinned) ref instead")
        if not live:
            return self._ship(KIND_TASK, task, [task], None)
        return self._ship(KIND_TASK, replace(task, state_ref=ref.detached()),
                          [task], ref)

    def submit_batch(self, tasks: Sequence[ComponentTask]) -> list[Future]:
        """Ship a coalesced batch as **one** ``KIND_BATCH`` frame.

        All tasks must share one live ref key (the
        invariant :class:`~repro.serving.backends.BatchingBackend`
        guarantees per bucket); anything else degrades to per-task
        submission, so a batch is never worse than unbatched dispatch.
        The worker resolves the shared snapshot once and runs the batch
        through :func:`~repro.serving.backends.run_component_batch` —
        one pickle, one frame, one vectorized stage-1 pass.
        """
        tasks = list(tasks)
        refs = [t.state_ref for t in tasks]
        batchable = len(tasks) > 1 and (
            all(r is not None and (r.store is not None
                                   or r.pinned is not None) for r in refs)
            and len({r.key for r in refs}) == 1)
        if not batchable:
            return self.submit_tasks(tasks)
        self._batches_shipped.inc()
        batch = self._ship(
            KIND_BATCH,
            [replace(t, state_ref=t.state_ref.detached()) for t in tasks],
            tasks, refs[0])
        return _scatter_batch_future(batch, len(tasks))

    def payload_counters(self) -> dict:
        return {
            "task_bytes": self._task_bytes.value,
            "state_bytes": self._state_full_bytes.value
            + self._state_delta_bytes.value
            + self._state_semantic_bytes.value,
            "tasks_shipped": self._tasks_shipped.value,
            "state_publishes": self._state_full_publishes.value
            + self._state_delta_publishes.value
            + self._state_semantic_publishes.value,
        }

    def transport_counters(self) -> dict:
        """State-plane breakdown plus raw socket byte totals."""
        counters = {
            "state_full_publishes": self._state_full_publishes.value,
            "state_delta_publishes": self._state_delta_publishes.value,
            "state_semantic_publishes":
                self._state_semantic_publishes.value,
            "state_full_bytes": self._state_full_bytes.value,
            "state_delta_bytes": self._state_delta_bytes.value,
            "state_semantic_bytes": self._state_semantic_bytes.value,
            "batches_shipped": self._batches_shipped.value,
        }
        counters["bytes_sent"] = sum(l.bytes_sent for l in self._links)
        counters["bytes_received"] = sum(l.bytes_received
                                         for l in self._links)
        return counters

    def close(self) -> None:
        with self._lock:
            links, procs, listener = self._links, self._procs, self._listener
            self._links, self._procs, self._listener = [], [], None
            self._blobs.clear()
            self._semantic_cache.clear()
            self._rr = 0
        for link in links:
            try:
                with link.wlock:
                    write_frame(link.sock, KIND_CONTROL, 0, "shutdown")
            except OSError:
                pass
        for link in links:
            link.close()
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if listener is not None:
            listener.close()
