"""The socket transport: framing, delta epochs, remote cluster serving.

Four layers of pinning:

- the wire framing itself (header layout, strictness, byte-exact
  round-trips of :class:`ServingRequest` / :class:`ServingResponse` /
  :class:`ProcessingReport` — sharing ``report_key`` with the envelope
  suite so "survives the wire" means the same thing as "survives a
  process boundary" there);
- the content-defined delta layer (identity, small-edit deltas much
  smaller than the full blob, checksum-verified application);
- :class:`RemoteChannel` — multiplexed RPC: out-of-order reply
  correlation, interleaved concurrent calls, cancellation of one
  in-flight RPC leaving siblings intact, EOF failing all pending,
  and the per-link in-flight cap;
- :class:`RemoteBackend` — bit-identical outcomes vs the in-process
  reference, semantic/CDC delta publications on epoch transitions,
  batch framing, straggler epochs, and the live-ref requirement;
- :class:`RemoteServable` — a multi-process localhost cluster serving
  CF and search bit-identically to the in-process
  :class:`ShardedService`, updates propagating over the wire, and
  multi-link (``n_links``) spawns.
"""

from __future__ import annotations

import itertools
import os
import pickle
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.adapters import CFAdapter, _ComponentMemo
from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock
from repro.core.processor import ProcessingReport
from repro.core.service import AccuracyTraderService
from repro.core.state import (
    PICKLE_PROTOCOL,
    DeltaMismatchError,
    StaleEpochError,
    apply_delta,
    blob_digest,
    chunk_blob,
    compute_delta,
)
from repro.serving.backends import SequentialBackend
from repro.serving.envelope import (
    RequestClass,
    ServingRequest,
    ServingResponse,
    as_envelope,
)
from repro.serving.router import ReplicaGroup, ShardedService
from repro.serving.transport import (
    KIND_BATCH,
    KIND_REQUEST,
    KIND_RESPONSE,
    WIRE_VERSION,
    RemoteBackend,
    RemoteChannel,
    RemoteServable,
    bind_with_retry,
    connect_with_retry,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.workloads.partitioning import split_corpus, split_ratings
from tests.serving.test_envelope import DEADLINE, report_key, sim_clocks

CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)
SEARCH_CONFIG = SynopsisConfig(n_iters=20, target_ratio=20.0, seed=7)


def request_key(env: ServingRequest) -> tuple:
    """Every envelope field except the payload (compared separately)."""
    return (env.deadline, env.request_class, env.priority, env.hedge,
            env.request_id, env.arrival_time)


def roundtrip(obj, kind=KIND_REQUEST, msg_id=7):
    buf = encode_frame(kind, msg_id, obj)
    got_kind, got_id, got, consumed = decode_frame(buf)
    assert got_kind == kind and got_id == msg_id and consumed == len(buf)
    return got


class TestFraming:
    def test_header_strictness(self):
        frame = encode_frame(KIND_REQUEST, 1, "x")
        with pytest.raises(ValueError):
            decode_frame(frame[:4])                    # shorter than header
        with pytest.raises(ValueError):
            decode_frame(frame[:-1])                   # truncated mid-frame
        with pytest.raises(ValueError):
            decode_frame(b"XXXX" + frame[4:])          # bad magic
        bad_version = frame[:4] + bytes([99]) + frame[5:]
        with pytest.raises(ValueError):
            decode_frame(bad_version)

    def test_request_roundtrip_grid(self, cf_request, search_query):
        """Envelopes survive the wire bit-identically across the option grid."""
        for payload in (cf_request, search_query):
            for cls in RequestClass:
                for hedge in (None, False, True):
                    for priority in (None, 0, 5):
                        env = ServingRequest(
                            payload=payload, deadline=DEADLINE,
                            request_class=cls, priority=priority,
                            hedge=hedge)
                        got = roundtrip(env)
                        assert request_key(got) == request_key(env)
                        assert type(got.payload) is type(env.payload)

    def test_cf_payload_bit_identical(self, cf_request):
        env = as_envelope(cf_request, DEADLINE)
        got = roundtrip(env)
        assert np.array_equal(got.payload.active_items,
                              env.payload.active_items)
        assert np.array_equal(got.payload.active_vals,
                              env.payload.active_vals)
        assert list(got.payload.target_items) == \
            list(env.payload.target_items)

    def test_report_roundtrip(self):
        report = ProcessingReport(
            groups_ranked=[3, 1, 2], groups_processed=2, work_units=17.5,
            synopsis_elapsed=0.003, total_elapsed=0.017, deadline=DEADLINE,
            hit_deadline=True, state_epoch=4, request_id=99,
            request_class="best_effort")
        got = roundtrip(report, kind=KIND_RESPONSE)
        assert report_key(got) == report_key(report)
        assert (got.request_id, got.request_class) == (99, "best_effort")

    def test_response_roundtrip(self, cf_serving_service, cf_request):
        env = as_envelope(cf_request, DEADLINE)
        resp = cf_serving_service.serve(env, clocks=sim_clocks(2))
        got: ServingResponse = roundtrip(resp, kind=KIND_RESPONSE)
        assert [report_key(r) for r in got.reports] == \
            [report_key(r) for r in resp.reports]
        assert got.state_epochs == resp.state_epochs
        assert got.request.request_id == env.request_id
        assert got.answer.numer == resp.answer.numer
        assert got.answer.denom == resp.answer.denom

    def test_wire_version_is_two_and_strict(self):
        """The protocol bump: v2 frames only; a v1 frame is refused.

        Decoding is *strict* on version — an old peer speaking wire
        version 1 fails loudly at the first frame instead of
        misinterpreting pickles, so mixed-version deployments cannot
        silently corrupt each other.
        """
        frame = encode_frame(KIND_REQUEST, 1, "x")
        assert WIRE_VERSION == 2
        assert frame[4] == WIRE_VERSION
        v1_frame = frame[:4] + bytes([1]) + frame[5:]
        with pytest.raises(ValueError):
            decode_frame(v1_frame)

    def test_payload_pickle_protocol_pinned(self):
        """Frames pickle at PICKLE_PROTOCOL, not the interpreter default."""
        frame = encode_frame(KIND_REQUEST, 1, {"q": [1, 2, 3]})
        header = len(encode_frame(KIND_REQUEST, 1, None)) - \
            len(pickle.dumps(None, PICKLE_PROTOCOL))
        # A protocol-N pickle opens with the PROTO opcode \x80 N.
        assert frame[header:header + 2] == bytes([0x80, PICKLE_PROTOCOL])

    def test_batch_kind_roundtrip(self):
        got = roundtrip([{"i": 1}, {"i": 2}], kind=KIND_BATCH)
        assert got == [{"i": 1}, {"i": 2}]

    def test_socket_read_write(self):
        listener = bind_with_retry()
        port = listener.getsockname()[1]
        client = connect_with_retry("127.0.0.1", port)
        server, _ = listener.accept()
        sent = write_frame(client, KIND_REQUEST, 42, {"q": [1, 2, 3]})
        kind, msg_id, obj, nbytes = read_frame(server)
        assert (kind, msg_id, obj) == (KIND_REQUEST, 42, {"q": [1, 2, 3]})
        assert nbytes == sent
        client.close()
        assert read_frame(server) is None  # clean EOF at a boundary
        for sock in (server, listener):
            sock.close()


class TestBindRetry:
    def test_port_zero_never_conflicts(self):
        socks = [bind_with_retry() for _ in range(4)]
        assert len({s.getsockname()[1] for s in socks}) == 4
        for s in socks:
            s.close()

    def test_retries_until_port_frees(self):
        holder = bind_with_retry()
        port = holder.getsockname()[1]

        def release():
            time.sleep(0.15)
            holder.close()

        threading.Thread(target=release, daemon=True).start()
        sock = bind_with_retry(port=port, retries=20, backoff=0.05)
        assert sock.getsockname()[1] == port
        sock.close()

    def test_gives_up_with_address_in_use(self):
        holder = bind_with_retry()
        port = holder.getsockname()[1]
        with pytest.raises(OSError):
            bind_with_retry(port=port, retries=2, backoff=0.01)
        holder.close()


@pytest.fixture()
def channel_pair():
    """A RemoteChannel client talking to a raw test-controlled socket."""
    listener = bind_with_retry()
    port = listener.getsockname()[1]
    client = connect_with_retry("127.0.0.1", port)
    server, _ = listener.accept()
    channel = RemoteChannel(client)
    yield channel, server
    channel.close()
    server.close()
    listener.close()


class TestMultiplexedChannel:
    """The tentpole: many in-flight msg_id-correlated RPCs per socket."""

    def test_out_of_order_replies_correlate(self, channel_pair):
        channel, server = channel_pair
        futures = [channel.submit({"i": i}) for i in range(4)]
        assert channel.in_flight == 4
        frames = [read_frame(server) for _ in range(4)]
        # Reply in reverse order: correlation is by msg_id, not arrival.
        for _kind, msg_id, obj, _n in reversed(frames):
            write_frame(server, KIND_RESPONSE, msg_id, obj["i"] * 10)
        assert [f.result(timeout=5) for f in futures] == [0, 10, 20, 30]
        assert channel.in_flight == 0

    def test_interleaved_concurrent_rpcs(self, channel_pair):
        channel, server = channel_pair
        n = 32

        def serve():
            backlog = []
            for _ in range(n):
                backlog.append(read_frame(server))
                if len(backlog) >= 3:      # drain in shuffled chunks
                    backlog.reverse()
                    for _k, msg_id, obj, _b in backlog:
                        write_frame(server, KIND_RESPONSE, msg_id, obj * 2)
                    backlog = []
            for _k, msg_id, obj, _b in backlog:
                write_frame(server, KIND_RESPONSE, msg_id, obj * 2)

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        results = [None] * n

        def rpc(i):
            results[i] = channel.call(i, timeout=10)

        threads = [threading.Thread(target=rpc, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        server_thread.join(timeout=10)
        assert results == [i * 2 for i in range(n)]

    def test_cancel_one_leaves_siblings(self, channel_pair):
        channel, server = channel_pair
        f_dead = channel.submit("a")
        f_live = channel.submit("b")
        frames = [read_frame(server) for _ in range(2)]
        assert f_dead.cancel()
        for _kind, msg_id, obj, _n in frames:
            write_frame(server, KIND_RESPONSE, msg_id, obj.upper())
        assert f_live.result(timeout=5) == "B"
        assert f_dead.cancelled()
        # The dropped late reply didn't poison the link: it still serves.
        f_next = channel.submit("c")
        _kind, msg_id, obj, _n = read_frame(server)
        write_frame(server, KIND_RESPONSE, msg_id, obj.upper())
        assert f_next.result(timeout=5) == "C"

    def test_eof_fails_all_pending(self, channel_pair):
        channel, server = channel_pair
        futures = [channel.submit(i) for i in range(3)]
        for _ in range(3):
            read_frame(server)
        server.close()
        for future in futures:
            with pytest.raises(ConnectionError):
                future.result(timeout=5)
        with pytest.raises(ConnectionError):
            channel.submit("after-eof")

    def test_in_flight_cap_blocks_submit(self):
        listener = bind_with_retry()
        port = listener.getsockname()[1]
        client = connect_with_retry("127.0.0.1", port)
        server, _ = listener.accept()
        channel = RemoteChannel(client, max_in_flight=1)
        try:
            first = channel.submit("one")
            submitted = threading.Event()

            def second():
                future = channel.submit("two")
                submitted.set()
                return future

            blocked = threading.Thread(target=second, daemon=True)
            blocked.start()
            assert not submitted.wait(timeout=0.2)  # cap holds it back
            _k, msg_id, obj, _b = read_frame(server)
            write_frame(server, KIND_RESPONSE, msg_id, obj)
            assert first.result(timeout=5) == "one"
            assert submitted.wait(timeout=5)        # slot freed, it sailed
            _k, msg_id, obj, _b = read_frame(server)
            write_frame(server, KIND_RESPONSE, msg_id, obj)
            blocked.join(timeout=5)
        finally:
            channel.close()
            server.close()
            listener.close()

    def test_max_in_flight_validated(self, channel_pair):
        channel, _server = channel_pair
        # Validation fires before any channel state is touched, so the
        # borrowed socket is left untouched.
        with pytest.raises(ValueError):
            RemoteChannel(channel._sock, max_in_flight=0)


class TestStateDelta:
    def blob(self, seed, n=60_000):
        return np.random.default_rng(seed).integers(
            0, 256, size=n, dtype=np.uint8).tobytes()

    def test_chunks_cover_blob(self):
        blob = self.blob(0)
        chunks = chunk_blob(blob)
        assert b"".join(c for _, c in chunks) == blob
        assert all(d == blob_digest(c) for d, c in chunks)

    def test_identity_delta_ships_no_literals(self):
        blob = self.blob(1)
        delta = compute_delta(blob, blob)
        assert delta.literal_bytes == 0
        assert apply_delta(blob, delta) == blob

    def test_small_edit_small_delta(self):
        base = self.blob(2)
        edited = bytearray(base)
        edited[30_000:30_200] = self.blob(3, 200)
        target = bytes(edited)
        delta = compute_delta(base, target)
        assert apply_delta(base, delta) == target
        # The whole point: an O(edit)-sized delta, not an O(blob) one.
        assert delta.literal_bytes < len(target) // 4
        assert delta.wire_cost() < len(target) // 2

    def test_wrong_base_raises(self):
        base, other = self.blob(4), self.blob(5)
        delta = compute_delta(base, other)
        with pytest.raises(DeltaMismatchError):
            apply_delta(other, delta)

    def test_empty_and_tiny_blobs(self):
        for target in (b"", b"x", b"y" * 300):
            delta = compute_delta(b"", target)
            assert apply_delta(b"", delta) == target


class _CountingMemo(_ComponentMemo):
    """An adapter memo that counts the values it builds."""

    def __init__(self):
        super().__init__()
        self.builds = 0

    def get(self, owners, build, fresh=None):
        def counted():
            self.builds += 1
            return build()
        return super().get(owners, counted, fresh)


_PROBE_SERIALS = itertools.count()


class ProbeCFAdapter(CFAdapter):
    """A CF adapter that tags each answer with the process it ran in,
    the adapter object that ran it and the layouts that object built."""

    def __init__(self):
        super().__init__()
        self._probe()

    def __setstate__(self, state):
        super().__setstate__(state)
        self._probe()

    def _probe(self):
        self._layouts = _CountingMemo()
        self.serial = next(_PROBE_SERIALS)

    def finalize(self, state, request):
        answer = super().finalize(state, request)
        answer.probe = (os.getpid(), self.serial, self._layouts.builds)
        return answer


@pytest.fixture(scope="module")
def remote_backend():
    backend = RemoteBackend(n_workers=2)
    yield backend
    backend.close()


class TestRemoteBackend:
    def test_bit_identical_to_sequential(self, cf_serving_service,
                                         cf_request, remote_backend):
        env = as_envelope(cf_request, DEADLINE)
        ref_outcomes = SequentialBackend().run_tasks(
            cf_serving_service.build_tasks(env, clocks=sim_clocks(2)))
        got_outcomes = remote_backend.run_tasks(
            cf_serving_service.build_tasks(env, clocks=sim_clocks(2)))
        for ref, got in zip(ref_outcomes, got_outcomes):
            assert got.component == ref.component
            assert report_key(got.report) == report_key(ref.report)
            assert got.result.numer == ref.result.numer
            assert got.result.denom == ref.result.denom

    def test_worker_runs_one_adapter_and_builds_layouts_once_per_epoch(
            self, small_ratings, cf_request):
        """Same-epoch tasks, single or batched, share one worker-resident
        adapter, so each component's layout is built once per epoch."""
        parts = split_ratings(small_ratings.matrix, 2)
        service = AccuracyTraderService(ProbeCFAdapter(), parts,
                                        config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        env = as_envelope(cf_request, DEADLINE)

        def serve(n_rounds):
            for _ in range(n_rounds):
                round_tasks = service.build_tasks(env, clocks=sim_clocks(2))
                yield from zip(round_tasks, backend.run_tasks(round_tasks))
            batch = [service.build_tasks(env, clocks=sim_clocks(2))[0]
                     for _ in range(3)]
            futures = backend.submit_batch(batch)
            yield from zip(batch, [f.result(timeout=60) for f in futures])
            # Last, one task alone: its probe counts every build before.
            last = service.build_tasks(env, clocks=sim_clocks(2))[1]
            yield last, backend.run_tasks([last])[0]

        try:
            first = list(serve(3))
            service.change_points(0, parts[0], np.array([0, 1]))
            second = list(serve(2))
        finally:
            backend.close()
        runs = first + second
        assert backend.transport_counters()["batches_shipped"] == 2
        assert all(out.report.groups_processed > 0 for _, out in runs)
        assert len({out.result.probe[:2] for _, out in runs}) == 1
        assert first[-1][1].result.probe[2] == 2   # one per component
        assert second[-1][1].result.probe[2] == 3  # one more for epoch 2
        ref = SequentialBackend().run_tasks([task for task, _ in runs])
        for (_, got), want in zip(runs, ref):
            assert report_key(got.report) == report_key(want.report)
            assert got.result.numer == want.result.numer
            assert got.result.denom == want.result.denom

    def test_dead_worker_link_is_skipped(self, cf_serving_service,
                                         cf_request):
        """Tasks sent after a worker dies all settle, on the survivor."""
        from concurrent.futures import wait

        backend = RemoteBackend(n_workers=2)
        try:
            env = as_envelope(cf_request, DEADLINE)
            backend.run_tasks(cf_serving_service.build_tasks(
                env, clocks=sim_clocks(2)))
            backend._procs[0].kill()
            time.sleep(0.5)
            futures = [f for _ in range(20)
                       for f in backend.submit_tasks(
                           cf_serving_service.build_tasks(
                               env, clocks=sim_clocks(2)))]
            _, not_done = wait(futures, timeout=10.0)
            assert not not_done
            assert all(f.exception() is None for f in futures)
        finally:
            backend.close()

    def test_state_published_once_per_epoch_per_worker(self, small_ratings,
                                                       cf_adapter,
                                                       cf_request):
        service = AccuracyTraderService(
            cf_adapter, split_ratings(small_ratings.matrix, 2),
            config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        try:
            env = as_envelope(cf_request, DEADLINE)
            for _ in range(3):
                backend.run_tasks(service.build_tasks(
                    env, clocks=sim_clocks(2)))
            counters = backend.payload_counters()
            # One worker, two components, three requests: exactly two
            # full publications — state cost is per epoch, not per task.
            assert counters["state_publishes"] == 2
            assert counters["tasks_shipped"] == 6
            assert counters["task_bytes"] < counters["state_bytes"]
        finally:
            backend.close()

    def test_semantic_delta_on_hinted_update(self, small_ratings,
                                             cf_adapter, cf_request):
        parts = split_ratings(small_ratings.matrix, 2)
        service = AccuracyTraderService(cf_adapter, parts, config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        try:
            env = as_envelope(cf_request, DEADLINE)
            backend.run_tasks(service.build_tasks(env, clocks=sim_clocks(2)))
            before = backend.transport_counters()
            assert before["state_semantic_publishes"] == 0
            assert before["state_delta_publishes"] == 0
            service.change_points(0, parts[0], np.array([0, 1]))
            outcomes = backend.run_tasks(
                service.build_tasks(env, clocks=sim_clocks(2)))
            after = backend.transport_counters()
            # change_points records an UpdateHint, so the epoch
            # transition travels as a *semantic* delta — only the
            # re-aggregated groups — far cheaper than the full snapshot
            # it replaced, and answers match the in-process reference
            # over the new epoch.
            assert after["state_semantic_publishes"] == 1
            assert after["state_delta_publishes"] == 0
            assert after["state_full_publishes"] == \
                before["state_full_publishes"]
            assert 0 < after["state_semantic_bytes"] < \
                before["state_full_bytes"] / 2
            ref = SequentialBackend().run_tasks(
                service.build_tasks(env, clocks=sim_clocks(2)))
            for got, want in zip(outcomes, ref):
                assert report_key(got.report) == report_key(want.report)
        finally:
            backend.close()

    def test_cdc_fallback_without_hint(self, small_ratings, cf_adapter,
                                       cf_request):
        """An un-hinted epoch transition falls back to the CDC delta."""
        parts = split_ratings(small_ratings.matrix, 2)
        service = AccuracyTraderService(cf_adapter, parts, config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        try:
            env = as_envelope(cf_request, DEADLINE)
            tasks = service.build_tasks(env, clocks=sim_clocks(2))
            backend.run_tasks(tasks)
            before = backend.transport_counters()
            # Re-publish component 0's state with no hint: the store
            # has no semantic transition for this epoch pair, so the
            # wire drops to the content-defined byte delta (tiny here —
            # the bytes barely change).
            state = tasks[0].state_ref.resolve()
            service.store.publish(0, state)
            backend.run_tasks(service.build_tasks(env, clocks=sim_clocks(2)))
            after = backend.transport_counters()
            assert after["state_semantic_publishes"] == \
                before["state_semantic_publishes"]
            assert after["state_delta_publishes"] == \
                before["state_delta_publishes"] + 1
            assert after["state_full_publishes"] == \
                before["state_full_publishes"]
            assert after["state_delta_bytes"] < \
                before["state_full_bytes"] / 2
        finally:
            backend.close()

    def test_straggler_epoch_one_off(self, small_ratings, cf_adapter,
                                     cf_request):
        parts = split_ratings(small_ratings.matrix, 2)
        service = AccuracyTraderService(cf_adapter, parts, config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        try:
            env = as_envelope(cf_request, DEADLINE)
            old_tasks = service.build_tasks(env, clocks=sim_clocks(2))
            service.change_points(0, parts[0], np.array([0, 1]))
            new_tasks = service.build_tasks(env, clocks=sim_clocks(2))
            new_out = backend.run_tasks(new_tasks)
            old_out = backend.run_tasks(old_tasks)  # pinned to old epoch
            assert old_out[0].report.state_epoch == \
                old_tasks[0].state_ref.epoch
            assert new_out[0].report.state_epoch == \
                new_tasks[0].state_ref.epoch
            assert new_out[0].report.state_epoch > \
                old_out[0].report.state_epoch
        finally:
            backend.close()

    def test_batch_frame_bit_identical(self, small_ratings, cf_adapter,
                                       cf_request):
        """One KIND_BATCH frame == per-task results, bit for bit."""
        parts = split_ratings(small_ratings.matrix, 2)
        service = AccuracyTraderService(cf_adapter, parts, config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        try:
            env_a = as_envelope(cf_request, DEADLINE)
            env_b = as_envelope(cf_request, DEADLINE)
            tasks_a = service.build_tasks(env_a, clocks=sim_clocks(2))
            tasks_b = service.build_tasks(env_b, clocks=sim_clocks(2))
            # Two requests against the same component share one ref key
            # — the exact bucket shape BatchingBackend flushes.
            batch = [tasks_a[0], tasks_b[0]]
            futures = backend.submit_batch(batch)
            outcomes = [f.result(timeout=60) for f in futures]
            ref = SequentialBackend().run_tasks(batch)
            for got, want in zip(outcomes, ref):
                assert got.component == want.component
                assert report_key(got.report) == report_key(want.report)
                assert got.report.request_id == want.report.request_id
                assert got.result.numer == want.result.numer
                assert got.result.denom == want.result.denom
            counters = backend.transport_counters()
            assert counters["batches_shipped"] == 1
            assert backend.payload_counters()["tasks_shipped"] == 2
        finally:
            backend.close()

    def test_mixed_batch_degrades_per_task(self, small_ratings, cf_adapter,
                                           cf_request):
        """Tasks spanning components can't share a frame; ship per-task."""
        parts = split_ratings(small_ratings.matrix, 2)
        service = AccuracyTraderService(cf_adapter, parts, config=CF_CONFIG)
        backend = RemoteBackend(n_workers=1)
        try:
            env = as_envelope(cf_request, DEADLINE)
            tasks = service.build_tasks(env, clocks=sim_clocks(2))
            futures = backend.submit_batch(tasks)  # components 0 and 1
            outcomes = [f.result(timeout=60) for f in futures]
            ref = SequentialBackend().run_tasks(
                service.build_tasks(env, clocks=sim_clocks(2)))
            for got, want in zip(outcomes, ref):
                assert report_key(got.report) == report_key(want.report)
            assert backend.transport_counters()["batches_shipped"] == 0
        finally:
            backend.close()

    def test_detached_ref_rejected(self, cf_serving_service, cf_request,
                                   remote_backend):
        env = as_envelope(cf_request, DEADLINE)
        task = cf_serving_service.build_tasks(env, clocks=sim_clocks(2))[0]
        detached = replace(task, state_ref=task.state_ref.detached())
        with pytest.raises(StaleEpochError):
            remote_backend.submit_task(detached)

    def test_hook_tasks_go_to_their_owner(self, remote_backend):
        """A submit hook gets its tasks as one call, from any backend."""
        from concurrent.futures import Future

        from repro.serving.backends import ComponentTask

        calls = []

        def hook(tasks):
            calls.append([t.component for t in tasks])
            futures = [Future() for _ in tasks]
            for f, t in zip(futures, tasks):
                f.set_result(f"owner-{t.component}")
            return futures

        tasks = [ComponentTask(component=c, adapter=None, request=None,
                               deadline=1.0, submit=hook) for c in (3, 4)]
        assert remote_backend.submit_task(tasks[0]).result() == "owner-3"
        assert remote_backend.run_tasks(tasks) == ["owner-3", "owner-4"]
        assert calls == [[3], [3, 4]]

    def test_resolve_backend_knows_remote(self):
        from repro.serving.backends import resolve_backend

        backend = resolve_backend("remote")
        assert isinstance(backend, RemoteBackend)
        backend.close()

    def test_close_idempotent_and_restartable(self, cf_serving_service,
                                              cf_request):
        env = as_envelope(cf_request, DEADLINE)
        backend = RemoteBackend(n_workers=1)
        first = backend.run_tasks(
            cf_serving_service.build_tasks(env, clocks=sim_clocks(2)))
        backend.close()
        backend.close()
        # Fresh workers spin up lazily after close.
        second = backend.run_tasks(
            cf_serving_service.build_tasks(env, clocks=sim_clocks(2)))
        backend.close()
        for a, b in zip(first, second):
            assert a.result.numer == b.result.numer
            assert a.result.denom == b.result.denom
            assert report_key(a.report) == report_key(b.report)

    def test_materialised_task_runs_and_stamps_epoch(self,
                                                     cf_serving_service,
                                                     cf_request,
                                                     remote_backend):
        # Inline state plus a detached ref: the state travels with the
        # task and the ref is kept purely as epoch identity.
        env = as_envelope(cf_request, DEADLINE)
        task = cf_serving_service.build_tasks(env, clocks=sim_clocks(2))[0]
        state = task.state_ref.resolve()
        materialised = replace(task, partition=state.partition,
                               synopsis=state.synopsis,
                               state_ref=task.state_ref.detached())
        base = SequentialBackend().run_tasks([task])[0]
        outcome = remote_backend.run_tasks([materialised])[0]
        assert outcome.result.numer == base.result.numer
        assert outcome.result.denom == base.result.denom
        assert outcome.report.state_epoch == base.report.state_epoch


@pytest.fixture(scope="module")
def cf_parts(small_ratings):
    return split_ratings(small_ratings.matrix, 2)


@pytest.fixture(scope="module")
def cf_remote_cluster(cf_adapter, cf_parts):
    """Two shards, each a service in its own OS process."""
    remotes = [RemoteServable.spawn(AccuracyTraderService, cf_adapter,
                                    [part], config=CF_CONFIG)
               for part in cf_parts]
    cluster = ShardedService([ReplicaGroup([r]) for r in remotes])
    yield cluster
    for remote in remotes:
        remote.close()


@pytest.fixture(scope="module")
def cf_local_cluster(cf_adapter, cf_parts):
    return ShardedService([
        ReplicaGroup([AccuracyTraderService(cf_adapter, [part],
                                            config=CF_CONFIG)])
        for part in cf_parts])


class TestRemoteCluster:
    def test_cf_bit_identical_to_in_process(self, cf_local_cluster,
                                            cf_remote_cluster, cf_request):
        env = as_envelope(cf_request, DEADLINE)
        local = cf_local_cluster.serve(env, clocks=sim_clocks(2))
        remote = cf_remote_cluster.serve(env, clocks=sim_clocks(2))
        assert remote.answer.numer == local.answer.numer
        assert remote.answer.denom == local.answer.denom
        assert remote.answer.active_mean == local.answer.active_mean
        assert [report_key(r) for r in remote.reports] == \
            [report_key(r) for r in local.reports]
        assert remote.state_epochs == local.state_epochs

    def test_cf_exact_matches(self, cf_local_cluster, cf_remote_cluster,
                              cf_request):
        local = cf_local_cluster.exact(cf_request)
        remote = cf_remote_cluster.exact(cf_request)
        assert remote.numer == local.numer
        assert remote.denom == local.denom

    def test_search_bit_identical_to_in_process(self, small_corpus,
                                                search_adapter,
                                                search_query):
        parts = split_corpus(small_corpus.partition, 2)
        local = ShardedService([
            ReplicaGroup([AccuracyTraderService(
                search_adapter, [part], config=SEARCH_CONFIG,
                i_max_fraction=0.4)])
            for part in parts])
        remotes = [RemoteServable.spawn(
            AccuracyTraderService, search_adapter, [part],
            config=SEARCH_CONFIG, i_max_fraction=0.4) for part in parts]
        try:
            remote = ShardedService([ReplicaGroup([r]) for r in remotes])
            env = as_envelope(search_query, DEADLINE)
            base = local.serve(env, clocks=sim_clocks(2))
            got = remote.serve(env, clocks=sim_clocks(2))
            assert [(h.doc_id, h.score) for h in got.answer] == \
                [(h.doc_id, h.score) for h in base.answer]
            assert [report_key(r) for r in got.reports] == \
                [report_key(r) for r in base.reports]
        finally:
            for r in remotes:
                r.close()

    def test_update_propagates_over_the_wire(self, cf_local_cluster,
                                             cf_remote_cluster, cf_parts,
                                             cf_request):
        changed = np.array([0, 1])
        local_epochs = cf_local_cluster.shards[0].change_points(
            0, cf_parts[0], changed)
        cf_remote_cluster.shards[0].change_points(0, cf_parts[0], changed)
        remote_epoch = \
            cf_remote_cluster.shards[0].replicas[0].component_epoch(0)
        assert remote_epoch == \
            cf_local_cluster.shards[0].replicas[0].component_epoch(0)
        env = as_envelope(cf_request, DEADLINE)
        local = cf_local_cluster.serve(env, clocks=sim_clocks(2))
        remote = cf_remote_cluster.serve(env, clocks=sim_clocks(2))
        assert remote.answer.numer == local.answer.numer
        assert remote.state_epochs == local.state_epochs
        assert local_epochs is not None

    def test_remote_spawn_failure_surfaces_traceback(self, cf_adapter):
        with pytest.raises(RuntimeError, match="failed to build"):
            RemoteServable.spawn(AccuracyTraderService, cf_adapter, [])

    def test_envelope_identity_survives_backend_wire(self,
                                                     cf_serving_service,
                                                     cf_request,
                                                     remote_backend):
        # Regression: the detached envelope rides the pickled task, so
        # worker processes stamp request_id / request_class into every
        # ProcessingReport exactly as the in-process path does.
        env = as_envelope(cf_request, DEADLINE)
        outcomes = remote_backend.run_tasks(
            cf_serving_service.build_tasks(env, clocks=sim_clocks(2)))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.report.request_id == env.request_id
            assert outcome.report.request_class == env.request_class.value

    def test_envelope_identity_survives_cluster_wire(self,
                                                     cf_remote_cluster,
                                                     cf_request):
        # Same contract end to end: router -> 2 shards, each a service
        # in its own OS process.
        env = as_envelope(cf_request, DEADLINE)
        resp = cf_remote_cluster.serve(env, clocks=sim_clocks(2))
        assert len(resp.reports) == 2
        for report in resp.reports:
            assert report.request_id == env.request_id
            assert report.request_class == env.request_class.value

    def test_transport_counters_grow(self, cf_remote_cluster, cf_request):
        replica = cf_remote_cluster.shards[0].replicas[0]
        before = replica.transport_counters()
        cf_remote_cluster.serve(as_envelope(cf_request, DEADLINE),
                                clocks=sim_clocks(2))
        after = replica.transport_counters()
        assert after["bytes_sent"] > before["bytes_sent"]
        assert after["bytes_received"] > before["bytes_received"]


class TestMultiLinkServable:
    def test_n_links_validated(self, cf_adapter, cf_parts):
        with pytest.raises(ValueError):
            RemoteServable.spawn(AccuracyTraderService, cf_adapter,
                                 [cf_parts[0]], config=CF_CONFIG, n_links=0)

    def test_multi_link_concurrent_serving(self, cf_adapter, cf_parts,
                                           cf_request):
        """N pipelined links to one process, answers bit-identical."""
        remote = RemoteServable.spawn(
            AccuracyTraderService, cf_adapter, cf_parts, config=CF_CONFIG,
            n_links=2, max_in_flight=8)
        try:
            assert remote.n_links == 2
            local = AccuracyTraderService(cf_adapter, cf_parts,
                                          config=CF_CONFIG)
            env = as_envelope(cf_request, DEADLINE)
            base = local.serve(env, clocks=sim_clocks(2))
            results = [None] * 8

            def hit(i):
                results[i] = remote.serve(env, clocks=sim_clocks(2))

            threads = [threading.Thread(target=hit, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            for resp in results:
                assert resp is not None
                assert resp.answer.numer == base.answer.numer
                assert resp.answer.denom == base.answer.denom
                assert [report_key(r) for r in resp.reports] == \
                    [report_key(r) for r in base.reports]
            counters = remote.transport_counters()
            assert counters["bytes_sent"] > 0
            assert counters["bytes_received"] > 0
        finally:
            remote.close()
