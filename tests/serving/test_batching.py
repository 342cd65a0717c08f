"""Dispatch coalescing: batched submission must not change a single bit.

The whole point of :class:`~repro.serving.backends.BatchingBackend` is
that *how many* tasks travel per backend submission is orthogonal to
what each task computes: a coalesced batch must return bit-identical
answers, reports and state epochs to per-task dispatch, on every
execution backend, for both paper workloads.  Simulated clocks make the
traces deterministic, so equality is exact dataclass equality — not
approximate.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.clock import SimulatedClock
from repro.serving.aio import AsyncExecutionBackend
from repro.serving.backends import (
    BatchingBackend,
    SequentialBackend,
    ThreadPoolBackend,
)
from repro.serving.envelope import as_envelope
from repro.serving.transport import RemoteBackend

DEADLINE = 0.05
SPEED = 400.0   # work units / s: tight enough that the deadline bites
WINDOW = 0.25   # long enough that one threaded burst always coalesces
N_REQUESTS = 5


def sim_clocks(n):
    return [SimulatedClock(speed=SPEED) for _ in range(n)]


def cf_requests(small_ratings):
    from repro.core.adapters import CFRequest

    reqs = []
    for u in range(N_REQUESTS):
        ids, vals = small_ratings.matrix.user_ratings(u)
        targets = [t for t in range(8) if t not in set(ids.tolist())] or [0]
        reqs.append(CFRequest(active_items=ids, active_vals=vals,
                              target_items=targets))
    return reqs


def search_queries(small_corpus):
    from repro.core.adapters import SearchQuery

    return [SearchQuery(terms=small_corpus.partition.tokens_of(d)[:3], k=10)
            for d in range(N_REQUESTS)]


def serve_all(service, envelopes, backend):
    """One response per envelope; concurrent so submissions can coalesce."""
    with ThreadPoolExecutor(max_workers=len(envelopes)) as pool:
        futures = [pool.submit(service.serve, env,
                               clocks=sim_clocks(service.n_components),
                               backend=backend)
                   for env in envelopes]
        return [f.result() for f in futures]


@pytest.fixture(scope="module",
                params=["sequential", "thread", "process", "async"])
def inner_backend(request):
    backend = {
        "sequential": SequentialBackend,
        "thread": lambda: ThreadPoolBackend(max_workers=4),
        # Worker processes: the remote backend over localhost TCP.
        "process": lambda: RemoteBackend(n_workers=2),
        "async": AsyncExecutionBackend,
    }[request.param]()
    yield backend
    backend.close()


class TestBitIdentity:
    """Coalesced vs per-task dispatch on every backend, both workloads."""

    def check(self, service, envelopes, inner):
        base = [service.serve(env, clocks=sim_clocks(service.n_components),
                              backend=SequentialBackend())
                for env in envelopes]
        batching = BatchingBackend(inner, window=WINDOW, max_batch=64)
        try:
            batched = serve_all(service, envelopes, batching)
            stats = batching.batch_stats()
        finally:
            batching.close()
        # The burst really coalesced: fewer submissions than tasks.
        assert stats["tasks_coalesced"] == \
            len(envelopes) * service.n_components
        assert stats["batches_submitted"] < stats["tasks_coalesced"]
        for resp_b, resp_u in zip(batched, base):
            # Exact dataclass equality: ranked groups, depths, work
            # units, simulated elapsed times, epochs, request identity.
            assert resp_b.reports == resp_u.reports
            assert resp_b.state_epochs == resp_u.state_epochs
        return [r.answer for r in batched], [r.answer for r in base]

    def test_cf(self, cf_serving_service, small_ratings, inner_backend):
        envelopes = [as_envelope(r, DEADLINE)
                     for r in cf_requests(small_ratings)]
        batched, base = self.check(cf_serving_service, envelopes,
                                   inner_backend)
        for b, u in zip(batched, base):
            assert b.numer == u.numer
            assert b.denom == u.denom
            assert b.active_mean == u.active_mean

    def test_search(self, search_serving_service, small_corpus,
                    inner_backend):
        envelopes = [as_envelope(q, DEADLINE)
                     for q in search_queries(small_corpus)]
        batched, base = self.check(search_serving_service, envelopes,
                                   inner_backend)
        for b, u in zip(batched, base):
            assert [(h.doc_id, h.score) for h in b] == \
                [(h.doc_id, h.score) for h in u]


class TestReportSeparation:
    def test_requests_keep_their_own_reports(self, cf_serving_service,
                                             small_ratings):
        envelopes = [as_envelope(r, DEADLINE)
                     for r in cf_requests(small_ratings)]
        assert len({env.request_id for env in envelopes}) == len(envelopes)
        batching = BatchingBackend(SequentialBackend(), window=WINDOW,
                                   max_batch=64, close_inner=True)
        try:
            responses = serve_all(cf_serving_service, envelopes, batching)
        finally:
            batching.close()
        for env, resp in zip(envelopes, responses):
            assert [rep.request_id for rep in resp.reports] == \
                [env.request_id] * cf_serving_service.n_components


class TestEpochIsolation:
    def test_mixed_epochs_never_coalesce(self, small_ratings, cf_adapter):
        from repro.core.builder import SynopsisConfig
        from repro.core.service import AccuracyTraderService
        from repro.workloads.partitioning import split_ratings

        svc = AccuracyTraderService(
            cf_adapter, split_ratings(small_ratings.matrix, 2),
            config=SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7))
        reqs = cf_requests(small_ratings)[:2]
        with svc:
            old_tasks = svc.build_tasks(as_envelope(reqs[0], DEADLINE),
                                        clocks=sim_clocks(2))
            svc.change_points(0, svc.partitions[0], [0])
            svc.change_points(1, svc.partitions[1], [0])
            new_tasks = svc.build_tasks(as_envelope(reqs[1], DEADLINE),
                                        clocks=sim_clocks(2))
            assert [t.state_ref.epoch for t in old_tasks] != \
                [t.state_ref.epoch for t in new_tasks]
            batching = BatchingBackend(SequentialBackend(), window=WINDOW,
                                       max_batch=64, close_inner=True)
            try:
                futures = [batching.submit_task(t)
                           for t in old_tasks + new_tasks]
                outcomes = [f.result() for f in futures]
                stats = batching.batch_stats()
            finally:
                batching.close()
        # Four distinct (component, epoch) keys -> four single-task
        # batches: a batch may never observe two state epochs.
        assert stats["tasks_coalesced"] == 4
        assert stats["batches_submitted"] == 4
        assert [o.report.state_epoch for o in outcomes] == \
            [t.state_ref.epoch for t in old_tasks + new_tasks]


class TestMechanics:
    def test_max_batch_flushes_early(self, cf_serving_service,
                                     small_ratings):
        # max_batch=2: a 4-request burst per component fills exactly
        # ceil(4/2)=2 batches per component, each flushed the moment it
        # is full — so no task waits out the 30 s window.
        burst = 4
        envelopes = [as_envelope(r, DEADLINE)
                     for r in cf_requests(small_ratings)[:burst]]
        window = 30.0
        batching = BatchingBackend(SequentialBackend(), window=window,
                                   max_batch=2, close_inner=True)
        try:
            start = time.monotonic()
            responses = serve_all(cf_serving_service, envelopes, batching)
            elapsed = time.monotonic() - start
            stats = batching.batch_stats()
        finally:
            batching.close()
        assert len(responses) == burst
        assert stats["tasks_coalesced"] == \
            burst * cf_serving_service.n_components
        assert stats["batches_submitted"] >= \
            cf_serving_service.n_components * ((burst + 1) // 2)
        assert elapsed < window / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingBackend(SequentialBackend(), window=-0.1)
        with pytest.raises(ValueError):
            BatchingBackend(SequentialBackend(), max_batch=0)

    def test_closed_backend_rejects_submissions(self, cf_serving_service,
                                                cf_request):
        batching = BatchingBackend(SequentialBackend(), window=0.01,
                                   close_inner=True)
        batching.close()
        task = cf_serving_service.build_tasks(
            as_envelope(cf_request, DEADLINE), clocks=sim_clocks(2))[0]
        with pytest.raises(RuntimeError):
            batching.submit_task(task)
