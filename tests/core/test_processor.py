"""Tests for Algorithm 1 (online accuracy-aware processing)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adapters import (CFAdapter, CFRequest, SearchAdapter,
                                 SearchQuery, ServiceAdapter)
from repro.core.clock import SimulatedClock, WallClock
from repro.core.processor import (REFINE_COST, AccuracyAwareProcessor,
                                  RefineCost, process_component,
                                  refine_to_depth, wall_chunk_end)
from repro.serving.adapters import IOStallAdapter


class OneGroupCFAdapter(CFAdapter):
    """``CFAdapter`` scheduled one group per call: the base-class fold."""

    refine_many = ServiceAdapter.refine_many


class OneGroupSearchAdapter(SearchAdapter):
    """``SearchAdapter`` scheduled one group per call: the base-class fold."""

    refine_many = ServiceAdapter.refine_many


class CountingCFAdapter(CFAdapter):
    """``CFAdapter`` counting its ``refine_many`` calls."""

    calls = 0

    def refine_many(self, *args):
        self.calls += 1
        return super().refine_many(*args)


class CountingSearchAdapter(SearchAdapter):
    """``SearchAdapter`` counting its ``refine_many`` calls."""

    calls = 0

    def refine_many(self, *args):
        self.calls += 1
        return super().refine_many(*args)


def answer_key(answer):
    if isinstance(answer, list):
        return [(h.doc_id, h.score) for h in answer]
    return answer.active_mean, answer.numer, answer.denom


class TestProcessorCF:
    def make(self, small_ratings, cf_adapter, cf_synopsis, **kw):
        synopsis, _ = cf_synopsis
        return AccuracyAwareProcessor(cf_adapter, small_ratings.matrix,
                                      synopsis, **kw)

    def test_generous_deadline_processes_all(self, small_ratings, cf_adapter,
                                             cf_synopsis, cf_request):
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        clock = SimulatedClock(speed=1e9)
        result, report = proc.process(cf_request, deadline=10.0, clock=clock)
        assert report.exhausted
        assert report.groups_processed == proc.synopsis.n_aggregated

    def test_result_matches_exact_when_all_processed(self, small_ratings,
                                                     cf_adapter, cf_synopsis,
                                                     cf_request):
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        result, _ = proc.process(cf_request, deadline=10.0,
                                 clock=SimulatedClock(speed=1e9))
        exact = cf_adapter.exact(small_ratings.matrix, cf_request)
        for item in cf_request.target_items:
            assert result.predict(item) == pytest.approx(exact.predict(item))

    def test_zero_deadline_still_produces_result(self, small_ratings,
                                                 cf_adapter, cf_synopsis,
                                                 cf_request):
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        result, report = proc.process(cf_request, deadline=0.0,
                                      clock=SimulatedClock(speed=1e9))
        assert report.groups_processed == 0
        assert report.hit_deadline
        # Synopsis pass still produced a usable prediction.
        assert np.isfinite(result.predict(cf_request.target_items[0]))

    def test_tight_deadline_stops_early(self, small_ratings, cf_adapter,
                                        cf_synopsis, cf_request):
        synopsis, _ = cf_synopsis
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        # Speed such that ~2 groups fit after the synopsis pass.
        group_w = synopsis.index.group_sizes().mean()
        speed = (synopsis.n_aggregated + 2 * group_w) / 0.1
        _, report = proc.process(cf_request, deadline=0.1,
                                 clock=SimulatedClock(speed=speed))
        assert 0 < report.groups_processed < synopsis.n_aggregated
        assert report.hit_deadline

    def test_i_max_cap(self, small_ratings, cf_adapter, cf_synopsis, cf_request):
        proc = self.make(small_ratings, cf_adapter, cf_synopsis, i_max=2)
        _, report = proc.process(cf_request, deadline=10.0,
                                 clock=SimulatedClock(speed=1e9))
        assert report.groups_processed == 2
        assert report.hit_imax

    def test_i_max_fraction(self, small_ratings, cf_adapter, cf_synopsis,
                            cf_request):
        synopsis, _ = cf_synopsis
        proc = self.make(small_ratings, cf_adapter, cf_synopsis,
                         i_max_fraction=0.5)
        expected = int(np.ceil(0.5 * synopsis.n_aggregated))
        assert proc.i_max == expected

    def test_mutually_exclusive_caps(self, small_ratings, cf_adapter,
                                     cf_synopsis):
        with pytest.raises(ValueError):
            self.make(small_ratings, cf_adapter, cf_synopsis,
                      i_max=1, i_max_fraction=0.5)

    def test_invalid_params(self, small_ratings, cf_adapter, cf_synopsis,
                            cf_request):
        with pytest.raises(ValueError):
            self.make(small_ratings, cf_adapter, cf_synopsis, i_max=-1)
        with pytest.raises(ValueError):
            self.make(small_ratings, cf_adapter, cf_synopsis,
                      i_max_fraction=1.5)
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        with pytest.raises(ValueError):
            proc.process(cf_request, deadline=-1.0)

    def test_queueing_delay_counts_against_deadline(self, small_ratings,
                                                    cf_adapter, cf_synopsis,
                                                    cf_request):
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        clock = SimulatedClock(start=5.0, speed=1e9)  # dequeued at t=5
        # Submitted at t=0, deadline 1s: already expired while queueing.
        _, report = proc.process(cf_request, deadline=1.0, clock=clock,
                                 start_time=0.0)
        assert report.groups_processed == 0
        assert report.hit_deadline

    def test_ranking_is_correlation_descending(self, small_ratings, cf_adapter,
                                               cf_synopsis, cf_request):
        synopsis, _ = cf_synopsis
        proc = self.make(small_ratings, cf_adapter, cf_synopsis)
        _, report = proc.process(cf_request, deadline=10.0,
                                 clock=SimulatedClock(speed=1e9))
        _, corr = cf_adapter.initial_result(synopsis, cf_request)
        ranked = report.groups_ranked
        vals = [corr[g] for g in ranked]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_accuracy_improves_with_depth(self, small_ratings, cf_adapter,
                                          cf_synopsis, cf_request):
        synopsis, _ = cf_synopsis
        exact = cf_adapter.exact(small_ratings.matrix, cf_request)
        errors = []
        for depth in (0, synopsis.n_aggregated // 2, synopsis.n_aggregated):
            approx = refine_to_depth(cf_adapter, small_ratings.matrix,
                                     synopsis, cf_request, depth)
            err = np.mean([
                abs(approx.predict(i) - exact.predict(i))
                for i in cf_request.target_items
            ])
            errors.append(err)
        assert errors[-1] == pytest.approx(0.0, abs=1e-9)
        assert errors[0] >= errors[-1]


class TestProcessorSearch:
    def test_full_refinement_matches_exact(self, small_corpus, search_adapter,
                                           search_synopsis, search_query):
        synopsis, _ = search_synopsis
        proc = AccuracyAwareProcessor(search_adapter, small_corpus.partition,
                                      synopsis)
        result, report = proc.process(search_query, deadline=10.0,
                                      clock=SimulatedClock(speed=1e9))
        exact = search_adapter.exact(small_corpus.partition, search_query)
        assert [h.doc_id for h in result] == [h.doc_id for h in exact]

    def test_i_max_fraction_rule(self, small_corpus, search_adapter,
                                 search_synopsis, search_query):
        synopsis, _ = search_synopsis
        proc = AccuracyAwareProcessor(search_adapter, small_corpus.partition,
                                      synopsis, i_max_fraction=0.4)
        _, report = proc.process(search_query, deadline=10.0,
                                 clock=SimulatedClock(speed=1e9))
        assert report.groups_processed <= int(np.ceil(0.4 * synopsis.n_aggregated))

    def test_overlap_improves_with_depth(self, small_corpus, search_adapter,
                                         search_synopsis, search_query):
        from repro.search.metrics import topk_overlap

        synopsis, _ = search_synopsis
        exact_ids = [h.doc_id for h in
                     search_adapter.exact(small_corpus.partition, search_query)]
        overlaps = []
        for depth in (0, synopsis.n_aggregated):
            hits = refine_to_depth(search_adapter, small_corpus.partition,
                                   synopsis, search_query, depth)
            overlaps.append(topk_overlap([h.doc_id for h in hits], exact_ids))
        assert overlaps[-1] == 1.0
        assert overlaps[0] <= overlaps[-1]


class TestRefineToDepth:
    def test_negative_depth(self, small_ratings, cf_adapter, cf_synopsis,
                            cf_request):
        synopsis, _ = cf_synopsis
        with pytest.raises(ValueError):
            refine_to_depth(cf_adapter, small_ratings.matrix, synopsis,
                            cf_request, -1)

    def test_depth_beyond_groups_clamped(self, small_ratings, cf_adapter,
                                         cf_synopsis, cf_request):
        synopsis, _ = cf_synopsis
        full = refine_to_depth(cf_adapter, small_ratings.matrix, synopsis,
                               cf_request, synopsis.n_aggregated + 100)
        exact = cf_adapter.exact(small_ratings.matrix, cf_request)
        for item in cf_request.target_items:
            assert full.predict(item) == pytest.approx(exact.predict(item))

    @pytest.mark.parametrize("family", ["cf", "search"])
    def test_equals_one_refine_many_call(self, family, small_ratings,
                                         cf_synopsis, cf_request,
                                         small_corpus, search_synopsis,
                                         search_query):
        # The fixed-depth driver refines the top ``depth`` ranked groups
        # in (at most) one refine_many call, exactly as one hand-written
        # call over the stable ranking does.
        if family == "cf":
            partition, (synopsis, _) = small_ratings.matrix, cf_synopsis
            adapter, request = CountingCFAdapter(), cf_request
        else:
            partition, (synopsis, _) = small_corpus.partition, search_synopsis
            adapter, request = CountingSearchAdapter(), search_query
        n = synopsis.n_aggregated
        for depth in (0, n // 2, n, n + 5):
            state, correlations = adapter.initial_result(synopsis, request)
            order = np.argsort(-np.asarray(correlations), kind="stable")
            expected = adapter.finalize(adapter.refine_many(
                partition, synopsis, order[:depth].tolist(), request, state),
                request)
            adapter.calls = 0
            got = refine_to_depth(adapter, partition, synopsis, request,
                                  depth)
            assert answer_key(got) == answer_key(expected)
            assert adapter.calls == min(1, depth)


class TestChunkSchedule:
    """Runs of ranked groups go to ``refine_many`` in chunks; under a
    simulated clock the chunk is exactly what the one-group-per-call
    schedule refines, so nothing observable changes."""

    @settings(max_examples=120, deadline=None)
    @given(family=st.sampled_from(["cf", "search"]),
           seed=st.integers(0, 10_000), speed=st.floats(20.0, 5000.0),
           deadline=st.floats(0.0, 3.0), queued=st.floats(0.0, 0.5),
           cap=st.one_of(st.none(), st.integers(0, 20)),
           boundary=st.one_of(st.none(), st.integers(0, 12)))
    def test_simulated_run_equals_one_group_run(
            self, small_ratings, cf_synopsis, small_corpus, search_synopsis,
            family, seed, speed, deadline, queued, cap, boundary):
        rng = np.random.default_rng(seed)
        if family == "cf":
            partition, (synopsis, _) = small_ratings.matrix, cf_synopsis
            ids, vals = partition.user_ratings(
                int(rng.integers(partition.n_users)))
            keep = rng.random(ids.size) < 0.7
            request = CFRequest(
                active_items=ids[keep], active_vals=vals[keep],
                target_items=rng.choice(partition.n_items, size=5,
                                        replace=False).tolist())
            adapters = (CFAdapter(), OneGroupCFAdapter())
        else:
            partition, (synopsis, _) = small_corpus.partition, search_synopsis
            request = SearchQuery(terms=small_corpus.topic_words(
                int(rng.integers(8)), n=3, rng=rng), k=10)
            adapters = (SearchAdapter(), OneGroupSearchAdapter())
        if boundary is not None:
            # A deadline the clock reaches exactly after `boundary`
            # ranked groups: the stop rule's `>=` fires with equality.
            _, corr = adapters[1].initial_result(synopsis, request)
            ranked = np.argsort(-corr, kind="stable")[:boundary]
            probe = SimulatedClock(start=1.0, speed=speed)
            probe.charge(adapters[1].synopsis_work(synopsis))
            for g in ranked.tolist():
                probe.charge(adapters[1].group_work(synopsis, g))
            deadline = probe.now() - (1.0 - queued)
        runs = []
        for adapter in adapters:
            clock = SimulatedClock(start=1.0, speed=speed)
            result, report = process_component(
                adapter, partition, synopsis, request, deadline, clock=clock,
                i_max=cap, start_time=1.0 - queued)
            runs.append((answer_key(result), report,
                         (clock.now(), clock.work_charged)))
        (answer, report, clock_state), (answer1, report1, clock_state1) = runs
        assert answer == answer1
        assert report == report1        # every field but refine_calls
        assert clock_state == clock_state1
        assert report1.refine_calls == report1.groups_processed
        assert report.refine_calls == min(1, report.groups_processed)

    def test_wall_clock_chunks_once_the_cost_is_measured(
            self, small_ratings, cf_synopsis, cf_request):
        synopsis, _ = cf_synopsis
        matrix, adapter = small_ratings.matrix, CFAdapter()
        process_component(adapter, matrix, synopsis, cf_request, 10.0,
                          clock=WallClock())
        assert REFINE_COST.rate(CFAdapter) is not None
        result, report = process_component(adapter, matrix, synopsis,
                                           cf_request, 10.0,
                                           clock=WallClock())
        assert report.exhausted
        assert report.refine_calls < report.groups_processed
        expect, _ = process_component(adapter, matrix, synopsis, cf_request,
                                      10.0, clock=SimulatedClock(speed=1e9))
        assert answer_key(result) == answer_key(expect)

    def test_stall_adapter_keeps_the_one_group_schedule(
            self, small_ratings, cf_synopsis, cf_request):
        # IOStallAdapter keeps the base refine_many: one group per call,
        # the deadline checked between groups, under every clock.
        synopsis, _ = cf_synopsis
        matrix = small_ratings.matrix
        stall = IOStallAdapter(CFAdapter())
        expect, _ = process_component(CFAdapter(), matrix, synopsis,
                                      cf_request, 10.0,
                                      clock=SimulatedClock(speed=1e9))
        for clock in (SimulatedClock(speed=1e9), WallClock()):
            result, report = process_component(stall, matrix, synopsis,
                                               cf_request, 10.0, clock=clock)
            assert report.refine_calls == report.groups_processed \
                == synopsis.n_aggregated
            assert answer_key(result) == answer_key(expect)


class TestWallChunkRule:
    def test_no_estimate_is_one_group(self):
        assert wall_chunk_end([1.0] * 5, 2, 5, 10.0, None) == 3

    def test_half_the_remaining_budget(self):
        # 1 s left at 0.125 s per unit: half of it buys 4 units.
        assert wall_chunk_end([2.0, 2.0, 1.0, 1.0], 0, 4, 1.0, 0.125) == 2
        assert wall_chunk_end([2.0, 1.0, 1.0, 1.0], 0, 4, 1.0, 0.125) == 3

    def test_at_least_one_group(self):
        assert wall_chunk_end([100.0, 1.0], 0, 2, 1.0, 1.0) == 1
        assert wall_chunk_end([1.0, 1.0], 0, 2, -1.0, 1.0) == 1

    def test_never_past_stop(self):
        assert wall_chunk_end([0.0] * 10, 3, 6, 1.0, 1.0) == 6

    @settings(max_examples=200, deadline=None)
    @given(works=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
           remaining=st.floats(-1.0, 10.0),
           rate=st.one_of(st.none(), st.floats(1e-6, 1.0)), data=st.data())
    def test_longest_run_that_fits(self, works, remaining, rate, data):
        start = data.draw(st.integers(0, len(works) - 1))
        stop = data.draw(st.integers(start + 1, len(works)))
        end = wall_chunk_end(works, start, stop, remaining, rate)
        assert start + 1 <= end <= stop
        if rate is None:
            assert end == start + 1
            return
        budget = 0.5 * remaining / rate
        spent = sum(works[start:end])
        assert end == start + 1 or spent <= budget
        assert end == stop or spent + works[end] > budget


class TestRefineCost:
    def test_moving_average_per_adapter_class(self):
        cost = RefineCost()
        assert cost.rate(CFAdapter) is None
        cost.observe(CFAdapter, 2.0, 4.0)
        assert cost.rate(CFAdapter) == 0.5
        cost.observe(CFAdapter, 1.0, 4.0)
        moved = cost.rate(CFAdapter)
        assert 0.25 < moved < 0.5
        cost.observe(CFAdapter, 0.0, 4.0)     # nothing measured
        cost.observe(CFAdapter, 1.0, 0.0)     # nothing refined
        assert cost.rate(CFAdapter) == moved
        assert cost.rate(SearchAdapter) is None
