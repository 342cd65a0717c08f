"""``IOStallAdapter`` changes wall time only: under a simulated clock a
wrapped adapter's Algorithm 1 runs are its inner adapter's, report for
report, and it reads group work through the inner adapter's
``group_works``."""

import pytest

from repro.core.adapters import CFAdapter, SearchAdapter
from repro.core.clock import SimulatedClock
from repro.core.processor import process_component
from repro.serving.adapters import IOStallAdapter


def counting(base):
    class Counting(base):
        calls = 0

        def group_works(self, synopsis, group_ids):
            Counting.calls += 1
            return super().group_works(synopsis, group_ids)

    return Counting()


@pytest.fixture(params=["cf", "search"])
def family(request, small_ratings, cf_synopsis, cf_request, small_corpus,
           search_synopsis, search_query):
    if request.param == "cf":
        return CFAdapter, small_ratings.matrix, cf_synopsis[0], cf_request
    return (SearchAdapter, small_corpus.partition, search_synopsis[0],
            search_query)


class TestIOStallAdapter:
    # Deadlines from none at all to every group, at one work unit per
    # second; stalls of 0 keep the test off the wall clock.
    @pytest.mark.parametrize("deadline", [0.0, 5.0, 40.0, 1e9])
    def test_report_equals_inner(self, family, deadline):
        base, partition, synopsis, request = family
        inner = counting(base)
        results = [
            process_component(adapter, partition, synopsis, request,
                              deadline, clock=SimulatedClock(speed=1.0),
                              start_time=0.0)
            for adapter in (inner, IOStallAdapter(inner))]
        (inner_result, inner_report), (wrapped_result, wrapped_report) = \
            results
        assert wrapped_report == inner_report
        assert repr(wrapped_result) == repr(inner_result)
        assert type(inner).calls == 2   # one per run, wrapped or not

    def test_group_works_is_the_group_work_loop(self, family):
        base, _, synopsis, _ = family
        adapter = IOStallAdapter(base())
        groups = list(range(synopsis.n_aggregated))[::-1]
        works = adapter.group_works(synopsis, groups)
        assert works == [adapter.group_work(synopsis, g) for g in groups]
        assert all(type(w) is float for w in works)
