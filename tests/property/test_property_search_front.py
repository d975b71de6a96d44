"""Property-based check of the search's incremental Pareto front (hypothesis).

:meth:`repro.search.strategies.SearchContext.ingest` computes each round's
front over the previous front plus the new batch only.  After every batch
it must equal a full :func:`repro.core.explorer.pareto_front` recompute over
every feasible record so far — on coarse value grids full of single-axis
ties and exact duplicates, with infeasible (``inf``-scored) records mixed
in, for one to three objectives.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explorer import pareto_front
from repro.search.strategies import SearchContext, _FrontPoint

METRICS = ("m0", "m1", "m2")


class _Spec:
    """The two members of a SearchSpec that SearchContext reads."""

    def __init__(self, metric_count: int):
        self.metric_names = METRICS[:metric_count]

    def score(self, record):
        if not record["feasible"]:
            return math.inf
        return sum(record[name] for name in self.metric_names)


def _full_front(context: SearchContext):
    points = [
        _FrontPoint(index, context.records[index])
        for index in sorted(context.records)
        if context.scores[index] < math.inf
    ]
    if not points:
        return ()
    return tuple(p.index for p in pareto_front(points, context.spec.metric_names))


#: Records on a 4-value grid per metric: ties and exact duplicates abound.
records = st.fixed_dictionaries(
    {
        "m0": st.integers(0, 3).map(float),
        "m1": st.integers(0, 3).map(float),
        "m2": st.integers(0, 3).map(float),
        "feasible": st.booleans(),
    }
)


@given(
    metric_count=st.integers(1, 3),
    batches=st.lists(st.lists(records, min_size=1, max_size=12), min_size=1, max_size=8),
    shuffle=st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_incremental_front_equals_full_recompute(metric_count, batches, shuffle):
    context = SearchContext(_Spec(metric_count), space=None)
    total = sum(len(batch) for batch in batches)
    # Batches take scattered grid indices, so fronts mix old and new ids.
    indices = list(range(total))
    shuffle.shuffle(indices)
    cursor = 0
    for batch in batches:
        batch_records = {}
        for record in batch:
            batch_records[indices[cursor]] = record
            cursor += 1
        previous = context.front
        entered, left = context.ingest(batch_records)
        expected = _full_front(context)
        assert context.front == expected
        assert set(entered) == set(expected) - set(previous)
        assert set(left) == set(previous) - set(expected)


def test_reingested_index_recomputes_the_whole_front():
    # Index 0 leaves the front by being re-scored worse; index 1, which it
    # dominated, must come back even though it was not in the last front.
    context = SearchContext(_Spec(2), space=None)
    context.ingest({0: {"m0": 0.0, "m1": 0.0, "feasible": True},
                    1: {"m0": 1.0, "m1": 1.0, "feasible": True}})
    assert context.front == (0,)
    context.ingest({0: {"m0": 5.0, "m1": 5.0, "feasible": True}})
    assert context.front == (1,)
