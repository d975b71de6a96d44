"""Group replay on a real (non-chaos) evaluation failure.

The engine evaluates each scenario group in one attempt and, only when the
attempt raises, replays that group scenario by scenario under the
resilience policy.  These tests break the group kernel of each backend for
one scenario and check that the replay isolates exactly that scenario:
scalar and batch stores stay byte-identical, every other row equals a
fault-free run, and fail-fast runs propagate the original exception.
"""

from __future__ import annotations

import pytest

import repro.sweep.engine as engine_module
from repro.fastpath import group_scenarios
from repro.fastpath.batch import BatchEstimator
from repro.resilience import ResiliencePolicy, error_info, is_error_record
from repro.sweep.engine import SweepEngine, _GroupEvaluator
from repro.sweep.spec import SweepSpec
from repro.sweep.store import JsonlResultStore, load_records

SPEC = SweepSpec.from_dict(
    {
        "name": "replay-grid",
        "testcases": ["ga102-3chiplet"],
        "nodes": [7, 14],
        "packaging": ["rdl_fanout", "silicon_bridge"],
        "carbon_sources": ["coal", "renewable_mix"],
    }
)
SCENARIOS = SPEC.expand()

#: The scenario whose group kernel raises.
BROKEN = 6

RECORD = ResiliencePolicy()


class KernelFault(RuntimeError):
    """The failure the broken group kernel raises."""


def _fault(scenarios) -> None:
    if any(scenario.index == BROKEN for scenario in scenarios):
        raise KernelFault(f"kernel fault on scenario {BROKEN}")


@pytest.fixture()
def broken_kernels(monkeypatch):
    """Make both backends' group kernels raise for the BROKEN scenario."""
    oracle_record = _GroupEvaluator.oracle_record
    batch_evaluate_group = BatchEstimator.evaluate_group

    def evaluate(self, scenario):
        _fault([scenario])
        return oracle_record(self, scenario)

    def evaluate_group(self, template, scenarios):
        _fault(scenarios)
        return batch_evaluate_group(self, template, scenarios)

    monkeypatch.setattr(_GroupEvaluator, "oracle_record", evaluate)
    monkeypatch.setattr(BatchEstimator, "evaluate_group", evaluate_group)


@pytest.fixture(scope="module")
def reference():
    """Fault-free records (module scope: built before any kernel breaks)."""
    return list(SweepEngine(backend="scalar").iter_records(SCENARIOS))


@pytest.fixture()
def replayed(monkeypatch):
    """Scenario indices evaluated through the per-scenario replay."""
    indices = []
    contained = engine_module.evaluate_contained

    def spy(evaluate, scenario, *args, **kwargs):
        indices.append(scenario.index)
        return contained(evaluate, scenario, *args, **kwargs)

    monkeypatch.setattr(engine_module, "evaluate_contained", spy)
    return indices


def _sweep(tmp_path, name, **engine_kwargs):
    path = tmp_path / f"{name}.jsonl"
    with JsonlResultStore(path) as store:
        summary = SweepEngine(**engine_kwargs).run(SCENARIOS, store=store)
    return summary, path


class TestReplayIsolatesTheFailure:
    def test_only_the_failing_group_is_replayed(self, broken_kernels, replayed):
        list(SweepEngine(backend="scalar", resilience=RECORD).iter_records(SCENARIOS))
        # In-process scalar groups are single scenarios.
        assert replayed == [BROKEN]
        replayed.clear()
        list(SweepEngine(backend="batch", resilience=RECORD).iter_records(SCENARIOS))
        [members] = [
            members
            for _, members in group_scenarios(SCENARIOS)
            if any(scenario.index == BROKEN for _, scenario in members)
        ]
        assert len(members) > 1
        assert replayed == [scenario.index for _, scenario in members]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backends_write_byte_identical_stores(self, tmp_path, broken_kernels, jobs):
        kwargs = {"jobs": jobs, "resilience": RECORD, "mp_context": "fork"}
        scalar, scalar_path = _sweep(tmp_path, "scalar", backend="scalar", **kwargs)
        batch, batch_path = _sweep(tmp_path, "batch", backend="batch", **kwargs)
        assert scalar_path.read_bytes() == batch_path.read_bytes()
        for summary in (scalar, batch):
            assert summary.error_count == 1
            assert summary.retry_count == 0
            assert dict(summary.error_codes) == {"evaluation-error": 1}

    def test_other_rows_equal_a_fault_free_run(self, tmp_path, reference, broken_kernels):
        _, path = _sweep(tmp_path, "broken", backend="batch", resilience=RECORD)
        rows = load_records(path)
        assert len(rows) == len(SCENARIOS)
        errors = [row for row in rows if is_error_record(row)]
        assert [row["scenario"] for row in errors] == [BROKEN]
        info = error_info(errors[0])
        assert info["exception"] == "KernelFault"
        assert info["attempts"] == 1
        healthy = [row for row in rows if not is_error_record(row)]
        assert healthy == [r for r in reference if r["scenario"] != BROKEN]


class TestFailFastPropagatesTheOriginalError:
    """``on_error="raise"``, given or by default, re-raises the kernel's error."""

    @pytest.mark.parametrize("policy", [None, ResiliencePolicy(on_error="raise")])
    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_original_exception_type(self, broken_kernels, jobs, backend, policy):
        engine = SweepEngine(
            jobs=jobs, backend=backend, mp_context="fork", resilience=policy
        )
        with pytest.raises(KernelFault):
            list(engine.iter_records(SCENARIOS))
