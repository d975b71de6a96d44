"""Template groups travel from the evaluator to the store as one block.

The batch backend's ``evaluate_group`` returns a :class:`RecordBlock` whose
template columns are shared keys, ``SweepEngine.run`` writes each
contiguous group with one ``ResultStore.extend``, and the JSONL store
renders blocks of at least ``TEMPLATE_MIN_ROWS`` rows through a line
template.  None of that may change a byte on disk: these tests pin stores
written through blocks to stores written one record at a time.
"""

from __future__ import annotations

import json
import shutil

import pytest

import repro.sweep.store as store_module
from repro.api import Session
from repro.cli import main
from repro.fastpath import BatchEstimator
from repro.fastpath.batch import TEMPLATE_COLUMNS
from repro.resilience import ResiliencePolicy
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec
from repro.sweep.store import (
    TEMPLATE_MIN_ROWS,
    JsonlResultStore,
    RecordBlock,
    repair_torn_tail,
)

#: 2 nodes^3 x 2 packagings = 16 templates of 2 sources x 2 lifetimes x 5
#: volumes = 20 rows each: every group reaches the line template.
SPEC_DICT = {
    "name": "block-grid",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "3d"],
    "carbon_sources": ["coal", "renewable_mix"],
    "lifetimes": [2, 4],
    "system_volumes": [1e3, 1e4, 1e5, 1e6, 1e7],
}
SCENARIOS = SweepSpec.from_dict(SPEC_DICT).expand()
ROWS_PER_GROUP = 20


@pytest.fixture()
def writes(monkeypatch):
    """Bytes of every store write."""
    calls = []
    real = store_module._write_all

    def spy(fd, data):
        calls.append(bytes(data))
        real(fd, data)

    monkeypatch.setattr(store_module, "_write_all", spy)
    return calls


def _row_by_row(tmp_path, scenarios, name="rows.jsonl", **engine_kwargs) -> bytes:
    """Store bytes written one record per ``append``."""
    path = tmp_path / name
    with JsonlResultStore(path) as store:
        for record in SweepEngine(**engine_kwargs).iter_records(scenarios):
            store.append(record)
    return path.read_bytes()


def _run(tmp_path, scenarios, name, **engine_kwargs) -> bytes:
    path = tmp_path / name
    with JsonlResultStore(path) as store:
        SweepEngine(**engine_kwargs).run(scenarios, store=store)
    return path.read_bytes()


def test_evaluate_group_returns_a_block_with_template_columns():
    estimator = BatchEstimator()
    group = SCENARIOS[:ROWS_PER_GROUP]
    block = estimator.evaluate_group(estimator.compile_for(group[0]), group)
    assert isinstance(block, RecordBlock)
    assert block.shared_keys == TEMPLATE_COLUMNS
    for key in TEMPLATE_COLUMNS:
        assert len({json.dumps(record[key]) for record in block}) == 1, key


def test_batch_run_writes_one_block_per_template_group(tmp_path, writes):
    assert ROWS_PER_GROUP >= TEMPLATE_MIN_ROWS
    data = _run(tmp_path, SCENARIOS, "blocks.jsonl", backend="batch")
    assert len(writes) == len(SCENARIOS) // ROWS_PER_GROUP
    assert all(chunk.count(b"\n") == ROWS_PER_GROUP for chunk in writes)
    writes.clear()
    assert data == _row_by_row(tmp_path, SCENARIOS, backend="scalar")


@pytest.mark.parametrize("policy", [None, ResiliencePolicy()], ids=["fail-fast", "record"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_scalar_and_batch_stores_are_byte_identical(tmp_path, jobs, policy):
    reference = _row_by_row(tmp_path, SCENARIOS, backend="scalar")
    for backend in ("scalar", "batch"):
        data = _run(
            tmp_path, SCENARIOS, f"{backend}.jsonl",
            backend=backend, jobs=jobs, resilience=policy,
        )
        assert data == reference, backend


@pytest.mark.parametrize("jobs", [1, 2])
def test_interleaved_template_groups_keep_scenario_order(tmp_path, writes, jobs):
    # Volume-major order: every template group is spread over the whole
    # run, so no group is contiguous and the engine falls back to blocks of
    # one row.
    interleaved = sorted(SCENARIOS, key=lambda s: (s.system_volume, s.index))
    data = _run(tmp_path, interleaved, "interleaved.jsonl", backend="batch", jobs=jobs)
    assert len(writes) == len(interleaved)
    writes.clear()
    assert data == _row_by_row(tmp_path, interleaved, backend="scalar")
    order = [json.loads(line)["scenario"] for line in data.splitlines()]
    assert order == [s.index for s in interleaved]


def test_annotations_are_shared_keys_of_the_written_block(tmp_path):
    path = tmp_path / "annotated.jsonl"
    blocks = []
    with JsonlResultStore(path) as store:
        real_extend = store.extend
        store.extend = lambda block: (blocks.append(block), real_extend(block))
        SweepEngine(backend="batch").run(
            SCENARIOS, store=store, annotate={"search_round": 3}
        )
    assert all(block.shared_keys == TEMPLATE_COLUMNS + ("search_round",) for block in blocks)
    expected = b"".join(
        (json.dumps({**record, "search_round": 3}, sort_keys=True) + "\n").encode()
        for record in SweepEngine(backend="scalar").iter_records(SCENARIOS)
    )
    assert path.read_bytes() == expected


def test_callbacks_see_every_record_in_scenario_order(tmp_path):
    seen, progress = [], []
    with JsonlResultStore(tmp_path / "out.jsonl") as store:
        SweepEngine(backend="batch").run(
            SCENARIOS,
            store=store,
            on_record=lambda record: seen.append(record["scenario"]),
            progress=lambda done, total: progress.append((done, total)),
        )
    assert seen == [s.index for s in SCENARIOS]
    assert progress == [(done, len(SCENARIOS)) for done in range(1, len(SCENARIOS) + 1)]


def test_store_torn_mid_block_resumes_byte_identically(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DICT))
    full = tmp_path / "full.jsonl"
    argv = ["sweep", "--spec", str(spec_path), "--backend", "batch", "--quiet"]
    assert main(argv + ["--out", str(full)]) == 0
    data = full.read_bytes()
    # Cut in the middle of a line inside the fourth block.
    lines = data.splitlines(keepends=True)
    cut = sum(map(len, lines[: 3 * ROWS_PER_GROUP + 7])) + len(lines[3 * ROWS_PER_GROUP + 7]) // 2
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[:cut])
    probe = tmp_path / "probe.jsonl"
    shutil.copy(torn, probe)
    assert repair_torn_tail(probe) is True
    assert probe.read_bytes() == data[: sum(map(len, lines[: 3 * ROWS_PER_GROUP + 7]))]
    capsys.readouterr()
    assert main(argv + ["--resume", str(torn)]) == 0
    out = capsys.readouterr().out
    assert "repaired torn tail" in out
    assert torn.read_bytes() == data


def test_cached_replay_writes_in_one_write(tmp_path, writes):
    from repro.serve.cache import ResultCache

    session = Session(backend="batch", result_cache=ResultCache())
    live = tmp_path / "live.jsonl"
    session.sweep(SPEC_DICT, out=live)
    writes.clear()
    replayed = tmp_path / "replayed.jsonl"
    result = session.sweep(SPEC_DICT, out=replayed)
    assert result.summary.cached
    assert len(writes) == 1
    assert replayed.read_bytes() == live.read_bytes()
