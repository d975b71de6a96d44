"""Unit tests for repro.sweep.store (streaming result stores)."""

from __future__ import annotations

import json
import os

import pytest

import repro.sweep.store as store_module
from repro.core.explorer import pareto_front
from repro.sweep.store import (
    TEMPLATE_MIN_ROWS,
    CsvResultStore,
    JsonlResultStore,
    RecordBlock,
    StoreLockError,
    SweepRow,
    completed_scenario_ids,
    iter_records,
    load_records,
    load_rows,
    open_store,
    records_by_scenario,
    render_jsonl_block,
    rows_from_records,
)

RECORDS = [
    {"scenario": 0, "base": "ga102-3chiplet", "nodes": [7.0, 14.0, 10.0],
     "packaging": "rdl_fanout", "total_carbon_g": 100.0, "silicon_area_mm2": 50.0},
    {"scenario": 1, "base": "ga102-3chiplet", "nodes": [7.0, 7.0, 7.0],
     "packaging": "silicon_bridge", "total_carbon_g": 90.0, "silicon_area_mm2": 60.0},
    {"scenario": 2, "base": "ga102-3chiplet", "nodes": [14.0, 14.0, 14.0],
     "packaging": "rdl_fanout", "total_carbon_g": 120.0, "silicon_area_mm2": 70.0},
]


class TestJsonlStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
            assert store.count == 3
        assert load_records(path) == RECORDS

    def test_each_append_is_flushed(self, tmp_path):
        # Crash-safety: the file must be complete and valid after every append,
        # without waiting for close().
        path = tmp_path / "out.jsonl"
        store = JsonlResultStore(path)
        for done, record in enumerate(RECORDS, start=1):
            store.append(record)
            lines = [l for l in path.read_text().splitlines() if l.strip()]
            assert len(lines) == done
            json.loads(lines[-1])  # every line is already valid JSON
        store.close()

    def test_append_mode_extends_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
        with JsonlResultStore(path, append=True) as store:
            store.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_append_after_close_rejected(self, tmp_path):
        store = JsonlResultStore(tmp_path / "out.jsonl")
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            store.append(RECORDS[0])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
        assert path.exists()


class TestCsvStore:
    def test_round_trip_revives_numbers_and_lists(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        reloaded = load_records(path)
        assert len(reloaded) == 3
        assert reloaded[0]["total_carbon_g"] == 100.0
        assert reloaded[0]["nodes"] == [7.0, 14.0, 10.0]
        assert reloaded[1]["packaging"] == "silicon_bridge"

    def test_single_element_lists_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"scenario": 0, "nodes": [7.0], "total_carbon_g": 5.0})
        [record] = load_records(path)
        assert record["nodes"] == [7.0]

    def test_strings_containing_semicolons_stay_strings(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"scenario": 0, "base": "designs;v2", "total_carbon_g": 5.0})
        [record] = load_records(path)
        assert record["base"] == "designs;v2"

    def test_append_mode_respects_existing_header_order(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"a": 1, "b": 2})
        with CsvResultStore(path, append=True) as store:
            store.append({"b": 20, "a": 10})  # different key order
        first, second = load_records(path)
        assert first == {"a": 1, "b": 2}
        assert second == {"a": 10, "b": 20}

    def test_append_mode_drops_unknown_columns(self, tmp_path):
        # The on-disk header wins: unknown keys are dropped (never
        # misaligned), so older stores stay resumable by newer versions
        # that add record columns.
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"a": 1})
        with CsvResultStore(path, append=True) as store:
            store.append({"a": 2, "surprise": 3})
        assert load_records(path) == [{"a": 1}, {"a": 2}]

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("scenario,")


class TestOpenStore:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlResultStore)
        assert isinstance(open_store(tmp_path / "a.ndjson"), JsonlResultStore)
        assert isinstance(open_store(tmp_path / "a.csv"), CsvResultStore)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.dat", fmt="csv"), CsvResultStore)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown result-store format"):
            open_store(tmp_path / "a.parquet")


class TestSweepRow:
    def test_objective_protocol_feeds_pareto_front(self):
        rows = rows_from_records(RECORDS)
        front = pareto_front(rows, ["total_carbon_g", "silicon_area_mm2"])
        # Record 2 is dominated by both others; 0 and 1 trade off.
        assert {row.record["scenario"] for row in front} == {0, 1}

    def test_unknown_objective_rejected(self):
        with pytest.raises(KeyError, match="no objective"):
            SweepRow(RECORDS[0]).objective("coolness")

    def test_label(self):
        assert SweepRow(RECORDS[0]).label == "(7,14,10)/rdl_fanout"

    def test_load_rows_from_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        rows = load_rows(path)
        assert [row.objective("total_carbon_g") for row in rows] == [100.0, 90.0, 120.0]

    def test_iter_records_streams(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        iterator = iter_records(path)
        assert next(iterator)["scenario"] == 0


class TestNonObjectLines:
    """A JSONL line that is valid JSON but not an object is corruption, not a
    record and not a torn tail: every reader names its line number."""

    @pytest.mark.parametrize(
        "text, number",
        [
            ('{"scenario": 0}\n[1, 2]\n{"scenario": 1}\n', 2),
            ('{"scenario": 0}\n\n{"scenario": 1}\n7\n', 4),  # last line, blank skipped
            ('null\n', 1),
        ],
    )
    @pytest.mark.parametrize(
        "reader", [load_records, completed_scenario_ids, records_by_scenario]
    )
    def test_readers_raise_value_error_naming_the_line(self, tmp_path, text, number, reader):
        path = tmp_path / "odd.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^line {number} is not a JSON object$"):
            reader(path)


class TestStoreLocking:
    def test_second_writer_rejected_while_lock_held(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
            with pytest.raises(StoreLockError, match="locked"):
                JsonlResultStore(path, append=True)
        # close() released the lock: a new writer succeeds.
        with JsonlResultStore(path, append=True) as store:
            store.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_lock_file_removed_on_close(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path):
            assert (tmp_path / "out.jsonl.lock").exists()
        assert not (tmp_path / "out.jsonl.lock").exists()

    def test_stale_lock_from_dead_process_is_reclaimed(self, tmp_path):
        path = tmp_path / "out.jsonl"
        # Forge a lock naming a pid that cannot be alive.
        (tmp_path / "out.jsonl.lock").write_text("99999999\n")
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
        assert load_records(path) == RECORDS[:1]

    def test_exclusive_false_skips_locking(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as first:
            first.append(RECORDS[0])
            with JsonlResultStore(path, append=True, exclusive=False) as second:
                second.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_appends_are_line_atomic_across_writers(self, tmp_path):
        # O_APPEND with one os.write per record: two fds interleaving must
        # never produce torn or interleaved lines.
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as first:
            with JsonlResultStore(path, append=True, exclusive=False) as second:
                for record in RECORDS:
                    first.append(record)
                    second.append(record)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert [json.loads(line)["scenario"] for line in lines] == [0, 0, 1, 1, 2, 2]

    def test_open_store_passes_exclusive_through(self, tmp_path):
        path = tmp_path / "out.csv"
        with open_store(path):
            with pytest.raises(StoreLockError):
                open_store(path, append=True)
            open_store(path, append=True, exclusive=False).close()

    def test_lock_held_by_live_process_reports_pid(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path):
            with pytest.raises(StoreLockError, match=str(os.getpid())):
                JsonlResultStore(path, append=True)


class TestCsvForwardCompatibleAppend:
    def test_appending_records_with_new_columns_keeps_old_schema(self, tmp_path):
        # A store written by an older version (fewer columns) must stay
        # resumable: new-version records append in the on-disk schema, with
        # unknown keys dropped rather than raising mid-resume.
        from repro.sweep.store import CsvResultStore, load_records

        path = tmp_path / "old.csv"
        with CsvResultStore(path) as store:
            store.append({"scenario": 0, "total_carbon_g": 1.5})
        with CsvResultStore(path, append=True) as store:
            store.append(
                {"scenario": 1, "total_carbon_g": 2.5, "packaging_params": "{}"}
            )
        records = load_records(path)
        assert records == [
            {"scenario": 0, "total_carbon_g": 1.5},
            {"scenario": 1, "total_carbon_g": 2.5},
        ]


def _grid_block(rows: int = 20) -> RecordBlock:
    """A template-group-shaped block: eight shared columns, floats varying."""
    return RecordBlock(
        [
            {
                "scenario": index,
                "base": "ga102-3chiplet",
                "nodes": [7.0, 14.0, 10.0],
                "packaging": "rdl_fanout",
                "packaging_params": '{"layers": 4}',
                "fab_source": "coal" if index % 2 else "renewable_mix",
                "lifetime_years": float(1 + index % 4),
                "system_volume": 10.0 ** (3 + index % 5),
                "overrides": None,
                "system": "GA102-3chiplet",
                "total_carbon_g": 1708396.5743418778 + index / 3.0,
                "silicon_area_mm2": 629.038,
                "package_area_mm2": 712.0315784742552,
                "power_w": 130.56706630136986,
            }
            for index in range(rows)
        ],
        ("base", "nodes", "packaging", "packaging_params", "system",
         "silicon_area_mm2", "package_area_mm2", "power_w"),
    )


def _dumps(records) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


@pytest.fixture()
def writes(monkeypatch):
    """Every buffer handed to the store's write loop."""
    calls = []
    real = store_module._write_all

    def spy(fd, data):
        calls.append(bytes(data))
        real(fd, data)

    monkeypatch.setattr(store_module, "_write_all", spy)
    return calls


class TestBlockWrites:
    def test_jsonl_block_is_one_write_of_json_dumps_lines(self, tmp_path, writes):
        block = _grid_block(20)
        assert len(block) >= TEMPLATE_MIN_ROWS
        assert render_jsonl_block(block, block.shared_keys) is not None
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.extend(block)
            assert store.count == 20
        assert writes == [_dumps(block)]
        assert path.read_bytes() == _dumps(block)

    def test_small_and_keyless_blocks_render_row_by_row(self, tmp_path, writes):
        small = _grid_block(TEMPLATE_MIN_ROWS - 1)
        keyless = list(_grid_block(20))
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.extend(small)
            store.extend(keyless)
            store.extend([])
        assert writes == [_dumps(small), _dumps(keyless)]

    def test_non_finite_float_falls_back_to_json_spelling(self, tmp_path):
        block = _grid_block(20)
        block[3]["total_carbon_g"] = float("nan")
        block[5]["total_carbon_g"] = float("-inf")
        assert render_jsonl_block(block, block.shared_keys) is None
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.extend(block)
        assert path.read_bytes() == _dumps(block)
        assert b"NaN" in path.read_bytes() and b"-Infinity" in path.read_bytes()

    def test_mixed_key_sets_fall_back(self):
        block = _grid_block(20)
        block[4]["error"] = {"code": "x"}
        assert render_jsonl_block(block, block.shared_keys) is None

    def test_record_block_survives_pickling(self):
        import pickle

        block = _grid_block(3)
        clone = pickle.loads(pickle.dumps(block))
        assert clone == block and clone.shared_keys == block.shared_keys

    def test_csv_extend_equals_appends_in_one_write(self, tmp_path, writes):
        block = _grid_block(20)
        appended = tmp_path / "appended.csv"
        with CsvResultStore(appended) as store:
            for record in block:
                store.append(record)
        writes.clear()
        extended = tmp_path / "extended.csv"
        with CsvResultStore(extended) as store:
            store.extend(block[:10])
            store.extend(block[10:])
            assert store.count == 20
        assert len(writes) == 2
        assert extended.read_bytes() == appended.read_bytes()
        assert load_records(extended) == load_records(appended)

    def test_csv_extend_keeps_the_on_disk_header(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"b": 1, "a": 2})
        with CsvResultStore(path, append=True) as store:
            store.extend([{"a": 20, "b": 10, "new": 0}, {"a": 40, "b": 30}])
        assert load_records(path) == [
            {"b": 1, "a": 2}, {"b": 10, "a": 20}, {"b": 30, "a": 40},
        ]


class TestShortWrites:
    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        real_write = os.write
        sizes = []

        def partial_write(fd, data):
            # The kernel may accept fewer bytes than asked: take 7 at most.
            written = real_write(fd, bytes(data[:7]))
            sizes.append(written)
            return written

        block = _grid_block(20)
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            monkeypatch.setattr(os, "write", partial_write)
            store.append(RECORDS[0])
            store.extend(block)
            monkeypatch.undo()
        assert len(sizes) > 2
        assert path.read_bytes() == _dumps([RECORDS[0], *block])

    def test_zero_byte_write_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            monkeypatch.setattr(os, "write", lambda fd, data: 0)
            with pytest.raises(OSError, match="no progress"):
                store.append(RECORDS[0])
            monkeypatch.undo()
