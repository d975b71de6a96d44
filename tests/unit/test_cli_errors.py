"""The CLI error contract: every rejected ``sweep``/``search``/``serve`` or
single-estimate invocation exits 2 (``[invalid-spec]``) or 3
(``[runtime]``) with one exact stderr line and no traceback."""

from __future__ import annotations

import json
import math
import os
import socket

import pytest

from repro.cli import main
from repro.serve.errors import SpecError
from repro.serve.jobs import JobManager
from repro.sweep.store import open_store

COMPILE_CACHE_SCALAR = (
    "error: [invalid-spec] --compile-cache requires --backend batch (the "
    "scalar backend compiles no templates, so nothing would be cached)"
)
UNKNOWN_PRESET = (
    "error: [invalid-spec] \"unknown sweep preset 'warp'; known presets: "
    "['ga102-grid', 'ga102-quick', 'green-fab', 'volume-amortisation']\""
)
UNKNOWN_FORMAT = (
    "error: [invalid-spec] unknown result-store format '.parquet'; known "
    "formats: ['.csv', '.json', '.jsonl', '.ndjson']"
)
STORE_LOCKED = (
    "error: [runtime] store {tmp}/held.jsonl is locked by pid {pid}; a result "
    "store has exactly one writer (pass exclusive=False only for stores "
    "guarded externally)"
)
UNKNOWN_OBJECTIVE = (
    "error: [invalid-spec] \"record has no objective 'coolness'; known fields: "
    "['base', 'cost_usd', 'design_carbon_g', 'embodied_carbon_g', "
    "'fab_source', 'hi_carbon_g', 'lifetime_years', 'manufacturing_carbon_g', "
    "'nodes', 'operational_carbon_g', 'overrides', 'package_area_mm2', "
    "'packaging', 'packaging_params', 'power_w', 'scenario', "
    "'silicon_area_mm2', 'system', 'system_volume', 'total_carbon_g']\""
)

NODE_NAN = (
    "error: [invalid-spec] node nannm outside tabulated range [3.0nm, 65.0nm]; "
    "register it explicitly"
)
NODE_INF = (
    "error: [invalid-spec] node infnm outside tabulated range [3.0nm, 65.0nm]; "
    "register it explicitly"
)
NODE_NEG_INF = "error: [invalid-spec] technology node must be positive, got -inf"
UNKNOWN_TESTCASE = (
    "error: [invalid-spec] \"unknown testcase 'no-such-testcase'; known testcases: "
    "['a15-3chiplet', 'a15-monolithic', 'arvr-3d-1k-2mb', 'arvr-3d-1k-8mb', "
    "'arvr-3d-2k-16mb', 'emr-2chiplet', 'emr-monolithic', 'ga102-3chiplet', "
    "'ga102-4chiplet', 'ga102-monolithic']\""
)

QUICK = ["--preset", "ga102-quick"]
SPACE = ["--space-preset", "ga102-quick"]

# (argv, exit code, the one stderr line); ``{tmp}`` is the test's scratch
# directory (see ``workdir``), ``{port}`` a port another socket holds and
# ``{pid}`` this process, which holds ``{tmp}/held.jsonl`` open.
CASES = [
    # -- sweep: flag values
    (["sweep", *QUICK, "--jobs", "0"], 2,
     "error: [invalid-spec] --jobs must be >= 1, got 0"),
    (["sweep", *QUICK, "--retries", "-1"], 2,
     "error: [invalid-spec] --retries must be >= 0, got -1"),
    (["sweep", *QUICK, "--scenario-timeout", "0"], 2,
     "error: [invalid-spec] --scenario-timeout must be > 0, got 0.0"),
    (["sweep", *QUICK, "--compile-cache", "{tmp}/cc", "--backend", "scalar"], 2,
     COMPILE_CACHE_SCALAR),
    # -- sweep: the spec and --set
    (["sweep", "--preset", "warp"], 2, UNKNOWN_PRESET),
    (["sweep", "--spec", "{tmp}/ghost.json"], 2,
     "error: [invalid-spec] [Errno 2] No such file or directory: '{tmp}/ghost.json'"),
    (["sweep", "--spec", "{tmp}/packaging5.json"], 2,
     "error: [invalid-spec] packaging entries must be names or dicts, got 5"),
    (["sweep", "--spec", "{tmp}/nodes_nan.json"], 2, NODE_NAN),
    (["sweep", "--spec", "{tmp}/nodes_inf.json"], 2, NODE_INF),
    (["sweep", "--spec", "{tmp}/nodes_neg_inf.json"], 2, NODE_NEG_INF),
    (["sweep", *QUICK, "--set", "wafer_diameter_mm"], 2,
     "error: [invalid-spec] --set expects AXIS=V1[,V2,...], got "
     "'wafer_diameter_mm' (see 'eco-chip --list-axes')"),
    (["sweep", *QUICK, "--set", "duty_cycle="], 2,
     "error: [invalid-spec] --set duty_cycle: no values given"),
    (["sweep", *QUICK, "--set", "duty_cycle=0.1", "--set", "duty_cycle=0.2"], 2,
     "error: [invalid-spec] --set duty_cycle given more than once; list every "
     "value in one flag: --set duty_cycle=V1,V2,..."),
    (["sweep", "--spec", "{tmp}/duty.json", "--set", "duty_cycle=0.3"], 2,
     "error: [invalid-spec] --set duty_cycle conflicts with the spec's own "
     "'duty_cycle' axis; drop one of the two"),
    # -- sweep: stores
    (["sweep", *QUICK, "--resume", "{tmp}/a.jsonl", "--out", "{tmp}/b.jsonl"], 2,
     "error: [invalid-spec] --resume writes into the resumed file; drop --out "
     "or pass the same path"),
    (["sweep", *QUICK, "--resume", "{tmp}/corrupt.jsonl"], 3,
     "error: [runtime] cannot read resume file {tmp}/corrupt.jsonl: Expecting "
     "value: line 1 column 1 (char 0)"),
    (["sweep", *QUICK, "--resume", "{tmp}/array.jsonl"], 3,
     "error: [runtime] cannot read resume file {tmp}/array.jsonl: line 2 is not "
     "a JSON object"),
    (["sweep", *QUICK, "--out", "{tmp}/r.parquet"], 2, UNKNOWN_FORMAT),
    (["sweep", *QUICK, "--out", "{tmp}/held.jsonl"], 3, STORE_LOCKED),
    (["sweep", *QUICK, "--out", "{tmp}/adir.jsonl"], 3,
     "error: [runtime] [Errno 21] Is a directory: '{tmp}/adir.jsonl'"),
    # -- sweep: post-run checks
    (["sweep", *QUICK, "--pareto", "coolness", "--quiet"], 2, UNKNOWN_OBJECTIVE),
    # -- search
    (["search", *SPACE, "--jobs", "0"], 2,
     "error: [invalid-spec] --jobs must be >= 1, got 0"),
    (["search", *SPACE, "--compile-cache", "{tmp}/cc", "--backend", "scalar"], 2,
     COMPILE_CACHE_SCALAR),
    (["search", "--space-preset", "warp"], 2, UNKNOWN_PRESET),
    (["search", "--spec", "{tmp}/search_nodes_nan.json"], 2, NODE_NAN),
    (["search", "--spec", "{tmp}/search_nodes_inf.json"], 2, NODE_INF),
    (["search", "--spec", "{tmp}/search_nodes_neg_inf.json"], 2, NODE_NEG_INF),
    (["search", "--spec", "{tmp}/nospace.json", "--set", "duty_cycle=0.1"], 2,
     "error: [invalid-spec] --set needs the spec's 'space' to be a sweep-spec "
     "mapping to merge axes into"),
    (["search", "--spec", "{tmp}/search_duty.json", "--set", "duty_cycle=0.3"], 2,
     "error: [invalid-spec] --set duty_cycle conflicts with the space's own "
     "'duty_cycle' axis; drop one of the two"),
    (["search", *SPACE, "--resume", "{tmp}/a.jsonl", "--out", "{tmp}/b.jsonl"], 2,
     "error: [invalid-spec] --resume replays and extends the resumed file; drop "
     "--out or pass the same path"),
    (["search", *SPACE, "--resume", "{tmp}/corrupt.jsonl"], 3,
     "error: [runtime] cannot read resume file {tmp}/corrupt.jsonl: Expecting "
     "value: line 1 column 1 (char 0)"),
    (["search", *SPACE, "--resume", "{tmp}/array.jsonl"], 3,
     "error: [runtime] cannot read resume file {tmp}/array.jsonl: line 2 is not "
     "a JSON object"),
    (["search", *SPACE, "--out", "{tmp}/r.parquet"], 2, UNKNOWN_FORMAT),
    (["search", *SPACE, "--out", "{tmp}/held.jsonl"], 3, STORE_LOCKED),
    # -- serve
    (["serve", "--workers", "0"], 2,
     "error: [invalid-spec] --workers must be >= 1, got 0"),
    (["serve", "--queue-size", "0"], 2,
     "error: [invalid-spec] --queue-size must be >= 1, got 0"),
    (["serve", "--jobs", "0"], 2, "error: [invalid-spec] --jobs must be >= 1, got 0"),
    (["serve", "--quota", "0"], 2, "error: [invalid-spec] --quota must be >= 1, got 0"),
    (["serve", "--grace", "-1"], 2, "error: [invalid-spec] --grace must be >= 0, got -1.0"),
    (["serve", "--port", "70000"], 2,
     "error: [invalid-spec] --port must be 0..65535, got 70000"),
    (["serve", "--compile-cache", "{tmp}/cc", "--backend", "scalar"], 2,
     COMPILE_CACHE_SCALAR),
    (["serve", "--port", "{port}", "--store-dir", "{tmp}/jobs"], 3,
     "error: [runtime] cannot serve on 127.0.0.1:{port}: [Errno 98] Address "
     "already in use"),
    # -- single estimate
    (["--testcase", "no-such-testcase"], 2, UNKNOWN_TESTCASE),
    (["--design-dir", "{tmp}/ghost"], 2,
     "error: [invalid-spec] design directory {tmp}/ghost does not exist"),
    (["--testcase", "a15-monolithic", "--output", "{tmp}"], 3,
     "error: [runtime] cannot write report to {tmp}: [Errno 21] Is a directory: "
     "'{tmp}'"),
]


@pytest.fixture()
def workdir(tmp_path):
    """Scratch files the table's argv refer to, plus a held store and port."""
    specs = {
        "packaging5.json": {"testcases": ["ga102-3chiplet"], "packaging": [5]},
        "duty.json": {"testcases": ["emr-2chiplet"], "duty_cycle": [0.1, 0.2]},
        "nospace.json": {"space": "ga102-quick"},
        "search_duty.json": {"space": {"testcases": ["emr-2chiplet"],
                                       "duty_cycle": [0.1]}},
    }
    # Non-finite nodes, written with the NaN/Infinity JSON extension.
    for label, node in (("nan", math.nan), ("inf", math.inf), ("neg_inf", -math.inf)):
        space = {"testcases": ["ga102-3chiplet"], "nodes": [node]}
        specs[f"nodes_{label}.json"] = space
        specs[f"search_nodes_{label}.json"] = {"space": space, "budget": 4}
    for name, body in specs.items():
        (tmp_path / name).write_text(json.dumps(body))
    (tmp_path / "corrupt.jsonl").write_text('garbage\n{"scenario": 0}\n')
    # Valid JSON on every line, but line 2 is an array, not a record.
    (tmp_path / "array.jsonl").write_text('{"scenario": 0}\n[1, 2]\n{"scenario": 1}\n')
    (tmp_path / "adir.jsonl").mkdir()
    held = open_store(tmp_path / "held.jsonl")
    busy = socket.socket()
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    try:
        yield {"tmp": str(tmp_path), "port": busy.getsockname()[1], "pid": os.getpid()}
    finally:
        busy.close()
        held.close()


@pytest.mark.parametrize(
    "argv, code, line", CASES, ids=[" ".join(case[0]) for case in CASES]
)
def test_error_exit_code_and_stderr_line(argv, code, line, workdir, capsys):
    assert main([arg.format(**workdir) for arg in argv]) == code
    assert capsys.readouterr().err == line.format(**workdir) + "\n"


OUT_OF_RANGE = (
    "error: [invalid-spec] node 1.0nm outside tabulated range [3.0nm, 65.0nm]; "
    "register it explicitly"
)
NODE_1_SPACE = {"testcases": ["ga102-3chiplet"], "nodes": [1], "packaging": ["rdl_fanout"]}


class TestNodesOutsideTheTechnologyTable:
    """Node values the technology table cannot serve are rejected up front."""

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_sweep_rejects_before_opening_the_store(self, backend, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(NODE_1_SPACE))
        out = tmp_path / "r.jsonl"
        argv = ["sweep", "--spec", str(spec), "--backend", backend, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == OUT_OF_RANGE + "\n"
        assert not out.exists()

    def test_search_rejects_before_opening_the_store(self, tmp_path, capsys):
        spec = tmp_path / "search.json"
        spec.write_text(json.dumps({"space": NODE_1_SPACE, "budget": 4}))
        out = tmp_path / "s.jsonl"
        assert main(["search", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == OUT_OF_RANGE + "\n"
        assert not out.exists()

    def test_node_configs_are_checked_too(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "testcases": ["emr-2chiplet"], "node_configs": [[7, 10], [7, 90]],
        }))
        assert main(["sweep", "--spec", str(spec)]) == 2
        assert "node 90.0nm outside tabulated range" in capsys.readouterr().err

    def test_interpolated_nodes_inside_the_table_pass(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(NODE_1_SPACE, nodes=[6])))
        assert main(["sweep", "--spec", str(spec), "--quiet"]) == 0
        capsys.readouterr()

    def test_job_manager_submit_raises_spec_error(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", workers=1)
        with pytest.raises(SpecError, match=r"node 1\.0nm outside tabulated range"):
            manager.submit(NODE_1_SPACE)
        assert list((tmp_path / "jobs").iterdir()) == []
