"""Unit tests for repro.io and repro.cli."""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    build_search_parser,
    build_serve_parser,
    build_sweep_parser,
    main,
)
from repro.io.loaders import load_design_directory, load_system_from_dict
from repro.io.writers import report_to_json, write_report
from repro.packaging.bridge import SiliconBridgeSpec
from repro.packaging.rdl import RDLFanoutSpec


ARCHITECTURE = {
    "name": "toy-soc",
    "packaging": {"type": "rdl_fanout", "layers": 5, "technology_nm": 65},
    "chiplets": [
        {"name": "digital", "type": "logic", "node": 7, "area_mm2": 120.0},
        {"name": "memory", "type": "memory", "node": 10, "area_mm2": 60.0},
        {"name": "analog", "type": "analog", "node": 14, "transistors": 5.0e8, "reused": True},
    ],
}
OPERATIONAL = {"lifetime_years": 3, "duty_cycle": 0.1, "average_power_w": 15.0}
DESIGN = {"system_volume": 50_000, "design_iterations": 50}


def write_design_dir(tmp_path, architecture=ARCHITECTURE, operational=OPERATIONAL,
                     design=DESIGN, package=None, node_list="7\n10\n14\n"):
    """Create an ECO-CHIP style design directory under ``tmp_path``."""
    (tmp_path / "architecture.json").write_text(json.dumps(architecture))
    if operational is not None:
        (tmp_path / "operationalC.json").write_text(json.dumps(operational))
    if design is not None:
        (tmp_path / "designC.json").write_text(json.dumps(design))
    if package is not None:
        (tmp_path / "packageC.json").write_text(json.dumps(package))
    if node_list is not None:
        (tmp_path / "node_list.txt").write_text(node_list)
    return tmp_path


class TestLoadSystemFromDict:
    def test_full_round_trip(self):
        system = load_system_from_dict(ARCHITECTURE, OPERATIONAL, DESIGN)
        assert system.name == "toy-soc"
        assert system.chiplet_count == 3
        assert isinstance(system.packaging, RDLFanoutSpec)
        assert system.packaging.layers == 5
        assert system.operating.average_power_w == 15.0
        assert system.system_volume == 50_000
        assert system.design_iterations == 50
        assert system.chiplet("analog").reused

    def test_defaults_when_optional_sections_missing(self):
        system = load_system_from_dict(ARCHITECTURE)
        assert system.system_volume == 100_000
        assert system.design_iterations == 100

    def test_package_overrides_are_merged(self):
        system = load_system_from_dict(
            ARCHITECTURE, package_overrides={"layers": 9, "type": "ignored"}
        )
        assert system.packaging.layers == 9

    def test_missing_chiplets_rejected(self):
        with pytest.raises(KeyError):
            load_system_from_dict({"name": "x", "chiplets": []})

    def test_chiplet_entry_missing_keys_rejected(self):
        broken = dict(ARCHITECTURE)
        broken["chiplets"] = [{"name": "a", "type": "logic"}]
        with pytest.raises(KeyError):
            load_system_from_dict(broken)

    def test_default_packaging_is_monolithic(self):
        arch = {"name": "mono", "chiplets": [{"name": "die", "type": "logic", "node": 7, "area_mm2": 50}]}
        system = load_system_from_dict(arch)
        assert system.is_monolithic


class TestLoadDesignDirectory:
    def test_load_full_directory(self, tmp_path):
        write_design_dir(tmp_path)
        design = load_design_directory(tmp_path)
        assert design.system.name == "toy-soc"
        assert design.node_sweep == [7.0, 10.0, 14.0]
        assert design.path == tmp_path

    def test_package_file_overrides_architecture(self, tmp_path):
        write_design_dir(tmp_path, package={"layers": 8})
        design = load_design_directory(tmp_path)
        assert design.system.packaging.layers == 8

    def test_node_list_parses_suffixes_and_comments(self, tmp_path):
        write_design_dir(tmp_path, node_list="# comment\n7nm\n 22 \n\n")
        design = load_design_directory(tmp_path)
        assert design.node_sweep == [7.0, 22.0]

    def test_missing_directory_and_missing_architecture(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_design_directory(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            load_design_directory(empty)

    def test_non_object_architecture_rejected(self, tmp_path):
        (tmp_path / "architecture.json").write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_design_directory(tmp_path)

    def test_emib_type_loads_bridge_spec(self, tmp_path):
        arch = dict(ARCHITECTURE)
        arch["packaging"] = {"type": "emib", "bridge_layers": 3}
        write_design_dir(tmp_path, architecture=arch)
        design = load_design_directory(tmp_path)
        assert isinstance(design.system.packaging, SiliconBridgeSpec)
        assert design.system.packaging.bridge_layers == 3


class TestWriters:
    def test_report_to_json_is_valid_json(self, estimator, ga102_3chiplet):
        report = estimator.estimate(ga102_3chiplet)
        data = json.loads(report_to_json(report))
        assert data["system"] == ga102_3chiplet.name
        assert data["breakdown_g"]["total_cfp_g"] > 0

    def test_write_report_creates_parent_dirs(self, tmp_path, estimator, ga102_3chiplet):
        report = estimator.estimate(ga102_3chiplet)
        target = tmp_path / "nested" / "dir" / "report.json"
        written = write_report(report, target)
        assert written == target
        assert json.loads(target.read_text())["system"] == ga102_3chiplet.name


class TestCli:
    @pytest.mark.parametrize(
        "build", [build_sweep_parser, build_search_parser, build_serve_parser]
    )
    def test_backend_flag_defaults_to_batch(self, build):
        # sweep, search and serve share one --backend flag; batch is the
        # default of all three, scalar stays selectable as the oracle.
        assert build().parse_args([]).backend == "batch"
        assert build().parse_args(["--backend", "scalar"]).backend == "scalar"

    def test_list_testcases(self, capsys):
        assert main(["--list-testcases"]) == 0
        out = capsys.readouterr().out
        assert "ga102-3chiplet" in out

    def test_list_packaging_is_registry_driven(self, capsys):
        assert main(["--list-packaging"]) == 0
        out = capsys.readouterr().out
        # one line per registered architecture, with aliases and spec class
        for name in ("monolithic", "rdl_fanout", "silicon_bridge", "3d_stack"):
            assert name in out
        assert "emib" in out
        assert "SiliconBridgeSpec" in out

    def test_run_builtin_testcase(self, capsys):
        assert main(["--testcase", "a15-3chiplet"]) == 0
        out = capsys.readouterr().out
        assert "Ctot" in out

    def test_run_design_directory_with_sweep_and_output(self, tmp_path, capsys):
        design_path = tmp_path / "design"
        design_path.mkdir()
        design_dir = write_design_dir(design_path)
        output = tmp_path / "out.json"
        code = main(
            [
                "--design-dir",
                str(design_dir),
                "--sweep-nodes",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Node mix-and-match sweep" in out
        assert output.exists()

    def test_unknown_testcase_returns_error_code(self, capsys):
        assert main(["--testcase", "not-a-chip"]) == 2

    def test_missing_design_dir_returns_error_code(self, tmp_path, capsys):
        assert main(["--design-dir", str(tmp_path / "ghost")]) == 2

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_act_style_flags(self, capsys):
        code = main(["--testcase", "a15-monolithic", "--no-design-cfp", "--no-wafer-waste"])
        assert code == 0

    def test_sweep_prints_packaging_architecture(self, tmp_path, capsys):
        design_path = tmp_path / "design"
        design_path.mkdir()
        write_design_dir(design_path)
        assert main(["--design-dir", str(design_path), "--sweep-nodes"]) == 0
        out = capsys.readouterr().out
        assert "packaging" in out
        assert "rdl_fanout" in out


class TestCliErrorPaths:
    def test_output_write_failure_returns_error_code(self, tmp_path, capsys):
        # Pointing --output at an existing directory makes the write fail.
        code = main(["--testcase", "a15-monolithic", "--output", str(tmp_path)])
        assert code == 3
        assert "cannot write report" in capsys.readouterr().err

    def test_output_into_readonly_directory(self, tmp_path, capsys):
        target = tmp_path / "locked"
        target.mkdir()
        target.chmod(0o500)
        try:
            code = main(
                ["--testcase", "a15-monolithic", "--output", str(target / "report.json")]
            )
        finally:
            target.chmod(0o700)
        if code == 0:  # pragma: no cover - running as root bypasses permissions
            pytest.skip("filesystem permissions not enforced (running as root)")
        assert code == 3

    def test_unknown_testcase_lists_alternatives(self, capsys):
        assert main(["--testcase", "not-a-chip"]) == 2
        err = capsys.readouterr().err
        assert "unknown testcase" in err
        assert "ga102-3chiplet" in err

    def test_missing_node_list_skips_sweep_with_warning(self, tmp_path, capsys):
        design_path = tmp_path / "design"
        design_path.mkdir()
        write_design_dir(design_path, node_list=None)
        code = main(["--design-dir", str(design_path), "--sweep-nodes"])
        assert code == 0  # the base report still prints
        captured = capsys.readouterr()
        assert "no node_list.txt found" in captured.err
        assert "Ctot" in captured.out

    def test_broken_architecture_json_returns_error_code(self, tmp_path, capsys):
        design_path = tmp_path / "design"
        design_path.mkdir()
        write_design_dir(design_path)
        (design_path / "architecture.json").write_text('{"name": "x", "chiplets": []}')
        assert main(["--design-dir", str(design_path)]) == 2
        assert "error" in capsys.readouterr().err
