import json
import math
import subprocess
import sys

import pytest
import yaml

from levyint import cli, counterexamples, perpetual
from levyint.cli import main


def run_cli(args):
    return main(list(args))


def test_missing_seed_is_config_error(tmp_path):
    assert run_cli(["potential", "--model", "lattice_cpp",
                    "--out", str(tmp_path)]) == 2


def test_unknown_model_is_config_error(tmp_path):
    assert run_cli(["potential", "--model", "warp_drive", "--seed", "1",
                    "--out", str(tmp_path)]) == 2


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed\n  nonsense: {")
    out = tmp_path / "out"
    assert run_cli(["potential", "--config", str(bad), "--seed", "1",
                    "--out", str(out)]) == 2
    assert not out.exists()          # no artifacts on config failure


def test_rejected_model_exit_3(tmp_path):
    cfg = tmp_path / "neg.yaml"
    cfg.write_text(yaml.safe_dump({
        "seed": 1, "model": {"kind": "drift", "drift": -1.0}, "paths": 5}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--model", "lattice_cpp", "--seed", "5",
                    "--paths", "4", "--horizon", "10", "--out", str(out)]) == 0
    assert (out / "paths.csv").exists()
    payload = json.loads((out / "simulate_summary.json").read_text())
    assert payload["master_seed"] == 5
    assert "config_digest" in payload
    header = (out / "paths.csv").read_text().splitlines()
    assert header[0].startswith("# config_digest:")
    assert "path,time,value" in header


def test_potential_deterministic_across_threads(tmp_path):
    blobs = {}
    for th in ("1", "2", "8"):
        out = tmp_path / f"t{th}"
        assert run_cli(["potential", "--model", "lattice_cpp", "--seed", "9",
                        "--paths", "300", "--threads", th, "--out", str(out)]) == 0
        blobs[th] = ((out / "potential.csv").read_bytes(),
                     (out / "potential_report.json").read_bytes())
    assert blobs["1"] == blobs["2"]
    assert blobs["1"] == blobs["8"]


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["diagnose", "--model", "lattice_cpp", "--function",
                        "exp_decay", "--seed", "3", "--paths", "150",
                        "--horizon", "40", "--out", str(out)]) == 0
    assert (a / "ladder.csv").read_bytes() == (b / "ladder.csv").read_bytes()
    assert (a / "diagnosis.json").read_bytes() == (b / "diagnosis.json").read_bytes()


def test_ladder_csv_columns(tmp_path):
    out = tmp_path / "d"
    run_cli(["diagnose", "--model", "lattice_cpp", "--function", "exp_decay",
             "--seed", "3", "--paths", "100", "--horizon", "40", "--out", str(out)])
    lines = [l for l in (out / "ladder.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "horizon,median_I,mean_I,censored_fraction"
    assert len(lines) == 5           # 4 default rungs


def test_test_subcommand_comparison_table(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["test", "--model", "lattice_cpp", "--function", "exp_decay",
                    "--seed", "7", "--paths", "300", "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "comparison.csv").read_text().splitlines()
            if not l.startswith("#")]
    header, body = rows[0], rows[1:]
    assert header == ["test", "value", "verdict", "model_id", "f_id"]
    verdicts = {r[0]: r[2] for r in body}
    assert verdicts["dk"] == "finite" and verdicts["potential_integral"] == "finite"


def test_counterexample_lattice_exit_0(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["counterexample", "--mode", "lattice", "--seed", "11",
                    "--paths", "50", "--out", str(out)]) == 0
    payload = json.loads((out / "lattice_counterexample.json").read_text())
    assert payload["passed"] is True
    assert payload["dk_verdict"] == "infinite"


def test_scan_writes_lset(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["scan", "--model", "lattice_cpp", "--function", "exp_decay",
                    "--seed", "13", "--paths", "100", "--horizon", "20",
                    "--out", str(out)]) == 0
    lines = (out / "lset.csv").read_text().splitlines()
    assert any(l.startswith("x,g_hat,stderr,member") for l in lines)


@pytest.mark.parametrize("args", [
    ["scan", "--model", "lattice_cpp", "--function", "exp_decay", "--paths", "0"],
    ["counterexample", "--mode", "lattice", "--paths", "0"],
    ["counterexample", "--mode", "trap", "--paths", "-3"],
])
def test_nonpositive_path_budget_is_config_error(tmp_path, args):
    out = tmp_path / "o"
    assert run_cli([*args, "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_nonpositive_overshoot_budget_is_config_error(tmp_path):
    cfg = tmp_path / "trap.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 1, "mode": "trap", "overshoot_paths": 0}))
    out = tmp_path / "o"
    assert run_cli(["counterexample", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("paths", "abc"), ("horizon", "x"), ("paths", True), ("horizon", True),
    # a function spec: a YAML boolean where a number goes
    ("lo", {"kind": "indicator", "lo": True, "hi": 2}),
    ("hi", {"kind": "indicator", "lo": 0, "hi": False}),
    ("pieces", {"kind": "step", "pieces": [[1.0, 0.0, True]]}),
    ("starts", {"kind": "triangle_train", "starts": [1.0, True], "widths": [0.5, 0.5]}),
    ("widths", {"kind": "triangle_train", "starts": [1.0], "widths": [True]}),
])
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, key, value):
    """A value that is not a number, a YAML boolean among them, exits 2 by
    name; a function spec's values are read by ``diagnose``."""
    command, entry = (("diagnose", {"function": value}) if isinstance(value, dict)
                      else ("simulate", {key: value}))
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 1, "model": "lattice_cpp", **entry}))
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_kind_spec_equals_bare_name(tmp_path):
    """model: {kind: lattice_cpp} is the --model lattice_cpp preset."""
    cfg = tmp_path / "kind.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 5, "model": {"kind": "lattice_cpp"}}))
    bodies = []
    for name, extra in (("kind", ["--config", str(cfg)]),
                        ("bare", ["--model", "lattice_cpp", "--seed", "5"])):
        out = tmp_path / name
        assert run_cli(["simulate", *extra, "--paths", "4", "--horizon", "10",
                        "--out", str(out)]) == 0
        lines = (out / "paths.csv").read_text().splitlines()
        bodies.append(([l for l in lines if l.startswith("# model:")],
                       [l for l in lines if not l.startswith("#")]))
    assert bodies[0] == bodies[1]
    assert len(bodies[0][0]) == 1 and len(bodies[0][1]) > 1


def test_config_digest_excludes_threads_and_out(tmp_path):
    outs = []
    for i, th in enumerate(("1", "4")):
        out = tmp_path / f"o{i}"
        run_cli(["potential", "--model", "lattice_cpp", "--seed", "2",
                 "--paths", "100", "--threads", th, "--out", str(out)])
        outs.append(json.loads((out / "potential_report.json").read_text()))
    assert outs[0]["config_digest"] == outs[1]["config_digest"]


def test_console_entry_point(tmp_path):
    """The installed script resolves and reports argparse usage errors as 2."""
    proc = subprocess.run([sys.executable, "-m", "levyint.cli", "definitely-not-a-command"],
                          capture_output=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("args, cfg", [
    (["counterexample", "--mode", "trap", "--model", "bm"], {}),
    (["counterexample", "--mode", "lattice", "--model", "tstable"], {}),
    (["diagnose", "--model", "lattice_cpp", "--function", "exp_decay"], {"rungs": 2}),
    (["test", "--model", "lattice_cpp", "--function", "lattice_sine", "--paths", "20"],
     {"tests": ["erickson_maller"]}),
    (["scan", "--model", "lattice_cpp", "--function", "exp_decay"], {"scan": {"q": 1.5}}),
    (["simulate", "--model", "lattice_cpp", "--seed", "-1"], {}),
])
def test_library_refusal_is_config_error(tmp_path, capsys, args, cfg):
    """A config value the library refuses exits 2 with one line, no traceback."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, **cfg}))
    assert run_cli([*args, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_mgf_with_one_path_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 3, "tests": ["mgf"], "theta": 0.5, "horizon": 20}))
    assert run_cli(["test", "--model", "lattice_cpp", "--function", "exp_decay",
                    "--paths", "1", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "paths" in err


def test_non_finite_overshoot_level_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "trap.yaml"
    cfg.write_text("seed: 1\nmode: trap\nlevels: [2, .inf]\n")
    out = tmp_path / "o"
    assert run_cli(["counterexample", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_overshoot_level_is_config_error_before_any_draw(tmp_path, capsys,
                                                                  monkeypatch):
    def no_draws(*args):
        raise AssertionError("the overshoot sampler ran")
    monkeypatch.setattr(counterexamples, "_overshoot_chunk", no_draws)
    cfg = tmp_path / "trap.yaml"
    cfg.write_text("seed: 1\nmode: trap\nlevels: [2, 2, 30]\n")
    out = tmp_path / "o"
    assert run_cli(["counterexample", "--config", str(cfg), "--out", str(out)]) == 2
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, cfg", [
    (["scan"], {"scan": {"x": [0.0, math.nan]}}),
    (["scan"], {"scan": {"x": []}}),
    (["diagnose"], {"x": math.inf}),
    (["test"], {"tests": ["khasminskii_j"], "x_grid": [math.nan, 0.0]}),
], ids=["scan_nan", "scan_empty", "diagnose_inf", "test_J_nan"])
def test_start_point_that_is_not_finite_is_config_error(tmp_path, capsys, args, cfg):
    """Refused by the library with one line, and no output directory is made."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "paths": 10, **cfg}))
    out = tmp_path / "o"
    assert run_cli([*args, "--model", "lattice_cpp", "--function", "exp_decay",
                    "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, key", [
    ({"tests": ["potential_integral"], "x": math.nan}, "x"),
    ({"tests": ["khasminskii_j"], "x_grid": [math.nan, 0.0]}, "x_grid"),
    ({"tests": ["erickson_maller"], "lower_cutoff": math.nan}, "lower_cutoff"),
    ({"tests": ["dk", "potential_integral"], "dk_cutoff": math.nan}, "dk_cutoff"),
], ids=["x", "x_grid", "lower_cutoff", "dk_cutoff"])
def test_test_inputs_are_checked_before_the_potential_is_drawn(tmp_path, capsys, monkeypatch,
                                                              cfg, key):
    drawn = []
    monkeypatch.setattr(cli, "estimate_potential", lambda *a, **k: drawn.append(1))
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "paths": 10, **cfg}))
    out = tmp_path / "o"
    assert run_cli(["test", "--model", "lattice_cpp", "--function", "exp_decay",
                    "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "finite" in err
    assert drawn == [] and not out.exists()


@pytest.mark.parametrize("scan, key", [(5, "scan"), ([0.5], "scan"), ({"x": 5}, "x")])
def test_scan_spec_not_a_mapping_is_config_error(tmp_path, capsys, scan, key):
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 1, "scan": scan}))
    out = tmp_path / "o"
    assert run_cli(["scan", "--model", "lattice_cpp", "--function", "exp_decay",
                    "--config", str(cfg), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_integer_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "frac.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 1, "model": "lattice_cpp", "paths": 2.7}))
    out = tmp_path / "o"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'paths'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("paths", [3, "3", 3.0])
def test_whole_integer_value_converts(tmp_path, paths):
    cfg = tmp_path / "whole.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 1, "model": "lattice_cpp", "paths": paths,
                                   "horizon": 5}))
    out = tmp_path / "o"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "simulate_summary.json").read_text())["paths"] == 3


@pytest.mark.parametrize("args, cfg", [
    (["simulate", "--threads", "-3"], {}),
    (["potential"], {"threads": -2}),
    (["diagnose", "--function", "exp_decay", "--threads", "0"], {}),
])
def test_threads_below_one_is_config_error(tmp_path, capsys, args, cfg):
    """Every command refuses a worker count below 1 before it runs or writes."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "model": "lattice_cpp", "paths": 5, **cfg}))
    out = tmp_path / "o"
    assert run_cli([*args, "--config", str(path), "--out", str(out)]) == 2
    assert "'threads'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, key", [
    ({"bins": 0}, "grid.bins"),
    ({"bins": -4}, "grid.bins"),
    ({"lo": 5.0, "hi": 5.0}, "grid.hi"),
    ({"lo": 5.0, "hi": 1.0}, "grid.hi"),
    ({"edges": [3.0, 1.0]}, "grid.edges"),
    ({"edges": [1.0]}, "grid.edges"),
    # not finite: the top edge is also where subordinator paths may stop
    ({"lo": 0.0, "hi": float("inf"), "bins": 4}, "grid.hi"),
    ({"lo": float("-inf"), "hi": 1.0}, "grid.lo"),
    ({"lo": float("nan"), "hi": 1.0}, "grid.lo"),
    ({"edges": [0.0, float("nan"), 2.0]}, "grid.edges"),
    ({"edges": [0.0, 1.0, float("inf")]}, "grid.edges"),
])
@pytest.mark.parametrize("command", ["potential", "test"])
def test_empty_or_reversed_grid_is_config_error(tmp_path, capsys, grid, key, command):
    """A grid with no bins, running backwards or with an edge that is not
    finite is refused by name before any path is drawn, and nothing is
    written."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "model": {"kind": "drift"}, "paths": 5,
                                    "function": "exp_decay", "grid": grid}))
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


_NAN = math.nan


@pytest.mark.parametrize("args, cfg, key", [
    (["counterexample"], {"mode": "trap", "levels": 5}, "levels"),
    (["diagnose"], {"ladder": 5}, "ladder"),
    (["potential"], {"grid": {"edges": 5}}, "grid.edges"),
    (["test"], {"tests": ["potential_integral"], "region": {"intervals": 5}}, "intervals"),
    (["test"], {"tests": 5}, "tests"),
    (["test"], {"tests": ["khasminskii_j"], "x_grid": 5}, "x_grid"),
    (["simulate"], {"model": {"kind": "cpp", "atoms": 5}}, "atoms"),
    (["simulate"], {"model": {"kind": "cpp", "law": 5}}, "law"),
    (["diagnose"], {"function": {"kind": "step", "pieces": 5}}, "pieces"),
    (["diagnose"], {"function": {"kind": "triangle_train", "starts": 5, "widths": [1.0]}},
     "starts"),
    (["diagnose"], {"function": {"kind": "triangle_train", "starts": [1.0], "widths": 5}},
     "widths"),
    (["scan"], {"scan": {"a": _NAN}}, "a"),
    (["test"], {"tests": ["batty"], "a": _NAN}, "a"),
    (["test"], {"tests": ["mgf"], "theta": _NAN}, "theta"),
    (["test"], {"tests": ["mgf"], "theta": None}, "theta"),
    (["counterexample"], {"mode": "trap", "safety": _NAN, "overshoot_paths": 200}, "safety"),
    (["diagnose"], {"function": {"kind": "constant", "value": _NAN}}, "value"),
    (["test"], {"tests": ["potential_integral"],
                "region": {"intervals": [[0.0, 1.0]], "complement": "false"}}, "complement"),
], ids=["levels", "ladder", "edges", "intervals", "tests", "x_grid", "atoms", "law", "pieces",
        "starts", "widths", "scan_a", "batty_a", "theta", "theta_null", "safety", "value",
        "complement"])
def test_config_value_of_the_wrong_shape_is_config_error(tmp_path, capsys, args, cfg, key):
    """A scalar where a list belongs, a NaN or null where a number belongs and
    a string where a boolean belongs each exit 2 by name and write nothing:
    no traceback, no silent default and no verification run."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "paths": 10, "model": "lattice_cpp",
                                    "function": "exp_decay", **cfg}))
    out = tmp_path / "o"
    assert run_cli([*args, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err
    assert not out.exists()


def _no_draws(*args):
    raise AssertionError("the overshoot sampler ran")


def test_empty_level_list_is_config_error(tmp_path, capsys, monkeypatch):
    """``levels: []`` is refused by name before any overshoot path is drawn."""
    monkeypatch.setattr(counterexamples, "_overshoot_chunk", _no_draws)
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 1\nmode: trap\nlevels: []\novershoot_paths: 200\n")
    out = tmp_path / "o"
    assert run_cli(["counterexample", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: levels must be nonempty")
    assert not out.exists()


def test_ladder_rung_at_zero_is_config_error(tmp_path, capsys, monkeypatch):
    """A rung at 0 is refused by name before any path is drawn; it used to
    reach a least-squares fit that failed to converge."""
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(perpetual, "reduce_paths", no_draws)
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 1\npaths: 10\nfunction: {kind: constant, value: 1.0}\n"
                    "ladder: [0.0, 10, 20, 40]\n")
    out = tmp_path / "o"
    assert run_cli(["diagnose", "--model", "lattice_cpp", "--config", str(path),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ladder horizons must be finite")
    assert not out.exists()


def test_infinite_interval_end_is_read(tmp_path):
    """Interval ends are the numbers that may be ±inf."""
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 1\npaths: 10\ntests: [potential_integral]\n"
                    "region: {intervals: [[1.0, .inf]]}\n")
    out = tmp_path / "o"
    assert run_cli(["test", "--model", "lattice_cpp", "--function", "exp_decay",
                    "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "tests.json").read_text())["reports"]["potential_integral"]
