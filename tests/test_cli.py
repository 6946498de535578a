import json
import subprocess
import sys

import pytest

from assoclearn.cli import main, resolve_train_config, build_parser
from assoclearn.metrics import csv_header


def run_cli(argv):
    return main(argv)


def parse_train(argv):
    return resolve_train_config(build_parser().parse_args(["train"] + argv))


# train ----------------------------------------------------------------

def test_xor_example_reaches_full_accuracy(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["train", "--dataset", "xor", "--mode", "al-seq",
                    "--epochs", "2000", "--seed", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["train_accuracy"] == 1.0
    assert "final train accuracy: 1.0" in capsys.readouterr().out


def test_all_artifacts_present(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["train", "--dataset", "blobs", "--mode", "al-seq",
                    "--epochs", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    for name in ("config.json", "metrics.csv", "summary.json",
                 "checkpoint.bin"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checkpoint"] == str(out / "checkpoint.bin")
    assert set(summary["geometry"]) == {"raw", "al"}


def test_missing_data_dir_exit_2(monkeypatch, capsys):
    monkeypatch.delenv("AL_DATA_DIR", raising=False)
    code = run_cli(["train", "--dataset", "mnist", "--mode", "al-seq",
                    "--seed", "0"])
    assert code == 2
    assert "data-dir" in capsys.readouterr().err


def test_nonexistent_data_dir_exit_2(tmp_path, capsys):
    code = run_cli(["train", "--dataset", "mnist", "--mode", "al-seq",
                    "--seed", "0", "--data-dir", str(tmp_path / "void")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_seed_required_exit_2(capsys):
    code = run_cli(["train", "--dataset", "xor", "--mode", "al-seq"])
    assert code == 2
    assert "seed is required" in capsys.readouterr().err


def test_plan_dataset_mismatch_exit_2(tmp_path, capsys):
    code = run_cli(["train", "--dataset", "xor", "--mode", "al-seq",
                    "--seed", "0", "--plan", "blobs",
                    "--out", str(tmp_path / "x")])
    assert code == 2
    assert "expects" in capsys.readouterr().err


def test_numeric_failure_maps_to_exit_3(monkeypatch, capsys):
    import assoclearn.cli as cli
    from assoclearn.errors import NumericError

    def explode(cfg):
        raise NumericError("epoch 1, batch 2: non-finite values")

    monkeypatch.setattr(cli, "cmd_train", explode)
    code = run_cli(["train", "--dataset", "xor", "--mode", "al-seq",
                    "--seed", "0"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_rerun_same_seed_byte_identical_csv(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["train", "--dataset", "blobs", "--mode", "al-seq",
                        "--epochs", "2", "--seed", "7",
                        "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_csv_schema_stable_across_modes(tmp_path):
    header_rows = {}
    for mode in ("al-seq", "bp"):
        out = tmp_path / mode
        assert run_cli(["train", "--dataset", "blobs", "--mode", mode,
                        "--epochs", "1", "--seed", "2",
                        "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        header_rows[mode] = lines[0]
        if mode == "bp":
            # baseline rows leave the per-component cells empty
            assert lines[1].endswith(",,,,")
    assert header_rows["al-seq"] == header_rows["bp"]
    assert header_rows["bp"] == ",".join(csv_header(2))


def test_pipelined_mode_summary_has_throughput(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["train", "--dataset", "blobs", "--mode", "al-pipe",
                    "--epochs", "1", "--seed", "4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["throughput"]["time_units"] == 4 + 2 - 1
    assert len(summary["throughput"]["busy_fraction"]) == 2


def test_summary_keeps_every_epoch_report_and_blas_setup(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["train", "--dataset", "blobs", "--mode", "al-pipe",
                    "--epochs", "3", "--seed", "4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    epochs = summary["throughput_epochs"]
    assert len(epochs) == 3
    assert summary["throughput"] == epochs[-1]
    setup = summary["blas"]
    assert set(setup) == {"openblas", "default_threads", "pipeline_threads"}
    if setup["openblas"]:
        assert setup["default_threads"] >= 1
        assert setup["pipeline_threads"] == 1
    else:
        assert setup["default_threads"] is None
        assert setup["pipeline_threads"] is None


# config resolution ----------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"dataset": "blobs", "mode": "al-seq", "seed": 5, "epochs": 1}))
    cfg = parse_train(["--config", str(cfg_path), "--epochs", "2"])
    assert cfg.epochs == 2
    assert cfg.seed == 5
    assert cfg.dataset == "blobs"


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"dataset": "xor", "mode": "al-seq", "seed": 0, "warmup": 5}))
    assert run_cli(["train", "--config", str(cfg_path)]) == 2
    assert "unknown config keys: warmup" in capsys.readouterr().err


def test_config_missing_file_exit_2(tmp_path, capsys):
    assert run_cli(["train", "--config", str(tmp_path / "none.json")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("bad,message", [
    ({"lr": "fast"}, "lr (--lr) must be float, got 'fast'"),
    ({"lr_factor": "half"}, "lr_factor (--lr-factor) must be float"),
    ({"lr_drops": [80, "x"]}, "lr_drops (--lr-drops) must be list[int]"),
    ({"epochs": 1.7}, "epochs (--epochs) must be int, got 1.7"),
])
def test_config_value_of_wrong_type_exit_2_writes_nothing(tmp_path, capsys,
                                                          bad, message):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "run"
    cfg_path.write_text(json.dumps({"dataset": "xor", "mode": "al-seq",
                                    "seed": 0, "epochs": 1,
                                    "out": str(out), **bad}))
    assert run_cli(["train", "--config", str(cfg_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_lr_drops_as_list_or_flag_string(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    for drops in ([80, 120], "80,120"):
        cfg_path.write_text(json.dumps({"dataset": "xor", "mode": "al-seq",
                                        "seed": 0, "lr_drops": drops,
                                        "epochs": 2.0}))
        cfg = parse_train(["--config", str(cfg_path)])
        assert cfg.lr_drops == [80, 120]
        assert cfg.epochs == 2 and isinstance(cfg.epochs, int)


def test_dataset_defaults_applied():
    cfg = parse_train(["--dataset", "xor", "--mode", "al-seq",
                       "--seed", "0"])
    assert cfg.lr == 1e-3 and cfg.batch_size == 4 and cfg.lr_drops == []
    cfg = parse_train(["--dataset", "blobs", "--mode", "al-seq",
                       "--seed", "0"])
    assert cfg.lr == 1e-3 and cfg.batch_size == 128 and cfg.lr_drops == []


def test_dataset_defaults_yield_to_flags():
    cfg = parse_train(["--dataset", "xor", "--mode", "al-seq",
                       "--seed", "0", "--lr", "1e-5",
                       "--lr-drops", "10,20"])
    assert cfg.lr == 1e-5
    assert cfg.lr_drops == [10, 20]


def test_default_plan_and_out_derived():
    cfg = parse_train(["--dataset", "blobs", "--mode", "al-pipe",
                       "--seed", "9"])
    assert cfg.plan == "blobs"
    assert cfg.out == "runs/blobs-al-pipe-seed9"


def test_bad_lr_drops_exit_2(capsys):
    assert run_cli(["train", "--dataset", "xor", "--mode", "al-seq",
                    "--seed", "0", "--lr-drops", "80,x"]) == 2
    assert "lr-drops" in capsys.readouterr().err


# bench ----------------------------------------------------------------

def test_bench_json_schedule_numbers(capsys):
    code = run_cli(["bench-pipeline", "--n-batches", "5",
                    "--components", "3", "--task-cost-ms", "0.2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sequential_tasks"] == 15
    assert payload["pipelined_units"] == 7
    assert payload["speedup"] > 0


def test_bench_plain_output(capsys):
    code = run_cli(["bench-pipeline", "--n-batches", "4",
                    "--components", "2", "--task-cost-ms", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sequential tasks: 8" in out
    assert "pipelined units: 5" in out
    assert "speedup" in out


# gradcheck ------------------------------------------------------------

def test_gradcheck_default_plan_passes(capsys):
    assert run_cli(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradient checks passed" in out
    # one row per component and flow, plus the cross/within and bp rows
    assert "component 1 flow1 (f,b)" in out
    assert "component 2 flow2 (g,h)" in out
    assert "cross-component" in out
    assert "bp full stack" in out


def test_gradcheck_single_component_has_no_cross_terms(capsys):
    assert run_cli(["gradcheck", "--plan", "xor"]) == 0
    out = capsys.readouterr().out
    assert "cross-component |fd| (abs): 0.000e+00" in out
    assert "component 2" not in out


def test_gradcheck_inject_fault_exit_4(capsys):
    assert run_cli(["gradcheck", "--inject-fault"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gradient check FAILED" in out


def test_every_public_name_resolves():
    import assoclearn

    for name in assoclearn.__all__:
        assert hasattr(assoclearn, name), name


def test_no_module_imports_a_name_it_never_uses():
    import ast
    from pathlib import Path

    import assoclearn

    unused = []
    for path in sorted(Path(assoclearn.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":    # imports there are the exports
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{imported[name]}: {name}"
                   for name in sorted(set(imported) - used)]
    assert unused == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "assoclearn", "bench-pipeline",
         "--n-batches", "3", "--components", "2", "--task-cost-ms", "0.2",
         "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pipelined_units"] == 4
