import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import assoclearn
from assoclearn import cli
from assoclearn.cli import main, resolve_train_config, build_parser
from assoclearn.data import Dataset
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


def test_geometry_that_cannot_be_measured_is_reported_not_fatal(
        tmp_path, monkeypatch):
    # A test set of one class has no interclass distance: the run still
    # completes and summary.json says why there is no geometry.
    plan, defaults, load = cli._DATASETS["blobs"]

    def one_class_test_set(cfg, data_rng):
        train, test = load(cfg, data_rng)
        return train, Dataset(test.X, np.zeros_like(test.y), test.n_classes)

    monkeypatch.setitem(cli._DATASETS, "blobs",
                        (plan, defaults, one_class_test_set))
    out = tmp_path / "run"
    assert run_cli(["train", "--dataset", "blobs", "--mode", "bp",
                    "--epochs", "1", "--seed", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["geometry"] == {"error": "need at least 2 classes"}


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


def test_unknown_plan_is_refused_before_any_data_is_read(tmp_path, capsys):
    # The data dir holds no IDX file, so reading the data would fail on
    # the missing files: the plan has to be checked first.
    code = run_cli(["train", "--dataset", "mnist", "--mode", "al-seq",
                    "--seed", "0", "--data-dir", str(tmp_path),
                    "--plan", "bogus", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown plan 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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



@pytest.mark.parametrize("mode", ["al-seq", "al-pipe"])
def test_an_interrupt_during_training_propagates(monkeypatch, tmp_path,
                                                 capsys, mode):
    # Ctrl-C lands on the main thread, which runs component 1 in both AL
    # modes: the interrupt leaves main as it is, never as exit 3.
    import assoclearn.train as train
    update, calls = train.component_update, []

    def interrupted(comp, s, t, lr):
        calls.append(comp.index)
        if calls.count(1) == 2:
            raise KeyboardInterrupt
        return update(comp, s, t, lr)

    monkeypatch.setattr(train, "component_update", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["train", "--dataset", "blobs", "--mode", mode,
                 "--epochs", "1", "--seed", "5",
                 "--out", str(tmp_path / "run")])
    assert calls.count(1) == 2
    assert "numeric failure" not in capsys.readouterr().err

def test_rerun_same_seed_byte_identical_csv(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["train", "--dataset", "blobs", "--mode", "al-seq",
                        "--epochs", "2", "--seed", "7",
                        "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_al_seq_and_al_pipe_write_the_same_run(tmp_path):
    # The pipeline trains the same bits as the inline loop: the checkpoints
    # are byte-identical and metrics.csv differs only in the mode column.
    runs = {}
    for mode in ("al-seq", "al-pipe"):
        out = tmp_path / mode
        assert run_cli(["train", "--dataset", "blobs", "--mode", mode,
                        "--epochs", "3", "--seed", "12",
                        "--out", str(out)]) == 0
        runs[mode] = out
    assert ((runs["al-seq"] / "checkpoint.bin").read_bytes()
            == (runs["al-pipe"] / "checkpoint.bin").read_bytes())
    rows = {mode: [line.split(",") for line in
                   (out / "metrics.csv").read_text().splitlines()]
            for mode, out in runs.items()}
    col = rows["al-seq"][0].index("mode")
    assert len(rows["al-seq"]) == len(rows["al-pipe"]) == 4
    for seq, pipe in zip(rows["al-seq"][1:], rows["al-pipe"][1:]):
        assert (seq[col], pipe[col]) == ("al-seq", "al-pipe")
        assert seq[:col] + seq[col + 1:] == pipe[:col] + pipe[col + 1:]
    assert rows["al-seq"][0] == rows["al-pipe"][0]


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
    assert summary["throughput_epochs"][-1]["time_units"] == 4 + 2 - 1
    assert len(summary["throughput_epochs"][-1]["busy_fraction"]) == 2
    assert "throughput" not in summary


def test_summary_keeps_every_epoch_report_and_blas_setup(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["train", "--dataset", "blobs", "--mode", "al-pipe",
                    "--epochs", "3", "--seed", "4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    epochs = summary["throughput_epochs"]
    assert len(epochs) == 3
    assert epochs[-1]["completed"] == 4
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


def test_written_config_json_reruns_the_same_run(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(["train", "--dataset", "blobs", "--mode", "al-seq",
                    "--seed", "9", "--epochs", "3", "--out", str(first)]) == 0
    assert run_cli(["train", "--config", str(first / "config.json"),
                    "--out", str(second)]) == 0
    assert ((first / "metrics.csv").read_bytes()
            == (second / "metrics.csv").read_bytes())


def test_config_missing_file_exit_2(tmp_path, capsys):
    assert run_cli(["train", "--config", str(tmp_path / "none.json")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("bad,message", [
    ({"lr": "fast"}, "lr (--lr) must be float, got 'fast'"),
    ({"lr_factor": "half"}, "lr_factor (--lr-factor) must be float"),
    ({"lr_drops": [80, "x"]}, "lr_drops (--lr-drops) must be list[int]"),
    ({"epochs": 1.7}, "epochs (--epochs) must be int, got 1.7"),
    ({"out": 5}, "out (--out) must be str, got 5"),
    ({"dataset": ["xor"]}, "dataset (--dataset) must be str, got ['xor']"),
    ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
    ({"mode": "bp", "epochs": 2, "lr_factor": -1.0, "lr_drops": [1]},
     "lr_factor must be finite and positive, got -1.0"),
    ({"head": "hinge"},
     "head must be one of ('softmax', 'mse'), got 'hinge'"),
    # A JSON true or false is not a number.
    ({"seed": True, "epochs": True, "lr": True},
     "seed (--seed) must be int, got True"),
    ({"epochs": True}, "epochs (--epochs) must be int, got True"),
    ({"batch_size": False}, "batch_size (--batch-size) must be int, got False"),
    ({"lr": True}, "lr (--lr) must be float, got True"),
    ({"lr_factor": False}, "lr_factor (--lr-factor) must be float, got False"),
    ({"lr_drops": [80, True]}, "lr_drops (--lr-drops) must be list[int]"),
])
def test_config_value_of_wrong_type_exit_2_writes_nothing(
        tmp_path, monkeypatch, capsys, bad, message):
    # Relative to the working directory, so a run directory of any name
    # would show up next to the config file.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(
        {"dataset": "xor", "mode": "al-seq", "seed": 0, "epochs": 1,
         "out": "run", **bad}))
    assert run_cli(["train", "--config", "cfg.json"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("config,out,message", [
    ("[1, 2]", "run", "cfg.json: top level must be a JSON object, got list"),
    ('"abc"', "run", "cfg.json: top level must be a JSON object, got str"),
    (None, "cfg.json", "cannot make the --out directory"),
], ids=["config-list", "config-string", "out-is-a-file"])
def test_unusable_config_or_out_exit_2_writes_nothing(
        tmp_path, monkeypatch, capsys, config, out, message):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(config or "{}")
    argv = ["train", "--out", out, "--epochs", "1"]
    if config is None:
        argv += ["--dataset", "xor", "--mode", "al-seq", "--seed", "0"]
    else:
        argv += ["--config", "cfg.json"]
    assert run_cli(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert Path("cfg.json").read_text() == (config or "{}")


@pytest.mark.parametrize("make", [
    lambda p: p.mkdir(),
    lambda p: p.write_bytes(b'\xff\xfe{"dataset": "xor"}'),
], ids=["directory", "not-utf8"])
def test_unreadable_config_exit_2_writes_nothing(
        tmp_path, monkeypatch, capsys, make):
    monkeypatch.chdir(tmp_path)
    make(Path("cfg.json"))
    assert run_cli(["train", "--config", "cfg.json", "--dataset", "xor",
                    "--mode", "al-seq", "--seed", "0", "--out", "run"]) == 2
    assert "error: cfg.json: not a UTF-8 JSON file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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


@pytest.mark.parametrize("argv,message", [
    (["train", "--dataset", "xor", "--mode", "al-seq", "--seed", "-1"],
     "seed must be an int >= 0, got -1"),
    (["gradcheck", "--seed", "-1"], "--seed must be an int >= 0, got -1"),
    (["gradcheck", "--batch", "0"], "--batch must be an int >= 1, got 0"),
    (["bench-pipeline", "--task-cost-ms", "-1"],
     "task_cost_ms must be finite and >= 0, got -1.0"),
    (["bench-pipeline", "--task-cost-ms", "nan"],
     "task_cost_ms must be finite and >= 0, got nan"),
])
def test_out_of_range_number_exit_2_before_any_work(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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
    # one row per component and flow, plus the cross and bp rows; a
    # "within" row would repeat the larger flow row of each component
    assert "component 1 flow1 (f,b)" in out
    assert "component 2 flow2 (g,h)" in out
    assert "cross-component" in out
    assert "bp full stack" in out
    assert "within" not in out


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


def _src_modules():
    """(path, ast) of every module of the package."""
    for path in sorted(Path(assoclearn.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text())


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in _src_modules():
        if path.name == "__init__.py":    # imports there are the exports
            continue
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


def test_no_function_imports_from_the_package():
    # Package imports sit at the top of a module, where an import cycle
    # fails at once rather than on a function's first call.
    local = set()
    for path, tree in _src_modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.update(f"{path.name}:{n.lineno}" for n in ast.walk(fn)
                             if isinstance(n, ast.ImportFrom) and n.level)
    assert sorted(local) == []


def _top_level_names(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _package_source(node) -> str | None:
    """The package module an ImportFrom reads from ("__init__" for the
    package itself), or None when it reads from elsewhere."""
    if node.level:
        return node.module or "__init__"
    if node.module == "assoclearn":
        return "__init__"
    if (node.module or "").startswith("assoclearn."):
        return node.module.split(".")[1]
    return None


def _modules_bound(tree, stems) -> dict:
    """Names a file binds by import to the package ("__init__") or to one
    of its modules (the module's stem)."""
    bound = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                head, *rest = a.name.split(".")
                if head == "assoclearn":
                    bound[a.asname or head] = (
                        rest[0] if a.asname and rest else "__init__")
        elif isinstance(n, ast.ImportFrom) and \
                _package_source(n) == "__init__":
            bound.update((a.asname or a.name, a.name) for a in n.names
                         if a.name in stems)
    return bound


def _references(tree, bound) -> tuple[set, set]:
    """(bare names, (module, name) pairs) that tree refers to. X.name is
    a (module, name) pair when X is bound to a module of the package, or
    to the package; a name imported from one of them is one too. Any
    other attribute, such as json.load, refers to nothing here."""
    bare = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    pairs = {(bound[n.value.id], n.attr) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id in bound}
    pairs |= {(_package_source(n), a.name) for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and _package_source(n)
              for a in n.names}
    return bare, pairs


def test_every_public_name_is_reached_by_the_program():
    # The program is src itself, the benchmark under perfbench/ and the
    # hash tool under tools/; a public name only tests reach is dead
    # code. A name counts as reached through its defining module, or a
    # module or the package that imports it from there. perfbench names
    # the sites it wraps as strings (setattr), so an identifier-shaped
    # string there is a reference too.
    modules = dict(_src_modules())
    stems = {path.stem for path in modules}
    defined, imports, bare, pairs = {}, {}, set(), set()
    for path, tree in modules.items():
        imports[path.stem] = {
            a.asname or a.name: _package_source(n) for n in tree.body
            if isinstance(n, ast.ImportFrom) and _package_source(n)
            for a in n.names}
        if path.name == "__init__.py":    # re-exports are not uses
            continue
        bound = _modules_bound(tree, stems)
        for stmt in tree.body:
            names = _top_level_names(stmt)
            defined.update((n, path.stem) for n in names
                           if not n.startswith("_"))
            b, q = _references(stmt, bound)
            bare |= b - names
            pairs |= q
    root = Path(__file__).resolve().parents[1]
    for path in sorted(root.glob("perfbench/*.py")) + sorted(
            root.glob("tools/*.py")):
        tree = ast.parse(path.read_text())
        b, q = _references(tree, _modules_bound(tree, stems))
        bare |= b | {
            n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and isinstance(n.value, str) and n.value.isidentifier()}
        pairs |= q

    def defining(module, name):
        # follow re-imports to the module that defines name
        while name in imports.get(module, {}):
            module = imports[module][name]
        return module

    reached = bare | {n for m, n in pairs if defining(m, n) == defined.get(n)}
    assert sorted(f"{defined[n]}.{n}" for n in set(defined) - reached) == []


def test_only_flow_differentiates_in_al_core():
    # A local flow is defined once, by al_core._flow: training and the
    # gradient check reach backward passes only through it.
    tree = next(t for p, t in _src_modules() if p.name == "al_core.py")

    def grad_calls(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and (getattr(n.func, "attr", None) == "backward"
                     or getattr(n.func, "id", None) == "mse")]

    inside = [line for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and fn.name == "_flow" for line in grad_calls(fn)]
    assert sorted(grad_calls(tree)) == sorted(inside)
    assert len(inside) == 3     # mse, dec.backward, enc.backward


def test_gradients_reach_a_step_at_three_calls():
    # backward returns the gradients and a step takes them, at one call
    # per optimizer: flow 2's and flow 1's in component_update and the
    # stack's in BPNetwork.train_batch.
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "attr", None) == "step"):
                sites.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}" if named else owner)

    for path, tree in _src_modules():
        visit(tree, path.stem)
    assert sorted(sites) == ["al_core.component_update"] * 2 + [
        "bp.BPNetwork.train_batch"]


def test_a_batch_leaves_the_pipeline_at_one_place():
    # run_pipeline hands a batch's in-flight token back at one line, for a
    # batch the last stage finished, one that failed and one dropped.
    tree = next(t for p, t in _src_modules() if p.name == "train.py")

    def releases(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "attr", None) == "release"]

    inside = [line for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and fn.name == "run_pipeline" for line in releases(fn)]
    assert len(releases(tree)) == 1
    assert releases(tree) == inside


def _call_sites(name) -> set:
    """(module, top-level def) of every call of name in src; a call made
    outside any top-level def or class is listed under None."""
    sites = set()
    for path, tree in _src_modules():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            sites |= {(path.stem, owner) for n in ast.walk(stmt)
                      if isinstance(n, ast.Call) and name in (
                          getattr(n.func, "id", None),
                          getattr(n.func, "attr", None))}
    return sites


def test_every_mode_trains_through_one_epoch_loop():
    # train.train_epoch alone feeds batches to training stages, and the
    # stages run only through the inline loop or the pipeline, each
    # called from train_epoch and from the synthetic bench.
    assert _call_sites("_feed") == {("train", "train_epoch")}
    assert _call_sites("BatchIterator") == {("train", "_feed")}
    for runner in ("_run_inline", "run_pipeline"):
        assert _call_sites(runner) == {("train", "train_epoch"),
                                       ("train", "bench_pipeline")}
    bp_tree = next(t for p, t in _src_modules() if p.name == "bp.py")
    assert "BatchIterator" not in {a.asname or a.name
                                   for n in ast.walk(bp_tree)
                                   if isinstance(n, ast.ImportFrom)
                                   for a in n.names}
    removed = {"train_epoch_sequential", "train_epoch_pipelined",
               "bp_train_epoch", "_al_record"}
    left = [f"{path.name}:{n.lineno}" for path, tree in _src_modules()
            for n in ast.walk(tree)
            if removed & {getattr(n, "name", None), getattr(n, "id", None),
                          getattr(n, "attr", None)}]
    assert left == []


def test_only_run_pipeline_borrows_process_wide_resources():
    # The function that starts and joins the worker threads pins OpenBLAS
    # and releases the heap around them; the epoch loop holds no policy.
    for name in ("pinned_threads", "_release_free_heap"):
        assert _call_sites(name) == {("train", "run_pipeline")}, name
    tree = next(t for p, t in _src_modules() if p.name == "train.py")
    epoch = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and fn.name == "train_epoch")
    assert not [n for n in ast.walk(epoch) if isinstance(n, ast.With)]
    left = [f"{path.name}:{n.lineno}" for path, tree in _src_modules()
            for n in ast.walk(tree) if "_heap_released" in (
                getattr(n, "name", None), getattr(n, "id", None),
                getattr(n, "attr", None))]
    assert left == []


def test_only_linalg_and_data_decide_a_dtype():
    # A tensor gets its dtype where it is born: linalg.DTYPE, read by the
    # initializer and by data, where inputs enter. Every other module
    # follows its operands, and a layer is given tensors only through
    # nn.set_params, never its constructor.
    dtype_names = {"DTYPE", "float64", "float32"}
    refs = []
    for path, tree in _src_modules():
        for n in ast.walk(tree):
            name = (n.id if isinstance(n, ast.Name) else
                    n.attr if isinstance(n, ast.Attribute) else
                    n.name if isinstance(n, ast.alias) else
                    n.value if isinstance(n, ast.Constant) else None)
            if name in dtype_names:
                refs.append((path.stem, name))
    follow = {"nn", "al_core", "bp", "train", "metrics"}
    assert [r for r in refs if r[0] in follow] == []
    assert {m for m, name in refs if name == "DTYPE"} == {"linalg", "data"}
    nn_tree = next(t for p, t in _src_modules() if p.name == "nn.py")
    init = next(f for c in nn_tree.body if isinstance(c, ast.ClassDef)
                and c.name == "DenseLayer" for f in c.body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    args = init.args.args + init.args.kwonlyargs
    assert [a.arg for a in args] == ["self", "fan_in", "fan_out",
                                     "activation", "rng"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "assoclearn", "bench-pipeline",
         "--n-batches", "3", "--components", "2", "--task-cost-ms", "0.2",
         "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pipelined_units"] == 4
