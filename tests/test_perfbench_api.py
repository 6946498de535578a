"""The benchmark harness under perfbench/ drives the package from
outside: it imports names, reads ``al.<name>`` attributes and wraps
functions and methods in its traced run. Those uses are checked here, so
a refactor that drops or renames one of them fails this suite instead
of only a traced benchmark run. perfbench/ is put on sys.path, as its
own scripts do; nothing there is edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

import assoclearn
from assoclearn.al_core import build_network, get_plan
from assoclearn.bp import build_bp_network, match_effective_params
from assoclearn.data import one_hot, synth_blobs
from assoclearn.linalg import make_rng
from assoclearn.train import fit, train_epoch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield {name: importlib.import_module(name)
               for name in ("workloads", "measure", "tracing")}


def test_every_traced_site_exists(perfbench_modules):
    sites = perfbench_modules["tracing"]._sites()
    assert sites
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in sites
               if not (attr in owner.__dict__ if isinstance(owner, type)
                       else hasattr(owner, attr))]
    assert missing == []


@pytest.mark.parametrize("module", ["workloads", "measure"])
def test_every_package_attribute_perfbench_reads_exists(module):
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "al"}
    assert sorted(a for a in used if not hasattr(assoclearn, a)) == []


@pytest.mark.parametrize("mode", ["al-seq", "al-pipe", "bp"])
def test_fit_calls_the_sites_perfbench_traces_per_batch(perfbench_modules,
                                                        mode):
    # perfbench reads its per-component and bp figures from the wrappers
    # it installs on train.component_update and BPNetwork.train_batch, so
    # every mode must train through those two names: C component updates
    # per batch in al-seq and al-pipe, one train_batch per batch in bp.
    # Its nn.adam_step wraps BlockAdam.step, one call per optimizer: two
    # per component (one per local flow), or bp's one.
    tracing = perfbench_modules["tracing"]
    plan = get_plan("blobs")
    ds = synth_blobs(40, plan.input_dim, plan.target_dim, separation=6.0,
                     rng=make_rng(1))
    model = (build_bp_network(match_effective_params(plan), make_rng(2))
             if mode == "bp" else build_network(plan, make_rng(2)))
    rec = tracing.SpanRecorder()
    installed = tracing.install(rec)
    try:
        fit(model, ds, ds, mode=mode, epochs=2, batch_size=8,
            rng=make_rng(3), seed=2, lr=1e-3, lr_drops=())
    finally:
        tracing.uninstall(installed)
    calls = {name: row["calls"]
             for name, row in tracing.summarize(rec.spans()).items()}
    batches, n_comps = 2 * 5, len(plan.components)
    expected = ({"bp.train_batch": batches, "nn.adam_step": batches}
                if mode == "bp" else
                {f"al_core.component_update.c{k}": batches
                 for k in range(1, n_comps + 1)}
                | {"nn.adam_step": 2 * n_comps * batches})
    traced = {name: n for name, n in calls.items()
              if name.startswith(("bp.train_batch", "nn.adam_step",
                                  "al_core.component_update"))}
    assert traced == expected
    assert calls.get("train.run_pipeline", 0) == (2 if mode == "al-pipe"
                                                  else 0)


@pytest.mark.parametrize("mode", ["al-seq", "bp"])
def test_traced_matmul_sees_every_product_of_a_batch(perfbench_modules,
                                                     mode):
    # perfbench counts products and their flops by wrapping nn.matmul, so
    # a training batch must make every product through it: one per layer
    # forward, one per W gradient and one per input gradient, but for the
    # block inputs an update discards (f's and g's per component, the
    # stack's in bp).
    tracing = perfbench_modules["tracing"]
    plan = get_plan("blobs")
    if mode == "bp":
        model = build_bp_network(match_effective_params(plan), make_rng(2))
        blocks, discarded = [model.stack], 1
    else:
        model = build_network(plan, make_rng(2))
        blocks = [b for c in model.components for b in c.blocks().values()]
        discarded = 2 * len(model.components)
    layers = sum(len(b.layers) for b in blocks)
    ds = synth_blobs(8, plan.input_dim, plan.target_dim, separation=6.0,
                     rng=make_rng(1))
    rec = tracing.SpanRecorder()
    installed = tracing.install(rec)
    try:
        train_epoch(model, ds.X, one_hot(ds.y, ds.n_classes), 8,
                    make_rng(3), 0, mode)
    finally:
        tracing.uninstall(installed)
    calls = tracing.summarize(rec.spans())["linalg.matmul"]["calls"]
    assert calls == 3 * layers - discarded
