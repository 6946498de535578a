"""The model contract both networks share, and the one path src takes
through it.

``ALNetwork`` and ``BPNetwork`` both have ``kind``, ``n_classes``,
``predict``, ``features``, ``named_layers`` and ``plan_dict``; training,
evaluation, geometry and checkpoints reach either model through these
alone, so no module in src picks a twin by the model's type.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import assoclearn
from assoclearn.al_core import build_network, get_plan, inference_layers
from assoclearn.bp import build_bp_network, match_effective_params
from assoclearn.checkpoint import load, save
from assoclearn.linalg import make_rng, row_argmax
from conftest import params

SRC = Path(assoclearn.__file__).resolve().parent

# Names kept for the benchmark, which imports and traces them: each is
# one assignment in its module, and src never calls one.
ALIASES = {
    "metrics": {"infer", "evaluate_al", "evaluate_bp"},
    "train": {"evaluate_al", "evaluate_bp"},
    "checkpoint": {"save_al", "save_bp"},
}


def _model(kind: str):
    plan = get_plan("blobs")
    if kind == "al":
        return build_network(plan, make_rng(50))
    return build_bp_network(match_effective_params(plan), make_rng(50),
                            head="mse")


def _reference_predict(model):
    """The dense stack each model predicts through, run layer by layer."""
    layers = (inference_layers(model) if model.kind == "al"
              else model.stack.layers)

    def predict(x):
        for layer in layers:
            x = layer.forward(x, train=False)
        return x, row_argmax(x)
    return predict


@pytest.mark.parametrize("kind", ["al", "bp"])
def test_model_contract(tmp_path, kind):
    model = _model(kind)
    assert model.kind == kind
    assert model.n_classes == 4 and model.input_dim == 8
    x = make_rng(51).uniform(size=(9, 8))
    scores, labels = model.predict(x)
    ref_scores, ref_labels = _reference_predict(model)(x)
    assert scores.tobytes() == ref_scores.tobytes()
    assert np.array_equal(labels, ref_labels)
    assert labels.shape == (9,) and scores.shape == (9, model.n_classes)

    path = tmp_path / "model.bin"
    save(path, model, seed=50, epoch=1)
    restored, header = load(path)
    assert header["tag"] == kind
    assert header["plan"] == model.plan_dict() == restored.plan_dict()
    assert type(restored) is type(model)
    assert [(n, a.tobytes()) for n, a in params(restored)] == \
        [(n, a.tobytes()) for n, a in params(model)]
    assert restored.predict(x)[0].tobytes() == scores.tobytes()


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_src_has_one_path_for_both_models():
    problems = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                classes = {n.id for n in ast.walk(node.args[1])
                           if isinstance(n, ast.Name)}
                if classes & {"ALNetwork", "BPNetwork"}:
                    problems.append(f"{module}:{node.lineno} isinstance")
            names = {getattr(node, a, None) for a in ("id", "attr", "arg")}
            if "is_al" in names:
                problems.append(f"{module}:{node.lineno} is_al")
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                if called in set().union(*ALIASES.values()):
                    problems.append(f"{module}:{node.lineno} calls {called}")
    assert problems == []


def test_aliases_are_only_defined():
    defined = {}
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                if not isinstance(node.value, (ast.Name, ast.Attribute)):
                    continue
            else:
                continue
            for name in names & set().union(*ALIASES.values()):
                assert isinstance(node, ast.Assign), f"{module}.{name}"
                defined.setdefault(module, set()).add(name)
    assert defined == ALIASES
