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
