"""The package names that perfbench/ reads.

perfbench/spans.py times the layers by replacing attributes it looks up in
an owner's own namespace (`owner.__dict__[attr]`), and the other perfbench
scripts import names from the package.  A refactor that moves or renames
one of them breaks the benchmark; these tests catch it without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_in_its_owners_namespace():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _spans().Tracer()._targets()
        if attr not in vars(owner)
    ]
    assert missing == []


def test_pool_hooks_exist():
    from leray_alpha import integrator

    assert callable(vars(integrator)["_pool_worker"])
    assert callable(vars(integrator)["_pool_init"])


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) of every `from leray_alpha... import name` in perfbench/."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("leray_alpha"):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", [pytest.param(*pair, id=".".join(pair)) for pair in _package_imports()])
def test_imported_names_exist(module, name):
    # `from leray_alpha import cli` may name a submodule not imported yet
    assert hasattr(importlib.import_module(module), name) or importlib.util.find_spec(f"{module}.{name}")
