"""The benchmark harness under perfbench/ reaches into the package by name.

The harness patches functions by (module, attribute) and loads a fixed list
of modules, so renaming or deleting one of them breaks only the traced
benchmark, which the default test run never collects. These checks read
the harness's source without importing its runner and fail at once instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from entconv import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_package_names() -> tuple:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    func = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "load_package"
    )
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "names" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("load_package names no modules")


def test_every_traced_name_resolves():
    traced = _load_tracing().TRACED
    assert traced
    for module_name, attr, _ in traced:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name}.{attr} is traced but missing"
        target = getattr(module, attr)
        if isinstance(target, type):
            # classes are traced through an __init__ of their own
            assert "__init__" in target.__dict__, f"{module_name}.{attr} has no own __init__"


def test_every_loaded_module_exists():
    names = _load_package_names()
    assert "convertibility" in names
    for name in names:
        importlib.import_module(f"entconv.{name}")


def test_run_metadata_fields_exist():
    assert isinstance(kernels.BACKEND, str)
    assert isinstance(kernels.NUMBA_AVAILABLE, bool)
