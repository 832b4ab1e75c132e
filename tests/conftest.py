"""Fixtures shared by the test modules."""

import ast
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def load_package_names() -> tuple:
    """The modules the benchmark's ``load_package`` reads off ``entconv``, from its source."""
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
