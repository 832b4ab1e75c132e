"""Checks on how the package's names are wired, read from source.

The benchmark harness under perfbench/ patches functions by (module,
attribute) and loads a fixed list of modules, so renaming or deleting one of
them breaks only the traced benchmark, which the default test run never
collects. These checks read the harness's source without importing its
runner and fail at once instead. The package's own imports and exports are
checked the same way, so a deletion cannot leave a stale import or export,
and an addition cannot leave a definition that nothing calls.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import entconv
from entconv import kernels
from entconv.channels import bell_extremal_catalog
from entconv.states import make_werner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(entconv.__file__).resolve().parent


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


def _imported_names(tree) -> dict:
    """Local name -> line of every name a module binds by import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                names[local] = node.lineno
    return names


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
        assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_package_exports_are_its_reexports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    reexported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(entconv.__all__)) == len(entconv.__all__)
    assert len(set(reexported)) == len(reexported)
    assert set(entconv.__all__) == set(reexported)
    for name in entconv.__all__:
        assert getattr(entconv, name) is not None, name


def _top_level_references(path) -> list:
    """(line of the enclosing top-level statement, referenced name) pairs.

    A reference is a bare name, an attribute, or a string constant equal to a
    name, the form in which the benchmark's tracer names what it patches.
    """
    refs = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.append((stmt.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((stmt.lineno, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((stmt.lineno, node.value))
    return refs


def _defined_names(stmt) -> list:
    """Names a top-level statement defines: a function, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_definition_is_used_or_exported():
    modules = sorted(PACKAGE.glob("*.py"))
    users = {}  # name -> (file, line of the top-level statement) of each reference
    for path in modules + sorted(PERFBENCH.rglob("*.py")):
        for line, name in _top_level_references(path):
            users.setdefault(name, set()).add((path, line))
    unused = [
        f"{path.stem}.{name}"
        for path in modules
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in _defined_names(stmt)
        if name not in entconv.__all__
        # the defining statement itself, a function's own body included,
        # does not count as a use
        and not users.get(name, set()) - {(path, stmt.lineno)}
    ]
    assert not unused, f"defined but never referenced or exported: {unused}"


def _arrays(value):
    """The arrays a module attribute holds: itself, or the entries of nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_shared_arrays_are_read_only():
    # a module constant, a cached catalog channel or a state's spectrum is
    # shared by every caller, so an in-place edit would change them all
    shared = []
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    for module in [entconv] + [importlib.import_module(f"entconv.{n}") for n in names]:
        shared += [
            (f"{module.__name__}.{name}", arr)
            for name, value in vars(module).items()
            for arr in _arrays(value)
        ]
    assert len(shared) > 20
    rho, channel = make_werner(0.5), bell_extremal_catalog()[0]
    shared += [("matrix", rho.matrix), ("eig.values", rho.eig.values),
               ("eig.vectors", rho.eig.vectors), ("kraus_pairs", channel.kraus_pairs),
               ("estack", channel.estack)]
    for name, arr in shared:
        assert not arr.flags.writeable, name
    with pytest.raises(ValueError):
        channel.estack[0] *= 2
    with pytest.raises(ValueError):
        rho.eig.values[:] = 0
