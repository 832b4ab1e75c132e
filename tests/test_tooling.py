"""Checks on how the package's names are wired, read from source.

The benchmark harness under perfbench/ patches functions by (module,
attribute) and loads a fixed list of modules, so renaming or deleting one of
them breaks only the traced benchmark, which the default test run never
collects. These checks read the harness's source without importing its
runner and fail at once instead; a traced handful of calls must record every
span whose self time the benchmark reports, so a refactor cannot leave one
uncalled. The package's own imports and exports are
checked the same way, so a deletion cannot leave a stale import or export,
and an addition cannot leave a definition that nothing calls. The README's
``>>>`` quick start runs here as a doctest, so its printed values cannot go
stale, the CI workflow's commands are checked against ROADMAP's, and every
committed ``BENCH_*.json`` record must pair one parent run with one change
run per seed. The package's source is also read as text, so that the
one-matrix Frobenius norm, the count check, the Gaussian state draw, the
flat Dirichlet draw and the raw matrix reader each stay written once.
"""

import ast
import doctest
import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import entconv
from entconv import kernels
from entconv.channels import bell_extremal_catalog
from entconv.states import make_bell_diagonal, make_werner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(entconv.__file__).resolve().parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _self_timed_spans() -> set:
    """The span names whose ``<name>.self_ms`` the benchmark reports per layer."""
    per_layer = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"][: -len(".self_ms")] for m in per_layer if m["name"].endswith(".self_ms")}


def _decide_calls():
    from entconv.convertibility import decide

    decide(make_werner(0.9), make_werner(0.45))
    decide(make_werner(0.9), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    decide(make_bell_diagonal((0.7, 0.1, 0.1, 0.1)), make_bell_diagonal((0.6, 0.2, 0.1, 0.1)))


def _oracle_calls():
    from entconv import oracle

    oracle.falsify_rank_monotonicity(2)
    oracle.monotone_audit(2)
    oracle.convert_search(make_werner(0.9), make_werner(0.45))


@pytest.mark.parametrize("calls", [_decide_calls, _oracle_calls], ids=["decide", "oracle"])
def test_every_self_timed_layer_is_traced(calls):
    # the tracer lists the loaded package modules once, so oracle must be
    # loaded before it installs, as the benchmark's load_package does
    importlib.import_module("entconv.oracle")
    wanted = _self_timed_spans()
    assert len(wanted) >= 10
    with _load_tracing().Tracer() as tracer:
        calls()
    missing = wanted - set(tracer.totals())
    assert not missing, f"self-timed layers with no span: {sorted(missing)}"


def test_every_loaded_module_exists(load_package_names):
    assert "convertibility" in load_package_names
    for name in load_package_names:
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


def test_no_module_imports_dataclasses():
    # the dataclass decorator builds its class at import, a cost each CLI
    # call pays; the value classes derive from qmat.Record instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module and not node.level}
        assert "dataclasses" not in imported, path.name


def _lazy_exports(tree) -> list:
    """The names the package's ``__getattr__`` resolves from ``oracle`` on first use."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_FROM_ORACLE" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("the package names no lazy exports")


def test_package_exports_are_its_reexports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    # a name resolved on first use counts as a re-export, like an import
    reexported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ] + _lazy_exports(tree)
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
    """Names a top-level statement defines: a function, a class or a constant.

    Dunder names, such as a module's ``__getattr__`` hook or its
    ``__version__``, are read from outside the package and are left out.
    """
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    else:
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


def test_ci_runs_the_tier_1_command_and_the_harness_tests():
    # no test runs the workflow, so its commands are tied to ROADMAP's tier-1
    # command; the YAML is read as text, since pyyaml is not a test dependency
    workflow = (PERFBENCH.parent / ".github" / "workflows" / "tests.yml").read_text()
    roadmap = (PERFBENCH.parent / "ROADMAP.md").read_text(encoding="utf-8")
    tier_1 = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.MULTILINE)
    runs = re.findall(r"^\s+run: (.+)$", workflow, flags=re.MULTILINE)
    suite = re.search(r"- name: Tier-1 suite\n\s+run: (.+)$", workflow, flags=re.MULTILINE)
    assert tier_1 and suite
    assert suite.group(1) == tier_1.group(1)
    assert "python -m pytest perfbench/tests -q" in runs
    assert re.search(r"^  tier-1:\n(    .*\n)*?    timeout-minutes: \d+$", workflow,
                     flags=re.MULTILINE)


def test_every_bench_record_pairs_its_runs():
    # a speed claim rests on a committed BENCH_*.json; each one names its two
    # sides and holds one parent run and one change run for every seed
    records = sorted(PERFBENCH.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["record"] == path.stem
        assert record["parent"] and record["change"], path.name
        seeds = record["seeds"]
        assert seeds and len(set(seeds)) == len(seeds), path.name
        runs = sorted((run["seed"], run["side"]) for run in record["run_order"])
        assert runs == sorted((seed, side) for seed in seeds for side in ("change", "parent")), (
            path.name)


def test_every_console_script_resolves_and_runs_in_ci():
    # tier-1 runs the CLI through cli.main and python -m entconv, never
    # through the installed script, so the script is checked here and run by
    # CI; pyproject.toml is read as text, since tomllib is missing on Python 3.10
    pyproject = (PERFBENCH.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n((?:.+\n)+)", pyproject, flags=re.MULTILINE)
    assert section
    scripts = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', section.group(1), flags=re.MULTILINE)
    assert scripts
    workflow = (PERFBENCH.parent / ".github" / "workflows" / "tests.yml").read_text()
    install = workflow.index("pip install")
    for name, module, attr in scripts:
        assert callable(getattr(importlib.import_module(module), attr)), name
        assert workflow.find(f"run: {name} --help") > install, name


def test_measures_of_a_state_read_its_own_spectrum():
    from entconv import measures

    rho = make_werner(0.9)
    with _load_tracing().Tracer() as tracer:
        measures.concurrence(rho)
        measures.eof(rho)
    assert tracer.names.count("measures.concurrence") == 2
    assert "qmat.hermitian_eig" not in tracer.names
    assert "kernels.hermitian_eigh" not in tracer.names
    # a raw array has no spectrum of its own, and gives the same bits
    with _load_tracing().Tracer() as tracer:
        raw = measures.concurrence(rho.matrix)
    assert tracer.names.count("qmat.hermitian_eig") == 1
    assert raw == measures.concurrence(rho)


def test_measures_command_reads_the_concurrence_once(tmp_path, capsys):
    from entconv import cli, measures

    path = tmp_path / "werner.json"
    path.write_text(json.dumps({"kind": "werner", "w": 0.9}))
    with _load_tracing().Tracer() as tracer:
        assert cli.main(["measures", "--json", str(path)]) == cli.EX_OK
    payload = json.loads(capsys.readouterr().out)["measures"]
    assert tracer.names.count("measures.concurrence") == 1
    assert tracer.names.count("kernels.singular_values") == 1
    assert payload["eof"] == measures.eof(make_werner(0.9))


def test_readme_quick_start_runs_as_a_doctest():
    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    examples = [b for b in blocks if ">>>" in b]
    assert examples, "README has no >>> quick start"
    runner = doctest.DocTestRunner()
    for i, block in enumerate(examples):
        runner.run(doctest.DocTestParser().get_doctest(block, {}, f"README[{i}]", "README.md", 0))
    assert runner.failures == 0
    assert runner.tries >= 6


def test_each_numeric_rule_is_written_once():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}

    def holders(text):
        return sorted(name for name, source in sources.items() if text in source)

    # the one-matrix Frobenius norm, the Gaussian state factor and the one
    # reader of a caller's array each live in one module
    assert holders("math.sqrt(np.vdot(") == ["qmat.py"]
    assert holders("normal(size=(2, 4,") == ["states.py"]
    # flat Dirichlet rows are drawn only as exponentials over their sum
    assert holders(".dirichlet(") == []
    assert holders("standard_exponential(") == ["oracle.py"]
    assert holders("expected an array of numbers") == ["qmat.py"]
    # each trial's generator and the Werner weight are written once
    for text, home in (("PCG64(", "oracle.py"),
                       ("vdot(SINGLET_PROJECTOR", "states.py")):
        assert holders(text) == [home]
        assert sources[home].count(text) == 1
    # the one count check, and no range or shape rejection outside OutOfRangeError
    assert sum(source.count("numbers.Integral") for source in sources.values()) == 1
    check_count = next(
        node for node in ast.walk(ast.parse(sources["states.py"]))
        if isinstance(node, ast.FunctionDef) and node.name == "_check_count"
    )
    assert "numbers.Integral" in ast.get_source_segment(sources["states.py"], check_count)
    assert holders("raise ValueError(") == []
