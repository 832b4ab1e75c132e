"""Run one workload of the entconv benchmark and print its metrics.

    python3 perfbench/run.py --workload decide-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: decide-stream, oracle-hunt, cli-session (see workloads.py), or
``all`` to run the three one after another, each in its own process. The
package is imported from ``src/`` next to this directory; without it the
run stops with exit code 2 before measuring anything.

``--trace 0`` measures whole passes of the workload while another pass
fits in ``--seconds`` and reports the end-to-end metrics, every time
rescaled to a reference host speed (see hostspeed.py and workloads.py). ``--trace 1`` alternates
untraced passes with the same pass traced (spans recorded around the
package's public functions), at least three of each and more while
``--seconds`` last, and reports the per-layer metrics as medians over the
traced passes and the tracing overhead as the median ratio of a traced
pass's time to the untraced pass before it. The names and units of the
reported metrics come from ``BENCHMARK.json``.

Everything before the last line of standard output is a readable report
(every metric with its unit and sample count, the run's metadata, the first
failures). The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``attempted`` counts the distinct operations of
a pass (every pass repeats them) and ``failed`` those whose output was wrong
on any pass, so both follow from the seed alone; ``correct`` is false when
any failure falls outside the package's known defects (see
``workloads.known_defect``). A result file with the full report is written
under ``--out`` (default ``.perfbench_out``), and a traced run also writes
its spans there.
"""

from __future__ import annotations

import os

# one process of load, BLAS pinned to one thread; set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.hostspeed import START_REFERENCE_NS, start_probe  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
IMPORT_PROBES = 3
TRACE_PAIRS = 3  # at least this many untraced and traced passes, alternated
PROBE_TIMEOUT_S = 170
EXIT_NO_PACKAGE = 2


class PackageMissing(Exception):
    pass


def load_package():
    """Import entconv from this checkout's src/, never from anywhere else."""
    init = SRC / "entconv" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import entconv
    import entconv.cli  # loads every module the tracer patches

    if Path(entconv.__file__).resolve() != init.resolve():
        raise PackageMissing(f"entconv was imported from {entconv.__file__}, not {init}")
    names = ("kernels", "qmat", "states", "measures", "channels", "convertibility", "oracle",
             "cli")
    return types.SimpleNamespace(src_dir=SRC, **{n: getattr(entconv, n) for n in names})


def run_metadata(ec, args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": ec.kernels.BACKEND,
        "numba_importable": bool(ec.kernels.NUMBA_AVAILABLE),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probes(args) -> list:
    """Wall time of fresh processes that set the workload up and exit, each
    rescaled by a fresh-interpreter probe run just before it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--out", str(args.out),
            "--scale", str(args.scale)]
    out = []
    for _ in range(SETUP_PROBES):
        factor = START_REFERENCE_NS / start_probe()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
        out.append((time.perf_counter() - t0) * factor)
    return out


def import_probes() -> list:
    """Seconds to import entconv.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import entconv.cli; "
            "print(repr(time.perf_counter() - t))")
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, env=_probe_env(), cwd=str(ROOT / "perfbench"),
                              timeout=PROBE_TIMEOUT_S)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def contract_metrics(wanted: list, have: dict) -> dict:
    """The BENCHMARK.json metrics, each with the unit it declares."""
    out = {}
    for spec in wanted:
        value, unit, _ = have[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, BENCHMARK.json says "
                             f"{spec['unit']}")
        out[spec["name"]] = {"value": float(value), "unit": unit}
    return out


def per_layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit, samples) for every traced layer boundary."""
    out = {}
    for name, entry in sorted(tracer.totals().items()):
        out[f"{name}.calls"] = (entry["calls"], "count", entry["calls"])
        out[f"{name}.self_ms"] = (entry["self_ms"], "ms", entry["calls"])
    for key, value in sorted(tracer.counters.items()):
        out[key] = (value, "count", 1)
    convertible = tracer.counters.get("convertibility.verdicts.convertible", 0)
    if convertible:  # only decide-stream decides; oracle-hunt verifies outside decide
        out["convertibility.verify_share"] = (tracer.verify_share(), "1", convertible)
    return out


def median_metrics(runs: list) -> dict:
    """Per metric, the median over runs of (value, unit, samples) tables."""
    return {key: (statistics.median(run[key][0] for run in runs), unit, n * len(runs))
            for key, (_, unit, n) in runs[0].items()}


def zero_filled(contract: list, have: dict) -> dict:
    """Counters of layers a workload never calls read as zero (they have no bound)."""
    out = dict(have)
    for spec in contract:
        if spec["name"] not in out and spec["unit"] == "count":
            out[spec["name"]] = (0, spec["unit"], 0)
    return out


def count_failures(passes: list) -> tuple:
    """(attempted, failed, unexpected, failure lines) over distinct operations.

    Every pass repeats the same operations, so an operation is attempted once
    per run whatever the number of passes, and fails when its output was
    wrong on any pass.
    """
    failed_ops = {}
    for p in passes:
        for key, entry in p.failures.items():
            failed_ops.setdefault(key, entry)
    unexpected = sum(known is None for _, known in failed_ops.values())
    lines = [line + (f" [known: {known}]" if known else "")
             for line, known in failed_ops.values()]
    return passes[0].attempted, len(failed_ops), unexpected, lines


def print_report(meta: dict, metrics: dict, attempted: int, failed: int, unexpected: int,
                 failures: list):
    print(f"entconv benchmark: {meta['workload']}, seed {meta['seed']}, "
          f"{'traced' if meta['trace'] else 'untraced'}")
    print(f"  kernels {meta['kernels_backend']} (numba importable: {meta['numba_importable']}), "
          f"nproc {meta['nproc']}, BLAS threads {meta['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"python {meta['python']}, numpy {meta['numpy']}, scipy {meta['scipy']}")
    width = max(len(n) for n in metrics)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={n}")
    print(f"  {'error_rate':<{width}}  {failed / attempted:>14.6g} {'1':<6} "
          f"n={attempted} ({failed} failed, {unexpected} outside the known defects)")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if len(failures) > 10:
        print(f"  ... {len(failures) - 10} more failures in the result file")


def run(args) -> int:
    try:
        ec = load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    out_dir = Path(args.out)
    workload = WORKLOADS[args.workload](ec, args.seed, scale=args.scale,
                                        workdir=out_dir / "work" / f"{args.workload}-{args.seed}")
    workload.setup()
    if args.setup_probe:
        return 0
    contract = load_contract()
    meta = run_metadata(ec, args)
    report: dict = {}

    if not args.trace:
        passes = []
        t0 = time.perf_counter()
        while not passes or (time.perf_counter() - t0
                             + statistics.median(p.wall_ns for p in passes) / 1e9
                             <= args.seconds):
            passes.append(workload.run_pass())
        measured_s = time.perf_counter() - t0
        rss = peak_rss_mb(children=isinstance(workload, WORKLOADS["cli-session"]))
        probes = setup_probes(args)
        values, report = workload.metrics(passes)
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "slow_op_p50_ms": "ms"}
        values = {name: (value, units[name], len(passes)) for name, value in values.items()}
        values["setup_s"] = (statistics.median(probes), "s", len(probes))
        values["peak_rss_mb"] = (rss, "MB", 1)
        report.update({"passes": (len(passes), "count", len(passes)),
                       "measured_s": (measured_s, "s", 1)})
        report.update(values)
        metrics = contract_metrics(contract["end_to_end"], values)
    else:
        trace_dir = out_dir / "traces" / f"{args.workload}-{args.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        plains, traced_passes, layer_runs = [], [], []
        routed = hasattr(workload, "trace_dir")  # cli-session traces through the shim
        t0 = time.perf_counter()
        while len(plains) < TRACE_PAIRS or time.perf_counter() - t0 < args.seconds:
            plains.append(workload.run_pass())
            tracer = Tracer()
            if routed:
                workload.trace_dir = trace_dir
            with tracer:
                traced = workload.run_pass()
            if routed:
                workload.trace_dir = None
            for path in traced.data.get("spans", ()):
                with open(path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
            traced_passes.append(traced)
            layer_runs.append(per_layer_metrics(tracer))
        tracer.dump(trace_dir / "spans.json")  # the last traced pass
        passes = plains + traced_passes
        _, plain_report = workload.metrics(plains)
        report = median_metrics(layer_runs)
        report.update({k: v for k, v in plain_report.items()
                       if k.startswith(("convertibility.decide.", "cli."))})
        imports = import_probes()
        report["cli.import_s"] = (statistics.median(imports), "s", len(imports))
        ratios = [t.wall_ns / p.wall_ns for p, t in zip(plains, traced_passes)]
        report["trace.untraced_pass_s"] = (
            statistics.median(p.wall_ns for p in plains) / 1e9, "s", len(plains))
        report["trace.traced_pass_s"] = (
            statistics.median(p.wall_ns for p in traced_passes) / 1e9, "s", len(traced_passes))
        report["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%",
                                        len(ratios))
        metrics = contract_metrics(contract["per_layer"],
                                   zero_filled(contract["per_layer"], report))

    attempted, failed, unexpected, failures = count_failures(passes)
    print_report(meta, report, attempted, failed, unexpected, failures)
    result = {"correct": attempted > 0 and unexpected == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "error_rate": failed / attempted,
                   "unexpected_failures": unexpected,
                   "report": {k: {"value": v, "unit": u, "n": n}
                              for k, (v, u, n) in report.items()},
                   "failures": failures}, fh, indent=1, default=float)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out), "--scale", str(args.scale)]
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"),
                        help="directory for result files, spans and CLI inputs")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the benchmark's (the tests use less)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
