"""Tests of the benchmark itself: tiny runs of every workload, seeded
reproducibility, and planted wrong answers that the checks must count.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import entconv  # noqa: E402
import entconv.cli  # noqa: E402

from perfbench import hostspeed  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.compare import verdict  # noqa: E402
from perfbench.run import count_failures, per_layer_metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ROOT / "perfbench" / "run.py"
MODULES = ("kernels", "qmat", "states", "measures", "channels", "convertibility", "oracle", "cli")


def package():
    return types.SimpleNamespace(src_dir=ROOT / "src", **{n: getattr(entconv, n) for n in MODULES})


def run_bench(run_py, out, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "5", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "0.02", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in wl.WORKLOADS]
                         + [("decide-stream", 1), ("cli-session", 1)])
def test_tiny_run_prints_every_contract_metric(tmp_path, workload, trace):
    proc = run_bench(RUN, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert np.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0
    if trace:
        assert result["metrics"]["kernels.hermitian_eigh.calls"]["value"] > 0
        spans = json.loads((tmp_path / "traces" / f"{workload}-5" / "spans.json").read_text())
        assert spans["spans"] and spans["names"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench(tmp_path / "perfbench" / "run.py", tmp_path / "out", "decide-stream", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _key(specs):
    def state(s):
        kind, payload = s
        return (kind, np.asarray(payload).tobytes() if kind == "dense" else payload)

    return [(st, state(s), state(t), e, g, k) for st, s, t, e, g, k in specs]


def test_same_seed_gives_identical_inputs():
    assert _key(wl.decide_specs(11, 12)) == _key(wl.decide_specs(11, 12))
    assert _key(wl.decide_specs(11, 12)) != _key(wl.decide_specs(12, 12))


def test_verdict_mix_is_fixed_by_stratum():
    for seed in (1, 2):
        specs = wl.decide_specs(seed, 40)
        counts = {}
        for stratum, _, _, expected, gate, _ in specs:
            counts[(stratum, expected, gate)] = counts.get((stratum, expected, gate), 0) + 1
        assert counts[("werner", ref.CONVERTIBLE, False)] == 20
        assert counts[("bell_diagonal", ref.FORBIDDEN, False)] == 20
        assert counts[("separable_target", ref.CONVERTIBLE, False)] == 40
        assert counts[("general", ref.FORBIDDEN, True)] == 20


def test_same_seed_gives_identical_verdicts_and_failures():
    runs = []
    for _ in range(2):
        stream = wl.DecideStream(package(), seed=11, scale=0.04)
        stream.setup()
        result = stream.run_pass()
        runs.append((result.data["verdicts"], result.failed, result.failures))
    assert runs[0] == runs[1]


def test_failures_count_distinct_operations_whatever_the_number_of_passes():
    stream = wl.DecideStream(package(), seed=11, scale=0.04)
    stream.setup()
    once = count_failures([stream.run_pass()])
    thrice = count_failures([stream.run_pass() for _ in range(3)])
    assert once == thrice
    assert once[0] == len(stream.pairs)
    flaky = [wl.PassResult(1, 4, {0: ("wrong", None)}), wl.PassResult(1, 4, {2: ("slow", "t")})]
    assert count_failures(flaky) == (4, 2, 1, ["wrong", "slow [known: t]"])


def test_times_are_rescaled_to_the_reference_host_speed_pass_by_pass():
    ref_ns = hostspeed.REFERENCE_NS
    fast = wl.PassResult(1, 2, data={"t": [100, 300], "probes_ns": [ref_ns / 2] * 3})
    slow = wl.PassResult(1, 2, data={"t": [200, 600], "probes_ns": [ref_ns] * 3})
    assert list(wl.op_times([fast, slow], "t")) == [200, 600]
    assert hostspeed.probe() > 0


def test_known_defects_are_tagged_from_the_exact_rules():
    werner = wl.known_defect(("werner", 3), ("werner", 10), ref.CONVERTIBLE)
    assert werner == wl.WERNER_SEPARABLE_TARGET
    assert wl.known_defect(("werner", 3), ("werner", 14), ref.FORBIDDEN) is None
    assert wl.known_defect(("werner", 10), ("werner", 3), ref.CONVERTIBLE) is None
    # Werner states written as MEMS weights: w = 4/40 -> 12/40 (separable)
    assert wl.known_defect(("mems", (13, 9, 9, 9)), ("mems", (19, 7, 7, 7)),
                           ref.CONVERTIBLE) == wl.WERNER_SEPARABLE_TARGET
    # the ROADMAP example: E1 ties at 23/40 on both sides
    tie = wl.known_defect(("bell", (23, 13, 4, 0)), ("bell", (23, 12, 3, 2)), ref.CONVERTIBLE)
    assert tie == wl.BELL_MONOTONE_TIE
    assert wl.known_defect(("bell", (24, 13, 3, 0)), ("bell", (23, 12, 3, 2)),
                           ref.CONVERTIBLE) is None


def test_planted_wrong_verdicts_raise_the_error_rate():
    ec = package()
    stream = wl.DecideStream(ec, seed=11, scale=0.04)
    stream.setup()
    honest = stream.run_pass()
    assert honest.unexpected == 0
    decide = ec.convertibility.decide
    forbidden = ec.convertibility.Forbidden

    def planted(source, target):
        result = decide(source, target)
        if type(result).__name__ == "Convertible":
            return forbidden("planted", "flipped verdict")
        return result

    stream.ec = types.SimpleNamespace(**vars(ec))
    stream.ec.convertibility = types.SimpleNamespace(decide=planted)
    flipped = stream.run_pass()
    n_convertible = honest.data["verdicts"].count(ref.CONVERTIBLE)
    assert flipped.failed >= honest.failed + n_convertible - 1
    untagged = sum(p.known is None and p.expected == ref.CONVERTIBLE for p in stream.pairs)
    assert flipped.unexpected >= untagged > 0


def test_a_wrong_answer_outside_the_known_defects_makes_the_run_incorrect(tmp_path,
                                                                        monkeypatch):
    from perfbench import run as bench

    ec = package()
    decide = ec.convertibility.decide

    def planted(source, target):
        result = decide(source, target)
        if type(result).__name__ == "Forbidden":
            return ec.convertibility.Inconclusive("planted")
        return result

    monkeypatch.setattr(ec.convertibility, "decide", planted)
    monkeypatch.setattr(bench, "setup_probes", lambda args: [1.0])
    code = bench.main(["--workload", "decide-stream", "--seed", "5", "--seconds", "0.1",
                       "--scale", "0.02", "--out", str(tmp_path)])
    assert code == 0
    saved = json.loads((tmp_path / "results" / "decide-stream_seed5_trace0.json").read_text())
    assert saved["result"]["correct"] is False
    assert saved["unexpected_failures"] > 0


def test_planted_protocol_that_misses_fails_the_replay():
    ec = package()
    stream = wl.DecideStream(ec, seed=11, scale=0.04)
    stream.setup()
    pair = next(p for p in stream.pairs
                if p.stratum == "separable_target"
                and np.linalg.norm(p.source_ref - p.target_ref) > 1e-3)
    eye = np.eye(2)
    identity = ec.channels.Protocol(((1.0, ec.channels.LocalUnitary(eye, eye)),))
    assert wl.check_verdict(pair, ec.convertibility.Convertible(identity, "planted", 0.0))


def test_planted_counterexamples_and_misses_count_as_failures():
    ec = package()
    hunt = wl.OracleHunt(ec, seed=3, scale=0.02)
    hunt.setup()
    oracle = ec.oracle

    def falsify(trials, seed):
        return oracle.SearchReport(trials=trials, counterexamples=[{"trial": 0, "seed": seed}])

    def raising(trials, seed):
        raise RuntimeError("planted")

    hunt.ec = types.SimpleNamespace(**vars(ec))
    hunt.ec.oracle = types.SimpleNamespace(
        falsify_rank_monotonicity=falsify, monotone_audit=raising,
        convert_search=lambda *a, **k: (0.5, None))
    result = hunt.run_pass()
    blocks = wl.OracleHunt.BLOCKS
    assert result.failed == result.unexpected == len(wl.SEARCH_PAIRS) * (2 * blocks + 1)


def test_planted_exit_codes_count_as_failures(tmp_path):
    session = wl.CliSession(package(), seed=3, scale=0.02, workdir=tmp_path)
    session._invoke = lambda call, spans_path=None: (
        1, subprocess.CompletedProcess(call.args, 1, stdout="", stderr="planted"))
    session.setup()
    result = session.run_pass()
    assert result.failed == result.unexpected == result.attempted == len(session.calls)


def test_a_cli_timeout_is_a_failed_call(tmp_path, monkeypatch):
    session = wl.CliSession(package(), seed=3, scale=0.02, workdir=tmp_path)
    session.setup()

    run = subprocess.run

    def timeout(argv, **kwargs):
        if "entconv" not in argv:  # the host speed probe
            return run(argv, **kwargs)
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(wl.subprocess, "run", timeout)
    result = session.run_pass()
    assert result.failed == result.unexpected == len(session.calls)


def test_tracer_restores_the_package_and_computes_self_time():
    ec = package()
    original = ec.convertibility.decide
    rho = ec.states.make_werner(0.9)
    sigma = ec.states.make_werner(0.45)
    with Tracer() as tracer:
        assert ec.convertibility.decide is not original
        verdict_ = ec.convertibility.decide(rho, sigma)
    assert ec.convertibility.decide is original
    assert ec.cli.decide is original
    assert type(verdict_).__name__ == ref.CONVERTIBLE
    totals = tracer.totals()
    decide = totals["convertibility.decide"]
    assert decide["calls"] == 1
    assert 0 < decide["self_ms"] < decide["total_ms"]
    assert sum(t["self_ms"] for t in totals.values()) == pytest.approx(decide["total_ms"])
    assert tracer.counters["convertibility.verdicts.convertible"] == 1
    assert 0 < tracer.verify_share() < 1
    assert "convertibility.verify_share" in per_layer_metrics(tracer)
    assert "convertibility.verify_share" not in per_layer_metrics(Tracer())


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    pairs = lambda new: list(zip(base, new))  # noqa: E731
    slower = [v * 0.8 for v in base]
    faster = [v * 1.2 for v in base]
    assert verdict(base, slower, pairs(slower), 0.1, True, False) == "worse"
    assert verdict(base, faster, pairs(faster), 0.1, True, False) == "better"
    assert verdict(base, faster, pairs(faster), 0.1, True, True) == "worse"
    assert verdict(base, base, pairs(base), 0.1, True, True) == "worse"
    assert verdict(base, base, pairs(base), 0.1, True, False) == "within bound"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(base, noisy, pairs(noisy), 0.1, True, False) == "unresolved"
