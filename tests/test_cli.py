"""End-to-end tests of the command line interface, run in process."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import entconv
from entconv import channels
from entconv.channels import DiscardPrepare, LocalUnitary, Protocol
from entconv.cli import (
    EX_FORBIDDEN,
    EX_INCONCLUSIVE,
    EX_OK,
    EX_SOFTWARE,
    EX_USAGE,
    main,
    parse_state_spec,
    protocol_to_spec,
    state_to_spec,
)
from entconv.convertibility import RESIDUAL_BOUND, keep_or_refill, verify_protocol
from entconv.errors import NotProductDiagonalError
from entconv.states import (
    DensityMatrix,
    classify_family,
    make_bell_diagonal,
    make_mems,
    make_werner,
)


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestStateSpecs:
    def test_werner_spec(self):
        rho = parse_state_spec({"kind": "werner", "w": 0.7}, "state")
        npt.assert_allclose(rho.matrix, make_werner(0.7).matrix, atol=1e-15)

    def test_dense_round_trip_exact(self):
        rho = make_bell_diagonal((0.55, 0.25, 0.15, 0.05))
        spec = state_to_spec(rho)
        back = parse_state_spec(json.loads(json.dumps(spec)), "state")
        assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-12

    def test_random_dense_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
            spec = json.loads(json.dumps(state_to_spec(rho)))
            back = parse_state_spec(spec, "state")
            assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-12

    def test_unknown_kind_names_field(self):
        with pytest.raises(Exception) as err:
            parse_state_spec({"kind": "ghz"}, "source")
        assert err.value.field == "source.kind"

    def test_bad_lambda_names_field(self):
        with pytest.raises(Exception) as err:
            parse_state_spec({"kind": "mems", "lambda": [0.5, 0.5, "x", 0.0]}, "target")
        assert err.value.field == "target.lambda[2]"


class TestCheck:
    def test_convertible_exit_zero(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
        code, payload = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_OK
        assert payload["verdict"] == "Convertible"
        assert payload["residual"] < 1e-12
        assert payload["protocol"] is not None

    def test_forbidden_exit_two(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.4})
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.9})
        code, payload = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_FORBIDDEN
        assert payload["verdict"] == "Forbidden"
        assert payload["reason"] == "weight_infeasible"

    def test_monotone_forbidden(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "bell_diagonal", "lambda": [0.6, 0.2, 0.1, 0.1]})
        b = write_spec(tmp_path, "b.json", {"kind": "bell_diagonal", "lambda": [0.7, 0.15, 0.1, 0.05]})
        code, payload = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_FORBIDDEN
        assert payload["reason"] == "monotone_e1"

    def test_rank_gate_forbidden(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "bell_diagonal", "lambda": [0.6, 0.2, 0.1, 0.1]})
        b = write_spec(tmp_path, "b.json", {"kind": "bell_diagonal", "lambda": [0.7, 0.3, 0.0, 0.0]})
        code, payload = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_FORBIDDEN
        assert payload["reason"] == "rank_gate"

    def test_inconclusive_exit_three(self, tmp_path, capsys):
        g = np.random.default_rng(3).normal(size=(4, 4))
        mat = g @ g.T
        mat = mat / np.trace(mat)
        dense = {"kind": "dense", "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()}
        a = write_spec(tmp_path, "a.json", dense)
        b = write_spec(tmp_path, "b.json", {"kind": "bell_diagonal", "lambda": [0.8, 0.1, 0.05, 0.05]})
        code, payload = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_INCONCLUSIVE
        assert payload["verdict"] == "Inconclusive"

    def test_target_with_trace_off_by_5e_10_is_convertible(self, tmp_path, capsys):
        # within DensityMatrix's 1e-9 trace tolerance; the prepared state is normalised
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        re = np.diag([0.4, 0.3, 0.2, 0.1 + 5e-10]).tolist()
        b = write_spec(tmp_path, "b.json", {"kind": "dense", "re": re, "im": [[0] * 4] * 4})
        code, payload = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_OK
        assert payload["verdict"] == "Convertible"
        assert payload["residual"] <= RESIDUAL_BOUND

    def test_missing_file_exit_usage(self, tmp_path, capsys):
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.5})
        code = main(["check", str(tmp_path / "absent.json"), b])
        err = capsys.readouterr().err
        assert code == EX_USAGE
        assert "source" in err

    def test_residual_miss_exits_software(self, tmp_path, capsys, monkeypatch):
        # a lowering that prepares a state 1% off its target
        original = channels.DiscardPrepare.channel
        monkeypatch.setattr(
            channels.DiscardPrepare,
            "channel",
            lambda atom: original(
                channels.DiscardPrepare(
                    DensityMatrix(0.99 * atom.target.matrix + 0.01 * np.diag([1, 0, 0, 0]))
                )
            ),
        )
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
        code = main(["check", a, b])
        captured = capsys.readouterr()
        assert code == EX_SOFTWARE
        assert "ResidualError" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "off_diagonal"])
    def test_nan_dense_entry_is_usage_error(self, tmp_path, capsys, entry):
        re = (np.eye(4) / 4).tolist()
        re[entry[0]][entry[1]] = math.nan
        a = write_spec(tmp_path, "a.json", {"kind": "dense", "re": re, "im": [[0] * 4] * 4})
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.5})
        code = main(["check", "--json", a, b])
        err = json.loads(capsys.readouterr().err)
        assert code == EX_USAGE
        assert err["field"] == f"source.re[{entry[0]}][{entry[1]}]"

    @pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
    def test_non_hermitian_dense_source_is_usage_error(self, tmp_path, capsys, json_flag):
        # im[0][1] without its conjugate partner: a deviation of 1e-6 * sqrt(2)
        im = np.zeros((4, 4))
        im[0][1] = 1e-6
        dense = {"kind": "dense", "re": (np.eye(4) / 4).tolist(), "im": im.tolist()}
        a = write_spec(tmp_path, "a.json", dense)
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.5})
        code = main(["check", a, b] + ["--json"] * json_flag)
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        if json_flag:
            err = json.loads(captured.err)
            assert err["field"] == "source"
            assert "not Hermitian" in err["error"]
        else:
            assert captured.err.startswith("entconv: error: source: ")
            assert "not Hermitian" in captured.err

    def test_text_mode_prints_verdict(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
        code = main(["check", a, b])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "verdict: Convertible" in out


class TestMeasures:
    def test_bell_diagonal_monotones(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "s.json", {"kind": "bell_diagonal", "lambda": [0.6, 0.2, 0.1, 0.1]}
        )
        code, payload = run_json(capsys, ["measures", "--json", path])
        assert code == EX_OK
        m = payload["measures"]
        npt.assert_allclose(m["monotones"], [0.6, 3.0, 4.0], atol=1e-9)
        npt.assert_allclose(m["concurrence"], 0.2, atol=1e-9)
        assert m["rank"] == 4
        assert m["family"]["kind"] == "bell_diagonal"

    def test_infinite_monotones_serialize_as_strings(self, tmp_path, capsys):
        # exact zero denominators survive the matrix round trip for this state
        path = write_spec(
            tmp_path, "s.json", {"kind": "bell_diagonal", "lambda": [0.7, 0.3, 0.0, 0.0]}
        )
        code, payload = run_json(capsys, ["measures", "--json", path])
        assert code == EX_OK
        m = payload["measures"]
        assert m["monotones"][0] == pytest.approx(0.7, abs=1e-12)
        assert m["monotones"][1] == "inf"
        assert m["monotones"][2] == "inf"

    def test_general_state_has_no_monotones(self, tmp_path, capsys):
        rho = 0.5 * make_mems((1.0, 0.0, 0.0, 0.0)).matrix
        rho[0, 0] += 0.5
        spec = {"kind": "dense", "re": rho.real.tolist(), "im": rho.imag.tolist()}
        path = write_spec(tmp_path, "s.json", spec)
        code, payload = run_json(capsys, ["measures", "--json", path])
        assert code == EX_OK
        assert payload["measures"]["monotones"] is None
        assert payload["measures"]["family"]["kind"] == "general"

    def test_plain_text_prints_plain_floats(self, tmp_path, capsys):
        path = write_spec(tmp_path, "s.json", {"kind": "werner", "w": 0.2})
        assert main(["measures", path]) == EX_OK
        lines = capsys.readouterr().out.splitlines()
        w = classify_family(make_werner(0.2)).params.w
        assert type(w) is float
        assert f"family: werner (w={w!r})" in lines
        assert "negativity: 0.0" in lines
        _, payload = run_json(capsys, ["measures", "--json", path])
        assert math.copysign(1.0, payload["measures"]["negativity"]) == 1.0

    def test_floats_round_trip_exactly(self, tmp_path, capsys):
        path = write_spec(tmp_path, "s.json", {"kind": "werner", "w": 0.3})
        _, payload = run_json(capsys, ["measures", "--json", path])
        from entconv.measures import concurrence

        assert payload["measures"]["concurrence"] == concurrence(make_werner(0.3))


class TestSynthesizeAndApply:
    def test_synthesize_then_apply_hits_target(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]})
        b = write_spec(tmp_path, "b.json", {"kind": "mems", "lambda": [0.46, 0.34, 0.1, 0.1]})
        code, payload = run_json(capsys, ["synthesize", "--json", a, b])
        assert code == EX_OK
        npt.assert_allclose(payload["W"], 0.9, atol=1e-12)
        assert payload["residual"] < 1e-10

        proto = write_spec(tmp_path, "p.json", payload["protocol"])
        code, applied = run_json(capsys, ["apply", "--json", proto, a])
        assert code == EX_OK
        out = parse_state_spec(applied["state"], "state")
        target = make_mems((0.46, 0.34, 0.1, 0.1))
        assert np.linalg.norm(out.matrix - target.matrix) <= 1e-10

    def test_synthesize_identity_lists_refill_at_zero_weight(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "mems", "lambda": [0.5, 0.2, 0.2, 0.1]})
        code, payload = run_json(capsys, ["synthesize", "--json", a, a])
        assert code == EX_OK
        assert payload["W"] == 1.0
        assert payload["residual"] == 0.0
        branches = payload["protocol"]["branches"]
        assert [b["weight"] for b in branches] == [1.0, 0.0]
        assert [b["atom"]["kind"] for b in branches] == ["local_unitary", "discard_prepare"]

    def test_synthesize_without_singlet_excess_matches_check(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "mems", "lambda": [0.25, 0.25, 0.25, 0.25]})
        code, payload = run_json(capsys, ["check", "--json", a, a])
        assert payload["verdict"] == "Convertible"
        code, payload = run_json(capsys, ["synthesize", "--json", a, a])
        assert code == EX_OK
        assert (payload["W"], payload["prep_weights"]) == (1.0, [1.0, 0.0, 0.0])
        proto = write_spec(tmp_path, "p.json", payload["protocol"])
        code, applied = run_json(capsys, ["apply", "--json", proto, a])
        out = parse_state_spec(applied["state"], "state")
        assert np.linalg.norm(out.matrix - np.eye(4) / 4) <= 1e-12

    def test_infeasible_exit_three(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "mems", "lambda": [0.45, 0.45, 0.05, 0.05]})
        b = write_spec(tmp_path, "b.json", {"kind": "mems", "lambda": [0.4, 0.3, 0.3, 0.0]})
        code, payload = run_json(capsys, ["synthesize", "--json", a, b])
        assert code == EX_INCONCLUSIVE
        assert payload["verdict"] == "Infeasible"
        assert payload["detail"]

    def test_plan_that_meets_only_the_fits_is_infeasible_with_checks_detail(
        self, tmp_path, capsys
    ):
        # each state sits 7e-9 from its mixture-form fit, so the plan solved on
        # the fits lands 1.9e-8 from the given target, past RESIDUAL_BOUND
        d = np.diag([7e-9, 0.0, 0.0, -7e-9])
        a = write_spec(tmp_path, "a.json", state_to_spec(
            DensityMatrix(make_mems((0.5, 0.3, 0.1, 0.1)).matrix + d)))
        b = write_spec(tmp_path, "b.json", state_to_spec(
            DensityMatrix(make_mems((0.46, 0.34, 0.1, 0.1)).matrix - d)))
        code, checked = run_json(capsys, ["check", "--json", a, b])
        assert code == EX_INCONCLUSIVE
        assert checked["verdict"] == "Inconclusive"
        code, payload = run_json(capsys, ["synthesize", "--json", a, b])
        assert code == EX_INCONCLUSIVE
        assert payload == {"verdict": "Infeasible", "detail": checked["detail"]}
        assert "protocol residual 1.881e-08 exceeds 1e-08" in payload["detail"]

    def test_plan_that_misses_the_fits_exits_software(self, tmp_path, capsys, monkeypatch):
        # a lowering that prepares a state 1% off its target misses the fits too
        original = channels.DiscardPrepare.channel
        monkeypatch.setattr(
            channels.DiscardPrepare,
            "channel",
            lambda atom: original(
                channels.DiscardPrepare(
                    DensityMatrix(0.99 * atom.target.matrix + 0.01 * np.diag([1, 0, 0, 0]))
                )
            ),
        )
        a = write_spec(tmp_path, "a.json", {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]})
        b = write_spec(tmp_path, "b.json", {"kind": "mems", "lambda": [0.46, 0.34, 0.1, 0.1]})
        code = main(["synthesize", a, b])
        captured = capsys.readouterr()
        assert code == EX_SOFTWARE
        assert "ResidualError" in captured.err
        assert captured.out == ""

    def test_non_mixture_source_is_usage_error(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "bell_diagonal", "lambda": [0.4, 0.3, 0.2, 0.1]})
        b = write_spec(tmp_path, "b.json", {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]})
        code = main(["synthesize", a, b])
        err = capsys.readouterr().err
        assert code == EX_USAGE
        assert "source" in err

    def test_apply_rejects_bad_unitary(self, tmp_path, capsys):
        proto = {
            "branches": [
                {
                    "weight": 1.0,
                    "atom": {
                        "kind": "local_unitary",
                        "u_a": {"re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]},
                        "u_b": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
                    },
                }
            ]
        }
        p = write_spec(tmp_path, "p.json", proto)
        s = write_spec(tmp_path, "s.json", {"kind": "werner", "w": 0.5})
        code = main(["apply", p, s])
        err = capsys.readouterr().err
        assert code == EX_USAGE
        assert "branches[0]" in err

    @staticmethod
    def _flip_then_prepare(target):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        return Protocol(((0.6, LocalUnitary(x, np.eye(2))), (0.4, DiscardPrepare(target))))

    def test_apply_needs_no_lowering(self, tmp_path, capsys):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        vpp = np.kron(plus, plus)
        # separable, but neither classical on one side nor Werner: this
        # protocol has no Kraus lowering, and apply mixes its branches instead
        skew = DensityMatrix(np.diag([0.6, 0, 0, 0]) + 0.4 * np.outer(vpp, vpp.conj()))
        rho = make_mems((0.5, 0.3, 0.1, 0.1))
        u = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        s = write_spec(tmp_path, "s.json", {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]})
        for prepared, lowers in ((make_werner(0.2), True), (skew, False)):
            protocol = self._flip_then_prepare(prepared)
            p = write_spec(tmp_path, "p.json", protocol_to_spec(protocol))
            code, payload = run_json(capsys, ["apply", "--json", p, s])
            assert code == EX_OK
            expected = 0.6 * u @ rho.matrix @ u.T + 0.4 * prepared.matrix
            out = parse_state_spec(payload["state"], "state")
            assert np.linalg.norm(out.matrix - expected) <= 1e-12
            # verification lowers the protocol, which only the Werner target allows
            if lowers:
                assert verify_protocol(protocol, rho, out) <= 1e-12
            else:
                with pytest.raises(NotProductDiagonalError):
                    verify_protocol(protocol, rho, out)

    def test_apply_rejects_nan_weight(self, tmp_path, capsys):
        spec = protocol_to_spec(self._flip_then_prepare(make_werner(0.2)))
        spec["branches"][0]["weight"] = math.nan
        p = write_spec(tmp_path, "p.json", spec)
        s = write_spec(tmp_path, "s.json", {"kind": "werner", "w": 0.5})
        code = main(["apply", "--json", p, s])
        err = json.loads(capsys.readouterr().err)
        assert code == EX_USAGE
        assert err["field"] == "protocol.branches[0].weight"
        assert "nan" in err["error"]


class TestSearchAndAudit:
    def test_search_finds_werner_protocol(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
        code, payload = run_json(capsys, ["search", "--json", a, b])
        assert code == EX_OK
        assert payload["distance"] < 1e-6
        assert payload["protocol"] is not None

    def test_search_miss_exits_three(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.8})
        b = write_spec(tmp_path, "b.json", {"kind": "mems", "lambda": [0.9, 0.1, 0.0, 0.0]})
        code, payload = run_json(capsys, ["search", "--json", "--budget", "4000", a, b])
        assert code == EX_INCONCLUSIVE
        assert payload["protocol"] is None
        assert payload["distance"] > 1e-3

    def test_audit_clean(self, capsys):
        code, payload = run_json(capsys, ["audit", "--json", "--trials", "40", "--seed", "7"])
        assert code == EX_OK
        assert payload["clean"] is True
        assert payload["rank_monotonicity"]["counterexamples"] == []
        assert payload["monotones"]["counterexamples"] == []
        assert 0 <= payload["rank_monotonicity"]["live"]["rank"] <= 40
        assert payload["monotones"]["live"]["concurrence"] == 40
        assert 0 <= payload["monotones"]["live"]["monotones"] <= 40
        rank, mono = payload["rank_monotonicity"], payload["monotones"]
        assert set(rank["skipped"]) == {"local_unitary", "output_not_entangled"}
        assert rank["live"]["rank"] + sum(rank["skipped"].values()) == 40
        assert set(mono["skipped"]) == {"left_bell_diagonal", "output_not_entangled"}
        assert mono["skipped"]["left_bell_diagonal"] == 0
        assert mono["live"]["monotones"] + mono["skipped"]["output_not_entangled"] == 40

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["measures", "--tol", "-1", "{a}"], "--tol"),
            (["measures", "--tol", "nan", "{a}"], "--tol"),
            (["measures", "--tol", "inf", "{a}"], "--tol"),
            (["audit", "--trials", "-5"], "--trials"),
            (["audit", "--trials", "0"], "--trials"),
            (["search", "--budget", "-3", "{a}", "{a}"], "--budget"),
            (["check", "--tol", "0.5", "{a}", "{a}"], "--tol"),
            (["search", "--seed", "42", "{a}", "{a}"], "--seed"),
            (["--json", "check", "{a}", "{a}"], "--json"),
            (["audit", "--seed", "-1"], "--seed"),
        ],
    )
    def test_bad_or_unread_option_is_usage_error(self, tmp_path, capsys, argv, flag):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        with pytest.raises(SystemExit) as err:
            main([arg.format(a=a) for arg in argv])
        assert err.value.code == EX_USAGE
        assert flag in capsys.readouterr().err

    def test_non_number_option_is_usage_error(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
        with pytest.raises(SystemExit) as err:
            main(["measures", "--tol", "abc", a])
        assert err.value.code == EX_USAGE
        assert "--tol: expected a number, got 'abc'" in capsys.readouterr().err

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["check"])
        assert err.value.code == EX_USAGE

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == EX_USAGE


# a JSON integer no double can hold
_HUGE = 10**400
_UNITARY_SPEC = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, spec, field",
        [
            ("check", {"kind": "werner", "w": _HUGE}, "source.w"),
            ("check", {"kind": "mems", "lambda": [_HUGE, 0, 0, 0]}, "target.lambda[0]"),
            ("check", {"kind": "dense", "re": [[_HUGE] * 4] * 4, "im": [[0] * 4] * 4},
             "source.re[0][0]"),
            ("apply", {"branches": [{"weight": _HUGE, "atom": {
                "kind": "local_unitary", "u_a": _UNITARY_SPEC, "u_b": _UNITARY_SPEC}}]},
             "protocol.branches[0].weight"),
            ("apply", {"branches": [{"weight": 1.0, "atom": {
                "kind": "local_unitary", "u_a": _UNITARY_SPEC,
                "u_b": {**_UNITARY_SPEC, "im": [[0, 0], [0, _HUGE]]}}}]},
             "protocol.branches[0].atom.u_b.im[1][1]"),
        ],
        ids=["werner_w", "lambda", "dense_grid", "protocol_weight", "unitary_grid"],
    )
    def test_number_too_large_for_a_double_is_usage_error(
        self, tmp_path, capsys, command, spec, field
    ):
        bad = write_spec(tmp_path, "bad.json", spec)
        good = write_spec(tmp_path, "good.json", {"kind": "werner", "w": 0.5})
        files = [good, bad] if field.startswith("target") else [bad, good]
        code = main([command, "--json", *files])
        err = json.loads(capsys.readouterr().err)
        assert code == EX_USAGE
        assert err["field"] == field

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["check", "{bad}", "{good}"], "source"),
            (["check", "{good}", "{bad}"], "target"),
            (["measures", "{bad}"], "state"),
            (["apply", "{bad}", "{good}"], "protocol"),
        ],
    )
    def test_file_not_utf8_is_usage_error(self, tmp_path, capsys, argv, where):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"kind": "werner", "w": 0.5}')
        good = write_spec(tmp_path, "good.json", {"kind": "werner", "w": 0.5})
        code = main([arg.format(bad=bad, good=good) for arg in argv] + ["--json"])
        err = json.loads(capsys.readouterr().err)
        assert code == EX_USAGE
        assert err["field"] == where

    _STATES = [
        {"kind": "werner", "w": 0.9},
        {"kind": "bell_diagonal", "lambda": [0.6, 0.2, 0.1, 0.1]},
        {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]},
        state_to_spec(make_bell_diagonal((0.55, 0.25, 0.15, 0.05))),
    ]
    # a kept branch (local_unitary) and a refill branch (discard_prepare)
    _PROTOCOL = protocol_to_spec(
        keep_or_refill(0.9, DiscardPrepare(make_werner(0.2)), "a Werner state")[0]
    )
    _REPLACEMENTS = {"bool": True, "nan": math.nan, "infinity": math.inf, "huge": _HUGE}

    @staticmethod
    def _paths(obj, path=()):
        """The path of every value inside a JSON document, the root's included."""
        yield path
        if isinstance(obj, (dict, list)):
            for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
                yield from TestMalformedInput._paths(value, path + (key,))

    @classmethod
    def _mutate(cls, spec, data):
        """``spec`` with one value dropped, retyped, replaced or nested one level deeper."""
        holder = [json.loads(json.dumps(spec))]
        path = data.draw(st.sampled_from(list(cls._paths(holder))[1:]), label="path")
        mutations = ["wrong_type", "nest", *cls._REPLACEMENTS]
        if isinstance(path[-1], str):
            mutations.append("drop")  # an object's key, not a list entry
        mutation = data.draw(st.sampled_from(mutations), label="mutation")
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if mutation == "drop":
            del parent[path[-1]]
        elif mutation == "wrong_type":
            parent[path[-1]] = 7 if isinstance(value, str) else "x"
        elif mutation == "nest":
            parent[path[-1]] = [value]
        else:
            parent[path[-1]] = cls._REPLACEMENTS[mutation]
        return holder[0]

    def _run(self, tmp_path, capsys, argv) -> None:
        code = main([arg.format(tmp=tmp_path) for arg in argv] + ["--json"])
        captured = capsys.readouterr()
        assert code == EX_USAGE, captured
        assert captured.out == ""
        assert json.loads(captured.err)["field"]

    def test_branch_weights_off_one_are_usage_error(self, tmp_path, capsys):
        spec = json.loads(json.dumps(self._PROTOCOL))
        spec["branches"][0]["weight"] -= 0.01
        p = write_spec(tmp_path, "p.json", spec)
        s = write_spec(tmp_path, "s.json", {"kind": "werner", "w": 0.5})
        code = main(["apply", "--json", p, s])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["field"] == "protocol.branches"
        assert "sum to 1" in err["error"]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_mutated_state_file_is_usage_error(self, tmp_path, capsys, data):
        spec = data.draw(st.sampled_from(self._STATES), label="state")
        (tmp_path / "s.json").write_text(json.dumps(self._mutate(spec, data)))
        self._run(tmp_path, capsys, ["measures", "{tmp}/s.json"])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_mutated_protocol_file_is_usage_error(self, tmp_path, capsys, data):
        (tmp_path / "p.json").write_text(json.dumps(self._mutate(self._PROTOCOL, data)))
        write_spec(tmp_path, "s.json", {"kind": "werner", "w": 0.5})
        self._run(tmp_path, capsys, ["apply", "{tmp}/p.json", "{tmp}/s.json"])


_SCIPY_PROBE = """
import json, operator, sys
import entconv, entconv.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
code = entconv.cli.main(["check", sys.argv[1], sys.argv[2]])
after_check = scipy_modules()
check_oracle = "entconv.oracle" in sys.modules
# importing numpy.random is a large share of an audit call's start-up
check_random = "numpy.random" in sys.modules
audit_code = entconv.cli.main(["audit", "--trials", "4"])
after_audit = scipy_modules()
# np.unique imports numpy.ma on first use, a cost the audit does not need
audit_ma = "numpy.ma" in sys.modules
audit_oracle = "entconv.oracle" in sys.modules

# as perfbench's tracer does: wrap oracle.minimize and read each result's nfev
solves = []
solve = entconv.oracle.minimize

def counting(*args, **kwargs):
    result = solve(*args, **kwargs)
    solves.append(operator.index(result.nfev))
    return result

entconv.oracle.minimize = counting
search_code = entconv.cli.main(["search", sys.argv[1], sys.argv[2]])
print(json.dumps({"import": after_import, "check": after_check, "code": code,
                  "check_oracle": check_oracle, "check_random": check_random,
                  "audit_oracle": audit_oracle,
                  "audit_code": audit_code, "audit_ma": audit_ma, "audit": after_audit,
                  "search_code": search_code, "solves": solves,
                  "search": scipy_modules()}))
"""

# what the benchmark's load_package does: import entconv.cli, then read each
# module off the package, oracle included although nothing has imported it yet
_LOAD_PROBE = """
import json, sys
import entconv, entconv.cli

before = "entconv.oracle" in sys.modules
found = {name: getattr(entconv, name).__name__ for name in sys.argv[1:]}
print(json.dumps({"before": before, "found": found}))
"""


def _fresh_probe(script, *args) -> dict:
    # a fresh interpreter, since this one has long imported oracle (and the
    # solver tests import scipy as their reference)
    env = {**os.environ, "PYTHONPATH": str(Path(entconv.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_package_never_imports_scipy(tmp_path, load_package_names):
    a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
    b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
    probe = _fresh_probe(_SCIPY_PROBE, a, b)
    assert probe["import"] == []
    assert probe["code"] == EX_OK
    assert probe["check"] == []
    # check needs no falsifier, so the oracle module is not even compiled,
    # and draws no random numbers, so numpy.random is not imported
    assert not probe["check_oracle"]
    assert not probe["check_random"]
    assert probe["audit_code"] == EX_OK
    assert probe["audit_oracle"]
    assert not probe["audit_ma"]
    assert probe["audit"] == []
    # the search solves in numpy, and the tracer's wrapper reads an integer nfev
    assert probe["search_code"] == EX_OK
    assert len(probe["solves"]) == 1 and probe["solves"][0] > 0
    assert probe["search"] == []
    loaded = _fresh_probe(_LOAD_PROBE, *load_package_names)
    assert not loaded["before"]
    assert loaded["found"] == {name: f"entconv.{name}" for name in load_package_names}


def test_python_dash_m_entconv_matches_main(tmp_path, capsys):
    # the benchmark's cli-session runs the package this way: a fresh
    # interpreter, the source tree on PYTHONPATH, through __main__
    a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
    b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
    env = {**os.environ, "PYTHONPATH": str(Path(entconv.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "entconv", "check", "--json", a, b],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EX_OK, proc.stderr
    code, payload = run_json(capsys, ["check", "--json", a, b])
    assert code == EX_OK
    assert json.loads(proc.stdout) == payload
