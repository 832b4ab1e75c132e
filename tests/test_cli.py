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
from entconv.convertibility import keep_or_refill, verify_protocol
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

    def test_infeasible_exit_three(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", {"kind": "mems", "lambda": [0.45, 0.45, 0.05, 0.05]})
        b = write_spec(tmp_path, "b.json", {"kind": "mems", "lambda": [0.4, 0.3, 0.3, 0.0]})
        code, payload = run_json(capsys, ["synthesize", "--json", a, b])
        assert code == EX_INCONCLUSIVE
        assert payload["verdict"] == "Infeasible"
        assert payload["detail"]

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
    def _flip_then_prepare_werner():
        # Werner 0.2 is separable but has no product eigenbasis, so this
        # protocol has no Kraus lowering; apply mixes its branches instead
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        return Protocol(
            ((0.6, LocalUnitary(x, np.eye(2))), (0.4, DiscardPrepare(make_werner(0.2))))
        )

    def test_apply_needs_no_lowering(self, tmp_path, capsys):
        protocol = self._flip_then_prepare_werner()
        p = write_spec(tmp_path, "p.json", protocol_to_spec(protocol))
        s = write_spec(tmp_path, "s.json", {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]})
        code, payload = run_json(capsys, ["apply", "--json", p, s])
        assert code == EX_OK
        rho = make_mems((0.5, 0.3, 0.1, 0.1))
        u = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        expected = 0.6 * u @ rho.matrix @ u.T + 0.4 * make_werner(0.2).matrix
        out = parse_state_spec(payload["state"], "state")
        assert np.linalg.norm(out.matrix - expected) <= 1e-12
        # verification still lowers the protocol, which this target refuses
        with pytest.raises(NotProductDiagonalError):
            verify_protocol(protocol, rho, out)

    def test_apply_rejects_nan_weight(self, tmp_path, capsys):
        spec = protocol_to_spec(self._flip_then_prepare_werner())
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
        assert rank["skipped"] == {"output_not_entangled": 40 - rank["live"]["rank"]}
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
    _PROTOCOL = protocol_to_spec(keep_or_refill(0.9, make_werner(0.2)))
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
result = entconv.oracle.minimize(lambda x: float(x @ x), [1.0, 2.0], method="SLSQP")
print(json.dumps({"import": after_import, "check": after_check, "code": code,
                  "nfev": operator.index(result.nfev),
                  "search": bool(scipy_modules())}))
"""


def test_scipy_loads_only_when_a_search_runs(tmp_path):
    # a fresh interpreter, since this one has long imported scipy
    a = write_spec(tmp_path, "a.json", {"kind": "werner", "w": 0.9})
    b = write_spec(tmp_path, "b.json", {"kind": "werner", "w": 0.45})
    env = {**os.environ, "PYTHONPATH": str(Path(entconv.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, a, b], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["import"] == []
    assert probe["code"] == EX_OK
    assert probe["check"] == []
    # perfbench's tracer wraps oracle.minimize and reads an integer nfev
    assert probe["nfev"] > 0
    assert probe["search"]
