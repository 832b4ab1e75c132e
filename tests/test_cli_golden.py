"""Golden output of the command line: every plain-text line and every key of
each ``--json`` payload, in order, for one call per verdict kind.

The expected stdout of call NAME in FORM (text or json) is the file
``golden_cli/NAME.FORM.txt``; the audit's timings are masked on both sides.
The other CLI tests check values; these pin the bytes, so a change to how
the payloads are built cannot move a key, a line or a float's repr unseen.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from entconv.cli import EX_FORBIDDEN, EX_INCONCLUSIVE, EX_OK, main
from entconv.states import make_mems

GOLDEN = Path(__file__).resolve().parent / "golden_cli"


def _dense_spec() -> dict:
    g = np.random.default_rng(3).normal(size=(4, 4))
    mat = g @ g.T
    mat = mat / np.trace(mat)
    return {"kind": "dense", "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()}


def _off_fit_mems_spec(weights, sign: float) -> dict:
    """The mixture-form state of ``weights`` moved 7e-9 off its fit along diag(1, 0, 0, -1)."""
    mat = make_mems(weights).matrix + sign * np.diag([7e-9, 0.0, 0.0, -7e-9])
    return {"kind": "dense", "re": mat.real.tolist(), "im": mat.imag.tolist()}


STATES = {
    "w9.json": {"kind": "werner", "w": 0.9},
    "w45.json": {"kind": "werner", "w": 0.45},
    "w4.json": {"kind": "werner", "w": 0.4},
    "b7.json": {"kind": "bell_diagonal", "lambda": [0.7, 0.1, 0.1, 0.1]},
    "b6.json": {"kind": "bell_diagonal", "lambda": [0.6, 0.2, 0.1, 0.1]},
    "m5.json": {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]},
    "m46.json": {"kind": "mems", "lambda": [0.46, 0.34, 0.1, 0.1]},
    "m45.json": {"kind": "mems", "lambda": [0.45, 0.45, 0.05, 0.05]},
    "m4.json": {"kind": "mems", "lambda": [0.4, 0.3, 0.3, 0.0]},
    "dense.json": _dense_spec(),
    "m5_off.json": _off_fit_mems_spec((0.5, 0.3, 0.1, 0.1), 1.0),
    "m46_off.json": _off_fit_mems_spec((0.46, 0.34, 0.1, 0.1), -1.0),
}

# name -> (argv, exit code)
CALLS = {
    "check_convertible_with_protocol": (["check", "w9.json", "w45.json"], EX_OK),
    "check_bell_convertible": (["check", "b7.json", "b6.json"], EX_OK),
    "check_forbidden": (["check", "w4.json", "w9.json"], EX_FORBIDDEN),
    "check_inconclusive": (["check", "dense.json", "b7.json"], EX_INCONCLUSIVE),
    "measures_bell_diagonal": (["measures", "b6.json"], EX_OK),
    "measures_general": (["measures", "--tol", "1e-3", "dense.json"], EX_OK),
    "synthesize_feasible": (["synthesize", "m5.json", "m46.json"], EX_OK),
    "synthesize_infeasible": (["synthesize", "m45.json", "m4.json"], EX_INCONCLUSIVE),
    # the plan meets the mixture-form fits but not the given dense states
    "synthesize_fit_only": (["synthesize", "m5_off.json", "m46_off.json"], EX_INCONCLUSIVE),
    "audit": (["audit", "--trials", "40", "--seed", "7"], EX_OK),
}


def _mask_timings(out: str) -> str:
    out = re.sub(r'("elapsed": )[-+.0-9e]+', r"\1X", out)
    return re.sub(r"\([.0-9]+s\)", "(Xs)", out)


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("name", list(CALLS))
def test_stdout_matches_golden(tmp_path, monkeypatch, capsys, name, form):
    monkeypatch.chdir(tmp_path)
    for file, spec in STATES.items():
        (tmp_path / file).write_text(json.dumps(spec))
    argv, expected_code = CALLS[name]
    code = main(argv + (["--json"] if form == "json" else []))
    out = _mask_timings(capsys.readouterr().out)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.{form}.txt").read_text(encoding="utf-8")
