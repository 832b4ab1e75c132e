"""Command line front end over the decision, synthesis and audit machinery.

State and protocol arguments are paths to JSON files. A state file carries a
``kind`` tag with that family's parameters:

    {"kind": "werner", "w": 0.9}
    {"kind": "bell_diagonal", "lambda": [0.7, 0.1, 0.1, 0.1]}
    {"kind": "mems", "lambda": [0.5, 0.3, 0.1, 0.1]}
    {"kind": "dense", "re": [[...4x4...]], "im": [[...4x4...]]}

Exit codes: 0 convertible (or success), 2 forbidden, 3 inconclusive or not
found, 64 malformed input (the diagnostic names the offending field), 70
internal failure. All work is single threaded and seeded, so runs repeat
bit-for-bit. Floats serialize through repr, which round-trips doubles
exactly; infinities become the strings "inf" / "-inf" since JSON has no
literal for them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .channels import DiscardPrepare, LocalUnitary, Protocol
from .convertibility import (
    Convertible,
    Forbidden,
    Inconclusive,
    decide,
    keep_or_refill,
    synthesize_mems_protocol,
    verify_protocol,
)
from .errors import EntconvError, InfeasibleError
from .measures import bell_monotones, concurrence, eof, negativity
from .oracle import convert_search, falsify_rank_monotonicity, monotone_audit
from .states import (
    DensityMatrix,
    MemsWeights,
    classify_family,
    make_bell_diagonal,
    make_mems,
    make_werner,
)

EX_OK = 0
EX_FORBIDDEN = 2
EX_INCONCLUSIVE = 3
EX_USAGE = 64
EX_SOFTWARE = 70


class _InputError(Exception):
    """Malformed user input; carries the offending field for the diagnostic."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
        self.message = message


def _jsonify(value):
    """Make a payload JSON-safe: tuples to lists, non-finite floats to strings."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _field(obj: dict, field: str):
    """The value under the last key of ``field``, the dotted name diagnostics use."""
    key = field.rsplit(".", 1)[-1]
    if key not in obj:
        raise _InputError(field, "missing required field")
    return obj[key]


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _InputError(field, f"must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        # a JSON integer beyond the largest double
        raise _InputError(field, "number too large for a double") from None
    if not math.isfinite(x):
        raise _InputError(field, f"must be finite, got {x!r}")
    return x


def _num(obj: dict, field: str) -> float:
    return _number(_field(obj, field), field)


def _vec4(obj: dict, field: str) -> tuple:
    value = _field(obj, field)
    if not isinstance(value, list) or len(value) != 4:
        raise _InputError(field, "must be a list of 4 numbers")
    return tuple(_number(x, f"{field}[{i}]") for i, x in enumerate(value))


def _grid(obj: dict, field: str, n: int) -> np.ndarray:
    value = _field(obj, field)
    if (
        not isinstance(value, list)
        or len(value) != n
        or any(not isinstance(row, list) or len(row) != n for row in value)
    ):
        raise _InputError(field, f"must be a {n}x{n} grid of numbers")
    return np.array(
        [[_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)]
         for i, row in enumerate(value)]
    )


def parse_state_spec(obj, where: str) -> DensityMatrix:
    """Parse one tagged state object, naming the offending field on failure."""
    if not isinstance(obj, dict):
        raise _InputError(where, "must be a JSON object")
    kind = obj.get("kind")
    try:
        if kind == "werner":
            return make_werner(_num(obj, f"{where}.w"))
        if kind in ("bell_diagonal", "mems"):
            weights = _vec4(obj, f"{where}.lambda")
            maker = make_bell_diagonal if kind == "bell_diagonal" else make_mems
            return maker(weights)
        if kind == "dense":
            re = _grid(obj, f"{where}.re", 4)
            im = _grid(obj, f"{where}.im", 4)
            return DensityMatrix(re + 1j * im)
    except EntconvError as exc:
        raise _InputError(where, str(exc)) from exc
    raise _InputError(
        f"{where}.kind",
        f"must be one of werner, bell_diagonal, mems, dense; got {kind!r}",
    )


def _complex_grid_to_spec(mat: np.ndarray) -> dict:
    return {
        "re": [[float(x) for x in row] for row in mat.real],
        "im": [[float(x) for x in row] for row in mat.imag],
    }


def state_to_spec(rho: DensityMatrix) -> dict:
    return {"kind": "dense", **_complex_grid_to_spec(rho.matrix)}


def _complex_grid_from_spec(obj, where: str, n: int) -> np.ndarray:
    if not isinstance(obj, dict):
        raise _InputError(where, "must be a JSON object with re and im grids")
    return _grid(obj, f"{where}.re", n) + 1j * _grid(obj, f"{where}.im", n)


def protocol_to_spec(protocol: Protocol) -> dict:
    branches = []
    for weight, atom in protocol.branches:
        if isinstance(atom, LocalUnitary):
            spec = {
                "kind": "local_unitary",
                "u_a": _complex_grid_to_spec(atom.u_a),
                "u_b": _complex_grid_to_spec(atom.u_b),
            }
        else:
            spec = {"kind": "discard_prepare", "target": state_to_spec(atom.target)}
        branches.append({"weight": float(weight), "atom": spec})
    return {"branches": branches}


def parse_protocol_spec(obj, where: str = "protocol") -> Protocol:
    if not isinstance(obj, dict) or not isinstance(obj.get("branches"), list):
        raise _InputError(f"{where}.branches", "must be a list of weighted atoms")
    branches = []
    for i, entry in enumerate(obj["branches"]):
        here = f"{where}.branches[{i}]"
        if not isinstance(entry, dict):
            raise _InputError(here, "must be a JSON object")
        weight = _num(entry, f"{here}.weight")
        atom_obj = entry.get("atom")
        if not isinstance(atom_obj, dict):
            raise _InputError(f"{here}.atom", "missing or not an object")
        kind = atom_obj.get("kind")
        try:
            if kind == "local_unitary":
                atom = LocalUnitary(
                    _complex_grid_from_spec(atom_obj.get("u_a"), f"{here}.atom.u_a", 2),
                    _complex_grid_from_spec(atom_obj.get("u_b"), f"{here}.atom.u_b", 2),
                )
            elif kind == "discard_prepare":
                atom = DiscardPrepare(
                    parse_state_spec(atom_obj.get("target"), f"{here}.atom.target")
                )
            else:
                raise _InputError(
                    f"{here}.atom.kind",
                    f"must be local_unitary or discard_prepare, got {kind!r}",
                )
        except EntconvError as exc:
            raise _InputError(f"{here}.atom", str(exc)) from exc
        branches.append((weight, atom))
    try:
        return Protocol(tuple(branches))
    except EntconvError as exc:
        raise _InputError(f"{where}.branches", str(exc)) from exc


def _load_json(path: str, where: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(where, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # also a file that is not UTF-8, and an integer past Python's digit limit
        raise _InputError(where, f"invalid JSON in {path}: {exc}") from exc


def _load_state(path: str, where: str) -> DensityMatrix:
    return parse_state_spec(_load_json(path, where), where)


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(_jsonify(payload), indent=2))
    else:
        for line in lines:
            print(line)


def _family_payload(tag) -> dict:
    if tag.kind == "werner":
        params = {"w": tag.params.w}
    elif tag.kind in ("bell_diagonal", "mems"):
        params = {"lambda": list(tag.params.weights)}
    else:
        params = None
    return {"kind": tag.kind, "params": params}


_VERDICT_EXIT = {Convertible: EX_OK, Forbidden: EX_FORBIDDEN, Inconclusive: EX_INCONCLUSIVE}


def cmd_check(args) -> int:
    source = _load_state(args.source, "source")
    target = _load_state(args.target, "target")
    verdict = decide(source, target)
    # a Convertible verdict carries a certificate, the others a detail
    note = "certificate" if isinstance(verdict, Convertible) else "detail"
    protocol = getattr(verdict, "protocol", None)
    payload = {
        "verdict": type(verdict).__name__,
        "reason": getattr(verdict, "reason", None),
        note: getattr(verdict, note),
        "protocol": protocol_to_spec(protocol) if protocol is not None else None,
        "residual": getattr(verdict, "residual", None),
    }
    lines = [
        f"{key}: {payload[key]}" for key in ("verdict", "reason", note) if payload[key] is not None
    ]
    if protocol is not None:
        lines.append(f"protocol: {len(protocol.branches)} branches")
        lines.append(f"residual: {verdict.residual!r}")
    _emit(args, payload, lines)
    return _VERDICT_EXIT[type(verdict)]


def cmd_measures(args) -> int:
    rho = _load_state(args.state, "state")
    tag = classify_family(rho)
    measures = {
        "concurrence": concurrence(rho),
        "eof": eof(rho),
        "negativity": negativity(rho),
        "purity": rho.purity(),
        "entropy": rho.entropy(),
        "rank": rho.rank(args.tol),
        "family": _family_payload(tag),
        "monotones": None,
    }
    lines = [f"{name}: {value!r}" for name, value in list(measures.items())[:6]]
    family = tag.kind
    for key, value in (measures["family"]["params"] or {}).items():
        family += f" ({key}={value!r})"
    lines.append(f"family: {family}")
    bell = tag.bell_weights()
    if bell is not None:
        triple = bell_monotones(bell)
        measures["monotones"] = [triple.e1, triple.e2, triple.e3]
        lines.append(f"monotones: ({triple.e1!r}, {triple.e2!r}, {triple.e3!r})")
    _emit(args, {"measures": measures}, lines)
    return EX_OK


def _mixture_weights_of(rho: DensityMatrix, where: str) -> MemsWeights:
    weights = classify_family(rho).mems_weights()
    if weights is None:
        raise _InputError(where, "state is not of the maximally-entangled-mixture form")
    return weights


def cmd_synthesize(args) -> int:
    source = _load_state(args.source, "source")
    target = _load_state(args.target, "target")
    sw = _mixture_weights_of(source, "source")
    tw = _mixture_weights_of(target, "target")
    try:
        params = synthesize_mems_protocol(sw, tw)
    except InfeasibleError as exc:
        payload = {"verdict": "Infeasible", "detail": str(exc)}
        _emit(args, payload, ["verdict: Infeasible", f"detail: {exc}"])
        return EX_INCONCLUSIVE
    protocol = keep_or_refill(params.W, params.prepared_state())
    residual = verify_protocol(protocol, source, target)
    payload = {
        "verdict": "Synthesized",
        "W": params.W,
        "prep_weights": list(params.prep_weights),
        "protocol": protocol_to_spec(protocol),
        "residual": residual,
    }
    lines = [
        f"W: {params.W!r}",
        f"prep_weights: {list(params.prep_weights)!r}",
        f"residual: {residual!r}",
    ]
    _emit(args, payload, lines)
    return EX_OK


def cmd_apply(args) -> int:
    protocol = parse_protocol_spec(_load_json(args.protocol, "protocol"))
    rho = _load_state(args.state, "state")
    out = protocol.apply(rho)
    payload = {"state": state_to_spec(out)}
    lines = []
    for row in out.matrix:
        lines.append("  ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row))
    _emit(args, payload, lines)
    return EX_OK


def cmd_search(args) -> int:
    source = _load_state(args.source, "source")
    target = _load_state(args.target, "target")
    distance, protocol = convert_search(source, target, budget=args.budget)
    found = protocol is not None
    payload = {
        "distance": distance,
        "protocol": protocol_to_spec(protocol) if found else None,
        "residual": distance if found else None,
    }
    lines = [f"distance: {distance!r}"]
    lines.append(
        f"protocol: found ({len(protocol.branches)} branches)" if found else "protocol: none"
    )
    _emit(args, payload, lines)
    return EX_OK if found else EX_INCONCLUSIVE


def cmd_audit(args) -> int:
    # the falsifiers are looked up per call, so a tracer's patch of this module applies
    audits = (
        ("rank_monotonicity", falsify_rank_monotonicity, "counterexamples"),
        ("monotones", monotone_audit, "violations"),
    )
    payload = {"trials": args.trials}
    lines = []
    clean = True
    for name, falsifier, found in audits:
        report = falsifier(args.trials, args.seed)
        payload[name] = {
            "counterexamples": report.counterexamples,
            "elapsed": report.elapsed,
            "live": dict(report.live),
            "skipped": dict(report.skipped),
        }
        lines.append(
            f"{name}: {len(report.counterexamples)} {found} "
            f"in {report.trials} trials ({report.elapsed:.2f}s)"
        )
        clean &= report.clean
    payload["clean"] = clean
    lines.append(f"clean: {clean}")
    _emit(args, payload, lines)
    return EX_OK if clean else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _option(parse, requirement: str, holds):
    """An argparse type: ``parse`` (float or int) the text, then require ``holds``."""
    noun = "a number" if parse is float else "an integer"

    def read(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return read


_positive_tol = _option(float, "finite and positive", lambda x: math.isfinite(x) and x > 0.0)
_positive_int = _option(int, "a positive integer", lambda n: n >= 1)
_seed = _option(int, "a non-negative integer", lambda n: n >= 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entconv",
        description="Two-qubit convertibility: decisions, synthesis, search, audits.",
    )
    output = _Parser(add_help=False)
    output.add_argument(
        "--json", action="store_true", help="emit a JSON payload instead of plain text"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", parents=[output], help="decide source -> target convertibility")
    p.add_argument("source", help="path to the source state JSON")
    p.add_argument("target", help="path to the target state JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("measures", parents=[output], help="entanglement measures of one state")
    p.add_argument("state", help="path to the state JSON")
    p.add_argument(
        "--tol",
        type=_positive_tol,
        default=1e-9,
        help="tolerance of the rank readout (default 1e-9)",
    )
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser(
        "synthesize", parents=[output], help="solve for the two-branch mixture protocol"
    )
    p.add_argument("source", help="path to the source state JSON")
    p.add_argument("target", help="path to the target state JSON")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("apply", parents=[output], help="apply a protocol file to a state file")
    p.add_argument("protocol", help="path to the protocol JSON")
    p.add_argument("state", help="path to the state JSON")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("search", parents=[output], help="numeric protocol search")
    p.add_argument("source", help="path to the source state JSON")
    p.add_argument("target", help="path to the target state JSON")
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=20000,
        help="iteration cap of the convex least-squares solve",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("audit", parents=[output], help="run the randomized falsifiers")
    p.add_argument("--trials", type=_positive_int, default=1000, help="trials per falsifier")
    p.add_argument("--seed", type=_seed, default=42, help="seed of the falsifiers (default 42)")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        if args.json:
            print(json.dumps({"error": exc.message, "field": exc.field}), file=sys.stderr)
        else:
            print(f"entconv: error: {exc.field}: {exc.message}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:  # internal invariant failure
        print(f"entconv: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
