"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` replaces each traced function with a wrapper at every
name a caller looks it up by: the defining module and every ``entconv``
module that imported the same object by name (``convertibility`` imports
``compile_protocol``, ``oracle`` imports ``minimize`` from scipy, and so
on). Classes are traced through their ``__init__``. ``uninstall()`` puts
the originals back. The package's source is never edited.

A span is (name, start, end, parent); spans stay in memory as parallel
lists and are written out once, at the end of the run. Self time is a
span's duration minus the durations of its direct children; calls run on
one thread, so children nest inside their parent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a class is traced through its __init__
TRACED = (
    ("entconv.kernels", "hermitian_eigh", "kernels.hermitian_eigh"),
    ("entconv.kernels", "kron2", "kernels.kron2"),
    ("entconv.kernels", "apply_kraus", "kernels.apply_kraus"),
    ("entconv.kernels", "kraus_gram", "kernels.kraus_gram"),
    ("entconv.kernels", "partial_transpose", "kernels.partial_transpose"),
    ("entconv.kernels", "singular_values", "kernels.singular_values"),
    ("entconv.qmat", "hermitian_eig", "qmat.hermitian_eig"),
    ("entconv.states", "DensityMatrix", "states.DensityMatrix"),
    ("entconv.states", "classify_family", "states.classify_family"),
    ("entconv.states", "is_entangled", "states.is_entangled"),
    ("entconv.measures", "concurrence", "measures.concurrence"),
    ("entconv.measures", "bell_monotones", "measures.bell_monotones"),
    ("entconv.channels", "SeparableChannel", "channels.SeparableChannel"),
    ("entconv.channels", "compile_protocol", "channels.compile_protocol"),
    ("entconv.channels", "discard_prepare_channel", "channels.discard_prepare_channel"),
    ("entconv.channels", "product_diagonal_decomposition",
     "channels.product_diagonal_decomposition"),
    ("entconv.channels", "mix", "channels.mix"),
    ("entconv.convertibility", "decide", "convertibility.decide"),
    ("entconv.convertibility", "verify_protocol", "convertibility.verify_protocol"),
    ("entconv.oracle", "random_separable_channel", "oracle.random_separable_channel"),
    ("entconv.oracle", "falsify_rank_monotonicity", "oracle.falsify_rank_monotonicity"),
    ("entconv.oracle", "monotone_audit", "oracle.monotone_audit"),
    ("entconv.oracle", "convert_search", "oracle.convert_search"),
    ("entconv.oracle", "minimize", "oracle.minimize"),
)


def _kraus_ops(args, kwargs):
    return len(args[0])


def _pairs_built(args, kwargs):
    # SeparableChannel.__init__(self, pairs, ...)
    return len(kwargs["pairs"] if "pairs" in kwargs else args[1])


def _nfev(result):
    return "oracle.minimize.nfev", int(result.nfev), None


def _verdict(result):
    kind = type(result).__name__.lower()
    return f"convertibility.verdicts.{kind}", 1, kind


# span name -> (counter, function(args, kwargs) giving the amount to add)
ARG_COUNTERS = {
    "kernels.apply_kraus": ("kernels.apply_kraus.kraus_ops", _kraus_ops),
    "channels.SeparableChannel": ("channels.kraus_pairs_built", _pairs_built),
}
# span name -> function(result) giving (counter, amount, tag for the span or None)
RESULT_COUNTERS = {
    "oracle.minimize": _nfev,
    "convertibility.decide": _verdict,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.tags: dict = {}
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if arg_counter is not None:
                tracer.counters[arg_counter[0]] += arg_counter[1](args, kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if result_counter is not None:
                key, amount, tag = result_counter(result)
                tracer.counters[key] += amount
                if tag is not None:
                    tracer.tags[sid] = tag
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "entconv" or n.startswith("entconv."))]
        for module_name, attr, name in TRACED:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patches.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(init, name))
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def durations_ns(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times_ns(self) -> list:
        dur = self.durations_ns()
        own = list(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def totals(self) -> dict:
        """Per span name: calls, self_ms and total_ms."""
        out: dict = {}
        dur = self.durations_ns()
        for name, d, own in zip(self.names, dur, self.self_times_ns()):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += own / 1e6
            entry["total_ms"] += d / 1e6
        return out

    def verify_share(self) -> float:
        """Verify time over decide time, summed over Convertible decides."""
        dur = self.durations_ns()
        decide_ns = {sid: dur[sid] for sid, tag in self.tags.items() if tag == "convertible"}
        verify_ns = 0
        for sid, name in enumerate(self.names):
            if name != "convertibility.verify_protocol":
                continue
            parent = self.parents[sid]
            while parent >= 0 and self.names[parent] != "convertibility.decide":
                parent = self.parents[parent]
            if parent in decide_ns:
                verify_ns += dur[sid]
        total = sum(decide_ns.values())
        return verify_ns / total if total else 0.0

    def merge(self, other: dict) -> None:
        """Append spans and counters dumped by ``to_dict`` in another process."""
        offset = len(self.names)
        names = other["names"]
        for idx, start, end, parent in other["spans"]:
            self.names.append(names[idx])
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + offset if parent >= 0 else -1)
        for sid, tag in other.get("tags", {}).items():
            self.tags[int(sid) + offset] = tag
        for key, value in other["counters"].items():
            self.counters[key] += value

    def to_dict(self) -> dict:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "tags": {str(k): v for k, v in self.tags.items()},
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
