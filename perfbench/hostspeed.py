"""How fast the host runs right now, from a fixed probe that shares no code
with the package.

The benchmark's figures come from a small virtual machine on a shared host
whose speed drifts: a fixed piece of Python and numpy work takes anywhere
from 12 to 21 ms within a minute, with almost no CPU time reported as
stolen, and a whole 30-second run can sit in a slow phase. The workloads
therefore run a short probe between their operations (never inside a
timed one), and every time measured in a pass is rescaled to the speed at
which the probe takes ``REFERENCE_NS``:

    time at reference speed = measured time * REFERENCE_NS / probe time

where the probe time is the median of the probes run during that pass. A
change to the package moves the measured time and leaves the probe alone,
so it shows in full; a slow phase of the host moves both and cancels.

The probe mixes what the in-process workloads spend their time on:
interpreted Python, and numpy calls on 2x2 and 4x4 complex matrices
(Kronecker products, Hermitian eigendecompositions, matrix products).

A fresh process spends its time differently (exec, page faults, reading
and compiling modules), and its time does not follow that probe: on
cli-session, rescaling by it left the spread of the median call time at
0.115 over six seeds, against 0.149 raw. So fresh-process timings (CLI
calls and set-up) are rescaled by ``start_probe``, a fresh interpreter
that imports numpy, run just before each of them, to the speed at which
it takes ``START_REFERENCE_NS``; that read 0.03-0.04 on every cli-session
figure.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# the probe's median time on the reference host (2-core VM, Python 3.11,
# numpy 2.4, BLAS on one thread); it only sets the scale of the figures
REFERENCE_NS = 900_000
# the start probe's median time on the same host
START_REFERENCE_NS = 150_000_000
START_PROBE_TIMEOUT_S = 60

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2))
_B = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_H = _B + _B.conj().T


def _probe_work() -> float:
    acc = 0.0
    for i in range(3000):
        acc += (i * i) % 7
    for _ in range(12):
        k = np.kron(_A, _A)
        w, v = np.linalg.eigh(_H)
        acc += float((k @ v).real.sum()) + float(w[0])
    return acc


def probe() -> int:
    """Nanoseconds the probe takes now."""
    t0 = time.perf_counter_ns()
    _probe_work()
    return time.perf_counter_ns() - t0


def speed_factor(probes_ns: list, reference_ns: int = REFERENCE_NS) -> float:
    """Multiply a time measured among these probes by this to get the time
    at reference speed."""
    return reference_ns / statistics.median(probes_ns)


def start_probe() -> int:
    """Nanoseconds a fresh interpreter takes to start, import numpy and exit."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=START_PROBE_TIMEOUT_S)
    return time.perf_counter_ns() - t0
