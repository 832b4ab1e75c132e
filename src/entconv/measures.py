"""Entanglement measures and the ordering monotones for Bell-diagonal states.

Each Bell-diagonal monotone is a ratio, and ``monotone_ratios`` is the one
place that writes its numerator and denominator. ``bell_monotones`` divides
them, with +inf for a zero denominator, for display and for the falsifiers;
``decide_bell`` cross-multiplies them with a 1e-12 tie band, so rounding
cannot split an exact tie.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kernels, qmat
from .errors import OutOfRangeError
from .states import BellWeights, _mat_of, _pt_spectrum

_YY = qmat.read_only(kernels.kron2(qmat.SIGMA_Y, qmat.SIGMA_Y))


class MonotoneTriple(NamedTuple):
    """The three ordering monotones of a Bell-diagonal state.

    Only meaningful for non-ascending weights; values may be +inf.
    """

    e1: float
    e2: float
    e3: float


def monotone_ratios(weights: tuple) -> tuple:
    """(numerator, denominator) of e1, e2, e3 for sorted Bell weights."""
    l1, l2, l3, l4 = weights
    return ((l1, 1.0), (1.0 - 2.0 * l2, l3 + l4), (1.0 - 2.0 * l2 - 2.0 * l3, l4))


def bell_monotones(weights) -> MonotoneTriple:
    """Monotone triple of a Bell-diagonal state given its sorted weights."""
    bw = weights if isinstance(weights, BellWeights) else BellWeights(tuple(weights))
    return MonotoneTriple(
        *(math.inf if d == 0.0 else n / d for n, d in monotone_ratios(bw.weights))
    )


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    values, vectors = qmat.hermitian_eig(mat, tol=1e-8)
    roots = np.sqrt(np.clip(values, 0.0, None))
    return (vectors * roots[..., None, :]) @ qmat.dag(vectors)


def concurrence(rho):
    """Concurrence of a two-qubit state, or of each state in a stack.

    Computed as max(0, s1 - s2 - s3 - s4) from the singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)). Taking singular values of this
    product, rather than square roots of eigenvalues of rho rho~, keeps the
    small values accurate to machine precision instead of sqrt(eps).

    One state gives a float; a (..., 4, 4) stack gives an array of shape
    (...), each entry computed as for that state alone.
    """
    root = _sqrt_psd(_mat_of(rho))
    k = root @ _YY @ root.conj()
    s = kernels.singular_values(np.ascontiguousarray(k))
    c = np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])
    return float(c) if c.ndim == 0 else c


def binary_entropy(x: float) -> float:
    """Entropy in bits of a (x, 1-x) coin; exact 0 at both endpoints."""
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise OutOfRangeError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    x = min(1.0, max(0.0, x))
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof(rho) -> float:
    """Entanglement of formation in bits, from the concurrence."""
    c = concurrence(rho)
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def negativity(rho):
    """Sum of the absolute negative eigenvalues of the partial transpose.

    One state gives a float; a (..., 4, 4) stack gives an array of shape
    (...), each entry computed as for that state alone.
    """
    # 0 - sum, not -sum: a separable state's zero sum gives +0.0, not -0.0
    n = 0.0 - np.sum(np.clip(_pt_spectrum(rho), None, 0.0), axis=-1)
    return float(n) if n.ndim == 0 else n
