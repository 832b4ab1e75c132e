"""The validated eigensolver, matrix checks and constants over one and two qubits.

Matrices are plain numpy complex128 arrays: 2x2 for single-qubit operators,
4x4 for two-qubit operators, indexed row-major so basis state |ab> sits at
index 2a+b. ``hermitian_part`` is the package's one Hermiticity test, with
one bound (1e-9 in ``frobenius_norm``, the one Frobenius norm, a ``vdot`` for
one matrix): ``DensityMatrix`` and ``hermitian_eig`` both go through it, and
``hermitian_eig`` then solves with :mod:`entconv.kernels`; every other array
routine is called from ``kernels`` directly. ``is_unitary`` has one bound
too, 1e-9 on ||u^dagger u - I||_F.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import NotHermitianError, OutOfRangeError


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only, so that an array the package shares cannot be edited."""
    a.setflags(write=False)
    return a


EYE2 = read_only(np.eye(2, dtype=np.complex128))
SIGMA_X = read_only(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = read_only(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = read_only(np.array([[1, 0], [0, -1]], dtype=np.complex128))
# [mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I, the product Pauli basis
# of 4x4 operators
PAULIS = read_only(np.array([EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z]))
PAULI_PRODUCTS = read_only(kernels.kron2(*np.broadcast_arrays(PAULIS[:, None], PAULIS[None, :])))
# the one-sided Pauli unitaries as (A, B) factor pairs: the identity, then
# sigma (x) I and I (x) sigma for x, y, z
ONE_SIDED_PAULIS = ((EYE2, EYE2),) + tuple(
    pair for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z) for pair in ((sigma, EYE2), (EYE2, sigma))
)


# the one bound of each check: ||m - m^dagger||_F and ||u^dagger u - I||_F
_HERMITIAN_BOUND = 1e-9
_UNITARY_BOUND = 1e-9


class EigenDecomposition(NamedTuple):
    """Spectral data of a Hermitian matrix.

    values: real eigenvalues sorted non-ascending.
    vectors: orthonormal eigenvectors as the matching columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def frobenius_norm(m):
    """Frobenius norm of a matrix, or an array of one norm per matrix of a stack.

    One matrix's sum of squares is one ``np.vdot`` of it with itself, cheaper than
    ``np.linalg.norm``; a stack's are dot products of its real and imaginary parts.
    """
    m = np.asarray(m)
    if m.ndim <= 2:
        return math.sqrt(np.vdot(m, m).real)
    rows = m.reshape(m.shape[:-2] + (1, -1))
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt(sum(p @ p.swapaxes(-1, -2) for p in parts)[..., 0, 0])


def dag(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """0.5 * (m + m^dagger) of a square complex array or of each matrix in a stack.

    Raises NotHermitianError unless ||m - m^dagger||_F is within 1e-9, for a
    stack in its worst matrix. The test is written ``not dev <= bound``, so a
    NaN or infinite entry fails it.
    """
    adj = dag(m)
    off = m - adj
    dev = frobenius_norm(off) if m.ndim == 2 else float(frobenius_norm(off).max(initial=0.0))
    if not dev <= _HERMITIAN_BOUND:
        raise NotHermitianError(
            f"matrix is not Hermitian within {_HERMITIAN_BOUND:g} (deviation {dev:.3e})"
        )
    return 0.5 * (m + adj)


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian 4x4 (or 2x2) matrix, or of a stack of them.

    ``hermitian_part`` checks (within 1e-9) and symmetrizes each matrix
    before solving, so drift below that bound cannot skew results.
    """
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise OutOfRangeError(f"expected a square matrix, got shape {m.shape}")
    return EigenDecomposition(*kernels.hermitian_eigh(hermitian_part(m)))


def is_unitary(u) -> bool:
    """Whether ||u^dagger u - I||_F of a square matrix is within 1e-9."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise OutOfRangeError(f"expected a square matrix, got shape {u.shape}")
    return frobenius_norm(dag(u) @ u - np.eye(u.shape[0])) <= _UNITARY_BOUND
