"""The validated eigensolver, matrix checks and constants over one and two qubits.

Matrices are plain numpy complex128 arrays: 2x2 for single-qubit operators,
4x4 for two-qubit operators, indexed row-major so basis state |ab> sits at
index 2a+b. ``hermitian_eig`` checks Hermiticity before it solves with
:mod:`entconv.kernels`; every other array routine is called from
``kernels`` directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import NotHermitianError

EYE2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
# [mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I, the product Pauli basis
# of 4x4 operators
PAULIS = np.array([EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_PRODUCTS = kernels.kron2(*np.broadcast_arrays(PAULIS[:, None], PAULIS[None, :]))
# the one-sided Pauli unitaries as (A, B) factor pairs: the identity, then
# sigma (x) I and I (x) sigma for x, y, z
ONE_SIDED_PAULIS = ((EYE2, EYE2),) + tuple(
    pair for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z) for pair in ((sigma, EYE2), (EYE2, sigma))
)


class EigenDecomposition(NamedTuple):
    """Spectral data of a Hermitian matrix.

    values: real eigenvalues sorted non-ascending.
    vectors: orthonormal eigenvectors as the matching columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def frobenius_norm(m):
    """Frobenius norm of a matrix, or an array of one norm per matrix of a stack.

    A stack's sums of squares are dot products of the real and imaginary
    parts, the arithmetic ``np.linalg.norm`` uses for one matrix.
    """
    m = np.asarray(m)
    if m.ndim <= 2:
        return float(np.linalg.norm(m))
    rows = m.reshape(m.shape[:-2] + (1, -1))
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt(sum(p @ p.swapaxes(-1, -2) for p in parts)[..., 0, 0])


def frobenius_distance(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def dag(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def hermitian_eig(m, tol: float = 1e-9) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian 4x4 (or 2x2) matrix, or of a stack of them.

    Raises NotHermitianError when ||m - m^dagger||_F exceeds tol for any
    matrix. Each matrix is symmetrized before solving, so drift below tol
    cannot skew results.
    """
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = frobenius_norm(m - dag(m))
    if m.ndim > 2:
        dev = float(dev.max(initial=0.0))  # the worst matrix
    if dev > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian within {tol:g} (deviation {dev:.3e})"
        )
    sym = 0.5 * (m + dag(m))
    values, vectors = kernels.hermitian_eigh(sym)
    return EigenDecomposition(values, vectors)


def numeric_rank(values, tol: float = 1e-9) -> int:
    """Count eigenvalues strictly above tol.

    `values` is a real spectrum (any order); tol must be positive.
    """
    if not tol > 0:
        raise ValueError(f"rank tolerance must be positive, got {tol!r}")
    return int(np.sum(np.asarray(values, dtype=np.float64) > tol))


def is_unitary(u, tol: float = 1e-9) -> bool:
    u = np.asarray(u, dtype=np.complex128)
    return frobenius_distance(dag(u) @ u, np.eye(u.shape[0])) <= tol
