"""Dense complex numpy kernels for 4x4 operator algebra.

Everything downstream (state constructors, measures, channel application, the
randomized oracles) funnels its numerical work through the handful of
functions defined here: a Hermitian eigensolver, Kronecker products, partial
transpose/trace index shuffles, Kraus-stack application, and singular values.
The eigensolver delegates to LAPACK via np.linalg.eigh and returns
eigenvalues descending, eigenvectors as columns. Kraus application is two
matrix products over the whole operator stack and takes one input or a stack
of inputs, so a caller with several states for one channel passes them in
one call.
"""

from __future__ import annotations

import importlib.util

import numpy as np

BACKEND = "numpy"
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None


def hermitian_eigh(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def kron2(a, b):
    """Kronecker product of 2x2 matrices, broadcast over leading axes.

    Each output entry is the single product a[i, j] * b[k, l], so the result
    equals np.kron slice by slice bit for bit.
    """
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (4, 4))


def apply_kraus(estack, rho):
    """Sum_k E_k rho E_k^dagger for an (n, 4, 4) stack of Kraus operators.

    ``rho`` is one 4x4 operator or an (m, 4, 4) stack of them; the result has
    the same shape. Two matrix products do the work instead of n small ones.
    The first multiplies all inputs' rows, (4m, 4), by the daggered operators
    side by side, [E_1^dagger ... E_n^dagger] of shape (4, 4n), giving every
    rho_j E_k^dagger. The second, one per input, multiplies the operators
    side by side, [E_1 ... E_n], by those blocks restacked as one (4n, 4)
    column, which sums over k.
    """
    n = estack.shape[0]
    lead = rho.shape[:-2]
    right = rho.reshape(-1, 4) @ estack.reshape(4 * n, 4).conj().T
    # [..., a, k, l] = (rho E_k^dagger)[a, l] -> rows (k, a) of one column per input
    tall = right.reshape(lead + (4, n, 4)).swapaxes(-3, -2).reshape(lead + (4 * n, 4))
    return estack.transpose(1, 0, 2).reshape(4, 4 * n) @ tall


def kraus_gram(estack):
    """Sum_k E_k^dagger E_k, the completeness operator of an (n, 4, 4) Kraus stack.

    The rows of every E_k stacked into one (4n, 4) matrix R give the sum as
    the single product R^dagger R.
    """
    rows = estack.reshape(-1, 4)
    return rows.conj().T @ rows


def partial_transpose(m, subsystem):
    """Transpose one tensor factor of a 4x4 operator (0 = first, 1 = second)."""
    t = m.reshape(2, 2, 2, 2)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t.reshape(4, 4))


def partial_trace(m, keep):
    """Trace out one tensor factor of a 4x4 operator (keep 0 = first, 1 = second)."""
    t = m.reshape(2, 2, 2, 2)
    if keep == 0:
        return np.ascontiguousarray(np.trace(t, axis1=1, axis2=3))
    return np.ascontiguousarray(np.trace(t, axis1=0, axis2=2))


def singular_values(m):
    """Singular values of a 4x4 matrix, descending."""
    return np.linalg.svd(m, compute_uv=False)
