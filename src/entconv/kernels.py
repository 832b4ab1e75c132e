"""Dense complex numpy kernels for 4x4 operator algebra.

Everything downstream (state constructors, measures, channel application, the
randomized oracles) calls the handful of functions defined here directly: a
Hermitian eigensolver, Kronecker products, the partial transpose, Kraus-stack
application, and singular values. Inputs are complex128 arrays the caller
has already coerced; a subsystem is named by its index, 0 for the first
qubit and 1 for the second. The eigensolver delegates to LAPACK via
np.linalg.eigh and returns eigenvalues descending, eigenvectors as columns.
One 2x2 Hermitian matrix, given as Python scalars, has a closed-form
eigensolver, ``qubit_eigh``, which skips numpy's per-call overhead.
Kraus application is two matrix products over the whole operator stack and
takes one input or a stack of inputs, so a caller with several states for
one channel passes them in one call.

The eigensolver, the partial transpose, the Kraus kernels and the singular
values take a stack of operators, shape (..., 4, 4), and work matrix by
matrix; a single operator is a stack with no leading axes and goes through
the same code.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np

BACKEND = "numpy"
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None


def hermitian_eigh(h):
    """Eigendecomposition of each Hermitian matrix in a stack, eigenvalues descending."""
    w, v = np.linalg.eigh(h)
    return w[..., ::-1].copy(), np.ascontiguousarray(v[..., ::-1])


def qubit_eigh(a, b, d):
    """Eigendecomposition of the Hermitian [[a, b], [conj(b), d]], a and d real, in closed form.

    Returns the eigenvalues descending, (m + r, m - r) with m = (a + d)/2,
    h = (a - d)/2 and r = hypot(h, |b|), and the matching unit eigenvectors
    as two pairs (x, y). The first is (h + r, conj(b)) for h >= 0 and
    (b, r - h) otherwise, the form without cancellation, normalised with
    hypot, so an off-diagonal entry as small as 1e-300 still gives a unit
    vector; the second is (-conj(y), conj(x)), orthogonal to it. A diagonal
    matrix (b == 0) gives its own entries and the computational basis.
    """
    if b == 0:
        return ((a, d), ((1.0, 0.0), (0.0, 1.0))) if a >= d else ((d, a), ((0.0, 1.0), (1.0, 0.0)))
    m, h = 0.5 * (a + d), 0.5 * (a - d)
    r = math.hypot(h, abs(b))
    x, y = (h + r, b.conjugate()) if h >= 0.0 else (b, r - h)
    norm = math.hypot(abs(x), abs(y))
    x, y = x / norm, y / norm
    return (m + r, m - r), ((x, y), (-y.conjugate(), x.conjugate()))


def kron2(a, b):
    """Kronecker product of 2x2 matrices, broadcast over leading axes.

    Each output entry is the single product a[i, j] * b[k, l], so the result
    equals np.kron slice by slice bit for bit.
    """
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (4, 4))


def apply_kraus(estack, rho):
    """Sum_k E_k rho E_k^dagger for an (n, 4, 4) stack of Kraus operators.

    ``rho`` is one 4x4 operator or an (m, 4, 4) stack of them; the result has
    the same shape. Two matrix products do the work instead of n small ones
    per input. The first multiplies all inputs' rows, (4m, 4), by the
    daggered operators side by side, [E_1^dagger ... E_n^dagger] of shape
    (4, 4n), giving every rho_j E_k^dagger. The second multiplies the
    operators side by side, [E_1 ... E_n], by those blocks restacked as one
    (4n, 4m) matrix, block (k, j) holding rho_j E_k^dagger, which sums over k
    for every input at once.

    Several channels at once: ``estack`` of shape (t, n, 4, 4) holds one
    channel per leading index (pad a shorter channel with zero operators,
    which add nothing), and ``rho`` of shape (t, ..., 4, 4) holds that
    channel's inputs. The same two products then run once per channel.
    """
    n = estack.shape[-3]
    batch = estack.shape[:-3]
    lead = rho.shape[:-2]
    m = math.prod(lead[len(batch):])
    daggers = estack.reshape(batch + (4 * n, 4)).conj().swapaxes(-1, -2)
    blocks = rho.reshape(batch + (4 * m, 4)) @ daggers
    # each intermediate is freed once the next exists, so a block of channels
    # holds about two arrays of its Kraus stack's size at a time
    del daggers
    # [..., j, a, k, l] = (rho_j E_k^dagger)[a, l] -> row (k, a), column (j, l)
    blocks = blocks.reshape(batch + (m, 4, n, 4)).swapaxes(-4, -2).reshape(batch + (4 * n, 4 * m))
    blocks = estack.swapaxes(-3, -2).reshape(batch + (4, 4 * n)) @ blocks
    return blocks.reshape(batch + (4, m, 4)).swapaxes(-3, -2).reshape(lead + (4, 4))


def kraus_gram(estack):
    """Sum_k E_k^dagger E_k, the completeness operator of an (..., n, 4, 4) Kraus stack.

    The rows of every E_k stacked into one (4n, 4) matrix R give the sum as
    the single product R^dagger R, one per channel of a (t, n, 4, 4) stack.
    """
    rows = estack.reshape(estack.shape[:-3] + (-1, 4))
    return rows.conj().swapaxes(-1, -2) @ rows


def partial_transpose(m, subsystem):
    """Transpose one tensor factor of each 4x4 operator (0 = first, 1 = second)."""
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    # [..., a, b, a', b'] -> swap a with a' (first factor) or b with b' (second)
    t = t.swapaxes(-4, -2) if subsystem == 0 else t.swapaxes(-3, -1)
    return np.ascontiguousarray(t.reshape(m.shape))


def singular_values(m):
    """Singular values of each 4x4 matrix in a stack, descending."""
    return np.linalg.svd(m, compute_uv=False)
