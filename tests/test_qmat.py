"""Tests for the 4x4 operator layer and the numpy kernels under it."""

import inspect
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv import kernels, measures, qmat, states
from entconv.errors import NotHermitianError, OutOfRangeError

def random_hermitian(rng, scale=1.0):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (m + m.conj().T)


def test_kron2_matches_numpy_reference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        npt.assert_allclose(kernels.kron2(a, b), np.kron(a, b), atol=1e-14)


def test_kron2_on_stacks_matches_per_slice_kron():
    rng = np.random.default_rng(37)
    a = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    b = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    out = kernels.kron2(a, b)
    assert out.shape == (200, 4, 4)
    assert np.array_equal(out, np.stack([np.kron(x, y) for x, y in zip(a, b)]))


def test_kron2_pauli_yy_is_real_antidiagonal():
    yy = kernels.kron2(qmat.SIGMA_Y, qmat.SIGMA_Y)
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    npt.assert_allclose(yy, expected, atol=0)


def test_eig_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(100):
        h = random_hermitian(rng, scale=rng.uniform(0.01, 5.0))
        w, v = kernels.hermitian_eigh(h)
        npt.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        npt.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-11)
        assert np.all(np.diff(w) <= 1e-12), "eigenvalues not descending"


def _qubit_eigh_cases():
    rng = np.random.default_rng(53)
    cases = [
        (0.4, 0j, 0.1),  # diagonal
        (0.1, 0j, 0.4),  # diagonal, ascending
        (0.5, 0j, 0.5),  # exactly degenerate, I/2
        (0.5, 1e-300 + 0j, 0.5),  # off-diagonal 1e-300
        (0.3, 1e-300j, 0.7),
        (0.5, 1e-15 - 2e-15j, 0.5 + 1e-14),  # near-degenerate
        (0.0, 0j, 0.0),
    ]
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3, 3)
        a, d = scale * rng.normal(size=2)
        cases.append((a, scale * complex(*rng.normal(size=2)), d))
    return cases


def test_qubit_eigh_matches_lapack():
    for a, b, d in _qubit_eigh_cases():
        h = np.array([[a, b], [np.conj(b), d]])
        scale = max(np.linalg.norm(h), 1e-300)
        (l1, l2), (v1, v2) = kernels.qubit_eigh(a, b, d)
        v = np.array([v1, v2], dtype=complex).T
        assert l1 >= l2
        npt.assert_allclose([l1, l2], np.linalg.eigh(h)[0][::-1], rtol=0, atol=1e-15 * scale)
        npt.assert_allclose(v.conj().T @ v, np.eye(2), rtol=0, atol=1e-15)
        npt.assert_allclose(v @ np.diag([l1, l2]) @ v.conj().T, h, rtol=0, atol=1e-15 * scale)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitianError):
        qmat.hermitian_eig(m)


@pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 4, 3)])
def test_hermitian_eig_rejects_a_non_square_array(shape):
    with pytest.raises(OutOfRangeError, match=re.escape(f"square matrix, got shape {shape}")):
        qmat.hermitian_eig(np.zeros(shape))


def test_each_matrix_check_has_one_bound():
    # the Hermiticity and unitarity checks take no tolerance of their own
    for check in (qmat.hermitian_part, qmat.hermitian_eig, qmat.is_unitary):
        assert len(inspect.signature(check).parameters) == 1, check.__name__
    m = np.eye(4, dtype=complex) / 4
    m[0, 0] += 4.9e-10j  # deviation 9.8e-10
    qmat.hermitian_part(m)
    m[0, 0] += 0.2e-10j  # deviation 1.02e-9
    with pytest.raises(NotHermitianError, match="within 1e-09"):
        qmat.hermitian_part(m)
    assert qmat.is_unitary(np.diag([1.0, 1.0 + 4.9e-10]))
    assert not qmat.is_unitary(np.diag([1.0, 1.0 + 5.1e-10]))


def test_hermitian_eig_tolerates_roundoff_asymmetry():
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m[0, 1] = 1e-12
    values, _ = qmat.hermitian_eig(m)
    npt.assert_allclose(values, [4.0, 3.0, 2.0, 1.0], atol=1e-10)


def test_partial_transpose_singlet_spectrum():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    pt = kernels.partial_transpose(proj, 1)
    values, _ = qmat.hermitian_eig(pt)
    npt.assert_allclose(values, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_is_exact_involution():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for sub in (0, 1):
        twice = kernels.partial_transpose(kernels.partial_transpose(m, sub), sub)
        # a partial transpose only permutes entries, so the round trip is exact
        assert np.array_equal(twice, m)


def test_partial_transpose_on_product_operator():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prod = kernels.kron2(a, b)
    npt.assert_allclose(kernels.partial_transpose(prod, 1), kernels.kron2(a, b.T), atol=1e-14)
    npt.assert_allclose(kernels.partial_transpose(prod, 0), kernels.kron2(a.T, b), atol=1e-14)


def test_density_matrix_rank_cases():
    def diagonal(*values):
        return states.DensityMatrix(np.diag(values).astype(complex))

    assert diagonal(1.0, 0.0, 0.0, 0.0).rank() == 1
    assert diagonal(0.25, 0.25, 0.25, 0.25).rank() == 4
    assert diagonal(0.5, 0.5 - 1e-12, 1e-12, 0.0).rank() == 2
    assert diagonal(0.5, 0.5 - 1e-8, 1e-8, 0.0).rank(tol=1e-9) == 3
    assert diagonal(0.5, 0.5 - 1e-8, 1e-8, 0.0).rank(tol=1e-8) == 2
    assert type(diagonal(1.0, 0.0, 0.0, 0.0).rank()) is int
    for tol in (0.0, -1e-9, float("nan"), -np.inf):
        with pytest.raises(OutOfRangeError):
            diagonal(1.0, 0.0, 0.0, 0.0).rank(tol=tol)


def test_singular_values_match_lapack():
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        npt.assert_allclose(
            kernels.singular_values(m), np.linalg.svd(m, compute_uv=False), atol=1e-11
        )


def test_apply_kraus_single_unitary():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng)
    w, v = kernels.hermitian_eigh(h)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = kernels.apply_kraus(v[None, :, :], rho)
    npt.assert_allclose(out, v @ rho @ v.conj().T, atol=1e-13)


@pytest.mark.parametrize("n", [1, 3, 17, 103])
def test_batched_kraus_kernels_match_per_operator_loop(n):
    rng = np.random.default_rng(100 + n)
    stack = (rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))) / (4 * np.sqrt(n))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    applied = np.zeros((4, 4), dtype=complex)
    gram = np.zeros((4, 4), dtype=complex)
    for e in stack:
        applied += e @ rho @ e.conj().T
        gram += e.conj().T @ e
    npt.assert_allclose(kernels.apply_kraus(stack, rho), applied, rtol=0, atol=1e-14)
    npt.assert_allclose(kernels.kraus_gram(stack), gram, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 3, 17, 103])
def test_apply_kraus_on_input_stack_matches_single_calls(n):
    rng = np.random.default_rng(200 + n)
    stack = (rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))) / (4 * np.sqrt(n))
    # two density matrices and two general operators
    g = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    inputs = np.concatenate([g[:2] @ g[:2].conj().transpose(0, 2, 1), g[2:]])
    inputs /= np.abs(np.trace(inputs, axis1=1, axis2=2))[:, None, None]
    for m in (1, 2, 4):
        out = kernels.apply_kraus(stack, inputs[:m])
        assert out.shape == (m, 4, 4)
        for rho, got in zip(inputs[:m], out):
            loop = np.zeros((4, 4), dtype=complex)
            for e in stack:
                loop += e @ rho @ e.conj().T
            npt.assert_allclose(got, kernels.apply_kraus(stack, rho), rtol=0, atol=1e-14)
            npt.assert_allclose(got, loop, rtol=0, atol=1e-14)


def test_apply_kraus_on_padded_channel_stacks_matches_per_channel_calls():
    # channels of 1 to 6 operators zero-padded to one (t, 6, 4, 4) stack, each
    # with its own inputs: one input per channel, then three
    rng = np.random.default_rng(31)
    sizes = [1, 4, 6, 2, 3, 1, 5]
    padded = np.zeros((len(sizes), 6, 4, 4), dtype=complex)
    stacks = []
    for t, n in enumerate(sizes):
        stack = (rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))) / (4 * np.sqrt(n))
        padded[t, :n] = stack
        stacks.append(stack)
    for lead in ((), (3,)):
        shape = (len(sizes),) + lead + (4, 4)
        inputs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = kernels.apply_kraus(padded, inputs)
        assert out.shape == shape
        for stack, rho, got in zip(stacks, inputs, out):
            npt.assert_allclose(got, kernels.apply_kraus(stack, rho), rtol=0, atol=1e-14)
    gram = kernels.kraus_gram(padded)
    for stack, got in zip(stacks, gram):
        npt.assert_allclose(got, kernels.kraus_gram(stack), rtol=0, atol=1e-14)


def test_stacked_kernels_match_per_matrix_calls():
    rng = np.random.default_rng(32)
    g = rng.normal(size=(2, 5, 4, 4)) + 1j * rng.normal(size=(2, 5, 4, 4))
    herm = g + g.conj().swapaxes(-1, -2)
    values, vectors = kernels.hermitian_eigh(herm)
    assert values.shape == (2, 5, 4) and vectors.shape == (2, 5, 4, 4)
    for i in range(2):
        for j in range(5):
            v, u = kernels.hermitian_eigh(herm[i, j])
            npt.assert_allclose(values[i, j], v, rtol=0, atol=1e-13)
            # eigenvectors agree up to phase: compare the projectors
            npt.assert_allclose(np.abs(np.sum(vectors[i, j].conj() * u, axis=0)), 1.0, atol=1e-12)
            for sub in (0, 1):
                assert np.array_equal(
                    kernels.partial_transpose(g, sub)[i, j], kernels.partial_transpose(g[i, j], sub)
                )
    # a stack of one matrix is the matrix's own result
    v1, u1 = kernels.hermitian_eigh(herm[0, :1])
    v, u = kernels.hermitian_eigh(herm[0, 0])
    npt.assert_allclose(v1[0], v, rtol=0, atol=1e-13)
    npt.assert_allclose(u1[0], u, rtol=0, atol=1e-12)


def test_hermitian_eig_checks_every_matrix_of_a_stack():
    stack = np.stack([np.eye(4), np.eye(4)]).astype(complex)
    stack[1, 0, 1] = 1e-3
    with pytest.raises(NotHermitianError):
        qmat.hermitian_eig(stack)
    assert qmat.hermitian_eig(stack[:1]).values.shape == (1, 4)


def _with_nan(shape, index):
    m = np.broadcast_to(np.eye(4, dtype=complex) / 4, shape).copy()
    m[index] = np.nan
    return m


@pytest.mark.parametrize(
    "m",
    [_with_nan((4, 4), (0, 0)), _with_nan((4, 4), (0, 1)), _with_nan((3, 4, 4), (1, 2, 3))],
    ids=["diagonal", "off_diagonal", "stack"],
)
def test_a_nan_entry_is_not_hermitian(m):
    # one Hermiticity test serves every reader of a raw array or stack, and
    # its comparison fails on NaN instead of passing it on to the solver
    for reader in (states.is_entangled, states.min_pt_eigenvalue, measures.negativity,
                   measures.concurrence, qmat.hermitian_eig):
        with pytest.raises(NotHermitianError):
            reader(m)


def test_frobenius_norm_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(33)
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    norms = qmat.frobenius_norm(stack)
    assert norms.shape == (6,)
    npt.assert_allclose(norms, [qmat.frobenius_norm(m) for m in stack], rtol=1e-15, atol=0)


def test_kraus_gram_detects_completeness():
    u = np.eye(4, dtype=complex)
    stack = np.stack([u * np.sqrt(0.3), u * np.sqrt(0.7)])
    npt.assert_allclose(kernels.kraus_gram(stack), np.eye(4), atol=1e-14)


def test_is_unitary():
    assert qmat.is_unitary(np.eye(2))
    assert qmat.is_unitary(kernels.kron2(qmat.SIGMA_X, qmat.SIGMA_Y))
    assert not qmat.is_unitary(np.eye(2) * 1.001)
    with pytest.raises(OutOfRangeError, match=re.escape("square matrix, got shape (2, 3)")):
        qmat.is_unitary(np.zeros((2, 3)))


def test_is_unitary_reads_a_stack_matrix_by_matrix():
    # the rank falsifier's test of its one-operator channels, one bool a matrix
    stack = np.stack([np.eye(4), kernels.kron2(qmat.SIGMA_X, qmat.SIGMA_Y), np.diag([1, 1, 1, 0])])
    assert qmat.is_unitary(stack).tolist() == [True, True, False]
    assert qmat.is_unitary(np.zeros((0, 4, 4))).shape == (0,)
    with pytest.raises(OutOfRangeError, match=re.escape("square matrix, got shape (3,)")):
        qmat.is_unitary(np.zeros(3))


def test_as_cmat_rejects_wrong_shape():
    # the package's one raw coercion of a 4x4 matrix or stack
    for bad in (np.eye(3), np.zeros((2, 4, 3)), np.zeros(4)):
        with pytest.raises(OutOfRangeError):
            states._mat_of(bad)
    assert states._mat_of(np.zeros((2, 4, 4))).dtype == np.complex128


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=32, max_size=32))
def test_eig_trace_and_norm_invariants(flat):
    m = np.array(flat[:16]).reshape(4, 4) + 1j * np.array(flat[16:]).reshape(4, 4)
    h = m + m.conj().T
    values, vectors = qmat.hermitian_eig(h)
    assert abs(values.sum() - np.trace(h).real) < 1e-10 * max(1.0, abs(np.trace(h)))
    npt.assert_allclose(
        vectors @ np.diag(values) @ vectors.conj().T, h, atol=1e-9 * max(1.0, qmat.frobenius_norm(h))
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=32, max_size=32))
def test_partial_transpose_preserves_trace_and_hermiticity(flat):
    m = np.array(flat[:16]).reshape(4, 4) + 1j * np.array(flat[16:]).reshape(4, 4)
    h = m + m.conj().T
    pt = kernels.partial_transpose(h, 1)
    assert abs(np.trace(pt) - np.trace(h)) < 1e-12
    assert qmat.frobenius_norm(pt - qmat.dag(pt)) < 1e-12
