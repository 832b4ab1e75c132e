"""Tests for protocol atoms, separable channels, and the extremal catalog."""

import re
import types

import numpy as np
import numpy.testing as npt
import pytest

from entconv import channels, kernels, qmat
from entconv.channels import (
    ChannelPool,
    DiscardPrepare,
    LocalUnitary,
    ProbabilisticBranch,
    Protocol,
    SeparableChannel,
    bell_extremal_catalog,
    bell_extremal_pool,
    compile_protocol,
    discard_prepare_channel,
    mix,
    product_diagonal_decomposition,
    renormalize_probabilistic,
    separable_kraus_stacks,
)
from entconv.convertibility import Convertible, decide, decide_werner, keep_or_refill
from entconv.errors import (
    BadWeightsError,
    NotProductDiagonalError,
    NotSeparableError,
    NotTracePreservingError,
    NotUnitaryError,
    OutOfRangeError,
)
from entconv.measures import negativity
from entconv.oracle import convert_search
from entconv.states import (
    BELL_PROJECTORS,
    DensityMatrix,
    bell_weights_of,
    classify_family,
    is_entangled,
    make_bell_diagonal,
    make_werner,
    random_density_matrix,
)


def haar_qubit_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_action(ch):
    """4x4 action on Bell weights read off the channel: column j holds the
    Bell weights of its image of projector j, which must be Bell-diagonal."""
    weights, residual = bell_weights_of(kernels.apply_kraus(ch.estack, np.stack(BELL_PROJECTORS)))
    assert np.all(residual < 1e-12)
    return weights.T


def test_local_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        LocalUnitary(np.eye(2) * 1.01, np.eye(2))


def test_local_unitary_rejects_non_qubit_factors():
    with pytest.raises(OutOfRangeError, match=r"u_b must be 2x2, got shape \(4, 4\)"):
        LocalUnitary(np.eye(2), np.eye(4))


def test_discard_prepare_rejects_entangled_target():
    with pytest.raises(NotSeparableError):
        DiscardPrepare(make_werner(0.9))
    with pytest.raises(NotSeparableError):
        discard_prepare_channel(make_werner(0.9))
    # just above w = 1/3, past the partial-transpose test's 1e-10
    with pytest.raises(NotSeparableError):
        DiscardPrepare(make_werner(1 / 3 + 1e-9))


def test_protocol_weight_validation():
    atom = LocalUnitary(np.eye(2), np.eye(2))
    with pytest.raises(BadWeightsError):
        Protocol(((0.5, atom), (0.4, atom)))
    with pytest.raises(BadWeightsError):
        Protocol(((1.5, atom), (-0.5, atom)))
    with pytest.raises(BadWeightsError):
        Protocol(())
    # a NaN weight fails closed instead of being dropped
    with pytest.raises(BadWeightsError, match="nonnegative"):
        Protocol(((np.nan, atom), (1.0, atom)))


def test_protocol_rejects_an_unsupported_atom():
    with pytest.raises(TypeError, match="unsupported protocol atom SeparableChannel"):
        Protocol(((1.0, bell_extremal_catalog()[0]),))


def test_protocol_apply_mixes_atoms():
    sigma = DensityMatrix(np.diag([0.25, 0.35, 0.25, 0.15]).astype(complex))
    proto = Protocol(
        (
            (0.7, LocalUnitary(np.eye(2), np.eye(2))),
            (0.3, DiscardPrepare(sigma)),
        )
    )
    rho = make_werner(0.5)
    out = proto.apply(rho)
    expected = 0.7 * rho.matrix + 0.3 * sigma.matrix
    npt.assert_allclose(out.matrix, expected, atol=1e-12)


def test_renormalize_probabilistic_worked_example():
    # equal mixture of an always-successful unitary and a half-successful
    # prepare conditions to weights (2/3, 1/3) at success 3/4, exactly
    unitary = LocalUnitary(np.eye(2), np.eye(2))
    prepare = DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4))
    proto, success = renormalize_probabilistic(
        [
            ProbabilisticBranch(0.5, 1.0, unitary),
            ProbabilisticBranch(0.5, 0.5, prepare),
        ]
    )
    assert success == 0.75
    assert proto.branches[0][0] == 2 / 3
    assert proto.branches[1][0] == 1 / 3


def test_renormalize_probabilistic_drops_dead_branches():
    unitary = LocalUnitary(np.eye(2), np.eye(2))
    prepare = DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4))
    proto, success = renormalize_probabilistic(
        [
            ProbabilisticBranch(0.5, 0.8, unitary),
            ProbabilisticBranch(0.5, 0.0, prepare),
        ]
    )
    assert success == 0.4
    assert len(proto.branches) == 1
    assert proto.branches[0][0] == 1.0
    with pytest.raises(BadWeightsError):
        renormalize_probabilistic([ProbabilisticBranch(1.0, 0.0, unitary)])


@pytest.mark.parametrize(
    "weight, success, message",
    [(-0.1, 1.0, "branch weight"), (1.5, 1.0, "branch weight"), (np.nan, 1.0, "branch weight"),
     (0.5, -0.1, "success probability"), (0.5, 1.5, "success probability")],
)
def test_probabilistic_branch_range_checks(weight, success, message):
    unitary = LocalUnitary(np.eye(2), np.eye(2))
    with pytest.raises(BadWeightsError, match=f"{message} must lie in \\[0, 1\\]"):
        ProbabilisticBranch(weight, success, unitary)


def test_separable_channel_completeness_check():
    with pytest.raises(NotTracePreservingError):
        SeparableChannel([(np.eye(2) * 0.9, np.eye(2))])
    ch = SeparableChannel([(np.eye(2), np.eye(2))])
    assert ch.n_kraus == 1
    assert repr(ch) == "SeparableChannel(n_kraus=1)"


def test_nan_factors_fail_completeness(monkeypatch):
    nan = np.full((1, 2, 2, 2), np.nan)
    with pytest.raises(NotTracePreservingError):
        SeparableChannel(nan)
    # an atom channel whose factors escaped their own check: the check of the
    # compiled mixture still refuses them
    escaped = types.SimpleNamespace(kraus_pairs=nan)
    monkeypatch.setattr(DiscardPrepare, "channel", lambda atom: escaped)
    protocol = Protocol(
        (
            (0.5, LocalUnitary(np.eye(2), np.eye(2))),
            (0.5, DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4))),
        )
    )
    with pytest.raises(NotTracePreservingError):
        compile_protocol(protocol)


def test_one_atom_is_the_identity_of_every_shared_use():
    identity = channels.one_sided_pauli_atoms()[0]
    npt.assert_array_equal(identity.u_a, np.eye(2))
    npt.assert_array_equal(identity.u_b, np.eye(2))
    refill = channels.diagonal_refill((0.25, 0.25, 0.25, 0.25))
    protocol, _ = keep_or_refill(0.5, refill, "the maximally mixed state")
    assert protocol.branches[0][1] is identity
    # the Werner rule's plan reads the same identity and the same refill
    werner = decide_werner(0.9, 0.45).protocol
    assert [atom for _, atom in werner.branches] == [identity, refill]
    # convert_search's rotations, identity first, for a pair only the identity converts
    rho = random_density_matrix(3)
    _, found = convert_search(rho, rho, budget=5000)
    assert [atom for _, atom in found.branches] == [identity]
    # the catalog's seven unitary channels are those atoms' kept channels
    atoms = channels.one_sided_pauli_atoms()
    assert atoms is channels.one_sided_pauli_atoms() and len(atoms) == 7
    for atom, channel in zip(atoms, bell_extremal_catalog()):
        assert channel is atom.channel()
        assert atom.channel() is atom.channel()
    assert refill is channels.diagonal_refill((0.25, 0.25, 0.25, 0.25))
    assert refill.channel() is refill.channel()


def test_atoms_a_caller_builds_keep_nothing(monkeypatch):
    calls = []
    original = channels.product_diagonal_decomposition

    def counting(mat, *args, **kwargs):
        calls.append(mat)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(channels, "product_diagonal_decomposition", counting)
    diagonal = (0.4, 0.3, 0.2, 0.1)
    target = DensityMatrix(np.diag(diagonal).astype(complex))
    atom = DiscardPrepare(target)
    assert atom.channel() is not atom.channel()
    assert len(calls) == 2
    kept = channels.diagonal_refill(diagonal)
    assert kept.channel() is kept.channel()
    assert len(calls) == 3
    npt.assert_array_equal(kept.channel().kraus_pairs, atom.channel().kraus_pairs)
    unitary = LocalUnitary(np.eye(2), qmat.SIGMA_X)
    assert unitary.channel() is not unitary.channel()
    with pytest.raises(TypeError):
        LocalUnitary(np.eye(2), np.eye(2), shared=True)
    with pytest.raises(TypeError):
        DiscardPrepare(target, shared=True)
    # a target without a product decomposition raises on every call, kept or not
    unlowerable = make_bell_diagonal((0.4, 0.3, 0.2, 0.1))
    for made in (DiscardPrepare(unlowerable), channels._kept(DiscardPrepare(unlowerable))):
        for _ in range(2):
            with pytest.raises(NotProductDiagonalError):
                made.channel()


def test_separable_channel_rejects_non_qubit_factors():
    with pytest.raises(OutOfRangeError):
        SeparableChannel([(np.eye(3), np.eye(3))])
    # a ragged nesting has no shape; every reader of a raw matrix rejects it
    ragged = [[1, 0], [0]]
    for build in (
        lambda: SeparableChannel([(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))]),
        lambda: DensityMatrix(ragged),
        lambda: classify_family(ragged),
        lambda: LocalUnitary(ragged, np.eye(2)),
    ):
        with pytest.raises(OutOfRangeError, match="expected an array of numbers"):
            build()
    with pytest.raises(OutOfRangeError):
        SeparableChannel([])
    # one pair without the pair axis
    with pytest.raises(OutOfRangeError, match=re.escape("got shape (2, 2, 2)")):
        SeparableChannel((np.eye(2), np.eye(2)))


def test_kraus_pairs_are_read_only_factors():
    ch = discard_prepare_channel(DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)))
    assert ch.kraus_pairs.shape == (ch.n_kraus, 2, 2, 2)
    with pytest.raises(ValueError):
        ch.kraus_pairs[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ch.estack[0] *= 2
    for (a, b), e in zip(ch.kraus_pairs, ch.estack):
        assert np.array_equal(e, np.kron(a, b))


def test_unitary_channel_action():
    rng = np.random.default_rng(3)
    ua, ub = haar_qubit_unitary(rng), haar_qubit_unitary(rng)
    ch = LocalUnitary(ua, ub).channel()
    rho = random_density_matrix(8)
    u = kernels.kron2(ua, ub)
    npt.assert_allclose(ch.apply(rho).matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)


def test_local_unitaries_preserve_negativity():
    rng = np.random.default_rng(5)
    for seed in range(10):
        rho = random_density_matrix(seed, rank=rng.integers(1, 5))
        ch = LocalUnitary(haar_qubit_unitary(rng), haar_qubit_unitary(rng)).channel()
        npt.assert_allclose(negativity(ch.apply(rho)), negativity(rho), atol=1e-10)


def test_discard_prepare_is_constant():
    sigma = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    ch = discard_prepare_channel(sigma)
    for seed in (0, 1):
        out = ch.apply(random_density_matrix(seed))
        npt.assert_allclose(out.matrix, sigma.matrix, atol=1e-12)


def _loop_discard_prepare_pairs(target):
    # the per-term, per-index construction that the broadcast lowering replaced
    basis = np.eye(2, dtype=complex)
    pairs = []
    for p, a, b in zip(*product_diagonal_decomposition(target)):
        scale = p ** 0.25
        for ja in basis:
            for jb in basis:
                pairs.append((scale * np.outer(a, ja.conj()), scale * np.outer(b, jb.conj())))
    return np.array(pairs)


def _lowering_target(kind):
    """A separable target with a product eigenbasis, by name."""
    if kind == "side_b_only":
        # rho_0 (x) |0><0| + rho_1 (x) |1><1| with rho_0, rho_1 not commuting
        rng = np.random.default_rng(37)
        return _classical_state(np.eye(2), 1, (0.6, 0.4), [_qubit_state(rng, 2) for _ in range(2)])
    spectra = {
        "distinct": [0.4, 0.3, 0.2, 0.1],
        "cluster2": [0.3, 0.3, 0.25, 0.15],
        "cluster3": [0.4, 0.2, 0.2, 0.2],
        "maximally_mixed": [0.25] * 4,
        # an eigenvalue below 1e-12, which the decomposition drops
        "dropped_eigenvalue": [0.5, 0.3, 0.2 - 5e-13, 5e-13],
    }
    return np.diag(spectra[kind]).astype(complex)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize(
    "kind",
    ["distinct", "cluster2", "cluster3", "maximally_mixed", "side_b_only", "dropped_eigenvalue"],
)
def test_discard_prepare_pairs_match_loop_construction(kind, rotated):
    mat = _lowering_target(kind)
    if rotated:
        rng = np.random.default_rng(29)
        u = kernels.kron2(haar_qubit_unitary(rng), haar_qubit_unitary(rng))
        mat = u @ mat @ u.conj().T
    if kind == "side_b_only":
        # side A's Pauli coordinates tr(rho sigma_i (x) sigma_mu) have rank 2, not 1
        coords = np.einsum("imxy,yx->im", qmat.PAULI_PRODUCTS[1:], mat).real
        assert np.linalg.svd(coords, compute_uv=False)[1] > 1e-2
    target = DensityMatrix(mat)
    pairs = discard_prepare_channel(target).kraus_pairs
    expected = _loop_discard_prepare_pairs(target.matrix)
    n_pairs = 12 if kind == "dropped_eigenvalue" else 16
    assert pairs.shape == expected.shape == (n_pairs, 2, 2, 2)
    npt.assert_allclose(pairs, expected, rtol=0, atol=1e-15)


def test_separable_werner_target_has_a_product_lowering():
    # Werner states with w <= 1/3 are classical on neither side (w > 0), yet
    # separable: anti-parallel Pauli eigenstates and computational products
    rng = np.random.default_rng(43)
    for w in [k / 40 for k in range(14)] + [1 / 3]:
        target = make_werner(w)
        p, a, b = product_diagonal_decomposition(target)
        kets = (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
        assert qmat.frobenius_norm((kets.T * p) @ kets.conj() - target.matrix) <= 1e-12
        channel = discard_prepare_channel(target)
        for rank in (1, 4):
            out = channel.apply(random_density_matrix(rng, rank=rank))
            assert qmat.frobenius_norm(out.matrix - target.matrix) <= 1e-12, (w, rank)
    protocol = Protocol(((1.0, DiscardPrepare(make_werner(0.2))),))
    out = compile_protocol(protocol).apply(make_werner(0.9))
    assert qmat.frobenius_norm(out.matrix - make_werner(0.2).matrix) <= 1e-12
    # just past 1/3, yet separable to the partial-transpose test's 1e-10: the
    # terms of w = 1/3 prepare it, and their weights still sum to 1
    edge = make_werner(1 / 3 + 1e-10)
    assert not is_entangled(edge)
    out = discard_prepare_channel(edge).apply(make_werner(0.9))
    assert qmat.frobenius_norm(out.matrix - edge.matrix) <= 1e-10


def test_product_decomposition_shapes():
    # nondegenerate diagonal, 2-fold, 3-fold, and 4-fold degenerate cases
    for diag in ([0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.25, 0.15], [0.4, 0.2, 0.2, 0.2], [0.25] * 4):
        terms = zip(*product_diagonal_decomposition(np.diag(diag).astype(complex)))
        recon = sum(p * np.outer(np.kron(a, b), np.kron(a, b).conj()) for p, a, b in terms)
        npt.assert_allclose(recon, np.diag(diag), atol=1e-10)


def test_product_decomposition_bell_pair_mixture():
    # the psi+/psi- pair spans the computational vectors |01> and |10>
    target = 0.5 * BELL_PROJECTORS[0] + 0.5 * BELL_PROJECTORS[3]
    terms = list(zip(*product_diagonal_decomposition(target)))
    assert len(terms) == 2
    kets = sorted(np.argmax(np.abs(np.kron(a, b))) for _, a, b in terms)
    assert kets == [1, 2]


def test_product_decomposition_refuses_entangled():
    with pytest.raises(NotProductDiagonalError):
        product_diagonal_decomposition(make_werner(0.8).matrix)


def test_product_decomposition_refuses_skew_separable():
    # separable, but the eigenbasis is not product: mixture of |00> and |++>
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vpp = np.kron(plus, plus)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.6
    m += 0.4 * np.outer(vpp, vpp.conj())
    with pytest.raises(NotProductDiagonalError):
        product_diagonal_decomposition(m)


def _qubit_state(rng, rank):
    g = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _classical_state(u, side, p, conditionals):
    # sum_k p_k |k><k| (x) rho_k over the basis {|k>} of columns of u, on one side
    mat = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        pair = (np.outer(u[:, k], u[:, k].conj()), conditionals[k])
        mat += p[k] * np.kron(*(pair if side == 0 else pair[::-1]))
    return mat


def _classical_states(rng):
    """States classical on side A or B in a Haar basis, degenerate ones included."""
    out = [np.eye(4, dtype=complex) / 4]
    for side in (0, 1):
        def add(p, conditionals):
            out.append(_classical_state(haar_qubit_unitary(rng), side, p, conditionals))

        for ranks in ((1, 1), (1, 2), (2, 1), (2, 2)):
            add(rng.dirichlet([1, 1]), [_qubit_state(rng, r) for r in ranks])
        same = _qubit_state(rng, 2)  # equal conditional states: a product state
        add(rng.dirichlet([1, 1]), [same, same])
        add((0.5, 0.5), [np.eye(2) / 2] * 2)  # I/4
        add((1.0, 0.0), [_qubit_state(rng, 2), _qubit_state(rng, 1)])  # |1> unpopulated
    return out


@pytest.mark.parametrize("seed", range(8))
def test_product_decomposition_of_states_classical_on_one_side(seed):
    rng = np.random.default_rng(seed)
    for mat in _classical_states(rng):
        target = DensityMatrix(mat)
        terms = list(zip(*product_diagonal_decomposition(target)))
        kets = np.array([np.kron(a, b) for _, a, b in terms])
        npt.assert_allclose(kets @ kets.conj().T, np.eye(len(terms)), rtol=0, atol=1e-12)
        recon = (kets.T * [p for p, _, _ in terms]) @ kets.conj()
        npt.assert_allclose(recon, mat, rtol=0, atol=1e-12)
        channel = discard_prepare_channel(target)
        for rank in (1, 4):
            out = kernels.apply_kraus(channel.estack, random_density_matrix(rng, rank=rank).matrix)
            assert qmat.frobenius_norm(out - mat) <= 1e-12


def test_product_decomposition_refuses_states_classical_on_neither_side():
    rng = np.random.default_rng(41)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vpp = np.kron(plus, plus)
    # Werner 0.2 pushed 1e-8 off by entries outside the X pattern, where
    # every Werner state vanishes
    off_x = np.zeros((4, 4), dtype=complex)
    off_x[0, 1] = off_x[1, 0] = 1e-8
    refused = [make_werner(0.2).matrix + off_x,
               np.diag([0.6, 0, 0, 0]) + 0.4 * np.outer(vpp, vpp.conj())]
    while len(refused) < 12:
        rho = random_density_matrix(rng)
        if not is_entangled(rho):
            refused.append(rho.matrix)
    # a state classical on side A, pushed about 1e-8 off by a coherence in its basis
    u = haar_qubit_unitary(rng)
    mat = _classical_state(u, 0, (0.6, 0.4), [_qubit_state(rng, 2) for _ in range(2)])
    flip = u @ qmat.SIGMA_X @ u.conj().T
    refused.append(mat + 1e-8 * np.kron(flip, qmat.SIGMA_X))
    for mat in refused:
        assert not is_entangled(mat)
        with pytest.raises(NotProductDiagonalError):
            product_diagonal_decomposition(mat)


def _one_sided_by_svd(mat):
    """Whether a side's 3x4 Pauli coordinates are rank one within 1e-9, by numpy's SVD."""
    coords = np.einsum("imxy,yx->im", qmat.PAULI_PRODUCTS[1:], mat).real
    sides = (coords, np.einsum("mixy,yx->im", qmat.PAULI_PRODUCTS[:, 1:], mat).real)
    return any(np.hypot(*np.linalg.svd(c, compute_uv=False)[1:]) / 2.0 <= 1e-9 for c in sides)


def _computational_states(rng):
    """(state, side): states classical in the computational basis of that side, I/4 and
    |00><00| (classical on both) and conditional states of ranks 1 and 2."""
    zero = np.diag([1.0, 0.0]).astype(complex)
    out = [(np.eye(4, dtype=complex) / 4, int(rng.integers(2))),
           (np.kron(zero, zero), int(rng.integers(2)))]
    for side in (0, 1):
        for ranks in ((1, 1), (1, 2), (2, 1), (2, 2)):
            conditionals = [_qubit_state(rng, r) for r in ranks]
            out.append((_classical_state(np.eye(2), side, rng.dirichlet([1, 1]), conditionals), side))
    return out


def _pushed_off(rng, mat, side, eps):
    """``mat`` mixed with a product state, to a coherence eps across ``side``'s computational basis.

    The coherence is sqrt(2) ||rho_01||_F, rho_01 the side's off-diagonal 2x2
    block, which ``mat`` lacks; the product state |t><t| (x) tau has a Haar |t>
    on that side, so the mixture stays a separable state.
    """
    t = haar_qubit_unitary(rng)[:, 0]
    pair = (np.outer(t, t.conj()), _qubit_state(rng, 2))
    product = np.kron(*(pair if side == 0 else pair[::-1]))
    rows, cols = ([0, 1], [2, 3]) if side == 0 else ([0, 2], [1, 3])
    weight = eps / (np.sqrt(2) * np.linalg.norm(product[np.ix_(rows, cols)]))
    return (1 - weight) * mat + weight * product


def _lowering_sweep(rng):
    """(target, kind): one-sided states and diagonals ("exact"), separable Werner states
    ("werner"), one-sided states pushed 1e-10 to 5e-9 off by a coherence in their
    basis ("perturbed"), and states classical in the computational basis
    ("computational") and pushed off by a coherence across it ("computational_perturbed")."""
    for _ in range(40):
        for mat in _classical_states(rng):
            yield mat, "exact"
    for _ in range(600):
        yield np.diag(rng.dirichlet(np.ones(4))).astype(complex), "exact"
    for k in range(14):
        yield make_werner(k / 40).matrix, "werner"
    for eps in np.geomspace(1e-10, 5e-9, 300):
        side = int(rng.integers(2))
        u = haar_qubit_unitary(rng)
        weights = rng.dirichlet([1, 1])
        mat = _classical_state(u, side, weights, [_qubit_state(rng, 2) for _ in range(2)])
        flip = np.kron(*((u @ qmat.SIGMA_X @ u.conj().T, qmat.SIGMA_X)[:: 1 - 2 * side]))
        yield mat + eps * flip / np.linalg.norm(flip), "perturbed"
    for _ in range(20):
        for mat, _ in _computational_states(rng):
            yield mat, "computational"
    for eps in np.geomspace(1e-10, 5e-9, 300):
        states = _computational_states(rng)
        mat, side = states[int(rng.integers(len(states)))]
        yield _pushed_off(rng, mat, side, eps), "computational_perturbed"


def test_lowering_sweep_prepares_every_accepted_target():
    rng = np.random.default_rng(59)
    verdicts = {True: 0, False: 0}
    computational = {True: 0, False: 0}
    for mat, kind in _lowering_sweep(rng):
        tally = computational if kind.startswith("computational") else verdicts
        perturbed = kind.endswith("perturbed")
        expected = kind == "werner" or _one_sided_by_svd(mat)
        assert expected or perturbed
        try:
            p, a, b = product_diagonal_decomposition(mat)
        except NotProductDiagonalError:
            assert not expected
            tally[False] += 1
            continue
        assert expected
        tally[True] += 1
        kets = (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
        rebuilt = (kets.T * p) @ kets.conj()
        channel = discard_prepare_channel(mat)
        for rank in (1, 4):
            out = channel.apply(random_density_matrix(rng, rank=rank)).matrix
            assert qmat.frobenius_norm(out - rebuilt) <= 1e-12
            if not perturbed:
                assert qmat.frobenius_norm(out - mat) <= 1e-12
    # perturbed states reach both sides of the 1e-9 tolerance, in both bases
    assert verdicts[False] > 50 and verdicts[True] > 1300
    assert computational[False] > 50 and computational[True] > 300


def test_lowering_a_state_classical_in_the_computational_basis_makes_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(channels.np.linalg, "svd", counting)

    def svd_calls(mat):
        calls.clear()
        product_diagonal_decomposition(mat)
        return len(calls)

    diagonal = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert svd_calls(diagonal) == 0
    assert svd_calls(np.eye(4, dtype=complex) / 4) == 0
    rng = np.random.default_rng(61)
    conditionals = [_qubit_state(rng, 2) for _ in range(2)]
    assert svd_calls(_classical_state(haar_qubit_unitary(rng), 0, (0.6, 0.4), conditionals)) == 1
    # planted control: a 2e-9 coherence across both sides' computational bases,
    # which the SVD confirms and the Werner reading cannot rebuild
    pushed = diagonal.copy()
    pushed[0, 3] = pushed[3, 0] = 2e-9 / np.sqrt(2)
    calls.clear()
    with pytest.raises(NotProductDiagonalError):
        product_diagonal_decomposition(pushed)
    assert len(calls) == 1


def test_rotated_qubit_eigenvectors_fail_the_reconstruction(monkeypatch):
    original = kernels.qubit_eigh
    c, s = np.cos(1e-6), np.sin(1e-6)

    def rotated(a, b, d):
        values, (v1, v2) = original(a, b, d)
        v1, v2 = np.array(v1), np.array(v2)
        return values, (tuple(c * v1 + s * v2), tuple(c * v2 - s * v1))

    monkeypatch.setattr(kernels, "qubit_eigh", rotated)
    target = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    with pytest.raises(NotProductDiagonalError):
        product_diagonal_decomposition(target)
    assert not isinstance(decide(make_werner(0.9), target), Convertible)


def _permutation(perm):
    m = np.zeros((4, 4))
    m[list(perm), range(4)] = 1.0
    return m


def _pair_replace(i, j):
    m = np.zeros((4, 4))
    m[[i, j], :] = 0.5
    return m


def test_catalog_shape_and_certification():
    cat = bell_extremal_catalog()
    assert len(cat) == 13
    # identity; A- and B-side sigma_x, sigma_y, sigma_z; then the six pair
    # replacements in (i, j) order
    paulis = [_permutation(p) for p in ((2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    expected = [np.eye(4)] + [m for m in paulis for _ in "AB"]
    expected += [_pair_replace(i, j) for i, j in pairs]
    for ch, want in zip(cat, expected):
        npt.assert_allclose(bell_action(ch), want, rtol=0, atol=1e-12)
    # the replace channels are the discard-and-prepare lowerings themselves
    for (i, j), ch in zip(pairs, cat[7:]):
        target = DensityMatrix(0.5 * BELL_PROJECTORS[i] + 0.5 * BELL_PROJECTORS[j])
        assert ch.kraus_pairs.tobytes() == discard_prepare_channel(target).kraus_pairs.tobytes()


def test_catalog_pauli_permutations():
    cat = bell_extremal_catalog()
    # channel 2 is the B-side sigma_x rotation: psi- <-> phi-
    ch = cat[2]
    out = ch.apply(DensityMatrix(BELL_PROJECTORS[0]))
    npt.assert_allclose(out.matrix, BELL_PROJECTORS[2], atol=1e-12)
    out = ch.apply(DensityMatrix(BELL_PROJECTORS[1]))
    npt.assert_allclose(out.matrix, BELL_PROJECTORS[3], atol=1e-12)


def test_catalog_closes_over_bell_diagonal_states():
    rng = np.random.default_rng(11)
    cat = bell_extremal_catalog()
    weights = np.sort(rng.dirichlet(np.ones(4)))[::-1]
    rho = make_bell_diagonal(tuple(weights))
    for ch in cat:
        out = ch.apply(rho)
        got, residual = bell_weights_of(out)
        assert residual < 1e-10
        npt.assert_allclose(got, bell_action(ch) @ np.asarray(weights), atol=1e-10)


def test_mix_weights_validation():
    cat = bell_extremal_catalog()
    with pytest.raises(BadWeightsError):
        mix([cat[0], cat[1]], [0.6, 0.6])
    with pytest.raises(BadWeightsError):
        mix([cat[0]], [0.5, 0.5])
    with pytest.raises(BadWeightsError, match="nonnegative"):
        mix([cat[0], cat[1]], [np.nan, 1.0])


def test_mix_combines_actions():
    cat = bell_extremal_catalog()
    ch = mix([cat[0], cat[7]], [0.7, 0.3])
    npt.assert_allclose(
        bell_action(ch), 0.7 * bell_action(cat[0]) + 0.3 * bell_action(cat[7]), atol=1e-14
    )
    rho = make_bell_diagonal((0.6, 0.2, 0.15, 0.05))
    expected = 0.7 * cat[0].apply(rho).matrix + 0.3 * cat[7].apply(rho).matrix
    npt.assert_allclose(ch.apply(rho).matrix, expected, atol=1e-12)


def test_mix_stack_is_scaled_concatenation():
    cat = bell_extremal_catalog()
    rng = np.random.default_rng(41)
    for _ in range(5):
        weights = rng.dirichlet(np.ones(len(cat)))
        weights[3] = 0.0
        weights /= weights.sum()
        expected = np.concatenate(
            [np.sqrt(w) * ch.estack for ch, w in zip(cat, weights) if w > 0.0]
        )
        npt.assert_allclose(mix(cat, weights).estack, expected, rtol=0, atol=1e-15)


def test_mix_of_one_channel_is_that_channel():
    cat = bell_extremal_catalog()
    assert mix([cat[2]], [1.0]) is cat[2]
    # a one-branch protocol compiles to its atom's channel, checked once
    atom = channels.diagonal_refill((0.4, 0.3, 0.2, 0.1))
    assert compile_protocol(Protocol(((1.0 - 5e-10, atom),))) is atom.channel()
    # a weight within the sum tolerance of 1 is still mixed
    assert mix([cat[2]], [1.0 - 1e-12]) is not cat[2]


def test_compile_protocol_matches_direct_application():
    sigma = DensityMatrix(np.diag([0.3, 0.3, 0.25, 0.15]).astype(complex))
    proto = Protocol(
        (
            (0.81, LocalUnitary(np.eye(2), np.eye(2))),
            (0.19, DiscardPrepare(sigma)),
        )
    )
    ch = compile_protocol(proto)
    for seed in (2, 9):
        rho = random_density_matrix(seed)
        npt.assert_allclose(ch.apply(rho).matrix, proto.apply(rho).matrix, atol=1e-11)


def test_pool_mixtures_match_mixed_channels():
    rng = np.random.default_rng(61)
    pool = bell_extremal_pool()
    assert pool is bell_extremal_pool()
    weights = rng.dirichlet(np.ones(13), size=9)
    weights[0] = np.eye(13)[4]  # a single channel
    g = rng.normal(size=(9, 2, 4, 4)) + 1j * rng.normal(size=(9, 2, 4, 4))
    out = pool.apply_mixtures(weights, g)
    assert out.shape == g.shape
    for w, rho, got in zip(weights, g, out):
        expected = kernels.apply_kraus(mix(bell_extremal_catalog(), w).estack, rho)
        npt.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_pool_rejects_a_bad_row_with_the_error_of_mix():
    pool = ChannelPool([ch.estack for ch in bell_extremal_catalog()])
    rho = np.broadcast_to(np.eye(4) / 4, (3, 4, 4)).astype(complex)
    good = np.full(13, 1 / 13)
    for bad, error, match in (
        (np.r_[1.1, -0.1, np.zeros(11)], BadWeightsError, "nonnegative"),
        (np.r_[0.5, np.zeros(12)], BadWeightsError, "sum to 1"),
        # within mix's 1e-9 on the sum, but not trace preserving within 1e-10
        (good + 5e-10 / 13, NotTracePreservingError, "completeness"),
    ):
        with pytest.raises(error, match=match):
            pool.apply_mixtures(np.stack([good, bad, good]), rho)


def test_pool_raises_from_its_own_completeness_check():
    # the stacked check reads this row's deviation as 1.00000008e-10, above
    # 1e-10, while the concatenated channel that mix builds reads 9.99996e-11;
    # the pool must refuse the row it found, not defer to mix
    row = [0.10380911846171291, 0.1563326299145126, 0.20496869734449263,
           0.06060754045790123, 0.08433642779822272, 0.07510288982463982,
           0.04181723251936235, 0.07136379625826506, 0.08574316307947291,
           0.0022884698612320154, 0.01592743067970774, 0.09207248967254654,
           0.0056301141779316]
    rho = np.broadcast_to(np.eye(4) / 4, (1, 4, 4)).astype(complex)
    with pytest.raises(NotTracePreservingError, match="row 0"):
        bell_extremal_pool().apply_mixtures(np.array([row]), rho)


def test_pool_checks_each_channel_when_built():
    good = bell_extremal_catalog()[0].estack
    with pytest.raises(NotTracePreservingError, match="row 1"):
        ChannelPool([good, 1.001 * good])
    for bad, shapes in (([], "[]"), ([np.zeros((2, 4, 3))], "[(2, 4, 3)]")):
        with pytest.raises(OutOfRangeError, match=re.escape(f"got shapes {shapes}")):
            ChannelPool(bad)


def test_pool_without_bell_actions_mixes_any_channels():
    rng = np.random.default_rng(62)
    u = haar_qubit_unitary(rng)
    pool_channels = [LocalUnitary(u, np.eye(2)).channel(), discard_prepare_channel(make_werner(0.0))]
    pool = ChannelPool([ch.estack for ch in pool_channels])
    weights = np.array([[0.3, 0.7], [1.0, 0.0]])
    rho = np.stack([random_density_matrix(1).matrix, random_density_matrix(2).matrix])
    for w, r, got in zip(weights, rho, pool.apply_mixtures(weights, rho)):
        expected = kernels.apply_kraus(mix(pool_channels, w).estack, r)
        npt.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_separable_kraus_stacks_check_every_row():
    u = np.eye(2, dtype=complex)
    factors = np.zeros((3, 2, 2, 2, 2), dtype=complex)
    factors[:, 0] = (u, u)
    factors[1, :2] = (np.sqrt(0.5) * u, u), (np.sqrt(0.5) * u, u)
    estacks = separable_kraus_stacks(factors)
    assert estacks.shape == (3, 2, 4, 4)
    npt.assert_allclose(estacks[1, 1], np.sqrt(0.5) * np.eye(4))
    factors[2, 0, 0] *= 1.001
    with pytest.raises(NotTracePreservingError, match="row 2"):
        separable_kraus_stacks(factors)
