"""Separable channels, protocol atoms, and the Bell-extremal channel catalog.

A separable channel is stored as its product Kraus pairs (A_k, B_k); the
lifted operators E_k = A_k (x) B_k must satisfy sum_k E_k^dagger E_k = I
within 1e-10. That is the channel's only form and its only check. A
separable Kraus form is necessary for local operations and classical
communication (LOCC) but not sufficient, so the type does not claim LOCC.
Every channel the package builds from protocol atoms is LOCC: a local
unitary, a discard-and-prepare of a separable state, and their mixtures.
``oracle.random_separable_channel`` draws separable channels that need not
be LOCC, which is what the paper's rank condition is stated for.

Protocols are finite mixtures of two atom kinds:

* ``LocalUnitary(u_a, u_b)``: apply u_a (x) u_b;
* ``DiscardPrepare(target)``: discard the input and prepare a fixed state
  that passes the partial-transpose test; only its lowering is limited, to
  a target classical on one side or a separable Werner state.

Each atom owns its action, ``atom.apply(mat)``, which ``Protocol.apply``
mixes, and its lowering, ``atom.channel()``, which ``compile_protocol`` mixes.
A discard-and-prepare lowers through ``product_diagonal_decomposition``.
A target classical in the computational basis, as every diagonal refill
is, shows its classical side in its entries; any other target takes one SVD
to find one. The eigenvectors of that side's basis and of its conditional
states come from a closed-form 2x2 eigensolver, so the lowering makes at
most one LAPACK call. Its checks stay: the 1e-9 one-sided tolerance, the
1e-12 cut for live terms, the 1e-9 reconstruction of the given matrix and
the channel's 1e-10 completeness.
An atom lowers on every call, except the shared atoms made here once per
process, which keep their channel: ``one_sided_pauli_atoms()``, the
identity first, and ``diagonal_refill``, one atom per diagonal.

``renormalize_probabilistic`` turns branches that only succeed with some
probability into the conditional protocol given success, rescaling branch
weights by their success probabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels, qmat
from .errors import (
    BadWeightsError,
    NotProductDiagonalError,
    NotSeparableError,
    NotTracePreservingError,
    NotUnitaryError,
    OutOfRangeError,
)
from .states import (
    BELL_PROJECTORS,
    DensityMatrix,
    _ZERO_EIGENVALUE,
    _one_mat_of,
    _werner_weight,
    as_density,
    is_entangled,
)

_COMPLETENESS_TOL = 1e-10
# dephasing-distance and reconstruction tolerance of product_diagonal_decomposition
_PRODUCT_TOL = 1e-9
_EYE4 = qmat.read_only(np.eye(4))


def _read_only_copy(m) -> np.ndarray:
    """A read-only complex128 copy of ``m``, read by ``qmat.complex_array``."""
    return qmat.read_only(qmat.complex_array(m).copy())


def _as_qubit_mat(m, what: str) -> np.ndarray:
    arr = _read_only_copy(m)
    if arr.shape != (2, 2):
        raise OutOfRangeError(f"{what} must be 2x2, got shape {arr.shape}")
    return arr


class _Lowering:
    """``channel()`` for both atom kinds.

    An atom lowers itself with ``_lower()`` on every call and keeps nothing,
    so a verdict that holds a protocol does not hold its channels. Only the
    shared atoms, which ``_kept`` marks, keep the channel of their first call.
    """

    _keeps = False

    def channel(self) -> "SeparableChannel":
        return self._kept_channel if self._keeps else self._lower()

    @functools.cached_property
    def _kept_channel(self) -> "SeparableChannel":
        return self._lower()


@dataclass(frozen=True, eq=False)
class LocalUnitary(_Lowering):
    """Product unitary u_a (x) u_b applied to both sides at once."""

    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_a", _as_qubit_mat(self.u_a, "u_a"))
        object.__setattr__(self, "u_b", _as_qubit_mat(self.u_b, "u_b"))
        for name, u in (("u_a", self.u_a), ("u_b", self.u_b)):
            if not qmat.is_unitary(u):
                raise NotUnitaryError(f"{name} is not unitary within 1e-9")

    def apply(self, mat: np.ndarray) -> np.ndarray:
        u = kernels.kron2(self.u_a, self.u_b)
        return u @ mat @ u.conj().T

    def _lower(self) -> "SeparableChannel":
        """The single-pair channel (u_a, u_b)."""
        return SeparableChannel([(self.u_a, self.u_b)])


@dataclass(frozen=True, eq=False)
class DiscardPrepare(_Lowering):
    """Discard the input and prepare a fixed separable state."""

    target: DensityMatrix

    def __post_init__(self):
        target = as_density(self.target)
        object.__setattr__(self, "target", target)
        if is_entangled(target):
            raise NotSeparableError(
                "prepared state fails the partial-transpose separability test"
            )

    def apply(self, mat: np.ndarray) -> np.ndarray:
        return self.target.matrix * np.trace(mat).real

    def _lower(self) -> "SeparableChannel":
        """Trace out the input and prepare the target; needs a product decomposition.

        The Kraus pairs are (p^(1/4) |a_i><j_a|, p^(1/4) |b_i><j_b|) over the
        decomposition terms i and computational indices j_a, j_b, in the order
        (i, j_a, j_b). They are written into one zeroed factor array, column
        j of each factor taking its scaled ket by slice assignment. The pairs
        of term i add p_i I to the completeness sum, so sum_i p_i = 1 makes
        the channel trace preserving; the terms need not be orthogonal. A
        target's trace may miss 1 by up to 1e-9, and dropped eigenvalues down
        to -1e-10 add to the sum, so weights that miss 1 by more than
        rounding (1e-12) are rescaled to sum to 1: the channel then prepares
        the target normalised, within the target's own trace error.
        """
        p, a, b = product_diagonal_decomposition(self.target)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            p = p / total
        scale = p[:, None] ** 0.25
        left, right = (scale * a)[:, None], (scale * b)[:, None]
        # [i, j_a, j_b, side, row, column]
        factors = np.zeros((len(p), 2, 2, 2, 2, 2), dtype=np.complex128)
        factors[:, 0, :, 0, :, 0] = left
        factors[:, 1, :, 0, :, 1] = left
        factors[:, :, 0, 1, :, 0] = right
        factors[:, :, 1, 1, :, 1] = right
        return SeparableChannel(factors.reshape(-1, 2, 2, 2))


def _kept(atom):
    """``atom``, marked to keep the channel that its first ``channel()`` call builds."""
    object.__setattr__(atom, "_keeps", True)
    return atom


@functools.cache
def one_sided_pauli_atoms() -> tuple:
    """The atoms of ``qmat.ONE_SIDED_PAULIS``, the identity first; each keeps its channel."""
    return tuple(_kept(LocalUnitary(a, b)) for a, b in qmat.ONE_SIDED_PAULIS)


@functools.cache
def diagonal_refill(diagonal: tuple) -> DiscardPrepare:
    """Discard and prepare the state with this diagonal; the atom keeps its channel."""
    return _kept(DiscardPrepare(DensityMatrix(np.diag(diagonal).astype(complex))))


def _checked_weights(weights, what: str) -> list:
    """The weights as floats, each at least -1e-12 and summing to 1 within 1e-9, so not none."""
    weights = [float(w) for w in weights]
    if not all(w >= -1e-12 for w in weights):
        raise BadWeightsError(f"{what} weights must be nonnegative, got {weights}")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise BadWeightsError(f"{what} weights must sum to 1 within 1e-9, got {sum(weights)!r}")
    return weights


@dataclass(frozen=True, eq=False)
class Protocol:
    """Convex mixture of protocol atoms: branches of (weight, atom)."""

    branches: tuple

    def __post_init__(self):
        branches = tuple((float(w), atom) for w, atom in self.branches)
        _checked_weights([w for w, _ in branches], "branch")
        for _, atom in branches:
            if not isinstance(atom, (LocalUnitary, DiscardPrepare)):
                raise TypeError(f"unsupported protocol atom {type(atom).__name__}")
        object.__setattr__(self, "branches", branches)

    def apply(self, rho) -> DensityMatrix:
        mat = _one_mat_of(rho)
        out = np.zeros((4, 4), dtype=np.complex128)
        for w, atom in self.branches:
            if w > 0.0:
                out += w * atom.apply(mat)
        return DensityMatrix(out)


@dataclass(frozen=True, eq=False)
class ProbabilisticBranch:
    """A protocol branch that only succeeds with some probability."""

    weight: float
    success_prob: float
    atom: LocalUnitary | DiscardPrepare

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0 + 1e-12:
            raise BadWeightsError(f"branch weight must lie in [0, 1], got {self.weight!r}")
        if not 0.0 <= self.success_prob <= 1.0 + 1e-12:
            raise BadWeightsError(
                f"success probability must lie in [0, 1], got {self.success_prob!r}"
            )


def renormalize_probabilistic(branches: Sequence[ProbabilisticBranch]) -> tuple:
    """Conditional protocol given success, plus the total success probability.

    Branch k is chosen with probability w_k and succeeds with probability
    s_k, so conditioned on success it contributes weight w_k s_k / sum_j w_j s_j.
    Branches that never succeed drop out.
    """
    _checked_weights([b.weight for b in branches], "branch")
    success = sum(b.weight * b.success_prob for b in branches)
    if success <= 0.0:
        raise BadWeightsError("no branch ever succeeds; conditional protocol is undefined")
    kept = tuple(
        (b.weight * b.success_prob / success, b.atom)
        for b in branches
        if b.weight * b.success_prob > 0.0
    )
    return Protocol(kept), float(success)


def _check_completeness(gram) -> None:
    """Raise unless each sum E^dagger E, one (4, 4) or a (t, 4, 4) stack, is within 1e-10 of I."""
    dev = qmat.frobenius_norm(gram - _EYE4)
    # one channel, the common case, passes on its one float
    if gram.ndim == 2 and dev <= _COMPLETENESS_TOL:
        return
    dev = np.reshape(dev, -1)
    bad = np.flatnonzero(~(dev <= _COMPLETENESS_TOL))
    if bad.size:
        raise NotTracePreservingError(
            f"Kraus completeness fails in row {bad[0]} of {dev.size}: "
            f"||sum E^dagger E - I|| = {dev[bad[0]]:.3e} > {_COMPLETENESS_TOL:g}"
        )


class SeparableChannel:
    """Trace-preserving channel given by product Kraus pairs (A_k, B_k).

    The pairs are held as one read-only (n, 2, 2, 2) array, row k being
    (A_k, B_k), and lifted once to the read-only (n, 4, 4) stack E_k = A_k (x) B_k.
    """

    __slots__ = ("_factors", "_estack")

    def __init__(self, pairs):
        factors = _read_only_copy(pairs)
        if factors.ndim != 4 or factors.shape[0] == 0 or factors.shape[1:] != (2, 2, 2):
            raise OutOfRangeError(
                f"need one or more pairs of 2x2 Kraus factors, got shape {factors.shape}"
            )
        self._factors = factors
        self._estack = qmat.read_only(separable_kraus_stacks(factors))

    @property
    def kraus_pairs(self) -> np.ndarray:
        return self._factors

    @property
    def estack(self) -> np.ndarray:
        return self._estack

    @property
    def n_kraus(self) -> int:
        return self._estack.shape[0]

    def apply(self, rho) -> DensityMatrix:
        return DensityMatrix(kernels.apply_kraus(self._estack, _one_mat_of(rho)))

    def __repr__(self):
        return f"SeparableChannel(n_kraus={self.n_kraus})"


def separable_kraus_stacks(factors: np.ndarray) -> np.ndarray:
    """The lifted stacks E_k = A_k (x) B_k of one or many channels, checked for completeness.

    ``factors`` holds one channel's pairs, shape (n, 2, 2, 2), or one channel
    per row t, shape (t, n, 2, 2, 2), padded with zero pairs, which add
    nothing. The (n, 4, 4) or (t, n, 4, 4) result is what
    ``kernels.apply_kraus`` takes; the 1e-10 check runs over all rows at once.
    """
    estacks = kernels.kron2(factors[..., 0, :, :], factors[..., 1, :, :])
    _check_completeness(kernels.kraus_gram(estacks))
    return estacks


# [side, i, mu] -> entries of rho: the Pauli coordinates of side A,
# tr(rho sigma_i (x) sigma_mu), and of side B, tr(rho sigma_mu (x) sigma_i),
# for i = x, y, z; each product P is Hermitian, so tr(rho P) = sum(conj(P) * rho)
_SIDE_ROWS = qmat.read_only(np.stack(
    [qmat.PAULI_PRODUCTS[1:], qmat.PAULI_PRODUCTS[:, 1:].swapaxes(0, 1)]
).conj().reshape(24, 16))


# [side, term]: the kets of the ten product terms of every separable Werner
# state, |n>|-n> for n = +x, +y, +z, -x, -y, -z, then |00>, |01>, |10>, |11>
_WERNER_KETS = qmat.read_only(np.array([
    [[1, 1], [1, 1j], [1, 0], [1, -1], [1, -1j], [0, 1], [1, 0], [1, 0], [0, 1], [0, 1]],
    [[1, -1], [1, -1j], [0, 1], [1, 1], [1, 1j], [1, 0], [1, 0], [0, 1], [1, 0], [0, 1]],
]) / np.sqrt([2, 2, 1, 2, 2, 1, 1, 1, 1, 1])[:, None])
# [term, ab]: the product kets |a_i b_i> of those terms
_WERNER_PRODUCTS = qmat.read_only(
    (_WERNER_KETS[0][:, :, None] * _WERNER_KETS[1][:, None, :]).reshape(-1, 4)
)
_SQRT2 = math.sqrt(2.0)


def _classical_side(mat: np.ndarray):
    """(side, basis) of a side on which ``mat`` is classical within 1e-9, or None.

    Dephasing a side in its computational basis moves rho by
    sqrt(2) ||rho_01||_F, with rho_01 that side's off-diagonal 2x2 block,
    read from the entries as Python floats. When the smaller of the two is
    within 1e-9, that side's basis is |0>, |1> and no LAPACK call is made;
    every diagonal state takes this path. Otherwise one SVD reads both
    sides. A side is classical in some basis iff its 3x4 Pauli coordinates
    have rank one (Dakic, Vedral and Brukner, PRL 105, 190502 (2010)).
    Dephasing it along the leading left singular vector n of its
    coordinates moves rho by sqrt(s2^2 + s3^2)/2, from their singular values
    s1 >= s2 >= s3, and its basis is the eigenvectors of n . sigma. Either
    way the side that moves less is taken, side A on a tie.
    """
    (_, m01, m02, m03), (_, _, m12, m13), (_, m21, _, m23), _ = mat.tolist()
    moved = [_SQRT2 * math.hypot(abs(m02), abs(m03), abs(m12), abs(m13)),
             _SQRT2 * math.hypot(abs(m01), abs(m03), abs(m21), abs(m23))]
    side = int(moved[1] < moved[0])
    if moved[side] <= _PRODUCT_TOL:
        return side, ((1.0, 0.0), (0.0, 1.0))
    axes, s, _ = np.linalg.svd((_SIDE_ROWS @ mat.reshape(16)).real.reshape(2, 3, 4))
    moved = [math.hypot(s2, s3) / 2.0 for _, s2, s3 in s.tolist()]
    side = int(moved[1] < moved[0])
    if not moved[side] <= _PRODUCT_TOL:
        return None
    # the eigenvectors u_k of n . sigma = [[z, x - iy], [x + iy, -z]]
    x, y, z = axes[side, :, 0].tolist()
    _, basis = kernels.qubit_eigh(z, complex(x, -y), -z)
    return side, basis


def product_diagonal_decomposition(mat) -> tuple:
    """Decompose a separable state as sum_i p_i |a_i b_i><a_i b_i| over product vectors.

    A state classical on one side, rho = sum_k |k><k| (x) rho_k over a basis
    {|k>} of that side, is found by ``_classical_side``, with no LAPACK call
    for a state classical in the computational basis (every diagonal state)
    and one SVD for any other. The orthogonal terms pair |k> with the
    eigenvectors of each rho_k. The rest is 2x2 Hermitian algebra, done in
    closed form on Python scalars by ``kernels.qubit_eigh``, once for each
    rho_k, whose entries come from one 4x2 matrix product of rho's entries
    with the projectors |k><k|. Any other state is read as a Werner state, w
    from its singlet overlap, which for w <= 1/3 is separable (Werner, PRA 40,
    4277 (1989)): the six products |n>|-n>, n = +-x, +-y, +-z, get w/2 each
    and the four computational products (1 - 3w)/4 each. Terms at or below
    1e-12 are dropped, and the rest must rebuild the given matrix within 1e-9
    in the Frobenius norm, else NotProductDiagonalError is raised, as for
    every entangled state and some separable ones. The weights sum to the trace, up to dropped eigenvalues;
    ``DiscardPrepare`` rescales them.

    ``mat`` is a state or a 4x4 array, which is validated as one. The terms
    come back as arrays (p, a, b) of shapes (n,), (n, 2) and (n, 2); the
    Werner kets, when no term is dropped, are read-only views of the
    package's own table. Nothing is cached here: a ``diagonal_refill`` atom
    keeps the channel built from the terms.
    """
    mat = as_density(mat).matrix
    classical = _classical_side(mat)
    if classical is not None:
        side, basis = classical
        # rho_k = <k|rho|k>: weights[(c, c'), k] = conj(u_k[c]) u_k[c'] contracts the
        # classical side's index pair of pairs[(a, a'), (b, b')] = rho[ab, a'b']
        (x0, y0), (x1, y1) = basis
        weights = np.array([
            [x0.conjugate() * x0, x1.conjugate() * x1],
            [x0.conjugate() * y0, x1.conjugate() * y1],
            [y0.conjugate() * x0, y1.conjugate() * x1],
            [y0.conjugate() * y0, y1.conjugate() * y1],
        ])
        pairs = mat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        rho_k = ((pairs.T if side == 0 else pairs) @ weights).tolist()
        # term (k, j): eigenvalue j of rho_k, |k> and eigenvector j of rho_k
        p, a, b = [], [], []
        for k, u in enumerate(basis):
            values, vectors = kernels.qubit_eigh(rho_k[0][k].real, rho_k[1][k], rho_k[3][k].real)
            p += values
            a += (u, u)
            b += vectors
        p, a, b = np.array(p), np.array(a, dtype=np.complex128), np.array(b, dtype=np.complex128)
        a, b = (b, a) if side else (a, b)
        ab = (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
    else:
        # capped at 1/3, so the weights sum to 1 just past it, still separable to 1e-10
        w = min(_werner_weight(mat), 1.0 / 3.0)
        p = np.repeat([w / 2.0, (1.0 - 3.0 * w) / 4.0], [6, 4])
        (a, b), ab = _WERNER_KETS, _WERNER_PRODUCTS
    live = p > _ZERO_EIGENVALUE
    if not live.all():
        p, a, b, ab = p[live], a[live], b[live], ab[live]
    off = (ab.T * p) @ ab.conj() - mat
    miss = qmat.frobenius_norm(off)
    if not miss <= _PRODUCT_TOL:
        raise NotProductDiagonalError(f"no product decomposition within 1e-9: off by {miss:.3e}")
    return p, a, b


def discard_prepare_channel(target) -> SeparableChannel:
    """Trace out the input and prepare ``target``; see ``DiscardPrepare.channel``."""
    return DiscardPrepare(target).channel()


def mix(channels: Sequence[SeparableChannel], weights: Sequence[float]) -> SeparableChannel:
    """Convex mixture of separable channels.

    The channels' factor rows, each scaled by w^(1/4), are concatenated and
    checked as one channel. A mixture of one channel at weight 1 is that
    channel, already checked, and is returned as it is.
    """
    if len(channels) != len(weights):
        raise BadWeightsError("need one weight per channel")
    weights = _checked_weights(weights, "mixture")
    if weights == [1.0]:
        return channels[0]
    factors = [w ** 0.25 * ch.kraus_pairs for ch, w in zip(channels, weights) if w > 0.0]
    return SeparableChannel(np.concatenate(factors))


class ChannelPool:
    """A fixed set of channels, prepared once so that many mixtures apply at once.

    The pool takes one or more Kraus stacks, (n_c, 4, 4) per channel, and
    checks each once. ``apply_mixtures(weights, rho)`` gives, for each row t
    of a (t, c) weight matrix, the mixture sum_c w_tc Phi_c applied to rho[t].
    No mixed channel is built: every channel is applied once to all the
    inputs, through its 16x16 transfer matrix (the images of the 16 matrix
    units, computed with ``kernels.apply_kraus`` when the pool is built), and
    the images are mixed by linearity. Each row passes the checks ``mix``
    makes on its mixture, over the rows at once: weights nonnegative and
    summing to 1 within 1e-9, and sum_c w_tc gram_c = I within 1e-10.
    """

    __slots__ = ("size", "_transfer", "_grams")

    def __init__(self, estacks: Sequence[np.ndarray]):
        estacks = [qmat.complex_array(e) for e in estacks]
        shapes = [e.shape for e in estacks]
        if not shapes or any(len(s) != 3 or s[1:] != (4, 4) for s in shapes):
            raise OutOfRangeError(f"need one or more (n, 4, 4) Kraus stacks, got shapes {shapes}")
        self.size = len(estacks)
        # one zero-padded Kraus stack per channel; zero operators add nothing
        padded = np.zeros((self.size, max(len(e) for e in estacks), 4, 4), complex)
        for c, e in enumerate(estacks):
            padded[c, : len(e)] = e
        grams = kernels.kraus_gram(padded)
        _check_completeness(grams)
        units = np.broadcast_to(np.eye(16).reshape(16, 4, 4), (self.size, 16, 4, 4))
        # [c, i, o]: entry o of the channel's image of matrix unit i
        self._transfer = kernels.apply_kraus(padded, units).reshape(self.size, 16, 16)
        self._grams = grams.reshape(self.size, 16)

    def apply_mixtures(self, weights, rho) -> np.ndarray:
        """sum_c w_tc Phi_c(rho[t]) for a (t, c) weight matrix and a (t, ..., 4, 4) input stack."""
        w = np.asarray(weights, dtype=np.float64)
        bad = np.flatnonzero(~((w >= -1e-12).all(axis=1) & (np.abs(w.sum(axis=1) - 1.0) <= 1e-9)))
        if bad.size:
            raise BadWeightsError(f"mixture weights must be nonnegative and sum to 1: {w[bad[0]]}")
        _check_completeness((w @ self._grams).reshape(-1, 4, 4))
        # [c, t, x, o]: every channel's image of every input
        images = rho.reshape(-1, 16) @ self._transfer
        images = images.reshape((self.size, len(w), -1, 16))
        # [t, x, 0, o] = sum_c w_tc images[c, t, x, o]
        return (w[:, None, None, :] @ images.transpose(1, 2, 0, 3)).reshape(rho.shape)


def compile_protocol(protocol: Protocol) -> SeparableChannel:
    """Lower a protocol to an explicit separable Kraus channel.

    The live branches' ``atom.channel()`` are mixed with their weights,
    renormalised, by ``mix``, whose one channel checks the mixture's Kraus
    completeness. Atoms validated themselves when they were built (unitarity,
    the partial-transpose test), so lowering does not repeat those checks.
    A shared atom keeps its channel, so it is lowered and checked once.
    """
    live = [(w, atom) for w, atom in protocol.branches if w > 0.0]
    total = sum(w for w, _ in live)
    return mix([atom.channel() for _, atom in live], [w / total for w, _ in live])


# ---------------------------------------------------------------------------
# the Bell-extremal catalog

@functools.cache
def bell_extremal_catalog() -> tuple:
    """The 13 channels spanning Bell-diagonal transitions.

    The kept channels of ``one_sided_pauli_atoms`` (the identity and six
    rotations, each permuting the Bell projectors), and six replace channels
    that discard the input and prepare the even mixture of one Bell pair
    (those mixtures are exactly the separable edges of the Bell-diagonal
    tetrahedron).
    ``oracle.monotone_audit`` applies random mixtures of them, stacked once
    by ``bell_extremal_pool``, to Bell-diagonal states.
    """
    channels = [atom.channel() for atom in one_sided_pauli_atoms()]
    for i in range(4):
        for j in range(i + 1, 4):
            target = DensityMatrix(0.5 * BELL_PROJECTORS[i] + 0.5 * BELL_PROJECTORS[j])
            channels.append(discard_prepare_channel(target))
    return tuple(channels)


@functools.cache
def bell_extremal_pool() -> ChannelPool:
    """``bell_extremal_catalog()`` stacked for mixing, built once."""
    return ChannelPool([channel.estack for channel in bell_extremal_catalog()])
