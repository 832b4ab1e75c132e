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
* ``DiscardPrepare(target)``: discard the input and prepare a fixed
  separable state.

Each atom owns its action, ``atom.apply(mat)``, which ``Protocol.apply``
mixes, and its lowering, ``atom.channel()``, which ``compile_protocol`` mixes.
An atom made with ``shared=True`` keeps its channel, so the atoms that
decisions share (the identity, the refills and the anti-parallel
preparations, cached in ``convertibility``) are lowered once per process.

``renormalize_probabilistic`` turns branches that only succeed with some
probability into the conditional protocol given success, rescaling branch
weights by their success probabilities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import kernels, qmat
from .errors import (
    BadWeightsError,
    NotProductDiagonalError,
    NotSeparableError,
    NotTracePreservingError,
    NotUnitaryError,
)
from .states import (
    BELL_PROJECTORS,
    DensityMatrix,
    _ZERO_EIGENVALUE,
    _one_mat_of,
    as_density,
    is_entangled,
)

_COMPLETENESS_TOL = 1e-10
# dephasing-distance and reconstruction tolerance of product_diagonal_decomposition
_PRODUCT_TOL = 1e-9


def _as_qubit_mat(m, what: str) -> np.ndarray:
    arr = np.array(m, dtype=np.complex128)
    if arr.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class _Lowering:
    """``channel()`` for both atom kinds.

    An atom lowers itself with ``_lower()`` on every call, and keeps nothing,
    so a verdict that holds a protocol does not hold its channels. An atom
    made with ``shared=True``, one built once and used by many protocols (the
    identity, the refills and the anti-parallel preparations that
    ``convertibility`` caches), builds and checks its channel on the first
    call and keeps it.
    """

    def channel(self) -> "SeparableChannel":
        return self._kept_channel if self.shared else self._lower()

    @functools.cached_property
    def _kept_channel(self) -> "SeparableChannel":
        return self._lower()


@dataclass(frozen=True, eq=False)
class LocalUnitary(_Lowering):
    """Product unitary u_a (x) u_b applied to both sides at once."""

    u_a: np.ndarray
    u_b: np.ndarray
    shared: bool = False

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
    shared: bool = False

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
        """Trace out the input and prepare the target; needs a product eigenbasis.

        The Kraus pairs are (p^(1/4) |a_i><j_a|, p^(1/4) |b_i><j_b|) over the
        decomposition terms i and computational indices j_a, j_b, in the order
        (i, j_a, j_b). They are written into one zeroed factor array, column
        j of each factor taking its scaled ket by slice assignment. The pairs
        of term i add p_i I to the completeness sum, so sum_i p_i = 1 makes
        the channel trace preserving; the terms need not be orthogonal.
        """
        p, a, b = product_diagonal_decomposition(self.target)
        scale = p[:, None] ** 0.25
        left, right = (scale * a)[:, None], (scale * b)[:, None]
        # [i, j_a, j_b, side, row, column]
        factors = np.zeros((len(p), 2, 2, 2, 2, 2), dtype=np.complex128)
        for j in range(2):
            factors[:, j, :, 0, :, j] = left
            factors[:, :, j, 1, :, j] = right
        return SeparableChannel(factors.reshape(-1, 2, 2, 2))


Atom = Union[LocalUnitary, DiscardPrepare]


@dataclass(frozen=True, eq=False)
class Protocol:
    """Convex mixture of protocol atoms: branches of (weight, atom)."""

    branches: tuple

    def __post_init__(self):
        branches = tuple((float(w), atom) for w, atom in self.branches)
        if not branches:
            raise BadWeightsError("a protocol needs at least one branch")
        weights = [w for w, _ in branches]
        if not all(w >= -1e-12 for w in weights):
            raise BadWeightsError(f"branch weights must be nonnegative, got {weights}")
        total = sum(weights)
        if not abs(total - 1.0) <= 1e-9:
            raise BadWeightsError(f"branch weights must sum to 1 within 1e-9, got {total!r}")
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
    atom: Atom

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
    if not branches:
        raise BadWeightsError("need at least one branch")
    total_w = sum(b.weight for b in branches)
    if not abs(total_w - 1.0) <= 1e-9:
        raise BadWeightsError(f"branch weights must sum to 1 within 1e-9, got {total_w!r}")
    success = sum(b.weight * b.success_prob for b in branches)
    if success <= 0.0:
        raise BadWeightsError("no branch ever succeeds; conditional protocol is undefined")
    kept = tuple(
        (b.weight * b.success_prob / success, b.atom)
        for b in branches
        if b.weight * b.success_prob > 0.0
    )
    return Protocol(kept), float(success)


class SeparableChannel:
    """Trace-preserving channel given by product Kraus pairs (A_k, B_k).

    The pairs are held as one read-only (n, 2, 2, 2) array, row k being
    (A_k, B_k), and lifted once to the (n, 4, 4) stack E_k = A_k (x) B_k.
    """

    __slots__ = ("_factors", "_estack")

    def __init__(self, pairs):
        factors = np.array(pairs, dtype=np.complex128)
        if factors.ndim != 4 or factors.shape[0] == 0 or factors.shape[1:] != (2, 2, 2):
            raise ValueError(
                f"need one or more pairs of 2x2 Kraus factors, got shape {factors.shape}"
            )
        factors.setflags(write=False)
        estack = kernels.kron2(factors[:, 0], factors[:, 1])
        gram = kernels.kraus_gram(estack)
        dev = qmat.frobenius_distance(gram, np.eye(4))
        if not dev <= _COMPLETENESS_TOL:
            raise NotTracePreservingError(
                f"Kraus completeness fails: ||sum E^dagger E - I|| = {dev:.3e} "
                f"> {_COMPLETENESS_TOL:g}"
            )
        self._factors = factors
        self._estack = estack

    @property
    def kraus_pairs(self) -> np.ndarray:
        return self._factors

    @property
    def estack(self) -> np.ndarray:
        return self._estack

    @property
    def n_kraus(self) -> int:
        return self._estack.shape[0]

    def apply_raw(self, mat: np.ndarray) -> np.ndarray:
        return kernels.apply_kraus(self._estack, np.ascontiguousarray(mat, dtype=np.complex128))

    def apply(self, rho) -> DensityMatrix:
        return DensityMatrix(self.apply_raw(_one_mat_of(rho)))

    def __repr__(self):
        return f"SeparableChannel(n_kraus={self.n_kraus})"


def separable_kraus_stacks(factors: np.ndarray, counts) -> np.ndarray:
    """Lifted Kraus stacks of many channels given as zero-padded factor rows.

    Row t of ``factors``, shape (t, n, 2, 2, 2), holds one channel's pairs in
    its first counts[t] entries and zeros after them. The result, shape
    (t, n, 4, 4), is what ``kernels.apply_kraus`` takes for several channels
    at once. Each channel passes the completeness check ``SeparableChannel``
    makes, evaluated over all rows at once; a row that fails is rebuilt as a
    ``SeparableChannel``, which raises that row's error.
    """
    estacks = kernels.kron2(factors[..., 0, :, :], factors[..., 1, :, :])
    dev = qmat.frobenius_norm(kernels.kraus_gram(estacks) - np.eye(4))
    for row in np.flatnonzero(~(dev <= _COMPLETENESS_TOL)):
        SeparableChannel(factors[row, : counts[row]])
    return estacks


# [side, i, mu] -> entries of rho: the Pauli coordinates of side A,
# tr(rho sigma_i (x) sigma_mu), and of side B, tr(rho sigma_mu (x) sigma_i),
# for i = x, y, z; each product P is Hermitian, so tr(rho P) = sum(conj(P) * rho)
_SIDE_ROWS = np.stack(
    [qmat.PAULI_PRODUCTS[1:], qmat.PAULI_PRODUCTS[:, 1:].swapaxes(0, 1)]
).conj().reshape(24, 16)


def product_diagonal_decomposition(mat) -> tuple:
    """Decompose a state as sum_i p_i |a_i b_i><a_i b_i| over orthogonal product vectors.

    Such a decomposition exists exactly when the state is classical on one
    side, rho = sum_k |k><k| (x) rho_k over a basis {|k>} of that side, which
    holds when the side's 3x4 Pauli coordinates have rank one (Dakic, Vedral
    and Brukner, PRL 105, 190502 (2010)). Dephasing a side along the leading
    left singular vector n of its coordinates moves rho by sqrt(s2^2 + s3^2)/2,
    from their singular values s1 >= s2 >= s3. The side that moves least is
    used when that is within 1e-9: the terms pair the eigenvectors |k> of
    n . sigma with those of each rho_k, eigenvalues at or below 1e-12
    dropped. Otherwise it raises NotProductDiagonalError, as for every
    entangled state and for some separable ones.

    ``mat`` is a state or a 4x4 array, which is validated as one. The terms
    come back as arrays (p, a, b) of shapes (n,), (n, 2) and (n, 2). Nothing
    is cached here: a shared ``DiscardPrepare`` atom keeps the channel built
    from the terms.
    """
    mat = as_density(mat).matrix
    axes, s, _ = np.linalg.svd((_SIDE_ROWS @ mat.reshape(16)).real.reshape(2, 3, 4))
    moved = np.hypot(s[:, 1], s[:, 2]) / 2.0
    side = int(np.argmin(moved))
    if not moved[side] <= _PRODUCT_TOL:
        raise NotProductDiagonalError(
            f"the state is classical on neither side: dephasing moves it by {moved[side]:.3e}"
        )
    n_sigma = (axes[side, :, 0] @ qmat.PAULIS[1:].reshape(3, 4)).reshape(2, 2)
    _, basis = kernels.hermitian_eigh(n_sigma)
    # [a, b, a', b'] with the classical side first, and rho_k = <k|rho|k> from it
    t = mat.reshape(2, 2, 2, 2)
    t = t.transpose(1, 0, 3, 2) if side else t
    values, vectors = kernels.hermitian_eigh(np.einsum("ak,abcd,ck->kbd", basis.conj(), t, basis))
    # term (k, j): eigenvalue j of rho_k, |k> and eigenvector j of rho_k
    p = values.reshape(4)
    a = np.repeat(basis.T, 2, axis=0)
    b = vectors.swapaxes(1, 2).reshape(4, 2)
    a, b = (b, a) if side else (a, b)
    live = p > _ZERO_EIGENVALUE
    p, a, b = p[live], a[live], b[live]
    ab = (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
    recon = (ab.T * p) @ ab.conj()
    if qmat.frobenius_distance(recon, mat) > _PRODUCT_TOL:
        raise NotProductDiagonalError("product reconstruction failed verification")
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
    weights = [float(w) for w in weights]
    if not all(w >= -1e-12 for w in weights):
        raise BadWeightsError(f"mixture weights must be nonnegative, got {weights}")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise BadWeightsError(f"mixture weights must sum to 1, got {sum(weights)!r}")
    if weights == [1.0]:
        return channels[0]
    factors = [w ** 0.25 * ch.kraus_pairs for ch, w in zip(channels, weights) if w > 0.0]
    return SeparableChannel(np.concatenate(factors))


class ChannelPool:
    """A fixed set of channels, prepared once so that many mixtures apply at once.

    ``apply_mixtures(weights, rho)`` gives, for each row t of a (t, c) weight
    matrix, the mixture sum_c w_tc Phi_c applied to rho[t]. No mixed channel
    is built: every channel is applied once to all the inputs, through its
    16x16 transfer matrix (the images of the 16 matrix units, computed with
    ``kernels.apply_kraus`` when the pool is built), and the images are mixed
    by linearity. Each row still passes the checks ``mix`` makes on its
    mixture, evaluated over the rows at once: weights nonnegative and
    summing to 1 within 1e-9, and completeness sum_c w_tc gram_c = I within
    1e-10. A row that fails is rebuilt through ``mix``, which raises that
    row's error.
    """

    __slots__ = ("channels", "_transfer", "_grams")

    def __init__(self, channels: Sequence[SeparableChannel]):
        self.channels = tuple(channels)
        count = len(self.channels)
        # one zero-padded Kraus stack per channel; zero operators add nothing
        estacks = np.zeros((count, max(ch.n_kraus for ch in self.channels), 4, 4), complex)
        for c, ch in enumerate(self.channels):
            estacks[c, : ch.n_kraus] = ch.estack
        units = np.broadcast_to(np.eye(16).reshape(16, 4, 4), (count, 16, 4, 4))
        # [c, i, o]: entry o of the channel's image of matrix unit i
        self._transfer = kernels.apply_kraus(estacks, units).reshape(count, 16, 16)
        self._grams = kernels.kraus_gram(estacks).reshape(count, 16)

    def apply_mixtures(self, weights, rho) -> np.ndarray:
        """sum_c w_tc Phi_c(rho[t]) for a (t, c) weight matrix and a (t, ..., 4, 4) input stack."""
        w = np.asarray(weights, dtype=np.float64)
        ok = (w >= -1e-12).all(axis=1) & (np.abs(w.sum(axis=1) - 1.0) <= 1e-9)
        gram = (w @ self._grams).reshape(-1, 4, 4)
        ok &= qmat.frobenius_norm(gram - np.eye(4)) <= _COMPLETENESS_TOL
        for row in np.flatnonzero(~ok):
            mix(self.channels, w[row])
        # [c, t, x, o]: every channel's image of every input
        images = rho.reshape(-1, 16) @ self._transfer
        images = images.reshape((len(self.channels), len(w), -1, 16))
        # [t, x, 0, o] = sum_c w_tc images[c, t, x, o]
        return (w[:, None, None, :] @ images.transpose(1, 2, 0, 3)).reshape(rho.shape)


def compile_protocol(protocol: Protocol) -> SeparableChannel:
    """Lower a protocol to an explicit separable Kraus channel.

    The live branches' ``atom.channel()`` are mixed with their weights,
    renormalised, by ``mix``, whose one channel checks the mixture's Kraus
    completeness. Atoms validated themselves when they were built (unitarity,
    the partial-transpose test), so lowering does not repeat those checks. A
    shared atom keeps its channel, checked when first built, so it is lowered
    and checked once per process.
    """
    live = [(w, atom) for w, atom in protocol.branches if w > 0.0]
    total = sum(w for w, _ in live)
    return mix([atom.channel() for _, atom in live], [w / total for w, _ in live])


# ---------------------------------------------------------------------------
# the Bell-extremal catalog

@functools.cache
def bell_extremal_catalog() -> tuple:
    """The 13 channels spanning Bell-diagonal transitions.

    One identity, six one-sided Pauli rotations (each permutes the Bell
    projectors), and six replace channels that discard the input and prepare
    the even mixture of one Bell pair (those mixtures are exactly the
    separable edges of the Bell-diagonal tetrahedron). A channel's action on
    Bell weights is read off the channel: ``bell_weights_of`` of its image
    of each Bell projector.
    """
    channels = [SeparableChannel([pair]) for pair in qmat.ONE_SIDED_PAULIS]
    for i in range(4):
        for j in range(i + 1, 4):
            target = DensityMatrix(0.5 * BELL_PROJECTORS[i] + 0.5 * BELL_PROJECTORS[j])
            channels.append(discard_prepare_channel(target))
    return tuple(channels)


@functools.cache
def bell_extremal_pool() -> ChannelPool:
    """``bell_extremal_catalog()`` stacked for mixing, built once."""
    return ChannelPool(bell_extremal_catalog())
