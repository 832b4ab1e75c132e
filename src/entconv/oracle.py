"""Randomized adversarial checks and a convex protocol search.

Nothing here trusts the decision rules: the falsifiers sample separable
channels and states independently and hunt for counterexamples to the claims
the rest of the package relies on (rank monotonicity, the Bell-diagonal
monotones, concurrence non-increase). A healthy implementation produces
empty reports; any finding comes with the seed and trial index needed to
reproduce it.

Determinism contract: every trial derives its own generator from
(seed, trial index) and reads it in a fixed order, so reports are
reproducible and trials can be sharded across workers without changing the
outcome. A random channel reads its generator in three draws (its free
factors, its scale, then all of its Haar factors in one Gaussian draw),
whose numbers are exactly those of drawing each block in turn, so a trial's
stream does not depend on how the channel is assembled.

The falsifiers run their trials in blocks of at most ``_BLOCK``. A Python
pass reads each trial's generator, and the linear algebra between draws
runs once per block over stacked arrays. The contract holds per trial,
whatever the block: a trial draws the same numbers and reaches the same
findings alone or among 255 others, and a run of n trials reports what the
first n trials of a longer run report.

The protocol search is a convex least-squares problem over the simplex of
mixture weights of a fixed set of LOCC atoms; see ``convert_search``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels, qmat
from .channels import (
    ChannelPool,
    DiscardPrepare,
    LocalUnitary,
    Protocol,
    SeparableChannel,
    bell_extremal_pool,
    separable_kraus_stacks,
)
from .convertibility import verify_protocol
from .errors import SamplingExhaustedError
from .measures import bell_monotones, concurrence, negativity
from .states import (
    DensityMatrix,
    _gapped_rank,
    as_density,
    bell_diagonal_matrices,
    bell_weights_of,
    min_pt_eigenvalue,
)

_BLOCK = 256  # trials per block of stacked arithmetic
_ENTANGLEMENT_MARGIN = 1e-4
_ENTANGLED_TRIES = 200
_NEGATIVITY_MARGIN = 1e-6


@dataclass
class SearchReport:
    """Outcome of a randomized hunt: sample count, findings, wall time.

    ``live`` maps each claim the hunt checks to the number of trials that
    actually tested it; a trial whose output cannot witness a violation
    does not count. A claim no trial reached reads 0. ``skipped`` maps each
    reason a trial can fail to test a claim to the number of such trials;
    for every claim, its live count plus the counts of the reasons that
    skip it equals ``trials``.
    """

    trials: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    live: Counter = field(default_factory=Counter)
    skipped: Counter = field(default_factory=Counter)

    @property
    def clean(self) -> bool:
        return not self.counterexamples


# the projectors a completion pair acts on, by index: the identity at 0, then
# the rank-1 eigenprojectors (plus, minus) of each Pauli axis at _PROJ_INDEX
_PROJ_INDEX = ((1, 2), (3, 4), (5, 6))
_COMPLETION_PROJ = qmat.read_only(np.array(
    [qmat.EYE2]
    + [0.5 * (qmat.EYE2 + sign * sigma) for sigma in qmat.PAULIS[1:] for sign in (1, -1)]
))


# The completion pairs of one remainder entry (mu, nu) != (0, 0), listed
# row-major, two slots each: (index of Pa, index of Pb) when the entry is
# positive, the same when it is negative, and whether the slot is used. An
# entry with both axes non-trivial gives two pairs; one with the identity on
# a side gives one.
def _completion_slots() -> tuple:
    slots = []
    for mu in range(4):
        for nu in range(4):
            if mu == nu == 0:
                continue
            if mu and nu:
                plus_a, minus_a = _PROJ_INDEX[mu - 1]
                plus_b, minus_b = _PROJ_INDEX[nu - 1]
                slots += [(plus_a, plus_b, plus_a, minus_b, 1),
                          (minus_a, minus_b, minus_a, plus_b, 1)]
            elif mu == 0:
                plus_b, minus_b = _PROJ_INDEX[nu - 1]
                slots += [(0, plus_b, 0, minus_b, 1), (0, 0, 0, 0, 0)]
            else:
                plus_a, minus_a = _PROJ_INDEX[mu - 1]
                slots += [(plus_a, 0, minus_a, 0, 1), (0, 0, 0, 0, 0)]
    table = qmat.read_only(np.array(slots).reshape(15, 2, 5))
    return table[..., 0:2], table[..., 2:4], qmat.read_only(table[..., 4] == 1)


_SLOT_POS, _SLOT_NEG, _SLOT_USED = _completion_slots()


def _front(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's kept entries moved to its front, in order, and zeros after them."""
    rows, cols = np.nonzero(keep)
    out = np.zeros_like(values)
    out[rows, np.cumsum(keep, axis=1)[rows, cols] - 1] = values[rows, cols]
    return out


def _random_channel_factors(rngs: Sequence, n_kraus: Sequence[int]) -> np.ndarray:
    """Kraus factors of ``random_separable_channel`` for many generators at once.

    Row t of the (t, n, 2, 2, 2) result holds the pairs of
    ``random_separable_channel(rngs[t], n_kraus[t])``, then zero pairs. Each
    generator is read exactly as there: every free factor in one Gaussian
    draw, the remainder's scale, then every Haar factor in one Gaussian draw.
    Between the draws the arithmetic runs over all rows at once, the free
    pairs and completion terms zero-padded to a common length.
    """
    n_kraus = np.asarray(n_kraus, dtype=int)
    g = np.zeros((len(rngs), n_kraus.max(initial=1), 2, 2, 2, 2))
    u = np.zeros(len(rngs))
    for t, (rng, n) in enumerate(zip(rngs, n_kraus)):
        # [pair, side, real/imaginary part]
        g[t, :n] = rng.normal(size=(n, 2, 2, 2, 2))
        if n > 1:
            u[t] = rng.uniform(0.35, 0.9)
    free = g[:, :, :, 0] + 1j * g[:, :, :, 1]
    counts = np.ones(len(rngs), dtype=int)

    # one free pair: its polar unitary parts, since one Kraus operator can
    # only be trace preserving when it is unitary
    single = n_kraus == 1
    left, _, right = np.linalg.svd(free[single, 0])
    polar = left @ right

    multi = np.flatnonzero(~single)
    free, u, n_free = free[multi], u[multi], n_kraus[multi]
    a, b = free[:, :, 0], free[:, :, 1]
    gram = kernels.kron2(a.conj().swapaxes(-1, -2) @ a, b.conj().swapaxes(-1, -2) @ b).sum(axis=1)
    # <sigma_mu (x) sigma_nu, gram> / 4 for all 16 products at once
    coeff = np.einsum("mnij,tij->tmn", qmat.PAULI_PRODUCTS.conj(), gram).real / 4.0
    magnitude = np.abs(coeff).reshape(-1, 16)
    weight_sum = coeff[:, 0, 0] + np.sum(magnitude, axis=1) - magnitude[:, 0]
    c2 = u / weight_sum
    # a scalar power per row: numpy's array power can differ in the last bit
    scale = np.array([c ** 0.25 for c in c2.tolist()])

    # the remainder's terms (gram weight w, index of Pa, index of Pb) by
    # entry and slot, then the identity slack term (1 - u, 0, 0)
    r = (-c2[:, None, None] * coeff).reshape(-1, 16)[:, 1:, None]
    used = (np.abs(r) >= 1e-15) & _SLOT_USED
    weight = np.where(used, 2 * np.abs(r), 0.0).reshape(len(u), 30)
    index = np.where(r[..., None] > 0, _SLOT_POS, _SLOT_NEG).reshape(len(u), 30, 2)
    used = np.concatenate([used.reshape(len(u), 30), np.ones((len(u), 1), bool)], axis=1)
    weight = np.concatenate([weight, (1.0 - u)[:, None]], axis=1)
    index = np.concatenate([index, np.zeros((len(u), 1, 2), int)], axis=1)
    n_terms = used.sum(axis=1)
    width = n_terms.max(initial=0)
    weight = _front(weight, used)[:, :width]
    projectors = _COMPLETION_PROJ[_front(index, used)[:, :width]]

    # a normalized complex Gaussian pair (alpha, beta) is Haar on SU(2);
    # [term, side, (re alpha, im alpha, re beta, im beta)]. Padding terms
    # keep a placeholder draw and weight 0.
    h = np.ones((len(u), width, 2, 4))
    for row, (t, k) in enumerate(zip(multi, n_terms)):
        h[row, :k] = rngs[t].normal(size=(k, 2, 4))
    alpha = h[..., 0] + 1j * h[..., 1]
    beta = h[..., 2] + 1j * h[..., 3]
    norm = np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    haar = np.empty(h.shape[:-1] + (2, 2), dtype=np.complex128)
    haar[..., 0, 0], haar[..., 0, 1] = alpha, beta
    haar[..., 1, 0], haar[..., 1, 1] = -beta.conj(), alpha.conj()
    # left unitary factors keep the gram contribution w * Pa (x) Pb while
    # randomizing where the channel sends that component. haar @ projectors
    # is written out: each projector entry is 0, 1, +-1/2 or +-i/2, so every
    # product is exact and the sums round as the matrix product's do
    completion = haar[..., :, 0, None] * projectors[..., None, 0, :]
    completion += haar[..., :, 1, None] * projectors[..., None, 1, :]
    completion *= weight[..., None, None, None] ** 0.25

    # each row: its free pairs, rescaled, then its completion pairs
    counts[multi] = n_free + n_terms
    factors = np.zeros((len(rngs), counts.max(initial=1), 2, 2, 2), dtype=np.complex128)
    factors[single, 0] = polar
    rows, cols = np.nonzero(np.arange(free.shape[1]) < n_free[:, None])
    factors[multi[rows], cols] = scale[rows, None, None, None] * free[rows, cols]
    rows, cols = np.nonzero(np.arange(width) < n_terms[:, None])
    factors[multi[rows], n_free[rows] + cols] = completion[rows, cols]
    return factors


def random_separable_channel(seed, n_kraus: int = 3) -> SeparableChannel:
    """Random trace-preserving separable channel with n_kraus free pairs.

    The free pairs have complex Gaussian factors. They are rescaled so the
    remainder I - sum E^dagger E stays diagonally dominant in the product
    Pauli basis, then that remainder is emitted exactly as product-projector
    pairs plus an identity slack term, each behind Haar-random unitaries. A
    single-pair request returns the polar unitary parts of the Gaussian
    draw, since one Kraus operator can only be trace preserving when it is
    unitary.

    This is the one-generator case of the falsifier's block builder, whose
    one row has no padding; it reads the generator as that builder does.
    """
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be >= 1, got {n_kraus!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return SeparableChannel(_random_channel_factors([rng], [n_kraus])[0])


def _blocks(trials: int):
    """The trial indices in order, in ranges of at most _BLOCK."""
    return (range(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK))


def _random_entangled(rngs: Sequence, ranks: Sequence[int]) -> np.ndarray:
    """One Gaussian state per generator, of its rank, with negativity above the margin.

    Each generator draws candidates until one clears the margin, at most
    _ENTANGLED_TRIES of them. The candidates of one round are tested
    together, with one stacked eigensolve.
    """
    ranks = np.asarray(ranks)
    mats = np.empty((len(rngs), 4, 4), dtype=np.complex128)
    waiting = np.arange(len(rngs))
    for _ in range(_ENTANGLED_TRIES):
        if not waiting.size:
            break
        candidates = np.empty((waiting.size, 4, 4), dtype=np.complex128)
        for rank in np.unique(ranks[waiting]):
            rows = ranks[waiting] == rank
            g = np.stack([
                rngs[t].normal(size=(4, rank)) + 1j * rngs[t].normal(size=(4, rank))
                for t in waiting[rows]
            ])
            mat = g @ qmat.dag(g)
            candidates[rows] = mat / np.trace(mat, axis1=-2, axis2=-1).real[:, None, None]
        accepted = -min_pt_eigenvalue(candidates) > _ENTANGLEMENT_MARGIN
        mats[waiting[accepted]] = candidates[accepted]
        waiting = waiting[~accepted]
    if waiting.size:
        raise SamplingExhaustedError(
            f"no rank-{ranks[waiting[0]]} state with negativity above "
            f"{_ENTANGLEMENT_MARGIN:g} found in {_ENTANGLED_TRIES} draws"
        )
    return mats


def _random_separable_stacks(rngs: Sequence, n_kraus: Sequence[int]) -> np.ndarray:
    """Checked Kraus stacks of ``random_separable_channel`` for a block of generators."""
    return separable_kraus_stacks(_random_channel_factors(rngs, n_kraus))


def falsify_rank_monotonicity(
    trials: int,
    seed: int = 42,
    channel_factory: Callable = _random_separable_stacks,
) -> SearchReport:
    """Hunt for a separable channel that lowers the rank of an entangled state.

    Each trial draws an entangled input of rank 3 or 4 (alternating) and a
    channel with 1 to 5 free Kraus pairs: ``channel_factory(rngs, n_kraus)``
    gives a block's channels as one (t, n, 4, 4) Kraus-stack array, random
    separable ones by default; a planted control passes another builder. A
    counterexample must clear both margins: output negativity above 1e-6 and
    a clean gap (each eigenvalue at most 1e-12 or above 1e-6) with fewer
    eigenvalues above 1e-6 than the input's rank. The expected outcome is an
    empty report. ``live["rank"]`` counts the trials whose output cleared the
    negativity margin, ``skipped["output_not_entangled"]`` the others.
    """
    start = time.perf_counter()
    report = SearchReport(
        trials=trials, live=Counter(rank=0), skipped=Counter(output_not_entangled=0)
    )
    for block in _blocks(trials):
        rngs = [np.random.default_rng((seed, trial)) for trial in block]
        ranks = np.array([3 if trial % 2 else 4 for trial in block])
        mats = _random_entangled(rngs, ranks)
        n_kraus = [int(rng.integers(1, 6)) for rng in rngs]
        outs = kernels.apply_kraus(channel_factory(rngs, n_kraus), mats)
        neg = negativity(outs)
        live = np.flatnonzero(neg > _NEGATIVITY_MARGIN)
        report.live["rank"] += live.size
        report.skipped["output_not_entangled"] += len(block) - live.size
        if not live.size:
            continue
        spectra, _ = kernels.hermitian_eigh(outs[live])
        rank_out, clean = _gapped_rank(spectra)
        dropped = clean & (rank_out < ranks[live])
        for i, values, r_out in zip(live[dropped], spectra[dropped], rank_out[dropped]):
            report.counterexamples.append(
                {
                    "trial": block[i],
                    "seed": seed,
                    "rank_in": int(ranks[i]),
                    "rank_out": int(r_out),
                    "n_kraus": n_kraus[i],
                    "negativity_out": float(neg[i]),
                    "spectrum_out": [float(v) for v in values],
                }
            )
    report.elapsed = time.perf_counter() - start
    return report


_FLAT4 = qmat.read_only(np.ones(4))


def _entangled_bell_weights(rng) -> np.ndarray:
    """Sorted flat-Dirichlet Bell weights, drawn until the top one exceeds 1/2."""
    for _ in range(500):
        weights = np.sort(rng.dirichlet(_FLAT4))[::-1]
        if weights[0] > 0.5 + 1e-6:
            return weights
    raise SamplingExhaustedError("no entangled Bell-diagonal sample found")


def monotone_audit(
    trials: int,
    seed: int = 42,
    channel_pool: Optional[Sequence[np.ndarray]] = None,
) -> SearchReport:
    """Check the three Bell-diagonal monotones and concurrence under mixtures.

    Each trial mixes the extremal catalog with random weights, applies the
    mixture to a random entangled Bell-diagonal state, and re-reads the
    output weights numerically. For outputs that remain entangled, any
    monotone that grew by more than 1e-9 is recorded. The same mixture is
    also applied to a random rank-4 state to audit concurrence non-increase,
    which holds for every certified channel on every state. A planted control
    passes other channels as Kraus stacks in ``channel_pool``. The mixture is
    never built: each pool channel is applied once to a block's inputs and
    its images are mixed by linearity (``ChannelPool``), under the checks
    ``mix`` makes. ``live["monotones"]`` counts the outputs that stayed
    entangled, ``live["concurrence"]`` the trials that reached the
    concurrence check. ``skipped["left_bell_diagonal"]`` counts outputs that
    left the Bell-diagonal family (they test neither claim) and
    ``skipped["output_not_entangled"]`` Bell-diagonal outputs with top
    weight at most 1/2 (they test only concurrence).
    """
    start = time.perf_counter()
    report = SearchReport(
        trials=trials,
        live=Counter(monotones=0, concurrence=0),
        skipped=Counter(left_bell_diagonal=0, output_not_entangled=0),
    )
    pool = bell_extremal_pool() if channel_pool is None else ChannelPool(channel_pool)
    flat = np.ones(pool.size)
    for block in _blocks(trials):
        weights = np.empty((len(block), 4))
        mixture = np.empty((len(block), pool.size))
        g = np.empty((len(block), 2, 4, 4))
        for i, trial in enumerate(block):
            rng = np.random.default_rng((seed, trial))
            weights[i] = _entangled_bell_weights(rng)
            mixture[i] = rng.dirichlet(flat)
            # the real, then the imaginary part of the general state's factor
            g[i] = rng.normal(size=(2, 4, 4))
        rho = bell_diagonal_matrices(weights)
        general = g[:, 0] + 1j * g[:, 1]
        general = general @ qmat.dag(general)
        general /= np.trace(general, axis1=-2, axis2=-1).real[:, None, None]
        outs = pool.apply_mixtures(mixture, np.stack([rho, general], axis=1))
        out_weights, residual = bell_weights_of(outs[:, 0])
        left = residual > 1e-9
        out_sorted = np.sort(out_weights, axis=1)[:, ::-1]
        entangled = ~left & (out_sorted[:, 0] > 0.5)
        reached = np.flatnonzero(~left)
        c_in, c_out = np.zeros((2, len(block)))
        if reached.size:
            c_in[reached], c_out[reached] = concurrence(
                np.stack([general[reached], outs[reached, 1]])
            )
        rises = c_out > c_in + 1e-9
        report.live["monotones"] += int(entangled.sum())
        report.live["concurrence"] += reached.size
        report.skipped["left_bell_diagonal"] += int(left.sum())
        report.skipped["output_not_entangled"] += reached.size - int(entangled.sum())
        for i in np.flatnonzero(left | entangled | rises):
            trial = block[i]
            if left[i]:
                report.counterexamples.append(
                    {"trial": trial, "seed": seed, "kind": "left_bell_diagonal",
                     "residual": float(residual[i])}
                )
                continue
            if entangled[i]:
                m_in = bell_monotones(tuple(weights[i]))
                m_out = bell_monotones(tuple(out_sorted[i]))
                for k, (a, b) in enumerate(zip(m_in, m_out), start=1):
                    if b > a + 1e-9:
                        report.counterexamples.append(
                            {
                                "trial": trial,
                                "seed": seed,
                                "kind": f"monotone_e{k}_increase",
                                "weights_in": [float(x) for x in weights[i]],
                                "weights_out": [float(x) for x in out_sorted[i]],
                                "e_in": float(a),
                                "e_out": float(b),
                            }
                        )
            if rises[i]:
                report.counterexamples.append(
                    {
                        "trial": trial,
                        "seed": seed,
                        "kind": "concurrence_increase",
                        "c_in": float(c_in[i]),
                        "c_out": float(c_out[i]),
                    }
                )
    report.elapsed = time.perf_counter() - start
    return report


@functools.cache
def _search_atoms() -> tuple:
    return tuple(LocalUnitary(a, b) for a, b in qmat.ONE_SIDED_PAULIS)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use.

    scipy.optimize is most of the package's import time and only the
    protocol search needs it, so importing ``entconv`` does not load it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def convert_search(rho, rho2, budget: int = 20000, seed: int = 42):
    """Search for a protocol sending rho to rho2; returns (distance, protocol).

    The protocols searched mix the seven one-sided Pauli rotations with one
    discard-and-prepare branch whose diagonal target is itself free. Their
    output is linear in eleven weights on the simplex: one per rotation and
    one per diagonal entry of the prepared state. So the search is a convex
    least-squares problem, solved to its minimum by SLSQP within at most
    ``budget`` iterations. Every atom is LOCC, so a protocol found below the 1e-6
    acceptance distance is a constructive certificate. A miss returns the
    minimum output Frobenius distance over this family of protocols: no
    protocol of this form reaches the target, but another one may. ``seed``
    is unused; it is kept so that existing callers need no change.
    """
    source = as_density(rho)
    target = as_density(rho2)
    atoms = _search_atoms()
    rotated = np.stack([atom.apply(source.matrix).ravel() for atom in atoms])
    # rows 0, 5, 10 and 15 of the 16x16 identity are the flattened |i><i|
    columns = np.concatenate([rotated, np.eye(16)[::5]])
    a = np.concatenate([columns.real, columns.imag], axis=1).T
    t = np.concatenate([target.matrix.real.ravel(), target.matrix.imag.ravel()])
    n = a.shape[1]

    def objective(v: np.ndarray) -> tuple:
        r = a @ v - t
        return 0.5 * float(r @ r), a.T @ r

    res = minimize(
        objective,
        np.full(n, 1.0 / n),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=({"type": "eq", "fun": lambda v: v.sum() - 1.0, "jac": lambda v: np.ones(n)},),
        options={"maxiter": budget, "ftol": 1e-30},
    )
    v = np.clip(res.x, 0.0, None)
    v /= v.sum()
    best_val = float(np.linalg.norm(a @ v - t))
    if best_val >= 1e-6:
        return best_val, None
    w_prep = float(v[7:].sum())
    branches = [(float(wi), atom) for wi, atom in zip(v[:7], atoms) if wi > 1e-9]
    if w_prep > 1e-9:
        prep = np.diag(v[7:] / w_prep).astype(complex)
        branches.append((w_prep, DiscardPrepare(DensityMatrix(prep))))
    total = sum(wi for wi, _ in branches)
    protocol = Protocol(tuple((wi / total, atom) for wi, atom in branches))
    distance = verify_protocol(protocol, source, target)
    if distance < 1e-6:
        return float(distance), protocol
    return best_val, None
