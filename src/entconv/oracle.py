"""Randomized adversarial checks and a convex protocol search.

Nothing here trusts the decision rules: the falsifiers sample separable
channels and states independently and hunt for counterexamples to the claims
the rest of the package relies on (rank monotonicity, the Bell-diagonal
monotones, concurrence non-increase). A healthy implementation produces
empty reports; any finding comes with the seed and trial index needed to
reproduce it.

Determinism contract: every trial derives its own generator from
(seed, trial index), so reports are reproducible bit-for-bit and trials can
be sharded across workers without changing the outcome. A random channel
reads its generator in three draws (its free factors, its scale, then all of
its Haar factors in one Gaussian draw), whose numbers are exactly those of
drawing each block in turn, so a trial's stream does not depend on how the
channel is assembled.

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
    DiscardPrepare,
    LocalUnitary,
    Protocol,
    SeparableChannel,
    bell_extremal_catalog,
    mix,
)
from .convertibility import verify_protocol
from .errors import SamplingExhaustedError
from .measures import bell_monotones, concurrence
from .states import DensityMatrix, as_density, bell_weights_of, make_bell_diagonal

_ENTANGLEMENT_MARGIN = 1e-4
_NEGATIVITY_MARGIN = 1e-6
_RANK_ZERO_TOL = 1e-12
_RANK_LIVE_TOL = 1e-6


@dataclass
class SearchReport:
    """Outcome of a randomized hunt: sample count, findings, wall time.

    ``live`` maps each claim the hunt checks to the number of trials that
    actually tested it; a trial whose output cannot witness a violation
    does not count. A claim no trial reached reads 0.
    """

    trials: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    live: Counter = field(default_factory=Counter)

    @property
    def clean(self) -> bool:
        return not self.counterexamples


_PAULI_AXES = (qmat.SIGMA_X, qmat.SIGMA_Y, qmat.SIGMA_Z)

# the projectors a completion pair acts on, by index: the identity at 0, then
# the rank-1 eigenprojectors (plus, minus) of each Pauli axis at _PROJ_INDEX
_PROJ_INDEX = ((1, 2), (3, 4), (5, 6))
_COMPLETION_PROJ = np.array(
    [qmat.EYE2] + [0.5 * (qmat.EYE2 + sign * sigma) for sigma in _PAULI_AXES for sign in (1, -1)]
)

_PAULI_BASIS = (qmat.EYE2,) + _PAULI_AXES

# [mu, nu] = sigma_mu (x) sigma_nu, the product Pauli basis of 4x4 operators
_PAULI_PRODUCTS = kernels.kron2(
    *np.broadcast_arrays(np.array(_PAULI_BASIS)[:, None], np.array(_PAULI_BASIS)[None, :])
)


def random_separable_channel(seed, n_kraus: int = 3) -> SeparableChannel:
    """Random trace-preserving separable channel with n_kraus free pairs.

    The free pairs have complex Gaussian factors. They are rescaled so the
    remainder I - sum E^dagger E stays diagonally dominant in the product
    Pauli basis, then that remainder is emitted exactly as product-projector
    pairs plus an identity slack term, each behind Haar-random unitaries. A
    single-pair request returns the polar unitary parts of the Gaussian
    draw, since one Kraus operator can only be trace preserving when it is
    unitary.

    The generator is read three times: every free factor in one Gaussian
    draw, the remainder's scale, then every Haar factor in one Gaussian
    draw. Each draw yields the same numbers as drawing its blocks one by one.
    """
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be >= 1, got {n_kraus!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # [pair, side, real/imaginary part]
    g = rng.normal(size=(n_kraus, 2, 2, 2, 2))
    free = g[:, :, 0] + 1j * g[:, :, 1]
    if n_kraus == 1:
        u, _, vh = np.linalg.svd(free)
        return SeparableChannel(u @ vh)

    a, b = free[:, 0], free[:, 1]
    gram = kernels.kron2(
        a.conj().transpose(0, 2, 1) @ a, b.conj().transpose(0, 2, 1) @ b
    ).sum(axis=0)
    # <sigma_mu (x) sigma_nu, gram> / 4 for all 16 products at once
    coeff = np.einsum("mnij,ij->mn", _PAULI_PRODUCTS.conj(), gram).real / 4.0
    weight_sum = coeff[0, 0] + np.sum(np.abs(coeff)) - abs(coeff[0, 0])
    u = rng.uniform(0.35, 0.9)
    c2 = u / weight_sum
    scale = c2 ** 0.25

    # the remainder as (gram weight w, index of Pa, index of Pb)
    eye = 0
    remainder = (-c2 * coeff).tolist()
    terms = []
    for mu in range(4):
        for nu in range(4):
            if mu == 0 and nu == 0:
                continue
            r = remainder[mu][nu]
            if abs(r) < 1e-15:
                continue
            if mu > 0 and nu > 0:
                plus_a, minus_a = _PROJ_INDEX[mu - 1]
                plus_b, minus_b = _PROJ_INDEX[nu - 1]
                if r > 0:
                    terms += [(2 * r, plus_a, plus_b), (2 * r, minus_a, minus_b)]
                else:
                    terms += [(-2 * r, plus_a, minus_b), (-2 * r, minus_a, plus_b)]
            elif mu == 0:
                plus_b, minus_b = _PROJ_INDEX[nu - 1]
                terms.append((2 * abs(r), eye, plus_b if r > 0 else minus_b))
            else:
                plus_a, minus_a = _PROJ_INDEX[mu - 1]
                terms.append((2 * abs(r), plus_a if r > 0 else minus_a, eye))
    terms.append((1.0 - u, eye, eye))
    weights = np.array([w for w, _, _ in terms])
    projectors = _COMPLETION_PROJ[np.array([(pa, pb) for _, pa, pb in terms])]

    # a normalized complex Gaussian pair (alpha, beta) is Haar on SU(2);
    # [term, side, (re alpha, im alpha, re beta, im beta)]
    h = rng.normal(size=(len(terms), 2, 4))
    alpha = h[..., 0] + 1j * h[..., 1]
    beta = h[..., 2] + 1j * h[..., 3]
    norm = np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    haar = np.empty(h.shape[:2] + (2, 2), dtype=np.complex128)
    haar[..., 0, 0], haar[..., 0, 1] = alpha, beta
    haar[..., 1, 0], haar[..., 1, 1] = -beta.conj(), alpha.conj()
    # left unitary factors keep the gram contribution w * Pa (x) Pb while
    # randomizing where the channel sends that component
    completion = weights[:, None, None, None] ** 0.25 * (haar @ projectors)
    return SeparableChannel(np.concatenate([scale * free, completion]))


def _random_entangled(rng, rank: int, max_tries: int = 200) -> np.ndarray:
    """Gaussian state of the given rank with negativity above the margin."""
    for _ in range(max_tries):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        mat = np.ascontiguousarray(mat)
        pt = kernels.partial_transpose(mat, 1)
        values, _ = kernels.hermitian_eigh(pt)
        if -values[-1] > _ENTANGLEMENT_MARGIN:
            return mat
    raise SamplingExhaustedError(
        f"no rank-{rank} state with negativity above {_ENTANGLEMENT_MARGIN:g} "
        f"found in {max_tries} draws"
    )


def _negativity_raw(mat: np.ndarray) -> float:
    pt = kernels.partial_transpose(mat, 1)
    values, _ = kernels.hermitian_eigh(pt)
    return float(-np.sum(np.clip(values, None, 0.0)))


def falsify_rank_monotonicity(
    trials: int,
    seed: int = 42,
    channel_factory: Optional[Callable] = None,
) -> SearchReport:
    """Hunt for a separable channel that lowers the rank of an entangled state.

    Each trial draws an entangled input of rank 3 or 4 (alternating) and a
    random separable channel with 1 to 5 free Kraus pairs. A counterexample
    must clear both margins: output negativity above 1e-6 and an output
    spectrum that is rank-deficient with a clean gap (an eigenvalue below
    1e-12 while every surviving one exceeds 1e-6). The expected outcome is an
    empty report; ``channel_factory(rng, n_kraus)`` can inject other channel
    ensembles as a control. ``live["rank"]`` counts the trials whose output
    cleared the negativity margin.
    """
    start = time.perf_counter()
    report = SearchReport(trials=trials, live=Counter(rank=0))
    factory = channel_factory or (lambda rng, n: random_separable_channel(rng, n))
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        rank_in = 3 if trial % 2 else 4
        mat = _random_entangled(rng, rank_in)
        n_kraus = int(rng.integers(1, 6))
        channel = factory(rng, n_kraus)
        out = channel.apply_raw(mat)
        neg = _negativity_raw(out)
        if neg <= _NEGATIVITY_MARGIN:
            continue
        report.live["rank"] += 1
        values, _ = kernels.hermitian_eigh(out)
        live = int(np.sum(values > _RANK_LIVE_TOL))
        dead = int(np.sum(values < _RANK_ZERO_TOL))
        clean_gap = live + dead == 4
        if clean_gap and dead >= 1 and live < rank_in:
            report.counterexamples.append(
                {
                    "trial": trial,
                    "seed": seed,
                    "rank_in": rank_in,
                    "rank_out": live,
                    "n_kraus": n_kraus,
                    "negativity_out": neg,
                    "spectrum_out": [float(v) for v in values],
                }
            )
    report.elapsed = time.perf_counter() - start
    return report


def monotone_audit(
    trials: int,
    seed: int = 42,
    channel_pool: Optional[Sequence[SeparableChannel]] = None,
) -> SearchReport:
    """Check the three Bell-diagonal monotones and concurrence under mixtures.

    Each trial mixes the extremal catalog with random weights, applies the
    mixture to a random entangled Bell-diagonal state, and re-reads the
    output weights numerically. For outputs that remain entangled, any
    monotone that grew by more than 1e-9 is recorded. The same mixture is
    also applied to a random rank-4 state to audit concurrence non-increase,
    which holds for every certified channel on every state. Both states go
    through the mixture in one stacked call. ``live["monotones"]`` counts the
    outputs that stayed entangled, ``live["concurrence"]`` the trials that
    reached the concurrence check.
    """
    start = time.perf_counter()
    report = SearchReport(trials=trials, live=Counter(monotones=0, concurrence=0))
    pool = tuple(channel_pool) if channel_pool is not None else bell_extremal_catalog()
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        for _ in range(500):
            weights = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            if weights[0] > 0.5 + 1e-6:
                break
        else:
            raise SamplingExhaustedError("no entangled Bell-diagonal sample found")
        rho = make_bell_diagonal(tuple(weights))
        channel = mix(pool, rng.dirichlet(np.ones(len(pool))))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        general = g @ g.conj().T
        general /= np.trace(general).real
        out, general_out = channel.apply_raw(np.stack([rho.matrix, general]))
        out_weights, residual = bell_weights_of(out)
        if residual > 1e-9:
            report.counterexamples.append(
                {"trial": trial, "seed": seed, "kind": "left_bell_diagonal", "residual": residual}
            )
            continue
        out_sorted = tuple(np.sort(out_weights)[::-1])
        if out_sorted[0] > 0.5:
            report.live["monotones"] += 1
            m_in = bell_monotones(tuple(weights))
            m_out = bell_monotones(out_sorted)
            for k, (a, b) in enumerate(zip(m_in, m_out), start=1):
                if b > a + 1e-9:
                    report.counterexamples.append(
                        {
                            "trial": trial,
                            "seed": seed,
                            "kind": f"monotone_e{k}_increase",
                            "weights_in": [float(x) for x in weights],
                            "weights_out": [float(x) for x in out_sorted],
                            "e_in": float(a),
                            "e_out": float(b),
                        }
                    )
        report.live["concurrence"] += 1
        c_in = concurrence(general)
        c_out = concurrence(general_out)
        if c_out > c_in + 1e-9:
            report.counterexamples.append(
                {
                    "trial": trial,
                    "seed": seed,
                    "kind": "concurrence_increase",
                    "c_in": c_in,
                    "c_out": c_out,
                }
            )
    report.elapsed = time.perf_counter() - start
    return report


@functools.cache
def _search_atoms() -> tuple:
    eye = qmat.EYE2
    return (
        LocalUnitary(eye, eye),
        LocalUnitary(qmat.SIGMA_X, eye),
        LocalUnitary(eye, qmat.SIGMA_X),
        LocalUnitary(qmat.SIGMA_Y, eye),
        LocalUnitary(eye, qmat.SIGMA_Y),
        LocalUnitary(qmat.SIGMA_Z, eye),
        LocalUnitary(eye, qmat.SIGMA_Z),
    )


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
