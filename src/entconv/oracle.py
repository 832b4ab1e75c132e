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
outcome. That generator equals ``np.random.default_rng((seed, trial))``: a
block of trials computes numpy's ``SeedSequence`` hash for all its trials at
once and seeds each trial's PCG64 with its words, so a trial generator's
``seed_seq`` is not a ``SeedSequence`` and has no ``spawn()``. A random
channel reads its generator in three draws (its free factors, its scale,
then all of its Haar factors in one Gaussian draw), whose numbers are
exactly those of drawing each block in turn, so a trial's stream does not
depend on how the channel is assembled. A Gaussian state
factor is one draw, its real part's numbers before its imaginary part's. An
audit trial draws its flat-Dirichlet rows (Bell weights, then the mixture)
as standard exponentials over their sum, numpy's own ``dirichlet``
algorithm for unit concentrations, so they are the numbers of numpy's
Dirichlet draw and leave the generator in the same state.

The falsifiers run their trials in blocks of at most ``_BLOCK``. A Python
pass reads each trial's generator, and the linear algebra between draws
runs once per block over stacked arrays. The contract holds per trial,
whatever the block: a trial draws the same numbers and reaches the same
findings alone or among 255 others, and a run of n trials reports what the
first n trials of a longer run report, for any integer n >= 0.

The protocol search is a convex least-squares problem over the simplex of
mixture weights of a fixed set of LOCC atoms, solved exactly in numpy by an
active-set method; see ``convert_search`` and ``minimize``. The source's
images under the atoms' unitaries come from one stacked conjugation
U rho U^dagger over a read-only stack built at import, not from one
``atom.apply`` per column, so a larger catalog costs one larger product.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import kernels, qmat
from .channels import (
    ChannelPool,
    DiscardPrepare,
    Protocol,
    SeparableChannel,
    bell_extremal_pool,
    one_sided_pauli_atoms,
    separable_kraus_stacks,
)
from .convertibility import verify_protocol
from .errors import SamplingExhaustedError
from .measures import bell_monotones, concurrence, negativity
from .states import (
    DensityMatrix,
    _bell_matrix,
    _check_count,
    _gapped_rank,
    _gaussian_factors,
    _generator,
    _normalized_gram,
    as_density,
    bell_weights_of,
    min_pt_eigenvalue,
)

_BLOCK = 256  # trials per block of stacked arithmetic
_ENTANGLEMENT_MARGIN = 1e-4
_ENTANGLED_TRIES = 200
_NEGATIVITY_MARGIN = 1e-6


class SearchReport(qmat.ByValue, qmat.Record):
    """Outcome of a randomized hunt: sample count, findings, wall time.

    ``live`` maps each claim the hunt checks to the number of trials that
    actually tested it; a trial whose output cannot witness a violation
    does not count. A claim no trial reached reads 0. ``skipped`` maps each
    reason a trial can fail to test a claim to the number of such trials;
    for every claim, its live count plus the counts of the reasons that
    skip it equals ``trials``.
    """

    _fields = ("trials", "counterexamples", "elapsed", "live", "skipped")
    __hash__ = None

    def __init__(
        self,
        trials: int,
        counterexamples: Optional[list] = None,
        elapsed: float = 0.0,
        live: Optional[Counter] = None,
        skipped: Optional[Counter] = None,
    ):
        self.trials = trials
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.elapsed = elapsed
        self.live = Counter() if live is None else live
        self.skipped = Counter() if skipped is None else skipped

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
    ``seed`` is None, a numpy generator or seed sequence, or an integer
    >= 0, else OutOfRangeError.
    """
    _check_count(n_kraus, "n_kraus", 1, None)
    return SeparableChannel(_random_channel_factors([_generator(seed)], [n_kraus])[0])


def _uint32(value) -> np.ndarray:
    return qmat.read_only(np.array(value, dtype=np.uint32))


# the constants of numpy's SeedSequence hash, as np.uint32 so that array
# arithmetic wraps mod 2**32 under numpy 1.x and 2.x casting alike; 0-d
# arrays, which numpy reads faster than scalars
_INIT_A, _MULT_A = _uint32(0x43B0D7E5), _uint32(0x931E8875)
_INIT_B, _MULT_B = _uint32(0x8B51F9DD), _uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = _uint32(0xCA01F9DD), _uint32(0x4973F715)
_XSHIFT = _uint32(16)
_POOL = 4  # SeedSequence's default pool size, in uint32 words
# the pool words each pool word is mixed into: all but itself
_OTHERS = tuple(qmat.read_only(np.array([dst for dst in range(_POOL) if dst != src]))
                for src in range(_POOL))


def _hash_constants(init: np.ndarray, mult: np.ndarray, calls: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i in 0..calls, as a (calls + 1, 1) column.

    A hash call xors its value with entry i and multiplies it by entry i + 1.
    """
    seq = np.full((calls + 1, 1), mult, dtype=np.uint32)
    seq[0] = init
    return np.multiply.accumulate(seq, dtype=np.uint32)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each value, with its running constants given."""
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of each pair."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


# generate_state's running constants, for the eight uint32 words of PCG64's seed
_STATE_CONSTANTS = qmat.read_only(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL))


def _uint32_words(n: int) -> list:
    """numpy's entropy words of an integer >= 0: little-endian uint32, and [0] for 0."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


class _TrialSeed(ISeedSequence):
    """A trial generator's seed sequence: the four uint64 words PCG64 asks for.

    It answers only that request. Unlike a ``SeedSequence`` it cannot
    ``spawn()``.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise NotImplementedError("a trial seed holds only PCG64's four uint64 words")
        return self.words


def _trial_generators(seed: int, block: range) -> list:
    """``default_rng((seed, trial))`` for each trial of a block, bit for bit.

    numpy seeds that generator with ``SeedSequence((seed, trial))``: a hash
    of the entropy words (the seed's, then the trial's) into a pool of four
    uint32 words, then PCG64's four uint64 words drawn from the pool. This
    runs that hash for all trials at once in uint32 array arithmetic and
    hands each trial's words to PCG64. ``seed`` is an integer >= 0 of any
    size; a block must not cross a multiple of 2**32, so that its trials
    differ only in their lowest word.
    """
    seed_words = _uint32_words(int(seed))
    # one column per trial: the seed's words, the trial's low word, then the
    # block's upper words, zero padded to the pool size
    entropy = seed_words + _uint32_words(block.start)
    words = np.zeros((max(len(entropy), _POOL), len(block)), dtype=np.uint32)
    words[:len(entropy)] = np.array(entropy, dtype=np.uint32)[:, None]
    low = entropy[len(seed_words)]
    words[len(seed_words)] = np.arange(low, low + len(block), dtype=np.uint32)
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * len(words))
    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix each remaining word into every pool word
    pool = _hashmix(words[:_POOL], a[:_POOL], a[1:_POOL + 1])
    i = _POOL
    for src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hashmix(pool[src], a[i:i + 3], a[i + 1:i + 4]))
        i += 3
    for word in words[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[i:i + _POOL], a[i + 1:i + _POOL + 1]))
        i += _POOL
    # generate_state(4, np.uint64): eight hashed pool words, paired little-endian
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    seeds = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [Generator(PCG64(_TrialSeed(row))) for row in seeds]


def _blocks(seed: int, trials: int):
    """Each block of trial indices, a range of at most _BLOCK, with its trials' generators.

    Yields (block, rngs), rngs[i] being a generator equal to
    ``default_rng((seed, block[i]))``, the one stream of each trial. A block
    computes numpy's ``SeedSequence`` hash for all its trials at once
    (``_trial_generators``); blocks start at multiples of _BLOCK, which
    divides 2**32. A trial generator's ``seed_seq`` is not a
    ``SeedSequence``, so it cannot ``spawn()``. ``seed`` and then ``trials``
    must be integers >= 0, else OutOfRangeError, raised when this is called,
    not when iterated.
    """
    _check_count(seed, "seed", 0, None)
    _check_count(trials, "trials", 0, None)
    blocks = [range(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]
    return ((block, _trial_generators(seed, block)) for block in blocks)


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
        # not np.unique, whose first call imports numpy.ma
        for rank in sorted(set(ranks[waiting].tolist())):
            rows = ranks[waiting] == rank
            g = _gaussian_factors([rngs[t] for t in waiting[rows]], rank)
            candidates[rows] = _normalized_gram(g)
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
    empty report. ``skipped["local_unitary"]`` counts the trials that draw
    one pair and get a channel with one nonzero Kraus operator that is
    unitary within 1e-9 (``qmat.is_unitary``): from the default builder a
    local unitary. A unitary keeps the spectrum, so such a trial tests no
    claim; it still runs and is still checked. Of the other trials,
    ``live["rank"]`` counts those whose output cleared the negativity
    margin and ``skipped["output_not_entangled"]`` the rest; a one-pair
    draw given more operators, or one operator that is not unitary, is one
    of them. ``seed`` must be an integer >= 0, else OutOfRangeError.
    """
    blocks = _blocks(seed, trials)
    start = time.perf_counter()
    report = SearchReport(
        trials=trials,
        live=Counter(rank=0),
        skipped=Counter(local_unitary=0, output_not_entangled=0),
    )
    for block, rngs in blocks:
        ranks = np.array([3 if trial % 2 else 4 for trial in block])
        mats = _random_entangled(rngs, ranks)
        n_kraus = [int(rng.integers(1, 6)) for rng in rngs]
        stacks = channel_factory(rngs, n_kraus)
        outs = kernels.apply_kraus(stacks, mats)
        neg = negativity(outs)
        entangled = neg > _NEGATIVITY_MARGIN
        # a one-pair draw is skipped only if its channel is one unitary operator
        one_pair = np.array(n_kraus) == 1
        rows = np.flatnonzero(one_pair)
        one_pair[rows] = ~stacks[rows, 1:].any(axis=(1, 2, 3)) & qmat.is_unitary(stacks[rows, 0])
        report.live["rank"] += int((entangled & ~one_pair).sum())
        report.skipped["local_unitary"] += int(one_pair.sum())
        report.skipped["output_not_entangled"] += int((~entangled & ~one_pair).sum())
        live = np.flatnonzero(entangled)
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


def _flat_dirichlet(rng, k: int) -> np.ndarray:
    """A flat Dirichlet row of length k: numpy's ``Generator.dirichlet`` of ones, bit for bit.

    numpy draws a Dirichlet row with unit concentrations as k standard
    exponentials (shape-1 gammas), each times 1.0 / their sum, the sum taken
    left to right; this is that algorithm, reading the generator alike.
    """
    draws = rng.standard_exponential(k)
    total = 0.0
    for x in draws.tolist():
        total += x
    return draws * (1.0 / total)


def _entangled_bell_weights(rng) -> list:
    """Flat-Dirichlet Bell weights, descending, drawn until the top one exceeds 1/2."""
    for _ in range(500):
        weights = sorted(_flat_dirichlet(rng, 4).tolist(), reverse=True)
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
    output weights numerically. The input states are built straight from
    the weights the audit draws: sorted flat-Dirichlet rows whose top weight
    is above 1/2 pass every ``BellWeights`` check by construction, so they
    are not checked again. For outputs that remain entangled, any
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

    A trial reads its generator in a fixed order: flat-Dirichlet Bell
    weights until the top one exceeds 1/2, the flat-Dirichlet mixture over
    the pool, then the rank-4 state's Gaussian factor in one draw. Each
    flat-Dirichlet row is drawn as standard exponentials over their sum,
    numpy's own algorithm for ``dirichlet`` with unit concentrations, so its
    numbers are those of ``rng.dirichlet``. ``seed`` must be an integer
    >= 0, else OutOfRangeError.
    """
    blocks = _blocks(seed, trials)
    start = time.perf_counter()
    report = SearchReport(
        trials=trials,
        live=Counter(monotones=0, concurrence=0),
        skipped=Counter(left_bell_diagonal=0, output_not_entangled=0),
    )
    pool = bell_extremal_pool() if channel_pool is None else ChannelPool(channel_pool)
    for block, rngs in blocks:
        weights = np.empty((len(block), 4))
        mixture = np.empty((len(block), pool.size))
        for i, rng in enumerate(rngs):
            weights[i] = _entangled_bell_weights(rng)
            mixture[i] = _flat_dirichlet(rng, pool.size)
        rho = _bell_matrix(weights)
        general = _normalized_gram(_gaussian_factors(rngs, 4))
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


class SimplexFit(NamedTuple):
    """What ``minimize`` returns: the weights and the number of support solves."""

    x: np.ndarray
    nfev: int


def minimize(a: np.ndarray, t: np.ndarray, budget: int = 20000) -> SimplexFit:
    """Exact minimizer of 1/2 |a v - t|^2 over the simplex v >= 0, sum(v) = 1.

    A primal active-set method. It starts at the nearest vertex. Each step
    adds the index whose reduced gradient g_i - mu is most negative, where
    g = a^T (a v - t) and mu is the common gradient on the support, and
    solves the bordered KKT system on the new support with ``lstsq``: a^T a
    is singular when a source's rotations coincide, as for Werner and Bell
    sources. When a weight of that solution is not positive, the step stops
    at the boundary and each index that reached zero is dropped. The
    iterate stays on the simplex throughout. The loop ends when every
    reduced gradient is at least -1e-14 (relative to the scale of a and t),
    or after ``budget`` support solves; ``nfev`` counts them. ``budget``
    must be an integer >= 1, else OutOfRangeError.
    """
    _check_count(budget, "budget", 1, None)
    n = a.shape[1]
    gram = a.T @ a
    diag = gram.diagonal()
    # [[a^T a, 1], [1^T, 0]] and [a^T t, 1]: a support's system is the block
    # on its rows and the border row
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = gram
    kkt[n, n] = 0.0
    rhs = np.ones(n + 1)
    rhs[:n] = a.T @ t
    scale = math.sqrt(diag.max())
    tol = 1e-14 * scale * max(scale, math.sqrt(t @ t))
    first = int(np.argmin(0.5 * diag - rhs[:n]))
    v = np.zeros(n)
    v[first] = 1.0
    support = [first]
    solves = 0
    while solves < budget:
        reduced = gram @ v - rhs[:n]
        # the common gradient on the support is v . g, since sum(v) = 1
        reduced -= v @ reduced
        reduced[support] = np.inf
        enter = int(np.argmin(reduced))
        if reduced[enter] >= -tol:
            break
        support.append(enter)
        while solves < budget:
            solves += 1
            rows = support + [n]
            z = np.linalg.lstsq(kkt[np.ix_(rows, rows)], rhs[rows], rcond=None)[0][:-1]
            if z.min() > 0:
                v[support] = z
                break
            # step toward z until the first weight reaches zero, and drop it
            current = v[support]
            falling = z <= 0
            ratio = current[falling] / (current[falling] - z[falling])
            step = ratio.min()
            current += step * (z - current)
            current[np.flatnonzero(falling)[ratio == step]] = 0.0
            v[support] = np.maximum(current, 0.0)
            support = [i for i in support if v[i] > 0]
    return SimplexFit(v, solves)


# u_a (x) u_b of each ``channels.one_sided_pauli_atoms()`` atom, in that order,
# and the adjoints. Each row of these unitaries has one nonzero entry, +-1 or
# +-i, so every entry of U rho U^dagger is one exact product and the stacked
# conjugation equals each atom's ``apply`` bit for bit.
_ROTATIONS = qmat.read_only(kernels.kron2(*np.array(qmat.ONE_SIDED_PAULIS).swapaxes(0, 1)))
_ROTATIONS_DAG = qmat.read_only(qmat.dag(_ROTATIONS).copy())
# rows 0, 5, 10 and 15 of the 16x16 identity are the flattened |i><i|
_DIAGONAL_PROJECTORS = qmat.read_only(np.eye(16)[::5])


def _rotated_columns(mat: np.ndarray) -> np.ndarray:
    """The flattened images of a 4x4 matrix under the seven one-sided Pauli atoms, one per row."""
    return (_ROTATIONS @ mat @ _ROTATIONS_DAG).reshape(-1, 16)


def convert_search(rho, rho2, budget: int = 20000, seed: int = 42):
    """Search for a protocol sending rho to rho2; returns (distance, protocol).

    The protocols searched mix the seven ``channels.one_sided_pauli_atoms``
    (the identity and the one-sided Pauli rotations, which keep their
    channels) with one discard-and-prepare branch whose diagonal target is
    itself free. Their output is linear in eleven weights on the simplex:
    one per rotation and one per diagonal entry of the prepared state. So
    the search is a convex least-squares problem over the simplex, solved
    exactly by the active-set method of ``minimize``; ``budget``, an integer
    >= 1, caps its iterations (support solves), of which these problems take
    few (at most 13 over 6,615 seeded ones, rank 1 to 4, Werner and Bell
    sources). The seven rotated sources are one stacked conjugation
    U rho U^dagger over the atoms' lifted unitaries, each entry one exact
    product, so they equal each ``atom.apply`` bit for bit. Every atom is
    LOCC, so a protocol found below the 1e-6 acceptance distance is a
    constructive certificate. A miss returns the exact minimum output
    Frobenius distance over this family of protocols: no protocol of this
    form reaches the target, but another one may. ``seed`` is unused; its
    one caller outside the tests, the benchmark's ``OracleHunt.setup``,
    still passes it.
    """
    source = as_density(rho)
    target = as_density(rho2)
    columns = np.concatenate([_rotated_columns(source.matrix), _DIAGONAL_PROJECTORS])
    a = np.concatenate([columns.real, columns.imag], axis=1).T
    t = np.concatenate([target.matrix.real.ravel(), target.matrix.imag.ravel()])
    res = minimize(a, t, budget)
    v = np.clip(res.x, 0.0, None)
    v /= v.sum()
    r = a @ v - t
    best_val = math.sqrt(r @ r)
    if best_val >= 1e-6:
        return best_val, None
    w_prep = float(v[7:].sum())
    atoms = one_sided_pauli_atoms()
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
