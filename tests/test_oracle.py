"""Tests for the randomized falsifiers and the protocol search."""

import re
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from entconv import kernels, oracle
from entconv.channels import (
    DiscardPrepare,
    LocalUnitary,
    SeparableChannel,
    one_sided_pauli_atoms,
)
from entconv.convertibility import verify_protocol
from entconv.errors import NotTracePreservingError, OutOfRangeError, SamplingExhaustedError
from entconv.oracle import (
    SearchReport,
    convert_search,
    falsify_rank_monotonicity,
    monotone_audit,
    random_separable_channel,
)
from entconv.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_mems,
    make_werner,
    min_pt_eigenvalue,
    random_density_matrix,
)


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1, -1]).astype(complex),
)


def _sequential_random_channel(seed, n_kraus):
    """Kraus factors of ``random_separable_channel`` drawn one block at a time.

    The free factors come 2x2 block by 2x2 block, every Haar unitary from
    four scalar draws, and the completion pairs are appended one by one.
    """
    rng = np.random.default_rng(seed)
    free = [
        tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        for _ in range(n_kraus)
    ]
    gram = sum(np.kron(a.conj().T @ a, b.conj().T @ b) for a, b in free)
    coeff = np.array(
        [[np.trace(np.kron(p, q).conj().T @ gram).real / 4 for q in _PAULIS] for p in _PAULIS]
    )
    u = rng.uniform(0.35, 0.9)
    c2 = u / (coeff[0, 0] + np.abs(coeff).sum() - abs(coeff[0, 0]))
    pairs = [(c2 ** 0.25 * a, c2 ** 0.25 * b) for a, b in free]

    def haar():
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        return np.array([[a, b], [-np.conj(b), np.conj(a)]])

    def completion(w, pa, pb):
        pairs.append((w ** 0.25 * (haar() @ pa), w ** 0.25 * (haar() @ pb)))

    def proj(mu, sign):
        return 0.5 * (_PAULIS[0] + sign * _PAULIS[mu])

    for mu in range(4):
        for nu in range(4):
            r = -c2 * coeff[mu, nu]
            if mu == nu == 0 or abs(r) < 1e-15:
                continue
            sign = 1 if r > 0 else -1
            if mu and nu:
                completion(2 * abs(r), proj(mu, 1), proj(nu, sign))
                completion(2 * abs(r), proj(mu, -1), proj(nu, -sign))
            elif mu == 0:
                completion(2 * abs(r), _PAULIS[0], proj(nu, sign))
            else:
                completion(2 * abs(r), proj(mu, sign), _PAULIS[0])
    completion(1.0 - u, _PAULIS[0], _PAULIS[0])
    return np.array(pairs)


class TestRandomSeparableChannel:
    @pytest.mark.parametrize("n_kraus", [2, 3, 4, 5])
    def test_matches_sequential_draws(self, n_kraus):
        for seed in range(50):
            expected = _sequential_random_channel(seed, n_kraus)
            got = random_separable_channel(seed, n_kraus).kraus_pairs
            assert got.shape == expected.shape, seed
            npt.assert_allclose(got, expected, rtol=0, atol=1e-15, err_msg=str(seed))

    def test_deterministic_per_seed(self):
        a = random_separable_channel(7, 4)
        b = random_separable_channel(7, 4)
        assert np.array_equal(a.estack, b.estack)

    def test_distinct_seeds_differ(self):
        a = random_separable_channel(0, 3)
        b = random_separable_channel(1, 3)
        assert not np.array_equal(a.estack, b.estack)

    @pytest.mark.parametrize("n_kraus", [2, 3, 5])
    def test_complete_over_seeds(self, n_kraus):
        for seed in range(20):
            channel = random_separable_channel(seed, n_kraus)
            gram = kernels.kraus_gram(channel.estack)
            assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_single_kraus_is_product_unitary(self):
        channel = random_separable_channel(3, 1)
        assert channel.n_kraus == 1
        u_a, u_b = channel.kraus_pairs[0]
        npt.assert_allclose(u_a @ u_a.conj().T, np.eye(2), atol=1e-12)
        npt.assert_allclose(u_b @ u_b.conj().T, np.eye(2), atol=1e-12)

    def test_rejects_zero_kraus(self):
        with pytest.raises(ValueError):
            random_separable_channel(0, 0)

    @pytest.mark.parametrize("n_kraus", [2.5, 2.0, np.float64(3.0), "3", True])
    def test_rejects_a_non_integer_count(self, n_kraus):
        with pytest.raises(ValueError, match=re.escape(f"integer >= 1, got {n_kraus!r}")):
            random_separable_channel(0, n_kraus)

    def test_accepts_a_numpy_integer_count(self):
        want = random_separable_channel(0, 2).estack
        for n_kraus in (np.int64(2), np.int32(2), np.uint8(2)):
            assert np.array_equal(random_separable_channel(0, n_kraus).estack, want)

    def test_accepts_generator(self):
        rng = np.random.default_rng(9)
        channel = random_separable_channel(rng, 2)
        gram = kernels.kraus_gram(channel.estack)
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_preserves_separability_of_product_state(self):
        # separable channels keep two-qubit outputs PPT on separable inputs
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        for seed in range(10):
            channel = random_separable_channel(seed, 3)
            out = kernels.apply_kraus(channel.estack, ket00)
            assert min_pt_eigenvalue(out) >= -1e-10

    def test_block_builder_rows_are_single_channels(self):
        n_kraus = [1, 2, 3, 4, 5, 5, 1, 3]
        rngs = [np.random.default_rng(seed) for seed in range(len(n_kraus))]
        factors = oracle._random_channel_factors(rngs, n_kraus)
        for seed, row in enumerate(factors):
            single = random_separable_channel(seed, n_kraus[seed]).kraus_pairs
            npt.assert_allclose(row[: len(single)], single, rtol=0, atol=1e-15)
            assert not row[len(single):].any()

    def test_completeness_violation_rejected(self):
        good = random_separable_channel(5, 3)
        scaled = [(1.001 * a, b) for a, b in good.kraus_pairs]
        with pytest.raises(NotTracePreservingError):
            SeparableChannel(scaled)


def _haar_unitaries(rngs, n_kraus):
    """Non-separable control channels: a Haar 4x4 unitary per trial, as one-operator stacks."""
    stacks = np.empty((len(rngs), 1, 4, 4), dtype=complex)
    for t, rng in enumerate(rngs):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(g)
        stacks[t, 0] = q * (np.diag(r) / np.abs(np.diag(r)))
    return stacks


def _refill(ket):
    """Kraus stack |ket><j|, j = 0..3: replace any input by |ket><ket|."""
    return ket[None, :, None] * np.eye(4)[:, None, :]


_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
_SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def _bell_refills(rngs, n_kraus):
    """Non-separable control channels: every trial replaces its input by |phi+><phi+|."""
    return np.broadcast_to(_refill(_PHI_PLUS), (len(rngs), 4, 4, 4))


def _phi_plus_projectors(rngs, n_kraus):
    """One operator a trial, |phi+><phi+|: entangled, rank one and not trace preserving."""
    return np.broadcast_to(np.outer(_PHI_PLUS, _PHI_PLUS.conj()), (len(rngs), 1, 4, 4))


H = np.sqrt(0.5) * np.array([[1, 1], [1, -1]], dtype=complex)

# every falsifier configuration: the default channels and each planted control
RUNS = {
    "rank": lambda n: falsify_rank_monotonicity(n, seed=11),
    "rank_global_unitary": lambda n: falsify_rank_monotonicity(
        n, seed=12, channel_factory=_haar_unitaries
    ),
    "rank_entangled_prepare": lambda n: falsify_rank_monotonicity(
        n, seed=13, channel_factory=_bell_refills
    ),
    "rank_one_projector": lambda n: falsify_rank_monotonicity(
        n, seed=17, channel_factory=_phi_plus_projectors
    ),
    "audit": lambda n: monotone_audit(n, seed=14),
    "audit_hadamard": lambda n: monotone_audit(
        n, seed=15, channel_pool=[LocalUnitary(H, np.eye(2, dtype=complex)).channel().estack]
    ),
    "audit_singlet_refill": lambda n: monotone_audit(
        n, seed=16, channel_pool=[_refill(_SINGLET)]
    ),
}


def _assert_same_findings(got, expected):
    """Equal findings: the same trials, kinds and integers, floats to rounding."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], (float, list)):
                npt.assert_allclose(a[key], b[key], rtol=1e-13, atol=0, err_msg=key)
            else:
                assert a[key] == b[key], key


# every count the package reads from a caller, and the start of its message
_COUNTS = {
    "rank": (lambda n: random_density_matrix(0, rank=n), "rank must be an integer in 1..4"),
    "n_kraus": (lambda n: random_separable_channel(0, n), "n_kraus must be an integer >= 1"),
    "audit_trials": (monotone_audit, "trials must be an integer >= 0"),
    "rank_trials": (falsify_rank_monotonicity, "trials must be an integer >= 0"),
    "budget": (lambda n: convert_search(make_werner(0.9), make_werner(0.45), budget=n),
               "budget must be an integer >= 1"),
    "audit_seed": (lambda n: monotone_audit(1, seed=n), "seed must be an integer >= 0"),
    "rank_seed": (lambda n: falsify_rank_monotonicity(1, seed=n), "seed must be an integer >= 0"),
    "density_seed": (lambda n: random_density_matrix(n), "seed must be an integer >= 0"),
    "channel_seed": (lambda n: random_separable_channel(n, 2), "seed must be an integer >= 0"),
}
# the single-draw helpers' seeds, which may also be None: fresh entropy
_OPTIONAL = {"density_seed", "channel_seed"}


@pytest.mark.parametrize("name", _COUNTS)
def test_every_count_is_read_by_one_rule(name):
    read, rule = _COUNTS[name]
    for bad in (True, 2.5, -1, "3") + (() if name in _OPTIONAL else (None,)):
        with pytest.raises(OutOfRangeError, match=re.escape(f"{rule}, got {bad!r}")):
            read(bad)
    read(np.int64(2))
    if name in _OPTIONAL:
        read(None)


@pytest.mark.parametrize("draw", [lambda seed: random_density_matrix(seed).matrix,
                                  lambda seed: random_separable_channel(seed, 2).estack],
                         ids=["density", "channel"])
def test_a_helper_seed_may_be_one_of_numpys_seed_objects(draw):
    want = draw(5)
    for seed in (np.random.default_rng(5), np.random.PCG64(5), np.random.SeedSequence(5)):
        assert np.array_equal(draw(seed), want), seed


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70, np.uint64(2**63), 2**100],
                         ids=["0", "1", "2**32-1", "2**32", "2**70", "uint64(2**63)", "2**100"])
@pytest.mark.parametrize("block", [range(0, 256), range(256, 300), range(0, 0),
                                   range(2**32, 2**32 + 3)],
                         ids=["first", "second", "empty", "two_word_trials"])
def test_a_blocks_generators_are_numpys_default_rng(seed, block):
    # one hash over the block must give each trial the stream numpy's own
    # SeedSequence gives it; 2**100 has four seed words, so it reaches the
    # hash's loop over the entropy beyond the pool
    rngs = oracle._trial_generators(seed, block)
    assert len(rngs) == len(block)
    for trial, rng in zip(block, rngs):
        want = np.random.default_rng((seed, trial))
        assert rng.bit_generator.state == want.bit_generator.state, trial
        assert np.array_equal(rng.random(3), want.random(3)), trial


def test_a_trial_seed_answers_only_pcg64s_request():
    (rng,) = oracle._trial_generators(7, range(1))
    with pytest.raises(NotImplementedError):
        rng.bit_generator.seed_seq.generate_state(4)


@pytest.mark.parametrize("falsify", [monotone_audit, falsify_rank_monotonicity])
def test_a_falsifier_seed_may_be_any_large_integer(falsify):
    report = falsify(3, seed=2**70)
    assert report.trials == 3
    assert falsify(3, seed=np.uint64(2**63)).live == falsify(3, seed=2**63).live


@pytest.mark.parametrize("k", [4, 13])
def test_flat_dirichlet_is_numpys_dirichlet(k):
    # the audit's Bell weights (k = 4) and its mixture over the 13-channel
    # catalog are numpy's Dirichlet rows; a numpy whose dirichlet changes
    # its algorithm fails here, not in a silently moved live count
    for seed in range(1000):
        one, two = np.random.default_rng((seed, k)), np.random.default_rng((seed, k))
        assert np.array_equal(oracle._flat_dirichlet(one, k), two.dirichlet(np.ones(k))), seed
        assert one.random() == two.random(), seed


class TestBlocks:
    TRIALS = 263  # one full block of 256 and 7 more

    @pytest.fixture(scope="class")
    def long_runs(self):
        return {name: run(self.TRIALS) for name, run in RUNS.items()}

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("block", [1, 7])
    def test_reports_do_not_depend_on_the_block(self, monkeypatch, long_runs, name, block):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        report = RUNS[name](self.TRIALS)
        expected = long_runs[name]
        assert report.live == expected.live
        assert report.skipped == expected.skipped
        _assert_same_findings(report.counterexamples, expected.counterexamples)

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("n", [5, 256, 257])
    def test_short_run_is_a_prefix_of_a_long_run(self, long_runs, name, n):
        report = RUNS[name](n)
        expected = [f for f in long_runs[name].counterexamples if f["trial"] < n]
        _assert_same_findings(report.counterexamples, expected)
        assert sum(report.live.values()) <= sum(long_runs[name].live.values())

    def test_planted_controls_flag_every_trial_across_blocks(self, long_runs):
        flagged = {f["trial"] for f in long_runs["rank_entangled_prepare"].counterexamples}
        assert flagged == set(range(self.TRIALS))
        flagged = {f["trial"] for f in long_runs["audit_hadamard"].counterexamples}
        assert flagged == set(range(self.TRIALS))
        flagged = {f["trial"] for f in long_runs["audit_singlet_refill"].counterexamples}
        assert flagged == set(range(self.TRIALS))
        assert long_runs["rank_global_unitary"].clean
        # one operator that is no unitary: every trial is tested, none skipped
        projector = long_runs["rank_one_projector"]
        assert {f["trial"] for f in projector.counterexamples} == set(range(self.TRIALS))
        assert projector.live["rank"] == self.TRIALS

    @pytest.mark.parametrize("name", RUNS)
    def test_live_and_skipped_counts_cover_every_trial(self, long_runs, name):
        report = long_runs[name]
        if name.startswith("rank"):
            assert report.live["rank"] + sum(report.skipped.values()) == report.trials
            assert set(report.skipped) == {"local_unitary", "output_not_entangled"}
            return
        left = report.skipped["left_bell_diagonal"]
        assert report.live["concurrence"] + left == report.trials
        assert (
            report.live["monotones"] + left + report.skipped["output_not_entangled"]
            == report.trials
        )

    def test_exhausted_sampling_raises_from_inside_a_block(self, monkeypatch):
        # one candidate per trial: some trials of the first block find no
        # entangled input, and the first of them raises
        monkeypatch.setattr(oracle, "_ENTANGLED_TRIES", 1)
        with pytest.raises(SamplingExhaustedError, match="found in 1 draws"):
            falsify_rank_monotonicity(300, seed=0)
        monkeypatch.setattr(oracle, "_ENTANGLED_TRIES", 200)
        monkeypatch.setattr(oracle, "_ENTANGLEMENT_MARGIN", 0.5)
        # trial 0 has rank 4 and is the first to give up
        with pytest.raises(SamplingExhaustedError, match="no rank-4 state .* in 200 draws"):
            falsify_rank_monotonicity(300, seed=0)


class TestRankFalsifier:
    def test_clean_on_small_run(self):
        report = falsify_rank_monotonicity(200, seed=0)
        assert report.trials == 200
        assert report.clean
        assert report.elapsed > 0.0

    def test_zero_trials(self):
        report = falsify_rank_monotonicity(0)
        assert report == SearchReport(trials=0, counterexamples=[], elapsed=report.elapsed)

    def test_live_count_pins_the_draw_stream(self):
        # 34 of these trials reach the rank test and 185 more draw one Kraus
        # pair; drawing more or fewer numbers per trial, or in another order,
        # moves the counts
        report = falsify_rank_monotonicity(1000, seed=42)
        assert report.live["rank"] == 34
        assert report.skipped == {"local_unitary": 185, "output_not_entangled": 781}
        assert report.counterexamples == []

    def test_deterministic_findings(self):
        a = falsify_rank_monotonicity(50, seed=3)
        b = falsify_rank_monotonicity(50, seed=3)
        assert a.counterexamples == b.counterexamples

    def test_global_unitary_control_flags_nothing(self):
        # unitaries never change the spectrum, so no rank drop exists to find
        report = falsify_rank_monotonicity(60, seed=1, channel_factory=_haar_unitaries)
        assert report.clean

    def test_one_pair_trials_are_skipped_and_still_checked(self):
        # the |phi+> refill has four operators a trial, so its one-pair draws
        # are no local unitaries and count live
        refill = falsify_rank_monotonicity(20, seed=2, channel_factory=_bell_refills)
        assert refill.skipped["local_unitary"] == 0
        assert refill.live["rank"] == 20
        assert any(f["n_kraus"] == 1 for f in refill.counterexamples)
        # one global unitary a trial: exactly the trials that draw one Kraus
        # pair get one unitary operator, which keeps the spectrum, and are
        # skipped; the others still run and count
        drawn = []

        def recorded(rngs, n_kraus):
            drawn.extend(n_kraus)
            return _haar_unitaries(rngs, n_kraus)

        report = falsify_rank_monotonicity(20, seed=2, channel_factory=recorded)
        assert report.skipped["local_unitary"] == drawn.count(1) >= 3
        assert sum(report.live.values()) + sum(report.skipped.values()) == 20
        assert report.clean

    def test_one_projector_control_counts_as_tested(self):
        # |phi+><phi+| is one operator but not unitary, so a trial that draws
        # one Kraus pair and gets it is tested like any other, and flagged
        report = falsify_rank_monotonicity(20, seed=2, channel_factory=_phi_plus_projectors)
        assert report.skipped["local_unitary"] == 0
        assert report.live["rank"] == 20
        assert [f["trial"] for f in report.counterexamples] == list(range(20))
        assert any(f["n_kraus"] == 1 for f in report.counterexamples)

    def test_entangled_prepare_control_is_caught(self):
        # replacing the input with a Bell state drops rank while staying
        # entangled, so every trial must be flagged
        report = falsify_rank_monotonicity(20, seed=2, channel_factory=_bell_refills)
        assert len(report.counterexamples) == 20
        for finding in report.counterexamples:
            assert finding["rank_out"] == 1
            assert finding["negativity_out"] > 0.49


class TestMonotoneAudit:
    def test_clean_on_small_run(self):
        report = monotone_audit(200, seed=0)
        assert report.trials == 200
        assert report.clean

    def test_zero_trials(self):
        assert monotone_audit(0).clean

    def test_live_counts_pin_the_draw_stream(self):
        # like the rank falsifier's pin: a change to the draws per trial, or
        # to their order, moves these counts
        report = monotone_audit(1000, seed=42)
        assert report.live == {"monotones": 0, "concurrence": 1000}
        assert report.clean
        assert monotone_audit(2000, seed=7).live["monotones"] == 5

    def test_deterministic(self):
        a = monotone_audit(60, seed=4)
        b = monotone_audit(60, seed=4)
        assert a.counterexamples == b.counterexamples

    def test_non_bell_preserving_pool_is_witnessed(self):
        hadamard = np.sqrt(0.5) * np.array([[1, 1], [1, -1]], dtype=complex)
        pool = [LocalUnitary(hadamard, np.eye(2, dtype=complex)).channel().estack]
        report = monotone_audit(5, seed=0, channel_pool=pool)
        assert len(report.counterexamples) == 5
        assert all(f["kind"] == "left_bell_diagonal" for f in report.counterexamples)
        # an output that left the Bell-diagonal family tests neither claim
        assert report.live == {"monotones": 0, "concurrence": 0}

    def test_singlet_refill_control_is_caught(self):
        # replacing the input with the singlet raises every Bell-diagonal
        # monotone and the concurrence, so every trial must be flagged for each
        report = monotone_audit(200, seed=3, channel_pool=[_refill(_SINGLET)])
        assert report.live == {"monotones": 200, "concurrence": 200}
        kinds = Counter(f["kind"] for f in report.counterexamples)
        assert kinds == {
            "monotone_e1_increase": 200,
            "monotone_e2_increase": 200,
            "monotone_e3_increase": 200,
            "concurrence_increase": 200,
        }


def _one_sided_rotations() -> list:
    """The identity and the six one-sided Pauli rotations, as 4x4 unitaries."""
    eye = np.eye(2)
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    return [np.eye(4)] + [m for p in paulis for m in (np.kron(p, eye), np.kron(eye, p))]


class TestConvertSearch:
    def test_werner_halving_found(self):
        source = make_werner(0.9)
        target = make_werner(0.45)
        distance, protocol = convert_search(source, target, budget=20000, seed=42)
        assert distance < 1e-6
        assert protocol is not None
        assert verify_protocol(protocol, source, target) < 1e-6
        for _, atom in protocol.branches:
            assert isinstance(atom, (LocalUnitary, DiscardPrepare))

    def test_searches_lower_each_rotation_once(self, monkeypatch):
        rho = make_werner(0.7)
        convert_search(rho, rho, budget=5000, seed=0)
        lowered = []
        original = LocalUnitary._lower

        def counting(atom):
            lowered.append(atom)
            return original(atom)

        monkeypatch.setattr(LocalUnitary, "_lower", counting)
        distance, protocol = convert_search(rho, rho, budget=5000, seed=0)
        assert any(isinstance(atom, LocalUnitary) for _, atom in protocol.branches)
        assert distance < 1e-6 and lowered == []

    def test_identity_conversion_trivial(self):
        rho = make_werner(0.7)
        distance, protocol = convert_search(rho, rho, budget=5000, seed=0)
        assert distance < 1e-6
        assert protocol is not None

    def test_bell_permutation_found(self):
        source = make_bell_diagonal((0.6, 0.2, 0.1, 0.1))
        # a flat twirl toward the maximally mixed state is reachable exactly
        target = make_werner(0.0)
        distance, protocol = convert_search(source, target, budget=20000, seed=1)
        assert distance < 1e-6
        assert protocol is not None

    def test_rank_increase_stays_far(self):
        # rank-4 source, rank-2 entangled target: no protocol exists and the
        # search distance must stay bounded away from the acceptance band
        source = make_werner(0.8)
        target = make_mems((0.9, 0.1, 0.0, 0.0))
        distance, protocol = convert_search(source, target, budget=20000, seed=5)
        assert protocol is None
        assert distance > 1e-3

    def test_deterministic(self):
        a = convert_search(make_werner(0.9), make_werner(0.5), budget=4000, seed=7)
        b = convert_search(make_werner(0.9), make_werner(0.5), budget=4000, seed=7)
        assert a[0] == b[0]

    def test_mems_near_identity_found_on_every_seed(self):
        source = make_mems((24 / 40, 10 / 40, 6 / 40, 0.0))
        target = make_mems((22 / 40, 12 / 40, 6 / 40, 0.0))
        for seed in range(1, 11):
            distance, protocol = convert_search(source, target, seed=seed)
            assert protocol is not None, seed
            assert verify_protocol(protocol, source, target) < 1e-6

    def test_random_feasible_targets_found(self):
        # targets built inside the searched family: random sparse simplex
        # weights over the seven one-sided Pauli rotations and the four
        # diagonal product states, applied to sources of rank 1 to 4
        unitaries = _one_sided_rotations()
        rng = np.random.default_rng(2024)
        for trial in range(200):
            rank = int(rng.integers(1, 5))
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            support = rng.choice(11, size=int(rng.integers(1, 5)), replace=False)
            v = np.zeros(11)
            v[support] = rng.dirichlet(np.ones(len(support)))
            target = sum(vi * u @ rho @ u.conj().T for vi, u in zip(v, unitaries))
            target = target + np.diag(v[7:])
            source, target = DensityMatrix(rho), DensityMatrix(target)
            distance, protocol = convert_search(source, target)
            assert protocol is not None, trial
            assert verify_protocol(protocol, source, target) < 1e-6, trial

    def test_miss_is_no_farther_than_any_vertex(self):
        source = make_werner(0.8)
        target = make_mems((0.9, 0.1, 0.0, 0.0))
        distance, protocol = convert_search(source, target)
        assert protocol is None
        vertices = [u @ source.matrix @ u.conj().T for u in _one_sided_rotations()]
        vertices += [np.diag(row).astype(complex) for row in np.eye(4)]
        nearest = min(np.linalg.norm(m - target.matrix) for m in vertices)
        assert distance <= nearest + 1e-12

    def test_budget_one_returns(self):
        distance, protocol = convert_search(make_werner(0.9), make_werner(0.45), budget=1)
        assert np.isfinite(distance)
        if protocol is not None:
            assert distance < 1e-6


# the oracle-hunt benchmark's three search pairs, each reachable by the search
_DEN = 40
_X_ON_A = np.kron(_PAULIS[1], np.eye(2))
_BELL = make_bell_diagonal(tuple(x / _DEN for x in (22, 10, 6, 2)))
_BENCH_PAIRS = (
    (make_werner(36 / _DEN), make_werner(18 / _DEN)),
    (make_mems(tuple(x / _DEN for x in (24, 10, 6, 0))),
     make_mems(tuple(x / _DEN for x in (16, 14, 6, 4)))),
    (_BELL, DensityMatrix(_X_ON_A @ _BELL.matrix @ _X_ON_A)),
)


def _columns_match_atoms(sources) -> bool:
    """Whether the search's stacked columns of every source equal each atom's own output."""
    atoms = one_sided_pauli_atoms()
    return all(
        np.array_equal(column, atom.apply(rho.matrix).ravel())
        for rho in sources
        for column, atom in zip(oracle._rotated_columns(rho.matrix), atoms, strict=True)
    )


class TestRotatedColumns:
    SOURCES = [random_density_matrix(seed, rank=rank)
               for rank in range(1, 5) for seed in range(5)]
    SOURCES += [make_werner(0.7), make_bell_diagonal((0.6, 0.2, 0.15, 0.05)),
                make_mems((0.5, 0.25, 0.15, 0.1))]

    def test_stack_is_each_atom_exactly(self):
        assert _columns_match_atoms(self.SOURCES)
        for u, atom in zip(oracle._ROTATIONS, one_sided_pauli_atoms(), strict=True):
            assert np.array_equal(u, atom.channel().estack[0])
        assert np.array_equal(oracle._ROTATIONS_DAG, oracle._ROTATIONS.conj().swapaxes(1, 2))

    def test_swapped_slices_fail_the_comparison(self, monkeypatch):
        # planted control: X on A and I on A, exchanged
        order = [1, 0, 2, 3, 4, 5, 6]
        monkeypatch.setattr(oracle, "_ROTATIONS", oracle._ROTATIONS[order])
        monkeypatch.setattr(oracle, "_ROTATIONS_DAG", oracle._ROTATIONS_DAG[order])
        assert not _columns_match_atoms(self.SOURCES)

    def test_search_applies_no_atom(self, monkeypatch):
        def refuse(atom, mat):
            raise AssertionError("the search applied an atom one at a time")

        monkeypatch.setattr(LocalUnitary, "apply", refuse)
        for source, target in _BENCH_PAIRS:
            distance, protocol = convert_search(source, target)
            assert protocol is not None and distance < 1e-6


def _simplex_problem(source: np.ndarray, target: np.ndarray) -> tuple:
    """The search's least squares, built here: one column per atom's output.

    The columns are the source under the seven one-sided rotations and the
    four diagonal product states, real parts stacked over imaginary parts.
    """
    outputs = [u @ source @ u.conj().T for u in _one_sided_rotations()]
    outputs += [np.diag(row).astype(complex) for row in np.eye(4)]
    columns = np.stack([m.ravel() for m in outputs])
    a = np.concatenate([columns.real, columns.imag], axis=1).T
    t = np.concatenate([target.real.ravel(), target.imag.ravel()])
    return a, t


def _solver_problems(n: int, seed: int = 19) -> list:
    """(a, t) pairs: Gaussian sources of rank 1 to 4, Werner and Bell sources,
    each with a target inside the searched family or a random state."""
    rng = np.random.default_rng(seed)
    unitaries = _one_sided_rotations()
    problems = []
    for trial in range(n):
        kind = trial % 3
        if kind == 0:
            rank = int(rng.integers(1, 5))
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            source = g @ g.conj().T
            source /= np.trace(source).real
        elif kind == 1:
            source = make_werner(rng.uniform(0.0, 1.0)).matrix
        else:
            source = make_bell_diagonal(tuple(np.sort(rng.dirichlet(np.ones(4)))[::-1])).matrix
        if trial % 2:
            support = rng.choice(11, size=int(rng.integers(1, 7)), replace=False)
            v = np.zeros(11)
            v[support] = rng.dirichlet(np.ones(len(support)))
            target = sum(vi * u @ source @ u.conj().T for vi, u in zip(v, unitaries))
            target = target + np.diag(v[7:])
        else:
            rank = int(rng.integers(1, 5))
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            target = g @ g.conj().T / np.trace(g @ g.conj().T).real
        problems.append(_simplex_problem(source, target))
    return problems


def _is_simplex_optimum(a: np.ndarray, t: np.ndarray, v: np.ndarray) -> bool:
    """KKT certificate: v on the simplex, and no index with a lower gradient
    than the common gradient mu = v . g of the support."""
    g = a.T @ (a @ v - t)
    mu = v @ g
    on_simplex = abs(v.sum() - 1.0) <= 1e-12 and v.min() >= -1e-12
    return bool(
        on_simplex
        and np.all(g >= mu - 1e-10)
        and np.all(np.abs(g[v > 0] - mu) <= 1e-10)
    )


def _slsqp_distance(a: np.ndarray, t: np.ndarray) -> float:
    """The same least squares solved by scipy's SLSQP, an independent reference."""
    from scipy.optimize import minimize as scipy_minimize

    n = a.shape[1]

    def objective(v):
        r = a @ v - t
        return 0.5 * float(r @ r), a.T @ r

    res = scipy_minimize(
        objective,
        np.full(n, 1.0 / n),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=({"type": "eq", "fun": lambda v: v.sum() - 1.0,
                      "jac": lambda v: np.ones(n)},),
        options={"maxiter": 20000, "ftol": 1e-30},
    )
    v = np.clip(res.x, 0.0, None)
    return float(np.linalg.norm(a @ (v / v.sum()) - t))


class TestSimplexSolver:
    def test_every_solve_is_certified_optimal(self):
        singular = 0
        for k, (a, t) in enumerate(_solver_problems(200)):
            fit = oracle.minimize(a, t)
            assert isinstance(fit.nfev, int) and 0 <= fit.nfev <= 20000, k
            assert _is_simplex_optimum(a, t, fit.x), k
            distance = np.linalg.norm(a @ fit.x - t)
            assert distance <= _slsqp_distance(a, t) + 1e-12, k
            if k % 2:  # a target inside the searched family is reached
                assert distance < 1e-12, k
            singular += np.linalg.matrix_rank(a.T @ a) < a.shape[1]
        # the Werner and Bell sources repeat columns
        assert singular >= 100

    def test_cut_short_solve_fails_the_certificate(self):
        # planted control: an interior target of a rank-4 source needs one
        # step per support index, so a single solve stops short of it
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        source = g @ g.conj().T / np.trace(g @ g.conj().T).real
        rotations = _one_sided_rotations()
        target = sum(u @ source @ u.conj().T for u in rotations[:4]) / 8 + np.eye(4) / 8
        a, t = _simplex_problem(source, target)
        full = oracle.minimize(a, t)
        assert full.nfev >= 3
        assert _is_simplex_optimum(a, t, full.x)
        cut = oracle.minimize(a, t, budget=1)
        assert cut.nfev == 1
        assert abs(cut.x.sum() - 1.0) <= 1e-12 and cut.x.min() >= 0.0
        assert not _is_simplex_optimum(a, t, cut.x)
