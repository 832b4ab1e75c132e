"""Tests for the decision rules, protocol synthesis, and the pipeline."""

import itertools
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from entconv import channels, convertibility, kernels, oracle, qmat, states
from entconv.convertibility import (
    RESIDUAL_BOUND,
    Convertible,
    Forbidden,
    Inconclusive,
    decide,
    decide_bell,
    decide_mems,
    decide_werner,
    keep_or_refill,
    rank_gate,
    synthesize_mems_protocol,
    verify_protocol,
)
from entconv.errors import (
    EntconvError,
    InfeasibleError,
    NotEntangledError,
    NotProductDiagonalError,
    NotTracePreservingError,
    ResidualError,
)
from entconv.states import (
    DensityMatrix,
    classify_family,
    make_bell_diagonal,
    make_mems,
    make_werner,
    random_density_matrix,
)


def test_werner_worked_examples():
    v = decide_werner(1.0, 0.5)
    assert isinstance(v, Convertible)
    assert v.protocol.branches[0][0] == 0.5
    assert v.residual < 1e-12

    v = decide_werner(0.7, 0.7)
    assert isinstance(v, Convertible)
    assert v.protocol.branches[0][0] == 1.0

    v = decide_werner(0.5, 0.9)
    assert isinstance(v, Forbidden)
    assert v.reason == "weight_infeasible"


def test_werner_zero_source():
    v = decide_werner(0.0, 0.0)
    assert isinstance(v, Convertible)
    assert v.protocol.branches[0][0] == 1.0
    # a separable target is prepared from any source
    v = decide_werner(0.0, 0.1)
    assert isinstance(v, Convertible)
    assert v.residual < 1e-12
    assert isinstance(decide_werner(0.0, 0.4), Forbidden)


def test_werner_grid_soundness():
    # exact rule on the w = k/19 grid: convertible iff w2 <= w or w2 <= 1/3
    n = 19
    for k, w in enumerate(np.linspace(0.0, 1.0, n + 1)):
        for k2, w2 in enumerate(np.linspace(0.0, 1.0, n + 1)):
            v = decide_werner(w, w2)
            if k2 <= k or Fraction(k2, n) <= Fraction(1, 3):
                assert isinstance(v, Convertible)
                assert v.residual <= 1e-12
                residual = verify_protocol(v.protocol, make_werner(w), make_werner(w2))
                assert residual <= 1e-12
            else:
                assert isinstance(v, Forbidden)
                assert v.reason == "weight_infeasible"


def test_bell_worked_examples():
    v = decide_bell((0.7, 0.1, 0.1, 0.1), (0.6, 0.2, 0.1, 0.1))
    assert isinstance(v, Convertible)
    assert v.protocol is None

    v = decide_bell((0.6, 0.4, 0.0, 0.0), (0.7, 0.1, 0.1, 0.1))
    assert isinstance(v, Forbidden)
    assert v.reason == "monotone_e1"

    v = decide_bell((0.7, 0.1, 0.1, 0.1), (0.7, 0.1, 0.1, 0.1))
    assert isinstance(v, Convertible)


def test_bell_rounded_infinite_monotone_tie_is_convertible():
    # the pure Bell source is fitted as Werner w = 1 - 6e-16, so its e3
    # denominator is about 1e-16 where the target's is exactly 0: both e3
    # are infinite
    source = make_bell_diagonal((1.0, 0.0, 0.0, 0.0))
    target = make_bell_diagonal((25 / 40, 10 / 40, 5 / 40, 0.0))
    v = decide(source, target)
    assert isinstance(v, Convertible)
    assert isinstance(decide(target, source), Forbidden)


def test_bell_exact_monotone_tie_is_convertible():
    # e3 is exactly 4 on both sides; the float quotients read
    # 3.9999999999999996 against 4.0
    v = decide_bell((0.6, 0.15, 0.15, 0.1), (0.55, 0.25, 0.15, 0.05))
    assert isinstance(v, Convertible)


def test_bell_requires_entanglement():
    with pytest.raises(NotEntangledError):
        decide_bell((0.5, 0.3, 0.1, 0.1), (0.7, 0.1, 0.1, 0.1))
    with pytest.raises(NotEntangledError):
        decide_bell((0.7, 0.1, 0.1, 0.1), (0.4, 0.3, 0.2, 0.1))


def _fraction_monotone_check(src, dst) -> bool:
    # independent exact re-evaluation over the rationals
    s = [Fraction(x).limit_denominator(10 ** 12) for x in src]
    t = [Fraction(x).limit_denominator(10 ** 12) for x in dst]

    def triple(l):
        e1 = (l[0], Fraction(1))
        e2 = (1 - 2 * l[1], l[2] + l[3])
        e3 = (1 - 2 * l[1] - 2 * l[2], l[3])
        return e1, e2, e3

    def geq(a, b):
        # compare a[0]/a[1] >= b[0]/b[1] with zero denominators meaning +inf
        if b[1] == 0:
            return a[1] == 0
        if a[1] == 0:
            return True
        return a[0] * b[1] >= b[0] * a[1]

    return all(geq(a, b) for a, b in zip(triple(s), triple(t)))


def test_bell_iff_against_exact_reevaluation():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 200:
        src = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        dst = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        if src[0] <= 0.5 + 1e-9 or dst[0] <= 0.5 + 1e-9:
            continue
        src = tuple(round(x, 6) for x in src)
        dst = tuple(round(x, 6) for x in dst)
        src = tuple(x / sum(src) for x in src)
        dst = tuple(x / sum(dst) for x in dst)
        v = decide_bell(src, dst)
        expected = _fraction_monotone_check(src, dst)
        assert isinstance(v, Convertible) == expected, (src, dst)
        checked += 1


def test_mems_synthesis_worked_examples():
    w, prep = synthesize_mems_protocol((0.5, 0.2, 0.2, 0.1), (0.44, 0.24, 0.2, 0.12))
    npt.assert_allclose(w, 0.8, atol=1e-12)
    npt.assert_allclose(prep, (0.4, 0.4, 0.2), atol=1e-12)

    w, prep = synthesize_mems_protocol((0.6, 0.25, 0.15, 0.0), (0.54, 0.325, 0.135, 0.0))
    npt.assert_allclose(w, 0.9, atol=1e-12)
    npt.assert_allclose(prep, (1.0, 0.0, 0.0), atol=1e-12)


def test_mems_synthesis_identity():
    assert synthesize_mems_protocol((0.5, 0.2, 0.2, 0.1), (0.5, 0.2, 0.2, 0.1)) == (
        1.0,
        (1.0, 0.0, 0.0),
    )


def test_mems_synthesis_without_singlet_on_either_side():
    # both states diagonal: keep an equal one, else prepare the target
    assert synthesize_mems_protocol(_MIXED, _MIXED) == (1.0, (1.0, 0.0, 0.0))
    assert synthesize_mems_protocol((0.3, 0.3, 0.3, 0.1), _MIXED) == (0.0, (0.25, 0.5, 0.25))
    w, prep = synthesize_mems_protocol(_MIXED, (0.3, 0.3, 0.3, 0.1))
    assert w == 0.0
    npt.assert_allclose(prep, (0.3, 0.6, 0.1), rtol=0, atol=1e-15)
    # decide_mems turns such a pair from Inconclusive to Convertible
    v = decide_mems((0.3, 0.3, 0.3, 0.1), _MIXED)
    assert isinstance(v, Convertible) and v.residual <= 1e-12


def test_mems_synthesis_infeasible_cases():
    with pytest.raises(InfeasibleError):
        synthesize_mems_protocol((0.9, 0.1, 0.0, 0.0), (0.95, 0.05, 0.0, 0.0))
    # W = 1 exactly, but the interior weights differ
    with pytest.raises(InfeasibleError):
        synthesize_mems_protocol((0.5, 0.2, 0.2, 0.1), (0.5, 0.3, 0.2, 0.0))
    # feasible W but a refill weight comes out negative
    with pytest.raises(InfeasibleError):
        synthesize_mems_protocol((0.45, 0.45, 0.05, 0.05), (0.4, 0.3, 0.3, 0.0))
    # no singlet excess on the source side
    with pytest.raises(InfeasibleError):
        synthesize_mems_protocol((0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1))


_MIXED = (0.25, 0.25, 0.25, 0.25)
_MIXTURE_REFILL = (0.19999999999999996, 0.3999999999999999, 0.19999999999999996,
                   0.19999999999999996)


@pytest.mark.parametrize(
    "decide_family, source, target, certificate, weights, refill",
    [
        (decide_werner, 0.9, 0.45,
         "keep with probability 0.5, refill with the maximally mixed state",
         [0.5, 0.5], _MIXED),
        (decide_mems, (0.9, 0.1, 0.0, 0.0), (0.8, 0.2, 0.0, 0.0),
         "keep with probability 0.888888888889, refill with |01><01|",
         [0.888888888888889, 0.11111111111111105], (0.0, 1.0, 0.0, 0.0)),
        (decide_mems, (0.5, 0.2, 0.2, 0.1), (0.44, 0.24, 0.2, 0.12),
         "keep with probability 0.8, refill with diagonal weights "
         "(0.3999999999999999, 0.3999999999999999, 0.19999999999999996)",
         [0.8, 0.19999999999999996], _MIXTURE_REFILL),
        (decide_mems, (0.5, 0.2, 0.2, 0.1), (0.5, 0.2, 0.2, 0.1),
         "identical weights: identity protocol", [1.0], None),
        (decide_werner, 0.9, 0.2,
         "keep with probability 0.222222222222, refill with the maximally mixed state",
         [0.22222222222222224, 0.7777777777777778], _MIXED),
    ],
    ids=["werner", "rank2", "general", "identical", "werner_separable_target"],
)
def test_family_plans_are_pinned(decide_family, source, target, certificate, weights, refill):
    # every keep-or-refill plan comes from one builder: the certificate, the
    # branch weights and the refill's matrix bytes are pinned exactly
    verdict = decide_family(source, target)
    assert isinstance(verdict, Convertible)
    assert verdict.certificate == certificate
    assert [w for w, _ in verdict.protocol.branches] == weights
    keep = verdict.protocol.branches[0][1]
    assert isinstance(keep, channels.LocalUnitary)
    assert keep.u_a.tobytes() == keep.u_b.tobytes() == np.eye(2, dtype=complex).tobytes()
    if refill is not None:
        prepared = verdict.protocol.branches[1][1].target.matrix
        assert prepared.tobytes() == np.diag(refill).astype(complex).tobytes()


def test_mems_rank2_rule():
    v = decide_mems((0.9, 0.1, 0.0, 0.0), (0.8, 0.2, 0.0, 0.0))
    assert isinstance(v, Convertible)
    npt.assert_allclose(v.protocol.branches[0][0], 8 / 9, atol=1e-12)
    assert v.residual <= 1e-10

    v = decide_mems((0.8, 0.2, 0.0, 0.0), (0.9, 0.1, 0.0, 0.0))
    assert isinstance(v, Forbidden)
    assert v.reason == "eof_decrease"


def test_mems_general_rule():
    v = decide_mems((0.5, 0.2, 0.2, 0.1), (0.44, 0.24, 0.2, 0.12))
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-10
    # reverse direction is infeasible (W > 1) and the rule is only sufficient
    v = decide_mems((0.44, 0.24, 0.2, 0.12), (0.5, 0.2, 0.2, 0.1))
    assert isinstance(v, Inconclusive)


def test_mems_identity_shortcut():
    v = decide_mems((0.5, 0.2, 0.2, 0.1), (0.5, 0.2, 0.2, 0.1))
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-12


def test_mems_grid_soundness():
    rng = np.random.default_rng(41)
    vectors = []
    while len(vectors) < 20:
        w = tuple(np.sort(rng.dirichlet(np.ones(4)))[::-1])
        if w[0] - w[2] > 1e-3:
            vectors.append(w)
    for src in vectors:
        for dst in vectors:
            v = decide_mems(src, dst)
            if isinstance(v, Convertible):
                assert v.residual <= 1e-8, (src, dst, v.residual)


def test_rank_gate():
    r3 = make_bell_diagonal((0.6, 0.3, 0.1, 0.0))
    r2 = make_bell_diagonal((0.75, 0.25, 0.0, 0.0))
    assert r3.rank() == 3 and r2.rank() == 2
    gate = rank_gate(r3, r2)
    assert isinstance(gate, Forbidden)
    assert gate.reason == "rank_gate"
    assert rank_gate(r2, r3) is None
    assert rank_gate(r2, r2) is None
    # separable targets pass regardless of rank
    assert rank_gate(r3, make_mems((0.9, 0.1, 0.0, 0.0)).matrix * 0 + np.eye(4) / 4) is None


def _near_pure_singlet_mixtures(keeps):
    # the source's three small eigenvalues are about 1.1e-9; each target keeps
    # a share of them, so its rank is 4 even where rank()'s 1e-9 readout says 2
    source = make_werner(1 - 4.4e-9)
    refill = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    return source, [DensityMatrix(k * source.matrix + (1 - k) * refill) for k in keeps]


def test_rank_gate_counts_small_populated_eigenvalues():
    source, (target,) = _near_pure_singlet_mixtures([0.7])
    assert target.rank() == 2 and target.rank(1e-12) == 4
    assert rank_gate(source, target) is None
    v = decide(source, target)
    assert isinstance(v, Convertible) and v.residual <= 1e-12
    _, targets = _near_pure_singlet_mixtures(np.linspace(0.05, 0.95, 91))
    assert not any(isinstance(decide(source, t), Forbidden) for t in targets)



def _entangled_states(rng, count) -> list:
    """Entangled states of every rank; some mixed with I/4 at 1e-9 (a spectrum
    inside the gap) or at 1e-5 (full rank)."""
    out = []
    while len(out) < count:
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        eps = rng.choice([0.0, 0.0, 1e-9, 1e-5])
        if eps:
            rho = DensityMatrix((1.0 - eps) * rho.matrix + eps * np.eye(4) / 4.0)
        if states.is_entangled(rho):
            out.append(rho)
    return out


def test_rank_gate_matches_the_stacked_gap_rule():
    found = _entangled_states(np.random.default_rng(1805), 1000)
    sources, targets = found[:500], found[500:]
    r_in, clean_in = states._gapped_rank(np.stack([s.eig.values for s in sources]))
    r_out, clean_out = states._gapped_rank(np.stack([t.eig.values for t in targets]))
    blocked = clean_in & clean_out & (r_out < r_in)
    for source, target, block, rank_in, rank_out in zip(sources, targets, blocked, r_in, r_out):
        gate = rank_gate(source, target)
        if block:
            assert isinstance(gate, Forbidden)
            assert f"entangled rank-{rank_in} state to an entangled rank-{rank_out}" in gate.detail
        else:
            assert gate is None
    assert 50 < blocked.sum() < 450
    assert (~clean_in).sum() > 20 and (r_in == 4).sum() > 20

_REACHED = 1e-12  # a route reaches a target when its verified residual is at most this


def _routes(source, target, keep, refill):
    """Constructive routes to the target: keep or refill, and the mixture-form rule."""
    routes = [lambda: keep_or_refill(keep, channels.DiscardPrepare(refill), "the refill")[0]]
    mems_s = classify_family(source).mems_weights()
    mems_t = classify_family(target).mems_weights()
    if mems_s is not None and mems_t is not None:
        routes.append(lambda: getattr(decide_mems(mems_s, mems_t), "protocol", None))
    return routes


def _cross_examine(pairs) -> list:
    """The pairs decide forbids although a route's verified protocol reaches them."""
    flagged = []
    for source, target, routes in pairs:
        verdict = decide(source, target)
        if not isinstance(verdict, Forbidden):
            continue
        for route in routes:
            try:
                protocol = route()
                residual = np.inf if protocol is None else verify_protocol(protocol, source, target)
            except EntconvError:  # a refill without a product lowering reaches nothing
                continue
            if residual <= _REACHED:
                flagged.append((source, target, verdict.reason, residual))
    return flagged


def _near_boundary_pairs(rng) -> list:
    """Seeded (source, target, routes): keep-or-refill targets with small
    eigenvalues between 1e-12 and 1e-6, and Werner and Bell pairs 1e-11 apart."""
    pairs = []
    product = DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    # strictly inside (1e-13, 1e-6), so down into the rank gate's band, where
    # a target's small eigenvalues can sit at or below 1e-12 while the
    # source's sit above it; the smallest, 1.4e-13, is still far above the
    # 1e-17 rounding of a 4x4 eigensolve
    for small in np.logspace(-13, -6, 50)[1:-1]:
        keep = rng.uniform(0.3, 0.95)
        # the source's three small eigenvalues are eps/4, the target's keep * eps/4
        eps = 4.0 * small / keep
        werner = make_werner(1 - eps)
        u = kernels.kron2(_haar_unitary(rng), _haar_unitary(rng))
        turned = [DensityMatrix(u @ m @ u.conj().T) for m in (werner.matrix, product.matrix)]
        # the unturned pair is of the mixture form
        for source, refill in ((werner, product), turned):
            target = DensityMatrix(keep * source.matrix + (1 - keep) * refill.matrix)
            pairs.append((source, target, _routes(source, target, keep, refill)))
    max_mixed = DensityMatrix(np.eye(4, dtype=complex) / 4)
    for w in rng.uniform(0.35, 1.0, 20):
        source = make_werner(w)
        for w2 in (w - 1e-11, min(1.0, w + 1e-11)):
            target = make_werner(w2)
            pairs.append((source, target, _routes(source, target, min(1.0, w2 / w), max_mixed)))
    for _ in range(20):
        weights = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        weights = np.array([0.5 + weights[0] / 2, *(weights[1:] / 2)])  # top weight above 1/2
        for i, j in ((0, 1), (1, 0), (1, 2), (2, 3)):
            moved = weights.copy()
            moved[i] += 1e-11
            moved[j] -= 1e-11
            if np.all(np.diff(moved) <= 0) and moved.min() >= 0:
                source, target = make_bell_diagonal(weights), make_bell_diagonal(moved)
                pairs.append((source, target, _routes(source, target, 1.0, max_mixed)))
    return pairs


def test_no_forbidden_verdict_on_a_pair_a_verified_route_reaches():
    pairs = _near_boundary_pairs(np.random.default_rng(61))
    assert _cross_examine(pairs) == []
    # the examination is live: routes reach targets, and decide forbids pairs
    reached = sum(
        verify_protocol(routes[0](), source, target) <= _REACHED
        for source, target, routes in pairs
    )
    forbidden = sum(isinstance(decide(s, t), Forbidden) for s, t, _ in pairs)
    assert reached >= 80 and forbidden >= 20


def test_cross_examination_flags_a_rank_gate_at_the_readout_tolerance(monkeypatch):
    # a pair in the gate's band: the source's small eigenvalues are 2.0e-12,
    # the target's 9.0e-13, and keeping or refilling reaches the target
    source = make_werner(1 - 8e-12)
    refill = DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    target = DensityMatrix(0.45 * source.matrix + 0.55 * refill.matrix)
    pair = (source, target, _routes(source, target, 0.45, refill))
    assert isinstance(decide(source, target), Inconclusive)
    assert _cross_examine([pair]) == []
    # planted violation: with no band, the gate counts rank above 1e-12 again
    monkeypatch.setattr(states, "_LIVE_EIGENVALUE", 1e-12)
    flagged = _cross_examine([pair])
    assert flagged and {reason for _, _, reason, _ in flagged} == {"rank_gate"}
    # the seeded draws reach down into the band too
    assert _cross_examine(_near_boundary_pairs(np.random.default_rng(61)))


def test_rank_gate_ignores_separable_states():
    entangled_r4 = make_werner(0.8)
    separable_r1 = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    assert rank_gate(entangled_r4, separable_r1) is None
    assert rank_gate(separable_r1, entangled_r4) is None


def test_decide_separable_target():
    v = decide(make_werner(1.0), np.eye(4, dtype=complex) / 4)
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-10
    v = decide(make_werner(0.9), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-10


def test_decide_separable_target_without_product_form():
    # separable Bell-diagonal state with distinct weights: the prepared form
    # does not exist and no family rule covers separable targets
    src = make_bell_diagonal((0.6, 0.2, 0.15, 0.05))
    dst = make_bell_diagonal((0.4, 0.3, 0.2, 0.1))
    v = decide(src, dst)
    assert isinstance(v, Inconclusive)


@pytest.fixture
def decompositions(monkeypatch):
    """One entry per product_diagonal_decomposition call from here on."""
    calls = []
    original = channels.product_diagonal_decomposition

    def counting(mat, *args, **kwargs):
        calls.append(1)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(channels, "product_diagonal_decomposition", counting)
    return calls


def test_decide_separable_target_decomposes_once(decompositions):
    v = decide(make_werner(0.9), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    assert isinstance(v, Convertible)
    assert len(decompositions) == 1


@pytest.mark.parametrize(
    "decide_family, source, target",
    [
        (decide_werner, 0.9, 0.45),
        (decide_mems, (0.9, 0.1, 0.0, 0.0), (0.7, 0.3, 0.0, 0.0)),
    ],
)
def test_shared_refill_is_lowered_once(decompositions, decide_family, source, target):
    first = decide_family(source, target)
    before = len(decompositions)
    second = decide_family(source, target)
    assert isinstance(first, Convertible)
    assert len(decompositions) == before
    assert second.residual == first.residual


def test_decide_target_without_product_basis_decomposes_once(decompositions):
    source = make_bell_diagonal((0.7, 0.1, 0.1, 0.1))
    target = make_bell_diagonal((0.4, 0.3, 0.2, 0.1))
    first = decide(source, target)
    assert isinstance(first, Inconclusive)
    assert len(decompositions) == 1
    assert decide(source, target) == first


def _random_unitary(rng) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


def _family_matrix(family: str, rng) -> np.ndarray:
    def weights():
        return np.sort(rng.dirichlet(np.ones(4)))[::-1]

    if family == "werner":
        return make_werner(rng.uniform()).matrix
    if family == "bell_diagonal":
        return make_bell_diagonal(tuple(weights())).matrix
    if family == "mems":
        w = weights()
        if rng.uniform() < 0.5:  # rank 2: no corner weights
            top = max(w[0], 1.0 - w[0])
            w = np.array([top, 1.0 - top, 0.0, 0.0])
        return make_mems(tuple(w)).matrix
    if family == "separable":
        # a product eigenbasis: a diagonal state turned by a local unitary
        u = kernels.kron2(_random_unitary(rng), _random_unitary(rng))
        return u @ np.diag(weights()).astype(complex) @ u.conj().T
    return random_density_matrix(rng).matrix


def _verdict_bits(v) -> tuple:
    protocol = getattr(v, "protocol", None)
    weights = () if protocol is None else tuple(float(w).hex() for w, _ in protocol.branches)
    residual = getattr(v, "residual", None)
    return (
        type(v).__name__,
        getattr(v, "reason", None),
        getattr(v, "detail", None),
        getattr(v, "certificate", None),
        None if residual is None else float(residual).hex(),
        weights,
    )


def test_cached_lowerings_never_change_a_verdict():
    families = ("werner", "bell_diagonal", "mems", "separable", "general")
    rng = np.random.default_rng(8)
    arrays = [
        (_family_matrix(f, rng), _family_matrix(g, rng))
        for f in families
        for g in families
        for _ in range(3)
    ]
    states = [(DensityMatrix(a), DensityMatrix(b)) for a, b in arrays]
    fresh = [_verdict_bits(decide(s, t)) for s, t in states]
    again = [_verdict_bits(decide(s, t)) for s, t in states]
    rebuilt = [_verdict_bits(decide(DensityMatrix(a), DensityMatrix(b))) for a, b in arrays]
    assert fresh == again == rebuilt
    assert {v[0] for v in fresh} == {"Convertible", "Forbidden", "Inconclusive"}


def test_decide_separable_target_without_lowering_falls_through():
    # the separable mixture-form target is neither classical on one side nor
    # Werner, so it has no product decomposition and the family rule decides
    target = make_mems((0.4, 0.3, 0.2, 0.1))
    assert not states.is_entangled(target)
    with pytest.raises(NotProductDiagonalError):
        channels.product_diagonal_decomposition(target)
    v = decide(make_mems((0.5, 0.3, 0.1, 0.1)), target)
    assert isinstance(v, Convertible)
    assert v.certificate.startswith("keep with probability 0.5, refill with diagonal weights")


@pytest.mark.parametrize("source", [(0.7, 0.2, 0.05, 0.05), (0.55, 0.25, 0.15, 0.05)])
@pytest.mark.parametrize("w2", [0.2, 1 / 3])
def test_decide_bell_source_prepares_separable_werner_target(source, w2):
    # the Bell-diagonal rule only covers entangled pairs; the shortcut
    # prepares the separable Werner target from the Bell-diagonal source
    rho = make_bell_diagonal(source)
    v = decide(rho, make_werner(w2))
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-12
    assert v.certificate == "target is separable: discard the input and prepare it"
    assert verify_protocol(v.protocol, rho, make_werner(w2)) <= 1e-12


def test_decide_prepares_separable_werner_target_from_any_source():
    # the shortcut prepares every separable Werner target, whatever the
    # source: for these no family rule applies, bar the Werner sources
    grid = [k for k in itertools.product(range(21), repeat=4)
            if sum(k) == 20 and k[0] >= k[1] >= k[2] >= k[3]]
    assert len(grid) == 108
    rng = np.random.default_rng(67)
    sources = [make_mems(tuple(x / 20 for x in k)) for k in grid] + [
        make_werner(0.9),
        make_werner(0.1),
        make_bell_diagonal((0.7, 0.2, 0.05, 0.05)),
        random_density_matrix(3),
        random_density_matrix(rng, rank=1),
    ]
    for w in [k / 40 for k in range(14)] + [1 / 3, 1 / 3 + 1e-10]:
        target = make_werner(w)
        for source in sources:
            v = decide(source, target)
            assert isinstance(v, Convertible), (w, v)
            assert v.certificate == "target is separable: discard the input and prepare it"
            assert v.residual <= (1e-12 if w <= 1 / 3 else 1e-10)


def test_decide_leaves_other_separable_targets_inconclusive():
    # separable dense states are neither classical on one side nor Werner:
    # the shortcut falls through and no family rule covers them
    rng = np.random.default_rng(71)
    targets = []
    while len(targets) < 20:
        rho = random_density_matrix(rng)
        if not states.is_entangled(rho):
            targets.append(rho)
    for target in targets:
        with pytest.raises(NotProductDiagonalError):
            channels.product_diagonal_decomposition(target)
        sources = (make_werner(0.9), make_mems((0.5, 0.3, 0.1, 0.1)), random_density_matrix(rng))
        for source in sources:
            assert isinstance(decide(source, target), Inconclusive)


# source make_werner(0.9) + d and target make_werner(0.45) - d are each
# 9.9e-9 from their Werner fit; keeping half and refilling with I/4 meets
# the fits, but lands 1.5 * ||d|| = 1.48e-8 from the given target
_FIT_GAP = np.diag([7e-9, 0.0, 0.0, -7e-9])


def _off_family_pairs(rng) -> list:
    """Seeded Werner and mixture-form pairs, each state moved up to 1e-8 off
    its family along the diagonal, the pair above first."""

    def moved(mat):
        # trace kept; only entries above 1e-3 move, so the state stays positive
        i, j = rng.choice(np.flatnonzero(np.diag(mat).real > 1e-3), 2, replace=False)
        x = rng.uniform(-7e-9, 7e-9)
        out = mat.copy()
        out[i, i] += x
        out[j, j] -= x
        return DensityMatrix(out)

    pairs = [(DensityMatrix(make_werner(0.9).matrix + _FIT_GAP),
              DensityMatrix(make_werner(0.45).matrix - _FIT_GAP))]
    for _ in range(40):
        w = rng.uniform(0.35, 0.99)
        for w2 in (w * rng.uniform(0.3, 1.0), rng.uniform(0.0, 1 / 3)):
            pairs.append((moved(make_werner(w).matrix), moved(make_werner(w2).matrix)))
        # a separable target above the source's weight, which the Werner rule prepares
        w2 = rng.uniform(0.17, 1 / 3)
        pairs.append((moved(make_werner(w2 / 2).matrix), moved(make_werner(w2).matrix)))
        top = rng.uniform(0.5, 1.0)
        source = make_mems((top, 1 - top, 0.0, 0.0)).matrix
        top2 = rng.uniform(0.5, top)
        pairs.append((moved(source), moved(make_mems((top2, 1 - top2, 0.0, 0.0)).matrix)))
        weights = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        source = make_mems(tuple(weights)).matrix
        keep = rng.uniform(0.5, 1.0)
        target = keep * source + (1 - keep) * np.diag([0.1, 0.5, 0.3, 0.1])
        pairs.append((moved(source), moved(target)))
    return pairs


def _misreported(pairs) -> list:
    """The Convertible verdicts whose residual is not that of their protocol
    on the given states, or is above RESIDUAL_BOUND."""
    flagged = []
    for source, target in pairs:
        v = decide(source, target)
        if isinstance(v, Convertible):
            residual = verify_protocol(v.protocol, source, target)
            if not v.residual == residual <= RESIDUAL_BOUND:
                flagged.append((source, target, v.residual, residual))
    return flagged


def test_family_protocol_missing_the_given_target_is_inconclusive():
    source, target = _off_family_pairs(np.random.default_rng(0))[0]
    assert classify_family(source).kind == classify_family(target).kind == "werner"
    v = decide(source, target)
    assert isinstance(v, Inconclusive)
    assert "protocol residual 1.485e-08 exceeds 1e-08" in v.detail


def test_every_convertible_residual_is_read_on_the_given_states():
    pairs = _off_family_pairs(np.random.default_rng(73))
    assert _misreported(pairs) == []
    # the sweep is live: most pairs convert, through the family rules
    verdicts = [decide(s, t) for s, t in pairs]
    convertible = [v for v in verdicts if isinstance(v, Convertible)]
    assert len(convertible) >= 150
    assert sum(v.certificate.startswith("keep") for v in convertible) >= 100
    assert sum(v.certificate.startswith("target is separable") for v in convertible) >= 30


def test_residual_sweep_flags_verification_against_the_fits(monkeypatch):
    # planted violation: decide verifies on the family fits again, so the
    # pair above reports the fits' residual, 2.9e-16, and is Convertible
    original = convertibility.verify_protocol

    def fit(rho):
        tag = classify_family(rho)
        return rho if tag.kind == "general" else tag.state()

    monkeypatch.setattr(
        convertibility,
        "verify_protocol",
        lambda protocol, rho, rho2: original(protocol, fit(rho), fit(rho2)),
    )
    pairs = _off_family_pairs(np.random.default_rng(73))
    flagged = _misreported(pairs)
    assert any(s is pairs[0][0] for s, _, _, _ in flagged)
    assert all(reported < 1e-12 < given for _, _, reported, given in flagged)


def _haar_unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("gap", [1e-8, 1e-7])
def test_decide_prepares_product_basis_target_with_close_eigenvalues(gap):
    # the target is diagonal in a product basis, with two pairs of
    # eigenvalues only ``gap`` apart: its lowering needs no spectral gap
    source = make_werner(0.9)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        u = kernels.kron2(_haar_unitary(rng), _haar_unitary(rng))
        diag = np.diag([0.3, 0.3 + gap, 0.2, 0.2 - gap]).astype(complex)
        v = decide(source, u @ diag @ u.conj().T)
        assert isinstance(v, Convertible), (seed, v)
        assert v.residual <= 1e-12


def test_decide_tests_each_state_for_separability_once(monkeypatch):
    calls = []
    original = kernels.partial_transpose

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "partial_transpose", counting)
    source = make_mems((0.5, 0.2, 0.2, 0.1))
    target = make_mems((0.44, 0.24, 0.2, 0.12))
    v = decide(source, target)
    assert isinstance(v, Convertible) and v.protocol is not None
    # source, target and the refill state
    assert len(calls) == 3
    v = decide(source, target)
    assert isinstance(v, Convertible)
    # only the new refill state is tested
    assert len(calls) == 4


def test_decide_lowers_without_per_term_eigensolves(monkeypatch):
    calls = []
    original = kernels.hermitian_eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the residual is read from the Kraus image, with no output state built
    pairs = [
        # no eigensolve at all
        (make_werner(0.9), DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)), 0),
        # keep-or-refill: the refill state and its partial transpose
        (make_mems((0.5, 0.3, 0.15, 0.05)), make_mems((0.45, 0.3, 0.17, 0.08)), 2),
    ]
    for source, target, budget in pairs:
        decide(source, target)  # tests both states for separability, once
        monkeypatch.setattr(kernels, "hermitian_eigh", counting)
        calls.clear()
        v = decide(source, target)
        monkeypatch.setattr(kernels, "hermitian_eigh", original)
        assert isinstance(v, Convertible) and v.protocol is not None
        assert len(calls) == budget


@pytest.mark.parametrize(
    "diag",
    [
        [0.4, 0.3, 0.2, 0.1 + 6e-11],
        [0.4, 0.3, 0.2, 0.1 + 9.9e-10],
        [0.4, 0.3, 0.2, 0.1 - 9.9e-10],
        # trace 1, but the dropped eigenvalue lifts the kept weights' sum
        [0.4, 0.3, 0.3 + 9e-11, -9e-11],
    ],
    ids=["trace+6e-11", "trace+9.9e-10", "trace-9.9e-10", "dropped_negative"],
)
def test_decide_prepares_a_target_whose_weights_miss_one(diag):
    target = DensityMatrix(np.diag(diag).astype(complex))
    v = decide(make_werner(0.9), target)
    assert isinstance(v, Convertible)
    assert v.residual <= RESIDUAL_BOUND
    assert verify_protocol(v.protocol, make_werner(0.9), target) == v.residual


def _break_refill_lowering(monkeypatch):
    # a lowering that still builds a complete channel, but prepares a state
    # 1% off the one it was asked for
    original = channels.DiscardPrepare.channel

    def skewed(atom):
        skew = DensityMatrix(0.99 * atom.target.matrix + 0.01 * np.diag([1, 0, 0, 0]))
        return original(channels.DiscardPrepare(skew))

    monkeypatch.setattr(channels.DiscardPrepare, "channel", skewed)


def test_constructive_verdicts_check_their_residual(monkeypatch):
    _break_refill_lowering(monkeypatch)
    with pytest.raises(ResidualError):
        decide(make_werner(0.9), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    with pytest.raises(ResidualError):
        decide(make_werner(0.9), make_werner(0.5))
    with pytest.raises(ResidualError):
        decide_mems((0.6, 0.4, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ResidualError):
        decide_mems((0.5, 0.2, 0.2, 0.1), (0.44, 0.24, 0.2, 0.12))
    # the identity branch lowers no refill; it still passes its check
    assert decide_mems((0.6, 0.4, 0.0, 0.0), (0.6, 0.4, 0.0, 0.0)).residual <= RESIDUAL_BOUND


def test_decide_cross_family_rank_gate():
    v = decide(make_werner(0.8), make_mems((0.9, 0.1, 0.0, 0.0)))
    assert isinstance(v, Forbidden)
    assert v.reason == "rank_gate"


def test_decide_routes_families():
    v = decide(make_werner(0.9), make_werner(0.45))
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-10

    v = decide(make_bell_diagonal((0.7, 0.1, 0.1, 0.1)), make_bell_diagonal((0.6, 0.2, 0.1, 0.1)))
    assert isinstance(v, Convertible)

    v = decide(make_mems((0.5, 0.2, 0.2, 0.1)), make_mems((0.44, 0.24, 0.2, 0.12)))
    assert isinstance(v, Convertible)


def test_decide_mixed_family_pairs():
    # werner source against a non-werner bell-diagonal target uses the
    # monotone rule through the shared parent family
    v = decide(make_werner(0.9), make_bell_diagonal((0.6, 0.2, 0.1, 0.1)))
    assert isinstance(v, (Convertible, Forbidden))
    # bell-diagonal (non-werner) against mems (non-bell) shares no family
    v = decide(make_bell_diagonal((0.6, 0.2, 0.15, 0.05)), make_mems((0.6, 0.25, 0.15, 0.0)))
    assert isinstance(v, (Inconclusive, Forbidden))


def test_decide_general_pair_is_inconclusive():
    v = decide(random_density_matrix(3), random_density_matrix(4))
    assert isinstance(v, Inconclusive)


def test_transitivity_spot_checks():
    # werner chain
    for a, b, c in [(0.9, 0.6, 0.3)]:
        assert isinstance(decide(make_werner(a), make_werner(b)), Convertible)
        assert isinstance(decide(make_werner(b), make_werner(c)), Convertible)
        assert isinstance(decide(make_werner(a), make_werner(c)), Convertible)
    # bell chain
    a = make_bell_diagonal((0.8, 0.1, 0.05, 0.05))
    b = make_bell_diagonal((0.7, 0.15, 0.1, 0.05))
    c = make_bell_diagonal((0.6, 0.2, 0.15, 0.05))
    assert isinstance(decide(a, b), Convertible)
    assert isinstance(decide(b, c), Convertible)
    assert isinstance(decide(a, c), Convertible)
    # mems chain
    a = (0.5, 0.2, 0.2, 0.1)
    b = (0.44, 0.24, 0.2, 0.12)
    c = (0.416, 0.256, 0.2, 0.128)
    assert isinstance(decide_mems(a, b), Convertible)
    assert isinstance(decide_mems(b, c), Convertible)
    assert isinstance(decide_mems(a, c), Convertible)


def test_verify_protocol_detects_wrong_weight():
    from entconv.channels import DiscardPrepare, LocalUnitary, Protocol

    right = decide_werner(1.0, 0.5).protocol
    assert verify_protocol(right, make_werner(1.0), make_werner(0.5)) < 1e-12
    wrong = Protocol(
        (
            (0.6, LocalUnitary(np.eye(2), np.eye(2))),
            (0.4, DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4))),
        )
    )
    assert verify_protocol(wrong, make_werner(1.0), make_werner(0.5)) > 1e-3


def _state_built_residual(protocol, source, target) -> float:
    """The residual read from a validated output state: the reference the
    Kraus-image reading of ``verify_protocol`` must equal bit for bit."""
    output = channels.compile_protocol(protocol).apply(source)
    return qmat.frobenius_norm(output.matrix - target.matrix)


def _one_side_classical(rng) -> np.ndarray:
    """sum_i p_i |u_i><u_i| (x) sigma_i, classical on a random side in a Haar basis."""
    u = _haar_unitary(rng)
    p = rng.dirichlet([1, 1])
    order = 1 - 2 * int(rng.integers(2))
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigma = g @ g.conj().T / np.trace(g @ g.conj().T).real
        out += np.kron(*(p[i] * np.outer(u[:, i], u[:, i].conj()), sigma)[::order])
    return out


def _constructive_sweep(rng):
    """(protocol, source, target) of every constructive verdict of seeded sweeps:
    the C5 Werner grid, the mixture-form grid over 40, separable targets from
    each family's sources, and the benchmark's three convert_search pairs."""
    grid = np.linspace(0.0, 1.0, 21)
    for w, w2 in itertools.product(grid.tolist(), repeat=2):
        yield decide_werner(w, w2), make_werner(w), make_werner(w2)
    weights = [
        tuple(x / 40 for x in (a, b, c, 40 - a - b - c))
        for a in range(11, 41)
        for b in range(min(a, 40 - a) + 1)
        for c in range(min(b, 40 - a - b) + 1)
        if 40 - a - b - c <= c
    ]
    for i, j in rng.integers(len(weights), size=(400, 2)):
        yield decide_mems(weights[i], weights[j]), make_mems(weights[i]), make_mems(weights[j])
    for _ in range(40):
        sources = (
            make_werner(rng.uniform(0.4, 1.0)),
            make_bell_diagonal(np.sort(rng.dirichlet(np.ones(4)))[::-1]),
            make_mems(tuple(np.sort(rng.dirichlet(np.ones(4)))[::-1])),
        )
        targets = (np.diag(rng.dirichlet(np.ones(4))).astype(complex), _one_side_classical(rng))
        for source, target in itertools.product(sources, targets):
            yield decide(source, target), source, DensityMatrix(target)
    x_on_a = np.kron(qmat.SIGMA_X, np.eye(2))
    bell = make_bell_diagonal((22 / 40, 10 / 40, 6 / 40, 2 / 40))
    searches = [
        (make_werner(36 / 40), make_werner(18 / 40)),
        (make_mems((24 / 40, 10 / 40, 6 / 40, 0.0)), make_mems((16 / 40, 14 / 40, 6 / 40, 4 / 40))),
        (bell, DensityMatrix(x_on_a @ bell.matrix @ x_on_a)),
    ]
    for source, target in searches:
        distance, protocol = oracle.convert_search(source, target)
        assert protocol is not None
        yield Convertible(protocol, "search", distance), source, target


def test_verified_residual_is_the_state_built_residual_bit_for_bit():
    counts = {}
    for verdict, source, target in _constructive_sweep(np.random.default_rng(83)):
        if not isinstance(verdict, Convertible) or verdict.protocol is None:
            continue
        reference = _state_built_residual(verdict.protocol, source, target)
        assert verify_protocol(verdict.protocol, source, target) == reference
        assert verdict.residual == reference
        kind = verdict.certificate.split(" ")[0]
        counts[kind] = counts.get(kind, 0) + 1
    # the sweep is live: keep-or-refill, identity, prepare and search verdicts
    assert counts["keep"] >= 300 and counts["target"] >= 250
    assert counts["identical"] >= 1 and counts["search"] == 3


def test_completeness_check_catches_a_lowering_that_misses_the_trace(monkeypatch):
    # planted violation: each prepared factor 1e-6 too long, so the channel
    # raises the trace by about 4e-6; no output state is built to see it,
    # and the lowering's completeness check raises first
    original = channels.DiscardPrepare._lower

    def scaled(atom):
        return channels.SeparableChannel(original(atom).kraus_pairs * (1 + 1e-6))

    monkeypatch.setattr(channels.DiscardPrepare, "_lower", scaled)
    with pytest.raises(NotTracePreservingError, match="Kraus completeness fails"):
        decide(make_werner(0.9), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))


def test_residual_check_catches_a_lowering_that_prepares_another_state(monkeypatch):
    # planted violation: a complete channel that prepares the maximally
    # mixed state, which is separable and valid, but not the target
    mixed = channels.DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4))
    original = channels.DiscardPrepare._lower
    monkeypatch.setattr(channels.DiscardPrepare, "_lower", lambda atom: original(mixed))
    with pytest.raises(ResidualError, match="target is separable: discard the input"):
        decide(make_werner(0.9), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))


def test_verdict_truthiness():
    assert decide_werner(0.9, 0.5)
    assert not decide_werner(0.5, 0.9)
    assert not Inconclusive("no rule")
