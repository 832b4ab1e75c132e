"""Tests for the decision rules, protocol synthesis, and the pipeline."""

import itertools
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from entconv import channels, kernels, qmat, states
from entconv.channels import compile_protocol
from entconv.convertibility import (
    RESIDUAL_BOUND,
    Convertible,
    Forbidden,
    Inconclusive,
    MemsProtocolParams,
    _separable_werner_protocol,
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
    OutOfRangeError,
    ResidualError,
)
from entconv.states import (
    DensityMatrix,
    WernerParam,
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
    p = synthesize_mems_protocol((0.5, 0.2, 0.2, 0.1), (0.44, 0.24, 0.2, 0.12))
    npt.assert_allclose(p.W, 0.8, atol=1e-12)
    npt.assert_allclose(p.prep_weights, (0.4, 0.4, 0.2), atol=1e-12)

    p = synthesize_mems_protocol((0.6, 0.25, 0.15, 0.0), (0.54, 0.325, 0.135, 0.0))
    npt.assert_allclose(p.W, 0.9, atol=1e-12)
    npt.assert_allclose(p.prep_weights, (1.0, 0.0, 0.0), atol=1e-12)


def test_mems_synthesis_identity():
    p = synthesize_mems_protocol((0.5, 0.2, 0.2, 0.1), (0.5, 0.2, 0.2, 0.1))
    assert p.W == 1.0
    assert p.prep_weights == (1.0, 0.0, 0.0)


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


def test_mems_params_validation():
    with pytest.raises(OutOfRangeError):
        MemsProtocolParams(1.2, (1.0, 0.0, 0.0))
    with pytest.raises(OutOfRangeError):
        MemsProtocolParams(0.5, (0.6, 0.6, 0.0))


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


_REACHED = 1e-12  # a route reaches a target when its verified residual is at most this


def _routes(source, target, keep, refill):
    """Constructive routes to the target: keep or refill, and the mixture-form rule."""
    routes = [lambda: keep_or_refill(keep, refill)]
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


def test_separable_werner_protocol_is_lowered_once(decompositions):
    compile_protocol(_separable_werner_protocol(WernerParam(0.2)))
    before = len(decompositions)
    compile_protocol(_separable_werner_protocol(WernerParam(0.2)))
    assert len(decompositions) == before


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
    # the separable Werner target has no product eigenbasis, so the family
    # rule decides: keep or refill with the maximally mixed state
    v = decide(make_werner(0.5), make_werner(0.2))
    assert isinstance(v, Convertible)
    assert v.certificate.endswith("refill with the maximally mixed state")


@pytest.mark.parametrize("source", [(0.7, 0.2, 0.05, 0.05), (0.55, 0.25, 0.15, 0.05)])
@pytest.mark.parametrize("w2", [0.2, 1 / 3])
def test_decide_bell_source_prepares_separable_werner_target(source, w2):
    # the Bell-diagonal rule only covers entangled pairs; a separable Werner
    # target is prepared from the Bell-diagonal source instead
    rho = make_bell_diagonal(source)
    v = decide(rho, make_werner(w2))
    assert isinstance(v, Convertible)
    assert v.residual <= 1e-12
    assert v.certificate.startswith("target is separable: prepare anti-parallel")
    assert verify_protocol(v.protocol, rho, make_werner(w2)) <= 1e-12


def test_decide_prepares_separable_werner_target_from_any_source():
    # no shared family rule settles these pairs: the mixture-form synthesis is
    # infeasible for 34 of the MEMS sources, and a general source has no rule
    target = make_werner(0.2)
    grid = [k for k in itertools.product(range(21), repeat=4)
            if sum(k) == 20 and k[0] >= k[1] >= k[2] >= k[3]]
    assert len(grid) == 108
    sources = [make_mems(tuple(x / 20 for x in k)) for k in grid]
    for source in sources + [random_density_matrix(3)]:
        v = decide(source, target)
        assert isinstance(v, Convertible), v
        assert v.residual <= 1e-12


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


def test_verdict_truthiness():
    assert decide_werner(0.9, 0.5)
    assert not decide_werner(0.5, 0.9)
    assert not Inconclusive("no rule")
