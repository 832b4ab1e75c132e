"""Acceptance gate: eight checks, one pass/fail line each, and a sweep of
verdicts under local unitaries over the C2 and C5 grids.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines. Each check
prints its verdict before asserting, so a red run still reports every
criterion it reached. The randomized checks are fully seeded and the whole
gate finishes in a few minutes on a laptop.
"""

import math
import time
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from entconv import kernels
from entconv.channels import (
    DiscardPrepare,
    LocalUnitary,
    ProbabilisticBranch,
    renormalize_probabilistic,
)
from entconv.convertibility import (
    Convertible,
    Forbidden,
    Inconclusive,
    decide,
    decide_bell,
    decide_werner,
    synthesize_mems_protocol,
    verify_protocol,
)
from entconv.measures import bell_monotones, concurrence, negativity
from entconv.oracle import falsify_rank_monotonicity, monotone_audit
from entconv.states import (
    BELL_VECTORS,
    DensityMatrix,
    make_bell_diagonal,
    make_mems,
    make_werner,
    min_pt_eigenvalue,
)


def _report(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"[C{n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_c1_probabilistic_renormalization():
    unitary = LocalUnitary(np.eye(2), np.eye(2))
    prepare = DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4))
    proto, success = renormalize_probabilistic(
        [
            ProbabilisticBranch(0.5, 1.0, unitary),
            ProbabilisticBranch(0.5, 0.5, prepare),
        ]
    )
    weights = tuple(w for w, _ in proto.branches)
    ok = (
        abs(success - 0.75) <= 1e-15
        and abs(weights[0] - 2 / 3) <= 1e-15
        and abs(weights[1] - 1 / 3) <= 1e-15
    )
    _report(1, "probabilistic renormalization example", ok,
            f"success={success!r}, weights={weights!r}")
    assert ok


def _entangled_weight_grid(den: int) -> list:
    """Sorted weight numerators (a, b, c, d) over den with a > den / 2: C2's grid."""
    vecs = []
    for a in range(den // 2 + 1, den + 1):
        for b in range(0, min(a, den - a) + 1):
            for c in range(0, min(b, den - a - b) + 1):
                d = den - a - b - c
                if 0 <= d <= c:
                    vecs.append((a, b, c, d))
    return vecs


def _werner_grid(n: int) -> np.ndarray:
    """The Werner weights k/n, k = 0..n: C5's grid."""
    return np.linspace(0.0, 1.0, n + 1)


@pytest.mark.slow
def test_c2_bell_decision_grid():
    start = time.perf_counter()

    # the two derived decisions
    first = decide_bell((0.7, 0.1, 0.1, 0.1), (0.6, 0.2, 0.1, 0.1))
    second = decide_bell((0.6, 0.4, 0.0, 0.0), (0.7, 0.1, 0.1, 0.1))
    examples_ok = (
        isinstance(first, Convertible)
        and isinstance(second, Forbidden)
        and second.reason == "monotone_e1"
    )

    # the two derived monotone triples
    ta = bell_monotones((0.7, 0.1, 0.1, 0.1))
    tb = bell_monotones((0.6, 0.2, 0.1, 0.1))
    triples_ok = np.allclose(ta, (0.7, 4.0, 6.0), atol=1e-12) and np.allclose(
        tb, (0.6, 3.0, 4.0), atol=1e-12
    )

    # exhaustive grid of entangled sorted weight vectors with denominator 40;
    # every ordered pair is checked against the three monotones evaluated in
    # exact rational arithmetic (+inf for a zero denominator), which shares
    # no float formula with the decision path and so keeps exact ties tied
    den = 40
    vecs = _entangled_weight_grid(den)
    n = len(vecs)

    def exact_monotones(vec):
        l1, l2, l3, l4 = (Fraction(x, den) for x in vec)
        e2 = math.inf if l3 + l4 == 0 else (1 - 2 * l2) / (l3 + l4)
        e3 = math.inf if l4 == 0 else (1 - 2 * l2 - 2 * l3) / l4
        return l1, e2, e3

    exact = [exact_monotones(v) for v in vecs]
    # rank each monotone's exact values, so the pairwise comparisons run on
    # integer arrays
    holds = []
    for k in range(3):
        rank_of = {value: r for r, value in enumerate(sorted({m[k] for m in exact}))}
        ranks = np.array([rank_of[m[k]] for m in exact])
        holds.append(ranks[:, None] >= ranks[None, :])
    holds1, holds2, holds3 = holds
    ref_convertible = holds1 & holds2 & holds3

    disagreements = 0
    floats = [tuple(x / den for x in v) for v in vecs]
    for i in range(n):
        for j in range(n):
            verdict = decide_bell(floats[i], floats[j])
            if isinstance(verdict, Convertible) != bool(ref_convertible[i, j]):
                disagreements += 1
            elif isinstance(verdict, Forbidden):
                k = 1 if not holds1[i, j] else (2 if not holds2[i, j] else 3)
                if verdict.reason != f"monotone_e{k}":
                    disagreements += 1
    elapsed = time.perf_counter() - start
    ok = examples_ok and triples_ok and disagreements == 0 and elapsed < 60.0
    _report(2, "Bell-diagonal decision grid", ok,
            f"{n * n} pairs, {disagreements} disagreements, {elapsed:.1f}s < 60s")
    assert ok
    assert n * n >= 20**3


@pytest.mark.slow
def test_c3_monotone_audit_at_scale():
    report = monotone_audit(10_000, seed=20250819)
    ok = report.clean and report.elapsed < 120.0
    _report(3, "monotone audit", ok,
            f"{report.trials} trials, {len(report.counterexamples)} violations, "
            f"live: {report.live['monotones']} monotones, "
            f"{report.live['concurrence']} concurrence, "
            f"skipped: {report.skipped['left_bell_diagonal']} left Bell-diagonal, "
            f"{report.skipped['output_not_entangled']} not entangled, "
            f"{report.elapsed:.1f}s < 120s")
    assert ok


def test_c4_mixture_synthesis_round_trips():
    cases = [
        ((0.6, 0.25, 0.15, 0.0), (0.54, 0.325, 0.135, 0.0), 0.9),
        ((0.5, 0.2, 0.2, 0.1), (0.44, 0.24, 0.2, 0.12), 0.8),
    ]
    derived_ok = True
    residuals = []
    for source, target, w_expected in cases:
        w, prep = synthesize_mems_protocol(source, target)
        derived_ok &= abs(w - w_expected) <= 1e-10
        protocol = _two_branch_protocol(w, prep)
        residual = verify_protocol(protocol, make_mems(source), make_mems(target))
        residuals.append(residual)
        derived_ok &= residual < 1e-10
    # second case pins the refill weights as well
    _, prep = synthesize_mems_protocol(*cases[1][:2])
    derived_ok &= np.allclose(prep, (0.4, 0.4, 0.2), atol=1e-10)

    rng = np.random.default_rng(20250819)
    accepted = 0
    worst = 0.0
    draws = 0
    while accepted < 1000:
        draws += 1
        assert draws < 40_000, "sweep sampler exhausted"
        s = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        if s[0] - s[2] < 0.05:
            continue
        w = rng.uniform(0.0, 0.98)
        prep = rng.dirichlet(np.ones(3))  # (p01, p00_11, p10)
        t1 = w * s[0] + (1.0 - w) * prep[1] / 2.0
        t2 = w * s[1] + (1.0 - w) * prep[0]
        t3 = w * s[2] + (1.0 - w) * prep[1] / 2.0
        t4 = w * s[3] + (1.0 - w) * prep[2]
        t = (t1, t2, t3, t4)
        if any(t[i + 1] > t[i] - 1e-9 for i in range(3)):
            continue
        w_found, prep_found = synthesize_mems_protocol(tuple(s), t)
        err = max(
            abs(w_found - w),
            max(abs(a - b) for a, b in zip(prep_found, prep)),
        )
        worst = max(worst, err)
        accepted += 1
    sweep_ok = worst <= 1e-8
    ok = derived_ok and sweep_ok
    _report(4, "mixture synthesis round trips", ok,
            f"derived residuals {residuals[0]:.1e}/{residuals[1]:.1e}, "
            f"sweep {accepted} samples worst recovery error {worst:.1e}")
    assert ok


def _two_branch_protocol(w, prep):
    from entconv.channels import Protocol

    eye = LocalUnitary(np.eye(2), np.eye(2))
    if w >= 1.0:
        return Protocol(((1.0, eye),))
    p01, p00_11, p10 = prep
    refill = DensityMatrix(np.diag([p00_11 / 2, p01, p10, p00_11 / 2]).astype(complex))
    return Protocol(((w, eye), (1.0 - w, DiscardPrepare(refill))))


def test_c5_werner_protocol_grid():
    # exact rule on the w = k/20 grid: convertible iff w2 <= w or the
    # target is separable (w2 <= 1/3)
    n = 20
    grid = _werner_grid(n)
    convertible = 0
    forbidden = 0
    worst = 0.0
    ok = True
    for k, w in enumerate(grid):
        for k2, w2 in enumerate(grid):
            verdict = decide_werner(float(w), float(w2))
            if k2 <= k or Fraction(k2, n) <= Fraction(1, 3):
                if not isinstance(verdict, Convertible):
                    ok = False
                    continue
                residual = verify_protocol(
                    verdict.protocol, make_werner(float(w)), make_werner(float(w2))
                )
                worst = max(worst, residual)
                convertible += 1
            else:
                forbidden += 1
                if not isinstance(verdict, Forbidden):
                    ok = False
    ok = ok and worst < 1e-12 and convertible >= 100
    _report(5, "Werner protocol grid", ok,
            f"{convertible} convertible pairs worst residual {worst:.1e}, "
            f"{forbidden} forbidden pairs")
    assert ok


@pytest.mark.slow
def test_c6_rank_falsifier_at_scale():
    report = falsify_rank_monotonicity(100_000, seed=20250819)
    ok = report.clean and report.elapsed < 300.0
    _report(6, "rank monotonicity falsifier", ok,
            f"{report.trials} trials, {len(report.counterexamples)} counterexamples, "
            f"{report.live['rank']} live, "
            f"{report.skipped['local_unitary']} skipped local unitary, "
            f"{report.skipped['output_not_entangled']} skipped not entangled, "
            f"{report.elapsed:.1f}s < 300s")
    assert ok


def test_c7_measure_cross_validation():
    closed_form_worst = 0.0
    for l1 in np.linspace(0.5, 1.0, 50):
        c = concurrence(make_mems((float(l1), float(1.0 - l1), 0.0, 0.0)))
        closed_form_worst = max(closed_form_worst, abs(c - l1))
    closed_ok = closed_form_worst <= 1e-10

    rng = np.random.default_rng(7)
    band = 1e-8
    total = 0
    evaluated = 0
    disagreements = 0
    for i in range(10_000):
        kind = i % 10
        if kind < 4:
            rank = 2 + (i % 3)
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            mat = g @ g.conj().T
            mat /= np.trace(mat).real
        elif kind < 7:
            mat = np.zeros((4, 4), dtype=complex)
            for p in rng.dirichlet(np.ones(6)):
                a = rng.normal(size=2) + 1j * rng.normal(size=2)
                b = rng.normal(size=2) + 1j * rng.normal(size=2)
                a /= np.linalg.norm(a)
                b /= np.linalg.norm(b)
                ket = np.kron(a, b)
                mat += p * np.outer(ket, ket.conj())
        else:
            mat = make_werner(float(rng.uniform(0.0, 0.6))).matrix
        total += 1
        min_pt = min_pt_eigenvalue(mat)
        c = concurrence(mat)
        neg = negativity(mat)
        if abs(min_pt) <= band or 0.0 < c <= band or 0.0 < neg <= band:
            continue
        evaluated += 1
        by_ppt = min_pt < -band
        by_c = c > band
        by_neg = neg > band
        if not (by_ppt == by_c == by_neg):
            disagreements += 1
    agree_ok = disagreements == 0 and evaluated >= 7000
    ok = closed_ok and agree_ok
    _report(7, "measure cross validation", ok,
            f"closed form worst {closed_form_worst:.1e}; {evaluated}/{total} states "
            f"decisive, {disagreements} disagreements")
    assert ok


def test_c8_kernel_reconstruction():
    rng = np.random.default_rng(11)
    worst_recon = 0.0
    worst_involution = 0.0
    for _ in range(10_000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = np.ascontiguousarray(g + g.conj().T)
        values, vectors = kernels.hermitian_eigh(h)
        recon = (vectors * values) @ vectors.conj().T
        worst_recon = max(worst_recon, float(np.linalg.norm(recon - h)))
        m = np.ascontiguousarray(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        for subsystem in (0, 1):
            twice = kernels.partial_transpose(kernels.partial_transpose(m, subsystem), subsystem)
            worst_involution = max(worst_involution, float(np.max(np.abs(twice - m))))
    ok = worst_recon < 1e-10 and worst_involution <= 1e-14
    _report(8, "kernel reconstruction and involution", ok,
            f"worst eig reconstruction {worst_recon:.1e}, "
            f"worst double partial transpose {worst_involution:.1e}")
    assert ok


def _family_grid_pairs(rng) -> list:
    """Werner, Bell-diagonal and mixture-form pairs of the C5 and C2 grids, seeded."""
    werner = [make_werner(float(w)) for w in _werner_grid(20)]
    pairs = [(s, t) for s in werner for t in werner]
    weights = [tuple(x / 40 for x in v) for v in _entangled_weight_grid(40)]
    for make in (make_bell_diagonal, make_mems):
        for i, j in rng.integers(len(weights), size=(300, 2)):
            pairs.append((make(weights[i]), make(weights[j])))
    return pairs


def _haar_local(rng) -> np.ndarray:
    def haar():
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return kernels.kron2(haar(), haar())


def _flips(pairs, turn_source, turn_target) -> tuple:
    """(flipped, decided, left undecided): decided pairs whose turned verdict is the opposite."""
    flipped = decided = undecided = 0
    for source, target in pairs:
        kind = type(decide(source, target))
        if kind is Inconclusive:
            continue
        decided += 1
        turned = type(decide(turn_source(source), turn_target(target)))
        flipped += {kind, turned} == {Convertible, Forbidden}
        undecided += turned is Inconclusive
    return flipped, decided, undecided


def _turned(u, rho) -> DensityMatrix:
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def test_verdicts_never_flip_under_local_unitaries():
    # a local unitary on either state changes no convertibility, so a decided
    # pair may turn Inconclusive but never to the opposite decided kind; a
    # ResidualError from a turned pair fails the test
    rng = np.random.default_rng(2206)
    pairs = _family_grid_pairs(rng)

    def local(rho):
        return _turned(_haar_local(rng), rho)

    flipped, decided, undecided = _flips(pairs, local, local)
    print(f"local unitaries: {decided} decided pairs, {flipped} flipped, "
          f"{undecided} turned Inconclusive")
    assert decided > 500 and flipped == 0
    # planted control: a global unitary sending the singlet to |10> on the
    # target alone changes what is reachable, and the check must see it
    singlet = BELL_VECTORS[0]
    v = singlet - np.eye(4)[2]
    reflect = np.eye(4) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    npt.assert_allclose(reflect @ singlet, np.eye(4)[2], atol=1e-15)
    flipped, _, _ = _flips(pairs, lambda rho: rho, lambda rho: _turned(reflect, rho))
    print(f"global control: {flipped} flipped")
    assert flipped > 0
