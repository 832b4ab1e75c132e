"""Tests for state constructors, validation, and family classification."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv import kernels, qmat, states
from entconv.channels import LocalUnitary, Protocol
from entconv.errors import EntconvError, NotHermitianError, OutOfRangeError
from entconv.measures import concurrence, negativity
from entconv.states import (
    BellWeights,
    DensityMatrix,
    MemsWeights,
    WernerParam,
    classify_family,
    is_entangled,
    make_bell_diagonal,
    make_mems,
    make_werner,
    min_pt_eigenvalue,
    random_density_matrix,
)


def test_bell_vectors_are_orthonormal():
    g = states.BELL_VECTORS @ states.BELL_VECTORS.conj().T
    npt.assert_allclose(g, np.eye(4), atol=1e-15)


def test_bell_projectors_resolve_identity():
    total = sum(states.BELL_PROJECTORS)
    npt.assert_allclose(total, np.eye(4), atol=1e-15)


def test_werner_extremes():
    npt.assert_allclose(make_werner(1.0).matrix, states.SINGLET_PROJECTOR, atol=1e-15)
    npt.assert_allclose(make_werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)


def test_werner_spectrum():
    w = 0.6
    values = make_werner(w).eig.values
    npt.assert_allclose(values, [(1 + 3 * w) / 4, (1 - w) / 4, (1 - w) / 4, (1 - w) / 4], atol=1e-12)


def test_werner_param_range():
    with pytest.raises(OutOfRangeError):
        WernerParam(-0.01)
    with pytest.raises(OutOfRangeError):
        make_werner(1.2)


def test_bell_diagonal_matrix_entries():
    rho = make_bell_diagonal((0.7, 0.1, 0.1, 0.1))
    m = rho.matrix
    # phi block carries (l2 +/- l3)/2, psi block carries (l1 + l4)/2 and (l4 - l1)/2
    npt.assert_allclose(m[0, 0], 0.1, atol=1e-15)
    npt.assert_allclose(m[0, 3], 0.0, atol=1e-15)
    npt.assert_allclose(m[1, 1], 0.4, atol=1e-15)
    npt.assert_allclose(m[1, 2], -0.3, atol=1e-15)
    npt.assert_allclose(rho.eig.values, [0.7, 0.1, 0.1, 0.1], atol=1e-12)


def test_bell_weights_validation():
    with pytest.raises(OutOfRangeError):
        BellWeights((0.2, 0.3, 0.3, 0.2))  # not non-ascending
    with pytest.raises(OutOfRangeError):
        BellWeights((0.7, 0.2, 0.1, 0.1))  # sums to 1.1
    with pytest.raises(OutOfRangeError):
        BellWeights((0.7, 0.4, -0.05, -0.05))
    with pytest.raises(OutOfRangeError):
        BellWeights((0.7, 0.2, 0.1))



@pytest.mark.parametrize("weights, message", [
    ((0.5, 0.5, 0.0), "lambda needs exactly 4 weights, got 3"),
    ((0.2, 0.2, 0.2, 0.2, 0.2), "lambda needs exactly 4 weights, got 5"),
    # the sign is checked entry by entry before the order
    ((0.2, 0.5, 0.4, -0.1), "lambda[3] must be nonnegative, got -0.1"),
    ((-1e-300, 0.5, 0.3, 0.2), "lambda[0] must be nonnegative, got -1e-300"),
    ((0.5, float("nan"), 0.3, 0.2), "lambda[1] must be nonnegative, got nan"),
    ((float("inf"), 0.5, 0.3, 0.2), "lambda[0] must be nonnegative, got inf"),
    ((0.5, 0.3, 0.2, float("inf")), "lambda[3] must be nonnegative, got inf"),
    # the order before the sum
    ((0.3, 0.4, 0.2, 0.1), "lambda must be non-ascending (lambda[1]=0.4 exceeds lambda[0]=0.3)"),
    ((0.4, 0.3, 0.1, 0.2), "lambda must be non-ascending (lambda[3]=0.2 exceeds lambda[2]=0.1)"),
    ((-0.0, 0.0, 0.0, 1.0), "lambda must be non-ascending (lambda[3]=1.0 exceeds lambda[2]=0.0)"),
    ((0.5, 0.3, 0.1, 0.05), "lambda must sum to 1 within 1e-12, got 0.9500000000000001"),
    ((0.5, 0.3, 0.2, 0.2), "lambda must sum to 1 within 1e-12, got 1.2"),
])
def test_weight_vector_messages_name_the_first_failure(weights, message):
    for make in (BellWeights, MemsWeights):
        with pytest.raises(OutOfRangeError) as err:
            make(weights)
        assert str(err.value) == message


def _checked_by_entry(weights):
    """The weight checks one entry at a time: the floats, or the first failure's message."""
    vals = [float(x) for x in weights]
    if len(vals) != 4:
        return f"w needs exactly 4 weights, got {len(vals)}"
    for i, x in enumerate(vals):
        if x < 0.0 or not math.isfinite(x):
            return f"w[{i}] must be nonnegative, got {x!r}"
    for i in range(3):
        if vals[i + 1] > vals[i] + 1e-12:
            return f"w must be non-ascending (w[{i + 1}]={vals[i + 1]!r} exceeds w[{i}]={vals[i]!r})"
    total = vals[0] + vals[1] + vals[2] + vals[3]
    if abs(total - 1.0) > 1e-12:
        return f"w must sum to 1 within 1e-12, got {total!r}"
    return tuple(vals)


def _cleaned_by_loop(raw):
    """The family fit's weight clipping as plain loops over the entries."""
    vals = [float(x) for x in raw]
    for i, x in enumerate(vals):
        if x < -1e-8:
            return None
        vals[i] = max(x, 0.0)
    for i in range(3):
        if vals[i + 1] > vals[i] + 1e-8:
            return None
        vals[i + 1] = min(vals[i + 1], vals[i])
    total = sum(vals)
    if abs(total - 1.0) > 1e-8 or total <= 0.0:
        return None
    return tuple(x / total for x in vals)


def _near_bound_vectors(rng, tol, count) -> list:
    """Sorted simplex vectors pushed to about ``tol`` on one side of one bound each.

    The step is ``tol``, one of its float neighbours, half or twice it, times
    1 or 1 +- 1e-9. A vector gets its last entry below or above zero (the
    first entry takes up the difference), two neighbouring entries that
    differ by the step around their mean, or its sum moved off 1 by the step,
    the other bounds kept. Some also get a NaN, an infinity or a negative
    zero in one entry.
    """
    steps = [tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 0.5 * tol, 2.0 * tol]
    out = []
    for _ in range(count):
        w = np.sort(rng.dirichlet(np.ones(4)))[::-1].copy()
        step = steps[rng.integers(len(steps))] * rng.choice([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
        step *= rng.choice([1.0, -1.0])
        bound = rng.integers(3)
        if bound == 0:
            w[0] += w[3] + step
            w[3] = -step
        elif bound == 1:
            i = int(rng.integers(1, 4))
            mean = 0.5 * (w[i - 1] + w[i])
            w[i - 1], w[i] = mean - 0.5 * step, mean + 0.5 * step
        else:
            w *= 1.0 + step
        odd = rng.integers(8)
        if odd < 3:
            w[rng.integers(4)] = (np.nan, np.inf, -0.0)[odd]
        out.append(tuple(w.tolist()))
    return out


def test_weight_vector_checks_match_one_entry_at_a_time():
    vectors = _near_bound_vectors(np.random.default_rng(1803), 1e-12, 3000)
    outcomes = {}
    for w in vectors:
        want = _checked_by_entry(w)
        try:
            got = states._check_weight_vector(w, "w")
        except OutOfRangeError as err:
            got = str(err)
        assert repr(got) == repr(want), w
        kind = "accepted" if isinstance(want, tuple) else want.split(" must ")[1][:8]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # every check is met and failed
    assert set(outcomes) == {"accepted", "be nonne", "be non-a", "sum to 1"}
    assert min(outcomes.values()) > 100, outcomes


def test_clean_weights_matches_plain_loops():
    vectors = _near_bound_vectors(np.random.default_rng(1804), 1e-8, 3000)
    results = [_cleaned_by_loop(w) for w in vectors]
    for w, want in zip(vectors, results):
        assert repr(states._clean_weights(w)) == repr(want), w
    # each outcome is reached: refused, clipped to a fit, and a NaN fit
    assert sum(r is None for r in results) > 300
    assert sum(r is not None and not math.isnan(r[0]) for r in results) > 300
    assert any(r is not None and math.isnan(r[0]) for r in results)


_GAP_EDGES = [
    # (eigenvalue, counts as live, leaves the gap clean)
    (1e-6, False, False),
    (float(np.nextafter(1e-6, 0.0)), False, False),
    (float(np.nextafter(1e-6, 1.0)), True, True),
    (1e-12, False, True),
    (float(np.nextafter(1e-12, 0.0)), False, True),
    (float(np.nextafter(1e-12, 1.0)), False, False),
    (0.0, False, True),
    (-1e-10, False, True),
    (float("nan"), False, False),
    (0.5, True, True),
]


@pytest.mark.parametrize("value, live, clean", _GAP_EDGES)
def test_gapped_rank_edges(value, live, clean):
    spectrum = [0.25, value, 0.0]
    assert states._gapped_rank(spectrum) == (1 + live, clean)
    rank, gapped = states._gapped_rank(np.array(spectrum))
    assert (int(rank), bool(gapped)) == (1 + live, clean)


def test_gapped_rank_reads_floats_as_it_reads_a_stack():
    rng = np.random.default_rng(1802)
    edges = [v for v, _, _ in _GAP_EDGES] + [1e-9, 3e-3]
    spectra = np.concatenate([
        rng.choice(edges, size=(3000, 4)),
        np.sort(rng.dirichlet(np.ones(4), size=500), axis=1)[:, ::-1],
        random_density_matrix(1802).eig.values[None, :],
    ])
    ranks, cleans = states._gapped_rank(spectra)
    assert ranks.shape == cleans.shape == (len(spectra),)
    for values, rank, clean in zip(spectra, ranks, cleans):
        got = states._gapped_rank(values.tolist())
        assert type(got[0]) is int and type(got[1]) is bool
        assert got == (int(rank), bool(clean)), values
    assert 0 < cleans.sum() < len(spectra)

def test_mems_matrix_shape():
    m = make_mems((0.5, 0.2, 0.2, 0.1)).matrix
    npt.assert_allclose(np.diag(m), [0.2, 0.35, 0.25, 0.2], atol=1e-15)
    npt.assert_allclose(m[1, 2], -0.15, atol=1e-15)
    npt.assert_allclose(m[0, 3], 0.0, atol=1e-15)


def test_mems_weights_are_not_eigenvalues():
    # the singlet projector overlaps the l2/l4 terms, so the spectrum of the
    # rank-2 member (0.9, 0.1, 0, 0) is not (0.9, 0.1): its purity is 0.91
    rho = make_mems((0.9, 0.1, 0.0, 0.0))
    npt.assert_allclose(rho.purity(), 0.91, atol=1e-12)
    assert rho.rank() == 2
    expected = (1 + np.sqrt(0.82)) / 2
    npt.assert_allclose(rho.eig.values[0], expected, atol=1e-12)


def test_density_matrix_keeps_the_hermitian_part_as_its_own_copy():
    m = np.array(make_werner(0.5).matrix)
    m[0, 1] += 3e-10j  # drift within the 1e-9 tolerance
    rho = DensityMatrix(m)
    # the symmetrized entries are those of (m + m^dagger) * 0.5 written in place
    expected = m.copy()
    expected += qmat.dag(m)
    expected *= 0.5
    assert rho.matrix.tobytes() == expected.tobytes()
    assert rho.matrix is not m and m.flags.writeable and not rho.matrix.flags.writeable


def test_density_matrix_validation():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(NotHermitianError):
        DensityMatrix(bad)
    with pytest.raises(OutOfRangeError):
        DensityMatrix(np.eye(4, dtype=complex) / 3.9)
    with pytest.raises(OutOfRangeError):
        DensityMatrix(np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex))
    with pytest.raises(OutOfRangeError):
        DensityMatrix(np.eye(2, dtype=complex) / 2)


@pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "off_diagonal"])
def test_density_matrix_refuses_nan(entry):
    # a NaN compares false with every bound, so each check is written to fail on it
    mat = np.eye(4, dtype=complex) / 4
    mat[entry] = np.nan
    with pytest.raises(EntconvError):
        DensityMatrix(mat)
    # a raw array is not validated, but no family fit accepts it
    assert classify_family(mat).kind == "general"


def test_density_matrix_array_is_readonly():
    rho = make_werner(0.5)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_state_scalars_extremes():
    singlet = make_werner(1.0)
    npt.assert_allclose(singlet.purity(), 1.0, atol=1e-12)
    npt.assert_allclose(singlet.entropy(), 0.0, atol=1e-9)
    assert singlet.rank() == 1
    mixed = make_werner(0.0)
    npt.assert_allclose(mixed.purity(), 0.25, atol=1e-12)
    npt.assert_allclose(mixed.entropy(), 2.0, atol=1e-12)
    assert mixed.rank() == 4


def test_min_pt_eigenvalue_werner_closed_form():
    for w in (0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0):
        npt.assert_allclose(min_pt_eigenvalue(make_werner(w)), (1 - 3 * w) / 4, atol=1e-12)


def test_entanglement_thresholds():
    assert not is_entangled(make_werner(0.2))
    assert not is_entangled(make_werner(1 / 3))
    assert is_entangled(make_werner(1 / 3 + 1e-6))
    assert is_entangled(make_werner(1.0))
    assert not is_entangled(make_bell_diagonal((0.5, 0.5, 0.0, 0.0)))
    assert is_entangled(make_bell_diagonal((0.51, 0.49, 0.0, 0.0)))
    assert is_entangled(make_mems((0.9, 0.1, 0.0, 0.0)))
    assert not is_entangled(np.eye(4, dtype=complex) / 4)


def test_classify_werner():
    tag = classify_family(make_werner(0.3))
    assert tag.kind == "werner"
    npt.assert_allclose(tag.params.w, 0.3, atol=1e-10)


def test_classify_bell_diagonal():
    tag = classify_family(make_bell_diagonal((0.6, 0.2, 0.15, 0.05)))
    assert tag.kind == "bell_diagonal"
    npt.assert_allclose(tag.params.weights, (0.6, 0.2, 0.15, 0.05), atol=1e-10)


def test_classify_mems():
    tag = classify_family(make_mems((0.5, 0.2, 0.2, 0.1)))
    assert tag.kind == "mems"
    npt.assert_allclose(tag.params.weights, (0.5, 0.2, 0.2, 0.1), atol=1e-10)


def test_classify_prefers_narrowest_family():
    # equal bell weights after the first make a Werner state even when built
    # through the other constructors
    tag = classify_family(make_bell_diagonal((0.7, 0.1, 0.1, 0.1)))
    assert tag.kind == "werner"
    npt.assert_allclose(tag.params.w, 0.6, atol=1e-10)
    tag = classify_family(make_mems((0.4, 0.2, 0.2, 0.2)))
    assert tag.kind == "werner"
    npt.assert_allclose(tag.params.w, 0.2, atol=1e-10)


def test_classify_general():
    psi_plus = states.BELL_PROJECTORS[3]
    mixed = 0.5 * np.diag([1.0, 0, 0, 0]).astype(complex) + 0.5 * psi_plus
    assert classify_family(DensityMatrix(mixed)).kind == "general"
    assert classify_family(random_density_matrix(5)).kind == "general"


def test_classification_round_trip_reconstruction():
    rho = make_mems((0.55, 0.25, 0.15, 0.05))
    tag = classify_family(rho)
    assert tag.kind == "mems"
    npt.assert_allclose(make_mems(tag.params).matrix, rho.matrix, atol=1e-8)


def test_classify_mems_builds_no_density_matrix(monkeypatch):
    rho = make_mems((0.55, 0.25, 0.15, 0.05))
    built = []
    original = DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    assert classify_family(rho).kind == "mems"
    assert classify_family(rho.matrix).kind == "mems"
    assert built == []


def test_family_tag_weights_per_kind():
    werner = classify_family(make_werner(0.6))
    assert isinstance(werner.bell_weights(), BellWeights)
    assert isinstance(werner.mems_weights(), MemsWeights)
    npt.assert_allclose(werner.bell_weights().weights, (0.7, 0.1, 0.1, 0.1), atol=1e-12)
    npt.assert_allclose(werner.mems_weights().weights, (0.7, 0.1, 0.1, 0.1), atol=1e-12)

    bell = classify_family(make_bell_diagonal((0.6, 0.2, 0.15, 0.05)))
    assert bell.bell_weights() is bell.params
    assert bell.mems_weights() is None

    mems = classify_family(make_mems((0.5, 0.2, 0.2, 0.1)))
    assert mems.bell_weights() is None
    assert mems.mems_weights() is mems.params

    general = classify_family(random_density_matrix(5))
    assert general.kind == "general"
    assert general.bell_weights() is None
    assert general.mems_weights() is None


def test_density_matrix_tests_separability_once(monkeypatch):
    rho = make_werner(0.8)
    calls = []
    original = kernels.partial_transpose

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "partial_transpose", counting)
    assert is_entangled(rho)
    npt.assert_allclose(min_pt_eigenvalue(rho), (1 - 3 * 0.8) / 4, atol=1e-12)
    assert rho.min_pt_eigenvalue() == min_pt_eigenvalue(rho)
    assert len(calls) == 1
    # a raw array has nowhere to keep the value
    min_pt_eigenvalue(rho.matrix)
    min_pt_eigenvalue(rho.matrix)
    assert len(calls) == 3


def test_wrong_shape_is_out_of_range_on_every_path():
    bad = np.eye(3) / 3
    keep = Protocol(((1.0, LocalUnitary(np.eye(2), np.eye(2))),))
    for read in (states.as_density, DensityMatrix, min_pt_eigenvalue, is_entangled, negativity,
                 concurrence, states.bell_weights_of, classify_family, keep.apply):
        with pytest.raises(OutOfRangeError):
            read(bad)
    # a stack where one state is read
    stack = np.stack([np.eye(4) / 4] * 2)
    for read in (states.as_density, classify_family, keep.apply):
        with pytest.raises(OutOfRangeError, match=r"\(2, 4, 4\)"):
            read(stack)


def test_bell_weights_of_detects_off_diagonal_mass():
    weights, residual = states.bell_weights_of(make_bell_diagonal((0.4, 0.3, 0.2, 0.1)))
    npt.assert_allclose(weights, [0.4, 0.3, 0.2, 0.1], atol=1e-12)
    assert residual < 1e-12
    _, residual = states.bell_weights_of(np.diag([1.0, 0, 0, 0]).astype(complex))
    assert residual > 0.5


def test_random_density_matrix_rank_and_reproducibility():
    for rank in (1, 2, 3, 4):
        rho = random_density_matrix(123, rank=rank)
        assert rho.rank() == rank
    a = random_density_matrix(7).matrix
    b = random_density_matrix(7).matrix
    assert np.array_equal(a, b)
    with pytest.raises(OutOfRangeError):
        random_density_matrix(0, rank=5)


@pytest.mark.parametrize("rank", [2.5, 2.0, np.float64(2.0), "2", True])
def test_random_density_matrix_rejects_a_non_integer_rank(rank):
    with pytest.raises(OutOfRangeError, match=re.escape(f"integer in 1..4, got {rank!r}")):
        random_density_matrix(0, rank=rank)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_gaussian_factors_draw_the_two_call_numbers(rank):
    # one normal(size=(2, 4, rank)) draw a generator gives the numbers of
    # drawing the real and imaginary parts in turn, and the same next state
    for seed in range(200):
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        got = states._gaussian_factors([one], rank)[0]
        want = two.normal(size=(4, rank)) + 1j * two.normal(size=(4, rank))
        assert np.array_equal(got, want), seed
        assert one.random() == two.random(), seed
    rngs = [np.random.default_rng((9, t)) for t in range(5)]
    stacked = states._gaussian_factors(rngs, rank)
    for t, g in enumerate(stacked):
        rng = np.random.default_rng((9, t))
        assert np.array_equal(g, rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank)))


def test_random_density_matrix_accepts_a_numpy_integer_rank():
    for rank in (np.int64(2), np.int32(3), np.uint8(4)):
        want = random_density_matrix(5, rank=int(rank)).matrix
        assert np.array_equal(random_density_matrix(5, rank=rank).matrix, want)


def test_density_matrix_repr_shows_its_spectrum():
    assert repr(make_werner(0.6)) == "DensityMatrix(spectrum=[0.7, 0.1, 0.1, 0.1])"


simplex_raw = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=4, max_size=4
)


@settings(max_examples=50, deadline=None)
@given(simplex_raw)
def test_bell_diagonal_classification_closure(raw):
    weights = tuple(sorted((x / sum(raw) for x in raw), reverse=True))
    rho = make_bell_diagonal(weights)
    tag = classify_family(rho)
    assert tag.kind in ("werner", "bell_diagonal")
    if tag.kind == "bell_diagonal":
        npt.assert_allclose(tag.params.weights, weights, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_states_are_valid(seed):
    rho = random_density_matrix(seed)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert rho.eig.values[-1] > -1e-10
    assert qmat.frobenius_norm(rho.matrix - qmat.dag(rho.matrix)) < 1e-12


def test_bell_weights_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(72)
    g = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    weights, residuals = states.bell_weights_of(g)
    assert weights.shape == (5, 4) and residuals.shape == (5,)
    for mat, w, r in zip(g, weights, residuals):
        w1, r1 = states.bell_weights_of(mat)
        assert isinstance(r1, float)
        npt.assert_allclose(w, w1, rtol=0, atol=1e-15)
        assert abs(r - r1) <= 1e-15 * r1


# An independent reference for classify_family. It shares nothing with
# `states`: each family matrix is built from its own kets and measured with
# np.linalg.norm, and the fits are written out from the definitions.
_H = 1.0 / np.sqrt(2.0)
_REF_KETS = np.eye(4, dtype=complex)  # |00>, |01>, |10>, |11>
_REF_BELL = np.array(  # psi-, phi+, phi-, psi+
    [[0, _H, -_H, 0], [_H, 0, 0, _H], [_H, 0, 0, -_H], [0, _H, _H, 0]], dtype=complex
)
_REF_TOL = 1e-8
# entries off the diagonal and the anti-diagonal
_OFF_X = np.ones((4, 4), dtype=bool)
_OFF_X[range(4), range(4)] = False
_OFF_X[range(4), range(3, -1, -1)] = False


def _ref_projector(v):
    return np.outer(v, v.conj())


def _ref_werner(w):
    return w * _ref_projector(_REF_BELL[0]) + (1.0 - w) * np.eye(4) / 4.0


def _ref_bell(weights):
    return sum(x * _ref_projector(v) for x, v in zip(weights, _REF_BELL))


def _ref_mems(weights):
    l1, l2, l3, l4 = weights
    out = (l1 - l3) * _ref_projector(_REF_BELL[0])
    for x, ket in zip((l3, l2, l4, l3), _REF_KETS):
        out = out + x * _ref_projector(ket)
    return out


def _ref_simplex(raw):
    """Non-ascending weights summing to 1, each clipped by at most 1e-8, or None."""
    w = [float(x) for x in raw]
    if any(x < -_REF_TOL for x in w):
        return None
    w = [max(x, 0.0) for x in w]
    for i in range(3):
        if w[i + 1] > w[i] + _REF_TOL:
            return None
        w[i + 1] = min(w[i + 1], w[i])
    total = sum(w)
    if not abs(total - 1.0) <= _REF_TOL:
        return None
    return tuple(x / total for x in w)


def _reference_family(mat):
    """(kind, parameters) of the first family within 1e-8: Werner, Bell, mixture form."""
    singlet = _ref_projector(_REF_BELL[0])
    w = (4.0 * np.trace(singlet @ mat).real - 1.0) / 3.0
    if -_REF_TOL <= w <= 1.0 + _REF_TOL:
        w = min(1.0, max(0.0, w))
        if np.linalg.norm(mat - _ref_werner(w)) <= _REF_TOL:
            return "werner", (w,)
    bell = _ref_simplex([(v.conj() @ mat @ v).real for v in _REF_BELL])
    if bell is not None and np.linalg.norm(mat - _ref_bell(bell)) <= _REF_TOL:
        return "bell_diagonal", bell
    l3 = 0.5 * (mat[0, 0] + mat[3, 3]).real
    s = -2.0 * mat[1, 2]
    if abs(s.imag) <= _REF_TOL:
        s = s.real
        mems = _ref_simplex((s + l3, mat[1, 1].real - s / 2, l3, mat[2, 2].real - s / 2))
        if mems is not None and np.linalg.norm(mat - _ref_mems(mems)) <= _REF_TOL:
            return "mems", mems
    return "general", ()


def _tag_params(tag):
    if tag.kind == "werner":
        return (tag.params.w,)
    return () if tag.params is None else tag.params.weights


def _family_states(rng):
    """(kind, matrix) pairs: seeded members of each family, built from the reference kets."""
    out = [("werner", _ref_werner(w)) for w in (0.0, 1.0, *rng.uniform(0, 1, 3))]
    for _ in range(3):
        out.append(("bell_diagonal", _ref_bell(np.sort(rng.dirichlet(np.ones(4)))[::-1])))
        l1, l2 = np.sort(rng.dirichlet(np.ones(2)))[::-1]
        out.append(("mems", _ref_mems((l1, l2, 0.0, 0.0))))  # rank 2
        out.append(("mems", _ref_mems(np.sort(rng.dirichlet(np.ones(4)))[::-1])))
    return out


def _perturbation(rng, kind, size):
    """A seeded perturbation of Frobenius norm `size`."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    if kind == "hermitian":  # off the X pattern and along m00 - m33, which no fit follows
        e = np.where(_OFF_X, g + g.conj().T, 0.0) + rng.normal() * np.diag([1.0, 0, 0, -1.0])
    elif kind == "anti_hermitian":
        e = g - g.conj().T
    else:  # one imaginary diagonal entry
        e = np.zeros((4, 4), dtype=complex)
        i = rng.integers(4)
        e[i, i] = 1j
    return size * e / np.linalg.norm(e)


def _assert_matches_reference(mat):
    tag = classify_family(mat)
    kind, params = _reference_family(mat)
    assert tag.kind == kind
    npt.assert_allclose(_tag_params(tag), params, rtol=0, atol=1e-12)
    return kind


@pytest.mark.parametrize("seed", range(4))
def test_classify_family_matches_an_independent_reference(seed):
    rng = np.random.default_rng(500 + seed)
    for family, mat in _family_states(rng):
        assert _assert_matches_reference(mat) == family
        for kind in ("hermitian", "anti_hermitian", "imaginary_diagonal"):
            assert _assert_matches_reference(mat + _perturbation(rng, kind, 0.5e-8)) == family
            assert _assert_matches_reference(mat + _perturbation(rng, kind, 2e-8)) != family
    for _ in range(5):  # dense states
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert _assert_matches_reference(g @ g.conj().T / np.trace(g @ g.conj().T).real) == "general"
    # Bell weights out of the fixed non-ascending order, then a NaN entry
    disordered = _ref_bell(np.sort(rng.dirichlet(np.ones(4)))[[1, 0, 2, 3]])
    assert _assert_matches_reference(disordered) == "general"
    for family, mat in _family_states(rng)[::4]:
        mat = mat.copy()
        mat[rng.integers(4), rng.integers(4)] = np.nan
        assert _assert_matches_reference(mat) == "general"
