"""Tests for entanglement measures and the Bell-diagonal monotone triple."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.errors import NotHermitianError, OutOfRangeError
from entconv.measures import (
    bell_monotones,
    binary_entropy,
    concurrence,
    eof,
    eof_of_concurrence,
    negativity,
)
from entconv.states import (
    DensityMatrix,
    is_entangled,
    make_bell_diagonal,
    make_mems,
    make_werner,
    min_pt_eigenvalue,
    random_density_matrix,
)


def test_monotone_triple_worked_values():
    npt.assert_allclose(bell_monotones((0.7, 0.1, 0.1, 0.1)), (0.7, 4.0, 6.0), atol=1e-12)
    npt.assert_allclose(bell_monotones((0.6, 0.2, 0.1, 0.1)), (0.6, 3.0, 4.0), atol=1e-12)


def test_monotone_zero_denominators_give_inf():
    assert bell_monotones((1.0, 0.0, 0.0, 0.0)) == (1.0, math.inf, math.inf)
    t = bell_monotones((0.5, 0.3, 0.2, 0.0))
    npt.assert_allclose((t.e1, t.e2), (0.5, 2.0), atol=1e-12)
    # zero denominator wins even when the numerator is zero too
    assert t.e3 == math.inf


def test_monotones_reject_unsorted_weights():
    with pytest.raises(OutOfRangeError):
        bell_monotones((0.1, 0.7, 0.1, 0.1))


def test_monotones_match_the_closed_form_bit_for_bit():
    # every sorted weight vector on the denominator-40 grid, against the
    # closed form written out here
    for a in range(41):
        for b in range(min(a, 40 - a) + 1):
            for c in range(min(b, 40 - a - b) + 1):
                d = 40 - a - b - c
                if not 0 <= d <= c:
                    continue
                l1, l2, l3, l4 = (x / 40 for x in (a, b, c, d))
                e2 = math.inf if l3 + l4 == 0.0 else (1.0 - 2.0 * l2) / (l3 + l4)
                e3 = math.inf if l4 == 0.0 else (1.0 - 2.0 * l2 - 2.0 * l3) / l4
                assert tuple(bell_monotones((l1, l2, l3, l4))) == (l1, e2, e3)


def test_concurrence_of_pure_and_mixed_references():
    npt.assert_allclose(concurrence(make_werner(1.0)), 1.0, atol=1e-12)
    npt.assert_allclose(concurrence(make_werner(0.6)), 0.4, atol=1e-12)
    assert concurrence(make_werner(1 / 3)) < 1e-12
    assert concurrence(np.eye(4, dtype=complex) / 4) == 0.0


def test_concurrence_bell_diagonal_closed_form():
    # 2 * lmax - 1 when positive
    npt.assert_allclose(concurrence(make_bell_diagonal((0.6, 0.2, 0.1, 0.1))), 0.2, atol=1e-12)
    npt.assert_allclose(concurrence(make_bell_diagonal((0.9, 0.1, 0.0, 0.0))), 0.8, atol=1e-12)


def test_concurrence_mems_closed_form():
    # max(0, l1 - 3 l3) for the maximally-entangled-mixture form
    npt.assert_allclose(concurrence(make_mems((0.9, 0.1, 0.0, 0.0))), 0.9, atol=1e-11)
    npt.assert_allclose(concurrence(make_mems((0.6, 0.25, 0.15, 0.0))), 0.15, atol=1e-11)
    assert concurrence(make_mems((0.5, 0.2, 0.2, 0.1))) < 1e-12


def test_concurrence_precision_on_rank_deficient_state():
    # the rank-2 member exercises the tiny-singular-value path; the closed
    # form equals the top weight exactly
    err = abs(concurrence(make_mems((0.9, 0.1, 0.0, 0.0))) - 0.9)
    assert err < 1e-11


def test_concurrence_of_a_stack_matches_each_state():
    rng = np.random.default_rng(41)
    mats = []
    for rank in (1, 2, 3, 4, 4, 2):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        mat = g @ g.conj().T
        mats.append(mat / np.trace(mat).real)
    mats.append(make_werner(0.2).matrix)  # separable: concurrence 0
    stack = np.array(mats)
    got = concurrence(stack)
    assert got.shape == (len(mats),)
    for mat, c in zip(mats, got):
        assert abs(c - concurrence(mat)) <= 1e-14
    assert got[-1] == 0.0
    assert concurrence(stack.reshape(7, 1, 4, 4)).shape == (7, 1)
    assert isinstance(concurrence(mats[0]), float)


def test_concurrence_of_a_raw_array_has_the_one_hermiticity_bound():
    # ||m - m^dagger||_F = 5e-9: past the 1e-9 that every reader of a raw
    # array, and DensityMatrix, requires
    m = np.array(make_werner(0.9).matrix)
    m[0, 0] += 2.5e-9j
    for reader in (concurrence, negativity, min_pt_eigenvalue, is_entangled, DensityMatrix):
        with pytest.raises(NotHermitianError, match="within 1e-09"):
            reader(m)
    m[0, 0] -= 2.1e-9j  # 8e-10, within the bound
    assert abs(concurrence(m) - concurrence(make_werner(0.9))) <= 1e-12


def test_eof_of_concurrence_is_eof():
    for rho in (make_werner(0.9), make_werner(0.2), make_mems((0.6, 0.25, 0.15, 0.0))):
        assert eof_of_concurrence(concurrence(rho)) == eof(rho)


def test_negativity_references():
    npt.assert_allclose(negativity(make_werner(1.0)), 0.5, atol=1e-12)
    npt.assert_allclose(negativity(make_werner(0.6)), 0.2, atol=1e-12)
    assert negativity(make_werner(0.3)) == 0.0


def test_stacked_pt_readouts_equal_the_per_state_calls():
    rng = np.random.default_rng(41)
    states = [random_density_matrix(rng, rank=1 + i % 4) for i in range(10)]
    stack = np.stack([rho.matrix for rho in states]).reshape(2, 5, 4, 4)
    neg, min_pt = negativity(stack), min_pt_eigenvalue(stack)
    assert neg.shape == min_pt.shape == (2, 5)
    assert np.array_equal(neg.ravel(), [negativity(rho) for rho in states])
    assert np.array_equal(neg.ravel(), [negativity(rho.matrix) for rho in states])
    assert np.array_equal(min_pt.ravel(), [min_pt_eigenvalue(rho) for rho in states])
    assert np.array_equal(min_pt.ravel(), [min_pt_eigenvalue(rho.matrix) for rho in states])
    assert isinstance(negativity(stack[0, 0]), float)
    assert isinstance(min_pt_eigenvalue(stack[0, 0]), float)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    npt.assert_allclose(binary_entropy(0.5), 1.0, atol=1e-15)
    npt.assert_allclose(binary_entropy(0.9), 0.4689955935892812, atol=1e-12)
    with pytest.raises(OutOfRangeError):
        binary_entropy(1.1)


def test_eof_reference_value():
    # concurrence 0.6 gives h((1 + sqrt(0.64)) / 2) = h(0.9)
    rho = make_mems((0.6, 0.4, 0.0, 0.0))
    npt.assert_allclose(concurrence(rho), 0.6, atol=1e-11)
    npt.assert_allclose(eof(rho), 0.4689955935892812, atol=1e-10)
    npt.assert_allclose(eof(make_werner(1.0)), 1.0, atol=1e-9)
    assert eof(np.eye(4, dtype=complex) / 4) == 0.0


def test_eof_monotone_in_concurrence():
    values = [eof(make_werner(w)) for w in np.linspace(1 / 3, 1.0, 30)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=4))
def test_concurrence_negativity_ordering(seed, rank):
    rho = random_density_matrix(seed, rank=rank)
    c = concurrence(rho)
    n = negativity(rho)
    assert c >= 2.0 * n - 1e-8
    assert -1e-12 <= c <= 1.0 + 1e-12
    assert -1e-12 <= n <= 0.5 + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=4, max_size=4)
)
def test_bell_diagonal_concurrence_equals_twice_negativity(raw):
    weights = tuple(sorted((x / sum(raw) for x in raw), reverse=True))
    rho = make_bell_diagonal(weights)
    npt.assert_allclose(concurrence(rho), 2.0 * negativity(rho), atol=1e-10)
    npt.assert_allclose(concurrence(rho), max(0.0, 2.0 * weights[0] - 1.0), atol=1e-10)


def test_negativity_of_a_separable_state_is_positive_zero():
    separable = make_werner(0.2)
    assert math.copysign(1.0, negativity(separable)) == 1.0
    values = negativity(np.stack([separable.matrix, make_werner(0.9).matrix]))
    assert math.copysign(1.0, values[0]) == 1.0
    assert values[1] == negativity(make_werner(0.9))
