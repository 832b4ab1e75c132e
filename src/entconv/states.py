"""Two-qubit density matrices, named state families, and classification.

Conventions used throughout the package:

* computational basis order |00>, |01>, |10>, |11>, so |ab> sits at 2a+b;
* Bell basis order (psi-, phi+, phi-, psi+) with the singlet
  (|01> - |10>)/sqrt(2) first, matching the convention that the largest
  Bell weight multiplies the singlet projector.

Three parameterized families get first-class support:

* Werner: w * |psi-><psi-| + (1-w) * I/4 for w in [0, 1];
* Bell-diagonal: a mixture of the four Bell projectors with non-ascending
  weights;
* the maximally-entangled-mixture form: decomposition weights
  (l1-l3) on the singlet projector, l3 on each of |00><00| and |11><11|,
  l2 on |01><01|, l4 on |10><10|. The weights are decomposition
  coefficients, not eigenvalues: the singlet projector overlaps the
  |01>/|10> block, so the spectrum generally differs from the weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import kernels, qmat
from .errors import OutOfRangeError

_SQ2 = 1.0 / np.sqrt(2.0)

BELL_VECTORS = qmat.read_only(np.array(
    [
        [0.0, _SQ2, -_SQ2, 0.0],  # (|01> - |10>)/sqrt(2), the singlet
        [_SQ2, 0.0, 0.0, _SQ2],   # (|00> + |11>)/sqrt(2)
        [_SQ2, 0.0, 0.0, -_SQ2],  # (|00> - |11>)/sqrt(2)
        [0.0, _SQ2, _SQ2, 0.0],   # (|01> + |10>)/sqrt(2)
    ],
    dtype=np.complex128,
))

BELL_PROJECTORS = tuple(qmat.read_only(np.outer(v, v.conj())) for v in BELL_VECTORS)
SINGLET_PROJECTOR = BELL_PROJECTORS[0]
_BELL_STACK = qmat.read_only(np.stack(BELL_PROJECTORS))
_BELL_KETS = BELL_VECTORS[:, :, None]
_BELL_BRAS = qmat.read_only(BELL_VECTORS.conj())[:, None, :]

MAX_MIXED = qmat.read_only(np.eye(4, dtype=np.complex128) / 4.0)

_WEIGHT_SUM_TOL = 1e-12
_ORDER_TOL = 1e-12
# partial-transpose eigenvalues within this of zero count as separable
_ENTANGLED_TOL = 1e-10
# eigenvalues at or below this are rounding, not population
_ZERO_EIGENVALUE = 1e-12
# eigenvalues above this are population, whatever the rounding; a spectrum
# with none in (_ZERO_EIGENVALUE, _LIVE_EIGENVALUE] has a clean gap
_LIVE_EIGENVALUE = 1e-6
# how far a state may sit from its best-fit family reconstruction
_FAMILY_TOL = 1e-8


@dataclass(frozen=True)
class WernerParam:
    """Mixing weight of the singlet against the maximally mixed state."""

    w: float

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        if not (0.0 <= self.w <= 1.0):
            raise OutOfRangeError(f"werner weight must lie in [0, 1], got {self.w!r}")

    def mixture_weights(self) -> tuple:
        """Singlet-first weights (1+3w)/4, (1-w)/4, (1-w)/4, (1-w)/4.

        They are both the Bell-diagonal weights and the mixture-form weights
        of the Werner state.
        """
        q = (1.0 - self.w) / 4.0
        return ((1.0 + 3.0 * self.w) / 4.0, q, q, q)


def _check_weight_vector(weights, what: str) -> tuple:
    """The four weights as floats, nonnegative, non-ascending and summing to 1.

    After the length, one combined test passes valid weights; it rejects NaN
    by its comparisons and an infinity by the sum. Only a vector that fails it
    goes through the per-entry checks, which name the first entry that fails,
    in this order: sign or finiteness, order (1e-12), sum (1e-12).
    """
    vals = tuple(map(float, weights))
    if len(vals) != 4:
        raise OutOfRangeError(f"{what} needs exactly 4 weights, got {len(vals)}")
    a, b, c, d = vals
    if (0.0 <= a and 0.0 <= b and 0.0 <= c and 0.0 <= d
            and b <= a + _ORDER_TOL and c <= b + _ORDER_TOL and d <= c + _ORDER_TOL
            and abs(a + b + c + d - 1.0) <= _WEIGHT_SUM_TOL):
        return vals
    for i, x in enumerate(vals):
        if x < 0.0 or not math.isfinite(x):
            raise OutOfRangeError(f"{what}[{i}] must be nonnegative, got {x!r}")
    for i in range(3):
        if vals[i + 1] > vals[i] + _ORDER_TOL:
            raise OutOfRangeError(
                f"{what} must be non-ascending ({what}[{i + 1}]={vals[i + 1]!r} "
                f"exceeds {what}[{i}]={vals[i]!r})"
            )
    raise OutOfRangeError(
        f"{what} must sum to 1 within {_WEIGHT_SUM_TOL:g}, got {a + b + c + d!r}"
    )


@dataclass(frozen=True)
class BellWeights:
    """Non-ascending mixture weights over the four Bell projectors."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weight_vector(self.weights, "lambda"))


@dataclass(frozen=True)
class MemsWeights:
    """Non-ascending decomposition weights of the maximally-entangled-mixture form."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weight_vector(self.weights, "lambda"))


@dataclass(frozen=True)
class FamilyTag:
    """Classification result: family kind plus its fitted parameters."""

    kind: str  # "werner" | "bell_diagonal" | "mems" | "general"
    params: Union[WernerParam, BellWeights, MemsWeights, None] = None

    def bell_weights(self) -> Optional[BellWeights]:
        """Bell-diagonal weights of a Werner or Bell-diagonal state, else None."""
        if self.kind == "werner":
            return BellWeights(self.params.mixture_weights())
        return self.params if self.kind == "bell_diagonal" else None

    def mems_weights(self) -> Optional[MemsWeights]:
        """Mixture-form weights of a Werner or mixture-form state, else None."""
        if self.kind == "werner":
            return MemsWeights(self.params.mixture_weights())
        return self.params if self.kind == "mems" else None

    def state(self) -> "DensityMatrix":
        """The fitted family state; a general tag has none."""
        make = {"werner": make_werner, "bell_diagonal": make_bell_diagonal, "mems": make_mems}
        return make[self.kind](self.params)


class DensityMatrix:
    """A validated 4x4 density matrix with its spectral facts cached.

    Construction checks Hermiticity (``qmat.hermitian_part``, 1e-9), the
    given matrix's unit trace (1e-9), then positive semidefiniteness of its
    Hermitian part (eigenvalues >= -1e-10), which is kept as the state's own
    read-only matrix; each check fails on a NaN entry. The eigendecomposition
    is kept, and the separability test's value on first use.
    """

    __slots__ = ("_mat", "_eig", "_min_pt")

    def __init__(self, matrix):
        mat = _one_mat_of(matrix)
        sym = qmat.hermitian_part(mat)
        tr = complex(mat.trace())
        if not abs(tr - 1.0) <= 1e-9:
            raise OutOfRangeError(f"density matrix trace must be 1 within 1e-9, got {tr!r}")
        eig = qmat.EigenDecomposition(*map(qmat.read_only, kernels.hermitian_eigh(sym)))
        if not eig.values[-1] >= -1e-10:
            raise OutOfRangeError(
                f"density matrix has eigenvalue {eig.values[-1]:.3e} below -1e-10"
            )
        self._mat = qmat.read_only(sym)
        self._eig = eig
        self._min_pt = None

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def eig(self) -> qmat.EigenDecomposition:
        return self._eig

    def min_pt_eigenvalue(self) -> float:
        """Smallest eigenvalue of the partial transpose, computed once."""
        if self._min_pt is None:
            # the module-level function, on the raw array
            self._min_pt = min_pt_eigenvalue(self._mat)
        return self._min_pt

    def purity(self) -> float:
        return float(np.sum(np.abs(self._mat) ** 2))

    def entropy(self) -> float:
        w = self._eig.values
        w = w[w > _ZERO_EIGENVALUE]
        return float(-np.sum(w * np.log2(w)))

    def rank(self, tol: float = 1e-9) -> int:
        """The number of eigenvalues strictly above tol, which must be positive."""
        if not tol > 0:
            raise OutOfRangeError(f"rank tolerance must be positive, got {tol!r}")
        return sum(x > tol for x in self._eig.values.tolist())

    def __repr__(self):
        lam = ", ".join(f"{x:.6g}" for x in self._eig.values)
        return f"DensityMatrix(spectrum=[{lam}])"


def _gapped_rank(values) -> tuple:
    """(eigenvalues above 1e-6, whether none lies in (1e-12, 1e-6]) of a spectrum.

    A spectrum given as Python floats gives an int and a bool, read in one
    loop; a numpy array gives them for each spectrum along its last axis. A
    NaN counts as neither live nor clean in both forms.
    """
    if isinstance(values, np.ndarray):
        live = values > _LIVE_EIGENVALUE
        return live.sum(axis=-1), (live | (values <= _ZERO_EIGENVALUE)).all(axis=-1)
    rank, clean = 0, True
    for x in values:
        if x > _LIVE_EIGENVALUE:
            rank += 1
        elif not x <= _ZERO_EIGENVALUE:
            clean = False
    return rank, clean


def _mat_of(rho) -> np.ndarray:
    """The matrix of a state, or a raw (..., 4, 4) array as contiguous complex128.

    A nesting that is not an array of numbers, such as a ragged one, raises
    OutOfRangeError.
    """
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    mat = qmat.complex_array(rho)
    if mat.shape[-2:] != (4, 4):
        raise OutOfRangeError(f"expected 4x4 matrices, got shape {mat.shape}")
    return mat


def _one_mat_of(rho) -> np.ndarray:
    """``_mat_of`` for a reader of one state, which a stack fails with OutOfRangeError."""
    mat = _mat_of(rho)
    if mat.ndim != 2:
        raise OutOfRangeError(f"expected one 4x4 matrix, got shape {mat.shape}")
    return mat


def as_density(rho) -> DensityMatrix:
    """The state itself, or a validated DensityMatrix built from a 4x4 array."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


def _werner_weight(mat: np.ndarray) -> float:
    """The Werner weight w = (4F - 1) / 3 read from the singlet fraction F of a 4x4 matrix."""
    return (4.0 * float(np.vdot(SINGLET_PROJECTOR, mat).real) - 1.0) / 3.0


def _werner_matrix(w: float) -> np.ndarray:
    return w * SINGLET_PROJECTOR + (1.0 - w) * MAX_MIXED


def _bell_matrix(weights) -> np.ndarray:
    """Bell mixture of each (..., 4) weight row, the projectors summed in order."""
    return (np.asarray(weights, dtype=np.float64)[..., None, None] * _BELL_STACK).sum(axis=-3)


def _mems_matrix(weights) -> np.ndarray:
    l1, l2, l3, l4 = weights
    return (l1 - l3) * SINGLET_PROJECTOR + np.diag([l3, l2, l4, l3])


def make_werner(w) -> DensityMatrix:
    """Werner state w * singlet + (1-w) * I/4."""
    param = w if isinstance(w, WernerParam) else WernerParam(float(w))
    return DensityMatrix(_werner_matrix(param.w))


def make_bell_diagonal(weights) -> DensityMatrix:
    """Mixture of the four Bell projectors with non-ascending weights."""
    bw = weights if isinstance(weights, BellWeights) else BellWeights(tuple(weights))
    return DensityMatrix(_bell_matrix(bw.weights))


def make_mems(weights) -> DensityMatrix:
    """Maximally-entangled-mixture form from its decomposition weights."""
    mw = weights if isinstance(weights, MemsWeights) else MemsWeights(tuple(weights))
    return DensityMatrix(_mems_matrix(mw.weights))


def _check_count(n, what: str, low: int, high: Optional[int]) -> None:
    """Raise OutOfRangeError unless n is an integer, not a bool, in low..high (None: no cap)."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < low
            or (high is not None and n > high)):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise OutOfRangeError(f"{what} must be an integer {bound}, got {n!r}")


def _gaussian_factors(rngs: Sequence, rank: int) -> np.ndarray:
    """A complex Gaussian 4 x rank matrix per generator, stacked.

    Each generator is read in one draw, the real part's numbers before the
    imaginary part's: the numbers of drawing the two parts in turn.
    """
    parts = np.empty((len(rngs), 2, 4, rank))
    for t, rng in enumerate(rngs):
        parts[t] = rng.normal(size=(2, 4, rank))
    return parts[:, 0] + 1j * parts[:, 1]


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    """G G^dagger / tr(G G^dagger) of a factor, or of each factor in a stack."""
    mat = g @ qmat.dag(g)
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def random_density_matrix(seed=None, rank: int = 4) -> DensityMatrix:
    """Random state G G^dagger / tr(G G^dagger), G complex Gaussian 4 x rank."""
    _check_count(rank, "rank", 1, 4)
    g = _gaussian_factors([np.random.default_rng(seed)], rank)[0]
    return DensityMatrix(_normalized_gram(g))


def _pt_spectrum(rho) -> np.ndarray:
    """Partial-transpose eigenvalues, descending, of a state or of each in a stack."""
    return qmat.hermitian_eig(kernels.partial_transpose(_mat_of(rho), 1)).values


def min_pt_eigenvalue(rho):
    """Smallest eigenvalue of the partial transpose; a DensityMatrix keeps it.

    One state gives a float; a (..., 4, 4) stack gives an array of shape
    (...), each entry computed as for that matrix alone.
    """
    if isinstance(rho, DensityMatrix):
        return rho.min_pt_eigenvalue()
    values = _pt_spectrum(rho)[..., -1]
    return float(values) if values.ndim == 0 else values


def is_entangled(rho) -> bool:
    """Partial-transpose test, exact for two qubits.

    Entangled iff the partial transpose has an eigenvalue below -1e-10;
    states within 1e-10 of the boundary are reported separable.
    """
    return min_pt_eigenvalue(rho) < -_ENTANGLED_TOL


def _bell_diagonal(mat: np.ndarray) -> np.ndarray:
    """<v|mat|v> for each Bell vector v, in the fixed Bell order, over a stack too."""
    # a matrix-vector, then a vector-vector product
    return (_BELL_BRAS @ (mat[..., None, :, :] @ _BELL_KETS))[..., 0, 0].real


def bell_weights_of(rho) -> tuple:
    """Bell-basis diagonal of a state and the off-diagonal residual.

    Returns (weights, residual) where weights[i] = <bell_i|rho|bell_i> in the
    fixed Bell order (not sorted) and residual is the Frobenius distance to
    the Bell-diagonal reconstruction. A residual near zero certifies the
    state is Bell-diagonal; the caller decides what tolerance to apply.
    A (..., 4, 4) stack of matrices gives (..., 4) weights and (...) residuals.
    """
    mat = _mat_of(rho)
    weights = _bell_diagonal(mat)
    return weights, qmat.frobenius_norm(mat - _bell_matrix(weights))


def _clean_weights(raw) -> Optional[tuple]:
    """Four fitted weights, as floats, clipped to a non-ascending simplex, or None past 1e-8.

    A negative weight or an ascent beyond 1e-8 fails; smaller ones are
    clipped (to 0, then each weight to the one before it) and the result is
    divided by its sum, which must lie within 1e-8 of 1. A NaN fails none of
    these comparisons, so it comes back as a NaN fit, which the caller's
    distance check then rejects.
    """
    a, b, c, d = raw
    if a < -_FAMILY_TOL or b < -_FAMILY_TOL or c < -_FAMILY_TOL or d < -_FAMILY_TOL:
        return None
    # max(x, 0.0) and min(x, y), spelled out: the first unless the second is past it
    a = 0.0 if 0.0 > a else a
    b = 0.0 if 0.0 > b else b
    c = 0.0 if 0.0 > c else c
    d = 0.0 if 0.0 > d else d
    if b > a + _FAMILY_TOL:
        return None
    b = a if a < b else b
    if c > b + _FAMILY_TOL:
        return None
    c = b if b < c else c
    if d > c + _FAMILY_TOL:
        return None
    d = c if c < d else d
    total = sum((a, b, c, d))
    if abs(total - 1.0) > _FAMILY_TOL or total <= 0.0:
        return None
    return (a / total, b / total, c / total, d / total)


def classify_family(rho) -> FamilyTag:
    """Most specific family whose best-fit reconstruction is within 1e-8.

    Precedence is Werner, then Bell-diagonal, then the
    maximally-entangled-mixture form, then general: the families nest and
    overlap (every Werner state is both Bell-diagonal and of the mixture
    form), so the narrowest parameterization wins.

    The entries are read once, and each family is fitted from them in that
    order: Werner w from the overlap with the singlet projector, clipped to
    [0, 1]; the Bell weights from the Bell-ket products ``bell_weights_of``
    takes; the mixture-form weights from the corners and the central block.
    Bell and mixture-form weights are clipped to a non-ascending simplex
    within 1e-8. Every family matrix is real and vanishes outside its
    diagonal and anti-diagonal (the X pattern), so the Frobenius distance to
    a fit, which must be at most 1e-8, is taken over the input's entries
    outside the X pattern and its differences on it; no family matrix is
    built. A NaN entry makes every distance NaN, which fails, so such input
    is general.
    """
    mat = _one_mat_of(rho)
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = (
        mat.tolist()
    )
    off_x = math.hypot(abs(m01), abs(m02), abs(m10), abs(m13),
                       abs(m20), abs(m23), abs(m31), abs(m32))

    def within(d0, d1, d2, d3, corner, centre) -> bool:
        # distance to the real X matrix with diagonal d, (0, 3) and (3, 0)
        # entries `corner` and (1, 2) and (2, 1) entries `centre`
        return math.hypot(
            off_x, abs(m00 - d0), abs(m11 - d1), abs(m22 - d2), abs(m33 - d3),
            abs(m03 - corner), abs(m30 - corner), abs(m12 - centre), abs(m21 - centre),
        ) <= _FAMILY_TOL

    w = _werner_weight(mat)
    if -_FAMILY_TOL <= w <= 1.0 + _FAMILY_TOL:
        w = min(1.0, max(0.0, w))
        q, h = (1.0 - w) / 4.0, w / 2.0
        if within(q, q + h, q + h, q, 0.0, -h):
            return FamilyTag("werner", WernerParam(w))

    # Bell order (psi-, phi+, phi-, psi+): phi+/- fill the corners, psi-/+ the centre
    c = _clean_weights(_bell_diagonal(mat).tolist())
    if c is not None:
        outer, inner = 0.5 * (c[1] + c[2]), 0.5 * (c[0] + c[3])
        if within(outer, inner, inner, outer, 0.5 * (c[1] - c[2]), 0.5 * (c[3] - c[0])):
            return FamilyTag("bell_diagonal", BellWeights(c))

    # the form fixes every entry: corners carry l3, the central block carries
    # the singlet weight on its off-diagonal and l2/l4 plus half the singlet
    # weight on its diagonal
    l3 = 0.5 * (m00.real + m33.real)
    s = -2.0 * m12
    if not abs(s.imag) > _FAMILY_TOL:
        s = s.real
        c = _clean_weights((s + l3, m11.real - 0.5 * s, l3, m22.real - 0.5 * s))
        if c is not None:
            half = 0.5 * (c[0] - c[2])
            if within(c[2], c[1] + half, c[3] + half, c[2], 0.0, -half):
                return FamilyTag("mems", MemsWeights(c))
    return FamilyTag("general", None)
