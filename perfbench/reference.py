"""Reference answers that share no code with the package under test.

Everything here is built from the physics and from exact rationals, using
only numpy, ``fractions`` and ``math``; nothing imports ``entconv``. The
benchmark checks every output of the package against these functions:

* exact verdict rules for the Werner, Bell-diagonal and rank-2
  maximally-entangled-mixture (MEMS) families, evaluated on
  ``fractions.Fraction`` weights;
* state matrices built directly from the family definitions;
* a replay of protocol branches (local unitaries and discard-and-prepare)
  written with plain matrix products;
* a partial-transpose entanglement test and a numeric rank with wide
  margins, for the rank-gate rule on dense states.

Basis order is |00>, |01>, |10>, |11>; the Bell order is
(psi-, phi+, phi-, psi+) with the singlet first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_H = 1.0 / math.sqrt(2.0)
BELL_VECTORS = (
    np.array([0.0, _H, -_H, 0.0], dtype=complex),
    np.array([_H, 0.0, 0.0, _H], dtype=complex),
    np.array([_H, 0.0, 0.0, -_H], dtype=complex),
    np.array([0.0, _H, _H, 0.0], dtype=complex),
)
SINGLET = np.outer(BELL_VECTORS[0], BELL_VECTORS[0].conj())
IDENTITY4 = np.eye(4, dtype=complex)

REPLAY_TOL = 1e-9
# Dense states closer than this to the separable boundary, or with an
# eigenvalue this close to zero, are ambiguous in floating point and are not
# drawn as rank-gate inputs.
DENSE_MARGIN = 1e-6
_INF = math.inf

CONVERTIBLE = "Convertible"
FORBIDDEN = "Forbidden"
INCONCLUSIVE = "Inconclusive"


def frac_weights(ints, den: int) -> tuple:
    return tuple(Fraction(k, den) for k in ints)


def werner_matrix(w) -> np.ndarray:
    w = float(w)
    return w * SINGLET + (1.0 - w) * IDENTITY4 / 4.0


def bell_matrix(weights) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for lam, vec in zip(weights, BELL_VECTORS):
        out += float(lam) * np.outer(vec, vec.conj())
    return out


def mems_matrix(weights) -> np.ndarray:
    l1, l2, l3, l4 = (float(x) for x in weights)
    out = (l1 - l3) * SINGLET
    out[0, 0] += l3
    out[3, 3] += l3
    out[1, 1] += l2
    out[2, 2] += l4
    return out


def diag_matrix(weights) -> np.ndarray:
    return np.diag([float(x) for x in weights]).astype(complex)


# ---------------------------------------------------------------------------
# exact verdict rules

def werner_rule(w: Fraction, w2: Fraction) -> str:
    """LOCC convertibility of Werner states, exactly.

    The singlet weight cannot grow while the target is entangled; a
    separable target (w2 <= 1/3) can always be prepared from scratch with
    shared randomness, so it is reachable from any source.
    """
    return CONVERTIBLE if (w2 <= w or 3 * w2 <= 1) else FORBIDDEN


def _ratio(num: Fraction, den: Fraction) -> float | Fraction:
    # extended reals: a zero denominator is +inf whatever the numerator
    return _INF if den == 0 else num / den


def _ext_ge(a, b) -> bool:
    if b == _INF:
        return a == _INF
    return a == _INF or a >= b


def bell_monotones(weights: tuple) -> tuple:
    """The three Bell-diagonal monotones of sorted Fraction weights, exactly."""
    l1, l2, l3, l4 = weights
    return (l1, _ratio(1 - 2 * l2, l3 + l4), _ratio(1 - 2 * l2 - 2 * l3, l4))


def bell_rule(src: tuple, tgt: tuple) -> str:
    """Entangled Bell-diagonal pairs: dominance of the three monotones.

    Weights are Fractions sorted non-ascending with top weight above 1/2.
    """
    ms, mt = bell_monotones(src), bell_monotones(tgt)
    return CONVERTIBLE if all(_ext_ge(a, b) for a, b in zip(ms, mt)) else FORBIDDEN


def bell_monotones_tie(src: tuple, tgt: tuple) -> bool:
    """Whether some exact monotone of the source equals the target's (inf == inf too)."""
    return any(a == b for a, b in zip(bell_monotones(src), bell_monotones(tgt)))


def mems_rank2_rule(src: tuple, tgt: tuple) -> str:
    """Rank-2 MEMS pairs (weights (a, 1-a, 0, 0)): the concurrence is a.

    Keeping with probability a'/a and refilling |01><01| reaches any a' <= a;
    a larger a' would raise the concurrence.
    """
    return CONVERTIBLE if tgt[0] <= src[0] else FORBIDDEN


def mems_refill_feasible(src: tuple, tgt: tuple) -> bool:
    """Whether tgt = W src + (1 - W) D with W in [0, 1] and D diagonal and PSD.

    Solved on the exact matrix entries: only the kept branch carries the
    singlet coherence, which fixes W; what is left must be a nonnegative
    diagonal.
    """
    s1, s2, s3, s4 = src
    t1, t2, t3, t4 = tgt
    if s1 == s3:
        return False
    w = (t1 - t3) / (s1 - s3)
    if not 0 <= w <= 1:
        return False
    if w == 1:
        return tuple(src) == tuple(tgt)
    return all(t - w * s >= 0 for t, s in ((t2, s2), (t3, s3), (t4, s4)))


# ---------------------------------------------------------------------------
# dense states

def partial_transpose_b(mat: np.ndarray) -> np.ndarray:
    out = np.empty((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    out[2 * a + b, 2 * a2 + b2] = mat[2 * a + b2, 2 * a2 + b]
    return out


def dense_profile(mat: np.ndarray):
    """(entangled, rank), or None when either is within DENSE_MARGIN of a flip."""
    spectrum = np.linalg.eigvalsh(mat)
    pt_min = float(np.linalg.eigvalsh(partial_transpose_b(mat))[0])
    if abs(pt_min) <= DENSE_MARGIN:
        return None
    if np.any((spectrum > 1e-12) & (spectrum <= DENSE_MARGIN)):
        return None
    return pt_min < 0.0, int(np.sum(spectrum > DENSE_MARGIN))


def rank_gate_applies(src_profile, tgt_profile) -> bool:
    (ent_s, rank_s), (ent_t, rank_t) = src_profile, tgt_profile
    return ent_s and ent_t and rank_t < rank_s


def random_dense(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


# ---------------------------------------------------------------------------
# protocol replay

def replay(branches, source: np.ndarray) -> np.ndarray:
    """Apply protocol branches to a state with plain matrix products.

    ``branches`` is a sequence of (weight, kind, data): kind "unitary" with
    data (u_a, u_b), or kind "prepare" with the prepared 4x4 matrix.
    """
    out = np.zeros((4, 4), dtype=complex)
    trace = np.trace(source).real
    for weight, kind, data in branches:
        if kind == "unitary":
            u_a, u_b = (np.asarray(u, dtype=complex) for u in data)
            u = np.einsum("ij,kl->ikjl", u_a, u_b).reshape(4, 4)
            out += weight * (u @ source @ u.conj().T)
        elif kind == "prepare":
            out += weight * trace * np.asarray(data, dtype=complex)
        else:
            raise ValueError(f"unknown branch kind {kind!r}")
    return out


def replay_distance(branches, source: np.ndarray, target: np.ndarray) -> float:
    return float(np.linalg.norm(replay(branches, source) - target))

