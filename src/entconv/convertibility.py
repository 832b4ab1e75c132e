"""Convertibility decisions between two-qubit states under local operations.

Three verdict types cover every outcome:

* ``Convertible``: conversion is possible; when the family rule is
  constructive the verdict carries an explicit protocol together with the
  Frobenius residual of re-applying that protocol to the source. That
  residual is checked at run time: above ``RESIDUAL_BOUND`` the decision
  raises ResidualError instead of returning a verdict.
* ``Forbidden``: conversion is impossible, with a machine-readable reason
  (``rank_gate``, ``monotone_e1``/``e2``/``e3``, ``eof_decrease``,
  ``weight_infeasible``) and a human-readable detail line.
* ``Inconclusive``: the engine has no rule that decides the pair. This is an
  honest "don't know", not a "no".

The family rules have different strengths and the dispatcher respects that:
the Werner and rank-2 rules are constructive both ways, the Bell-diagonal
monotone comparison is an exact iff (certificate only, no protocol), and the
general mixture-form synthesis is sufficient only, so its infeasibility
yields Inconclusive rather than Forbidden.

What a verdict means for the floats given: a ``Forbidden`` holds exactly
for them, while a ``Convertible`` reaches the target within
``RESIDUAL_BOUND``. Near a tie both can hold. ``make_werner(0.6)`` to
``make_werner(0.6 + 1e-11)`` is ``Forbidden`` (``weight_infeasible``), yet
keeping the source lands 8.7e-12 from the target.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import qmat
from .channels import (
    DiscardPrepare,
    LocalUnitary,
    Protocol,
    compile_protocol,
)
from .errors import (
    InfeasibleError,
    NotEntangledError,
    NotProductDiagonalError,
    OutOfRangeError,
    ResidualError,
)
from .measures import bell_monotones, monotone_ratios
from .states import (
    BellWeights,
    DensityMatrix,
    MemsWeights,
    WernerParam,
    _WEIGHT_SUM_TOL,
    _ZERO_EIGENVALUE,
    as_density,
    classify_family,
    is_entangled,
    make_mems,
    make_werner,
)


@dataclass(frozen=True, eq=False)
class Convertible:
    protocol: Optional[Protocol]
    certificate: str
    residual: Optional[float] = None

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Forbidden:
    reason: str
    detail: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Inconclusive:
    detail: str

    def __bool__(self):
        return False


Verdict = Union[Convertible, Forbidden, Inconclusive]


@dataclass(frozen=True)
class MemsProtocolParams:
    """Identity weight W and diagonal refill weights (p01, p00_11, p10)."""

    W: float
    prep_weights: tuple

    def __post_init__(self):
        if not 0.0 <= self.W <= 1.0:
            raise OutOfRangeError(f"W must lie in [0, 1], got {self.W!r}")
        p = tuple(float(x) for x in self.prep_weights)
        if len(p) != 3 or any(x < 0.0 for x in p):
            raise OutOfRangeError(f"prep weights must be 3 nonnegative values, got {p}")
        if abs(sum(p) - 1.0) > 1e-10:
            raise OutOfRangeError(f"prep weights must sum to 1 within 1e-10, got {sum(p)!r}")
        object.__setattr__(self, "prep_weights", p)

    def prepared_state(self) -> DensityMatrix:
        p01, p00_11, p10 = self.prep_weights
        return DensityMatrix(np.diag([p00_11 / 2, p01, p10, p00_11 / 2]).astype(complex))


def verify_protocol(protocol: Protocol, rho, rho2) -> float:
    """Residual ||apply(compile(protocol), rho) - rho2||_F.

    Goes through the compiled Kraus form rather than the abstract branches,
    so it independently checks both the protocol and its lowering.
    """
    source = as_density(rho)
    target = as_density(rho2)
    channel = compile_protocol(protocol)
    return qmat.frobenius_distance(channel.apply(source).matrix, target.matrix)


# above the lowering's own 1e-9 reconstruction tolerance, far below any
# residual a wrong protocol or a broken lowering leaves
RESIDUAL_BOUND = 1e-8


def _constructive(protocol: Protocol, certificate: str, rho, rho2) -> Convertible:
    """Convertible verdict for a protocol whose verified residual is within bound."""
    residual = verify_protocol(protocol, rho, rho2)
    if not residual <= RESIDUAL_BOUND:
        raise ResidualError(
            f"protocol residual {residual:.3e} exceeds {RESIDUAL_BOUND:g} ({certificate})"
        )
    return Convertible(protocol, certificate, residual)


def rank_gate(rho, rho2) -> Optional[Forbidden]:
    """Block entangled-to-entangled conversions that would lower the rank.

    Returns a Forbidden verdict when both states are entangled and the
    target's rank is strictly smaller; None means pass. A rank counts the
    eigenvalues above 1e-12, not ``rank()``'s 1e-9 readout: an eigenvalue
    between the two is populated, not rounding, so it does not lower a rank.
    """
    source = as_density(rho)
    target = as_density(rho2)
    if not (is_entangled(source) and is_entangled(target)):
        return None
    r_in, r_out = source.rank(_ZERO_EIGENVALUE), target.rank(_ZERO_EIGENVALUE)
    if r_out < r_in:
        return Forbidden(
            "rank_gate",
            f"no separable channel sends an entangled rank-{r_in} state to an "
            f"entangled rank-{r_out} state",
        )
    return None


@functools.cache
def _identity_atom() -> LocalUnitary:
    return LocalUnitary(qmat.EYE2, qmat.EYE2, shared=True)


def keep_or_refill(keep: float, refill_state) -> Protocol:
    """Keep the input with probability ``keep``, else replace it by ``refill_state``."""
    return _keep_or(keep, DiscardPrepare(refill_state))


def _keep_or(keep: float, refill: DiscardPrepare) -> Protocol:
    return Protocol(((keep, _identity_atom()), (1.0 - keep, refill)))


@functools.cache
def _max_mixed_atom() -> DiscardPrepare:
    """Discard and prepare the maximally mixed state, the Werner refill."""
    return DiscardPrepare(DensityMatrix(np.eye(4, dtype=complex) / 4), shared=True)


@functools.cache
def _refill_01_atom() -> DiscardPrepare:
    """Discard and prepare |01><01|, the rank-2 MEMS refill."""
    return DiscardPrepare(
        DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)), shared=True
    )


@functools.cache
def _antiparallel_atoms() -> tuple:
    """Discard and prepare |n><n| (x) |-n><-n| for n = +-x, +-y, +-z.

    Their equal mixture is the Werner state at w = 1/3.
    """
    eye = qmat.EYE2
    return tuple(
        DiscardPrepare(DensityMatrix(np.kron(eye + s * p, eye - s * p) / 4.0), shared=True)
        for p in (qmat.SIGMA_X, qmat.SIGMA_Y, qmat.SIGMA_Z)
        for s in (1.0, -1.0)
    )


_SEPARABLE_WERNER_CERTIFICATE = (
    "target is separable: prepare anti-parallel Pauli eigenstates, "
    "refill with the maximally mixed state"
)


def _separable_werner_protocol(target: WernerParam) -> Optional[Protocol]:
    """Prepare a Werner state with w' <= 1/3 (within 1e-12) from any input, else None.

    Each of the six anti-parallel Pauli eigenstate pairs gets weight w'/2 and
    the maximally mixed state the remaining 1 - 3w'.
    """
    if 3.0 * target.w > 1.0 + _WEIGHT_SUM_TOL:
        return None
    branches = [(target.w / 2.0, atom) for atom in _antiparallel_atoms()]
    branches.append((max(0.0, 1.0 - 3.0 * target.w), _max_mixed_atom()))
    return Protocol(tuple(branches))


def decide_werner(w, w2) -> Verdict:
    """Convertible iff the singlet weight does not increase or the target is separable.

    When w' <= w the protocol keeps the state with probability p = w'/w and
    otherwise replaces it with the maximally mixed state. A separable target
    (w' <= 1/3) is prepared directly by ``_separable_werner_protocol``.
    """
    source = w if isinstance(w, WernerParam) else WernerParam(float(w))
    target = w2 if isinstance(w2, WernerParam) else WernerParam(float(w2))
    if target.w <= source.w:
        p = 1.0 if source.w == 0.0 else target.w / source.w
        protocol = _keep_or(p, _max_mixed_atom())
        certificate = f"keep with probability {p:.12g}, refill with the maximally mixed state"
    else:
        protocol = _separable_werner_protocol(target)
        if protocol is None:
            return Forbidden(
                "weight_infeasible",
                f"identity weight w'/w = {target.w}/{source.w} exceeds 1 "
                "and the target is entangled",
            )
        certificate = _SEPARABLE_WERNER_CERTIFICATE
    return _constructive(protocol, certificate, make_werner(source), make_werner(target))


def decide_bell(l, l2) -> Verdict:
    """Exact decision for entangled Bell-diagonal pairs by monotone dominance.

    Convertible iff every monotone of the source weakly dominates the
    target's, comparing in the extended reals. The certificate is the
    comparison itself; no protocol is synthesized here.

    Each comparison is cross-multiplied, e_k(source) >= e_k(target) as
    n_s d_t >= n_t d_s, with differences within the weight-validation
    tolerance counted as ties: the weights are only known to that tolerance,
    and a division would let rounding split an exact tie. All numerators are
    positive for entangled weights, so the cross-multiplied order is the
    order of the ratios, and a zero denominator (an infinite monotone) needs
    no case of its own: a source denominator that rounding left just above
    zero ties with an infinite target monotone.
    """
    source = l if isinstance(l, BellWeights) else BellWeights(tuple(l))
    target = l2 if isinstance(l2, BellWeights) else BellWeights(tuple(l2))
    for name, bw in (("source", source), ("target", target)):
        if bw.weights[0] <= 0.5:
            raise NotEntangledError(
                f"{name} top weight {bw.weights[0]!r} is not above 1/2; the monotone "
                "rule only covers entangled pairs"
            )
    ms = bell_monotones(source)
    mt = bell_monotones(target)
    ratios = zip(monotone_ratios(source.weights), monotone_ratios(target.weights))
    for k, ((ns, ds), (nt, dt)) in enumerate(ratios, start=1):
        if ns * dt < nt * ds - _WEIGHT_SUM_TOL:
            return Forbidden(
                f"monotone_e{k}",
                f"E{k} would increase: {ms[k - 1]!r} < {mt[k - 1]!r}",
            )
    return Convertible(None, f"monotone triple {tuple(ms)} dominates {tuple(mt)}", None)


def synthesize_mems_protocol(l, l2) -> MemsProtocolParams:
    """Solve for the identity weight and refill state within the mixture form.

    The identity weight W is fixed by the off-diagonal entry, which only the
    kept branch can supply; the three refill weights then solve a triangular
    linear system, one per remaining matrix entry. Raises InfeasibleError
    naming the first violated bound.
    """
    source = l if isinstance(l, MemsWeights) else MemsWeights(tuple(l))
    target = l2 if isinstance(l2, MemsWeights) else MemsWeights(tuple(l2))
    s1, s2, s3, s4 = source.weights
    t1, t2, t3, t4 = target.weights
    if s1 - s3 <= 1e-12:
        raise InfeasibleError("source has no singlet excess (top weight equals corner weight)")
    w = (t1 - t3) / (s1 - s3)
    if w < -1e-12 or w > 1.0 + 1e-12:
        raise InfeasibleError(f"identity weight W = {w!r} falls outside [0, 1]")
    w = min(1.0, max(0.0, w))
    if w == 1.0:
        if max(abs(a - b) for a, b in zip(source.weights, target.weights)) <= 1e-10:
            return MemsProtocolParams(1.0, (1.0, 0.0, 0.0))
        raise InfeasibleError("identity weight W = 1 but the weight vectors differ")
    rest = 1.0 - w
    p01 = (t2 - w * s2) / rest
    p00_11 = 2.0 * (t3 - w * s3) / rest
    p10 = (t4 - w * s4) / rest
    for name, val in (("p01", p01), ("p00_11", p00_11), ("p10", p10)):
        if val < -1e-12:
            raise InfeasibleError(f"refill weight {name} = {val!r} is negative")
    p01, p00_11, p10 = (max(0.0, x) for x in (p01, p00_11, p10))
    total = p01 + p00_11 + p10
    if abs(total - 1.0) > 1e-10:
        raise InfeasibleError(f"refill weights sum to {total!r}, not 1")
    return MemsProtocolParams(w, (p01, p00_11, p10))


def decide_mems(l, l2) -> Verdict:
    """Decision within the maximally-entangled-mixture form.

    Rank-2 members (both corner weights zero on both sides) are decided both
    ways: the top weight is the entanglement of formation's argument there,
    so it cannot grow. General members go through protocol synthesis, which
    is sufficient only: infeasibility yields Inconclusive.
    """
    source = l if isinstance(l, MemsWeights) else MemsWeights(tuple(l))
    target = l2 if isinstance(l2, MemsWeights) else MemsWeights(tuple(l2))
    s = source.weights
    t = target.weights
    if max(abs(a - b) for a, b in zip(s, t)) <= 1e-12:
        protocol = Protocol(((1.0, _identity_atom()),))
        certificate = "identical weights: identity protocol"
    elif all(x <= 1e-10 for x in (s[2], s[3], t[2], t[3])):
        if t[0] > s[0]:
            return Forbidden(
                "eof_decrease",
                f"top weight would grow from {s[0]!r} to {t[0]!r}, raising the "
                "entanglement of formation",
            )
        wid = t[0] / s[0]
        protocol = _keep_or(wid, _refill_01_atom())
        certificate = f"keep with probability {wid:.12g}, refill with |01><01|"
    else:
        try:
            params = synthesize_mems_protocol(source, target)
        except InfeasibleError as err:
            return Inconclusive(f"mixture-form synthesis infeasible: {err.detail}")
        protocol = keep_or_refill(params.W, params.prepared_state())
        certificate = (
            f"keep with probability {params.W:.12g}, refill with diagonal weights "
            f"{params.prep_weights}"
        )
    return _constructive(protocol, certificate, make_mems(source), make_mems(target))


def decide(rho, rho2) -> Verdict:
    """Full decision pipeline for a pair of two-qubit states.

    Order: (1) a separable target that is classical on one side, that is
    diagonal in an orthogonal product basis, is prepared directly: the
    shortcut's test is the verified lowering of the discard-and-prepare
    protocol itself, and any other target falls through; (2) the rank gate
    blocks impossible entangled pairs; (3) both states are classified and a
    shared family rule decides; (4) a separable Werner target that no rule
    settled is prepared from any source; (5) anything else is Inconclusive.

    Every constructive verdict's residual is checked against RESIDUAL_BOUND;
    a miss raises ResidualError.
    """
    source = as_density(rho)
    target = as_density(rho2)
    if not is_entangled(target):
        try:
            return _constructive(
                Protocol(((1.0, DiscardPrepare(target)),)),
                "target is separable: discard the input and prepare it",
                source,
                target,
            )
        except NotProductDiagonalError:
            pass
    gate = rank_gate(source, target)
    if gate is not None:
        return gate
    tag_s = classify_family(source)
    tag_t = classify_family(target)
    verdict = _family_rule(tag_s, tag_t)
    if isinstance(verdict, Inconclusive) and tag_t.kind == "werner":
        # a separable Werner target is prepared from any source
        protocol = _separable_werner_protocol(tag_t.params)
        if protocol is not None:
            target = make_werner(tag_t.params)
            return _constructive(protocol, _SEPARABLE_WERNER_CERTIFICATE, source, target)
    return verdict


def _family_rule(tag_s, tag_t) -> Verdict:
    """The rule of the narrowest family both states share, else Inconclusive."""
    if tag_s.kind == tag_t.kind == "werner":
        return decide_werner(tag_s.params, tag_t.params)
    bell_s, bell_t = tag_s.bell_weights(), tag_t.bell_weights()
    if bell_s is not None and bell_t is not None:
        try:
            return decide_bell(bell_s, bell_t)
        except NotEntangledError as err:
            return Inconclusive(f"Bell-diagonal rule does not apply: {err}")
    mems_s, mems_t = tag_s.mems_weights(), tag_t.mems_weights()
    if mems_s is not None and mems_t is not None:
        return decide_mems(mems_s, mems_t)
    if "general" in (tag_s.kind, tag_t.kind):
        return Inconclusive("at least one state fits no decided family")
    return Inconclusive("states fit different decided families with no shared rule")
