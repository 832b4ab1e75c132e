"""Convertibility decisions between two-qubit states under local operations.

Three verdict types cover every outcome:

* ``Convertible``: conversion is possible; when the family rule is
  constructive the verdict carries an explicit protocol together with the
  Frobenius residual of re-applying that protocol to the source. That
  residual is checked at run time: above ``RESIDUAL_BOUND`` the decision
  raises ResidualError instead of returning a verdict. ``decide`` reads it
  on the states it was given, not on their family fits.
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

A constructive family plan keeps the input with probability t and
otherwise discards it and prepares a separable state. ``keep_or_refill``
builds each such (protocol, certificate) plan. Preparing a separable target
outright and keeping identical weights (the identity) are plans of their
own. The identity and the Werner and rank-2 refills are shared atoms of
``channels``, which keep their channels; every other atom is built per
plan. ``verify_family_plan`` checks every family plan, ``entconv
synthesize``'s included, under one rule: on the given states, and on the
family fits only to tell a fit gap (Inconclusive) from a wrong plan
(ResidualError).

What a verdict means for the floats given: a ``Forbidden`` holds exactly
for them, while a ``Convertible`` reaches the target within
``RESIDUAL_BOUND``. Near a tie both can hold. ``make_werner(0.6)`` to
``make_werner(0.6 + 1e-11)`` is ``Forbidden`` (``weight_infeasible``), yet
keeping the source lands 8.7e-12 from the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import kernels, qmat
from .channels import (
    DiscardPrepare,
    Protocol,
    compile_protocol,
    diagonal_refill,
    one_sided_pauli_atoms,
)
from .errors import (
    InfeasibleError,
    NotEntangledError,
    NotProductDiagonalError,
    ResidualError,
)
from .measures import bell_monotones, monotone_ratios
from .states import (
    BellWeights,
    DensityMatrix,
    MemsWeights,
    WernerParam,
    _WEIGHT_SUM_TOL,
    _gapped_rank,
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


def verify_protocol(protocol: Protocol, rho, rho2) -> float:
    """Residual ||apply(compile(protocol), rho) - rho2||_F.

    Goes through the compiled Kraus form rather than the abstract branches,
    so it independently checks both the protocol and its lowering.

    The channel's lifted Kraus stack is applied to the source's matrix and no
    state is built for the output, since a state's checks would repeat checks
    already made. ``compile_protocol`` has checked Kraus completeness to
    1e-10, so the trace is kept; the Kraus form keeps the output Hermitian
    and positive semidefinite up to rounding; and the residual against the
    validated target, held to ``RESIDUAL_BOUND`` by the caller, is the check
    that decides. The output's Hermitian part is read, as a state keeps it,
    so the residual is the one a built output state gives, bit for bit.
    """
    source = as_density(rho)
    target = as_density(rho2)
    channel = compile_protocol(protocol)
    image = qmat.hermitian_part(kernels.apply_kraus(channel.estack, source.matrix))
    return qmat.frobenius_norm(image - target.matrix)


# above the lowering's own 1e-9 reconstruction tolerance, far below any
# residual a wrong protocol or a broken lowering leaves
RESIDUAL_BOUND = 1e-8


def rank_gate(rho, rho2) -> Optional[Forbidden]:
    """Block entangled-to-entangled conversions that would lower the rank.

    Returns a Forbidden verdict when both states are entangled, both spectra
    have a clean gap (each eigenvalue at most 1e-12 or above 1e-6) and the
    target has fewer eigenvalues above 1e-6; None means pass. An eigenvalue
    in (1e-12, 1e-6] may be population or rounding, so it forbids nothing.
    Each spectrum is read as Python floats by ``states._gapped_rank``, the
    one place that writes the gap rule.
    """
    source = as_density(rho)
    target = as_density(rho2)
    if not (is_entangled(source) and is_entangled(target)):
        return None
    r_in, clean_in = _gapped_rank(source.eig.values.tolist())
    r_out, clean_out = _gapped_rank(target.eig.values.tolist())
    if clean_in and clean_out and r_out < r_in:
        return Forbidden(
            "rank_gate",
            f"no separable channel sends an entangled rank-{r_in} state to an "
            f"entangled rank-{r_out} state",
        )
    return None


def keep_or_refill(t: float, refill: DiscardPrepare, description: str) -> tuple:
    """The (protocol, certificate) plan: keep the input with probability t, else ``refill``."""
    protocol = Protocol(((t, one_sided_pauli_atoms()[0]), (1.0 - t, refill)))
    return protocol, f"keep with probability {t:.12g}, refill with {description}"


def mixture_refill(prep) -> tuple:
    """The refill atom and its description for mixture-form weights (p01, p00_11, p10)."""
    p01, p00_11, p10 = prep
    state = DensityMatrix(np.diag([p00_11 / 2, p01, p10, p00_11 / 2]).astype(complex))
    return DiscardPrepare(state), f"diagonal weights {prep}"


def _prepare(target) -> tuple:
    """The (protocol, certificate) plan that discards the input and prepares ``target``."""
    protocol = Protocol(((1.0, DiscardPrepare(target)),))
    return protocol, "target is separable: discard the input and prepare it"


def _verified(rule, rho, rho2) -> Verdict:
    """A rule's verdict unchanged, or its plan verified on rho -> rho2 and made Convertible.

    A plan is a (protocol, certificate) pair; a residual above RESIDUAL_BOUND
    raises ResidualError.
    """
    if not isinstance(rule, tuple):
        return rule
    protocol, certificate = rule
    residual = verify_protocol(protocol, rho, rho2)
    if not residual <= RESIDUAL_BOUND:
        raise ResidualError(
            f"protocol residual {residual:.3e} exceeds {RESIDUAL_BOUND:g} ({certificate})"
        )
    return Convertible(protocol, certificate, residual)


def _werner_rule(source: WernerParam, target: WernerParam):
    """(protocol, certificate) from the Werner source to the target, or Forbidden."""
    if target.w <= source.w:
        p = 1.0 if source.w == 0.0 else target.w / source.w
        refill = diagonal_refill((0.25, 0.25, 0.25, 0.25))
        return keep_or_refill(p, refill, "the maximally mixed state")
    if 3.0 * target.w <= 1.0 + _WEIGHT_SUM_TOL:
        return _prepare(make_werner(target))
    return Forbidden(
        "weight_infeasible",
        f"identity weight w'/w = {target.w}/{source.w} exceeds 1 and the target is entangled",
    )


def decide_werner(w, w2) -> Verdict:
    """Convertible iff the singlet weight does not increase or the target is separable.

    When w' <= w the protocol keeps the state with probability p = w'/w and
    otherwise replaces it with the maximally mixed state. A separable target
    (w' <= 1/3) is discarded-and-prepared directly. The protocol is verified
    on the Werner states of the two weights.
    """
    source = w if isinstance(w, WernerParam) else WernerParam(float(w))
    target = w2 if isinstance(w2, WernerParam) else WernerParam(float(w2))
    return _verified(_werner_rule(source, target), make_werner(source), make_werner(target))


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


def synthesize_mems_protocol(l, l2) -> tuple:
    """Solve for the identity weight and refill state within the mixture form.

    The identity weight W is fixed by the off-diagonal entry, which only the
    kept branch can supply; the three refill weights then solve a triangular
    linear system, one per remaining matrix entry. If neither state has a
    singlet term (l1 - l3 <= 1e-12), W = 1 keeps a target equal within
    1e-10 and W = 0 prepares any other. Returns ``(W, (p01, p00_11, p10))``;
    raises InfeasibleError naming the first violated bound.
    """
    source = l if isinstance(l, MemsWeights) else MemsWeights(tuple(l))
    target = l2 if isinstance(l2, MemsWeights) else MemsWeights(tuple(l2))
    s1, s2, s3, s4 = source.weights
    t1, t2, t3, t4 = target.weights
    same = max(abs(a - b) for a, b in zip(source.weights, target.weights)) <= 1e-10
    if s1 - s3 > 1e-12:
        w = (t1 - t3) / (s1 - s3)
        if w < -1e-12 or w > 1.0 + 1e-12:
            raise InfeasibleError(f"identity weight W = {w!r} falls outside [0, 1]")
        w = min(1.0, max(0.0, w))
    elif t1 - t3 <= 1e-12:
        w = 1.0 if same else 0.0
    else:
        raise InfeasibleError("source has no singlet excess (top weight equals corner weight)")
    if w == 1.0:
        if same:
            return 1.0, (1.0, 0.0, 0.0)
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
    return w, (p01, p00_11, p10)


def _mems_rule(source: MemsWeights, target: MemsWeights):
    """(protocol, certificate) within the mixture form, or a Forbidden or Inconclusive."""
    s = source.weights
    t = target.weights
    if max(abs(a - b) for a, b in zip(s, t)) <= 1e-12:
        identity = one_sided_pauli_atoms()[0]
        return Protocol(((1.0, identity),)), "identical weights: identity protocol"
    if all(x <= 1e-10 for x in (s[2], s[3], t[2], t[3])):
        if t[0] > s[0]:
            return Forbidden(
                "eof_decrease",
                f"top weight would grow from {s[0]!r} to {t[0]!r}, raising the "
                "entanglement of formation",
            )
        return keep_or_refill(t[0] / s[0], diagonal_refill((0.0, 1.0, 0.0, 0.0)), "|01><01|")
    try:
        w, prep = synthesize_mems_protocol(source, target)
    except InfeasibleError as err:
        return Inconclusive(f"mixture-form synthesis infeasible: {err}")
    return keep_or_refill(w, *mixture_refill(prep))


def decide_mems(l, l2) -> Verdict:
    """Decision within the maximally-entangled-mixture form.

    Rank-2 members (both corner weights zero on both sides) are decided both
    ways: the top weight is the entanglement of formation's argument there,
    so it cannot grow. General members go through protocol synthesis, which
    is sufficient only: infeasibility yields Inconclusive. The protocol is
    verified on the mixture-form states of the two weight vectors.
    """
    source = l if isinstance(l, MemsWeights) else MemsWeights(tuple(l))
    target = l2 if isinstance(l2, MemsWeights) else MemsWeights(tuple(l2))
    return _verified(_mems_rule(source, target), make_mems(source), make_mems(target))


def decide(rho, rho2) -> Verdict:
    """Full decision pipeline for a pair of two-qubit states.

    Four steps: (1) a separable target is discarded-and-prepared when
    ``channels.product_diagonal_decomposition`` lowers it, that is when it
    is classical on one side or a separable Werner state: the shortcut's test
    is the verified lowering of the protocol itself, and any other target
    falls through; (2) the rank gate blocks impossible entangled pairs;
    (3) both states are classified and the rule of a family they share
    decides; (4) anything else is Inconclusive.

    Every protocol is verified on the states given, not on their family
    fits, and a residual above RESIDUAL_BOUND raises ResidualError. A family
    fit may sit up to 1e-8 from the state it fits, so a family protocol that
    meets the fits but misses the given states is Inconclusive instead.
    """
    source = as_density(rho)
    target = as_density(rho2)
    if not is_entangled(target):
        try:
            return _verified(_prepare(target), source, target)
        except NotProductDiagonalError:
            pass
    gate = rank_gate(source, target)
    if gate is not None:
        return gate
    tag_s = classify_family(source)
    tag_t = classify_family(target)
    rule = _family_rule(tag_s, tag_t)
    return verify_family_plan(rule, source, target, lambda: (tag_s.state(), tag_t.state()))


def verify_family_plan(rule, source, target, fits) -> Verdict:
    """A family rule's verdict, its plan verified on the given source and target.

    A family fit may sit up to 1e-8 from the state it fits. So when the plan
    misses the given states, it is verified on the fits, which ``fits()``
    returns as a (source, target) pair: a miss there raises ResidualError,
    and a plan that meets them is Inconclusive, with the miss as its detail.
    """
    try:
        return _verified(rule, source, target)
    except ResidualError as err:
        _verified(rule, *fits())
        return Inconclusive(f"the family protocol meets the fits, not the given states: {err}")


def _family_rule(tag_s, tag_t):
    """The verdict or (protocol, certificate) plan of the narrowest shared family."""
    if tag_s.kind == tag_t.kind == "werner":
        return _werner_rule(tag_s.params, tag_t.params)
    bell_s, bell_t = tag_s.bell_weights(), tag_t.bell_weights()
    if bell_s is not None and bell_t is not None:
        try:
            return decide_bell(bell_s, bell_t)
        except NotEntangledError as err:
            return Inconclusive(f"Bell-diagonal rule does not apply: {err}")
    mems_s, mems_t = tag_s.mems_weights(), tag_t.mems_weights()
    if mems_s is not None and mems_t is not None:
        return _mems_rule(mems_s, mems_t)
    if "general" in (tag_s.kind, tag_t.kind):
        return Inconclusive("at least one state fits no decided family")
    return Inconclusive("states fit different decided families with no shared rule")
