"""Machine-checkable optimality certificates.

A certificate ties a candidate score field to a candidate dual pair of
couplings: the duality gap bounds joint suboptimality, the two supremum
residuals and the pointwise residual witness complementary slackness, the
support check verifies that each coupling only moves mass to extremizers of
the conditional-probability field in the epsilon-ball, and the feasibility
flags record that the pushforwards stay inside the infinity-Wasserstein
ball.  The flags are read off the coupling witness, which every certificate
validates first, so no max-flow runs.
The residual identity r1 + r0 + r_pt = gap makes the triple a decomposition
of the gap into interpretable parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dualsolve import DualSolution, dual_objective
from .errors import InfeasibleDual
from .ground import GroundSet, inf_ball, sup_ball
from .losses import Loss, get_loss, mul0
from .measures import TwoClassMeasure, coupling_in_delta, pushforward
from .measures import winf_feasible  # noqa: F401  unused; bench/spans.py patches this name
from .primalsolve import classify_risk_adv, construct_f, risk_adv, threshold_classifier

#: default gap tolerances: the exponential pipeline is solved directly, the
#: other losses inherit a constructed minimizer and a re-scored dual
TOL_EXP = 1e-4
TOL_UNIVERSAL = 1e-3

# eta values this close to one half are treated as exactly one half before
# applying a discontinuous pointwise minimizer (the hinge one jumps there)
ETA_HALF_SNAP = 1e-6


@dataclass(frozen=True)
class Certificate:
    """Optimality evidence for one loss on one instance."""

    loss: str
    primal_value: float
    dual_value: float
    gap: float
    slack_sup_r1: float | None = None
    slack_sup_r0: float | None = None
    slack_pointwise: float | None = None
    support_violation: float | None = None
    winf_ok: tuple[bool, bool] | None = None
    diagnostic: bool = False
    extras: dict = field(default_factory=dict, repr=False)

    def passes(self, tol: float) -> bool:
        return self.gap <= tol

    def as_dict(self) -> dict:
        return {
            "loss": self.loss,
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "gap": self.gap,
            "slack_sup_r1": self.slack_sup_r1,
            "slack_sup_r0": self.slack_sup_r0,
            "slack_pointwise": self.slack_pointwise,
            "support_violation": self.support_violation,
            "winf_ok": list(self.winf_ok) if self.winf_ok is not None else None,
            "diagnostic": self.diagnostic,
        }


def _check_dual_feasible(dual: DualSolution, g: GroundSet,
                         measure: TwoClassMeasure) -> None:
    """Validate the coupling witness; raise ``InfeasibleDual`` unless each
    coupling lies on epsilon-edges, has the class measure as its source
    marginal and ``dual.m0``/``dual.m1`` as its pushforward.  A witness that
    passes proves both W-infinity feasibility flags.  The comparisons are
    written so that a NaN or infinite weight or mass fails them."""
    tol = 1e-9 * max(measure.total, 1.0)
    for c, p, m in ((dual.coupling0, measure.mass0, dual.m0),
                    (dual.coupling1, measure.mass1, dual.m1)):
        if not coupling_in_delta(g, c):
            raise InfeasibleDual("coupling moves mass beyond epsilon")
        src_marg = c.source_marginal()
        if not np.all(np.abs(src_marg - p) <= tol):
            raise InfeasibleDual("coupling source marginal does not match "
                                 "the class measure")
        m = np.asarray(m, dtype=float)
        if m.shape != (g.n,) or not np.all(np.abs(pushforward(c) - m) <= tol):
            raise InfeasibleDual("dual masses do not match the coupling "
                                 "pushforward")


def duality_gap(loss: Loss, f, dual: DualSolution, g: GroundSet,
                measure: TwoClassMeasure) -> Certificate:
    """Certificate carrying the primal/dual values and their gap.

    The slackness and support fields are left unset; ``certify`` fills
    everything in one pass.  The W-infinity flags come from the validated
    coupling witness.
    """
    _check_dual_feasible(dual, g, measure)
    primal = risk_adv(loss, f, g, measure)
    dual_val = dual_objective(loss, dual.m0, dual.m1)
    return Certificate(loss=loss.kind, primal_value=primal, dual_value=dual_val,
                       gap=primal - dual_val, winf_ok=(True, True))


def slackness(loss: Loss, f, dual: DualSolution, g: GroundSet,
              measure: TwoClassMeasure) -> tuple[float, float, float]:
    """Complementary-slackness residual triple (r1, r0, r_pt).

    r1 compares the worst-case class-1 integral of phi(f) with its value
    under the transported mass; r0 does the same for the negated field and
    class 0; r_pt measures, pointwise under the combined transported mass,
    how far f is from minimizing the conditional surrogate risk at
    eta* = m1/(m0+m1).  Each residual is nonnegative up to roundoff, and
    their sum equals the duality gap.
    """
    _check_dual_feasible(dual, g, measure)
    f = g.check_field(f)
    phi_f = loss.phi(f)
    phi_nf = loss.phi(-f)

    r1 = float(mul0(measure.mass1, sup_ball(g, phi_f)).sum()
               - mul0(dual.m1, phi_f).sum())
    r0 = float(mul0(measure.mass0, sup_ball(g, phi_nf)).sum()
               - mul0(dual.m0, phi_nf).sum())

    s = dual.m0 + dual.m1
    eta = np.divide(dual.m1, s, out=np.full_like(s, 0.5), where=s > 0)
    eta = np.clip(eta, 0.0, 1.0)
    cond = mul0(eta, phi_f) + mul0(1.0 - eta, phi_nf) - loss.cstar(eta)
    r_pt = float(mul0(s, cond).sum())
    return r1, r0, r_pt


def support_conditions(eta, dual: DualSolution, g: GroundSet,
                       match_tol: float = 5e-3) -> float:
    """Total coupling mass violating the extremizer-support conditions.

    Class-1 mass may only flow to ball minimizers of the
    conditional-probability field, class-0 mass only to ball maximizers;
    a destination counts as violating when its eta value differs from the
    ball extremum at the source by more than ``match_tol``.  The default
    tolerance sits well above the flat-direction noise of a polished score
    field (about 2e-3 in eta) and well below the mismatch of a genuinely
    wrong destination (0.1 and up).
    """
    eta = np.clip(g.check_field(eta), 0.0, 1.0)
    lo = inf_ball(g, eta)
    hi = sup_ball(g, eta)
    bad = 0.0
    c1 = dual.coupling1
    if c1.n:
        viol = np.abs(lo[c1.src] - eta[c1.dst]) > match_tol
        bad += float(c1.w[viol].sum())
    c0 = dual.coupling0
    if c0.n:
        viol = np.abs(hi[c0.src] - eta[c0.dst]) > match_tol
        bad += float(c0.w[viol].sum())
    return bad


def certify(loss: Loss, f, dual: DualSolution, g: GroundSet,
            measure: TwoClassMeasure, eta=None) -> Certificate:
    """Full certificate: gap, slackness residuals, support check, W-infinity
    feasibility flags."""
    base = duality_gap(loss, f, dual, g, measure)
    r1, r0, r_pt = slackness(loss, f, dual, g, measure)
    if eta is None:
        with np.errstate(over="ignore"):
            eta = 1.0 / (1.0 + np.exp(-2.0 * g.check_field(f)))
    support = support_conditions(eta, dual, g)
    return Certificate(loss=loss.kind, primal_value=base.primal_value,
                       dual_value=base.dual_value, gap=base.gap,
                       slack_sup_r1=r1, slack_sup_r0=r0,
                       slack_pointwise=r_pt, support_violation=support,
                       winf_ok=base.winf_ok)


def snap_eta(eta) -> np.ndarray:
    """Stabilize a conditional-probability field before applying a pointwise
    minimizer with a jump at one half: values within ETA_HALF_SNAP of 0.5
    become exactly 0.5, and tiny overshoots past [0, 1] are clipped."""
    eta = np.clip(np.asarray(eta, dtype=float), 0.0, 1.0)
    out = eta.copy()
    out[np.abs(eta - 0.5) <= ETA_HALF_SNAP] = 0.5
    return out


def universality_check(eta_hat, dual_exp: DualSolution, losses, g: GroundSet,
                       measure: TwoClassMeasure) -> dict[str, Certificate]:
    """Certify every requested loss with the one dual pair from the
    exponential solve.

    For each surrogate loss the primal witness is the pointwise minimizer
    f = alpha(eta_hat) and the dual value is the exponential couplings'
    masses re-scored under that loss.  The zero-one entry scores the
    thresholded classifier and is reported as a diagnostic, not a certified
    optimum.  Every entry validates the dual pair before scoring it.
    """
    eta = snap_eta(eta_hat)
    out: dict[str, Certificate] = {}
    for name in losses:
        loss = get_loss(name)
        if loss.kind == "zero_one_dual":
            _check_dual_feasible(dual_exp, g, measure)
            sign = threshold_classifier(eta)
            primal = classify_risk_adv(sign, g, measure)
            dual_val = dual_objective(loss, dual_exp.m0, dual_exp.m1)
            out[loss.kind] = Certificate(
                loss=loss.kind, primal_value=primal, dual_value=dual_val,
                gap=primal - dual_val, winf_ok=(True, True), diagnostic=True)
            continue
        f_phi = construct_f(loss, eta)
        out[loss.kind] = certify(loss, f_phi, dual_exp, g, measure, eta=eta)
    return out
