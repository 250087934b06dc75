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
of the gap into interpretable parts.  ``uncertified`` is the one verdict:
the losses whose gap misses the tolerance.  Every loss, the zero-one loss
included, is judged alike: weak duality holds for any score field (or sign
classifier) against any feasible pair of couplings, and each residual is
nonnegative, so a gap within tolerance certifies both sides.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dualsolve import DualSolution, dual_objective
from .errors import InfeasibleDual
from .ground import GroundSet, inf_ball, sup_ball
from .losses import Loss, get_loss, mul0
from .measures import TwoClassMeasure, coupling_in_delta, pushforward
from .measures import winf_feasible  # noqa: F401  unused; bench/spans.py patches this name
from .primalsolve import construct_f, eta_hat

#: default gap tolerance per unit of total mass, for every loss
TOL = 1e-4


def gap_tol(tol: float | None, total: float) -> float:
    """Gap every certificate is judged at on an instance of total mass
    ``total``: ``tol`` (default TOL) times ``total``.  Risks and dual values
    scale with the masses, so the verdict does not depend on their scale."""
    return float(TOL if tol is None else tol) * total


# eta values this close to one half are treated as exactly one half before
# applying a discontinuous pointwise minimizer (the hinge one and the
# threshold classifier jump there)
ETA_HALF_SNAP = 1e-6
# a support destination violates when its eta differs from the ball extremum
# at its source by more than this: well above the flat-direction noise of a
# polished score field (about 2e-3 in eta) and well below the mismatch of a
# genuinely wrong destination (0.1 and up)
SUPPORT_MATCH_TOL = 5e-3


@dataclass(frozen=True)
class Certificate:
    """Optimality evidence for one loss on one instance."""

    loss: str
    primal_value: float
    dual_value: float
    gap: float
    slack_sup_r1: float
    slack_sup_r0: float
    slack_pointwise: float
    support_violation: float
    winf_ok: tuple[bool, bool]

    def as_dict(self) -> dict:
        """Every field by name, as a result file stores it and ``verify``
        compares it (``winf_ok`` as a list, the form JSON reads back)."""
        return {**asdict(self), "winf_ok": list(self.winf_ok)}


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


def _residuals(loss: Loss, f, dual: DualSolution, g: GroundSet,
               measure: TwoClassMeasure) -> tuple[float, float, float, float]:
    """Primal value and residual triple (r1, r0, r_pt) from one evaluation
    of ``loss.margins(f)`` and their ball suprema, for a validated witness.
    The primal value is summed exactly as ``risk_adv`` sums it."""
    h1, h0 = loss.margins(g.check_field(f))
    worst1 = mul0(measure.mass1, sup_ball(g, h1)).sum()
    worst0 = mul0(measure.mass0, sup_ball(g, h0)).sum()
    r1 = float(worst1 - mul0(dual.m1, h1).sum())
    r0 = float(worst0 - mul0(dual.m0, h0).sum())
    eta = np.clip(dual.eta_star(), 0.0, 1.0)
    cond = mul0(eta, h1) + mul0(1.0 - eta, h0) - loss.cstar(eta)
    r_pt = float(mul0(dual.m0 + dual.m1, cond).sum())
    return float(worst1 + worst0), r1, r0, r_pt


def slackness(loss: Loss, f, dual: DualSolution, g: GroundSet,
              measure: TwoClassMeasure) -> tuple[float, float, float]:
    """Complementary-slackness residual triple (r1, r0, r_pt).

    With (h1, h0) = ``loss.margins(f)``, r1 compares the worst-case class-1
    integral of h1 with its value under the transported mass; r0 does the
    same for h0 and class 0; r_pt measures, pointwise under the combined
    transported mass, how far f is from minimizing the conditional risk at
    eta* = m1/(m0+m1).  Each residual is nonnegative up to roundoff, and
    their sum equals the duality gap.
    """
    _check_dual_feasible(dual, g, measure)
    return _residuals(loss, f, dual, g, measure)[1:]


def support_conditions(eta, dual: DualSolution, g: GroundSet) -> float:
    """Total coupling mass violating the extremizer-support conditions.

    Class-1 mass may only flow to ball minimizers of the
    conditional-probability field, class-0 mass only to ball maximizers;
    a destination counts as violating when its eta value differs from the
    ball extremum at the source by more than ``SUPPORT_MATCH_TOL``.
    """
    eta = np.clip(g.check_field(eta), 0.0, 1.0)
    lo = inf_ball(g, eta)
    hi = sup_ball(g, eta)
    bad = 0.0
    c1 = dual.coupling1
    if c1.n:
        viol = np.abs(lo[c1.src] - eta[c1.dst]) > SUPPORT_MATCH_TOL
        bad += float(c1.w[viol].sum())
    c0 = dual.coupling0
    if c0.n:
        viol = np.abs(hi[c0.src] - eta[c0.dst]) > SUPPORT_MATCH_TOL
        bad += float(c0.w[viol].sum())
    return bad


def certify(loss: Loss, f, dual: DualSolution, g: GroundSet,
            measure: TwoClassMeasure, eta=None) -> Certificate:
    """Full certificate: gap, slackness residuals, support check, W-infinity
    feasibility flags.  The witness is validated once and the support check
    reads ``eta`` (default ``eta_hat(f)``)."""
    _check_dual_feasible(dual, g, measure)
    primal, r1, r0, r_pt = _residuals(loss, f, dual, g, measure)
    dual_val = dual_objective(loss, dual.m0, dual.m1)
    support = support_conditions(eta_hat(f) if eta is None else eta, dual, g)
    return Certificate(loss=loss.kind, primal_value=primal, dual_value=dual_val,
                       gap=primal - dual_val, slack_sup_r1=r1, slack_sup_r0=r0,
                       slack_pointwise=r_pt, support_violation=support,
                       winf_ok=(True, True))


def uncertified(certs: dict[str, Certificate], tol: float | None,
                total: float) -> list[str]:
    """Kinds of the certificates whose gap is not within
    ``gap_tol(tol, total)``; a NaN gap counts as uncertified.  Every
    command judges a solve by this list alone."""
    return [kind for kind, c in certs.items() if not c.gap <= gap_tol(tol, total)]


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

    For each loss the primal witness is ``construct_f(loss, eta_hat)``: the
    pointwise minimizer f = alpha(eta_hat), or the thresholded classifier
    for the zero-one loss.  The dual value is the exponential couplings'
    masses re-scored under that loss.  Every entry validates the dual pair
    before scoring it.
    """
    eta = snap_eta(eta_hat)
    out: dict[str, Certificate] = {}
    for name in losses:
        loss = get_loss(name)
        f = construct_f(loss, eta)
        out[loss.kind] = certify(loss, f, dual_exp, g, measure, eta=eta)
    return out
