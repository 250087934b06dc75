"""Machine-checkable optimality certificates.

A certificate ties a candidate score field to the validated coupling
witness of a solve (``measures.Witness``): the duality gap bounds joint
suboptimality, and it splits exactly into two supremum residuals and a
pointwise residual that witness complementary slackness.  The support
check, which reads only the conditional-probability field and the
couplings, verifies that each coupling moves mass only to extremizers of
that field in the epsilon-ball.  ``universality_check`` bundles both, for
one exponential field and witness, as the ``Result`` a result file stores.
``uncertified`` is the one verdict: the losses whose gap misses the
tolerance.  Every loss, the zero-one loss included, is judged alike: weak
duality holds for any score field (or sign classifier) against any feasible
pair of couplings, and each residual is nonnegative, so a gap within
tolerance certifies both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualsolve import dual_objective
from .errors import ValidationError
from .ground import inf_ball, sup_ball
from .losses import Loss, get_loss, mul0
from .measures import Witness
from .measures import winf_feasible  # noqa: F401  unused; bench/spans.py patches this name
from .primalsolve import construct_f, eta_hat

#: default gap tolerance per unit of total mass, for every loss
TOL = 1e-4


def gap_tol(tol: float | None, total: float) -> float:
    """Gap every certificate is judged at on an instance of total mass
    ``total``: ``tol`` (default TOL) times ``total``.  Risks and dual values
    scale with the masses, so the verdict does not depend on their scale."""
    return float(TOL if tol is None else tol) * total


def check_tol(tol):
    """``tol`` if it is a gap tolerance: a finite number greater than 0 that
    is not a bool, or None for the default; else ``ValidationError``."""
    if tol is None or (isinstance(tol, (int, float)) and not isinstance(tol, bool)
                       and math.isfinite(tol) and tol > 0):
        return tol
    raise ValidationError(f"tol must be a finite number greater than 0, got {tol!r}")


# eta values within this round-off of one half are treated as exactly one
# half before applying a discontinuous pointwise minimizer (the hinge one
# and the threshold classifier jump there); an exact level's share further
# from one half keeps its side, or its certificate reads a spurious gap
ETA_HALF_SNAP = 1e-12
# a support destination violates when its eta differs from the ball extremum
# at its source by more than this: the solve's couplings move mass only
# within a level, where the mismatch is 0, and a genuinely wrong destination
# misses by 0.1 and up
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


def support_conditions(eta, witness: Witness) -> float:
    """Total coupling mass of ``witness`` violating the support conditions.

    Class-1 mass may only flow to ball minimizers of the
    conditional-probability field, class-0 mass only to ball maximizers;
    a destination counts as violating when its eta value differs from the
    ball extremum at the source by more than ``SUPPORT_MATCH_TOL``.
    """
    g = witness.balls.g
    eta = np.clip(g.check_field(eta), 0.0, 1.0)
    bad = 0.0
    for c, ext in ((witness.c1, inf_ball(g, eta)), (witness.c0, sup_ball(g, eta))):
        bad += float(c.w[np.abs(ext[c.src] - eta[c.dst]) > SUPPORT_MATCH_TOL].sum())
    return bad


def certify(loss: Loss, f, witness: Witness) -> Certificate:
    """Gap and complementary-slackness residual triple (r1, r0, r_pt) of
    the score field ``f`` against a validated witness, from one evaluation
    of ``loss.margins(f)`` and their worst cases over the source balls of
    the witness's instance (``witness.balls.worst``).

    With (h1, h0) = ``loss.margins(f)``, r1 compares the worst-case class-1
    integral of h1 with its value under the transported mass; r0 does the
    same for h0 and class 0; r_pt measures, pointwise under the combined
    transported mass, how far f is from minimizing the conditional risk at
    eta* = m1/(m0+m1).  Each residual is nonnegative up to roundoff, and
    their sum equals the duality gap.  The primal value is summed exactly
    as ``risk_adv`` sums it.
    """
    h1, h0 = loss.margins(witness.balls.g.check_field(f))
    worst1, worst0 = witness.balls.worst(h1, h0)
    r1 = float(worst1 - mul0(witness.m1, h1).sum())
    r0 = float(worst0 - mul0(witness.m0, h0).sum())
    eta = np.clip(witness.eta_star(), 0.0, 1.0)
    cond = mul0(eta, h1) + mul0(1.0 - eta, h0) - loss.cstar(eta)
    r_pt = float(mul0(witness.m0 + witness.m1, cond).sum())
    primal = worst1 + worst0
    dual_val = dual_objective(loss, witness.m0, witness.m1)
    return Certificate(loss=loss.kind, primal_value=primal, dual_value=dual_val,
                       gap=primal - dual_val, slack_sup_r1=r1, slack_sup_r0=r0,
                       slack_pointwise=r_pt)


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


@dataclass(frozen=True)
class Result:
    """One certified solve: the exponential score field ``f``, the validated
    ``witness``, one certificate per loss kind and the coupling mass that
    violates the support conditions, all read off ``f`` and ``witness``."""

    f: np.ndarray
    witness: Witness
    certificates: dict[str, Certificate]
    support_violation: float


def universality_check(f, witness: Witness, losses) -> Result:
    """Certify every requested loss with the one witness of the exponential
    solve whose score field is ``f``, on the witness's instance.

    With eta = ``snap_eta(eta_hat(f))``, each loss's primal witness is
    ``construct_f(loss, eta)``: the pointwise minimizer f = alpha(eta), or
    the thresholded classifier for the zero-one loss.  The dual value is the
    witness's masses re-scored under that loss.  The support check reads
    the same eta.
    """
    eta = snap_eta(eta_hat(f))
    certs = {loss.kind: certify(loss, construct_f(loss, eta), witness)
             for loss in map(get_loss, losses)}
    return Result(f=f, witness=witness, certificates=certs,
                  support_violation=support_conditions(eta, witness))
