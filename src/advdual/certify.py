"""Machine-checkable optimality certificates.

A certificate ties a candidate score field to the validated coupling
witness of a solve (``measures.Witness``): the duality gap bounds joint
suboptimality, and it splits exactly into two supremum residuals and a
pointwise residual r_pt that witness complementary slackness.  With (h1,
h0) the margins of the field and (m1, m0) the transported masses, r_pt =
sum m1 h1 + sum m0 h0 - dual value: at each point, m1 h1 + m0 h0 is its
mass times a conditional risk, which is at least the point's dual term.
The support check, which reads only the conditional-probability field and
the couplings, verifies that each coupling moves mass only to extremizers
of that field in the epsilon-ball.  ``universality_check`` bundles both, for
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
    a destination counts as violating unless its eta value equals the ball
    extremum at the source exactly (a NaN never does).  The solve's
    couplings move mass only within a level, so they match bit for bit.
    """
    g = witness.balls.g
    eta = np.clip(g.check_field(eta), 0.0, 1.0)
    bad = 0.0
    for c, ext in ((witness.c1, inf_ball(g, eta)), (witness.c0, sup_ball(g, eta))):
        bad += float(c.w[ext[c.src] != eta[c.dst]].sum())
    return bad


def certify(loss: Loss, f, witness: Witness) -> Certificate:
    """Gap and complementary-slackness residual triple (r1, r0, r_pt) of
    the score field ``f`` against a validated witness, from one evaluation
    of ``loss.margins(f)`` and their worst cases over the source balls of
    the witness's instance (``witness.balls.worst``).

    With (h1, h0) = ``loss.margins(f)``, the transported integrals are t1 =
    sum m1 h1 and t0 = sum m0 h0 over the witness's pushforwards: r1 =
    worst1 - t1, r0 = worst0 - t0 and r_pt = t1 + t0 - dual value.  At a
    point of mass s = m0 + m1 > 0, m1 h1 + m0 h0 is s times the conditional
    risk of f at eta = m1 / s, at least its dual term s cstar(eta); so r_pt,
    like r1 and r0, is nonnegative up to roundoff, and the three sum to the
    gap.  The primal value is summed exactly as ``risk_adv`` sums it.
    """
    h1, h0 = loss.margins(witness.balls.g.check_field(f))
    worst1, worst0 = witness.balls.worst(h1, h0)
    t1 = float(mul0(witness.m1, h1).sum())
    t0 = float(mul0(witness.m0, h0).sum())
    primal = worst1 + worst0
    dual_val = dual_objective(loss, witness.m0, witness.m1)
    return Certificate(loss=loss.kind, primal_value=primal, dual_value=dual_val,
                       gap=primal - dual_val, slack_sup_r1=worst1 - t1,
                       slack_sup_r0=worst0 - t0, slack_pointwise=t1 + t0 - dual_val)


def uncertified(certs: dict[str, Certificate], tol: float | None,
                total: float) -> list[str]:
    """Kinds of the certificates whose gap is not within
    ``gap_tol(tol, total)``; a NaN gap counts as uncertified.  Every
    command judges a solve by this list alone."""
    return [kind for kind, c in certs.items() if not c.gap <= gap_tol(tol, total)]


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

    With eta = ``eta_hat(f)``, each loss's primal witness is its pointwise
    minimizer f = alpha(eta), or the thresholded classifier for the
    zero-one loss.  The exponential and logistic minimizers are read off
    ``f`` in closed form, as ``f`` and ``2 f``: their ``construct_f``
    through eta would round a level whose odds reach 2^53 to eta 1 and a
    score of +inf.  The dual value is the witness's masses re-scored under
    that loss.  The support check reads the same eta, exactly.
    """
    f = np.asarray(f, dtype=float)
    eta = eta_hat(f)
    closed = {"exponential": f, "logistic": 2.0 * f}
    certs = {loss.kind: certify(loss, closed[loss.kind] if loss.kind in closed
                                else construct_f(loss, eta), witness)
             for loss in map(get_loss, losses)}
    return Result(f=f, witness=witness, certificates=certs,
                  support_violation=support_conditions(eta, witness))
