"""Adversarial risks and the exponential-loss primal solver.

``risk_adv`` scores every loss through ``Loss.margins``, the zero-one loss
as the sign classifier's errors, and ``construct_f`` gives each loss its
minimizer from one conditional-probability field (the thresholded
classifier for the zero-one loss).

The exponential primal is minimized in the score parametrization: the map
f -> sum p1 * exp(-ball_min(f)) + sum p0 * exp(ball_max(f)) is convex in the
value vector.  Temperature-continuation smoothed stages give a seed field
that the tangent-cut dual (``dualsolve.solve_dual``) certifies; the reported
risk always uses the hard ball max.  The stages minimize the risk per unit
mass over one CSR layout of both classes' source balls, class-1 scores
negated, so each evaluation of the smoothed objective and its gradient is
one pass of segment reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize as opt

from .errors import InfeasiblePair, InstanceTooLarge
from .ground import GroundSet, build_ground, sup_ball
from .losses import Loss, mul0, transform_h
from .measures import SourceBalls, TwoClassMeasure

CLAMP = 50.0
# L-BFGS-B iteration cap of each smoothed stage
STAGE_ITERS = 1000
# relative slack of the pair test: h0 may fall this far below the transform
PAIR_RTOL = 1e-9
# brute_primal's score grid: [-BRUTE_SPAN, BRUTE_SPAN] in BRUTE_COARSE steps,
# then windows of 30 steps of each BRUTE_REFINE size around the best field
BRUTE_SPAN = 4.0
BRUTE_COARSE = 0.1
BRUTE_REFINE = (0.01, 0.001)


@dataclass(frozen=True)
class PrimalSolution:
    f: np.ndarray
    risk: float
    iterations: int


def risk_adv(loss: Loss, f, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Worst-case risk under epsilon-ball input perturbations; for the
    zero-one loss, that of the sign classifier of ``f``."""
    h1, h0 = loss.margins(g.check_field(f))
    return float(mul0(measure.mass1, sup_ball(g, h1)).sum()
                 + mul0(measure.mass0, sup_ball(g, h0)).sum())


@dataclass(frozen=True)
class HPair:
    """A pair of nonnegative score fields feasible for the conditional-risk
    domination constraint."""

    h0: np.ndarray
    h1: np.ndarray


def hpair_feasible(loss: Loss, h0, h1) -> bool:
    """Membership check: eta * h1 + (1 - eta) * h0 >= cstar(eta) for every
    eta, decided exactly as h0 >= (1 - PAIR_RTOL) * transform_h(loss, h1);
    for the exponential loss this is h0 * h1 >= 1 - PAIR_RTOL."""
    h0 = np.asarray(h0, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    if np.any(h1 < 0):
        return False
    # the transform is nonnegative, so a negative h0 fails the comparison
    return bool(np.all(h0 >= (1.0 - PAIR_RTOL) * transform_h(loss, h1)))


def theta(loss: Loss, hp: HPair, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Convex relaxation of the adversarial risk on a feasible field pair."""
    if not hpair_feasible(loss, hp.h0, hp.h1):
        raise InfeasiblePair("pair violates the conditional-risk constraint")
    return float(mul0(measure.mass1, sup_ball(g, hp.h1)).sum()
                 + mul0(measure.mass0, sup_ball(g, hp.h0)).sum())


# ---------------------------------------------------------------------------
# exponential primal
# ---------------------------------------------------------------------------

class _ExpPrimalProblem:
    """Hard-max risk, and the soft-max objective with its gradient, per unit
    mass: L-BFGS-B's default stop rule is not scale-free, and per unit mass
    it stops alike at every total mass.

    Both classes' source balls are one ``SourceBalls`` layout, so each
    segment's maximum of ``sign * f[ix]`` is the ball max of f (class 0) or
    minus its ball min (class 1), and ``w`` holds each segment's source mass
    per unit total mass.
    """

    def __init__(self, g: GroundSet, measure: TwoClassMeasure):
        self.b = SourceBalls(g, measure)
        self.w = self.b.p / measure.total

    def risk(self, f: np.ndarray) -> float:
        return float(np.dot(self.w, np.exp(self.b.top(f))))

    def value_grad(self, f: np.ndarray, tau: float):
        """Objective and gradient with the temperature-tau soft maximum over
        each ball in place of the hard one."""
        b = self.b
        v = b.sign * f[b.ix]
        top = np.maximum.reduceat(v, b.starts)
        z = np.exp((v - top[b.seg]) / tau)
        zsum = np.add.reduceat(z, b.starts)
        term = self.w * np.exp(top + tau * np.log(zsum))
        grad = np.bincount(b.ix, weights=b.sign * z * (term / zsum)[b.seg], minlength=f.size)
        return float(term.sum()), grad


def solve_exp_primal(g: GroundSet, measure: TwoClassMeasure) -> PrimalSolution:
    """Minimize a smoothed exponential adversarial risk over score fields.

    Temperature continuation 1e-1, 1e-2, 1e-3 on a soft maximum over each
    ball, each stage solved by L-BFGS-B on the risk per unit mass to the
    library's default tolerances; the field of least hard-max risk is
    returned.  It is only a seed: ``dualsolve.solve_dual`` places its cuts at
    log t = f +- 0.05 around it, and the certificate judges the pair that
    program returns.  Points whose two-epsilon neighborhood carries no
    class-0 (class-1) mass are snapped to +inf (-inf) after the iteration;
    points with no mass at all within two epsilon get score zero.
    """
    g2 = build_ground(g.points, g.norm, 2.0 * g.epsilon)
    b0 = np.add.reduceat(measure.mass0[g2.indices], g2.indptr[:-1])
    b1 = np.add.reduceat(measure.mass1[g2.indices], g2.indptr[:-1])
    near0 = b0 > 0
    near1 = b1 > 0
    free = near0 & near1

    prob = _ExpPrimalProblem(g, measure)
    f = np.zeros(g.n)
    # local log-odds warm start from two-epsilon ball masses
    tiny = 1e-9 * max(measure.total, 1.0)
    f[free] = 0.5 * np.log((b1[free] + tiny) / (b0[free] + tiny))
    f[~near0 & near1] = CLAMP
    f[near0 & ~near1] = -CLAMP

    best_f = f.copy()
    best_val = prob.risk(f)
    it_count = 0
    # bound coordinates to the clamp box; frozen coordinates are pinned
    bounds = opt.Bounds(np.where(free, -CLAMP, f), np.where(free, CLAMP, f))
    for tau in (1e-1, 1e-2, 1e-3):
        res = opt.minimize(prob.value_grad, f, args=(tau,), jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": STAGE_ITERS})
        it_count += int(getattr(res, "nit", 0))
        f = np.asarray(res.x, dtype=float)
        hard = prob.risk(f)
        if hard < best_val:
            best_val = hard
            best_f = f.copy()

    out = best_f.copy()
    out[~near0 & near1] = np.inf
    out[near0 & ~near1] = -np.inf
    out[~near0 & ~near1] = 0.0
    return PrimalSolution(f=out, risk=best_val * measure.total, iterations=it_count)


def eta_hat(f) -> np.ndarray:
    """Perturbed conditional probability read off an exponential-primal
    score field: the sigmoid of twice the score, with the infinite scores
    mapping to 0 and 1."""
    f = np.asarray(f, dtype=float)
    with np.errstate(over="ignore"):
        e = np.exp(-2.0 * f)
    out = 1.0 / (1.0 + e)
    out[f == np.inf] = 1.0
    out[f == -np.inf] = 0.0
    return out


def construct_f(loss: Loss, eta) -> np.ndarray:
    """Loss-universal minimizer: the smallest conditional-risk minimizer
    applied pointwise to the conditional probability field, or for the
    zero-one loss the thresholded classifier."""
    if loss.kind == "zero_one_dual":
        return threshold_classifier(eta)
    return loss.alpha_opt(np.asarray(eta, dtype=float))


def threshold_classifier(eta) -> np.ndarray:
    """Sign field of the conditional-probability threshold at one half."""
    eta = np.asarray(eta, dtype=float)
    return np.where(eta > 0.5, 1.0, -1.0)


# ---------------------------------------------------------------------------
# brute-force primal oracle (tiny instances only)
# ---------------------------------------------------------------------------

def brute_primal(loss: Loss, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Coarse-to-fine grid search over score fields on <= 3 ground points;
    for the zero-one loss the grid holds every sign pattern."""
    if g.n > 3:
        raise InstanceTooLarge("brute primal accepts at most 3 ground points")
    values = np.concatenate(([-np.inf], np.arange(-BRUTE_SPAN, BRUTE_SPAN + BRUTE_COARSE / 2,
                                                  BRUTE_COARSE), [np.inf]))
    centers = _best_field(loss, g, measure, [values] * g.n)
    for step in BRUTE_REFINE:
        grids = []
        for c in centers:
            if np.isinf(c):
                grids.append(np.array([c]))
            else:
                grids.append(np.arange(c - 15 * step, c + 15 * step + step / 2, step))
        centers = _best_field(loss, g, measure, grids)
    return risk_adv(loss, np.asarray(centers), g, measure)


def _best_field(loss: Loss, g: GroundSet, measure: TwoClassMeasure, grids):
    mesh = np.meshgrid(*grids, indexing="ij")
    batch = np.stack([m.ravel() for m in mesh], axis=1)
    h1, h0 = loss.margins(batch)
    sup1 = np.maximum.reduceat(h1[:, g.indices], g.indptr[:-1], axis=1)
    sup0 = np.maximum.reduceat(h0[:, g.indices], g.indptr[:-1], axis=1)
    risks = mul0(measure.mass1[None, :], sup1).sum(axis=1) \
        + mul0(measure.mass0[None, :], sup0).sum(axis=1)
    return batch[int(np.argmin(risks))]
