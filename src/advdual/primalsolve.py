"""Adversarial surrogate risks and the exponential-loss primal solver.

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

from .errors import InfeasiblePair, InstanceTooLarge, ZeroOneHasNoPhi
from .ground import GroundSet, build_ground, sup_ball
from .losses import Loss, mul0, transform_h
from .measures import TwoClassMeasure

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
    """Worst-case surrogate risk under epsilon-ball input perturbations."""
    if loss.kind == "zero_one_dual":
        raise ZeroOneHasNoPhi("use classify_risk_adv for the zero-one risk")
    f = g.check_field(f)
    h1 = loss.phi(f)
    h0 = loss.phi(-f)
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

    Both classes' source balls form one CSR layout: entry k reads the score
    ``f[ix[k]]`` with ``sign[k]`` +1 in a class-0 ball and -1 in a class-1
    ball, so each segment's maximum is the ball max of f (class 0) or minus
    its ball min (class 1), and ``w`` holds the segment's source mass.
    """

    def __init__(self, g: GroundSet, measure: TwoClassMeasure):
        s0 = np.flatnonzero(measure.mass0 > 0)
        s1 = np.flatnonzero(measure.mass1 > 0)
        ip0, ix0 = g.neighbor_csr(s0)
        ip1, ix1 = g.neighbor_csr(s1)
        self.ix = np.concatenate((ix0, ix1))
        self.sign = np.concatenate((np.ones(ix0.size), -np.ones(ix1.size)))
        self.starts = np.concatenate((ip0[:-1], ix0.size + ip1[:-1]))
        self.seg = np.repeat(np.arange(self.starts.size),
                             np.concatenate((np.diff(ip0), np.diff(ip1))))
        self.w = np.concatenate((measure.mass0[s0], measure.mass1[s1])) / measure.total

    def risk(self, f: np.ndarray) -> float:
        top = np.maximum.reduceat(self.sign * f[self.ix], self.starts)
        return float(np.dot(self.w, np.exp(top)))

    def value_grad(self, f: np.ndarray, tau: float):
        """Objective and gradient with the temperature-tau soft maximum over
        each ball in place of the hard one."""
        v = self.sign * f[self.ix]
        top = np.maximum.reduceat(v, self.starts)
        z = np.exp((v - top[self.seg]) / tau)
        zsum = np.add.reduceat(z, self.starts)
        term = self.w * np.exp(top + tau * np.log(zsum))
        grad = np.bincount(self.ix, weights=self.sign * z * (term / zsum)[self.seg],
                           minlength=f.size)
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
    applied pointwise to the conditional probability field."""
    if loss.kind == "zero_one_dual":
        raise ZeroOneHasNoPhi("zero-one uses threshold_classifier")
    return loss.alpha_opt(np.asarray(eta, dtype=float))


def threshold_classifier(eta) -> np.ndarray:
    """Sign field of the conditional-probability threshold at one half."""
    eta = np.asarray(eta, dtype=float)
    return np.where(eta > 0.5, 1.0, -1.0)


def classify_risk_adv(f, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Adversarial zero-one risk of the sign classifier of ``f``."""
    f = g.check_field(f)
    ind1 = (f <= 0).astype(float)
    ind0 = (f > 0).astype(float)
    return float(np.dot(measure.mass1, sup_ball(g, ind1))
                 + np.dot(measure.mass0, sup_ball(g, ind0)))


# ---------------------------------------------------------------------------
# brute-force primal oracle (tiny instances only)
# ---------------------------------------------------------------------------

def brute_primal(loss: Loss, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Coarse-to-fine grid search over score fields on <= 3 ground points."""
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
    h1 = loss.phi(batch)
    h0 = loss.phi(-batch)
    sup1 = np.maximum.reduceat(h1[:, g.indices], g.indptr[:-1], axis=1)
    sup0 = np.maximum.reduceat(h0[:, g.indices], g.indptr[:-1], axis=1)
    risks = mul0(measure.mass1[None, :], sup1).sum(axis=1) \
        + mul0(measure.mass0[None, :], sup0).sum(axis=1)
    return batch[int(np.argmin(risks))]
