"""Adversarial risks and the exponential-loss primal solver.

``risk_adv`` scores every loss through ``Loss.margins``, the zero-one loss
as the sign classifier's errors, and ``construct_f`` gives each loss its
minimizer from one conditional-probability field (the thresholded
classifier for the zero-one loss).

The exponential primal is minimized in the score parametrization: the map
f -> sum p1 * exp(-ball_min(f)) + sum p0 * exp(ball_max(f)) is convex in the
value vector.  Temperature-continuation smoothed stages over the scores on
K of the ``measures.SourceBalls`` layout give a seed field that the
tangent-cut dual (``dualsolve.solve_dual``) certifies; the reported risk
always uses the hard ball max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize as opt

from .errors import InfeasiblePair, InstanceTooLarge
from .ground import GroundSet
from .ground import build_ground  # noqa: F401  unused; bench/spans.py patches this name
from .losses import Loss, mul0, transform_h
from .measures import SourceBalls, TwoClassMeasure

# finite stand-in score, while the stages run, of the points one class
# reaches: -CLAMP where class 0 does, +CLAMP where class 1 does
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

EXP = Loss("exponential")


@dataclass(frozen=True)
class PrimalSolution:
    f: np.ndarray
    risk: float
    iterations: int


def risk_adv(loss: Loss, f, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Worst-case risk under epsilon-ball input perturbations; for the
    zero-one loss, that of the sign classifier of ``f``.  Builds a layout per
    call: to score many fields, call one ``SourceBalls``'s ``risk``."""
    return SourceBalls(g, measure).risk(loss, f)


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
    """Convex relaxation of the adversarial risk on a feasible field pair:
    ``SourceBalls.worst`` of (h1, h0), from a layout built per call."""
    h0, h1 = g.check_field(hp.h0), g.check_field(hp.h1)
    if not hpair_feasible(loss, h0, h1):
        raise InfeasiblePair("pair violates the conditional-risk constraint")
    return sum(SourceBalls(g, measure).worst(h1, h0))


# ---------------------------------------------------------------------------
# exponential primal
# ---------------------------------------------------------------------------

def _soft_risk(b: SourceBalls, w: np.ndarray, f: np.ndarray, tau: float):
    """The exponential risk per unit mass (``w``: each source's mass per unit
    total mass, at which L-BFGS-B's default stop rule, not scale-free, stops
    alike at every total mass), with the temperature-tau soft maximum over
    each ball of ``b`` in place of the hard one, and its gradient."""
    v = b.sign * f[b.ix]
    top = np.maximum.reduceat(v, b.starts)
    z = np.exp((v - top[b.seg]) / tau)
    zsum = np.add.reduceat(z, b.starts)
    term = w * np.exp(top + tau * np.log(zsum))
    grad = np.bincount(b.ix, weights=b.sign * z * (term / zsum)[b.seg], minlength=f.size)
    return float(term.sum()), grad


def solve_exp_primal(g: GroundSet, measure: TwoClassMeasure) -> PrimalSolution:
    """Minimize a smoothed exponential adversarial risk over score fields.

    Only the scores on K (``SourceBalls.K``, the dual's K) are free.  The
    objective is coercive there, as each point of K lies in a class-0 ball
    and in a class-1 ball, so L-BFGS-B runs without bounds.  It starts at
    the log-odds of the class masses whose balls hold each point and
    minimizes the risk per unit mass under temperature continuation 1e-1,
    1e-2, 1e-3 of a soft maximum over each ball (``_soft_risk``), to the
    library's default tolerances, with the points one class reaches pinned
    at +-``CLAMP``.  The K scores of least hard-max risk (``SourceBalls.risk``)
    are kept, ``SourceBalls.complete`` gives each point one class reaches its
    score, as in ``dualsolve.solve_dual``, and points no class reaches take
    0; ``risk`` is the exact risk of that field.  It is only a seed:
    ``solve_dual`` places its cuts at log t = f +- 0.05 around it, and the
    certificate judges the pair that program returns.
    """
    b = SourceBalls(g, measure)
    K, w = b.K, b.p / measure.total
    f = CLAMP * (b.reach[1] - b.reach[0].astype(float))
    m0, m1 = b.push(b.p[b.seg])
    f[K] = 0.5 * np.log(m1[K] / m0[K])

    def value_grad(x, tau):
        f[K] = x
        val, grad = _soft_risk(b, w, f, tau)
        return val, grad[K]

    best_k, best_val = f[K], b.risk(EXP, f)
    it_count = 0
    for tau in (1e-1, 1e-2, 1e-3) if K.size else ():
        res = opt.minimize(value_grad, f[K], args=(tau,), jac=True,
                           method="L-BFGS-B", options={"maxiter": STAGE_ITERS})
        it_count += int(res.nit)
        f[K] = res.x
        hard = b.risk(EXP, f)
        if hard < best_val:
            best_k, best_val = res.x, hard

    out = np.zeros(g.n)
    out[K] = best_k
    b.complete(out)
    return PrimalSolution(f=out, risk=b.risk(EXP, out), iterations=it_count)


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
