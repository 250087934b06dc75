"""Adversarial surrogate risks and the exponential-loss primal solver.

The exponential primal is minimized in the score parametrization: the map
f -> sum p1 * exp(-ball_min(f)) + sum p0 * exp(ball_max(f)) is convex in the
value vector.  A temperature-continuation smoothed stage precedes plain
subgradient polishing; the reported risk always uses the hard ball max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize as opt

from .errors import InfeasiblePair, InstanceTooLarge, ZeroOneHasNoPhi
from .ground import GroundSet, build_ground, segment_argmax, sup_ball
from .losses import Loss, mul0
from .measures import TwoClassMeasure

CLAMP = 50.0
# iteration budget shared by the smoothed stages (a sixth each) and the polish
MAX_ITERS = 6000
# relative progress below which the polish stops, and the Polyak stopping
# distance to a lower bound
POLISH_TOL = 1e-9
# c in the c/sqrt(k) polish step used without a lower bound
STEP_C = 0.25
# the polish appends the best risk to ``history`` every this many iterations
LOG_EVERY = 50


@dataclass(frozen=True)
class PrimalSolution:
    f: np.ndarray
    risk: float
    iterations: int
    converged: bool
    history: list = field(repr=False, default_factory=list)


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


def hpair_feasible(loss: Loss, h0, h1, grid: int = 101, tol: float = 1e-9) -> bool:
    """Membership check: eta * h1 + (1 - eta) * h0 >= cstar(eta) on an eta
    grid; for the exponential loss the exact product form h0 * h1 >= 1."""
    h0 = np.asarray(h0, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    if np.any(h0 < 0) or np.any(h1 < 0):
        return False
    if loss.kind == "exponential":
        with np.errstate(invalid="ignore"):
            prod = mul0(h0, h1)
        ok = (prod >= 1.0 - tol) | np.isinf(h0) | np.isinf(h1)
        return bool(np.all(ok))
    etas = np.linspace(0.0, 1.0, grid)
    lhs = mul0(etas[:, None], h1[None, :]) + mul0(1.0 - etas[:, None], h0[None, :])
    return bool(np.all(lhs >= loss.cstar(etas)[:, None] - tol))


def theta(loss: Loss, hp: HPair, g: GroundSet, measure: TwoClassMeasure) -> float:
    """Convex relaxation of the adversarial risk on a feasible field pair."""
    if not hpair_feasible(loss, hp.h0, hp.h1):
        raise InfeasiblePair("pair violates the conditional-risk constraint")
    return float(mul0(measure.mass1, sup_ball(g, hp.h1)).sum()
                 + mul0(measure.mass0, sup_ball(g, hp.h0)).sum())


# ---------------------------------------------------------------------------
# exponential primal
# ---------------------------------------------------------------------------

def _segment_softweights(vals, indptr, tau):
    """Softmax weights per CSR segment at temperature tau, plus the smoothed
    segment log-sum-exp values."""
    widths = np.diff(indptr)
    segmax = np.maximum.reduceat(vals, indptr[:-1])
    z = np.exp((vals - np.repeat(segmax, widths)) / tau)
    zsum = np.add.reduceat(z, indptr[:-1])
    weights = z / np.repeat(zsum, widths)
    smooth = segmax + tau * np.log(zsum)
    return weights, smooth


class _ExpPrimalProblem:
    """Risk and (sub)gradient evaluation restricted to the free points."""

    def __init__(self, g: GroundSet, measure: TwoClassMeasure):
        self.g = g
        self.p0 = measure.mass0
        self.p1 = measure.mass1
        self.s0 = np.flatnonzero(self.p0 > 0)
        self.s1 = np.flatnonzero(self.p1 > 0)
        # CSR segments for the two source families
        self.ip0, self.ix0 = g.neighbor_csr(self.s0)
        self.ip1, self.ix1 = g.neighbor_csr(self.s1)
        self.w0 = self.p0[self.s0]
        self.w1 = self.p1[self.s1]

    def risk(self, f: np.ndarray) -> float:
        hi = np.maximum.reduceat(f[self.ix0], self.ip0[:-1]) if self.ix0.size else np.empty(0)
        lo = np.minimum.reduceat(f[self.ix1], self.ip1[:-1]) if self.ix1.size else np.empty(0)
        with np.errstate(over="ignore"):
            return float(np.dot(self.w0, np.exp(hi)) + np.dot(self.w1, np.exp(-lo)))

    def value_grad(self, f: np.ndarray, tau: float | None):
        """Objective and gradient; ``tau`` None means hard max with the
        lowest-index tie rule, otherwise the temperature-tau soft maximum."""
        n = f.size
        grad = np.zeros(n)
        val = 0.0
        if self.ix0.size:
            v = f[self.ix0]
            if tau is None:
                seg = np.maximum.reduceat(v, self.ip0[:-1])
                term = np.exp(seg) * self.w0
                val += float(term.sum())
                first = segment_argmax(v, self.ip0)
                grad += np.bincount(self.ix0[first], weights=term, minlength=n)
            else:
                wts, seg = _segment_softweights(v, self.ip0, tau)
                term = np.exp(seg) * self.w0
                val += float(term.sum())
                widths = np.diff(self.ip0)
                grad += np.bincount(self.ix0, weights=np.repeat(term, widths) * wts,
                                    minlength=n)
        if self.ix1.size:
            v = -f[self.ix1]
            if tau is None:
                seg = np.maximum.reduceat(v, self.ip1[:-1])
                term = np.exp(seg) * self.w1
                val += float(term.sum())
                first = segment_argmax(v, self.ip1)
                grad -= np.bincount(self.ix1[first], weights=term, minlength=n)
            else:
                wts, seg = _segment_softweights(v, self.ip1, tau)
                term = np.exp(seg) * self.w1
                val += float(term.sum())
                widths = np.diff(self.ip1)
                grad -= np.bincount(self.ix1, weights=np.repeat(term, widths) * wts,
                                    minlength=n)
        return val, grad


def solve_exp_primal(g: GroundSet, measure: TwoClassMeasure,
                     lower_bound: float | None = None) -> PrimalSolution:
    """Minimize the exponential adversarial risk over score fields.

    Smoothed stages (temperature continuation 1e-1, 1e-2, 1e-3 on a soft
    maximum over each ball, each stage solved by L-BFGS-B) followed by
    hard-max subgradient polishing; when ``lower_bound`` (a dual value) is
    supplied the polish uses Polyak steps, otherwise c/sqrt(k).  Points whose
    two-epsilon neighborhood carries no class-0 (class-1) mass are snapped to
    +inf (-inf) after the iteration; points with no mass at all within two
    epsilon get score zero.
    """
    g2 = build_ground(g.points, g.norm, 2.0 * g.epsilon)
    near0 = np.add.reduceat(measure.mass0[g2.indices], g2.indptr[:-1]) > 0
    near1 = np.add.reduceat(measure.mass1[g2.indices], g2.indptr[:-1]) > 0
    free = near0 & near1

    prob = _ExpPrimalProblem(g, measure)
    n = g.n
    f = np.zeros(n)
    # local log-odds warm start from two-epsilon ball masses
    b0 = np.add.reduceat(measure.mass0[g2.indices], g2.indptr[:-1])
    b1 = np.add.reduceat(measure.mass1[g2.indices], g2.indptr[:-1])
    tiny = 1e-9 * max(measure.total, 1.0)
    f[free] = 0.5 * np.log((b1[free] + tiny) / (b0[free] + tiny))
    f[~near0 & near1] = CLAMP
    f[near0 & ~near1] = -CLAMP

    freeze = ~free
    history: list[float] = []
    best_f = f.copy()
    best_val = prob.risk(f)

    it_count = 0
    # bound coordinates to the clamp box; frozen coordinates are pinned
    lo = np.where(freeze, f, -CLAMP)
    hi = np.where(freeze, f, CLAMP)
    bounds = list(zip(lo, hi))
    for tau in (1e-1, 1e-2, 1e-3):
        res = opt.minimize(prob.value_grad, f, args=(tau,), jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": MAX_ITERS // 6,
                                    "ftol": 1e-14, "gtol": 1e-12})
        it_count += int(getattr(res, "nit", 0))
        f = np.asarray(res.x, dtype=float)
        hard = prob.risk(f)
        if hard < best_val:
            best_val = hard
            best_f = f.copy()
        history.append(best_val)
    f = best_f.copy()

    # hard-max polish: Polyak steps against the dual lower bound when
    # available, otherwise square-summable c/sqrt(k)
    iters = MAX_ITERS - it_count
    stall_window = 120
    mark = best_val
    for k in range(1, max(iters, 1) + 1):
        it_count += 1
        hard, grad = prob.value_grad(f, None)
        if hard < best_val:
            best_val = hard
            best_f = f.copy()
        if it_count % LOG_EVERY == 0:
            history.append(best_val)
        if k % stall_window == 0:
            if mark - best_val <= POLISH_TOL * max(1.0, abs(best_val)):
                break
            mark = best_val
        if lower_bound is not None and \
                best_val - lower_bound <= POLISH_TOL * max(1.0, abs(lower_bound)):
            break
        grad[freeze] = 0.0
        gnorm2 = float(np.dot(grad, grad))
        if gnorm2 <= 1e-30:
            break
        if lower_bound is not None and hard > lower_bound:
            step = min((hard - lower_bound) / gnorm2, 10.0)
        else:
            step = STEP_C / np.sqrt(k)
        f = np.clip(f - step * grad, -CLAMP, CLAMP)
        f[freeze] = np.clip(best_f[freeze], -CLAMP, CLAMP)

    f = best_f
    final = prob.risk(f)
    history.append(final)
    out = f.copy()
    out[~near0 & near1] = np.inf
    out[near0 & ~near1] = -np.inf
    out[~near0 & ~near1] = 0.0
    converged = True
    if lower_bound is not None and final > lower_bound + POLISH_TOL \
            and final - lower_bound > 1e-3 * max(1.0, abs(final)):
        converged = False
    return PrimalSolution(f=out, risk=final, iterations=it_count,
                          converged=converged, history=history)


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

def brute_primal(loss: Loss, g: GroundSet, measure: TwoClassMeasure,
                 span: float = 4.0, coarse: float = 0.1,
                 refine: tuple = (0.01, 0.001)) -> float:
    """Coarse-to-fine grid search over score fields on <= 3 ground points."""
    if g.n > 3:
        raise InstanceTooLarge("brute primal accepts at most 3 ground points")
    values = np.concatenate(([-np.inf], np.arange(-span, span + coarse / 2, coarse),
                             [np.inf]))
    centers = _best_field(loss, g, measure, [values] * g.n)
    for step in refine:
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
