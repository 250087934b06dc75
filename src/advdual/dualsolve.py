"""The dual of the adversarial risk: couplings of each class measure along
the epsilon edge set, scored by the concave perspective of the optimal
conditional risk applied to their pushforward masses.

Given an exponential-loss score field the dual needs no iteration at all:
complementary slackness says which edges an optimal coupling may use and how
the two pushforwards must balance at every point, and one sparse linear
program over those edges returns the couplings.  By loss universality the
same couplings are optimal for every loss; ``dual_objective`` scores their
masses under any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import InstanceTooLarge, NegativeMass
from .ground import GroundSet, segment_argmax
from .losses import Loss, mul0
from .measures import Coupling, TwoClassMeasure, pushforward
from .primalsolve import eta_hat, risk_adv

EXP = Loss("exponential")


@dataclass(frozen=True)
class DualSolution:
    coupling0: Coupling
    coupling1: Coupling
    m0: np.ndarray
    m1: np.ndarray
    objective: float
    iterations: int
    converged: bool
    history: list = field(repr=False, default_factory=list)

    def eta_star(self) -> np.ndarray:
        """m1 / (m0 + m1) where defined, 0.5 elsewhere (unused mass points)."""
        s = self.m0 + self.m1
        out = np.full_like(s, 0.5)
        mask = s > 0
        out[mask] = self.m1[mask] / s[mask]
        return out


def dual_objective(loss: Loss, m0, m1) -> float:
    """Sum over points of (m0 + m1) * cstar(m1 / (m0 + m1)); zero where both
    masses vanish.  Jointly concave in (m0, m1)."""
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    if np.any(m0 < 0) or np.any(m1 < 0):
        raise NegativeMass("pushforward masses must be nonnegative")
    s = m0 + m1
    mask = s > 0
    if not np.any(mask):
        return 0.0
    eta = m1[mask] / s[mask]
    return float(np.dot(s[mask], loss.cstar(eta)))


class _EdgeSet:
    """CSR edge layout for one class: one simplex per positive-mass source."""

    def __init__(self, g: GroundSet, p: np.ndarray):
        self.n = g.n
        self.sources = np.flatnonzero(p > 0)
        self.p = p[self.sources]
        self.indptr, self.dst = g.neighbor_csr(self.sources)
        self.esrc = np.repeat(self.sources, np.diff(self.indptr))
        self.E = self.dst.size

    def vertex_from_point_grad(self, grad_pts: np.ndarray) -> np.ndarray:
        """Per source, all mass to the neighbor with the largest gradient,
        ties to the lowest target index."""
        w = np.zeros(self.E)
        w[segment_argmax(grad_pts[self.dst], self.indptr)] = self.p
        return w

    def restrict(self, score: np.ndarray, budget: float) -> "_EdgeSet":
        """Sub-polytope keeping, per source i, the edges to targets j with
        p_i * (max_ball score - score[j]) <= budget: moving the whole source
        along a kept edge loses at most ``budget`` of transported score."""
        if not np.isfinite(budget):
            return self
        vals = score[self.dst]
        segmax = np.maximum.reduceat(vals, self.indptr[:-1])
        keep = vals >= np.repeat(segmax - budget / self.p, np.diff(self.indptr))
        out = object.__new__(_EdgeSet)
        out.n, out.sources, out.p = self.n, self.sources, self.p
        lens = np.add.reduceat(keep.astype(np.int64), self.indptr[:-1])
        out.indptr = np.concatenate(([0], np.cumsum(lens)))
        out.dst = self.dst[keep]
        out.esrc = self.esrc[keep]
        out.E = out.dst.size
        return out

    def source_rows(self) -> np.ndarray:
        """Position of each edge's source among ``sources``."""
        return np.repeat(np.arange(self.sources.size), np.diff(self.indptr))

    def renormalize(self, w: np.ndarray, fallback: np.ndarray) -> np.ndarray:
        """Clip ``w`` at zero and rescale each source to its exact mass; a
        source left with no weight takes its weights from ``fallback``."""
        w = np.maximum(w, 0.0)
        widths = np.diff(self.indptr)
        seg = np.add.reduceat(w, self.indptr[:-1])
        w = np.where(np.repeat(seg > 0, widths), w, fallback)
        seg = np.add.reduceat(w, self.indptr[:-1])
        return w * np.repeat(self.p / seg, widths)

    def push(self, w: np.ndarray) -> np.ndarray:
        return np.bincount(self.dst, weights=w, minlength=self.n)

    def coupling(self, w: np.ndarray) -> Coupling:
        keep = w > 0
        return Coupling.build(self.esrc[keep], self.dst[keep], w[keep], self.n)


def _fast_objective(m0: np.ndarray, m1: np.ndarray) -> float:
    """Exponential dual_objective without validation."""
    s = np.maximum(m0 + m1, 0.0)
    eta = np.divide(m1, s, out=np.zeros_like(s), where=s > 0)
    return float(np.dot(s, EXP.cstar(np.clip(eta, 0.0, 1.0))))


def _pointwise_residual(h0: np.ndarray, h1: np.ndarray, m0: np.ndarray,
                        m1: np.ndarray) -> float:
    """Part of the duality gap left by violations of m1 (1 - eta_hat) =
    m0 eta_hat: with h0 = phi(-f) and h1 = phi(f), the exponential pointwise
    slackness residual sum (sqrt(m1 h1) - sqrt(m0 h0))^2, zero exactly when
    the pushforwards balance at every point."""
    return float(np.sum((np.sqrt(mul0(m1, h1)) - np.sqrt(mul0(m0, h0))) ** 2))


def _support_lp(e0: _EdgeSet, e1: _EdgeSet, eta: np.ndarray):
    """Edge weights on the two edge sets that meet every source mass exactly
    and the pushforward balance m1 (1 - eta) = m0 eta at each destination up
    to an L1 slack, the total slack being minimized (so the program is always
    feasible).  Solved by HiGHS; returns the scipy ``OptimizeResult``."""
    dst = np.concatenate([e0.dst, e1.dst])
    pts, row = np.unique(dst, return_inverse=True)
    k, E = pts.size, dst.size
    ident = np.arange(k)
    nvar = E + 2 * k
    bal = sp.csr_matrix(
        (np.concatenate([-eta[e0.dst], 1.0 - eta[e1.dst], np.ones(k), -np.ones(k)]),
         (np.concatenate([row, ident, ident]), np.arange(nvar))),
        shape=(k, nvar))
    ns0 = e0.sources.size
    src = sp.csr_matrix(
        (np.ones(E), (np.concatenate([e0.source_rows(), ns0 + e1.source_rows()]),
                      np.arange(E))),
        shape=(ns0 + e1.sources.size, nvar))
    cost = np.concatenate([np.zeros(E), np.ones(2 * k)])
    return linprog(cost, A_eq=sp.vstack([bal, src]).tocsr(),
                   b_eq=np.concatenate([np.zeros(k), e0.p, e1.p]),
                   bounds=(0.0, None), method="highs")


def solve_dual(g: GroundSet, measure: TwoClassMeasure, f,
               tol: float = 1e-6) -> DualSolution:
    """Dual couplings read off complementary slackness with the exponential
    score field ``f``.

    At eta_hat = sigmoid(2 f) the supergradient of the exponential
    perspective is (phi(-f), phi(f)), so any coupling pair that moves mass
    only to ball maximizers of phi(f) (class 1) and phi(-f) (class 0), and
    whose pushforwards satisfy m1 (1 - eta_hat) = m0 eta_hat everywhere,
    attains the primal risk of f and is therefore dual optimal.  A linear
    program (``_support_lp``) finds such couplings on the near-tight edges:
    it enforces the source masses and minimizes the L1 violation of the
    balance.

    The tightness tolerance is the duality gap already certified,
    G = risk(f) - D, with D the best dual value found so far, first that of
    the greedy ball attack.  An edge from source i is kept when moving all
    of p_i along it loses at most G of transported loss against the ball
    maximum, so on the kept edges no source's share of the sup residuals
    r1 + r0 exceeds the certified gap.  The exact argmax edges always
    survive.  Each program whose couplings raise D shrinks G, and the
    program is solved again on the smaller edge set until D stops rising;
    the sets are nested, so this ends.

    The best couplings found are returned with their exponential dual value;
    ``history`` lists the greedy, every program and the returned objective.
    ``converged`` says that HiGHS solved every program and that the
    imbalance left in the returned pushforwards costs at most
    ``tol * max(1, objective)`` of pointwise slackness residual.
    """
    f = g.check_field(f)
    h0, h1 = EXP.phi(-f), EXP.phi(f)
    eta = eta_hat(f)
    risk = risk_adv(EXP, f, g, measure)
    full0, full1 = _EdgeSet(g, measure.mass0), _EdgeSet(g, measure.mass1)
    e0, e1 = full0, full1
    # greedy read-off: every source to its lowest-index ball maximizer
    w0, w1 = e0.vertex_from_point_grad(h0), e1.vertex_from_point_grad(h1)
    best = _fast_objective(e0.push(w0), e1.push(w1))
    history = [best]
    bound, iterations, solved = best, 0, True
    while full0.E + full1.E:
        budget = max(risk - bound, 0.0)
        r0, r1 = full0.restrict(h0, budget), full1.restrict(h1, budget)
        res = _support_lp(r0, r1, eta)
        iterations += int(res.nit)
        if res.status != 0:
            solved = False
            break
        v0 = r0.renormalize(res.x[:r0.E], r0.vertex_from_point_grad(h0))
        v1 = r1.renormalize(res.x[r0.E:r0.E + r1.E], r1.vertex_from_point_grad(h1))
        history.append(_fast_objective(r0.push(v0), r1.push(v1)))
        if history[-1] > best:
            e0, e1, w0, w1, best = r0, r1, v0, v1, history[-1]
        if history[-1] <= bound:
            break
        bound = history[-1]
    residual = _pointwise_residual(h0, h1, e0.push(w0), e1.push(w1))
    converged = solved and residual <= tol * max(1.0, best)
    c0, c1 = e0.coupling(w0), e1.coupling(w1)
    m0, m1 = pushforward(c0), pushforward(c1)
    # recompute from the couplings actually returned
    obj = dual_objective(EXP, m0, m1)
    history.append(obj)
    return DualSolution(coupling0=c0, coupling1=c1, m0=m0, m1=m1,
                        objective=obj, iterations=iterations,
                        converged=converged, history=history)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

MAX_ORACLE_COMBOS = 60_000_000


def _simplex_grid(total: float, deg: int, steps: int) -> np.ndarray:
    """All ways to split ``total`` over ``deg`` slots in steps of total/steps."""
    out = []
    for cut in combinations_with_replacement(range(steps + 1), deg - 1):
        prev = 0
        row = []
        for c in cut:
            row.append(c - prev)
            prev = c
        row.append(steps - prev)
        out.append(row)
    return np.asarray(out, dtype=float) * (total / steps)


def _class_mass_grid(g: GroundSet, p: np.ndarray, steps: int) -> np.ndarray:
    """Candidate pushforward mass vectors for one class, exhaustively."""
    sources = np.flatnonzero(p > 0)
    if sources.size > 4:
        raise InstanceTooLarge("brute dual accepts at most 4 sources per class")
    grids = []
    for i in sources:
        neigh = g.neighbors(i)
        if neigh.size > 4:
            raise InstanceTooLarge("brute dual accepts at most 4 neighbors per source")
        splits = _simplex_grid(float(p[i]), neigh.size, steps)
        m = np.zeros((splits.shape[0], g.n))
        m[:, neigh] = splits
        grids.append(m)
    if not grids:
        return np.zeros((1, g.n))
    acc = grids[0]
    for m in grids[1:]:
        if acc.shape[0] * m.shape[0] > MAX_ORACLE_COMBOS:
            raise InstanceTooLarge("brute dual grid too large")
        acc = (acc[:, None, :] + m[None, :, :]).reshape(-1, g.n)
    return acc


def brute_dual(loss: Loss, g: GroundSet, measure: TwoClassMeasure,
               grid_steps: int = 50) -> float:
    """Exhaustive grid search over both coupling simplices; test oracle only."""
    m0s = _class_mass_grid(g, measure.mass0, grid_steps)
    m1s = _class_mass_grid(g, measure.mass1, grid_steps)
    if m0s.shape[0] * m1s.shape[0] > MAX_ORACLE_COMBOS:
        raise InstanceTooLarge("brute dual pairing too large")
    best = -np.inf
    chunk = max(1, 2_000_000 // max(1, m1s.shape[0]))
    for a in range(0, m0s.shape[0], chunk):
        blk = m0s[a:a + chunk]
        s = blk[:, None, :] + m1s[None, :, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            eta = np.where(s > 0, m1s[None, :, :] / np.where(s > 0, s, 1.0), 0.0)
            vals = np.where(s > 0, s * loss.cstar(eta), 0.0).sum(axis=2)
        best = max(best, float(vals.max()))
    return best
