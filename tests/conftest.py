"""Shared fixtures: small oracle instances and independent reference
implementations used to cross-check the solvers."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsStatus

from advdual import dualsolve
from advdual.errors import AdvdualError
from advdual.ground import GroundSet, build_ground
from advdual.losses import Loss, _check_eta, conditional_risk
from advdual.measures import Coupling, TwoClassMeasure


@pytest.fixture
def twopoint():
    """Two unit half-masses at 0 and 1 with a refinement midpoint; at
    epsilon 0.6 both classes can meet at 0.5."""
    g = build_ground(np.array([[0.0], [1.0], [0.5]]), "l2", 0.6)
    measure = TwoClassMeasure.build([0.5, 0.0, 0.0], [0.0, 0.5, 0.0])
    return g, measure


def _oracle_instances():
    out = []
    # the canonical contested-midpoint instance
    g = build_ground(np.array([[0.0], [1.0], [0.5]]), "l2", 0.6)
    out.append(("twopoint", g, TwoClassMeasure.build([0.5, 0, 0], [0, 0.5, 0])))
    # epsilon zero: no adversary, everything pointwise
    g = build_ground(np.array([[0.0], [0.3], [0.7]]), "l2", 0.0)
    out.append(("eps0", g,
                TwoClassMeasure.build([0.2, 0.2, 0.1], [0.1, 0.15, 0.25])))
    # two overlapping sources per class on a pair of points
    g = build_ground(np.array([[0.0], [0.5]]), "l2", 0.5)
    out.append(("pair2", g,
                TwoClassMeasure.build([0.3, 0.1], [0.1, 0.5])))
    # planar triangle, every point adjacent to every other
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.43]])
    g = build_ground(pts, "l2", 0.55)
    out.append(("tri2d", g, TwoClassMeasure.build([0.6, 0, 0], [0, 0.4, 0])))
    return out


@pytest.fixture(scope="session")
def oracle_instances():
    return _oracle_instances()


@pytest.fixture
def stalled_highs(monkeypatch):
    """``stall(n)`` makes every cut-program model skip its first ``n``
    runs, which leaves the model status unset as a run that ends without a
    status would.  Each model records the solver, simplex strategy and
    (rows, columns) shape of every run it is asked for, the iterations
    HiGHS reports after each run it makes and, per ``setBasis`` call, the
    number of runs asked for before it; ``stall`` returns the list of
    models made."""
    def stall(n: int) -> list:
        made = []

        class Stalled(dualsolve._Highs):
            def __init__(self):
                super().__init__()
                self.solvers, self.strategies, self.counts = [], [], []
                self.shapes, self.bases = [], []
                made.append(self)

            def setBasis(self, *args):
                self.bases.append(len(self.solvers))
                return super().setBasis(*args)

            def run(self):
                self.solvers.append(self.getOptionValue("solver")[1])
                self.strategies.append(self.getOptionValue("simplex_strategy")[1])
                self.shapes.append((self.getNumRow(), self.getNumCol()))
                if len(self.solvers) <= n:
                    return HighsStatus.kWarning
                status = super().run()
                info = self.getInfo()
                self.counts.append(info.simplex_iteration_count
                                   + info.ipm_iteration_count)
                return status

        monkeypatch.setattr(dualsolve, "_Highs", Stalled)
        return made
    return stall


# ---------------------------------------------------------------------------
# independent references: brute distances and infinity-Wasserstein (no
# tree, no flow solver and no linear program involved)
# ---------------------------------------------------------------------------

def brute_distances(points: np.ndarray, norm: str) -> np.ndarray:
    """Full matrix of pairwise distances under the given norm."""
    diff = points[:, None, :] - points[None, :, :]
    if norm == "l1":
        return np.abs(diff).sum(axis=2)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=2))
    if norm == "linf":
        return np.abs(diff).max(axis=2)
    raise ValueError(f"unknown norm {norm!r}")


def brute_neighbors(points: np.ndarray, norm: str, eps: float) -> list[np.ndarray]:
    """Sorted closed-ball neighbor lists from the full distance matrix."""
    return [np.flatnonzero(row) for row in brute_distances(points, norm) <= eps]


def refine_points_loop(points, epsilon: float, r: int, norm: str) -> np.ndarray:
    """Reference refinement: ``r`` midpoints on every pair j > i within
    2 epsilon, pair by pair over the brute neighbor lists, each kept unless
    it repeats a point already kept; the original points all stay first."""
    pts = np.asarray(points, dtype=float)
    if r <= 0:
        return pts
    extra = []
    for i, ball in enumerate(brute_neighbors(pts, norm, 2.0 * epsilon)):
        for j in ball[ball > i]:
            for k in range(1, r + 1):
                t = k / (r + 1.0)
                extra.append((1.0 - t) * pts[i] + t * pts[j])
    out = list(pts)
    seen = {tuple(p.round(12)) for p in pts}
    for x in extra:
        if tuple(x.round(12)) not in seen:
            seen.add(tuple(x.round(12)))
            out.append(x)
    return np.array(out)


def hall_feasible(dist: np.ndarray, p: np.ndarray, q: np.ndarray,
                  eps: float) -> bool:
    """Feasibility of moving p onto q within distance eps, decided by the
    marriage-theorem condition: every subset of target mass must be covered
    by the source mass that can reach it.  A pair is within reach when its
    distance is at most eps, the package's own relation, with no slack."""
    tgt = np.flatnonzero(q > 0)
    reach = dist <= eps
    for r in range(1, tgt.size + 1):
        for sub in combinations(tgt, r):
            need = q[list(sub)].sum()
            covers = reach[:, list(sub)].any(axis=1)
            if need > p[covers].sum() + 1e-9:
                return False
    return True


def hall_winf(g: GroundSet, p, q) -> float:
    """Exhaustive bottleneck distance via the subset condition; supports of
    at most ~6 points keep the enumeration tiny."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dist = brute_distances(g.points, g.norm)
    cand = np.unique(dist[np.ix_(p > 0, q > 0)])
    for t in cand:
        if hall_feasible(dist, p, q, float(t)):
            return float(t)
    return float("inf")


def naive_window_max(values: np.ndarray, k: int) -> np.ndarray:
    out = np.empty_like(values)
    n = values.size
    for i in range(n):
        out[i] = values[max(0, i - k):min(n, i + k + 1)].max()
    return out


def identity_coupling(p) -> Coupling:
    """The coupling that leaves every positive mass of ``p`` in place."""
    p = np.asarray(p, dtype=float)
    idx = np.flatnonzero(p > 0)
    return Coupling.build(idx, idx, p[idx], p.shape[0])


# ---------------------------------------------------------------------------
# exact full-size dual of the piecewise-linear losses: one linear program on
# every epsilon-edge, no cut loop and no edge pricing
# ---------------------------------------------------------------------------

# cstar is MIN_SLOPE * min(eta, 1 - eta)
MIN_SLOPE = {"hinge": 2.0, "zero_one_dual": 1.0}


def exact_dual_lp(loss: Loss, g: GroundSet, measure: TwoClassMeasure) -> float:
    """The hinge or zero-one dual's optimal value over all coupling pairs.

    The perspective of cstar = a min(eta, 1 - eta) is a min(m0, m1), so the
    dual is: maximize sum z subject to z <= a m0 and z <= a m1 per point,
    each m the pushforward of its class's weights on the epsilon-edges out
    of its positive-mass sources, the weights out of each source summing to
    its mass.  Columns: one weight per edge (class 0's, then class 1's),
    then z per point."""
    a, n = MIN_SLOPE[loss.kind], g.n
    src_row, cap_row, p = [], [], []
    for c, mass in enumerate((measure.mass0, measure.mass1)):
        sources = np.flatnonzero(mass > 0)
        indptr, dst = g.neighbor_csr(sources)
        src_row.append(sum(q.size for q in p) + np.repeat(np.arange(sources.size),
                                                          np.diff(indptr)))
        cap_row.append(c * n + dst)
        p.append(mass[sources])
    src_row, cap_row, p = map(np.concatenate, (src_row, cap_row, p))
    ne = src_row.size
    edge = np.arange(ne)
    A_eq = sp.csr_matrix((np.ones(ne), (src_row, edge)), shape=(p.size, ne + n))
    # row c n + j: z_j - a m_c(j) <= 0
    A_ub = sp.csr_matrix((np.concatenate([np.ones(2 * n), np.full(ne, -a)]),
                          (np.concatenate([np.arange(2 * n), cap_row]),
                           np.concatenate([ne + np.tile(np.arange(n), 2), edge]))),
                         shape=(2 * n, ne + n))
    cost = np.concatenate([np.zeros(ne), -np.ones(n)])
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=p,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


# ---------------------------------------------------------------------------
# independent references for the losses' closed forms
# ---------------------------------------------------------------------------

class EtaAtBoundary(AdvdualError):
    """The derivative of the optimal conditional risk diverges at 0 and 1."""


def supergrad_cstar_exp(eta) -> np.ndarray:
    """Derivative of the exponential-loss cstar on the open interval."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0) or np.any(eta >= 1):
        raise EtaAtBoundary("derivative diverges at eta in {0, 1}")
    return np.sqrt((1.0 - eta) / eta) - np.sqrt(eta / (1.0 - eta))


# ---------------------------------------------------------------------------
# numeric 1-D search: shared grid + golden-section refinement
# ---------------------------------------------------------------------------

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 90
# the oracles search alpha in [-ORACLE_BRACKET, ORACLE_BRACKET]
ORACLE_BRACKET = 50.0
CSTAR_GRID = 512
ALPHA_GRID = 2048
# a margin slope below this at the bracket edge counts as flat, so a
# minimum there is snapped to +-inf
SNAP_SLOPE = 1e-12


def _golden_max(fun, lo, hi):
    """Vectorized golden-section maximization on per-point brackets.

    ``fun`` maps an array of abscissae to an array of values; ``lo``/``hi``
    are arrays of bracket endpoints.  Returns (argmax, max).
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(GOLDEN_ITERS):
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        take_left = fun(c) >= fun(d)
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def cstar_numeric(loss: Loss, eta) -> np.ndarray:
    """Independent evaluation of cstar by 1-D minimization over alpha.

    Coarse grid then golden-section refinement around the best cell; used as
    the test oracle against the closed forms.
    """
    eta = np.atleast_1d(_check_eta(eta))
    alphas = np.linspace(-ORACLE_BRACKET, ORACLE_BRACKET, CSTAR_GRID)
    vals = conditional_risk(loss, eta[:, None], alphas[None, :])
    best = np.argmin(vals, axis=1)
    step = alphas[1] - alphas[0]
    lo = alphas[best] - step
    hi = alphas[best] + step

    def neg(a):
        return -conditional_risk(loss, eta, a)

    _, fmax = _golden_max(neg, lo, hi)
    # endpoint values (alpha = +-inf) can beat any finite alpha at eta in {0,1}
    ends = np.minimum(conditional_risk(loss, eta, np.inf),
                      conditional_risk(loss, eta, -np.inf))
    return np.minimum(-fmax, ends)


def alpha_opt_numeric(loss: Loss, eta) -> np.ndarray:
    """Numeric smallest minimizer: leftmost grid cell within tolerance of the
    minimum, golden-refined; snapped to +-inf when the minimum sits at the
    bracket edge with a flat margin slope."""
    eta = np.atleast_1d(_check_eta(eta))
    alphas = np.linspace(-ORACLE_BRACKET, ORACLE_BRACKET, ALPHA_GRID)
    vals = conditional_risk(loss, eta[:, None], alphas[None, :])
    vmin = vals.min(axis=1)
    near = vals <= vmin[:, None] + 1e-12
    first = np.argmax(near, axis=1)
    step = alphas[1] - alphas[0]
    lo = np.maximum(alphas[first] - step, -ORACLE_BRACKET)
    hi = np.minimum(alphas[first] + step, ORACLE_BRACKET)

    def neg(a):
        return -conditional_risk(loss, eta, a)

    amid, _ = _golden_max(neg, lo, hi)
    # at either bracket edge, a flat margin slope at +bracket means the
    # conditional risk keeps descending forever on that side
    h = 1e-4
    slope = abs(float(loss.phi(ORACLE_BRACKET + h) - loss.phi(ORACLE_BRACKET - h))) / (2 * h)
    edge = np.inf if slope < SNAP_SLOPE else ORACLE_BRACKET
    hit_left = vals[:, 0] <= vmin + 1e-12
    hit_right = (vals[:, -1] <= vmin + 1e-12) & ~hit_left
    return np.where(hit_left, -edge, np.where(hit_right, edge, amid))
