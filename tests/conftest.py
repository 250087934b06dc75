"""Shared fixtures: small oracle instances and independent reference
implementations used to cross-check the solvers."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsStatus

from advdual import dualsolve
from advdual.ground import GroundSet, build_ground
from advdual.measures import TwoClassMeasure


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
    status would.  Each model records the solver and simplex strategy of
    every run it is asked for and the iterations HiGHS reports after each
    run it makes; ``stall`` returns the list of models made."""
    def stall(n: int) -> list:
        made = []

        class Stalled(dualsolve._Highs):
            def __init__(self):
                super().__init__()
                self.solvers, self.strategies, self.counts = [], [], []
                made.append(self)

            def run(self):
                self.solvers.append(self.getOptionValue("solver")[1])
                self.strategies.append(self.getOptionValue("simplex_strategy")[1])
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
