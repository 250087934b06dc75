"""Two-class finite measures, couplings in the epsilon edge set, the
validated coupling witness every certificate rests on, and the
infinity-Wasserstein metric decided by a transport linear program."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import AdvdualError, InfeasibleDual, MassMismatch, NegativeMass, ValidationError
from .ground import GroundSet, ball_argmax, distances

# absolute feasibility slack per unit of transported mass
FLOW_SLACK = 1e-10
TOTAL_TOL = 1e-9
# absolute distance slack of the coupling-support check
DELTA_TOL = 1e-12


def _check_mass(m, n: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (n,):
        raise ValidationError(f"{name} has shape {m.shape}, expected ({n},)")
    if not np.all(np.isfinite(m)):
        raise NegativeMass(f"{name} contains non-finite masses")
    bad = np.flatnonzero(m < 0)
    if bad.size:
        raise NegativeMass(f"{name}[{bad[0]}] is negative: {m[bad[0]]}")
    return m


@dataclass(frozen=True)
class TwoClassMeasure:
    """Nonnegative per-point masses for class 0 and class 1.

    Totals need not sum to one and the two classes need not balance.
    """

    mass0: np.ndarray
    mass1: np.ndarray

    @classmethod
    def build(cls, mass0, mass1) -> "TwoClassMeasure":
        m0 = np.asarray(mass0, dtype=float)
        m1 = np.asarray(mass1, dtype=float)
        if m0.shape != m1.shape or m0.ndim != 1:
            raise ValidationError("mass vectors must be 1-D and equally long")
        m0 = _check_mass(m0, m0.shape[0], "mass0")
        m1 = _check_mass(m1, m1.shape[0], "mass1")
        m0.setflags(write=False)
        m1.setflags(write=False)
        return cls(mass0=m0, mass1=m1)

    @property
    def n(self) -> int:
        return self.mass0.shape[0]

    @property
    def total(self) -> float:
        return float(self.mass0.sum()) + float(self.mass1.sum())


@dataclass(frozen=True)
class Coupling:
    """Sparse coupling: weight ``w[k]`` moves from point ``src[k]`` to
    ``dst[k]``.  Supported pairs must lie in the epsilon edge set of the
    ground the coupling was built on."""

    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    n: int

    @classmethod
    def build(cls, src, dst, w, n: int) -> "Coupling":
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        if not (src.shape == dst.shape == w.shape) or src.ndim != 1:
            raise ValidationError("coupling triples must be parallel 1-D arrays")
        if np.any(w < 0):
            raise NegativeMass("coupling weights must be nonnegative")
        if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ValidationError("coupling indices out of range")
        for a in (src, dst, w):
            a.setflags(write=False)
        return cls(src=src, dst=dst, w=w, n=n)

    def source_marginal(self) -> np.ndarray:
        return np.bincount(self.src, weights=self.w, minlength=self.n)

    def triples(self):
        return [(int(i), int(j), float(v)) for i, j, v in zip(self.src, self.dst, self.w)]


class SourceBalls:
    """Every positive-mass source's epsilon-ball, class 0's first, as one
    CSR layout.  By complementary slackness an optimal coupling moves each
    source's mass only to the extremum of the optimal field on its ball: the
    maximum for class 0, the minimum for class 1.

    Segment s is the ball of source ``src[s]`` of mass ``p[s]``: the points
    ``ix`` from ``starts[s]`` on, ascending.  Per entry, ``seg`` is its
    segment, ``sign`` is +1 in class 0 and -1 in class 1 (so a segment's
    largest ``sign * f[ix]`` is a class-0 ball max or minus a class-1 ball
    min) and ``slot`` = class * n + ix indexes a (2, n) array.  Entries
    before ``split`` are class 0's; ``reach[c]`` marks the points class c's
    balls hold.  Per-class results have one row per class.
    """

    def __init__(self, g: GroundSet, measure: TwoClassMeasure):
        s0 = np.flatnonzero(measure.mass0 > 0)
        s1 = np.flatnonzero(measure.mass1 > 0)
        self.n = g.n
        self.src = np.concatenate((s0, s1))
        self.p = np.concatenate((measure.mass0[s0], measure.mass1[s1]))
        indptr, self.ix = g.neighbor_csr(self.src)
        self.starts = indptr[:-1]
        self.seg = np.repeat(np.arange(self.src.size), np.diff(indptr))
        self.split = indptr[s0.size]
        cls = np.arange(self.ix.size) >= self.split
        self.sign = np.where(cls, -1.0, 1.0)
        self.slot = self.ix + self.n * cls
        self.reach = np.bincount(self.slot, minlength=2 * self.n).reshape(2, self.n) > 0

    def top(self, f: np.ndarray) -> np.ndarray:
        """Per segment, the largest ``sign * f`` on its ball."""
        return np.maximum.reduceat(self.sign * f[self.ix], self.starts)

    def renormalize(self, w: np.ndarray) -> np.ndarray:
        """Clip the entry weights ``w`` at zero and rescale each segment to
        its source's mass; a segment left with no weight is split evenly."""
        w = np.maximum(w, 0.0)
        s = np.add.reduceat(w, self.starts)
        w = np.where((s > 0)[self.seg], w, 1.0)
        s = np.add.reduceat(w, self.starts)
        return w * (self.p / s)[self.seg]

    def push(self, w: np.ndarray) -> np.ndarray:
        """Target masses (m0, m1) of the entry weights ``w``."""
        return np.bincount(self.slot, weights=w, minlength=2 * self.n).reshape(2, self.n)

    def couplings(self, w: np.ndarray) -> tuple[Coupling, Coupling]:
        """The class couplings (c0, c1) of the entry weights ``w``."""
        keep = np.flatnonzero(w > 0)
        cut = np.searchsorted(keep, self.split)
        src, dst, w = self.src[self.seg[keep]], self.ix[keep], w[keep]
        return tuple(Coupling.build(src[part], dst[part], w[part], self.n)
                     for part in (slice(0, cut), slice(cut, None)))

    def cap(self, v: np.ndarray, on: np.ndarray) -> np.ndarray:
        """Per point and class, the least over the class's balls holding it
        of the largest ``sign * v`` on that ball's ``on`` points (inf where
        no ball holds it): row 0 is the largest value the point can take
        without raising a class-0 ball max, and minus row 1 the smallest
        that lowers no class-1 ball min."""
        vals = np.where(on[self.ix], self.sign * v[self.ix], -np.inf)
        top = np.maximum.reduceat(vals, self.starts)
        out = np.full(2 * self.n, np.inf)
        np.minimum.at(out, self.slot, top[self.seg])
        return out.reshape(2, self.n)


def pushforward(c: Coupling) -> np.ndarray:
    """Target marginal of a coupling; total mass is preserved exactly up to
    float summation order."""
    return np.bincount(c.dst, weights=c.w, minlength=c.n)


def coupling_in_delta(g: GroundSet, c: Coupling) -> bool:
    """True when every supported pair lies within the ground's epsilon."""
    if c.src.size == 0:
        return True
    d = distances(g.points[c.src], g.points[c.dst], g.norm)
    return bool(np.all(d[c.w > 0] <= g.epsilon + DELTA_TOL))


class Witness:
    """The dual witness of a solve: the class couplings ``c0``, ``c1`` and
    their pushforward masses ``m0``, ``m1``.

    The constructor raises ``InfeasibleDual`` unless each coupling is built
    for the ``g.n`` points of ``g``, lies on its epsilon-edges, has the class
    measure as its source marginal and the given masses as its pushforward,
    within 1e-9 per unit of total mass (at least 1e-9); a NaN or infinite
    weight or mass fails.  So a witness proves that both pushforwards lie
    in the infinity-Wasserstein epsilon-ball of their class measures, for
    every loss at once.
    """

    __slots__ = ("c0", "c1", "m0", "m1")

    def __init__(self, g: GroundSet, measure: TwoClassMeasure, c0: Coupling,
                 c1: Coupling, m0, m1):
        self.c0, self.c1 = c0, c1
        self.m0, self.m1 = np.asarray(m0, dtype=float), np.asarray(m1, dtype=float)
        tol = 1e-9 * max(measure.total, 1.0)
        for c, p, m in ((c0, measure.mass0, self.m0), (c1, measure.mass1, self.m1)):
            if c.n != g.n:
                raise InfeasibleDual(f"coupling is built for {c.n} points, not {g.n}")
            if not coupling_in_delta(g, c):
                raise InfeasibleDual("coupling moves mass beyond epsilon")
            if not np.all(np.abs(c.source_marginal() - p) <= tol):
                raise InfeasibleDual("coupling source marginal does not match "
                                     "the class measure")
            if m.shape != (g.n,) or not np.all(np.abs(pushforward(c) - m) <= tol):
                raise InfeasibleDual("dual masses do not match the coupling "
                                     "pushforward")

    def eta_star(self) -> np.ndarray:
        """m1 / (m0 + m1) where defined, 0.5 elsewhere (unused mass points)."""
        s = self.m0 + self.m1
        out = np.full_like(s, 0.5)
        mask = s > 0
        out[mask] = self.m1[mask] / s[mask]
        return out


def winf_feasible(g: GroundSet, p, q, epsilon: float | None = None) -> bool:
    """Does a coupling from p to q supported on pairs within epsilon exist?

    Decided (up to a per-unit-mass slack) by the transport program on the
    pairs within epsilon: maximise the moved mass with at most ``p`` leaving
    each source and at most ``q`` reaching each target, solved by HiGHS.
    """
    p = _check_mass(p, g.n, "p")
    q = _check_mass(q, g.n, "q")
    eps = g.epsilon if epsilon is None else float(epsilon)
    tp, tq = p.sum(), q.sum()
    if abs(tp - tq) > TOTAL_TOL * max(1.0, tp, tq):
        raise MassMismatch(f"total masses differ: {tp} vs {tq}")
    if tp == 0:
        return True
    srcs = np.flatnonzero(p > 0)
    dsts = np.flatnonzero(q > 0)
    rows, cols = np.nonzero(_cross_distances(g, srcs, dsts) <= eps)
    if rows.size == 0:
        return False
    # one variable per pair; constraint a caps what leaves source a and
    # constraint len(srcs) + b what reaches target b
    edge = np.arange(rows.size)
    A = sp.csr_matrix((np.ones(2 * edge.size),
                       (np.concatenate([rows, srcs.size + cols]), np.tile(edge, 2))),
                      shape=(srcs.size + dsts.size, edge.size))
    res = linprog(-np.ones(edge.size), A_ub=A, b_ub=np.concatenate([p[srcs], q[dsts]]),
                  bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise AdvdualError(f"transport program failed: {res.message}")
    return -res.fun >= tp - FLOW_SLACK * max(1.0, tp)


def _cross_distances(g: GroundSet, rows, cols) -> np.ndarray:
    """Distance matrix from the points ``rows`` to the points ``cols``."""
    return distances(g.points[rows][:, None], g.points[cols][None], g.norm)


def winf_distance(g: GroundSet, p, q) -> float:
    """Smallest pairwise-distance threshold at which transport is feasible.

    Binary search over the exact spectrum of source-target distances.
    """
    p = _check_mass(p, g.n, "p")
    q = _check_mass(q, g.n, "q")
    tp, tq = p.sum(), q.sum()
    if abs(tp - tq) > TOTAL_TOL * max(1.0, tp, tq):
        raise MassMismatch(f"total masses differ: {tp} vs {tq}")
    if tp == 0:
        return 0.0
    srcs = np.flatnonzero(p > 0)
    dsts = np.flatnonzero(q > 0)
    spectrum = np.unique(_cross_distances(g, srcs, dsts))
    lo, hi = 0, spectrum.size - 1
    # the complete bipartite graph at the largest distance is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if winf_feasible(g, p, q, float(spectrum[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(spectrum[lo])


def greedy_attack(g: GroundSet, field, p) -> Coupling:
    """Send each source's full mass to the lowest-index ball maximizer of
    ``field``; attains sum(p * sup_ball(field)) exactly."""
    field = g.check_field(field)
    p = _check_mass(p, g.n, "p")
    srcs = np.flatnonzero(p > 0)
    targets = ball_argmax(g, field)[srcs]
    return Coupling.build(srcs, targets, p[srcs], g.n)


def transported_integral(g: GroundSet, field, c: Coupling) -> float:
    """sum over pairs of w(i, j) * field(j)."""
    field = g.check_field(field)
    return float(np.dot(c.w, field[c.dst]))
