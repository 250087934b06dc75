"""Two-class finite measures, couplings in the epsilon edge set, the
validated coupling witness every certificate rests on, the one flow kernel
``route``, and the infinity-Wasserstein metric it decides as a bipartite
maximum flow."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import InfeasibleDual, MassMismatch, NegativeMass, ValidationError
from .ground import GroundSet, distances, segment_argmax
from .losses import Loss

# absolute feasibility slack per unit of transported mass
FLOW_SLACK = 1e-10
TOTAL_TOL = 1e-9
# absolute distance slack of the coupling-support check
DELTA_TOL = 1e-12
# ``maximum_flow`` takes int32 capacities only (a larger int64 one wraps
# silently), so the capacities of a flow problem are scaled until its
# capped arcs sum to about FLOW_UNITS, and an uncapped arc holds FLOW_INF
FLOW_UNITS = 2.0 ** 29
FLOW_INF = 2 ** 30


def max_flow(nodes: int, tail: np.ndarray, head: np.ndarray, units: np.ndarray,
             back: np.ndarray):
    """A maximum flow from node 0 to node 1 along the arcs ``tail`` ->
    ``head`` (no pair twice, in either direction) of whole capacities
    ``units`` forward and ``back`` backward, each cut to ``FLOW_INF``, by
    Dinic's algorithm.  Returns the net flow along each arc and the sorted
    keys tail * nodes + head of the pairs with capacity left, whose
    ``_csr`` is the residual graph."""
    # each pair in both directions, sorted: maximum_flow then returns the
    # flow on exactly these entries, in this order
    key = np.concatenate((tail * nodes + head, head * nodes + tail))
    order = np.argsort(key, kind="stable")
    key, cap = key[order], np.minimum(np.concatenate((units, back)), FLOW_INF)[order]
    cap = cap.astype(np.int32)
    flow = maximum_flow(_csr(cap, key, nodes), 0, 1, method="dinic").flow.data
    at = np.empty(order.size, dtype=np.int64)
    at[order] = np.arange(order.size)
    return flow[at[:tail.size]], key[cap > flow]


def _csr(data: np.ndarray, key: np.ndarray, nodes: int):
    """The (nodes, nodes) CSR array of ``data`` at the sorted keys ``key`` =
    row * nodes + column, int32-indexed as ``maximum_flow`` reads it."""
    indptr = np.searchsorted(key, np.arange(nodes + 1) * nodes)
    return sp.csr_array((data, (key % nodes).astype(np.int32), indptr.astype(np.int32)),
                        shape=(nodes, nodes))


def route(tail: np.ndarray, head: np.ndarray, block: np.ndarray, need: np.ndarray):
    """A maximum flow on every block of graph nodes at once, along the
    uncapped arcs ``tail`` -> ``head``: node v is in block ``block[v]`` (-1
    for none), the arcs within a block carry flow, and each node sends
    ``need`` (a negative need receives).

    The first max-flow scales each block's needs to sum to ``FLOW_UNITS``
    in absolute value and rounds each down to an int32 count of units, so
    that it serves no node beyond its need.  Across its minimum cut only
    that rounding is left, less than a unit per need, so a second max-flow
    routes the shortfalls on top of it at ``FLOW_UNITS`` times a finer
    scale, each rounded to the nearest unit but at least 1, forward along
    the arcs or back along their flow, with the true excess of the cut
    clipped to ``FLOW_INF``.  So the flow is a maximum one, and its cut the
    minimum one, to within float round-off.  Returns the flow on each arc
    in mass units, the mask of the nodes the last residual graph reaches
    from the needs, and the number of max-flows run."""
    on, at = block >= 0, np.maximum(block, 0)
    total = np.bincount(block[on], np.abs(need[on]))
    units = np.where(on, FLOW_UNITS / np.where(total > 0, total, 1.0)[at], 0.0)
    flow, left = _flow(tail, head, block, need, np.zeros(tail.size), units, down=True)
    sent = np.bincount(tail, flow, block.size) - np.bincount(head, flow, block.size)
    short = np.where(need != 0, need - sent, 0.0)
    if np.any(short):
        count = np.bincount(block[on], need[on] != 0)
        flow, left = _flow(tail, head, block, short, flow,
                           units * (FLOW_UNITS / np.maximum(count, 1)[at]))
    nodes = int(on.sum()) + 2
    reach = np.zeros(block.size, dtype=bool)
    reach[on] = np.isin(np.arange(2, nodes), breadth_first_order(
        _csr(np.ones(left.size), left, nodes), 0, return_predecessors=False))
    return flow, reach, 2 if np.any(short) else 1


def _flow(tail: np.ndarray, head: np.ndarray, block: np.ndarray, need: np.ndarray,
          flow: np.ndarray, units: np.ndarray, down: bool = False):
    """One max-flow of ``route`` on top of the arc flow ``flow``: each node
    sends ``need`` more along its block's arcs or back along their flow,
    ``units`` per unit of mass at the node (and along the arcs out of it),
    its need rounded down if ``down``, else to the nearest unit but at
    least 1.  Returns the arc flow after it and the keys of its residual
    graph (``max_flow``), whose node 0 stands for the needs and node 2 + i
    for the i-th node of the blocks."""
    on = np.flatnonzero(block >= 0)
    local = np.zeros(block.size, dtype=np.int64)
    local[on] = 2 + np.arange(on.size)
    arcs = np.flatnonzero((block[tail] == block[head]) & (block[tail] >= 0))
    scale = units[tail[arcs]]
    has = on[need[on] != 0]
    give = need[has] > 0
    count = np.abs(need[has]) * units[has]
    count = np.floor(count) if down else np.maximum(np.rint(count), 1.0)
    x, left = max_flow(
        on.size + 2,
        np.concatenate((np.where(give, 0, local[has]), local[tail[arcs]])),
        np.concatenate((np.where(give, local[has], 1), local[head[arcs]])),
        np.concatenate((count, np.full(arcs.size, FLOW_INF))),
        np.concatenate((np.zeros(has.size), np.floor(flow[arcs] * scale))))
    out = flow.copy()
    out[arcs] += x[has.size:] / scale
    return out, left


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
    """Every positive-mass source's epsilon-ball in the instance (``g``,
    ``measure``), class 0's first, as one CSR layout.  By complementary
    slackness an optimal coupling moves each source's mass only to the
    extremum of the optimal field on its ball: the maximum for class 0, the
    minimum for class 1.  So every adversarial risk is a ``worst`` sum over
    these balls, and only the scores on ``K``, the points both classes
    reach, are free (``complete`` scores the rest).

    Segment s is the ball of source ``src[s]`` of mass ``p[s]``: the points
    ``ix`` from ``starts[s]`` on, ascending; the first ``nsrc0`` segments
    are class 0's.  Per entry, ``seg`` is its segment, ``sign`` is +1 in
    class 0 and -1 in class 1 (so a segment's largest ``sign * f[ix]`` is a
    class-0 ball max or minus a class-1 ball min) and ``slot`` = class * n +
    ix indexes a (2, n) array.  Entries before ``split`` are class 0's;
    ``reach[c]`` marks the points class c's balls hold, and ``on_k`` those
    of ``K``.  Per-class results have one row per class.
    """

    def __init__(self, g: GroundSet, measure: TwoClassMeasure):
        s0 = np.flatnonzero(measure.mass0 > 0)
        s1 = np.flatnonzero(measure.mass1 > 0)
        self.g, self.measure, self.n, self.nsrc0 = g, measure, g.n, s0.size
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
        self.on_k = self.reach[0] & self.reach[1]
        self.K = np.flatnonzero(self.on_k)

    def worst(self, h1: np.ndarray, h0: np.ndarray) -> tuple[float, float]:
        """Per class, the sum over its sources of the source's mass times
        the largest value on its ball: (class 1's with the per-point values
        ``h1``, class 0's with ``h0``)."""
        top = np.maximum.reduceat(np.concatenate((h0, h1))[self.slot], self.starts)
        cost = self.p * top
        return float(cost[self.nsrc0:].sum()), float(cost[:self.nsrc0].sum())

    def risk(self, loss: Loss, f) -> float:
        """Adversarial risk of ``f``: ``worst`` of its margins, class 1 first."""
        worst1, worst0 = self.worst(*loss.margins(self.g.check_field(f)))
        return worst1 + worst0

    def extremum(self, field: np.ndarray) -> np.ndarray:
        """Per source, the extremum of ``field`` on the K points of its
        ball: the max for class 0 (-inf with none), the min for class 1
        (+inf with none)."""
        on = np.where(self.on_k[self.ix], self.sign * field[self.ix], -np.inf)
        return self.sign[self.starts] * np.maximum.reduceat(on, self.starts)

    def complete(self, field: np.ndarray) -> np.ndarray:
        """Give, in place, each point only class 0 reaches the largest score
        that raises the max of the K scores of ``field`` on no class-0 ball,
        and each point only class 1 reaches the smallest that lowers no such
        class-1 ball min, unless it is already -inf (class 0) or +inf (class
        1); return ``field``."""
        cap = np.full((2, self.n), np.inf)
        np.minimum.at(cap.reshape(-1), self.slot, self.sign * self.extremum(field)[self.seg])
        only0 = self.reach[0] & ~self.on_k & (field != -np.inf)
        only1 = self.reach[1] & ~self.on_k & (field != np.inf)
        field[only0], field[only1] = cap[0, only0], -cap[1, only1]
        return field

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

    @functools.cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The closure graph of the cost-weighted zero-one risks: node s <
        ``src.size`` is source s and node ``src.size + q`` the point
        ``K[q]``.  Each entry on K is an uncapped arc, from a class-1 source
        to its ball point or from a ball point to its class-0 source.
        Returns the entries and the tail and head of their arcs."""
        e = np.flatnonzero(self.on_k[self.ix])
        node = np.cumsum(self.on_k) - 1 + self.src.size
        pt, s = node[self.ix[e]], self.seg[e]
        one = e >= self.split
        return e, np.where(one, s, pt), np.where(one, pt, s)


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
    """The dual witness of a solve: the class couplings ``c0``, ``c1``, the
    layout ``balls`` of the instance they are validated on, and their
    pushforward masses ``m0``, ``m1``.

    The constructor raises ``InfeasibleDual`` unless each coupling is built
    for the points of ``balls.g``, lies on its epsilon-edges and has the
    class measure ``balls.measure`` as its source marginal within ``tol`` =
    1e-9 per unit of total mass (at least 1e-9); a NaN or infinite weight
    fails.  So a witness proves, on its instance alone, that both pushforwards
    lie in the W-infinity epsilon-ball of their class measures, for every loss.
    """

    __slots__ = ("balls", "c0", "c1", "m0", "m1", "tol")

    def __init__(self, balls: SourceBalls, c0: Coupling, c1: Coupling):
        g, measure = balls.g, balls.measure
        self.balls, self.c0, self.c1 = balls, c0, c1
        self.m0, self.m1 = pushforward(c0), pushforward(c1)
        self.tol = 1e-9 * max(measure.total, 1.0)
        for c, p in ((c0, measure.mass0), (c1, measure.mass1)):
            if c.n != g.n:
                raise InfeasibleDual(f"coupling is built for {c.n} points, not {g.n}")
            if not coupling_in_delta(g, c):
                raise InfeasibleDual("coupling moves mass beyond epsilon")
            if not np.all(np.abs(c.source_marginal() - p) <= self.tol):
                raise InfeasibleDual("coupling source marginal does not match "
                                     "the class measure")

    def eta_star(self) -> np.ndarray:
        """m1 / (m0 + m1) where defined, 0.5 elsewhere (unused mass points)."""
        s = self.m0 + self.m1
        out = np.full_like(s, 0.5)
        mask = s > 0
        out[mask] = self.m1[mask] / s[mask]
        return out


def winf_feasible(g: GroundSet, p, q, epsilon: float | None = None) -> bool:
    """Does a coupling from p to q supported on pairs within epsilon exist?

    Decided (up to a per-unit-mass slack) by one ``route`` on the bipartite
    graph of the pairs within epsilon (``_carries``).
    """
    p, q, tp, d = _transport(g, p, q)
    return tp == 0 or _carries(p, q, tp, d <= (g.epsilon if epsilon is None else float(epsilon)))


def _transport(g: GroundSet, p, q):
    """``p`` and ``q`` checked as masses on the points of ``g`` of one total
    (``MassMismatch`` otherwise): their positive masses, the total of p and
    the distance matrix from the points of those of p to those of q."""
    p = _check_mass(p, g.n, "p")
    q = _check_mass(q, g.n, "q")
    tp, tq = p.sum(), q.sum()
    if abs(tp - tq) > TOTAL_TOL * max(1.0, tp, tq):
        raise MassMismatch(f"total masses differ: {tp} vs {tq}")
    srcs, dsts = np.flatnonzero(p > 0), np.flatnonzero(q > 0)
    return p[srcs], q[dsts], tp, distances(g.points[srcs][:, None], g.points[dsts][None], g.norm)


def _carries(p: np.ndarray, q: np.ndarray, tp: float, near: np.ndarray) -> bool:
    """Does the positive mass ``p`` (of total ``tp``) move onto ``q`` along
    the pairs ``near[a, b]``: does one ``route`` that sends p and receives
    q carry all of p?"""
    rows, cols = np.nonzero(near)
    if rows.size == 0:
        return False
    # node a is source a, node p.size + b is target b
    need = np.concatenate((p, -q))
    flow, _, _ = route(rows, p.size + cols, np.zeros(need.size, dtype=np.int64), need)
    return flow.sum() >= tp - FLOW_SLACK * max(1.0, tp)


def winf_distance(g: GroundSet, p, q) -> float:
    """Smallest pairwise-distance threshold at which transport is feasible.

    Binary search over the exact spectrum of source-target distances, on
    one distance matrix: each step thresholds it and runs ``_carries``.
    """
    p, q, tp, d = _transport(g, p, q)
    if tp == 0:
        return 0.0
    spectrum = np.unique(d)
    lo, hi = 0, spectrum.size - 1
    # the complete bipartite graph at the largest distance is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if _carries(p, q, tp, d <= spectrum[mid]):
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
    indptr, ix = g.neighbor_csr(srcs)
    return Coupling.build(srcs, ix[segment_argmax(field[ix], indptr)], p[srcs], g.n)


def transported_integral(g: GroundSet, field, c: Coupling) -> float:
    """sum over pairs of w(i, j) * field(j)."""
    field = g.check_field(field)
    return float(np.dot(c.w, field[c.dst]))
