"""Adversarial risks and the exponential-loss primal solver.

``risk_adv`` scores every loss through ``Loss.margins``, the zero-one loss
as the sign classifier's errors, and ``construct_f`` gives each loss its
minimizer from one conditional-probability field (the thresholded
classifier for the zero-one loss).

The exponential primal is solved exactly by nested minimum cuts: the
exponential loss is a mixture of cost-weighted zero-one losses, each
adversarial zero-one risk is a minimum cut on the graph of the
``measures.SourceBalls`` layout, and as the cost rises the cuts nest, so
the optimal conditional probability is constant on levels, each at its
pooled class-1 share.  ``dualsolve.solve_dual`` reads the couplings off
the max-flows that closed those levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InfeasiblePair, InstanceTooLarge
from .ground import GroundSet
from .ground import build_ground  # noqa: F401  unused; bench/spans.py patches this name
from .losses import Loss, mul0, transform_h
from .measures import SourceBalls, TwoClassMeasure, gains, route, shares

# a block splits where the closure its max-flow reaches gains more than
# this share of the block's total absolute gain, above the round-off of
# summing the gains: a closure of a true level gains nothing, and its
# split, if round-off made one, leaves two parts at the level's ratio
LEVEL_RTOL = 1e-12
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
    """The exact field ``f``, its ``risk`` (computed on read) and max-flow
    count, and for ``dualsolve.solve_dual`` its layout ``balls``, the nested
    ``odds`` of the nodes of ``balls.arcs``, each arc's ``flow`` in the
    round that closed its level, in units of the float ``measures.gains`` of
    ``masses``, and the nodes ``settled`` on levels ``nest`` kept."""

    f: np.ndarray
    iterations: int
    balls: SourceBalls
    odds: np.ndarray
    flow: np.ndarray
    settled: np.ndarray

    @property
    def risk(self) -> float:
        return self.balls.risk(EXP, self.f)


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

def level_field(b: SourceBalls, odds: np.ndarray) -> np.ndarray:
    """The exponential score field of the level odds ``odds`` = eta / (1 -
    eta) of the nodes of ``b.arcs``: 1/2 log(odds) on K;
    ``SourceBalls.complete`` scores the points off K, and points no class
    reaches take 0."""
    f = np.zeros(b.n)
    with np.errstate(divide="ignore"):
        f[b.K] = 0.5 * np.log(odds[b.src.size:])
    return b.complete(f)


def nest(b: SourceBalls, odds: np.ndarray) -> np.ndarray:
    """The level odds ``odds`` of the nodes of ``b.arcs``, nested: a point
    of K with none (NaN) takes the largest of the class-1 sources whose
    balls hold it, which lowers no class-1 ball min, and while a source's
    own odds differ from the extremum on its ball (the max for class 0,
    the min for class 1), its level and the extremum's are pooled into one
    at their pooled odds.  A level is the set of nodes of one odds value.
    Exact levels nest so that no pooling happens; a closure lighter than
    the flows' round-off can leave one out of place, and pooling it costs
    about that closure's weight.  A field of nested odds is one
    ``dualsolve.solve_dual`` pools back to the same odds."""
    e, tail, head = b.arcs
    ns, one = b.src.size, e >= b.split
    if not ns:
        return odds
    # a source with no point of K in its ball is bound by no level
    linked = np.add.reduceat(b.on_k[b.ix], b.starts) > 0
    pt = np.zeros(b.n)
    while True:
        lost = np.isnan(odds)
        if lost.any():
            pred = np.full(odds.size, -np.inf)
            np.maximum.at(pred, head[one], odds[tail[one]])
            odds = np.where(lost, pred, odds)
        pt[b.K] = odds[ns:]
        ext = b.extremum(pt)
        bad = np.flatnonzero(linked & (ext != odds[:ns]))
        if not bad.size:
            return odds
        value, level = np.unique(odds, return_inverse=True)
        link = sp.csr_array((np.ones(bad.size), (level[bad], np.searchsorted(value, ext[bad]))),
                            shape=(value.size, value.size))
        share = shares(masses(b), connected_components(link, directed=False)[1][level])
        with np.errstate(divide="ignore"):
            odds = share[1] / share[0]


def masses(b: SourceBalls) -> np.ndarray:
    """Per node of ``b.arcs``, its masses (p0, p1) per unit of total mass,
    which no mass scale under- or overflows."""
    m = b.measure
    return _on_nodes(b, np.stack((m.mass0, m.mass1))) / m.total


def counts(b: SourceBalls):
    """The ``measures.whole`` counts of the masses of the nodes of
    ``b.arcs``, and their least masses per unit of total mass, as
    ``measures.gains`` takes them; None unless the masses are whole, or
    with no mass."""
    m = b.measure
    if m.counts is None or not m.total > 0:
        return None
    return _on_nodes(b, m.counts[0]), m.counts[1] / m.total


def _on_nodes(b: SourceBalls, values: np.ndarray) -> np.ndarray:
    """Per node of ``b.arcs``, a row per class of the per-point ``values``
    (2, n): a source takes its point's value in its own class, and every
    other entry is 0."""
    ns = b.src.size
    out = np.zeros((2, ns + b.K.size))
    out[0, :b.nsrc0], out[1, b.nsrc0:ns] = values[0, b.src[:b.nsrc0]], values[1, b.src[b.nsrc0:]]
    return out


def solve_exp_primal(g: GroundSet, measure: TwoClassMeasure) -> PrimalSolution:
    """The exact minimizer of the exponential adversarial risk: a batch of
    one of ``solve_exp_primals``."""
    return solve_exp_primals([g], measure)[0]


def solve_exp_primals(grounds, measure: TwoClassMeasure) -> list[PrimalSolution]:
    """The exact minimizer of the exponential adversarial risk on each
    ground set of ``grounds``, by nested minimum cuts, all in lockstep.

    The exponential loss is a mixture of cost-weighted zero-one losses, and
    the minimizer of each zero-one risk R_c is a maximum-weight closure of
    the graph ``SourceBalls.arcs``: weight (1 - c) p on a class-1 source,
    -c p on a class-0 source.  As c rises these closures nest, so the
    optimal conditional probability eta* is constant on blocks of nodes,
    each at its pooled class-1 share (``shares``).  The grounds' graphs lie
    side by side, and a closure splits over their connected components, so
    each component starts as a block.  Each round runs one flow
    (``measures.route``) on every open block at the ``measures.gains`` of
    its share and finds the closure the residual graph reaches in it.
    When each class's masses are whole multiples of its least one
    (``counts``), the gains are whole numbers and the flow is one exact
    max-flow; otherwise a second max-flow repairs the first's rounding,
    if a node whose need was rounded falls short.  If the closure is a part
    of the block whose weight exceeds ``LEVEL_RTOL`` of the block's total
    absolute weight, it splits off as the upper part and both parts stay open;
    otherwise the block is a level.  Blocks of one class are levels at eta
    0 or 1.  No block's rounds depend on the blocks beside it, so each
    ground's solution is the one it has alone.  Per ground, ``nest`` pools
    levels the flows' round-off left out of place, and ``level_field``
    turns the levels' odds into the field; ``iterations`` counts the
    max-flows of the rounds in which the ground had an open block.  The
    flow of the round that closed a level is kept on its arcs: at the
    level's share it saturates, unless ``nest`` pooled or refilled it.
    """
    balls = [SourceBalls(g, measure) for g in grounds]
    # each ground's nodes and arcs start at its offsets in the union
    at = np.cumsum([0] + [b.src.size + b.K.size for b in balls])
    cut = np.cumsum([0] + [b.arcs[0].size for b in balls])
    nodes, owner = at[-1], np.repeat(np.arange(len(balls)), np.diff(at))
    src = np.arange(nodes) < (at[:-1] + [b.src.size for b in balls])[owner]
    p = np.concatenate([masses(b) for b in balls], axis=1)
    per = [counts(b) for b in balls]
    # the grounds share their measure, so their least masses
    exact = None if per[0] is None else (np.concatenate([c[0] for c in per], axis=1), per[0][1])
    tail, head = (np.concatenate([b.arcs[k] + a for b, a in zip(balls, at)]) for k in (1, 2))
    block = connected_components(sp.csr_array((np.ones(tail.size), (tail, head)),
                                              shape=(nodes, nodes)), directed=False)[1]
    odds, kept = np.full(nodes, np.nan), np.zeros(tail.size)
    flows = np.zeros(len(balls), dtype=np.int64)
    while True:
        share, gain, unit = gains(p, block, exact)
        # blocks of one class, or of no mass, are levels without a flow
        done = (block >= 0) & ((share[0] == 0) | (share[1] == 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            odds[done & src] = (share[1] / share[0])[done & src]
        block[done] = -1
        if not np.any(block >= 0):
            break
        flow, up, runs = route(tail, head, block, gain)
        on = np.flatnonzero(block >= 0)
        flows += runs * (np.bincount(owner[on], minlength=flows.size) > 0)
        size, above = np.bincount(block[on]), np.bincount(block[on], up[on])
        rise = np.bincount(block[on], np.where(up[on], gain[on], 0.0))
        split = (rise > LEVEL_RTOL * np.bincount(block[on], np.abs(gain[on]))) & (above < size)
        level = on[~split[block[on]]]
        odds[level] = share[1, level] / share[0, level]
        block[level] = -1
        # an arc out of a level closing now lies in it or carries nothing
        closing = np.zeros(nodes, dtype=bool)
        closing[level] = True
        kept = np.where(closing[tail], flow * unit[tail], kept)
        # the upper part of a split block takes a label of its own
        block[up & (block >= 0)] += size.size
        _, block[block >= 0] = np.unique(block[block >= 0], return_inverse=True)
    out = []
    for i, b in enumerate(balls):
        nested = nest(b, odds[at[i]:at[i + 1]])
        _, level = np.unique(nested, return_inverse=True)
        settled = np.bincount(level, nested != odds[at[i]:at[i + 1]])[level] == 0
        f = level_field(b, nested)
        out.append(PrimalSolution(f=f, iterations=int(flows[i]), balls=b, odds=nested,
                                  flow=kept[cut[i]:cut[i + 1]], settled=settled))
    return out


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
