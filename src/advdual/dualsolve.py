"""The dual of the adversarial risk: couplings of each class measure along
the epsilon edge set, scored by the concave perspective of the optimal
conditional risk applied to their pushforward masses.

The exact exponential field of ``primalsolve.solve_exp_primal`` is constant
on levels, each at its pooled class-1 share c.  At c, the max-flow of the
zero-one risk R_c on a level saturates every arc: class-1 arcs carry
(1 - c) times the class-1 coupling and class-0 arcs c times the class-0
one, so m1 / (m0 + m1) = c at every point it reaches.  These couplings are
optimal for the exponential loss and, by loss universality, for every
loss; ``dual_objective`` scores their masses under any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import InstanceTooLarge, NegativeMass
from .ground import GroundSet
from .losses import Loss
from .measures import SourceBalls, TwoClassMeasure, Witness, route
from .primalsolve import EXP, HPair, PrimalSolution, level_field, nest, shares


@dataclass(frozen=True)
class DualSolution:
    """The validated coupling ``witness`` and its exponential dual value
    ``objective``; the score field ``f`` of the level ratios and the pair
    ``hpair`` = (phi(-f), phi(f)) it gives, whose ``theta`` is the
    exponential risk of ``f``.  Whether the pair is optimal enough is for
    its certificate to say.  ``iterations`` counts the max-flows.
    """

    witness: Witness
    objective: float
    iterations: int
    f: np.ndarray
    hpair: HPair


def dual_objective(loss: Loss, m0, m1) -> float:
    """Sum over points of (m0 + m1) * cstar(m1 / (m0 + m1)); zero where both
    masses vanish.  Jointly concave in (m0, m1)."""
    # every loss's cstar is symmetric under eta <-> 1 - eta, so it is read
    # at the smaller share, which keeps the digits that 1 - eta would lose
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    if np.any(m0 < 0) or np.any(m1 < 0):
        raise NegativeMass("pushforward masses must be nonnegative")
    s = m0 + m1
    mask = s > 0
    if not np.any(mask):
        return 0.0
    eta = np.minimum(m0, m1)[mask] / s[mask]
    return float(np.dot(s[mask], loss.cstar(eta)))


def solve_dual(g: GroundSet, measure: TwoClassMeasure, f) -> DualSolution:
    """Exponential dual couplings on the levels of ``f``: this instance's
    ``PrimalSolution``, whose layout, level odds, field and level flows
    are reused, or a score field, whose levels are pooled afresh.

    Pooling puts each node of ``SourceBalls.arcs`` on the level of its
    value of ``f`` (a point of K its score, a source the extremum of ``f``
    on the K points of its ball), gives the levels their pooled odds,
    nests them (``primalsolve.nest``) and keeps no flow; the field is then
    ``level_field`` of their odds.  Every level with mass of both classes
    and no kept flow takes its pooled class-1 share c, and one
    ``measures.route`` runs on all of them at once, each at its c.  A
    source of a level of one class sends its mass to itself, and each
    source's weights are rescaled to its mass.  On the exact field every
    level's flow saturates, so the pair is optimal; on any other field the
    couplings are still feasible.  ``iterations`` counts the max-flows run
    here: 0 on a primal solution whose levels ``nest`` left as they were.
    """
    if isinstance(f, PrimalSolution) and f.balls.g is g and f.balls.measure is measure:
        b, odds, field, flow, settled = f.balls, f.odds, f.f, f.flow, f.settled
    else:
        f = g.check_field(f.f if isinstance(f, PrimalSolution) else f)
        b = SourceBalls(g, measure)
        ns = b.src.size
        value = np.zeros(ns + b.K.size)
        value[:ns], value[ns:] = b.extremum(f), f[b.K]
        _, block = np.unique(value, return_inverse=True)
        share, _ = shares(b, block)
        # a point of a level of one class, or of none, takes its odds in nest
        keep = (np.arange(block.size) < ns) | ((share[0] > 0) & (share[1] > 0))
        with np.errstate(invalid="ignore", divide="ignore"):
            odds = nest(b, np.where(keep, share[1] / share[0], np.nan))
        field, flow = level_field(b, odds), np.zeros(b.arcs[0].size)
        settled = np.zeros(odds.size, dtype=bool)
    e, tail, head = b.arcs
    ns = b.src.size
    _, block = np.unique(odds, return_inverse=True)
    share, p = shares(b, block)
    one_class = (share[0] == 0) | (share[1] == 0)
    w = np.zeros(b.ix.size)
    self_entry = np.flatnonzero(b.ix == b.src[b.seg])
    w[self_entry[one_class[:ns]]] = b.p[one_class[:ns]]
    block[one_class | settled] = -1
    flows = 0
    if np.any(block >= 0):
        rerouted, _, flows = route(tail, head, block, share[0] * p[1] - share[1] * p[0])
        flow = np.where(block[tail] >= 0, rerouted, flow)
    # the flow carries 1 - c times the class-1 coupling, c times the class-0 one
    pos = flow > 0
    w[e[pos]] = flow[pos] / np.where(e >= b.split, share[0, tail], share[1, head])[pos]
    c0, c1 = b.couplings(b.renormalize(w))
    witness = Witness(b, c0, c1)
    return DualSolution(witness=witness, objective=dual_objective(EXP, witness.m0, witness.m1),
                        iterations=flows, f=field,
                        hpair=HPair(h0=EXP.phi(-field), h1=EXP.phi(field)))


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
               grid_steps: int) -> float:
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
