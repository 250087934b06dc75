"""The dual of the adversarial risk: couplings of each class measure along
the epsilon edge set, scored by the concave perspective of the optimal
conditional risk applied to their pushforward masses.

For the exponential loss the perspective at a point is 2 sqrt(m0 m1), the
minimum over t > 0 of the tangents t m0 + m1 / t.  A linear program over the
couplings whose value at each point is capped by a few of these tangents
therefore bounds the dual optimum from above.  Its couplings give a feasible
dual value, and its cut multipliers give a feasible pair of the convex
relaxation (``HPair``) and with it a score field whose risk is at most the
program's value: one program certifies both sides.  By loss universality the
same couplings are optimal for every loss; ``dual_objective`` scores their
masses under any of them.

The program is one HiGHS model for the whole solve, driven through scipy's
HiGHS binding.  By complementary slackness the optimal couplings move each
source's mass only to the extremum of the optimal score field on its ball,
so the model starts with the edges that end near the seed field's ball
extrema, and every other edge joins as a column once its reduced cost shows
it can improve the program.  The first program is solved by the primal
simplex from the greedy attack's vertex, where each source sends its mass
to the seed field's ball extremum.  Each later cut round only adds its
tangents as rows, so the dual simplex restarts from the last basis, which
stays dual feasible; each pricing round only adds columns, so the primal
simplex restarts from a basis that stays primal feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize._highspy._core import (HighsBasis, HighsBasisStatus, HighsLp,
                                           HighsModelStatus, HighsStatus, MatrixFormat, _Highs)

from .errors import CutProgramFailed, InstanceTooLarge, NegativeMass
from .ground import GroundSet, segment_argmax
from .losses import Loss
from .measures import SourceBalls, TwoClassMeasure, Witness, pushforward
from .primalsolve import HPair, risk_adv

EXP = Loss("exponential")

# the first program cuts each point at t = exp(f + delta) around the score
# field it is given (and at the pair of ``_seed_cuts``)
SEED_DELTAS = (-0.05, -0.025, 0.0, 0.025, 0.05)
# |log t| of every cut is clipped here so that the program stays scaled
LOG_T_MAX = 10.0
# no two cuts at a point lie within this distance in log t (relative 1e-3)
CUT_RTOL = 1e-3
# programs solved after the first, at most.  Measured with no cap: at gap
# tolerance 1e-6 (per unit mass) criterion 01's suite takes at most 24
# programs, 400-point scatters 16 and 750 fresh suite draws 42; at 1e-12 the
# loop runs out of new tangents within 54
MAX_ROUNDS = 47
# HiGHS's primal feasibility tolerance: the two cuts of the pair at t = 1
# differ by only CUT_RTOL |m1 - m0| at a point, so at the default 1e-7 an
# optimal vertex may leave balanced masses unbalanced
FEAS_TOL = 1e-10


@dataclass(frozen=True)
class DualSolution:
    """The validated coupling ``witness`` and its exponential dual value
    ``objective``; the score field ``f`` read off the cut multipliers of the
    same program and the feasible pair ``hpair`` it comes from, whose
    ``theta`` bounds the exponential risk of ``f`` from above.  Whether the
    pair is optimal enough is for its certificate to say.  ``iterations``
    counts HiGHS's iterations over every program.
    """

    witness: Witness
    objective: float
    iterations: int
    f: np.ndarray
    hpair: HPair


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


class _CutLP:
    """The tangent-cut program on priced edges of both classes, as one HiGHS
    model kept for all cut rounds.

    The edges are the entries of the ``SourceBalls`` layout.  Variables are,
    per point both classes reach (``K``), its masses m0 and m1 and its value
    z, then one weight per edge column.  The equalities fix every source
    mass and tie each m to the edges into its point; they are passed once.
    By complementary slackness the optimal couplings move mass only to the
    ball extrema of the optimal field, so the model starts with the edges
    whose destination lies within max(``SEED_DELTAS``) of the seed field's
    ball extremum at their source: the maximum for class 0, the minimum for
    class 1.  An infinite extremum keeps only the edges where the field
    equals it, so every source keeps an edge.  After every optimal run the
    left-out edges are priced by their reduced cost, and those below minus
    HiGHS's dual feasibility tolerance are added as columns by
    ``add_edges``.  Each cut z <= t m0 + m1 / t is one row with three
    nonzeros, added by ``add_cuts``.  Adding rows keeps the last optimal
    basis dual feasible and adding columns keeps it primal feasible, so each
    cut round is solved by the dual simplex and each pricing round by the
    primal simplex, both from the last basis.  The first program starts the
    primal simplex at the seed's greedy attack (``crash``).
    """

    def __init__(self, b: SourceBalls, f: np.ndarray):
        self.on_k = b.reach[0] & b.reach[1]
        self.K = np.flatnonzero(self.on_k)
        k, ns = self.K.size, b.src.size
        self.k, self.E = k, b.ix.size
        self.neq = ns + 2 * k
        # per edge, the row of its source and the tie row of its destination
        # (-1 off K, where no row ties the mass): class c's tie rows of K
        # follow the ns source rows at ns + c k
        tie = np.full((2, b.n), -1)
        tie[:, self.K] = ns + np.arange(2 * k).reshape(2, k)
        self.src_row, self.tie_row = b.seg, tie.ravel()[b.slot]

        lp = HighsLp()
        lp.num_col_, lp.num_row_ = 3 * k, self.neq
        lp.col_cost_ = np.concatenate([np.zeros(2 * k), -np.ones(k)])
        lp.col_lower_, lp.col_upper_ = np.zeros(3 * k), np.full(3 * k, np.inf)
        lp.row_lower_ = lp.row_upper_ = np.concatenate([b.p, np.zeros(2 * k)])
        a = lp.a_matrix_
        a.format_ = MatrixFormat.kColwise
        a.num_col_, a.num_row_ = 3 * k, self.neq
        a.start_ = np.concatenate([np.arange(2 * k + 1), np.full(k, 2 * k)])
        a.index_, a.value_ = ns + np.arange(2 * k), np.ones(2 * k)
        self.highs = _Highs()
        for name, value in (("output_flag", False), ("presolve", "off"),
                            ("primal_feasibility_tolerance", FEAS_TOL)):
            self.highs.setOptionValue(name, value)
        self.highs.passModel(lp)
        self.dual_tol = self.highs.getOptionValue("dual_feasibility_tolerance")[1]
        self.cols = np.zeros(0, dtype=np.int64)
        self.in_model = np.zeros(self.E, dtype=bool)
        self.pt = np.zeros(0, dtype=np.int64)
        self.logt = np.zeros(0)
        self.programs = 0
        self.iterations = 0
        # per source, the greedy attack's edge: its first ball extremum
        v = b.sign * f[b.ix]
        self.greedy = segment_argmax(v, np.append(b.starts, self.E))
        self.add_edges(np.flatnonzero(v >= v[self.greedy][b.seg] - max(SEED_DELTAS)))
        self.greedy_mass = b.push(np.bincount(self.greedy, b.p, self.E))[:, self.K]

    def add_edges(self, idx: np.ndarray) -> None:
        """Add the edges ``idx`` (class 0's edges first, then class 1's) as
        columns: +1 in the source row and -1 in the tie row, if any."""
        c, tie = idx.size, self.tie_row[idx]
        into = tie >= 0
        keep = np.column_stack([np.ones(c, dtype=bool), into]).ravel()
        index = np.column_stack([self.src_row[idx], tie]).ravel()[keep]
        value = np.column_stack([np.ones(c), -np.ones(c)]).ravel()[keep]
        starts = np.cumsum(1 + into) - (1 + into)
        self.highs.addCols(c, np.zeros(c), np.zeros(c), np.full(c, np.inf),
                           value.size, starts.astype(np.int32),
                           index.astype(np.int32), value)
        self.cols = np.concatenate([self.cols, idx])
        self.in_model[idx] = True

    def reduced_costs(self, row_dual: np.ndarray) -> np.ndarray:
        """Per edge, the reduced cost c - a^T y of its column under the row
        duals y: its cost is 0, and its column is +1 in the source row and
        -1 in the tie row."""
        tie = np.where(self.tie_row >= 0, row_dual[self.tie_row], 0.0)
        return tie - row_dual[self.src_row]

    def add_cuts(self, pt: np.ndarray, logt: np.ndarray) -> None:
        """Cut the K positions ``pt`` at the tangent points exp(``logt``)."""
        c, t, k = pt.size, np.exp(logt), self.k
        index = np.column_stack([2 * k + pt, pt, k + pt])
        value = np.column_stack([np.ones(c), -t, -1.0 / t])
        self.highs.addRows(c, np.full(c, -np.inf), np.zeros(c), 3 * c,
                           np.arange(0, 3 * c, 3, dtype=np.int32),
                           index.ravel().astype(np.int32), value.ravel())
        self.pt = np.concatenate([self.pt, pt])
        self.logt = np.concatenate([self.logt, logt])

    def crash(self) -> None:
        """Set HiGHS's basis to the greedy attack's vertex.  Basic are each
        source's greedy edge, every m0, m1 and z, and the slack of every cut
        but the tightest at each point of K (least t m0 + m1 / t at the
        greedy masses, the first on ties), which is nonbasic at its bound 0;
        the rest is nonbasic at its lower bound.  The basis matrix is
        triangular (source rows and greedy edges, tie rows and masses, tight
        cuts and z, other cuts and their slacks), and its vertex feasible."""
        B, k, pt = HighsBasisStatus, self.k, self.pt
        col = np.full(3 * k + self.cols.size, B.kLower, dtype=object)
        col[:3 * k] = B.kBasic
        col[3 * k + np.searchsorted(self.cols, self.greedy)] = B.kBasic
        t = np.exp(self.logt)
        m0, m1 = self.greedy_mass
        order = np.lexsort((t * m0[pt] + m1[pt] / t, pt))
        row = np.full(self.neq + pt.size, B.kBasic, dtype=object)
        row[:self.neq] = B.kLower
        row[self.neq + order[np.searchsorted(pt[order], np.arange(k))]] = B.kUpper
        basis = HighsBasis()
        basis.col_status, basis.row_status = col.tolist(), row.tolist()
        basis.valid, basis.alien = True, False
        if self.highs.setBasis(basis) != HighsStatus.kOk:
            raise AssertionError("HiGHS rejected the greedy basis")

    def _run(self, strategy: int):
        """One run by the simplex ``strategy`` from the last basis.  The
        simplex can end without a status on the degenerate programs of
        instances whose optimum is one plateau; such a run is made once more
        by the interior point method with crossover.  Returns HiGHS's
        solution, or None if neither ends optimal."""
        h = self.highs
        h.setOptionValue("simplex_strategy", strategy)
        for solver in ("simplex", "ipm"):
            h.setOptionValue("solver", solver)
            h.run()
            # a run that stops before solving leaves the info invalid, with
            # counts of -1
            info = h.getInfo()
            if info.valid:
                self.iterations += info.simplex_iteration_count + info.ipm_iteration_count
            if h.getModelStatus() == HighsModelStatus.kOptimal:
                return h.getSolution()
        return None

    def solve(self):
        """Solve the program with every cut added so far: the first by the
        primal simplex from the greedy basis ``crash`` sets, and every other
        by the dual simplex from the last basis.  Then, while a
        left-out edge prices out, add every such edge and solve again by the
        primal simplex.  ``iterations`` sums both methods' counts over every
        run.  Returns the weight of every edge (0 off the model) and one
        multiplier per cut, or None if a run does not end optimal."""
        strategy = 1 if self.programs else 4  # dual, primal
        if not self.programs:
            self.crash()
        self.programs += 1
        while True:
            sol = self._run(strategy)
            if sol is None:
                return None
            y = np.asarray(sol.row_dual)
            new = np.flatnonzero(~self.in_model & (self.reduced_costs(y) < -self.dual_tol))
            if new.size == 0:
                break
            self.add_edges(new)
            strategy = 4
        w = np.zeros(self.E)
        w[self.cols] = np.asarray(sol.col_value)[3 * self.k:]
        # HiGHS's row dual is the derivative of the optimal cost in the
        # row's bound.  Raising the bound 0 of a cut relaxes it, so the
        # minimised cost (-sum z) cannot rise: each cut's row dual is <= 0,
        # and its multiplier is the negation, clipped at zero against
        # round-off
        return w, np.maximum(-y[self.neq:], 0.0)


def _seed_cuts(seed: np.ndarray):
    """Cut positions and log tangent points of the first program: log t =
    seed + delta for the deltas in ``SEED_DELTAS``, and the pair log t =
    +-CUT_RTOL / 2, whose kink makes balanced masses (eta = 1/2) a vertex
    of the program at every point.  Seed cuts within CUT_RTOL of that pair
    are left out, so no two cuts at a point lie within CUT_RTOL."""
    k = seed.size
    logt = np.clip(np.concatenate([seed + d for d in SEED_DELTAS]), -LOG_T_MAX, LOG_T_MAX)
    keep = np.abs(logt) >= 1.5 * CUT_RTOL
    pt = np.tile(np.arange(k), len(SEED_DELTAS))[keep]
    half = np.full(k, 0.5 * CUT_RTOL)
    return (np.concatenate([pt, np.arange(k), np.arange(k)]),
            np.concatenate([logt[keep], -half, half]))


def solve_dual(g: GroundSet, measure: TwoClassMeasure, f,
               tol: float = 1e-6) -> DualSolution:
    """Exponential dual couplings and a primal field certified together by
    the tangent-cut program, seeded by the score field ``f``.

    K is the set of points both classes reach.  Every program is the one on
    all edges, solved on the edges ``_CutLP`` prices in.  The first program
    cuts each point of K as ``_seed_cuts`` says.  Its couplings give masses
    m0, m1 and their dual value D; its cut multipliers lambda give, per
    point of K, h0 = sum lambda t and h1 = sum lambda / t, a pair with
    h0 h1 >= 1 whose relaxed risk ``theta`` is the program's value, so the
    field 1/2 (log h0 - log h1) has at most that risk.  A point reached by one
    class only takes the largest score that raises no ball maximum of that
    class (the smallest that lowers no ball minimum, for class 1), unless
    ``f`` is already infinite there in the same direction; points no class
    reaches keep ``f``.

    While risk - D > tol (the CLI passes ``certify.gap_tol``, the gap the
    certificate is judged at), the next program adds the exact tangent
    t = sqrt(m1 / m0) at each point of K with no cut within ``CUT_RTOL`` in
    log t, for at most ``MAX_ROUNDS`` more programs.  The field and couplings
    of the program with the least gap are returned; a program HiGHS does not
    solve to optimality ends the loop, and ``CutProgramFailed`` is raised if
    that is the first.
    """
    f = g.check_field(f)
    b = SourceBalls(g, measure)
    lp = _CutLP(b, f)
    K, k, on_k = lp.K, lp.k, lp.on_k
    only0 = b.reach[0] & ~b.reach[1] & (f != -np.inf)
    only1 = b.reach[1] & ~b.reach[0] & (f != np.inf)

    best = None  # (gap, field, hpair, w) of the least gap so far
    lp.add_cuts(*_seed_cuts(f[K]))
    for _ in range(MAX_ROUNDS + 1):
        solved = lp.solve()
        if solved is None:
            break
        x, lam = solved
        pt, logt = lp.pt, lp.logt
        w = b.renormalize(x)
        m0, m1 = b.push(w)
        # per point, multipliers normalized to sum one (z >= 0 makes the
        # sum at least one): h0 h1 >= 1 by Cauchy-Schwarz
        lam /= np.bincount(pt, lam, k)[pt]
        t = np.exp(logt)
        h0k, h1k = np.bincount(pt, lam * t, k), np.bincount(pt, lam / t, k)
        field = f.copy()
        field[K] = 0.5 * np.log(h0k / h1k)
        cap = b.cap(field, on_k)
        field[only0] = cap[0, only0]
        field[only1] = -cap[1, only1]
        risk = risk_adv(EXP, field, g, measure)
        gap = risk - dual_objective(EXP, m0, m1)
        if best is None or gap < best[0]:
            h0, h1 = EXP.phi(-field), EXP.phi(field)
            h0[K], h1[K] = h0k, h1k
            best = (gap, field, HPair(h0=h0, h1=h1), w)
        if gap <= tol:
            break
        # the exact tangent at each mass ratio that no cut lies within CUT_RTOL of
        mk0, mk1 = m0[K], m1[K]
        both = (mk0 > 0) & (mk1 > 0)
        want = np.clip(0.5 * (np.log(mk1, where=both, out=np.zeros(k))
                              - np.log(mk0, where=both, out=np.zeros(k))),
                       -LOG_T_MAX, LOG_T_MAX)
        near = np.full(k, np.inf)
        np.minimum.at(near, pt, np.abs(logt - want[pt]))
        new = np.flatnonzero(both & (near > CUT_RTOL))
        if new.size == 0:
            break
        lp.add_cuts(new, want[new])
    if best is None:
        raise CutProgramFailed("HiGHS solved no tangent-cut program to optimality")

    _, field, hpair, w = best
    c0, c1 = b.couplings(w)
    witness = Witness(g, measure, c0, c1, pushforward(c0), pushforward(c1))
    # the dual value of the couplings actually returned
    obj = dual_objective(EXP, witness.m0, witness.m1)
    return DualSolution(witness=witness, objective=obj, iterations=lp.iterations,
                        f=field, hpair=hpair)


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
