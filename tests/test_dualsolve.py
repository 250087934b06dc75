import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from advdual import dualsolve
from advdual.dualsolve import brute_dual, dual_objective, solve_dual
from advdual.errors import CutProgramFailed, InstanceTooLarge, NegativeMass
from advdual.ground import build_ground
from advdual.losses import get_loss
from advdual.measures import (
    SourceBalls,
    TwoClassMeasure,
    coupling_in_delta,
    greedy_attack,
    pushforward,
    winf_feasible,
)
from advdual.primalsolve import hpair_feasible, risk_adv, solve_exp_primal, theta

from test_acceptance import _random_instance, _scatter_l2


EXP = get_loss("exp")
LOG = get_loss("logistic")
HINGE = get_loss("hinge")
ZO = get_loss("zero-one")


def _hinted(g, measure):
    """The exponential dual pair read off the exponential primal's field."""
    return solve_dual(g, measure, solve_exp_primal(g, measure).f)


def _within_tol(sol, g, measure, tol=1e-6):
    """The returned pair meets solve_dual's stopping rule at its default
    tolerance."""
    return risk_adv(EXP, sol.f, g, measure) - sol.objective <= tol


def test_dual_objective_half_collision():
    # equal masses colliding at one point: s * cstar(1/2) = 1 * 1 for exp
    assert dual_objective(EXP, [0.5], [0.5]) == pytest.approx(1.0)
    assert dual_objective(LOG, [0.5], [0.5]) == pytest.approx(np.log(2.0))
    assert dual_objective(HINGE, [0.5], [0.5]) == pytest.approx(1.0)
    assert dual_objective(ZO, [0.5], [0.5]) == pytest.approx(0.5)


def test_dual_objective_disjoint_support():
    # masses never meet: cstar(0) = cstar(1) = 0 for all losses
    for loss in (EXP, LOG, HINGE, ZO):
        assert dual_objective(loss, [0.5, 0.0], [0.0, 0.5]) == 0.0


def test_dual_objective_partial_overlap():
    # zero-one: s * min(eta, 1 - eta) summed
    assert dual_objective(ZO, [0.3], [0.5]) == pytest.approx(0.3)


def test_dual_objective_rejects_negative():
    with pytest.raises(NegativeMass):
        dual_objective(EXP, [-0.1], [0.2])


def test_dual_objective_concave_along_segments():
    rng = np.random.default_rng(3)
    for loss in (EXP, LOG, HINGE, ZO):
        for _ in range(30):
            a0, a1 = rng.uniform(0, 1, (2, 5))
            b0, b1 = rng.uniform(0, 1, (2, 5))
            t = rng.uniform()
            mid = dual_objective(loss, t * a0 + (1 - t) * b0, t * a1 + (1 - t) * b1)
            assert mid >= t * dual_objective(loss, a0, a1) + \
                (1 - t) * dual_objective(loss, b0, b1) - 1e-12


def test_weak_duality_random_fields(twopoint):
    g, measure = twopoint
    rng = np.random.default_rng(5)
    sol = _hinted(g, measure)
    for loss in (EXP, LOG, HINGE):
        dual = dual_objective(loss, sol.witness.m0, sol.witness.m1)
        for _ in range(20):
            f = rng.normal(scale=2.0, size=g.n)
            assert risk_adv(loss, f, g, measure) >= dual - 1e-9


def test_solve_dual_twopoint_exp(twopoint):
    g, measure = twopoint
    sol = _hinted(g, measure)
    assert _within_tol(sol, g, measure)
    assert sol.objective == pytest.approx(1.0, abs=1e-8)
    # both class masses meet at the midpoint
    assert sol.witness.m0[2] == pytest.approx(0.5, abs=1e-8)
    assert sol.witness.m1[2] == pytest.approx(0.5, abs=1e-8)


def test_solve_dual_twopoint_zero_one(twopoint):
    g, measure = twopoint
    sol = _hinted(g, measure)
    assert dual_objective(ZO, sol.witness.m0, sol.witness.m1) == pytest.approx(0.5, abs=1e-8)


def test_solve_dual_eps_zero_is_pointwise():
    pts = np.array([[0.0], [0.3], [0.7]])
    g = build_ground(pts, "l2", 0.0)
    p0 = np.array([0.2, 0.1, 0.0])
    p1 = np.array([0.1, 0.3, 0.3])
    measure = TwoClassMeasure.build(p0, p1)
    sol = _hinted(g, measure)
    # no transport possible: marginals are the masses themselves
    assert np.allclose(sol.witness.m0, p0, atol=1e-12)
    assert np.allclose(sol.witness.m1, p1, atol=1e-12)
    assert sol.objective == pytest.approx(dual_objective(EXP, p0, p1), abs=1e-12)


def test_solution_couplings_feasible(oracle_instances):
    for name, g, measure in oracle_instances:
        sol = _hinted(g, measure)
        assert coupling_in_delta(g, sol.witness.c0), name
        assert coupling_in_delta(g, sol.witness.c1), name
        assert np.allclose(pushforward(sol.witness.c0), sol.witness.m0, atol=1e-12)
        assert np.allclose(pushforward(sol.witness.c1), sol.witness.m1, atol=1e-12)
        assert winf_feasible(g, measure.mass0, sol.witness.m0, g.epsilon + 1e-9)
        assert winf_feasible(g, measure.mass1, sol.witness.m1, g.epsilon + 1e-9)


def test_solve_dual_matches_brute(oracle_instances):
    # loss universality: the one exponential pair is optimal for every loss
    for name, g, measure in oracle_instances:
        sol = _hinted(g, measure)
        for loss in (EXP, LOG, HINGE, ZO):
            ref = brute_dual(loss, g, measure, grid_steps=60)
            value = dual_objective(loss, sol.witness.m0, sol.witness.m1)
            assert value >= ref - 2e-3, (name, loss.kind)


def test_brute_dual_twopoint(twopoint):
    g, measure = twopoint
    assert brute_dual(EXP, g, measure, grid_steps=60) == pytest.approx(1.0, abs=1e-3)


def test_brute_dual_too_large():
    g = build_ground(np.linspace(0, 1, 12)[:, None], "l2", 0.3)
    p = np.full(12, 1 / 24)
    measure = TwoClassMeasure.build(p, p)
    with pytest.raises(InstanceTooLarge):
        brute_dual(EXP, g, measure, grid_steps=200)


def test_solve_dual_deterministic(twopoint):
    g, measure = twopoint
    a = _hinted(g, measure)
    b = _hinted(g, measure)
    assert a.objective == b.objective
    assert np.array_equal(a.witness.m0, b.witness.m0) and np.array_equal(a.witness.m1, b.witness.m1)


def _assert_feasible_dual(g, measure, sol):
    assert coupling_in_delta(g, sol.witness.c0)
    assert coupling_in_delta(g, sol.witness.c1)
    assert np.allclose(pushforward(sol.witness.c0), sol.witness.m0, atol=1e-12)
    assert np.allclose(pushforward(sol.witness.c1), sol.witness.m1, atol=1e-12)
    assert np.allclose(sol.witness.c0.source_marginal(), measure.mass0, atol=1e-12)
    assert np.allclose(sol.witness.c1.source_marginal(), measure.mass1, atol=1e-12)


def test_hinted_dual_matches_brute(oracle_instances):
    for name, g, measure in oracle_instances:
        ps = solve_exp_primal(g, measure)
        sol = solve_dual(g, measure, ps.f)
        assert sol.objective >= brute_dual(EXP, g, measure, 60) - 2e-3, name
        _assert_feasible_dual(g, measure, sol)
        assert _within_tol(sol, g, measure), name
        assert sol.objective == dual_objective(EXP, sol.witness.m0, sol.witness.m1)
        assert sol.objective <= min(ps.risk, risk_adv(EXP, sol.f, g, measure)) + 1e-9, name


def test_hinted_dual_splits_tied_source():
    # the class-1 source at 1.5 ties between the meeting points 0.75 and
    # 2.25; the optimum splits it 1:2 like the class-0 masses it meets,
    # which a greedy read-off (all mass to one tied target) cannot do
    g = build_ground(np.array([[0.0], [0.75], [1.5], [2.25], [3.0]]), "l2", 0.75)
    measure = TwoClassMeasure.build([0.2, 0.0, 0.0, 0.0, 0.4],
                                    [0.0, 0.0, 0.3, 0.0, 0.0])
    ps = solve_exp_primal(g, measure)
    sol = solve_dual(g, measure, ps.f)
    assert sol.objective >= brute_dual(EXP, g, measure, 60) - 2e-3
    assert sol.objective == pytest.approx(2.0 * np.sqrt(0.3 * 0.6), abs=1e-6)
    assert sol.witness.m1[1] == pytest.approx(0.1, abs=1e-3)
    assert sol.witness.m1[3] == pytest.approx(0.2, abs=1e-3)
    _assert_feasible_dual(g, measure, sol)
    assert _within_tol(sol, g, measure)


def test_hinted_dual_single_class():
    g = build_ground(np.array([[0.0], [0.5], [1.0]]), "l2", 0.6)
    measure = TwoClassMeasure.build([0.0, 0.0, 0.0], [0.3, 0.0, 0.2])
    ps = solve_exp_primal(g, measure)
    sol = solve_dual(g, measure, ps.f)
    assert sol.objective == 0.0
    assert sol.witness.c0.w.size == 0
    _assert_feasible_dual(g, measure, sol)
    assert _within_tol(sol, g, measure)


def test_hinted_dual_infinite_scores():
    # the outer points see only one class within epsilon, so the primal
    # snaps them to -inf and +inf; the inner pair meets at 0.5
    g = build_ground(np.array([[-5.0], [0.0], [0.5], [1.0], [5.0]]), "l2", 0.6)
    measure = TwoClassMeasure.build([0.2, 0.25, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.25, 0.3])
    ps = solve_exp_primal(g, measure)
    assert ps.f[0] == -np.inf and ps.f[4] == np.inf
    sol = solve_dual(g, measure, ps.f)
    assert sol.objective >= brute_dual(EXP, g, measure, 60) - 2e-3
    assert sol.objective == pytest.approx(0.5, abs=1e-6)
    _assert_feasible_dual(g, measure, sol)
    assert _within_tol(sol, g, measure)


def test_solve_dual_replaces_unbalanced_hint(twopoint):
    # sigmoid(0.6) at the meeting point cannot balance the equal masses that
    # meet there, so the hint leaves slack against the optimal couplings;
    # the field read off the cut multipliers does not
    g, measure = twopoint
    hint = np.array([-1.0, 1.0, 0.3])
    sol = solve_dual(g, measure, hint)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert risk_adv(EXP, hint, g, measure) - sol.objective > 1e-6
    assert risk_adv(EXP, sol.f, g, measure) - sol.objective <= 1e-6
    assert _within_tol(sol, g, measure)


def test_one_sided_point_gets_binding_score(twopoint):
    # point 0 is reached by class 0 only; its score is the largest that
    # raises no class-0 ball maximum, so raising it raises the risk
    g, measure = twopoint
    sol = _hinted(g, measure)
    assert sol.f[0] == pytest.approx(sol.f[2], abs=1e-12)
    bent = sol.f.copy()
    bent[0] += 0.25
    assert risk_adv(EXP, bent, g, measure) > risk_adv(EXP, sol.f, g, measure) + 1e-3


def test_eta_star_bounds(oracle_instances):
    for _, g, measure in oracle_instances:
        sol = _hinted(g, measure)
        eta = sol.witness.eta_star()
        assert np.all(eta >= 0.0) and np.all(eta <= 1.0)


def _suite_first():
    """The first instance of criterion 01's suite and its primal seed."""
    g, measure = _random_instance(np.random.default_rng(12345))
    return g, measure, solve_exp_primal(g, measure).f


def _run_kinds(model):
    """Per run after the first, "price" if the run has more columns than the
    one before (a pricing re-solve), "cut" if it has more rows (a cut
    round)."""
    kinds = []
    for (r0, c0), (r1, c1) in zip(model.shapes, model.shapes[1:]):
        assert (c1 > c0) != (r1 > r0)
        kinds.append("price" if c1 > c0 else "cut")
    return kinds


def _first_program(g, measure, f):
    """The first cut program seeded by ``f``, with its seed cuts, not yet
    run."""
    b = SourceBalls(g, measure)
    lp = dualsolve._CutLP(b, f)
    lp.add_cuts(*dualsolve._seed_cuts(f[b.K]))
    return lp


def test_iterations_sum_every_run_and_warm_rounds_are_short(stalled_highs):
    # HiGHS reports the iterations of one run; the solve counts them all.
    # Each later run only adds cuts or edges and restarts from the last
    # basis.  The scatter seeded by the negated primal field starts from the
    # wrong ball extrema, so pricing adds edges
    g, measure, f = _suite_first()
    made = stalled_highs(0)
    sols = [solve_dual(g, measure, f, 1e-6)]
    g, measure = _scatter_l2()
    f = solve_exp_primal(g, measure).f
    sols.append(solve_dual(g, measure, -f, 1e-6))
    for model, sol in zip(made, sols):
        assert len(model.counts) > 2 and set(model.solvers) == {"simplex"}
        assert sol.iterations == sum(model.counts)
    assert set(_run_kinds(made[0])) == {"cut"}
    assert {"cut", "price"} <= set(_run_kinds(made[1]))
    # the first program starts at the greedy attack's vertex: at iteration
    # limit 0 its couplings are the greedy attack's, for the seed and its
    # negation
    for seed in (f, -f):
        lp = _first_program(g, measure, seed)
        lp.crash()
        lp.highs.setOptionValue("simplex_iteration_limit", 0)
        lp.highs.run()
        assert lp.highs.getInfo().simplex_iteration_count == 0
        w = np.zeros(lp.E)
        w[lp.cols] = np.asarray(lp.highs.getSolution().col_value)[3 * lp.k:]
        crashed = SourceBalls(g, measure).couplings(w)
        greedy = (greedy_attack(g, seed, measure.mass0), greedy_attack(g, -seed, measure.mass1))
        for c, ref in zip(crashed, greedy):
            for a in ("src", "dst", "w"):
                assert np.array_equal(getattr(c, a), getattr(ref, a))
    # and from there it takes fewer iterations than from the slack basis
    runs = []
    for crash in (True, False):
        lp = _first_program(g, measure, f)
        if crash:
            lp.crash()
        assert lp._run(4) is not None
        runs.append(lp.iterations)
    assert 0 < runs[0] < runs[1]


def test_simplex_strategy_of_each_round(stalled_highs):
    # the primal simplex for the first program; every cut round restarts
    # the dual simplex and every pricing re-solve the primal simplex.  Each
    # solve sets the greedy basis once, before its first run
    made = stalled_highs(0)
    g, measure, f = _suite_first()
    solve_dual(g, measure, f, 1e-6)
    g, measure = _scatter_l2()
    f = solve_exp_primal(g, measure).f
    solve_dual(g, measure, f, 1e-5)
    solve_dual(g, measure, -f, 1e-5)
    small, large, priced = made
    assert small.strategies[0] == 4 and len(small.strategies) > 1
    assert large.strategies[0] == priced.strategies[0] == 4
    kinds = {"cut": 1, "price": 4}
    for model in made:
        assert [kinds[kind] for kind in _run_kinds(model)] == model.strategies[1:]
        assert model.bases == [0]
    assert "cut" in _run_kinds(large) and "price" in _run_kinds(priced)


def test_stalled_crash_started_simplex_is_solved_by_ipm(stalled_highs):
    # the scatter's crash-started first simplex run ends without a status;
    # the interior point rerun from the same model certifies, and the basis
    # is set only before that first run
    g, measure = _scatter_l2()
    f = solve_exp_primal(g, measure).f
    made = stalled_highs(1)
    sol = solve_dual(g, measure, f, 1e-4)
    (model,) = made
    assert model.bases == [0] and model.solvers[:2] == ["simplex", "ipm"]
    assert risk_adv(EXP, sol.f, g, measure) - sol.objective <= 1e-4
    assert hpair_feasible(EXP, sol.hpair.h0, sol.hpair.h1)
    _assert_feasible_dual(g, measure, sol)


def test_stalled_simplex_is_solved_again_by_ipm(stalled_highs):
    # the first program's simplex run ends without a status; the interior
    # point rerun is its only optimal run, and its pair certifies
    g, measure, f = _suite_first()
    ref = solve_dual(g, measure, f, 1e-4)
    made = stalled_highs(1)
    sol = solve_dual(g, measure, f, 1e-4)
    (model,) = made
    assert model.solvers == ["simplex", "ipm"]
    info = model.getInfo()
    assert info.ipm_iteration_count > 0
    assert sol.iterations == info.simplex_iteration_count + info.ipm_iteration_count
    assert risk_adv(EXP, sol.f, g, measure) - sol.objective <= 1e-4
    assert hpair_feasible(EXP, sol.hpair.h0, sol.hpair.h1)
    assert theta(EXP, sol.hpair, g, measure) >= risk_adv(EXP, sol.f, g, measure) - 1e-12
    assert sol.objective == pytest.approx(ref.objective, abs=1e-4)
    _assert_feasible_dual(g, measure, sol)


def test_solver_set_back_to_simplex_after_ipm(stalled_highs):
    g, measure, f = _suite_first()
    made = stalled_highs(1)
    sol = solve_dual(g, measure, f, 1e-6)
    (model,) = made
    assert model.solvers[:3] == ["simplex", "ipm", "simplex"]
    assert set(model.solvers[2:]) == {"simplex"}
    assert risk_adv(EXP, sol.f, g, measure) - sol.objective <= 1e-6


def test_no_solved_program_raises(stalled_highs, twopoint):
    g, measure = twopoint
    made = stalled_highs(10**6)
    with pytest.raises(CutProgramFailed):
        solve_dual(g, measure, np.zeros(g.n))
    (model,) = made
    assert model.solvers == ["simplex", "ipm"]


# ---------------------------------------------------------------------------
# edge pricing: the program on the priced edges is the program on all edges
# ---------------------------------------------------------------------------

def _full_program(lp, g, measure):
    """The rows of ``lp``'s program with one column per edge of both
    classes, read off the neighbor lists: columns m0, m1 and z per point of
    K, then class 0's edges and class 1's, each class's sources ascending.
    Returns the cost, the equalities and their right side, and the cut rows
    (each <= 0)."""
    k, src_row, dst, cls, p = lp.k, [], [], [], []
    for c, mass in enumerate((measure.mass0, measure.mass1)):
        sources = np.flatnonzero(mass > 0)
        indptr, d = g.neighbor_csr(sources)
        src_row.append(sum(q.size for q in p) + np.repeat(np.arange(sources.size),
                                                          np.diff(indptr)))
        dst.append(d)
        cls.append(np.full(d.size, c))
        p.append(mass[sources])
    src_row, dst, cls, p = map(np.concatenate, (src_row, dst, cls, p))
    ns = p.size
    pos = np.full(g.n, -1)
    pos[np.intersect1d(dst[cls == 0], dst[cls == 1])] = np.arange(k)
    tie = ns + cls * k + pos[dst]
    into, col = pos[dst] >= 0, 3 * k + dst.size
    edge = 3 * k + np.arange(dst.size)
    # +1 for m in its tie row; per edge +1 in its source row and -1 in the
    # tie row of its destination, if that is in K
    rows = np.concatenate([ns + np.arange(2 * k), src_row, tie[into]])
    cols = np.concatenate([np.arange(2 * k), edge, edge[into]])
    vals = np.concatenate([np.ones(2 * k + dst.size), -np.ones(into.sum())])
    A_eq = sp.csr_matrix((vals, (rows, cols)), shape=(ns + 2 * k, col))
    b_eq = np.concatenate([p, np.zeros(2 * k)])
    c, t = lp.pt.size, np.exp(lp.logt)
    A_ub = sp.csr_matrix((np.concatenate([np.ones(c), -t, -1.0 / t]),
                          (np.tile(np.arange(c), 3),
                           np.concatenate([2 * k + lp.pt, lp.pt, k + lp.pt]))),
                         shape=(c, col))
    cost = np.concatenate([np.zeros(2 * k), -np.ones(k), np.zeros(col - 3 * k)])
    return cost, A_eq, b_eq, A_ub


def _pricing_cases():
    """The suite's first instance and the scatter with their primal seeds,
    and the scatter seeded by the negated field, which starts from the
    wrong ball extrema, so that pricing adds edges."""
    g, measure, f = _suite_first()
    yield "suite first", g, measure, f
    g, measure = _scatter_l2()
    f = solve_exp_primal(g, measure).f
    yield "scatter l2", g, measure, f
    yield "scatter l2 negated seed", g, measure, -f


def test_no_left_out_edge_prices_out_after_any_program(monkeypatch):
    # the reduced costs are recomputed on the all-edge rows from HiGHS's
    # row duals at the end of every program the solve makes
    ends = []
    real = dualsolve._CutLP.solve

    def solve(lp):
        out = real(lp)
        ends.append((lp, np.asarray(lp.highs.getSolution().row_dual),
                     lp.in_model.copy()))
        return out

    monkeypatch.setattr(dualsolve._CutLP, "solve", solve)
    for name, g, measure, f in _pricing_cases():
        ends.clear()
        solve_dual(g, measure, f, 1e-6 * measure.total)
        assert len(ends) > 1, name
        for lp, y, in_model in ends:
            cost, A_eq, _, _ = _full_program(lp, g, measure)
            reduced = (cost - A_eq.T @ y[:A_eq.shape[0]])[3 * lp.k:]
            assert reduced[~in_model].min(initial=np.inf) >= -lp.dual_tol, name
            # the edges in the model are optimal too
            assert reduced[in_model].min() >= -lp.dual_tol, name


@pytest.mark.parametrize("case", [0, 1, 2],
                         ids=["suite first", "scatter l2", "scatter l2 negated seed"])
def test_first_priced_program_equals_all_edge_program(case):
    name, g, measure, f = list(_pricing_cases())[case]
    lp = _first_program(g, measure, f)
    assert lp.solve() is not None
    cost, A_eq, b_eq, A_ub = _full_program(lp, g, measure)
    ref = linprog(cost, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=A_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": dualsolve.FEAS_TOL})
    assert ref.status == 0
    value = lp.highs.getInfo().objective_function_value
    assert abs(value - ref.fun) <= 1e-9 * measure.total, (name, value, ref.fun)


def test_scatter_first_model_holds_fewer_edges_than_the_edge_set():
    g, measure = _scatter_l2()
    f = solve_exp_primal(g, measure).f
    b = SourceBalls(g, measure)
    lp = dualsolve._CutLP(b, f)
    edge_cols = lp.highs.getNumCol() - 3 * lp.k
    assert edge_cols == lp.cols.size == lp.in_model.sum()
    assert edge_cols < lp.E == b.ix.size
    # every source keeps at least its ball-extremum edge
    assert np.all(np.bincount(lp.src_row[lp.cols], minlength=b.src.size) > 0)
