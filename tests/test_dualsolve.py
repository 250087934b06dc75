import hashlib
import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from advdual import dualsolve, measures, primalsolve
from advdual.certify import certify, universality_check
from advdual.cli import _pipeline
from advdual.dualsolve import brute_dual, dual_objective, solve_dual
from advdual.errors import InstanceTooLarge, NegativeMass
from advdual.ground import build_ground
from advdual.losses import get_loss
from advdual.measures import (
    SourceBalls,
    TwoClassMeasure,
    coupling_in_delta,
    pushforward,
    winf_feasible,
)
from advdual.primalsolve import eta_hat, hpair_feasible, risk_adv, solve_exp_primal, theta

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


def test_dual_objective_keeps_the_digits_of_the_small_share():
    # masses twelve decades apart: 1 - eta formed by subtraction kept about
    # four digits here, a relative error of 1e-4; each loss's value matches
    # its closed form in the two masses to a relative 1e-12
    m0, m1 = 1e-12, 3.0
    s = m0 + m1
    closed = {EXP: 2.0 * np.sqrt(m0 * m1), HINGE: 2.0 * m0, ZO: m0,
              LOG: m0 * np.log(s / m0) + m1 * np.log1p(m0 / m1)}
    for loss, value in closed.items():
        for pair in ((m0, m1), (m1, m0)):
            got = dual_objective(loss, [pair[0]], [pair[1]])
            assert got == pytest.approx(value, rel=1e-12, abs=0), (loss.kind, pair)


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
    """The first instance of criterion 01's suite and its primal field."""
    g, measure = _random_instance(np.random.default_rng(12345))
    return g, measure, solve_exp_primal(g, measure).f


def _cases():
    """The suite's first instance and the 400-point l2 scatter with their
    primal fields, and the scatter with the negated field, whose level sets
    are not levels."""
    g, measure, f = _suite_first()
    yield "suite first", g, measure, f
    g, measure = _scatter_l2()
    f = solve_exp_primal(g, measure).f
    yield "scatter l2", g, measure, f
    yield "scatter l2 negated seed", g, measure, -f


CASE_IDS = ["suite first", "scatter l2", "scatter l2 negated seed"]


def _two_levels():
    """Four points one apart on a line at epsilon 1.  Class 0 holds 0.3 at
    point 0 and 0.1 at point 3, class 1 0.1 at point 1 and 0.3 at point 3.
    The class-1 ball of point 1 holds point 2, which the class-0 ball of
    point 3 holds, but no class-1 ball of point 3 meets the class-0 ball of
    point 0: the optimum is eta 1/4 on points 0 and 1 and 3/4 on points 2
    and 3."""
    g = build_ground(np.array([[0.0], [1.0], [2.0], [3.0]]), "l2", 1.0)
    return g, TwoClassMeasure.build([0.3, 0.0, 0.0, 0.1], [0.0, 0.1, 0.0, 0.3])


def _tiny_and_unit():
    """Masses of 1e-12 and 1 on six points a half apart at epsilon 0.5: the
    int32 capacities of one level are twelve decades apart."""
    g = build_ground(np.arange(6.0)[:, None] / 2, "l2", 0.5)
    return g, TwoClassMeasure.build([1.0, 1e-12, 0.0, 1.0, 0.0, 1e-12],
                                    [1e-12, 0.0, 1.0, 1e-12, 1.0, 0.0])


def _record_routes(monkeypatch):
    """Record, per flow either solve routes, the number of nodes in its
    blocks and the number its residual graph reaches."""
    routes, real = [], measures.route

    def route(tail, head, block, need):
        out, reach, runs = real(tail, head, block, need)
        routes.append((int(np.sum(block >= 0)), int(reach.sum())))
        return out, reach, runs

    for module in (primalsolve, dualsolve):
        monkeypatch.setattr(module, "route", route)
    return routes


@pytest.mark.parametrize("case", [0, 1, 2], ids=CASE_IDS)
def test_level_couplings_balance_at_the_level_ratio(case):
    # on the primal's field every level's flow saturates: each point the
    # couplings reach holds m1 / (m0 + m1) equal to its level ratio, and
    # each source sends exactly its mass.  The negated field's level sets
    # are not levels: its couplings are still a sound witness, below the
    # optimum
    name, g, measure, f = list(_cases())[case]
    sol = solve_dual(g, measure, f)
    _assert_feasible_dual(g, measure, sol)
    if name.endswith("negated seed"):
        best = solve_dual(g, measure, -f).objective
        assert sol.objective < best - 1e-3 * measure.total
        return
    w = sol.witness
    reached = w.m0 + w.m1 > 0
    np.testing.assert_allclose(w.eta_star()[reached], eta_hat(sol.f)[reached],
                               rtol=0, atol=1e-12)
    assert risk_adv(EXP, sol.f, g, measure) - sol.objective <= 1e-12 * measure.total


def _all_edge_flow(b, block, need):
    """The largest flow the nodes of ``SourceBalls.arcs`` can send at their
    needs ``need``, within their blocks ``block``, along every entry of the
    ball layout, the entries off K included, by a linear program: one
    uncapped arc per entry, from a class-1 source to its ball point or from
    a ball point to its class-0 source, and conservation at every point.
    A point off K is in every block."""
    ns, n = b.src.size, b.n
    node = np.full(n, -1)
    node[b.K] = ns + np.arange(b.K.size)
    point_block = np.where(node >= 0, block[np.maximum(node, 0)], -2)
    src_block = block[b.seg]
    keep = np.flatnonzero((src_block >= 0) & ((point_block[b.ix] == src_block)
                                              | (point_block[b.ix] == -2)))
    one = keep >= b.split
    arc = np.arange(keep.size)
    sign = np.where(one, 1.0, -1.0)
    # per point, what flows in minus what flows out; per source, what it sends
    A_eq = sp.csr_array((sign, (b.ix[keep], arc)), shape=(n, keep.size))
    A_ub = sp.csr_array((np.ones(keep.size), (b.seg[keep], arc)), shape=(ns, keep.size))
    ref = linprog(-one.astype(float), A_ub=A_ub, b_ub=np.abs(need[:ns]), A_eq=A_eq,
                  b_eq=np.zeros(n), bounds=(0, None), method="highs")
    assert ref.status == 0
    return -ref.fun


@pytest.mark.parametrize("case", [0, 1, 2], ids=CASE_IDS)
def test_first_priced_program_equals_all_edge_program(case, monkeypatch):
    # the dual's first max-flow runs on the arcs onto K only, at the needs
    # of its levels (for the negated field, its level sets, which do not
    # saturate); the flow it sends, per unit mass, equals that of the flow
    # program on every edge of the layout, as no point one class reaches
    # passes flow on, and it serves no source beyond its need
    name, g, measure, f = list(_cases())[case]
    b = SourceBalls(g, measure)
    first, real = [], measures.route

    def route(tail, head, block, need):
        out, reach, runs = real(tail, head, block, need)
        if not first:
            first.append((block, need, out[head >= b.src.size].sum()))
        return out, reach, runs

    monkeypatch.setattr(dualsolve, "route", route)
    solve_dual(g, measure, f)
    ((block, need, sent),) = first
    assert sent > 0
    assert abs(sent - _all_edge_flow(b, block, need)) <= 1e-9, (name, sent)


def _prices(sol):
    """Per entry of the ball layout, the rise of the exponential dual value
    per unit of its class's mass moved to the entry's point: sqrt(m0 / m1)
    for class 1 and sqrt(m1 / m0) for class 0, 0 where the other class has
    no mass and infinite where only it has.  And per source, the least
    rise among the points it sends mass to."""
    b, w = sol.witness.balls, sol.witness
    m = np.stack((w.m0, w.m1))
    cls = (np.arange(b.ix.size) >= b.split).astype(int)
    mine, other = m[cls, b.ix], m[1 - cls, b.ix]
    with np.errstate(divide="ignore", invalid="ignore"):
        price = np.where(other > 0, np.sqrt(other / mine), 0.0)
    least = np.full(b.src.size, np.inf)
    for k, c, first, last in ((0, w.c0, 0, b.nsrc0), (1, w.c1, b.nsrc0, b.src.size)):
        sent = c.w > 0
        src = first + np.searchsorted(b.src[first:last], c.src[sent])
        dst = c.dst[sent]
        np.minimum.at(least, src, np.sqrt(m[1 - k, dst] / m[k, dst]))
    return price, least


def test_no_left_out_edge_prices_out_after_any_program():
    # the max-flows run on the entries onto K; moving mass along any other
    # entry of the layout, to a point the other class never reaches, adds
    # nothing to the exponential dual value.  On the primal's field no
    # entry at all would add more than the points each source sends to:
    # the couplings are optimal on the whole edge set.  The negated field's
    # level sets are not levels, and only the left-out entries price out
    left = 0
    for name, g, measure, f in _cases():
        sol = solve_dual(g, measure, f)
        b = sol.witness.balls
        price, least = _prices(sol)
        left_out = ~b.on_k[b.ix]
        left += left_out.sum()
        assert np.all(price[left_out] == 0.0), name
        if name.endswith("negated seed"):
            assert np.any(price > least[b.seg] * (1.0 + 1e-9)), name
        else:
            assert np.all(price <= least[b.seg] * (1.0 + 1e-9)), name
    assert left > 0


@pytest.mark.parametrize("case", [0, 1, 2], ids=CASE_IDS)
def test_no_capacity_exceeds_int32(case, monkeypatch):
    # maximum_flow reads int32 capacities, and a wider one would wrap: every
    # capacity handed to it is between 0 (an arc's reverse) and FLOW_INF =
    # 2^30, on these instances, on masses twelve decades apart and at a
    # total mass of 1e200
    seen, real = [], measures.maximum_flow

    def record(cap, *args, **kwargs):
        seen.append(cap.data.copy())
        return real(cap, *args, **kwargs)

    monkeypatch.setattr(measures, "maximum_flow", record)
    name, g, measure, f = list(_cases())[case]
    huge = TwoClassMeasure.build(1e200 * measure.mass0, 1e200 * measure.mass1)
    solve_dual(g, measure, f)
    for g, measure in ((g, huge), _tiny_and_unit()):
        solve_dual(g, measure, solve_exp_primal(g, measure).f)
    assert len(seen) > 3
    for data in seen:
        assert data.dtype == np.int32
        assert data.min() >= 0 and data.max() <= measures.FLOW_INF < 2 ** 31 - 1


def test_tiny_and_unit_masses_certify_at_round_off():
    # the second max-flow of each level routes its int32 rounding: every
    # loss certifies at 1e-12 per unit mass, and the tiny sources send
    # exactly their mass
    g, measure = _tiny_and_unit()
    ds, _ = _pipeline(g, measure, 1e-4)
    result = universality_check(ds.f, ds.witness, ["exp", "logistic", "hinge", "zero-one"])
    for kind, cert in result.certificates.items():
        assert cert.gap <= 1e-12 * measure.total, (kind, cert.gap)
    assert result.support_violation == 0.0
    _assert_feasible_dual(g, measure, ds)
    for c, p in ((ds.witness.c0, measure.mass0), (ds.witness.c1, measure.mass1)):
        sent = c.source_marginal()
        assert np.all(np.abs(sent - p) <= 1e-15 * np.maximum(p, 1e-300) + 1e-28)


def test_two_level_instance_splits_once(monkeypatch):
    # the primal's first flow, on all 8 nodes (4 sources, 4 points), reaches
    # the upper level's 4 and splits it off; the second runs both parts'
    # terminal flows at once, each part at its own ratio, and reaches
    # nothing: both are levels.  Each flow is one max-flow and, where the
    # int32 rounding left a shortfall, one more.  The dual routes one flow
    # on both levels
    routes = _record_routes(monkeypatch)
    g, measure = _two_levels()
    ps = solve_exp_primal(g, measure)
    assert routes == [(8, 4), (8, 0)] and 2 <= ps.iterations <= 4
    np.testing.assert_allclose(eta_hat(ps.f), [0.25, 0.25, 0.75, 0.75], rtol=0, atol=1e-15)
    routes.clear()
    ds = solve_dual(g, measure, ps.f)
    assert routes == [(8, 0)] and 1 <= ds.iterations <= 2
    assert np.array_equal(ds.f, ps.f)
    assert ds.objective == pytest.approx(0.4 * np.sqrt(3.0), abs=1e-15)
    assert ps.risk == pytest.approx(0.4 * np.sqrt(3.0), abs=1e-15)
    # the class-1 source at point 1 sends nothing to point 2, on the upper level
    c1 = ds.witness.c1
    assert c1.w[(c1.src == 1) & (c1.dst == 2)].sum() == 0.0


@pytest.mark.parametrize("case", [0, 1], ids=CASE_IDS[:2])
def test_pair_is_exact(case):
    # the level field and its couplings: gap at round-off, the pair
    # (phi(-f), phi(f)) feasible and its theta the field's risk
    name, g, measure, f = list(_cases())[case]
    sol = solve_dual(g, measure, f)
    risk = risk_adv(EXP, sol.f, g, measure)
    assert abs(risk - sol.objective) <= 1e-12 * measure.total, name
    assert hpair_feasible(EXP, sol.hpair.h0, sol.hpair.h1)
    assert theta(EXP, sol.hpair, g, measure) == pytest.approx(risk, rel=1e-14)


def test_dual_of_the_primal_field_reproduces_it():
    # the dual pools each level of the primal's field at the same ratio, so
    # its field is the primal's, bit for bit
    g, measure, f = _suite_first()
    assert np.array_equal(solve_dual(g, measure, f).f, f)


def test_iterations_count_every_max_flow_and_repairs_are_short(monkeypatch):
    # the primal counts its splits and level tests, the dual its level
    # flows and repairs: together every call of maximum_flow.  A repair
    # runs on top of the first flow of its route and is short: the first
    # flow rounds each need down, so the repair sends less than a unit of
    # it per need, and each unit sent leaves one node and reaches another.
    # A route replayed with a second max-flow that sends nothing gives its
    # first flow alone
    calls, repairs, seen = [], [], []
    real_flow, real_route = measures.maximum_flow, measures.route

    def count(*args, **kwargs):
        calls.append(1)
        return real_flow(*args, **kwargs)

    def first_only(graph, *args, **kwargs):
        seen.append(1)
        if len(seen) == 2:
            return types.SimpleNamespace(flow=types.SimpleNamespace(
                data=np.zeros(graph.data.size, dtype=np.int32)))
        return real_flow(graph, *args, **kwargs)

    def route(tail, head, block, need):
        flow, reach, runs = real_route(tail, head, block, need)
        if runs == 2:
            seen.clear()
            monkeypatch.setattr(measures, "maximum_flow", first_only)
            first, _, _ = real_route(tail, head, block, need)
            monkeypatch.setattr(measures, "maximum_flow", count)
            moved = flow - first
            sent = np.bincount(tail, moved, block.size) - np.bincount(head, moved, block.size)
            # a rounding unit of the first flow per node with a need
            on = block >= 0
            total = np.bincount(block[on], np.abs(need[on]))
            units = measures.FLOW_UNITS / total[block[on & (need != 0)]]
            repairs.append((np.abs(sent).sum(), 2.0 * np.sum(1.0 / units)))
        return flow, reach, runs

    monkeypatch.setattr(measures, "maximum_flow", count)
    for module in (primalsolve, dualsolve):
        monkeypatch.setattr(module, "route", route)
    for name, g, measure, f in list(_cases())[:2]:
        calls.clear()
        ps = solve_exp_primal(g, measure)
        ds = solve_dual(g, measure, ps.f)
        assert ps.iterations + ds.iterations == len(calls), name
        assert ds.iterations <= 2 * ps.iterations, name
    assert any(moved > 0 for moved, _ in repairs)
    for moved, units in repairs:
        assert moved <= units * (1.0 + 1e-9)


def test_zero_field_pools_to_the_twopoint_optimum(twopoint):
    # every node of the zero field is on one level, which pools to eta 1/2
    # at the midpoint: the optimum
    g, measure = twopoint
    sol = solve_dual(g, measure, np.zeros(g.n))
    assert sol.objective == pytest.approx(1.0, abs=1e-15)
    assert risk_adv(EXP, sol.f, g, measure) == pytest.approx(1.0, abs=1e-15)


def test_no_solved_program_raises(twopoint, monkeypatch):
    # a max-flow that fails fails the solve: neither solve returns a field
    # or couplings without the flows they rest on
    def fail(*args, **kwargs):
        raise RuntimeError("no max-flow solved")

    g, measure = twopoint
    monkeypatch.setattr(measures, "maximum_flow", fail)
    with pytest.raises(RuntimeError, match="no max-flow solved"):
        solve_dual(g, measure, np.zeros(g.n))
    with pytest.raises(RuntimeError, match="no max-flow solved"):
        solve_exp_primal(g, measure)


def test_scatter_first_model_holds_fewer_edges_than_the_edge_set():
    # the graph of every max-flow: one uncapped arc per entry that lands on
    # K, fewer than the edge set.  Class-1 sources point to their ball
    # points and ball points to their class-0 sources, and every source
    # whose ball meets K keeps an arc
    g, measure = _scatter_l2()
    b = SourceBalls(g, measure)
    e, tail, head = b.arcs
    assert np.array_equal(e, np.flatnonzero(b.on_k[b.ix])) and e.size < b.ix.size
    ns = b.src.size
    one = e >= b.split
    assert np.all(tail[one] < ns) and np.all(head[one] >= ns)
    assert np.all(tail[~one] >= ns) and np.all(head[~one] < ns)
    assert np.array_equal(np.where(one, head, tail) - ns, np.searchsorted(b.K, b.ix[e]))
    meets = np.add.reduceat(b.on_k[b.ix], b.starts) > 0
    assert np.array_equal(np.bincount(b.seg[e], minlength=ns) > 0, meets) and meets.any()


# masses 1 and 1e-6, 1 and 1e-12, and all three on a line
CLOSURES = [
    ([1.42, 0.17, 0.61, 0.83, 1.12, 1.37, 0.15, 0.87, 0.42, 1.95, 0.1, 0.64, 0.52, 0.26], 0.3,
     [0, 0, 1e-6, 1, 1e-6, 1e-6, 0, 1e-6, 1e-6, 1e-6, 1e-6, 0, 1, 1e-6],
     [1e-6, 1, 0, 0, 0, 0, 1e-6, 0, 0, 0, 0, 1, 0, 0]),
    ([0.15, 0.39, 0.8, 1.5, 1.03, 0.9, 0.98, 1.96, 0.51, 1.76, 0.21, 1.06, 1.8, 1.28, 0.17, 0.63],
     0.2, [0, 0, 1e-6, 0, 0, 1, 1e-6, 1e-6, 0, 0, 1e-6, 1e-6, 0, 1e-6, 0, 0],
     [1e-6, 1, 0, 1, 1e-6, 0, 0, 0, 1e-6, 1, 0, 0, 1e-6, 0, 1e-6, 1]),
    ([1.8, 1.79, 1.87, 0.51, 0.0, 0.78, 1.93, 1.53, 0.12, 1.41, 1.83, 1.94, 1.43], 0.3,
     [1, 0, 0, 1, 0, 0, 1e-12, 1e-12, 1, 1e-12, 0, 1e-12, 1e-12],
     [0, 1e-12, 1e-12, 0, 1e-12, 1, 0, 0, 0, 0, 1e-12, 0, 0]),
    ([1.62, 1.51, 0.23, 1.07, 0.97, 1.89, 0.33, 1.91, 0.68, 0.19, 1.64, 1.42, 1.67, 0.02, 0.9,
      0.28, 0.98, 1.91, 0.48, 1.33, 0.16, 0.08, 0.7, 1.64, 0.49, 1.99, 1.71, 0.62, 1.61, 1.89,
      0.93, 1.06, 1.01, 1.45, 1.94, 2.0, 1.2, 1.68, 1.17], 0.5,
     [0, 1e-6, 1e-12, 0, 0, 1, 1e-12, 0, 1e-6, 0, 1e-12, 0, 1, 1e-6, 0, 0, 0, 0, 1e-6, 1e-6,
      1e-12, 0, 1e-6, 1e-12, 1e-6, 0, 1, 0, 0, 1, 1e-6, 1, 0, 0, 0, 0, 1e-12, 1e-12, 1e-6],
     [1e-6, 0, 0, 1e-12, 1e-12, 0, 0, 1e-6, 0, 1, 0, 1e-6, 0, 0, 1e-12, 1e-12, 1e-6, 1e-6, 0,
      0, 0, 1e-6, 0, 0, 0, 1, 0, 1e-6, 1e-6, 0, 0, 0, 1e-6, 1e-12, 1e-6, 1e-6, 0, 0, 0]),
]
CLOSURE_IDS = ["14 points", "16 points", "13 points", "39 points"]


def _closure_instance(points, eps, mass0, mass1):
    return build_ground(np.array(points)[:, None], "l2", eps), TwoClassMeasure.build(mass0, mass1)


@pytest.mark.parametrize("points, eps, mass0, mass1", CLOSURES, ids=CLOSURE_IDS)
def test_closures_below_the_int32_rounding_nest(points, eps, mass0, mass1):
    # masses 1 and 1e-6 on a line: a closure of 1e-6 masses can weigh less
    # than the first max-flow's rounding.  Without the second max-flow it
    # lands on the wrong side of a split, the levels stop nesting, and the
    # dual's levels of the field no longer match the primal's: these gaps
    # were 0.35 per unit mass and infinite.  Masses 1 and 1e-12: at an
    # extreme share a block's gains sum to about 1e-12 of its mass, so a
    # split judged against the block's mass, not its gains, is never made
    # (a gap of 4.8e-8 per unit mass).  Masses 1, 1e-6 and 1e-12: a closure
    # of 1e-12 masses below even the second max-flow's resolution is left
    # out of place, and unless ``nest`` pools it back, the dual puts a unit
    # source on its level (a gap of 143 per unit mass)
    g, measure = _closure_instance(points, eps, mass0, mass1)
    ps = solve_exp_primal(g, measure)
    ds = solve_dual(g, measure, ps.f)
    assert np.array_equal(ds.f, ps.f)
    assert abs(certify(EXP, ds.f, ds.witness).gap) <= 1e-12 * measure.total


def test_a_level_near_one_half_certifies_at_round_off():
    # the 14-point case has a level at eta 0.499999375: snapped to one half
    # before the pointwise minimizers, it read a gap of 7.8e-13 per unit mass.
    # The 2-point level at eta 1/2 + 2.5e-13 read hinge and zero-one gaps of
    # 1e-12 and 5e-13 per unit mass while any eta within 1e-12 of one half
    # was taken as one half
    for case in (CLOSURES[0], ([0.0, 0.1], 0.2, [1, 0], [0, 1 + 1e-12])):
        g, measure = _closure_instance(*case)
        ds, _ = _pipeline(g, measure, 1e-4)
        result = universality_check(ds.f, ds.witness,
                                    ["exp", "logistic", "hinge", "zero-one"])
        for kind, cert in result.certificates.items():
            assert abs(cert.gap) <= 1e-15 * measure.total, (g.n, kind, cert.gap)


def _handover_cases():
    for case in CLOSURES:
        yield _closure_instance(*case)
    yield _suite_first()[:2]
    yield _scatter_l2()


@pytest.mark.parametrize("case", range(6), ids=CLOSURE_IDS + CASE_IDS[:2])
def test_pipeline_reads_the_couplings_off_the_primal_flows(case, monkeypatch):
    # the pipeline builds one layout, and its dual reuses the flows that
    # closed the primal's levels: the same couplings, field and
    # certificates as the dual of the field alone, which routes every level
    # again.  Only the 39-point case has levels that nest pooled, and the
    # pipeline's dual routes those alone
    g, measure = list(_handover_cases())[case]
    layouts, routed = [], []
    real_init, real_route = SourceBalls.__init__, measures.route

    def route(tail, head, block, need):
        routed.append(block >= 0)
        return real_route(tail, head, block, need)

    monkeypatch.setattr(SourceBalls, "__init__", lambda *a: layouts.append(1) or real_init(*a))
    monkeypatch.setattr(dualsolve, "route", route)
    ds, prov = _pipeline(g, measure, 1e-4)
    assert len(layouts) == 1
    ps = solve_exp_primal(g, measure)
    _, level = np.unique(ps.odds, return_inverse=True)
    share = primalsolve.shares(primalsolve.masses(ps.balls), level)
    pooled = ~ps.settled & (share[0] > 0) & (share[1] > 0)
    assert pooled.any() == (case == CLOSURE_IDS.index("39 points"))
    if pooled.any():
        assert len(routed) == 1 and np.array_equal(routed[0], pooled)
        assert 1 <= prov["dual_iterations"] <= 2
    else:
        assert routed == [] and prov["dual_iterations"] == 0
    bare = solve_dual(g, measure, ps.f)
    assert np.array_equal(ds.f, bare.f)
    for mine, ref in ((ds.witness.c0, bare.witness.c0), (ds.witness.c1, bare.witness.c1)):
        for key in ("src", "dst", "w"):
            assert np.array_equal(getattr(mine, key), getattr(ref, key)), key
    losses = ["exp", "logistic", "hinge", "zero-one"]
    assert universality_check(ds.f, ds.witness, losses).certificates \
        == universality_check(bare.f, bare.witness, losses).certificates


def test_a_primal_solution_of_another_instance_is_read_as_its_field(twopoint):
    # the flows of a primal solution are used on its own instance only
    g, measure = twopoint
    ps = solve_exp_primal(g, measure)
    other = TwoClassMeasure.build(2.0 * measure.mass0, measure.mass1)
    ds, ref = solve_dual(g, other, ps), solve_dual(g, other, ps.f)
    assert ds.witness.balls.measure is other and ds.iterations == ref.iterations > 0
    assert np.array_equal(ds.witness.m0, ref.witness.m0)
    assert np.array_equal(ds.witness.m1, ref.witness.m1)


def _reweighted():
    """The 400-point l2 scatter, each class's points given mass 1 / (2 n_c)
    for its n_c points: both classes weigh 1/2."""
    g, measure = _scatter_l2()
    m0, m1 = (m > 0 for m in (measure.mass0, measure.mass1))
    return g, TwoClassMeasure.build(m0 / (2 * m0.sum()), m1 / (2 * m1.sum()))


@pytest.mark.parametrize("case", [0, 1], ids=["equal masses", "class-reweighted masses"])
def test_whole_masses_run_one_max_flow_per_route(case, monkeypatch):
    # each class's masses are whole multiples of its least one, so every
    # gain is a whole number and every route's first max-flow is exact: no
    # repair, in the primal or in the dual of the field alone.  Every loss
    # certifies at round-off, and the support check reads exactly 0
    g, measure = (_scatter_l2, _reweighted)[case]()
    runs, real = [], measures.route

    def route(*args):
        out = real(*args)
        runs.append(out[2])
        return out

    for module in (primalsolve, dualsolve):
        monkeypatch.setattr(module, "route", route)
    ds, prov = _pipeline(g, measure, None)
    bare = solve_dual(g, measure, ds.f)
    assert len(runs) == prov["primal_iterations"] + bare.iterations > 3
    assert set(runs) == {1} and prov["dual_iterations"] == 0
    losses = ["exp", "logistic", "hinge", "zero-one"]
    for sol in (ds, bare):
        result = universality_check(sol.f, sol.witness, losses)
        for kind, cert in result.certificates.items():
            assert abs(cert.gap) <= 1e-15 * measure.total, (kind, cert.gap)
        assert result.support_violation == 0.0


def test_random_masses_keep_the_rounded_flows(monkeypatch):
    # uniform random masses are no whole multiples of their least one: the
    # suite's first instance routes its one block as before whole gains
    # existed, a first max-flow and its repair, to the same couplings, bit
    # for bit (their digest was recorded then)
    g, measure, _ = _suite_first()
    runs, real = [], measures.route

    def route(*args):
        out = real(*args)
        runs.append(out[2])
        return out

    monkeypatch.setattr(primalsolve, "route", route)
    ds, prov = _pipeline(g, measure, None)
    assert runs == [2]
    digest = hashlib.sha256()
    for c in (ds.witness.c0, ds.witness.c1):
        for a in (c.src, c.dst, c.w):
            digest.update(np.ascontiguousarray(a).tobytes())
    assert (prov["primal_iterations"], prov["dual_iterations"]) == (2, 0)
    assert digest.hexdigest()[:16] == "ac9c3635d206e617"
