import numpy as np
import pytest

from advdual.errors import EtaOutOfRange, NegativeH, ZeroOneHasNoPhi
from advdual.losses import conditional_risk, get_loss, mul0, transform_h

from conftest import (
    EtaAtBoundary,
    _golden_max,
    alpha_opt_numeric,
    cstar_numeric,
    supergrad_cstar_exp,
)

ALL = ["exp", "logistic", "hinge", "zero-one"]
SURROGATES = ["exp", "logistic", "hinge"]


def test_get_loss_aliases():
    assert get_loss("exp").kind == "exponential"
    assert get_loss("exponential").kind == "exponential"
    assert get_loss("zero-one").kind == "zero_one_dual"
    with pytest.raises(ValueError):
        get_loss("brier")


def test_mul0_convention():
    assert mul0(0.0, np.inf) == 0.0
    assert mul0(np.array([0.0, 2.0]), np.array([np.inf, 3.0])).tolist() == [0.0, 6.0]


def test_phi_examples():
    exp = get_loss("exp")
    assert exp.phi(0.0) == 1.0
    assert exp.phi(np.inf) == 0.0
    assert get_loss("hinge").phi(2.0) == 0.0
    assert get_loss("logistic").phi(0.0) == pytest.approx(np.log(2.0))


def test_phi_monotone_nonnegative():
    grid = np.linspace(-30, 30, 301)
    for name in SURROGATES:
        v = get_loss(name).phi(grid)
        assert np.all(v >= 0)
        assert np.all(np.diff(v) <= 1e-12)


def test_zero_one_has_no_phi():
    with pytest.raises(ZeroOneHasNoPhi):
        get_loss("zero-one").phi(0.0)
    with pytest.raises(ZeroOneHasNoPhi):
        get_loss("zero-one").alpha_opt(0.3)


def test_margins():
    f = np.array([-np.inf, -1.0, 0.0, 2.0, np.inf])
    for name in SURROGATES:
        loss = get_loss(name)
        h1, h0 = loss.margins(f)
        assert np.array_equal(h1, loss.phi(f)) and np.array_equal(h0, loss.phi(-f))
    # zero-one: the sign classifier's errors, a score of 0 counted as class 0
    h1, h0 = get_loss("zero-one").margins(f)
    assert np.array_equal(h1, [1.0, 1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(h0, [0.0, 0.0, 0.0, 1.0, 1.0])
    # and its conditional risk is never below cstar, meeting it at the
    # threshold classifier's sign
    eta = np.linspace(0.0, 1.0, 11)
    zo = get_loss("zero-one")
    sign = np.where(eta > 0.5, 1.0, -1.0)
    assert np.array_equal(conditional_risk(zo, eta, sign), zo.cstar(eta))
    assert np.all(conditional_risk(zo, eta, -sign) >= zo.cstar(eta))


def test_conditional_risk_examples():
    exp = get_loss("exp")
    assert conditional_risk(exp, 0.5, 0.0) == 1.0
    assert conditional_risk(exp, 1.0, np.inf) == 0.0  # 0 * phi(-inf) = 0
    logistic = get_loss("logistic")
    assert conditional_risk(logistic, 0.5, 0.0) == pytest.approx(np.log(2.0))


def test_cstar_examples():
    assert get_loss("exp").cstar(0.5) == 1.0
    assert get_loss("exp").cstar(0.2) == pytest.approx(0.8)
    assert get_loss("zero-one").cstar(0.3) == pytest.approx(0.3)
    assert get_loss("hinge").cstar(0.3) == pytest.approx(0.6)


def test_cstar_matches_numeric_oracle():
    grid = np.linspace(0, 1, 201)
    for name in SURROGATES:
        loss = get_loss(name)
        assert np.allclose(loss.cstar(grid), cstar_numeric(loss, grid), atol=1e-7)


def test_cstar_boundary_and_range():
    for name in ALL:
        loss = get_loss(name)
        assert loss.cstar(0.0) == 0.0
        assert loss.cstar(1.0) == 0.0
        for bad in (1.2, -0.1, np.nan, np.inf, -np.inf, [0.5, np.nan]):
            with pytest.raises(EtaOutOfRange):
                loss.cstar(bad)


def test_cstar_concave_midpoint():
    rng = np.random.default_rng(0)
    for name in ALL:
        loss = get_loss(name)
        a, b = np.sort(rng.uniform(0, 1, (50, 2)), axis=1).T
        mid = loss.cstar((a + b) / 2)
        assert np.all(mid >= (loss.cstar(a) + loss.cstar(b)) / 2 - 1e-12)


def test_alpha_opt_examples():
    exp = get_loss("exp")
    assert exp.alpha_opt(0.5) == 0.0
    assert exp.alpha_opt(1.0) == np.inf
    assert exp.alpha_opt(0.0) == -np.inf
    assert get_loss("hinge").alpha_opt(0.7) == 1.0
    assert get_loss("hinge").alpha_opt(0.3) == -1.0
    assert get_loss("hinge").alpha_opt(0.0) == -np.inf


def test_alpha_opt_achieves_cstar_and_monotone():
    grid = np.linspace(0, 1, 1001)
    for name in SURROGATES:
        loss = get_loss(name)
        alpha = loss.alpha_opt(grid)
        assert np.all(np.diff(alpha) >= -1e-12)
        risks = conditional_risk(loss, grid, alpha)
        assert np.allclose(risks, loss.cstar(grid), atol=1e-9)


def test_alpha_opt_numeric_matches_closed_form():
    grid = np.linspace(0.01, 0.99, 99)
    for name in ("exp", "logistic"):
        loss = get_loss(name)
        assert np.allclose(alpha_opt_numeric(loss, grid), loss.alpha_opt(grid),
                           atol=1e-6)


def test_supergrad_examples():
    assert supergrad_cstar_exp(0.5) == 0.0
    assert supergrad_cstar_exp(0.2) == pytest.approx(1.5)
    assert supergrad_cstar_exp(0.8) == pytest.approx(-1.5)
    with pytest.raises(EtaAtBoundary):
        supergrad_cstar_exp(0.0)
    with pytest.raises(EtaAtBoundary):
        supergrad_cstar_exp(1.0)


def test_supergrad_finite_difference():
    exp = get_loss("exp")
    for eta in (0.1, 0.37, 0.5, 0.81):
        h = 1e-7
        fd = (exp.cstar(eta + h) - exp.cstar(eta - h)) / (2 * h)
        assert supergrad_cstar_exp(eta) == pytest.approx(fd, abs=1e-5)


def test_supergrad_tangent_bound():
    exp = get_loss("exp")
    grid = np.linspace(0, 1, 101)
    for eta in (0.2, 0.5, 0.9):
        tangent = exp.cstar(eta) + (grid - eta) * supergrad_cstar_exp(eta)
        assert np.all(exp.cstar(grid) <= tangent + 1e-12)


def test_transform_exponential_examples():
    exp = get_loss("exp")
    assert transform_h(exp, np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-8)
    assert transform_h(exp, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-8)
    assert transform_h(exp, np.array([0.0]))[0] == np.inf


def test_transform_product_identity():
    exp = get_loss("exp")
    t = np.logspace(-2, 2, 41)
    h0 = transform_h(exp, t)
    assert np.allclose(h0 * t, 1.0, atol=1e-8)


def _brute_transform(loss, t):
    """sup over eta in [0, 1) of (cstar(eta) - eta t) / (1 - eta), searched
    in s = 1 - eta (cstar is symmetric, so cstar(eta) = cstar(s)) on a grid
    refined toward eta = 1, where the exponential maximizer 1 / (1 + t^2)
    sits for small t, then golden-refined in log s between grid neighbours."""
    s = np.unique(np.concatenate([np.logspace(-14, 0, 3001),
                                  np.linspace(0.0, 1.0, 2001)[1:]]))

    def ratio(log_s):
        u = np.exp(log_s)
        return (loss.cstar(u) - (1.0 - u) * t) / u

    logs = np.log(s)
    vals = (loss.cstar(s)[None, :] - (1.0 - s)[None, :] * t[:, None]) / s[None, :]
    best = np.argmax(vals, axis=1)
    lo = logs[np.maximum(best - 1, 0)]
    hi = logs[np.minimum(best + 1, s.size - 1)]
    _, refined = _golden_max(ratio, lo, hi)
    return np.maximum(refined, vals.max(axis=1))


@pytest.mark.parametrize("name", ALL)
def test_transform_matches_brute_sup(name):
    loss = get_loss(name)
    t = np.concatenate([np.logspace(-3, np.log10(30.0), 60), [0.5, 1.0, 2.0]])
    assert np.max(np.abs(transform_h(loss, t) - _brute_transform(loss, t))) <= 1e-6
    if name == "exp":
        assert np.array_equal(transform_h(loss, t), 1.0 / t)


def test_transform_at_zero_other_losses():
    assert transform_h(get_loss("logistic"), np.array([0.0]))[0] == np.inf
    assert transform_h(get_loss("hinge"), np.array([0.0]))[0] == pytest.approx(2.0, abs=1e-6)
    assert transform_h(get_loss("zero-one"), np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-6)


def test_transform_feasibility():
    rng = np.random.default_rng(4)
    etas = np.linspace(0, 1, 101)
    for name in ALL:
        loss = get_loss(name)
        h1 = rng.uniform(0, 5, 20)
        h0 = transform_h(loss, h1)
        for eta in etas:
            lhs = eta * h1 + (1 - eta) * h0
            lhs = np.where(np.isnan(lhs), np.inf, lhs)  # 0 * inf inside the mix
            assert np.all(lhs >= loss.cstar(eta) - 1e-9)


def test_transform_rejects_negative():
    with pytest.raises(NegativeH):
        transform_h(get_loss("exp"), np.array([-0.5]))
