"""Surrogate-loss toolkit.

Each loss bundles the margin function phi, the conditional risk, its optimal
value ``cstar``, and the smallest-minimizer map ``alpha_opt``.  Closed forms
are used where available; a grid-plus-golden-section 1-D search provides the
numeric fallback (and the independent oracle in tests).  The zero-one loss is
exposed only through ``cstar`` and threshold classification: its margin
function fails the lower semi-continuity assumption the rest of the theory
depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EtaAtBoundary, EtaOutOfRange, NegativeH, ZeroOneHasNoPhi

LOSS_KINDS = ("exponential", "logistic", "hinge", "zero_one_dual")

_CLI_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "logistic": "logistic",
    "hinge": "hinge",
    "zero-one": "zero_one_dual",
    "zero_one": "zero_one_dual",
    "zero_one_dual": "zero_one_dual",
}


def mul0(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product with the convention 0 * (+-inf) = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    mask = np.broadcast_to(a != 0.0, out.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        prod = np.broadcast_to(a, out.shape)[mask] * np.broadcast_to(b, out.shape)[mask]
    out[mask] = prod
    return out


def _check_eta(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0) or np.any(eta > 1) or not np.all(np.isfinite(eta)):
        raise EtaOutOfRange("eta must lie in [0, 1]")
    return eta


@dataclass(frozen=True)
class Loss:
    """A surrogate loss identified by ``kind``; evaluators are vectorized."""

    kind: str

    # -- margin function -------------------------------------------------
    def phi(self, alpha) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "exponential":
                return np.exp(-alpha)
            if self.kind == "logistic":
                return np.logaddexp(0.0, -alpha)
            if self.kind == "hinge":
                return np.maximum(0.0, 1.0 - alpha)
        raise ZeroOneHasNoPhi("zero-one exposes only cstar and thresholding")

    # -- optimal conditional risk ----------------------------------------
    def cstar(self, eta) -> np.ndarray:
        eta = _check_eta(eta)
        if self.kind == "exponential":
            return 2.0 * np.sqrt(eta * (1.0 - eta))
        if self.kind == "logistic":
            with np.errstate(divide="ignore", invalid="ignore"):
                t = -mul0(eta, np.log(eta)) - mul0(1.0 - eta, np.log(1.0 - eta))
            return t
        if self.kind == "hinge":
            return 2.0 * np.minimum(eta, 1.0 - eta)
        return np.minimum(eta, 1.0 - eta)

    # -- smallest minimizer of the conditional risk ----------------------
    def alpha_opt(self, eta) -> np.ndarray:
        eta = _check_eta(eta)
        if self.kind == "exponential":
            with np.errstate(divide="ignore"):
                return 0.5 * (np.log(eta) - np.log(1.0 - eta))
        if self.kind == "logistic":
            with np.errstate(divide="ignore"):
                return np.log(eta) - np.log(1.0 - eta)
        if self.kind == "hinge":
            out = np.where(eta > 0.5, 1.0, -1.0)
            out = np.where(eta == 0.0, -np.inf, out)
            return np.asarray(out, dtype=float)
        raise ZeroOneHasNoPhi("zero-one has no score-valued minimizer")


def get_loss(name: str) -> Loss:
    key = _CLI_ALIASES.get(str(name).strip().lower())
    if key is None:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(set(_CLI_ALIASES))}")
    return Loss(key)


def conditional_risk(loss: Loss, eta, alpha) -> np.ndarray:
    """eta * phi(alpha) + (1 - eta) * phi(-alpha), with 0 * inf = 0."""
    eta = _check_eta(eta)
    alpha = np.asarray(alpha, dtype=float)
    return mul0(eta, loss.phi(alpha)) + mul0(1.0 - eta, loss.phi(-alpha))


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


def _golden_max(fun, lo, hi, iters: int = 90):
    """Vectorized golden-section maximization on per-point brackets.

    ``fun`` maps an array of abscissae to an array of values; ``lo``/``hi``
    are arrays of bracket endpoints.  Returns (argmax, max).
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(iters):
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        take_left = fun(c) >= fun(d)
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def cstar_numeric(loss: Loss, eta, bracket: float = 50.0, grid: int = 512) -> np.ndarray:
    """Independent evaluation of cstar by 1-D minimization over alpha.

    Coarse grid then golden-section refinement around the best cell; used as
    the test oracle against the closed forms.
    """
    eta = np.atleast_1d(_check_eta(eta))
    alphas = np.linspace(-bracket, bracket, grid)
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


def alpha_opt_numeric(loss: Loss, eta, bracket: float = 50.0,
                      grid: int = 2048, snap_slope: float = 1e-12) -> np.ndarray:
    """Numeric smallest minimizer: leftmost grid cell within tolerance of the
    minimum, golden-refined; snapped to +-inf when the minimum sits at the
    bracket edge with a flat margin slope."""
    eta = np.atleast_1d(_check_eta(eta))
    alphas = np.linspace(-bracket, bracket, grid)
    vals = conditional_risk(loss, eta[:, None], alphas[None, :])
    vmin = vals.min(axis=1)
    near = vals <= vmin[:, None] + 1e-12
    first = np.argmax(near, axis=1)
    step = alphas[1] - alphas[0]
    lo = np.maximum(alphas[first] - step, -bracket)
    hi = np.minimum(alphas[first] + step, bracket)

    def neg(a):
        return -conditional_risk(loss, eta, a)

    amid, _ = _golden_max(neg, lo, hi)
    # at either bracket edge, a flat margin slope at +bracket means the
    # conditional risk keeps descending forever on that side
    flat = _flat_at(loss, bracket, snap_slope)
    out = amid
    hit_left = vals[:, 0] <= vmin + 1e-12
    hit_right = (vals[:, -1] <= vmin + 1e-12) & ~hit_left
    out = np.where(hit_left, -np.inf if flat else -bracket, out)
    out = np.where(hit_right, np.inf if flat else bracket, out)
    return out


def _flat_at(loss: Loss, alpha: float, tol: float) -> bool:
    h = 1e-4
    slope = abs(float(loss.phi(alpha + h) - loss.phi(alpha - h))) / (2 * h)
    return slope < tol


# ---------------------------------------------------------------------------
# the cstar-transform: smallest h0 completing h1 to a feasible pair
# ---------------------------------------------------------------------------

def _transform_at_zero(loss: Loss) -> float:
    """sup over eta of cstar(eta) / (1 - eta): the transform of h1 = 0."""
    if loss.kind in ("exponential", "logistic"):
        return np.inf
    if loss.kind == "hinge":
        return 2.0
    return 1.0


def transform_ratio(loss: Loss, eta, t):
    """(cstar(eta) - eta * t) / (1 - eta), the quantity whose sup over
    eta in [0, 1) defines the transform."""
    eta = np.asarray(eta, dtype=float)
    t = np.asarray(t, dtype=float)
    return (loss.cstar(eta) - eta * t) / (1.0 - eta)


def transform_bracket(loss: Loss, c: float, tol: float = 1e-12) -> float:
    """Upper bracket k(c) < 1: beyond it the transform ratio is nonpositive
    for every argument >= c > 0, so the sup may ignore eta > k."""
    if c <= 0:
        raise ValueError("bracket requires a positive lower bound")
    lo, hi = 0.0, 1.0 - 1e-15
    if transform_ratio(loss, hi, c) > 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transform_ratio(loss, mid, c) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return hi


def transform_h(loss: Loss, h1, grid: int = 2001) -> np.ndarray:
    """Pointwise smallest h0 for which (h0, h1) is a feasible pair.

    Evaluates the sup over eta by a grid restricted to the bracket implied
    by the smallest positive h1 value, then golden-section refinement;
    grid argmax takes the first maximizer, breaking ties toward smaller eta.
    """
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    if np.any(h1 < 0):
        raise NegativeH("transform requires h1 >= 0 pointwise")
    out = np.empty_like(h1)
    zero = h1 == 0
    out[zero] = _transform_at_zero(loss)
    pos = ~zero
    if not np.any(pos):
        return out
    t = h1[pos]
    k = transform_bracket(loss, float(t.min()))
    etas = np.linspace(0.0, k, grid)
    vals = transform_ratio(loss, etas[None, :], t[:, None])
    best = np.argmax(vals, axis=1)
    step = etas[1] - etas[0] if grid > 1 else k
    lo = np.maximum(etas[best] - step, 0.0)
    hi = np.minimum(etas[best] + step, 1.0 - 1e-12)

    def fun(e):
        return transform_ratio(loss, e, t)

    _, fmax = _golden_max(fun, lo, hi)
    # eta = 0 always yields 0, so the transform is never negative
    out[pos] = np.maximum(fmax, 0.0)
    return out


def transform_h_exponential_closed(h1) -> np.ndarray:
    """Closed form of the transform for the exponential loss: h0 = 1 / h1."""
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    if np.any(h1 < 0):
        raise NegativeH("transform requires h1 >= 0 pointwise")
    with np.errstate(divide="ignore"):
        return np.where(h1 == 0, np.inf, 1.0 / h1)
