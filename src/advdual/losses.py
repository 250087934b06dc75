"""Surrogate-loss toolkit.

Each loss bundles the margin function phi, what each class pays at a
score (``margins``), the conditional risk, its optimal value ``cstar``, and
the smallest-minimizer map ``alpha_opt``, all in closed form, as is the
cstar-transform ``transform_h``.  The zero-one loss has no ``phi`` and no
``alpha_opt``: its margin function fails the lower semi-continuity
assumption the rest of the theory depends on.  It is scored through
``margins`` as the sign classifier's errors, and through ``cstar``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EtaOutOfRange, NegativeH, ZeroOneHasNoPhi

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
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(a == 0.0, 0.0, a * b)


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
        raise ZeroOneHasNoPhi("zero-one exposes only margins and cstar")

    def margins(self, f) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h0): what a class-1 and a class-0 point pay at score ``f``.
        For a margin loss this is (phi(f), phi(-f)); for the zero-one loss
        it is the sign classifier's errors (f <= 0, f > 0)."""
        f = np.asarray(f, dtype=float)
        if self.kind == "zero_one_dual":
            return (f <= 0).astype(float), (f > 0).astype(float)
        return self.phi(f), self.phi(-f)

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
    """eta * h1 + (1 - eta) * h0 for (h1, h0) = ``loss.margins(alpha)``,
    with 0 * inf = 0."""
    eta = _check_eta(eta)
    h1, h0 = loss.margins(alpha)
    return mul0(eta, h1) + mul0(1.0 - eta, h0)


# ---------------------------------------------------------------------------
# the cstar-transform: smallest h0 completing h1 to a feasible pair
# ---------------------------------------------------------------------------

def transform_h(loss: Loss, h1) -> np.ndarray:
    """Pointwise smallest h0 for which (h0, h1) is a feasible pair: the sup
    over eta in [0, 1) of (cstar(eta) - eta * h1) / (1 - eta).

    For a margin loss it is phi(-alpha) at the alpha where phi(alpha) = h1:
    1 / h1 (exponential), -log(1 - exp(-h1)) (logistic) and max(0, 2 - h1)
    (hinge); for the zero-one cstar it is max(0, 1 - h1).  h1 = 0 maps to
    inf, inf, 2 and 1.
    """
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    if np.any(h1 < 0):
        raise NegativeH("transform requires h1 >= 0 pointwise")
    with np.errstate(divide="ignore"):
        if loss.kind == "exponential":
            return 1.0 / h1
        if loss.kind == "logistic":
            # 1 - exp(-h1) by expm1 below log 2, log(1 - x) by log1p above
            return np.where(h1 < np.log(2.0), -np.log(-np.expm1(-h1)),
                            -np.log1p(-np.exp(-h1)))
    if loss.kind == "hinge":
        return np.maximum(0.0, 2.0 - h1)
    return np.maximum(0.0, 1.0 - h1)
