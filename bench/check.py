"""Independent check of advdual's outputs.

Everything here is re-derived from the instance file with this module's own
distance matrix; nothing from ``advdual`` is imported, so a fault in the
program's geometry or certificates cannot hide itself.

For a ``solve`` result the check recomputes

* the exponential adversarial risk of the stored score field ``f``,
  sum p1 * max_ball exp(-f) + sum p0 * max_ball exp(f);
* the exponential dual value 2 * sum sqrt(m0 * m1) of the stored masses;
* whether each stored coupling has the class mass as its source marginal,
  moves mass no farther than epsilon, and pushes forward to the stored
  ``m0``/``m1``;

and requires primal - dual in [GAP_LO, GAP_HI].  For ``sweep`` rows it
checks weak duality and the epsilon-monotonicity the exact value has.
"""

from __future__ import annotations

import csv
import json

import numpy as np

GAP_LO = -1e-9
GAP_HI = 1e-4     # the CLI's exponential tolerance
MASS_TOL = 1e-9
VALUE_TOL = 1e-9

GAP_PROBLEM = "gap"


def _revive(obj):
    """Result files store infinities as the strings "inf"/"-inf"."""
    if isinstance(obj, str) and obj in ("inf", "-inf", "nan"):
        return float(obj)
    if isinstance(obj, list):
        return [_revive(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _revive(v) for k, v in obj.items()}
    return obj


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _revive(json.load(fh))


def distances(points: np.ndarray, norm: str) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    if norm == "l1":
        return np.abs(diff).sum(axis=2)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=2))
    if norm == "linf":
        return np.abs(diff).max(axis=2)
    raise ValueError(f"unknown norm {norm!r}")


def refined_points(points: np.ndarray, norm: str, epsilon: float,
                   r: int) -> np.ndarray:
    """The instance format's refinement: ``r`` evenly spaced points on every
    pair within 2*epsilon, appended pair by pair, duplicates dropped with
    the original points first."""
    if r <= 0:
        return points
    close = distances(points, norm) <= 2.0 * epsilon
    extra = [(1.0 - k / (r + 1.0)) * points[i] + k / (r + 1.0) * points[j]
             for i in range(points.shape[0])
             for j in np.flatnonzero(close[i]) if j > i
             for k in range(1, r + 1)]
    if not extra:
        return points
    allpts = np.vstack([points, np.asarray(extra)])
    _, keep = np.unique(allpts.round(12), axis=0, return_index=True)
    return allpts[np.sort(keep)]


class Instance:
    """An instance file read back: refined points, masses padded with
    zeros for the refinement points, and the closed-ball adjacency."""

    def __init__(self, path: str):
        data = read_json(path)
        pts = np.asarray(data["points"], dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        self.norm = data["norm"]
        self.epsilon = float(data["epsilon"])
        self.points = refined_points(pts, self.norm, self.epsilon,
                                     int(data.get("refinement", 0)))
        pad = self.points.shape[0] - pts.shape[0]
        self.mass0 = np.concatenate([np.asarray(data["mass0"], float), np.zeros(pad)])
        self.mass1 = np.concatenate([np.asarray(data["mass1"], float), np.zeros(pad)])
        self.dist = distances(self.points, self.norm)
        self.ball = self.dist <= self.epsilon

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def exp_risk(self, f: np.ndarray) -> float:
        """Exponential adversarial risk of ``f``; a zero mass contributes
        nothing even against an infinite loss."""
        risk = 0.0
        for p, g in ((self.mass1, -f), (self.mass0, f)):
            rows = np.flatnonzero(p > 0)
            top = np.where(self.ball[rows], g[None, :], -np.inf).max(axis=1)
            with np.errstate(over="ignore"):
                risk += float(np.dot(p[rows], np.exp(top)))
        return risk


def check_result(inst: Instance, result: dict) -> list[str]:
    """Problems found in a ``solve`` result.  Exactly ``[GAP_PROBLEM]``
    means the witness is sound and reproduces the stored numbers, but does
    not certify."""
    problems: list[str] = []
    n = inst.n
    f = np.asarray(result["f"], dtype=float)
    m = {"class0": np.asarray(result["m0"], dtype=float),
         "class1": np.asarray(result["m1"], dtype=float)}
    if f.shape != (n,) or m["class0"].shape != (n,) or m["class1"].shape != (n,):
        return [f"field length differs from the {n} ground points"]

    for label, p in (("class0", inst.mass0), ("class1", inst.mass1)):
        trip = np.asarray(result["couplings"][label], dtype=float).reshape(-1, 3)
        src, dst, w = trip[:, 0].astype(np.int64), trip[:, 1].astype(np.int64), trip[:, 2]
        if np.any(w < 0) or np.any((src < 0) | (src >= n) | (dst < 0) | (dst >= n)):
            problems.append(f"{label} coupling has a negative weight or a bad index")
            continue
        if np.any(inst.dist[src, dst][w > 0] > inst.epsilon):
            problems.append(f"{label} coupling moves mass farther than epsilon")
        if np.max(np.abs(np.bincount(src, w, n) - p)) > MASS_TOL:
            problems.append(f"{label} coupling does not start from the class mass")
        if np.max(np.abs(np.bincount(dst, w, n) - m[label])) > MASS_TOL:
            problems.append(f"{label} coupling does not push forward to the stored masses")
    if np.any(m["class0"] < 0) or np.any(m["class1"] < 0):
        problems.append("negative stored mass")

    primal = inst.exp_risk(f)
    dual = 2.0 * float(np.sqrt(np.clip(m["class0"] * m["class1"], 0.0, None)).sum())
    stored = result["certificates"]["exponential"]
    for key, mine in (("primal_value", primal), ("dual_value", dual)):
        theirs = float(stored[key])
        if not abs(theirs - mine) <= VALUE_TOL * max(1.0, abs(mine)):
            problems.append(f"stored {key} {theirs!r} differs from recomputed {mine!r}")
    if not GAP_LO <= primal - dual <= GAP_HI:
        problems.append(GAP_PROBLEM)
    return problems


def check_sweep(csv_path: str) -> list[str]:
    """Weak duality on every row, and primal(eps_{k+1}) >= dual(eps_k) for
    each loss: the exact value is nondecreasing in epsilon, so a primal
    bound at a larger radius may not fall below a dual bound at a smaller
    one.  Primal values alone may dip inside the certified gap."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    by_loss: dict[str, list] = {}
    for row in rows:
        eps, primal, dual = (float(row[k]) for k in ("eps", "primal", "dual"))
        if not primal >= dual - VALUE_TOL:
            problems.append(f"{row['loss']} eps={eps:g}: primal {primal!r} < dual {dual!r}")
        by_loss.setdefault(row["loss"], []).append((eps, primal, dual))
    for loss, vals in by_loss.items():
        vals.sort()
        for (e0, _, d0), (e1, p1, _) in zip(vals, vals[1:]):
            if not p1 >= d0 - VALUE_TOL:
                problems.append(f"{loss}: primal(eps={e1:g}) {p1!r} < dual(eps={e0:g}) {d0!r}")
    if not rows:
        problems.append("sweep wrote no rows")
    return problems
