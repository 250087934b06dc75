"""Instance and result persistence.

Instances and results are schema-versioned JSON; parameter sweeps are CSV
with an optional static SVG chart.  Serialization is deterministic: keys are
sorted and floats are printed with 17 significant digits, so identical runs
produce byte-identical files.  Infinities are stored as the strings "inf"
and "-inf" (JSON has no literal for them) and converted back on load.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math

import numpy as np

from .errors import ParseError, ValidationError, WriteError
from .ground import NORMS, GroundSet, build_ground
from .measures import TwoClassMeasure

SCHEMA_VERSION = 1

SWEEP_HEADER = ["eps", "loss", "primal", "dual", "gap", "iters", "runtime_ms"]


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _encode(obj) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(
            json.dumps(str(k)) + ": " + _encode(v) for k, v in items) + "}"
    raise WriteError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats,
    infinities as the strings "inf"/"-inf"."""
    return _encode(obj) + "\n"


def _revive(obj):
    if isinstance(obj, str) and obj in ("inf", "-inf", "nan"):
        return float(obj)
    if isinstance(obj, list):
        return [_revive(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _revive(v) for k, v in obj.items()}
    return obj


def loads(text: str):
    try:
        return _revive(json.loads(text))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: "
                         f"{e.msg}") from e


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise WriteError(f"cannot write {path}: {e.strerror}") from e


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def refine_points(points: np.ndarray, epsilon: float, r: int,
                  norm: str) -> np.ndarray:
    """Insert ``r`` evenly spaced midpoints on every pair of points within
    distance 2*epsilon of each other (the pairs whose perturbation balls can
    interact), then drop duplicates.

    Refinement enriches the ground set so transported mass has somewhere to
    meet; added points carry zero mass.
    """
    pts = np.asarray(points, dtype=float)
    if r <= 0:
        return pts
    n = pts.shape[0]
    g2 = build_ground(pts, norm, 2.0 * epsilon)
    extra = []
    for i in range(n):
        for j in g2.neighbors(i):
            if j <= i:
                continue
            for k in range(1, r + 1):
                t = k / (r + 1.0)
                extra.append((1.0 - t) * pts[i] + t * pts[j])
    if not extra:
        return pts
    allpts = np.vstack([pts, np.asarray(extra)])
    # stable de-duplication that keeps the original points (and order) first
    _, keep = np.unique(allpts.round(12), axis=0, return_index=True)
    keep = np.sort(keep)
    return allpts[keep]


def load_instance(path: str):
    """Read an instance file; returns (GroundSet, TwoClassMeasure).

    Layout (schema_version 1): ``points`` (list of coordinate lists or bare
    numbers for 1-D), ``norm`` in {l1, l2, linf}, ``epsilon``, ``mass0``,
    ``mass1`` (per original point), optional ``refinement`` level r.
    Refinement happens before neighbor indexing; refined points carry zero
    mass.
    """
    data = loads(_read_text(path))
    if not isinstance(data, dict):
        raise ValidationError("instance file must contain a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {data.get('schema_version')!r}; "
            f"this reader handles version {SCHEMA_VERSION}")
    for key in ("points", "norm", "epsilon", "mass0", "mass1"):
        if key not in data:
            raise ValidationError(f"missing required field {key!r}")
    pts = np.asarray(data["points"], dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty list of coordinates")
    norm = str(data["norm"])
    if norm not in NORMS:
        raise ValidationError(f"norm must be one of {NORMS}, got {norm!r}")
    epsilon = float(data["epsilon"])
    m0 = np.asarray(data["mass0"], dtype=float)
    m1 = np.asarray(data["mass1"], dtype=float)
    n = pts.shape[0]
    if m0.shape != (n,) or m1.shape != (n,):
        raise ValidationError(
            f"mass arrays must have one entry per point ({n}); got "
            f"{m0.shape[0]} and {m1.shape[0]}")
    for name, m in (("mass0", m0), ("mass1", m1)):
        bad = np.flatnonzero(~np.isfinite(m) | (m < 0))
        if bad.size:
            raise ValidationError(
                f"{name}[{int(bad[0])}] = {m[bad[0]]} is not a finite "
                "nonnegative mass")

    r = int(data.get("refinement", 0))
    if r < 0:
        raise ValidationError("refinement level must be nonnegative")
    full = refine_points(pts, epsilon, r, norm)
    pad = full.shape[0] - n
    m0 = np.concatenate([m0, np.zeros(pad)])
    m1 = np.concatenate([m1, np.zeros(pad)])

    return build_ground(full, norm, epsilon), TwoClassMeasure.build(m0, m1)


def save_instance(path: str, points, norm: str, epsilon: float,
                  mass0, mass1, refinement: int = 0) -> None:
    data = {
        "schema_version": SCHEMA_VERSION,
        "points": np.asarray(points, dtype=float),
        "norm": norm,
        "epsilon": float(epsilon),
        "mass0": np.asarray(mass0, dtype=float),
        "mass1": np.asarray(mass1, dtype=float),
    }
    if refinement:
        data["refinement"] = int(refinement)
    _write_text(path, dumps(data))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def save_result(path: str, result: dict) -> None:
    """Write a result structure deterministically; see load_result."""
    if "schema_version" not in result:
        result = {"schema_version": SCHEMA_VERSION, **result}
    _write_text(path, dumps(result))


def load_result(path: str) -> dict:
    data = loads(_read_text(path))
    if not isinstance(data, dict):
        raise ValidationError("result file must contain a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {data.get('schema_version')!r}")
    return data


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def save_sweep_csv(path: str, rows) -> None:
    """One CSV row per (epsilon, loss): eps,loss,primal,dual,gap,iters,runtime_ms."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_HEADER)
    for row in rows:
        w.writerow([
            format(float(row["eps"]), ".17g"),
            row["loss"],
            format(float(row["primal"]), ".17g"),
            format(float(row["dual"]), ".17g"),
            format(float(row["gap"]), ".17g"),
            int(row["iters"]),
            int(row["runtime_ms"]),
        ])
    _write_text(path, buf.getvalue())


def sweep_svg(rows, width: int = 640, height: int = 400) -> str:
    """Static SVG line chart of primal and dual values against epsilon,
    one primal/dual pair of polylines per loss."""
    losses = sorted({r["loss"] for r in rows})
    eps = sorted({float(r["eps"]) for r in rows})
    if not rows or not eps:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                'height="%d"></svg>\n' % (width, height))
    vals = [float(r[k]) for r in rows for k in ("primal", "dual")
            if math.isfinite(float(r[k]))]
    lo, hi = (min(vals), max(vals)) if vals else (0.0, 1.0)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    e_lo, e_hi = min(eps), max(eps)
    if e_hi - e_lo < 1e-12:
        e_hi = e_lo + 1.0
    pad = 45

    def sx(e):
        return pad + (e - e_lo) / (e_hi - e_lo) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - lo) / (hi - lo) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (width, height),
        '<rect width="100%" height="100%" fill="white"/>',
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (pad, height - pad, width - pad, height - pad),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (pad, pad, pad, height - pad),
        '<text x="%g" y="%g" font-size="12">eps</text>'
        % (width / 2, height - 10),
        '<text x="%g" y="%g" font-size="12">%.4g</text>' % (4, height - pad, lo),
        '<text x="%g" y="%g" font-size="12">%.4g</text>' % (4, pad, hi),
    ]
    for li, loss in enumerate(losses):
        color = palette[li % len(palette)]
        sub = sorted((r for r in rows if r["loss"] == loss),
                     key=lambda r: float(r["eps"]))
        for key, dash in (("primal", ""), ("dual", ' stroke-dasharray="5,4"')):
            pts = " ".join("%g,%g" % (sx(float(r["eps"])), sy(float(r[key])))
                           for r in sub if math.isfinite(float(r[key])))
            parts.append('<polyline points="%s" fill="none" stroke="%s"%s/>'
                         % (pts, color, dash))
        parts.append('<text x="%g" y="%g" font-size="12" fill="%s">%s</text>'
                     % (width - pad + 4, pad + 14 * li + 10, color, loss))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_sweep_svg(path: str, rows) -> None:
    _write_text(path, sweep_svg(rows))
