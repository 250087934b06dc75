"""Instance and result persistence.

Instances and results are schema-versioned JSON; a result file has one
layout, written by ``save_result`` and read back typed by ``load_result``.
Parameter sweeps are CSV with an optional static SVG chart.  Serialization
is deterministic: keys are sorted and floats are printed with 17
significant digits, so identical runs produce byte-identical files.
Infinities are stored as the strings "inf" and "-inf" (JSON has no literal
for them) and converted back on load.
"""

from __future__ import annotations

import csv
import errno
import io as _io
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .certify import Certificate, Result, check_tol
from .errors import InfeasibleDual, ParseError, ValidationError, WriteError
from .ground import GroundSet, build_ground, check_epsilon
from .losses import LOSS_KINDS
from .measures import Coupling, SourceBalls, TwoClassMeasure, Witness

SCHEMA_VERSION = 1

SWEEP_HEADER = ["eps", "loss", "primal", "dual", "gap", "primal_iters", "dual_iters",
                "runtime_ms"]
SVG_WIDTH, SVG_HEIGHT = 640, 400
# the most midpoints one refinement may add, over 20 times the 4277 that
# refine a 200-point scatter once at epsilon 0.3
MAX_MIDPOINTS = 10 ** 5


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
    except ValueError as e:
        # an integer literal past Python's int-string conversion limit
        raise ParseError(f"invalid JSON: {e}") from e


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e


def _load_object(path: str, kind: str) -> dict:
    """The JSON object in the ``kind`` file at ``path``, of this schema
    version."""
    data = loads(_read_text(path))
    if not isinstance(data, dict):
        raise ValidationError(f"{kind} file must contain a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {data.get('schema_version')!r}; "
            f"this reader handles version {SCHEMA_VERSION}")
    return data


def check_writable(path: str) -> None:
    """Raise the ``WriteError`` that writing ``path`` would meet for want of
    its directory, for a directory in its place or for want of permission,
    creating and truncating nothing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise WriteError(f"cannot write {path}: {os.strerror(code)}")


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
    interact), then drop the added points that repeat a point.  The original
    points all stay first, in order, duplicates included: each carries its
    masses.

    Refinement enriches the ground set so transported mass has somewhere to
    meet; added points carry zero mass.  A level whose midpoints, r per
    pair, would number more than ``MAX_MIDPOINTS`` raises ValidationError
    before they are allocated.
    """
    pts = np.asarray(points, dtype=float)
    if r <= 0:
        return pts
    g2 = build_ground(pts, norm, 2.0 * epsilon)
    # the pairs j > i, row by row, and r midpoints on each
    i = np.repeat(np.arange(pts.shape[0]), np.diff(g2.indptr))
    pair = g2.indices > i
    if not pair.any():
        return pts
    if int(pair.sum()) * r > MAX_MIDPOINTS:
        raise ValidationError(f"refinement level {r} would add {r} midpoints on each of "
                              f"{int(pair.sum())} pairs, more than {MAX_MIDPOINTS}")
    i, j = i[pair], g2.indices[pair]
    t = (np.arange(1, r + 1) / (r + 1.0))[:, None]
    extra = (1.0 - t) * pts[i][:, None] + t * pts[j][:, None]
    allpts = np.vstack([pts, extra.reshape(-1, pts.shape[1])])
    # the first occurrence of each added point not already among the originals
    _, first = np.unique(allpts.round(12), axis=0, return_index=True)
    return np.vstack([pts, allpts[np.sort(first[first >= pts.shape[0]])]])


def _floats(key: str, value) -> np.ndarray:
    """``value``, nested lists of JSON numbers, as a float array; any other
    entry (a bool, a string) or ragged nesting raises ValidationError."""
    todo, what = [value], f"each entry of {key!r}"
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo.extend(v)
        else:
            _number(what, v)
    try:
        return np.asarray(value, dtype=float)
    except ValueError as e:
        raise ValidationError(f"malformed field {key!r}: {e}") from e


def load_instance(path: str):
    """Read an instance file; returns (GroundSet, TwoClassMeasure).

    Layout (schema_version 1): ``points`` (list of coordinate lists or bare
    numbers for 1-D), ``norm`` in {l1, l2, linf}, ``epsilon``, ``mass0``,
    ``mass1`` (per original point), optional ``refinement`` level r, whose
    midpoints ``refine_points`` bounds.  Refinement happens before neighbor
    indexing; refined points carry zero mass.
    """
    data = _load_object(path, "instance")
    for key in ("points", "norm", "epsilon", "mass0", "mass1"):
        if key not in data:
            raise ValidationError(f"missing required field {key!r}")
    pts = _floats("points", data["points"])
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty list of coordinates")
    norm = str(data["norm"])
    # checked here, where the value is the file's: refinement builds on 2 epsilon
    epsilon = check_epsilon(_number("epsilon", data["epsilon"]))
    m0, m1 = _floats("mass0", data["mass0"]), _floats("mass1", data["mass1"])
    n = pts.shape[0]
    if m0.shape != (n,) or m1.shape != (n,):
        raise ValidationError(
            f"mass arrays must have one entry per point ({n}); got "
            f"shapes {m0.shape} and {m1.shape}")
    r = data.get("refinement", 0)
    # a JSON integer only: int() would take 1.5, true and "2"
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise ValidationError(f"refinement level must be an integer >= 0, got {r!r}")
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

def save_result(path: str, instance_path: str, result: Result, provenance: dict) -> None:
    """Write ``result``, the certified solve of the instance at
    ``instance_path``, whose ground its witness holds: the score field
    ``f``, the witness (``m0``, ``m1`` and the ``couplings`` as [source,
    target, weight] triples per class),
    the one ``support_violation``, one certificate per loss kind, and the
    ``provenance`` that ``cli._pipeline`` returns, whose ``tol`` is the
    --tol the solve was given (or None) and judges every certificate in
    ``verify``."""
    w = result.witness
    g = w.balls.g
    _write_text(path, dumps({
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "path": os.path.basename(instance_path),
            "n_points": int(g.n),
            "norm": g.norm,
            "epsilon": float(g.epsilon),
        },
        "provenance": provenance,
        "f": result.f,
        "m0": w.m0,
        "m1": w.m1,
        "couplings": {"class0": w.c0.triples(), "class1": w.c1.triples()},
        "support_violation": result.support_violation,
        "certificates": {kind: asdict(c) for kind, c in result.certificates.items()},
    }))


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as e:
        raise ValidationError(f"{name}: {e}") from e


def _certificate(kind, entry) -> Certificate:
    """A stored certificate entry, named by its loss kind; a field more or
    less than ``Certificate`` has raises TypeError."""
    if kind not in LOSS_KINDS or not isinstance(entry, dict) or entry.get("loss") != kind:
        raise ValidationError(f"unknown or malformed certificate entry {kind!r}")
    return Certificate(**{key: value if key == "loss" else _number(f"{kind}.{key}", value)
                          for key, value in entry.items()})


def load_result(path: str, g: GroundSet, measure: TwoClassMeasure):
    """The ``Result`` in a result file of the instance (``g``, ``measure``)
    in the layout ``save_result`` writes, and the stored ``tol``.  A file
    that is not JSON raises ``ParseError``, any other departure from the
    layout ``ValidationError``, and ``InfeasibleDual`` a witness that does
    not validate on ``SourceBalls(g, measure)`` or stored masses more than
    ``witness.tol`` off its pushforwards."""
    data = _load_object(path, "result")
    try:
        f, m0, m1 = (np.asarray(data[k], dtype=float) for k in ("f", "m0", "m1"))
        trips = [np.asarray(data["couplings"][k], dtype=float) for k in ("class0", "class1")]
        certs = {kind: _certificate(kind, entry)
                 for kind, entry in data["certificates"].items()}
        support = data["support_violation"]
        tol = check_tol(data["provenance"]["tol"])
    except KeyError as e:
        raise ValidationError(f"result file missing field {e}") from e
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"malformed result file: {e}") from e
    if "exponential" not in certs:
        raise ValidationError("result file has no exponential certificate")
    if any(v.shape != (g.n,) for v in (f, m0, m1)):
        raise ValidationError(f"stored vector lengths do not match the instance "
                              f"ground set ({g.n} points)")
    if any(t.size and (t.ndim != 2 or t.shape[1] != 3 or np.any(t[:, :2] % 1 != 0))
           for t in trips):
        raise ValidationError("coupling entries must be [source, target, weight] "
                              "triples with integer indices")
    c0, c1 = (Coupling.build(*t.reshape(-1, 3).T, g.n) for t in trips)
    witness = Witness(SourceBalls(g, measure), c0, c1)
    if not np.all(np.abs(np.stack((m0, m1)) - (witness.m0, witness.m1)) <= witness.tol):
        raise InfeasibleDual("dual masses do not match the coupling pushforward")
    return Result(f=f, witness=witness, certificates=certs,
                  support_violation=_number("support_violation", support)), tol


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def save_sweep_csv(path: str, rows) -> None:
    """One CSV row per (epsilon, loss): eps,loss,primal,dual,gap,
    primal_iters,dual_iters,runtime_ms.  The iteration counts are the
    primal's max-flows and those the dual ran beyond them (``cli._pipeline``)."""
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
            int(row["primal_iters"]),
            int(row["dual_iters"]),
            int(row["runtime_ms"]),
        ])
    _write_text(path, buf.getvalue())


def sweep_svg(rows) -> str:
    """Static SVG line chart of primal and dual values against epsilon,
    one primal/dual pair of polylines per loss."""
    width, height = SVG_WIDTH, SVG_HEIGHT
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
