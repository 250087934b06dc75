"""Finite metric ground sets, neighbor indexing, and ball max/min operators.

A ground set is a finite list of points in R^d together with a norm and a
radius ``epsilon``.  The neighbor index stores, for every point, the sorted
indices of all points within the closed epsilon-ball.  All fields are plain
numpy arrays of per-point values; +/-inf entries are allowed and propagate
through max/min by the usual extended-real order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import NegativeEpsilon, NonFiniteCoordinate, ValidationError

NORMS = ("l1", "l2", "linf")
_TREE_P = {"l1": 1.0, "l2": 2.0, "linf": np.inf}
# relative padding of the tree's query radius; the exact filter after the
# query decides ties at distance epsilon
TREE_PAD = 1e-9


def distances(a, b, norm: str) -> np.ndarray:
    """Distances between the points ``a`` and ``b`` under ``norm``; the last
    axis holds the coordinates and the others broadcast.  Every "within
    epsilon" decision of the package compares this value with epsilon."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if norm == "l1":
        return np.abs(diff).sum(axis=-1)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=-1))
    if norm == "linf":
        return np.abs(diff).max(axis=-1)
    raise ValueError(f"unknown norm {norm!r}")


@dataclass(frozen=True)
class GroundSet:
    """Immutable finite point set with a precomputed neighbor index.

    ``indptr``/``indices`` form a CSR layout: the neighbors of point ``i``
    are ``indices[indptr[i]:indptr[i+1]]``, sorted ascending and always
    containing ``i`` itself.
    """

    points: np.ndarray
    norm: str
    epsilon: float
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def neighbor_csr(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout ``(indptr, indices)`` of the neighbor lists of
        ``rows``, in the order given."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lens)))
        pos = np.repeat(starts - indptr[:-1], lens) + np.arange(indptr[-1])
        return indptr, self.indices[pos]

    def check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"field has shape {f.shape}, expected ({self.n},)")
        return f


def check_epsilon(epsilon) -> float:
    """``epsilon`` as a float, or NegativeEpsilon if it is negative or not
    finite."""
    epsilon = float(epsilon)
    if epsilon < 0 or not np.isfinite(epsilon):
        raise NegativeEpsilon(f"epsilon must be a finite nonnegative real, got {epsilon}")
    return epsilon


def build_ground(points, norm: str = "l2", epsilon: float = 0.0) -> GroundSet:
    """Build a ground set and its closed-ball neighbor index.

    A k-d tree proposes the pairs within a radius padded by a relative
    ``TREE_PAD``, so that no pair at distance exactly epsilon is lost to the
    tree's own rounding; :func:`distances` then keeps the pairs within
    epsilon.
    """
    try:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    except (TypeError, ValueError) as e:
        raise ValidationError(f"malformed points: {e}") from e
    if pts.ndim != 2 or pts.size == 0:
        raise ValidationError("points must be a nonempty list of coordinate vectors")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteCoordinate("points contain non-finite coordinates")
    if norm not in NORMS:
        raise ValidationError(f"norm must be one of {NORMS}, got {norm!r}")
    epsilon = check_epsilon(epsilon)

    n = pts.shape[0]
    i, j = cKDTree(pts).query_pairs(epsilon * (1.0 + TREE_PAD), p=_TREE_P[norm],
                                    output_type="ndarray").T
    keep = distances(pts[i], pts[j], norm) <= epsilon
    i, j = i[keep], j[keep]
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    # sorting the row-major keys orders the rows and each row's neighbors
    indices = np.sort(rows * n + cols) % n
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    pts.setflags(write=False)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return GroundSet(points=pts, norm=norm, epsilon=epsilon,
                     indptr=indptr, indices=indices)


def sup_ball(g: GroundSet, f: np.ndarray) -> np.ndarray:
    """Pointwise maximum of ``f`` over each closed epsilon-ball."""
    f = g.check_field(f)
    return np.maximum.reduceat(f[g.indices], g.indptr[:-1])


def inf_ball(g: GroundSet, f: np.ndarray) -> np.ndarray:
    """Pointwise minimum of ``f`` over each closed epsilon-ball."""
    f = g.check_field(f)
    return np.minimum.reduceat(f[g.indices], g.indptr[:-1])


def segment_argmax(vals: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Position in ``vals`` of the first maximum of each nonempty CSR
    segment ``vals[indptr[k]:indptr[k+1]]``."""
    starts = indptr[:-1]
    segmax = np.maximum.reduceat(vals, starts)
    hit = vals == np.repeat(segmax, np.diff(indptr))
    return np.minimum.reduceat(np.where(hit, np.arange(vals.size), vals.size), starts)


def dilate(g: GroundSet, a) -> np.ndarray:
    """Indices within epsilon of the set ``a`` (Minkowski expansion)."""
    return np.unique(g.neighbor_csr(sorted(a))[1])


def sliding_max_1d(values, k: int, count_ops: bool = False):
    """Windowed maximum over index windows [i-k, i+k], clipped at the ends.

    Two-pass block prefix/suffix scheme: O(n) total max operations.  With
    ``count_ops`` the return value is ``(out, n_max_ops)`` where the count
    covers every elementwise max performed.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("values must be 1-D")
    k = int(k)
    if k < 0:
        raise ValueError("window halfwidth must be nonnegative")
    n = x.size
    if k == 0 or n == 0:
        out = x.copy()
        return (out, 0) if count_ops else out

    w = 2 * k + 1
    padded = np.full(n + 2 * k, -np.inf)
    padded[k:k + n] = x
    nblocks = -(-padded.size // w)
    buf = np.full(nblocks * w, -np.inf)
    buf[:padded.size] = padded
    blocks = buf.reshape(nblocks, w)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    # window for output i covers padded[i : i + w]
    out = np.maximum(suffix[:n], prefix[w - 1:w - 1 + n])
    if count_ops:
        ops = 2 * nblocks * (w - 1) + n
        return out, ops
    return out
