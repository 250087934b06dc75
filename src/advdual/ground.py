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

from .errors import NegativeEpsilon, NonFiniteCoordinate, NonUniformGrid

NORMS = ("l1", "l2", "linf")


def _pairwise_leq(points: np.ndarray, norm: str, eps: float) -> np.ndarray:
    """Boolean adjacency matrix of the closed-ball relation (brute force)."""
    diff = points[:, None, :] - points[None, :, :]
    if norm == "l1":
        d = np.abs(diff).sum(axis=2)
    elif norm == "l2":
        d = np.sqrt((diff * diff).sum(axis=2))
    elif norm == "linf":
        d = np.abs(diff).max(axis=2)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return d <= eps


def pair_distances(points: np.ndarray, norm: str) -> np.ndarray:
    """Full matrix of pairwise distances under the given norm."""
    diff = points[:, None, :] - points[None, :, :]
    if norm == "l1":
        return np.abs(diff).sum(axis=2)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=2))
    if norm == "linf":
        return np.abs(diff).max(axis=2)
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

    @property
    def dim(self) -> int:
        return self.points.shape[1]

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


def _neighbor_pairs_bruteforce(points, norm, eps):
    adj = _pairwise_leq(points, norm, eps)
    return [np.flatnonzero(row) for row in adj]


def _neighbor_pairs_grid(points, norm, eps):
    """Uniform-bucket accelerator for d <= 3: cell size eps, scan 3^d cells.

    Any two points within eps (for l1/l2/linf alike) differ by at most eps
    per coordinate, so candidates live in adjacent cells.
    """
    n, d = points.shape
    cell = np.floor(points / eps).astype(np.int64)
    buckets: dict[tuple, list] = {}
    for i in range(n):
        buckets.setdefault(tuple(cell[i]), []).append(i)
    offsets = np.stack(np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    out = []
    for i in range(n):
        cand = []
        ci = cell[i]
        for off in offsets:
            cand.extend(buckets.get(tuple(ci + off), ()))
        cand = np.sort(np.asarray(cand, dtype=np.int64))
        diff = points[cand] - points[i]
        if norm == "l1":
            dist = np.abs(diff).sum(axis=1)
        elif norm == "l2":
            dist = np.sqrt((diff * diff).sum(axis=1))
        else:
            dist = np.abs(diff).max(axis=1)
        out.append(cand[dist <= eps])
    return out


def build_ground(points, norm: str = "l2", epsilon: float = 0.0,
                 accelerator: str = "auto") -> GroundSet:
    """Build a ground set and its closed-ball neighbor index.

    ``accelerator`` is one of ``auto`` (grid buckets when d <= 3 and eps > 0),
    ``grid``, or ``brute``; the brute path is also the oracle in tests.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty list of coordinate vectors")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteCoordinate("points contain non-finite coordinates")
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    epsilon = float(epsilon)
    if epsilon < 0 or not np.isfinite(epsilon):
        raise NegativeEpsilon(f"epsilon must be a finite nonnegative real, got {epsilon}")

    use_grid = accelerator == "grid" or (
        accelerator == "auto" and pts.shape[1] <= 3 and epsilon > 0 and pts.shape[0] > 256)
    if use_grid:
        neigh = _neighbor_pairs_grid(pts, norm, epsilon)
    else:
        neigh = _neighbor_pairs_bruteforce(pts, norm, epsilon)

    lengths = np.fromiter((len(a) for a in neigh), dtype=np.int64, count=len(neigh))
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.concatenate(neigh) if len(neigh) else np.empty(0, dtype=np.int64)
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


def ball_argmax(g: GroundSet, f: np.ndarray) -> np.ndarray:
    """Index of the ball maximum for each point, ties broken by lowest index.

    Neighbor lists are sorted, so the first position attaining the segment
    maximum is the lowest attaining index.
    """
    f = g.check_field(f)
    return g.indices[segment_argmax(f[g.indices], g.indptr)]


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


def sliding_max_field(g: GroundSet, f: np.ndarray) -> np.ndarray:
    """Fast sup_ball for 1-D uniformly spaced, sorted ground sets.

    Raises NonUniformGrid when the layout does not qualify; callers fall
    back to :func:`sup_ball`.
    """
    f = g.check_field(f)
    if g.dim != 1:
        raise NonUniformGrid("fast path requires a 1-D ground set")
    xs = g.points[:, 0]
    if g.n == 1:
        return f.copy()
    steps = np.diff(xs)
    if np.any(steps <= 0):
        raise NonUniformGrid("points must be sorted strictly ascending")
    spacing = steps[0]
    if not np.allclose(steps, spacing, rtol=1e-12, atol=1e-12):
        raise NonUniformGrid("points are not uniformly spaced")
    k = int(np.floor(g.epsilon / spacing + 1e-12))
    return sliding_max_1d(f, k)
