"""Product metrics on truncated sequence points, and point clouds.

All metrics act on finite truncations of sequence-space points.  Scalar
points are coordinate arrays of shape (dim,); pair points (carpet systems)
have shape (2, dim).  A descriptor may wrap a base metric in a dynamic
window: d_N(x, y) = max over shifts 0 <= i < N of d(shift^i x, shift^i y),
where the shift drops the leading coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateScale, DomainError

SUM_WEIGHTED_ABS = "sum_weighted_abs"      # sum 2^-n |x_n - y_n|
SUM_WEIGHTED_MAX = "sum_weighted_max"      # sum 2^-n max(|x_n-x'_n|, |y_n-y'_n|)
SUM_WEIGHTED_TORUS = "sum_weighted_torus"  # sum 2^-n rho(x_n, y_n)
LINF_FINITE = "linf_finite"                # max_n |x_n - y_n|

_KINDS = (SUM_WEIGHTED_ABS, SUM_WEIGHTED_MAX, SUM_WEIGHTED_TORUS, LINF_FINITE)


@dataclass(frozen=True)
class MetricDescriptor:
    kind: str
    iterates: int | None = None  # dynamic window N, or None for the bare metric

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown metric kind {self.kind!r}")
        if self.iterates is not None and self.iterates < 1:
            raise DomainError("iterates must be >= 1")


def torus_gap(u, v):
    """Circle distance rho(u, v) = min_m |u - v - m| on R/Z."""
    diff = np.abs(np.asarray(u) - np.asarray(v)) % 1.0
    return np.minimum(diff, 1.0 - diff)


def _base_rows(x, y, kind):
    """Per-coordinate contribution |x_n - y_n|.

    Only SUM_WEIGHTED_MAX takes pair-shaped points (..., 2, dim); it reduces
    the track axis by max.  Every other kind expects flat coordinate arrays;
    in particular linf clouds over pairs store the 2N coordinates flattened.
    """
    if kind == SUM_WEIGHTED_TORUS:
        return torus_gap(x, y)
    rows = np.abs(x - y)
    if kind == SUM_WEIGHTED_MAX:
        rows = rows.max(axis=-2)
    return rows


def distance(x, y, metric: MetricDescriptor) -> float:
    """Distance between two truncated points under the descriptor."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = _base_rows(x, y, metric.kind)
    if metric.kind == LINF_FINITE:
        if metric.iterates is not None:
            rows = rows[..., : metric.iterates]
        return float(rows.max())
    dim = rows.shape[-1]
    weights = 0.5 ** np.arange(1, dim + 1)
    if metric.iterates is None:
        return float(rows @ weights)
    best = 0.0
    for i in range(metric.iterates):
        tail = rows[..., i:]
        best = max(best, float(tail @ weights[: dim - i]))
    return best


@dataclass(frozen=True)
class PointCloud:
    """Finite set of truncated points with the metric they carry.

    `truncation_error` bounds the contribution of the discarded coordinate
    tail to any distance; scale queries must stay well above it.  `payload`
    holds provenance (digit matrices etc.) used by exact certificates.
    """

    points: np.ndarray
    metric: MetricDescriptor
    truncation_error: float = 0.0
    payload: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def distance(self, i: int, j: int) -> float:
        return distance(self.points[i], self.points[j], self.metric)

    def pairwise(self) -> np.ndarray:
        """Full distance matrix; intended for clouds of moderate size."""
        n = len(self)
        out = np.zeros((n, n))
        for i in range(n):
            row = pairwise_to_point(self.points[i:], self.points[i], self.metric)
            out[i, i:] = row
            out[i:, i] = row
        return out

    def min_pairwise(self) -> float:
        n = len(self)
        best = np.inf
        for i in range(n - 1):
            row = pairwise_to_point(self.points[i + 1 :], self.points[i], self.metric)
            best = min(best, float(row.min()))
        return best


def pairwise_to_point(points, ref, metric: MetricDescriptor) -> np.ndarray:
    """Vector of distances from every point in `points` to `ref`."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    rows = _base_rows(pts, ref, metric.kind)
    if metric.kind == LINF_FINITE:
        if metric.iterates is not None:
            rows = rows[..., : metric.iterates]
        return rows.max(axis=-1)
    dim = rows.shape[-1]
    weights = 0.5 ** np.arange(1, dim + 1)
    if metric.iterates is None:
        return rows @ weights
    best = np.zeros(len(pts))
    for i in range(metric.iterates):
        np.maximum(best, rows[..., i:] @ weights[: dim - i], out=best)
    return best


def check_scale(cloud: PointCloud, eps: float) -> None:
    if eps <= 4.0 * cloud.truncation_error:
        raise DegenerateScale(
            f"eps = {eps} is within 4x the truncation error "
            f"{cloud.truncation_error}"
        )
