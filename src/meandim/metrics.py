"""Product metrics on truncated sequence points, and point clouds.

All metrics act on finite truncations of sequence-space points.  Scalar
points are coordinate arrays of shape (dim,); pair points (carpet systems)
have shape (2, dim).  A descriptor may wrap a base metric in a dynamic
window: d_N(x, y) = max over shifts 0 <= i < N of d(shift^i x, shift^i y),
where the shift drops the leading coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    with np.errstate(over="ignore"):  # an inf difference, like any from 2^53 up, is 0 mod 1
        diff = np.minimum(np.abs(np.asarray(u) - np.asarray(v)), 2.0**53)
    diff = diff - np.floor(diff)  # diff mod 1, exact like % 1.0 and faster
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


@dataclass(frozen=True)
class PointCloud:
    """Finite set of truncated points with the metric they carry.

    `truncation_error` bounds the contribution of the discarded coordinate
    tail to any distance; scale queries must stay well above it.
    """

    points: np.ndarray
    metric: MetricDescriptor
    truncation_error: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if not np.isfinite(pts).all():
            raise DomainError("cloud coordinates must be finite numbers")
        # a weighted window shifts past the last coordinate (linf takes them all)
        iterates = self.metric.iterates
        if len(pts) and self.metric.kind != LINF_FINITE and iterates is not None:
            if iterates > pts.shape[-1]:
                raise DomainError(
                    f"metric iterates {iterates} exceeds the cloud's {pts.shape[-1]} coordinates"
                )

    def __len__(self) -> int:
        return len(self.points)

    def pairwise(self) -> np.ndarray:
        """Full distance matrix; intended for clouds of moderate size."""
        n = len(self)
        out = np.zeros((n, n))
        for lo, d in _distance_rows(self.points, self.metric):
            out[lo : lo + len(d), lo:] = d
            out[lo:, lo : lo + len(d)] = d.T
        return out

    def min_pairwise(self) -> float:
        """Least distance between two points of the cloud (inf below two).

        linf clouds take the closest pair from a grid join: the distance d0
        between two neighbours in lexicographic order is a distance some
        pair has, so the closest pair lies in equal or adjacent cells of side
        d0 (1 + 1e-9), with the margin argued in `_linf_grid`; `_grid_join`
        hands over the pairs of equal or adjacent occupied cells in blocks.
        Distances are computed as pairwise_to_point computes them, so the
        minimum is the same double.  Other metrics measure every pair, in
        batches.
        """
        window = _linf_window(self)
        if window is None:
            blocks = _distance_rows(self.points, self.metric)
            return min((float(d[np.triu_indices(len(d), 1, d.shape[1])].min(initial=np.inf))
                        for _, d in blocks), default=np.inf)  # pairs i < j
        cols = np.ascontiguousarray(window.T)
        order = np.lexsort(cols[::-1])
        best = float(_linf_pair_distances(cols, order[:-1], order[1:]).min())
        if best == 0.0:
            return best
        cells, radix = _linf_grid(window, best * (1.0 + 1e-9))
        if len(window) < 2 * 3 ** len(radix):
            cells, radix = cells[:, :0], []  # one block of all pairs costs less
        for i, j in _grid_join(cells, radix)[1]:
            best = min(best, float(_linf_pair_distances(cols, i, j).min()))
        return best


def _distance_rows(pts: np.ndarray, metric: MetricDescriptor):
    """Blocks (lo, d) of at most _PAIR_CHUNK pairs (one row at least), d[r, c]
    the distance between points lo + r and lo + c, covering every pair."""
    n, lo = len(pts), 0
    while lo < n:
        hi = min(n, lo + max(1, _PAIR_CHUNK // (n - lo)))
        yield lo, pairwise_to_point(pts[lo:hi, None], pts[lo:], metric)
        lo = hi


def pairwise_to_point(points, ref, metric: MetricDescriptor) -> np.ndarray:
    """Distances from `points` to `ref`, broadcast as numpy broadcasts.

    Weighted metrics sum from the last coordinate down, s_k = g_k + s_(k+1)/2,
    so d_i = s_i / 2 after i shifts: one pass gives every window shift, each
    distance by the same elementwise steps, the same double in any batch."""
    rows = _base_rows(np.asarray(points, dtype=float), np.asarray(ref, dtype=float), metric.kind)
    if metric.kind == LINF_FINITE:
        if metric.iterates is not None:
            rows = rows[..., : metric.iterates]
        return rows.max(axis=-1)
    shifts = 1 if metric.iterates is None else metric.iterates
    s = best = np.zeros(rows.shape[:-1])
    for k in range(rows.shape[-1] - 1, -1, -1):
        s = s * 0.5 + rows[..., k]
        if k < shifts:
            best = np.maximum(best, s)
    return best * 0.5


def _linf_window(cloud: PointCloud):
    """The coordinates a linf cloud measures (its first `iterates`), as a
    points x window array, or None when the grid kernels do not apply: a
    metric other than linf, points that are not flat, fewer than two points
    or an empty window."""
    metric, pts = cloud.metric, cloud.points
    if metric.kind != LINF_FINITE or pts.ndim != 2 or len(pts) < 2:
        return None
    window = pts if metric.iterates is None else pts[:, : metric.iterates]
    return window if window.shape[1] else None


def _linf_pair_distances(cols, i, j):
    """linf distances of the pairs (i[k], j[k]) over the window columns,
    computed as pairwise_to_point computes them."""
    d = np.zeros(len(i))
    for col in cols:
        np.maximum(d, np.abs(col[i] - col[j]), out=d)
    return d


_GRID_DIMS = 4  # coordinates bucketed at most (3^4 neighbouring cells)
_GRID_CELLS = 1 << 15  # cells per coordinate at most; wider cells beyond
_PAIR_CHUNK = 1 << 12  # candidate pairs measured per batch


def _linf_grid(window: np.ndarray, side: float):
    """Grid cells of a points x coordinates array: (cells, radix).

    Cells have side `side` (wider where a coordinate would split into more
    than _GRID_CELLS cells) on up to _GRID_DIMS coordinates, those that split
    into the most cells; a coordinate split into fewer than three cells
    separates no pair and is left out.  Two points less than `side` apart in
    every coordinate, with a margin of 1e-9 sides that dwarfs the rounding
    of the cell coordinates (about 2^-36 sides with at most 2^15 cells per
    coordinate), lie in equal or adjacent cells.  The radix n_cells + 2 of a
    coordinate leaves its last digit unoccupied, as `_grid_join` requires.
    """
    lo = window.min(axis=0)
    span = window.max(axis=0) - lo
    side = np.maximum(side, span / _GRID_CELLS)
    n_cells = np.floor(span / side)
    widest = np.argsort(-n_cells, kind="stable")[:_GRID_DIMS]
    dims = [k for k in widest if n_cells[k] >= 2]
    cells = np.floor((window[:, dims] - lo[dims]) / side[dims]).astype(np.int64)
    return cells, [int(n_cells[k]) + 2 for k in dims]


def _grid_join(cells: np.ndarray, radix):
    """Index pairs of points in equal or adjacent grid cells: a function
    that counts the candidate pairs, and blocks of _PAIR_CHUNK / 2 to about
    _PAIR_CHUNK pairs (i, j), each unordered pair once.  An empty radix
    pairs all points.

    Coordinate k of `cells` lies in [0, radix[k] - 1), so a step off the grid
    (digit -1 borrows, radix[k] - 1 overflows) meets no occupied cell.  Sorted
    by cell code, coordinate 0 least significant, a row of three cells along
    coordinate 0 is a run of points: a point pairs with the later points of
    its own row, and with the row around each neighbouring row code above,
    found per cell by searchsorted.  Blocks of points keep memory O(n + _PAIR_CHUNK).
    """
    n = len(cells)
    strides = np.cumprod([1, *radix], dtype=np.int64)[:-1]
    codes, rows = cells @ strides, [0]
    for stride in strides[1:].tolist():
        rows = [s + o * stride for s in rows for o in (-1, 0, 1)]
    lowest = np.array([s - 1 for s in rows if s > 0], dtype=np.int64)[:, None]
    order = np.argsort(codes, kind="stable").astype(np.int32 if n < 2**31 else np.int64)
    sorted_codes = codes[order]
    head = np.flatnonzero(np.diff(sorted_codes, prepend=-1))  # each occupied cell's run
    occupied, bound = sorted_codes[head], np.append(head, n)
    stop = np.searchsorted(sorted_codes, sorted_codes + 2)  # end of the own row: cells c, c + 1
    block, half = max(1, (n + _PAIR_CHUNK) // max(1, 2 * len(lowest))), max(1, _PAIR_CHUNK // 2)

    def rows_above(lo):
        """Runs of the block at lo: reps points from position first pair with begin to end - 1."""
        hi = min(n, lo + block)
        cell_lo, cell_hi = np.searchsorted(head, [lo, hi - 1], "right")
        needles = occupied[cell_lo - 1 : cell_hi] + lowest  # each row's first cell
        begin, end = np.searchsorted(sorted_codes, np.stack([needles, needles + 3]))
        live = end > begin
        cell = np.broadcast_to(np.arange(cell_lo - 1, cell_hi), live.shape)[live]
        first = np.maximum(head[cell], lo)
        return first, np.minimum(bound[cell + 1], hi) - first, begin[live], end[live]

    def blocks():
        held, pairs = [], 0
        for lo in range(0, n, block):
            first, reps, begin, end = rows_above(lo)
            own = np.arange(lo + 1, min(n, lo + block) + 1)  # each point's next position
            own = own[stop[own - 1] > own]
            held += [(order[own - 1], own, stop[own - 1] - own), (order[_ragged(first, reps)],
                     np.repeat(begin, reps), np.repeat(end - begin, reps))]
            pairs += int(held[-2][2].sum() + held[-1][2].sum())
            if pairs < half and lo + block < n:
                continue
            first, begin, count = (np.concatenate(parts) for parts in zip(*held))
            cuts = np.arange(half, pairs - half + 1, half)
            cuts = np.searchsorted(np.cumsum(count), cuts, "right")
            edges = sorted({0, len(count), *cuts.tolist()})
            for a, b in zip(edges[:-1], edges[1:]):
                yield np.repeat(first[a:b], count[a:b]), order[_ragged(begin[a:b], count[a:b])]
            held, pairs = [], 0

    def count():
        above = sum(int((r * (e - b)).sum()) for _, r, b, e in map(rows_above, range(0, n, block)))
        return above + int((stop - np.arange(1, n + 1)).sum())

    return count, blocks()


def _ragged(start, count):
    """The ranges start[k] to start[k] + count[k] - 1, concatenated."""
    ends = np.cumsum(count)
    return np.repeat(start - ends + count, count) + np.arange(ends[-1] if len(ends) else 0)


def check_scale(cloud: PointCloud, eps: float) -> None:
    if not eps > 4.0 * cloud.truncation_error:  # nan fails too
        raise DegenerateScale(
            f"eps = {eps} is not above 4x the truncation error "
            f"{cloud.truncation_error}"
        )
