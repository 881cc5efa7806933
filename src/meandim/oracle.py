"""Brute-force metric geometry on finite truncations.

Covering/packing brackets, scale-level Hausdorff exponents, the anisotropic
box machinery for carpet systems, product-measure mass checks, and the
inverse-square-measure construction on the reciprocal sequence space
{0, 1, 1/2, 1/3, ...}^N.  Everything here is an independent check of the
closed forms computed elsewhere in the package: certified brackets, exact
integer certificates, or double precision with outward 1e-12 slack.
"""

from __future__ import annotations

import bisect
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateScale,
    DomainError,
    ParameterOverflow,
    ResourceLimit,
)
from . import limits, symbolic, weighted
from .carpet import CarpetSpec, floor_w_m
from .metrics import (
    LINF_FINITE,
    MetricDescriptor,
    PointCloud,
    check_scale,
    _PAIR_CHUNK,
    _grid_join,
    _linf_grid,
    _linf_pair_distances,
    _linf_window,
    digit_points,
    pairwise_to_point,
    product_rows,
)

SLACK = 1e-12
EXACT_COVER_CAP = 12  # points at most in an exact cover (2^n covered masks)


# ---------------------------------------------------------------------------
# Covering-number brackets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverBounds:
    """lower <= #(cloud, d, eps) <= upper.

    lower: size of a greedily built maximal eps-separated subset (a set of
    diameter < eps contains at most one of its points).  upper: number of
    greedy centers whose (eps/2 - slack)-balls cover the cloud; each ball has
    diameter < eps.
    """

    lower: int
    upper: int
    separated: tuple
    centers: tuple


def covering_bounds(cloud: PointCloud, eps: float) -> CoverBounds:
    """Greedy brackets, visiting the points in index order.

    A point joins the separated set when it lies at distance >= eps from
    every point already kept, and becomes a center when it lies farther than
    eps/2 - slack from every center.  linf clouds find the pairs closer than
    eps by a join over occupied grid cells (near-linear in the cloud size);
    other metrics, and linf clouds too small or too dense for the grid to
    pay, scan blocks of points against the points kept so far
    (`_scan_greedy`).  Both ways give the same brackets.
    """
    separated, centers = _greedies(cloud, eps)
    return CoverBounds(
        lower=len(separated),
        upper=len(centers),
        separated=tuple(separated),
        centers=tuple(centers),
    )


def _greedies(cloud: PointCloud, eps: float):
    """The separated set, then the centers, of `covering_bounds`: lazily, so
    a caller that needs only the separated set runs one greedy."""
    check_scale(cloud, eps)
    radius = eps / 2.0 - SLACK
    conflicts = _linf_conflicts(cloud, eps, radius)
    if conflicts is None:
        yield _scan_greedy(cloud, lambda d: d < eps)
        yield _scan_greedy(cloud, lambda d: d <= radius)
    else:
        for pairs in conflicts:
            yield _greedy_by_conflicts(len(cloud), *pairs)


@np.errstate(over="ignore")  # an inf distance, see metrics._base_rows
def _scan_greedy(cloud: PointCloud, conflict) -> list[int]:
    """Indices the greedy keeps in index order, where `conflict(d)` marks the
    distances to a kept point that exclude a point.  Each block of
    _PAIR_CHUNK // kept points (one at least) is measured against the kept
    points in one call; then the earliest point left is kept and the rest of
    the block measured against it, until no point is left."""
    pts, metric = cloud.points, cloud.metric
    kept, lo = [], 0
    while lo < len(pts):
        hi = min(len(pts), lo + max(1, _PAIR_CHUNK // max(1, len(kept))))
        block = np.arange(lo, hi)
        if kept:
            block = block[~conflict(pairwise_to_point(pts[lo:hi, None], pts[kept], metric)).any(1)]
        while len(block):
            kept.append(int(block[0]))
            rest = block[1:]
            block = rest[~conflict(pairwise_to_point(pts[rest], pts[block[0]], metric))]
        lo = hi
    return kept


_PAIRS_PER_POINT = 64  # candidate pairs per point before the scan is cheaper


def _linf_conflicts(cloud: PointCloud, eps: float, radius: float):
    """Index pairs (later, earlier) closer than eps, and those within radius.

    Returns None when the grid does not apply (see `_linf_window`), for
    clouds smaller than twice the number of neighbouring cells, and when the
    join's candidate pairs, counted before any is measured, exceed
    _PAIRS_PER_POINT per point: then most pairs conflict and the scan pays.

    Cells have side eps (1 + 1e-9) (`_linf_grid`), so a pair at computed
    distance <= eps lies in equal or adjacent cells.  Distances of candidate
    pairs are computed as pairwise_to_point computes them, so the brackets
    are the scan's.
    """
    window = _linf_window(cloud)
    if window is None or not (math.isfinite(eps) and eps > 0.0):
        return None
    n = len(window)
    cells, radix = _linf_grid(window, eps)
    if n < 2 * 3 ** len(radix):
        return None  # joining 3^k neighbouring cells costs more than the scan
    count, blocks = _grid_join(cells, radix)
    if count() > _PAIRS_PER_POINT * n:
        return None
    cols = np.ascontiguousarray(window.T)
    empty = np.zeros(0, dtype=np.int32)  # widened on concatenation past 2^31 points
    sep, cen = ([empty], [empty]), ([empty], [empty])
    for i, j in blocks:
        d = _linf_pair_distances(cols, i, j)
        later, earlier = np.maximum(i, j), np.minimum(i, j)
        for out, close in ((sep, d < eps), (cen, d <= radius)):
            out[0].append(later[close])
            out[1].append(earlier[close])
    return tuple((np.concatenate(a), np.concatenate(b)) for a, b in (sep, cen))


def _greedy_by_conflicts(n: int, later: np.ndarray, earlier: np.ndarray) -> list[int]:
    """Indices kept by the greedy in index order: a point is kept unless an
    earlier kept point conflicts with it.  Only conflicting pairs are walked,
    by later point, so each earlier point is settled when it is read."""
    order = np.argsort(later)
    kept = bytearray(b"\x01") * n
    for part in np.split(order, range(_PAIR_CHUNK, len(order), _PAIR_CHUNK)):  # short int lists
        for i, j in zip(later[part].tolist(), earlier[part].tolist()):
            if kept[j]:
                kept[i] = 0
    return np.flatnonzero(np.frombuffer(kept, dtype=np.uint8)).tolist()


def exact_min_cover(cloud: PointCloud, eps: float) -> int:
    """Exact minimum number of diameter-<eps subsets covering the cloud.

    A subset has diameter < eps exactly when its points are pairwise closer
    than eps: it is a clique of the graph joining such points.  Every clique
    lies in a maximal one, so the answer is the least number of maximal
    cliques covering the cloud.  Bron-Kerbosch with pivoting lists the
    maximal cliques as int bit masks (at most 3^(n/3) of them, 81 at 12
    points); a breadth-first search over covered masks then adds, at each
    step, every maximal clique through the least uncovered point.  The
    search can reach every one of the 2^n masks, so clouds are restricted
    to at most EXACT_COVER_CAP points.
    """
    n = len(cloud)
    if n > EXACT_COVER_CAP:
        raise ResourceLimit(f"exact cover limited to {EXACT_COVER_CAP} points; "
                            f"exact cover: {n} points exceed the cap {EXACT_COVER_CAP}")
    check_scale(cloud, eps)
    full = (1 << n) - 1
    near = cloud.pairwise() < eps
    np.fill_diagonal(near, False)
    nbr = (near * (1 << np.arange(n))).sum(axis=1).tolist()
    maximal = []

    def extend(clique, cand, done):  # every maximal clique that grows clique from cand, not done
        if not cand | done:
            maximal.append(clique)
            return
        pivot = max([u for u in range(n) if (cand | done) >> u & 1],
                    key=lambda u: (cand & nbr[u]).bit_count())
        for v in [v for v in range(n) if (cand & ~nbr[pivot]) >> v & 1]:
            extend(clique | 1 << v, cand & nbr[v], done & nbr[v])
            cand, done = cand & ~(1 << v), done | 1 << v

    extend(0, full, 0)
    through = [[c for c in maximal if c >> i & 1] for i in range(n)]
    covered, steps = {0}, 0
    while full not in covered:  # ~m & (m + 1) is the lowest bit m lacks: its least uncovered point
        covered = {m | c for m in covered for c in through[(~m & (m + 1)).bit_length() - 1]}
        steps += 1
    return steps


# ---------------------------------------------------------------------------
# Scale-level Hausdorff exponent of a finite cover
# ---------------------------------------------------------------------------


def hausdorff_upper_at_scale(diameters, eps: float, tol: float = 1e-10) -> float:
    """The root s* of sum_i diam_i^s = 1 (0 if a single set suffices).

    Every diameter must lie in (0, min(1, eps)); then s -> sum diam^s is
    strictly decreasing, and the value certifies dimh(., d, eps) <= s* for any
    space covered by sets of these diameters.  The bisection stops at width
    tol, a finite number above 0, or at adjacent doubles.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol = {tol} is not a finite number above 0")
    if not eps > 0.0:
        raise DomainError(f"eps = {eps} is not a number above 0")
    diams = sorted((float(d) for d in diameters), reverse=True)
    if not diams:
        raise DomainError("cover must be nonempty")
    for d in diams:
        if not (0.0 < d < 1.0 and d < eps):
            raise DomainError(f"diameter {d} outside (0, min(1, eps))")
    if len(diams) == 1:
        return 0.0

    def total(s: float) -> float:
        return math.fsum(d**s for d in diams)

    lo, hi = 0.0, 1.0
    # every diameter is at most 1 - 2^-53, so d^s underflows to 0 once
    # s 2^-53 passes 745: the doubling ends by hi = 2^63
    while total(hi) >= 1.0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if total(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Anisotropic boxes for carpet systems
# ---------------------------------------------------------------------------


WITNESS_TAIL_LAYERS = 45  # anchor layers past m in a witness point
FULL_PAIR_CAP = 3000  # boxes at most in a family whose every pair is measured


@dataclass(frozen=True)
class QBoxFamily:
    """The level-(n, m) boxes: cylinders whose first floor_wm layers fix
    full (u, v) digit words and whose layers up to m fix only the v word.
    It holds their counts: rows (`_layer_rows`) are built with points."""

    spec: CarpetSpec
    n: int
    m: int
    floor_wm: int
    count: int  # boxes in the family, the product count_formula
    count_formula: int  # |Omega|_N|^t * |Omega'|_N|^(M-t)
    diam_bound: float  # a^-t, certified < a b^-M
    diam_certified: bool  # exact integer check b^M < a^(t+1)
    separation_certified: bool  # exact digit argument for >= b^-M
    layer_sizes: tuple  # options per layer: |Omega|_N| in the first floor_wm, then |Omega'|_N|

    def min_separation(self) -> float:
        return float(self.spec.b) ** (-self.m)

    def witness_cloud(self) -> PointCloud:
        """The separated family: one point per box, pairwise linf >= b^-m."""
        limits.check("point", self.count, "points", "witness family")
        depth = self.m + WITNESS_TAIL_LAYERS
        return PointCloud(
            points=_witness_points(self, product_rows(self.layer_sizes), depth),
            metric=MetricDescriptor(kind=LINF_FINITE),  # over the 2N coordinates
            truncation_error=float(self.spec.b) ** (-depth),
        )


def _witness_points(family: QBoxFamily, choices: np.ndarray, depth: int) -> np.ndarray:
    """Coordinates (x then y, flattened) of anchored family points.

    Row k of `choices`, an integer array of shape (points, m), names one
    point by its m leading digit layers: a row of omega_rows for each of
    the first floor_wm layers, of image_rows for the others.  Layers m to
    depth - 1 repeat the anchor, omega_rows[0].  Coordinate j of x is the
    sum over layers i of the double term u_i[j] * a^-(i+1), rounded once
    (`digit_points`), as math.fsum adds them; the anchor's layers are its
    fixed part.  y likewise with v and b.  Term tables hold only the digits
    that occur, by rank (a base may be 10^12): one `np.unique` of both tables.
    """
    n, m, t = family.n, family.m, family.floor_wm
    omega_rows, image_rows = _layer_rows(family.spec, n)
    tables = np.vstack((omega_rows, image_rows))
    blocks = []
    for base, part in ((family.spec.a, slice(0, n)), (family.spec.b, slice(n, 2 * n))):
        occurring, rank = np.unique(tables[:, part], return_inverse=True)
        full, image = np.split(rank.reshape(len(tables), n), [len(omega_rows)])
        powers = [float(base) ** -(i + 1) for i in range(depth)]
        terms = [[float(d) * powers[i] for d in occurring.tolist()] for i in range(m)]
        fixed = [weighted.exact_total([float(d) * p for p in powers[m:]])
                 for d in omega_rows[0, part].tolist()]
        blocks.append(digit_points([full] * t + [image] * (m - t), choices, terms, fixed))
    return np.hstack(blocks)


def _layer_rows(spec: CarpetSpec, n: int) -> tuple:
    """(omega_rows, image_rows): each (u, v) in Omega|_N as u then v, increasing,
    row 0 the anchor, and each v in Omega'|_N, increasing, after its least u
    with (u, v) in it; object dtype when a b > 2^63."""
    b = spec.b
    omega_rows = symbolic.enumerate_words(spec.system.omega, n)
    omega_rows = np.hstack((omega_rows // b, omega_rows % b))  # np.divmod refuses object arrays
    omega_rows = omega_rows[np.lexsort(omega_rows.T[::-1])]
    by_v = omega_rows[np.lexsort(omega_rows[:, n:].T[::-1])]  # stable: (v, u) order
    image_rows = by_v[np.r_[True, (by_v[1:, n:] != by_v[:-1, n:]).any(axis=1)]]
    return omega_rows, image_rows


def qbox_family(spec: CarpetSpec, n: int, m: int) -> QBoxFamily:
    """Count the level-(n, m) box family and certify its geometry.

    The boxes are indexed by t = floor(M log_a b) layers of Omega|_N words
    and M - t layers of Omega'|_N words, so there are exactly
    |Omega|_N|^t * |Omega'|_N|^(M-t) of them; every box has linf diameter
    <= a^-t < a b^-M, and the anchored point family is pairwise b^-M
    separated.  The diameter and separation facts are certified by exact
    integer arithmetic on the digit structure; distances on materialized
    points are double precision.
    """
    if n < 1 or m < 1:
        raise DomainError(f"box level (N, M) = ({n}, {m}) needs N >= 1 and M >= 1")
    if spec.a > sys.float_info.max:  # before any float(a) or float(b), as b <= a
        raise ParameterOverflow(f"base a of {spec.a.bit_length()} bits passes double precision")
    a, b = spec.a, spec.b
    omega = spec.system.omega.automaton.checked_count(n, "word")  # |Omega|_N|
    image = weighted.image_subshift(spec.system).automaton.checked_count(n, "word")  # |Omega'|_N|

    bits = limits.cap("word").bit_length()
    if m > bits:  # |Omega'|_N|^M <= count: refused with no power of size M
        limits.check_at_least("word", image**bits, "boxes", "box family")
    if float(b) ** -m == 0.0:  # before b^M is taken
        raise ParameterOverflow(f"box separation b^-M = {b}^-{m} underflows double precision")
    t = floor_w_m(a, b, m)
    count_formula = limits.check("word", [(omega, t), (image, m - t)], "boxes", "box family")

    # diameter: a^-t < a * b^-m  <=>  b^m < a^(t+1), exact integers
    diam_certified = b**m < a ** (t + 1) and a**t <= b**m
    # separation: differing v digits give a nonzero integer multiple of b^-m;
    # equal v parts force equal section/anchor layers, so differing u digits
    # give a nonzero integer multiple of a^-t >= b^-m (by a^t <= b^m).
    separation_certified = a**t <= b**m

    return QBoxFamily(
        spec=spec,
        n=n,
        m=m,
        floor_wm=t,
        count=count_formula,
        count_formula=count_formula,
        diam_bound=float(a) ** (-t),
        diam_certified=diam_certified,
        separation_certified=separation_certified,
        layer_sizes=(omega,) * t + (image,) * (m - t),
    )


def verify_family_separation(family: QBoxFamily, samples: int = 2000, seed: int = 0) -> dict:
    """Observed pairwise linf separation of the witness family.

    All pairs are checked up to FULL_PAIR_CAP boxes.  For larger families a
    seeded sample is measured instead, mixing random pairs with single-layer
    perturbations (the pairs that attain the minimum).  The exact-integer
    certificate in the family record covers every pair regardless.
    """
    if samples < 1:
        raise DomainError(f"samples = {samples} must be >= 1")
    target = family.min_separation()
    if family.count <= FULL_PAIR_CAP:
        cloud = family.witness_cloud()
        observed = cloud.min_pairwise()
        mode = "all_pairs"
    else:
        first, second, _ = _sample_pairs(family.layer_sizes, samples, seed)
        pts = _witness_points(family, np.vstack((first, second)), family.m + WITNESS_TAIL_LAYERS)
        dists = pairwise_to_point(*np.split(pts, 2), MetricDescriptor(kind=LINF_FINITE))
        observed = float(dists.min())  # raises when no pair was drawn: no empty pass
        mode = "sampled_pairs"
    return {
        "observed_min": observed,
        "required": target,
        "mode": mode,
        "ok": observed >= target - SLACK,
        "certified": family.separation_certified,
    }


def _sample_pairs(sizes, samples: int, seed: int):
    """(first, second, perturbed): seeded pairs of digit choices over layers
    of sizes[i] options, as rows, from one block of random.Random(seed)
    bytes.  A sample's second choice is fresh on heads; on tails it is the
    first with one layer, of those with two options or more, moved to
    another option (these pairs attain the minimum).  Equal pairs are dropped."""
    sizes = np.array(sizes, dtype=np.uint64)
    m = len(sizes)
    raw = random.Random(seed).randbytes(8 * samples * (2 * m + 3))
    bits = np.frombuffer(raw, dtype="<u8").reshape(samples, 2 * m + 3)
    first, second = bits[:, :m] % sizes, bits[:, m : 2 * m] % sizes
    movable = np.flatnonzero(sizes > 1)
    perturbed = (bits[:, 2 * m] >> np.uint64(63) == 1) & (len(movable) > 0)
    rows = np.flatnonzero(perturbed)
    layer = movable[bits[rows, 2 * m + 1] % np.uint64(max(1, len(movable)))]
    step = bits[rows, 2 * m + 2] % (sizes[layer] - np.uint64(1)) + np.uint64(1)
    second[rows] = first[rows]
    second[rows, layer] = (first[rows, layer] + step) % sizes[layer]
    keep = (first != second).any(axis=1)
    return first[keep].astype(np.intp), second[keep].astype(np.intp), perturbed[keep]


def covering_sandwich(spec: CarpetSpec, n: int, m: int) -> dict:
    """Two-sided covering-number bracket at scales (b^-M, a b^-M).

    The witness family gives #(X|_N, linf, b^-M) >= count; the box cover
    gives #(X|_N, linf, a b^-M) <= count.  Both normalized by N M log b, the
    common value log(count)/(N M log b) brackets the metric mean dimension at
    finite size.
    """
    fam = qbox_family(spec, n, m)
    ratio = math.log(fam.count) / (n * m * math.log(spec.b))
    greedy = None
    if fam.count <= FULL_PAIR_CAP:  # the greedy cross-check runs on small families only
        eps = fam.min_separation()
        bounds = covering_bounds(fam.witness_cloud(), eps)
        greedy = {"lower": bounds.lower, "upper": bounds.upper, "eps": eps}
        if bounds.lower != fam.count:
            raise AssertionError(
                f"greedy separated set lost points: {bounds.lower} < {fam.count}"
            )
    return {
        "n": n,
        "m": m,
        "count": fam.count,
        "ratio": ratio,  # of the separated family at eps = b^-M and the box cover at a b^-M
        "separation": fam.separation_certified,
        "greedy": greedy,
    }


# ---------------------------------------------------------------------------
# Mass-distribution certificate for carpet boxes
# ---------------------------------------------------------------------------

IDENTITY_SAMPLES = 100  # sampled digit sequences for the product identity


def mass_distribution_check(spec: CarpetSpec, n: int, m_range, s: float, seed: int = 0) -> dict:
    """Box-granular mass-distribution certificate at exponent s.

    The product measure built from f_N(u, v) = t_N(v)^(w-1) / Z_N gives each
    level-M box the mass mu(P) = prod f_N * prod_{m > floor(wM)} t_N(y_m).
    The check verifies, for every box and every M in m_range, that
    mu(P) <= (a b^-M)^s, the scale-level mass bound that lower-bounds the
    Hausdorff exponent at the box scale; it also confirms the exact product
    identity for (1/NM) log mu(P) on sampled digit sequences and that the
    measure is a probability measure.  m_range is a range or an increasing
    list, read at its ends: a box scale of 1 or more at its least M, and a
    separation b^-M that underflows a double at its largest, are refused.
    """
    if n < 1:
        raise DomainError(f"coordinate window N = {n} must be >= 1")
    if not math.isfinite(s):
        raise DomainError(f"exponent s = {s} is not a finite number")
    m_lo, m_hi = sorted((m_range[0], m_range[-1])) if m_range else (0, 0)
    if m_lo < 1:
        raise DomainError(f"M {m_range!r} must be a nonempty range with every M >= 1")
    if spec.a > sys.float_info.max:  # before any float(a) or float(b), as b <= a
        raise ParameterOverflow(f"base a of {spec.a.bit_length()} bits passes double precision")
    a, b = spec.a, spec.b
    log_a, log_b = math.log(a), math.log(b)
    if m_lo <= floor_w_m(b, a, 1) or log_a - m_lo * log_b >= 0.0:  # a >= b^M, falling with M
        raise DomainError(f"M = {m_lo}: the box scale a b^-M is 1 or more, exactly or in log "
                          f"(log a - M log b = {log_a - m_lo * log_b!r})")
    if float(b) ** -m_hi == 0.0:  # before the fiber table and floor_w_m's b^M
        raise ParameterOverflow(
            f"M = {m_hi}: box separation {b}^-{m_hi} underflows double precision"
        )
    w = spec.w

    table = weighted.fiber_counts(spec.system, n)
    fibers = dict(table.level(n).items())  # v-word -> t_N(v), lexicographic
    words_total = table.total(n)
    z_n = math.fsum(tv**w for tv in fibers.values())
    log_z = math.log(z_n)
    # every fixed layer of digit pairs carries sum_v t(v) t(v)^(w-1) / Z_N, and
    # every free layer sum_v t(v)^w / Z_N = 1
    mass_ok = abs(math.fsum(tv * tv ** (w - 1.0) for tv in fibers.values()) / z_n - 1.0) <= 1e-9

    log_t = {v: math.log(tv) for v, tv in fibers.items()}
    weight = {v: (w - 1.0) * log_t[v] for v in fibers}  # log f_N(u, v) + log Z_N
    v_words = list(fibers)
    t_hi = floor_w_m(a, b, m_hi)  # the box count |Omega_N|^t |Omega'_N|^(M - t) grows with M
    limits.check_digits([(words_total, t_hi), (len(v_words), m_hi - t_hi)], f"M = {m_hi}")
    rng = random.Random(seed)
    # log mu(P) + M log Z_N is a sum of per-position terms, weight[y_i] in the
    # floor(wM) fixed layers and w log t(y_i) after them, so the heaviest box,
    # and the least of the heaviest, repeats the least word of most weight
    # and then the least word with the largest fiber
    low, high = max(v_words, key=weight.__getitem__), max(v_words, key=fibers.__getitem__)

    per_m = {}
    all_passed = True
    for m in m_range:
        t_floor = floor_w_m(a, b, m)
        log_diam = log_a - m * log_b
        # the float steps of a math.fsum over the box's weights (their exact
        # sum, rounded once) and one over its free layers
        weights = t_floor * Fraction(weight[low]) + (m - t_floor) * Fraction(weight[high])
        log_mu = -m * log_z + float(weights) + math.fsum([log_t[high]] * (m - t_floor))
        largest_s = log_mu / log_diam
        passed = largest_s >= s - SLACK
        all_passed = all_passed and passed
        per_m[m] = {
            "floor_wm": t_floor,
            "diam_bound": float(a) * float(b) ** (-m),
            "largest_s": largest_s,
            "passed": passed,
            "worst_y": (low,) * t_floor + (high,) * (m - t_floor),
            "box_count": words_total ** t_floor * len(v_words) ** (m - t_floor),
            "mass_ok": mass_ok,
        }

    # product identity on sampled digit sequences
    identity_max_err = 0.0
    for _ in range(IDENTITY_SAMPLES):
        m = rng.choice(list(m_range))
        t_floor = floor_w_m(a, b, m)
        y_seq = [rng.choice(v_words) for _ in range(m)]
        log_mu = -m * log_z + math.fsum(
            (w - 1.0) * log_t[v] for v in y_seq
        ) + math.fsum(log_t[v] for v in y_seq[t_floor:])
        lhs = log_mu / (n * m)
        s_m = math.fsum(log_t[v] for v in y_seq) / n
        s_t = math.fsum(log_t[v] for v in y_seq[:t_floor]) / n
        rhs = -log_z / n + w * (s_m / m - s_t / (w * m))
        identity_max_err = max(identity_max_err, abs(lhs - rhs))

    return {
        "w": w,
        "z_n": z_n,
        "s": s,
        "per_m": per_m,
        "all_passed": all_passed,
        "identity_max_err": identity_max_err,
        "identity_ok": identity_max_err <= 1e-10,
    }


# ---------------------------------------------------------------------------
# The reciprocal sequence space {0, 1, 1/2, 1/3, ...}^N
# ---------------------------------------------------------------------------

INV_SQ_WEIGHT = math.nextafter(3.0 / math.pi**2, 0.0)  # 3/pi^2 rounded down: atom 1/j's j^2 mass
_ATOM_FLOOR = 2.0**-500  # atoms 1/j at or above it have j * j below 2^1002
_INV_SQ_BLOCK = 1 << 14  # atoms of an interval summed exactly before its tail bound


def reciprocal_atoms(n_cap: int) -> np.ndarray:
    """The truncated point set {0} U {1/j : j <= n_cap}, ascending, in float64;
    an n_cap past the word budget is refused before anything is allocated."""
    limits.check("word", n_cap, "atoms", "reciprocal set")
    return np.append(0.0, 1.0 / np.arange(n_cap, 0, -1, dtype=np.float64))


def inverse_square_mass(lo: float, hi: float) -> float:
    """Certified lower bound on the inverse-square measure of [lo, hi].

    Atoms sit at 0 (mass 1/2) and 1/j (mass (3/pi^2)/j^2).  The interval's
    atoms 1/j, j_min <= j < j_end, are summed exactly below J = j_min +
    _INV_SQ_BLOCK; the rest add L(J) - U(j_end), or L(J) when the interval
    holds 0, by the Euler-Maclaurin enclosure of T(J) = sum_{j>=J} j^-2:
        L(J) = 1/J + 1/(2J^2) + 1/(6J^3) - 1/(30J^5) <= T(J) <= L(J) + 1/(30J^5) = U(J).
    Every derivative of x^-2 has constant sign, so each remainder of Euler's
    summation formula lies between 0 and its first term left out (Graham,
    Knuth and Patashnik, Concrete Mathematics, 2nd ed., section 9.5).  Atoms
    below _ATOM_FLOOR (j * j passes the largest double near j = 2^512) count
    only in the L(J) of an interval from 0, an under-count below 2^-500.  The
    full-line mass is exactly 1 by the zeta(2) identity.
    """
    if not lo <= hi:  # also an interval with a nan end: no real in it
        return 0.0
    zero = 0.5 if lo <= 0.0 <= hi else 0.0
    if hi < _ATOM_FLOOR:
        return zero
    j_min = _least_index_at_most(hi)
    j_end = None if zero else _greatest_index_at_least(max(lo, _ATOM_FLOOR)) + 1
    if j_end is not None and j_end <= j_min:  # no atom
        return 0.0
    j_stop = min(j_min + _INV_SQ_BLOCK, j_end or math.inf)
    tail = _inverse_square_tail(j_stop, j_end) if j_stop != j_end else 0.0
    # With u = 2^-53, a term 1.0 / (j * j) is at most (1 + u) / (1 - u) times 1 / j^2,
    # and the sum, the add of the tail (rounded down) and the product by a weight
    # below 3/pi^2 round up by 1 + u each: (1 + u)^5 (1 - 8u) / (1 - u) < 1 puts the
    # atoms times 1 - 8u, rounded, below their mass.  mass - 1/2 is exact (Sterbenz).
    atoms = INV_SQ_WEIGHT * (_inverse_square_sum(j_min, j_stop) + tail) * (1.0 - 2.0**-50)
    mass = zero + atoms
    return mass if mass - zero <= atoms else math.nextafter(mass, 0.0)


def _inverse_square_tail(j_lo: int, j_end: int | None) -> float:
    """L(j_lo) - U(j_end), or L(j_lo) if j_end is None, exact and rounded down."""

    def upper(j):  # U(j) = 1/j + 1/(2j^2) + 1/(6j^3)
        return Fraction(6 * j * j + 3 * j + 1, 6 * j**3)

    bound = upper(j_lo) - Fraction(1, 30 * j_lo**5) - (0 if j_end is None else upper(j_end))
    near = float(bound)
    return near if Fraction(near) <= bound else math.nextafter(near, -math.inf)


def _inverse_square_sum(j_lo: int, j_hi: int) -> float:
    """math.fsum of 1.0 / (j * j) over j_lo <= j < j_hi, bit for bit.

    A float64 j is exact below 2^53, and j * j then rounds as Python's int
    to float conversion does; larger j stay Python ints.  A single atom is
    its own sum (most calls from the product witness hold one).
    """
    if j_hi - j_lo == 1:
        return 1.0 / (j_lo * j_lo)
    j = np.arange(j_lo, j_hi, dtype=float if j_hi <= 2**53 else object)
    return float(weighted.exact_total(1.0 / (j * j)))


def _is_atom(v: float) -> bool:
    """v is 0 or the atom 1 / j of some j >= 1."""
    return v == 0.0 or (0.0 < v <= 1.0 and 1 / _least_index_at_most(v) == v)


def _least_index_at_most(hi: float) -> int:
    """Least j >= 1 whose atom 1 / j is at most hi, for a double hi > 0.

    An atom is the double nearest 1/j: 1 / j, int by int, which for j up to
    2^53 is the 1.0 / j of reciprocal_atoms.  The reals that round to hi or
    below lie below the midpoint of hi and the next double, or on it
    (Goldberg, ACM Computing Surveys 23, 1991).  1/j is below the midpoint
    for every j past floor(1 / midpoint), so the answer is that floor or one
    more, and the rounded quotient at the floor decides.
    """
    if hi >= 1.0:
        return 1
    p, q = hi.as_integer_ratio()
    r, s = math.nextafter(hi, 1.0).as_integer_ratio()
    j = 2 * q * s // (p * s + r * q)  # floor(1 / midpoint), at least 1
    return j if 1 / j <= hi else j + 1


def _greatest_index_at_least(lo: float) -> int:
    """Greatest j >= 1 whose atom 1 / j is at least lo (0 if none), for a
    double lo > 0: ceil(1 / midpoint) or one less, the midpoint being that
    of lo and the double below it, as in _least_index_at_most."""
    if lo > 1.0:
        return 0
    p, q = lo.as_integer_ratio()
    r, s = math.nextafter(lo, 0.0).as_integer_ratio()
    j = -(-2 * q * s // (p * s + r * q))  # ceil(1 / midpoint), at least 2
    return j if 1 / j >= lo else j - 1


def reciprocal_witness_delta(m: int, eps: float) -> float:
    """The interval width parameter: strictly below eps/12, a^m/8, 2^-(m/3+1)."""
    if m < 1:
        raise DomainError(f"scale depth m = {m} must be >= 1")
    if not (0.0 < eps < 1.0 / 6.0):
        raise DomainError(f"eps = {eps} must lie in (0, 1/6)")
    bound = min(eps / 12.0, INV_SQ_WEIGHT**m / 8.0, 0.5 ** (m / 3.0 + 1.0))
    return bound * (1.0 - 1e-9)


def reciprocal_tail_depth(m: int, delta: float) -> int:
    """Least L with 2^-L < delta^(m^m), in log space (0 < delta < 1); a
    delta^(m^m) below 2^-1000 (L past 1,000) is refused with ParameterOverflow,
    with no power m^m past m^m |log2 delta| = 2^10."""
    log2_delta = math.log2(delta) if delta > 0.0 else -math.inf  # delta is 0.0 from m = 627
    if m * math.log2(m) + math.log2(-log2_delta) > 10.0 or float(m**m) * log2_delta < -1000.0:
        raise ParameterOverflow("delta^(m^m) underflows double precision")
    exponent = float(m**m) * math.log2(1.0 / delta)
    return int(math.floor(exponent)) + 1


def reciprocal_product_witness(x, n_window: int, m: int, eps: float) -> dict:
    """Product-interval mass witness around a point of the reciprocal space.

    Partitions the first N + L coordinates by the magnitude scale of x_n
    (thresholds delta^(m^k)), picks the thinnest class, and takes the box
    prod [x_n - r, x_n] with r at that class's scale.  Per coordinate the
    inverse-square measure of the interval is at least (2r)^(3/m) (twice over
    on the thin class), giving mass >= diam^(6 (N+L) / m) with
    diam <= r + 2^-L < 2r.
    """
    if n_window < 1:
        raise DomainError(f"coordinate window N = {n_window} must be >= 1")
    delta = reciprocal_witness_delta(m, eps)
    tail = reciprocal_tail_depth(m, delta)  # refuses a delta^(m^m) below 2^-1000
    n_total = n_window + tail
    x = [float(v) for v in x]
    bad = [v for v in set(x) if not _is_atom(v)]
    if bad:
        raise DomainError(f"coordinate {min(bad)!r} is neither 0 nor 1/j: not a point of the space")
    if len(x) < n_total:
        raise DomainError(f"need {n_total} coordinates, got {len(x)}")
    x = x[:n_total]

    thresholds = [delta ** (m**k) for k in range(m + 1)]  # k = 0..m

    def class_of(v: float) -> int:
        if v > delta:
            return 0
        for k in range(1, m + 1):
            if thresholds[k] < v <= thresholds[k - 1]:
                return k
        return m + 1

    class_by_value = {v: class_of(v) for v in set(x)}
    classes = [class_by_value[v] for v in x]
    sizes = [classes.count(k) for k in range(m + 2)]
    m0 = next(k for k in range(m + 1) if sizes[k] <= n_total / (m + 1))
    r = delta ** (m**m0)  # >= delta^(m^m) >= 2^-1000 by the tail depth's refusal

    masses = {v: inverse_square_mass(v - r, v) for v in set(x)}  # once per value
    mass = math.prod(masses[v] for v in x)
    cases = [
        "zero_atom" if k > m0 else ("thin_class" if k == m0 else "large_value") for k in classes
    ]
    diam_bound = r + 2.0**-tail if tail < 1074 else r
    exponent = 6.0 * n_total / m
    required = diam_bound**exponent  # may underflow to 0.0, so passed compares logs
    logs = {v: math.log(mass_v) if mass_v else -math.inf for v, mass_v in masses.items()}
    log_mass = math.fsum(logs[v] for v in x)
    return {
        "m": m,
        "m0": m0,
        "r": r,
        "delta": delta,
        "tail_depth": tail,
        "n_total": n_total,
        "diam_bound": diam_bound,
        "mass": mass,
        "exponent": exponent,
        "required": required,
        "passed": log_mass >= (1.0 + SLACK) * exponent * math.log(diam_bound),  # relative slack
        "cases": cases,
        "class_sizes": sizes,
    }


def sample_reciprocal_point(n_coords: int, n_cap: int, seed: int = 0) -> list[float]:
    """Seeded sample from the truncated space, coordinates iid inverse-square;
    more coordinates than the word budget are refused before any is drawn."""
    if n_cap < 1:
        raise DomainError(f"truncation n_cap = {n_cap} must be >= 1")
    limits.check("word", n_coords, "coordinates", "reciprocal sample")
    uniform, top = random.Random(seed).random, 1.0 - 1.0 / (n_cap + 1.0)
    out = []
    for _ in range(n_coords):
        if uniform() < 0.5:
            out.append(0.0)
        else:
            # inverse-square index sampling by inversion: P(J >= j) ~ 1/j
            j = min(n_cap, max(1, int(1.0 / (1.0 - uniform() * top))))
            out.append(1.0 / j)
    return out


def reciprocal_set_dims(n_cap: int, eps: float) -> dict:
    """Scale-level dimensions of the one-coordinate reciprocal set at eps.

    The covering number is exact (optimal interval sweep on sorted points);
    dimm(K, eps) = log # / log(1/eps).  The scale Hausdorff exponent is 0 at
    every scale: the cover {[0, delta]} plus singletons has weight sum
    delta^s < 1 for every s > 0 (singletons contribute 0^s = 0).
    """
    if n_cap < 1:
        raise DomainError(f"truncation n_cap = {n_cap} must be >= 1")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps = {eps} must lie in (0, 1)")
    # scales below the truncation resolution would probe discarded atoms;
    # coarse scales (>= 1/4) are meaningful for any truncation
    if eps <= 4.0 / n_cap and eps < 0.25:
        raise DegenerateScale(f"eps = {eps} is below the truncation resolution 1/{n_cap}")
    points = reciprocal_atoms(n_cap)
    # greedy intervals [start, start + eps): p - start rounds monotonically
    # in p, so bisect finds the first point with p - start >= eps
    count = 0
    i = 0
    while i < len(points):
        start = points[i]
        i = bisect.bisect_left(points, True, lo=i, key=lambda p: p - start >= eps)
        count += 1
    delta = eps / 2.0
    return {
        "minkowski_scale": math.log(count) / math.log(1.0 / eps),
        "covering_number": count,
        "hausdorff_scale_upper": 0.0,
        "witness": {
            "delta": delta,
            "singletons": len(points) - int(np.searchsorted(points, delta, "right")),
        },
        "truncation_error": 1.0 / n_cap,
    }
