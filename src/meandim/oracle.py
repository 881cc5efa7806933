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
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScale,
    DomainError,
    ParameterOverflow,
    ResourceLimit,
)
from . import limits, weighted
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
    pairwise_to_point,
)

SLACK = 1e-12


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
    cells, radix = _linf_grid(window, eps * (1.0 + 1e-9))
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
    cliques covering the cloud.  The clique table runs over all 2^n point
    masks at once; a breadth-first search over covered sets then adds, at
    each step, every maximal clique through the least uncovered point.
    Restricted to clouds of at most 12 points.
    """
    n = len(cloud)
    if n > 12:
        raise ResourceLimit(
            f"exact cover limited to 12 points; exact cover: {n} points exceed the cap 12"
        )
    check_scale(cloud, eps)
    full = (1 << n) - 1
    near = cloud.pairwise() < eps
    np.fill_diagonal(near, False)
    nbr = (near * (1 << np.arange(n))).sum(axis=1).tolist()
    # mask m + 2^i (m below 2^i) is a clique when m is one and lies in
    # i's neighbourhood; `common` holds the points adjacent to all of a mask
    clique = np.ones(1, dtype=bool)
    common = np.full(1, full)
    for i in range(n):
        masks = np.arange(1 << i)
        clique = np.concatenate([clique, clique & (masks & ~nbr[i] == 0)])
        common = np.concatenate([common, common & nbr[i]])
    maximal = np.flatnonzero(clique & (common == 0))
    through = [maximal[maximal >> i & 1 == 1] for i in range(n)]
    seen = np.zeros(full + 1, dtype=bool)
    seen[0] = True
    covered, steps = np.zeros(1, dtype=np.intp), 0
    while not seen[full]:
        reached = np.zeros(full + 1, dtype=bool)
        for i in range(n):  # states whose least uncovered point is i
            below = (2 << i) - 1
            low_i = covered[covered & below == below >> 1]
            reached[(low_i[:, None] | through[i]).ravel()] = True
        covered = np.flatnonzero(reached & ~seen)
        seen |= reached
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
    while total(hi) >= 1.0:
        hi *= 2.0
        if hi > 1e9:
            raise DomainError("exponent search diverged")
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


@dataclass(frozen=True)
class QBoxFamily:
    """The level-(n, m) boxes: cylinders whose first floor_wm layers fix
    full (u, v) digit words and whose layers up to m fix only the v word."""

    spec: CarpetSpec
    n: int
    m: int
    floor_wm: int
    count: int  # boxes in the family, the product count_formula
    count_formula: int  # |Omega|_N|^t * |Omega'|_N|^(M-t)
    diam_bound: float  # a^-t, certified < a b^-M
    diam_certified: bool  # exact integer check b^M < a^(t+1)
    separation_certified: bool  # exact digit argument for >= b^-M
    omega_words: tuple
    image_words: tuple
    section: dict  # v-word -> least u-word with (u, v) admissible
    anchor_pair: tuple  # (u-word, v-word), least element of Omega|_N

    def min_separation(self) -> float:
        return float(self.spec.b) ** (-self.m)

    def witness_cloud(self) -> PointCloud:
        """The separated family: one point per box, pairwise linf >= b^-m."""
        limits.check("point", self.count, "points", limits.cap("point"), "witness family")
        depth = self.m + WITNESS_TAIL_LAYERS
        # every digit choice, first layer slowest (the order of itertools.product)
        choices = np.indices(_layer_sizes(self)).reshape(self.m, self.count).T
        return PointCloud(
            points=_witness_points(self, choices, depth),
            metric=MetricDescriptor(kind=LINF_FINITE),  # over the 2N coordinates
            truncation_error=float(self.spec.b) ** (-depth),
        )


def _witness_points(family: QBoxFamily, choices: np.ndarray, depth: int) -> np.ndarray:
    """Coordinates (x then y, flattened) of anchored family points.

    Row k of `choices`, an integer array of shape (points, m), names one
    point by its m leading digit layers: an index into omega_words for each
    of the first floor_wm layers, into image_words (with the section's
    u-word) for the others.  Layers m to depth - 1 repeat the anchor pair.
    Coordinate j of x is the sum over layers i of the float term
    u_i[j] * a^-(i+1), rounded once, as math.fsum adds them; each term is a
    binary fraction, so the terms are summed as integers over one power of
    two and divided once (int / int rounds correctly).  y likewise with v
    and b.  Each coordinate is summed once per distinct digit column
    (`np.unique` over the columns' integer codes) and gathered.
    """
    a, b = family.spec.a, family.spec.b
    n, m, t = family.n, family.m, family.floor_wm
    terms = [
        [(float(u) * float(base) ** -(i + 1)).as_integer_ratio() for u in range(base)]
        for base in (a, b)
        for i in range(depth)
    ]
    shift = max(den.bit_length() - 1 for layer in terms for _, den in layer)
    scaled = [  # scaled[i][u]: layer i's term for digit u, over 2^shift (y from depth on)
        np.array([num << (shift + 1 - den.bit_length()) for num, den in layer], dtype=object)
        for layer in terms
    ]
    image_pairs = [(family.section[v], v) for v in family.image_words]
    layer_words = [family.omega_words] * t + [image_pairs] * (m - t)
    digits = [np.array([u + v for u, v in words], dtype=np.int64) for words in layer_words]
    anchor = family.anchor_pair[0] + family.anchor_pair[1]
    points = np.empty((len(choices), 2 * n))
    for j in range(2 * n):  # one coordinate at a time keeps few big integers alive
        base, column = (a, scaled[:depth]) if j < n else (b, scaled[depth:])
        code, bound = np.zeros(len(choices), dtype=np.int64), 1
        for i, layer in enumerate(digits):
            if bound > (1 << 62) // base:  # rank the codes before int64 overflows
                code = np.unique(code, return_inverse=True)[1]
                bound = len(choices)
            code = code * base + layer[choices[:, i], j]
            bound *= base
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        tail = sum(column[i][anchor[j]] for i in range(m, depth))  # the anchor's layers
        total = np.full(len(first), tail, dtype=object)
        for i, layer in enumerate(digits):
            total += column[i][layer[choices[first, i], j]]
        points[:, j] = (total / (1 << shift)).astype(float)[inverse]
    return points


def qbox_family(
    spec: CarpetSpec, n: int, m: int, budget: int | None = None
) -> QBoxFamily:
    """Enumerate the level-(n, m) box family and certify its geometry.

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
    a, b = spec.a, spec.b
    t = floor_w_m(a, b, m)

    # decode admissible N-words of the product system into (u-word, v-word)
    from .symbolic import enumerate_words

    label_words = enumerate_words(spec.system.omega, n, budget)
    pairs = []
    for word in label_words:
        u = tuple(l // b for l in word)
        v = tuple(l % b for l in word)
        pairs.append((u, v))
    pairs.sort()
    image_words = sorted({v for _, v in pairs})
    section = {}
    for u, v in pairs:  # sorted: first hit per v is the least u-word
        if v not in section:
            section[v] = u

    count_formula = len(pairs) ** t * len(image_words) ** (m - t)
    limits.check("word", count_formula, "boxes", limits.cap("word", budget), "box family")

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
        omega_words=tuple(pairs),
        image_words=tuple(image_words),
        section=section,
        anchor_pair=min(pairs),
    )


def verify_family_separation(
    family: QBoxFamily,
    full_pair_cap: int = 3000,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Observed pairwise linf separation of the witness family.

    All pairs are checked when the family is small.  For large families a
    seeded sample is measured instead, mixing random pairs with single-layer
    perturbations (the pairs that attain the minimum).  The exact-integer
    certificate in the family record covers every pair regardless.
    """
    if samples < 1:
        raise DomainError(f"samples = {samples} must be >= 1")
    target = family.min_separation()
    if family.count <= full_pair_cap:
        cloud = family.witness_cloud()
        observed = cloud.min_pairwise()
        mode = "all_pairs"
    else:
        first, second, _ = _sample_pairs(_layer_sizes(family), samples, seed)
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


def _layer_sizes(family: QBoxFamily) -> tuple:
    t = family.floor_wm  # Omega|_N pairs, then Omega'|_N words
    return (len(family.omega_words),) * t + (len(family.image_words),) * (family.m - t)


def covering_sandwich(spec: CarpetSpec, n: int, m: int) -> dict:
    """Two-sided covering-number bracket at scales (b^-M, a b^-M).

    The witness family gives #(X|_N, linf, b^-M) >= count; the box cover
    gives #(X|_N, linf, a b^-M) <= count.  Both normalized by N M log b, the
    common value log(count)/(N M log b) brackets the metric mean dimension at
    finite size.
    """
    fam = qbox_family(spec, n, m)
    log_b = math.log(spec.b)
    ratio = math.log(fam.count) / (n * m * log_b)
    greedy = None
    if fam.count <= 3000:  # the greedy cross-check runs on small families only
        cloud = fam.witness_cloud()
        eps = fam.min_separation()
        bounds = covering_bounds(cloud, eps)
        greedy = {"lower": bounds.lower, "upper": bounds.upper, "eps": eps}
        if bounds.lower != fam.count:
            raise AssertionError(
                f"greedy separated set lost points: {bounds.lower} < {fam.count}"
            )
    return {
        "n": n,
        "m": m,
        "count": fam.count,
        "ratio": ratio,
        "lower_ratio": ratio,  # from the separated family at eps = b^-M
        "upper_ratio": ratio,  # from the box cover at eps = a b^-M
        "separation": fam.separation_certified,
        "greedy": greedy,
    }


# ---------------------------------------------------------------------------
# Mass-distribution certificate for carpet boxes
# ---------------------------------------------------------------------------


def mass_distribution_check(
    spec: CarpetSpec,
    n: int,
    m_range,
    s: float,
    identity_samples: int = 100,
    seed: int = 0,
    budget: int | None = None,
) -> dict:
    """Box-granular mass-distribution certificate at exponent s.

    The product measure built from f_N(u, v) = t_N(v)^(w-1) / Z_N gives each
    level-M box the mass mu(P) = prod f_N * prod_{m > floor(wM)} t_N(y_m).
    The check verifies, for every box and every M in m_range, that
    mu(P) <= (a b^-M)^s, the scale-level mass bound that lower-bounds the
    Hausdorff exponent at the box scale; it also confirms the exact product
    identity for (1/NM) log mu(P) on sampled digit sequences and that the
    measure is a probability measure.
    """
    if n < 1:
        raise DomainError(f"coordinate window N = {n} must be >= 1")
    if not m_range or min(m_range) < 1:
        raise DomainError(f"M {m_range!r} must be a nonempty range with every M >= 1")
    a, b = spec.a, spec.b
    w = spec.w
    cap = limits.cap("word", budget)

    table = weighted.fiber_counts(spec.system, n, budget)
    fibers = dict(table.level(n).items())  # v-word -> t_N(v), lexicographic
    words_total = table.total(n)
    z_n = math.fsum(tv**w for tv in fibers.values())
    log_z = math.log(z_n)

    log_t = {v: math.log(tv) for v, tv in fibers.items()}
    v_words = list(fibers)
    rng = random.Random(seed)

    per_m = {}
    all_passed = True
    for m in m_range:
        t_floor = floor_w_m(a, b, m)
        limits.check("word", len(v_words) ** m, "y-sequences", cap, f"M = {m}")
        diam = float(a) * float(b) ** (-m)
        log_diam = math.log(a) - m * math.log(b)
        # math.fsum rounds correctly, so log mu(P) depends only on the
        # multisets of the fixed prefix y[:t_floor] and of the suffix.  Each
        # pair of multisets stands for all its orderings; its least sequence
        # is the sorted prefix followed by the sorted suffix, and the pairs
        # come in the order of those sequences, so the first minimum is the
        # least sequence at the minimum, as in the per-sequence loop
        prefixes = _multisets(v_words, t_floor, fibers)
        suffixes = _multisets(v_words, m - t_floor, None)
        min_s_box = math.inf
        worst = None
        masses = []
        for prefix, prefix_count, prefix_mass in prefixes:
            for suffix, suffix_count, _ in suffixes:
                log_mu = -m * log_z + math.fsum(
                    (w - 1.0) * log_t[v] for v in prefix + suffix
                ) + math.fsum(log_t[v] for v in suffix)
                s_box = log_mu / log_diam
                if s_box < min_s_box:
                    min_s_box = s_box
                    worst = prefix + suffix
                masses.append(prefix_count * suffix_count * prefix_mass * math.exp(log_mu))
        total_mass = math.fsum(masses)
        passed = min_s_box >= s - SLACK
        all_passed = all_passed and passed
        per_m[m] = {
            "floor_wm": t_floor,
            "diam_bound": diam,
            "largest_s": min_s_box,
            "passed": passed,
            "worst_y": worst,
            "box_count": words_total ** t_floor * len(v_words) ** (m - t_floor),
            "total_mass": total_mass,
            "mass_ok": abs(total_mass - 1.0) <= 1e-9,
        }

    # product identity on sampled digit sequences
    m_max = max(m_range)
    identity_max_err = 0.0
    for _ in range(identity_samples):
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


def _multisets(words, size: int, weights):
    """(sorted words, orderings, product of weights) for every multiset of
    `size` words; weights None counts 1 per word."""
    out = []
    for combo in itertools.combinations_with_replacement(words, size):
        orderings = math.factorial(size)
        for _, group in itertools.groupby(combo):
            orderings //= math.factorial(len(list(group)))
        product = math.prod(weights[v] for v in combo) if weights is not None else 1
        out.append((combo, orderings, product))
    return out


# ---------------------------------------------------------------------------
# The reciprocal sequence space {0, 1, 1/2, 1/3, ...}^N
# ---------------------------------------------------------------------------

INV_SQ_WEIGHT = 3.0 / math.pi**2  # atom at 1/j has mass (3/pi^2) / j^2; atom at 0 has 1/2
_ATOM_FLOOR = 2.0**-500  # atoms 1/j at or above it have j * j below 2^1002


def reciprocal_atoms(n_cap: int) -> np.ndarray:
    """The truncated point set {0} U {1/j : j <= n_cap}, ascending, in float64."""
    return np.append(0.0, 1.0 / np.arange(n_cap, 0, -1, dtype=np.float64))


def inverse_square_mass(lo: float, hi: float, enum_cap: int = 1_000_000) -> float:
    """Certified lower bound on the inverse-square measure of [lo, hi].

    Atoms sit at 0 (mass 1/2) and 1/j (mass (3/pi^2)/j^2); ranges wider than
    enum_cap atoms fall back to the integral tail bound, which only
    under-counts.  Atoms below _ATOM_FLOOR are never enumerated (near
    j = 2^512, j * j passes the largest double): an interval from 0 past
    the floor counts them through its tail bound, any other interval leaves
    them out, an under-count of less than 2^-500.  The full-line mass is
    exactly 1 by the zeta(2) identity.
    """
    if hi < lo:
        return 0.0
    total = 0.0
    if lo <= 0.0 <= hi:
        total += 0.5
        if hi >= _ATOM_FLOOR:
            j_min = _least_index_at_most(hi)
            # all atoms 1/j <= hi: enumerate a prefix, bound the rest
            j_stop = j_min + enum_cap
            total += INV_SQ_WEIGHT * _inverse_square_sum(j_min, j_stop)
            total += INV_SQ_WEIGHT / j_stop  # integral tail: sum_{j>=J} j^-2 >= 1/J
        return min(total, 1.0)
    if hi < _ATOM_FLOOR:
        return 0.0
    lo = max(lo, _ATOM_FLOOR)
    j_min = _least_index_at_most(hi)
    j_max = _greatest_index_at_least(lo)
    if j_max < j_min:
        return 0.0
    if j_max - j_min + 1 <= enum_cap:
        return INV_SQ_WEIGHT * _inverse_square_sum(j_min, j_max + 1)
    # integral lower bound: sum_{j=j0}^{j1} j^-2 >= 1/j0 - 1/(j1 + 1)
    return INV_SQ_WEIGHT * (1.0 / j_min - 1.0 / (j_max + 1))


_INV_SQ_BLOCK = 1 << 14  # terms per block of the exact sum: bounds its memory


def _inverse_square_sum(j_lo: int, j_hi: int) -> float:
    """math.fsum of 1.0 / (j * j) over j_lo <= j < j_hi, bit for bit.

    A float64 j is exact below 2^53, and j * j then rounds as Python's int
    to float conversion does; larger j stay Python ints.  A single atom is
    its own sum (most calls from the product witness hold one).
    """
    if j_hi - j_lo == 1:
        return 1.0 / (j_lo * j_lo)
    dtype = float if j_hi <= 2**53 else object
    total = sum(
        weighted.exact_total(1.0 / (j * j))
        for j in (
            np.arange(lo, min(lo + _INV_SQ_BLOCK, j_hi), dtype=dtype)
            for lo in range(j_lo, j_hi, _INV_SQ_BLOCK)
        )
    )
    return float(total)


def _least_index_at_most(hi: float) -> int:
    """Least j >= 1 with float(1/j) <= hi, exactly while 1/hi is below 2^53.

    ceil(1/hi) can land one past the answer when 1/hi rounds up past an
    integer (1/(1/j) > j happens for many j), so start safely below and walk
    up on the exact float comparison.  Past 2^53 the start can lie inside a
    run of integers sharing one double; the j returned then satisfies the
    comparison but need not be the least, and counting atoms from it only
    under-counts.
    """
    return _walk(max(1, math.ceil(1.0 / hi) - 2), 1, lambda j: 1.0 / j <= hi)


def _greatest_index_at_least(lo: float) -> int:
    """Greatest j >= 1 with float(1/j) >= lo (0 if none), exactly while 1/lo
    is below 2^53.  Past it the j returned satisfies the comparison but need
    not be the greatest, and counting atoms up to it only under-counts."""
    return _walk(max(1, math.floor(1.0 / lo) + 2), -1, lambda j: j < 1 or 1.0 / j >= lo)


def _walk(j: int, direction: int, done) -> int:
    """The first of j, j + direction, j + 2 direction, ... where done holds,
    done being monotone along the walk.  The steps double, then bisect:
    past 2^53 runs of consecutive integers share one double (about 10^9 of
    them at 10^25), and a walk by ones crosses such a run one step at a
    time.  A start inside a run is returned as it is, though the run may
    extend past it; the index helpers then narrow the atoms counted, which
    only under-counts."""
    if done(j):
        return j
    step = direction
    while not done(j + step):
        j += step
        step *= 2
    end = j + step
    while abs(end - j) > 1:
        mid = (j + end) // 2
        if done(mid):
            end = mid
        else:
            j = mid
    return end


def reciprocal_witness_delta(m: int, eps: float) -> float:
    """The interval width parameter: strictly below eps/12, a^m/8, 2^-(m/3+1)."""
    if m < 1:
        raise DomainError(f"scale depth m = {m} must be >= 1")
    if not (0.0 < eps < 1.0 / 6.0):
        raise DomainError("eps must lie in (0, 1/6)")
    bound = min(eps / 12.0, INV_SQ_WEIGHT**m / 8.0, 0.5 ** (m / 3.0 + 1.0))
    return bound * (1.0 - 1e-9)


def reciprocal_tail_depth(m: int, delta: float) -> int:
    """Least L with 2^-L < delta^(m^m), computed in log space."""
    exponent = float(m**m) * math.log2(1.0 / delta)
    return int(math.floor(exponent)) + 1


def reciprocal_product_witness(
    x,
    n_window: int,
    m: int,
    eps: float,
    l_cap: int = 200_000,
    enum_cap: int = 1_000_000,
) -> dict:
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
    tail = reciprocal_tail_depth(m, delta)
    if tail > l_cap:
        raise ParameterOverflow(
            f"tail depth L = {tail} exceeds the cap {l_cap}; the tail bound "
            f"2^-L < delta^(m^m) is certified in log space only"
        )
    n_total = n_window + tail
    x = [float(v) for v in x]
    if len(x) < n_total:
        raise DomainError(f"need {n_total} coordinates, got {len(x)}")
    x = x[:n_total]

    log2_delta = math.log2(delta)
    if float(m**m) * log2_delta < -1000.0:
        raise ParameterOverflow("delta^(m^m) underflows double precision")
    thresholds = [delta ** (m**k) for k in range(m + 1)]  # k = 0..m

    def class_of(v: float) -> int:
        if v > delta:
            return 0
        for k in range(1, m + 1):
            if thresholds[k] < v <= thresholds[k - 1]:
                return k
        return m + 1

    classes = [class_of(v) for v in x]
    sizes = [classes.count(k) for k in range(m + 2)]
    limit = n_total / (m + 1)
    m0 = next(k for k in range(m + 1) if sizes[k] <= limit)
    r = delta ** (m**m0)
    if r == 0.0:
        raise ParameterOverflow("interval width underflows double precision")

    masses = {v: inverse_square_mass(v - r, v, enum_cap) for v in set(x)}  # once per value
    mass = 1.0
    for v in x:
        mass *= masses[v]
    cases = [
        "zero_atom" if k > m0 else ("thin_class" if k == m0 else "large_value") for k in classes
    ]
    diam_bound = r + 2.0**-tail if tail < 1074 else r
    exponent = 6.0 * n_total / m
    required = diam_bound**exponent
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
        "passed": mass >= required - SLACK,
        "cases": cases,
        "class_sizes": sizes,
    }


def sample_reciprocal_point(n_coords: int, n_cap: int, seed: int = 0) -> list[float]:
    """Seeded sample from the truncated space, coordinates iid inverse-square."""
    if n_cap < 1:
        raise DomainError(f"truncation n_cap = {n_cap} must be >= 1")
    rng = random.Random(seed)
    out = []
    for _ in range(n_coords):
        if rng.random() < 0.5:
            out.append(0.0)
        else:
            # inverse-square index sampling by inversion: P(J >= j) ~ 1/j
            u = rng.random()
            j = min(n_cap, max(1, int(1.0 / (1.0 - u * (1.0 - 1.0 / (n_cap + 1.0))))))
            out.append(1.0 / j)
    return out


def reciprocal_set_dims(n_cap: int, eps_list, probe_s: float = 0.05) -> dict:
    """Scale-level dimensions of the one-coordinate reciprocal set.

    Covering numbers are exact (optimal interval sweep on sorted points);
    dimm(K, eps) = log # / log(1/eps).  The scale Hausdorff exponent is 0 at
    every scale: the cover {[0, delta]} plus singletons has weight sum
    delta^s < 1 for every s > 0 (singletons contribute 0^s = 0).
    """
    if n_cap < 1:
        raise DomainError(f"truncation n_cap = {n_cap} must be >= 1")
    points = reciprocal_atoms(n_cap)
    out: dict = {"minkowski_scale": {}, "hausdorff_scale_upper": {}, "witness": {}}
    out["truncation_error"] = 1.0 / n_cap
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise DomainError(f"eps = {eps} must lie in (0, 1)")
        # scales below the truncation resolution would probe discarded atoms;
        # coarse scales (>= 1/4) are meaningful for any truncation
        if eps <= 4.0 / n_cap and eps < 0.25:
            raise DegenerateScale(
                f"eps = {eps} is below the truncation resolution 1/{n_cap}"
            )
        # greedy intervals [start, start + eps): p - start rounds monotonically
        # in p, so bisect finds the first point with p - start >= eps
        count = 0
        i = 0
        while i < len(points):
            start = points[i]
            i = bisect.bisect_left(points, True, lo=i, key=lambda p: p - start >= eps)
            count += 1
        out["minkowski_scale"][eps] = math.log(count) / math.log(1.0 / eps)
        out["covering_number_" + repr(eps)] = count
        delta = eps / 2.0
        weight = delta**probe_s
        out["hausdorff_scale_upper"][eps] = 0.0
        out["witness"][eps] = {
            "delta": delta,
            "singletons": len(points) - int(np.searchsorted(points, delta, "right")),
            "probe_s": probe_s,
            "weight_sum": weight,
            "weight_below_one": weight < 1.0,
        }
    return out
