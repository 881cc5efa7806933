"""Beta-expansion self-similar systems.

Points are sums sum_k omega_k / beta^k over digit sequences omega_k drawn
from a subshift with digits {0, ..., a-1}, beta >= a.  Distinct digit tuples
keep their expansions at least beta^-n apart, which turns admissible-word
counts into covering-number lower bounds; the system's mean dimension equals
the subshift entropy divided by log beta, and every map S_omega(x) =
(x + omega) / beta contracts all the product metrics by exactly 1/beta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits, symbolic
from .errors import DomainError
from .metrics import LINF_FINITE, MetricDescriptor, PointCloud

_RATIONAL_DENOM_CAP = 1 << 30  # beta with a denominator this small goes exact


@dataclass(frozen=True)
class BetaSystemSpec:
    a: int
    beta: float
    omega: symbolic.SubshiftSpec

    def __post_init__(self):
        if self.a < 2:
            raise DomainError("digit alphabet needs a >= 2")
        if not self.a <= self.beta < math.inf:
            raise DomainError(f"need a finite beta >= a, got {self.beta}")
        if self.omega.alphabet != self.a:
            raise DomainError("omega must live on the digit alphabet")

    @property
    def c(self) -> float:
        return 1.0 / self.beta


def beta_system(a: int, beta: float, omega: symbolic.SubshiftSpec | None = None) -> BetaSystemSpec:
    return BetaSystemSpec(a=a, beta=beta, omega=omega or symbolic.full_shift(a))


def _beta_as_fraction(beta: float) -> Fraction | None:
    frac = Fraction(beta).limit_denominator(_RATIONAL_DENOM_CAP)
    if float(frac) == beta:
        return frac
    return None


def min_gap(a: int, beta: float, n: int, budget: int | None = None) -> float:
    """Exact minimum of |sum u_k beta^-k - sum v_k beta^-k| over distinct
    digit tuples of length n.

    Exhaustive over a^n tuples via a sort; exact rational arithmetic whenever
    beta is a representable rational, otherwise doubles with outward 1e-12
    rounding.  The digit-separation bound guarantees the result >= beta^-n.
    """
    if not (2 <= a <= beta):
        raise DomainError("need 2 <= a <= beta")
    if n < 1:
        raise DomainError("n must be >= 1")
    limits.check("word", a**n, "tuples", limits.cap("word", budget))
    frac = _beta_as_fraction(beta)
    if frac is not None:
        # with beta = p/q, sum u_k beta^-k = (sum u_k q^k p^(n-k)) / p^n: the
        # minimum gap is an exact integer difference over the denominator p^n
        p, q = frac.numerator, frac.denominator
        weights = [q**k * p ** (n - k) for k in range(1, n + 1)]
        # add the digit columns as an outer sweep, in int64 when every scaled
        # sum fits it and in Python ints otherwise
        dtype = np.int64 if (a - 1) * sum(weights) < 2**62 else object
        scaled = np.zeros(1, dtype=dtype)
        for weight in weights:
            scaled = np.add.outer(scaled, np.arange(a).astype(dtype) * weight).ravel()
        best = int(np.diff(np.sort(scaled)).min())
        return best / float(p) ** n
    values = np.sort(
        np.array(
            [
                math.fsum(u * beta ** -(k + 1) for k, u in enumerate(tup))
                for tup in itertools.product(range(a), repeat=n)
            ]
        )
    )
    return float(np.diff(values).min()) - 1e-12


@dataclass(frozen=True)
class CoveringFamily:
    points: PointCloud
    count: int
    n_words: int  # |pi_N(Omega)|
    eps: float  # beta^-n, the certified linf separation over the first N coords
    dyn_eps: float  # beta^-n / 2, the certified separation under the shift metric


def covering_lower_bound(
    spec: BetaSystemSpec,
    n_coords: int,
    n_layers: int,
    budget: int | None = None,
) -> CoveringFamily:
    """The separated family {sum_{k<=n} omega_k / beta^k + anchor tail}.

    One point per tuple of admissible N-words; count = |pi_N(Omega)|^n.  Any
    two points differ in some digit column within the first N coordinates, so
    their coordinatewise gap there is >= beta^-n: the family is beta^-n
    separated in linf over the first N coordinates (and beta^-n / 2 separated
    under the dynamical weighted metric, whose leading weight is 1/2).
    """
    aut = spec.omega.automaton
    words = aut.enumerate_words(n_coords, budget)
    count, cap = len(words) ** n_layers, limits.cap("point", budget)
    limits.check("point", count, "points", cap, "covering family")

    depth = n_coords + min(30 * n_layers, 80)  # a tail below 2^-30 < 1e-9 per layer
    anchor = aut.lex_least_extension((), depth)
    streams = [aut.lex_least_extension(w, depth) for w in words]

    # coordinate j of a point is fsum_k(d_k beta^-(k+1)) over its digit
    # column d = (rows[k][j])_k plus the anchor tail: one table of fsum
    # values over the digits in use gives the same doubles.  Omega is a
    # subshift, so each such digit starts some N-word and the table has at
    # most count entries; the budget caps it for other rooted languages
    beta = spec.beta
    present, index = np.unique(np.array(streams, dtype=np.int64), return_inverse=True)
    index = index.reshape(len(words), depth)
    columns = len(present) ** n_layers
    limits.check("point", columns, "columns", cap, "digit table")
    table = np.array([
        math.fsum(d * beta ** -(k + 1) for k, d in enumerate(column))
        for column in itertools.product(present.tolist(), repeat=n_layers)
    ])
    choices = np.indices((len(words),) * n_layers).reshape(n_layers, count).T
    tail = np.array(anchor, dtype=float) * (beta**-n_layers) / (beta - 1.0)
    points = np.empty((count, depth))
    for j in range(depth):
        code = np.zeros(count, dtype=np.int64)
        for k in range(n_layers):
            code = code * len(present) + index[choices[:, k], j]
        points[:, j] = table[code] + tail[j]
    eps = beta**-n_layers
    trunc = (spec.a - 1) / (beta - 1) * 2.0 ** -(depth - n_coords)
    cloud = PointCloud(
        points=points,
        metric=MetricDescriptor(kind=LINF_FINITE, iterates=n_coords),
        truncation_error=trunc,
    )
    return CoveringFamily(
        points=cloud,
        count=count,
        n_words=len(words),
        eps=eps,
        dyn_eps=eps / 2.0,
    )


def self_similar_dims(spec: BetaSystemSpec, n_max: int = 12) -> dict:
    """Common mean Hausdorff / metric mean dimension of the system.

    Equal to entropy(Omega) / log beta; the similarity bound
    entropy(Omega) / log(1/c) coincides because the contraction ratio is
    1/beta.  For non-digit driving systems only the upper bound survives.
    """
    rep = symbolic.entropy(spec.omega, n_max)
    h = rep.best_estimate
    value = h / math.log(spec.beta)
    return {
        "mdim": value,
        "similarity_bound": h / math.log(1.0 / spec.c),
        "entropy": h,
        "exact": True,  # the spectral value of Omega's automaton
        "note": "mean Hausdorff and metric mean dimensions coincide",
    }

