"""Beta-expansion self-similar systems.

Points are sums sum_k omega_k / beta^k over digit sequences omega_k drawn
from a subshift with digits {0, ..., a-1}, beta >= a.  Distinct digit tuples
keep their expansions at least beta^-n apart, which turns admissible-word
counts into covering-number lower bounds; the system's mean dimension equals
the subshift entropy divided by log beta, and every map S_omega(x) =
(x + omega) / beta contracts all the product metrics by exactly 1/beta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits, symbolic
from .errors import DomainError, ParameterOverflow
from .metrics import LINF_FINITE, MetricDescriptor, PointCloud, digit_points, product_rows

_RATIONAL_DENOM_CAP = 1 << 30  # beta with a denominator this small goes exact
SEPARATION_SLACK = 1e-9  # rounding allowed below a family's certified separation eps


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


def beta_system(a: int, beta: float, omega: symbolic.SubshiftSpec | None = None) -> BetaSystemSpec:
    return BetaSystemSpec(a=a, beta=beta, omega=omega or symbolic.full_shift(a))


def _beta_as_fraction(beta: float) -> Fraction:
    """beta as the fraction of denominator at most 2^30 that equals the double
    (2.3 is 23/10), else as the double's exact binary value."""
    frac = Fraction(beta).limit_denominator(_RATIONAL_DENOM_CAP)
    return frac if float(frac) == beta else Fraction(beta)


def min_gap(a: int, beta: float, n: int) -> float:
    """Exact minimum of |sum u_k beta^-k - sum v_k beta^-k| over distinct
    digit tuples of length n, rounded once: exhaustive over the a^n tuples
    via a sort, in integers on beta as a fraction p/q (`_beta_as_fraction`).
    The digit-separation bound guarantees the result >= beta^-n."""
    if not (2 <= a <= beta):
        raise DomainError("need 2 <= a <= beta")
    if n < 1:
        raise DomainError("n must be >= 1")
    limits.check("word", [(a, n)], "tuples")
    # with beta = p/q, sum u_k beta^-k = (sum u_k q^k p^(n-k)) / p^n: the
    # minimum gap is an exact integer difference over the denominator p^n
    p, q = _beta_as_fraction(beta).as_integer_ratio()
    weights = [q**k * p ** (n - k) for k in range(1, n + 1)]
    # add the digit columns as an outer sweep, in int64 when every scaled
    # sum fits it and in Python ints otherwise
    dtype = np.int64 if (a - 1) * sum(weights) < 2**62 else object
    scaled = np.zeros(1, dtype=dtype)
    for weight in weights:
        scaled = np.add.outer(scaled, np.arange(a).astype(dtype) * weight).ravel()
    best = int(np.diff(np.sort(scaled)).min())
    return best / p**n  # one correctly rounded int division


@dataclass(frozen=True)
class CoveringFamily:
    points: PointCloud
    count: int
    n_words: int  # |pi_N(Omega)|
    eps: float  # beta^-n, the certified linf separation over the first N coords


def covering_lower_bound(spec: BetaSystemSpec, n_coords: int, n_layers: int) -> CoveringFamily:
    """The separated family {sum_{k<=n} omega_k / beta^k + anchor tail}.

    One point per tuple of admissible N-words; count = |pi_N(Omega)|^n.  Any
    two points differ in some digit column within the first N coordinates, so
    their coordinatewise gap there is >= beta^-n: the family is beta^-n
    separated in linf over the first N coordinates (and beta^-n / 2 separated
    under the dynamical weighted metric, whose leading weight is 1/2).
    """
    if min(n_coords, n_layers) < 1:
        raise DomainError(f"window N = {n_coords} and digit layers n = {n_layers} must be >= 1")
    aut = spec.omega.automaton  # both budgets and the scale are checked before any word is built
    n_words = aut.checked_count(n_coords, "word")
    count = limits.check("point", [(n_words, n_layers)], "points", "covering family")
    eps = spec.beta**-n_layers
    if eps == 0.0:
        raise ParameterOverflow(f"separation beta^-n = {spec.beta}^-{n_layers} underflows "
                                f"double precision")
    words = aut.enumerate_words(n_coords)

    depth = n_coords + min(30 * n_layers, 80)  # a tail below 2^-30 < 1e-9 per layer
    ends = [functools.reduce(lambda s, d: aut.succ[s][d], w, aut.root) for w in words.tolist()]
    tails = {s: aut.least_word(s, depth - n_coords) for s in set(ends)}  # one per end state
    streams = np.hstack((words, np.array([tails[s] for s in ends], dtype=np.int64)))

    # coordinate j of a point is fsum_k(d_k beta^-(k+1)) over its digit
    # column d = (streams[w_k][j])_k (`digit_points`), plus the anchor tail
    beta = spec.beta
    terms = [[d * beta ** -(k + 1) for d in range(spec.a)] for k in range(n_layers)]
    choices = product_rows([n_words] * n_layers)
    tail = np.array(aut.least_word(aut.root, depth), dtype=float) * beta**-n_layers / (beta - 1.0)
    points = digit_points([streams] * n_layers, choices, terms) + tail
    trunc = (spec.a - 1) / (beta - 1) * 2.0 ** -(depth - n_coords)
    cloud = PointCloud(
        points=points,
        metric=MetricDescriptor(kind=LINF_FINITE, iterates=n_coords),
        truncation_error=trunc,
    )
    return CoveringFamily(points=cloud, count=count, n_words=n_words, eps=eps)


def self_similar_dims(spec: BetaSystemSpec) -> dict:
    """Common mean Hausdorff / metric mean dimension of the system:
    entropy(Omega) / log beta, from Omega's spectral value
    (`symbolic.spectral_bracket`).  Every map contracts by exactly 1/beta,
    so this is also the similarity bound entropy(Omega) / log(1/c)."""
    lo, hi = symbolic.spectral_bracket(spec.omega)
    h = 0.5 * (lo + hi)
    return {"mdim": h / math.log(spec.beta), "entropy": h}
