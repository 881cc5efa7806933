"""Dimension formulas for carpet systems driven by a subshift over A x B.

The carpet system expands the two symbol tracks of a subshift in bases a and
b (a >= b >= 2).  Its mean Hausdorff dimension is the weighted entropy of the
coordinate projection at exponent w = log_a b divided by log b; its metric
mean dimension combines the entropies of the subshift and its projected
image.  For product shifts both reduce to the classical planar carpet
formulas, which this module also evaluates directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from . import limits, symbolic, weighted
from .weighted import PairShiftSystem


@dataclass(frozen=True)
class ValueBracket:
    """A reported value with its certification status.

    `upper` is always a true upper bound; `lower` is populated only when a
    matching certificate exists.  `exact` means value == limit (closed form or
    spectral computation), not merely a finite-size estimate.
    """

    value: float
    upper: float
    lower: float | None
    exact: bool

    @property
    def status(self) -> str:
        return "exact" if self.exact else "upper_bound"


@dataclass(frozen=True)
class CarpetSpec:
    a: int
    b: int
    system: PairShiftSystem

    def __post_init__(self):
        if not (self.a >= self.b >= 2):
            raise DomainError(f"need a >= b >= 2, got a={self.a}, b={self.b}")
        if self.system.a_size != self.a or self.system.b_size != self.b:
            raise DomainError("system alphabet sizes must match (a, b)")

    @property
    def w(self) -> float:
        return math.log(self.b) / math.log(self.a)


def carpet_from_tuples(a: int, b: int, relation) -> CarpetSpec:
    return CarpetSpec(a, b, weighted.pair_system_from_tuples(a, b, relation))


@dataclass(frozen=True)
class DimensionReport:
    w: float
    mdim_h: ValueBracket
    mdim_m: ValueBracket
    h_omega: float
    h_omega_prime: float
    classical: dict | None


def floor_w_m(a: int, b: int, m: int) -> int:
    """floor(M log_a b) exactly, the largest t with a^t <= b^M: the float
    estimate, off by less than 1 while t < 2^50, and one exact step each way."""
    target, t = b**m, int(m * math.log(b) / math.log(a))
    power = a**t
    return t - 1 if power > target else t + (power * a <= target)


def mean_dims(spec: CarpetSpec, n_max: int = 8) -> DimensionReport:
    w = spec.w
    log_a, log_b = math.log(spec.a), math.log(spec.b)

    wrep = weighted.weighted_entropy(spec.system, w, n_max)
    h_omega_rep = symbolic.entropy(spec.system.omega, n_max)
    image = weighted.image_subshift(spec.system)
    h_prime_rep = symbolic.entropy(image, n_max)

    h_omega = h_omega_rep.spectral_value
    h_prime = h_prime_rep.spectral_value

    mdh_value = wrep.best_estimate / log_b
    mdh = ValueBracket(
        value=mdh_value,
        upper=wrep.upper_bounds[-1] / log_b,
        lower=mdh_value if wrep.exact else None,
        exact=wrep.exact,
    )
    mdm_value = h_omega / log_a + (1.0 / log_b - 1.0 / log_a) * h_prime
    mdm_upper = (
        h_omega_rep.upper_bounds[-1] / log_a
        + (1.0 / log_b - 1.0 / log_a) * h_prime_rep.upper_bounds[-1]
    )
    mdm = ValueBracket(
        value=mdm_value,
        upper=max(mdm_value, mdm_upper),
        lower=mdm_value,  # both entropies are spectral
        exact=True,
    )

    classical = None
    symbols = spec.system.omega.product_symbols
    if symbols is not None:
        rel = [divmod(symbol, spec.b) for symbol in symbols]
        classical = classical_carpet_dims(spec.a, spec.b, rel)

    return DimensionReport(
        w=w,
        mdim_h=mdh,
        mdim_m=mdm,
        h_omega=h_omega,
        h_omega_prime=h_prime,
        classical=classical,
    )


def classical_carpet_dims(a: int, b: int, relation) -> dict:
    """Hausdorff and Minkowski dimensions of the planar base-(a, b) carpet.

    dim_H = log_b sum_j t_j^{log_a b};  dim_M = log_b s + log_a (r / s)
    with r = |R|, s = number of occupied columns, t_j = column occupancies.
    The b entries of t count against the word budget.
    """
    rel = symbolic.checked_relation(a, b, relation)
    if not rel:
        raise DomainError("relation R must be nonempty")
    if not (a >= b >= 2):
        raise DomainError(f"need a >= b >= 2, got a={a}, b={b}")
    limits.check("word", b, "columns", "carpet")
    w = math.log(b) / math.log(a)
    t = [0] * b
    for _, v in rel:
        t[v] += 1
    r = len(rel)
    s = sum(1 for x in t if x > 0)
    dim_h = math.log(math.fsum(x**w for x in t if x > 0)) / math.log(b)
    dim_m = math.log(s) / math.log(b) + math.log(r / s) / math.log(a)
    return {
        "dim_h": dim_h,
        "dim_m": dim_m,
        "r": r,
        "s": s,
        "t": t,
    }


def gap_analysis(a: int, b: int, relation) -> dict:
    """Decide exactly whether the two classical carpet dimensions coincide.

    With w = log_a b, dim_M = log_b (s (r/s)^w) and dim_H = log_b sum_j t_j^w,
    and x^w is strictly concave for w < 1, so by Jensen's inequality they are
    equal exactly when a == b or all nonzero column occupancies coincide
    (McMullen, Nagoya Math. J. 96, 1984).  `witness` lists those occupancies.
    """
    distinct = sorted(set(classical_carpet_dims(a, b, relation)["t"]) - {0})
    return {"equal": a == b or len(distinct) == 1, "witness": distinct}
