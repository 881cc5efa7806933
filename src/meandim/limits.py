"""Enumeration budgets and the one refusal past them.

Every exhaustive enumeration in the package is gated by one of these budgets
so that a bad input fails fast with ResourceLimit instead of hanging.  A cap
is read where it is checked (`cap`): the `override` block in force, else the
environment variable MEANDIM_BUDGET (an integer), else DEFAULT_CAPS.  Every
refusal reads `<budget> budget: [<where>: ]<size> <what> exceed the cap <cap>`;
a size known only from below reads `<size> or more <what>`.
"""

import contextlib
import contextvars
import decimal
import functools
import math
import os
import sys

from .errors import DomainError, ResourceLimit

DEFAULT_CAPS = {
    "word": 20_000_000,  # words materialized by any single enumeration
    "state": 2**22,      # partial patterns per row of the 2d transfer-graph sweep
    "subset": 2**20,     # subset states during determinization
    "point": 2_000_000,  # points materialized into a cloud
}
PRINTED_BITS = 14_000  # sizes below 2^14,000 are taken exactly: str() prints 4,300 digits
_override = contextvars.ContextVar("meandim_budget", default=None)


@contextlib.contextmanager
def override(value: int | None):
    """Cap every budget but the digit budget at value within the block (None: no override)."""
    token = _override.set(value)
    try:
        yield
    finally:
        _override.reset(token)


def cap(budget: str) -> int:
    """The cap of one budget: the override in force, else MEANDIM_BUDGET, else
    the default; the digit budget's is sys.get_int_max_str_digits() (0: none).
    A negative cap is refused."""
    if budget == "digit":
        return sys.get_int_max_str_digits()
    if (value := _override.get()) is None:
        env = os.environ.get("MEANDIM_BUDGET")
        if not env:
            return DEFAULT_CAPS[budget]
        try:
            value = int(env)
        except ValueError:
            raise DomainError(f"MEANDIM_BUDGET = {env!r} is not an integer") from None
    if value < 0:
        raise DomainError(f"{budget} budget: the cap {value} is negative")
    return value


def check(budget: str, size, what: str, where: str | None = None) -> int:
    """Raise ResourceLimit when size passes the budget's cap, naming both; else
    return size.  size is a count, or (base, exponent) pairs of ints >= 1 and
    >= 0 whose powers multiply to it: their product is taken below 2^PRINTED_BITS
    (or the cap's bits), and past that refused with no power of its size taken,
    named `or more` from the base of its longest power to the cap's bit length."""
    limit = cap(budget)
    if isinstance(size, (list, tuple)):
        bits = max(PRINTED_BITS, limit.bit_length())
        pairs = [(b, e) for b, e in size if b > 1 and e > 0]
        if sum(e * (b.bit_length() - 1) for b, e in pairs) < bits:  # below 2^(2 bits)
            size = math.prod(b**e for b, e in pairs)
        if not isinstance(size, int) or size.bit_length() > bits:
            base, longest = max(pairs, key=lambda pair: pair[1])
            size = (base if longest >= limit.bit_length() else 2) ** limit.bit_length()
            what = f"or more {what}"
    if size > limit:
        at = f"{where}: " if where else ""
        raise ResourceLimit(f"{budget} budget: {at}{size} {what} exceed the cap {limit}")
    return size


def check_at_least(budget: str, size: int, what: str, where: str | None = None) -> None:
    """`check` of a lower bound on a size (a partial count, or the first of
    a nondecreasing sequence past the cap): named `or more`."""
    check(budget, size, f"or more {what}", where)


def decimal_digits(powers) -> int:
    """Decimal digits of the product of b**e over the (b, e) in powers (ints
    b >= 1, e >= 0), exact and with no power taken: the log10 of the product
    is bracketed at growing precision until one integer part remains.  Only
    a power of ten, 2^twos 5^fives with twos = fives, has an integer log10."""
    twos = fives = 0
    for b, e in powers:
        t = (b & -b).bit_length() - 1
        f = round(math.log(b >> t, 5))
        if e and b != 5**f << t:
            break
        twos, fives = twos + t * e, fives + f * e
    else:
        if twos == fives:
            return twos + 1
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            log = sum(decimal.Decimal(b).log10() * e for b, e in powers)
            slack = log.scaleb(3 - prec)  # each log10, product and sum rounds it once
            lo, hi = math.floor(log - slack), math.floor(log + slack)
        if lo == hi:
            return lo + 1
        if hi <= PRINTED_BITS:  # the product lies next to 10^hi, a power small to take
            return hi + (math.prod(b**e for b, e in powers) >= 10**hi)
        prec *= 2


def check_digits(powers, where) -> None:
    """Refuse a count, the product of b**e over powers, whose decimal digits
    pass the digit budget (reports print counts in decimal); one below 2^bits
    with bits log10 2 under the cap is let pass uncounted.  `where` may be a
    function, called only past that."""
    digits = cap("digit")
    bits = sum(e * (b - 1).bit_length() for b, e in powers)
    if digits and bits * 0.30103 >= digits:  # 0.30103 > log10 2
        check("digit", decimal_digits(powers), "decimal digits",
              where() if callable(where) else where)


def printed_stop() -> int | None:
    """The largest count the digit budget prints (None: no cap), once per cap."""
    return _nines(cap("digit")) or None


@functools.cache
def _nines(digits: int) -> int:
    return 10**digits - 1
