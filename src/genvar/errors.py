"""Error taxonomy shared by the library and the CLI exit-code map, and the
limits every entry point checks: the default work budget and prime pool,
and their validation."""

from math import isqrt


class InputError(ValueError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """An enumeration, sampling or prime-pool budget was exceeded (exit code 3)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed: inexact division, non-integral
    interpolation, certificate mismatch (exit code 4)."""


DEFAULT_BUDGET = 10_000_000
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_prime(n) -> bool:
    return type(n) is int and n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


def _check_limits(budget, pool=DEFAULT_PRIMES) -> tuple:
    """The work budget and prime pool of a library entry point, checked:
    InputError unless `budget` is an int >= 0 and `pool` a list or tuple
    of distinct primes (`_check_pool`). Bools are refused, so
    `budget=True` cannot share a cache entry with `budget=1`."""
    if type(budget) is not int or budget < 0:
        raise InputError("budget %r must be a nonnegative integer" % (budget,))
    return _check_pool(pool)


def _check_pool(pool) -> tuple:
    """InputError unless `pool` is a list or tuple of distinct primes, each
    an int (bools refused). Returns the pool as a tuple, the form cache
    keys take. The default pool is trusted without a scan: cached entry
    points receive it thousands of times per run."""
    if pool is not DEFAULT_PRIMES and (not isinstance(pool, (list, tuple))
                                       or not all(map(is_prime, pool))
                                       or len(set(pool)) < len(pool)):
        raise InputError("prime pool %r must be a list or tuple of distinct primes" % (pool,))
    return tuple(pool)
