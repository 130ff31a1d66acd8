"""Prime sieving, prime power series and their exact partial Bergman norms,
smooth and rough number lists, and the Euler product over small primes.

The series studied here have 0/1 coefficients supported on primes (or twin
primes), so on the unit disc every partial norm is an exact rational sum
of terms 1/(p+1), scaled by pi.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import OutOfRange
from .rational import PiRational, sum_reciprocals
from .series import SparseSeries

__all__ = [
    "BertrandWitness",
    "PrimePartition",
    "bertrand_witness",
    "euler_product_smooth",
    "make_partition",
    "prime_norm_partial",
    "prime_series",
    "rough_numbers",
    "smooth_numbers",
    "tail_sum",
    "twin_prime_norm_partial",
]


def _sieve_list(limit: int) -> list[int]:
    # Odd-only sieve: flag i stands for 2i+1. A bytearray with slice
    # assignment keeps numpy (and its ~0.1 s import) off this path; it runs
    # about half numpy's speed, still under 0.2 s at 1e7.
    if limit < 2:
        return []
    n = (limit + 1) // 2
    flags = bytearray(b"\x01") * n
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, n, p)))
    return [2, *itertools.compress(range(1, limit + 1, 2), flags)]


# In-memory sieve shared by every query in this process: (limit, primes
# list). Rebuilds at least double the limit and swap the whole tuple, so
# concurrent readers always see a consistent snapshot.
_cache: tuple[int, list[int]] = (1, [])


def _primes_up_to(limit: int) -> list[int]:
    global _cache
    cached_limit, cached = _cache
    if limit > cached_limit:
        new_limit = max(limit, 2 * cached_limit)
        cached = _sieve_list(new_limit)
        _cache = (new_limit, cached)
    return cached[: bisect_right(cached, limit)]


# Prefix sums of 1/(p+1) over one common denominator make a windowed norm
# cost a single subtraction plus one gcd. Tables are keyed by power-of-two
# prime limits so a query pays for its own range, never for whatever larger
# sieve some other caller happened to build; past the cap the tables would
# hold hundreds of megabytes of numerators, and one-shot tree summation
# wins anyway.
_PREFIX_LEVEL_CAP = 1 << 16
_prefix_tables: dict[int, tuple[tuple[int, ...], list[int], int]] = {}


def _recip_succ_prefix(level: int) -> tuple[tuple[int, ...], list[int], int]:
    table = _prefix_tables.get(level)
    if table is None:
        primes = tuple(_primes_up_to(level))
        common = 1
        for p in primes:
            common = math.lcm(common, p + 1)
        prefix = [0]
        for p in primes:
            prefix.append(prefix[-1] + common // (p + 1))
        table = (primes, prefix, common)
        _prefix_tables[level] = table
    return table


def _recip_succ_window(lo: int, hi: int) -> Fraction:
    """Exact sum of 1/(p+1) over primes p with lo < p <= hi."""
    if hi <= lo or hi < 2:
        return Fraction(0)
    level = 1 << hi.bit_length()
    if level > _PREFIX_LEVEL_CAP:
        primes = _primes_up_to(hi)
        start = bisect_right(primes, lo)
        return sum_reciprocals([p + 1 for p in primes[start:]])
    primes, prefix, common = _recip_succ_prefix(level)
    i = bisect_right(primes, lo)
    j = bisect_right(primes, hi)
    return Fraction(prefix[j] - prefix[i], common)


def prime_series(limit: int) -> SparseSeries:
    """sum of z^p over primes p <= limit, truncated at ``limit``."""
    if limit < 0:
        raise OutOfRange(f"limit must be >= 0, got {limit}")
    return SparseSeries.from_exponents(_primes_up_to(limit), degree_bound=max(limit, 0))


def prime_norm_partial(limit: int) -> PiRational:
    """||sum z^p||^2 on the unit disc = pi * sum_{p <= limit} 1/(p+1), exact."""
    if limit < 0:
        raise OutOfRange(f"limit must be >= 0, got {limit}")
    return PiRational(sum_reciprocals([p + 1 for p in _primes_up_to(limit)]))


def twin_prime_norm_partial(limit: int) -> PiRational:
    """pi * sum 1/(p+1) over primes p <= limit with p+2 also prime."""
    if limit < 0:
        raise OutOfRange(f"limit must be >= 0, got {limit}")
    primes = _primes_up_to(limit + 2)
    prime_set = set(primes)
    terms = [p + 1 for p in primes if p <= limit and p + 2 in prime_set]
    return PiRational(sum_reciprocals(terms))


class BertrandWitness(NamedTuple):
    value: PiRational
    prime_found: bool


def bertrand_witness(n: int) -> BertrandWitness:
    """Exact pairing of 1_{(N,2N]} against the prime series on the unit disc.

    <g_N, q_N> = pi * sum_{p in (N, 2N]} 1/(p+1); it is nonzero exactly when
    a prime lies in (N, 2N].
    """
    if n < 1:
        raise OutOfRange(f"Bertrand index must be >= 1, got {n}")
    value = PiRational(_recip_succ_window(n, 2 * n))
    return BertrandWitness(value, not value.is_zero)


# -- smooth / rough classification ------------------------------------------


@dataclass(frozen=True)
class PrimePartition:
    """Primes split at the cutoff pk: p1 = primes below pk, p2 = primes in
    [pk, p2_limit]. Induces the smooth numbers (all factors < pk) and the
    rough numbers (all factors >= pk); 1 is deliberately in neither class."""

    pk: int
    p1: tuple[int, ...]
    p2_limit: int
    p2: tuple[int, ...]


def make_partition(pk: int, p2_limit: int) -> PrimePartition:
    primes = _primes_up_to(max(p2_limit, pk))
    split = bisect_left(primes, pk)
    if split == len(primes) or primes[split] != pk:
        raise OutOfRange(f"cutoff must be prime, got {pk}")
    p1 = tuple(primes[:split])
    p2 = tuple(primes[split : bisect_right(primes, p2_limit)])
    return PrimePartition(pk, p1, p2_limit, p2)


def smooth_numbers(part: PrimePartition, limit: int) -> list[int]:
    """All n in [2, limit] whose prime factors are all below pk, sorted.

    Generated multiplicatively from p1, so the cost scales with the count
    of smooth numbers rather than with ``limit``.
    """
    found: list[int] = []

    def extend(value: int, prime_index: int) -> None:
        for i in range(prime_index, len(part.p1)):
            nxt = value * part.p1[i]
            if nxt > limit:
                break
            found.append(nxt)
            extend(nxt, i)

    extend(1, 0)
    return sorted(found)


def rough_numbers(part: PrimePartition, limit: int) -> list[int]:
    """All n in [2, limit] with no prime factor below pk, sorted."""
    if limit < 2:
        return []
    if not part.p1:
        return list(range(2, limit + 1))
    # p1 holds 2, so only odd n can be rough: flag i stands for 2i+1, as in
    # _sieve_list, and the odd multiples of p sit p flags apart from p.
    n = (limit + 1) // 2
    flags = bytearray(b"\x01") * n
    flags[0] = 0
    for p in part.p1[1:]:
        flags[p // 2 :: p] = bytes(len(range(p // 2, n, p)))
    return list(itertools.compress(range(1, limit + 1, 2), flags))


def euler_product_smooth(part: PrimePartition) -> Fraction:
    """prod over p < pk of 1/(1 - 1/p), exact.

    Expanding each geometric factor shows this equals 1 plus the sum of the
    reciprocals of every smooth number.
    """
    product = Fraction(1)
    for p in part.p1:
        product *= Fraction(p, p - 1)
    return product


def tail_sum(part: PrimePartition) -> Fraction:
    """sum of 1/p over the primes in [pk, p2_limit], exact."""
    return sum_reciprocals(part.p2)
