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
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import _EXPORTS
from ._record import Record
from .errors import OutOfRange
from .rational import PiRational, _coprime_fraction, _product, _sum_coprime, sum_reciprocals
from .series import SparseSeries

__all__ = _EXPORTS["primes"]


def _odd_flags(limit: int, odd_primes: Iterable[int]) -> bytearray:
    # Flag i is set iff 2i+1 in [3, limit], limit >= 1, has no factor among
    # odd_primes but itself. Marking from p^2 is enough when every odd prime
    # below max(odd_primes) is passed: pm with m < p falls to a factor of m. A
    # bytearray with slice assignment keeps numpy (and its ~0.1 s import) off
    # this path; it runs about half numpy's speed.
    n = (limit + 1) // 2
    flags = bytearray(b"\x01") * n
    flags[0] = 0
    for p in odd_primes:
        start = p * p // 2
        flags[start::p] = bytes(len(range(start, n, p)))
    return flags


def _sieve_list(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = _odd_flags(limit, _sieve_list(math.isqrt(limit))[1:])
    return [2, *itertools.compress(range(1, limit + 1, 2), flags)]


# The largest limit the sieve accepts. Its flags take about limit/2 bytes
# and its primes list about 36 bytes a prime, roughly 0.25 GB at the cap.
SIEVE_LIMIT_CAP = 10**8

# In-memory sieve shared by every query in this process: (limit, primes
# list). Rebuilds at least double the limit, up to the cap, and swap the
# whole tuple, so concurrent readers always see a consistent snapshot.
_cache: tuple[int, list[int]] = (1, [])


def _sieved(limit: int) -> list[int]:
    """The cached primes list, up to at least ``limit``; never modify it."""
    global _cache
    if limit > SIEVE_LIMIT_CAP:
        raise OutOfRange(f"sieve limit {limit} exceeds the cap {SIEVE_LIMIT_CAP}")
    cached_limit, cached = _cache
    if limit > cached_limit:
        new_limit = min(max(limit, 2 * cached_limit), SIEVE_LIMIT_CAP)
        cached = _sieve_list(new_limit)
        _cache = (new_limit, cached)
    return cached


def _primes_up_to(limit: int) -> list[int]:
    primes = _sieved(limit)
    return primes[: bisect_right(primes, limit)]


def _recip_succ_sum(primes: list[int], lo: int, hi: int) -> Fraction:
    """Exact sum of 1/(p+1) over the listed primes p with lo < p <= hi."""
    chunk = primes[bisect_right(primes, lo) : bisect_right(primes, hi)]
    return sum_reciprocals([p + 1 for p in chunk])


# The last window (lo, hi, sum of 1/(p+1) over primes in (lo, hi]), swapped
# whole like _cache. Bertrand witnesses, (N, 2N], and prime norms, (0, L],
# share it. Loops and sweeps move it right: add the primes entering at the
# top, subtract those leaving at the bottom. Any other query, such as a jump
# past hi where sliding would sum more primes, starts empty at lo.
_last_window: tuple[int, int, Fraction] = (0, 0, Fraction(0))


def _recip_succ_window(lo: int, hi: int) -> Fraction:
    """Exact sum of 1/(p+1) over primes p with lo < p <= hi, for lo <= hi."""
    global _last_window
    last_lo, last_hi, total = _last_window
    if not last_lo <= lo <= last_hi <= hi:
        last_lo, last_hi, total = lo, lo, Fraction(0)
    primes = _sieved(hi)
    total += _recip_succ_sum(primes, last_hi, hi) - _recip_succ_sum(primes, last_lo, lo)
    _last_window = (lo, hi, total)
    return total


def prime_series(limit: int) -> SparseSeries:
    """sum of z^p over primes p <= limit, truncated at ``limit``."""
    if limit < 0:
        raise OutOfRange(f"limit must be >= 0, got {limit}")
    return SparseSeries.from_exponents(_primes_up_to(limit), degree_bound=limit)


def prime_norm_partial(limit: int) -> PiRational:
    """||sum z^p||^2 on the unit disc = pi * sum_{p <= limit} 1/(p+1), exact."""
    if limit < 0:
        raise OutOfRange(f"limit must be >= 0, got {limit}")
    return PiRational(_recip_succ_window(0, limit))


def twin_prime_norm_partial(limit: int) -> PiRational:
    """pi * sum 1/(p+1) over primes p <= limit with p+2 also prime."""
    if limit < 0:
        raise OutOfRange(f"limit must be >= 0, got {limit}")
    if limit > SIEVE_LIMIT_CAP - 2:
        raise OutOfRange(f"limit must be <= {SIEVE_LIMIT_CAP - 2}, got {limit}")
    # p + 2 <= limit + 2 is prime exactly when it follows p in the list
    primes = _primes_up_to(limit + 2)
    terms = [p + 1 for p, q in itertools.pairwise(primes) if q == p + 2]
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
    if n > SIEVE_LIMIT_CAP // 2:
        raise OutOfRange(f"Bertrand index must be <= {SIEVE_LIMIT_CAP // 2}, got {n}")
    value = PiRational(_recip_succ_window(n, 2 * n))
    return BertrandWitness(value, not value.is_zero)


# -- smooth / rough classification ------------------------------------------


class PrimePartition(Record):
    """Primes split at the cutoff pk: p1 = primes below pk, p2 = primes in
    [pk, p2_limit]. Induces the smooth numbers (all factors < pk) and the
    rough numbers (all factors >= pk); 1 is deliberately in neither class."""

    __slots__ = ("pk", "p1", "p2_limit", "p2")
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


def _odd_rough_flags(part: PrimePartition, limit: int) -> bytearray:
    """Flag i is set iff 2i+1 <= limit is rough; part.p1 must hold 2, limit >= 1."""
    flags = _odd_flags(limit, part.p1[1:])
    # below pk only 1 and the odd p1 primes survive the sieve
    below = min(part.pk // 2, len(flags))
    flags[:below] = bytes(below)
    return flags


def rough_numbers(part: PrimePartition, limit: int) -> list[int]:
    """All n in [2, limit] with no prime factor below pk, sorted."""
    if limit < 2:
        return []
    if not part.p1:
        return list(range(2, limit + 1))
    # p1 holds 2, so only odd n can be rough
    return list(itertools.compress(range(1, limit + 1, 2), _odd_rough_flags(part, limit)))


def euler_product_smooth(part: PrimePartition) -> Fraction:
    """prod over p < pk of 1/(1 - 1/p), exact.

    Expanding each geometric factor shows this equals 1 plus the sum of the
    reciprocals of every smooth number.
    """
    return Fraction(_product(part.p1), _product(p - 1 for p in part.p1))


def tail_sum(part: PrimePartition) -> Fraction:
    """sum of 1/p over the primes in [pk, p2_limit], exact; part must be make_partition's."""
    if part != make_partition(part.pk, part.p2_limit):
        raise OutOfRange(f"not the partition at cutoff {part.pk} up to {part.p2_limit}")
    # mod each p the numerator is the product of the other primes, never 0
    return _coprime_fraction(*_sum_coprime([1] * len(part.p2), list(part.p2)))


def _recip_sums(n: int, masks: list[bytes | None]) -> list[Fraction]:
    """Exact sums of 1/k over subsets of 1..n, one reduced Fraction per mask.

    A mask is None for all of 1..n, or n + 1 bytes flagging each k in the
    subset; a set flag 0 raises ZeroDivisionError. With b = isqrt(n), each
    k <= n is b-smooth or q*m for one prime q > b and m <= n // q <= b. L
    (``lcm``), the product of p^floor(log_p n) over primes p <= b, is a
    multiple of each smooth k and each m, so the smooth k add up to L // k
    over L, and q's multiples to c / (q L), c summing L // m over flagged q*m.
    Primes sharing one row of flags q, 2q, ..., (n // q) q share c, and their
    1/q add up over coprime products with no gcd. Each other term carries q,
    and its group's numerator is a product of other primes mod q, so q divides
    the numerator N iff q | c: gcd(N, L * den) = gcd(N, L) * prod gcd(c, den).
    """
    n = max(n, 0)
    b = math.isqrt(n)
    primes = _primes_up_to(n)
    split = bisect_right(primes, b)
    big = primes[split:]
    lcm = 1
    for p in primes[:split]:
        power = p
        while power * p <= n:
            power *= p
        lcm *= power
    # smooth flags the b-smooth k in 1..n, and quot holds L // k for them
    smooth = bytearray(b"\x01") * (n + 1)
    smooth[0] = 0
    zeros = memoryview(bytes(n // (b + 1)))
    for q in big:
        smooth[q::q] = zeros[: n // q]
    quot = list(map(lcm.__floordiv__, itertools.compress(range(n + 1), smooth)))
    scaled = [lcm // m for m in range(1, b + 1)]
    prefix = list(itertools.accumulate(scaled, initial=0))
    # n // q falls as q rises, so all of 1..n groups the big primes by runs, slicing no rows
    runs = [(prefix[t], list(run)) for t, run in itertools.groupby(big, lambda q: n // q)]
    sums = []
    for mask in masks:
        if mask is None:
            mask, groups = bytes(1) + b"\x01" * n, runs
        else:
            rows: dict[bytes, list[int]] = {}
            for q in big:
                rows.setdefault(mask[q::q], []).append(q)
            weighted = ((sum(itertools.compress(scaled, row)), qs) for row, qs in rows.items())
            groups = [(c, qs) for c, qs in weighted if c]
        if mask[0]:
            raise ZeroDivisionError("1/0 in a sum of reciprocals")
        nums, dens = [sum(itertools.compress(quot, itertools.compress(mask, smooth)))], [1]
        for c, group in groups:
            num, den = _sum_coprime([1] * len(group), group)
            nums.append(c * num)
            dens.append(den)
        num, den = _sum_coprime(nums, dens)
        common = math.gcd(num, lcm) * _product(map(math.gcd, (c for c, _ in groups), dens[1:]))
        sums.append(_coprime_fraction(num // common, lcm * den // common))
    return sums
