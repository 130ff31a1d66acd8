import math
import random
import sys
import threading
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergspace import UNIT_DISC, norm_sq
from bergspace import primes
from bergspace.errors import OutOfRange
from bergspace.primes import (
    PrimePartition,
    bertrand_witness,
    euler_product_smooth,
    make_partition,
    prime_norm_partial,
    prime_series,
    rough_numbers,
    smooth_numbers,
    tail_sum,
    twin_prime_norm_partial,
)
from bergspace.rational import PiRational, sum_fractions, sum_reciprocals

from conftest import oracle_is_prime, oracle_prime_factors


def pi_frac(num, den=1):
    return PiRational(Fraction(num, den))


def test_sieve_examples():
    assert primes._primes_up_to(1) == []
    assert primes._primes_up_to(0) == []
    assert primes._primes_up_to(10) == [2, 3, 5, 7]


def test_sieve_against_trial_division():
    got = primes._primes_up_to(10_000)
    assert len(got) == 1229
    expected = [n for n in range(2, 10_001) if oracle_is_prime(n)]
    assert got == expected


def test_sieve_list_small_limits_and_prime_squares():
    # the odd-only sieve starts marking at p^2; limits next to a square
    # catch an off-by-one in the start index or in the outer loop bound.
    # _primes_up_to reads through a cache that rounds limits up, so call
    # the sieve itself.
    oracle = [n for n in range(2, 317 * 317 + 2) if oracle_is_prime(n)]
    square_limits = [
        p * p + d for p in range(2, 318) if oracle_is_prime(p) for d in (-1, 0, 1)
    ]
    for limit in [*range(2001), *square_limits]:
        assert primes._sieve_list(limit) == oracle[: bisect_right(oracle, limit)]


def test_sieve_cache_stops_at_the_cap(monkeypatch):
    # a small cap stands in for the real one, which tests never sieve at
    monkeypatch.setattr(primes, "SIEVE_LIMIT_CAP", 1000)
    monkeypatch.setattr(primes, "_cache", (1, []))
    primes._sieved(600)
    primes._sieved(700)
    # the doubling to 1200 is clamped to the cap
    assert primes._cache[0] == 1000
    assert primes._primes_up_to(1000)[-1] == 997
    with pytest.raises(OutOfRange, match="sieve limit 1001 exceeds the cap 1000"):
        primes._sieved(1001)
    assert primes._cache[0] == 1000


@pytest.mark.parametrize(
    "call, bound, message",
    [
        (twin_prime_norm_partial, primes.SIEVE_LIMIT_CAP - 2, "limit must be <= {}, got {}"),
        (lambda n: bertrand_witness(n).value, primes.SIEVE_LIMIT_CAP // 2,
         "Bertrand index must be <= {}, got {}"),
    ],
)
def test_twins_and_bertrand_refuse_past_their_own_bound(monkeypatch, call, bound, message):
    # a stub sieve records the limit asked for instead of sieving to 10^8
    asked = []

    def stub_sieved(limit):
        assert limit <= primes.SIEVE_LIMIT_CAP
        asked.append(limit)
        return [2, 3, 5, 7]

    monkeypatch.setattr(primes, "_sieved", stub_sieved)
    monkeypatch.setattr(primes, "_last_window", primes._last_window)
    call(bound)
    assert asked[-1] == primes.SIEVE_LIMIT_CAP
    asked.clear()
    with pytest.raises(OutOfRange) as info:
        call(bound + 1)
    assert str(info.value) == message.format(bound, bound + 1)
    assert not asked


def test_prime_series_examples():
    assert prime_series(4).support == (2, 3)
    assert prime_series(4).degree_bound == 4
    assert prime_series(1).is_zero
    assert len(prime_series(30)) == 10


def test_prime_norm_partial_examples():
    assert prime_norm_partial(2) == pi_frac(1, 3)
    assert prime_norm_partial(10) == pi_frac(7, 8)
    assert prime_norm_partial(1).is_zero


@pytest.mark.parametrize("call", [prime_series, prime_norm_partial, twin_prime_norm_partial])
def test_prime_sums_refuse_a_negative_limit(call):
    with pytest.raises(OutOfRange, match="limit must be >= 0, got -1"):
        call(-1)


@pytest.mark.parametrize("limit", [0, 1, 2, 10, 97, 500, 1000, 9973, 10_000])
def test_prime_norm_agrees_with_series_norm(limit):
    assert prime_norm_partial(limit) == norm_sq(prime_series(limit), UNIT_DISC)


def test_partition_totality_and_unique_factorization():
    # every n in [2, 10^4] is smooth (all factors below pk), rough (all
    # factors >= pk) or neither, for each cutoff, and the two lists agree
    # with that split; each n then splits uniquely into a smooth part times
    # a rough part
    cutoffs = (2, 3, 5, 7, 11)
    parts = {pk: make_partition(pk, 10_000) for pk in cutoffs}
    factors = {n: oracle_prime_factors(n) for n in range(2, 10_001)}
    for pk in cutoffs:
        smooth = set(smooth_numbers(parts[pk], 10_000))
        rough = set(rough_numbers(parts[pk], 10_000))
        for n, fs in factors.items():
            assert (n in smooth) == (fs[-1] < pk)
            assert (n in rough) == (fs[0] >= pk)
    # uniqueness witnessed by divisor enumeration at small scale
    for pk in cutoffs:
        for n in range(2, 401):
            smooth_part = 1
            remainder = n
            for p in parts[pk].p1:
                while remainder % p == 0:
                    smooth_part *= p
                    remainder //= p
            splits = [
                d
                for d in range(1, n + 1)
                if n % d == 0
                and all(q < pk for q in (oracle_prime_factors(d) if d > 1 else ()))
                and all(q >= pk for q in (oracle_prime_factors(n // d) if n // d > 1 else ()))
            ]
            assert splits == [smooth_part]


def test_smooth_rough_examples():
    assert smooth_numbers(make_partition(3, 10), 10) == [2, 4, 8]
    assert rough_numbers(make_partition(3, 10), 10) == [3, 5, 7, 9]
    assert smooth_numbers(make_partition(2, 10), 10) == []
    assert rough_numbers(make_partition(2, 10), 10) == list(range(2, 11))
    assert smooth_numbers(make_partition(5, 12), 12) == [2, 3, 4, 6, 8, 9, 12]
    assert rough_numbers(make_partition(5, 12), 12) == [5, 7, 11]


def test_smooth_rough_against_factorization_oracle():
    part = make_partition(7, 500)
    smooth = set(smooth_numbers(part, 500))
    rough = set(rough_numbers(part, 500))
    for n in range(2, 501):
        factors = oracle_prime_factors(n)
        assert (n in smooth) == all(p < 7 for p in factors)
        assert (n in rough) == all(p >= 7 for p in factors)


@pytest.mark.parametrize("pk", [2, 3, 5, 7, 11, 29, 97])
def test_rough_numbers_against_trial_division(pk):
    small = [p for p in range(2, pk) if oracle_is_prime(p)]
    for limit in range(301):
        expected = [n for n in range(2, limit + 1) if all(n % p for p in small)]
        assert rough_numbers(make_partition(pk, limit), limit) == expected


def test_euler_product_examples():
    assert euler_product_smooth(make_partition(3, 3)) == 2
    assert euler_product_smooth(make_partition(2, 2)) == 1
    assert euler_product_smooth(make_partition(7, 7)) == Fraction(15, 4)


def test_euler_product_matches_per_prime_product():
    expected = Fraction(1)
    for pk in range(2, 2004):
        if oracle_is_prime(pk):
            assert euler_product_smooth(make_partition(pk, pk)) == expected
            expected *= Fraction(pk, pk - 1)


def test_euler_product_majorizes_partial_sums():
    part = make_partition(7, 7)
    product = euler_product_smooth(part)
    previous = Fraction(0)
    gaps = []
    for limit in (10, 100, 1_000, 10_000, 100_000, 1_000_000):
        partial = 1 + sum_fractions(
            [Fraction(1, k) for k in smooth_numbers(part, limit)]
        )
        assert previous < partial < product
        gaps.append(product - partial)
        previous = partial
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_tail_sum_examples():
    assert tail_sum(make_partition(11, 30)) == sum(
        Fraction(1, p) for p in (11, 13, 17, 19, 23, 29)
    )
    assert float(tail_sum(make_partition(11, 30))) < 1
    assert tail_sum(make_partition(3, 3)) == Fraction(1, 3)
    assert tail_sum(make_partition(2, 1)) == 0


@pytest.mark.parametrize("pk,limit", [(2, 2), (2, 5000), (29, 10_000), (97, 20_000)])
def test_tail_sum_matches_reciprocal_sum(pk, limit):
    part = make_partition(pk, limit)
    assert tail_sum(part) == sum_reciprocals(part.p2)


@pytest.mark.parametrize("p2", [(3, 3), (0,), (3,), (3, 5, 7, 11), (5, 7), (5, 3, 7)])
def test_tail_sum_refuses_a_hand_built_p2(p2):
    # the sum skips its gcd because p2 holds distinct primes, so a partition
    # other than make_partition's is refused
    part = PrimePartition(3, (2,), 10, p2)
    assert make_partition(3, 10) == PrimePartition(3, (2,), 10, (3, 5, 7))
    with pytest.raises(OutOfRange, match="not the partition at cutoff 3 up to 10"):
        tail_sum(part)
    assert tail_sum(PrimePartition(3, (2,), 10, (3, 5, 7))) == Fraction(71, 105)


def harmonic_reference(n):
    return sum_reciprocals(range(1, n + 1))


def harmonic(n):
    return primes._recip_sums(n, [None])[0]


def test_harmonic_small_n():
    for n in range(601):
        assert harmonic(n) == harmonic_reference(n)
    assert harmonic(-3) == 0


@pytest.mark.parametrize("p", [p for p in range(2, 101) if oracle_is_prime(p)])
def test_harmonic_around_prime_squares(p):
    # isqrt(n) steps at p^2, moving p from the big primes to the small ones
    for n in (p * p - 1, p * p, p * p + 1):
        assert harmonic(n) == harmonic_reference(n)


def test_harmonic_at_step_one_size():
    assert harmonic(30049) == harmonic_reference(30049)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 40_000))
def test_harmonic_matches_reciprocal_sum(n):
    assert harmonic(n) == harmonic_reference(n)


def subset_mask(n, ks):
    mask = bytearray(n + 1)
    for k in ks:
        mask[k] = 1
    return bytes(mask)


def assert_subset_sums(n, subsets):
    sums = primes._recip_sums(n, [None] + [subset_mask(n, ks) for ks in subsets])
    assert sums == [harmonic_reference(n)] + [sum_reciprocals(ks) for ks in subsets]
    for total in sums:
        assert math.gcd(total.numerator, total.denominator) == 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 3000),
    densities=st.lists(st.floats(0, 1), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
)
def test_subset_sums_match_reciprocal_sum(n, densities, seed):
    rng = random.Random(seed)
    subsets = [[k for k in range(1, n + 1) if rng.random() < d] for d in densities]
    assert_subset_sums(n, subsets)


def test_subset_sums_edge_cases():
    for n in (1, 2, 3):
        assert_subset_sums(n, [[], [1], [n], list(range(1, n + 1)), [k for k in (2, 3) if k <= n]])
    # n = 120: b = 10, so 97 is a big prime alone in its row, and
    # 110 = 11 * 10 is a big prime times b
    assert_subset_sums(120, [[], [120], [97], [110], [11, 22, 110], [61, 67, 71, 120]])
    for p in (7, 11, 31):
        for n in (p * p - 1, p * p, p * p + 1):
            multiples = list(range(p, n + 1, p))
            assert_subset_sums(n, [[n], [p, multiples[-1]], multiples, [p + 1, n - 1]])
    for n, ks in ((0, [0]), (5, [0]), (5, [0, 3]), (120, [0, 97, 110])):
        with pytest.raises(ZeroDivisionError):
            primes._recip_sums(n, [subset_mask(n, ks)])
    assert primes._recip_sums(10, []) == []

def test_bertrand_witness_examples():
    assert bertrand_witness(1) == (pi_frac(1, 3), True)
    assert bertrand_witness(2) == (pi_frac(1, 4), True)
    assert bertrand_witness(4) == (pi_frac(1, 6) + pi_frac(1, 8), True)
    with pytest.raises(OutOfRange):
        bertrand_witness(0)


def oracle_window_sum(lo, hi):
    """sum of 1/(p+1) over the primes p in (lo, hi], by trial division."""
    return sum(
        (Fraction(1, p + 1) for p in range(lo + 1, hi + 1) if oracle_is_prime(p)),
        Fraction(0),
    )


def oracle_bertrand_sum(n):
    return oracle_window_sum(n, 2 * n)


# Bertrand witnesses, ("n", n) over (n, 2n], and prime norms, ("L", L) over
# (0, L], share one cached window.
def window_query(kind, x):
    return bertrand_witness(x).value if kind == "n" else prime_norm_partial(x)


def oracle_window_query(kind, x):
    return PiRational(oracle_bertrand_sum(x) if kind == "n" else oracle_window_sum(0, x))


def test_bertrand_witness_matches_direct_window_sum():
    rng = random.Random(11)
    random_order = [(rng.choice("nL"), rng.randint(1, 5000)) for _ in range(25)]
    # the window slides when the next one moves right and starts afresh
    # otherwise; this order takes every kind of move
    n = lambda *values: [("n", v) for v in values]
    L = lambda *values: [("L", v) for v in values]
    fixed_order = [
        *n(1, 2, 3, 4, 5),  # consecutive n
        *n(5, 5),  # repeated n
        *n(40, 60, 90),  # n -> 1.5n: the windows overlap
        *n(270, 810),  # n -> 3n: they do not
        *n(809, 400),  # decreasing n
        *L(600),  # 400 < L < 800: a prime norm after a witness starts at 0
        *n(401),  # slides (0, 600] to (401, 802]
        *L(700, 701, 1000, 1000, 4000),  # rising and repeated L
        *L(3999, 10, 0, 1, 2),  # falling L, then rising from the bottom
        *n(1, 2),  # witnesses sliding off a prime norm's window
        *n(1000, 1001, 1001, 1500),
        *L(2000, 2999, 3000),  # L between n and 2n
        *n(4500, 4499, 4500, 5000, 1),
    ]
    for kind, x in random_order + fixed_order:
        direct = oracle_window_query(kind, x)
        if kind == "n":
            assert bertrand_witness(x) == (direct, not direct.is_zero), x
        else:
            assert prime_norm_partial(x) == direct, x


def test_bertrand_window_shared_by_threads():
    # every thread slides the one cached window along its own run of
    # witnesses or prime norms; a window updated in place would hand some
    # thread another thread's sum
    runs = [[("n", n) for n in range(start, start + 40)] for start in (1, 45, 90, 135, 180, 225)]
    runs += [[("L", L) for L in range(start, start + 400, 10)] for start in (0, 200)]
    expected = {q: oracle_window_query(*q) for run in runs for q in run}
    wrong = []

    def walk(run):
        for _ in range(5):
            wrong.extend(q for q in run if window_query(*q) != expected[q])

    threads = [threading.Thread(target=walk, args=(run,)) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("n", [32767, 32768, 40000])
def test_bertrand_witness_large_n(n):
    assert bertrand_witness(n) == (PiRational(oracle_bertrand_sum(n)), True)


def test_twin_prime_norm_examples():
    assert twin_prime_norm_partial(4) == pi_frac(1, 4)
    assert twin_prime_norm_partial(7) == pi_frac(5, 12)
    assert twin_prime_norm_partial(2).is_zero
    # p <= limit with p + 2 prime counts even when p + 2 > limit
    assert twin_prime_norm_partial(5) == pi_frac(1, 4) + pi_frac(1, 6)


def test_divergence_trend_beats_loglog():
    for limit in (100, 1_000, 10_000):
        value = float(prime_norm_partial(limit).coefficient)
        assert value > 0.5 * math.log(math.log(limit))


def test_make_partition_validates_cutoff():
    with pytest.raises(OutOfRange):
        make_partition(4, 10)
    part = make_partition(2, 10)
    assert part.p1 == ()
    assert part.p2 == (2, 3, 5, 7)
