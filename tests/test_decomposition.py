import hashlib
import pickle
from bisect import bisect_right
from fractions import Fraction
from math import gcd

import pytest

from bergspace import SparseSeries, UNIT_DISC, decomposition, norm_sq, primes
from bergspace.decomposition import (
    geometric_partition,
    rough_dedup,
    rough_tail_geometric_bound,
    step_one_norm_bound,
    step_two_norm_bound,
)
from bergspace.errors import OutOfRange, PartitionViolation, TailNotSmall
from bergspace.primes import PrimePartition, make_partition, rough_numbers, smooth_numbers
from bergspace.rational import PiRational, sum_fractions, sum_reciprocals
from bergspace.series import compose_power, truncate


def pi_frac(num, den=1):
    return PiRational(Fraction(num, den))


def block_map(report):
    return {b.label: b.series for b in report.blocks}


# -- geometric partition -------------------------------------------------------


def test_partition_pk2_has_no_smooth_blocks():
    report = geometric_partition(2, 5)
    blocks = block_map(report)
    assert set(blocks) == {"1", "z", "F(z)"}
    assert blocks["F(z)"].support == (2, 3, 4, 5)


def test_partition_pk3_degree8_frozen():
    report = geometric_partition(3, 8)
    blocks = block_map(report)
    assert blocks["F(z)"].support == (3, 5, 7)
    assert blocks["z^2"].support == (2,)
    assert blocks["F(z^2)"].support == (6,)
    assert blocks["z^4"].support == (4,)
    assert blocks["F(z^4)"].is_zero
    assert blocks["z^8"].support == (8,)
    assert sorted(report.coverage) == list(range(9))
    assert report.coverage[6] == "F(z^2)"


def test_partition_degree_one_is_constant_plus_linear():
    for pk in (2, 3, 11):
        report = geometric_partition(pk, 1)
        assert {b.label for b in report.blocks if not b.series.is_zero} == {"1", "z"}


@pytest.mark.parametrize("pk", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("degree", [10, 100])
def test_partition_exact_coverage_and_sum(pk, degree):
    report = geometric_partition(pk, degree)
    assert sorted(report.coverage) == list(range(degree + 1))
    assert report.block_sum() == SparseSeries.geometric(degree)


def test_partition_parseval():
    report = geometric_partition(5, 60)
    total = norm_sq(report.block_sum(), UNIT_DISC)
    by_blocks = PiRational(Fraction(0))
    for block in report.blocks:
        by_blocks = by_blocks + norm_sq(block.series, UNIT_DISC)
    assert total == by_blocks


@pytest.mark.parametrize(
    "patched, corrupt, exponent, labels",
    [
        # rough exponent 3 dropped: uncovered
        (rough_numbers, lambda rough: rough[1:], 3, []),
        # smooth 4 added to F: covered by F(z) and by z^4
        (rough_numbers, lambda rough: sorted(rough + [4]), 4, ["F(z)", "z^4"]),
        # 5 replaced by 7: the repeat is named before the gap at 5
        (rough_numbers, lambda rough: sorted(7 if e == 5 else e for e in rough), 7, ["F(z)", "F(z)"]),
        # a smooth k past the degree: the z^64 block lies outside 0..50
        (smooth_numbers, lambda smooth: smooth + [64], 64, ["z^64"]),
        # a rough exponent past the degree: F(z) lies outside 0..50; the
        # check runs before any block is built, so no block refuses it first
        (rough_numbers, lambda rough: rough + [64], 64, ["F(z)"]),
    ],
    ids=["rough-gap", "rough-overlap", "rough-repeat-and-gap", "smooth-past-degree",
         "rough-past-degree"],
)
def test_partition_coverage_check_catches_a_wrong_rough_set(
    monkeypatch, patched, corrupt, exponent, labels
):
    monkeypatch.setattr(
        decomposition, patched.__name__, lambda part, limit: corrupt(patched(part, limit))
    )
    with pytest.raises(PartitionViolation) as info:
        geometric_partition(3, 50)
    assert (info.value.exponent, info.value.labels) == (exponent, labels)


@pytest.mark.parametrize(
    "corrupt, exponent, labels",
    [
        (lambda rough: [e for e in rough if e != 16381], 16381, []),
        (lambda rough: [e for e in rough if e != 16385], 16385, []),
        (lambda rough: sorted(rough + [32767]), 32767, ["F(z)", "F(z)"]),
        (lambda rough: sorted(rough + [32771]), 32771, ["F(z)", "F(z)"]),
        (lambda rough: [e for e in rough if e != 39997], 39997, []),
        (lambda rough: rough + [40003], 40003, ["F(z)"]),
    ],
    ids=["gap-before-edge", "gap-after-edge", "repeat-before-edge", "repeat-after-edge",
         "gap-in-last-window", "past-degree"],
)
def test_partition_coverage_check_sees_every_window(monkeypatch, corrupt, exponent, labels):
    # the check compares 2^14 exponents at a time; a fault next to a window
    # edge, in the last window or past the degree must fail it all the same
    assert sorted(geometric_partition(3, 40000).coverage) == list(range(40001))
    monkeypatch.setattr(
        decomposition, "rough_numbers", lambda part, limit: corrupt(rough_numbers(part, limit))
    )
    with pytest.raises(PartitionViolation) as info:
        geometric_partition(3, 40000)
    assert (info.value.exponent, info.value.labels) == (exponent, labels)


# pk -> sha256 of repr([sorted(coverage.items()) for D in COVERAGE_DEGREES]),
# frozen from the code that stored the exponent -> label map in the report
COVERAGE_DEGREES = (1, 2, 3, 8, 50, 129, 1000)
COVERAGE_DIGESTS = {
    2: "0ff3635a34a20fe0f211dcb4516f94ff1040db1ac351274721c0dd33bec0b1e4",
    3: "6ae3dc88b5b660dbf36fe8e395b69f55d864f38f5bdb02c6edb68281069a093d",
    5: "d505ad157a9b41047c24e160c92a71cfd1dc6005f375339dba445384e9456f4b",
    7: "c5dedb875ef98def622c307d92eae64b6440aac6a800882fabda5944d90468e0",
    11: "5a2ed17626573e0168b5d3287fa7569c481e6b1463a0741a24216acb80c01ed1",
    29: "ab8d82bebfd18643dcabb48cec1e91e20dccbe82801cc37ca79c1b9cbf2d3806",
}


@pytest.mark.parametrize("pk", sorted(COVERAGE_DIGESTS))
def test_partition_coverage_map_frozen(pk):
    maps = [sorted(geometric_partition(pk, d).coverage.items()) for d in COVERAGE_DEGREES]
    assert hashlib.sha256(repr(maps).encode()).hexdigest() == COVERAGE_DIGESTS[pk]


def test_partition_coverage_check_catches_a_repeat_inside_one_block(monkeypatch):
    # the F(z) series collapses the repeat; the check must not
    monkeypatch.setattr(
        decomposition, "rough_numbers", lambda part, limit: sorted(rough_numbers(part, limit) + [7])
    )
    with pytest.raises(PartitionViolation) as info:
        geometric_partition(5, 30)
    assert (info.value.exponent, info.value.labels) == (7, ["F(z)", "F(z)"])


# -- geometric-series norm bound -------------------------------------------------


def test_step_one_pk2_degree3_is_equality():
    record = step_one_norm_bound(2, 3)
    assert record.lhs == pi_frac(25, 12)
    assert record.rhs == pi_frac(25, 12)
    assert record.holds


def test_step_one_degree_one_head_term_only():
    record = step_one_norm_bound(5, 1)
    assert record.lhs == pi_frac(3, 2)
    assert record.f_norm_sq.is_zero
    assert record.smooth_recip_sum == 0
    assert record.holds


@pytest.mark.parametrize("pk,degree", [(3, 20), (5, 100), (11, 257)])
def test_step_one_holds(pk, degree):
    record = step_one_norm_bound(pk, degree)
    assert record.holds
    # lhs is exactly the norm of the truncated geometric series
    assert record.lhs == norm_sq(SparseSeries.geometric(degree), UNIT_DISC)


def assert_lowest_terms(*values):
    for value in values:
        value = getattr(value, "coefficient", value)
        assert type(value) is Fraction
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1


@pytest.mark.parametrize("pk", [2, 3, 5, 7, 11, 29])
def test_step_one_sums_match_reciprocal_sums_in_lowest_terms(pk):
    # n = D + 1 crosses the squares 36, 121 and 169, where isqrt(n) steps
    for degree in (1, 8, 35, 120, 168, 197, 997, 1000, 4096, 10001, 30000):
        record = step_one_norm_bound(pk, degree)
        rough = rough_numbers(make_partition(pk, degree), degree)
        assert record.lhs == PiRational(sum_reciprocals(range(1, degree + 2)))
        assert record.f_norm_sq == PiRational(sum_reciprocals([r + 1 for r in rough]))
        assert_lowest_terms(record.lhs, record.rhs, record.f_norm_sq, record.smooth_recip_sum)


# -- rough dedup ---------------------------------------------------------------


def test_dedup_pk2_degree4_frozen():
    report = rough_dedup(2, 4, 4)
    assert report.q_block.support == (2, 3)
    got = {l: g.support for l, g in report.g_blocks}
    assert got == {2: (4,), 3: (), 4: ()}
    assert report.block_sum() == SparseSeries.from_exponents([2, 3, 4], degree_bound=4)


def test_dedup_pk3_l9_empty_after_truncation():
    report = rough_dedup(3, 25, 25)
    g9 = dict(report.g_blocks)[9]
    assert g9.is_zero  # 9 * 3 = 27 > 25


def test_dedup_pk3_degree15_l3():
    report = rough_dedup(3, 15, 15)
    assert dict(report.g_blocks)[3].support == (9, 15)


def test_dedup_requires_complete_q():
    with pytest.raises(ValueError):
        rough_dedup(3, 10, 9)


@pytest.mark.parametrize(
    "build",
    [
        lambda d: geometric_partition(3, d),
        lambda d: step_one_norm_bound(3, d),
        lambda d: rough_dedup(3, d, d),
        lambda d: step_two_norm_bound(3, d, d),
    ],
    ids=["geometric", "step-one", "dedup", "step-two"],
)
def test_builders_refuse_degree_zero(build):
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        build(0)


@pytest.mark.parametrize("build", [rough_dedup, step_two_norm_bound])
def test_dedup_sieves_to_the_degree_not_to_p2_limit(monkeypatch, build):
    # Q holds the primes up to the degree, so a larger p2_limit changes only
    # the field that records it, and must not grow the sieve
    monkeypatch.setattr(primes, "_cache", (1, []))
    far, near = build(3, 100, 10**9), build(3, 100, 100)
    assert far.p2_limit == 10**9
    for name in far.__slots__:
        if name != "p2_limit":
            assert getattr(far, name) == getattr(near, name), name
    assert primes._cache[0] < 10**4


@pytest.mark.parametrize("pk,degree", [(2, 50), (3, 100), (5, 100), (11, 200)])
def test_dedup_conservation_and_chain(pk, degree):
    report = rough_dedup(pk, degree, degree)
    part = make_partition(pk, degree)
    rough = rough_numbers(part, degree)
    # every rough number appears exactly once across Q and the G blocks
    seen = list(report.q_block.support)
    for _, g in report.g_blocks:
        seen.extend(g.support)
    assert sorted(seen) == rough
    # norm chain, exactly
    q_norm = norm_sq(report.q_block, UNIT_DISC)
    for (l, g), (l2, h_norm) in zip(report.g_blocks, report.h_norms):
        assert l == l2
        assert norm_sq(g, UNIT_DISC) <= h_norm
        assert h_norm <= Fraction(2, l) * q_norm


def test_dedup_deterministic():
    a = rough_dedup(3, 200, 200)
    b = rough_dedup(3, 200, 200)
    assert a.q_block == b.q_block
    assert a.g_blocks == b.g_blocks
    assert a.h_norms == b.h_norms


def test_dedup_parseval():
    report = rough_dedup(3, 120, 120)
    total = norm_sq(report.block_sum(), UNIT_DISC)
    by_blocks = norm_sq(report.q_block, UNIT_DISC)
    for _, g in report.g_blocks:
        by_blocks = by_blocks + norm_sq(g, UNIT_DISC)
    assert total == by_blocks


def test_dedup_coverage_check_catches_a_missing_prime(monkeypatch):
    def short_p2(pk, p2_limit):
        part = make_partition(pk, p2_limit)
        return PrimePartition(part.pk, part.p1, part.p2_limit, part.p2[:-1])

    monkeypatch.setattr(decomposition, "make_partition", short_p2)
    with pytest.raises(PartitionViolation) as info:
        rough_dedup(3, 100, 100)
    assert (info.value.exponent, info.value.labels) == (97, [])


@pytest.mark.parametrize("pk", [3, 5, 7])
def test_dedup_chain_check_catches_an_undilated_h(monkeypatch, pk):
    # H_l built from Q itself breaks 2(h_i + 1) >= l(q_i + 1) at the first
    # l = pk; at l = 2 that inequality is tight, hence pk >= 3
    def undilated(l, q_exps, degree):
        return q_exps[: bisect_right(q_exps, degree // l)]

    step_two = step_two_norm_bound(pk, 200, 200)
    monkeypatch.setattr(decomposition, "_dilate", undilated)
    with pytest.raises(ArithmeticError, match=f"norm chain violated at l = {pk}$"):
        rough_dedup(pk, 200, 200)
    # step two reads ||F_D||^2 from the rough numbers and builds no H_l
    assert step_two_norm_bound(pk, 200, 200) == step_two


# at (2, 3400) H_2 holds the 266 primes up to 1700, past the short merge
@pytest.mark.parametrize("pk,degree", [(2, 200), (3, 500), (7, 600), (2, 3400)])
def test_dedup_h_norms_match_dilate_then_truncate(pk, degree):
    report = rough_dedup(pk, degree, degree)
    for l, h_norm in report.h_norms:
        assert h_norm == norm_sq(truncate(compose_power(report.q_block, l), degree))


def greedy_dedup(pk, degree):
    """The dedup blocks and ||H_l||^2 built greedily with a seen-set: each
    rough l <= degree // pk in increasing order keeps the monomials of H_l
    that neither Q nor an earlier l took. Rough l past degree // pk have an
    empty H_l."""
    part = make_partition(pk, degree)
    q = part.p2
    seen = set(q)
    blocks, norms = [], []
    for l in rough_numbers(part, degree):
        h = [l * p for p in q if l * p <= degree]
        g = [e for e in h if e not in seen]
        seen.update(g)
        blocks.append((l, tuple(g)))
        norms.append((l, PiRational(sum((Fraction(1, e + 1) for e in h), Fraction(0)))))
    return q, blocks, norms


@pytest.mark.parametrize("pk", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 8, 9, 10, 26, 27, 28, 48, 49, 50, 120, 121,
                                    122, 127, 128, 129, 342, 343, 344, 1000])
def test_dedup_equals_the_greedy_seen_set_construction(pk, degree):
    q, blocks, norms = greedy_dedup(pk, degree)
    report = rough_dedup(pk, degree, degree)
    assert report.q_block.support == q
    assert [(l, g.support) for l, g in report.g_blocks] == blocks
    assert list(report.h_norms) == norms


def test_empty_dedup_blocks_are_the_zero_series():
    # 60 of the 76 rough l <= 2014 // 7 leave G_l empty, as do all l past it
    report = rough_dedup(7, 2014, 2014)
    empty = [g for l, g in report.g_blocks if g.is_zero]
    assert sum(g.is_zero for l, g in report.g_blocks if l <= 2014 // 7) == 60
    assert len(empty) == len(report.g_blocks) - 16 and all(g is empty[0] for g in empty)
    zero = SparseSeries.zero(2014)
    for twin in (empty[0], pickle.loads(pickle.dumps(empty[0]))):
        assert twin == zero and hash(twin) == hash(zero) and repr(twin) == repr(zero)


def test_dedup_coverage_check_catches_a_repeated_exponent(monkeypatch):
    # P+(15) = 5; read as 3, G_15 starts at 15 * 3 = 45, which G_9 took
    original = decomposition._largest_prime_factors

    def lowered(primes, top):
        largest = original(primes, top)
        largest[15] = 3
        return largest

    monkeypatch.setattr(decomposition, "_largest_prime_factors", lowered)
    with pytest.raises(PartitionViolation) as info:
        rough_dedup(3, 100, 100)
    assert (info.value.exponent, info.value.labels) == (45, [])


@pytest.mark.parametrize("length", [255, 256, 257])
def test_unit_norm_sums_either_side_of_the_short_merge(length):
    exponents = [3 * p for p in primes._primes_up_to(10**4)[:length]]
    expected = sum((Fraction(1, e + 1) for e in exponents), Fraction(0))
    assert decomposition._unit_norm_sq(exponents) == PiRational(expected)
    coefficient = decomposition._unit_norm_sq(exponents).coefficient
    assert gcd(coefficient.numerator, coefficient.denominator) == 1


@pytest.mark.parametrize("pk", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("degree", [1, 2, 9, 64, 301])
def test_builder_blocks_equal_the_validated_series(pk, degree):
    # both builders store their blocks without the constructor's checks;
    # each block must be the series from_exponents checks from its support
    dedup = rough_dedup(pk, degree, degree)
    blocks = [b.series for b in geometric_partition(pk, degree).blocks]
    blocks += [dedup.q_block] + [g for _, g in dedup.g_blocks]
    for built in blocks:
        checked = SparseSeries.from_exponents(built.support, built.degree_bound)
        for twin in (built, pickle.loads(pickle.dumps(built))):
            assert twin == checked and hash(twin) == hash(checked)
            assert repr(twin) == repr(checked)
            assert type(twin.support) is tuple and type(twin._coeffs) is tuple


# -- rough-series norm bound -----------------------------------------------------


def test_step_two_pk2_degree4_frozen():
    record = step_two_norm_bound(2, 4, 4)
    assert record.f_norm_sq == pi_frac(1, 3) + pi_frac(1, 4) + pi_frac(1, 5)
    expected_bound = (pi_frac(1, 3) + pi_frac(1, 4)) * (
        2 * (1 + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4))
    )
    assert record.bound == expected_bound
    assert record.holds


def test_step_two_degree_one_both_zero():
    record = step_two_norm_bound(5, 1, 1)
    assert record.f_norm_sq.is_zero
    assert record.bound.is_zero
    assert record.holds


@pytest.mark.parametrize("pk,degree", [(5, 50), (3, 150), (11, 300)])
def test_step_two_holds(pk, degree):
    record = step_two_norm_bound(pk, degree, degree)
    assert record.holds
    # f_norm_sq computed block-wise must equal the direct truncated norm
    part = make_partition(pk, degree)
    direct = PiRational(
        sum_fractions([Fraction(1, n + 1) for n in rough_numbers(part, degree)])
    )
    assert record.f_norm_sq == direct


@pytest.mark.parametrize("pk", [2, 3, 5, 7, 29])
@pytest.mark.parametrize("degree", [1, "pk", 100, 1000])
def test_step_two_matches_the_dedup_report(pk, degree):
    degree = pk if degree == "pk" else degree
    record = step_two_norm_bound(pk, degree, degree)
    report = rough_dedup(pk, degree, degree)
    q_norm = norm_sq(report.q_block)
    f_norm = q_norm + sum((norm_sq(g) for _, g in report.g_blocks), PiRational())
    rough_recip = sum((Fraction(1, l) for l, _ in report.g_blocks), Fraction(0))
    assert record.q_norm_sq == q_norm
    assert record.f_norm_sq == f_norm
    assert record.bound == q_norm * (2 * (1 + rough_recip))
    assert record.holds == (f_norm <= record.bound)


# -- rough tail geometric bound --------------------------------------------------


def test_rough_tail_pk29_holds_at_desk_scale():
    # smallest cutoff whose tail over [pk, 10^4] stays below 1
    part = make_partition(29, 10_000)
    record = rough_tail_geometric_bound(part, 10_000)
    assert record.tail < 1
    assert record.geometric_bound == record.tail / (1 - record.tail)
    assert record.partial_sum <= record.geometric_bound
    assert record.holds


@pytest.mark.parametrize(
    "pk,p2_limit",
    [(3, 2), (53, 1), (37, 100), (11, 100), (13, 1000), (29, 5000), (29, 10_000), (97, 20_000),
     (101, 30_000)],
)
def test_rough_tail_fractions_are_in_lowest_terms(pk, p2_limit):
    part = make_partition(pk, p2_limit)
    record = rough_tail_geometric_bound(part, p2_limit)
    assert record.tail == sum_reciprocals(part.p2)
    assert record.geometric_bound == record.tail / (1 - record.tail)
    assert_lowest_terms(record.tail, record.geometric_bound, record.partial_sum)


def test_rough_tail_pk11_small_window_holds():
    part = make_partition(11, 100)
    record = rough_tail_geometric_bound(part, 100)
    assert record.tail < 1
    assert record.holds


def test_rough_tail_not_small_when_window_grows():
    # the finite tail grows with p2_limit; at 10^4 both cutoffs fail (6)
    for pk in (2, 11):
        with pytest.raises(TailNotSmall):
            rough_tail_geometric_bound(make_partition(pk, 10_000), 10_000)


def test_rough_tail_empty_p2():
    part = make_partition(3, 2)
    record = rough_tail_geometric_bound(part, 2)
    assert record.tail == 0
    assert record.geometric_bound == 0
    assert record.partial_sum == 0
    assert record.holds


def test_rough_tail_requires_complete_prime_range():
    part = make_partition(11, 100)
    with pytest.raises(ValueError):
        rough_tail_geometric_bound(part, 1_000)


def test_rough_tail_refuses_negative_terms():
    part = make_partition(11, 100)
    with pytest.raises(OutOfRange, match="terms must be >= 0, got -7"):
        rough_tail_geometric_bound(part, -7)
    assert rough_tail_geometric_bound(part, 0).partial_sum == 0
