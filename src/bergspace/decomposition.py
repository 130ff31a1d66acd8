"""Orthogonal monomial decompositions of the truncated geometric series and
of the rough-number series, with exact verification.

Two constructions, both at a finite truncation degree D:

* ``geometric_partition`` splits 1 + z + ... + z^D into the blocks
  {1, z, F(z)} and {z^k, F(z^k)} for smooth k, where F collects the rough
  exponents. Every integer is uniquely smooth * rough, so each exponent
  lands in exactly one block and the blocks are mutually orthogonal.

* ``rough_dedup`` decomposes F itself into the prime block Q and the
  deduplicated dilates G_l of Q, one per rough l <= D // pk, and proves the
  norm chain ||G_l||^2 <= ||H_l||^2 <= (2/l) ||Q||^2 with exact integer
  checks that imply it: G_l is a tail of H_l, and 2(h_i + 1) >= l(q_i + 1)
  holds term by term against Q's prefix. G_l is taken in closed form, the
  l*q in H_l with q >= P+(l), the largest prime factor of l; that is what
  the greedy construction (each l in increasing order keeps what no
  earlier block took) leaves, so every composite rough r lies in
  G_{r/P+(r)} alone.

Report construction is deterministic, and verification of a finished
report is pure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, inf

from . import _EXPORTS
from ._record import Record, set_field
from .errors import OutOfRange, PartitionViolation, TailNotSmall
from .primes import (
    PrimePartition,
    _odd_rough_flags,
    _recip_sums,
    make_partition,
    rough_numbers,
    smooth_numbers,
    tail_sum,
)
from .rational import PiRational, _coprime_fraction, sum_fractions, sum_reciprocals
from .series import SparseSeries, add

__all__ = _EXPORTS["decomposition"]


# The most exponents whose 1/(e+1) merge left to right; more take
# sum_reciprocals' tree. The merge is quadratic in the length: on CPython
# 3.11 the two cost the same at 320-380 terms, for denominators from 10 to
# 10^5, and at 256 the merge is 20-40% faster.
_SHORT_MERGE = 256


def _unit_norm_sq(exponents) -> PiRational:
    """||sum z^e||^2 on the unit disc for distinct exponents e >= 0: pi * sum 1/(e+1).

    The denominators e + 1 are positive and, up to ``_SHORT_MERGE`` of them,
    their product is small, so one gcd of the merged pair reduces the sum.
    """
    if len(exponents) > _SHORT_MERGE:
        return PiRational(sum_reciprocals([e + 1 for e in exponents]))
    num, den = 0, 1
    for e in exponents:
        num = num * (e + 1) + den
        den *= e + 1
    g = gcd(num, den)
    return PiRational(_coprime_fraction(num // g, den // g))


class Block(Record):
    __slots__ = ("label", "series")
    label: str
    series: SparseSeries

    @staticmethod
    def _of(label: str, series: SparseSeries) -> Block:
        """Store without Record's argument handling; the builder passes both
        fields, in order, and its coverage check proves the block."""
        block = object.__new__(Block)
        set_field(block, "label", label)
        set_field(block, "series", series)
        return block


class PartitionReport(Record):
    """Monomial partition of 1 + z + ... + z^degree into orthogonal blocks."""

    __slots__ = ("pk", "degree", "blocks")
    pk: int
    degree: int
    blocks: tuple[Block, ...]

    @property
    def coverage(self) -> dict[int, str]:
        """Each exponent 0..degree, mapped to the label of its one block."""
        return {e: b.label for b in self.blocks for e in b.series.support}

    def block_sum(self) -> SparseSeries:
        total = SparseSeries.zero(self.degree)
        for b in self.blocks:
            total = add(total, b.series)
        return total


def _dilate(l: int, exps: tuple[int, ...], degree: int) -> list[int]:
    """The l-fold dilate of the sorted exponents ``exps``, truncated at
    ``degree``: F(z^k) from F's, and H_l from Q's."""
    return [l * e for e in exps[: bisect_right(exps, degree // l)]]


def _covers_once(supports: list[tuple[int, ...]], degree: int) -> bool:
    """Whether the sorted ``supports`` together hold each of 0..degree exactly
    once. Each support is cut at the edges of windows of 2^14 exponents, and
    each window's pieces are sorted and compared with its range in C, so no
    list of all the exponents is built. The first window also takes any
    exponent below 0 and the last any above degree, which then fail."""
    cuts = [0] * len(supports)
    for lo in range(0, degree + 1, 1 << 14):
        hi = min(lo + (1 << 14), degree + 1)
        if hi <= degree:
            ends = [bisect_left(s, hi) for s in supports]
        else:
            ends = [len(s) for s in supports]
        window = chain.from_iterable(s[i:j] for s, i, j in zip(supports, cuts, ends))
        if sorted(window) != list(range(lo, hi)):
            return False
        cuts = ends
    return True


def geometric_partition(pk: int, degree: int) -> PartitionReport:
    """Partition the exponents 0..degree into 1, z, F(z), z^k and F(z^k) blocks.

    The one exact check: the sorted exponents of all blocks together are
    exactly 0..degree, so every exponent lies in exactly one block. Every
    block is a 0/1 series, so this alone proves that the blocks sum to
    1 + z + ... + z^degree. A failure raises PartitionViolation; that would
    be a bug, and it is surfaced rather than repaired. Each block's exponents
    are sorted by construction, and the check bounds them to 0..degree, so
    the blocks are stored without ``from_exponents``' own checks.
    """
    if degree < 1:
        raise OutOfRange(f"degree must be >= 1, got {degree}")
    part = make_partition(pk, degree)
    rough = tuple(rough_numbers(part, degree))

    ones, block = SparseSeries._ones, Block._of
    # the monomials are exact, F and its dilates truncated at the degree
    blocks = [block("1", ones((0,), None)), block("z", ones((1,), None)),
              block("F(z)", ones(rough, degree))]
    for k in smooth_numbers(part, degree):
        blocks += [block(f"z^{k}", ones((k,), None)),
                   block(f"F(z^{k})", ones(_dilate(k, rough, degree), degree))]
    if not _covers_once([b.series.support for b in blocks], degree):
        # name the fault: a repeat or overlap in block order, else the
        # smallest missing exponent, else one outside 0..degree
        seen: dict[int, str] = {}
        for b in blocks:
            for e in b.series.support:
                if e in seen:
                    raise PartitionViolation(e, [seen[e], b.label])
                seen[e] = b.label
        for e in range(degree + 1):
            if e not in seen:
                raise PartitionViolation(e, [])
        e = next(e for e in seen if not 0 <= e <= degree)
        raise PartitionViolation(e, [seen[e]])
    return PartitionReport(pk, degree, tuple(blocks))


class StepOneBound(Record):
    """Exact two-sided record for the truncated geometric-series estimate.

    lhs = ||1 + z + ... + z^D||^2.
    rhs = 3pi/2 + ||F_D||^2 + (pi + 2 ||F_D||^2) * sum_{smooth k <= D} 1/k.
    """

    __slots__ = ("pk", "degree", "lhs", "rhs", "f_norm_sq", "smooth_recip_sum", "holds")
    pk: int
    degree: int
    lhs: PiRational
    rhs: PiRational
    f_norm_sq: PiRational
    smooth_recip_sum: Fraction
    holds: bool


def step_one_norm_bound(pk: int, degree: int) -> StepOneBound:
    """The step-one record at cutoff pk and truncation degree D.

    The monomials z^e have norm pi/(e+1), so lhs = pi * H_{D+1} and
    ||F_D||^2 = pi * sum 1/(r+1) over the rough r <= D: two sums of 1/k over
    subsets of 1..D+1, which ``primes._recip_sums`` takes in one call. The
    partition is sieved to D+1, so that call finds its primes in one sieve.
    """
    if degree < 1:
        raise OutOfRange(f"degree must be >= 1, got {degree}")
    part = make_partition(pk, degree + 1)
    # flags r + 1 for each rough r <= D: an odd r = 2i + 1 sets flag 2i + 2
    rough_succ = bytearray(degree + 2)
    if part.p1:
        rough_succ[2::2] = _odd_rough_flags(part, degree)
    else:
        rough_succ[3:] = b"\x01" * (degree - 1)
    lhs, f_norm = map(PiRational, _recip_sums(degree + 1, [None, bytes(rough_succ)]))
    smooth_sum = sum_reciprocals(smooth_numbers(part, degree))
    rhs_coeff = (
        Fraction(3, 2)
        + f_norm.coefficient
        + (1 + 2 * f_norm.coefficient) * smooth_sum
    )
    rhs = PiRational(rhs_coeff)
    return StepOneBound(pk, degree, lhs, rhs, f_norm, smooth_sum, lhs <= rhs)


class DedupReport(Record):
    """F_D = Q + sum G_l with pairwise disjoint supports.

    q_block is the prime series over [pk, D]; g_blocks holds (l, G_l) in
    increasing l; h_norms records ||H_l||^2 for the norm-chain comparison.
    """

    __slots__ = ("pk", "degree", "p2_limit", "q_block", "g_blocks", "h_norms")
    pk: int
    degree: int
    p2_limit: int
    q_block: SparseSeries
    g_blocks: tuple[tuple[int, SparseSeries], ...]
    h_norms: tuple[tuple[int, PiRational], ...]

    def block_sum(self) -> SparseSeries:
        total = self.q_block
        for _, g in self.g_blocks:
            total = add(total, g)
        return total


def _chain_holds(l: int, g: list[int], h: list[int], q_exps: tuple[int, ...]) -> bool:
    """||G_l||^2 <= ||H_l||^2 <= (2/l) ||Q||^2, from exact integer checks.

    Every norm term 1/(e+1) is positive, so G_l being a tail of H_l gives
    the first inequality. 2(h_i + 1) >= l(q_i + 1) pairs the i-th exponent
    of H_l with that of Q, so 1/(h_i + 1) <= (2/l) / (q_i + 1); summed over
    a prefix of Q, that gives the second.
    """
    return (
        g == h[len(h) - len(g) :]
        and len(h) <= len(q_exps)
        and all(2 * (e + 1) >= l * (p + 1) for e, p in zip(h, q_exps))
    )


def _rough_front(pk: int, degree: int, p2_limit: int) -> tuple[PrimePartition, list[int]]:
    """The partition at ``degree`` and the rough numbers up to it, after the
    refusals both rough-series builders share. Q needs only the primes up to
    ``degree``, so any ``p2_limit`` >= ``degree`` gives the same lists."""
    if degree < 1:
        raise OutOfRange(f"degree must be >= 1, got {degree}")
    if p2_limit < degree:
        raise OutOfRange(f"p2_limit {p2_limit} < degree {degree}: Q would be incomplete")
    part = make_partition(pk, degree)
    return part, rough_numbers(part, degree)


def _largest_prime_factors(primes: tuple[int, ...], top: int) -> list[int]:
    """Entry n is P+(n), the largest prime factor of n, for each n <= top
    whose prime factors all lie in the sorted ``primes``; other entries mean
    nothing. The primes mark their multiples in rising order, so the
    largest factor of n writes its entry last."""
    largest = [0] * (top + 1)
    for q in primes[: bisect_right(primes, top)]:
        largest[q::q] = [q] * (top // q)
    return largest


def rough_dedup(pk: int, degree: int, p2_limit: int) -> DedupReport:
    """Deduplicated decomposition of the rough-number series.

    For each rough l <= degree // pk, H_l is Q's l-fold dilate truncated at
    ``degree``, and G_l keeps the monomials l*q of H_l with q >= P+(l), the
    largest prime factor of l. That is the greedy construction in closed
    form: taking l in increasing order and keeping what neither Q nor an
    earlier G_l' claimed, l*q falls to an earlier l' = l*q/q' exactly when
    l has a prime factor q' > q. So each composite rough number r lies in
    G_{r/P+(r)} alone. ArithmeticError is raised unless ``_chain_holds``
    proves ||G_l||^2 <= ||H_l||^2 <= (2/l) ||Q||^2, and PartitionViolation
    unless Q and the G_l together hold every rough number up to ``degree``
    exactly once. Each empty G_l is the one shared empty series, and each
    rough l past degree // pk also gets a zero ||H_l||^2, so its chain is
    0 <= 0 <= (2/l) ||Q||^2.
    """
    part, rough = _rough_front(pk, degree, p2_limit)
    q_exps = part.p2
    top = degree // pk
    largest = _largest_prime_factors(q_exps, top)
    empty, zero = SparseSeries.zero(degree), PiRational()
    g_blocks: list[tuple[int, SparseSeries]] = []
    h_norms: list[tuple[int, PiRational]] = []
    for l in rough[: bisect_right(rough, top)]:
        h = _dilate(l, q_exps, degree)
        g = h[bisect_left(q_exps, largest[l]) :]
        if not _chain_holds(l, g, h, q_exps):
            raise ArithmeticError(f"norm chain violated at l = {l}")
        # a tail of H_l, a dilate of the sorted Q cut at degree
        g_blocks.append((l, SparseSeries._ones(g, degree) if g else empty))
        h_norms.append((l, _unit_norm_sq(h)))
    covered = sorted(chain(q_exps, *(g.support for _, g in g_blocks)))
    if covered != rough:
        # where the sorted lists first part, the smaller names the repeat,
        # the gap or the stray exponent
        parted = zip_longest(covered, rough, fillvalue=inf)
        raise PartitionViolation(next(min(c, r) for c, r in parted if c != r), [])
    rest = rough[len(g_blocks) :]
    g_blocks += [(l, empty) for l in rest]
    h_norms += [(l, zero) for l in rest]
    q = SparseSeries.from_exponents(q_exps, degree)
    return DedupReport(pk, degree, p2_limit, q, tuple(g_blocks), tuple(h_norms))


class StepTwoBound(Record):
    """||F_D||^2 against 2 ||Q||^2 (1 + sum 1/l).

    Monomials are orthogonal, so ||F_D||^2 = ||Q||^2 + ||F_D - Q||^2, and
    F_D - Q holds the composite rough numbers up to D, the union of the G_l.
    """

    __slots__ = ("pk", "degree", "p2_limit", "f_norm_sq", "q_norm_sq", "bound", "holds")
    pk: int
    degree: int
    p2_limit: int
    f_norm_sq: PiRational
    q_norm_sq: PiRational
    bound: PiRational
    holds: bool


def step_two_norm_bound(pk: int, degree: int, p2_limit: int) -> StepTwoBound:
    """The step-two record at cutoff pk and truncation degree D.

    The G_l only split F_D - Q, the composite rough numbers up to D, so
    ||F_D||^2 adds pi * sum 1/(r+1) over those r to ||Q||^2 and no G_l is
    built; ``rough_dedup`` proves the chain behind the bound and refuses the
    same inputs.
    """
    part, rough = _rough_front(pk, degree, p2_limit)
    q_norm = _unit_norm_sq(part.p2)
    primes = set(part.p2)
    composite = sum_reciprocals([r + 1 for r in rough if r not in primes])
    f_norm = PiRational(sum_fractions([q_norm.coefficient, composite]))
    bound = q_norm * (2 * (1 + sum_reciprocals(rough)))
    return StepTwoBound(pk, degree, p2_limit, f_norm, q_norm, bound, f_norm <= bound)


class RoughTailBound(Record):
    """Geometric majorant for the reciprocal sum over rough numbers.

    With s = sum 1/p over the tail primes and s < 1, every rough reciprocal
    sum is bounded by s + s^2 + ... = s / (1 - s)."""

    __slots__ = ("tail", "geometric_bound", "partial_sum", "terms", "holds")
    tail: Fraction
    geometric_bound: Fraction
    partial_sum: Fraction
    terms: int
    holds: bool


def rough_tail_geometric_bound(part: PrimePartition, terms: int) -> RoughTailBound:
    """Compare sum of 1/l over rough l <= terms with the geometric majorant.

    Requires 0 <= terms <= p2_limit so that every prime factor that can
    occur in a rough l <= terms contributes to the tail sum; raises
    TailNotSmall when the tail sum is >= 1 and the majorant does not exist.
    """
    if terms < 0:
        raise OutOfRange(f"terms must be >= 0, got {terms}")
    if terms > part.p2_limit:
        raise OutOfRange(
            f"terms {terms} exceeds p2_limit {part.p2_limit}: tail sum incomplete"
        )
    s = tail_sum(part)
    if s >= 1:
        raise TailNotSmall(s)
    # s / (1 - s) = a / (b - a) for s = a / b, and gcd(a, b - a) = gcd(a, b) = 1
    geometric = _coprime_fraction(s.numerator, s.denominator - s.numerator)
    partial = sum_reciprocals(rough_numbers(part, terms))
    return RoughTailBound(s, geometric, partial, terms, partial <= geometric)
