"""Closed-form counts, genus formulas, and the quasi-modular identities
behind them.

The three curve families with closed per-type counts are named here by
cover genus and branching:

    g2_31: g = 2, sigma = (3, 1^{d-3})
    g2_22: g = 2, sigma = (2, 2, 1^{d-4})
    g3_5:  g = 3, sigma = (5, 1^{d-5})

All per-type formulas assume d prime; the enumeration modules provide
the brute-force cross-check at small d.  Everything is exact: rational
arithmetic (Fraction), and integers for the Eisenstein q-series.

A note on the genus formulas: the two printed closed forms do not agree
with the orbit-based genus (which is the ground truth here, verified by
Riemann-Hurwitz).  `genus_closed` therefore reports both the printed
value and a repaired variant that matches orbit computations, and leaves
the comparison to the caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, prod
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .covers import ConsistencyError, RamificationProfile, check_capacity
from .geometry import slope_from_counts
from .perms import Partition, as_partition, is_prime, multiplicities, partitions

Sizes = Sequence[tuple[int, int]]  # (size, multiplicity) pairs, sizes descending

_FAMILY_SIGMA = {"g2_31": "3", "g2_22": "2,2", "g3_5": "5"}
FAMILIES = tuple(_FAMILY_SIGMA)
# the g = 2 families: slope 10, and a closed form of the genus
GENUS2_FAMILIES = ("g2_31", "g2_22")

# largest degree of the closed forms that walk the admissible types; the
# g3_5 sum in assembled_N_M, the costliest, grows about as d^3 and takes
# about 0.14 s at d = 199 (0.02 s at 101), where a genus closed form takes
# at most 5 ms, on a 2-core x86-64 VM
MAX_CLOSED_FORM_DEGREE = 199
# largest degree of the N/M polynomials of closed_N_M, which cost O(1); the
# bound is set by the length-d profile that `counts --method formula`
# builds, prints and sums 1/l over: at d = 10,007 that is 30 KB of stdout
# and 0.04 s on a 2-core x86-64 VM
MAX_CLOSED_POLYNOMIAL_DEGREE = 10_000
# largest genus of the de Jonquieres positivity check: about 0.4 s at 16,
# and each genus more costs about 1.6 times the last (3.2 s at 20)
MAX_DEJONQUIERES_GENUS = 16


def family_sigma(family: str) -> str:
    """Short sigma spec ("3", "2,2", "5") for a named family."""
    if family not in _FAMILY_SIGMA:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _FAMILY_SIGMA[family]


def family_min_degree(family: str) -> int:
    """Smallest degree the family's sigma fits: the sum of its parts."""
    return sum(as_partition(family_sigma(family)))


def family_of(profile: RamificationProfile) -> Optional[str]:
    """The named family whose sigma is the profile's, or None."""
    return next((f for f, s in _FAMILY_SIGMA.items() if s == profile.short_spec), None)


def _check_family_degree(degree: int, family: str, polynomial: bool = False) -> None:
    """Check the degree of a closed form of the family: at least the
    family's least degree, within the bound (the polynomial one when
    ``polynomial``), and prime."""
    low = family_min_degree(family)
    if degree < low:
        raise ValueError(f"family {family} needs d >= {low}")
    if polynomial:
        check_capacity(degree, MAX_CLOSED_POLYNOMIAL_DEGREE, "closed-polynomial degree")
    else:
        check_capacity(degree, MAX_CLOSED_FORM_DEGREE, "closed-form degree")
    if not is_prime(degree):
        raise ValueError(f"closed formulas need prime d, got {degree}")


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve.

    >>> primes_up_to(20)
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(bound + 1) if flags[i]]


# ---------------------------------------------------------------------------
# truncated q-series with integer coefficients


def series_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two truncated q-series, each given
    by its coefficients c_0..c_order, to the shorter order.

    >>> series_product([1, 2, 3], [1, -1, 0])
    [1, 1, 1]
    """
    n = min(len(a), len(b))
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)]


@lru_cache(maxsize=None)
def divisor_sigma(power: int, n: int) -> int:
    """Sum of the given power of the divisors of n.

    >>> divisor_sigma(1, 6)
    12
    >>> divisor_sigma(3, 6)
    252
    """
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    if power < 0:
        raise ValueError("divisor sums need power >= 0")
    total = 0
    f = 1
    while f * f <= n:
        if n % f == 0:
            total += f**power
            g = n // f
            if g != f:
                total += g**power
        f += 1
    return total


_EISENSTEIN = {"P": (1, -24), "Q": (3, 240), "R": (5, -504)}


def eisenstein(name: str, order: int) -> tuple[int, ...]:
    """Coefficients c_0..c_order of the classical weight-2/4/6 series
    P = 1 - 24 sum sigma_1(n) q^n, Q = 1 + 240 sum sigma_3(n) q^n,
    R = 1 - 504 sum sigma_5(n) q^n.

    >>> eisenstein("P", 3)
    (1, -24, -72, -96)
    """
    if name not in _EISENSTEIN:
        raise ValueError(f"unknown series {name!r}; expected P, Q or R")
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    power, factor = _EISENSTEIN[name]
    return (1, *(factor * divisor_sigma(power, n) for n in range(1, order + 1)))


def ramanujan_check(order: int) -> bool:
    """The three differential equations tying P, Q, R together,
    12 qP' = P^2 - Q, 3 qQ' = PQ - R and 2 qR' = PR - Q^2, checked
    coefficientwise in integers to the given order."""
    P, Q, R = (eisenstein(name, order) for name in "PQR")
    # (factor, f, g, h): factor * q f' = g - h, q d/dq multiplying c_n by n
    sides = (
        (12, P, series_product(P, P), Q),
        (3, Q, series_product(P, Q), R),
        (2, R, series_product(P, R), series_product(Q, Q)),
    )
    return all(
        factor * n * c == x - y
        for factor, f, g, h in sides
        for n, (c, x, y) in enumerate(zip(f, g, h))
    )


# ---------------------------------------------------------------------------
# divisor-sum identities


def convolution_identity(degree: int) -> tuple[int, Fraction]:
    """Both sides of
    sum_{k=1}^{d-1} sigma_1(k) sigma_1(d-k)
        = (1/12 - d/2) sigma_1(d) + (5/12) sigma_3(d),
    computed independently; the caller compares."""
    if degree < 2:
        raise ValueError("identity needs d >= 2")
    s = [divisor_sigma(1, k) for k in range(1, degree)]
    lhs = sum(map(mul, s, reversed(s)))
    rhs = (Fraction(1, 12) - Fraction(degree, 2)) * divisor_sigma(
        1, degree
    ) + Fraction(5, 12) * divisor_sigma(3, degree)
    return lhs, rhs


def prime_convolution_value(degree: int) -> Fraction:
    """For prime d the convolution sum collapses to
    (1/12)(d-1)(d+1)(5d-6)."""
    if not is_prime(degree):
        raise ValueError("closed value holds for prime d only")
    return Fraction((degree - 1) * (degree + 1) * (5 * degree - 6), 12)


def _divisor_lists(degree: int) -> list[list[int]]:
    """The divisors of each m < degree, ascending, by one sieve."""
    divisors: list[list[int]] = [[] for _ in range(degree)]
    for l in range(1, degree):
        for m in range(l, degree, l):
            divisors[m].append(l)
    return divisors


def _two_size_solutions(degree: int) -> Iterator[tuple[int, int, int, int]]:
    """All (l1, a1, l2, a2) with a1 l1 + a2 l2 = degree, l1 > l2 >= 1,
    multiplicities >= 1: the partitions with exactly two part sizes."""
    divisors = _divisor_lists(degree)
    for l1 in range(2, degree):
        for a1 in range(1, (degree - 1) // l1 + 1):
            rest = degree - a1 * l1
            for l2 in divisors[rest]:
                if l2 >= l1:
                    break
                yield l1, a1, l2, rest // l2


def sum_identity_l1l2(degree: int) -> tuple[int, Fraction]:
    """Both sides of
    sum_{a1 l1 + a2 l2 = d, l1 > l2} l1 l2
        = (1/2)(sum_k sigma_1(k) sigma_1(d-k) - diag(d)),
    the left side by direct enumeration of two-size partitions.

    The convolution runs over ordered pairs (l1, a1, l2, a2) with
    l1 a1 + l2 a2 = d and no order constraint, so halving it needs the
    diagonal l1 = l2 removed first: diag(d) = sum_{l | d, l < d}
    l^2 (d/l - 1) = d sigma_1(d) - sigma_2(d), which collapses to the
    usual d - 1 exactly when d is prime.

    The left side is summed over (l1, a1): its l2 are the divisors of
    d - a1 l1 below l1."""
    if degree < 2:
        raise ValueError("identity needs d >= 2")
    divisors = _divisor_lists(degree)
    lhs = 0
    for l1 in range(2, degree):
        inner = 0
        for a1 in range(1, (degree - 1) // l1 + 1):
            for l2 in divisors[degree - a1 * l1]:
                if l2 >= l1:
                    break
                inner += l2
        lhs += l1 * inner
    conv, _ = convolution_identity(degree)
    diag = sum(
        l * l * (degree // l - 1) for l in range(1, degree) if degree % l == 0
    )
    rhs = Fraction(conv - diag, 2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# per-type closed counts (prime d)


class UnclassifiedTypeError(ValueError):
    """The family's case analysis does not cover this beta type."""


def _count_two_sizes(degree: int, family: str, l1: int, a1: int, l2: int, a2: int) -> int:
    """The count of the type (l1^a1 l2^a2), l1 > l2."""
    if family == "g2_31":
        return l1 * l2
    if l1 == 2:  # sizes {2, 1}
        if family == "g2_22":
            return a2 - 1
        return 8 * (a1 - 1)
    if family == "g2_22":
        return l1 * l2 * (l1 - 2)
    poly = 3 * l1 * l1 + 3 * l2 * l2 - 19 * l1 - 11 * l2 + 4 * degree + 22
    twice = l1 * l2 * poly
    if twice % 2:
        raise ConsistencyError(f"non-integral count for sizes {[(l1, a1), (l2, a2)]}")
    return twice // 2


def _count_three_sizes(family: str, l1: int, l2: int, l3: int) -> int:
    """The count of each type of sizes l1 > l2 > l3, whatever their multiplicities."""
    if family == "g2_31":
        return 0
    if family == "g2_22":
        return l1 * l2 * l3 if l1 == l2 + l3 else 0
    return (7 if l1 == l2 + l3 else 11) * l1 * l2 * l3


def _count_sizes(degree: int, family: str, sizes: Sizes) -> int:
    """The family's case analysis, on a beta type given as Sizes."""
    if len(sizes) == 1:
        if sizes[0][0] == degree:  # the long cycle
            if family == "g2_31":
                return comb(degree, 3)
            if family == "g2_22":
                return comb(degree, 4)
            return 8 * comb(degree, 5)
        return 0  # identity class (prime d has no other single-size type)
    if len(sizes) == 2:
        return _count_two_sizes(degree, family, *sizes[0], *sizes[1])
    if len(sizes) == 3:
        return _count_three_sizes(family, *(l for l, _ in sizes))
    raise UnclassifiedTypeError(
        f"{list(sizes)}: more than three distinct sizes is outside the case analysis"
    )


def per_type_N(degree: int, family: str, beta_type: Sequence[int]) -> int:
    """The closed count of classes with the given beta cycle type, for
    prime d.  Types the case analysis proves empty return 0; types it
    never mentions (four or more distinct sizes) raise
    UnclassifiedTypeError."""
    _check_family_degree(degree, family)
    parts = as_partition(beta_type, degree)
    return _count_sizes(degree, family, tuple(multiplicities(parts).items()))


def _admissible_sizes(degree: int, family: str) -> Iterator[Sizes]:
    """The types of admissible_types, in the same order, as Sizes."""
    yield ((degree, 1),)
    for l1, a1, l2, a2 in _two_size_solutions(degree):
        yield ((l1, a1), (l2, a2))
    if family != "g2_31":  # three-size types are provably empty there
        yield from _three_sizes(degree, family)


def _three_sizes(degree: int, family: str) -> Iterator[Sizes]:
    """The three-size part of _admissible_sizes for g2_22 and g3_5."""
    for l1, a1, l2, l3, r1, a2s in _three_size_slices(degree, family):
        p1 = (l1, a1)
        for a2 in a2s:
            yield (p1, (l2, a2), (l3, (r1 - a2 * l2) // l3))


def _three_size_slices(degree: int, family: str) -> Iterator[tuple]:
    """The types of _three_sizes, in order, as one (l1, a1, l2, l3, r1, a2s)
    per progression: r1 = d - a1 l1, and a2s the nonempty range of the a2
    whose a3 = (r1 - a2 l2)/l3 is a whole number >= 1."""
    for l2 in range(2, degree):
        for l3 in range(1, l2):
            room = degree - l2 - l3  # a1 l1 <= room leaves one l2 and one l3
            l1_min = l2 + l3 if family == "g2_22" else l2 + 1
            if l1_min > room:
                break
            l1_max = l1_min if family == "g2_22" else room
            g = gcd(l2, l3)
            if family == "g2_22" and degree % g:
                continue  # g divides l1 = l2 + l3, so every r1 = d (mod g)
            # a2 l2 = r1 (mod l3) holds on one residue class of a2 mod
            # step, so the a2 are one progression
            step = l3 // g
            inv = pow(l2 // g, -1, step)
            for l1 in range(l1_min, l1_max + 1):
                for a1 in range(1, room // l1 + 1):
                    r1 = degree - a1 * l1
                    if r1 % g:
                        continue
                    first = (r1 // g * inv - 1) % step + 1
                    last = (r1 - l3) // l2
                    if first <= last:
                        yield l1, a1, l2, l3, r1, range(first, last + 1, step)


def _progression_sums(a2s: range, l2: int, l3: int, r1: int) -> tuple[int, int, int]:
    """(m, sum a2, sum a3) over the m a2 of a2s, a3 = (r1 - a2 l2)/l3."""
    m = len(a2s)
    sum_a2 = m * a2s.start + a2s.step * m * (m - 1) // 2
    return m, sum_a2, (m * r1 - l2 * sum_a2) // l3


def admissible_types(degree: int, family: str) -> Iterator[Partition]:
    """Beta types with (potentially) nonzero closed count, generated
    directly from the family's constraints -- never by listing all
    partitions of d, which is hopeless at d ~ 199."""
    _check_family_degree(degree, family)
    for sizes in _admissible_sizes(degree, family):
        yield tuple(l for l, a in sizes for _ in range(a))


def assembled_N_M(
    degree: int, family: str, aggregated: bool = False
) -> tuple[int, Fraction]:
    """N and the weighted count M, summed from the closed per-type counts
    in integer loops with no tuple per type: the independent check of
    closed_N_M.  A three-size count depends on the sizes alone, so it is
    taken once per progression of a2.  M is kept as count * multiplicity
    per cycle length l and divided by l once at the end.  aggregated=True
    returns closed_N_M; the benchmark's g3_aggregated job passes it.

    >>> for f in FAMILIES:
    ...     N, M = assembled_N_M(199, f)
    ...     print(f, N, M, (N, M) == closed_N_M(199, f))
    g2_31 2925450 3250500 True
    g2_22 254839200 318549000 True
    g3_5 78960333375 98962025085 True
    """
    _check_family_degree(degree, family)
    if aggregated:
        return closed_N_M(degree, family)
    N = _count_sizes(degree, family, ((degree, 1),))  # the long cycle
    per_len = [0] * degree + [N]  # sum of count * multiplicity, by length
    divisors = _divisor_lists(degree)
    for l1 in range(2, degree):
        for a1 in range(1, (degree - 1) // l1 + 1):
            rest = degree - a1 * l1
            for l2 in divisors[rest]:
                if l2 >= l1:
                    break
                a2 = rest // l2
                n = _count_two_sizes(degree, family, l1, a1, l2, a2)
                N += n
                per_len[l1] += n * a1
                per_len[l2] += n * a2
    if family != "g2_31":  # three-size types are provably empty there
        for l1, a1, l2, l3, r1, a2s in _three_size_slices(degree, family):
            n = _count_three_sizes(family, l1, l2, l3)
            if n:
                m, sum_a2, sum_a3 = _progression_sums(a2s, l2, l3, r1)
                N += n * m
                per_len[l1] += n * a1 * m
                per_len[l2] += n * sum_a2
                per_len[l3] += n * sum_a3
    M = sum((Fraction(c, l) for l, c in enumerate(per_len) if c), Fraction(0))
    return N, M


def closed_N_M(degree: int, family: str) -> tuple[int, Fraction]:
    """N and M as one polynomial in prime d per family.

    All three share the factor (d-2)(d-1)(d+1).  The g3_5 pair is the
    prime-degree value of its quasimodular count; the tests refit its
    coefficients from assembled_N_M rather than take them on trust."""
    _check_family_degree(degree, family, polynomial=True)
    d = degree
    base = (d - 2) * (d - 1) * (d + 1)
    if family == "g2_31":
        N, M = Fraction(3 * base, 8), Fraction(5 * base, 12)
    elif family == "g2_22":
        N, M = Fraction((d - 3) * base, 6), Fraction(5 * (d - 3) * base, 24)
    else:
        N = Fraction(5 * base * (61 * d * d - 424 * d + 723), 1152)
        M = Fraction(base * (637 * d * d - 4408 * d + 7491), 1920)
    if N.denominator != 1:
        raise ConsistencyError(f"non-integral N for d={d}")
    return int(N), M


# ---------------------------------------------------------------------------
# genus closed forms (prime d)


def gcd_sum_two_sizes(degree: int, weight_l1_minus_2: bool = False) -> int:
    """sum over {a1 l1 + a2 l2 = d, l1 > l2} of gcd(l1,a1) gcd(l2,a2),
    optionally weighted by (l1 - 2), summed over (l1, a1): the l2 are the
    divisors of d - a1 l1 below l1.

    >>> gcd_sum_two_sizes(199), gcd_sum_two_sizes(199, weight_l1_minus_2=True)
    (5013, 208028)
    """
    divisors = _divisor_lists(degree)
    total = 0
    for l1 in range(2, degree):
        weight = l1 - 2 if weight_l1_minus_2 else 1
        for a1 in range(1, (degree - 1) // l1 + 1):
            rest = degree - a1 * l1
            inner = 0
            for l2 in divisors[rest]:
                if l2 >= l1:
                    break
                inner += gcd(l2, rest // l2)
            total += weight * gcd(l1, a1) * inner
    return total


def gcd_sum_three_sizes(degree: int) -> int:
    """sum over {a1 l1 + a2 l2 + a3 l3 = d, l1 = l2 + l3 > l2 > l3} of
    gcd(l1,a1) gcd(l2,a2) gcd(l3,a3): the three-size types of g2_22,
    summed one progression of a2 at a time.

    >>> gcd_sum_three_sizes(199)
    41603
    """
    total = 0
    for l1, a1, l2, l3, r1, a2s in _three_size_slices(degree, "g2_22"):
        inner = 0
        for a2 in a2s:
            inner += gcd(l2, a2) * gcd(l3, (r1 - a2 * l2) // l3)
        total += gcd(l1, a1) * inner
    return total


def gcd_sum_two_one(degree: int, printed: bool = False) -> Fraction:
    """The (2^{a2} 1^{a1}) orbit term of the second genus formula.

    As printed it reads sum (a1 - 1)/gcd(a2, 2).  That contradicts the
    formula's own derivation, which shows the twist orbit of such a
    class is a fixed point exactly when a2 is even: so the orbit count
    is (a1 - 1) gcd(a2, 2)/2 (orbits of size 2/gcd(a2, 2)), which is
    what the default computes.  Pass printed=True for the literal
    published expression."""
    # every term is a whole or half integer: sum twice each as an int,
    # over the a2 with a1 = degree - 2 a2 >= 1
    a2s = range(1, (degree - 1) // 2 + 1)
    if printed:
        twice = sum(2 * (degree - 2 * a2 - 1) // gcd(a2, 2) for a2 in a2s)
    else:
        twice = sum((degree - 2 * a2 - 1) * gcd(a2, 2) for a2 in a2s)
    return Fraction(twice, 2)


@dataclass(frozen=True)
class GenusFormula:
    family: str
    degree: int
    printed: Fraction  # the closed form exactly as printed
    repaired: Fraction  # the variant consistent with orbit computations

    def flag_against(self, orbit_genus: int) -> dict:
        return {
            "family": self.family,
            "d": self.degree,
            "orbit": orbit_genus,
            "printed": str(self.printed),
            "printed_matches": self.printed == orbit_genus,
            "repaired": str(self.repaired),
            "repaired_matches": self.repaired == orbit_genus,
        }


def genus_closed(degree: int, family: str) -> GenusFormula:
    """Evaluate the printed genus closed form for the two g = 2 families,
    plus a repaired variant.  Both are derived for prime d >= 5.  A prime
    below 5 that the family admits is evaluated as stated (g2_31 at d = 3
    gives printed 12, repaired 8); a composite d raises ValueError, as does
    a d below the family's least degree, and a d past
    MAX_CLOSED_FORM_DEGREE raises CapacityError.

    For g2_31 the printed polynomial factor is (15d + 23); the repaired
    variant uses (15d + 7), which is what the underlying Riemann-Hurwitz
    count simplifies to and what orbit computations reproduce (88 at
    d = 5, 343 at d = 7).  For g2_22 two repairs are needed: the printed
    bracket -6(S1 - S2 - S3) subtracts all three sums, and the printed
    S3 = sum (a1-1)/gcd(a2,2) becomes sum (a1-1) gcd(a2,2)/2 (see
    gcd_sum_two_one); orbit computations confirm 85 at d = 5 and 633 at
    d = 7.  Neither repair is asserted anywhere -- callers get both
    values and an explicit flag.

    >>> g = genus_closed(199, "g2_31")
    >>> print(g.printed, g.repaired)
    14636179 14558167
    >>> g = genus_closed(199, "g2_22")
    >>> print(g.printed, g.repaired)
    1273327063 1270743409
    >>> g = genus_closed(3, "g2_31")
    >>> print(g.printed, g.repaired)
    12 8
    """
    _check_family_degree(degree, family)
    d = degree
    if family == "g2_31":
        S = gcd_sum_two_sizes(d)
        printed = 1 + Fraction((d - 1) * (d - 2) * (15 * d + 23), 8) - 6 * S
        repaired = 1 + Fraction((d - 1) * (d - 2) * (15 * d + 7), 8) - 6 * S
        return GenusFormula(family, d, printed, repaired)
    if family == "g2_22":
        S1 = gcd_sum_three_sizes(d)
        S2 = gcd_sum_two_sizes(d, weight_l1_minus_2=True)
        S3_printed = gcd_sum_two_one(d, printed=True)
        S3 = gcd_sum_two_one(d)
        base = 1 + Fraction(
            (d - 1) * (d - 3) * (10 * d * d - 13 * d - 14), 12
        )
        printed = base - 6 * (S1 - S2 - S3_printed)
        repaired = base - 6 * (S1 + S2 + S3)
        return GenusFormula(family, d, printed, repaired)
    raise ValueError("genus closed forms exist for the g = 2 families only")


# ---------------------------------------------------------------------------
# De Jonquieres numbers


def dejonquieres(genus: int, mu: Sequence[int]) -> int:
    """Virtual count of divisors of type mu in a canonical system:
    the coefficient of prod t_i^{n_i} in R^g / P, where the t_i run over
    the distinct values a_i of mu (with multiplicities n_i),
    R = 1 + sum a_i^2 t_i and P = 1 + sum a_i t_i.

    mu must be a partition of 2g - 2 with exactly g - 1 parts.

    The coefficient is read off directly: t^m from R^g times t^j from
    1/P = sum_k (-(P - 1))^k, over 0 <= m_i <= n_i and j = n - m, is
    (-1)^|j| g!/((g - |m|)! prod m_i!) |j|!/prod j_i! prod a_i^(2 m_i + j_i).

    >>> dejonquieres(2, [2])
    6
    >>> dejonquieres(3, [2, 2])
    28
    """
    parts = as_partition(mu, 2 * genus - 2)
    if len(parts) != genus - 1:
        raise ValueError(
            f"{mu} is not a partition of {2 * genus - 2} into {genus - 1} parts"
        )
    values = multiplicities(parts).items()  # [(a_i, n_i)] distinct values
    total = 0
    for m in product(*(range(n + 1) for _, n in values)):
        j = [n - k for (_, n), k in zip(values, m)]
        numer = factorial(genus) * factorial(sum(j))
        denom = factorial(genus - sum(m)) * prod(map(factorial, (*m, *j)))
        coeff, rest = divmod(numer, denom)
        if rest:
            raise ConsistencyError(f"non-integral multinomial {numer}/{denom}")
        powers = prod(a ** (2 * k + l) for (a, _), k, l in zip(values, m, j))
        total += (-1) ** sum(j) * coeff * powers
    return total


def dejonquieres_positive(max_genus: int = 8) -> bool:
    """The positivity computation: every canonical divisor type with
    g - 1 parts has a strictly positive virtual count, g up to max_genus
    (at most MAX_DEJONQUIERES_GENUS).  Those types are the partitions of
    g - 1, each part raised by 1 and padded with 1s to g - 1 parts."""
    check_capacity(max_genus, MAX_DEJONQUIERES_GENUS, "de Jonquieres genus")
    for g in range(2, max_genus + 1):
        for lam in partitions(g - 1):
            parts = tuple(p + 1 for p in lam) + (1,) * (g - 1 - len(lam))
            if dejonquieres(g, parts) < 1:
                return False
    return True


# ---------------------------------------------------------------------------
# the g = 3 slope probe


def g3_slope_probe(primes: Iterable[int]) -> list[dict]:
    """Exact (d, N, M, slope) rows over the given primes, from the closed
    polynomial of g3_5 and the slope of geometry.slope_from_counts.
    Primes below 5 are dropped, and the largest is held to the
    closed-form bound before any row is computed."""
    primes = [d for d in primes if d >= 5]
    if primes:
        check_capacity(max(primes), MAX_CLOSED_FORM_DEGREE, "closed-form degree")
    rows = []
    for d in primes:
        N, M = closed_N_M(d, "g3_5")
        s = slope_from_counts(RamificationProfile.of(d, "5"), N, M).slope
        rows.append({"d": d, "N": N, "M": str(M), "slope": str(s)})
    return rows
