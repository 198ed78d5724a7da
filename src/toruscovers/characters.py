"""Symmetric-group characters and disconnected cover counts.

Dropping the transitivity requirement makes cover counting pure
character theory: for beta in a fixed class P and commutator required to
land in the class T = (2^k 1^(d-2k)),

    Nhat = |P| * |T| * sum over irreducible chi of chi(P)^2 chi(T)/deg(chi),

because the number of alpha solving alpha beta alpha^-1 = g beta is the
centralizer order whenever g beta stays in P, and zero otherwise.  That
last observation also gives a second, character-free way to compute the
same number (the "convolution" method below), which the tests play off
against the first.  Either way one pass serves every class P at once, so
both methods build one table of Nhat per commutator class T, memoized on
T: the convolution table streams T's elements once, the character-sum table
visits each irreducible once and sums in integers.

The transitive weighted counts Ntilde (covers.aut_weighted_counts) assemble
into a generating series Ztilde, graded by (beta type, k); the series of
disconnected counts Zhat is its formal exponential minus one, since a
disconnected cover splits uniquely into connected pieces whose beta
types concatenate and whose k's add.
"""
from __future__ import annotations

import io
from bisect import bisect_left
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from operator import add, sub
from types import MappingProxyType

from .covers import (
    ConsistencyError, RamificationProfile, aut_weighted_counts, check_capacity
)
from .perms import (
    Partition,
    as_partition,
    class_elements,
    class_size,
    compose,
    cycle_type,
    partitions,
    type_rep,
)

Key = tuple[Partition, int]

# largest degree of a full character table, which holds p(d)^2
# Murnaghan-Nakayama values (53,361 at d = 16, built in about 0.05 s in a
# fresh process on a 2-core x86-64 VM; 148,225 at d = 18); a character-sum
# table reads the same values
MAX_TABLE_DEGREE = 16

# largest degree of a convolution table, which composes each of the p(d)
# class representatives with every element of the commutator class
MAX_CONVOLUTION_DEGREE = 10


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama recursion over rim hooks, on a bead mask: a shape is
# an int whose set bits are its beta-numbers on a fixed number of beads,
# and removing a rim hook of length m moves one bead m places down


def _abacus(shape: Partition, beads: int) -> int:
    """Bead mask of `shape` (at most `beads` rows): row i, padded with
    zero rows, puts a bead at shape[i] + beads - 1 - i."""
    padded = tuple(shape) + (0,) * (beads - len(shape))
    return sum(1 << (part + beads - 1 - i) for i, part in enumerate(padded))


def _hooks(mask: int, m: int) -> Iterator[tuple[int, int]]:
    """(sign, child mask) for each rim hook of length m of the shape
    `mask`: a bead at b + m over a gap at b moves down to it, and the sign
    is the parity of the hook's leg length, the beads it jumps over."""
    movable = (mask >> m) & ~mask
    legs = (1 << (m - 1)) - 1
    while movable:
        low = movable & -movable
        movable ^= low
        between = (mask >> low.bit_length()) & legs
        yield -1 if between.bit_count() & 1 else 1, mask ^ (low << m) ^ low


@lru_cache(maxsize=None)
def _mn(mask: int, mu: Partition) -> int:
    if not mu:
        return 1
    return sum(sign * _mn(child, mu[1:]) for sign, child in _hooks(mask, mu[0]))


def character_value(shape: Sequence[int], cls: Sequence[int]) -> int:
    """Irreducible character of S_d indexed by the partition `shape`,
    evaluated on the class of cycle type `cls`.

    >>> character_value([3], [2, 1])
    1
    >>> character_value([1, 1, 1], [2, 1])
    -1
    >>> character_value([2, 1], [1, 1, 1])
    2
    """
    s, c = as_partition(shape), as_partition(cls)
    if sum(s) != sum(c):
        raise ValueError(f"shape {shape} and class {cls} have different sizes")
    return _mn(_abacus(s, sum(s)), c)


def character_degree(shape: Sequence[int]) -> int:
    """Dimension of the irreducible indexed by `shape`, by hook lengths.

    >>> character_degree([2, 1])
    2
    >>> character_degree([4])
    1
    """
    s = as_partition(shape)
    d = sum(s)
    conj = [sum(1 for p in s if p > j) for j in range(s[0])] if s else []
    product = 1
    for i, row in enumerate(s):
        for j in range(row):
            product *= row - j + conj[j] - i - 1
    value, rest = divmod(factorial(d), product)
    if rest:
        raise ConsistencyError("hook product does not divide d!")
    return value


class _TableValues(Mapping):
    """Read-only (shape, class) -> value view over a table's rows."""

    def __init__(self, shapes: tuple[Partition, ...],
                 rows: tuple[tuple[int, ...], ...]):
        self._shapes, self._rows = shapes, rows
        self._at = {s: i for i, s in enumerate(shapes)}

    def __getitem__(self, key: tuple[Partition, Partition]) -> int:
        try:
            shape, cls = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return self._rows[self._at[shape]][self._at[cls]]

    def __iter__(self) -> Iterator[tuple[Partition, Partition]]:
        return ((s, c) for s in self._shapes for c in self._shapes)

    def __len__(self) -> int:
        return len(self._shapes) ** 2


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of S_d: one row per shape, one column per
    class, both indexed by the partitions of d in reverse-lex order;
    rows[i][j] is the character of shapes[i] on the class shapes[j]."""

    degree: int
    shapes: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]
    degrees: Mapping[Partition, int]

    @cached_property
    def values(self) -> Mapping[tuple[Partition, Partition], int]:
        """The table keyed (shape, class): a read-only view over rows."""
        return _TableValues(self.shapes, self.rows)

    @classmethod
    def build(cls, degree: int) -> "CharacterTable":
        if degree < 0:
            raise ValueError(f"character-table degree {degree} is negative")
        check_capacity(degree, MAX_TABLE_DEGREE, "character-table degree")
        # bottom up: level n maps each shape of n, a mask on `degree` beads,
        # to its row on the classes of n with parts at most degree - n (all
        # of them at n = degree), ascending.  Those starting with m are m
        # before a prefix of the classes of level n - m, so the row's run for
        # m is a signed sum of prefixes of the rows one m-hook smaller
        classes, rows = [[()]], [{(1 << degree) - 1: [1]}]
        for n in range(1, degree + 1):
            cap = degree - n or degree
            classes.append([p for p in reversed(partitions(n)) if p[0] <= cap])
            rows.append({})
            for shape in partitions(n):
                mask, row = _abacus(shape, degree), []
                for m in range(1, min(n, cap) + 1):
                    below = rows[n - m]
                    run = [0] * bisect_left(classes[n - m], (m + 1,))
                    for sign, child in _hooks(mask, m):
                        run = list(map(add if sign > 0 else sub, run, below[child]))
                    row += run
                rows[n][mask] = row
        shapes = tuple(partitions(degree))
        top = tuple(tuple(reversed(rows[degree][_abacus(s, degree)])) for s in shapes)
        degrees = {s: character_degree(s) for s in shapes}
        return cls(degree, shapes, top, degrees)

    def to_csv(self) -> str:
        out = io.StringIO()
        head = ["shape"] + ["|".join(map(str, c)) for c in self.shapes]
        out.write(",".join(head) + "\n")
        for s, row in zip(self.shapes, self.rows):
            out.write(",".join(["|".join(map(str, s)), *map(str, row)]) + "\n")
        return out.getvalue()


# ---------------------------------------------------------------------------
# disconnected counts


def tau_type(degree: int, k: int) -> Partition:
    """The commutator target class (2^k 1^(d-2k))."""
    if k < 0 or 2 * k > degree:
        raise ValueError(f"k={k} out of range for degree {degree}")
    return (2,) * k + (1,) * (degree - 2 * k)


def disconnected_count(
    degree: int, k: int, parts: Sequence[int], method: str = "characters"
) -> int:
    """Number of pairs (alpha, beta) with beta of the given cycle type
    and commutator of type (2^k 1^(d-2k)) -- no transitivity required.

    Both methods fill, on first use, one table of the counts of every beta
    type for the commutator class and read the count from it.
    `characters` evaluates the Frobenius-style sum over the irreducibles
    (degree at most MAX_TABLE_DEGREE); `convolution` counts directly how
    many tau-class elements g keep g*beta0 in beta's class, one pass over
    the tau class for all types (degree at most MAX_CONVOLUTION_DEGREE).
    """
    p = as_partition(parts, degree)
    tau = tau_type(degree, k)
    if method not in _COUNT_TABLES:
        raise ValueError(f"unknown method {method!r}")
    return _COUNT_TABLES[method](tau)[p]


@lru_cache(maxsize=None)
def _character_counts(tau: Partition) -> Mapping[Partition, int]:
    """Nhat of every beta type for the commutator class tau, by the
    character sum: each shape's degree is computed once, shapes vanishing
    on tau are skipped, and the sum is taken over the common denominator
    d! in integers."""
    degree = sum(tau)
    check_capacity(degree, MAX_TABLE_DEGREE, "character-table degree")
    fact = factorial(degree)
    types = partitions(degree)
    sums = dict.fromkeys(types, 0)
    for shape in types:
        mask = _abacus(shape, degree)
        chi_tau = _mn(mask, tau)
        if not chi_tau:
            continue
        hooks, rest = divmod(fact, character_degree(shape))
        if rest:
            raise ConsistencyError("character degree does not divide d!")
        weight = chi_tau * hooks
        for p in types:
            chi_p = _mn(mask, p)
            sums[p] += chi_p * chi_p * weight
    counts = {}
    for p, total in sums.items():
        counts[p], rest = divmod(class_size(p) * class_size(tau) * total, fact)
        if rest:
            raise ConsistencyError("character sum is not an integer")
    return MappingProxyType(counts)


@lru_cache(maxsize=None)
def _convolution_counts(tau: Partition) -> Mapping[Partition, int]:
    """Nhat of every beta type for the commutator class tau, from one pass
    over the class: d! times the number of its elements g with g*beta0 in
    beta0's class, beta0 = type_rep(type)."""
    degree = sum(tau)
    check_capacity(degree, MAX_CONVOLUTION_DEGREE, "convolution-table degree")
    reps = [(p, type_rep(p)) for p in partitions(degree)]
    hits = dict.fromkeys(partitions(degree), 0)
    for g in class_elements(tau):
        for p, beta0 in reps:
            if cycle_type(compose(g, beta0)) == p:
                hits[p] += 1
    fact = factorial(degree)
    return MappingProxyType({p: fact * n for p, n in hits.items()})


_COUNT_TABLES = {"characters": _character_counts, "convolution": _convolution_counts}


# ---------------------------------------------------------------------------
# generating series in infinitely many variables, truncated by total
# degree: monomials are (beta type, k), coefficients exact rationals


@dataclass(frozen=True)
class GenSeries:
    flavor: str
    d_max: int
    coeffs: Mapping[Key, Fraction]

    def as_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "d_max": self.d_max,
            "coefficients": [
                {"type": list(p), "k": k, "value": str(v)}
                for (p, k), v in sorted(self.coeffs.items())
            ],
        }


def _series_mul(a: Mapping[Key, Fraction], b: Mapping[Key, Fraction],
                d_max: int) -> dict[Key, Fraction]:
    out: dict[Key, Fraction] = {}
    for (pa, ka), ca in a.items():
        da = sum(pa)
        for (pb, kb), cb in b.items():
            if da + sum(pb) > d_max:
                continue
            key = (tuple(sorted(pa + pb, reverse=True)), ka + kb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {key: v for key, v in out.items() if v}


def _power_sum(w: Mapping[Key, Fraction], d_max: int,
               coefficient) -> dict[Key, Fraction]:
    """Sum of coefficient(m) * w^m over m >= 1 for a series with no
    constant term (each monomial has total degree >= 1, so m is bounded)."""
    total: dict[Key, Fraction] = {}
    power: dict[Key, Fraction] = dict(w)
    m = 1
    while power:
        c = coefficient(m)
        for key, v in power.items():
            total[key] = total.get(key, Fraction(0)) + c * v
        m += 1
        power = _series_mul(power, w, d_max)
    return {key: v for key, v in total.items() if v}


def series_exp(z: Mapping[Key, Fraction], d_max: int) -> dict[Key, Fraction]:
    """exp(z) - 1 for a series with no constant term: the sum of z^m / m!."""
    return _power_sum(z, d_max, lambda m: Fraction(1, factorial(m)))


def series_log(w: Mapping[Key, Fraction], d_max: int) -> dict[Key, Fraction]:
    """log(1 + w) for a series with no constant term: sum of (-1)^(m+1) w^m / m."""
    return _power_sum(w, d_max, lambda m: Fraction((-1) ** (m + 1), m))


def build_generating_functions(d_max: int) -> tuple[GenSeries, GenSeries]:
    """(Zhat, Ztilde): the disconnected series from character sums, the
    connected one from enumeration-backed weighted counts.  Coefficients
    are counts divided by d!.  The connected series enumerates, so d_max
    is bounded like enumeration (checked before any work)."""
    check_capacity(d_max)
    zhat: dict[Key, Fraction] = {}
    ztilde: dict[Key, Fraction] = {}
    for d in range(1, d_max + 1):
        fact = factorial(d)
        for k in range(0, d // 2 + 1):
            for parts, nhat in _character_counts(tau_type(d, k)).items():
                if nhat:
                    zhat[(parts, k)] = Fraction(nhat, fact)
            prof = RamificationProfile.of(d, [2] * k)  # odd k admits no covers
            for parts, ntilde in aut_weighted_counts(d, prof).items():
                ztilde[(parts, k)] = ntilde
    return (
        GenSeries("Z_hat", d_max, zhat),
        GenSeries("Z_tilde", d_max, ztilde),
    )
