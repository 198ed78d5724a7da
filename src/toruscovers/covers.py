"""Enumeration of covers of an elliptic curve branched over one point.

A degree-d cover branched over a single point with local monodromy in the
conjugacy class sigma is encoded by a pair (alpha, beta) of permutations
whose commutator lies in sigma and which generate a transitive subgroup of
S_d.  Two pairs give the same cover iff they are simultaneously conjugate,
so the objects enumerated here are conjugation classes of such pairs.

The enumeration fixes beta to one canonical representative beta0 per cycle
type and walks the solution set for alpha in cosets: alpha solves
``alpha beta0 alpha^-1 = gamma beta0`` for exactly one gamma in sigma's
class, and for fixed gamma the solutions form one left coset
``a0 C(beta0)`` of the centralizer of beta0.  Classes with beta fixed are
the orbits of C(beta0) acting on alpha by conjugation.

Conjugating by z in C(beta0) carries the coset of gamma onto the coset of
``z gamma z^-1``, so the walk visits one gamma per C(beta0)-orbit only,
and tries only gammas on a canonical support (one per C(beta0)-orbit).
A class meets the coset of that representative in exactly one orbit of
``Stab(gamma) = C(beta0) ∩ C(gamma)``, so classes correspond one-to-one
to pairs (C(beta0)-orbit of gamma, Stab(gamma)-orbit of transitive alphas
in the coset of its representative).

Transitivity is decided once per block permutation, not per element.
Every z in C(beta0) turns each cycle of beta0 and carries it onto a cycle
of equal length: cycle i onto cycle pi(i), a permutation of the k cycle
labels.  Then alpha = a0 z sends the points of cycle i onto
a0(cycle pi(i)), and beta0 joins the points of each cycle, so which cycles
<alpha, beta0> joins depends on pi alone.  The walk iterates C(beta0)
grouped by pi, decides each group by a walk over k <= d cycle labels, and
skips an intransitive group whole.

The walk scans only the beta types with at most (d+1)/2 cycles.  The
alpha- and beta-edges of a transitive pair connect all d points, so
(d - c(alpha)) + (d - c(beta)) >= d - 1: a beta with more cycles comes
with an alpha of a scanned type.  The quarter turn R(alpha, beta) =
(beta^-1, alpha) keeps transitivity and conjugates the commutator (to
beta^-1 [alpha, beta] beta), so it is one-to-one on the classes of sigma:
an unscanned type's classes are the images of the scanned classes whose
alpha has that type, canonicalized by a backtrack (:func:`_min_conjugate`)
that never lists their large centralizers (10,080 elements for (2,1^7)).

The scans of C(beta0) hold its elements z, with z^-1, as d-byte strings,
and build each conjugate in C: with ``tbl(p) = bytes(p) + bytes(256 - d)``
a :meth:`bytes.translate` table, ``zinv.translate(tbl(p))`` is p z^-1 and
translating that by ``tbl(z)`` gives z p z^-1.  The table of the fixed p
is built once per scan; bytes compare in the lexicographic order of the
tuples they spell.  Points, like the labels of :func:`origami_key`, must
then fit in a byte, so no degree past 256 is enumerated or keyed.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import gcd
from operator import eq
from typing import Iterable, Iterator, Optional, Sequence

from .perms import (
    Partition,
    Perm,
    as_partition,
    centralizer_groups,
    centralizer_order,
    class_elements,
    commutator,
    compose,
    conjugate,
    cycle_layout,
    cycle_string,
    cycle_type,
    inverse,
    is_prime,
    partitions,
    type_rep,
    type_weight,
)

DEFAULT_MAX_DEGREE = 9

# points are bytes in origami keys and centralizer scans
_MAX_LABEL_DEGREE = 256

# centralizers up to this order are kept in memory once per cycle type,
# about 160 bytes per element at d = 12 (a (z, z^-1) pair of byte strings;
# 340 as tuples of ints), so at most about 10 MB each; larger ones are
# streamed afresh on every scan (see _TypeContext.groups)
_MATERIALIZE_LIMIT = 60_000


class CapacityError(RuntimeError):
    """Raised when a request exceeds the configured brute-force bounds."""


class ConsistencyError(RuntimeError):
    """Raised when an internal cross-check fails (should never happen)."""


def check_capacity(
    value: int, bound: int = DEFAULT_MAX_DEGREE, kind: str = "enumeration degree"
) -> None:
    """Raise CapacityError when ``value`` exceeds ``bound``; ``kind`` names
    the bounded quantity (by default the degree of brute-force
    enumeration)."""
    if value > bound:
        raise CapacityError(f"{kind} {value} exceeds its bound {bound}")


def _check_degree(degree: int, profile: RamificationProfile, max_degree: int) -> None:
    """Check a request for the classes of ``profile``: its degree is
    ``degree``, within the bound ``max_degree`` and the byte-label bound."""
    if degree != profile.degree:
        raise ValueError("profile degree mismatch")
    check_capacity(degree, max_degree)
    check_capacity(degree, _MAX_LABEL_DEGREE, "byte-label degree")


# ---------------------------------------------------------------------------
# ramification profiles


@dataclass(frozen=True)
class RamificationProfile:
    """Cycle type of the branch-point monodromy, as a full partition of d
    (descending, trivial parts included)."""

    parts: Partition

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("profile has no parts")
        if as_partition(self.parts) != self.parts:
            raise ValueError("profile parts must be sorted descending")

    @classmethod
    def of(cls, degree: int, spec: "str | Sequence[int]") -> "RamificationProfile":
        """Build a profile for S_degree from the parts of ``spec``, read by
        :func:`as_partition` and padded with 1s up to the degree."""
        parts = as_partition(spec)
        if sum(parts) > degree:
            raise ValueError(f"profile {list(parts)} exceeds degree {degree}")
        return cls(parts + (1,) * (degree - sum(parts)))

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def nontrivial_parts(self) -> Partition:
        return tuple(l for l in self.parts if l > 1)

    @property
    def admits_covers(self) -> bool:
        """Commutators are even, so an odd class admits no covers."""
        return self.genus is not None

    @property
    def genus(self) -> Optional[int]:
        """Genus of the covering curves: 2g - 2 = sum(l_i - 1).  None when
        that sum is odd (no covers exist)."""
        k = sum(l - 1 for l in self.parts)
        if k % 2:
            return None
        return (k + 2) // 2

    @property
    def short_spec(self) -> str:
        """The short spelling of sigma: its nontrivial parts, descending,
        joined by commas ("1" when there are none)."""
        return ",".join(map(str, self.nontrivial_parts)) or "1"

    @property
    def kappa_factor(self) -> Fraction:
        """d - sum(1/l_i) over all parts, the weight entering the slope."""
        return self.degree - type_weight(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(l) for l in self.parts) + ")"


# ---------------------------------------------------------------------------
# canonical forms


_Group = tuple[tuple[int, ...], Iterable[tuple[bytes, bytes]]]


@dataclass(frozen=True)
class _TypeContext:
    """Cached data for one beta cycle type: the fixed representative and
    the order of its centralizer C(beta0), which :meth:`groups` scans."""

    parts: Partition
    rep: Perm
    order: int

    def groups(self) -> Iterable[_Group]:
        """C(beta0) grouped by the permutation pi of beta0's cycles, as in
        :func:`centralizer_groups`: each pi with the (z, z^-1) of its group,
        as d-byte strings.  The cached tuple when the centralizer is small
        enough to keep, else a fresh stream, in which a group that is not
        iterated builds nothing."""
        if self.order > _MATERIALIZE_LIMIT:
            return ((pi, _with_inverses(zs, len(self.rep)))
                    for pi, zs in centralizer_groups(self.parts))
        return self._cached_groups

    def pairs(self) -> Iterable[tuple[bytes, bytes]]:
        """Every (z, z^-1) with z in C(beta0), read from :meth:`groups`."""
        return chain.from_iterable(group for _, group in self.groups())

    @cached_property
    def _cached_groups(self) -> tuple[_Group, ...]:
        groups = tuple((pi, tuple(_with_inverses(zs, len(self.rep))))
                       for pi, zs in centralizer_groups(self.parts))
        if sum(len(group) for _, group in groups) != self.order:
            raise ConsistencyError("centralizer enumeration size mismatch")
        return groups


def _with_inverses(zs: Iterable[Perm], d: int) -> Iterator[tuple[bytes, bytes]]:
    """Each z of ``zs`` (of degree d) as bytes, with z^-1: the table
    bytes.maketrans(z, identity) maps z[x] to x."""
    identity = bytes(range(d))
    for z in map(bytes, zs):
        yield z, bytes.maketrans(z, identity)[:d]


@lru_cache(maxsize=None)
def _type_context(parts: Partition) -> _TypeContext:
    return _TypeContext(parts, type_rep(parts), centralizer_order(parts))


def _min_over_elements(alpha: Sequence[int], ctx: _TypeContext) -> Perm:
    """Smallest conjugate z alpha z^-1 over the centralizer, each built by
    two translates (see the module docstring) and compared as bytes."""
    pad = bytes(256 - len(alpha))
    table = bytes(alpha) + pad
    return tuple(min(zinv.translate(table).translate(z + pad) for z, zinv in ctx.pairs()))


def _scanned(parts: Partition) -> bool:
    """Whether beta type ``parts`` has at most (d+1)/2 cycles: enumeration
    walks its cosets and canonicalizes by scanning its centralizer; every
    other type is reached by the quarter turn and :func:`_min_conjugate`."""
    return 2 * len(parts) <= sum(parts) + 1


def _min_conjugate(alpha: Perm, parts: Partition) -> Perm:
    """The lex-least z alpha z^-1 over z in C(beta0), beta0 = type_rep(parts),
    as :func:`_min_over_elements` finds it, by a pruned backtrack.

    z^-1 is chosen one cycle slot of beta0 at a time, in label order: a
    free target cycle of the slot's length and a rotation.  Position x is
    decided once alpha(z^-1(x)) lies in a chosen target.  When the earliest
    undecided position of the chosen slots points into a cycle of the next
    slot's length, its least value is that slot's first label, so the slot
    is forced; a branch stops once a decided position exceeds the best."""
    d = len(alpha)
    starts = [sum(parts[:k]) for k in range(len(parts))]
    slot_of = [k for k, l in enumerate(parts) for _ in range(l)]
    zinv, z = [-1] * d, [-1] * d  # on the chosen slots and on their targets
    best: list[int] = []

    def choose(j: int) -> None:
        nonlocal best
        end = starts[j] if j < len(parts) else d
        below = not best
        x = 0
        while x < end and z[alpha[zinv[x]]] >= 0:
            if not below and z[alpha[zinv[x]]] != best[x]:
                if z[alpha[zinv[x]]] > best[x]:
                    return
                below = True
            x += 1
        if j == len(parts):
            if below:
                best = [z[alpha[zinv[y]]] for y in range(d)]
            return
        start, l = starts[j], parts[j]
        # z^-1(start): forced, else any point of a free cycle of length l
        y = alpha[zinv[x]] if x < end else None
        heads = ([y] if y is not None and parts[slot_of[y]] == l else
                 [p for k, s in enumerate(starts) if parts[k] == l and z[s] < 0
                  for p in range(s, s + l)])
        for p in heads:
            s = starts[slot_of[p]]
            for i in range(l):
                t = s + (p - s + i) % l
                zinv[start + i] = t
                z[t] = start + i
            choose(j + 1)
            z[s:s + l] = [-1] * l

    choose(0)
    return tuple(best)


def canonical_pair(alpha: Perm, beta: Perm) -> tuple[Perm, Perm]:
    """Canonical representative of the simultaneous-conjugation class of
    (alpha, beta): the cycle layout of beta relabels it as the fixed
    representative of its cycle type, then alpha is minimized over the
    remaining freedom (the centralizer of that representative), by a scan
    of it for a :func:`_scanned` type and :func:`_min_conjugate` else."""
    parts, t = cycle_layout(beta)
    ctx = _type_context(parts)
    alpha = conjugate(t, alpha)  # checks degrees
    if _scanned(parts):
        return _min_over_elements(alpha, ctx), ctx.rep
    return _min_conjugate(alpha, parts), ctx.rep


def origami_key(alpha: Perm, beta: Perm) -> bytes:
    """Key of the simultaneous-conjugation class of a transitive pair:
    equal for two pairs exactly when they are conjugate, in O(d^2) time.

    A breadth-first walk from a start labels the points in the order it
    reaches them: the start is 0, and at each reached point x, in label
    order, alpha(x) and then beta(x) take the next free labels if they
    have none.  The sequence of (label of alpha(x), label of beta(x))
    over x in label order spells the pair relabelled, so two starts give
    equal sequences exactly when a conjugation carries one onto the other.
    The key is the smallest sequence over the starts where alpha beta and
    beta alpha differ (the support of the commutator alpha^-1 beta^-1
    alpha beta, which every conjugation respects).  A commuting pair starts
    from 0 alone: it generates a regular abelian group, whose centralizer
    is transitive, so every start gives the same sequence.  Each sequence
    is compared with the best so far as it is built and dropped once it is
    larger.  Labels are below d, so the key is bytes.

    Only the support starts of least first step are walked.  The first
    step from x, the pair (label of alpha(x), label of beta(x)), is one
    of (0,0) < (0,1) < (1,0) < (1,1) < (1,2), read off alpha(x), beta(x)
    and x alone, so it is ranked in the same pass that finds the support.
    Neither the key nor the automorphism count changes: a sequence begins
    with its first step, so every start that gives the least sequence has
    the least first step and is kept, and the tied starts counted below
    are the same.

    The starts that give the key also count the automorphisms of the
    pair: these act freely on the points (one fixing a point of a
    transitive pair fixes all) and carry the commutator support onto
    itself, one start onto another exactly when both give one sequence,
    so the starts that give the key form one orbit of them.

    >>> from toruscovers.perms import parse_cycles
    >>> alpha, beta = parse_cycles("(1 5)", 5), parse_cycles("(1 2 3 4)", 5)
    >>> t = parse_cycles("(1 4 2)(3 5)", 5)
    >>> origami_key(alpha, beta) == origami_key(conjugate(t, alpha), conjugate(t, beta))
    True
    >>> list(origami_key(alpha, beta))
    [0, 1, 2, 3, 1, 2, 3, 4, 4, 0]
    """
    return _key_walk(alpha, beta)[0]


def _key_walk(alpha: Perm, beta: Perm) -> tuple[bytes, int]:
    """:func:`origami_key` and the number of automorphisms of the pair
    (d for a commuting pair, whose regular group is its own centralizer)."""
    d = len(alpha)
    if d == 0:
        raise ValueError("empty permutation")
    if len(beta) != d:
        raise ValueError("degree mismatch")
    if d > _MAX_LABEL_DEGREE:
        raise ValueError(f"degree {d} exceeds the byte-label bound {_MAX_LABEL_DEGREE}")
    # the support starts of least first step, ranked 0, 1, 3, 4, 5
    starts: list[int] = []
    least = 6
    for x in range(d):
        a, b = alpha[x], beta[x]
        if alpha[b] != beta[a]:
            rank = (0 if a == x else 3) + (0 if b == x else 2 if x != a != b else 1)
            if rank < least:
                least, starts = rank, [x]
            elif rank == least:
                starts.append(x)
    best: list[int] = []
    ties = 0
    for start in starts or [0]:
        label = [-1] * d
        label[start] = 0
        order = [start]
        key: list[int] = []
        i = 0 if best else -1  # next position compared with best; -1 once below it
        for x in order:  # grows as the walk goes
            y = alpha[x]
            u = label[y]
            if u < 0:
                u = label[y] = len(order)
                order.append(y)
            y = beta[x]
            v = label[y]
            if v < 0:
                v = label[y] = len(order)
                order.append(y)
            key.append(u)
            key.append(v)
            if i >= 0:
                if u != best[i]:
                    if u > best[i]:
                        break
                    i = -1
                elif v != best[i + 1]:
                    if v > best[i + 1]:
                        break
                    i = -1
                else:
                    i += 2
        else:
            if len(order) < d:
                raise ValueError("pair is not transitive")
            if i < 0:  # below best, else equal to it all the way
                best, ties = key, 0
            ties += 1
    return bytes(best), ties if starts else d


# ---------------------------------------------------------------------------
# cover classes


@dataclass(frozen=True)
class CoverClass:
    """One equivalence class of cover pairs, stored by its canonical
    representative."""

    alpha: Perm
    beta: Perm

    @classmethod
    def from_pair(cls, alpha: Perm, beta: Perm) -> "CoverClass":
        a, b = canonical_pair(alpha, beta)
        return cls(a, b)

    @property
    def degree(self) -> int:
        return len(self.alpha)

    @cached_property
    def beta_type(self) -> Partition:
        return cycle_type(self.beta)

    @cached_property
    def commutator_type(self) -> Partition:
        return cycle_type(commutator(self.alpha, self.beta))

    @cached_property
    def _walk(self) -> tuple[bytes, int]:
        return _key_walk(self.alpha, self.beta)

    @property
    def key(self) -> bytes:
        """The :func:`origami_key` of the pair, equal for conjugate pairs."""
        return self._walk[0]

    @classmethod
    def _with_walk(cls, pair: tuple[Perm, Perm], walk: tuple[bytes, int]) -> "CoverClass":
        """The class of ``pair``, canonicalized once, holding ``walk``, the
        :func:`_key_walk` of ``pair``: key and automorphism count are the
        same for every pair of a class, so nothing walks it again."""
        c = cls.from_pair(*pair)
        vars(c)["_walk"] = walk
        return c

    @cached_property
    def twists(self) -> tuple[bytes, bytes]:
        """Keys of the images under the twists a and b: (alpha, alpha beta)
        and (alpha beta, beta), in that order."""
        (_, a), (_, b) = self._twist_walks()
        return a[0], b[0]

    def _twist_walks(self) -> tuple[tuple[tuple[Perm, Perm], tuple[bytes, int]], ...]:
        """The a and b images of the pair, each with its :func:`_key_walk`,
        whose keys it keeps as :attr:`twists`."""
        alpha, beta = self.alpha, self.beta
        ab = compose(alpha, beta)
        a, b = _key_walk(alpha, ab), _key_walk(ab, beta)
        vars(self)["twists"] = a[0], b[0]
        return ((alpha, ab), a), ((ab, beta), b)

    @cached_property
    def weight(self) -> Fraction:
        """Sum over cycles of beta of 1/length, the multiplicity weight
        this class contributes to M."""
        return type_weight(self.beta_type)

    @cached_property
    def stabilizer_order(self) -> int:
        """Number of simultaneous self-conjugations z of the pair, counted
        by the walk of its :func:`origami_key`."""
        count = self._walk[1]
        if centralizer_order(self.beta_type) % count:
            raise ConsistencyError("stabilizer order does not divide centralizer order")
        return count

    @cached_property
    def is_primitive(self) -> bool:
        """Whether the absolute periods generate the full lattice (the
        cover is not pulled back through an isogeny), read off :attr:`key`."""
        return _lattice_index(self.key) == 1

    def __str__(self) -> str:
        return f"({cycle_string(self.alpha)}, {cycle_string(self.beta)})"

    def as_dict(self) -> dict:
        return {"alpha": cycle_string(self.alpha), "beta": cycle_string(self.beta)}


def period_lattice_index(alpha: Perm, beta: Perm) -> int:
    """Index in Z^2 of the lattice of absolute periods of the cover.

    Index 1 means the cover is primitive; a larger index m means it is
    the pullback of a smaller cover under a degree-m isogeny of the base.
    Computed as the abelianized point stabilizer, by :func:`_lattice_index`
    on the pair's :func:`origami_key`.
    """
    return _lattice_index(_key_walk(alpha, beta)[0])


def _lattice_index(key: bytes) -> int:
    """:func:`period_lattice_index` of the pair that ``key`` spells.

    The key is the pair relabelled in the order of its breadth-first walk:
    point i's alpha and beta labels are bytes 2i and 2i+1.  A label equal
    to the number of points reached so far is a tree edge, which gives the
    point it reaches its position (a step (1, 0) for alpha, (0, 1) for
    beta); any other label closes a defect, and the defects span the
    lattice.  The index depends neither on the start nor on the labelling.
    """
    d = len(key) // 2
    px, py = [0] * d, [0] * d
    reached = 1
    defects: list[tuple[int, int]] = []
    labels = iter(key)
    for i, (u, v) in enumerate(zip(labels, labels)):
        x, y = px[i], py[i]
        if u == reached:
            px[u], py[u] = x + 1, y
            reached += 1
        elif x + 1 != px[u] or y != py[u]:
            defects.append((x + 1 - px[u], y - py[u]))
        if v == reached:
            px[v], py[v] = x, y + 1
            reached += 1
        elif x != px[v] or y + 1 != py[v]:
            defects.append((x - px[v], y + 1 - py[v]))
    index = 0
    for i, (ax, ay) in enumerate(defects):
        for bx, by in defects[i + 1 :]:
            index = gcd(index, abs(ax * by - ay * bx))
            if index == 1:
                return 1
    if index == 0:
        raise ConsistencyError("period lattice has infinite index")
    return index


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class _StabilizerScan:
    """Every (s, s^-1) with s in Stab(gamma) of C(beta0), as bytes, read
    afresh from :meth:`_TypeContext.pairs` on each iteration.  The identity
    is central, so for it that is all of C(beta0), yielded untested."""

    ctx: _TypeContext
    gamma: Perm

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        gamma = self.gamma
        if all(map(eq, gamma, range(len(gamma)))):
            yield from self.ctx.pairs()
            return
        pad = bytes(256 - len(gamma))
        target = bytes(gamma)
        table = target + pad
        for z, zinv in self.ctx.pairs():
            if zinv.translate(table).translate(z + pad) == target:
                yield z, zinv


def _cycle_hits(ctx: _TypeContext, a0: Perm) -> list[set[int]]:
    """For each cycle of beta0, the cycles that a0 sends its points into."""
    cycle_of = [k for k, l in enumerate(ctx.parts) for _ in range(l)]
    hits: list[set[int]] = [set() for _ in ctx.parts]
    for x, y in enumerate(a0):
        hits[cycle_of[x]].add(cycle_of[y])
    return hits


def _joins_cycles(pi: tuple[int, ...], hits: Sequence[set[int]]) -> bool:
    """Whether <a0 z, beta0> is transitive for the z in C(beta0) that carry
    cycle i of beta0 onto cycle pi[i], ``hits`` from :func:`_cycle_hits`:
    a0 z sends cycle i into the cycles ``hits[pi[i]]``, and beta0 joins the
    points of each cycle, so a walk over cycle labels decides it."""
    reached = [0]
    marked = [False] * len(pi)
    marked[0] = True
    for i in reached:  # grows as the walk goes
        for t in hits[pi[i]]:
            if not marked[t]:
                marked[t] = True
                reached.append(t)
    return len(reached) == len(pi)


def _coset_reps(
    ctx: _TypeContext,
    a0: Perm,
    stab: Iterable[tuple[bytes, bytes]],
) -> list[Perm]:
    """Canonical alphas of the transitive classes meeting the coset
    ``a0 C(beta0)``: each class meets the coset in one orbit of ``stab``
    (the (s, s^-1) pairs of Stab(gamma), as bytes), so each is
    canonicalized once.  Transitivity is decided once per group of
    :meth:`_TypeContext.groups`, and an intransitive group is skipped
    whole."""
    pad = bytes(256 - len(a0))
    table = bytes(a0) + pad
    hits = _cycle_hits(ctx, a0)
    seen: set[bytes] = set()
    reps = []
    for pi, group in ctx.groups():
        if not _joins_cycles(pi, hits):
            continue
        for z, _ in group:
            alpha = z.translate(table)  # a0 z
            if alpha in seen:
                continue
            reps.append(_min_over_elements(alpha, ctx))
            t = alpha + pad
            seen.update(sinv.translate(t).translate(s + pad) for s, sinv in stab)
    return reps


def _canonical_support(mask: int, parts: Partition) -> bool:
    """Whether ``mask`` (bit x for each moved point x) is the one support in
    its C(beta0)-orbit, beta0 = type_rep(parts), whose bits on each cycle
    are their own least rotation and do not increase along cycles of equal
    length; C(beta0) only rotates cycles and permutes equal ones."""
    start, last = 0, {}
    for l in parts:
        full = (1 << l) - 1
        m = mask >> start & full
        rotations = ((m >> r | m << l - r) & full for r in range(1, l))
        if m > last.get(l, full) or any(r < m for r in rotations):
            return False
        start, last[l] = start + l, m
    return True


def _gamma_orbit(
    ctx: _TypeContext, gamma: Perm,
) -> tuple[set[bytes], Iterable[tuple[bytes, bytes]]]:
    """The C(beta0)-orbit of gamma, as bytes, and Stab(gamma), as its
    (s, s^-1) pairs, from one pass over C(beta0).  The identity is central;
    a stabilizer too large to keep is scanned out of C(beta0) again."""
    target = bytes(gamma)
    if all(map(eq, gamma, range(len(gamma)))):  # trivial sigma
        return {target}, _StabilizerScan(ctx, gamma)
    pad = bytes(256 - len(gamma))
    table = target + pad
    orbit: set[bytes] = set()
    kept: Optional[list[tuple[bytes, bytes]]] = []
    stab_order = 0
    for z, zinv in ctx.pairs():
        c = zinv.translate(table).translate(z + pad)
        orbit.add(c)
        if c == target:
            stab_order += 1
            if kept is not None:
                kept.append((z, zinv))
                if len(kept) > _MATERIALIZE_LIMIT:
                    kept = None
    if len(orbit) * stab_order != ctx.order:
        raise ConsistencyError("gamma orbit and stabilizer sizes do not match")
    return orbit, kept if kept is not None else _StabilizerScan(ctx, gamma)


def _alphas_for_type(ctx: _TypeContext, gammas: Iterable[Perm]) -> list[Perm]:
    """Canonical alphas of the cover classes with beta = ctx.rep whose
    commutator lies in sigma's class, given by ``gammas``, which meet each
    of its C(beta0)-orbits."""
    beta0 = ctx.rep
    seen_gamma: set[bytes] = set()
    reps: list[Perm] = []
    for gamma in gammas:
        if bytes(gamma) in seen_gamma:
            continue
        delta = tuple([gamma[x] for x in beta0])
        if cycle_type(delta) != ctx.parts:  # cheaper than a layout; most miss
            continue
        orbit, stab = _gamma_orbit(ctx, gamma)
        seen_gamma |= orbit
        reps.extend(_coset_reps(ctx, inverse(cycle_layout(delta)[1]), stab))
    return reps


def _alphas_by_type(
    profile: RamificationProfile, types: Sequence[Partition],
) -> Iterator[tuple[Partition, list[Perm]]]:
    """Each scanned beta type of ``types`` with the canonical alphas of its
    classes, by :func:`_alphas_for_type` over sigma's class on the type's
    canonical supports.  The gammas moving exactly the points of a mask
    are one fixed-point-free pattern relabelled onto them, built once for
    the masks that some type reads."""
    degree = profile.degree
    patterns = list(class_elements(profile.nontrivial_parts))
    by_support: dict[int, list[Perm]] = {}
    for points in combinations(range(degree), sum(profile.nontrivial_parts)):
        mask = sum(1 << x for x in points)
        if not any(_canonical_support(mask, parts) for parts in types):
            continue
        on = by_support[mask] = []
        for q in patterns:
            gamma = list(range(degree))
            for x, y in zip(points, q):
                gamma[x] = points[y]
            on.append(tuple(gamma))
    for parts in types:
        gammas = (g for mask, on in by_support.items()
                  if _canonical_support(mask, parts) for g in on)
        yield parts, _alphas_for_type(_type_context(parts), gammas)


def enumerate_classes(
    degree: int,
    profile: RamificationProfile,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> list[CoverClass]:
    """Enumerate all cover classes of the given degree and branch class.

    Deterministic order: beta cycle types in reverse-lex order (single
    cycle first), then canonical alphas lexicographically.
    """
    _check_degree(degree, profile, max_degree)
    if not profile.admits_covers:
        return []
    alphas: dict[Partition, list[Perm]] = {}
    for parts, reps in _alphas_by_type(profile, list(filter(_scanned, partitions(degree)))):
        alphas[parts] = reps
        # the quarter turn (alpha, beta0) -> (beta0^-1, alpha) of a class
        # whose alpha has an unscanned type; with f fixed points alpha has
        # at most f + (d - f) // 2 cycles, so most alphas need no layout
        turn = inverse(_type_context(parts).rep)
        for alpha in reps:
            fixed = sum(map(eq, alpha, range(degree)))
            if 2 * (fixed + (degree - fixed) // 2) <= degree + 1:
                continue
            a_parts, t = cycle_layout(alpha)
            if not _scanned(a_parts):
                alphas.setdefault(a_parts, []).append(
                    _min_conjugate(conjugate(t, turn), a_parts))
    return [CoverClass(a, _type_context(parts).rep)
            for parts in partitions(degree) for a in sorted(alphas.get(parts, ()))]


# ---------------------------------------------------------------------------
# counting tables


@dataclass(frozen=True)
class CountsTable:
    """Class counts N_type per beta cycle type, with the derived totals
    N = sum N_type and M = sum weight(type) * N_type (exact rational)."""

    profile: RamificationProfile
    by_type: tuple[tuple[Partition, int], ...]  # sorted reverse-lex, nonzero only

    @classmethod
    def of(cls, profile: RamificationProfile,
           counts: dict[Partition, int]) -> CountsTable:
        """The table of ``counts``, nonzero class counts keyed by beta type."""
        return cls(profile, tuple(sorted(counts.items(), reverse=True)))

    @property
    def N(self) -> int:
        return sum(n for _, n in self.by_type)

    @property
    def M(self) -> Fraction:
        return sum((type_weight(t) * n for t, n in self.by_type), Fraction(0))

    def as_dict(self) -> dict:
        return {
            "d": self.profile.degree,
            "sigma": list(self.profile.parts),
            "types": [
                {"type": list(t), "n": n, "weight": str(type_weight(t))}
                for t, n in self.by_type
            ],
            "N": self.N,
            "M": str(self.M),
        }


def aut_weighted_counts(
    degree: int,
    profile: RamificationProfile,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> dict[Partition, Fraction]:
    """Sum of 1/stabilizer_order per beta cycle type over the classes of
    :func:`enumerate_classes` (the 1/|Aut| weighting of Hurwitz numbers).

    By orbit-stabilizer a class with beta = beta0 holds |C(beta0)|/|Aut|
    transitive alphas, so each sum is the raw transitive-solution count
    divided by |C(beta0)|, which is also the number of transitive pairs
    with beta of that type divided by d!.
    """
    sums: dict[Partition, Fraction] = {}
    for c in enumerate_classes(degree, profile, max_degree=max_degree):
        sums[c.beta_type] = sums.get(c.beta_type, 0) + Fraction(1, c.stabilizer_order)
    return sums


def count_table(
    degree: int,
    profile: RamificationProfile,
    method: str = "brute",
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> CountsTable:
    """Count classes per beta cycle type.

    ``brute`` counts the classes (valid for any degree).  ``burnside``
    reads :func:`aut_weighted_counts`, the raw solution count over
    |C(beta0)|; that is the class count when no class has an automorphism,
    as at prime d with nontrivial sigma (an automorphism of a transitive
    pair of prime degree is a power of a d-cycle, which forces a trivial
    commutator).  Other inputs raise ValueError before any enumeration.
    """
    if method == "brute":
        classes = enumerate_classes(degree, profile, max_degree=max_degree)
        counts = Counter(c.beta_type for c in classes)
    elif method == "burnside":
        if not is_prime(degree):
            raise ValueError("burnside requires a prime degree")
        if not profile.nontrivial_parts:
            raise ValueError(
                f"burnside requires a nontrivial sigma, not {profile}: "
                "commuting pairs have automorphisms"
            )
        weighted = aut_weighted_counts(degree, profile, max_degree)
        if any(w.denominator != 1 for w in weighted.values()):
            raise ConsistencyError("a class at prime degree has an automorphism")
        counts = {t: int(w) for t, w in weighted.items()}
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountsTable.of(profile, counts)
