"""Exact permutation and partition arithmetic on the point set {1..d}.

Permutations are plain tuples of 0-based images: ``p[i]`` is where point
``i`` goes.  Everything user-facing (cycle strings, JSON) is 1-based; the
translation happens only in the parser/printer.  Composition is
right-factor-first: ``compose(p, q)`` applies ``q`` first, then ``p``, so
``compose(p, q)[x] == p[q[x]]``.  The centralizer scans of
:mod:`toruscovers.covers` hold the elements they read from here as byte
strings, which index and compare as these tuples do.

Cycle types double as integer partitions (tuples sorted descending), and
the partition helpers here are shared by the counting and character
modules; :func:`as_partition` reads every partition a caller passes.
"""
from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from operator import index
from typing import Iterable, Iterator, Literal, Optional, Sequence

Perm = tuple[int, ...]
Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic group operations


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_identity(p: Perm) -> bool:
    return all(v == i for i, v in enumerate(p))


def _check_degrees(p: Perm, q: Perm) -> None:
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")


def compose(p: Perm, q: Perm) -> Perm:
    """Apply ``q`` first, then ``p``.

    >>> cycle_string(compose(parse_cycles("(1 5)", 5), parse_cycles("(1 2 3 4)", 5)))
    '(1 2 3 4 5)'
    """
    _check_degrees(p, q)
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def conjugate(t: Perm, p: Perm) -> Perm:
    """Return ``t p t^-1`` (relabels ``p`` by ``t``)."""
    _check_degrees(t, p)
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[t[i]] = t[v]
    return tuple(out)


def commutator(a: Perm, b: Perm) -> Perm:
    """Return ``a b a^-1 b^-1``.

    >>> cycle_string(commutator(parse_cycles("(1 5)", 5), parse_cycles("(1 2 3 4)", 5)))
    '(1 5 2)'
    """
    _check_degrees(a, b)
    ia = inverse(a)
    ib = inverse(b)
    return tuple(a[b[ia[ib[x]]]] for x in range(len(a)))


# ---------------------------------------------------------------------------
# cycle structure


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles (0-based), each starting at its smallest point,
    ordered by that smallest point.  Fixed points are included as 1-cycles."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> Partition:
    """Cycle lengths sorted descending.

    >>> cycle_type(parse_cycles("(1 2)(3 4 5)", 6))
    (3, 2, 1)
    """
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        lengths.append(n)
    lengths.sort(reverse=True)
    return tuple(lengths)


def sign(p: Perm) -> int:
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


# ---------------------------------------------------------------------------
# cycle notation

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: Optional[int] = None) -> Perm:
    """Parse disjoint-cycle notation, 1-based.

    Accepts both spaced tokens ``(1 5)(2 3)`` and the compact digit form
    ``(15)(23)`` common for degrees below ten; in a cycle written as one
    unbroken digit run each digit is a point.  Use separators (space or
    comma) for points with two or more digits.  Fixed points are implied;
    ``()`` or an empty string is the identity (``degree`` then required).
    """
    s = text.strip()
    if degree is not None and degree < 0:
        raise ValueError("degree must be nonnegative")
    if s.replace(" ", "") in ("", "()"):
        if degree is None:
            raise ValueError("degree required for identity input")
        return identity(degree)
    chunks = _CYCLE_RE.findall(s)
    if not chunks or _CYCLE_RE.sub("", s).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles_1based: list[list[int]] = []
    for chunk in chunks:
        tokens = [t for t in re.split(r"[\s,]+", chunk.strip()) if t]
        if not tokens:
            continue
        if len(tokens) == 1 and len(tokens[0]) > 1:
            points = [int(ch) for ch in tokens[0]]  # compact digit form
        else:
            points = [int(t) for t in tokens]
        if any(x < 1 for x in points):
            raise ValueError("points are 1-based and positive")
        cycles_1based.append(points)
    top = max((x for c in cycles_1based for x in c), default=0)
    d = degree if degree is not None else top
    if top > d:
        raise ValueError(f"point {top} exceeds degree {d}")
    out = list(range(d))
    used = set()
    for cyc in cycles_1based:
        for x in cyc:
            if x in used:
                raise ValueError(f"point {x} repeated")
            used.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a - 1] = b - 1
    return tuple(out)


def cycle_string(p: Perm) -> str:
    """Inverse of :func:`parse_cycles`: 1-based, fixed points omitted.

    >>> cycle_string(parse_cycles("(2 3)(1 5)", 6))
    '(1 5)(2 3)'
    >>> cycle_string(identity(4))
    '()'
    """
    parts = []
    for cyc in cycles(p):
        if len(cyc) < 2:
            continue
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# partitions and conjugacy classes


def partitions(n: int) -> list[Partition]:
    """All partitions of ``n``, descending parts, reverse-lex order
    (``(n,)`` first, ``(1,..,1)`` last)."""
    return list(_partitions_cached(n))


@lru_cache(maxsize=None)
def _partitions_cached(n: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def as_partition(spec: str | Iterable[int], degree: Optional[int] = None) -> Partition:
    """The parts of a caller's partition, as integers, descending.

    ``spec`` is a sequence of parts (integers or their text) or a spelling
    like ``"3"``, ``"2,2"`` or ``"3 1 1"``.  Raises TypeError on any other
    part (such as 2.5), ValueError on a part below 1 and, when ``degree``
    is given, on parts that do not sum to it.

    >>> as_partition("1, 3 1"), as_partition([2, 2], 4)
    ((3, 1, 1), (2, 2))
    """
    if isinstance(spec, str):
        spec = spec.replace(",", " ").split()
    parts = tuple(sorted([int(x) if isinstance(x, str) else index(x) for x in spec],
                         reverse=True))
    if parts and parts[-1] < 1:
        raise ValueError("partition parts must be positive")
    if degree is not None and sum(parts) != degree:
        raise ValueError(f"{list(parts)} is not a partition of {degree}")
    return parts


def multiplicities(parts: Partition) -> dict[int, int]:
    """Map cycle length -> number of cycles, in order of first appearance."""
    out: dict[int, int] = {}
    for l in parts:
        out[l] = out.get(l, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, by trial division up to its square root."""
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def class_size(parts: Partition) -> int:
    """Size of the conjugacy class with the given cycle type.

    >>> class_size((2, 1, 1, 1))
    10
    """
    return factorial(sum(parts)) // centralizer_order(parts)


@lru_cache(maxsize=None)
def type_weight(parts: Partition) -> Fraction:
    """Sum of (number of cycles of length l) / l, as an exact rational,
    memoized per partition."""
    out = Fraction(0)
    for l, a in multiplicities(parts).items():
        out += Fraction(a, l)
    return out


def type_rep(parts: Partition) -> Perm:
    """Canonical permutation of the given cycle type: cycles on consecutive
    points, longest first.  ``type_rep((3, 2))`` is ``(1 2 3)(4 5)``."""
    d = sum(parts)
    out = list(range(d))
    start = 0
    for l in sorted(parts, reverse=True):
        for i in range(l):
            out[start + i] = start + (i + 1) % l
        start += l
    return tuple(out)


def class_elements(parts: Partition) -> Iterator[Perm]:
    """Yield every permutation with the given cycle type exactly once.

    The cycle containing the smallest unplaced point is chosen first, so
    each permutation has a unique construction path; trying each distinct
    remaining length once avoids duplicates among equal-length cycles.
    """
    lengths = as_partition(parts)
    d = sum(lengths)
    acc: list[tuple[int, ...]] = []

    def rec(remaining: tuple[int, ...], free: list[int]):
        if not free:
            out = list(range(d))
            for cyc in acc:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    out[a] = b
            yield tuple(out)
            return
        leader = free[0]
        others = free[1:]
        tried: set[int] = set()
        for idx, l in enumerate(remaining):
            if l in tried:
                continue
            tried.add(l)
            rest = remaining[:idx] + remaining[idx + 1 :]
            for tail in itertools.permutations(others, l - 1):
                acc.append((leader,) + tail)
                left = [x for x in others if x not in tail]
                yield from rec(rest, left)
                acc.pop()

    yield from rec(lengths, list(range(d)))


# ---------------------------------------------------------------------------
# transitivity, cycle layouts, centralizers


def orbit_of(point: int, gens: Sequence[Perm]) -> list[int]:
    """Orbit of ``point`` in breadth-first order, taking the generators in
    the given order at each point.  Reached points are marked in one flag
    per point of the generators' degree."""
    if not gens:
        return [point]
    seen = [False] * len(gens[0])
    seen[point] = True
    out = [point]
    for x in out:
        for g in gens:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                out.append(y)
    return out


def orbits(gens: Sequence[Perm], degree: int) -> list[tuple[int, ...]]:
    """Orbits of the group generated on {0..degree-1}, each sorted, listed
    by smallest point."""
    seen: set[int] = set()
    out = []
    for start in range(degree):
        if start not in seen:
            orbit = orbit_of(start, gens)
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return out


def is_transitive(gens: Sequence[Perm], degree: int) -> bool:
    """Whether the group generated acts transitively on {0..degree-1}.

    >>> is_transitive([parse_cycles("(1 5)", 5), parse_cycles("(1 2 3 4)", 5)], 5)
    True
    """
    if degree <= 1:
        return True
    if not gens:
        return False
    return len(orbit_of(0, gens)) == degree


def cycle_layout(p: Perm) -> tuple[Partition, Perm]:
    """The cycle type of ``p`` and the labelling ``t`` that lays its
    cycles onto consecutive points, longest first, so that
    ``t p t^-1 == type_rep(cycle_type(p))``.

    >>> cycle_layout(parse_cycles("(1 3)(2 4 5)", 5))
    ((3, 2), (3, 0, 4, 1, 2))
    """
    laid = sorted(cycles(p), key=len, reverse=True)
    return tuple(map(len, laid)), inverse([x for cyc in laid for x in cyc])


def _length_blocks(parts: Partition) -> list[tuple[int, list[list[int]]]]:
    """Blocks of ``type_rep(parts)``: for each length, its cycles as point
    lists (consecutive ranges, in order)."""
    out: list[tuple[int, list[list[int]]]] = []
    start = 0
    for l in sorted(parts, reverse=True):
        if out and out[-1][0] == l:
            out[-1][1].append(list(range(start, start + l)))
        else:
            out.append((l, [list(range(start, start + l))]))
        start += l
    return out


def centralizer_order(parts: Partition) -> int:
    out = 1
    for l, a in multiplicities(parts).items():
        out *= l**a * factorial(a)
    return out


def centralizer_groups(
    parts: Partition,
) -> Iterator[tuple[tuple[int, ...], Iterator[Perm]]]:
    """The centralizer of ``type_rep(parts)``, grouped by the permutation
    of its cycles: an element turns each cycle and carries it onto a cycle
    of equal length.  Number the cycles in point order; for each ``pi``
    that keeps lengths, yield ``(pi, elements)``, where ``elements`` lazily
    yields the z that carry cycle i onto cycle ``pi[i]``, one per choice of
    turns.  A group that is not iterated builds nothing, and no group's
    elements are held in memory.
    """
    d = sum(parts)
    blocks = _length_blocks(parts)
    firsts = list(itertools.accumulate((len(cycs) for _, cycs in blocks), initial=0))
    turns = [[[c[r:] + c[:r] for r in range(l)] for c in cycs] for l, cycs in blocks]

    def elements(choice: tuple[tuple[int, ...], ...]) -> Iterator[Perm]:
        out = list(range(d))

        def fill(i: int) -> Iterator[Perm]:  # blocks are consecutive point ranges
            if i == len(blocks):
                yield tuple(out)
                return
            l, cycs = blocks[i]
            span = slice(cycs[0][0], cycs[-1][-1] + 1)
            targets = [turns[i][k] for k in choice[i]]
            for rots in itertools.product(range(l), repeat=len(cycs)):
                out[span] = [x for t, r in zip(targets, rots) for x in t[r]]
                yield from fill(i + 1)

        return fill(0)

    block_perms = [itertools.permutations(range(len(cycs))) for _, cycs in blocks]
    for choice in itertools.product(*block_perms):
        pi = tuple(first + k for first, perm in zip(firsts, choice) for k in perm)
        yield pi, elements(choice)


# ---------------------------------------------------------------------------
# generated-group order and classification


def group_order(gens: Iterable[Perm], degree: int) -> int:
    """Order of the permutation group generated, by a Schreier-Sims style
    orbit/stabilizer recursion with Schreier generators."""
    current = sorted({tuple(g) for g in gens if not is_identity(g)})
    order = 1
    while current:
        base = min(i for g in current for i in range(degree) if g[i] != i)
        transversal: dict[int, Perm] = {base: identity(degree)}
        frontier = [base]
        while frontier:
            nxt = []
            for x in frontier:
                for g in current:
                    y = g[x]
                    if y not in transversal:
                        transversal[y] = compose(g, transversal[x])
                        nxt.append(y)
            frontier = nxt
        order *= len(transversal)
        schreier: set[Perm] = set()
        for x, u in transversal.items():
            for g in current:
                w = compose(inverse(transversal[g[x]]), compose(g, u))
                if not is_identity(w):
                    schreier.add(w)
        current = sorted(schreier)
    return order


GroupKind = Literal["symmetric", "alternating", "other"]


def classify_group(gens: Sequence[Perm], degree: int) -> GroupKind:
    """Classify the generated group as the full symmetric group, the
    alternating group, or anything else (including intransitive groups)."""
    if degree <= 1:
        return "symmetric"
    if not is_transitive(gens, degree):
        return "other"
    order = group_order(gens, degree)
    if order == factorial(degree):
        return "symmetric"
    if 2 * order == factorial(degree):
        return "alternating"
    return "other"
