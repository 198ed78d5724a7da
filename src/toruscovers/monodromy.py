"""Mapping-class / deck actions on cover classes.

The base of the family is a pencil of plane cubics: a rational curve whose
smooth fibers are elliptic curves and which crosses the boundary in 12
nodal fibers.  Going around the base permutes the covers of a fixed fiber
through the two standard twists

    a: (alpha, beta) -> (alpha, alpha beta)
    b: (alpha, beta) -> (alpha beta, beta)

and the local monodromy around each of the 12 degenerate fibers acts by
the same twist ``b``.  Orbits of <a, b> are the connected components of
the total space; orbits of ``b`` alone are its points above one nodal
fiber.  The elliptic involution acts by inv: (alpha, beta) ->
(alpha^-1, beta^-1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .covers import (
    DEFAULT_MAX_DEGREE,
    CoverClass,
    RamificationProfile,
    canonical_pair,
    enumerate_classes,
)
from .perms import Partition, Perm, compose, inverse

ACTION_NAMES = ("a", "b", "a_inv", "b_inv", "inv")


def _image_pair(name: str, alpha: Perm, beta: Perm) -> tuple[Perm, Perm]:
    if name == "a":
        return alpha, compose(alpha, beta)
    if name == "b":
        return compose(alpha, beta), beta
    if name == "a_inv":
        return alpha, compose(inverse(alpha), beta)
    if name == "b_inv":
        return compose(alpha, inverse(beta)), beta
    if name == "inv":
        return inverse(alpha), inverse(beta)
    raise ValueError(f"unknown action {name!r}; expected one of {ACTION_NAMES}")


def act(name: str, cover: CoverClass) -> CoverClass:
    """Apply one generator to a cover class and recanonicalize."""
    a, b = _image_pair(name, cover.alpha, cover.beta)
    return CoverClass.from_pair(a, b)


@dataclass(frozen=True)
class LocalOrbitSummary:
    beta_type: Partition
    size: int
    count: int


@dataclass(frozen=True)
class OrbitDecomposition:
    """Connected components and per-fiber ramification of the family curve
    over one branch class."""

    classes: tuple[CoverClass, ...]
    components: tuple[tuple[int, ...], ...]  # index tuples, sorted
    local_orbits: tuple[tuple[int, ...], ...]  # orbits of b, index tuples

    @property
    def component_sizes(self) -> list[int]:
        return [len(c) for c in self.components]

    def local_orbit_summary(self) -> list[LocalOrbitSummary]:
        tally: dict[tuple[Partition, int], int] = {}
        for orbit in self.local_orbits:
            t = self.classes[orbit[0]].beta_type
            key = (t, len(orbit))
            tally[key] = tally.get(key, 0) + 1
        return [
            LocalOrbitSummary(t, size, n)
            for (t, size), n in sorted(tally.items(), reverse=True)
        ]

    def orbits_in_component(self, component: tuple[int, ...]) -> list[tuple[int, ...]]:
        members = set(component)
        return [o for o in self.local_orbits if o[0] in members]

    def primitive_components(self) -> tuple[tuple[int, ...], ...]:
        """Components made of primitive covers (period lattice the full
        Z^2).  Primitivity is preserved by both twists, so each component
        is homogeneous; that is checked, not assumed."""
        out = []
        for comp in self.components:
            flags = {self.classes[i].is_primitive for i in comp}
            if len(flags) != 1:
                raise RuntimeError("component mixes primitive and pulled-back covers")
            if flags.pop():
                out.append(comp)
        return tuple(out)


def _index_map(classes: Sequence[CoverClass]) -> dict[tuple[Perm, Perm], int]:
    return {(c.alpha, c.beta): i for i, c in enumerate(classes)}


def _image_index(
    name: str, cover: CoverClass, index: dict[tuple[Perm, Perm], int]
) -> int:
    pair = canonical_pair(*_image_pair(name, cover.alpha, cover.beta))
    return index[pair]


def decompose(
    degree: int,
    profile: RamificationProfile,
    classes: Optional[Sequence[CoverClass]] = None,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> OrbitDecomposition:
    """Compute components (<a, b> orbits) and local orbits (b orbits).
    Without ``classes``, enumerates them under the bound ``max_degree``."""
    if classes is None:
        classes = enumerate_classes(degree, profile, max_degree=max_degree)
    classes = tuple(classes)
    index = _index_map(classes)

    # image of b for every class; a computed on demand during the sweep
    b_next = [_image_index("b", c, index) for c in classes]

    local: list[tuple[int, ...]] = []
    seen_local = [False] * len(classes)
    for i in range(len(classes)):
        if seen_local[i]:
            continue
        orbit = [i]
        seen_local[i] = True
        j = b_next[i]
        while j != i:
            seen_local[j] = True
            orbit.append(j)
            j = b_next[j]
        local.append(tuple(orbit))

    comps: list[tuple[int, ...]] = []
    seen = [False] * len(classes)
    for i in range(len(classes)):
        if seen[i]:
            continue
        frontier = [i]
        seen[i] = True
        members = [i]
        while frontier:
            nxt = []
            for j in frontier:
                targets = (b_next[j], _image_index("a", classes[j], index))
                for k in targets:
                    if not seen[k]:
                        seen[k] = True
                        members.append(k)
                        nxt.append(k)
            frontier = nxt
        comps.append(tuple(sorted(members)))
    return OrbitDecomposition(classes, tuple(comps), tuple(local))


def components(
    degree: int,
    profile: RamificationProfile,
    classes: Optional[Sequence[CoverClass]] = None,
) -> tuple[tuple[int, ...], ...]:
    return decompose(degree, profile, classes).components


def local_orbits(
    degree: int,
    profile: RamificationProfile,
    classes: Optional[Sequence[CoverClass]] = None,
) -> tuple[tuple[int, ...], ...]:
    return decompose(degree, profile, classes).local_orbits


# ---------------------------------------------------------------------------
# elliptic involution


def involution_image(cover: CoverClass) -> CoverClass:
    return act("inv", cover)


def is_involution_fixed(cover: CoverClass) -> bool:
    """Whether the class equals its own image under inv (such covers
    descend to the quotient with a fixed point)."""
    img = involution_image(cover)
    return (img.alpha, img.beta) == (cover.alpha, cover.beta)


def involution_pairs(
    classes: Sequence[CoverClass],
) -> list[tuple[int, Optional[int]]]:
    """Pairing of class indices under inv: (i, j) with i < j for swapped
    pairs, (i, None) for fixed classes."""
    index = _index_map(classes)
    out: list[tuple[int, Optional[int]]] = []
    done = set()
    for i, c in enumerate(classes):
        if i in done:
            continue
        j = _image_index("inv", c, index)
        if j == i:
            out.append((i, None))
            done.add(i)
        else:
            out.append((min(i, j), max(i, j)))
            done.update((i, j))
    return out


def quotient_class_count(classes: Sequence[CoverClass]) -> int:
    """Number of classes after identifying inv-swapped pairs."""
    return len(involution_pairs(classes))


# ---------------------------------------------------------------------------
# export


def action_graph_dot(classes: Sequence[CoverClass]) -> str:
    """Graphviz DOT text of the two-generator action on the class set."""
    index = _index_map(classes)
    lines = ["digraph action {"]
    for i, c in enumerate(classes):
        label = str(c).replace('"', "'")
        lines.append(f'  n{i} [label="{label}"];')
    for i, c in enumerate(classes):
        ia = _image_index("a", c, index)
        ib = _image_index("b", c, index)
        lines.append(f'  n{i} -> n{ia} [label="a"];')
        lines.append(f'  n{i} -> n{ib} [label="b" style=dashed];')
    lines.append("}")
    return "\n".join(lines)
