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
fiber.  The quarter turn of the square-tiled view,
R: (alpha, beta) -> (beta^-1, alpha), is the word a b^-1 a up to
conjugation by alpha^-1, and R^2 is the elliptic involution
inv: (alpha, beta) -> (alpha^-1, beta^-1).

So a and b are the only generators ever applied: each class holds the
origami keys of its a and b images (``CoverClass.twists``),
``twist_tables`` finds them among the classes' own keys
(``CoverClass.key``) and turns them into two tuples of class indices in
one pass, every other table is composed from those two, and every orbit
query reads the tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .covers import (
    DEFAULT_MAX_DEGREE,
    ConsistencyError,
    CoverClass,
    RamificationProfile,
    enumerate_classes,
)
from .perms import compose, cycles, inverse, orbits


def twist_tables(
    classes: Sequence[CoverClass],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index tables (a, b) of the two twists: for each class, the index in
    ``classes`` of its image.  Raises KeyError naming the class when the
    list is not closed under a twist."""
    index = {c.key: i for i, c in enumerate(classes)}
    tables: tuple[list[int], list[int]] = ([], [])
    for c in classes:
        for name, key, table in zip("ab", c.twists, tables):
            j = index.get(key)
            if j is None:
                raise KeyError(f"the {name} image of class {c} is not in the list")
            table.append(j)
    return tuple(tables[0]), tuple(tables[1])


def quarter_turn(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Index table of the quarter turn R = a b^-1 a from the a and b tables:
    that word sends (alpha, beta) to (alpha beta^-1 alpha^-1, alpha), which
    alpha^-1 conjugates to (beta^-1, alpha)."""
    return compose(a, compose(inverse(b), a))


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
                raise ConsistencyError(
                    "component mixes primitive and pulled-back covers"
                )
            if flags.pop():
                out.append(comp)
        return tuple(out)


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
    a, b = twist_tables(classes)
    return OrbitDecomposition(
        classes, tuple(orbits([a, b], len(classes))), tuple(cycles(b))
    )


# ---------------------------------------------------------------------------
# quarter turn and elliptic involution


def involution_pairs(
    classes: Sequence[CoverClass],
) -> list[tuple[int, Optional[int]]]:
    """Pairing of class indices under inv = R^2: (i, j) with i < j for
    swapped pairs, (i, None) for fixed classes.  ``classes`` must be
    closed under a and b, as every :func:`enumerate_classes` list and
    every component is."""
    r = quarter_turn(*twist_tables(classes))
    return [
        (cyc[0], cyc[1] if len(cyc) > 1 else None)
        for cyc in cycles(compose(r, r))
    ]


# ---------------------------------------------------------------------------
# export


def action_graph_dot(classes: Sequence[CoverClass]) -> str:
    """Graphviz DOT text of the two-generator action on the class set."""
    a, b = twist_tables(classes)
    lines = ["digraph action {"]
    for i, c in enumerate(classes):
        label = str(c).replace('"', "'")
        lines.append(f'  n{i} [label="{label}"];')
    for i in range(len(classes)):
        lines.append(f'  n{i} -> n{a[i]} [label="a"];')
        lines.append(f'  n{i} -> n{b[i]} [label="b" style=dashed];')
    lines.append("}")
    return "\n".join(lines)
