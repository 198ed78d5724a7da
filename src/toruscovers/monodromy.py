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

Without a class list, ``decompose`` at a prime degree of a closed family
(sigma (3), (2,2) or (5), see ``formulas``) walks the classes instead of
enumerating them.  The seeds are the classes whose beta has type (d) or
(d-1,1): their centralizers have order d and d-1, so
``covers._alphas_for_type`` finds them cheaply.  A breadth-first walk
over <a, b> from the seeds, keyed by the origami key, reaches the rest,
canonicalizing each new class once; each class costs the key walks of
its two images.  The seeds reach every component at prime d (a
component with neither type shows up at composite d, such as d=12 for
(3)), but that is never assumed: the walked classes' N and M must equal
``formulas.closed_N_M``, the closed count at prime d, or the walk
raises ConsistencyError.  The classes are then put in enumeration
order, so the decomposition is the one of the enumerated list.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import formulas
from .covers import (
    DEFAULT_MAX_DEGREE,
    ConsistencyError,
    CountsTable,
    CoverClass,
    RamificationProfile,
    _alphas_by_type,
    _check_degree,
    _type_context,
    enumerate_classes,
)
from .perms import compose, cycles, inverse, is_prime, orbits


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
    Without ``classes``, finds them under the bound ``max_degree``: by the
    seeded walk at a prime degree of a closed family, else by
    enumeration."""
    if classes is None:
        family = formulas.family_of(profile)
        if family is not None and is_prime(degree):
            classes = _walked_classes(degree, profile, family, max_degree)
        else:
            classes = enumerate_classes(degree, profile, max_degree=max_degree)
    classes = tuple(classes)
    a, b = twist_tables(classes)
    return OrbitDecomposition(
        classes, tuple(orbits([a, b], len(classes))), tuple(cycles(b))
    )


def _walked_classes(
    degree: int, profile: RamificationProfile, family: str, max_degree: int,
) -> list[CoverClass]:
    """The classes of ``profile`` at prime ``degree``, in
    :func:`enumerate_classes` order, by the walk of <a, b> from the seeds
    (see the module docstring), gated by the closed count of ``family``."""
    _check_degree(degree, profile, max_degree)
    found: dict[bytes, CoverClass] = {}
    for parts, alphas in _alphas_by_type(profile, [(degree,), (degree - 1, 1)]):
        beta0 = _type_context(parts).rep
        for alpha in alphas:
            c = CoverClass(alpha, beta0)
            found[c.key] = c
    classes = list(found.values())
    for c in classes:  # grows as the walk goes
        for pair, walk in c._twist_walks():
            if walk[0] not in found:
                found[walk[0]] = image = CoverClass._with_walk(pair, walk)
                classes.append(image)
    table = CountsTable.of(profile, Counter(c.beta_type for c in classes))
    N, M = formulas.closed_N_M(degree, family)
    if (table.N, table.M) != (N, M):
        raise ConsistencyError(
            f"the walk from the seeds reached N={table.N} M={table.M} at "
            f"d={degree} sigma={profile}, the closed count N={N} M={M}")
    classes.sort(key=lambda c: c.alpha)
    classes.sort(key=lambda c: c.beta_type, reverse=True)  # stable: beta type, then alpha
    return classes


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
