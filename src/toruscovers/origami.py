"""Square-tiled-surface view of cover pairs.

A pair (alpha, beta) is the same thing as a surface glued from d unit
squares: h = beta sends each square to its right neighbor, v = alpha to
its upper neighbor.  The commutator's nontrivial cycles are the cone
points; cycles of h are horizontal annuli, and consecutive annuli weld
into a common cylinder exactly when no cone point sits on the interface
circle, i.e. when h(v(i)) = v(h(i)) for every square i of the lower
annulus.

The shear U (the pair map (alpha, beta) -> (alpha beta, beta)) and the
quarter turn R (the pair map (alpha, beta) -> (beta^-1, alpha)) act on
classes only: U is the twist b and R = a b^-1 a, both read off the
twist tables (see monodromy and ur_orbits).

Convention note: h = beta, v = alpha is forced by the worked cylinder
examples; with it, a one-cylinder surface is one whose beta is a single
d-cycle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .covers import ConsistencyError, CoverClass
from .monodromy import quarter_turn, twist_tables
from .perms import (
    Perm,
    cycle_string,
    cycle_type,
    cycles,
    commutator,
    is_transitive,
    orbits,
    sign,
)


@dataclass(frozen=True)
class SquareTiledSurface:
    """d unit squares labeled 1..d with right-neighbor permutation h and
    up-neighbor permutation v (0-based tuples internally, like Perm)."""

    v: Perm
    h: Perm

    def __post_init__(self):
        if len(self.v) != len(self.h):
            raise ValueError("v and h must have the same degree")
        if not self.h:
            raise ValueError("a surface needs at least one square")
        if not is_transitive([self.v, self.h], len(self.v)):
            raise ValueError("surface is not connected")

    @property
    def degree(self) -> int:
        return len(self.h)

    @classmethod
    def from_pair(cls, cover: CoverClass) -> "SquareTiledSurface":
        return cls(v=cover.alpha, h=cover.beta)

    def __str__(self) -> str:
        return f"(v={cycle_string(self.v)}, h={cycle_string(self.h)})"


def singularities(s: SquareTiledSurface) -> list[int]:
    """Cone angles as multiples of 2*pi, one entry per nontrivial
    commutator cycle, descending.  A length-l cycle is a cone point of
    angle 2*pi*l; regular points are omitted."""
    return [l for l in cycle_type(commutator(s.v, s.h)) if l >= 2]


def singular_squares(s: SquareTiledSurface) -> frozenset[int]:
    """1-based labels of squares moved by the commutator (the support of
    the cone points)."""
    c = commutator(s.v, s.h)
    return frozenset(i + 1 for i in range(len(c)) if c[i] != i)


def cylinders(s: SquareTiledSurface) -> list[tuple[int, int]]:
    """(circumference, height) of the horizontal cylinders, ordered by
    their smallest square label.

    Height counts merged annuli; the interface above an annulus is
    smooth (so the next annulus joins the same cylinder) iff
    h(v(i)) = v(h(i)) for every i on it."""
    return [(len(rows[0]), len(rows)) for rows in _cylinder_rows(s)]


def _cylinder_rows(s: SquareTiledSurface) -> list[list[tuple[int, ...]]]:
    """Cylinders as lists of annuli (bottom first), each annulus a tuple
    of 0-based squares in h-order; cylinders sorted by smallest label."""
    annuli = cycles(s.h)  # includes fixed points as 1-cycles
    index = {i: n for n, cyc in enumerate(annuli) for i in cyc}
    # annulus -> annulus above it within the same cylinder; v restricted
    # to a smooth interface is a bijection of annuli, so this map is
    # injective and its components are simple chains or simple loops.
    # A loop is invariant under v and h, so on a connected surface it is
    # the whole surface: there is no bottom annulus exactly when the
    # commutator is trivial, and then the one loop is read from annulus 0
    up = {
        n: index[s.v[cyc[0]]]
        for n, cyc in enumerate(annuli)
        if all(s.h[s.v[i]] == s.v[s.h[i]] for i in cyc)
    }
    out = []
    for start in sorted(set(range(len(annuli))) - set(up.values())) or [0]:
        stack = [annuli[start]]
        m = up.get(start)
        while m not in (None, start):
            stack.append(annuli[m])
            m = up.get(m)
        if len({len(a) for a in stack}) != 1:
            raise ConsistencyError("merged annuli of unequal circumference")
        out.append(stack)
    out.sort(key=lambda st: min(min(a) for a in st))
    return out


def ur_orbits(classes: Sequence[CoverClass]) -> list[tuple[int, ...]]:
    """Orbits of the <U, R> action on a list of cover classes, as sorted
    index tuples (sorted by smallest member).  U = b and R are read off
    the a and b tables, so ``classes`` must be closed under a and b, as
    every enumerated list and every component is."""
    a, b = twist_tables(classes)
    return orbits([b, quarter_turn(a, b)], len(classes))


def weierstrass_parity(cover: CoverClass) -> int:
    """Number of integer Weierstrass points of a genus-2 one-point cover
    with branching (3, 1^(d-3)): 1 when the pair generates the full
    symmetric group, 3 when it generates the alternating group.

    No group order is needed.  The commutator is a 3-cycle, so it cannot
    carry a block of size >= 2 onto another block: it fixes every block
    of <alpha, beta>, and a nontrivial block system makes the cover
    factor through an unramified cover of the base, an isogeny.  So a
    transitive pair generates a primitive group exactly when the cover
    is primitive (period-lattice index 1), and a primitive group holding
    a 3-cycle contains A_d (Jordan's theorem): it is S_d when alpha or
    beta is odd, A_d otherwise.  Imprimitive and intransitive groups are
    neither."""
    nontrivial = tuple(l for l in cover.commutator_type if l >= 2)
    if nontrivial != (3,):
        raise ValueError(
            "parity invariant is defined for the (3, 1^(d-3)) family only"
        )
    if not cover.is_primitive:  # raises ValueError on an intransitive pair
        raise ValueError("pair generates neither S_d nor A_d")
    return 1 if sign(cover.alpha) < 0 or sign(cover.beta) < 0 else 3


# ---------------------------------------------------------------------------
# rendering


def render_ascii(s: SquareTiledSurface) -> str:
    """Cylinder-by-cylinder grid of labeled squares, top annulus first;
    squares in the commutator support get a '*'."""
    marked = singular_squares(s)
    width = max(len(str(s.degree)) + 1, 3)
    blocks = []
    for stack in _cylinder_rows(s):
        lines = []
        rule = "+" + ("-" * width + "+") * len(stack[0])
        lines.append(rule)
        for annulus in reversed(stack):  # top row printed first
            cells = []
            for i in annulus:
                label = str(i + 1) + ("*" if i + 1 in marked else "")
                cells.append(label.center(width))
            lines.append("|" + "|".join(cells) + "|")
            lines.append(rule)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_svg(s: SquareTiledSurface) -> str:
    """SVG 1.1 document with one rectangle per square, cylinders stacked
    with a gap, cone-point squares dotted."""
    marked = singular_squares(s)
    unit, gap, pad = 40, 20, 10
    rows = _cylinder_rows(s)
    height = pad * 2 + sum(len(st) * unit for st in rows) + gap * (len(rows) - 1)
    width = pad * 2 + max(len(st[0]) for st in rows) * unit
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        '<g font-family="monospace" font-size="14" text-anchor="middle">',
    ]
    y = pad
    for stack in rows:
        for r, annulus in enumerate(reversed(stack)):
            for c, i in enumerate(annulus):
                x = pad + c * unit
                parts.append(
                    f'<rect x="{x}" y="{y + r * unit}" width="{unit}" '
                    f'height="{unit}" fill="white" stroke="black"/>'
                )
                parts.append(
                    f'<text x="{x + unit // 2}" y="{y + r * unit + unit // 2 + 5}">'
                    f"{i + 1}</text>"
                )
                if i + 1 in marked:
                    parts.append(
                        f'<circle cx="{x + 6}" cy="{y + r * unit + 6}" r="3" '
                        f'fill="black"/>'
                    )
        y += len(stack) * unit + gap
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(s: SquareTiledSurface, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(s)
    if format == "svg":
        return render_svg(s)
    raise ValueError(f"unknown format {format!r}")
