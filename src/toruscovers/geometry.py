"""Invariants of the family curve: slope, genus, orbifold structure.

The family of covers over the (compactified, 12-nodal-fiber) base pencil
is itself a curve Y fibered over a rational base.  Its numerical
invariants come out of the class counts:

    delta  = 12 M
    kappa  = (d - sum 1/l_i) N
    lambda = (delta + kappa) / 12
    slope  = delta / lambda

and its topology out of the monodromy orbits: Y covers the base with
degree N, branched only over the 12 nodal points, where the sheets above
each of them are the orbits of the local twist.  Riemann-Hurwitz then
pins the genus, and each local orbit carries a cyclic automorphism group
of order lcm(beta type) / orbit size, giving the orbifold points.

Every function here reads the class list or decomposition it is handed;
``covers.enumerate_classes`` and ``monodromy.decompose`` build those.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence

from .covers import ConsistencyError, CoverClass, CountsTable, RamificationProfile

if TYPE_CHECKING:  # monodromy reads formulas, which reads this module
    from .monodromy import OrbitDecomposition

N_DEGENERATE_FIBERS = 12


@dataclass(frozen=True)
class SlopeResult:
    N: int
    M: Fraction
    delta: Fraction
    kappa: Fraction
    lam: Fraction
    slope: Optional[Fraction]  # None when there are no covers

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "M": str(self.M),
            "delta": str(self.delta),
            "kappa": str(self.kappa),
            "lambda": str(self.lam),
            "slope": None if self.slope is None else str(self.slope),
        }


def slope_from_counts(
    profile: RamificationProfile, N: int, M: Fraction
) -> SlopeResult:
    if N == 0:
        zero = Fraction(0)
        return SlopeResult(0, zero, zero, zero, zero, None)
    delta = 12 * Fraction(M)
    kappa = profile.kappa_factor * N
    lam = (delta + kappa) / 12
    return SlopeResult(N, Fraction(M), delta, kappa, lam, delta / lam)


def slope(table: CountsTable) -> SlopeResult:
    return slope_from_counts(table.profile, table.N, table.M)


def component_slope(
    profile: RamificationProfile, members: Sequence[CoverClass]
) -> SlopeResult:
    """Slope of a component, or any list of classes, from its count and weights."""
    return slope(CountsTable.of(profile, Counter(c.beta_type for c in members)))


# ---------------------------------------------------------------------------
# genus and orbifold points


def genus_from_orbits(
    n_classes: int, orbits: Sequence[Sequence[int]]
) -> int:
    """Riemann-Hurwitz over the rational base: degree n_classes, sheets
    above each of the 12 special points grouped into the given orbits."""
    excess = sum(len(o) - 1 for o in orbits)
    rhs = -2 * n_classes + N_DEGENERATE_FIBERS * excess
    if rhs % 2:
        raise ConsistencyError("Riemann-Hurwitz parity violated")
    g = (rhs + 2) // 2
    if g < 0:
        raise ConsistencyError("negative genus")
    return g


@dataclass(frozen=True)
class OrbifoldPoint:
    order: int
    count: int  # per degenerate fiber


def orbifold_points(
    decomposition: OrbitDecomposition, orbits: Sequence[Sequence[int]]
) -> list[OrbifoldPoint]:
    """Orbifold points per degenerate fiber: each local orbit carries the
    cyclic group of order lcm(beta type)/orbit size; orders > 1 are
    reported, aggregated by order."""
    tally: dict[int, int] = {}
    for orbit in orbits:
        parts = decomposition.classes[orbit[0]].beta_type
        full = lcm(*parts)
        if full % len(orbit):
            raise ConsistencyError(
                f"orbit size {len(orbit)} does not divide lcm {full} of {parts}"
            )
        order = full // len(orbit)
        if order > 1:
            tally[order] = tally.get(order, 0) + 1
    return [OrbifoldPoint(o, n) for o, n in sorted(tally.items())]


def euler_orbifold(genus: int, points: Sequence[OrbifoldPoint]) -> Fraction:
    """Orbifold Euler characteristic: 2 - 2g minus the defect of the
    orbifold points over all 12 degenerate fibers."""
    defect = sum(
        (p.count * (1 - Fraction(1, p.order)) for p in points), Fraction(0)
    )
    return 2 - 2 * genus - N_DEGENERATE_FIBERS * defect


@dataclass(frozen=True)
class CurveInvariants:
    genus: Optional[int]  # None (and chi None) when there are no covers
    orbifold: tuple[OrbifoldPoint, ...]
    chi: Optional[Fraction]

    def as_dict(self) -> dict:
        return {
            "genus": self.genus,
            "orbifold": [{"order": p.order, "count": p.count} for p in self.orbifold],
            "chi": None if self.chi is None else str(self.chi),
        }


def curve_invariants(
    decomposition: OrbitDecomposition,
    component: Optional[tuple[int, ...]] = None,
) -> CurveInvariants:
    """Genus, orbifold points and orbifold Euler characteristic of the
    whole curve, or of one component if given."""
    if component is None:
        component = tuple(range(len(decomposition.classes)))
    if not component:
        return CurveInvariants(None, (), None)
    orbits = decomposition.orbits_in_component(component)
    g = genus_from_orbits(len(component), orbits)
    pts = orbifold_points(decomposition, orbits)
    return CurveInvariants(g, tuple(pts), euler_orbifold(g, pts))


def component_rows(
    profile: RamificationProfile, decomposition: OrbitDecomposition
) -> list[dict]:
    """Size, slope, genus and primitivity of each component, sorted by
    size, then slope."""
    primitive = set(decomposition.primitive_components())
    rows = []
    for comp in decomposition.components:
        members = [decomposition.classes[i] for i in comp]
        rows.append(
            {
                "size": len(comp),
                "slope": str(component_slope(profile, members).slope),
                "genus": curve_invariants(decomposition, comp).genus,
                "primitive": comp in primitive,
            }
        )
    rows.sort(key=lambda r: (r["size"], r["slope"]))
    return rows
