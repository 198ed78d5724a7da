"""Degree-d covers of an elliptic curve branched over one point.

A cover is a pair of degree-d permutations (alpha, beta) whose commutator
lies in a prescribed conjugacy class, acting transitively; classes are
taken up to simultaneous conjugation.  The package enumerates them,
decomposes the set under the two elementary twists, and computes the
slope, genus, orbifold points and Euler characteristic of the resulting
families of curves, with character-theoretic and closed-form cross-checks.
"""

from .covers import (
    CapacityError,
    ConsistencyError,
    CountsTable,
    CoverClass,
    RamificationProfile,
    count_table,
    enumerate_classes,
)
from .geometry import (
    CurveInvariants,
    SlopeResult,
    component_slope,
    curve_invariants,
    genus_from_orbits,
    slope,
    slope_from_counts,
)
from .monodromy import OrbitDecomposition, decompose
from .origami import SquareTiledSurface, cylinders, render, weierstrass_parity

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "CountsTable",
    "CoverClass",
    "CurveInvariants",
    "OrbitDecomposition",
    "RamificationProfile",
    "SlopeResult",
    "SquareTiledSurface",
    "component_slope",
    "count_table",
    "curve_invariants",
    "cylinders",
    "decompose",
    "enumerate_classes",
    "genus_from_orbits",
    "render",
    "slope",
    "slope_from_counts",
    "weierstrass_parity",
    "__version__",
]
