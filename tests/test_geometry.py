from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from toruscovers.covers import ConsistencyError, RamificationProfile, count_table, enumerate_classes
from toruscovers.geometry import (
    CurveInvariants,
    component_rows,
    component_slope,
    curve_invariants,
    euler_orbifold,
    genus_from_orbits,
    orbifold_points,
    slope,
    slope_from_counts,
)
from toruscovers.monodromy import decompose
from toruscovers.perms import partitions


def test_slope_ingredients_smallest_case():
    prof = RamificationProfile.of(3, "3")
    res = slope_from_counts(prof, 3, Fraction(10, 3))
    assert res.delta == 40
    assert res.kappa == 8
    assert res.lam == 4
    assert res.slope == Fraction(10)


def test_slope_from_table_matches_direct():
    prof = RamificationProfile.of(5, "5")
    table = count_table(5, prof)
    res = slope(table)
    assert (res.N, res.M) == (40, Fraction(258, 5))
    assert res.slope == Fraction(1548, 169)


def test_empty_profile_gives_no_slope():
    prof = RamificationProfile.of(4, "4")  # odd parity, no covers
    res = slope(count_table(4, prof))
    assert res.N == 0 and res.slope is None


def test_slope_ten_for_small_genus_two_cases():
    for d, sigma in [(3, "3"), (4, "3"), (5, "3"), (4, "2,2"), (5, "2,2")]:
        prof = RamificationProfile.of(d, sigma)
        assert slope(count_table(d, prof)).slope == Fraction(10)


def test_component_slope_splits_the_genus_three_case():
    prof = RamificationProfile.of(5, "5")
    classes = enumerate_classes(5, prof)
    dec = decompose(5, prof, classes)
    by_size = {
        len(comp): component_slope(prof, [classes[i] for i in comp]).slope
        for comp in dec.components
    }
    assert by_size == {
        3: Fraction(28, 3),
        10: Fraction(9),
        12: Fraction(9),
        15: Fraction(28, 3),
    }


@pytest.mark.parametrize("d,sigma", [(5, "5"), (7, "3"), (7, "2,2")])
def test_component_slope_sums_the_class_weights(d, sigma):
    # M summed per beta type equals M summed class by class
    prof = RamificationProfile.of(d, sigma)
    classes = enumerate_classes(d, prof)
    for comp in (*decompose(d, prof, classes).components, range(len(classes))):
        members = [classes[i] for i in comp]
        s = component_slope(prof, members)
        assert s.N == len(members)
        assert s.M == sum((c.weight for c in members), Fraction(0))


def test_genus_from_orbits_riemann_hurwitz():
    # 2g - 2 = -2N + 12 * sum (orbit - 1)
    assert genus_from_orbits(3, [[0, 1], [2]]) == 4
    with pytest.raises(ConsistencyError):
        genus_from_orbits(2, [[0], [1]])  # would give 2g - 2 = -4


def test_genus_chi_orbifold_baseline():
    dec = decompose(3, RamificationProfile.of(3, "3"))
    inv = curve_invariants(dec)
    assert inv.genus == 4
    assert [(p.order, p.count) for p in inv.orbifold] == [(3, 1)]
    assert inv.chi == Fraction(-14)


def test_genus_known_values():
    cases = {
        (5, "3"): 88,
        (7, "3"): 343,
        (5, "2,2"): 85,
        (7, "2,2"): 633,
        (5, "5"): 117,
    }
    for (d, sigma), want in cases.items():
        dec = decompose(d, RamificationProfile.of(d, sigma))
        assert curve_invariants(dec).genus == want


def test_orbifold_points_genus_three_case():
    dec = decompose(5, RamificationProfile.of(5, "5"))
    pts = orbifold_points(dec, dec.local_orbits)
    assert [(p.order, p.count) for p in pts] == [(5, 3)]
    inv = curve_invariants(dec)
    assert inv.chi == Fraction(-1304, 5)


def test_orbifold_point_orders_divide_lcm_of_parts():
    for d, sigma in [(5, "3"), (6, "3"), (6, "2,2"), (7, "3")]:
        dec = decompose(d, RamificationProfile.of(d, sigma))
        for p in orbifold_points(dec, dec.local_orbits):
            assert p.order > 1 and p.count >= 1


def test_euler_orbifold_formula():
    # chi = 2 - 2g - 12 sum count (1 - 1/order)
    dec = decompose(3, RamificationProfile.of(3, "3"))
    pts = orbifold_points(dec, dec.local_orbits)
    assert euler_orbifold(4, pts) == 2 - 8 - 12 * (1 - Fraction(1, 3))


def test_per_component_invariants_sum_consistently():
    prof = RamificationProfile.of(5, "5")
    classes = enumerate_classes(5, prof)
    dec = decompose(5, prof, classes)
    genera = {
        len(comp): curve_invariants(dec, comp).genus for comp in dec.components
    }
    assert genera == {3: 4, 10: 33, 12: 31, 15: 52}


def test_component_rows_reject_a_component_mixing_primitive_and_pulled_back_covers(
    monkeypatch,
):
    prof = RamificationProfile.of(6, "3")
    dec = decompose(6, prof)
    assert [r["primitive"] for r in component_rows(prof, dec)] == [False, False, True]
    (prim,) = dec.primitive_components()
    monkeypatch.setitem(vars(dec.classes[prim[0]]), "is_primitive", False)
    with pytest.raises(ConsistencyError, match="mixes primitive"):
        component_rows(prof, dec)


def test_invariants_as_dict_serializes_fractions_as_strings():
    dec = decompose(5, RamificationProfile.of(5, "5"))
    d = curve_invariants(dec).as_dict()
    assert d["chi"] == "-1304/5"
    assert isinstance(d["genus"], int)


@lru_cache(maxsize=None)
def _decompositions(d):
    """Every sigma of degree d that has covers, with its decomposition."""
    out = []
    for sigma in partitions(d):
        prof = RamificationProfile.of(d, sigma)
        dec = decompose(d, prof)
        if dec.classes:
            out.append(dec)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_local_orbits_lie_in_one_component_and_riemann_hurwitz_parity(data):
    d = data.draw(st.integers(1, 7), label="d")
    dec = data.draw(st.sampled_from(_decompositions(d)), label="sigma")
    comp_of = {i: n for n, comp in enumerate(dec.components) for i in comp}
    for orbit in dec.local_orbits:
        assert len({comp_of[i] for i in orbit}) == 1
    # -2N + 12 sum(|o| - 1) = 2g - 2 over the base, for the whole curve
    # (component None) and for each component
    curves = [(len(dec.classes), dec.local_orbits, None)] + [
        (len(c), dec.orbits_in_component(c), c) for c in dec.components
    ]
    for n, orbits, comp in curves:
        rhs = -2 * n + 12 * sum(len(o) - 1 for o in orbits)
        assert rhs % 2 == 0
        assert (rhs + 2) // 2 >= 0
        assert curve_invariants(dec, comp).genus == (rhs + 2) // 2
