import xml.etree.ElementTree as ET
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from toruscovers.covers import CoverClass, RamificationProfile, enumerate_classes
from toruscovers.monodromy import decompose
from toruscovers.origami import (
    SquareTiledSurface,
    _cylinder_rows,
    cylinders,
    render,
    render_ascii,
    render_svg,
    singular_squares,
    singularities,
    ur_orbits,
    weierstrass_parity,
)
from toruscovers.perms import (
    classify_group,
    commutator,
    compose,
    conjugate,
    cycle_string,
    cycles,
    inverse,
    parse_cycles,
    partitions,
)


def _surface(v, h, d=None):
    return SquareTiledSurface(v=parse_cycles(v, d), h=parse_cycles(h, d))


# the five worked surfaces used throughout the tests
E1 = lambda: _surface("(1 5)", "(1 2 3 4)", 5)
E2 = lambda: _surface("(1 2 4 3 5)", "(1 2 3 4 5)")
E3 = lambda: _surface("(1 2 6 4 5 3 7)", "(1 2 3 4 5 6 7)")
E4 = lambda: _surface("(1 3 5 7 6 2 4)", "(1 2)(3 4)(5 6 7)", 7)
E5 = lambda: _surface(
    "(1 6 8 10)(2 4 11 3 5 7 9)", "(1 2 3)(4 5 6)(7 8)(9 10)", 11
)


def test_surface_requires_connectedness():
    with pytest.raises(ValueError):
        SquareTiledSurface(v=parse_cycles("(1 2)", 4), h=parse_cycles("(3 4)", 4))
    with pytest.raises(ValueError, match="at least one square"):
        SquareTiledSurface(v=(), h=())
    with pytest.raises(ValueError, match="same degree"):
        SquareTiledSurface(v=(0, 1), h=(0,))


def test_worked_example_commutators():
    assert cycle_string(commutator(E1().v, E1().h)) == "(1 5 2)"
    assert cycle_string(commutator(E2().v, E2().h)) == "(1 3 4)"
    assert singularities(E3()) == [2, 2]
    assert singularities(E4()) == [2, 2]
    assert cycle_string(commutator(E4().v, E4().h)) == "(1 6)(2 5)"


def test_singularities_and_support():
    assert singularities(E1()) == [3]
    assert singular_squares(E1()) == frozenset({1, 2, 5})
    assert singularities(E5()) == [2, 2]


def test_cylinder_decompositions():
    assert cylinders(E1()) == [(4, 1), (1, 1)]
    assert cylinders(E3()) == [(7, 1)]
    assert cylinders(E4()) == [(2, 2), (3, 1)]
    assert cylinders(E5()) == [(3, 2), (2, 2), (1, 1)]


def test_cylinder_area_equals_degree():
    for d, sigma in [(5, "3"), (5, "5"), (6, "2,2")]:
        prof = RamificationProfile.of(d, sigma)
        for c in enumerate_classes(d, prof):
            s = SquareTiledSurface.from_pair(c)
            assert sum(w * h for w, h in cylinders(s)) == d


def _two_pass_cylinder_rows(s):
    """The former ``_cylinder_rows``: chains from their bottoms in one
    pass, then the leftover loops, each turned to start at the annulus
    holding the smallest square."""
    annuli = cycles(s.h)
    index = {}
    for n, cyc in enumerate(annuli):
        for i in cyc:
            index[i] = n
    up = {}
    for n, cyc in enumerate(annuli):
        if all(s.h[s.v[i]] == s.v[s.h[i]] for i in cyc):
            up[n] = index[s.v[cyc[0]]]
    merged_into = set(up.values())
    assigned = [False] * len(annuli)
    stacks = []
    for n in range(len(annuli)):  # chains, from their bottoms
        if assigned[n] or n in merged_into:
            continue
        chain = [n]
        assigned[n] = True
        while chain[-1] in up:
            m = up[chain[-1]]
            chain.append(m)
            assigned[m] = True
        stacks.append(chain)
    for n in range(len(annuli)):  # what remains are loops
        if assigned[n]:
            continue
        loop = [n]
        assigned[n] = True
        m = up[n]
        while m != n:
            loop.append(m)
            assigned[m] = True
            m = up[m]
        low = min(range(len(loop)), key=lambda i: min(annuli[loop[i]]))
        stacks.append(loop[low:] + loop[:low])
    out = []
    for chain in stacks:
        stack = [annuli[m] for m in chain]
        if len({len(a) for a in stack}) != 1:
            raise RuntimeError("merged annuli of unequal circumference")
        out.append(stack)
    out.sort(key=lambda st: min(min(a) for a in st))
    return out


@pytest.mark.parametrize("d", range(1, 8))
def test_cylinder_rows_match_two_pass_walk(d):
    # every class of every sigma, with its quarter-turn and shear images
    checked = 0
    for sigma in partitions(d):
        for c in enumerate_classes(d, RamificationProfile.of(d, sigma)):
            s = SquareTiledSurface.from_pair(c)
            # the quarter turn (h^-1, v) and the shear (v h, h) of s
            turn = SquareTiledSurface(inverse(s.h), s.v)
            shear = SquareTiledSurface(compose(s.v, s.h), s.h)
            for t in (s, turn, shear):
                assert _cylinder_rows(t) == _two_pass_cylinder_rows(t), str(t)
                checked += 1
    assert checked == 3 * {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163}[d]


@pytest.mark.parametrize("d", range(1, 8))
def test_no_bottom_annulus_exactly_when_commutator_is_trivial(d):
    # _cylinder_rows walks up from the bottom annuli only, and reads one
    # loop from annulus 0 when there is none
    loops = 0
    for sigma in partitions(d):
        for c in enumerate_classes(d, RamificationProfile.of(d, sigma)):
            s = SquareTiledSurface.from_pair(c)
            annuli = cycles(s.h)
            index = {i: n for n, cyc in enumerate(annuli) for i in cyc}
            above = {
                index[s.v[cyc[0]]]
                for cyc in annuli
                if all(s.h[s.v[i]] == s.v[s.h[i]] for i in cyc)
            }
            trivial = commutator(s.v, s.h) == tuple(range(d))
            assert (len(above) == len(annuli)) == trivial, str(s)
            if trivial:
                rows = _cylinder_rows(s)
                assert len(rows) == 1 and rows[0][0] == annuli[0], str(s)
                assert sorted(rows[0]) == annuli, str(s)
                loops += 1
    # the unramified covers: one class per sublattice of index d
    assert loops == sum(k for k in range(1, d + 1) if d % k == 0)


def test_vertical_loop_cylinder():
    # unramified double cover: one cylinder of circumference 1, height 2
    s = _surface("(1 2)", "()", 2)
    assert cylinders(s) == [(1, 2)]


def test_round_trip_through_cover_class():
    prof = RamificationProfile.of(5, "5")
    for c in enumerate_classes(5, prof):
        s = SquareTiledSurface.from_pair(c)
        back = CoverClass.from_pair(s.v, s.h)
        assert (back.alpha, back.beta) == (c.alpha, c.beta)


def test_ur_orbits_match_monodromy_components():
    for d, sigma in [(4, "3"), (5, "3"), (5, "5"), (6, "2,2")]:
        prof = RamificationProfile.of(d, sigma)
        classes = enumerate_classes(d, prof)
        dec = decompose(d, prof, classes)
        got = {frozenset(o) for o in ur_orbits(classes)}
        want = {frozenset(c) for c in dec.components}
        assert got == want


def test_weierstrass_parity_values():
    assert weierstrass_parity(CoverClass.from_pair(E1().v, E1().h)) == 1
    assert weierstrass_parity(CoverClass.from_pair(E2().v, E2().h)) == 3


def test_weierstrass_parity_needs_three_cycle_class():
    with pytest.raises(ValueError):
        weierstrass_parity(CoverClass.from_pair(E4().v, E4().h))


def test_parity_is_constant_on_components():
    # prime degree: the group is S_d or A_d, so the parity is defined
    for d in (5, 7):
        prof = RamificationProfile.of(d, "3")
        dec = decompose(d, prof)
        for comp in dec.components:
            values = {weierstrass_parity(dec.classes[i]) for i in comp}
            assert len(values) == 1


@lru_cache(maxsize=None)
def _three_cycle_classes(d):
    return enumerate_classes(d, RamificationProfile.of(d, "3"))


NEITHER = "pair generates neither S_d nor A_d"


def _parity_by_group_order(cover):
    """The former route, kept here only as the oracle: classify the
    generated group through its Schreier-Sims order."""
    kind = classify_group([cover.alpha, cover.beta], cover.degree)
    return {"symmetric": 1, "alternating": 3}.get(kind, NEITHER)


def _parity_outcome(cover):
    try:
        return weierstrass_parity(cover)
    except ValueError as e:
        return str(e)


def test_parity_matches_group_classification():
    neither = Counter()
    for d in range(3, 9):
        for c in _three_cycle_classes(d):
            assert _parity_outcome(c) == _parity_by_group_order(c)
            if _parity_outcome(c) == NEITHER:
                assert not c.is_primitive
                neither[d] += 1
    # the isogeny pullbacks: d=6 and d=8 over degree 3 and 4 covers
    assert neither == {6: 9, 8: 27}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parity_is_invariant_under_relabelling(data):
    d = data.draw(st.sampled_from([3, 5, 6, 7, 8]), label="d")
    c = data.draw(st.sampled_from(_three_cycle_classes(d)), label="class")
    t = tuple(data.draw(st.permutations(range(d)), label="relabelling"))
    relabelled = CoverClass(conjugate(t, c.alpha), conjugate(t, c.beta))
    assert _parity_outcome(relabelled) == _parity_outcome(c)


def test_ascii_render():
    art = render_ascii(E1())
    assert "| 1*|" in art
    assert art.count("+---") >= 5


def test_svg_render_is_well_formed():
    doc = render_svg(E4())
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    texts = [t.text for t in root.iter() if t.tag.endswith("text")]
    assert {"1", "2", "3", "4", "5", "6", "7"} <= set(texts)


def test_render_dispatch():
    assert render(E1(), format="ascii") == render_ascii(E1())
    assert render(E1(), format="svg") == render_svg(E1())
    with pytest.raises(ValueError):
        render(E1(), format="png")
