from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from toruscovers import covers, monodromy, perms
from toruscovers.covers import (
    CoverClass,
    RamificationProfile,
    canonical_pair,
    enumerate_classes,
    origami_key,
    period_lattice_index,
)
from toruscovers.monodromy import (
    action_graph_dot,
    decompose,
    involution_pairs,
    quarter_turn,
    twist_tables,
)
from toruscovers.formulas import per_type_N
from toruscovers.geometry import component_rows
from toruscovers.origami import ur_orbits
from toruscovers.perms import (
    commutator,
    compose,
    conjugate,
    cycle_type,
    cycles,
    inverse,
    parse_cycles,
    partitions,
)

# the pair maps of the twists a and b, and of the generators that the
# package reads off the a and b tables instead of canonicalizing; they are
# the oracle for those tables
_ORACLE = {
    "a": lambda alpha, beta: (alpha, compose(alpha, beta)),
    "b": lambda alpha, beta: (compose(alpha, beta), beta),
    "a_inv": lambda alpha, beta: (alpha, compose(inverse(alpha), beta)),
    "b_inv": lambda alpha, beta: (compose(alpha, inverse(beta)), beta),
    "inv": lambda alpha, beta: (inverse(alpha), inverse(beta)),
    "R": lambda alpha, beta: (inverse(beta), alpha),
}
GENERATORS = tuple(_ORACLE)


def _cls(alpha, beta, d):
    return CoverClass.from_pair(parse_cycles(alpha, d), parse_cycles(beta, d))


def _image(name, c):
    """One generator image of a class, canonicalized afresh."""
    return CoverClass.from_pair(*_ORACLE[name](c.alpha, c.beta))


def _oracle_table(name, classes):
    """Index table of one generator, every image canonicalized afresh."""
    index = {(c.alpha, c.beta): i for i, c in enumerate(classes)}
    return tuple(index[canonical_pair(*_ORACLE[name](c.alpha, c.beta))]
                 for c in classes)


def _tables(classes):
    """Every generator's index table, as the package derives it from the
    a and b tables."""
    a, b = twist_tables(classes)
    r = quarter_turn(a, b)
    return {"a": a, "b": b, "a_inv": inverse(a), "b_inv": inverse(b),
            "R": r, "inv": compose(r, r)}


def test_actions_preserve_commutator_class_and_transitivity():
    prof = RamificationProfile.of(5, "3")
    for c in enumerate_classes(5, prof):
        for name in ("a", "b", "inv"):
            img = _image(name, c)
            assert img.commutator_type == c.commutator_type
            assert img.degree == c.degree


def test_action_images_on_a_known_pair():
    c = _cls("(1 5)", "(1 2 3 4)", 5)
    a, b = c.alpha, c.beta
    # a: (alpha, beta) -> (alpha, alpha beta) and
    # b: (alpha, beta) -> (alpha beta, beta), up to conjugation
    want = [CoverClass.from_pair(a, compose(a, b)),
            CoverClass.from_pair(compose(a, b), b)]
    for g, w in zip("ab", want):
        img = _image(g, CoverClass.from_pair(a, b))
        assert (img.alpha, img.beta) == (w.alpha, w.beta)
    # the property holds the keys of the same two canonical pairs, a first
    assert c.twists == tuple(origami_key(w.alpha, w.beta) for w in want)


def test_actions_are_invertible_on_the_class_set():
    prof = RamificationProfile.of(6, "3")
    classes = enumerate_classes(6, prof)
    keys = {(c.alpha, c.beta) for c in classes}
    for name in ("a", "b", "inv"):
        images = {(i.alpha, i.beta) for i in (_image(name, c) for c in classes)}
        assert images == keys


def test_inv_is_an_involution():
    prof = RamificationProfile.of(5, "2,2")
    for c in enumerate_classes(5, prof):
        twice = _image("inv", _image("inv", c))
        assert (twice.alpha, twice.beta) == (c.alpha, c.beta)


def test_components_partition_the_classes():
    prof = RamificationProfile.of(6, "2,2")
    dec = decompose(6, prof)
    seen = sorted(i for comp in dec.components for i in comp)
    assert seen == list(range(len(dec.classes)))
    # local orbits refine components
    comp_of = {}
    for ci, comp in enumerate(dec.components):
        for i in comp:
            comp_of[i] = ci
    for orbit in dec.local_orbits:
        assert len({comp_of[i] for i in orbit}) == 1


def test_component_count_baseline_cases():
    assert len(decompose(3, RamificationProfile.of(3, "3")).components) == 1
    dec = decompose(5, RamificationProfile.of(5, "5"))
    assert sorted(len(c) for c in dec.components) == [3, 10, 12, 15]


def test_primitive_components_filter():
    # degree 6 with a 3-cycle: raw components include pullbacks of
    # lower-degree covers; the primitive ones have full period lattice
    dec = decompose(6, RamificationProfile.of(6, "3"))
    prim = dec.primitive_components()
    assert len(dec.components) == 3
    assert len(prim) == 1
    # degree 5 prime: everything is primitive
    dec5 = decompose(5, RamificationProfile.of(5, "3"))
    assert dec5.primitive_components() == dec5.components


def test_local_orbit_sizes_for_the_smallest_case():
    dec = decompose(3, RamificationProfile.of(3, "3"))
    sizes = sorted(len(o) for o in dec.local_orbits)
    assert sizes == [1, 2]  # beta types (3) and (2,1)


def test_quotient_count_and_fixed_classes():
    prof = RamificationProfile.of(5, "5")
    classes = enumerate_classes(5, prof)
    pairs = involution_pairs(classes)
    fixed = [i for i, j in pairs if j is None]
    swapped = [(i, j) for i, j in pairs if j is not None]
    assert len(fixed) + 2 * len(swapped) == len(classes)
    for i in fixed:
        img = _image("inv", classes[i])
        assert (img.alpha, img.beta) == (classes[i].alpha, classes[i].beta)
    for i, j in swapped:
        img = _image("inv", classes[i])
        assert (img.alpha, img.beta) == (classes[j].alpha, classes[j].beta)


@pytest.mark.parametrize("query", ["decompose", "involution_pairs", "ur_orbits"])
def test_queries_reject_a_list_not_closed_under_the_action(query):
    prof = RamificationProfile.of(5, "5")
    classes = enumerate_classes(5, prof)
    # drop one class of a swapped inv pair; its component has more than one
    # class, so a or b maps some kept class onto it.  Every query reads
    # the a and b tables only, so each names a class whose a or b image
    # was dropped
    i, j = next(p for p in involution_pairs(classes) if p[1] is not None)
    dropped, kept = classes[j], classes[:j] + classes[j + 1 :]
    run = {
        "decompose": lambda: decompose(5, prof, kept),
        "involution_pairs": lambda: involution_pairs(kept),
        "ur_orbits": lambda: ur_orbits(kept),
    }[query]
    with pytest.raises(KeyError, match="is not in the list") as err:
        run()
    named = [c for c in kept if f"of class {c} " in str(err.value)]
    assert len(named) == 1
    images = [_image(g, named[0]) for g in "ab"]
    assert (dropped.alpha, dropped.beta) in {(c.alpha, c.beta) for c in images}


def test_action_graph_dot_mentions_every_class():
    prof = RamificationProfile.of(3, "3")
    classes = enumerate_classes(3, prof)
    dot = action_graph_dot(classes)
    assert dot.startswith("digraph")
    for i in range(len(classes)):
        assert f"n{i}" in dot
    assert dot.count("->") >= 2 * len(classes)


def test_each_class_canonicalizes_each_generator_image_once(monkeypatch):
    prof = RamificationProfile.of(6, "2,2")
    expected = [
        decompose(6, prof, enumerate_classes(6, prof)),
        action_graph_dot(enumerate_classes(6, prof)),
        ur_orbits(enumerate_classes(6, prof)),
        involution_pairs(enumerate_classes(6, prof)),
    ]
    # the keys of the a and b images canonicalized afresh, before counting
    oracle = [tuple(_image(g, c).key for g in "ab")
              for c in enumerate_classes(6, prof)]
    calls = {"canonical_pair": [], "_key_walk": []}

    def counting(name):
        real = getattr(covers, name)

        def wrapper(alpha, beta):
            calls[name].append((alpha, beta))
            return real(alpha, beta)

        return wrapper

    for name in calls:
        monkeypatch.setattr(covers, name, counting(name))
    classes = enumerate_classes(6, prof)
    for made in calls.values():
        made.clear()
    got = [
        decompose(6, prof, classes),
        action_graph_dot(classes),
        ur_orbits(classes),
        involution_pairs(classes),
    ]
    assert got == expected
    # no image is canonicalized: each class keys itself and its a and b
    # images once each, and every other table is read off those two
    assert len(classes) == 88
    want = {"canonical_pair": 0, "_key_walk": 3 * len(classes)}
    assert {name: len(made) for name, made in calls.items()} == want
    # each class keeps its two image keys, which are the keys of the
    # classes the tables name, and the tables read them again
    a, b = twist_tables(classes)
    for c, i, j in zip(classes, a, b):
        assert c.twists == (classes[i].key, classes[j].key)
    assert [c.twists for c in classes] == oracle
    assert {name: len(made) for name, made in calls.items()} == want


def test_enumeration_and_primitivity_walk_no_orbits(monkeypatch):
    # the coset walk decides transitivity per block permutation of C(beta0),
    # and primitivity reads the key each class cached for the twist tables
    calls = {"is_transitive": 0, "orbit_of": 0, "_key_walk": 0}
    oracle = []

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for module in (perms, covers, monodromy):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # (5) has 4,550 classes in 7 primitive components; (3) has one
    # pullback component among its 3
    for sigma, sizes in (("5", (4550, 7, 7)), ("3", (201, 3, 2))):
        prof = RamificationProfile.of(9, sigma)
        calls.update(dict.fromkeys(calls, 0))
        classes = enumerate_classes(9, prof)
        assert calls["is_transitive"] == calls["orbit_of"] == 0
        dec = decompose(9, prof, classes)
        assert calls["_key_walk"] == 3 * len(classes)
        calls.update(dict.fromkeys(calls, 0))
        primitive = dec.primitive_components()
        assert calls == {"is_transitive": 0, "orbit_of": 0, "_key_walk": 0}
        assert (len(classes), len(dec.components), len(primitive)) == sizes
        oracle.append((classes, dec, primitive))
    monkeypatch.undo()
    for classes, dec, primitive in oracle:
        assert primitive == tuple(
            comp for comp in dec.components
            if period_lattice_index(classes[comp[0]].alpha, classes[comp[0]].beta) == 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_twists_are_the_canonical_a_and_b_images(d):
    # for every class of every sigma, the property holds the keys of the a
    # and b pair maps canonicalized afresh
    for sigma in partitions(d):
        for c in enumerate_classes(d, RamificationProfile.of(d, sigma)):
            assert c.twists == tuple(
                origami_key(*canonical_pair(*_ORACLE[g](c.alpha, c.beta)))
                for g in "ab"
            )


@lru_cache(maxsize=None)
def _classes_of_degree(d):
    return tuple(
        c
        for sigma in partitions(d)
        for c in enumerate_classes(d, RamificationProfile.of(d, sigma))
    )


@lru_cache(maxsize=None)
def _filled_tables(d):
    # every generator table of the degree-d classes, read twice: the second
    # read comes from the twists the first one filled
    classes = _classes_of_degree(d)
    first = _tables(classes)
    second = _tables(classes)
    assert first == second
    return second


@pytest.mark.parametrize("d", range(1, 7))
def test_twist_closure_on_action_tables(d):
    # for every sigma: the a and b tables are permutations of the list
    # whose inverses are the a_inv and b_inv images, and R has order 4
    for sigma in partitions(d):
        classes = enumerate_classes(d, RamificationProfile.of(d, sigma))
        t = _tables(classes)
        assert t["a_inv"] == _oracle_table("a_inv", classes)
        assert t["b_inv"] == _oracle_table("b_inv", classes)
        for i in range(len(classes)):
            assert t["a_inv"][t["a"][i]] == t["a"][t["a_inv"][i]] == i
            assert t["b_inv"][t["b"][i]] == t["b"][t["b_inv"][i]] == i
            assert t["inv"][t["inv"][i]] == i


@pytest.mark.parametrize("d", range(1, 8))
def test_quarter_turn_and_involution_read_off_a_and_b(d):
    # R = a b^-1 a and inv = R^2 on the index tables equal the images of
    # (beta^-1, alpha) and (alpha^-1, beta^-1) canonicalized afresh, for
    # every class of every sigma
    checked = 0
    for sigma in partitions(d):
        classes = enumerate_classes(d, RamificationProfile.of(d, sigma))
        assert quarter_turn(*twist_tables(classes)) == _oracle_table("R", classes)
        inv = _oracle_table("inv", classes)
        assert involution_pairs(classes) == [
            (cyc[0], cyc[1] if len(cyc) > 1 else None) for cyc in cycles(inv)
        ]
        checked += len(classes)
    assert checked == {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163}[d]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relabelling_invariance_and_twist_closure(data):
    d = data.draw(st.integers(1, 7), label="d")
    classes = _classes_of_degree(d)
    i = data.draw(st.integers(0, len(classes) - 1), label="class")
    t = tuple(data.draw(st.permutations(range(d)), label="relabelling"))
    g = data.draw(st.sampled_from(GENERATORS), label="generator")
    c = classes[i]
    relabelled = CoverClass(conjugate(t, c.alpha), conjugate(t, c.beta))
    fresh = CoverClass(c.alpha, c.beta)
    assert "twists" not in vars(fresh)
    assert canonical_pair(relabelled.alpha, relabelled.beta) == (c.alpha, c.beta)
    assert relabelled.stabilizer_order == fresh.stabilizer_order == c.stabilizer_order
    # the closure read off the tables of the list whose twists are filled,
    # and one image of the relabelled pair canonicalized afresh
    tables = _filled_tables(d)
    img = {name: table[i] for name, table in tables.items()}
    assert "twists" in vars(c)
    image = CoverClass.from_pair(*_ORACLE[g](relabelled.alpha, relabelled.beta))
    assert image == classes[img[g]]
    assert tables["a_inv"][img["a"]] == tables["a"][img["a_inv"]] == i
    assert tables["b_inv"][img["b"]] == tables["b"][img["b_inv"]] == i
    assert tables["R"][img["R"]] == img["inv"] and tables["inv"][img["inv"]] == i


# ---------------------------------------------------------------------------
# the seeded walk at prime degree

_WALKED = [("3", d) for d in (3, 5, 7, 11, 13)]
_WALKED += [("2,2", d) for d in (5, 7, 11, 13)]
_WALKED += [("5", d) for d in (5, 7, 11)]


@pytest.mark.parametrize("sigma,d", _WALKED)
def test_walk_equals_the_enumerated_decomposition(sigma, d):
    # without a list, decompose walks from the seeds at a prime degree of a
    # closed family; its classes stay in walk order, each held by the pair
    # that reached it, so the components and local orbits are those of the
    # enumerated list as sets of keys
    prof = RamificationProfile.of(d, sigma)
    walked = decompose(d, prof, max_degree=d)
    enumerated = decompose(d, prof, enumerate_classes(d, prof, max_degree=d), max_degree=d)

    def keyed(dec, orbits):
        return sorted(sorted(dec.classes[i].key for i in o) for o in orbits)

    assert keyed(walked, walked.components) == keyed(enumerated, enumerated.components)
    assert keyed(walked, walked.local_orbits) == keyed(enumerated, enumerated.local_orbits)
    # each walked class holds the key, automorphism count and image keys
    # of the enumerated class with its key
    by_key = {e.key: e for e in enumerated.classes}
    assert len(walked.classes) == len(by_key)
    for w in walked.classes:
        e = by_key[w.key]
        assert (w.key, w.stabilizer_order, w.twists) == (e.key, e.stabilizer_order, e.twists)
    assert component_rows(prof, walked) == component_rows(prof, enumerated)


def test_walk_past_the_bound_is_a_capacity_error():
    prof = RamificationProfile.of(11, "3")
    with pytest.raises(covers.CapacityError):
        decompose(11, prof)
    with pytest.raises(ValueError, match="profile degree mismatch"):
        decompose(7, RamificationProfile.of(5, "3"))


def test_walk_short_of_the_closed_count_raises(monkeypatch):
    # drop the seeds of the smaller (3) component at d=7: the walk reaches
    # only the 54 classes of the other, and the closed count says 90
    prof = RamificationProfile.of(7, "3")
    dec = decompose(7, prof, enumerate_classes(7, prof))
    assert dec.component_sizes == [54, 36]
    dropped = {(dec.classes[i].alpha, dec.classes[i].beta) for i in dec.components[1]}
    alphas_by_type = monodromy._alphas_by_type

    def short(profile, types):
        for parts, alphas in alphas_by_type(profile, types):
            beta0 = covers._type_context(parts).rep
            yield parts, [a for a in alphas if (a, beta0) not in dropped]

    monkeypatch.setattr(monodromy, "_alphas_by_type", short)
    with pytest.raises(covers.ConsistencyError, match="N=54 .* closed count N=90"):
        decompose(7, prof)


def test_walk_keys_each_class_once_and_enumerates_nothing(monkeypatch):
    # each seed is keyed once; every class walks its a and b images once,
    # and a new class is held as the image pair that reached it, never
    # canonicalized, with that pair's walk, so the tables read the kept keys
    d, prof = 11, RamificationProfile.of(11, "2,2")
    calls = {"enumerate_classes": 0, "canonical_pair": 0, "_key_walk": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (covers, monodromy):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    dec = decompose(d, prof, max_degree=d)
    seeds = sum(c.beta_type in ((d,), (d - 1, 1)) for c in dec.classes)
    # the closed per-type counts of (11) and (10,1)
    assert seeds == per_type_N(d, "g2_22", (d,)) + per_type_N(d, "g2_22", (d - 1, 1)) == 410
    assert calls == {"enumerate_classes": 0, "canonical_pair": 0,
                     "_key_walk": 2 * 1440 + seeds}
    calls.update(dict.fromkeys(calls, 0))
    twist_tables(dec.classes)
    dec.primitive_components()
    assert calls == dict.fromkeys(calls, 0)


def test_cold_walk_gives_the_warm_result():
    # the walk builds the centralizers it reads on a fresh type cache
    prof = RamificationProfile.of(7, "5")
    warm = decompose(7, prof)
    covers._type_context.cache_clear()
    try:
        cold = decompose(7, prof)
    finally:
        covers._type_context.cache_clear()
    assert cold == warm
