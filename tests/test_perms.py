from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscovers.perms import (
    centralizer_elements,
    centralizer_order,
    class_elements,
    class_size,
    classify_group,
    commutator,
    compose,
    conjugate,
    conjugating_element,
    cycle_string,
    cycle_type,
    cycles,
    group_order,
    identity,
    inverse,
    is_transitive,
    multiplicities,
    parse_cycles,
    partition_sign,
    partitions,
    sign,
    type_rep,
    type_weight,
)

perms_of = lambda d: st.permutations(range(d)).map(tuple)


def test_compose_applies_right_factor_first():
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    # (p q)(2): q sends 2 -> 3, then p fixes 3
    assert compose(p, q)[1] == 2
    assert compose(q, p)[1] == 0


def test_parse_and_print_round_trip():
    for text in ["(1 2 3)", "(1 4)(2 3)", "(1 2)(3 4 5)", "()"]:
        p = parse_cycles(text, 5)
        assert parse_cycles(cycle_string(p), 5) == p
    assert cycle_string(identity(4)) == "()"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_cycles("(1 1 2)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 3)


def test_cycles_include_fixed_points_min_first():
    # cycles are reported on the internal 0-based points
    p = parse_cycles("(2 4 3)", 5)
    assert cycles(p) == [(0,), (1, 3, 2), (4,)]
    assert cycle_type(p) == (3, 1, 1)


@settings(max_examples=60)
@given(perms_of(6), perms_of(6))
def test_sign_is_multiplicative(p, q):
    assert sign(compose(p, q)) == sign(p) * sign(q)


@settings(max_examples=60)
@given(perms_of(6))
def test_sign_matches_cycle_type(p):
    assert sign(p) == partition_sign(cycle_type(p))


@settings(max_examples=40)
@given(perms_of(6), perms_of(6))
def test_conjugation_preserves_cycle_type(t, p):
    assert cycle_type(conjugate(t, p)) == cycle_type(p)


@settings(max_examples=40)
@given(perms_of(6), perms_of(6))
def test_inverse_and_commutator(a, b):
    assert compose(a, inverse(a)) == identity(6)
    lhs = commutator(a, b)
    rhs = compose(compose(a, b), inverse(compose(b, a)))
    assert lhs == rhs


def test_partitions_reverse_lex_and_counts():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # partition numbers p(1)..p(9)
    assert [len(partitions(n)) for n in range(1, 10)] == [
        1, 2, 3, 5, 7, 11, 15, 22, 30,
    ]


def test_class_sizes_sum_to_group_order():
    for d in range(1, 8):
        assert sum(class_size(parts) for parts in partitions(d)) == factorial(d)


def test_class_size_times_centralizer_is_group_order():
    for parts in partitions(6):
        assert class_size(parts) * centralizer_order(parts) == factorial(6)


def test_type_rep_has_the_type():
    for parts in partitions(7):
        assert cycle_type(type_rep(parts)) == parts


def test_class_elements_matches_class_size():
    for parts in partitions(5):
        elems = list(class_elements(parts))
        assert len(elems) == class_size(parts)
        assert len(set(elems)) == len(elems)
        assert all(cycle_type(g) == parts for g in elems)


def test_type_weight():
    assert type_weight((3,)) == Fraction(1, 3)
    assert type_weight((2, 1)) == Fraction(1, 2) + 1
    assert type_weight((2, 2, 1)) == Fraction(2)


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


def test_conjugating_element_solves_and_rejects():
    p = parse_cycles("(1 2 3)", 4)
    q = parse_cycles("(2 3 4)", 4)
    t = conjugating_element(p, q)
    assert t is not None and conjugate(t, p) == q
    assert conjugating_element(p, parse_cycles("(1 2)", 4)) is None


@settings(max_examples=30)
@given(perms_of(5), perms_of(5))
def test_conjugating_element_on_random_conjugates(p, t):
    q = conjugate(t, p)
    s = conjugating_element(p, q)
    assert s is not None and conjugate(s, p) == q


def test_centralizer_elements_enumeration():
    # distinct, commuting with the representative and |C| many: the whole
    # centralizer (every partition of 6, plus two of smaller degree)
    for parts in [(3, 1, 1), (2, 2), *partitions(6)]:
        rep = type_rep(parts)
        elems = list(centralizer_elements(parts))
        assert len(elems) == centralizer_order(parts)
        assert len(set(elems)) == len(elems)
        assert all(conjugate(g, rep) == rep for g in elems)


def test_orbits_and_transitivity():
    a = parse_cycles("(1 2)", 4)
    b = parse_cycles("(3 4)", 4)
    assert not is_transitive([a, b], 4)
    c = parse_cycles("(1 2 3 4)", 4)
    assert is_transitive([c], 4)


def test_group_order_known_groups():
    d = 5
    assert group_order([parse_cycles("(1 2 3 4 5)"), parse_cycles("(1 2)", 5)], d) == 120
    assert group_order([parse_cycles("(1 2 3 4 5)"), parse_cycles("(1 2 3)", 5)], d) == 60
    assert group_order([parse_cycles("(1 2 3 4 5)")], d) == 5


def test_classify_group():
    d = 5
    assert classify_group(
        [parse_cycles("(1 2 3 4 5)"), parse_cycles("(1 2)", 5)], d
    ) == "symmetric"
    assert classify_group(
        [parse_cycles("(1 2 3 4 5)"), parse_cycles("(1 2 3)", 5)], d
    ) == "alternating"
    assert classify_group([parse_cycles("(1 2 3 4 5)")], d) == "other"
