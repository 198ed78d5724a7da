from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscovers.characters import character_degree, disconnected_count
from toruscovers.covers import RamificationProfile
from toruscovers.formulas import primes_up_to
from toruscovers.perms import (
    as_partition,
    centralizer_groups,
    centralizer_order,
    class_elements,
    class_size,
    classify_group,
    commutator,
    compose,
    conjugate,
    cycle_layout,
    cycle_string,
    cycle_type,
    cycles,
    group_order,
    identity,
    inverse,
    is_prime,
    is_transitive,
    multiplicities,
    parse_cycles,
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
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((0, 1), (0,))


def test_parse_and_print_round_trip():
    for text in ["(1 2 3)", "(1 4)(2 3)", "(1 2)(3 4 5)", "()"]:
        p = parse_cycles(text, 5)
        assert parse_cycles(cycle_string(p), 5) == p
    assert cycle_string(identity(4)) == "()"


def test_parse_reads_the_compact_digit_form_and_skips_empty_cycles():
    assert parse_cycles("(15)(23)") == parse_cycles("(1 5)(2 3)") == (4, 2, 1, 3, 0)
    assert parse_cycles("(15)(23)", 7) == parse_cycles("(1 5)(2 3)", 7)
    assert parse_cycles("(1 2)()", 3) == parse_cycles("(1 2)", 3)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_cycles("(1 1 2)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 3)
    for text in ("(0 1)", "(01)"):
        with pytest.raises(ValueError, match="points are 1-based and positive"):
            parse_cycles(text, 3)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        parse_cycles("(1 2)", -1)
    with pytest.raises(ValueError, match="degree required"):
        parse_cycles("()")


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
    assert sign(p) == (-1) ** sum(l - 1 for l in cycle_type(p))


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


def test_as_partition_reads_every_spelling():
    for spec in ("2,2,1", "1 2 2", " 2, 1,2 ", [1, 2, 2], (2, 1, 2), ["2", "1", "2"]):
        assert as_partition(spec) == as_partition(spec, 5) == (2, 2, 1)
    assert as_partition("") == as_partition([]) == as_partition([], 0) == ()
    for spec in ("3,0", "2 -1", [0], [4, -1]):
        with pytest.raises(ValueError, match="must be positive"):
            as_partition(spec)
    with pytest.raises(ValueError, match=r"^\[3, 1\] is not a partition of 5$"):
        as_partition("1,3", 5)
    with pytest.raises(ValueError):
        as_partition("3,x")
    # a part that is not an integer is refused, not truncated, by every caller
    for call in (lambda: disconnected_count(3, 0, [2.5, 1], method="convolution"),
                 lambda: character_degree([2.9, 1.2]),
                 lambda: RamificationProfile.of(5, [3.7])):
        with pytest.raises(TypeError, match="integer"):
            call()


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
    # parts in any order
    assert list(class_elements((1, 2))) == list(class_elements((2, 1)))
    with pytest.raises(ValueError):
        list(class_elements((3, 0)))


def test_type_weight():
    assert type_weight((3,)) == Fraction(1, 3)
    assert type_weight((2, 1)) == Fraction(1, 2) + 1
    assert type_weight((2, 2, 1)) == Fraction(2)
    # memoized per partition
    assert type_weight((3, 1, 1)) is type_weight((3, 1, 1))


def test_is_prime_matches_the_sieve():
    assert [n for n in range(10**4 + 1) if is_prime(n)] == primes_up_to(10**4)


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


def test_cycle_layout_lays_cycles_longest_first():
    p = parse_cycles("(2 3 4)", 4)
    assert cycle_layout(p) == ((3, 1), parse_cycles("(1 4 3 2)", 4))
    p = parse_cycles("(1 6)(2 5 3)", 7)  # a 3-cycle, a 2-cycle, two fixed points
    parts, t = cycle_layout(p)
    assert parts == (3, 2, 1, 1) and conjugate(t, p) == type_rep(parts)
    assert [t[x] for x in (1, 4, 2, 0, 5)] == [0, 1, 2, 3, 4]
    assert cycle_layout(type_rep((3, 2, 1, 1))) == ((3, 2, 1, 1), identity(7))


@settings(max_examples=30)
@given(st.integers(1, 7).flatmap(lambda d: st.tuples(perms_of(d), perms_of(d))))
def test_cycle_layout_on_random_conjugates(pt):
    p, t = pt
    q = conjugate(t, p)
    parts, s = cycle_layout(q)
    assert parts == cycle_type(p)
    assert conjugate(s, q) == type_rep(parts)
    # a layout of p composed with t^-1 solves the same equation for q
    assert conjugate(compose(cycle_layout(p)[1], inverse(t)), q) == type_rep(parts)


def test_centralizer_elements_enumeration():
    # distinct, commuting with the representative and |C| many: the whole
    # centralizer (every partition of 6, plus two of smaller degree); each
    # group's elements carry cycle i onto cycle pi[i], one group per
    # length-keeping permutation of the cycles
    for parts in [(3, 1, 1), (2, 2), *partitions(6)]:
        rep = type_rep(parts)
        cycle_of = [k for k, l in enumerate(parts) for _ in range(l)]
        groups = [(pi, list(zs)) for pi, zs in centralizer_groups(parts)]
        elems = [z for _, zs in groups for z in zs]
        assert len(elems) == centralizer_order(parts)
        assert len(set(elems)) == len(elems)
        assert all(conjugate(g, rep) == rep for g in elems)
        assert len({pi for pi, _ in groups}) == len(groups) == prod(
            factorial(a) for a in multiplicities(parts).values())
        for pi, zs in groups:
            assert [parts[k] for k in pi] == list(parts)
            assert all(cycle_of[z[x]] == pi[cycle_of[x]] for z in zs for x in range(len(z)))


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
