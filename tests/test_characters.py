import hashlib
import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from toruscovers import characters
from toruscovers.characters import (
    MAX_CONVOLUTION_DEGREE,
    MAX_TABLE_DEGREE,
    CharacterTable,
    build_generating_functions,
    character_degree,
    character_value,
    disconnected_count,
    series_exp,
    series_log,
    tau_type,
)
from toruscovers.covers import (
    CapacityError,
    ConsistencyError,
    RamificationProfile,
    aut_weighted_counts,
    count_table,
)
from toruscovers.perms import (
    commutator,
    cycle_type,
    partitions,
    sign,
    type_rep,
)


# The oracle: Murnaghan-Nakayama on sorted tuples of beta-numbers, removing
# one border strip of length mu[0] at a time


def _beta_numbers(shape):
    r = len(shape)
    return tuple(shape[i] + r - 1 - i for i in range(r))


def _shape_from_beta(beta):
    r = len(beta)
    parts = [beta[i] - (r - 1 - i) for i in range(r)]
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _oracle_mn(shape, mu):
    if not mu:
        return 1
    beta = _beta_numbers(shape)
    bset = set(beta)
    m = mu[0]
    total = 0
    for b in beta:
        nb = b - m
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new = sorted([x for x in beta if x != b] + [nb], reverse=True)
        value = _oracle_mn(_shape_from_beta(new), mu[1:])
        total += -value if height % 2 else value
    return total


def test_character_table_matches_tuple_recursion():
    # values is a read-only view over the rows: it equals the dict keyed
    # (shape, class) in the public order, and rows[i][j] is its entry
    for d in range(1, 13):
        table = CharacterTable.build(d)
        want = {(s, c): _oracle_mn(s, c) for s in table.shapes for c in table.shapes}
        assert table.values == want
        assert list(table.values) == list(want)
        assert [list(row) for row in table.rows] == [
            [want[s, c] for c in table.shapes] for s in table.shapes
        ]
    assert 5 not in table.values and table.values.get(((12,), (13,))) is None
    with pytest.raises(TypeError):
        table.values[(12,), (12,)] = 0


def test_character_value_matches_tuple_recursion_in_any_part_order():
    for shape in partitions(8):
        for cls in partitions(8):
            want = _oracle_mn(shape, cls)
            assert character_value(shape[::-1], cls[::-1]) == want
            assert character_value(list(shape), cls) == want


def test_character_values_hand_checked():
    # trivial and sign characters
    for cls in partitions(5):
        assert character_value((5,), cls) == 1
        assert character_value((1, 1, 1, 1, 1), cls) == sign(type_rep(cls))
    # standard character = fixed points - 1
    for cls in partitions(6):
        fix = sum(1 for part in cls if part == 1)
        assert character_value((5, 1), cls) == fix - 1


def test_character_degrees():
    assert character_degree((4,)) == 1
    assert character_degree((3, 1)) == 3
    assert character_degree((2, 2)) == 2
    assert character_degree((2, 1, 1)) == 3
    assert character_degree((1, 1, 1, 1)) == 1
    for d in range(1, 8):
        assert sum(character_degree(s) ** 2 for s in partitions(d)) == factorial(d)


def test_degree_equals_identity_column():
    for d in range(1, 7):
        for s in partitions(d):
            assert character_value(s, (1,) * d) == character_degree(s)


def test_conjugate_shape_symmetry():
    # chi_{lambda'}(mu) = sign(mu) chi_lambda(mu)
    def conj(shape):
        out = []
        col = 0
        while True:
            n = sum(1 for part in shape if part > col)
            if not n:
                return tuple(out)
            out.append(n)
            col += 1

    for s in partitions(6):
        for mu in partitions(6):
            assert character_value(conj(s), mu) == sign(
                type_rep(mu)
            ) * character_value(s, mu)


def test_character_table_past_its_bound_raises_capacity_error():
    assert MAX_TABLE_DEGREE == 16
    with pytest.raises(
        CapacityError, match="^character-table degree 17 exceeds its bound 16$"
    ):
        CharacterTable.build(17)


def test_character_table_of_negative_degree_raises():
    with pytest.raises(ValueError, match="^character-table degree -3 is negative$"):
        CharacterTable.build(-3)
    table = CharacterTable.build(0)
    assert table.shapes == ((),)
    assert dict(table.values) == {((), ()): 1}


def test_character_table_past_the_tuple_oracle_matches_single_values():
    # the table is built from the tables of smaller degree; character_value
    # runs the single-value recursion _mn, whose cache the build leaves alone
    before = characters._mn.cache_info().currsize
    tables = {d: CharacterTable.build(d) for d in range(13, MAX_TABLE_DEGREE + 1)}
    assert characters._mn.cache_info().currsize == before
    for d, table in tables.items():
        assert len(table.values) == len(table.shapes) ** 2
        for (shape, cls), value in table.values.items():
            assert value == character_value(shape, cls), (shape, cls)


def test_character_table_csv():
    csv_text = CharacterTable.build(3).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "shape,3,2|1,1|1|1"
    assert len(lines) == 4
    # the largest table, pinned byte for byte
    digest = hashlib.sha256(CharacterTable.build(16).to_csv().encode()).hexdigest()
    assert digest == "1c3d957079daabb1ce20c4e56396deabc3aea63a29d8a1fceae53a1b61235ff0"


@pytest.mark.parametrize(
    "call",
    [
        lambda: disconnected_count(2, 0, [2, 0], method="convolution"),
        lambda: disconnected_count(2, 0, [2, 0], method="characters"),
        lambda: disconnected_count(3, 0, [4, -1], method="convolution"),
        lambda: disconnected_count(3, 0, [4, -1], method="characters"),
        lambda: disconnected_count(4, 0, [3], method="convolution"),
        lambda: character_degree([0]),
        lambda: character_degree([2, -1]),
        lambda: character_value([2, 0], [2]),
        lambda: character_value([3], [2]),
    ],
    ids=["zero-part-convolution", "zero-part-characters",
         "negative-part-convolution", "negative-part-characters",
         "short-parts", "degree-zero-part", "degree-negative-part",
         "value-zero-part", "value-different-sizes"],
)
def test_malformed_partitions_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_table(5, RamificationProfile.of(5, "3"), method="scan"),
        lambda: disconnected_count(4, 0, [4], method="scan"),
    ],
    ids=["count-table", "disconnected-count"],
)
def test_unknown_count_method_is_named(call):
    with pytest.raises(ValueError, match="^unknown method 'scan'$"):
        call()


def test_tau_type():
    assert tau_type(6, 2) == (2, 2, 1, 1)
    assert tau_type(6, 0) == (1,) * 6
    with pytest.raises(ValueError):
        tau_type(5, 3)


def test_disconnected_count_methods_agree():
    for d in range(1, 10):
        for k in range(d // 2 + 1):
            for parts in partitions(d):
                a = disconnected_count(d, k, parts, method="characters")
                b = disconnected_count(d, k, parts, method="convolution")
                assert a == b, (d, k, parts)


@pytest.fixture
def cold_tables():
    """Empty count tables before and after the test, so tables filled
    under a patch do not reach other tests."""
    tables = (characters._character_counts, characters._convolution_counts)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


def _counted(monkeypatch, name):
    calls = []
    original = getattr(characters, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(characters, name, counted)
    return calls


def test_one_table_serves_every_beta_type(monkeypatch, cold_tables):
    streams = _counted(monkeypatch, "class_elements")
    degrees = _counted(monkeypatch, "character_degree")
    d, k = 7, 2
    for parts in partitions(d):
        for method in ("characters", "convolution"):
            disconnected_count(d, k, parts, method=method)
    assert streams == [(tau_type(d, k),)]
    shapes = [shape for (shape,) in degrees]
    assert len(shapes) == len(set(shapes)) <= len(partitions(d))
    # the series reads one table per (d, k) as well
    degrees.clear()
    build_generating_functions(5)
    assert len(degrees) <= sum(
        len(partitions(d)) * (d // 2 + 1) for d in range(1, 6)
    )


@pytest.mark.parametrize(
    "d, k, shape, factor, message",
    [(5, 0, (5,), 2, "character sum is not an integer"),
     (4, 0, (3, 1), 3, "character degree does not divide d!")],
)
def test_wrong_degree_fails_the_character_table(
        monkeypatch, cold_tables, d, k, shape, factor, message):
    original = characters.character_degree

    def wrong(s):
        return original(s) * (factor if s == shape else 1)

    monkeypatch.setattr(characters, "character_degree", wrong)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        disconnected_count(d, k, (1,) * d)


def test_count_tables_past_their_bounds_raise_before_any_work(monkeypatch):
    assert MAX_CONVOLUTION_DEGREE == 10
    streams = _counted(monkeypatch, "class_elements")
    with pytest.raises(
        CapacityError, match="^convolution-table degree 11 exceeds its bound 10$"
    ):
        disconnected_count(11, 1, [11], method="convolution")
    assert streams == []
    with pytest.raises(
        CapacityError, match="^character-table degree 17 exceeds its bound 16$"
    ):
        disconnected_count(17, 1, [17])
    assert disconnected_count(16, 0, [16]) == factorial(16)


def test_disconnected_count_against_raw_double_loop():
    # the most literal possible count: all of S_d x S_d
    for d in (3, 4):
        perms = [tuple(p) for p in itertools.permutations(range(d))]
        for k in (0, 1):
            tau = tau_type(d, k)
            for parts in partitions(d):
                raw = sum(
                    1
                    for a in perms
                    for b in perms
                    if cycle_type(b) == parts
                    and cycle_type(commutator(a, b)) == tau
                )
                assert disconnected_count(d, k, parts) == raw


def test_commuting_pairs_count_is_group_order():
    # k = 0 asks for alpha centralizing beta; summed over a class that is
    # |class| * |centralizer| = d! for every type
    for d in (3, 4, 5, 6):
        for parts in partitions(d):
            assert disconnected_count(d, 0, parts) == factorial(d)


def test_series_exp_log_round_trip():
    zhat, ztilde = build_generating_functions(4)
    w = dict(zhat.coeffs)
    z = dict(ztilde.coeffs)
    assert series_exp(z, 4) == w
    assert series_log(w, 4) == z


def test_exp_identity_through_degree_eight():
    # the character sums against the 1/|Aut| class counts at every d <= 8,
    # composite degrees where branched classes have automorphisms included
    zhat, ztilde = build_generating_functions(8)
    assert series_exp(dict(ztilde.coeffs), 8) == dict(zhat.coeffs)
    assert any(
        v.denominator > 1 for (parts, k), v in ztilde.coeffs.items()
        if k and sum(parts) == 8
    )


def test_connected_coefficients_are_weighted_counts():
    _, ztilde = build_generating_functions(5)
    for (parts, k), coeff in ztilde.coeffs.items():
        d = sum(parts)
        weighted = aut_weighted_counts(d, RamificationProfile.of(d, [2] * k))
        assert coeff == weighted.get(parts, 0)


def test_hand_checked_degree_two_coefficients():
    zhat, ztilde = build_generating_functions(2)
    # disconnected: beta = id, any alpha commutes -> 2 pairs / 2! = 1
    assert zhat.coeffs[(1, 1), 0] == 1
    # connected: only alpha = (1 2) makes the trivial-beta pair transitive
    assert ztilde.coeffs[(1, 1), 0] == Fraction(1, 2)
    # single 2-cycle beta: both alphas work, transitive either way
    assert zhat.coeffs[(2,), 0] == 1
    assert ztilde.coeffs[(2,), 0] == 1
    # exp identity by hand: 1 = 1/2 + (1/2) * 1^2 using the d=1 seed
    assert ztilde.coeffs[(1,), 0] == 1


def test_log_inversion_returns_connected_series():
    zhat, ztilde = build_generating_functions(4)
    assert series_log(zhat.coeffs, 4) == dict(ztilde.coeffs)
