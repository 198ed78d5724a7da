import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toruscovers import formulas
from toruscovers.covers import CapacityError, RamificationProfile, enumerate_classes
from toruscovers.formulas import (
    MAX_CLOSED_FORM_DEGREE,
    MAX_CLOSED_POLYNOMIAL_DEGREE,
    MAX_DEJONQUIERES_GENUS,
    FAMILIES,
    UnclassifiedTypeError,
    admissible_types,
    assembled_N_M,
    closed_N_M,
    convolution_identity,
    dejonquieres,
    dejonquieres_positive,
    divisor_sigma,
    eisenstein,
    family_min_degree,
    family_sigma,
    g3_slope_probe,
    gcd_sum_three_sizes,
    gcd_sum_two_one,
    gcd_sum_two_sizes,
    genus_closed,
    is_prime,
    per_type_N,
    prime_convolution_value,
    primes_up_to,
    ramanujan_check,
    series_product,
    sum_identity_l1l2,
)
from toruscovers.geometry import slope_from_counts
from toruscovers.perms import partitions, type_weight

# Frozen from direct enumeration (degree 7, all transitive classes up to
# simultaneous conjugation, bucketed by the cycle type of beta).
BRUTE_D7_G2_31 = {
    (7,): 35, (6, 1): 6, (5, 2): 10, (5, 1, 1): 5, (4, 3): 12,
    (4, 1, 1, 1): 4, (3, 3, 1): 3, (3, 2, 2): 6,
    (3, 1, 1, 1, 1): 3, (2, 2, 2, 1): 2,
    (2, 2, 1, 1, 1): 2, (2, 1, 1, 1, 1, 1): 2,
}
BRUTE_D7_G2_22 = {
    (7,): 35, (6, 1): 24, (5, 2): 30, (5, 1, 1): 15, (4, 3): 24,
    (4, 1, 1, 1): 8, (3, 3, 1): 3, (3, 2, 2): 6, (3, 2, 1, 1): 6,
    (3, 1, 1, 1, 1): 3, (2, 2, 1, 1, 1): 2, (2, 1, 1, 1, 1, 1): 4,
}
BRUTE_D7_G3_5 = {
    (7,): 168, (6, 1): 108, (5, 2): 100, (5, 1, 1): 55, (4, 3): 96,
    (4, 2, 1): 88, (4, 1, 1, 1): 28, (3, 3, 1): 18, (3, 2, 2): 30,
    (3, 2, 1, 1): 42, (3, 1, 1, 1, 1): 18, (2, 2, 2, 1): 16,
    (2, 2, 1, 1, 1): 8,
}


_INTEGERS = st.integers(min_value=-10**12, max_value=10**12)


@settings(max_examples=60, deadline=None)
@given(st.lists(_INTEGERS, min_size=1, max_size=12),
       st.lists(_INTEGERS, min_size=1, max_size=12))
def test_qseries_product_is_the_schoolbook_convolution(a, b):
    n = min(len(a), len(b))
    want = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]
    got = series_product(a, b)
    assert got == want
    assert all(type(c) is int for c in got)


def test_divisor_sigma_values():
    assert [divisor_sigma(1, n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert divisor_sigma(3, 4) == 1 + 8 + 64


def test_divisor_sigma_matches_a_divisor_sieve():
    top = 1000
    for power in (1, 3, 5):
        sieve = [0] * (top + 1)
        for f in range(1, top + 1):
            for m in range(f, top + 1, f):
                sieve[m] += f**power
        assert [divisor_sigma(power, n) for n in range(1, top + 1)] == sieve[1:]


def test_eisenstein_expansions():
    P = eisenstein("P", 5)
    assert P == (1, -24, -72, -96, -168, -144)
    assert [P[n] for n in range(5)] == [1, -24, -72, -96, -168]
    Q = eisenstein("Q", 4)
    assert [Q[n] for n in range(4)] == [1, 240, 2160, 6720]
    R = eisenstein("R", 3)
    assert [R[n] for n in range(3)] == [1, -504, -16632]


def test_ramanujan_odes():
    assert ramanujan_check(80)


@pytest.mark.parametrize("name", "PQR")
@pytest.mark.parametrize("n", [0, 1, 7, 20])
def test_ramanujan_check_fails_on_one_perturbed_coefficient(name, n, monkeypatch):
    exact = formulas.eisenstein

    def perturbed(series, order):
        coeffs = list(exact(series, order))
        if series == name:
            coeffs[n] += 1
        return tuple(coeffs)

    monkeypatch.setattr(formulas, "eisenstein", perturbed)
    assert not ramanujan_check(20)


def test_convolution_identity_small_values():
    lhs, rhs = convolution_identity(2)
    assert lhs == 1 and rhs == 1
    lhs, rhs = convolution_identity(6)
    assert lhs == rhs == sum(
        divisor_sigma(1, k) * divisor_sigma(1, 6 - k) for k in range(1, 6)
    )
    for d in range(2, 60):
        lhs, rhs = convolution_identity(d)
        assert lhs == rhs


def test_prime_convolution_closed_form():
    for p in primes_up_to(60):
        assert convolution_identity(p)[0] == prime_convolution_value(p)
    assert prime_convolution_value(5) == Fraction(4 * 6 * 19, 12)
    with pytest.raises(ValueError):
        prime_convolution_value(6)


def test_sum_identity_l1l2_including_composite_degrees():
    assert sum_identity_l1l2(2) == (0, 0)
    assert sum_identity_l1l2(5)[0] == 17
    assert sum_identity_l1l2(7)[0] == 55
    # composite degrees need the full diagonal correction
    lhs, rhs = sum_identity_l1l2(4)
    assert lhs == rhs == 5
    for d in range(2, 80):
        lhs, rhs = sum_identity_l1l2(d)
        assert lhs == rhs


def test_primes_helpers():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(199) and not is_prime(1) and not is_prime(91)


@pytest.mark.parametrize(
    "family,table",
    [("g2_31", BRUTE_D7_G2_31), ("g2_22", BRUTE_D7_G2_22), ("g3_5", BRUTE_D7_G3_5)],
)
def test_per_type_formulas_match_frozen_degree7_tables(family, table):
    seen = dict.fromkeys(table, 0)
    for parts in admissible_types(7, family):
        n = per_type_N(7, family, parts)
        if n:
            seen[parts] = n
    assert seen == table


@pytest.mark.parametrize("family", ["g2_31", "g2_22", "g3_5"])
@pytest.mark.parametrize("d", [5, 7])
def test_per_type_formulas_match_live_enumeration(family, d):
    prof = RamificationProfile.of(d, family_sigma(family))
    live = {}
    for c in enumerate_classes(d, prof):
        live[c.beta_type] = live.get(c.beta_type, 0) + 1
    for parts in partitions(d):
        assert per_type_N(d, family, parts) == live.get(parts, 0)
    covered = set(admissible_types(d, family))
    assert set(live) <= covered


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: closed_N_M(2, "g2_31"), "family g2_31 needs d >= 3"),
        (lambda: closed_N_M(9, "g2_31"), "closed formulas need prime d, got 9"),
        (lambda: family_sigma("g9"), "unknown family 'g9'"),
        (lambda: divisor_sigma(1, 0), "divisor sums need n >= 1"),
        (lambda: divisor_sigma(-1, 4), "divisor sums need power >= 0"),
        (lambda: eisenstein("S", 3), "unknown series 'S'"),
        (lambda: eisenstein("P", -1), "series order must be >= 0, got -1"),
        (lambda: ramanujan_check(-3), "series order must be >= 0, got -3"),
        (lambda: convolution_identity(1), "identity needs d >= 2"),
        (lambda: sum_identity_l1l2(1), "identity needs d >= 2"),
        (lambda: genus_closed(5, "g3_5"), "g = 2 families only"),
    ],
    ids=["below-family-degree", "composite-degree", "unknown-family",
         "divisor-sum-zero", "divisor-sum-power", "unknown-series",
         "negative-series-order", "negative-ramanujan-order",
         "convolution-degree", "sum-identity-degree", "genus-g3"],
)
def test_bad_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_unclassified_type_raises():
    with pytest.raises(UnclassifiedTypeError):
        per_type_N(11, "g2_22", (4, 3, 2, 1, 1))
    with pytest.raises(UnclassifiedTypeError):
        per_type_N(11, "g3_5", (5, 3, 2, 1))


def test_assembled_totals():
    assert assembled_N_M(5, "g2_31") == (27, Fraction(30))
    assert assembled_N_M(7, "g2_31") == (90, Fraction(100))
    assert assembled_N_M(5, "g2_22") == (24, Fraction(30))
    assert assembled_N_M(7, "g2_22") == (160, Fraction(200))
    assert assembled_N_M(5, "g3_5") == (40, Fraction(258, 5))
    assert assembled_N_M(7, "g3_5") == (775, Fraction(981))


def test_closed_totals_match_assembly_at_many_primes():
    for family in ("g2_31", "g2_22"):
        for d in primes_up_to(199):
            if d < 5:
                continue
            assert closed_N_M(d, family) == assembled_N_M(d, family)


def _interpolate(points):
    """Coefficients, constant term first, of the polynomial of degree
    len(points) - 1 through the given (x, y) pairs, exactly."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]  # prod_{j != i} (x - xj), low degree first
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += yi * b / denom
    return coeffs


def _evaluate(coeffs, x):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def test_g3_closed_polynomial_is_fitted_from_the_walk():
    primes = [d for d in primes_up_to(199) if d >= 5]
    fitted = primes[:6]  # 5..19 fix a degree-5 polynomial
    walk = {d: assembled_N_M(d, "g3_5") for d in fitted}
    fit_N = _interpolate([(d, walk[d][0]) for d in fitted])
    fit_M = _interpolate([(d, walk[d][1]) for d in fitted])
    fit = {d: (_evaluate(fit_N, d), _evaluate(fit_M, d)) for d in primes}
    for d in primes:
        assert closed_N_M(d, "g3_5") == fit[d], d
        assert assembled_N_M(d, "g3_5", aggregated=True) == fit[d], d
    for d in [d for d in primes if 23 <= d <= 113] + [199]:  # held out
        assert assembled_N_M(d, "g3_5") == fit[d], d


def _assembled_by_partitions(degree, family):
    """N and M summed over the expanded partitions with one Fraction
    weight per type: a slower, independent assembly to check against."""
    N, M = 0, Fraction(0)
    for parts in admissible_types(degree, family):
        n = per_type_N(degree, family, parts)
        N += n
        M += type_weight(parts) * n
    return N, M


@pytest.mark.parametrize(
    "family,max_prime", [("g2_31", 113), ("g2_22", 113), ("g3_5", 61)]
)
def test_assembly_matches_partition_oracle(family, max_prime):
    for d in primes_up_to(max_prime):
        if d < 5:
            continue
        assert assembled_N_M(d, family, aggregated=False) == (
            _assembled_by_partitions(d, family)
        ), d


def _assembled_by_sizes(degree, family):
    """N and M summed over the walk of Sizes, one _count_sizes call and
    one tuple per type: the reference for the fused loops of
    assembled_N_M."""
    N = 0
    per_len = [0] * (degree + 1)  # sum of count * multiplicity, by length
    for sizes in formulas._admissible_sizes(degree, family):
        n = formulas._count_sizes(degree, family, sizes)
        if n:
            N += n
            for l, a in sizes:
                per_len[l] += n * a
    M = sum((Fraction(c, l) for l, c in enumerate(per_len) if c), Fraction(0))
    return N, M


@pytest.mark.parametrize("family", FAMILIES)
def test_fused_assembly_matches_the_sizes_walk(family):
    primes = [d for d in primes_up_to(MAX_CLOSED_FORM_DEGREE)
              if d >= family_min_degree(family)]
    if family == "g3_5":  # the walk grows about as d^3
        primes = [d for d in primes if d <= 113] + [MAX_CLOSED_FORM_DEGREE]
    for d in primes:
        assert assembled_N_M(d, family) == _assembled_by_sizes(d, family), d


def test_progression_sums_match_an_explicit_a2_loop():
    def explicit(l2, l3, r1):  # every a2 with a2 l2 + a3 l3 = r1, a2, a3 >= 1
        return [a2 for a2 in range(1, r1 // l2 + 1)
                if a2 * l2 < r1 and (r1 - a2 * l2) % l3 == 0]

    for l2 in range(2, 12):
        for l3 in range(1, l2):
            for r1 in range(l2 + l3, 80):
                a2s = explicit(l2, l3, r1)
                if not a2s:
                    continue
                progression = range(a2s[0], a2s[-1] + 1, l3 // gcd(l2, l3))
                assert list(progression) == a2s, (l2, l3, r1)
                a3s = [(r1 - a2 * l2) // l3 for a2 in a2s]
                assert formulas._progression_sums(progression, l2, l3, r1) == (
                    len(a2s), sum(a2s), sum(a3s)), (l2, l3, r1)
    # the walk yields exactly the nonempty progressions of the explicit loop
    for d in range(5, 40):
        for family in ("g2_22", "g3_5"):
            walked = {(l1, a1, l2, l3): list(a2s) for l1, a1, l2, l3, r1, a2s
                      in formulas._three_size_slices(d, family) if r1 == d - a1 * l1}
            expected = {}
            for l2 in range(2, d):
                for l3 in range(1, l2):
                    l1s = [l2 + l3] if family == "g2_22" else range(l2 + 1, d)
                    for l1 in l1s:
                        for a1 in range(1, d // l1 + 1):
                            if a2s := explicit(l2, l3, d - a1 * l1):
                                expected[l1, a1, l2, l3] = a2s
            assert walked == expected, (d, family)


@pytest.mark.parametrize(
    "helper, beta_type, sizes",
    [("_count_three_sizes", (4, 2, 1), (4, 2, 1)),
     ("_count_two_sizes", (5, 2), (5, 1, 2, 1))],
)
def test_one_copy_of_the_case_analysis(monkeypatch, helper, beta_type, sizes):
    # a count changed in the helper reaches both the per-type count and
    # the fused assembly
    d, family, extra = 7, "g3_5", 1000
    N, M = assembled_N_M(d, family)
    original = getattr(formulas, helper)

    def changed(*args):
        return original(*args) + (extra if args[-len(sizes):] == sizes else 0)

    monkeypatch.setattr(formulas, helper, changed)
    assert per_type_N(d, family, beta_type) == BRUTE_D7_G3_5[beta_type] + extra
    assert assembled_N_M(d, family) == (N + extra, M + extra * type_weight(beta_type))


# SHA-256 of repr(list(admissible_types(13, family))): pins which types
# the walk yields and in what order
ADMISSIBLE_13_SHA256 = {
    "g2_31": "f2c89662b895c7752348086d506fb0bc01e90a6bb9de2b822adbfd227f18bd65",
    "g2_22": "e78b97e9acf70ad18b7e2415679b3ac42a63046d0f9a51645da608ecd1a8beeb",
    "g3_5": "eda85b4fedd9315cccaee4836da41e9db0fbbeebee4e820c9d00b0f3c9afcea6",
}


@pytest.mark.parametrize("family", sorted(ADMISSIBLE_13_SHA256))
def test_admissible_types_order_is_frozen(family):
    text = repr(list(admissible_types(13, family)))
    assert hashlib.sha256(text.encode()).hexdigest() == ADMISSIBLE_13_SHA256[family]


def test_capacity_messages_name_the_bounded_quantity():
    messages = {
        "enumeration degree 10 exceeds its bound 9":
            lambda: enumerate_classes(10, RamificationProfile.of(10, "3")),
        "de Jonquieres genus 17 exceeds its bound 16":
            lambda: dejonquieres_positive(17),
        "closed-form degree 211 exceeds its bound 199":
            lambda: assembled_N_M(211, "g2_31"),
        "closed-polynomial degree 10007 exceeds its bound 10000":
            lambda: closed_N_M(10007, "g2_31"),
    }
    for message, call in messages.items():
        with pytest.raises(CapacityError) as err:
            call()
        assert str(err.value) == message


def test_closed_forms_past_their_bound_raise_capacity_error():
    assert MAX_CLOSED_FORM_DEGREE == 199
    for call in (assembled_N_M, genus_closed, admissible_types):
        with pytest.raises(CapacityError):
            list(call(211, "g2_31"))
    # the aggregated assembly reads the polynomial, but keeps the bound of
    # the walk it stands in for
    with pytest.raises(CapacityError):
        assembled_N_M(211, "g2_31", aggregated=True)
    # the polynomials cost O(1) and have their own bound
    assert MAX_CLOSED_POLYNOMIAL_DEGREE == 10_000
    assert closed_N_M(9973, "g2_31") == (3 * 9971 * 9972 * 9974 // 8,
                                         Fraction(5 * 9971 * 9972 * 9974, 12))
    with pytest.raises(CapacityError):
        closed_N_M(10007, "g2_31")


def test_gcd_sums_frozen_values():
    assert gcd_sum_two_sizes(5) == 6
    assert gcd_sum_two_sizes(7) == 13
    assert gcd_sum_three_sizes(5) == 0
    assert gcd_sum_three_sizes(7) == 1
    assert gcd_sum_two_sizes(5, weight_l1_minus_2=True) == 4
    assert gcd_sum_two_sizes(7, weight_l1_minus_2=True) == 18
    assert gcd_sum_two_one(5, printed=True) == 2
    assert gcd_sum_two_one(5) == 1
    assert gcd_sum_two_one(7, printed=True) == 5
    assert gcd_sum_two_one(7) == 4


def test_fused_sums_match_the_type_walk():
    # the tuple-walk definitions the fused loops replaced, over the type
    # walks that admissible_types still runs
    def two_sizes(d, weighted):
        return sum(gcd(l1, a1) * gcd(l2, a2) * (l1 - 2 if weighted else 1)
                   for l1, a1, l2, a2 in formulas._two_size_solutions(d))

    def three_sizes(d):
        walk = formulas._three_sizes(d, "g2_22")
        return sum(gcd(l1, a1) * gcd(l2, a2) * gcd(l3, a3)
                   for (l1, a1), (l2, a2), (l3, a3) in walk)

    for d in range(2, MAX_CLOSED_FORM_DEGREE + 1):
        assert gcd_sum_two_sizes(d) == two_sizes(d, False), d
        assert gcd_sum_two_sizes(d, weight_l1_minus_2=True) == two_sizes(d, True), d
        assert gcd_sum_three_sizes(d) == three_sizes(d), d
        assert sum_identity_l1l2(d)[0] == sum(
            l1 * l2 for l1, _, l2, _ in formulas._two_size_solutions(d)), d
    for d in range(2, 501):
        assert convolution_identity(d)[0] == sum(
            divisor_sigma(1, k) * divisor_sigma(1, d - k) for k in range(1, d)), d


def test_two_one_sum_of_twice_each_term_matches_per_term_fractions():
    # the definition: one Fraction per a2 with a1 = d - 2 a2 >= 1
    def per_term(d, printed):
        return sum((Fraction(a1 - 1, gcd(a2, 2)) if printed
                    else Fraction((a1 - 1) * gcd(a2, 2), 2)
                    for a2 in range(1, d // 2 + 1) for a1 in [d - 2 * a2] if a1 >= 1),
                   Fraction(0))

    for d in range(2, 200):
        for printed in (False, True):
            got = gcd_sum_two_one(d, printed=printed)
            assert type(got) is Fraction and got == per_term(d, printed), (d, printed)


def test_genus_closed_both_variants():
    f = genus_closed(5, "g2_31")
    assert (f.printed, f.repaired) == (112, 88)
    f = genus_closed(7, "g2_31")
    assert (f.printed, f.repaired) == (403, 343)
    f = genus_closed(5, "g2_22")
    assert (f.printed, f.repaired) == (151, 85)
    f = genus_closed(7, "g2_22")
    assert (f.printed, f.repaired) == (903, 633)


def test_genus_flag_reports_without_asserting():
    flags = genus_closed(5, "g2_31").flag_against(88)
    assert flags["printed_matches"] is False
    assert flags["repaired_matches"] is True
    assert flags["orbit"] == 88


def test_dejonquieres_classical_counts():
    assert dejonquieres(2, [2]) == 6  # Weierstrass points of a genus-2 curve
    assert dejonquieres(3, [2, 2]) == 28  # bitangents of a plane quartic
    assert dejonquieres(3, [3, 1]) == 24  # inflection lines
    assert dejonquieres_positive(6)


def _series_dejonquieres(genus, parts):
    """The former ``dejonquieres``: R^g times the truncated series of 1/P,
    multiplied out as polynomials over Fraction."""
    values = [(a, parts.count(a)) for a in sorted(set(parts), reverse=True)]
    nvars = len(values)
    bounds = tuple(n for _, n in values)

    def trunc_mul(x, y):
        out = {}
        for ex, cx in x.items():
            for ey, cy in y.items():
                ez = tuple(a + b for a, b in zip(ex, ey))
                if any(e > b for e, b in zip(ez, bounds)):
                    continue
                out[ez] = out.get(ez, Fraction(0)) + cx * cy
        return {e: c for e, c in out.items() if c}

    zero = (0,) * nvars

    def linear(coeff_of):
        poly = {zero: Fraction(1)}
        for i, (a, _) in enumerate(values):
            e = tuple(1 if j == i else 0 for j in range(nvars))
            poly[e] = Fraction(coeff_of(a))
        return poly

    R = linear(lambda a: a * a)
    P_minus_1 = {e: c for e, c in linear(lambda a: a).items() if e != zero}
    numer = {zero: Fraction(1)}
    for _ in range(genus):
        numer = trunc_mul(numer, R)
    inv = {zero: Fraction(1)}
    term = {zero: Fraction(1)}
    for _ in range(sum(bounds)):
        term = trunc_mul(term, {e: -c for e, c in P_minus_1.items()})
        if not term:
            break
        for e, c in term.items():
            inv[e] = inv.get(e, Fraction(0)) + c
    result = trunc_mul(numer, inv).get(bounds, Fraction(0))
    assert result.denominator == 1
    return int(result)


def test_dejonquieres_matches_series_route():
    # every partition of 2g - 2 into g - 1 parts, g = 2..10
    checked = 0
    for g in range(2, 11):
        for parts in partitions(2 * g - 2):
            if len(parts) == g - 1:
                assert dejonquieres(g, parts) == _series_dejonquieres(g, parts), parts
                checked += 1
    assert checked == 96


def test_dejonquieres_positive_reads_every_type_with_g_minus_1_parts(monkeypatch):
    # the shifted partitions of g - 1 are exactly the filtered partitions
    # of 2g - 2, each visited once
    seen = []

    def recording(genus, mu):
        seen.append((genus, tuple(mu)))
        return dejonquieres(genus, mu)

    monkeypatch.setattr(formulas, "dejonquieres", recording)
    assert dejonquieres_positive(12)
    filtered = [
        (g, parts)
        for g in range(2, 13)
        for parts in partitions(2 * g - 2)
        if len(parts) == g - 1
    ]
    assert sorted(seen) == sorted(filtered) and len(seen) == 194


def test_dejonquieres_positive_checks_its_bound_before_any_work(monkeypatch):
    assert MAX_DEJONQUIERES_GENUS == 16
    calls = []
    monkeypatch.setattr(formulas, "dejonquieres", lambda *a: calls.append(a) or 1)
    with pytest.raises(
        CapacityError, match="^de Jonquieres genus 17 exceeds its bound 16$"
    ):
        dejonquieres_positive(MAX_DEJONQUIERES_GENUS + 1)
    assert calls == []
    assert dejonquieres_positive(MAX_DEJONQUIERES_GENUS) and calls


def test_dejonquieres_rejects_malformed_input():
    with pytest.raises(ValueError):
        dejonquieres(3, [2, 1])  # parts must sum to 2g - 2
    with pytest.raises(ValueError):
        dejonquieres(3, [4])  # needs g - 1 parts


def test_g3_slope_and_probe():
    res = slope_from_counts(RamificationProfile.of(5, "5"), 40, Fraction(258, 5))
    assert res.slope == Fraction(1548, 169)
    rows = g3_slope_probe([5, 7, 11])
    assert [r["d"] for r in rows] == [5, 7, 11]
    assert rows[0]["N"] == 40 and rows[0]["M"] == "258/5"
    assert rows[1]["N"] == 775 and rows[1]["M"] == "981"
    assert rows[2]["N"] == 16125 and rows[2]["M"] == "20295"
    slopes = [Fraction(r["slope"]) for r in rows]
    assert slopes[0] > slopes[1] > slopes[2] > 9


def test_g3_slope_probe_checks_its_largest_prime_before_any_work(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return closed_N_M(*args, **kwargs)

    monkeypatch.setattr(formulas, "closed_N_M", counted)
    with pytest.raises(CapacityError, match="bound 199"):
        g3_slope_probe(primes_up_to(211))
    assert calls == []
    assert [r["d"] for r in g3_slope_probe(iter([2, 3, 5]))] == [5]
    assert len(calls) == 1
