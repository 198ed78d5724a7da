import hashlib
from fractions import Fraction

import pytest

from toruscovers import formulas
from toruscovers.covers import CapacityError, RamificationProfile, enumerate_classes
from toruscovers.formulas import (
    MAX_CLOSED_FORM_DEGREE,
    QSeries,
    UnclassifiedTypeError,
    admissible_types,
    assembled_N_M,
    closed_N_M,
    convolution_identity,
    dejonquieres,
    dejonquieres_positive,
    divisor_sigma,
    eisenstein,
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
    sum_identity_l1l2,
)
from toruscovers.geometry import slope_from_counts
from toruscovers.perms import type_weight

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


def test_qseries_arithmetic():
    a = QSeries([1, 2, 3])
    b = QSeries([0, 1, 1])
    assert (a + b)[1] == 3
    assert (a * b)[2] == 1 * 1 + 2 * 1
    assert (a - a) == QSeries([0, 0, 0])
    assert a.q_derivative()[2] == 6
    assert (a / 2)[2] == Fraction(3, 2)
    assert a.truncate(2).order == 2


def test_divisor_sigma_values():
    assert [divisor_sigma(1, n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert divisor_sigma(3, 4) == 1 + 8 + 64


def test_eisenstein_expansions():
    P = eisenstein("P", 5)
    assert [P[n] for n in range(5)] == [1, -24, -72, -96, -168]
    Q = eisenstein("Q", 4)
    assert [Q[n] for n in range(4)] == [1, 240, 2160, 6720]
    R = eisenstein("R", 3)
    assert [R[n] for n in range(3)] == [1, -504, -16632]


def test_ramanujan_odes():
    assert ramanujan_check(80)


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
    from toruscovers.formulas import family_sigma

    prof = RamificationProfile.of(d, family_sigma(family))
    live = {}
    for c in enumerate_classes(d, prof):
        live[c.beta_type] = live.get(c.beta_type, 0) + 1
    for parts in admissible_types(d, family):
        assert per_type_N(d, family, parts) == live.get(parts, 0)
    covered = set(admissible_types(d, family))
    assert set(live) <= covered


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


def test_closed_forms_past_their_bound_raise_capacity_error():
    assert MAX_CLOSED_FORM_DEGREE == 199
    for call in (assembled_N_M, closed_N_M, genus_closed, admissible_types):
        with pytest.raises(CapacityError):
            list(call(211, "g2_31"))


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
