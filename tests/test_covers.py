"""Enumeration tests.  The oracle here is deliberately dumb: scan all of
S_d x S_d, keep the transitive pairs with the right commutator class, and
bucket them into simultaneous-conjugation orbits by brute force.  The
library must agree with it exactly on every count."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toruscovers import covers
from toruscovers.covers import (
    CapacityError,
    ConsistencyError,
    CoverClass,
    RamificationProfile,
    _type_context,
    aut_weighted_counts,
    canonical_pair,
    count_table,
    enumerate_classes,
    origami_key,
    period_lattice_index,
)
from toruscovers.formulas import closed_N_M
from toruscovers.perms import (
    centralizer_groups,
    class_elements,
    commutator,
    compose,
    conjugate,
    cycle_layout,
    cycle_type,
    inverse,
    is_transitive,
    parse_cycles,
    partitions,
    type_weight,
)


def _centralizer_elements(parts):
    return [z for _, zs in centralizer_groups(parts) for z in zs]


def _all_perms(d):
    return [tuple(p) for p in itertools.permutations(range(d))]


def _naive_classes(d, sigma_parts):
    """Partition the raw solution set into conjugation orbits directly."""
    perms = _all_perms(d)
    target = tuple(sorted(sigma_parts, reverse=True))
    sols = {
        (a, b)
        for a in perms
        for b in perms
        if cycle_type(commutator(a, b)) == target and is_transitive([a, b], d)
    }
    orbits = []
    while sols:
        a, b = next(iter(sols))
        orbit = {(conjugate(t, a), conjugate(t, b)) for t in perms}
        orbit &= sols
        sols -= orbit
        orbits.append(orbit)
    return orbits


NAIVE_CASES = [(3, "3"), (4, "3"), (4, "2,2"), (5, "3"), (5, "2,2"), (5, "5"), (4, "4")]


@pytest.mark.parametrize("d,sigma", NAIVE_CASES)
def test_enumeration_matches_naive_orbit_count(d, sigma):
    prof = RamificationProfile.of(d, sigma)
    classes = enumerate_classes(d, prof)
    orbits = _naive_classes(d, prof.parts)
    assert len(classes) == len(orbits)
    # per beta-type histograms agree too
    lib = {}
    for c in classes:
        lib[c.beta_type] = lib.get(c.beta_type, 0) + 1
    naive = {}
    for orbit in orbits:
        _, b = min(orbit)
        naive[cycle_type(b)] = naive.get(cycle_type(b), 0) + 1
    assert lib == naive


@pytest.mark.parametrize("d,sigma", NAIVE_CASES)
def test_each_class_is_one_naive_orbit(d, sigma):
    prof = RamificationProfile.of(d, sigma)
    classes = enumerate_classes(d, prof)
    orbits = _naive_classes(d, prof.parts)
    reps = {min(orbit) for orbit in orbits}
    canon = {canonical_pair(*rep) for rep in reps}
    assert canon == {(c.alpha, c.beta) for c in classes}


def _coset_solutions(ctx, sigma):
    """Yield every alpha with ``alpha beta0 alpha^-1 beta0^-1`` in the
    class sigma, beta0 the fixed representative of ctx.  Each alpha is
    produced exactly once (distinct gammas give disjoint cosets)."""
    beta0 = ctx.rep
    for gamma in class_elements(sigma):
        delta = compose(gamma, beta0)
        parts, t = cycle_layout(delta)
        if parts != ctx.parts:
            continue
        a0 = inverse(t)  # a0 beta0 a0^-1 == delta
        for z, _ in ctx.pairs():
            yield compose(a0, z)


def test_orbit_walk_matches_raw_coset_walk():
    # every gamma's coset, every transitive alpha, canonicalized one by one:
    # the same representatives in the same order as the orbit-aware walk
    for d in range(1, 8):
        for sigma in partitions(d):
            prof = RamificationProfile.of(d, sigma)
            expected = []
            if prof.admits_covers:
                for parts in partitions(d):
                    ctx = _type_context(parts)
                    canon = {
                        canonical_pair(a, ctx.rep)
                        for a in _coset_solutions(ctx, prof.parts)
                        if is_transitive([a, ctx.rep], d)
                    }
                    expected.extend(sorted(canon))
            got = [(c.alpha, c.beta) for c in enumerate_classes(d, prof)]
            assert got == expected, (d, sigma)


@pytest.mark.parametrize("d", range(1, 8))
def test_each_centralizer_orbit_of_supports_has_one_canonical_support(d):
    # oracle orbits: the images of a support under every element of C(beta0);
    # every k-subset of the d points, for every k, is some support's mask
    for parts in partitions(d):
        cent = _centralizer_elements(parts)
        left = set(range(1 << d))
        while left:
            mask = left.pop()
            orbit = {sum(1 << z[x] for x in range(d) if mask >> x & 1) for z in cent}
            left -= orbit
            canonical = [m for m in orbit if covers._canonical_support(m, parts)]
            assert len(canonical) == 1, (parts, sorted(orbit))


# every sigma at d <= 8, and the brute-d9 sets
BLOCK_CASES = [(d, sigma) for d in range(1, 9) for sigma in partitions(d)] + [
    (9, (3,)), (9, (2, 2)), (9, (5,))]


def test_block_verdict_matches_per_element_transitivity(monkeypatch):
    # the coset walk decides transitivity once per permutation pi of beta0's
    # cycles; the per-element walk is the oracle for every z of every coset
    walked = []
    real = covers._coset_reps

    def recording(ctx, a0, stab):
        walked.append((ctx, a0))
        return real(ctx, a0, stab)

    monkeypatch.setattr(covers, "_coset_reps", recording)
    for d, sigma in BLOCK_CASES:
        enumerate_classes(d, RamificationProfile.of(d, sigma))
    verdicts = Counter()
    for ctx, a0 in walked:
        hits = covers._cycle_hits(ctx, a0)
        for pi, group in ctx.groups():
            verdict = covers._joins_cycles(pi, hits)
            for z, _ in group:
                alpha = compose(a0, z)
                assert is_transitive((alpha, ctx.rep), len(a0)) == verdict, (a0, z)
                verdicts[verdict] += 1
    assert len(walked) == 5206
    assert sum(verdicts.values()) == 73_735 and verdicts[False] > 0


def test_enumeration_types_gammas_on_canonical_supports_only(monkeypatch):
    # the gamma filter types one delta per candidate gamma: 82,518 calls when
    # every gamma of the (5) class was tried for each beta type
    calls = []
    original = covers.cycle_type

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(covers, "cycle_type", counted)
    classes = enumerate_classes(9, RamificationProfile.of(9, "5"))
    assert len(classes) == 4550
    assert len(calls) < 10_000


def _agreed_least_conjugate(alpha, ctx):
    """Both canonicalizers on one alpha of beta = ctx.rep, which must agree."""
    got = covers._min_conjugate(alpha, ctx.parts)
    assert got == covers._min_over_elements(alpha, ctx), (ctx.parts, alpha)
    return got


@pytest.mark.parametrize("d", range(1, 9))
def test_min_conjugate_matches_centralizer_scan(d):
    # the backtrack gives the scan's least conjugate on every class and on
    # one random simultaneous conjugate of it: every beta type at d <= 7,
    # the types reached only by the quarter turn at d = 8
    rng = random.Random(d)
    classes = (_oracle_classes(d, tuple(partitions(d))) if d < 8 else
               [c for sigma in partitions(d)
                for c in enumerate_classes(d, RamificationProfile.of(d, sigma))
                if not covers._scanned(c.beta_type)])
    for c in classes:
        ctx = _type_context(c.beta_type)
        t = tuple(rng.sample(range(d), d))
        u = cycle_layout(conjugate(t, c.beta))[1]
        alpha = conjugate(u, conjugate(t, c.alpha))  # beta relabelled to ctx.rep
        assert _agreed_least_conjugate(c.alpha, ctx) == c.alpha
        assert _agreed_least_conjugate(alpha, ctx) == c.alpha
    assert len(classes) == {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163, 8: 1265}[d]


@lru_cache(maxsize=None)
def _tuple_pairs(parts):
    """C(type_rep(parts)) as (z, z^-1) tuples, in centralizer_groups order."""
    return tuple((z, inverse(z)) for z in _centralizer_elements(parts))


def _tuple_min_over_elements(alpha, parts):
    """The early-abort tuple scan that the byte kernel replaced: the
    lex-least z alpha z^-1 over z in C(type_rep(parts))."""
    d = len(alpha)
    best = list(alpha)
    for z, zinv in _tuple_pairs(parts):
        for x in range(d):
            v = z[alpha[zinv[x]]]
            b = best[x]
            if v > b:
                break
            if v < b:
                best = [z[alpha[zinv[y]]] for y in range(d)]
                break
    return tuple(best)


@pytest.mark.parametrize("d", range(1, 9))
def test_byte_scan_matches_the_tuple_scan(d):
    # every class of a scanned beta type, every sigma, and one random
    # simultaneous conjugate of each, relabelled so beta is ctx.rep
    rng = random.Random(d)
    count = 0
    for sigma in partitions(d):
        for c in enumerate_classes(d, RamificationProfile.of(d, sigma)):
            if not covers._scanned(c.beta_type):
                continue
            ctx = _type_context(c.beta_type)
            t = tuple(rng.sample(range(d), d))
            u = cycle_layout(conjugate(t, c.beta))[1]
            alpha = conjugate(u, conjugate(t, c.alpha))
            for a in (c.alpha, alpha):
                got = covers._min_over_elements(a, ctx)
                assert got == _tuple_min_over_elements(a, ctx.parts) == c.alpha, (c, a)
                assert type(got) is tuple
            count += 1
    assert count == {1: 1, 2: 2, 3: 6, 4: 21, 5: 92, 6: 566, 7: 4076, 8: 33205}[d]


@pytest.mark.parametrize("streamed", [False, True], ids=["cached", "streamed"])
def test_centralizer_pairs_are_bytes_with_inverses_in_group_order(monkeypatch, streamed):
    if streamed:
        monkeypatch.setattr(covers, "_MATERIALIZE_LIMIT", 0)
    for d in range(1, 8):
        for parts in partitions(d):
            ctx = _type_context(parts)
            groups = ctx.groups()
            assert (groups is ctx._cached_groups) != streamed
            groups = [(pi, list(group)) for pi, group in groups]
            assert [(pi, [z for z, _ in group]) for pi, group in groups] == [
                (pi, [bytes(z) for z in zs]) for pi, zs in centralizer_groups(parts)]
            pairs = list(ctx.pairs())
            assert pairs == [pair for _, group in groups for pair in group]
            assert len(pairs) == ctx.order
            for z, zinv in pairs:
                assert type(z) is bytes and type(zinv) is bytes and len(zinv) == d
                assert all(z[zinv[x]] == x for x in range(d))


def _tuple_orbit_and_stabilizer(parts, gamma):
    """gamma's orbit under C(type_rep(parts)) and its stabilizer, as tuples,
    by a tuple scan."""
    orbit, stab = set(), []
    for z, zinv in _tuple_pairs(parts):
        c = tuple([z[gamma[zinv[x]]] for x in range(len(gamma))])
        orbit.add(c)
        if c == gamma:
            stab.append((z, zinv))
    return orbit, stab


@pytest.mark.parametrize("limit", [60_000, 3], ids=["kept", "rescanned"])
def test_gamma_orbit_and_stabilizer_match_a_tuple_scan(monkeypatch, limit):
    # every gamma the enumeration scans, every sigma at d <= 7; under a
    # limit of 3 most stabilizers are scanned out of C(beta0) again
    scanned = []
    real = covers._gamma_orbit

    def recording(ctx, gamma):
        scanned.append((ctx, gamma))
        return real(ctx, gamma)

    monkeypatch.setattr(covers, "_gamma_orbit", recording)
    for d in range(1, 8):
        for sigma in partitions(d):
            enumerate_classes(d, RamificationProfile.of(d, sigma))
    monkeypatch.setattr(covers, "_MATERIALIZE_LIMIT", limit)
    rescans = 0
    for ctx, gamma in scanned:
        orbit, stab = real(ctx, gamma)
        want_orbit, want_stab = _tuple_orbit_and_stabilizer(ctx.parts, gamma)
        assert {tuple(c) for c in orbit} == want_orbit, (ctx.parts, gamma)
        assert [(tuple(s), tuple(sinv)) for s, sinv in stab] == want_stab
        assert len(orbit) * len(want_stab) == ctx.order
        # the identity's stabilizer, all of C(beta0), is always read afresh
        central = gamma == tuple(range(len(gamma)))
        assert isinstance(stab, covers._StabilizerScan) or not central
        rescans += isinstance(stab, covers._StabilizerScan) and not central
    assert len(scanned) == 757
    assert (rescans > 0) == (limit == 3)


# sha256 of the "{profile} {class}" lines of d=10 lists that are too long
# for the golden corpus, frozen from the enumeration that walked the cosets
# of every beta type
D10_DIGESTS = {
    "3": (297, "9c6d563b9585fd738e27d8bb9e3faea3ffc5f8bd4fe1bb77817509340288eb50"),
    "2,2": (1032, "7aee705ac625267fbb42b858380423df8b9863026bb08f7e6ebfa03edd465e69"),
    "5": (8470, "8da6df645e88d13bed50ebe27d66a9a6636ec4b227064e40958230f36361a927"),
    "1": (18, "46eb6e7c1ab75f7f6bfbd75b487e6b5a19a0b75db60674ba5d766935ad4297f5"),
}


@pytest.mark.parametrize("sigma", sorted(D10_DIGESTS))
def test_degree_10_lists_match_the_full_scan(sigma):
    prof = RamificationProfile.of(10, sigma)
    classes = enumerate_classes(10, prof, max_degree=10)
    text = "".join(f"{prof} {c}\n" for c in classes)
    assert (len(classes), hashlib.sha256(text.encode()).hexdigest()) == D10_DIGESTS[sigma]


def test_enumeration_reaches_past_degree_9():
    # a commuting transitive pair is an index-d sublattice of Z^2, and
    # there are sigma_1(d) of them
    for d in range(1, 11):
        classes = enumerate_classes(d, RamificationProfile.of(d, "1"), max_degree=10)
        assert len(classes) == sum(k for k in range(1, d + 1) if d % k == 0), d
    for sigma, family in (("3", "g2_31"), ("2,2", "g2_22")):
        table = count_table(11, RamificationProfile.of(11, sigma), max_degree=11)
        assert (table.N, table.M) == closed_N_M(11, family), sigma


def _raw_weighted_counts(d, prof):
    """Per beta type: transitive alphas of the raw coset walk over |C(beta0)|."""
    out = {}
    for parts in partitions(d):
        ctx = _type_context(parts)
        alphas = _coset_solutions(ctx, prof.parts)
        raw = sum(is_transitive([a, ctx.rep], d) for a in alphas)
        if raw:
            out[parts] = Fraction(raw, ctx.order)
    return out


@pytest.mark.parametrize("d", range(1, 8))
def test_aut_weighted_counts_match_raw_coset_walk(d):
    # orbit-stabilizer: a class holds |C(beta0)|/|Aut| transitive alphas of
    # the raw walk, so the 1/|Aut| sums are raw counts over |C(beta0)|
    for sigma in partitions(d):
        prof = RamificationProfile.of(d, sigma)
        assert aut_weighted_counts(d, prof) == _raw_weighted_counts(d, prof), sigma


def _classes_with_probes(rng):
    """Per sigma at d <= 6: each class, its stabilizer order, and the
    canonical pair of one random simultaneous conjugate."""
    out = {}
    for d in range(1, 7):
        perms = _all_perms(d)
        for sigma in partitions(d):
            rows = []
            for c in enumerate_classes(d, RamificationProfile.of(d, sigma)):
                t = rng.choice(perms)
                probe = canonical_pair(conjugate(t, c.alpha), conjugate(t, c.beta))
                rows.append((c, c.stabilizer_order, probe))
            out[d, sigma] = rows
    return out


def test_streamed_centralizer_matches_cached(monkeypatch):
    # every centralizer and every Stab(gamma) streamed afresh on each scan
    # gives what the cached tuples and lists give: the same classes,
    # canonical forms and stabilizer orders
    scans = []
    real_scan = covers._StabilizerScan

    def recording_scan(ctx, gamma):
        scans.append(gamma == tuple(range(len(gamma))))
        return real_scan(ctx, gamma)

    _type_context.cache_clear()
    cached = _classes_with_probes(random.Random(6))
    try:
        with monkeypatch.context() as m:
            m.setattr(covers, "_MATERIALIZE_LIMIT", 0)
            m.setattr(covers, "_StabilizerScan", recording_scan)
            _type_context.cache_clear()
            streamed = _classes_with_probes(random.Random(6))
    finally:
        _type_context.cache_clear()
    assert streamed == cached
    assert sum(len(rows) for rows in cached.values()) == 758
    # the trivial sigma, whose gamma (the identity) is central, is among
    # the cases, and stabilizers of central and other gammas were scanned
    assert all(len(cached[d, (1,) * d]) > 0 for d in range(1, 7))
    assert set(scans) == {True, False}
    assert all(
        (c.alpha, c.beta) == probe for rows in cached.values() for c, _, probe in rows
    )


def test_streamed_cosets_are_canonicalized_by_the_backtrack(monkeypatch):
    # a centralizer too large to keep is not scanned once per class: its
    # cosets' classes are canonicalized by _min_conjugate, which gives the
    # lex-least conjugate the scan of the kept centralizer gives
    def every_list():
        return {(d, sigma): enumerate_classes(d, RamificationProfile.of(d, sigma))
                for d in range(1, 8) for sigma in partitions(d)}

    scans = []
    real_scan = covers._min_over_elements

    def recording_scan(alpha, ctx):
        scans.append(ctx.parts)
        return real_scan(alpha, ctx)

    _type_context.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(covers, "_min_over_elements", recording_scan)
            scanned = every_list()
            assert scans
            m.setattr(covers, "_MATERIALIZE_LIMIT", 0)
            _type_context.cache_clear()
            del scans[:]
            backtracked = every_list()
            assert scans == []
    finally:
        _type_context.cache_clear()
    assert backtracked == scanned
    assert sum(map(len, scanned.values())) == 4921


def _scanned_stabilizer_order(c):
    """The former ``CoverClass.stabilizer_order``: scan all of C(beta0)
    for the elements that commute with alpha."""
    ctx = _type_context(c.beta_type)
    a = c.alpha  # count the z in C(beta) with z a = a z
    count = sum([z[x] for x in a] == [a[x] for x in z] for z, _ in ctx.pairs())
    if ctx.order % count:
        raise ConsistencyError("stabilizer order does not divide centralizer order")
    return count


# every sigma at d <= 7 and the twist-d9 sets (5) and (3)
ORACLE_SETS = [(d, tuple(partitions(d))) for d in range(1, 8)] + [(9, ((5,), (3,)))]
ORACLE_IDS = [str(d) for d in range(1, 8)] + ["9-twist-sets"]


@lru_cache(maxsize=None)
def _oracle_classes(d, sigmas):
    classes = tuple(
        c for sigma in sigmas for c in enumerate_classes(d, RamificationProfile.of(d, sigma))
    )
    assert len(classes) == {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163, 9: 4751}[d]
    return classes


@pytest.mark.parametrize("d,sigmas", ORACLE_SETS, ids=ORACLE_IDS)
def test_stabilizer_order_matches_centralizer_scan(d, sigmas):
    # automorphisms counted as the starts that give the origami key against
    # the scan of C(beta0)
    for c in _oracle_classes(d, sigmas):
        assert c.stabilizer_order == _scanned_stabilizer_order(c), str(c)


def _two_pass_period_lattice_index(alpha, beta):
    """The former ``period_lattice_index``: positions from a level-by-level
    search, then a second pass over every edge for the closing defects."""
    d = len(alpha)
    pos = {0: (0, 0)}
    frontier = [0]
    steps = ((alpha, (1, 0)), (beta, (0, 1)))
    while frontier:
        nxt = []
        for i in frontier:
            for g, (ex, ey) in steps:
                j = g[i]
                if j not in pos:
                    x, y = pos[i]
                    pos[j] = (x + ex, y + ey)
                    nxt.append(j)
        frontier = nxt
    assert len(pos) == d
    defects = []
    for i in range(d):
        for g, (ex, ey) in steps:
            j = g[i]
            wx = pos[i][0] + ex - pos[j][0]
            wy = pos[i][1] + ey - pos[j][1]
            if (wx, wy) != (0, 0):
                defects.append((wx, wy))
    index = 0
    for i, (ax, ay) in enumerate(defects):
        for bx, by in defects[i + 1 :]:
            index = gcd(index, abs(ax * by - ay * bx))
    return index


@pytest.mark.parametrize("d,sigmas", ORACLE_SETS, ids=ORACLE_IDS)
def test_period_lattice_index_matches_two_pass_route(d, sigmas):
    for c in _oracle_classes(d, sigmas):
        want = _two_pass_period_lattice_index(c.alpha, c.beta)
        assert period_lattice_index(c.alpha, c.beta) == want, str(c)


@pytest.mark.parametrize("d,sigmas", ORACLE_SETS, ids=ORACLE_IDS)
def test_period_lattice_index_of_relabelled_pairs_matches_two_pass_route(d, sigmas):
    # the index read off the key walk depends neither on the labelling nor
    # on the start that gives the key, which for most relabelled pairs is
    # not point 0
    rng = random.Random(d)
    away = 0
    classes = _oracle_classes(d, sigmas)
    for c in classes:
        t = tuple(rng.sample(range(d), d))
        alpha, beta = conjugate(t, c.alpha), conjugate(t, c.beta)
        want = _two_pass_period_lattice_index(c.alpha, c.beta)
        assert _two_pass_period_lattice_index(alpha, beta) == want, str(c)
        assert period_lattice_index(alpha, beta) == want, str(c)
        away += _start_key(alpha, beta, 0) != origami_key(alpha, beta)
    assert 2 * away > len(classes) or d < 4


@pytest.mark.parametrize("d", range(1, 9))
def test_commuting_classes_are_degree_d_isogenies(d):
    # a transitive commuting pair is the translation action on Z^2/L, L of
    # index d: the pullback of the degree-1 cover through a degree-d
    # isogeny, primitive only at d=1.  Its key walk starts from point 0
    # alone, and every start gives that key
    classes = enumerate_classes(d, RamificationProfile.of(d, "1"))
    assert len(classes) == sum(k for k in range(1, d + 1) if d % k == 0)
    for c in classes:
        assert _two_pass_period_lattice_index(c.alpha, c.beta) == d
        assert period_lattice_index(c.alpha, c.beta) == d
        assert c.is_primitive == (d == 1)
        assert {_start_key(c.alpha, c.beta, x) for x in range(d)} == {c.key}


def test_period_lattice_index_errors():
    a = parse_cycles("(1 2)", 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        period_lattice_index(a, parse_cycles("(1 2)", 3))
    with pytest.raises(ValueError, match="empty permutation"):
        period_lattice_index((), ())
    with pytest.raises(ValueError, match="not transitive"):
        period_lattice_index(a, a)
    # at d=1 both generators may be one tuple object; each is still its own
    # direction, so the lattice is all of Z^2
    one = (0,)
    assert period_lattice_index(one, one) == 1


def test_stabilizer_order_rejects_an_intransitive_pair():
    swap = parse_cycles("(1 2)", 4)
    with pytest.raises(ValueError, match="not transitive"):
        CoverClass(swap, swap).stabilizer_order


def test_canonical_pair_is_conjugation_invariant():
    d = 5
    a = parse_cycles("(1 2 3 4 5)")
    b = parse_cycles("(1 2)", 5)
    base = canonical_pair(a, b)
    for t in itertools.islice(itertools.permutations(range(d)), 0, 120, 7):
        t = tuple(t)
        assert canonical_pair(conjugate(t, a), conjugate(t, b)) == base


# every sigma at d <= 7, and the twist-d9 sets with (2,2) added
KEY_SETS = ORACLE_SETS[:-1] + [(9, ((5,), (3,), (2, 2)))]


@pytest.mark.parametrize("d,sigmas", KEY_SETS, ids=[str(d) for d, _ in KEY_SETS])
def test_origami_key_splits_pairs_as_canonical_pair_does(d, sigmas):
    # every class and its a and b images: two pairs share a key exactly
    # when they share a canonical pair
    classes = [c for sigma in sigmas
               for c in enumerate_classes(d, RamificationProfile.of(d, sigma))]
    pairs = []
    for c in classes:
        ab = compose(c.alpha, c.beta)
        pairs += [(c.alpha, c.beta), (c.alpha, ab), (ab, c.beta)]
    keys = [origami_key(a, b) for a, b in pairs]
    canon = [canonical_pair(a, b) for a, b in pairs]
    assert len(set(zip(keys, canon))) == len(set(keys)) == len(set(canon))
    assert len({c.key for c in classes}) == len(classes)
    assert len(classes) == {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624, 7: 4163,
                            9: 5319}[d]


def _start_key(alpha, beta, start):
    """The sequence of the breadth-first origami walk from one start."""
    label = {start: 0}
    order = [start]
    key = []
    for x in order:
        for g in (alpha, beta):
            if g[x] not in label:
                label[g[x]] = len(order)
                order.append(g[x])
            key.append(label[g[x]])
    return bytes(key)


def _every_start_key(alpha, beta):
    """The breadth-first origami key minimized over every start point."""
    return min(_start_key(alpha, beta, start) for start in range(len(alpha)))


def _support_key_walk(alpha, beta):
    """The origami key as the least sequence over *every* start of the
    commutator support, with the number of starts that give it (point 0
    alone and d automorphisms for a commuting pair)."""
    d = len(alpha)
    support = [x for x in range(d) if alpha[beta[x]] != beta[alpha[x]]]
    keys = [_start_key(alpha, beta, x) for x in support or [0]]
    key = min(keys)
    return key, keys.count(key) if support else d


# every sigma at d <= 7, and (2,2) at d=8, whose classes have automorphisms
FILTER_SETS = KEY_SETS[:-1] + [(8, ((2, 2),))]


@pytest.mark.parametrize("d,sigmas", FILTER_SETS, ids=[str(d) for d, _ in FILTER_SETS])
def test_key_walk_from_least_first_steps_matches_every_support_start(d, sigmas):
    # the walk starts only where its first step ranks least; the oracle
    # walks every support start.  Every class, its a and b images and a
    # random relabelling of each, so most keys do not start at point 0
    rng = random.Random(d)
    automorphic = 0
    for sigma in sigmas:
        for c in _classes_of_sigma(d, sigma):
            ab = compose(c.alpha, c.beta)
            for alpha, beta in ((c.alpha, c.beta), (c.alpha, ab), (ab, c.beta)):
                t = tuple(rng.sample(range(d), d))
                for pair in ((alpha, beta), (conjugate(t, alpha), conjugate(t, beta))):
                    want = _support_key_walk(*pair)
                    assert covers._key_walk(*pair) == want, str(c)
                    automorphic += want[1] > 1 and compose(*pair) != compose(*pair[::-1])
    # the (2,2) classes at d = 4, 6 and 8 include non-commuting pairs with
    # automorphisms, whose tied starts the filter must all keep
    assert automorphic > 0 or d % 2 or d < 4


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_walk_of_random_transitive_pairs_matches_every_support_start(data):
    d = data.draw(st.integers(1, 8), label="d")
    alpha = tuple(data.draw(st.permutations(range(d)), label="alpha"))
    beta = tuple(data.draw(st.permutations(range(d)), label="beta"))
    assume(is_transitive((alpha, beta), d))
    assert covers._key_walk(alpha, beta) == _support_key_walk(alpha, beta)


@pytest.mark.parametrize("d", range(1, 7))
def test_commuting_key_from_one_start_matches_every_start(d):
    # a commuting pair walks from point 0 alone; the oracle walks from all d.
    # Its group is regular abelian, its own centralizer: d automorphisms
    found = 0
    for alpha in itertools.permutations(range(d)):
        parts, t = cycle_layout(alpha)
        tinv = inverse(t)  # C(alpha) = t^-1 C(type_rep) t
        for z in _centralizer_elements(parts):
            beta = conjugate(tinv, z)
            assert compose(alpha, beta) == compose(beta, alpha)
            if is_transitive((alpha, beta), d):
                assert origami_key(alpha, beta) == _every_start_key(alpha, beta)
                assert CoverClass(alpha, beta).stabilizer_order == d
                found += 1
    # a transitive commuting pair is a regular action of Z^2 / L, L of index
    # d, and there are sigma_1(d) such L and (d-1)! pairs for each
    assert found == factorial(d - 1) * sum(k for k in range(1, d + 1) if d % k == 0)


@lru_cache(maxsize=None)
def _classes_of_sigma(d, sigma):
    return tuple(enumerate_classes(d, RamificationProfile.of(d, sigma)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_origami_key_is_relabelling_invariant(data):
    # trivial sigma included: a commuting pair walks from point 0 alone
    d = data.draw(st.integers(1, 7), label="d")
    sigma = data.draw(st.sampled_from(partitions(d)), label="sigma")
    classes = _classes_of_sigma(d, sigma)
    if not classes:
        return
    c = data.draw(st.sampled_from(classes), label="class")
    t = tuple(data.draw(st.permutations(range(d)), label="relabelling"))
    key = origami_key(conjugate(t, c.alpha), conjugate(t, c.beta))
    assert key == c.key == CoverClass(c.alpha, c.beta).key
    # the key spells a relabelling of the pair: label x goes to
    # key[2x] under alpha and to key[2x + 1] under beta
    assert canonical_pair(tuple(key[0::2]), tuple(key[1::2])) == (c.alpha, c.beta)


def test_origami_key_errors():
    a = parse_cycles("(1 2)", 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        origami_key(a, parse_cycles("(1 2)", 3))
    with pytest.raises(ValueError, match="not transitive"):
        origami_key(a, parse_cycles("(3 4)", 4))
    with pytest.raises(ValueError, match="not transitive"):
        CoverClass(a, a).key
    with pytest.raises(ValueError, match="empty permutation"):
        origami_key((), ())
    with pytest.raises(ValueError, match="empty permutation"):
        CoverClass((), ()).key
    with pytest.raises(ValueError, match="empty permutation"):
        CoverClass((), ()).stabilizer_order


def test_profile_parsing():
    p = RamificationProfile.of(6, "3")
    assert p.parts == (3, 1, 1, 1)
    assert p.nontrivial_parts == (3,)
    q = RamificationProfile.of(6, "2,2")
    assert q.parts == (2, 2, 1, 1)
    r = RamificationProfile.of(5, [5])
    assert r.parts == (5,)
    with pytest.raises(ValueError):
        RamificationProfile.of(3, "2,2")
    with pytest.raises(ValueError):
        RamificationProfile.of(4, "0,4")


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: RamificationProfile(()), "profile has no parts"),
        (lambda: RamificationProfile((2, 3)), "profile parts must be sorted descending"),
        (lambda: enumerate_classes(5, RamificationProfile.of(6, "3")),
         "profile degree mismatch"),
    ],
    ids=["no-parts", "ascending", "degree-mismatch"],
)
def test_malformed_profiles_raise_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_profile_parity_and_genus():
    # sum (part - 1) must be even for a one-point branched cover to exist
    assert RamificationProfile.of(4, "3").admits_covers
    assert not RamificationProfile.of(4, "2").admits_covers
    assert RamificationProfile.of(3, "3").genus == 2
    assert RamificationProfile.of(5, "5").genus == 3
    assert RamificationProfile.of(6, "2,2").genus == 2


def test_kappa_factor_counts_all_parts():
    # kappa = d - sum 1/l_i over every part, fixed points included
    p = RamificationProfile.of(5, "3")
    assert p.kappa_factor == 5 - (Fraction(1, 3) + 1 + 1)


def test_kappa_factor_matches_the_per_part_sum():
    profiles = [RamificationProfile(p) for d in range(1, 13) for p in partitions(d)]
    profiles.append(RamificationProfile.of(10_007, "5"))
    for p in profiles:
        assert p.kappa_factor == p.degree - sum(Fraction(1, l) for l in p.parts)


def test_class_invariants_under_action_input_order():
    prof = RamificationProfile.of(5, "3")
    for c in enumerate_classes(5, prof):
        assert cycle_type(commutator(c.alpha, c.beta)) == prof.parts
        assert is_transitive([c.alpha, c.beta], 5)
        assert c.commutator_type == prof.parts
        assert c.weight == type_weight(c.beta_type)


def test_counts_table_totals():
    prof = RamificationProfile.of(5, "3")
    table = count_table(5, prof)
    assert table.N == 27
    assert table.M == Fraction(30)
    assert dict(table.by_type)[(5,)] == 10  # single beta cycle
    prof22 = RamificationProfile.of(5, "2,2")
    t22 = count_table(5, prof22)
    assert (t22.N, t22.M) == (24, Fraction(30))


def test_burnside_agrees_with_brute_at_primes():
    for d, sigma in [(5, "3"), (5, "2,2"), (5, "5"), (7, "3")]:
        prof = RamificationProfile.of(d, sigma)
        brute = count_table(d, prof, method="brute")
        fast = count_table(d, prof, method="burnside")
        assert brute.by_type == fast.by_type


def test_burnside_rejects_composite_degree():
    prof = RamificationProfile.of(6, "3")
    with pytest.raises(ValueError):
        count_table(6, prof, method="burnside")


def test_burnside_rejects_trivial_sigma_before_any_enumeration(monkeypatch):
    # commuting transitive pairs of prime degree all have automorphisms
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(covers, "enumerate_classes", no_work)
    with pytest.raises(ValueError, match="nontrivial sigma"):
        count_table(5, RamificationProfile.of(5, "1"), method="burnside")


def test_capacity_guard():
    prof = RamificationProfile.of(10, "3")
    with pytest.raises(CapacityError):
        enumerate_classes(10, prof)
    assert enumerate_classes(10, prof, max_degree=10) is not None
    # weighted counts enumerate and share the bound
    with pytest.raises(CapacityError):
        aut_weighted_counts(10, RamificationProfile.of(10, [2, 2]))


def test_degree_past_the_byte_labels_is_refused_before_any_work(monkeypatch):
    # the scans and the key spell points as bytes: d = 257 is refused under
    # a bound of 257 before the types of d are listed
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the byte-label bound")

    monkeypatch.setattr(covers, "partitions", no_work)
    prof = RamificationProfile.of(257, "3")
    with pytest.raises(CapacityError, match="^byte-label degree 257 exceeds its bound 256$"):
        enumerate_classes(257, prof, max_degree=257)
    with pytest.raises(CapacityError, match="byte-label degree 257"):
        count_table(257, prof, max_degree=300)
    cycle = tuple(range(1, 257)) + (0,)
    with pytest.raises(ValueError, match="^degree 257 exceeds the byte-label bound 256$"):
        covers._key_walk(cycle, tuple(range(257)))
    with pytest.raises(ValueError, match="degree 257"):
        origami_key(cycle, cycle)
    # 256 points still fit: the 256-cycle commutes with itself, index d
    cycle = tuple(range(1, 256)) + (0,)
    assert period_lattice_index(cycle, cycle) == 256


def test_weighted_count_against_raw_pair_scan():
    # weighted count = (number of transitive pairs) / d!,
    # independently recount by scanning all pairs
    for d, k, parts in [(3, 1, (3,)), (4, 1, (4,)), (4, 1, (2, 1, 1)),
                        (4, 2, (4,)), (5, 2, (5,))]:
        perms = _all_perms(d)
        target = (2,) * k + (1,) * (d - 2 * k)
        raw = sum(
            1
            for a in perms
            for b in perms
            if cycle_type(b) == parts
            and cycle_type(commutator(a, b)) == target
            and is_transitive([a, b], d)
        )
        weighted = aut_weighted_counts(d, RamificationProfile.of(d, [2] * k))
        assert weighted.get(parts, 0) == Fraction(raw, factorial(d))


def test_period_lattice_index_and_primitivity():
    # degree-2 unramified-style doubling: both permutations in the
    # subgroup generated by (1 2) x shift -> index 2 lattice
    a = parse_cycles("(1 2)", 2)
    b = parse_cycles("()", 2)
    assert period_lattice_index(a, b) == 2
    c = CoverClass.from_pair(a, parse_cycles("(1 2)", 2))
    assert period_lattice_index(c.alpha, c.beta) in (1, 2)
    # a transitive prime-degree pair with full group is primitive
    prof = RamificationProfile.of(5, "3")
    assert all(c.is_primitive for c in enumerate_classes(5, prof))


def test_imprimitive_classes_exist_at_degree_6():
    prof = RamificationProfile.of(6, "3")
    flags = {c.is_primitive for c in enumerate_classes(6, prof)}
    assert flags == {True, False}


def test_enumeration_order_is_deterministic():
    prof = RamificationProfile.of(5, "5")
    a = [str(c) for c in enumerate_classes(5, prof)]
    b = [str(c) for c in enumerate_classes(5, prof)]
    assert a == b
    types = [c.beta_type for c in enumerate_classes(5, prof)]
    order = {t: i for i, t in enumerate(partitions(5))}
    assert types == sorted(types, key=order.get)


@pytest.mark.parametrize(
    "d,sigma,n_classes,stab_sum",
    [(4, "3", 9, 9), (6, "2,2", 88, 104), (6, "3,3", 126, 207)],
    ids=["4-3", "6-2,2", "6-3,3"],
)
def test_stabilizer_orbit_relation(d, sigma, n_classes, stab_sum):
    # |class orbit| * |stabilizer| = d! for every class (orbit-stabilizer)
    prof = RamificationProfile.of(d, sigma)
    perms = _all_perms(d)
    classes = enumerate_classes(d, prof)
    for c in classes:
        orbit = {(conjugate(t, c.alpha), conjugate(t, c.beta)) for t in perms}
        assert len(orbit) * c.stabilizer_order == factorial(d)
    assert len(classes) == n_classes
    assert sum(c.stabilizer_order for c in classes) == stab_sum


def test_stabilizer_scan_of_the_identity_is_the_whole_centralizer():
    # the identity gamma of trivial sigma is central: its scan yields all
    # of C(beta0), in the order of the centralizer's own scan
    for parts in ((2, 2, 2, 1), (3, 3, 1, 1), (4, 2, 2)):
        ctx = _type_context(parts)
        scan = covers._StabilizerScan(ctx, tuple(range(sum(parts))))
        assert list(scan) == list(ctx.pairs())
        assert len(list(scan)) == ctx.order
