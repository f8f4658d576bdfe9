import dataclasses
import json
import math
import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pretense import constructions
from pretense.constructions import (
    archimedean_twist,
    dirichlet_character,
    euler_phi,
    kronecker_character,
    kronecker_symbol,
    optimality_twist,
    phase_sum_partials,
    sparse_dyadic,
    spec_descriptor,
    spec_from_descriptor,
    squarefree_restrict,
    standard_spec,
    tabulated_spec,
    twist_sign_rule,
)
from pretense import core
from pretense.core import (
    COMPLETELY_MULTIPLICATIVE,
    GENERAL_MULTIPLICATIVE,
    ValueTable,
    build_sieve,
    evaluate,
    geometric_checkpoints,
    partial_sums,
    prime_values_of,
)
from pretense.degree import degree_d_spec, perturbed_member
from pretense.dirichlet import (
    convolve_spec,
    convolve_table,
    dirichlet_inverse,
    solve_quotient,
)
from pretense.errors import InvalidArgumentError, OutOfRangeError, PretenseError
from pretense.randspecs import random_pair_sparse_diff, random_spec

from conftest import table_csv
from oracles import (
    brute_factorize,
    brute_moebius,
    brute_squarefree_char_sums,
    divisor_fold,
    product_copy,
    real_at_prime_powers,
    reference_evaluate,
)


# ---------------------------------------------------------------------------
# builtin specs

def test_standard_specs_small_values(sieve_1e4):
    one = evaluate(standard_spec("one"), sieve_1e4, 20)
    assert np.all(one.values[1:] == 1)
    delta = evaluate(standard_spec("delta"), sieve_1e4, 20)
    assert delta.values[1] == 1 and np.all(delta.values[2:] == 0)
    mu = evaluate(standard_spec("moebius"), sieve_1e4, 20)
    assert list(mu.values[1:11].real) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_standard_spec_unknown_name():
    with pytest.raises(InvalidArgumentError):
        standard_spec("zeta")


# ---------------------------------------------------------------------------
# characters

@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 15, 16, 20])
def test_character_family_properties(q, sieve_1e4):
    period = 3 * q
    for index in range(euler_phi(q)):
        chi = dirichlet_character(q, index)
        t = evaluate(chi, sieve_1e4, period)
        v = t.values
        # periodicity and support; dense evaluation rebuilds values from
        # prime factorizations, so complex characters agree to roundoff only
        for n in range(1, period - q + 1):
            assert v[n] == pytest.approx(v[n + q], abs=1e-12)
        for n in range(1, period + 1):
            if np.gcd(n, q) != 1:
                assert v[n] == 0
        # complete multiplicativity on a sample
        for a in range(1, 30):
            for b in range(1, 20):
                if a * b <= period:
                    assert v[a] * v[b] == pytest.approx(v[a * b], abs=1e-12)
        # orthogonality: sum over a period is 0 unless principal
        total = complex(np.sum(v[1 : q + 1]))
        if index == 0:
            assert total == pytest.approx(euler_phi(q))
        else:
            assert abs(total) <= 1e-12


def test_character_count_matches_totient():
    for q in range(3, 21):
        specs = [dirichlet_character(q, i) for i in range(euler_phi(q))]
        tables = {tuple(np.round(evaluate(s, build_sieve(3 * q)).values[1 : q + 1], 9))
                  for s in specs}
        assert len(tables) == euler_phi(q)


def test_real_characters_are_exactly_plus_minus_one(sieve_1e4):
    for q in (3, 4):
        chi = dirichlet_character(q, 1)
        t = evaluate(chi, sieve_1e4, 100)
        for n in range(1, 101):
            assert t.values[n] in (1.0, -1.0, 0.0)
    # chi mod 4: the classic alternating pattern on odds
    chi4 = evaluate(dirichlet_character(4, 1), sieve_1e4, 12)
    assert list(chi4.values[1:9].real) == [1, 0, -1, 0, 1, 0, -1, 0]


def test_character_index_range():
    with pytest.raises(InvalidArgumentError):
        dirichlet_character(4, 2)
    with pytest.raises(InvalidArgumentError):
        dirichlet_character(4, -1)
    with pytest.raises(InvalidArgumentError):
        dirichlet_character(2, 1)
    with pytest.raises(InvalidArgumentError):
        dirichlet_character(0, 0)
    # trivial moduli are allowed and principal
    assert dirichlet_character(1, 0).value(5, 1) == 1.0


def test_character_against_kronecker(sieve_1e4):
    # the two real-character routes agree where both are defined
    for q, D in ((3, -3), (4, -4)):
        a = evaluate(dirichlet_character(q, 1), sieve_1e4, 50).values
        b = evaluate(kronecker_character(D), sieve_1e4, 50).values
        assert np.array_equal(a, b)


def test_a_corrupted_period_fails_at_construction():
    # the construction checks that the period is a character mod q, and
    # leaves nothing in the spec's cache
    for build, units in ((lambda: dirichlet_character(7, 1), range(1, 7)),
                         (lambda: kronecker_character(5), range(1, 5))):
        good = build()
        assert good._cache == {}
        name, params = good.name, good.params
        again = constructions._periodic_spec(name, good.period.copy(), params)
        assert again.period.tobytes() == good.period.tobytes()
        for r in units:
            bad = good.period.copy()
            bad[r] *= np.exp(0.25j)  # still on the unit circle
            with pytest.raises(PretenseError, match="disagrees with its rule"):
                constructions._periodic_spec(name, bad, params)


@pytest.mark.parametrize("q, r", [(6, 5), (18, 11)])
def test_a_corruption_whose_class_holds_only_small_primes_fails(q, r):
    # 5, 11, 17 = 5 mod 6 and 11, 29, 47 = 11 mod 18 are prime, so a product
    # fill on [1, 3q] reads the corrupted f(r) at every n = r mod q there
    for index in range(euler_phi(q)):
        good = dirichlet_character(q, index)
        bad = good.period.copy()
        bad[r] *= np.exp(0.5j)
        with pytest.raises(PretenseError, match="disagrees with its rule"):
            constructions._periodic_spec(good.name, bad, good.params)


def test_the_period_check_accepts_every_character_and_catches_every_corruption():
    for q in range(1, 41):
        for index in range(euler_phi(q)):
            good = dirichlet_character(q, index)
            if q < 3:
                continue
            for r in np.flatnonzero(good.period).tolist():
                bad = good.period.copy()
                bad[r] *= np.exp(0.5j)
                with pytest.raises(PretenseError, match="disagrees with its rule"):
                    constructions._periodic_spec(good.name, bad, good.params)
    for D in (1, -3, -4, 5, -7, 8, -8, 12, 13, -15, -20, 21, 24, -24, 28):
        kronecker_character(D)
    # a nonzero entry off the units, and a zero on one, fail too
    chi = dirichlet_character(9, 1)
    for r, v in ((3, 1.0), (2, 0.0)):
        bad = chi.period.copy()
        bad[r] = v
        with pytest.raises(PretenseError, match=f"disagrees with its rule at n={r}$"):
            constructions._periodic_spec(chi.name, bad, chi.params)


@pytest.mark.parametrize("q", [7, 11, 13])
def test_character_sums_drift_by_whole_periods(q, sieve_1e6):
    # the tiled table is the rounded period repeated, so S(x) is
    # floor(x/q)·P + prefix(x mod q), P the sum of the period, exactly up to
    # Sum2's own error; its drift from the bounded prefix grows with x
    chi = dirichlet_character(q, 1)
    period = chi.period

    def fsum(vals):
        return complex(math.fsum(vals.real), math.fsum(vals.imag))

    total = fsum(period)
    prefix = np.array([fsum(period[1 : r + 1]) for r in range(q)])
    rng = np.random.default_rng(q)
    x = np.unique(np.concatenate([geometric_checkpoints(1, 10**6),
                                  rng.integers(1, 10**6 + 1, 2000), [10**6]]))
    n = x.astype(np.int64)
    got = partial_sums(evaluate(chi, sieve_1e6), x).sums
    want = (n // q) * total + prefix[n % q]
    assert np.max(np.abs(got - want)) <= 1e-12
    # the drift term is not vacuous: without it the same bound fails
    assert total != 0
    assert np.max(np.abs(got - prefix[n % q])) > 1e-11


def test_kronecker_symbol_classical_table():
    # quadratic reciprocity spot checks
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(3, 7) == -1
    assert kronecker_symbol(-1, 5) == 1
    assert kronecker_symbol(-1, 7) == -1
    assert kronecker_symbol(6, 9) == 0


def test_kronecker_rejects_non_fundamental():
    with pytest.raises(InvalidArgumentError):
        kronecker_character(-6)  # 2 mod 4
    with pytest.raises(InvalidArgumentError):
        kronecker_character(9)  # 1 mod 4 but not squarefree


# ---------------------------------------------------------------------------
# archimedean twist

def test_archimedean_twist_values(sieve_1e4):
    t = 2.5
    spec = archimedean_twist(t)
    tab = evaluate(spec, sieve_1e4, 100)
    for n in (2, 3, 10, 97):
        want = complex(n) ** (1j * t)
        assert tab.values[n] == pytest.approx(want, abs=1e-12)
    assert abs(tab.values[7]) == pytest.approx(1.0)


def test_archimedean_twist_height_cap():
    with pytest.raises(InvalidArgumentError):
        archimedean_twist(10**7)


# ---------------------------------------------------------------------------
# sparse dyadic intervals

def test_sparse_dyadic_interval_membership(sieve_1e4):
    base = standard_spec("moebius")  # not completely multiplicative on purpose
    chi = dirichlet_character(4, 1)
    f = sparse_dyadic(chi, [2, 3])
    # intervals [2^4, 2^5) and [2^8, 2^9)
    inside = [17, 19, 23, 29, 31, 257, 263, 509]
    outside = [2, 3, 5, 7, 11, 13, 37, 127, 521]
    for p in inside:
        assert f.value(p, 1) == 1.0
    for p in outside:
        assert f.value(p, 1) == chi.value(p, 1)


def test_sparse_dyadic_distance_budget_params():
    chi = dirichlet_character(4, 1)
    f = sparse_dyadic(chi, [2, 3])
    pr = f.params
    assert pr["construction"] == "sparse-dyadic"
    assert pr["exponents"] == [2, 3]
    assert pr["intervals"] == [[16, 32], [256, 512]]
    # each flooded interval costs at most sum of 2/p over its primes
    assert pr["distance_budget_total"] <= sum(2.0 / 2 ** 2**j for j in (2, 3)) * 40


def test_sparse_dyadic_duplicate_interval_rejected():
    with pytest.raises(InvalidArgumentError):
        sparse_dyadic(dirichlet_character(4, 1), [2, 2])


def test_sparse_dyadic_finite_distance(sieve_1e6):
    from pretense.metrics import distance_classic

    chi = dirichlet_character(4, 1)
    f = sparse_dyadic(chi, [3, 4])
    rep = distance_classic(f, chi, 10**6, sieve=sieve_1e6)
    # interval primes contribute at most 2/p each; stays well under 1
    assert rep.total <= 1.0


# ---------------------------------------------------------------------------
# optimality twist and phase sums

def test_twist_sign_rule_real_input(sieve_1e6):
    rule, diag = twist_sign_rule(standard_spec("one"), 10**6, sieve=sieve_1e6)
    assert rule == "along-real"
    assert diag < 10.0


def test_optimality_twist_structure(sieve_1e6):
    g = optimality_twist(standard_spec("one"), beta=0.5,
                         diagnostics_cutoff=10**6, sieve=sieve_1e6)
    assert g.params["construction"] == "optimality-twist"
    assert g.params["sign_rule"] == "along-real"
    # untwisted at 2 and 3
    assert g.value(2, 1) == 1.0 and g.value(3, 1) == 1.0
    # twisted on the unit circle elsewhere, angle shrinking in p
    import math

    for p in (5, 101, 9973):
        v = complex(g.value(p, 1))
        assert abs(abs(v) - 1.0) <= 1e-12
        # angle in turns; wraps past a full turn at small p
        turns = 1.0 / (p ** 0.25 * math.log(math.log(p)))
        want = complex(math.cos(2 * math.pi * turns), math.sin(2 * math.pi * turns))
        assert v == pytest.approx(want, abs=1e-12)


def test_optimality_twist_validation():
    with pytest.raises(InvalidArgumentError):
        optimality_twist(standard_spec("one"), beta=1.0)
    with pytest.raises(InvalidArgumentError):
        optimality_twist(standard_spec("moebius"), beta=0.5)  # not CM


@pytest.mark.parametrize("call", [
    lambda sv: twist_sign_rule(standard_spec("one"), 10**6, sieve=sv),
    lambda sv: optimality_twist(standard_spec("one"), beta=0.5,
                                diagnostics_cutoff=10**6, sieve=sv),
    lambda sv: phase_sum_partials(standard_spec("one"), tau=1.0, cutoff=10**6, sieve=sv),
], ids=["twist_sign_rule", "optimality_twist", "phase_sum_partials"])
def test_twist_rejects_a_sieve_short_of_the_cutoff(sieve_1e4, call):
    # such a sieve used to give a diagnostic or sums over the primes ≤ 1e4
    with pytest.raises(InvalidArgumentError, match="cutoff 1000000 beyond sieve limit 10000"):
        call(sieve_1e4)


def test_phase_sum_partials_monotone_imaginary(sieve_1e6):
    s = phase_sum_partials(standard_spec("one"), tau=1.0, cutoff=10**6,
                           sieve=sieve_1e6)
    assert np.all(np.diff(s.sums.imag) > 0)
    with pytest.raises(InvalidArgumentError):
        phase_sum_partials(standard_spec("one"), tau=0.5, cutoff=100)


# ---------------------------------------------------------------------------
# squarefree restriction

def test_squarefree_restrict_values(sieve_1e4):
    chi = dirichlet_character(4, 1)
    chit = squarefree_restrict(chi)
    t = evaluate(chit, sieve_1e4, 200)
    c = evaluate(chi, sieve_1e4, 200)
    for n in range(1, 201):
        if brute_moebius(n) == 0:
            assert t.values[n] == 0
        else:
            assert t.values[n] == c.values[n]


@pytest.mark.parametrize("q, residues", [(4, [0, 1, 0, -1]), (3, [0, 1, -1])])
def test_squarefree_restricted_sums_match_sieve_oracle(sieve_1e6, q, residues):
    # the program side of criterion 08: the sums its growth band is fitted to
    grid = geometric_checkpoints(10, 10**6)
    chit = squarefree_restrict(dirichlet_character(q, 1))
    got = partial_sums(evaluate(chit, sieve_1e6), grid).sums
    want = brute_squarefree_char_sums(residues, 10**6, grid)
    assert np.all(got.imag == 0)
    assert got.real.tolist() == [float(w) for w in want]


def test_squarefree_restrict_idempotent():
    chi = dirichlet_character(4, 1)
    once = squarefree_restrict(chi)
    twice = squarefree_restrict(once)
    assert twice is once


# ---------------------------------------------------------------------------
# descriptors

@pytest.mark.parametrize("build", [
    lambda: standard_spec("moebius"),
    lambda: dirichlet_character(12, 3),
    lambda: kronecker_character(-8),
    lambda: archimedean_twist(1.25),
    lambda: sparse_dyadic(dirichlet_character(4, 1), [2, 4]),
    lambda: squarefree_restrict(dirichlet_character(3, 1)),
    lambda: standard_spec("one"),
    lambda: standard_spec("delta"),
    lambda: standard_spec("liouville"),
    lambda: random_spec(3, limit=1000, kind=GENERAL_MULTIPLICATIVE),
    lambda: random_pair_sparse_diff(2, limit=1000, ndiff=4)[1],
    lambda: optimality_twist(dirichlet_character(4, 1), 0.5, diagnostics_cutoff=10**4),
    lambda: degree_d_spec([dirichlet_character(4, 1), archimedean_twist(0.5)]),
    lambda: _seeded_table(500, 9),
])
def test_descriptor_roundtrip(build, sieve_1e4):
    spec = build()
    desc = spec_descriptor(spec)
    json.dumps(desc)  # must be serializable
    back = spec_from_descriptor(desc)
    a = evaluate(spec, sieve_1e4, 500).values
    b = evaluate(back, sieve_1e4, 500).values
    assert np.array_equal(a, b)


def _seeded_table(n, seed, kind="tabulated"):
    """tabulated_spec with seeded values at every prime power <= n (only at
    the primes for a completely multiplicative table)."""
    rng = np.random.default_rng(seed)
    rows = {}
    for p in build_sieve(n).primes.tolist():
        pk, k = p, 1
        while pk <= n and (k == 1 or kind != COMPLETELY_MULTIPLICATIVE):
            rows[(p, k)] = complex(*rng.standard_normal(2))
            pk, k = pk * p, k + 1
    return tabulated_spec(rows, kind=kind)


ZOO_LIMIT = 20_000


@lru_cache(maxsize=None)
def _zoo():
    """One spec of every construction, tabulated ones up to ZOO_LIMIT, and a
    copy of chi7 without its period, which evaluate fills by products."""
    chi4, chi7 = dirichlet_character(4, 1), dirichlet_character(7, 1)
    rand_gm = random_spec(5, limit=ZOO_LIMIT, kind=GENERAL_MULTIPLICATIVE, max_exponent=15)
    return tuple(standard_spec(n) for n in ("one", "delta", "moebius", "liouville")) + (
        chi7,
        product_copy(chi7),
        kronecker_character(-8),
        archimedean_twist(1.25),
        sparse_dyadic(chi7, [2, 3]),
        optimality_twist(chi4, 0.5, diagnostics_cutoff=10**4),
        squarefree_restrict(chi7),
        random_spec(4, limit=ZOO_LIMIT),
        rand_gm,
        random_pair_sparse_diff(6, limit=ZOO_LIMIT, ndiff=5)[1],
        degree_d_spec([chi4, archimedean_twist(0.5), chi7]),
        _seeded_table(ZOO_LIMIT, 7),
        _seeded_table(ZOO_LIMIT, 8, kind=COMPLETELY_MULTIPLICATIVE),
        solve_quotient(chi7, archimedean_twist(1.25), (2, 3), 4).spec,
        dirichlet_inverse(rand_gm),
        convolve_spec(archimedean_twist(0.5), standard_spec("liouville")),
        perturbed_member(chi7, 3, 1, 0.25),
        squarefree_restrict(chi4),
        degree_d_spec([kronecker_character(-4), kronecker_character(-3)]),
    )


def _bits(vals):
    return np.asarray(vals, dtype=np.complex128).view(np.uint64)


@given(st.integers(min_value=2, max_value=ZOO_LIMIT), st.data())
@settings(max_examples=40, deadline=None)
def test_prime_powers_have_one_definition(n, data):
    # every p^k <= n: the dense table, value() and rule() agree to the bit,
    # and the prime map at all primes at once equals value(p, 1)
    spec = data.draw(st.sampled_from(_zoo()), label="spec")
    sieve = build_sieve(ZOO_LIMIT)
    table = evaluate(spec, sieve, n).values
    ps = sieve.primes[sieve.primes <= n]
    assert np.array_equal(
        _bits(prime_values_of(spec, ps)), _bits([spec.value(p, 1) for p in ps.tolist()])
    )
    # a float64 table holds the real bits of values whose imaginary part is 0
    real = table.dtype == np.float64
    for p in ps.tolist():
        pk, k = p, 1
        while pk <= n:
            got = table[pk : pk + 1].view(np.uint64)
            for v in (spec.value(p, k), spec.rule(p, k)):
                want = _bits([v])
                if real:
                    assert complex(v).imag == 0, (spec.name, p, k)
                    want = want[:1]
                assert np.array_equal(got, want), (spec.name, p, k)
            pk, k = pk * p, k + 1


@pytest.mark.parametrize("length", [1, 3, 64, None])
def test_power_table_is_value_to_the_bit(length):
    # every zoo spec, on the primes <= 1e3 whole and in slices: a fresh copy's
    # table (filled from copies of empty stores) and the table read back from
    # the stores value() filled both hold value()'s bits, or both raise where
    # value() does (a tabulated spec stops at p^k <= ZOO_LIMIT)
    ps = build_sieve(1000).primes
    K = 5
    for spec in _zoo():
        for a in range(0, ps.size, length or ps.size):
            s = ps[a : a + (length or ps.size)]
            fresh = dataclasses.replace(spec, _cache={})
            try:
                want = [[spec.value(p, j) for p in s.tolist()] for j in range(K + 1)]
            except PretenseError:
                for t in (fresh, spec):
                    with pytest.raises(PretenseError):
                        t.power_table(s, K)
                continue
            for got in (fresh.power_table(s, K), spec.power_table(s, K)):
                assert got.dtype == np.complex128 and got.shape == (K + 1, s.size)
                assert np.array_equal(got.view(np.uint64), _bits(want)), spec.name


@pytest.mark.parametrize("make", [
    lambda: standard_spec("moebius"),
    lambda: squarefree_restrict(dirichlet_character(4, 1)),
    lambda: solve_quotient(dirichlet_character(4, 1), standard_spec("moebius"), (2, 3), 2).spec,
], ids=["moebius", "sqfree-chi4", "quotient"])
def test_power_table_keeps_nothing(make):
    spec = make()
    before = {p: list(c) for p, c in spec._cache.items()}
    t = spec.power_table(build_sieve(10**4).primes, 4)
    assert {p: list(c) for p, c in spec._cache.items()} == before
    assert t[:, 1].tolist() == [spec.value(3, j) for j in range(5)]


@lru_cache(maxsize=None)
def _real_zoo():
    return tuple(s for s in _zoo() if real_at_prime_powers(s, ZOO_LIMIT))


@given(st.integers(min_value=1, max_value=ZOO_LIMIT), st.data())
@settings(max_examples=30, deadline=None)
def test_tables_are_real_exactly_when_every_prime_power_value_is(n, data):
    spec = data.draw(st.sampled_from(_zoo()), label="spec")
    other = data.draw(st.sampled_from(_real_zoo()), label="other")
    real = real_at_prime_powers(spec, n)
    for b in (1, 3, 64, core.BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            sieve = build_sieve(max(n, 2))
            table = evaluate(spec, sieve, n)
            ref = reference_evaluate(spec, sieve, n)
            assert table.values.dtype == (np.float64 if real else np.complex128), b
            if not real:
                assert table.values.tobytes() == ref.tobytes(), b
                continue
            # the real parts of the complex reference, up to the sign of a zero
            moved = table.values.view(np.uint64) != ref.real.view(np.uint64)
            assert np.array_equal(table.values, ref.real), b
            assert not np.any(table.values[moved]), b
    assert table_csv(table) == table_csv(ValueTable(spec, n, ref))
    ot = evaluate(other, sieve, n)
    assert ot.values.dtype == np.float64
    got = convolve_table(table, ot).values
    if real:
        assert got.dtype == np.float64
        want = divisor_fold(ref, reference_evaluate(other, sieve, n), n).real
    else:
        want = divisor_fold(table.values, ot.values, n)
    assert got.tobytes() == want.tobytes()


def test_tabulated_cm_table_lists_primes_only():
    with pytest.raises(InvalidArgumentError):
        tabulated_spec({(2, 1): 0.5, (2, 2): 0.25}, kind=COMPLETELY_MULTIPLICATIVE)
    spec = tabulated_spec({(2, 1): 0.5}, kind=COMPLETELY_MULTIPLICATIVE)
    assert spec.value(2, 3) == 0.125


def test_tabulated_rows_that_no_query_reads_are_rejected():
    rows = {(2, 1): 0.5, (3, 1): 1.0, (2, 2): 0.25}
    assert tabulated_spec(rows).value(2, 2) == 0.25
    for bad in ((2, 0), (2, -1), (0, 1), (1, 1), (4, 1), (-3, 1), (9, 2)):
        with pytest.raises(InvalidArgumentError, match=rf"row \(p={bad[0]}, k={bad[1]}\)"):
            tabulated_spec({**rows, bad: 7.0})
    # a row off the primes would have passed the unit-disc claim unread
    with pytest.raises(InvalidArgumentError, match=r"p=4, k=1"):
        tabulated_spec({(2, 1): 0.5, (4, 1): 9.0}, bounded_by_one=True)


@pytest.mark.parametrize("kind", [GENERAL_MULTIPLICATIVE, "tabulated"])
def test_tabulated_rows_above_an_exponent_gap_are_rejected(kind):
    # value(p, k) fills f(p^1..k) in order, so a row above a missing (p, k - 1)
    # would never be read, and a 9 there would pass the unit-disc claim
    for rows, bad in (({(2, 1): 0.5, (3, 1): 1.0, (2, 3): 9.0}, (2, 3)),
                      ({(2, 1): 0.5, (3, 2): 0.25}, (3, 2))):
        with pytest.raises(InvalidArgumentError,
                           match=rf"row \(p={bad[0]}, k={bad[1]}\) is never read: no row "
                                 rf"\(p={bad[0]}, k={bad[1] - 1}\)"):
            tabulated_spec(rows, kind=kind, bounded_by_one=True)
    ok = tabulated_spec({(2, 1): 0.5, (2, 2): 0.25, (2, 3): 0.125}, kind=kind)
    assert ok.value(2, 3) == 0.125


def test_sparse_dyadic_caps_the_exponent():
    with pytest.raises(InvalidArgumentError, match=r"\[0, 5\]"):
        sparse_dyadic(standard_spec("one"), [40])
    spec = sparse_dyadic(standard_spec("liouville"), [5])
    ps = np.array([2, 2**32 - 5, 2**32 + 15, 2**33 + 17], dtype=np.int64)
    assert prime_values_of(spec, ps).real.tolist() == [-1.0, -1.0, 1.0, -1.0]


def test_descriptor_rejects_anonymous_spec():
    from pretense.core import FunctionSpec, GENERAL_MULTIPLICATIVE

    anon = FunctionSpec(name="anon", kind=GENERAL_MULTIPLICATIVE,
                        prime_values=lambda ps: np.zeros(ps.shape),
                        powers=lambda p, c, k: [0.0] * (k + 1 - len(c)))
    with pytest.raises(InvalidArgumentError):
        spec_descriptor(anon)


def test_descriptor_unknown_construction():
    with pytest.raises(InvalidArgumentError):
        spec_from_descriptor({"construction": "mystery"})


# ---------------------------------------------------------------------------
# unit group internals via public behavior

@given(st.integers(min_value=3, max_value=400))
@settings(max_examples=60, deadline=None)
def test_phi_multiplicative_against_factorization(q):
    fac = brute_factorize(q)
    want = 1
    for p, k in fac:
        want *= (p - 1) * p ** (k - 1)
    assert euler_phi(q) == want


# ---------------------------------------------------------------------------
# batched prime map: FunctionSpec.remember_primes

_FIRST_200_PRIMES = build_sieve(1223).primes  # the 200th prime is 1223


def _fresh(spec):
    return dataclasses.replace(spec, _cache={})


def _batch_mismatches(spec, ps):
    """Primes where the f(p) that remember_primes stores for a fresh copy of
    spec, read by value(p, 1), differs in any bit from rule(p, 1) of another
    fresh copy, or where the batch stored nothing."""
    batched, single = _fresh(spec), _fresh(spec)
    batched.remember_primes(ps)
    bad = []
    for p in ps.tolist():
        if len(batched.local(p, 0)) < 2:  # the batch stored no f(p)
            bad.append(p)
            continue
        got, want = batched.value(p, 1), single.rule(p, 1)
        if struct.pack("<dd", got.real, got.imag) != struct.pack("<dd", want.real, want.imag):
            bad.append(p)
    return bad


def _every_construction():
    chi = dirichlet_character(7, 1)
    f = random_spec(11, kind=GENERAL_MULTIPLICATIVE)
    g = random_spec(12, kind=GENERAL_MULTIPLICATIVE)
    q = solve_quotient(f, g, [2, 3, 5], 4).spec
    return {
        **{name: standard_spec(name) for name in ("one", "delta", "moebius", "liouville")},
        "character": chi,
        "character-real": dirichlet_character(12, 1),
        "kronecker": kronecker_character(-4),
        "archimedean": archimedean_twist(1.5),
        "optimality": optimality_twist(dirichlet_character(4, 1), 0.5, diagnostics_cutoff=1000),
        "sparse-dyadic": sparse_dyadic(chi, [2, 3]),
        "squarefree": squarefree_restrict(chi),
        "random-cm": random_spec(10),
        "random-gm": f,
        "tabulated": tabulated_spec(
            {(p, 1): complex(np.cos(p), np.sin(p)) for p in _FIRST_200_PRIMES.tolist()},
            name="tab", kind=COMPLETELY_MULTIPLICATIVE),
        "quotient": q,
        "inverse": dirichlet_inverse(q),
        "degree-d": degree_d_spec([chi, archimedean_twist(0.5), standard_spec("liouville")]),
    }


@pytest.mark.parametrize("name", list(_every_construction()))
def test_batched_prime_values_match_one_prime_rule_to_the_bit(name):
    spec = _every_construction()[name]
    assert _batch_mismatches(spec, _FIRST_200_PRIMES) == []


def test_bit_test_catches_a_prime_map_that_is_not_elementwise():
    from pretense.core import FunctionSpec

    # each value depends on how many primes are asked at once
    spec = FunctionSpec(name="batch-size", kind=COMPLETELY_MULTIPLICATIVE,
                        prime_values=lambda ps: np.cos(ps * 1.0) / ps.size)
    assert _batch_mismatches(spec, _FIRST_200_PRIMES) == _FIRST_200_PRIMES.tolist()
