import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pretense.cli import _local_json
from pretense.constructions import standard_spec
from pretense.core import build_sieve, evaluate, json_obj
from pretense.degree import degree_d_spec, r_poly
from pretense.dirichlet import (
    DETERMINANT_ORDER_CAP,
    convolve_spec,
    convolve_table,
    determinant,
    dirichlet_inverse,
    h_via_determinant,
    is_prime,
    solve_quotient,
)
from pretense.errors import InvalidArgumentError, LimitError
from pretense.randspecs import random_spec

from oracles import (
    brute_convolve,
    brute_primes,
    brute_quotient_local,
    determinant_bound_check,
    determinant_dense,
    divisor_fold,
)


# 561 is a Carmichael number, 3215031751 a strong pseudoprime to the bases 2,
# 3, 5 and 7, and 3825123056546413051 one to every prime base up to 23
_PSEUDOPRIMES = (561, 3215031751, 3825123056546413051)


def test_is_prime_is_exact_on_small_numbers_and_pseudoprimes():
    assert [n for n in range(-3, 20_000) if is_prime(n)] == brute_primes(19_999)
    assert not any(is_prime(n) for n in _PSEUDOPRIMES)
    t0 = time.perf_counter()
    assert is_prime(10**17 + 3) and is_prime(10**18 + 3)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("composite", (4, *_PSEUDOPRIMES))
def test_quotient_rejects_a_composite(composite):
    with pytest.raises(InvalidArgumentError, match=f"{composite} is not prime"):
        solve_quotient(standard_spec("one"), standard_spec("delta"), (2, composite), 2)


def test_quotient_of_one_by_delta_is_moebius(sieve_1e4):
    q = solve_quotient(
        standard_spec("one"), standard_spec("delta"), primes=(2, 3, 5), max_exponent=6
    )
    mu = evaluate(standard_spec("moebius"), sieve_1e4, 100)
    ht = evaluate(q.spec, sieve_1e4, 100)
    assert np.allclose(ht.values, mu.values, atol=0)


def test_quotient_local_series_against_plain_loop():
    f = random_spec(11, limit=100, kind="general-multiplicative")
    g = random_spec(12, limit=100, kind="general-multiplicative")
    q = solve_quotient(f, g, primes=(2, 7), max_exponent=10)
    for p in (2, 7):
        fc = [f.value(p, k) for k in range(11)]
        gc = [g.value(p, k) for k in range(11)]
        want = brute_quotient_local(fc, gc)
        got = q.local_series(p).coeffs
        assert np.allclose(got, want, atol=1e-14)


def test_quotient_lazy_beyond_declared_primes():
    # declared primes only control the precomputed series; the rule itself
    # answers at any prime
    q = solve_quotient(
        standard_spec("one"), standard_spec("delta"), primes=(2,), max_exponent=4
    )
    assert q.spec.value(101, 1) == -1.0
    assert q.spec.value(101, 2) == 0.0


def test_quotient_json_shape():
    q = solve_quotient(
        standard_spec("one"), standard_spec("liouville"), primes=(2, 3), max_exponent=3
    )
    obj = json_obj([_local_json(ls.p, ls.coeffs) for ls in q.local])
    assert [loc["prime"] for loc in obj] == [2, 3]
    assert obj[0]["coeffs"][0] == [1.0, 0.0]
    assert obj[0]["coeffs"][1] == [-2.0, 0.0]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_reconvolution_recovers_target(seed):
    sv = build_sieve(300)
    f = random_spec(seed * 2 + 1, limit=300)
    g = random_spec(seed * 2 + 2, limit=300)
    q = solve_quotient(f, g, primes=(2, 3), max_exponent=8)
    conv = convolve_table(evaluate(f, sv), evaluate(q.spec, sv))
    assert np.max(np.abs(conv.values - evaluate(g, sv).values)) <= 1e-12


def test_convolve_table_against_brute(sieve_1e4):
    mu = evaluate(standard_spec("moebius"), sieve_1e4, 200)
    one = evaluate(standard_spec("one"), sieve_1e4, 200)
    got = convolve_table(mu, one).values
    want = brute_convolve(list(mu.values), list(one.values))
    assert np.allclose(got, want, atol=1e-14)
    # moebius * one = delta
    assert got[1] == 1.0 and np.all(got[2:] == 0)


def _near_squares(max_root):
    return st.integers(min_value=1, max_value=max_root).flatmap(
        lambda k: st.sampled_from([k * k - 1, k * k, k * k + 1])
    ).filter(lambda n: n >= 1)


@given(
    st.one_of(st.sampled_from([1, 2, 3]), _near_squares(54),
              st.integers(min_value=1, max_value=3000)),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["completely-multiplicative", "general-multiplicative"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_convolve_table_is_the_divisor_fold_to_the_bit(table_limit, seed, kind, data):
    sv = build_sieve(max(table_limit, 2))
    f = random_spec(2 * seed, limit=max(table_limit, 2), kind=kind)
    h = random_spec(2 * seed + 1, limit=max(table_limit, 2), kind=kind)
    ft, ht = evaluate(f, sv, table_limit), evaluate(h, sv, table_limit)
    limit = data.draw(st.one_of(
        st.just(table_limit),
        st.integers(min_value=1, max_value=table_limit),
        _near_squares(math.isqrt(table_limit)).filter(lambda n: n <= table_limit),
    ))
    got = convolve_table(ft, ht, limit).values
    assert got.tobytes() == divisor_fold(ft.values, ht.values, limit).tobytes()


def test_convolve_spec_is_multiplicative(sieve_1e4):
    f = standard_spec("moebius")
    g = standard_spec("liouville")
    c = convolve_spec(f, g)
    ct = evaluate(c, sieve_1e4, 500)
    want = convolve_table(
        evaluate(f, sieve_1e4, 500), evaluate(g, sieve_1e4, 500)
    ).values
    assert np.allclose(ct.values, want, atol=1e-13)


def test_inverse_of_one_is_moebius(sieve_1e4):
    inv = dirichlet_inverse(standard_spec("one"))
    mu = evaluate(standard_spec("moebius"), sieve_1e4, 300)
    it = evaluate(inv, sieve_1e4, 300)
    assert np.array_equal(it.values, mu.values)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_inverse_roundtrip(seed):
    sv = build_sieve(200)
    h = random_spec(seed, limit=200, kind="general-multiplicative")
    hinv = dirichlet_inverse(h)
    conv = convolve_table(evaluate(h, sv), evaluate(hinv, sv))
    delta = np.zeros(201, dtype=complex)
    delta[1] = 1
    assert np.max(np.abs(conv.values - delta)) <= 1e-12


def test_determinant_matches_dense_oracle():
    f = random_spec(77, limit=100, kind="general-multiplicative")
    for p in (2, 5, 97):
        for k in range(1, 9):
            fast = determinant(f, p, k)
            dense = determinant_dense(f, p, k)
            assert abs(fast - dense) <= 1e-10 * max(1.0, abs(dense))


def test_determinant_order_zero_is_one():
    f = standard_spec("one")
    assert determinant(f, 2, 0) == 1.0


def test_determinant_order_cap():
    with pytest.raises(LimitError):
        determinant(standard_spec("one"), 2, DETERMINANT_ORDER_CAP + 1)


def test_determinant_equals_signed_power_sum_for_degree_d():
    # for a degree-d member built from constituents x_1..x_d at p, the
    # k-th determinant equals the k-th elementary symmetric polynomial
    cs = [random_spec(200 + j, limit=50) for j in range(3)]
    spec = degree_d_spec(cs)
    for p in (2, 3, 47):
        x = np.array([c.value(p, 1) for c in cs])
        for k in range(0, 4):
            want = r_poly(k, x) if k else 1.0
            assert abs(determinant(spec, p, k) - want) <= 1e-12


def test_determinant_vanishes_beyond_degree():
    cs = [random_spec(300 + j, limit=50) for j in range(2)]
    spec = degree_d_spec(cs)
    for p in (2, 11):
        for k in range(3, 9):
            assert abs(determinant(spec, p, k)) <= 1e-12


def test_inverse_matrix_entries_are_signed_determinants():
    # the lower-triangular Toeplitz system:  A[i][j] = f(p^(i-j)) for i >= j,
    # its inverse has (A^-1)[n][n-k] = (-1)^k D_f(k, p)
    f = random_spec(55, limit=10, kind="general-multiplicative")
    p, n = 2, 7
    A = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        for j in range(i + 1):
            A[i][j] = f.value(p, i - j)
    Ainv = np.linalg.inv(A)
    for k in range(n + 1):
        want = (-1) ** k * determinant(f, p, k)
        assert abs(Ainv[n][n - k] - want) <= 1e-9


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_h_via_determinant_matches_solver(seed):
    f = random_spec(seed * 2 + 1, limit=20, kind="general-multiplicative")
    g = random_spec(seed * 2 + 2, limit=20, kind="general-multiplicative")
    q = solve_quotient(f, g, primes=(2, 13), max_exponent=8)
    for p in (2, 13):
        for n in range(1, 9):
            assert abs(h_via_determinant(f, g, p, n) - q.spec.value(p, n)) <= 1e-10


@given(st.integers(min_value=0, max_value=2**31), st.sampled_from([2, 3, 13]))
@settings(max_examples=15, deadline=None)
def test_h_via_determinant_is_the_per_order_determinant_sum(seed, p):
    f = random_spec(seed * 2 + 1, limit=20, kind="general-multiplicative")
    g = random_spec(seed * 2 + 2, limit=20, kind="general-multiplicative")
    for n in range(1, 13):
        want = 0.0 + 0.0j
        sign = 1.0
        for k in range(n):
            want += sign * (g.value(p, n - k) - f.value(p, n - k)) * determinant(f, p, k)
            sign = -sign
        got = h_via_determinant(f, g, p, n)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_h_via_determinant_order_cap():
    f = standard_spec("liouville")
    g = standard_spec("one")
    h_via_determinant(f, g, 2, DETERMINANT_ORDER_CAP + 1)
    with pytest.raises(LimitError):
        h_via_determinant(f, g, 2, DETERMINANT_ORDER_CAP + 2)


def test_determinant_bound_report():
    f = random_spec(99, limit=100)  # unit disc, delta = 0
    rep = determinant_bound_check(f, 7, 10)
    assert rep.all_pass
    assert rep.hypothesis_violations == ()
    for n, absd, bound, ok in rep.rows:
        assert ok and bound == pytest.approx(2.0 ** (n - 1))
        assert absd <= bound * (1 + 1e-9) + 1e-12


def test_determinant_bound_flags_hypothesis_violations():
    # h from the alternating quotient grows like p^k at p = 2: delta = 0
    # is a broken hypothesis and the report must say so, not pass silently
    from pretense.core import GENERAL_MULTIPLICATIVE, FunctionSpec

    h = FunctionSpec(
        name="doubling",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: np.where(ps == 2, 2.0, 0.0),
        powers=lambda p, k: float(2**k) if p == 2 else 0.0,
    )
    rep = determinant_bound_check(h, 2, 6, delta=0.0)
    assert rep.hypothesis_violations != ()
    assert not rep.all_pass
    # with delta = 1 the hypothesis holds and the bound follows
    rep1 = determinant_bound_check(h, 2, 6, delta=1.0)
    assert rep1.all_pass


def test_solve_quotient_input_validation():
    f = standard_spec("one")
    with pytest.raises(InvalidArgumentError):
        solve_quotient(f, standard_spec("delta"), primes=(4,), max_exponent=3)
    with pytest.raises(InvalidArgumentError):
        solve_quotient(f, standard_spec("delta"), primes=(), max_exponent=3)
    with pytest.raises(InvalidArgumentError):
        solve_quotient(f, standard_spec("delta"), primes=(2,), max_exponent=0)
