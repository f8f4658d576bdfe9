import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pretense.constructions import dirichlet_character, standard_spec
from pretense.core import build_sieve, evaluate
from pretense.degree import (
    MAX_DEGREE,
    alpha_coeffs,
    degree_d_spec,
    degreedist_extension_check,
    perturbed_member,
    q_all,
    q_poly,
    q_to_r,
    r_all,
    r_poly,
    recursion_residual,
)
from pretense.dirichlet import determinant
from pretense.errors import InvalidArgumentError
from pretense.randspecs import random_spec

from oracles import (
    brute_complete_homogeneous,
    brute_elementary_symmetric,
    growth_delta_check,
)

complex_unit = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                  allow_infinity=False)


@given(st.lists(complex_unit, min_size=1, max_size=6), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_q_poly_matches_brute_recursion(xs, k):
    x = np.array(xs)
    assert q_poly(k, x) == pytest.approx(
        complex(brute_complete_homogeneous(k, list(x))), abs=1e-9
    )


@given(st.lists(complex_unit, min_size=1, max_size=6), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_r_poly_matches_product_expansion(xs, k):
    x = np.array(xs)
    assert r_poly(k, x) == pytest.approx(
        complex(brute_elementary_symmetric(k, list(x))), abs=1e-9
    )


def test_q_all_and_r_all_prefixes():
    x = np.array([0.5 + 0.1j, -0.3j, 0.9])
    qs = q_all(5, x)
    rs = r_all(3, x)
    for k in range(6):
        assert qs[k] == pytest.approx(q_poly(k, x), abs=1e-12)
    for k in range(4):
        assert rs[k] == pytest.approx(r_poly(k, x), abs=1e-12)


@given(st.lists(complex_unit, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_q_to_r_duality(xs):
    x = np.array(xs)
    d = len(xs)
    qv = [q_poly(k, x) for k in range(1, d + 1)]
    rv = np.array([r_poly(k, x) for k in range(1, d + 1)])
    assert np.max(np.abs(q_to_r(qv) - rv)) <= 1e-12


def test_divisor_function_alpha():
    tau = degree_d_spec([standard_spec("one"), standard_spec("one")])
    coeffs = alpha_coeffs(tau, 7)
    assert np.allclose(coeffs.alpha, [1.0, 2.0, 1.0], atol=1e-14)
    # values are binomial: tau(p^k) = k + 1
    for k in range(6):
        assert tau.value(7, k) == pytest.approx(k + 1)


def test_degree_specs_validate_inputs():
    with pytest.raises(InvalidArgumentError):
        degree_d_spec([])
    with pytest.raises(InvalidArgumentError):
        degree_d_spec([standard_spec("moebius")])  # not completely multiplicative
    with pytest.raises(InvalidArgumentError):
        degree_d_spec([standard_spec("one")] * (MAX_DEGREE + 1))


def test_recursion_residual_vanishes_for_members():
    # fifty random draws across degrees, the sharpest module invariant
    idx = 0
    for d in (1, 2, 3, 4):
        for i in range(13 if d == 1 else 13 if d == 2 else 12):
            cs = [random_spec(1000 + idx * 31 + j, limit=50) for j in range(d)]
            idx += 1
            spec = degree_d_spec(cs)
            for p in (2, 11):
                for n in (0, 1, 4):
                    assert recursion_residual(spec, p, n) <= 1e-9


def test_determinants_vanish_beyond_degree_fifty_draws():
    idx = 0
    for d in (1, 2, 3, 4):
        for i in range(13 if d <= 2 else 12):
            cs = [random_spec(5000 + idx * 17 + j, limit=100) for j in range(d)]
            idx += 1
            spec = degree_d_spec(cs)
            for p in (2, 53):
                for k in range(d + 1, d + 5):
                    assert abs(determinant(spec, p, k)) <= 1e-9


def test_perturbed_member_is_detected():
    tau = degree_d_spec([standard_spec("one"), standard_spec("one")])
    bad = perturbed_member(tau, 5, 2, 0.1)
    assert bad.value(5, 2) == pytest.approx(tau.value(5, 2) + 0.1)
    worst = max(recursion_residual(bad, 5, n) for n in (1, 2, 3))
    assert worst > 1e-3
    # the perturbation is invisible at other primes
    assert recursion_residual(bad, 7, 2) <= 1e-12


@pytest.mark.parametrize("p", [0, 1, -3, 4, 9])
def test_recursion_rejects_a_non_prime(p):
    tau = degree_d_spec([dirichlet_character(4, 1), standard_spec("one")])
    with pytest.raises(InvalidArgumentError, match=f"{p} is not prime"):
        alpha_coeffs(tau, p)
    with pytest.raises(InvalidArgumentError, match=f"{p} is not prime"):
        recursion_residual(tau, p, 1)


def test_perturbation_at_depth_zero_is_structurally_invisible():
    # alpha is fitted from the first d+1 local values, the perturbed one
    # included, so the depth-0 instance is satisfied exactly whatever the
    # perturbation: a witness must probe n >= 1
    tau = degree_d_spec([standard_spec("one"), standard_spec("one")])
    bad = perturbed_member(tau, 5, 2, 0.1)
    assert recursion_residual(bad, 5, 0) <= 1e-12
    assert recursion_residual(bad, 5, 1) > 1e-3


def test_extension_check_on_character_pair(sieve_1e4):
    chi4 = dirichlet_character(4, 1)
    chi3 = dirichlet_character(3, 1)
    f = degree_d_spec([chi4, chi3])
    g = degree_d_spec([chi3, chi4])  # same multiset, zero distance
    rep = degreedist_extension_check(f, g, 0.5, 10**4, sieve=sieve_1e4)
    # identical local data: no prime contributes a head/tail ratio row
    assert rep.sup_ratio is None
    assert rep.rows == () and rep.violations == ()


def test_extension_check_bounded_for_random_pairs(sieve_1e4):
    f = degree_d_spec([random_spec(71, limit=10**4), random_spec(72, limit=10**4)])
    g = degree_d_spec([random_spec(73, limit=10**4), random_spec(74, limit=10**4)])
    rep = degreedist_extension_check(f, g, 0.5, 10**4, p_min=11, sieve=sieve_1e4)
    assert np.isfinite(rep.sup_ratio)
    assert rep.degree == 2 and rep.p_min == 11


def test_growth_delta_check_reports(sieve_1e4):
    tau = degree_d_spec([standard_spec("one"), standard_spec("one")])
    reports = growth_delta_check(tau, 10**4, deltas=(0.1, 0.2), sieve=sieve_1e4)
    assert tuple(r.delta for r in reports) == (0.1, 0.2)
    for rep in reports:
        # running max of |f(n)| / n^delta is nondecreasing by construction
        ms = [row.running_max for row in rep.rows]
        assert all(a <= b + 1e-15 for a, b in zip(ms, ms[1:]))
    # divisor counts are not O(n^0.1) in this range: the max keeps moving up
    assert reports[0].last_increase_n > 5000
