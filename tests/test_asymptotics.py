import math

import numpy as np
import pytest

from pretense.asymptotics import (
    EXACT,
    NEAREST,
    GrowthFit,
    XiSeries,
    growth_fit,
    l_truncation,
    mean_square,
    quotient_identity_check,
    running_max_fit,
    xi_from_sums,
    xi_lookup,
    xi_roundtrip_residual,
    xi_tilde,
)
from pretense.constructions import dirichlet_character, optimality_twist, standard_spec
from pretense.core import (
    PartialSumSeries,
    build_sieve,
    evaluate,
    geometric_checkpoints,
    json_obj,
    partial_sums,
)
from pretense.dirichlet import dirichlet_inverse, solve_quotient
from pretense.errors import (
    DegenerateFitError,
    InvalidArgumentError,
    OutOfRangeError,
)
from pretense.randspecs import random_spec

from oracles import ZETA2, ZETA3, euler_maclaurin_zeta, per_m_roundtrip_residual


def _synthetic_series(exponent, npts=20, scale=1.0):
    x = np.geomspace(10, 10**5, npts)
    return PartialSumSeries(
        checkpoints=x,
        sums=(scale * x**exponent).astype(complex),
    )


# ---------------------------------------------------------------------------
# growth fits

def test_growth_fit_recovers_exact_power():
    fit = growth_fit(_synthetic_series(0.7))
    assert fit.exponent == pytest.approx(0.7, abs=1e-12)
    assert fit.residual_rms <= 1e-12
    assert fit.points_used == 20 and fit.dropped_zero_points == 0


def test_growth_fit_needs_four_checkpoints():
    with pytest.raises(InvalidArgumentError):
        growth_fit(_synthetic_series(0.5, npts=3))


def test_growth_fit_drops_tiny_sums_and_degenerates():
    x = np.array([10.0, 100.0, 1000.0, 10000.0])
    s = PartialSumSeries(
        checkpoints=x,
        sums=np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
    )
    with pytest.raises(DegenerateFitError):
        growth_fit(s)


def test_growth_fit_json_fields():
    obj = json_obj(growth_fit(_synthetic_series(0.25)))
    assert sorted(obj) == [
        "dropped_zero_points", "exponent", "intercept",
        "points_used", "residual_rms",
    ]


def test_running_max_fit_matches_brute_running_max(sieve_1e4):
    table = evaluate(standard_spec("liouville"), sieve_1e4)
    grid = geometric_checkpoints(10, 10**4)
    s, best, brute = 0.0, 0.0, []
    for n in range(1, 10**4 + 1):
        s += table.values[n].real
        best = max(best, abs(s))
        if n in grid:
            brute.append(best)
    want = growth_fit(PartialSumSeries(checkpoints=grid, sums=np.array(brute)))
    assert running_max_fit(table, grid).exponent == pytest.approx(want.exponent)


def test_running_max_fit_is_flat_for_a_character(sieve_1e4):
    table = evaluate(dirichlet_character(4, 1), sieve_1e4)
    fit = running_max_fit(table, geometric_checkpoints(10, 10**4))
    assert fit.exponent == 0.0


def test_running_max_fit_rejects_checkpoints_beyond_table(sieve_1e4):
    table = evaluate(standard_spec("one"), sieve_1e4, 100)
    with pytest.raises(OutOfRangeError):
        running_max_fit(table, [10, 50, 101, 200])


# ---------------------------------------------------------------------------
# normalized profiles

def test_xi_of_count_function_is_one(sieve_1e4):
    t = evaluate(standard_spec("one"), sieve_1e4)
    s = partial_sums(t, geometric_checkpoints(1, 10**4))
    xi = xi_from_sums(s, 1.0)
    for x in (1.0, 100.0, 9999.0):
        assert abs(xi_lookup(xi, x, mode=EXACT) - math.floor(x) / x) <= 1e-12


def test_xi_lookup_modes_agree_on_checkpoints(sieve_1e4):
    t = evaluate(standard_spec("moebius"), sieve_1e4)
    s = partial_sums(t, geometric_checkpoints(10, 10**4))
    xi = xi_from_sums(s, 0.5)
    for x in xi.checkpoints[5:15]:
        a = xi_lookup(xi, float(x), mode=EXACT)
        b = xi_lookup(xi, float(x), mode=NEAREST)
        assert a == b


def test_exact_xi_is_partial_sums_for_chi7_at_1e6(sieve_1e6):
    # a plain cumsum prefix table differed at 38 of these 41 checkpoints
    table = evaluate(dirichlet_character(7, 1), sieve_1e6)
    xi = xi_from_sums(partial_sums(table, geometric_checkpoints(10, 10**6)), 0.5)
    got = xi_lookup(xi, xi.checkpoints, mode=EXACT)
    assert xi.checkpoints.size == 41
    assert got.tobytes() == xi.samples.tobytes()


def test_xi_exact_mode_needs_table_chain():
    t = np.geomspace(1, 10, 12)
    xi = XiSeries(alpha=0.5, checkpoints=t,
                  samples=np.ones_like(t, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        xi_lookup(xi, 5.0, mode=EXACT)
    # nearest mode works from the samples alone
    assert xi_lookup(xi, 9.0, mode=NEAREST) == 1.0


def test_xi_nearest_mode_refuses_coarse_grids():
    xi = XiSeries(alpha=0.5, checkpoints=np.array([1.0, 10.0]),
                  samples=np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(InvalidArgumentError):
        xi_lookup(xi, 5.0, mode=NEAREST)


def test_xi_alpha_validation(sieve_1e4):
    t = evaluate(standard_spec("one"), sieve_1e4)
    s = partial_sums(t, geometric_checkpoints(1, 100))
    with pytest.raises(InvalidArgumentError):
        xi_from_sums(s, -0.5)


def test_roundtrip_identity_exact(sieve_1e4):
    f = random_spec(401, limit=10**4)
    g = random_spec(402, limit=10**4)
    q = solve_quotient(f, g, primes=(2, 3), max_exponent=14)
    ht = evaluate(q.spec, sieve_1e4)
    hinv = evaluate(dirichlet_inverse(q.spec), sieve_1e4)
    s = partial_sums(evaluate(f, sieve_1e4), geometric_checkpoints(1, 10**4))
    xi = xi_from_sums(s, 0.75)
    for x in (50.0, 777.0, 9000.5):
        assert xi_roundtrip_residual(ht, hinv, xi, x, mode=EXACT) <= 1e-9


def test_xi_tilde_against_direct_sum(sieve_1e4):
    f = standard_spec("one")
    h = standard_spec("moebius")
    ht = evaluate(h, sieve_1e4)
    s = partial_sums(evaluate(f, sieve_1e4), geometric_checkpoints(1, 10**4))
    xi = xi_from_sums(s, 1.0)
    x = 2000.0
    got = xi_tilde(ht, xi, x, mode=EXACT)
    alpha = 1.0
    want = sum(
        complex(ht.values[m]) * m**-alpha * (math.floor(x / m) / (x / m))
        for m in range(1, int(x) + 1)
    )
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("mode", [EXACT, NEAREST])
def test_xi_tilde_of_a_list_is_the_scalar_calls(sieve_1e4, mode):
    f = random_spec(403, limit=10**4)
    q = solve_quotient(f, standard_spec("moebius"), primes=(2, 3), max_exponent=14)
    ht = evaluate(q.spec, sieve_1e4)
    xi = xi_from_sums(partial_sums(evaluate(f, sieve_1e4),
                                   geometric_checkpoints(10, 10**4)), 0.5)
    xs = [1.0, 2000.0, 17.5, 9999.9, 17.5, 3.25]
    got = xi_tilde(ht, xi, xs, mode=mode)
    want = [xi_tilde(ht, xi, x, mode=mode) for x in xs]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    with pytest.raises(OutOfRangeError):
        xi_tilde(ht, xi, [5.0, 0.5], mode=mode)


@pytest.mark.parametrize("mode", [EXACT, NEAREST])
def test_roundtrip_residual_is_the_per_m_loop(sieve_1e4, mode):
    f = random_spec(401, limit=10**4)
    g = random_spec(402, limit=10**4)
    q = solve_quotient(f, g, primes=(2, 3), max_exponent=14)
    ht = evaluate(q.spec, sieve_1e4)
    hinv = evaluate(dirichlet_inverse(q.spec), sieve_1e4)
    s = partial_sums(evaluate(f, sieve_1e4), geometric_checkpoints(10, 10**4))
    xi = xi_from_sums(s, 0.75)
    for x in (1.0, 50.0, 777.0, 9000.5):
        got = xi_roundtrip_residual(ht, hinv, xi, x, mode=mode)
        want = per_m_roundtrip_residual(ht, hinv, xi, x, mode)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# mean squares

def test_mean_square_constant_profile():
    t = np.geomspace(1, 100, 60)
    xi = XiSeries(alpha=0.0, checkpoints=t, samples=np.ones_like(t, dtype=complex))
    rep = mean_square(xi, 100.0)
    assert rep.value == pytest.approx(99.0, abs=1e-9)
    assert rep.T == 100.0


def test_mean_square_power_profile():
    t = np.geomspace(1, 10**4, 200)
    xi = XiSeries(alpha=0.0, checkpoints=t, samples=(t**-0.25).astype(complex))
    rep = mean_square(xi, 10**4)
    want = 2.0 * (math.sqrt(10**4) - 1.0)
    assert abs(rep.value - want) / want <= 0.02


def test_mean_square_coverage_guard():
    t = np.geomspace(2, 100, 20)
    xi = XiSeries(alpha=0.0, checkpoints=t, samples=np.ones_like(t, dtype=complex))
    with pytest.raises(OutOfRangeError):
        mean_square(xi, 50.0)  # grid starts above 1
    t2 = np.geomspace(1, 10, 10)
    xi2 = XiSeries(alpha=0.0, checkpoints=t2, samples=np.ones_like(t2, dtype=complex))
    with pytest.raises(OutOfRangeError):
        mean_square(xi2, 50.0)  # grid ends below T


# ---------------------------------------------------------------------------
# truncated Dirichlet series

def test_l_truncation_zeta_values(sieve_1e6):
    one = evaluate(standard_spec("one"), sieve_1e6, 10**5)
    for s, want in ((2.0, ZETA2), (3.0, ZETA3)):
        lt = l_truncation(one, complex(s))
        assert abs(lt.value - want) <= lt.tail_bound * 1.01
    # oracle agreement at a complex point
    s = 2.0 + 1.0j
    lt = l_truncation(one, s)
    assert abs(lt.value - euler_maclaurin_zeta(s)) <= lt.tail_bound * 1.01


def test_l_truncation_tail_bound_requires_unit_disc(sieve_1e4):
    tau_like = evaluate(standard_spec("one"), sieve_1e4)
    # table of a unit-disc spec gets a bound
    assert l_truncation(tau_like, 2.0).tail_bound is not None
    from pretense.degree import degree_d_spec

    tau = evaluate(
        degree_d_spec([standard_spec("one"), standard_spec("one")]), sieve_1e4
    )
    assert l_truncation(tau, 3.0).tail_bound is None


def test_identity_check_remark_one(sieve_1e4):
    from pretense.verify import _alternating_spec

    alt = _alternating_spec()
    one = standard_spec("one")
    q = solve_quotient(alt, one, primes=(2, 3), max_exponent=18)
    chk = quotient_identity_check(
        evaluate(alt, sieve_1e4),
        evaluate(one, sieve_1e4),
        evaluate(q.spec, sieve_1e4),
        3.0 + 0.0j,
    )
    assert chk.ok is True
    assert chk.residual <= 1e-9


def test_identity_check_requires_re_s_at_least_two(sieve_1e4):
    one = evaluate(standard_spec("one"), sieve_1e4)
    with pytest.raises(InvalidArgumentError):
        quotient_identity_check(one, one, one, 1.5 + 0.0j)


def test_identity_check_gives_no_verdict_at_re_s_two_for_a_class_one_quotient(sieve_1e4):
    # as `pretense lseries --spec char:4:1 --spec2 moebius` builds it
    chi, mu = dirichlet_character(4, 1), standard_spec("moebius")
    h = solve_quotient(chi, mu, primes=(2, 3, 5), max_exponent=18).spec
    tables = [evaluate(spec, sieve_1e4) for spec in (chi, mu, h)]
    at_two = quotient_identity_check(*tables, 2.0)
    assert at_two.combined_bound is None and at_two.ok is None
    above = quotient_identity_check(*tables, 2.5)
    assert isinstance(above.ok, bool) and above.combined_bound is not None


# ---------------------------------------------------------------------------
# the sane-variant growth probe: a twist of a cancelling base stays tame

def test_twist_of_cancelling_base_keeps_small_exponent(sieve_1e7):
    chi = dirichlet_character(4, 1)
    grid = geometric_checkpoints(10**4, 10**7)
    fit_f = growth_fit(partial_sums(evaluate(chi, sieve_1e7), grid))
    assert fit_f.exponent <= 0.1
    g = optimality_twist(chi, beta=0.5, diagnostics_cutoff=10**7, sieve=sieve_1e7)
    fit_g = growth_fit(partial_sums(evaluate(g, sieve_1e7), grid))
    assert fit_g.exponent <= 0.8
