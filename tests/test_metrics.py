import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pretense.constructions import dirichlet_character, standard_spec
from pretense.core import build_sieve, evaluate, json_text, prime_values_of
from pretense.dirichlet import solve_quotient
from pretense.errors import InvalidArgumentError
from pretense.metrics import (
    PLATEAU_SLOPE,
    VERDICT_GROWING,
    VERDICT_PLATEAU,
    DistanceReport,
    distance_beta,
    distance_classic,
    distance_strong,
    fit_decay_exponent,
    fit_tail_slope,
    h2_envelope,
    h_majorant_series,
    quotient_abs_series,
    quotient_square_series,
)
from pretense.randspecs import random_pair_sparse_diff, random_spec

from oracles import brute_distance_sq


def test_distance_classic_against_fsum_oracle(sieve_1e4):
    f = random_spec(31, limit=10**4)
    g = random_spec(32, limit=10**4)
    rep = distance_classic(f, g, 10**4, sieve=sieve_1e4)
    primes = sieve_1e4.primes
    fp = prime_values_of(f, primes)
    gp = prime_values_of(g, primes)
    want = brute_distance_sq(fp, gp, primes, beta=1.0)
    assert rep.total == pytest.approx(want, abs=1e-10)
    assert rep.kind == "classic"


def test_distance_rejects_non_finite_checkpoints(sieve_1e4):
    f = standard_spec("moebius")
    for x in ([math.nan, 5.0], [5.0, -math.inf], [10.0, math.inf]):
        with pytest.raises(InvalidArgumentError, match="finite"):
            distance_classic(f, f, 10**4, checkpoints=x, sieve=sieve_1e4)


def test_distance_of_spec_with_itself_vanishes(sieve_1e4):
    f = random_spec(8, limit=10**4)
    rep = distance_classic(f, f, 10**4, sieve=sieve_1e4)
    assert rep.total == pytest.approx(0.0, abs=1e-12)


def test_distance_beta_weights(sieve_1e4):
    f = standard_spec("one")
    g = standard_spec("liouville")
    # f(p) = 1, g(p) = -1: term is 2 / p^beta
    for beta in (0.25, 0.5, 1.0):
        rep = distance_beta(f, g, beta, 100, sieve=sieve_1e4)
        want = math.fsum(2.0 / p**beta for p in (2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89,97))
        assert rep.total == pytest.approx(want, rel=1e-12)
        assert rep.kind == "beta"


def test_distance_beta_monotone_in_beta(sieve_1e4):
    f = random_spec(61, limit=10**4)
    g = random_spec(62, limit=10**4)
    totals = [
        distance_beta(f, g, b, 10**4, sieve=sieve_1e4).total
        for b in (0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_distance_beta_range_validation(sieve_1e4):
    f = standard_spec("one")
    with pytest.raises(InvalidArgumentError):
        distance_beta(f, f, 0.0, 100, sieve=sieve_1e4)
    with pytest.raises(InvalidArgumentError):
        distance_beta(f, f, 1.5, 100, sieve=sieve_1e4)


def test_distance_requires_unit_disc_values(sieve_1e4):
    from pretense.core import FunctionSpec, COMPLETELY_MULTIPLICATIVE

    big = FunctionSpec(
        name="big",
        kind=COMPLETELY_MULTIPLICATIVE,
        prime_values=lambda ps: np.full(ps.shape, 3.0),
    )
    with pytest.raises(InvalidArgumentError):
        distance_classic(big, standard_spec("one"), 100, sieve=sieve_1e4)


def test_unit_disc_error_names_the_first_slice_with_a_bad_value(sieve_1e4):
    # f leaves the disc at 97 only, g at 2 only: f's error comes first
    # within a slice of primes, and the slice of 2 comes first
    from pretense import core
    from pretense.core import COMPLETELY_MULTIPLICATIVE, FunctionSpec

    def bad_at(q):
        return FunctionSpec(name=f"bad-at-{q}", kind=COMPLETELY_MULTIPLICATIVE,
                            prime_values=lambda ps: np.where(ps == q, 3.0, 1.0))

    f, g = bad_at(97), bad_at(2)
    with pytest.raises(InvalidArgumentError,
                       match=r"^f='bad-at-97' leaves the unit disc at p=97$"):
        distance_classic(f, g, 100, sieve=sieve_1e4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", 1)
        with pytest.raises(InvalidArgumentError,
                           match=r"^g='bad-at-2' leaves the unit disc at p=2$"):
            distance_classic(f, g, 100, sieve=sieve_1e4)


_DISTANCES = {
    "distance_classic": lambda f, g, x, sv: distance_classic(f, g, x, sieve=sv),
    "distance_beta": lambda f, g, x, sv: distance_beta(f, g, 0.5, x, sieve=sv),
    "distance_strong": lambda f, g, x, sv: distance_strong(f, g, 1.5, 3, x, sieve=sv),
}


@pytest.mark.parametrize("name", sorted(_DISTANCES))
def test_distance_rejects_a_sieve_short_of_the_cutoff(sieve_1e4, name):
    # such a sieve used to give the sum over the primes ≤ 1e4 at cutoff 1e6
    f, g = dirichlet_character(4, 1), standard_spec("moebius")
    with pytest.raises(InvalidArgumentError, match="cutoff 1000000.0 beyond sieve limit 10000"):
        _DISTANCES[name](f, g, 10**6, sieve_1e4)
    # a cutoff between the limit and the next integer needs no more primes
    assert _DISTANCES[name](f, g, 10**4 + 0.5, sieve_1e4).total > 0


@pytest.mark.parametrize("name", sorted(_DISTANCES))
def test_distance_peak_memory_does_not_grow_with_the_primes(sieve_1e7, name):
    # the terms are formed BLOCK primes at a time: the traced peak holds a
    # few slices, not an array per prime (78,498 primes to 1e6, 283,146 to 4e6)
    pairs = [lambda: (dirichlet_character(4, 1), standard_spec("liouville"))]
    if name == "distance_strong":  # and no store per prime of a fresh moebius
        pairs.append(lambda: (standard_spec("moebius"), standard_spec("one")))
    for pair in pairs:
        peaks = []
        for cutoff in (10**6, 4 * 10**6):
            f, g = pair()
            tracemalloc.start()
            try:
                _DISTANCES[name](f, g, cutoff, sieve_1e7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], (f.name, peaks)


def test_distance_strong_covers_higher_powers(sieve_1e4):
    # strong variant with k = 1 and beta = 1 matches a first-power abs sum
    f = standard_spec("one")
    g = standard_spec("liouville")
    rep = distance_strong(f, g, 1.0, 1, 100, sieve=sieve_1e4)
    want = math.fsum(2.0 / p for p in (2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89,97))
    assert rep.total == pytest.approx(want, rel=1e-12)
    # k = 2 adds the square terms |f(p^2) - g(p^2)| / p^2: here zero
    rep2 = distance_strong(f, g, 1.0, 2, 100, sieve=sieve_1e4)
    assert rep2.total == pytest.approx(want, rel=1e-12)
    assert rep2.kind == "strong-beta-k"


def test_distance_strong_cm_powers_match_value(sieve_1e4):
    # the power_table rows of a completely multiplicative spec, from its
    # period or running product, must be the f(p^j) that value() and
    # evaluate use: general copies reading value(p, j) from their stores agree
    from pretense.constructions import archimedean_twist
    from pretense.core import GENERAL_MULTIPLICATIVE, FunctionSpec

    def gm_copy(spec):
        return FunctionSpec(
            name=spec.name, kind=GENERAL_MULTIPLICATIVE, prime_values=spec.prime_values,
            powers=lambda p, c, k: [spec.value(p, j) for j in range(len(c), k + 1)])

    # the second pair is close, so a last-bit change in f(p^j) shows in the partials
    for f, g in ((archimedean_twist(1.25), dirichlet_character(7, 1)),
                 (archimedean_twist(1.25), archimedean_twist(1.25 + 1e-7))):
        cm = distance_strong(f, g, 0.5, 6, 10**4, sieve=sieve_1e4)
        gm = distance_strong(gm_copy(f), gm_copy(g), 0.5, 6, 10**4, sieve=sieve_1e4)
        assert json_text(cm) == json_text(gm)


def test_distance_strong_allows_beta_above_one(sieve_1e4):
    f = standard_spec("one")
    g = standard_spec("liouville")
    rep = distance_strong(f, g, 2.0, 3, 1000, sieve=sieve_1e4)
    assert rep.total > 0


def test_report_json_shape(sieve_1e4):
    rep = distance_classic(
        standard_spec("one"), standard_spec("liouville"), 1000, sieve=sieve_1e4
    )
    obj = json.loads(json_text(rep))
    assert sorted(obj) == [
        "cutoffs", "kind", "params", "partials", "tail_slope", "verdict",
    ]
    assert obj["verdict"] in (VERDICT_PLATEAU, VERDICT_GROWING)
    assert len(obj["cutoffs"]) == len(obj["partials"])


def test_verdict_plateau_for_identical_specs(sieve_1e6):
    f = standard_spec("one")
    rep = distance_classic(f, f, 10**6, sieve=sieve_1e6)
    assert rep.verdict == VERDICT_PLATEAU
    assert rep.tail_slope is not None and rep.tail_slope < PLATEAU_SLOPE


def test_verdict_growing_for_opposite_specs(sieve_1e6):
    rep = distance_classic(
        standard_spec("one"), standard_spec("liouville"), 10**6, sieve=sieve_1e6
    )
    assert rep.verdict == VERDICT_GROWING


def test_fit_tail_slope_on_synthetic_loglog():
    x = np.geomspace(10, 10**6, 41)
    partials = 3.0 + 0.5 * np.log(np.log(x))
    slope = fit_tail_slope(x, partials)
    assert slope == pytest.approx(0.5, rel=1e-6)
    assert fit_tail_slope(x[:1], partials[:1]) is None


@pytest.mark.parametrize("a", [-2.0, -1.0, 0.5])
def test_fit_decay_exponent_on_synthetic_rates(a):
    # partials with dS/du = u^a exactly, u = log log x
    x = np.geomspace(10**3, 10**7, 33)
    u = np.log(np.log(x))
    partials = u ** (a + 1) / (a + 1) if a != -1.0 else np.log(u)
    assert fit_decay_exponent(x, partials) == pytest.approx(a, abs=0.01)


def test_fit_decay_exponent_needs_two_positive_increments():
    x = np.geomspace(10**3, 10**7, 33)
    assert fit_decay_exponent(x, np.zeros_like(x)) is None
    assert fit_decay_exponent(x[:4], np.arange(4.0)) is None


# ---------------------------------------------------------------------------
# truncated local series

def test_square_series_of_delta_quotient_is_exactly_two():
    # h = delta has |h(1)| = 1 at each of the two primes below 4^(1/1)
    rep = quotient_square_series(standard_spec("delta"), 1.0)
    assert rep.total == 2.0
    assert rep.kind == "H-sigma"
    assert rep.params["converged"] is True


def test_square_series_empty_above_sigma_two():
    rep = quotient_square_series(standard_spec("delta"), 2.5)
    assert rep.total == 0.0
    assert rep.cutoffs.size == 0


def test_square_series_closed_form_for_moebius():
    # h = moebius: inner sum at p is 1 + p^-sigma
    sigma = 1.5
    rep = quotient_square_series(standard_spec("moebius"), sigma)
    cutoff = 4 ** (1 / sigma)
    want = math.fsum(1 + p**-sigma for p in (2,) if p <= cutoff)
    assert rep.total == pytest.approx(want, rel=1e-12)


def test_abs_series_remark_one_geometric():
    # h(2^k) = 2^k: at sigma = 1.5 the inner sum is sum 2^(-k/2) = 1/(sqrt2 - 1)
    from pretense.verify import _alternating_spec

    q = solve_quotient(
        _alternating_spec(), standard_spec("one"), primes=(2, 3, 5), max_exponent=41
    )
    rep = quotient_abs_series(q.spec, 1.5, Y=10)
    want = 1.0 / (math.sqrt(2) - 1.0)
    # truncation at 40 terms leaves a gap of 2^-20.5/(1 - 2^-0.5) ~ 2.3e-6,
    # and the reported tail bound covers it
    assert rep.total == pytest.approx(want, abs=3e-6)
    assert rep.params["converged"] is True
    assert rep.total + rep.params["tail_bound"] >= want


def test_abs_series_divergence_flag():
    from pretense.verify import _alternating_spec

    q = solve_quotient(
        _alternating_spec(), standard_spec("one"), primes=(2,), max_exponent=41
    )
    rep = quotient_square_series(q.spec, 1.0)
    assert rep.params["converged"] is False
    assert 2 in rep.params["diverged_primes"]
    assert "divergent" in rep.verdict


def test_majorant_series_accepts_table(sieve_1e4):
    mu = evaluate(standard_spec("moebius"), sieve_1e4)
    rep = h_majorant_series(mu, 2.0, 10**4, power="L1")
    # sum over squarefree n of n^-2 = zeta(2)/zeta(4)
    from oracles import ZETA2, ZETA4

    assert rep.total == pytest.approx(ZETA2 / ZETA4, abs=1e-3)
    rep2 = h_majorant_series(mu, 2.0, 10**4, power="L2")
    assert rep2.total == pytest.approx(rep.total, rel=1e-12)  # |mu| = |mu|^2


def test_majorant_power_validation(sieve_1e4):
    mu = evaluate(standard_spec("moebius"), sieve_1e4)
    with pytest.raises(InvalidArgumentError):
        h_majorant_series(mu, 2.0, 10**4, power="L3")


# ---------------------------------------------------------------------------
# envelope

@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_h2_envelope_dominates_quotient_mass(seed):
    sv = build_sieve(2000)
    f, g, diffp = random_pair_sparse_diff(seed, limit=2000, ndiff=4)
    q = solve_quotient(f, g, primes=diffp, max_exponent=11)
    ht = evaluate(q.spec, sv)
    for beta in (0.25, 0.5, 1.0):
        dsq = distance_beta(f, g, beta, 2000, sieve=sv).total
        lhs = h_majorant_series(ht, beta, 2000, power="L2").total
        assert lhs <= h2_envelope(beta, dsq) * (1 + 1e-12)


def test_h2_envelope_formula():
    assert h2_envelope(1.0, 0.0) == 1.0
    assert h2_envelope(0.5, 1.0) == pytest.approx(
        math.exp(2.0 / (1.0 - 2**-0.5))
    )
