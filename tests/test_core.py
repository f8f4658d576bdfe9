import ast
import inspect
import json
import math
import textwrap
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pretense import asymptotics, core, metrics
from pretense.core import (
    BLOCK_PARALLEL,
    COMPLETELY_MULTIPLICATIVE,
    FunctionSpec,
    GENERAL_MULTIPLICATIVE,
    build_sieve,
    checkpointed_sums,
    evaluate,
    geometric_checkpoints,
    mean_square_sum,
    partial_sums,
    read_series_csv,
    series_csv,
)
from pretense.constructions import (
    archimedean_twist,
    dirichlet_character,
    euler_phi,
    kronecker_character,
    optimality_twist,
    phase_sum_partials,
    squarefree_restrict,
    standard_spec,
    tabulated_spec,
)
from pretense.degree import degree_d_spec
from pretense.errors import InvalidArgumentError, LimitError, OutOfRangeError, RuleError
from pretense.randspecs import random_spec

from conftest import table_csv
from oracles import (
    brute_divisor_count,
    brute_factorize,
    brute_liouville,
    brute_moebius,
    brute_primes,
    period_evaluate,
    pk_rest_evaluate,
    product_copy,
    real_at_prime_powers,
    reference_evaluate,
    sum2_prefixes,
    whole_array_distance,
    whole_array_phase_sums,
    whole_array_strong,
)


def test_sieve_matches_boolean_oracle():
    sv = build_sieve(3000)
    assert list(sv.primes) == brute_primes(3000)


def test_sieve_smallest_factor_divides():
    sv = build_sieve(500)
    for n in range(2, 501):
        p = int(sv.spf[n])
        assert n % p == 0
        # nothing smaller divides
        for d in range(2, p):
            assert n % d != 0


@given(st.one_of(
    st.sampled_from([2, 3, 4]),
    st.sampled_from(brute_primes(61)).flatmap(
        lambda p: st.sampled_from([p * p - 1, p * p, p * p + 1])),
))
@settings(max_examples=25, deadline=None)
def test_sieve_at_square_edges_matches_oracles(limit):
    sv = build_sieve(limit)
    assert sv.spf.dtype == np.int32 and sv.primes.dtype == np.int64
    assert sv.primes.tolist() == brute_primes(limit)
    want = [0, 0] + [brute_factorize(n)[0][0] for n in range(2, limit + 1)]
    assert sv.spf.tolist() == want


def test_power_cofactor_decomposition():
    sv = build_sieve(10**4)
    pk, rest = sv.power_cofactor()
    n = np.arange(0, 10**4 + 1, dtype=np.int64)
    assert np.all(pk[2:] * rest[2:] == n[2:])
    # the cofactor is coprime to the smallest prime factor
    spf = sv.spf.astype(np.int64)
    assert np.all(rest[2:] % spf[2:] != 0)


# limits at, and one either side of, chunk edges of every patched block size
# and of the doubling bound 2·lo
_CHUNK_EDGES = sorted(
    {e + d for e in [2**k for k in range(1, 11)] + list(range(64, 1100, 64))
     for d in (-1, 0, 1)} - {1}
)


# (spec, integer-valued): completely multiplicative, general (squarefree
# restrictions) and degree-2 specs
_TABLE_SPECS = (
    (archimedean_twist(0.7), False),
    (standard_spec("liouville"), True),
    (squarefree_restrict(dirichlet_character(7, 1)), False),
    (squarefree_restrict(dirichlet_character(5, 1)), True),
    (degree_d_spec([kronecker_character(5), kronecker_character(-3)]), True),
)


@given(st.one_of(st.integers(min_value=2, max_value=1100), st.sampled_from(_CHUNK_EDGES)))
@settings(max_examples=25, deadline=None)
def test_tables_do_not_depend_on_block(limit):
    u = 2.0**-53
    results = []
    for b in (1, 3, 64, core.BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            sv = build_sieve(limit)
            pk, rest = sv.power_cofactor()
            assert pk.dtype == rest.dtype == np.int32
            tables = []
            for spec, integral in _TABLE_SPECS:
                t = evaluate(spec, sv)
                tables.append(t.values.tobytes())
                v = t.values[1:]
                exact = math.fsum(np.concatenate([v.real, v.imag]) ** 2)
                got = mean_square_sum(t, limit)
                if integral:
                    assert got == exact, (b, spec.name)
                else:
                    n = 2 * limit
                    assert abs(got - exact) <= n * u / (1 - n * u) * exact, (b, spec.name)
            results.append((pk.tobytes(), rest.tobytes(), tables))
    assert all(r == results[0] for r in results[1:])
    want_pk = [1, 1] + [p**k for p, k in (brute_factorize(n)[0] for n in range(2, limit + 1))]
    assert pk.tolist() == want_pk
    assert rest.tolist() == [n // q if n else 1 for n, q in enumerate(want_pk)]


_SQUARES = [p * p for p in brute_primes(33)]


@given(st.one_of(
    st.integers(min_value=2, max_value=1100),
    st.sampled_from(_CHUNK_EDGES),
    st.sampled_from(_SQUARES).flatmap(lambda q: st.sampled_from([q - 1, q, q + 1])),
))
@settings(max_examples=30, deadline=None)
def test_sieve_does_not_depend_on_segment(limit):
    results = []
    for seg, block in [(s, b) for s in (1, 2, 3, 64, core.SEGMENT) for b in (1, 3, core.BLOCK)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "SEGMENT", seg)
            mp.setattr(core, "BLOCK", block)
            sv = build_sieve(limit)
        assert sv.spf.dtype == np.int32 and sv.primes.dtype == np.int64
        results.append((sv.spf.tobytes(), sv.primes.tobytes()))
    assert all(r == results[0] for r in results[1:])
    assert sv.primes.tolist() == brute_primes(limit)
    want = [0, 0] + [brute_factorize(n)[0][0] for n in range(2, limit + 1)]
    assert sv.spf.tolist() == want


def test_sieve_primes_views_the_primes_in_range(sieve_100):
    ps = core.sieve_primes(50.5, sieve_100, least=5)
    assert ps.tolist() == [p for p in brute_primes(50) if p >= 5]
    assert np.shares_memory(ps, sieve_100.primes)
    assert core.sieve_primes(100, sieve_100).tolist() == brute_primes(100)
    assert core.sieve_primes(4, sieve_100, least=5).size == 0
    assert core.sieve_primes(30.5).tolist() == brute_primes(30)  # a sieve is built
    with pytest.raises(InvalidArgumentError, match="cutoff 101 beyond sieve limit 100"):
        core.sieve_primes(101, sieve_100)


def test_prime_sums_fold_slices_at_the_checkpoints(sieve_100):
    sizes = []

    def terms_of(ps):
        sizes.append(ps.size)
        return ps.astype(np.float64)

    ps = core.sieve_primes(100, sieve_100)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", 4)
        x, sums = core.prime_sums(terms_of, ps, 100, [1, 2, 10.5, 97, 100])
    assert sizes == [4, 4, 4, 4, 4, 4, 1]
    assert x.tolist() == [1, 2, 10.5, 97, 100]
    assert sums.tolist() == [0, 2, 17, 1060, 1060]


def test_sieve_allocates_spf_primes_and_one_block():
    limit = 2 * 10**5
    for seg, block in ((1 << 12, 1 << 10), (core.SEGMENT, 1 << 10), (core.SEGMENT, core.BLOCK)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "SEGMENT", seg)
            mp.setattr(core, "BLOCK", block)
            tracemalloc.start()
            try:
                sv = build_sieve(limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a BLOCK's mask and prime offsets, and the O(√N) base primes; at
        # BLOCK = 2^10 a full-length temporary (1 B/n), a segment's mask or a
        # second prime list does not fit
        slack = 9 * block + 64 * math.isqrt(limit)
        assert peak <= 4 * (limit + 1) + 8 * sv.primes.size + slack, (seg, block)


# _TABLE_SPECS, a complex character, tiled from its period, and a copy of it
# without the period, filled by products, a twist that is real at 2 and 3
# only, and two specs tabulated to 1100: a random general multiplicative one,
# and one that is real at every prime but has f(4) = i
_REFERENCE_SPECS = [spec for spec, _ in _TABLE_SPECS] + [
    dirichlet_character(7, 1),
    product_copy(dirichlet_character(7, 1)),
    optimality_twist(dirichlet_character(4, 1), 0.5, diagnostics_cutoff=1100),
    random_spec(11, limit=1100, kind=GENERAL_MULTIPLICATIVE),
    tabulated_spec(
        {(p, k): 1j if p**k == 4 else (-1.0) ** k / p
         for p in brute_primes(1100) for k in range(1, 11) if p**k <= 1100},
        name="real-primes-complex-4", kind=GENERAL_MULTIPLICATIVE,
    ),
]


def _table_dtype(spec, limit):
    return np.float64 if real_at_prime_powers(spec, limit) else np.complex128


@given(st.one_of(st.integers(min_value=2, max_value=1100), st.sampled_from(_CHUNK_EDGES)),
       st.data())
@settings(max_examples=25, deadline=None)
def test_evaluate_matches_the_pk_rest_fill(limit, data):
    sub = data.draw(st.integers(min_value=1, max_value=limit))
    for b in (1, 3, 64, core.BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            sv = build_sieve(limit)
            for spec in _REFERENCE_SPECS:
                for n in (limit, sub, 1):
                    got = evaluate(spec, sv, n).values
                    assert got.dtype == _table_dtype(spec, n), (spec.name, n)
                    want = reference_evaluate(spec, sv, n, got.dtype)
                    assert got.tobytes() == want.tobytes(), (b, spec.name, n)


_SIGNED_REALS = (-1.0, -0.5, -0.0, 0.0, 0.25, 1.0)
_SIGNED_COMPLEX = _SIGNED_REALS + (1j, -1j, complex(-0.0, -0.0), complex(-1.0, -0.0))


@given(st.one_of(st.integers(min_value=2, max_value=600), st.sampled_from(_CHUNK_EDGES)),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_real_fill_keeps_signed_zeros(limit, seed):
    # f(2) has real part -0.0, so f(2) = f(2)·1.0 and f(6) = f(2)·f(3) keep
    # it in a real table; f(4) = -1.0 flips the sign of f(4m)
    rng = np.random.default_rng(seed)
    cells = [(p, k) for p in brute_primes(limit) for k in range(1, limit.bit_length())
             if p**k <= limit]
    for choices, f2, dtype in ((_SIGNED_REALS, -0.0, np.float64),
                               (_SIGNED_COMPLEX, complex(-0.0, 1.0), np.complex128)):
        vals = dict(zip(cells, (choices[i] for i in rng.integers(len(choices), size=len(cells)))))
        fixed = {(2, 1): f2, (2, 2): -1.0, (3, 1): 1.0}
        vals.update((c, v) for c, v in fixed.items() if c in vals)
        spec = tabulated_spec(vals)
        for b in (1, 3, 64, core.BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "BLOCK", b)
                sv = build_sieve(limit)
                got = evaluate(spec, sv).values
                assert got.dtype == dtype
                want = pk_rest_evaluate(spec, sv, None, dtype)
                assert got.tobytes() == want.tobytes(), (b, dtype)
        zeros = got.real[[2, 6] if limit >= 6 else [2]]
        assert np.all(zeros == 0) and np.all(np.signbit(zeros))


def test_evaluate_matches_the_pk_rest_fill_in_full_blocks():
    limit = 4 * core.BLOCK + 5  # the last chunks are BLOCK long
    sv = build_sieve(limit)
    for spec in _REFERENCE_SPECS[:-2] + [
        random_spec(12, limit=limit, kind=GENERAL_MULTIPLICATIVE),
        random_spec(13, limit=limit, kind=COMPLETELY_MULTIPLICATIVE),
    ]:
        got = evaluate(spec, sv).values
        assert got.dtype == _table_dtype(spec, limit), spec.name
        assert got.tobytes() == reference_evaluate(spec, sv, None, got.dtype).tobytes(), (
            spec.name)


# every character mod 3..20, the principal ones included, the two with
# period 1, and two Kronecker characters
_PERIODIC_SPECS = [dirichlet_character(q, i) for q in range(3, 21) for i in range(euler_phi(q))] + [
    dirichlet_character(1, 0), kronecker_character(1),
    kronecker_character(-4), kronecker_character(5),
]


def test_tiled_tables_are_the_period_to_the_byte():
    top = core.BLOCK + 1
    sv = build_sieve(top)
    for b in (1, 3, 64, core.BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            for spec in _PERIODIC_SPECS:
                q = spec.period.size
                # below, at and past one and two periods, and at BLOCK edges
                limits = {1, 2, q - 1, q, q + 1, 2 * q, 2 * q + 1, 7 * q + 3,
                          b - 1, b, b + 1, 4 * b + 5, top}
                for n in sorted(m for m in limits if 1 <= m <= top):
                    got = evaluate(spec, sv, n).values
                    # real exactly when f(p) is real at every prime p <= n
                    ps = sv.primes[sv.primes <= n]
                    real = not spec.period[ps % q].imag.any()
                    assert got.dtype == (np.float64 if real else np.complex128), (spec.name, n)
                    want = period_evaluate(spec, n, got.dtype)
                    assert got.tobytes() == want.tobytes(), (b, spec.name, n)


def test_tiled_evaluate_allocates_the_table_alone():
    limit = 2 * 10**5
    sv = build_sieve(limit)
    for spec, itemsize in ((dirichlet_character(7, 1), 16), (kronecker_character(-4), 8)):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            values = evaluate(spec, sv).values
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert values.itemsize == itemsize
        assert peak <= itemsize * (limit + 1) + 4096, spec.name
    assert sv._cache == {}  # no cofactor array was built


def test_a_period_is_checked_and_made_read_only():
    def spec(period, kind=COMPLETELY_MULTIPLICATIVE, bounded=True):
        return FunctionSpec(
            name="p", kind=kind, prime_values=lambda ps: period[ps % period.size],
            powers=None if kind == COMPLETELY_MULTIPLICATIVE else (lambda p, k: 0.0),
            bounded_by_one=bounded, period=period)

    real3 = np.array([0, 1, -1], dtype=np.complex128)
    with pytest.raises(InvalidArgumentError, match="cannot take a period"):
        spec(real3.copy(), kind=GENERAL_MULTIPLICATIVE)
    for bad in (real3.real.copy(), real3[None].copy(), real3[:0].copy(), list(real3)):
        with pytest.raises(InvalidArgumentError, match="1-d complex128"):
            spec(bad)
    big = real3.copy()
    big[2] *= 1.0 + 2 * core.UNIT_DISC_TOL
    with pytest.raises(InvalidArgumentError, match=r"claims \|f\| <= 1 .* \|f\(2\)\|"):
        spec(big)
    assert spec(big, bounded=False).value(5, 1) == big[2]
    edge = real3.copy()
    edge[2] *= 1.0 + core.UNIT_DISC_TOL / 2
    assert spec(edge).value(2, 3) == edge[2]
    period = real3.copy()
    f = spec(period)
    assert f.period is period and not period.flags.writeable
    with pytest.raises(ValueError):
        period[1] = 2.0
    assert f.rule(2, 2) == f.value(2, 2) == 1.0 and f.value(5, 3) == -1.0


def test_evaluate_holds_the_table_and_one_cofactor_array():
    limit = 2 * 10**5
    sv = build_sieve(limit)
    twist, real = archimedean_twist(0.7), standard_spec("liouville")
    few_blocks = 4 * 16 * core.BLOCK  # four complex128 buffers of BLOCK entries
    tracemalloc.start()
    try:
        evaluate(twist, sv)
        cold = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        evaluate(twist, sv)
        warm = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        assert evaluate(real, sv).values.dtype == np.float64
        warm_real = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the first call also builds the 4 B/n cofactor array
    assert cold <= 20 * (limit + 1) + few_blocks
    assert warm <= 16 * (limit + 1) + few_blocks
    assert warm_real <= 8 * (limit + 1) + few_blocks
    sv.power_cofactor()  # builds pk afresh and does not cache it
    assert [np.asarray(v).nbytes for v in sv._cache.values()] == [4 * (limit + 1)]


def test_real_evaluate_holds_no_prime_values():
    # at BLOCK = 2^10 the 16 B complex values of the 17,984 primes <= 2e5
    # (288 KB) do not fit beside the table
    limit = 2 * 10**5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", 1 << 10)
        sv = build_sieve(limit)
        sv.cofactor()
        slack = 8 * 16 * core.BLOCK + 64 * math.isqrt(limit)
        for spec in (standard_spec("liouville"),
                     degree_d_spec([kronecker_character(-4), kronecker_character(-3)]),
                     dirichlet_character(4, 1)):
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                values = evaluate(spec, sv).values
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert values.dtype == np.float64, spec.name
            assert peak <= 8 * (limit + 1) + slack, spec.name


def test_sieve_limit_guard():
    with pytest.raises(LimitError):
        build_sieve(10**9)
    with pytest.raises(InvalidArgumentError):
        build_sieve(1)


def test_evaluate_moebius_and_liouville(sieve_1e4):
    mu = evaluate(standard_spec("moebius"), sieve_1e4, 2000)
    lam = evaluate(standard_spec("liouville"), sieve_1e4, 2000)
    for n in range(1, 2001):
        assert mu.values[n] == brute_moebius(n)
        assert lam.values[n] == brute_liouville(n)


def test_evaluate_divisor_function(sieve_1e4):
    tau = evaluate(
        degree_d_spec([standard_spec("one"), standard_spec("one")]), sieve_1e4, 3000
    )
    for n in (1, 2, 12, 36, 360, 1024, 2999):
        assert tau.values[n] == brute_divisor_count(n)


def test_prefix_sums_definition(sieve_1e4):
    t = evaluate(standard_spec("moebius"), sieve_1e4, 1000)
    ps = checkpointed_sums(t.values[1:], np.arange(t.limit + 1))
    assert ps[0] == 0
    assert ps[1] == 1
    assert abs(ps[1000] - sum(brute_moebius(n) for n in range(1, 1001))) == 0


def test_rule_error_wrapping():
    def bad(p, k):
        raise KeyError(p)

    spec = FunctionSpec(name="bad", kind=GENERAL_MULTIPLICATIVE,
                        prime_values=lambda ps: bad(ps, 1), powers=bad)
    with pytest.raises(RuleError):
        spec.value(2, 1)


def test_unit_disc_enforcement():
    spec = FunctionSpec(
        name="big",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: np.full(ps.shape, 2.0),
        powers=lambda p, k: 2.0,
        bounded_by_one=True,
    )
    with pytest.raises(InvalidArgumentError):
        spec.value(2, 1)


def test_spec_powers_given_exactly_when_not_completely_multiplicative():
    ones = lambda ps: np.ones(ps.shape)
    with pytest.raises(InvalidArgumentError):
        FunctionSpec(name="cm", kind=COMPLETELY_MULTIPLICATIVE,
                     prime_values=ones, powers=lambda p, k: 1.0)
    with pytest.raises(InvalidArgumentError):
        FunctionSpec(name="gm", kind=GENERAL_MULTIPLICATIVE, prime_values=ones)
    half = FunctionSpec(name="half", kind=COMPLETELY_MULTIPLICATIVE,
                        prime_values=lambda ps: np.full(ps.shape, 0.5))
    assert half.rule(3, 1) == 0.5 and half.rule(3, 4) == 0.0625


def test_value_runs_the_prime_map_once_per_prime():
    calls = []

    def prime_values(ps):
        calls.append(ps.tolist())
        return np.full(ps.shape, 0.5)

    spec = FunctionSpec(name="half", kind=COMPLETELY_MULTIPLICATIVE,
                        prime_values=prime_values, bounded_by_one=True)
    assert spec.value(5, 1) == spec.value(5, 1) == 0.5
    assert type(spec.value(5, 1)) is complex
    assert spec.value(5, 3) == 0.125 and spec.value(7, 2) == 0.25
    assert calls == [[5], [7]]
    # rule() keeps nothing: each call asks the map again
    assert spec.rule(5, 1) == 0.5
    assert calls == [[5], [7], [5]]

    # a value off the unit disc is not stored, so value() checks it again
    big = FunctionSpec(name="big", kind=COMPLETELY_MULTIPLICATIVE,
                       prime_values=lambda ps: np.full(ps.shape, 2.0),
                       bounded_by_one=True)
    for _ in range(2):
        with pytest.raises(InvalidArgumentError):
            big.value(5, 1)


def test_value_at_exponent_zero_is_one():
    spec = FunctionSpec(
        name="x", kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: np.full(ps.shape, 0.5), powers=lambda p, k: 0.5,
    )
    assert spec.value(7, 0) == 1.0


def test_checkpointed_sums_against_fsum():
    rng = np.random.default_rng(5)
    terms = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * 1e6
    got = checkpointed_sums(terms, np.array([3000]))[0]
    want = complex(
        math.fsum(float(v) for v in terms.real),
        math.fsum(float(v) for v in terms.imag),
    )
    assert abs(got - want) <= 1e-9 * abs(want)


@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
    st.lists(st.integers(min_value=0, max_value=300), max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_sums_do_not_depend_on_block(values, extra):
    # checkpoints at 0, at every chunk edge of each block size and one term
    # either side of it, plus drawn (possibly repeated) positions
    terms = np.array(values, dtype=np.complex128)
    n = terms.size
    blocks = (1, 3, 64, core.BLOCK)
    pos = {0, n}
    for b in blocks:
        for edge in range(0, n + 1, b):
            pos.update((edge - 1, edge, edge + 1))
    pos = np.array(sorted([p for p in pos if 0 <= p <= n] + [p for p in extra if p <= n]))
    want = checkpointed_sums(terms, pos)
    for b in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            got = checkpointed_sums(terms, pos)
        assert got.tobytes() == want.tobytes(), b


def _within_sum2_bound(prefixes, part) -> bool:
    """Every prefix within 2u|fsum| + γ_n²·Σ|x_i| of math.fsum of that prefix."""
    u = 2.0**-53
    for p in range(1, part.size + 1):
        exact = math.fsum(part[:p])
        gamma = p * u / (1 - p * u)
        bound = 2 * u * abs(exact) + gamma**2 * math.fsum(np.abs(part[:p]))
        if abs(prefixes[p - 1] - exact) > bound:
            return False
    return True


_scaled = st.builds(
    lambda m, e: m * 2.0**e,
    st.floats(min_value=-1, max_value=1),
    st.integers(min_value=-40, max_value=40),
)


@given(
    st.lists(st.tuples(_scaled, _scaled), min_size=1, max_size=200),
    st.booleans(),
    st.sampled_from((1, 3, 64, core.BLOCK)),
)
@settings(max_examples=60, deadline=None)
def test_prefix_sums_within_sum2_bound_of_fsum(pairs, cancel, block):
    vals = [complex(a, b) for a, b in pairs]
    if cancel:  # ill-conditioned: the whole sum cancels to zero
        vals += [-v for v in reversed(vals)]
    terms = np.array(vals, dtype=np.complex128)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", block)
        got = checkpointed_sums(terms, np.arange(terms.size + 1))
    assert got[0] == 0
    assert _within_sum2_bound(got.real[1:], terms.real)
    assert _within_sum2_bound(got.imag[1:], terms.imag)


def test_sum2_bound_rejects_plain_cumsum():
    # 1e16 + 1 rounds back to 1e16 twice, so a plain cumsum ends at 0, not 2
    terms = np.array([1e16, 1.0, 1.0, -1e16])
    assert not _within_sum2_bound(np.cumsum(terms), terms)
    got = checkpointed_sums(terms.astype(np.complex128), np.arange(1, 5))
    assert got[-1] == 2.0
    assert _within_sum2_bound(got.real, terms)


def test_partial_sums_positions_are_term_counts(sieve_1e4):
    t = evaluate(standard_spec("one"), sieve_1e4, 100)
    s = partial_sums(t, np.array([10.0, 99.5, 100.0]))
    assert list(s.sums.real) == [10.0, 99.0, 100.0]


def test_partial_sums_checkpoint_validation(sieve_1e4):
    from pretense.errors import OutOfRangeError

    t = evaluate(standard_spec("one"), sieve_1e4, 100)
    with pytest.raises(InvalidArgumentError):
        partial_sums(t, np.array([50.0, 50.0]))
    with pytest.raises(InvalidArgumentError):
        partial_sums(t, np.array([0.5, 50.0]))
    with pytest.raises(OutOfRangeError):
        partial_sums(t, np.array([50.0, 101.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_partial_sums_rejects_non_finite_checkpoints(sieve_1e4, bad):
    t = evaluate(standard_spec("one"), sieve_1e4, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([bad, 5.0], [5.0, bad], [bad]):
            with pytest.raises(InvalidArgumentError, match="must be finite"):
                partial_sums(t, np.array(x))


def test_geometric_checkpoints_rejects_non_finite_ends():
    for lo, hi in ((1, math.inf), (1, math.nan), (math.nan, 10)):
        with pytest.raises(InvalidArgumentError):
            geometric_checkpoints(lo, hi)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_geometric_checkpoints_structure(hi):
    grid = geometric_checkpoints(1, hi)
    assert grid[0] == 1 and grid[-1] <= hi
    assert np.all(np.diff(grid) > 0)
    # gaps between large checkpoints stay near the nominal ratio
    big = grid[grid >= 100]
    if len(big) >= 2:
        assert np.max(big[1:] / big[:-1]) < 10**0.125 * 1.05


def test_nonnegative_terms_give_nondecreasing_partials(sieve_1e4):
    # partial sums of |f| are monotone; exercised through the public path
    t = evaluate(standard_spec("moebius"), sieve_1e4, 5000)
    tt = type(t)(spec=t.spec, limit=t.limit, values=np.abs(t.values).astype(complex))
    s = partial_sums(tt, geometric_checkpoints(1, 5000))
    assert np.all(np.diff(s.sums.real) >= 0)


def test_mean_square_sum(sieve_1e4):
    t = evaluate(standard_spec("liouville"), sieve_1e4, 1000)
    assert mean_square_sum(t, 1000) == pytest.approx(1000.0)
    assert mean_square_sum(t, 10.5) == pytest.approx(10.0)


def test_table_csv_and_series_roundtrip(sieve_1e4):
    t = evaluate(standard_spec("moebius"), sieve_1e4, 50)
    text = table_csv(t)
    lines = text.splitlines()
    assert lines[0] == "n_or_x,re,im,abs"
    assert lines[1] == "1,1,0,1"
    assert lines[4] == "4,0,0,0"

    s = partial_sums(t, np.array([10.0, 50.0]))
    back = read_series_csv(series_csv(s))
    assert np.array_equal(back.checkpoints, s.checkpoints)
    assert np.array_equal(back.sums, s.sums)


def test_thread_count_validation(monkeypatch):
    # the CLI checks --threads, or else PRETENSE_THREADS, before any command runs
    from pretense.cli import _check_threads

    monkeypatch.delenv("PRETENSE_THREADS", raising=False)
    _check_threads(None)
    _check_threads(1)
    for threads in (0, -2):
        with pytest.raises(InvalidArgumentError, match="thread count"):
            _check_threads(threads)
    for env in ("abc", "0", "1.5"):
        monkeypatch.setenv("PRETENSE_THREADS", env)
        with pytest.raises(InvalidArgumentError, match="PRETENSE_THREADS"):
            _check_threads(None)
    monkeypatch.setenv("PRETENSE_THREADS", "3")
    _check_threads(None)


def test_threads_env_fallback(monkeypatch, sieve_1e4):
    # the library reads no PRETENSE_THREADS, not even one the CLI rejects;
    # the mode and threads that the benchmark passes change no bit
    t = evaluate(standard_spec("one"), sieve_1e4, 1000)
    monkeypatch.delenv("PRETENSE_THREADS", raising=False)
    want = partial_sums(t, np.array([1000.0])).sums.tobytes()
    for env in ("3", "1", "abc", "0"):
        monkeypatch.setenv("PRETENSE_THREADS", env)
        got = partial_sums(t, np.array([1000.0]), mode=BLOCK_PARALLEL, threads=None)
        assert got.sums.tobytes() == want, env


def _public_signatures():
    """{module.name: signature} of every public function and class, but the
    errors, that a pretense module defines."""
    import importlib
    import pkgutil

    import pretense

    sigs = {}
    for info in pkgutil.iter_modules(pretense.__path__):
        mod = importlib.import_module(f"pretense.{info.name}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not (isinstance(obj, type) and issubclass(obj, Exception))):
                sigs[f"{info.name}.{name}"] = inspect.signature(obj)
    return sigs


def test_only_the_benchmark_entry_points_take_threads_or_a_summation_mode():
    # every sum runs one path: partial_sums and distance_classic keep ignored
    # keywords for bench/workloads.py, and xi's lookup mode is a real choice
    sigs = _public_signatures()
    takes = lambda param: {n for n, sig in sigs.items() if param in sig.parameters}
    assert takes("threads") == {"core.partial_sums", "metrics.distance_classic"}
    assert takes("mode") == {"core.partial_sums", "asymptotics.xi_lookup",
                             "asymptotics.xi_tilde", "asymptotics.xi_roundtrip_residual"}
    assert takes("summation_mode") == set()
    for name, param in (("core.partial_sums", "mode"), ("core.partial_sums", "threads"),
                        ("metrics.distance_classic", "threads")):
        p = sigs[name].parameters[param]
        assert p.kind is inspect.Parameter.KEYWORD_ONLY and p.default is None, name
    assert "ratio" not in sigs["core.geometric_checkpoints"].parameters
    assert "tail_terms" not in sigs["degree.degreedist_extension_check"].parameters


# ---------------------------------------------------------------------------
# one S(x): every prefix sum, prefix table and running maximum is Sum2's

def _table(values) -> core.ValueTable:
    v = np.concatenate([[0], np.asarray(values, dtype=np.complex128)])
    return core.ValueTable(spec=standard_spec("one"), limit=v.size - 1, values=v)


def _brute_running_max(values):
    """Exact prefixes by math.fsum per part, and their running max of |S|."""
    S = np.empty(values.size, dtype=np.complex128)
    for n in range(1, values.size + 1):
        S[n - 1] = complex(math.fsum(values.real[:n]), math.fsum(values.imag[:n]))
    return S, np.maximum.accumulate(np.abs(S))


def _xi_exact_is_partial_sums(table, x, alpha) -> bool:
    series = partial_sums(table, x)
    xi = asymptotics.xi_from_sums(series, alpha)
    got = asymptotics.xi_lookup(xi, x, mode=asymptotics.EXACT)
    return got.tobytes() == xi.samples.tobytes()


# integer-valued terms up to 2^60 that cancel: Sum2 is exact on them, so it
# equals math.fsum, while a plain cumsum loses the small terms
_big_ints = st.builds(
    lambda m, e: float(m) * 2.0**e,
    st.integers(min_value=-7, max_value=7),
    st.sampled_from((0, 1, 5, 30, 53, 60)),
)


@given(
    st.lists(st.tuples(_big_ints, _big_ints), min_size=1, max_size=120),
    st.data(),
    st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=60, deadline=None)
def test_exact_xi_reads_the_bits_partial_sums_prints(pairs, data, alpha):
    vals = [complex(a, b) for a, b in pairs]
    vals += [-v for v in reversed(vals)][: data.draw(st.integers(0, len(vals)))]
    table = _table(vals)
    picks = data.draw(st.sets(st.integers(1, table.limit), min_size=1))
    x = np.array(sorted(picks), dtype=np.float64)
    x[x < table.limit] += data.draw(st.sampled_from((0.0, 0.5)))
    assert _xi_exact_is_partial_sums(table, x, alpha)
    # exact xi at the same points, in any order and repeated, reads those S
    y = x[data.draw(st.lists(st.integers(0, x.size - 1), min_size=1))]
    xi = asymptotics.xi_from_sums(partial_sums(table, x), alpha)
    got = asymptotics.xi_lookup(xi, y, mode=asymptotics.EXACT)
    want = partial_sums(table, x).sums[np.searchsorted(x, y)] / y**alpha
    assert got.tobytes() == want.tobytes()


def test_plain_cumsum_fails_the_exact_xi_test(monkeypatch):
    table = _table([1e16, 1.0, 1.0, -1e16])
    x = np.arange(1.0, 5.0)
    assert _xi_exact_is_partial_sums(table, x, 0.5)
    assert partial_sums(table, x).sums[-1] == 2.0
    monkeypatch.setattr(asymptotics, "checkpointed_sums",
                        lambda terms, at: np.cumsum(np.append(0.0, terms))[at])
    assert not _xi_exact_is_partial_sums(_table([1e16, 1.0, 1.0, -1e16]), x, 0.5)


@given(st.lists(st.tuples(_big_ints, _big_ints), min_size=1, max_size=120),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_running_max_is_the_brute_max_of_fsum_prefixes(pairs, real):
    vals = [complex(a, 0.0 if real else b) for a, b in pairs]
    vals += [-v for v in reversed(vals)]  # the total cancels to zero
    table = _table(vals)
    S, M = _brute_running_max(table.values[1:])
    x = np.arange(1.0, table.limit + 1)
    series, peaks = core.running_max(table, x)
    assert series.sums.tobytes() == S.tobytes()
    assert peaks.tobytes() == M.tobytes()
    assert series.sums.tobytes() == partial_sums(table, x).sums.tobytes()


@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
)
@settings(max_examples=40, deadline=None)
def test_prefix_table_and_running_max_do_not_depend_on_block(values):
    table = _table(values)
    x = np.arange(1.0, table.limit + 1)
    got = []
    for b in (1, 3, 64, core.BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            series, peaks = core.running_max(table, x)
            prefix = checkpointed_sums(table.values[1:], np.arange(table.limit + 1))
        got.append((prefix.tobytes(), series.sums.tobytes(), peaks.tobytes()))
    assert all(g == got[0] for g in got)
    assert got[0][0][16:] == got[0][1]  # the table is the gathered prefixes


@given(
    st.lists(
        st.tuples(_scaled, st.sampled_from((0.0, -0.0)) | _scaled),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=60, deadline=None)
def test_complex_sum2_is_the_two_real_passes(pairs):
    # complex adds are componentwise: one complex pass gives each part's bits
    terms = np.array([complex(a, b) for a, b in pairs])
    pos = np.arange(terms.size + 1)
    got = checkpointed_sums(terms, pos)
    assert got.real.tobytes() == checkpointed_sums(terms.real, pos).real.tobytes()
    imag = checkpointed_sums(terms.imag, pos).real
    assert got.imag.tobytes() == imag.tobytes()
    assert not np.any(np.signbit(got.imag[got.imag == 0]))


def _chunks_of(terms, data, block):
    """terms cut into consecutive chunks of 1 to block terms, drawn."""
    chunks, a = [], 0
    while a < terms.size:
        m = data.draw(st.integers(1, min(block, terms.size - a)))
        chunks.append(terms[a : a + m])
        a += m
    return chunks


@given(
    st.lists(st.tuples(_scaled, _scaled), min_size=1, max_size=200),
    st.sampled_from(("real", "complex", "real-then-complex", "signed-zero-imag")),
    st.sampled_from((1, 3, 64, core.BLOCK)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_chunked_sum2_is_the_array_sum2(pairs, kind, block, data):
    terms = np.array([complex(a, b) for a, b in pairs])
    if kind == "signed-zero-imag":
        terms.imag = np.where([b < 0 for _, b in pairs], -0.0, 0.0)
    whole = terms.real.copy() if kind == "real" else terms
    if kind == "real":
        terms.imag = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", block)
        chunks = _chunks_of(whole, data, block)
        if kind == "real-then-complex":  # the leading chunks come as float64
            lead = data.draw(st.integers(0, len(chunks)))
            chunks[:lead] = [c.real.copy() for c in chunks[:lead]]
            terms.imag[: sum(c.size for c in chunks[:lead])] = 0.0
        got, want = ([(a, S.astype(np.complex128)) for a, S in core._sum2_chunks(t)]
                     for t in (iter(chunks), whole))
    assert [a for a, _ in got] == [sum(c.size for c in chunks[:i])
                                   for i in range(len(chunks))]
    joined = np.concatenate([S for _, S in got])
    assert joined.tobytes() == np.concatenate([S for _, S in want]).tobytes()
    # and both are the componentwise real passes of one complex sum
    pos = np.arange(1, terms.size + 1)
    assert joined.real.tobytes() == checkpointed_sums(terms.real, pos).real.tobytes()
    assert joined.imag.tobytes() == checkpointed_sums(terms.imag, pos).real.tobytes()


def _matches_sum2_reference(values) -> bool:
    """checkpointed_sums at every position and running_max at every n give
    the bytes of oracles.sum2_prefixes, which runs the TwoSum steps on every
    chunk, and of its running max of |S|."""
    want = sum2_prefixes(values)
    table = core.ValueTable(standard_spec("one"), values.size, np.concatenate([[0], values]))
    series, peaks = core.running_max(table, np.arange(1.0, values.size + 1))
    return (
        checkpointed_sums(values, np.arange(values.size + 1)).tobytes() == want.tobytes()
        and series.sums.tobytes() == want[1:].tobytes()
        and peaks.tobytes() == np.maximum.accumulate(np.abs(want[1:])).tobytes()
    )


_SUM2_PIECES = st.one_of(
    # whole and small: chunks of these alone take the exact path
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=70),
    # 2^e + x drops x into the TwoSum error, and s comes back whole: the
    # exact chunks after it carry a nonzero E
    st.builds(lambda e, x: [2.0**e, x, -(2.0**e)],
              st.integers(53, 60), st.sampled_from((1.0, 0.5, 3.0, -1.0))),
    # whole, but Σ|x| reaches 2^52 or 2^53: the exact path must fall back
    st.lists(st.sampled_from((2.0**52 - 1, 2.0**51, -(2.0**52), 2.0**53 - 1,
                              -(2.0**53 - 1), 1.0)), min_size=1, max_size=6),
    st.lists(_scaled, min_size=1, max_size=6),
    st.lists(st.sampled_from((math.inf, -math.inf, 0.0, -0.0, math.nan)),
             min_size=1, max_size=3),
)


@given(
    st.lists(_SUM2_PIECES, min_size=1, max_size=8),
    st.sampled_from(("real", "signed-zero-imag", "complex")),
    st.lists(_SUM2_PIECES, min_size=1, max_size=8),
    st.sampled_from((1, 3, 64, core.BLOCK)),
)
@settings(max_examples=150, deadline=None)
def test_exact_path_is_the_full_sum2(re_pieces, kind, im_pieces, block):
    re = np.concatenate(re_pieces)
    if kind == "real":
        values = re
    else:
        values = re.astype(np.complex128)
        im = np.resize(np.concatenate(im_pieces), re.size)
        values.imag = np.copysign(0.0, im) if kind == "signed-zero-imag" else im
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(core, "BLOCK", block)
        assert _matches_sum2_reference(values)


# 2^53 + 1 rounds to 2^53, so the first chunk of three ends with s = 0 and
# E = 1; the whole chunks after it take the exact path with that E
_CARRIED_E = np.array([2.0**53, 1.0, -(2.0**53), 1.0, 2.0, -1.0, 3.0, 0.0, 1.0])


@pytest.mark.parametrize("values", [_CARRIED_E, _CARRIED_E + 1j * _CARRIED_E[::-1]],
                         ids=["real", "complex"])
def test_exact_path_keeps_the_carried_error(values, monkeypatch):
    monkeypatch.setattr(core, "BLOCK", 3)
    assert _matches_sum2_reference(values)
    total = complex(math.fsum(values.real), math.fsum(np.imag(values)))
    assert checkpointed_sums(values, [9])[0] == total
    # negative control: the kernel with an exact path that drops the carried E
    src = textwrap.dedent(inspect.getsource(core._sum2_chunks))
    dropped = src.replace("np.add(sv[1:], e_carry, out=tv)", "sv[1:]")
    assert dropped != src
    scope = dict(vars(core))
    exec(dropped, scope)
    monkeypatch.setattr(core, "_sum2_chunks", scope["_sum2_chunks"])
    assert not _matches_sum2_reference(values)


def test_exact_path_needs_sums_below_2_52(monkeypatch):
    # whole terms, but 2^53 + 1 rounds: only the TwoSum errors keep the 1s
    values = np.array([2.0**53, 1.0, 1.0, -(2.0**53)])
    assert _matches_sum2_reference(values)
    assert checkpointed_sums(values, [4])[0] == 2.0
    # negative control: an exact path for every whole chunk, with no bound
    monkeypatch.setattr(core, "_whole_below_2_52",
                        lambda flat, scratch: bool((np.trunc(flat) == flat).all()))
    assert not _matches_sum2_reference(values)


def test_series_terms_are_made_a_block_at_a_time(sieve_1e6):
    table = evaluate(archimedean_twist(0.7), sieve_1e6)
    few_blocks = 8 * 16 * core.BLOCK  # eight complex128 buffers of BLOCK entries
    tracemalloc.start()
    try:
        for run in (
            lambda: asymptotics.l_truncation(table, 2.0 + 1.0j),
            lambda: metrics.h_majorant_series(table, 1.0, 10**6, power="L2"),
            lambda: metrics.h_majorant_series(table, 0.5, 10**6, power="L1"),
        ):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            run()
            assert tracemalloc.get_traced_memory()[1] - held <= few_blocks
    finally:
        tracemalloc.stop()


def test_zero_imaginary_parts_take_the_real_pass_alone(sieve_1e6):
    spec = standard_spec("liouville")
    ref = core.ValueTable(spec, 10**6, pk_rest_evaluate(spec, sieve_1e6))
    assert int(np.count_nonzero(np.signbit(ref.values.imag))) == 499_734
    assert next(core._sum2_chunks(ref.values[1:]))[1].dtype == np.float64
    assert next(core._sum2_chunks(np.array([1, -0.0j, 2j])))[1].dtype == np.complex128
    real = evaluate(spec, sieve_1e6)
    assert real.values.dtype == np.float64
    x = geometric_checkpoints(1, 10**6)
    pos = np.floor(x).astype(np.int64)
    want = checkpointed_sums(ref.values.real[1:], pos)
    assert not np.any(want.imag) and not np.any(np.signbit(want.imag))
    for table in (ref, real):
        for got in (
            partial_sums(table, x).sums,
            core.running_max(table, x)[0].sums,
        ):
            assert got.tobytes() == want.tobytes()
        xi = asymptotics.xi_from_sums(partial_sums(table, x), 0.5)
        got = asymptotics.xi_lookup(xi, x, mode=asymptotics.EXACT)
        assert got.tobytes() == (want / x**0.5).tobytes()


def _in_order_folds(table, x, y) -> list:
    """The bytes of every fold that reads table through core.value_chunks:
    partial_sums, both arrays of running_max, exact xi at y, the `pretense
    eval` CSV and, last, the mean square up to x[-1]."""
    series, peaks = core.running_max(table, x)
    xi = asymptotics.xi_from_sums(partial_sums(table, x), 0.5)
    return [
        partial_sums(table, x).sums.tobytes(),
        series.sums.tobytes(),
        peaks.tobytes(),
        asymptotics.xi_lookup(xi, y, mode=asymptotics.EXACT).tobytes(),
        table_csv(table),
        mean_square_sum(table, x[-1]).hex(),
    ]


def _prime_fold_pairs():
    """Fresh (f, g) for the strong distance: periodic, archimedean twists,
    not completely multiplicative (μ²χ₄, μ) and mixed (χ₄, μ)."""
    chi4 = dirichlet_character(4, 1)
    return [
        (dirichlet_character(7, 1), chi4),
        (archimedean_twist(1.25), archimedean_twist(1.25 + 1e-7)),
        (squarefree_restrict(chi4), standard_spec("moebius")),
        (chi4, standard_spec("moebius")),
    ]


_PRIME_FOLD_BETAS = (0.25, 0.5, 1.0)


def _prime_folds(sieve, n, x) -> list:
    """Every sum over primes through core.prime_sums, on fresh specs, at
    cutoff n and checkpoints x: the classic distance, the β-distance at each
    of _PRIME_FOLD_BETAS, the strong distance at k = 3 for each pair of
    _prime_fold_pairs, and the phase sums of χ₇."""
    chi4, chi7 = dirichlet_character(4, 1), dirichlet_character(7, 1)
    mu = standard_spec("moebius")
    return (
        [metrics.distance_classic(chi7, mu, n, x, sieve)]
        + [metrics.distance_beta(chi4, chi7, b, n, x, sieve) for b in _PRIME_FOLD_BETAS]
        + [metrics.distance_strong(f, g, 0.5, 3, n, x, sieve)
           for f, g in _prime_fold_pairs()]
        + [phase_sum_partials(chi7, 1.0, n, x, sieve)]
    )


def _whole_array_prime_folds(sieve, n, x) -> list:
    """The (x, S) of each fold of _prime_folds by its whole-array formula."""
    chi4, chi7 = dirichlet_character(4, 1), dirichlet_character(7, 1)
    mu = standard_spec("moebius")
    return (
        [whole_array_distance(chi7, mu, 1.0, n, x, sieve)]
        + [whole_array_distance(chi4, chi7, b, n, x, sieve) for b in _PRIME_FOLD_BETAS]
        + [whole_array_strong(f, g, 0.5, 3, n, x, sieve) for f, g in _prime_fold_pairs()]
        + [whole_array_phase_sums(chi7, 1.0, n, x, sieve)]
    )


def test_in_order_folds_do_not_depend_on_chunk_length(sieve_1e4):
    n = 3000
    chi7 = evaluate(product_copy(dirichlet_character(7, 1)), sieve_1e4, n)
    mu = evaluate(standard_spec("moebius"), sieve_1e4, n)
    assert chi7.values.dtype == np.complex128 and mu.values.dtype == np.float64
    x = np.arange(1.0, n + 1)
    y = np.random.default_rng(7).uniform(1.0, n + 1.0, 500)
    blocks = (1, 3, 64, core.BLOCK)
    got = {}
    for b in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", b)
            got[b] = (_in_order_folds(chi7, x, y), _in_order_folds(mu, x, y),
                      [core.json_text(rep) for rep in _prime_folds(sieve_1e4, n, x)])
    want_chi7, want_mu, want_primes = got[core.BLOCK]
    for b in blocks:
        assert got[b][1] == want_mu  # whole values: the mean square too
        assert got[b][0][:-1] == want_chi7[:-1]
        assert got[b][2] == want_primes
    # the sums over primes keep the bits of their whole-array formulas
    for rep, (cut, sums) in zip(_prime_folds(sieve_1e4, n, x),
                                _whole_array_prime_folds(sieve_1e4, n, x)):
        got_x, got_s = ((rep.cutoffs, rep.partials) if hasattr(rep, "partials")
                        else (rep.checkpoints, rep.sums))
        want_s = sums.real if got_s.dtype == np.float64 else sums
        assert got_x.tobytes() == cut.tobytes()
        assert got_s.tobytes() == want_s.tobytes()
    # as documented, the last bits of a non-integer mean square depend on
    # BLOCK, and the byte comparison sees them
    assert len({got[b][0][-1] for b in blocks}) > 1
    # negative control: a source that reverses each chunk is right at chunk
    # length 1 only, and the comparison sees it at any other
    chunks = core.value_chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "value_chunks",
                   lambda t, N: ((a, v[::-1]) for a, v in chunks(t, N)))
        for b in blocks:
            mp.setattr(core, "BLOCK", b)
            assert (_in_order_folds(mu, x, y)[0] == want_mu[0]) == (b == 1)


def test_cumsum_lives_only_in_the_sum2_kernel():
    """Nothing in src/pretense sums a prefix outside core._sum2_chunks."""
    found = []

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else func
            if (
                isinstance(child, ast.Attribute) and child.attr == "cumsum"
                or isinstance(child, ast.Name) and child.id == "cumsum"
                or isinstance(child, ast.Attribute) and child.attr == "accumulate"
                and isinstance(child.value, ast.Attribute) and child.value.attr == "add"
            ):
                found.append((path.name, name))
            visit(child, path, name)

    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert found and set(found) == {("core.py", "_sum2_chunks")}, found


def _checkpoint_consumers(sieve):
    chi4 = dirichlet_character(4, 1)
    table = evaluate(chi4, sieve, 10**4)
    return {
        "partial_sums": lambda x: partial_sums(table, x),
        "running_max": lambda x: core.running_max(table, x),
        "running_max_fit": lambda x: asymptotics.running_max_fit(table, x),
        "phase_sum_partials": lambda x: phase_sum_partials(
            chi4, tau=1.0, cutoff=10**4, checkpoints=x, sieve=sieve),
        "distance_classic": lambda x: metrics.distance_classic(
            chi4, standard_spec("one"), 10**4, checkpoints=x, sieve=sieve),
        "h_majorant_series": lambda x: metrics.h_majorant_series(
            table, 1.0, 10**4, checkpoints=x),
    }


@pytest.mark.parametrize("consumer", [
    "partial_sums", "running_max", "running_max_fit", "phase_sum_partials",
    "distance_classic", "h_majorant_series",
])
@pytest.mark.parametrize("x, error, match", [
    ([10, 100, 1e9], OutOfRangeError, "checkpoint 1000000000.0 beyond"),
    ([10, math.nan, 100], InvalidArgumentError, "must be finite"),
    ([10, 1000, 100, 5000], InvalidArgumentError, "strictly increasing"),
    ([10, 10, 100], InvalidArgumentError, "strictly increasing"),
    ([0.5, 10, 100], InvalidArgumentError, "start at 1"),
    ([], InvalidArgumentError, "at least one"),
], ids=["beyond-limit", "nan", "unsorted", "repeated", "below-one", "empty"])
def test_one_checkpoint_validator(sieve_1e4, consumer, x, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            _checkpoint_consumers(sieve_1e4)[consumer](x)


# ---------------------------------------------------------------------------
# the one JSON encoder of every report

@dataclass(frozen=True)
class _Inner:
    z: complex
    flags: tuple


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    rows: list
    table: dict


def test_json_obj_gives_plain_json_values():
    inf, nan = math.inf, math.nan
    assert core.json_obj(np.int64(7)) == 7 and type(core.json_obj(np.int64(7))) is int
    assert core.json_obj(np.bool_(True)) is True
    assert core.json_obj(np.float64(0.1)) == 0.1
    assert type(core.json_obj(np.float64(0.1))) is float
    # xi --x returns a 0-d complex array
    assert core.json_obj(np.asarray(2.5 - 0.0j)) == [2.5, -0.0]
    assert core.json_obj(np.array([1 + 2j, 3j])) == [[1.0, 2.0], [0.0, 3.0]]
    assert core.json_obj(inf) is None and core.json_obj(-inf) is None
    assert core.json_obj(nan) is None and core.json_obj(np.float64(-inf)) is None
    assert core.json_obj(complex(inf, nan)) == [None, None]
    assert core.json_obj(np.complex128(complex(1.0, -inf))) == [1.0, None]
    assert core.json_obj({2: "a", 1.5: None, (3, 4): True}) == {
        "2": "a", "1.5": None, "(3, 4)": True,
    }
    obj = _Outer(
        inner=_Inner(z=1j, flags=(np.bool_(False), (np.int32(3), nan))),
        rows=[(2, -inf), np.array([0.5])],
        table={np.int64(5): np.array(7)},
    )
    want = {
        "inner": {"z": [0.0, 1.0], "flags": [False, [3, None]]},
        "rows": [[2, None], [0.5]],
        "table": {"5": 7},
    }
    assert core.json_obj(obj) == want
    text = core.json_text(obj)
    assert json.loads(text, parse_constant=lambda name: pytest.fail(name)) == want
    assert text == json.dumps(want, indent=2, sort_keys=True)
