import numpy as np
import pytest

from pretense.core import (
    COMPLETELY_MULTIPLICATIVE,
    GENERAL_MULTIPLICATIVE,
    build_sieve,
    evaluate,
)
from pretense.cli import parse_spec_arg
from pretense.errors import RuleError
from pretense.randspecs import random_pair_sparse_diff, random_spec


def test_same_seed_replays_identically():
    a = random_spec(42, limit=1000)
    b = random_spec(42, limit=1000)
    sv = build_sieve(1000)
    assert np.array_equal(evaluate(a, sv).values, evaluate(b, sv).values)


def test_different_seeds_differ():
    sv = build_sieve(1000)
    a = evaluate(random_spec(1, limit=1000), sv).values
    b = evaluate(random_spec(2, limit=1000), sv).values
    assert not np.array_equal(a, b)


def test_values_on_unit_circle():
    spec = random_spec(7, limit=500)
    for p in (2, 3, 499):
        assert abs(abs(spec.value(p, 1)) - 1.0) <= 1e-12


def test_general_kind_tabulates_higher_powers():
    spec = random_spec(7, limit=100, kind=GENERAL_MULTIPLICATIVE)
    v1 = spec.value(2, 1)
    v2 = spec.value(2, 2)
    assert v1 != v2  # independent draws, equality would be astonishing
    with pytest.raises(RuleError):
        spec.value(2, 14)


def test_cm_kind_extends_to_all_powers():
    spec = random_spec(7, limit=100, kind=COMPLETELY_MULTIPLICATIVE)
    assert spec.value(2, 30) == pytest.approx(spec.value(2, 1) ** 30)


def test_draw_order_is_primes_ascending():
    # extending the limit keeps earlier prime draws in place
    small = random_spec(13, limit=100)
    large = random_spec(13, limit=1000)
    for p in (2, 3, 97):
        assert small.value(p, 1) == large.value(p, 1)


def test_pair_differs_exactly_on_declared_primes():
    f, g, diff = random_pair_sparse_diff(5, limit=2000, ndiff=6)
    assert len(diff) == 6
    sv = build_sieve(2000)
    for p in sv.primes:
        p = int(p)
        if p in diff:
            assert f.value(p, 1) != g.value(p, 1)
        else:
            assert f.value(p, 1) == g.value(p, 1)


def test_pair_replay():
    f1, g1, d1 = random_pair_sparse_diff(9, limit=500, ndiff=4)
    f2, g2, d2 = random_pair_sparse_diff(9, limit=500, ndiff=4)
    assert d1 == d2
    sv = build_sieve(500)
    assert np.array_equal(evaluate(g1, sv).values, evaluate(g2, sv).values)


def test_params_record_replay_recipe():
    spec = random_spec(21, limit=300)
    assert spec.params["construction"] == "random"
    assert spec.params["seed"] == 21
    f, g, _ = random_pair_sparse_diff(3, limit=300, ndiff=2)
    assert f.params["role"] == "f" and g.params["role"] == "g"


def test_gm_shorthand_tabulates_every_exponent_to_its_limit(sieve_1e6):
    spec = parse_spec_arg("random:5:1e6:gm")
    assert spec.params["max_exponent"] == 19  # 2^19 <= 1e6 < 2^20
    t = evaluate(spec, sieve_1e6)
    assert t.values[2**19] == spec.value(2, 19)
    assert np.max(np.abs(np.abs(t.values[1:]) - 1.0)) <= 1e-12


def test_default_max_exponent_keeps_the_limit_1e4_draws():
    sv = build_sieve(10**4)
    for seed in (0, 5, 1729):
        a = random_spec(seed, limit=10**4, kind=GENERAL_MULTIPLICATIVE)
        b = random_spec(seed, limit=10**4, kind=GENERAL_MULTIPLICATIVE, max_exponent=13)
        assert a.params == b.params
        assert evaluate(a, sv).values.tobytes() == evaluate(b, sv).values.tobytes()
