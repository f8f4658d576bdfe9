"""Seeded random unit-disc specs for the randomized suites.

Values are exp(2πi u) with u drawn from numpy's default_rng(seed).  The draw
order is documented and fixed: primes ascending, and for general
multiplicative specs exponents 1..max_exponent within each prime, so every
reported failure is replayable from (seed, limit, kind, max_exponent) alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    COMPLETELY_MULTIPLICATIVE,
    GENERAL_MULTIPLICATIVE,
    FunctionSpec,
    build_sieve,
)
from .errors import InvalidArgumentError, RuleError


def prime_table(primes: np.ndarray, vals: np.ndarray, name: str):
    """Prime map reading vals[i] at primes[i] (ascending); other primes fail."""

    def prime_values(ps):
        idx = np.searchsorted(primes, ps)
        miss = idx >= primes.size
        miss[~miss] = primes[idx[~miss]] != ps[~miss]
        if miss.any():
            raise RuleError(f"{name} is not tabulated at p={int(ps[miss][0])}")
        return vals[idx]

    return prime_values


def random_spec(
    seed: int,
    limit: int = 10**4,
    kind: str = COMPLETELY_MULTIPLICATIVE,
    max_exponent: Optional[int] = None,
) -> FunctionSpec:
    """Random unit-disc spec tabulated at all primes <= limit.

    General multiplicative specs draw f(p^k) for k <= max_exponent, by
    default max(13, limit.bit_length() - 1): every exponent of a prime power
    <= limit, and at least the 13 that local series to order 12 read.
    """
    seed = int(seed)
    limit = int(limit)
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if limit < 2:
        raise InvalidArgumentError("limit must be >= 2")
    if max_exponent is None:
        max_exponent = max(13, limit.bit_length() - 1)
    primes = build_sieve(limit).primes
    rng = np.random.default_rng(seed)
    powers = None
    if kind == COMPLETELY_MULTIPLICATIVE:
        vals = np.exp(2j * np.pi * rng.random(primes.size))
        name = f"rand(cm,seed={seed})"
        prime_values = prime_table(primes, vals, name)
    elif kind == GENERAL_MULTIPLICATIVE:
        if max_exponent < 1:
            raise InvalidArgumentError("max_exponent must be >= 1")
        vals = np.exp(2j * np.pi * rng.random((primes.size, max_exponent)))
        name = f"rand(gm,seed={seed})"
        prime_values = prime_table(primes, vals[:, 0], name)

        def powers(p, c, k):
            # f(p) is in c, so p is tabulated
            if k > max_exponent:
                raise RuleError(f"{name} is only tabulated for exponents <= {max_exponent}")
            return vals[np.searchsorted(primes, p), len(c) - 1 : k].tolist()
    else:
        raise InvalidArgumentError(f"unsupported random spec kind {kind!r}")

    return FunctionSpec(
        name=name,
        kind=kind,
        prime_values=prime_values,
        powers=powers,
        bounded_by_one=True,
        params={
            "construction": "random",
            "seed": seed,
            "limit": limit,
            "kind": kind,
            "max_exponent": max_exponent,
        },
    )


def random_pair_sparse_diff(
    seed: int,
    limit: int = 10**4,
    ndiff: int = 6,
) -> tuple:
    """A completely multiplicative unit-disc pair (f, g) that agrees at all
    primes <= limit except ndiff seeded choices, so every beta-weighted
    distance between them is a finite sum by construction.

    Returns (f, g, diff_primes).
    """
    seed = int(seed)
    limit = int(limit)
    ndiff = int(ndiff)
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    primes = build_sieve(limit).primes
    if not 0 <= ndiff <= primes.size:
        raise InvalidArgumentError(f"ndiff must be in [0, {primes.size}]")
    rng = np.random.default_rng(seed)
    fvals = np.exp(2j * np.pi * rng.random(primes.size))
    where = np.sort(rng.choice(primes.size, size=ndiff, replace=False))
    gvals = fvals.copy()
    gvals[where] = np.exp(2j * np.pi * rng.random(ndiff))
    diff_primes = tuple(int(p) for p in primes[where])

    def make(which: str, vals: np.ndarray) -> FunctionSpec:
        name = f"randpair({which},seed={seed})"
        return FunctionSpec(
            name=name,
            kind=COMPLETELY_MULTIPLICATIVE,
            prime_values=prime_table(primes, vals, name),
            bounded_by_one=True,
            params={
                "construction": "random-pair",
                "seed": seed,
                "limit": limit,
                "ndiff": ndiff,
                "role": which,
            },
        )

    return make("f", fvals), make("g", gvals), diff_primes
