"""Oracles the workloads check results against.

None of this calls the dense machinery under test: primes come from a
bytearray sieve of its own, factorizations from trial division, values at
a point from the spec's scalar prime-power rule, fits from closed-form least
squares, and the tables-1e7 totals from frozen.json, which freeze.py
computed by an independent route.  Checks over long arrays work in chunks so
that the checker never holds more than a few MB beyond what the pass built.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tracing import CheckFailed

CHUNK = 1 << 20



@functools.cache
def frozen() -> dict:
    return json.loads(Path(__file__).with_name("frozen.json").read_text())


def digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)
    return h.digest()


def small_primes(limit: int) -> list:
    """Primes <= limit from a plain Eratosthenes bytearray."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if flags[i]]


def factorize(n: int, primes: list) -> list:
    """[(p, k)] of n by trial division; primes must reach sqrt(n)."""
    out = []
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
    if n > 1:
        out.append((n, 1))
    return out


def value_by_rule(spec, n: int, primes: list) -> complex:
    """f(n) as the product of the scalar rule over n's prime powers."""
    v = 1.0 + 0.0j
    for p, k in factorize(n, primes):
        v *= complex(spec.rule(p, k))
    return v


def check_sieve(sieve, n: int) -> float:
    """Prime count against the frozen pi(n), and spf[m] a least prime factor."""
    if sieve.limit != n:
        raise CheckFailed(f"sieve limit {sieve.limit} != {n}")
    pi = frozen()["prime_counts"][str(n)]
    if sieve.primes.size != pi:
        raise CheckFailed(f"{sieve.primes.size} primes <= {n}, pi({n}) = {pi}")
    if np.any(np.diff(sieve.primes) <= 0):
        raise CheckFailed("prime list not increasing")
    bad = 0
    for lo in range(2, n + 1, CHUNK):
        m = np.arange(lo, min(lo + CHUNK, n + 1), dtype=np.int64)
        p = sieve.spf[lo : lo + m.size].astype(np.int64)
        ok = (p >= 2) & (m % np.maximum(p, 1) == 0) & ((p * p <= m) | (p == m))
        bad += int(m.size - np.count_nonzero(ok))
    return float(bad)


def check_cofactor(sieve, pair, n: int) -> float:
    """pk * rest == m, pk a power of spf[m] and rest free of it, for every m."""
    pk, rest = pair
    bad = 0
    for lo in range(2, n + 1, CHUNK):
        hi = min(lo + CHUNK, n + 1)
        m = np.arange(lo, hi, dtype=np.int64)
        p = np.maximum(sieve.spf[lo:hi].astype(np.int64), 1)
        a = pk[lo:hi].astype(np.int64)
        b = rest[lo:hi].astype(np.int64)
        ok = (a * b == m) & (a % p == 0) & (b % p != 0)
        # divide p out of a while it lasts; a pure power of p ends at 1
        c = a // p
        idx = np.nonzero(ok & (c > 1))[0]
        while idx.size:
            div = c[idx] % p[idx] == 0
            ok[idx[~div]] = False
            idx = idx[div]
            c[idx] //= p[idx]
            idx = idx[c[idx] > 1]
        bad += int(m.size - np.count_nonzero(ok))
    return float(bad)


def integer_table_totals(values: np.ndarray, n: int) -> tuple:
    """(sum, nonzero count, sum of squares) of an integer-valued table, exact."""
    total = count = squares = 0
    for lo in range(1, n + 1, CHUNK):
        v = values[lo : min(lo + CHUNK, n + 1)]
        re = v.real
        if np.any(v.imag != 0) or np.any(re != np.rint(re)):
            raise CheckFailed(f"non-integer value in [{lo}, {lo + v.size})")
        iv = re.astype(np.int64)
        total += int(iv.sum())
        count += int(np.count_nonzero(iv))
        squares += int((iv * iv).sum())
    return total, count, squares


def sampled_rule_values(spec, n: int, rng, samples: int, primes: list) -> tuple:
    """(points, values): seeded points m in [2, n] and f(m) by the scalar rule."""
    ms = rng.integers(2, n + 1, size=samples)
    return ms, np.array([value_by_rule(spec, int(m), primes) for m in ms])


def fit_slope(x, s) -> tuple:
    """Closed-form least squares of log|S| on log x over |S| >= 1e-9, with
    compensated sums.  Returns (slope, points used)."""
    mag = np.abs(np.asarray(s))
    keep = mag >= 1e-9
    lx = np.log(np.asarray(x, dtype=np.float64)[keep])
    ly = np.log(mag[keep])
    k = lx.size
    dx = lx - math.fsum(lx) / k
    dy = ly - math.fsum(ly) / k
    return math.fsum(dx * dy) / math.fsum(dx * dx), k


def check_fit(fit, x, s) -> float:
    slope, used = fit_slope(x, s)
    if fit.points_used != used:
        raise CheckFailed(f"fit used {fit.points_used} points, oracle {used}")
    return abs(fit.exponent - slope)


def character_period(spec, q: int) -> tuple:
    """(chi(r), sum of chi(m) for 1 <= m <= r) for 0 <= r < q, with chi from
    the scalar rule; chi(0) = 0 since q shares every prime of 0."""
    primes = small_primes(q)
    vals = [0j] + [value_by_rule(spec, m, primes) for m in range(1, q)]
    prefix = [complex(math.fsum(v.real for v in vals[: r + 1]),
                      math.fsum(v.imag for v in vals[: r + 1])) for r in range(q)]
    return np.array(vals), np.array(prefix)
