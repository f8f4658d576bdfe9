"""Compute frozen.json, the reference totals the tables workload checks.

Run once from the repository root, `python3 bench/freeze.py`; it takes one to
two minutes.  Nothing here imports pretense: primes come from a bytearray
sieve, real characters from Euler's criterion at primes, degree-2
composites from a direct divisor fold of their two constituents, and the
distance totals from math.fsum over the prime terms.

Keys name the specs exactly as pretense names them, so the workload can look
its tables up by spec name.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from oracles import factorize, small_primes

PRIME_COUNT_LIMITS = (10**4, 10**6, 10**7)
TABLE_LIMITS = (10**4, 10**7)
# (D_a, D_b) of the degree-2 composites deg2(kron(D_a), kron(D_b))
DEG2_PAIRS = ((-4, -3), (-4, 5), (-4, 8), (-3, 5))
# (f, g) of the distance candidates; 0 stands for the constant one
DISTANCE_PAIRS = ((-4, 0), (-3, 0), (5, -4), (8, -3))


def prime_flags(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def real_char_at_prime(D: int, p: int) -> int:
    """Kronecker (D | p) for prime p: Euler's criterion, and the 2-rule."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 in (1, 7) else -1
    r = pow(D % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def real_char_period(D: int) -> np.ndarray:
    """chi_D on one period [0, |D|), completely multiplicative from primes."""
    q = abs(D)
    primes = small_primes(q)
    out = np.zeros(q, dtype=np.int64)
    for r in range(1, q):
        v = 1
        for p, k in factorize(r, primes):
            v *= real_char_at_prime(D, p) ** k
        out[r] = v
    return out


def real_char_dense(D: int, n: int) -> np.ndarray:
    period = real_char_period(D)
    return period[np.arange(n + 1) % abs(D)]


def divisor_fold(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a * b)(m) = sum over d | m of a(d) b(m/d), for 1 <= m <= n."""
    out = np.zeros(n + 1, dtype=np.int64)
    for d in np.nonzero(a[1:])[0] + 1:
        d = int(d)
        out[d::d] += a[d] * b[1 : n // d + 1]
    return out


def totals(values: np.ndarray) -> list:
    v = values[1:].astype(np.int64)
    return [int(v.sum()), int(np.count_nonzero(v)), int((v * v).sum())]


def kron_name(D: int) -> str:
    return f"kron({D})"


def table_totals(n: int) -> dict:
    chi4 = real_char_dense(-4, n)
    squarefree = np.ones(n + 1, dtype=bool)
    for p in range(2, math.isqrt(n) + 1):
        squarefree[p * p :: p * p] = False
    out = {
        "chi(4,1)": totals(chi4),
        "sqfree(chi(4,1))": totals(np.where(squarefree, chi4, 0)),
    }
    for da, db in DEG2_PAIRS:
        fold = divisor_fold(real_char_dense(da, n), real_char_dense(db, n), n)
        out[f"deg2({kron_name(da)},{kron_name(db)})"] = totals(fold)
    return out


def distance_totals(n: int) -> dict:
    primes = np.nonzero(prime_flags(n))[0].tolist()
    out = {}
    for df, dg in DISTANCE_PAIRS:
        terms = []
        for p in primes:
            f = 1 if df == 0 else real_char_at_prime(df, p)
            g = 1 if dg == 0 else real_char_at_prime(dg, p)
            terms.append((1.0 - f * g) / p)
        key = f"{'one' if df == 0 else kron_name(df)}|{'one' if dg == 0 else kron_name(dg)}"
        out[key] = math.fsum(terms)
    return out


def main() -> None:
    frozen = {
        "prime_counts": {
            str(n): int(np.count_nonzero(prime_flags(n))) for n in PRIME_COUNT_LIMITS
        },
        "tables": {str(n): table_totals(n) for n in TABLE_LIMITS},
        "distance": {str(n): distance_totals(n) for n in TABLE_LIMITS},
    }
    path = Path(__file__).with_name("frozen.json")
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
