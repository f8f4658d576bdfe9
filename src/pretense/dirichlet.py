"""Local Dirichlet-series algebra at prime powers.

For multiplicative f, g with f(1) = g(1) = 1 there is a unique multiplicative
h with g = f ∗ h (Dirichlet convolution), determined prime by prime through
the triangular system

    g(p^k) − f(p^k) = Σ_{j=1}^{k} f(p^{k−j}) h(p^j),   k ≥ 1.

solve_quotient performs that forward substitution; dirichlet_inverse is the
same solve against the convolution identity δ.  The determinant route expresses
the same coefficients through Toeplitz-Hessenberg determinants D_f(k, p): both
paths are kept separate so they can check each other.

Every recursion reads f(p^0), ..., f(p^K) from the spec's store per prime
(FunctionSpec.local); a quotient's or an inverse's powers solve its next
exponents from the lower ones they are handed (_solve).  D_f(0..k, p) are
kept per (f, p) and extended when a higher order is asked, with the same
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import (
    GENERAL_MULTIPLICATIVE,
    FunctionSpec,
    ValueTable,
    prime_values_of,
)
from .errors import (
    InvalidArgumentError,
    LimitError,
    PretenseError,
)

# The largest exponent of a local computation: the determinant order and
# every exponent k a user gives (the CLI's --k), whose cost grows like k².
DETERMINANT_ORDER_CAP = 64

RECONVOLUTION_TOL = 1e-10


# The first 12 primes: as Miller-Rabin bases they admit no strong pseudoprime
# below 318665857834031151167461 ≈ 3.2·10^23 (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the first 12 prime bases; False below 2.
    Exact below 3.2·10^23, which covers every 64-bit integer; above that, a
    strong probable-prime test to those bases."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n < 37 * 37:  # no prime factor ≤ 37, so none at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class LocalSeries:
    """Coefficients c[0..K] of one prime's local factor, c[0] = 1."""

    p: int
    coeffs: np.ndarray


def capped_exponent(k: int) -> int:
    """k, or LimitError when it exceeds DETERMINANT_ORDER_CAP."""
    if k > DETERMINANT_ORDER_CAP:
        raise LimitError(
            f"exponent --k {k} exceeds the documented cap {DETERMINANT_ORDER_CAP}")
    return k


@dataclass(frozen=True)
class QuotientSpec:
    """The multiplicative h with g = f ∗ h, plus its precomputed local table."""

    spec: FunctionSpec
    numerator: str
    denominator: str
    primes: tuple
    max_exponent: int
    local: tuple

    def local_series(self, p: int) -> LocalSeries:
        for ls in self.local:
            if ls.p == p:
                return ls
        raise InvalidArgumentError(f"prime {p} not in the precomputed table")


def _solve(fs: list, gs: Optional[list], c: list, k: int) -> list:
    """[h(p^j), ..., h(p^k)], j = len(c), from h(p^m) = g(p^m) − Σ_{i<m}
    f(p^{m−i}) h(p^i) and the lower h(p^i) in c; g is δ when gs is None."""
    h = list(c)
    for m in range(len(c), k + 1):
        acc = 0.0 + 0.0j if gs is None else gs[m]
        for i in range(m):
            acc -= fs[m - i] * h[i]
        h.append(acc)
    return h[len(c):]


def solve_quotient(
    f: FunctionSpec, g: FunctionSpec, primes: Iterable[int], max_exponent: int
) -> QuotientSpec:
    """Solve g = f ∗ h for h on the given primes up to p^max_exponent.

    The returned spec is not restricted to `primes`: its powers solve
    h(p^m) = g(p^m) − Σ_{j<m} f(p^{m−j}) h(p^j) at any prime, from the
    store they are handed, which is what dense evaluation of h needs.
    """
    plist = sorted({int(p) for p in primes})
    if not plist:
        raise InvalidArgumentError("need at least one prime")
    for p in plist:
        if not is_prime(p):
            raise InvalidArgumentError(f"{p} is not prime")
    K = capped_exponent(int(max_exponent))
    if K < 1:
        raise InvalidArgumentError(f"max exponent must be >= 1, got {K}")

    spec = FunctionSpec(
        name=f"({g.name}/{f.name})",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: prime_values_of(g, ps) - prime_values_of(f, ps),
        powers=lambda p, c, k: _solve(f.local(p, k), g.local(p, k), c, k),
    )
    spec.remember_primes(np.array(plist, dtype=np.int64))
    local = []
    for p in plist:
        coeffs = spec.local(p, K)[: K + 1]
        fs, gs = f.local(p, K), g.local(p, K)
        # reconvolve as a guard: the forward solve must reproduce g exactly
        for k in range(1, K + 1):
            acc = sum(fs[k - j] * coeffs[j] for j in range(k + 1))
            if abs(acc - gs[k]) > RECONVOLUTION_TOL * max(1.0, abs(acc)):
                raise PretenseError(
                    f"quotient solve inconsistent at p={p}, k={k}"
                )
        local.append(LocalSeries(p=p, coeffs=np.array(coeffs, dtype=np.complex128)))
    return QuotientSpec(
        spec=spec,
        numerator=g.name,
        denominator=f.name,
        primes=tuple(plist),
        max_exponent=K,
        local=tuple(local),
    )


def dirichlet_inverse(h: FunctionSpec) -> FunctionSpec:
    """The multiplicative inverse under Dirichlet convolution, h ∗ inv = δ.

    Well defined because every FunctionSpec has value(p, 0) = 1, i.e. h(1) = 1.
    """
    return FunctionSpec(
        name=f"inv({h.name})",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: -prime_values_of(h, ps),
        powers=lambda p, c, k: _solve(h.local(p, k), None, c, k),
    )


def convolve_spec(f: FunctionSpec, h: FunctionSpec) -> FunctionSpec:
    """Rule-level Dirichlet convolution, (f ∗ h)(p^k) = Σ_j f(p^j) h(p^{k−j})."""

    def powers(p, c, k):
        fs, hs = f.local(p, k), h.local(p, k)
        return [sum(fs[j] * hs[m - j] for j in range(m + 1)) for m in range(len(c), k + 1)]

    return FunctionSpec(
        name=f"({f.name} * {h.name})",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: prime_values_of(f, ps) + prime_values_of(h, ps),
        powers=powers,
    )


def convolve_table(ft: ValueTable, ht: ValueTable, limit: Optional[int] = None) -> ValueTable:
    """Dense (f ∗ h)(n) for n ≤ limit: O(N log N) work in about 2√N numpy steps.

    Dirichlet's hyperbola split at D = ⌊√limit⌋: each row d ≤ D adds
    f(d)·h(m) at every n = dm, and each column m ≤ ⌊limit/(D+1)⌋ adds
    f(d)·h(m) for all d > D at once.  Columns go by descending m, so every
    out[n] receives its products f(d)·h(n/d) in ascending d, and the bits
    equal those of the fold over every d ≤ limit.  The table is float64 when
    both inputs are.
    """
    if ft.limit != ht.limit:
        raise InvalidArgumentError(
            f"mismatched table limits {ft.limit} != {ht.limit}"
        )
    if limit is None:
        limit = ft.limit
    limit = int(limit)
    if limit < 1 or limit > ft.limit:
        raise InvalidArgumentError(f"limit {limit} outside [1, {ft.limit}]")
    fv, hv = ft.values, ht.values
    out = np.zeros(limit + 1, dtype=np.result_type(fv, hv))
    D = math.isqrt(limit)
    for d in range(1, D + 1):
        out[d::d] += fv[d] * hv[1 : limit // d + 1]
    for m in range(limit // (D + 1), 0, -1):
        top = limit // m
        out[m * (D + 1) : m * top + 1 : m] += fv[D + 1 : top + 1] * hv[m]
    return ValueTable(spec=convolve_spec(ft.spec, ht.spec), limit=limit, values=out)


# ---------------------------------------------------------------------------
# Toeplitz-Hessenberg determinants

def _determinants(f: FunctionSpec, p: int, k: int) -> list:
    """[D_f(0, p), ..., D_f(k, p)] by the recurrence of determinant.

    The list is kept in f's cache per prime and extended to order k when a
    call asks for more: D_m depends only on f(p^{≤m}) and D_{<m}, so it has
    the same bits whichever orders were asked before.  Callers read it and
    never change it."""
    k = int(k)
    if k < 0:
        raise InvalidArgumentError(f"determinant order must be >= 0, got {k}")
    if k > DETERMINANT_ORDER_CAP:
        raise LimitError(
            f"determinant order {k} exceeds the documented cap {DETERMINANT_ORDER_CAP}"
        )
    d = f._cache.setdefault(("det", p), [1.0 + 0.0j])
    if len(d) <= k:
        t = f.local(p, k)
        for m in range(len(d), k + 1):
            acc = 0.0 + 0.0j
            sign = 1.0
            for j in range(1, m + 1):
                acc += sign * t[j] * d[m - j]
                sign = -sign
            d.append(acc)
    return d


def determinant(f: FunctionSpec, p: int, k: int) -> complex:
    """D_f(k, p), the k×k determinant with entries a_ij = f(p^{i−j+1}).

    Entries vanish for i − j + 1 < 0, so the matrix is lower Hessenberg with a
    unit superdiagonal (a_{i,i+1} = f(p^0) = 1).  Repeated cofactor expansion
    along the last column telescopes to the convolution recurrence

        D_m = Σ_{j=1}^{m} (−1)^{j−1} f(p^j) D_{m−j},    D_0 = 1,

    which is what we evaluate (O(k²)).  The tests hold it to numpy's
    determinant of the k×k matrix itself.
    """
    return _determinants(f, p, k)[k]


def h_via_determinant(f: FunctionSpec, g: FunctionSpec, p: int, n: int) -> complex:
    """h(p^n) for g = f ∗ h through the determinant expansion

        h(p^n) = Σ_{k=0}^{n−1} (−1)^k (g(p^{n−k}) − f(p^{n−k})) D_f(k, p).

    D_f(0..n−1, p) come from determinant's recurrence, O(n²) once per (f, p)
    and read from f's cache after that.  Each D_f(k, p) depends only on
    f(p^{≤k}), so the terms equal those of separate determinant calls to the
    bit.
    """
    n = int(n)
    if n < 1:
        raise InvalidArgumentError(f"exponent must be >= 1, got {n}")
    dets = _determinants(f, p, n - 1)
    fs, gs = f.local(p, n), g.local(p, n)
    acc = 0.0 + 0.0j
    sign = 1.0
    for k in range(n):
        acc += sign * (gs[n - k] - fs[n - k]) * dets[k]
        sign = -sign
    return acc
