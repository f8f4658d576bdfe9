"""Degree-d multiplicative functions built from completely multiplicative
constituents, and the symmetric-polynomial identities that characterize them.

A degree-d spec has f(p^k) equal to the complete homogeneous symmetric
polynomial of degree k in the constituent prime values.  The elementary
symmetric values r_k of the same arguments (recovered from the q_k alone by
a unit-triangular solve) furnish a linear recursion of depth d that the
prime-power values must satisfy; its residual is the membership check, and
the quotient determinants of any two degree-d functions vanish beyond d.
Prime-power values are read from each spec's store per prime (FunctionSpec.
local); the recursion weights alpha(p) are kept, as read-only arrays, in the
spec's cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BLOCK,
    COMPLETELY_MULTIPLICATIVE,
    DEGREE_D_COMPOSITE,
    GENERAL_MULTIPLICATIVE,
    FunctionSpec,
    SieveIndex,
    sieve_primes,
)
from .dirichlet import is_prime
from .errors import InvalidArgumentError

MAX_DEGREE = 16
# exponents past the degree that degreedist_extension_check sums as the tail
EXTENSION_TAIL_TERMS = 40


def q_all(kmax: int, x: Sequence[complex]) -> np.ndarray:
    """Complete homogeneous symmetric values q_0..q_kmax of the arguments x.

    One geometric pass per variable: q_k <- q_k + x_m q_{k-1} with k
    ascending keeps the new variable's powers accumulating, O(d·kmax).
    """
    if kmax < 0:
        raise InvalidArgumentError("k must be >= 0")
    q = np.zeros(kmax + 1, dtype=np.complex128)
    q[0] = 1.0
    for xm in x:
        for k in range(1, kmax + 1):
            q[k] += xm * q[k - 1]
    return q


def q_poly(k: int, x: Sequence[complex]) -> complex:
    """q_k^d(x), the sum of all degree-k monomials in the d arguments."""
    return complex(q_all(int(k), x)[int(k)])


def r_all(kmax: int, x: Sequence[complex]) -> np.ndarray:
    """Elementary symmetric values r_0..r_kmax; r_k = 0 beyond len(x)."""
    if kmax < 0:
        raise InvalidArgumentError("k must be >= 0")
    r = np.zeros(kmax + 1, dtype=np.complex128)
    r[0] = 1.0
    for xm in x:
        for k in range(kmax, 0, -1):
            r[k] += xm * r[k - 1]
    return r


def r_poly(k: int, x: Sequence[complex]) -> complex:
    """r_k^d(x), the k-th elementary symmetric value of the d arguments."""
    return complex(r_all(int(k), x)[int(k)])


def q_to_r(q: Sequence[complex]) -> np.ndarray:
    """Solve Σ_{j=0}^k (−1)^j r_{k−j} q_j = 0 (k = 1..d) for r_1..r_d.

    q is q_1..q_d with q_0 = 1 implicit; the system is unit-triangular in r,
    so the solve is exact up to roundoff.
    """
    q = np.asarray(q, dtype=np.complex128)
    d = q.size
    if d < 1:
        raise InvalidArgumentError("need at least one q value")
    full_q = np.concatenate(([1.0 + 0.0j], q))
    r = np.zeros(d + 1, dtype=np.complex128)
    r[0] = 1.0
    for k in range(1, d + 1):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            acc += (-1.0) ** (j + 1) * r[k - j] * full_q[j]
        r[k] = acc
    return r[1:]


@dataclass(frozen=True)
class SymmetricCoeffs:
    """Prime-local coordinates of a degree-d function: the prime-power
    values q, their elementary images r, and the recursion weights alpha
    (alpha_0 = 1, alpha_k = r_k)."""

    p: int
    q: np.ndarray
    r: np.ndarray
    alpha: np.ndarray


def degree_d_spec(constituents: Sequence[FunctionSpec]) -> FunctionSpec:
    """Convolution of d completely multiplicative unit-disc constituents,
    realized prime-locally: f(p^k) = q_k(f_1(p), ..., f_d(p))."""
    cs = tuple(constituents)
    d = len(cs)
    if not 1 <= d <= MAX_DEGREE:
        raise InvalidArgumentError(f"degree must be in [1, {MAX_DEGREE}], got {d}")
    for c in cs:
        if c.kind != COMPLETELY_MULTIPLICATIVE:
            raise InvalidArgumentError(
                f"constituent {c.name!r} is not completely multiplicative"
            )
        if not c.bounded_by_one:
            raise InvalidArgumentError(
                f"constituent {c.name!r} does not claim the unit disc"
            )

    def prime_values(ps):
        out = np.zeros(ps.shape, dtype=np.complex128)
        for c in cs:
            out += np.asarray(c.prime_values(ps), dtype=np.complex128)
        return out

    params = None
    if all(c.params is not None for c in cs):
        params = {
            "construction": "degree-d",
            "constituents": [c.params for c in cs],
        }
    return FunctionSpec(
        name=f"deg{d}({','.join(c.name for c in cs)})",
        kind=DEGREE_D_COMPOSITE,
        prime_values=prime_values,
        powers=lambda p, c, k: q_all(k, [x.value(p, 1) for x in cs])[len(c):].tolist(),
        bounded_by_one=(d == 1),
        degree=d,
        constituents=cs,
        params=params,
    )


def _declared_degree(f: FunctionSpec) -> int:
    if f.degree is None:
        raise InvalidArgumentError(f"spec {f.name!r} declares no degree")
    return int(f.degree)


def alpha_coeffs(f: FunctionSpec, p: int) -> SymmetricCoeffs:
    """Recursion weights at a prime p from the first d prime-power values
    alone, computed once per (f, p) and kept in f's cache with read-only
    arrays."""
    d = _declared_degree(f)
    p = int(p)
    got = f._cache.get(("alpha", p))
    if got is not None:
        return got
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    q = np.array(f.local(p, d)[1 : d + 1])
    r = q_to_r(q)
    alpha = np.concatenate(([1.0 + 0.0j], r))
    for a in (q, r, alpha):
        a.flags.writeable = False
    got = f._cache[("alpha", p)] = SymmetricCoeffs(p=p, q=q, r=r, alpha=alpha)
    return got


def recursion_residual(f: FunctionSpec, p: int, n: int) -> float:
    """|Σ_{k=0}^d (−1)^k alpha_k f(p^{n+d−k})| — zero iff the depth-d
    recursion holds at this n; genuine degree-d members are zero for all n.
    alpha comes from alpha_coeffs, computed at the first n asked."""
    d = _declared_degree(f)
    p = int(p)
    n = int(n)
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    alpha = alpha_coeffs(f, p).alpha
    fs = f.local(p, n + d)
    acc = 0.0 + 0.0j
    for k in range(d + 1):
        acc += (-1.0) ** k * alpha[k] * fs[n + d - k]
    return float(abs(acc))


def perturbed_member(f: FunctionSpec, p: int, k: int, eps: complex) -> FunctionSpec:
    """Copy of f with f(p^k) shifted by eps but the same declared degree: a
    general multiplicative non-member, without f's constituents, used to
    show the recursion check has teeth."""
    p = int(p)
    k = int(k)
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")

    def prime_values(ps):
        out = np.array(f.prime_values(ps), dtype=np.complex128)
        if k == 1:
            out[ps == p] += eps
        return out

    def powers(pp, c, kk):
        vs = f.local(pp, kk)[len(c) : kk + 1]
        if pp == p and len(c) <= k <= kk:
            vs[k - len(c)] += eps
        return vs

    return FunctionSpec(
        name=f"perturbed({f.name},p={p},k={k})",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=prime_values,
        powers=powers,
        bounded_by_one=False,
        degree=f.degree,
    )


@dataclass(frozen=True)
class ExtensionRow:
    p: int
    head: float
    tail: float
    ratio: Optional[float]


@dataclass(frozen=True)
class ExtensionReport:
    """Per-prime comparison of the beyond-degree tail of Σ_n |f(p^n)−g(p^n)|/p^{nβ}
    against its head n ≤ d: bounded ratios witness that first d powers control
    the whole local difference."""

    beta: float
    degree: int
    p_min: int
    rows: tuple
    sup_ratio: Optional[float]
    violations: tuple


def degreedist_extension_check(
    f: FunctionSpec,
    g: FunctionSpec,
    beta: float,
    cutoff: float,
    p_min: int = 11,
    sieve: Optional[SieveIndex] = None,
) -> ExtensionReport:
    """Tail-vs-head ratios of the local strong-distance sums, per prime.

    head = Σ_{n≤d}, tail = Σ_{d<n≤d+EXTENSION_TAIL_TERMS} of |f(p^n)−g(p^n)|/p^{nβ}.
    Primes with head = tail = 0 are skipped; head = 0 with tail > 1e-12 is
    recorded as a violation.  sup_ratio is over p >= p_min, where constituent
    size no longer dominates the weights.
    """
    beta = float(beta)
    if beta <= 0:
        raise InvalidArgumentError("beta must be > 0")
    d = _declared_degree(f)
    if _declared_degree(g) != d:
        raise InvalidArgumentError("f and g must declare the same degree")
    kmax = d + EXTENSION_TAIL_TERMS
    rows = []
    violations = []
    sup = None
    ps = sieve_primes(cutoff, sieve)
    for a in range(0, ps.size, BLOCK):
        s = ps[a : a + BLOCK]
        for p, fq, gq in zip(s.tolist(), f.power_table(s, kmax).T, g.power_table(s, kmax).T):
            w = np.abs(fq - gq) / float(p) ** (beta * np.arange(kmax + 1))
            head = float(np.sum(w[1 : d + 1]))
            tail = float(np.sum(w[d + 1 :]))
            if head == 0.0:
                if tail > 1e-12:
                    violations.append(p)
                    rows.append(ExtensionRow(p, head, tail, None))
                continue
            ratio = tail / head
            rows.append(ExtensionRow(p, head, tail, ratio))
            if p >= p_min and (sup is None or ratio > sup):
                sup = ratio
    return ExtensionReport(
        beta=beta,
        degree=d,
        p_min=int(p_min),
        rows=tuple(rows),
        sup_ratio=sup,
        violations=tuple(violations),
    )
