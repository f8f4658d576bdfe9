"""Independent oracle implementations for the test suite.

Everything here is deliberately written with different algorithms than the
package (trial division instead of an SPF sieve, math.fsum instead of block
Kahan, Euler-Maclaurin instead of truncated Dirichlet sums) so agreement is
evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Bernoulli numbers B_2 .. B_12 for the Euler-Maclaurin correction
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
]


def euler_maclaurin_zeta(s: complex, N: int = 40, terms: int = 6) -> complex:
    """zeta(s) for Re s > 1 via Euler-Maclaurin with Bernoulli corrections."""
    s = complex(s)
    parts = [n ** -s for n in range(1, N + 1)]
    parts.append(N ** (1 - s) / (s - 1))
    parts.append(-0.5 * N**-s)
    fact = s
    power = N ** (-s - 1)
    for k in range(1, terms + 1):
        b = _BERNOULLI[k - 1]
        parts.append(
            (b.numerator / b.denominator) / math.factorial(2 * k) * fact * power
        )
        fact *= (s + 2 * k - 1) * (s + 2 * k)
        power /= N * N
    return complex(
        math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts)
    )


# frozen from euler_maclaurin_zeta before any package code existed
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595942
ZETA4 = 1.0823232337111382


def brute_primes(limit: int):
    """Boolean Eratosthenes, no smallest-factor bookkeeping."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        p += 1
    return [n for n in range(2, limit + 1) if flags[n]]


def brute_factorize(n: int):
    """Trial division, list of (p, k)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_moebius(n: int) -> int:
    fac = brute_factorize(n)
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def brute_liouville(n: int) -> int:
    return -1 if sum(k for _, k in brute_factorize(n)) % 2 else 1


def brute_divisor_count(n: int) -> int:
    return math.prod(k + 1 for _, k in brute_factorize(n))


def brute_convolve(a, b):
    """(a*b)(n) = sum_{ij=n} a(i) b(j), double loop over multiples.

    a, b indexed from 0 with a[0] unused; returns same layout.
    """
    n = min(len(a), len(b)) - 1
    out = [0j] * (n + 1)
    for i in range(1, n + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(1, n // i + 1):
            out[i * j] += ai * b[j]
    return out


def divisor_fold(fv, hv, limit: int):
    """(f*h)(n) for n <= limit as one numpy step per d <= limit, adding the
    products f(d) h(n/d) to each n in ascending d: the convolution kernel
    before the hyperbola split, kept as its bit-for-bit reference.  Real
    tables give a real fold."""
    out = np.zeros(limit + 1, dtype=np.result_type(fv, hv))
    for d in range(1, limit + 1):
        out[d::d] += fv[d] * hv[1 : limit // d + 1]
    return out


def brute_distance_sq(fp, gp, primes, beta: float = 1.0) -> float:
    """sum over given primes of (1 - Re f(p) conj(g(p))) / p^beta via fsum."""
    return math.fsum(
        (1.0 - (complex(f) * complex(g).conjugate()).real) / p**beta
        for f, g, p in zip(fp, gp, primes)
    )


def brute_quotient_local(f_coeffs, g_coeffs):
    """Solve sum_{j<=m} f_j h_{m-j} = g_m for h given f_0 = 1, plain loops."""
    K = len(g_coeffs) - 1
    h = [0j] * (K + 1)
    h[0] = 1.0 + 0j
    for m in range(1, K + 1):
        acc = complex(g_coeffs[m])
        for j in range(1, m + 1):
            acc -= complex(f_coeffs[j]) * h[m - j]
        h[m] = acc
    return h


def determinant_dense(f, p: int, k: int) -> complex:
    """D_f(k, p) as numpy's determinant of the k×k matrix a_ij = f(p^{i−j+1}),
    zero where i − j + 1 < 0: the direct O(k³) route beside the library's
    recurrence."""
    if k == 0:
        return 1.0 + 0.0j
    a = np.zeros((k, k), dtype=np.complex128)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i - j + 1 >= 0:
                a[i - 1, j - 1] = f.value(p, i - j + 1)
    return complex(np.linalg.det(a))


def brute_elementary_symmetric(k: int, xs):
    """e_k by expanding prod (1 + x_i t) with a list of coefficients."""
    coeffs = [1.0 + 0j]
    for x in xs:
        nxt = coeffs + [0j]
        for i in range(len(coeffs), 0, -1):
            nxt[i] += coeffs[i - 1] * x
        coeffs = nxt
    return coeffs[k] if k < len(coeffs) else 0j


def brute_complete_homogeneous(k: int, xs):
    """h_k by brute recursion on the number of variables."""
    if k == 0:
        return 1.0 + 0j
    if not xs:
        return 0j
    # h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m)
    return brute_complete_homogeneous(k, xs[:-1]) + xs[-1] * brute_complete_homogeneous(
        k - 1, xs
    )


def brute_squarefree_char_sums(residues, limit: int, checkpoints):
    """Σ_{n≤x} μ²(n)χ(n) at each checkpoint x, as exact integers.

    χ(n) = residues[n % q] with q = len(residues); squarefree n come from
    crossing out the multiples of every square d² ≤ limit, d ≥ 2, with no
    primality test and no factorization.
    """
    q = len(residues)
    squarefree = bytearray([1]) * (limit + 1)
    d = 2
    while d * d <= limit:
        squarefree[d * d :: d * d] = b"\x00" * len(range(d * d, limit + 1, d * d))
        d += 1
    out = []
    acc = 0
    n = 0
    for x in checkpoints:
        while n < int(x):
            n += 1
            if squarefree[n]:
                acc += residues[n % q]
        out.append(acc)
    return out


def sum2_chunks(terms):
    """The Sum2 kernel of core._sum2_chunks with the TwoSum steps and the
    second cumsum run on every chunk, whole or not: the byte reference of
    the exact path for whole chunks.  Yields (a, S) per chunk of core.BLOCK
    terms."""
    from pretense import core

    if isinstance(terms, np.ndarray):
        terms = np.split(terms, range(core.BLOCK, terms.size, core.BLOCK))
    buf, a = np.empty((3, core.BLOCK + 1)), 0
    s_carry = e_carry = 0.0
    for xs in terms:
        if buf.dtype == np.float64 and np.iscomplexobj(xs) and xs.imag.any():
            buf = np.empty((3, core.BLOCK + 1), dtype=np.complex128)
        xs = xs if buf.dtype == np.complex128 else xs.real
        m = xs.size
        sv, ev, tv = buf[0, : m + 1], buf[1, : m + 1], buf[2, :m]
        sv[0] = s_carry
        sv[1:] = xs
        np.cumsum(sv, out=sv)
        prev, cur, z = sv[:-1], sv[1:], ev[1:]
        np.subtract(cur, prev, out=z)
        np.subtract(cur, z, out=tv)
        np.subtract(prev, tv, out=tv)
        np.subtract(xs, z, out=z)
        np.add(tv, z, out=z)  # (prev - (cur - z)) + (x - z), z = cur - prev
        ev[0] = e_carry
        np.cumsum(ev, out=ev)
        s_carry, e_carry = sv[m], ev[m]
        yield a, np.add(cur, ev[1:], out=tv)
        a += m


def sum2_prefixes(terms) -> np.ndarray:
    """S(0), S(1), ..., S(n) of sum2_chunks as complex128, S(0) = 0."""
    out = [np.zeros(1, dtype=np.complex128)]
    out += [S.astype(np.complex128) for _, S in sum2_chunks(terms)]
    return np.concatenate(out)


def _csv_cell(v) -> str:
    f = float(v)
    if f.is_integer() and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def reference_csv(xs, values) -> str:
    """CSV rows x,Re v,Im v,|v| formatted one row at a time in plain Python:
    the formatter the columnar codec replaced, kept as its byte reference."""
    lines = ["n_or_x,re,im,abs"]
    for x, v in zip(xs, values):
        v = complex(v)
        lines.append(
            f"{_csv_cell(x)},{_csv_cell(v.real)},{_csv_cell(v.imag)},{_csv_cell(abs(v))}"
        )
    return "\n".join(lines) + "\n"


def real_at_prime_powers(spec, limit: int) -> bool:
    """Whether value(p, k) has a zero imaginary part at every p^k <= limit."""
    for p in brute_primes(limit):
        pk, k = p, 1
        while pk <= limit:
            if spec.value(p, k).imag != 0:
                return False
            pk, k = pk * p, k + 1
    return True


def pk_rest_evaluate(spec, sieve, limit=None, dtype=np.complex128) -> np.ndarray:
    """Dense f(n) as evaluate built it from two cached factor arrays, pk and
    rest, both from the spf recurrence: the prime prefill from one masked
    copy of the prime list, completely multiplicative powers as cumulative
    products over every prime, and each other n as the fresh product
    f(pk[n])·f(rest[n]) of two gathers, in ascending chunks of BLOCK.  Kept
    as the byte reference of the composite fill.  Prime-power values are
    complex, as value() gives them; a float64 table keeps their real parts
    and forms the products of the fill in real arithmetic."""
    from pretense import core

    limit = sieve.limit if limit is None else int(limit)
    spf = sieve.spf
    pk = np.empty(limit + 1, dtype=np.int32)
    rest = np.empty(limit + 1, dtype=np.int32)
    pk[:2] = rest[:2] = 1
    lo = 1
    while lo < limit:
        hi = min(2 * lo, lo + core.BLOCK, limit)
        p = spf[lo + 1 : hi + 1]
        m = np.arange(lo + 1, hi + 1, dtype=np.int32) // p
        same = spf[m] == p
        pk[lo + 1 : hi + 1] = np.where(same, pk[m] * p, p)
        rest[lo + 1 : hi + 1] = np.where(same, rest[m], m)
        lo = hi

    values = np.zeros(limit + 1, dtype=np.complex128)
    values[1] = 1.0
    primes = sieve.primes[sieve.primes <= limit]
    pvals = core.prime_values_of(spec, primes)
    values[primes] = pvals
    if spec.kind == core.COMPLETELY_MULTIPLICATIVE:
        p_rem, v_rem, pp, acc = primes, pvals, primes, pvals
        while True:
            keep = pp <= limit // p_rem
            if not keep.any():
                break
            p_rem, v_rem = p_rem[keep], v_rem[keep]
            pp = pp[keep] * p_rem
            acc = acc[keep] * v_rem
            values[pp] = acc
    else:
        for p in primes[primes <= math.isqrt(limit)]:
            p = int(p)
            pe, k = p * p, 2
            while pe <= limit:
                values[pe] = spec.value(p, k)
                pe *= p
                k += 1
    values = values.real.copy() if dtype == np.float64 else values
    lo = 1
    while lo < limit:
        hi = min(2 * lo, lo + core.BLOCK, limit)
        comp = np.flatnonzero(rest[lo + 1 : hi + 1] > 1) + (lo + 1)
        values[comp] = values[pk[comp]] * values[rest[comp]]
        lo = hi
    return values


def per_m_roundtrip_residual(h_table, h_inverse_table, xi, x: float, mode) -> float:
    """xi_roundtrip_residual as one scalar xi_tilde call per m with h̃(m) != 0,
    the loop it replaced: the batched form must give these bits."""
    from pretense.asymptotics import xi_lookup, xi_tilde

    x = float(x)
    acc = 0.0 + 0.0j
    for m in range(1, int(math.floor(x)) + 1):
        hv = h_inverse_table.values[m]
        if hv == 0:
            continue
        acc += hv * float(m) ** -xi.alpha * xi_tilde(h_table, xi, x / m, mode=mode)
    want = complex(xi_lookup(xi, np.asarray([x]), mode=mode)[0])
    scale = max(abs(want), 1e-30)
    return abs(acc - want) / scale


# ---------------------------------------------------------------------------
# checks that no library report runs, kept with the tests that use them

@dataclass(frozen=True)
class GrowthDeltaRow:
    x: float
    running_max: float
    argmax: int


@dataclass(frozen=True)
class GrowthDeltaReport:
    delta: float
    rows: tuple
    last_increase_n: int


def growth_delta_check(f, N: int, deltas=(0.1, 0.2), sieve=None) -> tuple:
    """Running max of |f(n)|/n^δ at geometric checkpoints, one report per δ.

    For a genuinely subpolynomial f the maximum is attained early: the
    report's last_increase_n is the largest n that ever raised the max.
    """
    from pretense.core import build_sieve, evaluate, geometric_checkpoints

    N = int(N)
    if sieve is None:
        sieve = build_sieve(N)
    table = evaluate(f, sieve, N)
    mag = np.abs(table.values[1:])
    n = np.arange(1, N + 1, dtype=np.float64)
    checkpoints = geometric_checkpoints(min(10, N), N)
    out = []
    for delta in deltas:
        ratio = mag / n ** float(delta)
        cm = np.maximum.accumulate(ratio)
        increases = np.nonzero(np.diff(cm) > 0)[0]
        last_inc = int(increases[-1] + 2) if increases.size else 1
        rows = []
        for x in checkpoints:
            pos = int(x) - 1
            rows.append(
                GrowthDeltaRow(
                    x=float(x),
                    running_max=float(cm[pos]),
                    argmax=int(np.argmax(ratio[: pos + 1]) + 1),
                )
            )
        out.append(
            GrowthDeltaReport(
                delta=float(delta), rows=tuple(rows), last_increase_n=last_inc
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class DetBoundReport:
    """Per-order comparison of |D_f(n, p)| against 2^{n−1} p^{nδ}."""

    p: int
    delta: float
    rows: tuple  # (n, |D|, bound, ok)
    hypothesis_violations: tuple  # exponents k with |f(p^k)| > p^{kδ}

    @property
    def all_pass(self) -> bool:
        return not self.hypothesis_violations and all(ok for *_, ok in self.rows)


def determinant_bound_check(f, p: int, k_max: int, delta: float = 0.0) -> DetBoundReport:
    """Check |D_f(n, p)| ≤ 2^{n−1} p^{nδ} for 1 ≤ n ≤ k_max.

    The bound presumes |f(p^k)| ≤ p^{kδ}; exponents where the input itself
    breaks that hypothesis are flagged in the report rather than raised.
    """
    from pretense.dirichlet import determinant

    k_max = int(k_max)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    violations = []
    for k in range(1, k_max + 1):
        if abs(f.value(p, k)) > p ** (k * delta) * (1.0 + 1e-9):
            violations.append(k)
    rows = []
    for n in range(1, k_max + 1):
        absd = abs(determinant(f, p, n))
        bound = 2.0 ** (n - 1) * p ** (n * delta)
        rows.append((n, absd, bound, absd <= bound * (1.0 + 1e-9) + 1e-12))
    return DetBoundReport(
        p=int(p), delta=float(delta), rows=tuple(rows),
        hypothesis_violations=tuple(violations),
    )
