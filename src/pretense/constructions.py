"""Named multiplicative functions used throughout: unit and δ, Möbius and
Liouville, Dirichlet characters, archimedean twists p ↦ p^{it}, sparse dyadic
hybrids, the calibrated phase twist, and squarefree restriction.

Every construction returns a FunctionSpec whose params field is a JSON-able
descriptor; spec_from_descriptor rebuilds the spec from it, which is how the
command line passes functions around.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, Optional

import numpy as np

from .core import (
    COMPLETELY_MULTIPLICATIVE,
    GENERAL_MULTIPLICATIVE,
    TABULATED,
    FunctionSpec,
    PartialSumSeries,
    SieveIndex,
    prime_sums,
    prime_values_of,
    sieve_primes,
)
from .dirichlet import is_prime
from .errors import InvalidArgumentError, PretenseError, RuleError
from .randspecs import prime_table, random_pair_sparse_diff, random_spec

MAX_MODULUS = 10**6
MAX_TWIST_T = 1e6
# The interval of exponent 6 starts at 2^64, beyond every int64 prime.
MAX_DYADIC_EXPONENT = 5

SIGN_RULE_THRESHOLD = 10.0

# the builtin names standard_spec builds, each its own descriptor
STANDARD_NAMES = ("one", "delta", "moebius", "liouville")


def _loglog(ps: np.ndarray) -> np.ndarray:
    return np.log(np.log(ps.astype(np.float64)))


# ---------------------------------------------------------------------------
# standard specs

def standard_spec(name: str) -> FunctionSpec:
    """one, delta, moebius, or liouville."""
    if name in ("one", "delta", "liouville"):
        v = {"one": 1.0, "delta": 0.0, "liouville": -1.0}[name]
        return FunctionSpec(
            name=name,
            kind=COMPLETELY_MULTIPLICATIVE,
            prime_values=lambda ps: np.full(ps.shape, v, dtype=np.complex128),
            bounded_by_one=True,
            params={"construction": name},
        )
    if name == "moebius":
        return FunctionSpec(
            name="moebius",
            kind=GENERAL_MULTIPLICATIVE,
            prime_values=lambda ps: np.full(ps.shape, -1.0, dtype=np.complex128),
            powers=lambda p, k: 0.0,
            bounded_by_one=True,
            params={"construction": "moebius"},
        )
    raise InvalidArgumentError(f"unknown standard spec {name!r}")


# ---------------------------------------------------------------------------
# Dirichlet characters

def _factorize(q: int):
    fs = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            fs.append((d, e))
        d += 1
    if q > 1:
        fs.append((q, 1))
    return fs


def _primitive_root(p: int) -> int:
    phi = p - 1
    prime_factors = [f for f, _ in _factorize(phi)]
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in prime_factors):
            return g
    raise PretenseError(f"no primitive root mod {p}")  # unreachable for prime p


def _unit_group(q: int):
    """Generators [(g mod q, order)] of (ℤ/q)^× through CRT lifting.

    Odd prime powers contribute one cyclic generator (a primitive root lifted
    from p when needed); 2^e contributes nothing for e = 1, the class of -1
    for e = 2, and the pair (-1, 5) for e ≥ 3.
    """
    gens = []
    for p, e in _factorize(q):
        pe = p**e
        rest = q // pe

        def lift(x, pe=pe, rest=rest):
            if rest == 1:
                return x % q
            inv = pow(pe, -1, rest)
            return (x + pe * (((1 - x) * inv) % rest)) % q

        if p == 2:
            if e == 2:
                gens.append((lift(3), 2))
            elif e >= 3:
                gens.append((lift(pe - 1), 2))
                gens.append((lift(5), 2 ** (e - 2)))
        else:
            g = _primitive_root(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            gens.append((lift(g), (p - 1) * p ** (e - 1)))
    return gens


def euler_phi(q: int) -> int:
    out = 1
    for p, e in _factorize(q):
        out *= (p - 1) * p ** (e - 1)
    return out


def _roots_of_unity(order: int) -> np.ndarray:
    """exp(2πi a/order) for a < order, with the quarter points snapped so
    that real and quartic characters take values exactly in {±1, ±i}."""
    out = np.exp(2j * np.pi * np.arange(order) / order)
    out[0] = 1.0
    for num, val in ((1, 1j), (2, -1.0 + 0.0j), (3, -1j)):
        if (num * order) % 4 == 0:
            out[num * order // 4] = val
    return out


def dirichlet_character(q: int, index: int) -> FunctionSpec:
    """The Dirichlet character mod q selected by a mixed-radix index.

    Writing (ℤ/q)^× = Π ⟨g_i⟩ with orders d_i (generators as produced by
    _unit_group, 2-part first, then odd primes in ascending order), the index
    digits c_i = (index // Π_{l<i} d_l) mod d_i fix χ(g_i) = e(c_i / d_i).
    Index 0 is the principal character.  Values are precomputed on a period,
    the spec's one source of values, and construction checks that the
    period is a character mod q (_verify_periodic_table).
    """
    q = int(q)
    index = int(index)
    if q < 1 or q > MAX_MODULUS:
        raise InvalidArgumentError(f"modulus must be in [1, {MAX_MODULUS}], got {q}")
    phi = euler_phi(q)
    if not 0 <= index < phi:
        raise InvalidArgumentError(
            f"character index {index} outside [0, phi({q}) = {phi})"
        )
    table = np.zeros(max(q, 1), dtype=np.complex128)
    if q == 1:
        table[0] = 1.0
    else:
        gens = _unit_group(q)
        digits = []
        ix = index
        for _, d in gens:
            digits.append(ix % d)
            ix //= d
        lcm = 1
        for _, d in gens:
            lcm = lcm * d // math.gcd(lcm, d)
        roots = _roots_of_unity(lcm)
        # walk the whole unit group once; the angle is carried as an integer
        # multiple of 1/lcm turns so real characters come out exactly +-1
        def fill(i, n, ang):
            if i == len(gens):
                table[n] = roots[ang]
                return
            g, d = gens[i]
            step = (digits[i] * (lcm // d)) % lcm
            cur, a = n, ang
            for _ in range(d):
                fill(i + 1, cur, a)
                cur = (cur * g) % q
                a = (a + step) % lcm
        fill(0, 1 % q, 0)

    return _periodic_spec(
        f"chi({q},{index})", table, {"construction": "character", "q": q, "index": index}
    )


def _periodic_spec(name: str, period: np.ndarray, params: dict) -> FunctionSpec:
    """The completely multiplicative spec whose every value comes from
    period, f(0), ..., f(q - 1), once _verify_periodic_table has checked
    that the period is a character mod q."""
    q = period.size
    _verify_periodic_table(name, period)
    return FunctionSpec(
        name=name,
        kind=COMPLETELY_MULTIPLICATIVE,
        prime_values=lambda ps: period[ps % q],
        bounded_by_one=True,
        params=params,
        period=period,
    )


def _verify_periodic_table(name: str, period: np.ndarray) -> None:
    """Check that period P = f(0), ..., f(q - 1) is a character mod q:
    P[1 mod q] = 1, P[n] = 0 exactly when gcd(n, q) > 1, and P[g·n mod q] =
    P[g]·P[n] (to 1e-9) for each generator g of _unit_group(q) and every
    n < q.  Every unit is a product of generators, so n ↦ P[n mod q] is then
    completely multiplicative, and no entry goes unchecked."""
    q = period.size
    n = np.arange(q)
    off = period == 0  # True at each n that breaks the rule: a zero unit,
    for p, _ in _factorize(q):
        off[::p] = period[::p] != 0  # a nonzero non-unit,
    off[1 % q] |= abs(period[1 % q] - 1.0) > 1e-9  # f(1) != 1,
    for g, _ in _unit_group(q):  # or f(g·n) != f(g)·f(n)
        off |= np.abs(period[g * n % q] - period[g] * period) > 1e-9
    if off.any():
        raise PretenseError(f"periodic table of {name} is not a character mod {q}:"
                            f" it disagrees with its rule at n={int(np.argmax(off))}")


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a | n), the full extension of Jacobi to all n."""
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if a < 0:
            out = -out
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _is_fundamental_discriminant(D: int) -> bool:
    def squarefree(m):
        d = 2
        while d * d <= m:
            if m % (d * d) == 0:
                return False
            d += 1
        return True

    if D == 1:
        return True
    if D % 4 == 1:
        return squarefree(abs(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree(abs(m))
    return False


def kronecker_character(D: int) -> FunctionSpec:
    """The real character n ↦ (D | n) for a fundamental discriminant D."""
    D = int(D)
    if abs(D) > MAX_MODULUS:
        raise InvalidArgumentError(f"|D| must be <= {MAX_MODULUS}")
    if not _is_fundamental_discriminant(D):
        raise InvalidArgumentError(f"{D} is not a fundamental discriminant")
    period = np.array(
        [kronecker_symbol(D, r) for r in range(max(abs(D), 1))], dtype=np.complex128
    )
    return _periodic_spec(f"kron({D})", period, {"construction": "kronecker", "D": D})


# ---------------------------------------------------------------------------
# archimedean twist

def archimedean_twist(t: float) -> FunctionSpec:
    """p ↦ p^{it}, the unimodular completely multiplicative twist n^{it}."""
    t = float(t)
    if not abs(t) <= MAX_TWIST_T:
        raise InvalidArgumentError(f"|t| must be <= {MAX_TWIST_T}, got {t}")

    return FunctionSpec(
        name=f"ntwist({t})",
        kind=COMPLETELY_MULTIPLICATIVE,
        prime_values=lambda ps: np.exp(1j * t * np.log(ps.astype(np.float64))),
        bounded_by_one=True,
        params={"construction": "archimedean-twist", "t": t},
    )


# ---------------------------------------------------------------------------
# sparse dyadic hybrid

def sparse_dyadic(base: FunctionSpec, exponents: Iterable[int]) -> FunctionSpec:
    """Completely multiplicative f equal to 1 on primes inside the sparse
    dyadic intervals [2^{a_j}, 2^{a_j+1}), a_j = 2^j for j in `exponents`, and
    equal to the base character elsewhere.

    Each interval adds at most about 2/a_j to the squared distance from the
    base (Mertens), recorded in params as distance_budget; the measured value
    is a job for the metrics module, the budget here is bookkeeping only.
    """
    if base.kind != COMPLETELY_MULTIPLICATIVE:
        raise InvalidArgumentError("base spec must be completely multiplicative")
    js = sorted(int(j) for j in exponents)
    if any(not 0 <= j <= MAX_DYADIC_EXPONENT for j in js):
        raise InvalidArgumentError(
            f"interval exponents must be in [0, {MAX_DYADIC_EXPONENT}], got {js}"
        )
    if len(js) != len(set(js)):
        raise InvalidArgumentError("duplicate exponents give overlapping intervals")
    intervals = [(2 ** (2**j), 2 ** (2**j + 1)) for j in js]

    def prime_values(ps):
        out = np.array(base.prime_values(ps), dtype=np.complex128)
        for lo, hi in intervals:
            out[(ps >= lo) & (ps < hi)] = 1.0
        return out

    return FunctionSpec(
        name=f"dyadic({base.name},{js})",
        kind=COMPLETELY_MULTIPLICATIVE,
        prime_values=prime_values,
        bounded_by_one=base.bounded_by_one,
        params={
            "construction": "sparse-dyadic",
            "base": spec_descriptor(base),
            "exponents": js,
            "intervals": [[int(lo), int(hi)] for lo, hi in intervals],
            "distance_budget": [2.0 / 2**j for j in js],
            "distance_budget_total": float(sum(2.0 / 2**j for j in js)),
        },
    )


# ---------------------------------------------------------------------------
# calibrated phase twist

def twist_sign_rule(f: FunctionSpec, cutoff: int, sieve: Optional[SieveIndex] = None):
    """Decide the phase direction for the calibrated twist of f.

    The diagnostic is the partial sum Σ_{5 ≤ p ≤ cutoff} |Im f(p)| / (p log log p).
    At or above the threshold 10 it is treated as divergent and ω_p is set
    against the imaginary part, ω_p = −sign(Im f(p)); below it, along the real
    part, ω_p = sign(Re f(p)).  sign(0) = +1 throughout.  Returns
    (rule_name, diagnostic_value).
    """
    return _sign_rule(f, sieve_primes(cutoff, sieve, least=5))


def _sign_rule(f: FunctionSpec, ps: np.ndarray):
    fp = prime_values_of(f, ps)
    diag = float(np.sum(np.abs(fp.imag) / (ps * _loglog(ps))))
    if diag >= SIGN_RULE_THRESHOLD:
        return "against-imaginary", diag
    return "along-real", diag


def _omega_values(rule_name: str, fp: np.ndarray) -> np.ndarray:
    if rule_name == "against-imaginary":
        return np.where(fp.imag >= 0, -1.0, 1.0)
    return np.where(fp.real >= 0, 1.0, -1.0)


def optimality_twist(
    f: FunctionSpec,
    beta: float,
    diagnostics_cutoff: int = 10**7,
    sieve: Optional[SieveIndex] = None,
) -> FunctionSpec:
    """g(p) = e(ω_p / (p^{(1−β)/2} log log p)) f(p) for p ≥ 5, g = f at 2, 3.

    The phase shrinks just slowly enough that the β-weighted distance between
    f and g stays finite while first-power differences dominate; ω_p comes
    from twist_sign_rule at the diagnostics cutoff and is recorded in params.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise InvalidArgumentError(f"beta must be in (0, 1), got {beta}")
    if f.kind != COMPLETELY_MULTIPLICATIVE:
        raise InvalidArgumentError("twist base must be completely multiplicative")
    if not f.bounded_by_one:
        raise InvalidArgumentError("twist base must claim the unit disc")
    rule_name, diag = twist_sign_rule(f, diagnostics_cutoff, sieve=sieve)
    half = (1.0 - beta) / 2.0

    def prime_values(ps):
        fp = np.asarray(f.prime_values(ps), dtype=np.complex128)
        tw = ps >= 5  # p = 2, 3 stay put: log log p clears 0.1 from p = 5 on
        theta = np.zeros(ps.shape, dtype=np.float64)
        theta[tw] = 1.0 / (ps[tw] ** half * _loglog(ps[tw]))
        om = _omega_values(rule_name, fp)
        phase = np.exp(2j * np.pi * om * theta)
        phase[~tw] = 1.0
        return phase * fp

    return FunctionSpec(
        name=f"twist({f.name},beta={beta})",
        kind=COMPLETELY_MULTIPLICATIVE,
        prime_values=prime_values,
        bounded_by_one=f.bounded_by_one,
        params={
            "construction": "optimality-twist",
            "base": spec_descriptor(f),
            "beta": beta,
            "diagnostics_cutoff": int(diagnostics_cutoff),
            "sign_rule": rule_name,
            "sign_rule_threshold": SIGN_RULE_THRESHOLD,
            "sign_rule_diagnostic": diag,
        },
    )


def phase_sum_partials(
    f: FunctionSpec,
    tau: float,
    cutoff: int,
    checkpoints=None,
    sieve: Optional[SieveIndex] = None,
) -> PartialSumSeries:
    """Partial sums of P_f(τ) = Σ_{p ≥ 5} i ω_p f(p) / (p^τ log log p).

    ω_p follows the same sign rule the twist would use at this cutoff.  The
    divergence or convergence of these partials is what separates genuinely
    drifting phases from ones that settle.
    """
    tau = float(tau)
    if tau < 1.0:
        raise InvalidArgumentError(f"tau must be >= 1, got {tau}")
    if f.kind != COMPLETELY_MULTIPLICATIVE:
        raise InvalidArgumentError("phase sums need a completely multiplicative f")
    if not f.bounded_by_one:
        raise InvalidArgumentError("phase sums need a unit-disc f")
    ps = sieve_primes(cutoff, sieve, least=5)
    rule_name, _ = _sign_rule(f, ps)

    def terms_of(ps):
        fp = prime_values_of(f, ps)
        om = _omega_values(rule_name, fp)
        return 1j * om * fp / (ps.astype(np.float64) ** tau * _loglog(ps))

    x, sums = prime_sums(terms_of, ps, cutoff, checkpoints)
    return PartialSumSeries(checkpoints=x, sums=sums)


# ---------------------------------------------------------------------------
# squarefree restriction

def squarefree_restrict(f: FunctionSpec) -> FunctionSpec:
    """Keep f on squarefree n, zero elsewhere: f's prime map, powers k≥2 ↦ 0."""
    if f.params and f.params.get("construction") == "squarefree-restrict":
        return f  # idempotent by construction
    return FunctionSpec(
        name=f"sqfree({f.name})",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=f.prime_values,
        powers=lambda p, k: 0.0,
        bounded_by_one=f.bounded_by_one,
        params={"construction": "squarefree-restrict", "base": spec_descriptor(f)},
    )


# ---------------------------------------------------------------------------
# descriptors

def tabulated_spec(
    values: dict,
    name: str = "tabulated",
    kind: str = TABULATED,
    bounded_by_one: bool = False,
) -> FunctionSpec:
    """Spec backed by an explicit {(p, k): value} table; off-table queries fail.

    The k = 1 rows are the prime map.  A completely multiplicative table may
    list k = 1 only: its higher powers are derived.  A row that no query can
    read, at k < 1 or at a p that is not prime, is an error.
    """
    table = {(int(p), int(k)): complex(v) for (p, k), v in values.items()}
    for p, k in table:
        if k < 1 or not is_prime(p):
            raise InvalidArgumentError(
                f"{name!r} row (p={p}, k={k}) is never read: need a prime p and k >= 1")
    if kind == COMPLETELY_MULTIPLICATIVE and any(k != 1 for _, k in table):
        raise InvalidArgumentError(f"a {kind} table may list k = 1 only")
    firsts = sorted((p, v) for (p, k), v in table.items() if k == 1)
    primes = np.array([p for p, _ in firsts], dtype=np.int64)
    vals = np.array([v for _, v in firsts], dtype=np.complex128)

    def powers(p, k):
        try:
            return table[(int(p), int(k))]
        except KeyError:
            raise RuleError(f"value of {name!r} not tabulated at (p={p}, k={k})")

    return FunctionSpec(
        name=name,
        kind=kind,
        prime_values=prime_table(primes, vals, name),
        powers=None if kind == COMPLETELY_MULTIPLICATIVE else powers,
        bounded_by_one=bounded_by_one,
        params={
            "construction": "tabulated",
            "name": name,
            "kind": kind,
            "bounded_by_one": bounded_by_one,
            "values": [
                [p, k, v.real, v.imag] for (p, k), v in sorted(table.items())
            ],
        },
    )


def spec_descriptor(spec: FunctionSpec) -> dict:
    """JSON-able description sufficient to rebuild the spec."""
    if spec.params is not None:
        return spec.params
    raise InvalidArgumentError(
        f"spec {spec.name!r} carries no construction descriptor"
    )


_REQUIRED = object()


def _descriptor_field(desc: dict, key: str, conv, default=_REQUIRED):
    """conv(desc[key]); a missing or unconvertible field names itself."""
    kind = desc["construction"]
    if key not in desc:
        if default is _REQUIRED:
            raise InvalidArgumentError(f"{kind!r} descriptor needs field {key!r}")
        return default
    try:
        return conv(desc[key])
    except PretenseError:
        raise
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            f"{kind!r} descriptor field {key!r} is invalid: {desc[key]!r}"
        ) from None


def _listed(conv):
    """conv applied to each item of a JSON list."""

    def each(items):
        if not isinstance(items, (list, tuple)):
            raise TypeError("not a list")
        return [conv(x) for x in items]

    return each


def _tabulated_rows(rows):
    return {(int(p), int(k)): complex(re, im) for p, k, re, im in rows}


def spec_from_descriptor(desc: dict) -> FunctionSpec:
    """Rebuild a FunctionSpec from a descriptor produced by spec_descriptor.

    A missing or malformed field raises InvalidArgumentError naming the
    construction and the field.
    """
    if not isinstance(desc, dict) or "construction" not in desc:
        raise InvalidArgumentError("descriptor must be a dict with a construction key")
    kind = desc["construction"]
    get = partial(_descriptor_field, desc)
    if kind in STANDARD_NAMES:
        return standard_spec(kind)
    if kind == "character":
        return dirichlet_character(get("q", int), get("index", int))
    if kind == "kronecker":
        return kronecker_character(get("D", int))
    if kind == "archimedean-twist":
        return archimedean_twist(get("t", float))
    if kind == "random":
        return random_spec(
            get("seed", int),
            limit=get("limit", int),
            kind=get("kind", str),
            max_exponent=get("max_exponent", int, None),
        )
    if kind == "random-pair":
        f, g, _ = random_pair_sparse_diff(
            get("seed", int), limit=get("limit", int), ndiff=get("ndiff", int)
        )
        return f if get("role", str, "f") == "f" else g
    if kind == "sparse-dyadic":
        return sparse_dyadic(
            get("base", spec_from_descriptor), get("exponents", _listed(int))
        )
    if kind == "optimality-twist":
        return optimality_twist(
            get("base", spec_from_descriptor),
            get("beta", float),
            get("diagnostics_cutoff", int, 10**7),
        )
    if kind == "squarefree-restrict":
        return squarefree_restrict(get("base", spec_from_descriptor))
    if kind == "degree-d":
        from .degree import degree_d_spec

        return degree_d_spec(get("constituents", _listed(spec_from_descriptor)))
    if kind == "tabulated":
        return tabulated_spec(
            get("values", _tabulated_rows),
            name=get("name", str, "tabulated"),
            kind=get("kind", str, TABULATED),
            bounded_by_one=get("bounded_by_one", bool, False),
        )
    raise InvalidArgumentError(f"unknown construction {kind!r}")
