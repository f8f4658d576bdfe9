"""Dense machinery for multiplicative functions f: ℕ → ℂ.

A function is described by its values on prime powers, f(p^k), via a
FunctionSpec.  Everything downstream works from its prime map and powers:

    build_sieve(N)          smallest-prime-factor table and prime list up to N,
                            in L2-sized segments
    evaluate(spec, sieve)   dense table of f(n) for 1 ≤ n ≤ N; a character's
                            is its period, tiled
    value_chunks(table, N)  views of f(1), ..., f(N), BLOCK values at a time:
                            the one reader of a table in order of n, the source
                            that an evaluation by blocks would replace
    sieve_primes(x, sieve)  the primes p ≤ x; prime_sums(f, ps, x) folds terms
                            over them BLOCK at a time: the one reader of primes
    partial_sums(table, x)  S_f(x) = Σ_{n ≤ x} f(n) at checkpoints
    mean_square_sum         Σ_{n ≤ x} |f(n)|²
    csv_chunks              CSV text of (x, f) rows, one chunk per BLOCK rows
    json_text               the JSON text of any report

A dense table at limit N holds 4 B/n of spf, 4 B/n of the cached cofactor
array (SieveIndex.cofactor) and an 8 or 16 B/n table: float64 when every
f(p^k) ≤ N is real, complex128 otherwise.  The sieve walks segments of
SEGMENT entries that stay in L2 and allocates, besides spf, only the prime
list and one segment's temporaries.  The cofactor and evaluate work in
chunks of BLOCK entries, and divide n by a divisor of n as an exact float64
quotient (n ≤ MAX_SIEVE_LIMIT < 2^53).  Besides these arrays, evaluate
allocates nothing longer than BLOCK entries but the O(√N) prime powers: it
reads the prime map once to choose the dtype and again to fill the table,
so it holds no prime value beyond the f(p), p ≤ √N, that it leaves in the
spec's cache.  A spec with a period, as the Dirichlet and Kronecker
characters have, takes every value from it: evaluate copies the period into
the table and doubles the copied part until the table is full, so it needs
neither the cofactor nor anything besides the table, and its values are
the period's to the bit.

A FunctionSpec keeps one store per prime, [f(p^0), ..., f(p^j)], filled in
exponent order by one checked path, _extend, which hands powers(p, c, k)
the store so far; value, evaluate and every local recursion read it.  f(p)
enters it one prime at a time or from a checked batch of the elementwise
prime map (remember_primes), with the same bits.  power_table(ps, k) gives
f(p^j) at many primes with those bits and keeps nothing.

Every prefix sum S(x) comes from one kernel, _sum2_chunks: the Sum2 prefix of
Ogita, Rump and Oishi ("Accurate sum and dot product", SISC 2005), as accurate
as summing in twice the working precision, in an order fixed by the data
alone.  checkpointed_sums gathers it at positions and running_max folds
max_{n ≤ x} |S(n)| from it; the chunk length BLOCK never changes its bits.
A chunk of whole terms whose running sums stay below 2^52, as for μ, λ and
the real characters, adds exactly, so its TwoSum errors are zero: the
kernel sees this from the data and skips the error pass, with the same bits.

Tables and series travel as CSV rows n_or_x,re,im,abs.  The codec is
columnar: csv_chunks formats BLOCK rows at a time.  A chunk of whole cells
is written by numpy digit arithmetic into one byte buffer, decoded once;
in any other chunk each column holds its whole cells, formatted the same
way, beside the repr of each distinct other value.  read_series_csv parses
the body with numpy's C parser.  The bytes are those of the plain per-row
formatter it replaced, and a round trip keeps every bit except the sign of
a zero, written "0", and the payload of a NaN.

Reports travel as JSON through one encoder, json_obj, and its text form
json_text (sorted keys, indent 2): a dataclass becomes the dict of its
fields, a complex number [re, im], and a non-finite float null, so every
report is strict JSON.  No report class encodes itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidArgumentError,
    LimitError,
    OutOfRangeError,
    PretenseError,
    ResourceError,
    RuleError,
)

COMPLETELY_MULTIPLICATIVE = "completely-multiplicative"
GENERAL_MULTIPLICATIVE = "general-multiplicative"
DEGREE_D_COMPOSITE = "degree-d-composite"
TABULATED = "tabulated"

KINDS = frozenset(
    {COMPLETELY_MULTIPLICATIVE, GENERAL_MULTIPLICATIVE, DEGREE_D_COMPOSITE, TABULATED}
)

# Dense work beyond this is out of scope for a desk-scale toolkit.
MAX_SIEVE_LIMIT = 10**8

# Chunk length of value_chunks, the prefix summation, the cofactor
# recurrence, the prime prefill and composite fill of evaluate and the CSV
# writer.  Only the last bits of a non-integer mean square depend on it.  The
# summation's three float64 scratch buffers (3 x 128 KiB) stay in L2.  At
# 2^16 that kernel was ~15% slower and its freed buffers stayed resident on
# the heap, raising peak RSS by ~1 MB in a 1e7 table workload.
BLOCK = 1 << 14

# Segment length of build_sieve: 1 MiB of int32 spf, which stays in a 2 MiB
# per-core L2 while the base primes write into it.  spf and the primes do
# not depend on it.
SEGMENT = 1 << 18

UNIT_DISC_TOL = 1e-9

GRID_RATIO = 10.0 ** 0.125


@dataclass(frozen=True)
class FunctionSpec:
    """A multiplicative function given by its values at prime powers.

    prime_values(ps) is the only f(p), for an int64 array of primes, and
    must be elementwise: f(p) may not depend on the other entries of ps or
    on their number, so a batch gives each prime the bits of a call on that
    prime alone.  powers(p, c, k) returns [f(p^j), ..., f(p^k)] given the
    store c = [f(p^0), ..., f(p^{j-1})], j >= 2, which it never changes, and
    reads no other store of its own spec; it is None exactly for completely
    multiplicative kinds, where f(p^k) = f(p^{k-1})·f(p).

    period, when given, is f(0), ..., f(q - 1) of a completely multiplicative
    f of period q, as complex128 (Dirichlet and Kronecker characters set
    it), and is then the one source of every value: the prime map reads
    period[ps % q], _extend reads f(p^k) = period[p^k mod q] and evaluate
    tiles it.  __post_init__ rejects it on any other kind, and under
    bounded_by_one an entry off the unit disc, and makes it read-only.

    _cache holds, under the key p, the store [f(p^0), ..., f(p^j)] that
    local() fills in exponent order (_extend), so value(p, k) fails where any
    lower exponent fails; and the determinants D_f(·, p) and recursion
    weights alpha(p) that dirichlet and degree keep there.
    """

    name: str
    kind: str
    prime_values: Callable[[np.ndarray], np.ndarray]
    powers: Optional[Callable[[int, list, int], list]] = None
    bounded_by_one: bool = False
    degree: Optional[int] = None
    params: Optional[dict] = None
    period: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown spec kind {self.kind!r}")
        if (self.powers is None) != (self.kind == COMPLETELY_MULTIPLICATIVE):
            need = "takes no" if self.kind == COMPLETELY_MULTIPLICATIVE else "needs a"
            raise InvalidArgumentError(f"{self.kind} spec {self.name!r} {need} powers rule")
        period = self.period
        if period is None:
            return
        if self.kind != COMPLETELY_MULTIPLICATIVE:
            raise InvalidArgumentError(
                f"{self.kind} spec {self.name!r} cannot take a period")
        if not (isinstance(period, np.ndarray) and period.dtype == np.complex128
                and period.ndim == 1 and period.size > 0):
            raise InvalidArgumentError(
                f"period of spec {self.name!r} must be a nonempty 1-d complex128 array")
        if self.bounded_by_one:
            bad = np.abs(period) > 1.0 + UNIT_DISC_TOL
            if bad.any():
                r = int(np.argmax(bad))
                raise InvalidArgumentError(
                    f"spec {self.name!r} claims |f| <= 1 but its period has"
                    f" |f({r})| = {abs(period[r])}"
                )
        period.flags.writeable = False

    def remember_primes(self, ps: np.ndarray) -> None:
        """Store f(p) for the int64 array of primes ps from one checked batch
        of the prime map (prime_values_of), with the bits of one call per
        prime, as the map is elementwise.  If the batch fails, nothing is
        stored, and value() asks the map one prime at a time and fails there."""
        try:
            got = prime_values_of(self, ps).tolist()
        except Exception:
            return
        for p, v in zip(ps.tolist(), got):
            self._cache.setdefault(p, [1.0 + 0.0j, v])

    def _extend(self, p: int, c: list, k: int) -> list:
        """c = [f(p^0), ..., f(p^{j-1})] extended to exponent k: f(p) from the
        prime map, then the period at p^j mod q, f(p^{j-1})·f(p) as 1-element
        arrays (numpy may fuse multiply-adds where Python won't, and tables
        keep numpy's bits) or powers(p, c, k).  A step that raises, or leaves
        the unit disc under bounded_by_one, appends nothing."""
        while len(c) <= k:
            j = len(c)
            try:
                if j == 1:
                    new = [self.prime_values(np.array([p], dtype=np.int64))[0]]
                elif self.period is not None:
                    new = [self.period[pow(p, i, self.period.size)] for i in range(j, k + 1)]
                elif self.powers is None:
                    new = np.multiply([c[-1]], [c[1]])
                else:
                    new = self.powers(p, c, k)
                    if len(new) != k + 1 - j:
                        raise ValueError(f"powers gave {len(new)} values for k={j}..{k}")
                new = [complex(v) for v in new]
            except PretenseError:
                raise
            except Exception as exc:
                raise RuleError(
                    f"rule of spec {self.name!r} failed at (p={p}, k={j}): {exc}"
                ) from exc
            if self.bounded_by_one:
                for i, v in enumerate(new, j):
                    if abs(v) > 1.0 + UNIT_DISC_TOL:
                        raise InvalidArgumentError(
                            f"spec {self.name!r} claims |f| <= 1 but |f({p}^{i})| = {abs(v)}")
            c.extend(new)
        return c

    def local(self, p: int, k: int) -> list:
        """The store [f(p^0), ..., f(p^j)] of p, j >= k, extended by _extend.
        Callers read it and never change it."""
        c = self._cache.get(p)
        if c is None:
            c = self._cache[p] = [1.0 + 0.0j]
        return c if len(c) > k else self._extend(p, c, k)

    def value(self, p: int, k: int) -> complex:
        """f(p^k), k >= 0, read from the store."""
        if k < 0:
            raise InvalidArgumentError(f"negative exponent k={k}")
        return self.local(p, k)[k]

    rule = value  # the name bench/ reads values by

    def power_table(self, ps: np.ndarray, k: int) -> np.ndarray:
        """complex128 rows t[j] = f(p^j), 0 <= j <= k, k >= 1, at the int64
        primes ps, with the bits of value(), keeping nothing: t[1] from one
        checked batch of the prime map, then a period at int64 residues
        p^j mod q, t[j-1]·t[1] as a fresh product of contiguous rows (out= or
        a strided operand rounds differently), or each prime's store or a
        copy of it, seeded [1+0j, f(p)], extended by _extend."""
        t = np.empty((k + 1, ps.size), dtype=np.complex128)
        t[0] = 1.0
        t[1] = prime_values_of(self, ps)
        if self.period is not None:
            q = self.period.size
            r = r1 = ps % q
            for j in range(2, k + 1):
                r = r * r1 % q
                t[j] = self.period[r]
        elif self.powers is None:
            for j in range(2, k + 1):
                t[j] = t[j - 1] * t[1]
        else:
            for i, (p, fp) in enumerate(zip(ps.tolist(), t[1].tolist())):
                c = self._cache.get(p, ())
                if len(c) <= k:
                    c = self._extend(p, list(c) if len(c) > 1 else [1.0 + 0.0j, fp], k)
                t[2:, i] = c[2 : k + 1]
        return t


@dataclass(frozen=True)
class SieveIndex:
    """Smallest prime factor for every n ≤ limit, plus the prime list.

    spf[n] is the least prime dividing n (spf[0] = spf[1] = 0), so spf[n] = n
    exactly when n is prime; primes is int64.  build_sieve makes both in
    segments of SEGMENT entries.  Memory: 4(N+1) bytes for spf and 8 per
    prime, plus one cached int32 cofactor array of N+1 entries once a dense
    evaluation has run, whose building allocates nothing longer than BLOCK.
    """

    limit: int
    spf: np.ndarray
    primes: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def cofactor(self) -> np.ndarray:
        """int32 rest[n]: n with the full power of spf[n] divided out, so
        gcd(spf[n], rest[n]) = 1 and n // rest[n] is that prime power; 1 at
        n = 0, 1.  Cached after first use.

        With p = spf[n] and m = n / p: rest[n] = rest[m] when spf[m] = p,
        else rest[n] = m (Gries & Misra, CACM 1978).  m is the float64
        quotient, exact as p divides n < 2^53, cast to intp for the gathers
        of spf[m] and rest[m].  As m ≤ n/2, chunks (lo, min(2·lo, lo + BLOCK,
        N)] taken in ascending order read only entries already filled, and no
        temporary outgrows BLOCK.
        """
        got = self._cache.get("cofactor")
        if got is not None:
            return got
        n, spf = self.limit, self.spf
        rest = np.empty(n + 1, dtype=np.int32)
        rest[:2] = 1
        lo = 1
        while lo < n:
            hi = min(2 * lo, lo + BLOCK, n)
            p = spf[lo + 1 : hi + 1]
            # p divides n ≤ MAX_SIEVE_LIMIT < 2^53, so the float64 quotient
            # is exact, and it gives intp indices for the gathers
            m = (np.arange(lo + 1.0, hi + 1.0) / p).astype(np.intp)
            rest[lo + 1 : hi + 1] = np.where(spf[m] == p, rest[m], m)
            lo = hi
        self._cache["cofactor"] = rest
        return rest

    def power_cofactor(self):
        """int32 arrays (pk, rest) with n = pk[n] * rest[n], pk[n] the full
        power of spf[n] dividing n and rest = cofactor(); both are 1 at n = 0,
        1.  pk is built on each call and not cached.  Only bench/ calls it;
        it goes together with spf once evaluation is segmented (ROADMAP
        item 6), which also changes that benchmark.
        """
        rest = self.cofactor()
        pk = np.arange(self.limit + 1, dtype=np.int32)
        np.floor_divide(pk, rest, out=pk)
        pk[0] = 1
        return pk, rest


def build_sieve(limit: int) -> SieveIndex:
    """Smallest-prime-factor sieve on [2, limit], segment by segment.

    The base primes p ≤ √limit come from a small boolean sieve.  The range
    is then walked in segments [L, R) of SEGMENT entries, each of which stays
    in L2 while it is written (Bays & Hudson, BIT 1977): for the base primes
    in descending order, seg[f - L :: p] = p from the next multiple f ≥ p²
    of p, kept per prime from one segment to the next.  So the least prime
    factor of a composite is written last, with no compare and no masked
    write, and the entries left at zero from 2 on are the primes.  A second
    walk, BLOCK entries at a time, writes them into spf and into a prime list
    allocated at the length the first walk counted.  Besides spf (4 B/n) and
    the prime list (8 B per prime), nothing longer than BLOCK entries is
    allocated, so the sieve peaks at its output.  A freed full-length
    temporary would also raise glibc's mmap threshold to its size, and
    later arrays below it, a value table among them, would then come from
    the heap and could stay resident after they are freed.
    """
    limit = int(limit)
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise LimitError(
            f"sieve limit {limit} exceeds the documented cap {MAX_SIEVE_LIMIT}"
        )
    try:
        spf = np.zeros(limit + 1, dtype=np.int32)
    except MemoryError as exc:
        raise ResourceError(
            f"could not allocate {4 * (limit + 1)} bytes for the sieve"
        ) from exc
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    base = np.flatnonzero(small)[::-1].tolist()
    nxt = [p * p for p in base]
    spf[:2] = 1  # not primes; reset below
    count = 0
    for lo in range(0, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        seg = spf[lo:hi]
        for i, p in enumerate(base):
            f = nxt[i]
            if f < hi:
                seg[f - lo :: p] = p
                nxt[i] = f + (hi - f + p - 1) // p * p
        count += seg.size - np.count_nonzero(seg)
    primes = np.empty(count, dtype=np.int64)
    k = 0
    for lo in range(0, limit + 1, BLOCK):
        chunk = spf[lo : lo + BLOCK]
        ps = np.flatnonzero(chunk == 0)
        got = primes[k : k + ps.size]
        np.add(ps, lo, out=got)
        chunk[ps] = got
        k += ps.size
    spf[:2] = 0
    return SieveIndex(limit=limit, spf=spf, primes=primes)


@dataclass(frozen=True)
class ValueTable:
    """Dense f(n) for 1 ≤ n ≤ limit (values[0] is unused and zero): float64
    when f(p^k) is real at every prime power ≤ limit, else complex128."""

    spec: FunctionSpec
    limit: int
    values: np.ndarray


@dataclass(frozen=True)
class PartialSumSeries:
    """Checkpointed partial sums S_f(x_i), with the table they sum if any."""

    checkpoints: np.ndarray
    sums: np.ndarray
    source: Optional[ValueTable] = None


# Names the benchmark passes as partial_sums(mode=...); nothing reads them.
SEQUENTIAL = "compensated-sequential"
BLOCK_PARALLEL = "block-parallel-deterministic"


def prime_values_of(spec: FunctionSpec, primes: np.ndarray) -> np.ndarray:
    """f(p) for an array of primes from the spec's prime map."""
    vals = np.asarray(spec.prime_values(primes), dtype=np.complex128)
    if vals.shape != primes.shape:
        raise RuleError(f"prime map of {spec.name!r} returned shape {vals.shape}")
    if spec.bounded_by_one and vals.size:
        bad = np.abs(vals) > 1.0 + UNIT_DISC_TOL
        if bad.any():
            p = int(primes[np.argmax(bad)])
            raise InvalidArgumentError(
                f"spec {spec.name!r} claims |f| <= 1 but |f({p})| > 1"
            )
    return vals


def _prime_power_values(spec: FunctionSpec, small: np.ndarray, limit: int):
    """(positions, values) of f(p^k), k >= 2 and p^k ≤ limit, for the primes
    small ≤ √limit, from spec.value: complex128, as value() gives them."""
    pos, got = [], []
    for p in small.tolist():
        pe, k = p * p, 2
        while pe <= limit:
            pos.append(pe)
            got.append(spec.value(p, k))
            pe *= p
            k += 1
    return np.array(pos, dtype=np.int64), np.array(got, dtype=np.complex128)


def _zero_table(limit: int, dtype) -> np.ndarray:
    """np.zeros of limit + 1 entries, or ResourceError with the bytes asked."""
    try:
        return np.zeros(limit + 1, dtype=dtype)
    except MemoryError as exc:
        raise ResourceError(
            f"could not allocate {np.dtype(dtype).itemsize * (limit + 1)} bytes"
            " for the value table"
        ) from exc


def _tile_period(period: np.ndarray, limit: int) -> np.ndarray:
    """period[n % q] for 0 < n ≤ limit, 0 at n = 0: float64 when
    period[1 : min(limit, q - 1) + 1] has a zero imaginary part, else
    complex128.  The period goes in once; then the filled part, a whole
    number of periods, is copied after itself, so each step doubles it.
    The copies do not overlap, and nothing but the table is allocated."""
    q = period.size
    real = not period[1 : min(limit, q - 1) + 1].imag.any()
    values = _zero_table(limit, np.float64 if real else np.complex128)
    done = min(q, limit + 1)
    values[:done] = period[:done].real if real else period[:done]
    while done <= limit:
        n = min(done, limit + 1 - done)
        values[done : done + n] = values[:n]
        done += n
    values[0] = 0.0
    return values


def evaluate(spec: FunctionSpec, sieve: SieveIndex, limit: Optional[int] = None) -> ValueTable:
    """Dense table of f(n), 1 ≤ n ≤ limit.

    The table is float64 when f(p) and f(p^k) have a zero imaginary part (of
    either sign) at every prime power ≤ limit, vacuously at limit 1, and
    complex128 otherwise.  A real table holds the real parts of the complex
    one: the same bits, except that the sign of a zero may differ.

    A spec with a period takes every f(n) from it: the table is the period
    tiled (_tile_period), with no gather, no cofactor and no call of the
    prime map.  It is real when the period's entries 1 to min(limit, q - 1)
    are.  For a character that is the rule above: each n in that range is a
    product of primes ≤ limit, and each prime p ≤ limit has its residue
    p mod q among those entries or has f(p) = 0.

    Every other spec is filled from its prime-power values.  Every f(p^k),
    k >= 2, comes from spec.value, and primes from the prime map, BLOCK
    primes at a time.  The f(p) of the primes p ≤ √limit first enter the
    spec's store from one call of the map (remember_primes), so value(),
    which computes f(p) before f(p^2), and a later solve that reads this
    spec need no call of the map per prime.  The dtype is chosen before the
    table exists: the powers first, then the prime map chunk by chunk up to
    the first chunk that is not real.  The table is filled from a second
    read of the prime map, so no prime value is held.  Every other n is the
    single product f(pk)·f(rest) of its coprime parts, rest =
    SieveIndex.cofactor()[n] and pk = n / rest, an exact float64 quotient;
    both are at most n/2, so chunks (lo, min(2·lo, lo + BLOCK, limit)] filled
    in ascending order read only finished entries, and no temporary outgrows
    BLOCK.  A real table writes the products of a whole chunk, prime powers
    included, where f(n)·f(1) is f(n) to the bit; a complex one writes only
    the composites.  Cost is O(N) array work after the sieve.
    """
    if limit is None:
        limit = sieve.limit
    limit = int(limit)
    if limit < 1 or limit > sieve.limit:
        raise InvalidArgumentError(
            f"evaluate limit {limit} outside [1, sieve limit {sieve.limit}]"
        )
    if limit == 1:
        return ValueTable(spec=spec, limit=limit, values=np.array([0.0, 1.0]))
    if spec.period is not None:
        return ValueTable(spec=spec, limit=limit, values=_tile_period(spec.period, limit))
    primes = sieve.primes[: np.searchsorted(sieve.primes, limit, side="right")]
    # only primes p ≤ √limit have p² ≤ limit
    small = primes[: np.searchsorted(primes, math.isqrt(limit), side="right")]
    spec.remember_primes(small)
    pos, powers = _prime_power_values(spec, small, limit)
    chunks = range(0, primes.size, BLOCK)
    real = not powers.imag.any() and not any(
        prime_values_of(spec, primes[a : a + BLOCK]).imag.any() for a in chunks
    )
    cast = np.real if real else np.asarray
    values = _zero_table(limit, np.float64 if real else np.complex128)
    values[1] = 1.0
    for a in chunks:
        ps = primes[a : a + BLOCK]
        values[ps] = cast(prime_values_of(spec, ps))
    values[pos] = cast(powers)

    # The product stays a multiply of two fresh contiguous gathers: numpy's
    # loops for a scalar, strided or aliased operand can round the last bit
    # differently.  r divides n < 2^53, so pk = n / r is an exact float64
    # quotient; it is dropped once gathered.  Where r = 1 a real product is
    # f(n)·1.0, f(n) to the bit with -0.0 and all, so it needs no mask; a
    # complex one, (a+bi)(1+0i), can flip the sign of a zero part.
    rest = sieve.cofactor()
    lo = 1
    while lo < limit:
        hi = min(2 * lo, lo + BLOCK, limit)
        r = rest[lo + 1 : hi + 1].astype(np.intp)
        pk = (np.arange(lo + 1.0, hi + 1.0) / r).astype(np.intp)
        if real:
            np.multiply(values[pk], values[r], out=values[lo + 1 : hi + 1])
        else:
            np.copyto(values[lo + 1 : hi + 1], values[pk] * values[r], where=r > 1)
        lo = hi
    return ValueTable(spec=spec, limit=limit, values=values)


# ---------------------------------------------------------------------------
# compensated prefix summation


def _whole_below_2_52(flat: np.ndarray, scratch: np.ndarray) -> bool:
    """Whether every value of flat is whole and Σ|flat| < 2^52, checked in
    scratch of flat's size.  The first 64 values are tested alone first, in
    Python, so a chunk that is not whole costs about a microsecond.  ±inf
    are whole to the full test; the bound rejects them.  The float64 sum of
    nonnegative values is below 2^52 only if the exact sum is, as every
    partial sum below 2^53 is exact."""
    if not all(map(float.is_integer, flat[:64].tolist())):
        return False
    np.trunc(flat, out=scratch)
    return bool((scratch == flat).all()) and np.add.reduce(
        np.abs(flat, out=scratch)) < 2.0**52


def _sum2_chunks(terms):
    """Yield (a, S) per chunk of terms, an array read BLOCK terms at a time or
    an iterable of arrays of at most BLOCK terms: S[j] is the Sum2 prefix of
    the first a + j + 1 terms, in scratch that the next chunk overwrites.

    S = s + E with s = cumsum(x), E = cumsum(e), e_i the TwoSum error of
    s_{i-1} + x_i.  Chunks carry (s, E) as the leading element of their
    buffers, so every cumsum runs left to right over all terms exactly as
    one unchunked cumsum would.  The sum is real until the first chunk with
    a nonzero imaginary part: complex adds are componentwise and Sum2 of
    signed zeros is +0.0, so that gives the bits of one complex pass.

    A chunk whose carried s and terms (both parts, if complex) are whole
    with Σ|·| < 2^52, as for μ, λ and the real characters, adds exactly:
    every e_i is +0.0, so E stays the carried E and S = s + E.  Such a chunk
    skips the TwoSum steps and the second cumsum, with the same bits.  The
    carried E is never -0.0: it starts at +0.0, and each e_i is +0.0,
    nonzero or NaN.
    """
    if isinstance(terms, np.ndarray):
        terms = np.split(terms, range(BLOCK, terms.size, BLOCK))
    buf, a = np.empty((3, BLOCK + 1)), 0
    s_carry = e_carry = 0.0
    for xs in terms:
        if buf.dtype == np.float64 and np.iscomplexobj(xs) and xs.imag.any():
            buf = np.empty((3, BLOCK + 1), dtype=np.complex128)
        xs = xs if buf.dtype == np.complex128 else xs.real
        m = xs.size
        sv, ev, tv = buf[0, : m + 1], buf[1, : m + 1], buf[2, :m]
        sv[0] = s_carry
        sv[1:] = xs
        exact = _whole_below_2_52(sv.view(np.float64), ev.view(np.float64))
        np.cumsum(sv, out=sv)
        if exact:
            s_carry = sv[m]
            yield a, np.add(sv[1:], e_carry, out=tv)
            a += m
            continue
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


def value_chunks(table: ValueTable, N: int):
    """Yield (a, v) from a = 1: v views f(a), ..., f(min(a + BLOCK, N + 1) - 1)."""
    for a in range(1, N + 1, BLOCK):
        yield a, table.values[a : min(a + BLOCK, N + 1)]


def sieve_primes(cutoff, sieve: Optional[SieveIndex] = None, least: int = 2):
    """The primes least ≤ p ≤ cutoff, a view of sieve.primes, or of a sieve
    built when none is given; int keys, as a float one casts the whole list."""
    top = int(cutoff)
    if sieve is None:
        sieve = build_sieve(top)
    elif sieve.limit < top:
        raise InvalidArgumentError(f"cutoff {cutoff} beyond sieve limit {sieve.limit}")
    return sieve.primes[np.searchsorted(sieve.primes, least) :
                        np.searchsorted(sieve.primes, top, side="right")]


def prime_sums(terms_of, ps, cutoff, checkpoints=None):
    """(x, S): checkpoints x in [1, cutoff] and the Sum2 prefixes S(x) of the
    terms that the elementwise terms_of gives for each slice of at most BLOCK
    of the primes ps of sieve_primes, with the bits of one whole array."""
    x, floors = checkpoint_positions(checkpoints, cutoff, "cutoff")
    terms = (terms_of(ps[a : a + BLOCK]) for a in range(0, ps.size, BLOCK))
    positions = np.searchsorted(ps, floors, side="right")
    return x, checkpointed_sums(terms, positions)


def checkpoint_positions(checkpoints, limit, what: str = "table limit"):
    """(x, floor(x)) for finite, strictly increasing checkpoints in [1, limit];
    None stands for the geometric grid from min(10, limit) to limit."""
    if checkpoints is None:
        checkpoints = geometric_checkpoints(min(10, limit), limit)
    x = np.asarray(checkpoints, dtype=np.float64)
    if x.size == 0:
        raise InvalidArgumentError("need at least one checkpoint")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("checkpoints must be finite")
    if np.any(np.diff(x) <= 0):
        raise InvalidArgumentError("checkpoints must be strictly increasing")
    if x[0] < 1:
        raise InvalidArgumentError(f"checkpoints start at 1, got {x[0]}")
    if x[-1] > limit:
        raise OutOfRangeError(f"checkpoint {x[-1]} beyond {what} {limit}")
    return x, np.floor(x).astype(np.int64)


def checkpointed_sums(terms: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Compensated prefix sums of `terms` at sorted 0-based prefix lengths:
    the Sum2 prefixes of _sum2_chunks, as complex128."""
    positions = np.asarray(positions, dtype=np.int64)
    bad = InvalidArgumentError("prefix positions must be sorted within range")
    if np.any(np.diff(positions) < 0) or np.any(positions < 0):
        raise bad
    out = np.zeros(positions.size, dtype=np.complex128)
    lo = int(np.searchsorted(positions, 0, side="right"))
    for a, S in _sum2_chunks(terms):
        hi = int(np.searchsorted(positions, a + S.size, side="right"))
        out[lo:hi] = S[positions[lo:hi] - (a + 1)]
        lo = hi
    if lo < positions.size:
        raise bad
    return out


def partial_sums(
    table: ValueTable, checkpoints: Sequence[float], *, mode=None, threads=None
) -> PartialSumSeries:
    """S_f(x_i) = Σ_{n ≤ x_i} f(n) at strictly increasing real checkpoints.

    mode and threads are ignored; they stay only because bench/workloads.py
    passes them."""
    x, positions = checkpoint_positions(checkpoints, table.limit)
    terms = (v for _, v in value_chunks(table, positions[-1]))
    return PartialSumSeries(checkpoints=x, sums=checkpointed_sums(terms, positions),
                            source=table)


def running_max(table: ValueTable, checkpoints: Sequence[float]) -> tuple:
    """(S, M) at strictly increasing checkpoints x_i: the PartialSumSeries of
    S(x_i) and the array M_i = max_{n ≤ x_i} |S(n)|, in one Sum2 pass with
    no temporary longer than BLOCK."""
    x, positions = checkpoint_positions(checkpoints, table.limit)
    sums = np.empty(x.size, dtype=np.complex128)
    peaks = np.empty(x.size)
    lo, best = 0, 0.0
    for a, S in _sum2_chunks(v for _, v in value_chunks(table, positions[-1])):
        hi = int(np.searchsorted(positions, a + S.size, side="right"))
        idx = positions[lo:hi] - (a + 1)
        run = np.maximum(np.maximum.accumulate(np.abs(S)), best)
        sums[lo:hi], peaks[lo:hi] = S[idx], run[idx]
        lo, best = hi, run[-1]
    return PartialSumSeries(x, sums, source=table), peaks


def mean_square_sum(table: ValueTable, x: float) -> float:
    """Σ_{n ≤ x} |f(n)|² (nonnegative, nondecreasing in x).

    Squares the float64 parts of each chunk of value_chunks (the values of
    a float64 table, the real and imaginary parts of a complex one) and adds
    the chunk sums with math.fsum, so no temporary outgrows a chunk; exact
    whenever the squares and their partial sums are integers below 2^53.
    """
    # floor(x) in [1, limit]; NaN and ±inf fail here, not in math.floor
    if not 1 <= x < table.limit + 1:
        raise OutOfRangeError(f"x={x} outside [1, {table.limit}]")
    m = math.floor(x)
    return math.fsum(float(np.add.reduce(np.square(v.view(np.float64))))
                     for _, v in value_chunks(table, m))


def geometric_checkpoints(lo: float, hi: float) -> np.ndarray:
    """Grid ⌊lo·GRID_RATIO^j⌋, deduplicated, clipped to hi; GRID_RATIO is 10^(1/8)."""
    if not (lo >= 1 and math.isfinite(hi) and hi >= lo):
        raise InvalidArgumentError(f"need 1 <= lo <= hi < inf, got lo={lo}, hi={hi}")
    pts = []
    x = float(lo)
    while math.floor(x) <= hi:
        pts.append(math.floor(x))
        x *= GRID_RATIO
    return np.unique(np.asarray(pts, dtype=np.float64))


# ---------------------------------------------------------------------------
# CSV codec: header n_or_x,re,im,abs, then one row (x, Re v, Im v, |v|) per
# point, formatted and parsed a column at a time


_POW10 = 10 ** np.arange(1, 16, dtype=np.int64)


def _int_rows(ints: np.ndarray) -> str:
    """Text of rows of k integer cells, ints of shape (k, rows) and |v| < 2^53:
    cells joined by "," and each row ended by "\n".

    Each row is a line of one uint8 buffer.  Column c has a slot as wide as
    its widest cell, in which each cell is right-aligned and NUL-padded.
    Digits come from % 10 and // 10, in int32 when the column's values fit,
    and stop where the rest is zero.  A minus sign goes before the leading
    digit, found by counting the powers of ten at or below the value.  The
    buffer is the text once the NULs are dropped."""
    k, n = ints.shape
    neg = ints < 0
    mag = np.abs(ints)
    digits = (1 + np.searchsorted(_POW10, mag.max(axis=1), side="right")).tolist()
    signs = neg.any(axis=1).tolist()
    out = np.zeros((n, sum(digits) + sum(signs) + k), dtype=np.uint8)
    end = -1  # the separator after the slot of column c
    for c in range(k):
        end += digits[c] + signs[c] + 1
        out[:, end] = ord(",")
        m = mag[c]
        if digits[c] < 10:  # below 10^9 < 2^31
            m = m.astype(np.int32)
        for j in range(digits[c]):
            q = m // 10
            d = m - 10 * q
            d += ord("0")
            if j:
                d *= m != 0  # no leading zeros
            out[:, end - 1 - j] = d
            m = q
        if signs[c]:
            at = np.flatnonzero(neg[c])
            lead = np.searchsorted(_POW10, mag[c, at], side="right")
            out[at, end - 2 - lead] = ord("-")
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _csv_cells(col: np.ndarray, whole: np.ndarray) -> list:
    """Text of a float64 column of a chunk that holds a value not whole: the
    whole values (|v| < 2^53) as integers by _int_rows (-0.0 is "0"), every
    other value, NaN and ±inf included, as its repr, the shortest text that
    reads back to the same bits.

    repr runs once per distinct other value: those that compare equal have
    the same bits, as ±0 are whole, and every NaN reads "nan"."""
    if whole.all():
        return _int_rows(col[None].astype(np.int64)).split("\n")[:-1]
    cells = np.empty(col.size, dtype=object)
    if whole.any():
        cells[whole] = _int_rows(col[whole][None].astype(np.int64)).split("\n")[:-1]
    distinct, inverse = np.unique(col[~whole], return_inverse=True)
    text = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    cells[~whole] = text[inverse]
    return cells.tolist()


def csv_chunks(xs, values):
    """Yield the CSV of rows (x_i, Re v_i, Im v_i, |v_i|): the header line, then
    the text of each chunk of at most BLOCK rows.  xs and values have one entry
    per row, or xs is None and values are the chunks (a, v) of value_chunks.

    |v| is np.hypot(Re v, Im v), which gives the bits of Python's
    abs(complex), set to inf where a part is infinite, as abs does even
    beside a signalling NaN, for which np.hypot gives NaN; as in abs, a
    modulus that overflows from finite parts raises OverflowError.
    """
    yield "n_or_x,re,im,abs\n"
    chunks = values if xs is None else (
        (xs[a : a + BLOCK], values[a : a + BLOCK]) for a in range(0, len(xs), BLOCK))
    for x, v in chunks:
        x = np.arange(x, x + len(v)) if xs is None else x
        v = np.asarray(v, dtype=np.complex128)
        re, im = v.real, v.imag
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.hypot(re, im)
        mag[np.isinf(re) | np.isinf(im)] = np.inf
        big = np.isinf(mag)
        if big.any() and np.any(np.isfinite(re[big]) & np.isfinite(im[big])):
            raise OverflowError("absolute value too large")
        cols = np.stack((np.asarray(x, dtype=np.float64), re, im, mag))
        with np.errstate(invalid="ignore"):
            whole = (np.abs(cols) < 2.0**53) & (cols == np.floor(cols))
        if whole.all():
            yield _int_rows(cols.astype(np.int64))
        else:
            yield "\n".join(map(",".join, zip(*map(_csv_cells, cols, whole)))) + "\n"


def series_csv(series: PartialSumSeries) -> str:
    return "".join(csv_chunks(series.checkpoints, series.sums))


def read_series_csv(text: str) -> PartialSumSeries:
    """Parse the CSV written by series_csv back into a series (no source
    table).  Blank lines are skipped and the body goes through numpy's C
    parser in one call.  Each cell reads back to the bits its text denotes,
    and the parts of each sum are set one by one, so a "-0.0" or "inf" part
    keeps its bits.  A missing header, a row without four cells or a cell
    that is not a number raises InvalidArgumentError."""
    lines = list(filter(str.strip, text.splitlines()))
    if not lines or lines[0].lstrip().split(",")[:2] != ["n_or_x", "re"]:
        raise InvalidArgumentError("missing n_or_x,re,im,abs header")
    rows = np.empty((0, 4))
    if len(lines) > 1:
        try:
            rows = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed CSV: {exc}") from None
    if rows.shape[1] != 4:
        raise InvalidArgumentError(f"CSV rows have {rows.shape[1]} cells, want 4")
    sums = np.empty(rows.shape[0], dtype=np.complex128)
    sums.real, sums.imag = rows[:, 1], rows[:, 2]
    return PartialSumSeries(checkpoints=rows[:, 0].copy(), sums=sums)


def json_obj(obj):
    """obj as plain JSON values: a dataclass as the dict of its fields, dict
    keys as str, lists, tuples and arrays as lists, numpy scalars as Python
    numbers, a complex number as [re, im] and a non-finite float as None."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_obj(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): json_obj(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [json_obj(v) for v in obj]
    if isinstance(obj, complex):
        return [json_obj(obj.real), json_obj(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def json_text(obj) -> str:
    """The JSON text of json_obj(obj), keys sorted, indent 2."""
    return json.dumps(json_obj(obj), indent=2, sort_keys=True, allow_nan=False)
