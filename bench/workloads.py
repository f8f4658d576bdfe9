"""The four benchmark workloads.

Each workload builds its specs from the seed in its constructor (that is
part of setup_s) and runs one pass over a fixed list of public calls in
run_pass.  Every call goes through Recorder.op with the workload's oracle
check; see README.md for why each workload exists.  probe=True builds the
same workload at N = 1e4, which the traced run uses to fill in layers its
own workload never calls.
"""

from __future__ import annotations

import math

import numpy as np

from pretense import (
    asymptotics,
    constructions,
    core,
    degree,
    dirichlet,
    metrics,
    randspecs,
)

import oracles
from freeze import DEG2_PAIRS, DISTANCE_PAIRS
from tracing import CheckFailed

PROBE_N = 10**4


def _rel(a, b) -> float:
    """Largest |a - b| / max(1, |b|) over paired arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), initial=0.0))


def _nonprincipal_characters() -> list:
    pool = []
    for q in range(3, 21):
        phi = sum(1 for r in range(1, q) if math.gcd(r, q) == 1)
        pool.extend((q, index) for index in range(1, phi))
    return pool


class Workload:
    name = ""

    def __init__(self, rec, seed: int, threads: int, probe: bool):
        self.rec = rec
        self.seed = seed
        self.threads = threads
        self.rng = np.random.default_rng(seed)
        self._verified = {}

    def describe(self) -> dict:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def _check_once(self, key, arrays, full_check) -> float:
        """The full oracle the first time; afterwards, byte equality with the
        result that passed it, which costs a hash instead of a second check."""
        got = oracles.digest(*arrays)
        known = self._verified.get(key)
        if known is None:
            err = full_check()
            if err == 0.0:
                self._verified[key] = got
            return err
        if got != known:
            raise CheckFailed(f"{key} differs from the result that passed the oracle")
        return 0.0

    def sieve_and_cofactor(self, n: int):
        rec = self.rec
        sieve = rec.op("core.sieve", n, core.build_sieve, n,
                       check=lambda s: self._check_once(
                           "sieve", (s.spf, s.primes), lambda: oracles.check_sieve(s, n)))
        rec.op("core.cofactor", n, sieve.power_cofactor,
               check=lambda pair: self._check_once(
                   "cofactor", pair, lambda: oracles.check_cofactor(sieve, pair, n)))
        return sieve


class CharSum(Workload):
    """Sieve, then evaluate -> partial_sums (block-parallel, 25 geometric
    checkpoints) -> growth_fit for seeded nonprincipal characters mod q <= 20."""

    name = "charsum-1e6"
    CHARACTERS = 2

    def __init__(self, rec, seed, threads, probe=False):
        super().__init__(rec, seed, threads, probe)
        self.n = PROBE_N if probe else 10**6
        pool = _nonprincipal_characters()
        picks = self.rng.choice(len(pool), size=self.CHARACTERS, replace=False)
        self.chosen = [pool[i] for i in picks]
        self.chars = [
            rec.op("constructions.character", 1,
                   constructions.dirichlet_character, q, index)
            for q, index in self.chosen
        ]
        self.grid = core.geometric_checkpoints(self.n // 1000, self.n)
        self._periods = {}

    def describe(self) -> dict:
        return {"N": self.n, "characters": [list(c) for c in self.chosen],
                "checkpoints": int(self.grid.size), "mode": core.BLOCK_PARALLEL}

    def _period(self, chi, q):
        got = self._periods.get(chi.name)
        if got is None:
            got = self._periods[chi.name] = oracles.character_period(chi, q)
        return got

    def _check_table(self, chi, q, table) -> float:
        vals, _ = self._period(chi, q)
        worst = 0.0
        for lo in range(1, self.n + 1, oracles.CHUNK):
            m = np.arange(lo, min(lo + oracles.CHUNK, self.n + 1))
            worst = max(worst, _rel(table.values[m], vals[m % q]))
        return worst

    def _check_sums(self, chi, q, series) -> float:
        # a nonprincipal character sums to 0 over a period: S(x) = S(x mod q)
        _, prefix = self._period(chi, q)
        pos = np.floor(series.checkpoints).astype(np.int64)
        return float(np.max(np.abs(series.sums - prefix[pos % q])))

    def run_pass(self) -> None:
        rec, n = self.rec, self.n
        sieve = self.sieve_and_cofactor(n)
        for (q, _), chi in zip(self.chosen, self.chars):
            with rec.unit():
                table = rec.op("core.evaluate.cm", n, core.evaluate, chi, sieve,
                               check=lambda t: self._check_table(chi, q, t),
                               tol=1e-12)
                series = rec.op(
                    "core.sums", n, core.partial_sums, table, self.grid,
                    mode=core.BLOCK_PARALLEL, threads=self.threads,
                    attrs={"checkpoints": int(self.grid.size)},
                    check=lambda s: self._check_sums(chi, q, s), tol=1e-9)
                rec.op("asymptotics.growth_fit", 1, asymptotics.growth_fit, series,
                       check=lambda f: oracles.check_fit(f, series.checkpoints,
                                                         series.sums),
                       tol=1e-9)


class ProfileDense(Workload):
    """The CLI sums -> growth-fit -> xi path through public functions, on a
    dense grid of about N/10 checkpoints (sequential mode, the CLI default)."""

    name = "profile-dense-1e6"
    SPECS = 2
    LOOKUPS = 10**4
    SAMPLED = 500
    POOL = ("liouville", "moebius", (-4, -3), (-4, 5), (-3, 5))

    def __init__(self, rec, seed, threads, probe=False):
        super().__init__(rec, seed, threads, probe)
        self.n = PROBE_N if probe else 10**6
        picks = self.rng.choice(len(self.POOL), size=self.SPECS, replace=False)
        self.chosen = [self.POOL[i] for i in picks]
        self.specs = []
        for choice in self.chosen:
            if isinstance(choice, str):
                spec = rec.op("constructions.standard", 1,
                              constructions.standard_spec, choice)
                tag = "cm" if spec.kind == core.COMPLETELY_MULTIPLICATIVE else "gm"
            else:
                pair = [rec.op("constructions.character", 1,
                               constructions.kronecker_character, d) for d in choice]
                spec = rec.op("degree.spec", 1, degree.degree_d_spec, pair)
                tag = "deg2"
            self.specs.append((spec, tag))
        self.grid = np.unique(np.floor(np.geomspace(10, self.n, self.n // 4)))
        self.points = 10.0 ** self.rng.uniform(1.0, math.log10(self.n), self.LOOKUPS)
        self.oracle_primes = oracles.small_primes(math.isqrt(self.n) + 1)
        self._sampled = {}

    def describe(self) -> dict:
        return {"N": self.n, "specs": [s.name for s, _ in self.specs],
                "checkpoints": int(self.grid.size), "lookups": self.LOOKUPS,
                "mode": core.SEQUENTIAL}

    def _check_table(self, spec, table) -> float:
        oracles.integer_table_totals(table.values, self.n)
        got = self._sampled.get(spec.name)
        if got is None:  # the same spec every pass: ask the rule once per run
            rng = np.random.default_rng(self.seed)
            got = self._sampled[spec.name] = oracles.sampled_rule_values(
                spec, self.n, rng, self.SAMPLED, self.oracle_primes)
        pts, want = got
        return _rel(table.values[pts], want)

    def _exact_prefix(self, table) -> np.ndarray:
        # values are integers (checked), so the int64 cumsum is exact
        return np.cumsum(table.values[1:].real.astype(np.int64))

    def _check_sums(self, prefix, series) -> float:
        pos = np.floor(series.checkpoints).astype(np.int64)
        return float(np.max(np.abs(series.sums - prefix[pos - 1])))

    def _check_csv_text(self, text) -> float:
        lines = text.splitlines()
        if lines[0] != "n_or_x,re,im,abs" or len(lines) != self.grid.size + 1:
            raise CheckFailed(f"CSV has {len(lines)} lines, want {self.grid.size + 1}")
        return 0.0

    @staticmethod
    def _check_roundtrip(back, series) -> float:
        if not (np.array_equal(back.checkpoints, series.checkpoints)
                and np.array_equal(back.sums, series.sums)):
            raise CheckFailed("CSV round trip is not bit-exact")
        return 0.0

    def _xi_oracle(self, prefix, alpha):
        return prefix[self.grid.astype(np.int64) - 1] / self.grid**alpha

    def _check_nearest(self, got, xi_samples) -> float:
        # the checkpoint nearest in log x; a tie may go either way
        y = self.points
        j = np.clip(np.searchsorted(self.grid, y), 1, self.grid.size - 1)
        dl = np.abs(np.log(y) - np.log(self.grid[j - 1]))
        dr = np.abs(np.log(y) - np.log(self.grid[j]))
        el = np.abs(got - xi_samples[j - 1]) / np.maximum(1.0, np.abs(xi_samples[j - 1]))
        er = np.abs(got - xi_samples[j]) / np.maximum(1.0, np.abs(xi_samples[j]))
        dev = np.where(dl < dr, el, np.where(dr < dl, er, np.minimum(el, er)))
        return float(np.max(dev))

    def _check_exact(self, got, prefix, alpha) -> float:
        y = self.points
        want = prefix[np.floor(y).astype(np.int64) - 1] / y**alpha
        return _rel(got, want)

    def run_pass(self) -> None:
        rec, n, grid = self.rec, self.n, self.grid
        rows = int(grid.size)
        sieve = self.sieve_and_cofactor(n)
        for spec, tag in self.specs:
            with rec.unit():
                table = rec.op(f"core.evaluate.{tag}", n, core.evaluate, spec, sieve,
                               check=lambda t: self._check_table(spec, t), tol=1e-9)
                prefix = self._exact_prefix(table)
                series = rec.op(
                    "core.sums", n, core.partial_sums, table, grid,
                    mode=core.SEQUENTIAL, threads=self.threads,
                    attrs={"checkpoints": rows},
                    check=lambda s: self._check_sums(prefix, s))
                text = rec.op("core.csv.write", rows, core.series_csv, series,
                              check=self._check_csv_text)
                back = rec.op("core.csv.read", rows, core.read_series_csv, text,
                              check=lambda b: self._check_roundtrip(b, series))
                fit = rec.op("asymptotics.growth_fit", 1, asymptotics.growth_fit, back,
                             check=lambda f: oracles.check_fit(f, back.checkpoints,
                                                               back.sums),
                             tol=1e-9)
                alpha = max(fit.exponent, 0.0)
                xi = rec.op("asymptotics.xi.from_sums", rows, asymptotics.xi_from_sums,
                            series, alpha,
                            check=lambda x: _rel(x.samples, self._xi_oracle(prefix, alpha)),
                            tol=1e-12)
                xi_want = self._xi_oracle(prefix, alpha)
                rec.op("asymptotics.xi.lookup", self.LOOKUPS, asymptotics.xi_lookup,
                       xi, self.points, mode=asymptotics.NEAREST,
                       check=lambda v: self._check_nearest(v, xi_want), tol=1e-12)
                rec.op("asymptotics.xi.lookup", self.LOOKUPS, asymptotics.xi_lookup,
                       xi, self.points, mode=asymptotics.EXACT,
                       check=lambda v: self._check_exact(v, prefix, alpha), tol=1e-12)


class Tables(Workload):
    """A fresh sieve and cofactor, three dense evaluations with their mean
    squares, and one classic distance over every prime <= N."""

    name = "tables-1e7"

    def __init__(self, rec, seed, threads, probe=False):
        super().__init__(rec, seed, threads, probe)
        self.n = PROBE_N if probe else 10**7
        char = lambda d: rec.op("constructions.character", 1,
                                constructions.kronecker_character, d)
        chi4 = rec.op("constructions.character", 1,
                      constructions.dirichlet_character, 4, 1)
        sqf = rec.op("constructions.squarefree", 1,
                     constructions.squarefree_restrict, chi4)
        da, db = DEG2_PAIRS[self.rng.integers(len(DEG2_PAIRS))]
        deg2 = rec.op("degree.spec", 1, degree.degree_d_spec, [char(da), char(db)])
        self.tables = ((chi4, "cm"), (sqf, "gm"), (deg2, "deg2"))
        df, dg = DISTANCE_PAIRS[self.rng.integers(len(DISTANCE_PAIRS))]
        one = lambda: rec.op("constructions.standard", 1,
                             constructions.standard_spec, "one")
        self.f = one() if df == 0 else char(df)
        self.g = one() if dg == 0 else char(dg)
        self.frozen_tables = oracles.frozen()["tables"][str(self.n)]
        self.frozen_distance = oracles.frozen()["distance"][str(self.n)]

    def describe(self) -> dict:
        return {"N": self.n, "tables": [s.name for s, _ in self.tables],
                "distance": [self.f.name, self.g.name]}

    def _check_totals(self, spec, table) -> float:
        got = oracles.integer_table_totals(table.values, self.n)
        want = tuple(self.frozen_tables[spec.name])
        if got != want:
            raise CheckFailed(f"{spec.name}: (sum, nonzero, squares) {got} != {want}")
        return 0.0

    def run_pass(self) -> None:
        rec, n = self.rec, self.n
        sieve = self.sieve_and_cofactor(n)
        for spec, tag in self.tables:
            with rec.unit():
                table = rec.op(f"core.evaluate.{tag}", n, core.evaluate, spec, sieve,
                               check=lambda t: self._check_totals(spec, t))
                squares = self.frozen_tables[spec.name][2]
                rec.op("core.mean_square", n, core.mean_square_sum, table, n,
                       check=lambda v: abs(v - squares))
                del table  # one table alive at a time, as in a CLI run
        want = self.frozen_distance[f"{self.f.name}|{self.g.name}"]
        with rec.unit():
            rec.op("metrics.distance", int(sieve.primes.size), metrics.distance_classic,
                   self.f, self.g, n, sieve=sieve, threads=self.threads,
                   check=lambda r: abs(r.total - want) / want, tol=1e-9)


class LocalAlgebra(Workload):
    """Seeded general-multiplicative pairs at limit 1e4: the quotient solve,
    dense quotient and inverse, their convolution, the determinant route, the
    absolute local series, and the degree-3 membership recursion."""

    name = "local-algebra"
    PAIRS = 8
    LIMIT = 10**4
    MAX_EXPONENT = 8  # of the quotient solve
    SPEC_EXPONENT = 13  # of the random specs: 2^13 <= LIMIT < 2^14
    SIGMA = 2.0
    Y = 50
    TRUNCATION = 12
    RECURSION_N = 7
    SAMPLED = 200

    def __init__(self, rec, seed, threads, probe=False):
        super().__init__(rec, seed, threads, probe)
        self.n = self.LIMIT
        npairs = 1 if probe else self.PAIRS
        seeds = [int(s) for s in self.rng.integers(0, 2**31, size=2 * npairs + 3)]
        rand = lambda s, kind, **kw: rec.op("randspecs.random_spec", 1,
                                            randspecs.random_spec, s,
                                            limit=self.n, kind=kind, **kw)
        gm = core.GENERAL_MULTIPLICATIVE
        self.pairs = [
            (rand(seeds[2 * i], gm, max_exponent=self.SPEC_EXPONENT),
             rand(seeds[2 * i + 1], gm, max_exponent=self.SPEC_EXPONENT))
            for i in range(npairs)
        ]
        self.members = [rand(s, core.COMPLETELY_MULTIPLICATIVE) for s in seeds[-3:]]
        self.spec_seeds = seeds
        self.primes = oracles.small_primes(50)
        self.oracle_primes = oracles.small_primes(math.isqrt(self.n) + 1)
        self.conv_pairs = sum(self.n // d for d in range(1, self.n + 1))
        self._expected = {}

    def describe(self) -> dict:
        return {"N": self.n, "pairs": len(self.pairs), "spec_seeds": self.spec_seeds,
                "primes": self.primes, "max_exponent": self.MAX_EXPONENT}

    def _check_reconvolution(self, f, g, q) -> float:
        # f * h = g at every solved prime power, from the scalar rules
        worst = 0.0
        for ls in q.local:
            p, c = ls.p, ls.coeffs
            for k in range(1, self.MAX_EXPONENT + 1):
                acc = c[k] + sum(complex(f.rule(p, k - j)) * c[j] for j in range(k))
                want = complex(g.rule(p, k))
                worst = max(worst, abs(acc - want) / max(1.0, abs(acc)))
        return worst

    def _rule_points(self, key, spec):
        """(points, values by the scalar rule): every prime power p^k with
        p <= sqrt N, and seeded sample points.  The pair's functions are the
        same every pass, so the rule is asked once per run."""
        got = self._expected.get(key)
        if got is None:
            pts, want = [], []
            for p in self.oracle_primes:
                pk, k = p, 1
                while pk <= self.n:
                    pts.append(pk)
                    want.append(complex(spec.rule(p, k)))
                    pk, k = pk * p, k + 1
            rng = np.random.default_rng(self.seed)
            ms, mvals = oracles.sampled_rule_values(spec, self.n, rng, self.SAMPLED,
                                                    self.oracle_primes)
            got = self._expected[key] = (np.concatenate([pts, ms]),
                                         np.concatenate([want, mvals]))
        return got

    def _check_rule_table(self, key, spec, table) -> float:
        pts, want = self._rule_points(key, spec)
        return _rel(table.values[pts], want)

    def _check_delta(self, key, ht, it, ct) -> float:
        # h * inv(h) = delta, relative to the divisor sum of |h(d)| |inv(n/d)|
        scale = self._expected.get(key)
        if scale is None:
            n = self.n
            a, b = np.abs(ht.values), np.abs(it.values)
            scale = np.zeros(n + 1)
            for d in range(1, n + 1):
                scale[d::d] += a[d] * b[1 : n // d + 1]
            self._expected[key] = scale
        dev = np.abs(ct.values[1:]) / np.maximum(1.0, scale[1:])
        dev[0] = abs(ct.values[1] - 1.0)
        return float(np.max(dev))

    def _check_determinants(self, q, got) -> float:
        want = [q.spec.value(p, k) for p in self.primes
                for k in range(1, self.MAX_EXPONENT + 1)]
        return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))

    def _check_local_series(self, q, rep) -> float:
        terms = [abs(q.spec.value(p, k)) / float(p) ** (k * self.SIGMA)
                 for p in self.primes for k in range(1, self.TRUNCATION + 1)]
        want = math.fsum(terms)
        return abs(rep.params["value"] - want) / want

    def run_pass(self) -> None:
        rec, n, P, K = self.rec, self.n, self.primes, self.MAX_EXPONENT
        sieve = self.sieve_and_cofactor(n)
        for i, (f, g) in enumerate(self.pairs):
            with rec.unit():
                q = rec.op("dirichlet.quotient", len(P) * (K + 1),
                           dirichlet.solve_quotient, f, g, P, K,
                           check=lambda q: self._check_reconvolution(f, g, q),
                           tol=1e-10)
                ht = rec.op("core.evaluate.quotient", n, core.evaluate, q.spec, sieve,
                            check=lambda t: self._check_rule_table((i, "h"), q.spec, t),
                            tol=1e-10)
                inv = rec.op("dirichlet.inverse", 1, dirichlet.dirichlet_inverse,
                             q.spec)
                it = rec.op("core.evaluate.quotient", n, core.evaluate, inv, sieve,
                            check=lambda t: self._check_rule_table((i, "inv"), inv, t),
                            tol=1e-10)
                rec.op("dirichlet.convolve", self.conv_pairs, dirichlet.convolve_table,
                       ht, it, check=lambda c: self._check_delta((i, "scale"), ht, it, c),
                       tol=1e-10)
                rec.op("dirichlet.determinant", len(P) * K,
                       lambda: [dirichlet.h_via_determinant(f, g, p, k)
                                for p in P for k in range(1, K + 1)],
                       check=lambda got: self._check_determinants(q, got), tol=1e-10)
                rec.op("metrics.local_series", len(P) * self.TRUNCATION,
                       metrics.quotient_abs_series, q, self.SIGMA, self.Y,
                       truncation=self.TRUNCATION,
                       check=lambda rep: self._check_local_series(q, rep), tol=1e-9)
        with rec.unit():
            member = rec.op("degree.spec", 1, degree.degree_d_spec, self.members)
            rec.op("degree.recursion", len(P) * self.RECURSION_N,
                   lambda: [degree.recursion_residual(member, p, m)
                            for p in P for m in range(self.RECURSION_N)],
                   check=max, tol=1e-9)


WORKLOADS = {w.name: w for w in (CharSum, ProfileDense, Tables, LocalAlgebra)}
