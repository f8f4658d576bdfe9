"""Named verification bundles behind the `verify` subcommand.

Each bundle runs a fixed list of checks at the declared desk scale and
returns CheckResult rows.  Outputs contain no timestamps or hostnames: a
bundle's artifacts are a function of its name and seed alone, and that
`--threads` leaves them byte-identical is itself one of the checks.

A FAIL row is a finding, not a crash: growth-band checks report whatever
exponent the run measured, and the row text carries the number so a failed
band is diagnosable from the table alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .asymptotics import (
    GrowthFit,
    growth_fit,
    mean_square,
    quotient_identity_check,
    l_truncation,
    running_max_fit,
    xi_from_sums,
    xi_roundtrip_residual,
    XiSeries,
)
from .constructions import (
    dirichlet_character,
    euler_phi,
    optimality_twist,
    phase_sum_partials,
    sparse_dyadic,
    squarefree_restrict,
    standard_spec,
)
from .core import (
    COMPLETELY_MULTIPLICATIVE,
    FunctionSpec,
    GENERAL_MULTIPLICATIVE,
    PartialSumSeries,
    build_sieve,
    evaluate,
    geometric_checkpoints,
    json_text,
    partial_sums,
    running_max,
)
from .degree import (
    degree_d_spec,
    perturbed_member,
    q_poly,
    q_to_r,
    r_poly,
    recursion_residual,
)
from .dirichlet import (
    convolve_table,
    determinant,
    dirichlet_inverse,
    h_via_determinant,
    solve_quotient,
)
from .errors import InvalidArgumentError
from .metrics import (
    distance_beta,
    distance_classic,
    fit_decay_exponent,
    fit_tail_slope,
    h2_envelope,
    h_majorant_series,
    quotient_square_series,
)
from .randspecs import random_pair_sparse_diff, random_spec

DEFAULT_SEED = 1729

# zeta(2) frozen from an independent Euler-Maclaurin evaluation (the test
# suite re-derives it); used as the truncation reference value
ZETA2 = 1.6449340668482264
# criterion 12: bound on the Euler-Maclaurin residual of L_1e5(2); the
# first omitted term, 1/(30 N^5), is about 3e-27
EM_RESID_MAX = 1e-12

# criterion 08: growth band of the running maximum of Σ μ²(n)χ(n), 1/4 ± 0.1
SQUAREFREE_BAND = (0.15, 0.35)
# criterion 10(a): increments of D_β² per unit log log x must fall like
# (log log x)^a with a at most this; the series converges exactly when a < -1
TWIST_DECAY_MAX = -1.5
# criterion 10(c): growth band of the twisted partial sums
TWIST_GROWTH_BAND = (0.5, 0.8)


@dataclass(frozen=True)
class CheckResult:
    bundle: str
    name: str
    passed: bool
    detail: str

    def row(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.bundle}:{self.name}  {self.detail}"


def _alternating_spec() -> FunctionSpec:
    """f(n) = +1 for odd n, -1 for even n: f is -1 at every power of 2."""
    return FunctionSpec(
        name="alternating",
        kind=GENERAL_MULTIPLICATIVE,
        prime_values=lambda ps: np.where(ps == 2, -1.0, 1.0).astype(np.complex128),
        powers=lambda p, c, k: [-1.0 if p == 2 else 1.0] * (k + 1 - len(c)),
        bounded_by_one=True,
    )


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


# ---------------------------------------------------------------------------
# bundles

def _thm1(seed: int) -> List[CheckResult]:
    """Quotient arithmetic and the quotient-majorant envelope."""
    out = []
    sv = build_sieve(10**4)

    # criterion 1: reconvolving the quotient recovers g
    worst = 0.0
    for i in range(20):
        kind = COMPLETELY_MULTIPLICATIVE if i < 10 else GENERAL_MULTIPLICATIVE
        f = random_spec(seed * 100 + 2 * i, limit=10**4, kind=kind)
        g = random_spec(seed * 100 + 2 * i + 1, limit=10**4, kind=kind)
        # tabulated draws stop at exponent 13, enough for 2^13 < 1e4
        q = solve_quotient(f, g, primes=(2, 3, 5, 7), max_exponent=13)
        conv = convolve_table(evaluate(f, sv), evaluate(q.spec, sv))
        worst = max(worst, float(np.max(np.abs(conv.values - evaluate(g, sv).values))))
    out.append(CheckResult(
        "thm1", "quotient-reconvolution",
        worst <= 1e-10,
        f"max |(f*h) - g| = {worst:.3e} over 20 seeded pairs on [1,1e4] (need <= 1e-10)",
    ))

    # criterion 4: dense L2 majorant under the distance envelope
    worst_margin = None
    ok4 = True
    for i in range(20):
        f, g, diffp = random_pair_sparse_diff(seed * 200 + i, limit=10**4, ndiff=6)
        q = solve_quotient(f, g, primes=diffp, max_exponent=14)
        ht = evaluate(q.spec, sv)
        for beta in (0.25, 0.5, 1.0):
            dsq = distance_beta(f, g, beta, 10**4, sieve=sv).total
            lhs = h_majorant_series(ht, beta, 10**4, power="L2").total
            env = h2_envelope(beta, dsq)
            margin = env - lhs
            ok4 = ok4 and lhs <= env
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    out.append(CheckResult(
        "thm1", "majorant-envelope",
        ok4,
        f"sum |h(n)|^2/n^beta <= exp(2(1-2^-beta)^-1 D_beta^2) for 20 pairs x "
        f"beta in {{0.25, 0.5, 1}}; smallest slack {_fmt(worst_margin)}",
    ))

    # criterion 6: h * inverse(h) = delta, and inverse of inverse is h
    delta_t = evaluate(standard_spec("delta"), sv)
    worst6 = 0.0
    for i in range(20):
        h = random_spec(seed * 300 + i, limit=10**4, kind=GENERAL_MULTIPLICATIVE)
        hinv = dirichlet_inverse(h)
        ht = evaluate(h, sv)
        conv = convolve_table(ht, evaluate(hinv, sv))
        worst6 = max(worst6, float(np.max(np.abs(conv.values - delta_t.values))))
        back = evaluate(dirichlet_inverse(hinv), sv)
        worst6 = max(worst6, float(np.max(np.abs(back.values - ht.values))))
    out.append(CheckResult(
        "thm1", "dirichlet-inverse",
        worst6 <= 1e-10,
        f"max |h*inv(h) - delta| and |inv(inv(h)) - h| = {worst6:.3e} "
        f"over 20 seeded specs (need <= 1e-10)",
    ))
    return out


def _thm2(seed: int) -> List[CheckResult]:
    """Normalized-sum convolution machinery and series diagnostics."""
    out = []
    sv = build_sieve(10**4)
    grid = geometric_checkpoints(10, 10**4)

    # criterion 11, roundtrip
    f = random_spec(seed * 400, limit=10**4)
    g = random_spec(seed * 400 + 1, limit=10**4)
    q = solve_quotient(f, g, primes=(2, 3, 5, 7), max_exponent=14)
    ht = evaluate(q.spec, sv)
    hinv_t = evaluate(dirichlet_inverse(q.spec), sv)
    sf = partial_sums(evaluate(f, sv), grid)
    xi = xi_from_sums(sf, 0.5)
    resid = max(
        xi_roundtrip_residual(ht, hinv_t, xi, x)
        for x in (100.0, 1234.5, 5000.0, 9999.0)
    )
    out.append(CheckResult(
        "thm2", "inversion-roundtrip",
        resid <= 1e-8,
        f"max relative residual of the inversion identity = {resid:.3e} "
        f"(exact mode, x <= 1e4, need <= 1e-8)",
    ))

    # criterion 11, mean squares
    T = 10**4
    t = np.geomspace(1.0, float(T), 160)
    ms1 = mean_square(
        XiSeries(alpha=0.0, checkpoints=t, samples=np.ones_like(t, dtype=complex)), T
    )
    err1 = abs(ms1.value - (T - 1))
    ok_const = err1 <= ms1.error_estimate + 1e-9
    ms2 = mean_square(
        XiSeries(alpha=0.0, checkpoints=t, samples=(t**-0.25).astype(complex)), T
    )
    exact2 = 2.0 * (np.sqrt(T) - 1.0)
    rel2 = abs(ms2.value - exact2) / exact2
    out.append(CheckResult(
        "thm2", "mean-square",
        ok_const and rel2 <= 0.02,
        f"constant profile off by {err1:.3e} (bound {_fmt(ms1.error_estimate)}); "
        f"t^-1/4 profile within {_fmt(100 * rel2)}% of 2(sqrt(T)-1) (need <= 2%)",
    ))

    # criterion 12
    sv5 = build_sieve(10**5)
    one5 = evaluate(standard_spec("one"), sv5)
    lt = l_truncation(one5, 2.0 + 0.0j)
    err_z = abs(lt.value - ZETA2)
    # Euler-Maclaurin: L_N(2) = zeta(2) - 1/N + 1/(2N^2) - 1/(6N^3) + O(N^-5).
    # err_z < 1e-5 alone passes by only 5e-11; this check implies it.
    n = float(lt.N)
    em_resid = abs(lt.value - (ZETA2 - 1 / n + 1 / (2 * n * n) - 1 / (6 * n**3)))
    alt = _alternating_spec()
    qh = solve_quotient(alt, standard_spec("one"), primes=(2, 3, 5), max_exponent=18)
    idc = quotient_identity_check(
        evaluate(alt, sv5), one5, evaluate(qh.spec, sv5), 3.0 + 0.0j
    )
    ok12 = err_z < 1e-5 and em_resid <= EM_RESID_MAX and bool(idc.ok)
    out.append(CheckResult(
        "thm2", "dirichlet-series",
        ok12,
        f"|L_1e5(2,1) - zeta(2)| = {err_z:.3e} (need < 1e-5); Euler-Maclaurin "
        f"residual {em_resid:.3e} (need <= {EM_RESID_MAX:.0e}); identity residual "
        f"{idc.residual:.3e} vs combined bound {idc.combined_bound:.3e}",
    ))
    return out


def _thm3(seed: int) -> List[CheckResult]:
    """Determinant route to the quotient, and character-sum cancellation."""
    out = []

    # criterion 2
    worst2 = 0.0
    small = build_sieve(97)
    for i in range(20):
        f = random_spec(seed * 500 + 2 * i, limit=97,
                        kind=GENERAL_MULTIPLICATIVE, max_exponent=9)
        g = random_spec(seed * 500 + 2 * i + 1, limit=97,
                        kind=GENERAL_MULTIPLICATIVE, max_exponent=9)
        q = solve_quotient(f, g, primes=(2, 3), max_exponent=9)
        for p in small.primes:
            for n in range(1, 9):
                a = h_via_determinant(f, g, int(p), n)
                b = q.spec.value(int(p), n)
                worst2 = max(worst2, abs(a - b))
    out.append(CheckResult(
        "thm3", "determinant-route",
        worst2 <= 1e-10,
        f"max |h_via_determinant - solver| = {worst2:.3e} over 20 pairs, "
        f"p <= 97, n <= 8 (need <= 1e-10)",
    ))

    # criterion 7
    sv6 = build_sieve(10**6)
    grid = geometric_checkpoints(10**3, 10**6)
    worst_ratio = 0.0
    worst_exp = None
    ok7 = True
    for qmod in range(3, 21):
        for index in range(1, euler_phi(qmod)):
            chi = dirichlet_character(qmod, index)
            s, peaks = running_max(evaluate(chi, sv6), np.append(grid, 10**6))
            running = float(peaks[-1])
            ok7 = ok7 and running <= qmod
            worst_ratio = max(worst_ratio, running / qmod)
            fit = growth_fit(PartialSumSeries(grid, s.sums[:-1]))
            ok7 = ok7 and fit.exponent < 0.1
            if worst_exp is None or fit.exponent > worst_exp:
                worst_exp = fit.exponent
    out.append(CheckResult(
        "thm3", "character-cancellation",
        ok7,
        f"all nonprincipal chi mod q <= 20: max |S|/q = {_fmt(worst_ratio)} "
        f"(need <= 1), worst fitted exponent {_fmt(worst_exp)} (need < 0.1)",
    ))
    return out


def _thm4(seed: int) -> List[CheckResult]:
    """Degree-d membership machinery and the degree-2 growth harness."""
    out = []
    rng = np.random.default_rng(seed)
    small = build_sieve(97)

    # criterion 5: determinants vanish beyond d
    worst_det = 0.0
    specs = []
    for d in (1, 2, 3, 4):
        for i in range(5):
            cs = [
                random_spec(seed * 600 + 97 * d + 10 * i + j, limit=97)
                for j in range(d)
            ]
            specs.append(degree_d_spec(cs))
    for spec in specs:
        d = spec.degree
        for p in small.primes:
            for k in range(d + 1, d + 5):
                worst_det = max(worst_det, abs(determinant(spec, int(p), k)))
    out.append(CheckResult(
        "thm4", "determinant-vanishing",
        worst_det <= 1e-9,
        f"max |D_f(k,p)| = {worst_det:.3e} for k in [d+1,d+4], d <= 4, "
        f"p <= 97, 20 seeded draws (need <= 1e-9)",
    ))

    # criterion 5: recursion residual on genuine members
    worst_res = 0.0
    for spec in specs:
        for p in (2, 13, 97):
            for n in range(0, 7):
                worst_res = max(worst_res, recursion_residual(spec, p, n))
    out.append(CheckResult(
        "thm4", "member-recursion",
        worst_res <= 1e-9,
        f"max depth-d recursion residual = {worst_res:.3e} on members (need <= 1e-9)",
    ))

    # criterion 5: q/r roundtrip
    worst_qr = 0.0
    for d in range(1, 7):
        for _ in range(10):
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            qv = [q_poly(k, x) for k in range(1, d + 1)]
            rv = np.array([r_poly(k, x) for k in range(1, d + 1)])
            worst_qr = max(worst_qr, float(np.max(np.abs(q_to_r(qv) - rv))))
    out.append(CheckResult(
        "thm4", "qr-roundtrip",
        worst_qr <= 1e-12,
        f"max |q_to_r(q(x)) - r(x)| = {worst_qr:.3e} for d <= 6 (need <= 1e-12)",
    ))

    # criterion 5: the check rejects a perturbed non-member
    divisor = degree_d_spec([standard_spec("one"), standard_spec("one")])
    bad = perturbed_member(divisor, 5, 2, 0.1)
    witness = max(recursion_residual(bad, 5, n) for n in range(1, 4))
    out.append(CheckResult(
        "thm4", "perturbed-witness",
        witness > 1e-3,
        f"perturbing f(5^2) by 0.1 lifts the residual to {_fmt(witness)} (need > 1e-3)",
    ))

    # degree-2 growth harness: strong-distance-finite pair, bounded exponent gap
    beta = 0.5
    chi4 = dirichlet_character(4, 1)
    chi3 = dirichlet_character(3, 1)
    f2 = degree_d_spec([chi4, chi3])
    g2 = degree_d_spec([sparse_dyadic(chi4, [2, 3]), chi3])
    sv7 = build_sieve(10**7)
    grid7 = geometric_checkpoints(10**4, 10**7)
    fit_f = growth_fit(partial_sums(evaluate(f2, sv7), grid7))
    fit_g = growth_fit(partial_sums(evaluate(g2, sv7), grid7))
    bound = max(fit_f.exponent, beta) + 0.1
    out.append(CheckResult(
        "thm4", "degree2-growth",
        fit_g.exponent <= bound,
        f"alpha_g = {_fmt(fit_g.exponent)} <= max(alpha_f = {_fmt(fit_f.exponent)}, "
        f"beta = {beta}) + 0.1 over [1e4,1e7]",
    ))
    return out


def _remark1(seed: int) -> List[CheckResult]:
    """The exactly solvable quotient with exponentially growing local values."""
    out = []
    alt = _alternating_spec()
    q = solve_quotient(alt, standard_spec("one"), primes=(2, 3, 5), max_exponent=41)
    worst = 0.0
    exact = True
    for k in range(0, 21):
        got = q.spec.value(2, k)
        want = float(2**k)
        exact = exact and got == want
        worst = max(worst, abs(got - want))
    out.append(CheckResult(
        "remark1", "h-powers-of-two",
        exact,
        f"h(2^k) = 2^k exactly for k <= 20 (max deviation {worst:.3e})",
    ))

    rep = quotient_square_series(q.spec, 1.0)
    flagged = (not rep.params["converged"]) and 2 in rep.params["diverged_primes"]
    out.append(CheckResult(
        "remark1", "square-series-divergence",
        flagged,
        f"quotient square series at sigma = 1: verdict {rep.verdict!r}",
    ))
    return out


def _span(grid) -> str:
    """'1e3,1e7' for a grid from 1000 to 10**7."""
    return ",".join(
        f"{float(v):.0e}".replace("e+0", "e").replace("e+", "e")
        for v in (grid[0], grid[-1])
    )


def squarefree_growth_row(name: str, table, grid) -> CheckResult:
    """Criterion 08 row: running-max growth exponent of table's sums in the band."""
    fit = running_max_fit(table, grid)
    lo, hi = SQUAREFREE_BAND
    return CheckResult(
        "squarefree", name,
        lo <= fit.exponent <= hi,
        f"fitted exponent of max_(n<=x) |S(n)| over [{_span(grid)}] = "
        f"{_fmt(fit.exponent)} (need in [{lo}, {hi}], i.e. 1/4 +- 0.1)",
    )


def twist_distance_row(cutoffs, partials) -> CheckResult:
    """Criterion 10(a) row: the partials converge at a rate a <= TWIST_DECAY_MAX."""
    decay = fit_decay_exponent(cutoffs, partials)
    slope = fit_tail_slope(cutoffs, partials)
    return CheckResult(
        "counterexample", "twist-distance-plateau",
        decay is not None and decay <= TWIST_DECAY_MAX,
        f"D_beta(f,g)^2 increments per unit loglog x decay like (loglog x)^a "
        f"with a = {_fmt(decay)} (need <= {TWIST_DECAY_MAX}; converges iff a < -1); "
        f"tail slope {_fmt(slope)}, total {_fmt(partials[-1])}",
    )


def twisted_growth_row(fit: GrowthFit, grid) -> CheckResult:
    """Criterion 10(c) row: fitted exponent of the twisted sums in the band."""
    lo, hi = TWIST_GROWTH_BAND
    return CheckResult(
        "counterexample", "twisted-sum-growth",
        lo <= fit.exponent <= hi,
        f"fitted exponent of S_g over [{_span(grid)}] = {_fmt(fit.exponent)} "
        f"(need in [{lo}, {hi}])",
    )


def _counterexample(seed: int) -> List[CheckResult]:
    """Sparse-interval flooding and the calibrated-twist growth probe.

    Criterion 10 twists chi4, the real character mod 4, whose partial sums
    are bounded (exponent 0): as much cancellation as possible.  The twist
    g(p) = e(ω_p θ_p) chi4(p), θ_p = 1/(p^{(1-β)/2} log log p), β = 1/2,
    stays at finite β-distance: each term (1 - cos 2πθ_p)/p^β is about
    2π²/(p (log log p)²), and Σ 1/(p (log log p)^b) converges exactly when
    b > 1.  Row (a) therefore fits the decay of the increments per unit
    log log x and needs an exponent <= -1.5 (measured about -1.97); the raw
    tail slope, about 2π²/(log log x)², cannot fall below PLATEAU_SLOPE
    before log log x > 44.  Row (b): the sign rule makes ω_p chi4(p) = 1
    at every prime p >= 5, so the τ = 1 phase sum Σ 1/(p log log p) drifts
    upward without bound.  Row (c): Σ θ_p/p^s reaches its abscissa at
    s = (1 + β)/2 = 0.75, so S_g grows like x^{0.75}, inside [0.5, 0.8]
    (measured about 0.78).  A base without cancellation shows nothing:
    twisting the all-ones function leaves Σ |1 - g(p)|/p finite, so g has
    a nonzero mean value and S_g is of order x (measured about 1.02).
    """
    out = []
    sv7 = build_sieve(10**7)

    # criterion 9
    chi4 = dirichlet_character(4, 1)
    f = sparse_dyadic(chi4, [3, 4])
    dist = distance_classic(f, chi4, 10**7, sieve=sv7)
    x9 = float(2**17)
    table = evaluate(f, sv7, 2**17)
    s_at = complex(partial_sums(table, [x9]).sums[0])
    floor9 = 0.05 * x9 / np.log(x9)
    ok9 = dist.total <= 1.0 and abs(s_at) >= floor9
    out.append(CheckResult(
        "counterexample", "sparse-dyadic-flood",
        ok9,
        f"D(f,chi)^2 = {_fmt(dist.total)} (need <= 1.0); |S_f(2^17)| = "
        f"{_fmt(abs(s_at))} vs floor {_fmt(floor9)}",
    ))

    # criterion 10
    g = optimality_twist(chi4, beta=0.5, diagnostics_cutoff=10**7, sieve=sv7)
    grid_slope = geometric_checkpoints(10**3, 10**7)
    rep_a = distance_beta(chi4, g, 0.5, 10**7, checkpoints=grid_slope, sieve=sv7)
    out.append(twist_distance_row(rep_a.cutoffs, rep_a.partials))

    pp = phase_sum_partials(chi4, tau=1.0, cutoff=10**7,
                            checkpoints=grid_slope, sieve=sv7)
    im = pp.sums.imag
    slope_b = fit_tail_slope(pp.checkpoints, im)
    ok_b = bool(np.all(np.diff(im) > 0)) and slope_b is not None and slope_b > 0
    out.append(CheckResult(
        "counterexample", "phase-sum-growth",
        ok_b,
        f"Im partials strictly increasing with tail slope {_fmt(slope_b)} (need > 0)",
    ))

    grid_c = geometric_checkpoints(10**4, 10**7)
    fit_g = growth_fit(partial_sums(evaluate(g, sv7), grid_c))
    out.append(twisted_growth_row(fit_g, grid_c))
    return out


def _squarefree(seed: int) -> List[CheckResult]:
    """Squarefree restriction: growth band and the exact local quotient.

    For a real nonprincipal character chi, Σ μ²(n)chi(n) n^{-s} =
    L(s,chi)/L(2s,chi²), and chi² is principal, so the series has poles at
    s = ρ/2 for the zeros ρ of ζ.  Those lie on Re s = 1/4, so the sums are
    not O(x^{1/4-ε}).  Writing S(x) = Σ_{d≤√x} μ(d)chi(d)² A(x/d²), with A
    the bounded sum of chi, gives O(x^{1/2}); the conjectured order is
    x^{1/4+ε}.  The sums change sign, so the row fits the running maximum
    max_{n≤x} |S(n)| (the quantity criterion 07 bounds for chi itself) and
    asks for 1/4 ± 0.1, the slack of thm4's degree2-growth row.  Measured
    over [1e3, 1e7]: about 0.22 (mod 4) and 0.25 (mod 3); chi4 itself
    gives 0, Liouville about 0.51 and Möbius about 0.49.
    """
    out = []
    sv7 = build_sieve(10**7)
    grid = geometric_checkpoints(10**3, 10**7)
    for qmod in (4, 3):
        chit = squarefree_restrict(dirichlet_character(qmod, 1))
        out.append(squarefree_growth_row(
            f"restricted-growth-mod-{qmod}", evaluate(chit, sv7), grid))

    ok_local = True
    bad_p = None
    for qmod in (4, 3):
        chi = dirichlet_character(qmod, 1)
        chit = squarefree_restrict(chi)
        ps = [int(p) for p in build_sieve(10**3).primes if qmod % int(p) != 0]
        q = solve_quotient(chi, chit, primes=tuple(ps), max_exponent=8)
        for loc in q.local:
            want = [1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            got = list(loc.coeffs)
            if got != [complex(w) for w in want]:
                ok_local = False
                bad_p = (qmod, loc.p)
    out.append(CheckResult(
        "squarefree", "local-quotient-exact",
        ok_local,
        "local quotient series off the conductor is exactly (1, 0, -1, 0, ...) "
        "for p <= 1e3" + ("" if ok_local else f"; first failure {bad_p}"),
    ))
    return out


BUNDLES: dict = {
    "thm1": _thm1,
    "thm2": _thm2,
    "thm3": _thm3,
    "thm4": _thm4,
    "remark1": _remark1,
    "counterexample": _counterexample,
    "squarefree": _squarefree,
}


def run_bundle(name: str, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    fn: Optional[Callable] = BUNDLES.get(name)
    if fn is None:
        raise InvalidArgumentError(
            f"unknown bundle {name!r}; choose from {sorted(BUNDLES)}"
        )
    return fn(int(seed))


def bundle_json(name: str, seed: int, results: List[CheckResult]) -> str:
    return json_text({
        "bundle": name,
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "results": results,
    })
