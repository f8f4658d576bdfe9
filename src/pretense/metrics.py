"""Distance and majorant series between multiplicative functions.

All quantities here are finite partial sums with a diagnostic attached, not
convergence proofs.  Prime-indexed series (the classic, beta and strong
distances) fold their terms over the primes of core.sieve_primes, BLOCK at a
time, by core.prime_sums; they get a fitted slope of their partials against
log log cutoff, and the slope threshold classifies the report as plateauing
or growing.  Local series over prime powers (the square and absolute
quotient series) instead truncate each inner k-sum at a declared depth and
apply a trailing ratio test, reporting a geometric tail bound when it passes
and a divergence flag when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FunctionSpec,
    UNIT_DISC_TOL,
    SieveIndex,
    ValueTable,
    build_sieve,
    checkpoint_positions,
    checkpointed_sums,
    evaluate,
    prime_sums,
    prime_values_of,
    sieve_primes,
    value_chunks,
)
from .dirichlet import capped_exponent
from .errors import InvalidArgumentError, OutOfRangeError

PLATEAU_SLOPE = 0.01
VERDICT_PLATEAU = "plateau (consistent with convergence)"
VERDICT_GROWING = "growing"
DEFAULT_TRUNCATION = 40


@dataclass(frozen=True)
class DistanceReport:
    """A checkpointed nonnegative series with its convergence diagnostic.

    kind is one of classic, beta, strong-beta-k, H-sigma, Hhat-Y-sigma,
    h-L2, h-L1.  params carries the defining parameters plus any per-prime
    status a local series produced.  partials are nondecreasing.
    """

    kind: str
    params: dict
    cutoffs: np.ndarray
    partials: np.ndarray
    tail_slope: Optional[float]
    verdict: str

    @property
    def total(self) -> float:
        return float(self.partials[-1]) if self.partials.size else 0.0


def fit_tail_slope(cutoffs: np.ndarray, partials: np.ndarray) -> Optional[float]:
    """Least-squares slope of the upper half of partials against log log x.

    None when fewer than two upper-half checkpoints exceed e (log log must
    be defined and the fit needs two points).
    """
    x = np.asarray(cutoffs, dtype=np.float64)
    y = np.asarray(partials, dtype=np.float64)
    half = x.size // 2
    x, y = x[half:], y[half:]
    keep = x > np.e
    x, y = x[keep], y[keep]
    if x.size < 2:
        return None
    u = np.log(np.log(x))
    if u[-1] == u[0]:
        return None
    return float(np.polyfit(u, y, 1)[0])


def fit_decay_exponent(cutoffs: np.ndarray, partials: np.ndarray) -> Optional[float]:
    """Exponent a of the growth rate dS/du ~ u^a, u = log log x, on the upper half.

    The increments of the partials per unit u between consecutive upper-half
    checkpoints are fitted, in log, against log u at the interval midpoints.
    Σ_p c/(p u_p^a) converges exactly when a < -1 (Σ 1/p up to x is u plus a
    constant), which the slope of fit_tail_slope cannot show at desk scale:
    for a = -2 that slope is about 2π²/u² and stays above PLATEAU_SLOPE until
    u > 44.  Nonpositive increments carry no rate and are dropped; None when
    fewer than two positive increments remain.
    """
    x = np.asarray(cutoffs, dtype=np.float64)
    y = np.asarray(partials, dtype=np.float64)
    half = x.size // 2
    x, y = x[half:], y[half:]
    keep = x > np.e
    x, y = x[keep], y[keep]
    u = np.log(np.log(x))
    rate = np.diff(y) / np.diff(u)
    mid = 0.5 * (u[1:] + u[:-1])
    pos = rate > 0
    if int(np.sum(pos)) < 2:
        return None
    return float(np.polyfit(np.log(mid[pos]), np.log(rate[pos]), 1)[0])


def _verdict(slope: Optional[float]) -> str:
    if slope is None:
        return "no slope (too few checkpoints)"
    return VERDICT_PLATEAU if slope < PLATEAU_SLOPE else VERDICT_GROWING


def _series_report(kind, params, cutoffs, sums):
    partials = sums.real
    if not np.all(np.isfinite(partials)):
        raise OutOfRangeError(f"{kind} partials are not finite")
    slope = fit_tail_slope(cutoffs, partials)
    return DistanceReport(
        kind=kind,
        params=params,
        cutoffs=cutoffs,
        partials=partials,
        tail_slope=slope,
        verdict=_verdict(slope),
    )


def _require_unit_disc(label: str, spec: FunctionSpec, ps, vals) -> None:
    bad = np.abs(vals) > 1.0 + UNIT_DISC_TOL
    if np.any(bad):
        p = int(ps[np.argmax(bad)])
        raise InvalidArgumentError(
            f"{label}={spec.name!r} leaves the unit disc at p={p}"
        )


def distance_classic(
    f: FunctionSpec,
    g: FunctionSpec,
    cutoff: float,
    checkpoints=None,
    sieve: Optional[SieveIndex] = None,
    *,
    threads=None,
) -> DistanceReport:
    """Squared prime distance: partials of Σ_{p≤x} (1 − Re f(p) conj(g(p)))/p.

    threads is ignored; it stays only because bench/workloads.py passes it."""
    return _weighted_distance("classic", f, g, 1.0, cutoff, checkpoints, sieve)


def distance_beta(
    f: FunctionSpec,
    g: FunctionSpec,
    beta: float,
    cutoff: float,
    checkpoints=None,
    sieve: Optional[SieveIndex] = None,
) -> DistanceReport:
    """Squared beta-weighted distance: Σ_{p≤x} (1 − Re f(p) conj(g(p)))/p^β."""
    return _weighted_distance("beta", f, g, beta, cutoff, checkpoints, sieve)


def _weighted_distance(kind, f, g, beta, cutoff, checkpoints, sieve):
    # the classic distance is the beta distance at β = 1, without a beta param
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise InvalidArgumentError(f"beta must be in (0, 1], got {beta}")
    cutoff = float(cutoff)
    if cutoff < 2:
        raise InvalidArgumentError("cutoff must be >= 2")

    def terms_of(ps):
        fp, gp = prime_values_of(f, ps), prime_values_of(g, ps)
        _require_unit_disc("f", f, ps, fp)
        _require_unit_disc("g", g, ps, gp)
        return (1.0 - (fp * np.conj(gp)).real) / ps.astype(np.float64) ** beta

    params = {"f": f.name, "g": g.name, "cutoff": cutoff}
    if kind == "beta":
        params["beta"] = beta
    return _series_report(kind, params, *prime_sums(
        terms_of, sieve_primes(cutoff, sieve), cutoff, checkpoints))


def distance_strong(
    f: FunctionSpec,
    g: FunctionSpec,
    beta: float,
    k: int,
    cutoff: float,
    checkpoints=None,
    sieve: Optional[SieveIndex] = None,
) -> DistanceReport:
    """Strong distance partials: Σ_{p≤x} Σ_{j=1}^k |f(p^j) − g(p^j)|/p^{jβ}.

    No unit-disc requirement; β may exceed 1.
    """
    beta = float(beta)
    if beta <= 0:
        raise InvalidArgumentError(f"beta must be > 0, got {beta}")
    k = capped_exponent(int(k))
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    cutoff = float(cutoff)
    if cutoff < 2:
        raise InvalidArgumentError("cutoff must be >= 2")

    def terms_of(ps):
        pf = ps.astype(np.float64)
        ft, gt = f.power_table(ps, k), g.power_table(ps, k)
        # p^{jβ} may overflow to inf, which makes its finite term 0
        with np.errstate(over="ignore"):
            return sum(np.abs(ft[j] - gt[j]) / pf ** (j * beta) for j in range(1, k + 1))

    params = {"f": f.name, "g": g.name, "beta": beta, "k": k, "cutoff": cutoff}
    return _series_report("strong-beta-k", params, *prime_sums(
        terms_of, sieve_primes(cutoff, sieve), cutoff, checkpoints))


# ---------------------------------------------------------------------------
# truncated local series over prime powers

def _spec_of(h) -> FunctionSpec:
    # accept either a FunctionSpec or anything carrying one (QuotientSpec)
    return h if isinstance(h, FunctionSpec) else h.spec


def _local_term(num: float, p: int, e: float) -> float:
    """num / p^e; where p^e overflows a float, num · p^{−e}, as p^{−e}
    underflows to a subnormal or 0 where p^e raises."""
    try:
        return num / float(p) ** e
    except OverflowError:
        return num * float(p) ** -e


def _truncated_local_report(
    kind: str,
    h: FunctionSpec,
    sigma: float,
    ps,
    K: int,
    power: int,
    k_start: int,
    extra_params: dict,
) -> DistanceReport:
    """Σ_p Σ_k |h(p^k)|^power / p^{kσ} with the inner sum truncated at K.

    The trailing ratio t_K/t_{K−1} decides each prime's flag: below 1 the
    tail is bounded by the geometric series t_K ρ/(1−ρ); a trailing pair of
    zeros counts as converged with zero tail; anything else is flagged
    divergent.  A divergent flag is conservative: it means the ratio test
    failed at depth K, not a proof of divergence.
    """
    if capped_exponent(K) < 2:
        raise InvalidArgumentError("truncation depth must be >= 2")
    rows = []
    partial_list = []
    running = 0.0
    diverged = []
    tail_total = 0.0
    for p, hs in zip(ps.tolist(), h.power_table(ps, K).T.tolist()):
        tk = [_local_term(abs(hs[k]) ** power, p, k * sigma)
              for k in range(k_start, K + 1)]
        inner = float(sum(tk))
        t_last, t_prev = tk[-1], tk[-2]
        if t_prev == 0.0 and t_last == 0.0:
            ok, tail = True, 0.0
        elif t_prev > 0.0 and t_last / t_prev < 1.0:
            rho = t_last / t_prev
            ok, tail = True, t_last * rho / (1.0 - rho)
        else:
            ok, tail = False, math.inf
        if not ok:
            diverged.append(p)
        tail_total += tail
        running += inner
        rows.append((p, inner, ok, tail))
        partial_list.append(running)
    converged = not diverged
    params = dict(extra_params)
    params.update(
        {
            "h": h.name,
            "sigma": sigma,
            "truncation": K,
            "value": running,
            "converged": converged,
            "tail_bound": tail_total if converged else math.inf,
            "diverged_primes": diverged,
            "prime_status": rows,
        }
    )
    cutoffs = ps.astype(np.float64)
    partials = np.asarray(partial_list, dtype=np.float64)
    slope = fit_tail_slope(cutoffs, partials)
    if converged:
        verdict = f"inner sums converged (tail bound {tail_total:.6g})"
    else:
        verdict = "divergent at p in {" + ", ".join(str(p) for p in diverged) + "}"
    return DistanceReport(
        kind=kind,
        params=params,
        cutoffs=cutoffs,
        partials=partials,
        tail_slope=slope,
        verdict=verdict,
    )


def quotient_square_series(
    h, sigma: float, truncation: int = DEFAULT_TRUNCATION
) -> DistanceReport:
    """Σ_{p ≤ 4^{1/σ}} Σ_{k≥0} |h(p^k)|²/p^{kσ}, inner sums truncated.

    The prime range 4^{1/σ} is part of the definition and is taken
    literally; for σ > 2 it is empty and the value is 0.
    """
    sigma = float(sigma)
    if sigma <= 0:
        raise InvalidArgumentError(f"sigma must be > 0, got {sigma}")
    spec = _spec_of(h)
    cutoff = 4.0 ** (1.0 / sigma)
    ps = sieve_primes(cutoff) if cutoff >= 2.0 else np.empty(0, dtype=np.int64)
    return _truncated_local_report(
        "H-sigma", spec, sigma, ps, truncation, power=2, k_start=0,
        extra_params={"prime_cutoff": cutoff},
    )


def quotient_abs_series(
    h, sigma: float, Y: float, truncation: int = DEFAULT_TRUNCATION
) -> DistanceReport:
    """Σ_{p≤Y} Σ_{k≥1} |h(p^k)|/p^{kσ}, inner sums truncated at the declared depth."""
    sigma = float(sigma)
    if sigma <= 0:
        raise InvalidArgumentError(f"sigma must be > 0, got {sigma}")
    Y = float(Y)
    if Y < 2:
        raise InvalidArgumentError(f"Y must be >= 2, got {Y}")
    spec = _spec_of(h)
    ps = sieve_primes(Y)
    return _truncated_local_report(
        "Hhat-Y-sigma", spec, sigma, ps, truncation, power=1, k_start=1,
        extra_params={"Y": Y},
    )


def h_majorant_series(
    h,
    sigma: float,
    N: int,
    power: str = "L2",
    sieve: Optional[SieveIndex] = None,
    checkpoints=None,
) -> DistanceReport:
    """Dense majorant partials Σ_{n≤x} |h(n)|^{1 or 2} / n^σ for x up to N."""
    if power not in ("L1", "L2"):
        raise InvalidArgumentError("power must be L1 or L2")
    sigma = float(sigma)
    N = int(N)
    if N < 1:
        raise InvalidArgumentError("N must be >= 1")
    spec = _spec_of(h)
    if isinstance(h, ValueTable):
        table = h
        if table.limit < N:
            raise OutOfRangeError(f"table covers [1,{table.limit}], need {N}")
    else:
        if sieve is None:
            sieve = build_sieve(N)
        table = evaluate(spec, sieve, N)
    params = {"h": spec.name, "sigma": sigma, "N": N, "power": power}
    cutoffs, positions = checkpoint_positions(checkpoints, float(N), "cutoff")
    with np.errstate(all="ignore"):
        mags = ((a, np.abs(v)) for a, v in value_chunks(table, N))
        w = ((mag if power == "L1" else mag * mag)
             / np.arange(a, a + mag.size, dtype=np.float64)**sigma for a, mag in mags)
        sums = checkpointed_sums(w, positions)
    return _series_report("h-L2" if power == "L2" else "h-L1", params, cutoffs, sums)


def h2_envelope(beta: float, dist_beta_sq: float) -> float:
    """The quotient-majorant envelope exp(2 (1 − 2^{−β})^{-1} · 𝔻_β²)."""
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise InvalidArgumentError(f"beta must be in (0, 1], got {beta}")
    return float(np.exp(2.0 / (1.0 - 2.0**-beta) * dist_beta_sq))
