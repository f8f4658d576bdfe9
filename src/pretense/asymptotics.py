"""Growth-exponent fits, the normalized-sum convolution machinery, and
truncated Dirichlet-series diagnostics.

The growth fit is the toolkit's operational stand-in for an exponent alpha
with S_f(x) of order x^alpha: a least-squares slope of log |S| against log x
over a geometric grid.  Checkpoints where the sum nearly vanishes carry no
exponent information and are dropped (and counted) rather than clamped; the
fit degenerates only when fewer than two informative points remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    GRID_RATIO,
    PartialSumSeries,
    ValueTable,
    _value_chunks,
    checkpointed_sums,
    running_max,
)
from .errors import (
    DegenerateFitError,
    InvalidArgumentError,
    OutOfRangeError,
)

ZERO_SUM_FLOOR = 1e-9

# geometric_checkpoints floors its grid to integers, which can push a single
# step ratio somewhat above the nominal GRID_RATIO at small x
GRID_RATIO_SLACK = 1.15

EXACT = "exact"
NEAREST = "nearest"
LOOKUP_MODES = (EXACT, NEAREST)


@dataclass(frozen=True)
class GrowthFit:
    """Fitted exponent of |S(x)| over a geometric checkpoint grid."""

    exponent: float
    intercept: float
    residual_rms: float
    points_used: int
    dropped_zero_points: int


def growth_fit(series: PartialSumSeries) -> GrowthFit:
    """Least-squares fit of log|S(x_i)| against log x_i.

    Checkpoints with |S| < 1e-9 are dropped and counted; fewer than two
    usable points is a degenerate fit.  Checkpoints must be finite and
    positive and the sums finite.
    """
    x = np.asarray(series.checkpoints, dtype=np.float64)
    if x.size < 4:
        raise InvalidArgumentError(
            f"growth fit needs >= 4 checkpoints on a geometric grid, got {x.size}"
        )
    if not np.all(np.isfinite(x) & (x > 0)):
        raise InvalidArgumentError("growth fit needs finite checkpoints > 0")
    mag = np.abs(np.asarray(series.sums))
    if not np.all(np.isfinite(mag)):
        raise InvalidArgumentError("growth fit needs finite sums")
    keep = mag >= ZERO_SUM_FLOOR
    dropped = int(np.sum(~keep))
    if int(np.sum(keep)) < 2:
        raise DegenerateFitError(
            f"only {int(np.sum(keep))} checkpoints have |S| >= {ZERO_SUM_FLOOR}"
        )
    lx = np.log(x[keep])
    ls = np.log(mag[keep])
    slope, intercept = np.polyfit(lx, ls, 1)
    resid = ls - (slope * lx + intercept)
    return GrowthFit(
        exponent=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        points_used=int(np.sum(keep)),
        dropped_zero_points=dropped,
    )


def running_max_fit(table: ValueTable, checkpoints) -> GrowthFit:
    """growth_fit of the running maximum M(x) = max_{n≤x} |S(n)| on a grid.

    For a sum that changes sign, |S(x_i)| at single checkpoints samples the
    oscillation as much as the size; M is nondecreasing, so its fitted
    exponent reads the order of growth.  Checkpoints are as in running_max.
    """
    series, peaks = running_max(table, checkpoints)
    return growth_fit(PartialSumSeries(
        checkpoints=series.checkpoints, sums=peaks, summation_mode="running-max",
    ))


@dataclass(frozen=True)
class XiSeries:
    """Samples of the normalized sum xi(x) = S(x)/x^alpha on the source grid."""

    alpha: float
    checkpoints: np.ndarray
    samples: np.ndarray
    source: Optional[PartialSumSeries] = None


def xi_from_sums(series: PartialSumSeries, alpha: float) -> XiSeries:
    """Divide out the fitted growth: xi(x_i) = S(x_i)/x_i^alpha."""
    alpha = float(alpha)
    if alpha < 0:
        raise InvalidArgumentError(f"alpha must be >= 0, got {alpha}")
    x = np.asarray(series.checkpoints, dtype=np.float64)
    samples = np.asarray(series.sums) / x**alpha
    return XiSeries(alpha=alpha, checkpoints=x, samples=samples, source=series)


def _dense_source(xi: XiSeries) -> ValueTable:
    if xi.source is None or xi.source.source is None:
        raise InvalidArgumentError(
            "exact mode needs a xi built from a dense-table partial-sum series"
        )
    return xi.source.source


def _check_grid(xi: XiSeries) -> None:
    x = xi.checkpoints
    if x.size < 2:
        raise InvalidArgumentError("nearest lookup needs at least two checkpoints")
    worst = float(np.max(x[1:] / x[:-1]))
    if worst > GRID_RATIO * GRID_RATIO_SLACK:
        raise InvalidArgumentError(
            f"nearest lookup needs grid ratio <= {GRID_RATIO:.6g} "
            f"(with rounding slack), got {worst:.6g}"
        )


def _xi_exact(xi: XiSeries, y: np.ndarray) -> np.ndarray:
    table = _dense_source(xi)
    idx = np.floor(y).astype(np.int64)
    if np.any(idx < 1) or np.any(idx > table.limit):
        raise OutOfRangeError("argument outside the dense table range")
    at, back = np.unique(idx, return_inverse=True)
    S = checkpointed_sums(table.values[1 : idx.max(initial=0) + 1], at)
    return S[back.reshape(y.shape)] / y**xi.alpha


def _xi_nearest(xi: XiSeries, y: np.ndarray) -> np.ndarray:
    _check_grid(xi)
    lg = np.log(xi.checkpoints)
    pos = np.searchsorted(xi.checkpoints, y)
    pos = np.clip(pos, 1, xi.checkpoints.size - 1)
    left = pos - 1
    take_left = np.abs(np.log(y) - lg[left]) <= np.abs(np.log(y) - lg[pos])
    return xi.samples[np.where(take_left, left, pos)]


def xi_lookup(xi: XiSeries, y, mode: str = EXACT) -> np.ndarray:
    """xi at arbitrary arguments >= 1, exact from the dense table or by
    nearest log-space checkpoint."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 1):
        raise OutOfRangeError("xi arguments must be >= 1")
    if mode == EXACT:
        return _xi_exact(xi, y)
    if mode == NEAREST:
        return _xi_nearest(xi, y)
    raise InvalidArgumentError(f"mode must be one of {LOOKUP_MODES}, got {mode!r}")


def xi_tilde(h_table: ValueTable, xi: XiSeries, x, mode: str = EXACT):
    """The quotient-convolved normalization Σ_{m≤x} h(m) m^{−alpha} xi(x/m),
    a complex; for a list of x, the list of them, from one xi lookup."""
    xs = [float(v) for v in np.atleast_1d(x)]
    if min(xs) < 1:
        raise OutOfRangeError("x must be >= 1")
    M = int(math.floor(max(xs)))
    if M > h_table.limit:
        raise OutOfRangeError(
            f"h table covers [1,{h_table.limit}], need m up to {M}"
        )
    ms = [np.arange(1, int(math.floor(v)) + 1, dtype=np.float64) for v in xs]
    vals = xi_lookup(xi, np.concatenate([v / m for v, m in zip(xs, ms)]), mode=mode)
    out, lo = [], 0
    for m in ms:
        hv = h_table.values[1 : m.size + 1]
        out.append(complex(np.sum(hv * m**-xi.alpha * vals[lo : lo + m.size])))
        lo += m.size
    return out if np.ndim(x) else out[0]


def xi_roundtrip_residual(
    h_table: ValueTable,
    h_inverse_table: ValueTable,
    xi: XiSeries,
    x: float,
    mode: str = EXACT,
) -> float:
    """Relative residual of the inversion identity
    Σ_{m≤x} h̃(m) m^{−alpha} ξ̃(x/m) = xi(x), with ξ̃ built from h."""
    x = float(x)
    M = int(math.floor(x))
    if M > h_inverse_table.limit:
        raise OutOfRangeError(
            f"inverse table covers [1,{h_inverse_table.limit}], need {M}"
        )
    want = complex(xi_lookup(xi, np.asarray([x]), mode=mode)[0])
    ms = [m for m in range(1, M + 1) if h_inverse_table.values[m] != 0]
    acc = 0.0 + 0.0j
    for m, tilde in zip(ms, xi_tilde(h_table, xi, [x / m for m in ms], mode=mode)):
        acc += h_inverse_table.values[m] * float(m) ** -xi.alpha * tilde
    scale = max(abs(want), 1e-30)
    return abs(acc - want) / scale


@dataclass(frozen=True)
class MeanSquareReport:
    value: float
    T: float
    grid_ratio_max: float
    error_estimate: float


def mean_square(xi: XiSeries, T: float) -> MeanSquareReport:
    """Trapezoidal ∫_1^T |xi(t)|² dt on the sample grid.

    Endpoints are linearly interpolated onto t = 1 and t = T.  The error
    estimate is the standard per-panel (Δt)³|y''|/12 with y'' from second
    differences — a diagnostic, not a certificate.
    """
    T = float(T)
    if T <= 1:
        raise InvalidArgumentError("T must be > 1")
    t = np.asarray(xi.checkpoints, dtype=np.float64)
    if t[0] > 1 or t[-1] < T:
        raise OutOfRangeError(
            f"samples cover [{t[0]}, {t[-1]}], need [1, {T}]"
        )
    y = np.abs(np.asarray(xi.samples)) ** 2
    inside = (t > 1) & (t < T)
    tt = np.concatenate(([1.0], t[inside], [T]))
    yy = np.concatenate(([np.interp(1.0, t, y)], y[inside], [np.interp(T, t, y)]))
    value = float(np.trapezoid(yy, tt))
    dt = np.diff(tt)
    if tt.size >= 3:
        d1 = np.diff(yy) / dt
        y2 = np.abs(np.diff(d1) / ((dt[1:] + dt[:-1]) / 2.0))
        panel_y2 = np.concatenate(([y2[0]], np.maximum(y2[1:], y2[:-1]), [y2[-1]]))
        err = float(np.sum(dt**3 * panel_y2) / 12.0)
    else:
        err = 0.0
    err += 1e-12 * (1.0 + abs(value)) * tt.size  # roundoff floor
    return MeanSquareReport(
        value=value,
        T=T,
        grid_ratio_max=float(np.max(t[1:] / t[:-1])) if t.size > 1 else 1.0,
        error_estimate=err,
    )


@dataclass(frozen=True)
class LTruncation:
    """Σ_{n≤N} f(n) n^{−s} with the crude unit-disc tail majorant
    N^{1−Re s}/(Re s − 1); tail_bound is None outside Re s > 1 or when the
    coefficients make no unit-disc claim."""

    s: complex
    N: int
    value: complex
    tail_bound: Optional[float]


def _power_tail_bound(N: int, sigma: float, growth: float) -> Optional[float]:
    # Σ_{n>N} n^{growth−σ} ≤ N^{growth+1−σ}/(σ−growth−1) when σ > growth+1
    if sigma > growth + 1.0:
        return float(N ** (growth + 1.0 - sigma) / (sigma - growth - 1.0))
    return None


def l_truncation(table: ValueTable, s: complex, N: Optional[int] = None) -> LTruncation:
    """Truncated Dirichlet series of the table's function at s."""
    s = complex(s)
    if N is None:
        N = table.limit
    N = int(N)
    if not 1 <= N <= table.limit:
        raise OutOfRangeError(f"N must be in [1, {table.limit}], got {N}")
    with np.errstate(all="ignore"):
        terms = (v * np.exp(-s * np.log(n)) for n, v in _value_chunks(table, N))
        value = complex(checkpointed_sums(terms, [N])[0])
    if not np.isfinite(value):
        raise OutOfRangeError(f"truncated Dirichlet series at s={s} is not finite")
    bound = (
        _power_tail_bound(N, s.real, 0.0) if table.spec.bounded_by_one else None
    )
    return LTruncation(s=s, N=N, value=value, tail_bound=bound)


def _growth_class(table: ValueTable, N: int) -> Optional[int]:
    """Smallest c in {0, 1, 2} with |values(n)| <= n^c on [1, N], if any."""
    c = 0  # |f(n)| <= n^c on one chunk implies it for every larger c
    for n, v in _value_chunks(table, N):
        while c < 3 and not np.all(np.abs(v) <= n**c * (1.0 + 1e-9)):
            c += 1
    return c if c < 3 else None


@dataclass(frozen=True)
class IdentityCheck:
    """Residual of the truncated series identity L(s,g) = L(s,f)·L(s,h)."""

    s: complex
    N: int
    residual: float
    combined_bound: Optional[float]
    values: dict
    ok: Optional[bool]  # residual <= combined_bound; None without a bound


def quotient_identity_check(
    f_table: ValueTable,
    g_table: ValueTable,
    h_table: ValueTable,
    s: complex,
    N: Optional[int] = None,
) -> IdentityCheck:
    """|L_N(s,g) − L_N(s,f) L_N(s,h)| against the combined tail bounds.

    Tail majorants use each table's observed growth class c (|v(n)| ≤ n^c,
    smallest c in {0,1,2}), and a class-c tail is bounded only for
    Re s > c + 1.  Re s < 2 is rejected.  The h factor of a quotient can
    grow like n, class 1, so at Re s = 2 its tail bound, combined_bound and
    ok may all be None: a verdict needs Re s above every table's c + 1.
    """
    s = complex(s)
    if s.real < 2:
        raise InvalidArgumentError(f"Re s must be >= 2, got {s.real}")
    if N is None:
        N = min(f_table.limit, g_table.limit, h_table.limit)
    N = int(N)
    lf = l_truncation(f_table, s, N)
    lg = l_truncation(g_table, s, N)
    lh = l_truncation(h_table, s, N)
    residual = abs(lg.value - lf.value * lh.value)
    bounds = []
    for table in (f_table, g_table, h_table):
        c = _growth_class(table, N)
        bounds.append(None if c is None else _power_tail_bound(N, s.real, c))
    combined = None
    if all(b is not None for b in bounds):
        tf, tg, th = bounds
        combined = float(
            tg + abs(lf.value) * th + (abs(lh.value) + th) * tf
        )
    return IdentityCheck(
        s=s,
        N=N,
        residual=float(residual),
        combined_bound=combined,
        values={"f": lf.value, "g": lg.value, "h": lh.value},
        ok=None if combined is None else residual <= combined,
    )
