"""Calibrated prime twists: close in distance, far apart in partial sums.

Start from the real character mod 4, whose partial sums are bounded (growth
exponent 0), and rotate each prime value by a phase 1/(p^{(1-beta)/2}
loglog p) whose sign follows a data-driven rule.  The beta-weighted distance
between base and twist stays finite, converging like a sum of
1/(p (loglog p)^2), yet the twist's partial sums grow like x^{(1+beta)/2},
about x^{0.75} at beta = 0.5.  The verify bundle twists the same base at 1e7;
this demo stops at 1e6 to stay quick, where the shape is already visible.
"""

import numpy as np

from pretense import build_sieve, evaluate, geometric_checkpoints, partial_sums
from pretense.asymptotics import growth_fit
from pretense.constructions import (
    dirichlet_character,
    optimality_twist,
    phase_sum_partials,
    sparse_dyadic,
    standard_spec,
    twist_sign_rule,
)
from pretense.metrics import distance_beta, distance_classic, fit_decay_exponent

CUTOFF = 10**6
sieve = build_sieve(CUTOFF)
grid = geometric_checkpoints(10**3, CUTOFF)

chi4 = dirichlet_character(4, 1)
rule, diag = twist_sign_rule(chi4, CUTOFF, sieve=sieve)
print(f"sign rule for the chi_4 base: {rule} (diagnostic {diag:.3f})")

g = optimality_twist(chi4, beta=0.5, diagnostics_cutoff=CUTOFF, sieve=sieve)
d = distance_beta(chi4, g, 0.5, CUTOFF, checkpoints=grid, sieve=sieve)
rate = fit_decay_exponent(d.cutoffs, d.partials)
print(f"\nbeta = 0.5 distance between base and twist up to 1e6: {d.total:.4f}")
print(f"its increments per unit loglog x fall like (loglog x)^{rate:.2f};")
print("an exponent below -1 means the series converges, even though the")
print(f"partials still climb at this scale (tail slope {d.tail_slope:.2f}).")

fit_grid = geometric_checkpoints(10**4, CUTOFF)
base_fit = growth_fit(partial_sums(evaluate(chi4, sieve), fit_grid))
fit = growth_fit(partial_sums(evaluate(g, sieve), fit_grid))
print(f"\nuntwisted chi_4 over [1e4, 1e6]: alpha-hat = {base_fit.exponent:.4f}")
print(f"twisted partial sums:            alpha-hat = {fit.exponent:.4f}")
print("the base cancels completely; the twist grows close to the predicted")
print("x^{(1+beta)/2} = x^0.75.")

# the schematic phase sum that drives the drift, at the critical tau = 1
ph = phase_sum_partials(chi4, tau=1.0, cutoff=CUTOFF)
im = ph.sums.imag
print(f"\nphase sum at tau = 1: Im grows from {im[0]:.4f} to {im[-1]:.4f} "
      f"over {im.size} checkpoints, never decreasing: "
      f"{bool(np.all(np.diff(im) >= 0))}")

# a twist of the all-ones function shows nothing: its sums were never small
one = standard_spec("one")
g1 = optimality_twist(one, beta=0.5, diagnostics_cutoff=CUTOFF, sieve=sieve)
fit1 = growth_fit(partial_sums(evaluate(g1, sieve), fit_grid))
print(f"\nthe same twist of the all-ones function: alpha-hat = {fit1.exponent:.4f},")
print("near 1 like the base: sum |1 - g(p)|/p converges, so g has a mean value.")

# a different way to be close-but-drifting: flood two dyadic blocks
flooded = sparse_dyadic(chi4, [3, 4])
dc = distance_classic(chi4, flooded, CUTOFF, sieve=sieve)
table = evaluate(flooded, sieve)
x = 2**17
s = partial_sums(table, [x]).sums[0]
lo1, hi1 = flooded.params["intervals"][0]
lo2, hi2 = flooded.params["intervals"][1]
print(f"\nsparse dyadic flood of chi_4 on primes in "
      f"[{lo1}, {hi1}) and [{lo2}, {hi2})")
print(f"  classic distance to chi_4 up to 1e6: {dc.total:.4f}")
print(f"  |S(2^17)| = {abs(s):.0f}  versus x/log x = {x / np.log(x):.0f}")
print("  bounded distance, yet the sum at 2^17 is a positive fraction of x.")
