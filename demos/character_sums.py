"""Dirichlet characters, their cancelling partial sums, and a squarefree cut.

Nonprincipal character sums never leave a box of width q, so their growth
exponent fitted over geometric checkpoints sits near zero.  Restricting the
same character to squarefree support breaks the periodicity: the Dirichlet
series becomes L(s,chi)/L(2s,chi^2), with poles on Re s = 1/4, and the sums
creep like x^{1/4}.  They change sign, so the growth is read from the
running maximum max_{n<=x} |S(n)| rather than from |S| at single points.
"""

from pretense import build_sieve, evaluate, geometric_checkpoints, partial_sums
from pretense.asymptotics import growth_fit, running_max_fit
from pretense.constructions import dirichlet_character, squarefree_restrict
from pretense.core import running_max

sieve = build_sieve(10**6)

print("max |sum_{n<=x} chi(n)| over x <= 1e6, nonprincipal chi mod q:")
for (q, idx) in [(3, 1), (4, 1), (5, 1), (5, 2), (7, 1), (12, 1)]:
    chi = dirichlet_character(q, idx)
    _, peak = running_max(evaluate(chi, sieve), [10**6])
    print(f"  q = {q:<3} index {idx}:  max |S| = {peak[0]:8.3f}"
          f"   (box bound q = {q})")

checkpoints = geometric_checkpoints(10**3, 10**6)

print("\nfitted growth exponent of |S_chi(x)| over [1e3, 1e6]:")
for (q, idx) in [(3, 1), (4, 1)]:
    chi = dirichlet_character(q, idx)
    table = evaluate(chi, sieve)
    fit = growth_fit(partial_sums(table, checkpoints))
    print(f"  chi mod {q}:  alpha-hat = {fit.exponent:.4f}")

print("\nsame characters restricted to squarefree n:")
for (q, idx) in [(3, 1), (4, 1)]:
    chi = squarefree_restrict(dirichlet_character(q, idx))
    table = evaluate(chi, sieve)
    series = partial_sums(table, checkpoints)
    fit = growth_fit(series)
    run = running_max_fit(table, checkpoints)
    print(f"  squarefree chi mod {q}:  alpha-hat of |S| = {fit.exponent:.4f}"
          f"   of max|S| = {run.exponent:.4f}   |S(1e6)| = {abs(series.sums[-1]):.1f}")

print("\nthe squarefree sums no longer cancel to a bounded box.  Pointwise")
print("|S| dips wherever the sum changes sign, so its fit is unreliable; the")
print("running maximum grows at an exponent close to the predicted 1/4.")
