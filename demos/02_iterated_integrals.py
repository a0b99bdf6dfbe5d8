#!/usr/bin/env python3
# Regularized iterated integrals as exact series in q and L = log q:
# the defining differential equation, the shuffle product, and
# integration by parts.

from iterqm import (
    DELTA,
    E2,
    E4,
    ONE,
    d_op,
    derive,
    expand,
    ibp_first,
    iter_integral,
    shuffle_product_words,
)
from iterqm.cli import format_series

N = 8

print("Length-one integrals (the constant of integration at the cusp is 0):")
for word, label in (((ONE,), "I(1)"), ((E2,), "I(E2)"), ((E4,), "I(E4)")):
    print(f"  {label} = {format_series(iter_integral(word, N))}")

print("\nI(E2) is minus the logarithm of the discriminant:")
print("  I(E2) =", format_series(iter_integral((E2,), N)))

print("\nLonger words pick up higher powers of L:")
print("  I(1,1)   =", format_series(iter_integral((ONE, ONE), N)))
print("  I(1,E4)  =", format_series(iter_integral((ONE, E4), N)))
print("  I(E2,E4) =", format_series(iter_integral((E2, E4), 5)))

print("\nThe defining ODE: D I(f1,...,fn) + f1 * I(f2,...,fn) = 0")
word = (E2, E4)
residual = d_op(iter_integral(word, N)) + expand(E2, N) * iter_integral((E4,), N)
print("  residual for I(E2,E4):", format_series(residual))

print("\nProducts of integrals are shuffles (exact identity):")
lhs = iter_integral((E2,), N) * iter_integral((E4,), N)
rhs = shuffle_product_words((E2,), (E4,)).expansion(N)
print("  I(E2)*I(E4) - (I(E2,E4) + I(E4,E2)) =", format_series(lhs - rhs))

print("\nIntegration by parts removes derivative letters, shortening the word:")
combo, (coeff, tail) = ibp_first(E4, (DELTA,))
print("  I(D(E4), Delta) = I(E4*Delta) - E4 * I(Delta)")
lhs = iter_integral((derive(E4), DELTA), N)
rhs = combo.expansion(N) + expand(coeff, N) * iter_integral(tail, N)
print("  residual:", format_series(lhs - rhs))
