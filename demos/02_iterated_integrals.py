#!/usr/bin/env python3
# Regularized iterated integrals as exact series in q and L = log q:
# the defining differential equation, the shuffle product, and
# integration by parts, which removes a derivative letter at any position
# of a word (canonical forms run it inside their letter reduction).

from iterqm import (
    DELTA,
    E2,
    E4,
    ONE,
    IntegralPoly,
    d_op,
    derive,
    expand,
    iter_integral,
    shuffle,
)
from iterqm.cli import format_series
from iterqm.expr import parse

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

print("\nProducts of integrals are shuffles (Chen's identity, exact):")
lhs = parse("I(E2)*I(E4)").expansion(N)
rhs = IntegralPoly.linear(shuffle((E2,), (E4,))).expansion(N)
print("  I(E2)*I(E4) - (I(E2,E4) + I(E4,E2)) =", format_series(lhs - rhs))

print("\nIntegration by parts removes a derivative letter at any position,")
print("leaving words one letter shorter:")
for word, terms, label in (
    ((derive(E4), DELTA), {(E4 * DELTA,): 1, (DELTA,): -E4}, "I(D(E4), Delta) = I(E4*Delta) - E4 * I(Delta)"),
    ((E2, derive(E4), DELTA), {(E2, E4 * DELTA): 1, (E2 * E4, DELTA): -1},
     "I(E2, D(E4), Delta) = I(E2, E4*Delta) - I(E2*E4, Delta)"),
    ((DELTA, derive(E4)), {(DELTA,): 1, (DELTA * E4,): -1},  # E4(cusp) = 1
     "I(Delta, D(E4)) = E4(cusp) * I(Delta) - I(Delta*E4)"),
):
    lhs = iter_integral(word, N)
    rhs = IntegralPoly.linear(terms).expansion(N)
    print(f"  {label}: residual {format_series(lhs - rhs)}")
