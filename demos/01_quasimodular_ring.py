#!/usr/bin/env python3
# A tour of the exact quasimodular ring: q-expansions, the derivation,
# transformation coefficients, and the structural weight decomposition.

from iterqm import (
    DELTA,
    E2,
    E4,
    E6,
    bernoulli,
    decompose,
    derivative_decomposition,
    derive,
    eisenstein_qexp,
    expand,
    transform_coeffs,
)
from iterqm.cli import format_qmpoly, format_series

print("Bernoulli numbers drive the Eisenstein normalization:")
for n in (2, 4, 6, 8, 12):
    print(f"  B_{n} = {bernoulli(n)}")

print("\nq-expansions (exact rationals, truncated at q^6):")
for w in (2, 4, 6):
    print(f"  E{w} = {format_series(eisenstein_qexp(w, 6))}")

print("\nThe discriminant form is built from the generators:")
print("  Delta =", format_qmpoly(DELTA))
print("  expand(Delta, 8) =", format_series(expand(DELTA, 8)))

print("\nThe derivation raises weight by two (Ramanujan's identities):")
for p, label in ((E2, "E2"), (E4, "E4"), (E6, "E6"), (DELTA, "Delta")):
    print(f"  D({label}) = {format_qmpoly(derive(p))}")

print("\nUnder the modular group, E2 shifts while E4, E6 are invariant;")
print("the polynomial transformation coefficients of E2^2 are:")
for r, c in enumerate(transform_coeffs(E2 * E2)):
    print(f"  f_{r} = {format_qmpoly(c)}")

print("\nEvery form, of one weight or several, splits as c*E2 + (modular) + D(h):")
for p, label in ((E2 * E2, "E2^2"), (E2 * E4, "E2*E4"), (E2 * E2 + E2 + 1, "E2^2 + E2 + 1")):
    c, m, h = decompose(p)
    print(f"  {label}: c = {c}, modular = {format_qmpoly(m)}, h = {format_qmpoly(h)}")

print("\nIterating the split writes a form in derivatives of modular forms and E2:")
for lam, order, g in derivative_decomposition(E2 * E2 * E4):
    print(f"  {lam} * D^{order}({format_qmpoly(g)})")
