#!/usr/bin/env python3
# The canonical polynomial basis: Lyndon words over the ordered alphabet
# of Eisenstein monomials, rewriting arbitrary integrals into it, and
# certifying linear independence at finite truncation.

from iterqm import (
    DELTA,
    E2,
    E4,
    E6,
    ONE,
    IntegralPoly,
    basis_b,
    canonical_form,
    derive,
    independence_rank,
    lyndon_words,
)
from iterqm.cli import format_canonical, letter_name
from iterqm.quasimodular import letter_sort_key

print("The ordered alphabet up to weight 12:")
basis = basis_b(12)
print(" ", " < ".join(letter_name(b) for b in basis))

weights = {i: letter_sort_key(b)[0] for i, b in enumerate(basis)}
print("\nLyndon words of weight 12, length <= 3 (the free polynomial")
print("generators of that degree):")
for w in lyndon_words(len(basis), 3, weights, 12):
    if sum(weights[i] for i in w) == 12:
        print("  I(" + ",".join(letter_name(basis[i]) for i in w) + ")")

print("\nCanonicalizing integrals whose words are not Lyndon:")
for combo, label in (
    (IntegralPoly.linear({(E4, ONE): 1}), "I(E4,1)"),
    (IntegralPoly.linear({(ONE, ONE): 1}), "I(1,1)"),
    (IntegralPoly.linear({(E2 * E2,): 1}), "I(E2^2)"),
    (IntegralPoly.linear({(ONE, derive(E4)): 1}), "I(1,D(E4))"),
):
    cf = canonical_form(combo)
    print(f"  {label} = {format_canonical(cf)}")

print("\nSoundness is checkable: the canonical form re-expands to the input.")
combo = IntegralPoly.linear({(E2 * E4, E6): E2})
cf = canonical_form(combo)
print("  input == output expansion at N=20:", cf.expansion(20) == combo.expansion(20))

print("\nA finite independence certificate (never a proof): the integrals")
print("I(1), I(E2), I(E4), I(E6), I(1,E4), I(1,E6), I(E2,E4) have exact")
words = [(ONE,), (E2,), (E4,), (E6,), (ONE, E4), (ONE, E6), (E2, E4)]
print("  rank", independence_rank(words, [ONE] * 7, 12), "at truncation 12")

print("\nMultiplying by quasimodular forms preserves independence:")
family, mults = [], []
for m in (ONE, E2, DELTA):
    for w in words:
        family.append(w)
        mults.append(m)
print("  rank of the 21 series {1,E2,Delta} x integrals:",
      independence_rank(family, mults, 16))
