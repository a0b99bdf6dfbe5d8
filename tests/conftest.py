"""Shared helpers for the test suite: seeded random form generators."""

from __future__ import annotations

import random
from fractions import Fraction

from iterqm.quasimodular import QMPoly


def monomials_of_weight(k: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(k // 2 + 1):
        for b in range((k - 2 * a) // 4 + 1):
            rem = k - 2 * a - 4 * b
            if rem >= 0 and rem % 6 == 0:
                out.append((a, b, rem // 6))
    return out


def random_homogeneous(rng: random.Random, weight: int) -> QMPoly:
    """A random nonzero homogeneous form of the given even weight."""
    monos = monomials_of_weight(weight)
    while True:
        terms = {m: Fraction(rng.randint(-9, 9)) for m in monos if rng.random() < 0.7}
        p = QMPoly(terms)
        if not p.is_zero():
            return p


def random_qmpoly(rng: random.Random, max_weight: int, parts: int = 2) -> QMPoly:
    """A random (possibly mixed-weight, possibly zero) quasimodular form."""
    total = QMPoly()
    for _ in range(parts):
        w = 2 * rng.randint(0, max_weight // 2)
        total = total + random_homogeneous(rng, w)
    return total


def shuffle_expansion(integrals) -> dict:
    """The combination of bar words, a dict from words to coefficients, that
    a polynomial in integrals equals by Chen's identity: each monomial's
    words shuffled together."""
    basis = integrals.basis
    return {tuple(basis[i] for i in w): c for w, c in integrals.poly.shuffle_expand().items()}
