"""Shared helpers for the test suite: seeded random form generators, a form's
depth, and reference word operations (integration by parts, the bilinear shuffle and
shuffle expansion) that the library runs only inside its own pipeline."""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from fractions import Fraction

from iterqm.iterint import BarWord, _as_word
from iterqm.linear import _accumulate
from iterqm.quasimodular import ONE, QMPoly
from iterqm.shuffle_lyndon import LyndonPoly, shuffle

_MINUS_ONE = -ONE


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


def depth(p: QMPoly) -> int:
    """The E2-degree (0 for the zero form)."""
    return max((a for (a, _, _) in p.nums), default=0)


def cusp_value(f: QMPoly) -> Fraction:
    """The constant term of the q-expansion (every E_{2k} starts at 1)."""
    return Fraction(sum(f.nums.values()), f.den)


def shuffle_expansion(integrals) -> dict:
    """The combination of bar words, a dict from words to coefficients, that
    a polynomial in integrals equals by Chen's identity: each monomial's
    words shuffled together."""
    basis = integrals.basis
    return {tuple(basis[i] for i in w): c for w, c in shuffle_expand(integrals.poly).items()}


def shuffle_combos(c1: Mapping[tuple, object], c2: Mapping[tuple, object]) -> dict[tuple, object]:
    """Bilinear extension of the shuffle product to linear combinations of words."""
    out: dict = {}
    for w1, a in c1.items():
        for w2, b in c2.items():
            ab = a * b
            _accumulate(out, ((word, ab * mult) for word, mult in shuffle(w1, w2).items()))
    return out


def shuffle_expand(poly: LyndonPoly) -> dict[tuple, object]:
    """A polynomial in words evaluated in the shuffle algebra: each monomial's
    words shuffled together, a combination of words."""
    out: dict = {}
    for mono, coeff in poly.terms.items():
        words = {(): 1}
        for w in mono:
            words = shuffle_combos(words, {w: 1})
        _accumulate(out, ((word, coeff * mult) for word, mult in words.items()))
    return out


def ibp(prefix: Iterable[QMPoly], g: QMPoly, suffix: Iterable[QMPoly]) -> dict[BarWord, QMPoly]:
    """Integration by parts on bar words, the rule ``reduce_letters`` runs on
    interned letters and integer rows: I(prefix, D(g), suffix) as words one
    letter shorter.

        I(..., f, D(g), h, ...) = I(..., f, g*h, ...) - I(..., f*g, h, ...)

    At an end of the word the missing neighbour gives a boundary term
    instead: g(cusp) * I(prefix) at the right end, -g * I(suffix) at the
    left, so I(D(g)) = g(cusp) - g.  Equal words merge, so that, for
    example, I(f, D(1), h) is 0.
    """
    prefix, suffix = _as_word(prefix), _as_word(suffix)
    # the integral is multilinear: a zero letter, D(g) included, kills it
    if not g or not all(prefix + suffix):
        return {}
    s = sum(g.nums.values())  # g(cusp) = s / g.den
    right = (prefix + (g * suffix[0],) + suffix[1:], ONE) if suffix else (
        prefix, QMPoly._of({(0, 0, 0): s} if s else {}, g.den))
    left = (prefix[:-1] + (prefix[-1] * g,) + suffix, _MINUS_ONE) if prefix else (suffix, -g)
    return _accumulate({}, (right, left))
