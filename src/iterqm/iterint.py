"""Regularized iterated integrals of quasimodular forms.

A bar word ``(f1, ..., fn)`` of :class:`~iterqm.quasimodular.QMPoly`
letters stands for the iterated integral from tau to the cusp of the
integrands f1 (outermost) through fn, normalized to carry a factor
(2*pi*i) per integration and regularized at the cusp.  The implementation
characterizes the integral by its differential equation,

    D I(f1,...,fn) = -f1 * I(f2,...,fn),      I() = 1,

integrating with :func:`~iterqm.qseries.primitive`, whose zero constant of
integration at q^0 L^0 is exactly the cusp regularization.  The result is
an exact element of W[log q] whose log-degree is at most the word length.

The algebraic identities these integrals satisfy (shuffle product, R-map
combination of truncated words with constant-letter words, and the three
integration-by-parts rules) are provided as word-level operations on
:class:`BarCombo`, a linear combination of bar words with quasimodular
coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .qseries import LogQSeries, primitive
from .quasimodular import ONE, QMPoly, expand
from .shuffle_lyndon import _shuffle

BarWord = tuple[QMPoly, ...]
_QM_ONE = ONE


def _as_word(letters: Iterable[QMPoly]) -> BarWord:
    word = tuple(letters)
    for letter in word:
        if not isinstance(letter, QMPoly):
            raise TypeError("bar word letters must be QMPoly")
    return word


class BarCombo:
    """A finite linear combination of bar words with QMPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BarWord, Union[QMPoly, int, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[BarWord, QMPoly] = {}
        for word, coeff in items:
            word = _as_word(word)
            if not isinstance(coeff, QMPoly):
                coeff = QMPoly.constant(coeff)
            if any(letter.is_zero() for letter in word):
                continue  # the integral is multilinear; a zero letter kills the term
            if word in cleaned:
                coeff = cleaned[word] + coeff
            if coeff:
                cleaned[word] = coeff
            else:
                cleaned.pop(word, None)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BarCombo is immutable")

    @classmethod
    def zero(cls) -> "BarCombo":
        return cls()

    @classmethod
    def word(cls, letters: Iterable[QMPoly], coeff: Union[QMPoly, int, Fraction] = 1) -> "BarCombo":
        return cls({_as_word(letters): coeff})

    @classmethod
    def unit(cls) -> "BarCombo":
        return cls({(): _QM_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BarCombo):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "BarCombo(0)"
        bits = []
        for word, coeff in self.terms.items():
            body = "|".join(repr(l) for l in word)
            bits.append(f"({coeff!r})*[{body}]")
        return "BarCombo(" + " + ".join(bits) + ")"

    def __add__(self, other: "BarCombo") -> "BarCombo":
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            s = terms.get(word)
            s = coeff if s is None else s + coeff
            if s:
                terms[word] = s
            else:
                terms.pop(word, None)
        return BarCombo(terms)

    def __sub__(self, other: "BarCombo") -> "BarCombo":
        return self + (-other)

    def __neg__(self) -> "BarCombo":
        return BarCombo({w: -c for w, c in self.terms.items()})

    def scale(self, factor: Union[QMPoly, int, Fraction]) -> "BarCombo":
        if not isinstance(factor, QMPoly):
            factor = QMPoly.constant(factor)
        return BarCombo({w: factor * c for w, c in self.terms.items()})

    def shuffle(self, other: "BarCombo") -> "BarCombo":
        """Product in the algebra: shuffle on words, product on coefficients."""
        total: dict[BarWord, QMPoly] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                coeff = c1 * c2
                for word, mult in _shuffle(w1, w2).items():
                    s = total.get(word)
                    add = coeff * mult
                    s = add if s is None else s + add
                    if s:
                        total[word] = s
                    else:
                        total.pop(word, None)
        return BarCombo(total)

    def expansion(self, trunc: int) -> LogQSeries:
        """Sum of expand(coeff) * integral(word) as an exact LogQSeries."""
        total = LogQSeries.zero(trunc)
        for word, coeff in self.terms.items():
            total = total + expand(coeff, trunc) * iter_integral(word, trunc)
        return total


def shuffle_product_words(w1: Iterable[QMPoly], w2: Iterable[QMPoly]) -> BarCombo:
    """Shuffle product of two bar words, with unit coefficients."""
    return BarCombo(_shuffle(_as_word(w1), _as_word(w2)))


def iter_integral(word: Iterable[QMPoly], trunc: int) -> LogQSeries:
    """The regularized iterated integral of a bar word, as a LogQSeries.

    The empty word integrates to the constant 1; otherwise the series is
    the primitive (with vanishing q^0 L^0 coefficient) of minus the
    expansion of the first letter times the integral of the tail.
    """
    word = _as_word(word)
    # Fill the cache from the last letter, 128 letters a call, so that no call
    # recurses deeper; shorter words make plain recursion's cache lookups.
    for start in range(len(word) - 128, 0, -128):
        _iter_integral(word[start:], trunc)
    return _iter_integral(word, trunc)


@lru_cache(maxsize=None)
def _iter_integral(word: BarWord, trunc: int) -> LogQSeries:
    if not word:
        return LogQSeries.constant(1, trunc)
    head = expand(word[0], trunc)
    tail = _iter_integral(word[1:], trunc)
    return primitive((LogQSeries.from_qseries(head) * tail).scale(-1))


def r_map(word: Iterable[QMPoly]) -> BarCombo:
    """Alternating shuffle of prefixes against reversed constant-term letters.

    The n-th letter contributes its cusp value as a constant letter; the
    image combination is the one whose iterated integrals converge at the
    cusp without regularization.
    """
    word = _as_word(word)
    n = len(word)
    total = BarCombo.zero()
    for i in range(n + 1):
        consts = tuple(QMPoly.constant(word[j].cusp_value()) for j in range(n - 1, i - 1, -1))
        piece = shuffle_product_words(word[:i], consts)
        total = total + (piece if (n - i) % 2 == 0 else -piece)
    return total


def ibp_first(g: QMPoly, rest: Iterable[QMPoly]) -> tuple[BarCombo, tuple[QMPoly, BarWord]]:
    """Remove a leading derivative letter:

    I(D(g), f2, ..., fn) = I(g*f2, f3, ..., fn) - g * I(f2, ..., fn).

    Returns the word combination and the boundary term (-g, tail word).
    """
    rest = _as_word(rest)
    if not rest:
        raise ValueError("ibp_first needs a nonempty tail; use ibp_last for a final letter")
    combo = BarCombo.word((g * rest[0],) + rest[1:])
    return combo, (-g, rest)


def ibp_middle(prefix: Iterable[QMPoly], g: QMPoly, suffix: Iterable[QMPoly]) -> BarCombo:
    """Remove an interior derivative letter:

    I(..., f_i, D(g), f_{i+1}, ...) =
        I(..., f_i, g*f_{i+1}, ...) - I(..., f_i*g, f_{i+1}, ...).
    """
    prefix, suffix = _as_word(prefix), _as_word(suffix)
    if not prefix:
        raise ValueError("ibp_middle needs a nonempty prefix; use ibp_first")
    if not suffix:
        raise ValueError("ibp_middle needs a nonempty suffix; use ibp_last")
    right = BarCombo.word(prefix + (g * suffix[0],) + suffix[1:])
    left = BarCombo.word(prefix[:-1] + (prefix[-1] * g,) + suffix)
    return right - left


def ibp_last(front: Iterable[QMPoly], g: QMPoly) -> tuple[Fraction, BarWord, BarCombo]:
    """Remove a trailing derivative letter:

    I(f1, ..., f_{n-1}, D(g)) = g(cusp) * I(f1, ..., f_{n-1}) - I(correction),

    where the correction multiplies the last front letter by g.  For an
    empty front the identity degenerates to I(D(g)) = g(cusp) - g, so the
    correction is the empty word with coefficient g.
    """
    front = _as_word(front)
    scalar = g.cusp_value()
    if front:
        correction = BarCombo.word(front[:-1] + (front[-1] * g,))
    else:
        correction = BarCombo({(): g})
    return scalar, front, correction
