"""Regularized iterated integrals of quasimodular forms.

A bar word ``(f1, ..., fn)`` of :class:`~iterqm.quasimodular.QMPoly`
letters stands for the iterated integral from tau to the cusp of the
integrands f1 (outermost) through fn, normalized to carry a factor
(2*pi*i) per integration and regularized at the cusp.  The implementation
characterizes the integral by its differential equation,

    D I(f1,...,fn) = -f1 * I(f2,...,fn),      I() = 1,

integrating as :func:`~iterqm.qseries.primitive` does, whose zero constant of
integration at q^0 L^0 is exactly the cusp regularization; each step is one
pass from the packed product to the solver.  The result is an exact element
of W[log q] whose log-degree is at most the word length.

A linear combination of bar words is a dict from words to QMPoly
coefficients.  The shuffle of two words is the product of their integrals
(Chen), so :class:`IntegralPoly`, a polynomial in integrals, is unexpanded;
a combination of words is one of degree one (:meth:`IntegralPoly.linear`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple, Union

from .qseries import LogQSeries, _integral_step
from .quasimodular import QMPoly, expand
from .shuffle_lyndon import LyndonPoly

BarWord = tuple[QMPoly, ...]


def _as_word(letters: Iterable[QMPoly]) -> BarWord:
    word = tuple(letters)
    for letter in word:
        if not isinstance(letter, QMPoly):
            raise TypeError("bar word letters must be QMPoly")
    return word


class IntegralPoly(NamedTuple):
    """A polynomial in iterated integrals with QMPoly coefficients: the
    monomials of ``poly`` are multisets of words whose letters index
    ``basis``.  ``parse`` gives one over the letters it read, in that order,
    and ``canonical_form`` one in Lyndon words over ``basis_b``."""

    poly: LyndonPoly
    basis: tuple[QMPoly, ...]
    modular: bool = False

    @classmethod
    def linear(cls, terms: Mapping[Iterable[QMPoly], Union[QMPoly, int, Fraction]]) -> "IntegralPoly":
        """The combination sum c * I(w) of a mapping of words w to coefficients c.

        As :func:`~iterqm.expr.parse` reads it: letters are numbered as first
        seen, the empty word is the constant monomial (I() = 1), rational
        coefficients become constant forms, and a word with a zero letter is
        dropped, since the integral is multilinear.
        """
        letters: dict[QMPoly, int] = {}
        out = {}
        for word, coeff in terms.items():
            word = _as_word(word)
            if not isinstance(coeff, QMPoly):
                coeff = QMPoly.constant(coeff)
            if coeff and all(word):
                out[(tuple(letters.setdefault(l, len(letters)) for l in word),) if word else ()] = coeff
        return cls(LyndonPoly._of(out), tuple(letters))

    def expansion(self, trunc: int) -> LogQSeries:
        """Evaluate exactly: each word's integral once, multiplied out per monomial."""
        series = {w: iter_integral([self.basis[i] for i in w], trunc) for mono in self.poly.terms for w in mono}
        return sum((reduce(LogQSeries.__mul__, (series[w] for w in mono), expand(coeff, trunc))
                    for mono, coeff in self.poly.terms.items()), LogQSeries.zero(trunc))


def iter_integral(word: Iterable[QMPoly], trunc: int, modulus: int = 0) -> LogQSeries:
    """The regularized iterated integral of a bar word, as a LogQSeries.

    The empty word integrates to the constant 1; otherwise the series is
    the primitive (with vanishing q^0 L^0 coefficient) of minus the
    expansion of the first letter times the integral of the tail.  With a
    prime ``modulus`` the same steps run over Z/p.
    """
    word = _as_word(word)
    # Fill the cache from the last letter, 128 letters a call, so that no call
    # recurses deeper; shorter words make plain recursion's cache lookups.
    for start in range(len(word) - 128, 0, -128):
        _iter_integral(word[start:], trunc, modulus)
    return _iter_integral(word, trunc, modulus)


_INTEGRAL_CACHE_SIZE = 4096  #: integrals of words (suffixes included) kept; a benchmark round makes at most 315


@lru_cache(maxsize=_INTEGRAL_CACHE_SIZE)
def _iter_integral(word: BarWord, trunc: int, modulus: int) -> LogQSeries:
    if not word:
        return LogQSeries.constant(1, trunc, modulus)
    return _integral_step(expand(word[0], trunc, modulus), _iter_integral(word[1:], trunc, modulus))
