"""Sparse linear combinations: dicts from keys to nonzero coefficients.

Quasimodular polynomials (monomials to rationals), bar combinations (bar
words to polynomials) and polynomials in words (multisets of words, Lyndon
or not, to coefficients) are all finite linear combinations.
:func:`_accumulate` is the one routine that adds terms into such a dict and
drops those that cancel; :class:`LinearCombination` is the immutable base
class of the last two.  Coefficients may be any commutative ring elements that support
+, *, unary - and truthiness for zero tests.
"""

from __future__ import annotations

from collections.abc import Iterable


def _accumulate(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add each (key, value) into ``out``, dropping keys whose sum is zero; returns ``out``."""
    for key, value in pairs:
        cur = out.get(key)
        if cur is not None:
            value = cur + value
        if value:
            out[key] = value
        elif cur is not None:
            del out[key]
    return out


class LinearCombination:
    """An immutable combination: ``terms`` maps keys to nonzero coefficients.

    Subclasses check keys in their constructors.  The operations here build
    their results with the unchecked :meth:`_of`, since sums, negatives and
    multiples of valid combinations have valid keys.
    """

    __slots__ = ("terms",)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._of, (self.terms,)

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a fresh dict of valid keys to nonzero coefficients, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls):
        return cls._of({})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(_accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._of({key: -coeff for key, coeff in self.terms.items()})

    def scale(self, factor):
        """Every coefficient times ``factor``; products that vanish are dropped."""
        return self._of(_accumulate({}, ((key, factor * coeff) for key, coeff in self.terms.items())))
