"""Sparse linear combinations: dicts from keys to nonzero coefficients.

Quasimodular polynomials and the rows of letter reduction (monomials to
integer numerators over a denominator kept beside the dict), combinations of
bar words (words to polynomials) and polynomials in words (multisets of
words, Lyndon or not, to coefficients) are all finite linear combinations.
:func:`_accumulate` is the one routine that adds terms into such a dict and
drops those that cancel.  Coefficients may be any commutative ring elements,
ints included, that support + and truthiness for zero tests.
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
