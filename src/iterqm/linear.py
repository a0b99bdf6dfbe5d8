"""Sparse linear combinations: dicts from keys to nonzero coefficients.

Quasimodular polynomials, combinations of bar words (words to polynomials),
polynomials in words (multisets of words, Lyndon or not, to coefficients)
and the numerators of a row are all finite linear combinations.
:func:`_accumulate` is the one routine that adds terms into such a dict and
drops those that cancel.  Coefficients may be any commutative ring elements,
ints included, that support + and truthiness for zero tests.  The rows of
both rewriting stages of the canonical path, [den, integer numerators by
monomial], are added to only by :func:`_add_row`.  :func:`_power` is the one
square-and-multiply of both polynomial rings.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import lcm


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


def _add_row(rows: dict, key, nums: dict, num: int, den: int) -> None:
    """Add num/den times the integer numerators ``nums`` (never changed) to the row [den, numerators] at ``key``:
    a copy of them on the first add, else over the lcm of the two denominators, numerators that cancel dropped."""
    if (row := rows.get(key)) is None:
        rows[key] = [den, {k: v * num for k, v in nums.items()}]
        return
    if (common := lcm(row[0], den)) != row[0]:
        row[:] = common, {k: v * (common // row[0]) for k, v in row[1].items()}
    _accumulate(row[1], ((k, v * (num * common // den)) for k, v in nums.items()))


def _power(x, n: int):
    """x**n for an int n >= 1, by square-and-multiply from the lowest bit of n."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        if not (n := n >> 1):
            return result
        x = x * x
