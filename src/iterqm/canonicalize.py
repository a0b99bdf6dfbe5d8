"""Canonical forms of iterated integrals in the Lyndon-word polynomial basis.

Any linear combination of bar words of quasimodular forms, with
quasimodular coefficients, equals a unique polynomial (over the ring of
quasimodular forms) in the iterated integrals of Lyndon words over the
ordered alphabet of :func:`~iterqm.quasimodular.basis_b`.  The rewriting
proceeds in two stages:

1. :func:`reduce_letters` replaces every letter by basis letters, using
   the weight decomposition of each letter and integration by parts to
   eliminate derivative components; each elimination shortens the word,
   so the recursion terminates.
2. :func:`canonical_form` rewrites the resulting words as polynomials in
   Lyndon words via the triangular shuffle elimination of
   :mod:`~iterqm.shuffle_lyndon`.

Soundness is checkable: re-expanding the output reproduces the input
series exactly at any truncation.  :func:`independence_rank` certifies
finite-truncation linear independence of families of such integrals by
exact rank: full rank modulo a fixed prime is already a certificate, and
only a deficient matrix falls back to elimination over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .iterint import BarCombo, BarWord, iter_integral
from .qseries import LogQSeries
from .quasimodular import (
    E2,
    QMPoly,
    _row_reduce,
    basis_b,
    decompose,
    expand,
    is_basis_letter,
    letter_sort_key,
)
from .shuffle_lyndon import LyndonPoly, to_lyndon_basis


class ModularModeError(ValueError):
    """Raised when modular-only canonicalization meets an E2 contribution."""

    def __init__(self, offending: QMPoly, where: str):
        self.offending = offending
        super().__init__(f"modular-only mode: {where} involves E2: {offending!r}")


def reduce_letters(combo: BarCombo) -> BarCombo:
    """Rewrite a bar combination so that every letter is a basis letter.

    Letters are split into homogeneous parts and decomposed along
    QM = C*E2 + D(QM) + M; pure-basis components are pulled out by
    multilinearity (their rational multiples join the coefficient), and
    derivative components are eliminated by integration by parts, which
    strictly shortens the word.  The expansion of the result equals the
    expansion of the input exactly.
    """
    out: dict[BarWord, QMPoly] = {}
    work: list[tuple[BarWord, QMPoly]] = list(combo.terms.items())

    def emit(word: BarWord, coeff: QMPoly) -> None:
        cur = out.get(word)
        cur = coeff if cur is None else cur + coeff
        if cur:
            out[word] = cur
        else:
            out.pop(word, None)

    def push(word: BarWord, coeff: QMPoly) -> None:
        if coeff and not any(l.is_zero() for l in word):
            work.append((word, coeff))

    while work:
        word, coeff = work.pop()
        pos = next((i for i, l in enumerate(word) if not is_basis_letter(l)), None)
        if pos is None:
            emit(word, coeff)
            continue
        letter = word[pos]
        for _, piece in letter.weight_split().items():
            c, m, h = decompose(piece)
            if c:
                push(word[:pos] + (E2,) + word[pos + 1 :], coeff * c)
            for mono, mcoeff in m.terms.items():
                push(word[:pos] + (QMPoly({mono: 1}),) + word[pos + 1 :], coeff * mcoeff)
            if h.is_zero():
                continue
            # Eliminate the derivative letter D(h); every branch shortens
            # the word by one.
            prefix, suffix = word[:pos], word[pos + 1 :]
            if not prefix and not suffix:
                cusp = h.cusp_value()
                push((), coeff * (QMPoly.constant(cusp) - h))
            elif not prefix:
                push((h * suffix[0],) + suffix[1:], coeff)
                push(suffix, -(coeff * h))
            elif not suffix:
                cusp = h.cusp_value()
                if cusp:
                    push(prefix, coeff * cusp)
                push(prefix[:-1] + (prefix[-1] * h,), -coeff)
            else:
                push(prefix + (h * suffix[0],) + suffix[1:], coeff)
                push(prefix[:-1] + (prefix[-1] * h,) + suffix, -coeff)
    return BarCombo(out)


@dataclass(frozen=True)
class CanonicalForm:
    """A polynomial in Lyndon words over the ordered basis alphabet.

    ``poly`` has QMPoly coefficients and monomials that are multisets of
    Lyndon words; word letters are indices into ``basis``.
    """

    poly: LyndonPoly
    basis: tuple[QMPoly, ...]
    modular: bool = False

    def expansion(self, trunc: int) -> LogQSeries:
        """Shuffle the Lyndon monomials back out and expand, exactly."""
        total = LogQSeries.zero(trunc)
        for mono, coeff in self.poly.terms.items():
            value = LogQSeries.constant(1, trunc)
            for iword in mono:
                letters = tuple(self.basis[i] for i in iword)
                value = value * iter_integral(letters, trunc)
            total = total + expand(coeff, trunc) * value
        return total


def _letters_in(combo: BarCombo) -> list[QMPoly]:
    return [l for word in combo.terms for l in word]


def canonical_form(combo: BarCombo, modular_only: bool = False) -> CanonicalForm:
    """Rewrite a bar combination in the canonical Lyndon polynomial basis.

    In modular-only mode every input letter and coefficient must avoid E2;
    the offending element is reported otherwise.
    """
    if modular_only:
        for word, coeff in combo.terms.items():
            if not coeff.is_modular():
                raise ModularModeError(coeff, "a coefficient")
            for letter in word:
                if not letter.is_modular():
                    raise ModularModeError(letter, "a letter")

    reduced = reduce_letters(combo)

    max_weight = 0
    for letter in _letters_in(reduced):
        max_weight = max(max_weight, letter_sort_key(letter)[0])
    basis = tuple(basis_b(max_weight, modular_only=modular_only))
    rank = {letter: i for i, letter in enumerate(basis)}

    poly = LyndonPoly.zero()
    for word, coeff in reduced.terms.items():
        iword = tuple(rank[l] for l in word)
        poly = poly + to_lyndon_basis(iword).map_coefficients(lambda f: coeff * f)
    return CanonicalForm(poly=poly, basis=basis, modular=modular_only)


#: The largest prime below 2^30: row operations mod it stay on small ints,
#: and a rank that drops mod it but not over Q is rare.
_RANK_PRIME = 2**30 - 35


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a dense rational matrix, exactly.

    Rows are scaled to integers by the lcm of their denominators and taken
    mod a fixed prime, where the rank can only drop.  Full rank there (the
    number of nonzero rows or of columns) is therefore the answer; a
    deficient matrix falls back to exact elimination over Q.
    """
    matrix = [list(row) for row in rows if any(row)]
    scales = [lcm(*(x.denominator for x in row)) for row in matrix]
    scaled = [[x.numerator * (s // x.denominator) % _RANK_PRIME for x in row]
              for row, s in zip(matrix, scales)]
    rank = len(_row_reduce(scaled, _RANK_PRIME))
    if rank == len(matrix) or rank == len(matrix[0]):
        return rank
    return len(_row_reduce(matrix))


def independence_rank(
    words: Sequence[Iterable[QMPoly]],
    multipliers: Sequence[QMPoly],
    trunc: int,
) -> int:
    """Exact rank of the multiplied integrals' coefficient vectors.

    Each series expand(multiplier) * integral(word) is flattened over the
    q^m L^k grid (m <= trunc, k up to the longest word).  Full rank
    certifies Q-linear independence of the family at this truncation: a
    finite witness, never a proof.  The rank is exact: full rank mod a
    prime certifies it, and a deficient matrix is settled over Q.
    """
    if len(words) != len(multipliers):
        raise ValueError("words and multipliers must pair up")
    series: list[LogQSeries] = []
    for word, mult in zip(words, multipliers):
        s = LogQSeries.from_qseries(expand(mult, trunc)) * iter_integral(tuple(word), trunc)
        series.append(s)
    max_log = max((s.log_degree() for s in series), default=0)
    rows = [
        [s.coefficient(m, k) for m in range(trunc + 1) for k in range(max_log + 1)]
        for s in series
    ]
    return rational_rank(rows)
