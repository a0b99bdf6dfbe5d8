"""Canonical forms of iterated integrals in the Lyndon-word polynomial basis.

Any linear combination of bar words of quasimodular forms, with
quasimodular coefficients, equals a unique polynomial (over the ring of
quasimodular forms) in the iterated integrals of Lyndon words over the
ordered alphabet of :func:`~iterqm.quasimodular.basis_b`.  The rewriting
proceeds in two stages:

1. :func:`reduce_letters` replaces every letter by basis letters, using
   the weight decomposition of each letter and integration by parts to
   eliminate derivative components; each elimination shortens the word,
   so the rewriting terminates.
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

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .iterint import BarCombo, BarWord, ibp_first, ibp_last, ibp_middle, iter_integral
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

logger = logging.getLogger(__name__)


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
    derivative components are eliminated by the integration-by-parts rules
    ``ibp_first``, ``ibp_middle`` and ``ibp_last`` of :mod:`~iterqm.iterint`,
    which shorten the word.  Pending words wait, merged, in one dict per
    (length, first non-basis position); longer words and then earlier
    positions go first.  A rewrite shortens the word or moves that position
    right, so a word is rewritten once, after all its contributions, and
    not at all if they cancel.  Each distinct letter is split, and each
    homogeneous piece decomposed, once per call.  The expansion of the
    result equals the expansion of the input exactly.
    """
    out: dict[BarWord, QMPoly] = {}
    pending: dict[tuple[int, int], dict[BarWord, QMPoly]] = {}
    decomposed: dict[QMPoly, tuple[Fraction, QMPoly, QMPoly]] = {}
    splits: dict[QMPoly, tuple[list[tuple[QMPoly, Fraction]], list[QMPoly]]] = {}

    def push(word: BarWord, coeff: QMPoly, start: int) -> None:
        if not coeff:
            return
        pos = next((i for i in range(start, len(word)) if not is_basis_letter(word[i])), None)
        bucket = out if pos is None else pending.setdefault((len(word), pos), {})
        cur = bucket.get(word)
        bucket[word] = coeff if cur is None else cur + coeff

    def split(letter: QMPoly) -> tuple[list[tuple[QMPoly, Fraction]], list[QMPoly]]:
        """Basis letters with their multiples, and the h of each D(h) part."""
        subs, derivs = [], []
        for piece in letter.weight_split().values():
            c, m, h = decomposed.get(piece) or decomposed.setdefault(piece, decompose(piece))
            if c:
                subs.append((E2, c))
            subs.extend((QMPoly({mono: 1}), mcoeff) for mono, mcoeff in m.terms.items())
            if h:
                derivs.append(h)
        return subs, derivs

    for word, coeff in combo.terms.items():
        push(word, coeff, 0)
    debug = logger.isEnabledFor(logging.DEBUG)
    for n in range(max(map(len, combo.terms), default=0), 0, -1):
        for pos in range(n):
            for word, coeff in pending.pop((n, pos), {}).items():
                if not coeff:
                    continue
                subs, derivs = splits.get(word[pos]) or splits.setdefault(word[pos], split(word[pos]))
                prefix, suffix = word[:pos], word[pos + 1 :]
                for basis_letter, scalar in subs:
                    push(prefix + (basis_letter,) + suffix, coeff * scalar, pos + 1)
                # Eliminate each D(h); every rule shortens the word by one
                # and keeps the letters before pos - 1.
                for h in derivs:
                    if prefix and suffix:
                        rule, terms = "ibp_middle", ibp_middle(prefix, h, suffix).terms.items()
                    elif suffix:
                        first, (g, tail) = ibp_first(h, suffix)
                        rule, terms = "ibp_first", [*first.terms.items(), (tail, g)]
                    else:
                        rule, (scalar, front, correction) = "ibp_last", ibp_last(prefix, h)
                        terms = [(front, scalar), *((w, -c) for w, c in correction.terms.items())]
                    if debug:
                        logger.debug("%s: letter weight %d, word length %d", rule, h.weight() + 2, n)
                    for w, c in terms:
                        push(w, coeff * c, max(pos - 1, 0))
    return BarCombo({word: coeff for word, coeff in out.items() if coeff})


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

    terms: dict[tuple, QMPoly] = {}
    for word, coeff in reduced.terms.items():
        for mono, f in to_lyndon_basis(tuple(rank[l] for l in word)).terms.items():
            cur = terms.get(mono)
            terms[mono] = coeff * f if cur is None else cur + coeff * f
    return CanonicalForm(poly=LyndonPoly(terms), basis=basis, modular=modular_only)


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
        series.append(expand(mult, trunc) * iter_integral(tuple(word), trunc))
    max_log = max((s.log_degree() for s in series), default=0)
    rows = [
        [s.coefficient(m, k) for m in range(trunc + 1) for k in range(max_log + 1)]
        for s in series
    ]
    return rational_rank(rows)
