"""Canonical forms of iterated integrals in the Lyndon-word polynomial basis.

Any polynomial in iterated integrals of bar words, with quasimodular
coefficients, equals a unique polynomial (over the ring of quasimodular
forms) in the iterated integrals of Lyndon words over the ordered alphabet
of :func:`~iterqm.quasimodular.basis_b`.  :func:`canonical_form` computes it
as a ring homomorphism, rewriting each combination of words in two stages:

1. :func:`reduce_letters` replaces every letter by basis letters, using
   the weight decomposition of each letter and integration by parts to
   eliminate derivative components; each elimination shortens the word,
   so the rewriting terminates.
2. the resulting combination is rewritten as a whole into a polynomial in
   Lyndon words by the leading-word reduction of
   :func:`~iterqm.shuffle_lyndon.to_lyndon_basis`, with no cache.

Soundness is checkable: re-expanding the output reproduces the input
series exactly at any truncation.  :func:`independence_rank` certifies
finite-truncation linear independence of families of such integrals by
exact rank on integer rows: full rank modulo a fixed prime is already a
certificate, a deficiency is proved by the kernel found mod p, lifted to Q
and checked exactly, and only a failed lift falls back to elimination over Q.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .iterint import BarCombo, BarWord, IntegralPoly, ibp, iter_integral
from .linear import _accumulate
from .qseries import Scalar
from .quasimodular import (
    E2,
    ONE,
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
    derivative components are eliminated by :func:`~iterqm.iterint.ibp`,
    integration by parts, which shortens the word by one letter.  At DEBUG,
    each elimination is logged under the name of its position in the word
    (``ibp_first``, ``ibp_middle`` or ``ibp_last``).  Pending words wait,
    merged, in one dict per (length, first non-basis position); longer
    words and then earlier positions go first.  A rewrite shortens the word
    or moves that position right, so a word is rewritten once, after all
    its contributions, and not at all if they cancel.  Each distinct letter
    is split, and each homogeneous piece decomposed, once per call.  The
    expansion of the result equals the expansion of the input exactly.
    """
    out: dict[BarWord, QMPoly] = {}
    pending: dict[tuple[int, int], dict[BarWord, QMPoly]] = {}
    decomposed: dict[QMPoly, tuple[Fraction, QMPoly, QMPoly]] = {}
    splits: dict[QMPoly, tuple[list[tuple[QMPoly, Fraction]], list[QMPoly]]] = {}

    def push(word: BarWord, coeff: QMPoly, start: int) -> None:
        pos = next((i for i in range(start, len(word)) if not is_basis_letter(word[i])), None)
        _accumulate(out if pos is None else pending.setdefault((len(word), pos), {}), ((word, coeff),))

    def split(letter: QMPoly) -> tuple[list[tuple[QMPoly, Fraction]], list[QMPoly]]:
        """Basis letters with their multiples, and the h of each D(h) part."""
        subs, derivs = [], []
        for piece in letter.weight_split().values():
            c, m, h = decomposed.get(piece) or decomposed.setdefault(piece, decompose(piece))
            if c:
                subs.append((E2, c))
            subs.extend((QMPoly._of({mono: 1}), Fraction(num, m.den)) for mono, num in m.nums.items())
            if h:
                derivs.append(h)
        return subs, derivs

    for word, coeff in combo.terms.items():
        push(word, coeff, 0)
    debug = logger.isEnabledFor(logging.DEBUG)
    for n in range(max(map(len, combo.terms), default=0), 0, -1):
        for pos in range(n):
            for word, coeff in pending.pop((n, pos), {}).items():
                subs, derivs = splits.get(word[pos]) or splits.setdefault(word[pos], split(word[pos]))
                prefix, suffix = word[:pos], word[pos + 1 :]
                for basis_letter, scalar in subs:
                    push(prefix + (basis_letter,) + suffix, coeff * scalar, pos + 1)
                # Eliminate each D(h): ibp shortens the word by one and keeps
                # the letters before pos - 1.
                for h in derivs:
                    if debug:
                        rule = "ibp_middle" if prefix and suffix else "ibp_first" if suffix else "ibp_last"
                        logger.debug("%s: letter weight %d, word length %d", rule, h.weight() + 2, n)
                    for w, c in ibp(prefix, h, suffix).terms.items():
                        push(w, coeff * c, max(pos - 1, 0))
    return BarCombo._of(out)


def canonical_form(integrals: IntegralPoly | BarCombo, modular_only: bool = False) -> IntegralPoly:
    """Rewrite a polynomial in integrals, or a bar combination, in the canonical basis.

    A ring homomorphism: products are not shuffled out.  Monomials are
    grouped by all but their last word; each group's combination of last
    words (the empty word for a constant) is rewritten as a whole, then
    multiplied by the canonical forms of the group's other words.  The basis
    is the prefix of ``basis_b`` that the letters of the result need.  In
    modular-only mode every letter and coefficient of the unexpanded input
    must avoid E2; the offending element is reported otherwise.
    """
    if isinstance(integrals, BarCombo):
        groups = {(): integrals.terms}
    else:
        groups = {}
        for mono, coeff in integrals.poly.terms.items():
            words = [tuple(integrals.basis[i] for i in w) for w in mono] or [()]
            groups.setdefault(tuple(words[:-1]), {})[words[-1]] = coeff
    if modular_only:
        for rest, combo in groups.items():
            for word, coeff in combo.items():
                if not coeff.is_modular():
                    raise ModularModeError(coeff, "a coefficient")
                if (letter := next((l for l in chain(word, *rest) if not l.is_modular()), None)) is not None:
                    raise ModularModeError(letter, "a letter")

    reduced = {rest: reduce_letters(BarCombo._of(combo)) for rest, combo in groups.items()}
    factors = {word: reduce_letters(BarCombo._of({word: ONE})) for rest in groups for word in rest}
    max_weight = max((letter_sort_key(letter)[0] for combo in chain(reduced.values(), factors.values())
                      for word in combo.terms for letter in word), default=0)
    basis = tuple(basis_b(max_weight, modular_only=modular_only))
    rank = {letter: i for i, letter in enumerate(basis)}

    def lyndon(combo: BarCombo) -> LyndonPoly:
        return to_lyndon_basis({tuple(rank[l] for l in word): coeff for word, coeff in combo.terms.items()})

    images = {word: lyndon(combo) for word, combo in factors.items()}
    poly = sum((reduce(LyndonPoly.__mul__, (images[w] for w in rest), lyndon(combo))
                for rest, combo in reduced.items()), LyndonPoly.zero())
    # the letters of the result fix the basis: ranks grow with weight
    top = letter_sort_key(basis[max((i for mono in poly.terms for w in mono for i in w), default=0)])[0]
    return IntegralPoly(poly, tuple(l for l in basis if letter_sort_key(l)[0] <= top), modular_only)


#: The largest prime below 2^30: row operations mod it stay on small ints,
#: and a rank that drops mod it but not over Q is rare.
_RANK_PRIME = 2**30 - 35
_LIFT_BOUND = isqrt(_RANK_PRIME // 2)


def _rational_lift(u: int) -> Fraction | None:
    """The a/b = u mod _RANK_PRIME with |a|, b <= _LIFT_BOUND, by half-extended Euclid, or None."""
    r0, r1, t0, t1 = _RANK_PRIME, u, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > _LIFT_BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def rational_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over Q of a dense matrix of ints or Fractions, exactly.

    Rows are scaled to integers A by the lcm of their denominators and taken
    mod a fixed prime p, where the rank r can only drop: full rank there is
    the answer.  Otherwise the n - r kernel vectors of [A mod p | I], which
    are independent, are lifted to Q by rational reconstruction; if each
    lift v has v*A = 0 exactly, the rank over Q is at most, so exactly, r.
    Should a lift or its check fail, elimination over Q settles the rank.
    """
    matrix = [row for row in rows if any(row)]
    scales = [lcm(*(x.denominator for x in row)) for row in matrix]
    matrix = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(matrix, scales)]
    n = len(matrix)
    rank = len(_row_reduce([[x % _RANK_PRIME for x in row] for row in matrix], _RANK_PRIME))
    if rank == n or rank == len(matrix[0]):
        return rank
    augmented = [[x % _RANK_PRIME for x in row] + [int(i == j) for j in range(n)]
                 for i, row in enumerate(matrix)]
    _row_reduce(augmented, _RANK_PRIME, reduced=True)
    for row in augmented[rank:]:
        lifts = [_rational_lift(u) for u in row[-n:]]
        if None in lifts:
            break
        den = lcm(*(c.denominator for c in lifts))
        kernel = [(c.numerator * (den // c.denominator), a) for c, a in zip(lifts, matrix) if c]
        if any(sum(c * a[j] for c, a in kernel) for j in range(len(matrix[0]))):
            break
    else:
        return rank
    return len(_row_reduce(matrix))


def independence_rank(
    words: Sequence[Iterable[QMPoly]],
    multipliers: Sequence[QMPoly],
    trunc: int,
) -> int:
    """Exact rank of the multiplied integrals' coefficient vectors.

    Each series expand(multiplier) * integral(word) is flattened over the
    q^m L^k grid (m <= trunc, k up to the longest word) as its integer
    numerators, highest L-power first so that rows of lower log-degree sit
    out the first pivots.  Full rank certifies Q-linear independence of
    the family at this truncation: a finite witness, never a proof.  The
    rank is exact (see :func:`rational_rank`).
    """
    if len(words) != len(multipliers):
        raise ValueError("words and multipliers must pair up")
    series = [expand(mult, trunc) * iter_integral(tuple(word), trunc)
              for word, mult in zip(words, multipliers)]
    max_log = max((s.log_degree() for s in series), default=0)
    zero = (0,) * (trunc + 1)
    rows = [[x for k in range(max_log, -1, -1) for x in s.parts.get(k, zero)] for s in series]
    return rational_rank(rows)
