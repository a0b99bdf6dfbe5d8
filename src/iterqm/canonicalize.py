"""Canonical forms of iterated integrals in the Lyndon-word polynomial basis.

Any polynomial in iterated integrals of bar words, with quasimodular
coefficients, equals a unique polynomial (over the ring of quasimodular
forms) in the iterated integrals of Lyndon words over the ordered alphabet
of :func:`~iterqm.quasimodular.basis_b`.  :func:`canonical_form` computes it
as a ring homomorphism, rewriting each combination of words in two stages:

1. :func:`reduce_letters` replaces every letter by basis letters, using
   the weight decomposition of each letter and integration by parts to
   eliminate derivative components; each elimination shortens the word,
   so the rewriting terminates.  Each word's coefficient is carried as
   integer numerators over a denominator, made a QMPoly once per word.
2. the resulting combination is rewritten as a whole into a polynomial in
   Lyndon words by the leading-word reduction of
   :func:`~iterqm.shuffle_lyndon.to_lyndon_basis`, with no cache.

Soundness is checkable: re-expanding the output reproduces the input
series exactly at any truncation.  :func:`independence_rank` certifies
finite-truncation linear independence of families of such integrals by
exact rank on rows built modulo a fixed prime p, each the exact row times
a unit mod p, first to q^t for t = 2*ceil(n/(1+l)) (n rows of words of
length <= l), read q-power by q-power in one pass that gives the rank and
the kernel: full rank is already a certificate, and a deficiency is proved
by the kernel, lifted to Q and checked on exact series of the rows it
involves.  Should that fail, the rows mod p are read to the full truncation,
then exactly; a denominator divisible by p takes exact rows throughout.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, Sequence

from .iterint import BarWord, IntegralPoly, ibp, iter_integral
from .linear import _accumulate
from .qseries import LogQSeries, Scalar
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


def reduce_letters(combo: Mapping[BarWord, QMPoly]) -> dict[BarWord, QMPoly]:
    """Rewrite a combination of bar words so that every letter is a basis letter.

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
    is split once per call.  A word's coefficient is an integer row: a
    denominator and a dict from monomials to numerators, added into by
    :func:`~iterqm.linear._accumulate`.
    A rational multiple, or an ibp coefficient that is a constant, costs one
    int product per entry; only ibp's boundary term -g*I(suffix) multiplies
    by a form.  A row becomes a QMPoly once, when its word is rewritten or
    returned.  The expansion of the result equals that of the input exactly.
    """
    out: dict[BarWord, list] = {}
    pending: dict[tuple[int, int], dict[BarWord, list]] = {}
    splits: dict[QMPoly, tuple[list[tuple[QMPoly, int, int]], list[QMPoly]]] = {}

    def push(word: BarWord, coeff: QMPoly, num: int, den: int, start: int) -> None:
        pos = next((i for i in range(start, len(word)) if not is_basis_letter(word[i])), None)
        bucket = out if pos is None else pending.setdefault((len(word), pos), {})
        den *= coeff.den
        row = bucket.get(word)
        if row is None:
            bucket[word] = [den, {k: v * num for k, v in coeff.nums.items()}]
            return
        if (common := lcm(row[0], den)) != row[0]:
            row[:] = common, {k: v * (common // row[0]) for k, v in row[1].items()}
        _accumulate(row[1], ((k, v * (num * common // den)) for k, v in coeff.nums.items()))

    def split(letter: QMPoly) -> tuple[list[tuple[QMPoly, int, int]], list[QMPoly]]:
        """Basis letters with their multiples, and the h of each D(h) part."""
        subs, derivs = [], []
        for piece in letter.weight_split().values():
            c, m, h = decompose(piece)
            if c:
                subs.append((E2, c.numerator, c.denominator))
            subs.extend((QMPoly._of({mono: 1}), num, m.den) for mono, num in m.nums.items())
            if h:
                derivs.append(h)
        return subs, derivs

    for word, coeff in combo.items():
        push(word, coeff, 1, 1, 0)
    debug = logger.isEnabledFor(logging.DEBUG)
    for n in range(max(map(len, combo), default=0), 0, -1):
        for pos in range(n):
            for word, (den, nums) in pending.pop((n, pos), {}).items():
                if not nums:
                    continue
                coeff = QMPoly._of(nums, den)
                subs, derivs = splits.get(word[pos]) or splits.setdefault(word[pos], split(word[pos]))
                prefix, suffix = word[:pos], word[pos + 1 :]
                for basis_letter, num, d in subs:
                    push(prefix + (basis_letter,) + suffix, coeff, num, d, pos + 1)
                # ibp shortens the word by one and keeps the letters before pos - 1
                for h in derivs:
                    if debug:
                        rule = "ibp_middle" if prefix and suffix else "ibp_first" if suffix else "ibp_last"
                        logger.debug("%s: letter weight %d, word length %d", rule, h.weight() + 2, n)
                    for w, c in ibp(prefix, h, suffix).items():
                        if len(c.nums) == 1 and (num := c.nums.get((0, 0, 0))):
                            push(w, coeff, num, c.den, max(pos - 1, 0))
                        else:
                            push(w, c * coeff, 1, 1, max(pos - 1, 0))
    return {word: QMPoly._of(nums, den) for word, (den, nums) in out.items() if nums}


def canonical_form(integrals: IntegralPoly, modular_only: bool = False) -> IntegralPoly:
    """Rewrite a polynomial in integrals in the canonical basis.

    A ring homomorphism: products are not shuffled out.  Monomials are
    grouped by all but their last word; each group's combination of last
    words (the empty word for a constant) is rewritten as a whole, then
    multiplied by the canonical forms of the group's other words.  The basis
    is the prefix of ``basis_b`` that the letters of the result need.  In
    modular-only mode every letter and coefficient of the unexpanded input
    must avoid E2; the offending element is reported otherwise.
    """
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

    reduced = {rest: reduce_letters(combo) for rest, combo in groups.items()}
    factors = {word: reduce_letters({word: ONE}) for rest in groups for word in rest}
    max_weight = max((letter_sort_key(letter)[0] for combo in chain(reduced.values(), factors.values())
                      for word in combo for letter in word), default=0)
    basis = tuple(basis_b(max_weight, modular_only=modular_only))
    rank = {letter: i for i, letter in enumerate(basis)}

    def lyndon(combo: dict[BarWord, QMPoly]) -> LyndonPoly:
        return to_lyndon_basis({tuple(rank[l] for l in word): coeff for word, coeff in combo.items()})

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


def _certified_rank(columns: list[Sequence[int]], ncols: int, is_kernel) -> int | None:
    """The rank over Q of a matrix A, from some of its columns mod _RANK_PRIME, where they prove it.

    Each column lists A's entries from its last row up.  One Gauss-Jordan pass mod p,
    which stops once all n rows have a pivot, gives the rank r mod p of those columns,
    never above A's rank over Q: r = n or r = ncols (A's true column count, or a bound
    on it) is the answer.  Else the null space holds n - r independent v that vanish
    on them mod p, in reduced row echelon form as the rows are reversed; if ``is_kernel``
    confirms v*A = 0 for the rational lift of each, A's rank is r, else this is None.
    """
    n = len(columns[0]) if columns else 0
    pivots = _row_reduce(columns, _RANK_PRIME, reduced=True)
    rank = len(pivots)
    if rank == n or rank == ncols:
        return rank
    for free in sorted(set(range(n)).difference(pivots), reverse=True):
        v = {free: 1, **{c: -row[free] % _RANK_PRIME for c, row in zip(pivots, columns)}}
        lifts = [_rational_lift(v.get(i, 0)) for i in reversed(range(n))]
        if None in lifts or not is_kernel(lifts):
            return None
    return rank


def rational_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over Q of a dense matrix of ints or Fractions, exactly.

    Rows are scaled to integers A by the lcm of their denominators and taken
    mod a fixed prime p: full rank there, or a kernel lifted to Q that
    checks exactly, is the answer (see :func:`_certified_rank`).  Should a
    lift or its check fail, elimination over Q settles the rank.
    """
    matrix = [row for row in rows if any(row)]
    scales = [lcm(*(x.denominator for x in row)) for row in matrix]
    matrix = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(matrix, scales)]
    ncols = len(matrix[0]) if matrix else 0

    def is_kernel(lifts: list[Fraction]) -> bool:
        den = lcm(*(c.denominator for c in lifts))
        kernel = [(c.numerator * (den // c.denominator), a) for c, a in zip(lifts, matrix) if c]
        return not any(sum(c * a[j] for c, a in kernel) for j in range(ncols))

    rank = _certified_rank(list(zip(*([x % _RANK_PRIME for x in r] for r in matrix[::-1]))), ncols, is_kernel)
    return len(_row_reduce(matrix)) if rank is None else rank


def _columns(series: Sequence[LogQSeries], trunc: int) -> list[tuple[int, ...]]:
    """The series' numerators over the q^m L^k grid as columns, one per (m, k) in
    order of m, then k; each lists the series from the last to the first."""
    max_log = max((s.log_degree() for s in series), default=0)
    zero = (0,) * (trunc + 1)
    parts = [zip(*(s.parts.get(k, zero) for s in reversed(series))) for k in range(max_log + 1)]
    return [column for at_m in zip(*parts) for column in at_m]


def independence_rank(
    words: Sequence[Iterable[QMPoly]],
    multipliers: Sequence[QMPoly],
    trunc: int,
) -> int:
    """Exact rank of the multiplied integrals' coefficient vectors.

    Each series expand(multiplier) * integral(word) is a row over the q^m L^k
    grid (m <= trunc, k up to the longest word, l), read column by column in
    order of q-power.  Full rank certifies Q-linear independence of the family
    at this truncation: a finite witness, never a proof.  The rank is exact.
    The n rows are built mod a fixed prime p, each the exact row times a unit,
    first to q^t for t = min(trunc, 2*ceil(n/(1+l))): their columns are some
    of those at trunc, so full rank is the answer, and a kernel is lifted to Q
    and checked on exact series to q^trunc of the rows it involves (see
    :func:`_certified_rank`).  Should that fail, one more pass mod p reads the
    rows to q^trunc; should that fail too, or p divide a denominator, the exact
    rows decide.  A DEBUG line names the truncation that decided and the route.
    """
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    if len(words) != len(multipliers):
        raise ValueError("words and multipliers must pair up")
    words = [tuple(word) for word in words]
    n, longest = len(words), max(map(len, words), default=0)
    expanded: dict[tuple[QMPoly, int, int], LogQSeries] = {}  # a few multipliers serve many rows

    def series(i: int, t: int, modulus: int = 0) -> LogQSeries:
        key = (multipliers[i], t, modulus)
        if key not in expanded:
            expanded[key] = expand(multipliers[i], t, modulus)
        return expanded[key] * iter_integral(words[i], t, modulus)

    def exact_columns() -> list[tuple[int, ...]]:
        return _columns([series(i, trunc) for i in range(n)], trunc)

    exact: dict[int, LogQSeries] = {}

    def is_kernel(lifts: list[Fraction]) -> bool:
        total = LogQSeries.zero(trunc)
        for i, c in enumerate(lifts):
            if c:
                if i not in exact:
                    exact[i] = series(i, trunc)
                total = total + exact[i].scale(c)
        return total.is_zero()

    width = (trunc + 1) * (1 + longest)
    for t in dict.fromkeys((min(trunc, 2 * -(-n // (1 + longest))), trunc)):  # trunc once if t = trunc
        try:
            residues = _columns([series(i, t, _RANK_PRIME) for i in range(n)], t)
        except ZeroDivisionError:  # p divides a denominator: the rows mod p prove nothing
            logger.debug("rank at q^%d: exact rows, p divides a denominator", trunc)
            return rational_rank(list(zip(*exact_columns())))
        if (rank := _certified_rank(residues, width, is_kernel)) is not None:
            route = "full rank" if rank in (n, width) else f"kernel of {n - rank} checked, {len(exact)} rows exact"
            logger.debug("rank %d at q^%d of q^%d: %s", rank, t, trunc, route)
            return rank
    logger.debug("rank at q^%d: exact elimination, the kernel mod p did not lift or check", trunc)
    return len(_row_reduce(exact_columns()))
