"""Canonical forms of iterated integrals in the Lyndon-word polynomial basis.

Any polynomial in iterated integrals of bar words, with quasimodular
coefficients, equals a unique polynomial (over the ring of quasimodular
forms) in the iterated integrals of Lyndon words over the ordered alphabet
of :func:`~iterqm.quasimodular.basis_b`.  :func:`canonical_form` computes it
as a ring homomorphism, rewriting each combination of words in two stages,
both on integer numerators: :func:`reduce_letters` replaces every letter,
interned as a small int, by basis letters, eliminating derivative parts by
integration by parts; then :func:`~iterqm.shuffle_lyndon.to_lyndon_basis`
rewrites the combination by leading-word reduction.

Soundness is checkable: re-expanding the output reproduces the input
series exactly at any truncation.  :func:`independence_rank` gives the
exact rank of the truncated expansions of families of such integrals, by
certificates mod a fixed prime p, the rank and the kernel lifted to Q and
checked exactly; each family keeps its proof, whatever its row order.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, isqrt, prod
from typing import Iterable, Mapping, Sequence

from .iterint import BarWord, IntegralPoly, _as_word, iter_integral
from .linear import _accumulate, _add_row
from .qseries import LogQSeries, _pack
from .quasimodular import (
    ONE,
    Exponents,
    QMPoly,
    _split,
    basis_b,
    expand,
    is_basis_letter,
    letter_sort_key,
)
from .shuffle_lyndon import LyndonPoly, Word, to_lyndon_basis

logger = logging.getLogger(__name__)


class ModularModeError(ValueError):
    """Raised when modular-only canonicalization meets an E2 contribution."""

    def __init__(self, offending: QMPoly, where: str):
        self.offending = offending
        super().__init__(f"modular-only mode: {where} involves E2: {offending!r}")


def reduce_letters(combo: Mapping[BarWord, QMPoly]) -> dict[BarWord, QMPoly]:
    """Rewrite a combination of bar words so that every letter is a basis letter.

    Each letter is split once along QM = C*E2 + D(QM) + M; basis
    components are pulled out by multilinearity, and its derivative part
    D(h) is eliminated by one integration by parts, which shortens the word:

        I(..., f, D(h), g, ...) = I(..., f, h*g, ...) - I(..., f*h, g, ...)

    At an end of the word the missing neighbour gives a boundary term
    instead: h(cusp) * I(prefix) at the right end, -h * I(suffix) at the
    left, so I(D(h)) = h(cusp) - h.  At DEBUG each elimination is logged under
    the name of its position (``ibp_first``, ``ibp_middle`` or ``ibp_last``).
    Pending words wait, merged, in one dict per (length, first non-basis
    position), longer words and then earlier positions first, so a word is
    rewritten once, after all its contributions, and not at all if they
    cancel.  Letters are interned as small ints for the call: each distinct
    letter is split once, and each product with an h formed once.  A word's
    coefficient is an integer row, numerators by monomial over a
    denominator; only the boundary term -h*I(suffix) multiplies it by a
    form.  The expansion of the result equals that of the input exactly.
    """
    letters: list[QMPoly] = []  # by id
    ids: dict[QMPoly, int] = {}
    basis: list[bool] = []  # by id
    splits: dict[int, tuple[list[tuple[int, int, int]], int | None]] = {}
    hs: list[QMPoly] = []  # the h of each D(h) part split off
    products: dict[tuple[int, int], int] = {}  # (index of h, letter) to the id of their product
    out: dict[Word, list] = {}
    pending: dict[tuple[int, int], dict[Word, list]] = {}

    def intern(letter: QMPoly) -> int:
        if (i := ids.get(letter)) is None:
            i = ids[letter] = len(letters)
            letters.append(letter)
            basis.append(is_basis_letter(letter))
        return i

    def split(i: int) -> tuple[list[tuple[int, int, int]], int | None]:
        """Basis letters with their multiples num/den, and the index of the h of the D(h) part, if any."""
        m, h, den = _split(letters[i])
        subs = [(intern(QMPoly._of({mono: 1})), num, den) for mono, num in m.items()]
        if h:
            hs.append(QMPoly._of(h, den))
        return subs, len(hs) - 1 if h else None

    def times(g: int, i: int) -> int:
        if (p := products.get((g, i))) is None:
            p = products[g, i] = intern(hs[g] * letters[i])
        return p

    def push(word: Word, start: int, nums: dict[Exponents, int], num: int, den: int) -> None:
        """Add num/den times the numerators nums to the word's row, filed by its first non-basis position."""
        rows = out
        for i in range(start, len(word)):
            if not basis[word[i]]:
                rows = pending.setdefault((len(word), i), {})
                break
        _add_row(rows, word, nums, num, den)

    for word, coeff in combo.items():
        if all(word):
            push(tuple(map(intern, word)), 0, coeff.nums, 1, coeff.den)
    debug = logger.isEnabledFor(logging.DEBUG)
    for n in range(max(map(len, combo), default=0), 0, -1):
        for pos in range(n):
            for word, (den, nums) in pending.pop((n, pos), {}).items():
                if not nums:
                    continue
                subs, g = splits.get(word[pos]) or splits.setdefault(word[pos], split(word[pos]))
                prefix, suffix = word[:pos], word[pos + 1 :]
                for b, num, d in subs:
                    push(prefix + (b,) + suffix, pos + 1, nums, num, den * d)
                if g is None:
                    continue
                if debug:
                    rule = "ibp_middle" if prefix and suffix else "ibp_first" if suffix else "ibp_last"
                    logger.debug("%s: word length %d", rule, n)
                start = max(pos - 1, 0)  # the rule keeps the letters before pos - 1
                h = hs[g]  # the rule's terms: I(.., h*g, ..) or h(cusp)*I(prefix), less I(.., f*h, ..) or h*I(suffix)
                if suffix:
                    push(prefix + (times(g, suffix[0]),) + suffix[1:], start, nums, 1, den)
                elif cusp := sum(h.nums.values()):
                    push(prefix, start, nums, cusp, den * h.den)
                if prefix:
                    push(prefix[:-1] + (times(g, prefix[-1]),) + suffix, start, nums, -1, den)
                else:
                    h = h * QMPoly._of(nums)
                    push(suffix, 0, h.nums, -1, den * h.den)
    return {tuple(letters[i] for i in word): QMPoly._of(nums, den) for word, (den, nums) in out.items() if nums}


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


def _pivot_rows(rows: Sequence[Sequence[int]], modulus: int) -> tuple[list[tuple[int, list[int], int]], int]:
    """Gauss-Jordan elimination of residues in [0, p) mod a prime ``modulus`` p, a row at a time; writes no row.

    Each row that is not all zero is reduced against the pivots found so far
    and, unless it vanishes, scaled to a new one with a 1 at its first nonzero
    entry, until every column has a pivot.  A pivot is kept negated, -y mod p,
    and packed in one int by :func:`~iterqm.qseries._pack`: a row update is one
    multiply-add.  Should the rows end short of full rank, each pivot is reduced
    by the later ones, so the pivots are a reduced row echelon form.  Returns
    the pivots as (column, negated row, packed) in order of column, and the width.
    """
    width = len(rows[0]) if rows else 0
    size = (modulus + width * modulus**2).bit_length() // 8 + 1  # a slot's bytes: it stays below p + rank * p^2
    shifts, mask = range(0, 8 * size * width, 8 * size), (1 << 8 * size) - 1

    def reduce(x: int, pivots) -> int:  # the packed row less its multiples of the pivots
        for c, _, negated in pivots:
            if f := (x >> shifts[c] & mask) % modulus:
                x += f * negated
        return x

    def pivot(c: int, x: int) -> tuple[int, list[int], int]:  # the reduced row scaled to -1 in column c
        inv = -pow(x >> shifts[c] & mask, -1, modulus)
        negated = [(x >> s & mask) * inv % modulus for s in shifts]
        return c, negated, _pack(negated, size, modulus)

    found, free = [], list(range(width))  # pivots as found, as pivot gives them; columns without one
    for row in filter(any, rows):  # a zero row is passed over
        x = reduce(_pack(row, size, modulus), found)
        if (c := next((j for j in free if (x >> shifts[j] & mask) % modulus), None)) is not None:
            found.append(pivot(c, x))
            free.remove(c)
            if not free:
                break
    if free:  # rows found later are zero in the pivot columns of earlier ones
        for i in range(len(found) - 2, -1, -1):
            found[i] = pivot(found[i][0], reduce(found[i][2], found[i + 1 :]))
    return sorted(found), width


def _exact_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of integer rows: Gaussian elimination on Fractions, a row at a time, until each column has a pivot."""
    pivots: list[tuple[int, list[Fraction]]] = []  # (column, row with 1 there and 0 left of it and in earlier columns)
    for row in rows:
        x = list(row)
        for c, y in pivots:
            if f := x[c]:
                x[c:] = [a - f * b for a, b in zip(x[c:], y[c:])]
        if (c := next((j for j, a in enumerate(x) if a), None)) is not None:
            pivots.append((c, [Fraction(a, x[c]) for a in x]))
            if len(pivots) == len(x):
                break
    return len(pivots)


def _certificate(columns: list[Sequence[int]], rows: Sequence) -> tuple[int, tuple[dict, ...] | None]:
    """The rank mod _RANK_PRIME of some columns of a matrix A, and the rational lifts of its kernel.

    Each column lists A's entries from its last row up; ``rows`` names A's rows, first to last.
    One Gauss-Jordan pass mod p, which stops once all n rows have a pivot, gives the rank r mod p
    of those columns, never above A's rank over Q.  Below n, the null space holds n - r independent
    v that vanish on them mod p, in reduced row echelon form as the rows are reversed; each is
    lifted to Q and kept as its nonzero lifts by row name, in order of row, or the kernel is None
    if an entry does not lift.  The rank over Q is r if r reaches A's column count, or if each
    lifted v checks exactly: v*A = 0.
    """
    found, n = _pivot_rows(columns, _RANK_PRIME)  # pivot rows mod p, negated
    kernel = []
    for free in sorted(set(range(n)).difference(c for c, _, _ in found), reverse=True):
        v = {free: 1, **{c: negated[free] for c, negated, _ in found}}
        lifts = {rows[n - 1 - c]: _rational_lift(v[c]) for c in sorted(v, reverse=True) if v[c]}
        if None in lifts.values():
            return len(found), None
        kernel.append(lifts)
    return len(found), tuple(kernel)


def _columns(series: Sequence[LogQSeries], trunc: int) -> list[tuple[int, ...]]:
    """The series' numerators over the q^m L^k grid as columns, one per (m, k) in
    order of k, then m (L-part by L-part); each lists the series from the last to the first."""
    max_log = max((s.log_degree() for s in series), default=0)
    zero = (0,) * (trunc + 1)
    parts = [zip(*(s.parts.get(k, zero) for s in reversed(series))) for k in range(max_log + 1)]
    return [column for part in parts for column in part]


def _residue_certificate(rows: Sequence[tuple[QMPoly, BarWord]], t: int) -> tuple:
    """The :func:`_certificate` of the rows (multiplier, word), multiplier * I(word) mod _RANK_PRIME
    to q^t, multipliers expanded once."""
    expanded = {m: expand(m, t, _RANK_PRIME) for m in dict.fromkeys(m for m, _ in rows)}
    series = (expanded[m] * iter_integral(w, t, _RANK_PRIME) for m, w in rows)
    return _certificate(_columns(list(series), t), rows)  # the rows are freed before the elimination


class _Proofs(dict):
    """Rank proofs by family, the frozenset of its distinct rows (multiplier, word), whatever
    their order: the floor (s, r), the lowest truncation s whose certificate proved the rank r
    at every N >= s, and the certificate at q^t0, each None until found.  At most ``maxsize``
    families, the least recently used dropped first; :func:`iterqm.clear_caches` empties it."""

    maxsize = 64  # 14 families a certify round

    def read(self, key: frozenset) -> tuple:  # the family's (floor, certificate), now the most recently used
        if (proof := self.pop(key, None)) is None:
            return None, None
        self[key] = proof
        return proof

    def keep(self, key: frozenset, floor: tuple | None, certificate: tuple | None) -> None:
        self[key] = floor, certificate
        if len(self) > self.maxsize:
            del self[next(iter(self))]

    cache_clear = dict.clear


_proofs = _Proofs()


def independence_rank(
    words: Sequence[Iterable[QMPoly]],
    multipliers: Sequence[QMPoly],
    trunc: int,
) -> int:
    """Exact rank of the multiplied integrals' coefficient vectors.

    Each series expand(multiplier) * integral(word) is a row over the q^m L^k grid (m <= trunc,
    k up to the longest word, l), read L-part by L-part.  Letters and multipliers enter by their
    integer numerators, each row times a positive integer; equal rows count once.  The n distinct
    rows are certified mod p (see :func:`_certificate`) to q^t for t = min(trunc, t0), t0 =
    2*ceil(n/(1+l)), then to q^trunc.  A certificate decides if its rank is the width, or if each
    kernel vector is an identity (:func:`reduce_letters` rewrites it to nothing; tried within the
    width) or checks on the exact rows to q^trunc; else :func:`_exact_rank` eliminates the exact
    rows.  Truncation is a linear map: full rank at q^s, or a kernel of identities, gives the rank
    at every N >= s.  The lowest such s, with its rank, and the certificate at q^t0 are kept per
    family in :data:`_proofs`.  A DEBUG line names the truncation and route.
    """
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    if len(words) != len(multipliers):
        raise ValueError("words and multipliers must pair up")
    if not all(isinstance(m, QMPoly) for m in multipliers):
        raise TypeError("multipliers must be QMPoly")
    # the integral is linear in each letter: numerators multiply a row by a positive integer
    words = tuple(tuple(l if l.den == 1 else QMPoly._of(dict(l.nums)) for l in _as_word(word)) for word in words)
    multipliers = tuple(m if m.den == 1 else QMPoly._of(dict(m.nums)) for m in multipliers)
    key = frozenset(zip(multipliers, words))  # the family, whatever its row order
    n = len(key)  # a repeated row adds nothing to the rank

    def proved(s: int, rank: int) -> int:  # the rank at every N >= s
        logger.debug("rank %d at q^%d of q^%d: %s", rank, s, trunc,
                     "full rank" if rank == n else f"kernel of {n - rank} an identity")
        return rank

    floor, kept = _proofs.read(key)
    if floor and floor[0] <= trunc:  # q^s's columns are some of q^trunc's
        return proved(*floor)
    rows = list(dict.fromkeys(zip(multipliers, words)))  # in the caller's order
    longest = max((len(w) for _, w in rows), default=0)
    expanded: dict[QMPoly, LogQSeries] = {}  # a few multipliers serve many rows
    exact: dict[tuple[QMPoly, BarWord], LogQSeries] = {}  # rows over Q to q^trunc, each built once

    def row(r: tuple[QMPoly, BarWord]) -> LogQSeries:  # the exact row to q^trunc
        if (s := exact.get(r)) is None:
            if (m := r[0]) not in expanded:
                expanded[m] = expand(m, trunc)
            s = exact[r] = expanded[m] * iter_integral(r[1], trunc)
        return s

    def is_kernel(v: dict) -> bool:
        total = LogQSeries.zero(trunc)
        for r, c in v.items():
            total = total + row(r).scale(c)
        return total.is_zero()

    def is_identity(v: dict) -> bool:  # tried only within the width
        return (sum(prod(len(l.nums) for l in w) for _, w in v) <= width
                and not reduce_letters(_accumulate({}, ((w, m * c) for (m, w), c in v.items()))))

    width, t0 = (trunc + 1) * (1 + longest), 2 * -(-n // (1 + longest))
    for t in dict.fromkeys((min(trunc, t0), trunc)):  # q^t0 or a lower q^trunc, then q^trunc
        if t != t0:
            rank, kernel = _residue_certificate(rows, t)
        elif kept:
            rank, kernel = kept
        else:
            rank, kernel = kept = _residue_certificate(rows, t)
            _proofs.keep(key, floor, kept)
        if kernel is not None and all(map(is_identity, kernel)):  # rank n, or n - rank identities: rank from q^t up
            _proofs.keep(key, (t, rank), kept)  # below the floor, if any
            return proved(t, rank)
        if rank == width or kernel is not None and all(map(is_kernel, kernel)):
            route = "full rank" if rank == width else f"kernel of {n - rank} checked, {len(exact)} rows exact"
            logger.debug("rank %d at q^%d of q^%d: %s", rank, t, trunc, route)
            return rank
    logger.debug("rank at q^%d: exact rows, the kernel did not lift or check", trunc)
    # the columns of numerators, each row times its denominator, have the rows' rank
    return _exact_rank(_columns([row(r) for r in rows], trunc))
