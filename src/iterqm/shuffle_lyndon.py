"""Shuffle-algebra combinatorics over a totally ordered integer alphabet.

Words are tuples of non-negative letter indices; the order on letters is
the integer order and words compare lexicographically.  Provides Duval's
algorithm for the weight-bounded enumeration of Lyndon words and for the
unique nonincreasing factorization of a word into Lyndon words, which also
decides whether a word is Lyndon, and the rewriting of any combination of
words, with rational or QMPoly coefficients, as a polynomial in Lyndon
words with respect to the shuffle product, by leading-word reduction on
integer numerators.  Coefficients of a
:class:`LyndonPoly` live in any commutative ring that supports +, *,
unary -, and truthiness for zero tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import index, neg

from .linear import _accumulate, _add_row, _power
from .quasimodular import QMPoly

Word = tuple[int, ...]


def _shuffle(w1: Word, w2: Word, memo: dict) -> dict[Word, int]:
    """Interleavings with multiplicity; letters may be any hashables (bar words too).

    ``memo`` is the caller's: it maps the word pairs shuffled so far to their interleavings, read but
    never changed, and each word made so far to itself, so equal words share one tuple (no letter is a
    tuple, so no pair of words equals a word).
    """
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out = memo.get((w1, w2))
    if out is None:
        out = memo[w1, w2] = {}  # filled from strictly shorter pairs only
        for head, rest in ((w1[:1], _shuffle(w1[1:], w2, memo)), (w2[:1], _shuffle(w1, w2[1:], memo))):
            for word, mult in rest.items():
                word = head + word
                word = memo.setdefault(word, word)
                out[word] = out.get(word, 0) + mult
    return out


def shuffle(w1: Iterable, w2: Iterable) -> dict[tuple, int]:
    """Shuffle product of two words: interleavings with multiplicity.

    Letters may be indices or the QMPoly letters of bar words: the shuffle
    of two bar words is the product of their integrals (Chen).
    """
    return dict(_shuffle(tuple(w1), tuple(w2), {}))


def is_lyndon(w: Iterable[int]) -> bool:
    """True when the word is nonempty and smaller than all proper suffixes: its Duval factorization is itself."""
    return bool(w := tuple(w)) and len(lyndon_factorize(w)) == 1


def lyndon_words(alphabet_size: int, max_len: int, letter_weight: Mapping[int, int], max_weight: int) -> list[Word]:
    """All Lyndon words of length <= max_len and total weight <= max_weight, in lexicographic order.

    Generated by Duval's algorithm.  Each letter needs a weight, and the
    weights must be non-negative, so no extension of a heavier word is kept
    either, and the enumeration skips them: it keeps the weight of every
    prefix and stops extending a word at the first letter that passes the
    bound.  Zero weights and max_weight 0 list every Lyndon word.
    """
    for name, value in (("alphabet_size", alphabet_size), ("max_len", max_len)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not alphabet_size or not max_len:
        return []
    for l in range(alphabet_size):
        if l not in letter_weight:
            raise ValueError(f"letter {l} has no weight")
        if letter_weight[l] < 0:
            raise ValueError("letter weights must be non-negative")

    out: list[Word] = []
    w, prefix = [0], [0, letter_weight[0]]  # prefix[i]: weight of w[:i]
    while w:
        if prefix[-1] <= max_weight:
            out.append(tuple(w))
            # periodic extension to full length, or to the first prefix over
            # the bound: every word extending that prefix is skipped
            m = len(w)
            while len(w) < max_len and prefix[-1] <= max_weight:
                w.append(w[len(w) % m])
                prefix.append(prefix[-1] + letter_weight[w[-1]])
        # increment the last non-maximal letter
        while w and w[-1] == alphabet_size - 1:
            w.pop()
            prefix.pop()
        if w:
            w[-1] += 1
            prefix[-1] = prefix[-2] + letter_weight[w[-1]]
    return out


def lyndon_factorize(w: Iterable[int]) -> list[Word]:
    """Unique factorization into a nonincreasing product of Lyndon words.

    Duval's linear-time algorithm.
    """
    w = tuple(w)
    if not w:
        raise ValueError("the empty word has no Lyndon factorization")
    factors: list[Word] = []
    k = 0
    n = len(w)
    while k < n:
        i, j = k, k + 1
        while j < n and w[i] <= w[j]:
            i = k if w[i] < w[j] else i + 1
            j += 1
        while k <= i:
            factors.append(w[k : k + j - i])
            k += j - i
    return factors


class LyndonPoly:
    """An immutable polynomial in words: ``terms`` maps monomials, multisets
    of words stored as sorted tuples, to nonzero coefficients.

    Multiplication is the free commutative product of monomials with
    coefficient products; the coefficients may be Fractions or any
    commutative ring elements.  Only the constructor checks that the words
    are Lyndon (a parse has others): the operations build their results
    with the unchecked :meth:`_of`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Word, ...], object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms

        def checked():
            for mono, coeff in items:
                mono = tuple(sorted(tuple(w) for w in mono))
                for w in mono:
                    if not is_lyndon(w):
                        raise ValueError(f"monomial contains a non-Lyndon word {w}")
                yield mono, coeff

        object.__setattr__(self, "terms", _accumulate({}, checked()))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LyndonPoly is immutable")

    def __reduce__(self):
        return LyndonPoly._of, (self.terms,)

    @classmethod
    def _of(cls, terms: dict) -> "LyndonPoly":
        """Wrap a fresh dict of monomials to nonzero coefficients, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls) -> "LyndonPoly":
        return cls._of({})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LyndonPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "LyndonPoly") -> "LyndonPoly":
        if not isinstance(other, LyndonPoly):
            return NotImplemented
        return LyndonPoly._of(_accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "LyndonPoly") -> "LyndonPoly":
        if not isinstance(other, LyndonPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "LyndonPoly":
        return LyndonPoly._of({mono: -coeff for mono, coeff in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "LyndonPoly(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            body = "*".join("".join(map(str, w)) for w in mono) or "1"
            bits.append(f"({coeff!r})*{body}")
        return "LyndonPoly(" + " + ".join(bits) + ")"

    def __mul__(self, other: "LyndonPoly") -> "LyndonPoly":
        if not isinstance(other, LyndonPoly):
            return NotImplemented
        return LyndonPoly._of(_accumulate({}, (
            (tuple(sorted(m1 + m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )))

    def __pow__(self, n: int) -> "LyndonPoly":
        """The n-th power for an integer n >= 1 (the coefficient ring's 1 is unknown)."""
        if (n := index(n)) < 1:
            raise ValueError("only positive powers are defined")
        return _power(self, n)


def to_lyndon_basis(combo: Iterable[int] | Mapping[Word, object]) -> LyndonPoly:
    """Rewrite a word, or a mapping of words to rationals or QMPolys, as a polynomial in Lyndon words.

    Leading-word reduction (Radford), one Lyndon factor at a time: the
    largest remaining word w = l*v, l its first Lyndon factor, has l ш v =
    lead*w plus smaller words of w's length, lead the number of w's leading
    factors equal to l.  So c*w is c/lead times l times v, v reduced in turn,
    less c/lead times those smaller words; longer words go first, so a word
    is reduced once.  Coefficients are integer rows, numerators over their
    own denominator, by monomial of the Lyndon words split off, added only
    by :func:`~iterqm.linear._add_row`, lead joining the denominator; a
    Lyndon input word's coefficient opens the row of its own monomial.  The
    result's coefficients are QMPolys if any input coefficient is one, else
    Fractions; a scalar that is not an exact rational raises TypeError.
    Shuffle-expanding returns exactly the input.
    """
    items = combo.items() if isinstance(combo, Mapping) else [(tuple(combo), Fraction(1))]
    pending, done, memo = {}, {}, {}  # pending: a word's rows; done: a row by Lyndon monomial
    for w, c in items:
        c = c if isinstance(c, QMPoly) else QMPoly.constant(c)
        if len(w) < 2 or is_lyndon(w):
            _add_row(done, (w,) if w else (), c.nums, 1, c.den)
        else:
            _add_row(pending.setdefault(w, {}), (), c.nums, 1, c.den)
    heapify(heap := [(-len(w), tuple(map(neg, w))) for w in pending])  # longest, then largest words first
    while heap:
        n, key = heappop(heap)
        row = pending.pop(w := tuple(map(neg, key)))
        if not any(nums for _, nums in row.values()):  # cancelled
            continue
        factors = lyndon_factorize(w)
        target, off, lead = done, tuple(factors), 1  # where the row goes, with the Lyndon words split off
        if len(factors) > 1:
            l, v = factors[0], w[len(factors[0]) :]
            shuffled = _shuffle(l, v, memo)
            assert max(shuffled) == w, "triangularity violated"
            lead = shuffled[w]
            for u, mult in shuffled.items():
                if u != w:
                    if (rows := pending.get(u)) is None:
                        rows = pending[u] = {}
                        heappush(heap, (n, tuple(map(neg, u))))
                    for mono, (d, nums) in row.items():
                        _add_row(rows, mono, nums, -mult, d * lead)
            if len(factors) > 2:
                off = (l,)
                if (target := pending.get(v)) is None:
                    target = pending[v] = {}
                    heappush(heap, (-len(v), tuple(map(neg, v))))
        for mono, (d, nums) in row.items():
            _add_row(target, tuple(sorted(mono + off)), nums, 1, d * lead)
    qm = any(isinstance(c, QMPoly) for _, c in items)
    return LyndonPoly._of({mono: QMPoly._of(nums, d) if qm else Fraction(nums[0, 0, 0], d)
                           for mono, (d, nums) in done.items() if nums})
