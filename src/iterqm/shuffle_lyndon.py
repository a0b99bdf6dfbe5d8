"""Shuffle-algebra combinatorics over a totally ordered integer alphabet.

Words are tuples of non-negative letter indices; the order on letters is
the integer order and words compare lexicographically.  Provides Lyndon
word testing and enumeration (Duval's algorithm), the unique nonincreasing
factorization of a word into Lyndon words, and the rewriting of any word
as a polynomial in Lyndon words with respect to the shuffle product.

Coefficients of a :class:`LyndonPoly` live in any commutative ring that
supports +, *, unary -, and truthiness for zero tests (Fraction and
QMPoly both qualify).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

Word = tuple[int, ...]


@lru_cache(maxsize=None)
def _shuffle(w1: Word, w2: Word) -> dict[Word, int]:
    """Interleavings with multiplicity; letters may be any hashables (bar words too)."""
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out: dict[Word, int] = {}
    for word, mult in _shuffle(w1[1:], w2).items():
        key = (w1[0],) + word
        out[key] = out.get(key, 0) + mult
    for word, mult in _shuffle(w1, w2[1:]).items():
        key = (w2[0],) + word
        out[key] = out.get(key, 0) + mult
    return out


def shuffle(w1: Iterable[int], w2: Iterable[int]) -> dict[Word, int]:
    """Shuffle product of two words: interleavings with multiplicity."""
    return dict(_shuffle(tuple(w1), tuple(w2)))


def shuffle_combos(c1: Mapping[Word, object], c2: Mapping[Word, object]) -> dict[Word, object]:
    """Bilinear extension of the shuffle product to linear combinations."""
    out: dict[Word, object] = {}
    for w1, a in c1.items():
        for w2, b in c2.items():
            ab = a * b
            for word, mult in _shuffle(w1, w2).items():
                cur = out.get(word)
                add = ab * mult
                cur = add if cur is None else cur + add
                if cur:
                    out[word] = cur
                else:
                    out.pop(word, None)
    return out


def _shuffle_all(words: Iterable[Word]) -> dict[Word, int]:
    """Shuffle product of a sequence of words, with multiplicity."""
    out: dict[Word, int] = {(): 1}
    for w in words:
        out = shuffle_combos(out, {w: 1})
    return out


def is_lyndon(w: Iterable[int]) -> bool:
    """True when the word is nonempty and smaller than all proper suffixes."""
    w = tuple(w)
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(
    alphabet_size: int,
    max_len: int,
    letter_weight: Optional[Mapping[int, int]] = None,
    max_weight: Optional[int] = None,
) -> list[Word]:
    """All Lyndon words of length <= max_len, in lexicographic order.

    Generated by Duval's algorithm.  When letter weights are given, words
    whose total weight exceeds max_weight are filtered out.
    """
    if alphabet_size < 1 or max_len < 1:
        return []

    def admissible(word: Word) -> bool:
        if letter_weight is None or max_weight is None:
            return True
        return sum(letter_weight[l] for l in word) <= max_weight

    out: list[Word] = []
    w = [0]
    while w:
        word = tuple(w)
        if admissible(word):
            out.append(word)
        # periodic extension to full length, then increment the last
        # non-maximal letter
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) % m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
        if w:
            w[-1] += 1
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
    """A polynomial in Lyndon words: monomials are multisets of Lyndon words.

    A monomial is stored as a sorted tuple of words.  Multiplication is the
    free commutative product of monomials with coefficient products; the
    coefficients may be Fractions or any commutative ring elements.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Word, ...], object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[tuple[Word, ...], object] = {}
        for mono, coeff in items:
            mono = tuple(sorted(tuple(w) for w in mono))
            for w in mono:
                if not is_lyndon(w):
                    raise ValueError(f"monomial contains a non-Lyndon word {w}")
            if mono in cleaned:
                coeff = cleaned[mono] + coeff
            if coeff:
                cleaned[mono] = coeff
            else:
                cleaned.pop(mono, None)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LyndonPoly is immutable")

    @classmethod
    def zero(cls) -> "LyndonPoly":
        return cls()

    @classmethod
    def monomial(cls, words: Iterable[Iterable[int]], coeff=Fraction(1)) -> "LyndonPoly":
        return cls({tuple(tuple(w) for w in words): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LyndonPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "LyndonPoly(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            body = "*".join("".join(map(str, w)) for w in mono) or "1"
            bits.append(f"({coeff!r})*{body}")
        return "LyndonPoly(" + " + ".join(bits) + ")"

    def __add__(self, other: "LyndonPoly") -> "LyndonPoly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            cur = terms.get(mono)
            cur = coeff if cur is None else cur + coeff
            if cur:
                terms[mono] = cur
            else:
                terms.pop(mono, None)
        return LyndonPoly(terms)

    def __sub__(self, other: "LyndonPoly") -> "LyndonPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "LyndonPoly":
        return self.scale(-1)

    def scale(self, factor) -> "LyndonPoly":
        if not factor:
            return LyndonPoly()
        return LyndonPoly({m: factor * c for m, c in self.terms.items()})

    def __mul__(self, other: "LyndonPoly") -> "LyndonPoly":
        terms: dict[tuple[Word, ...], object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                coeff = c1 * c2
                cur = terms.get(mono)
                cur = coeff if cur is None else cur + coeff
                if cur:
                    terms[mono] = cur
                else:
                    terms.pop(mono, None)
        return LyndonPoly(terms)

    def shuffle_expand(self) -> dict[Word, object]:
        """Evaluate the polynomial in the shuffle algebra: a word combination."""
        out: dict[Word, object] = {}
        for mono, coeff in self.terms.items():
            for word, mult in _shuffle_all(mono).items():
                cur = out.get(word)
                add = coeff * mult
                cur = add if cur is None else cur + add
                if cur:
                    out[word] = cur
                else:
                    out.pop(word, None)
        return out


@lru_cache(maxsize=None)
def _to_lyndon_basis(w: Word) -> LyndonPoly:
    if not w:
        return LyndonPoly.monomial(())
    factors = lyndon_factorize(w)
    counts: dict[Word, int] = {}
    for f in factors:
        counts[f] = counts.get(f, 0) + 1

    # Shuffling the factorization back together yields (prod multiplicities!)
    # times w plus lexicographically larger words of the same length.
    lead = 1
    for mult in counts.values():
        lead *= factorial(mult)
    shuffled = _shuffle_all(factors)
    assert shuffled.get(w) == lead, "triangularity violated"

    inv = Fraction(1, lead)
    result = LyndonPoly.monomial([f for f, m in counts.items() for _ in range(m)], inv)
    for word, mult in shuffled.items():
        if word == w:
            continue
        result = result + _to_lyndon_basis(word).scale(Fraction(-mult, lead))
    return result


def to_lyndon_basis(w: Iterable[int]) -> LyndonPoly:
    """Rewrite a word as a polynomial in Lyndon words under shuffle.

    Shuffle-expanding the result returns exactly the input word.  The
    rewriting is triangular: the correction words are lexicographically
    larger, of the same length.
    """
    return _to_lyndon_basis(tuple(w))
