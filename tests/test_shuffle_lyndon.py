import heapq
import itertools
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

import iterqm.shuffle_lyndon as shuffle_lyndon
from conftest import shuffle_expand
from iterqm.linear import _accumulate, _add_row
from iterqm.quasimodular import E2, E4, E6, QMPoly, basis_b
from iterqm.shuffle_lyndon import (
    LyndonPoly,
    is_lyndon,
    lyndon_factorize,
    lyndon_words,
    shuffle,
    to_lyndon_basis,
)

A, B, C = 0, 1, 2


def all_lyndon_words(k, max_len):
    """Lyndon words of length <= max_len over k letters: no weights, no bound."""
    return lyndon_words(k, max_len, dict.fromkeys(range(k), 0), 0)


def lyndon_by_definition(w):
    """Nonempty and smaller than each proper suffix."""
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


def reference_to_lyndon_basis(combo):
    """Leading-word reduction on the coefficients themselves, a whole factor shuffle per word.

    The largest remaining word w, with coefficient c, gives c/lead times the
    monomial of its Lyndon factors, and c/lead times their shuffle, lead*w
    plus smaller words of w's length, is subtracted.
    """
    pending = _accumulate({}, combo.items() if isinstance(combo, dict) else [(tuple(combo), F(1))])
    heap = [tuple(-l for l in w) for w in pending]
    heapq.heapify(heap)
    terms = {}
    while heap:
        w = tuple(-l for l in heapq.heappop(heap))
        c = pending.pop(w, None)
        if c is None:
            continue
        factors = lyndon_factorize(w) if w else []
        if len(factors) > 1:
            shuffled = shuffle_expand(LyndonPoly._of({tuple(factors): 1}))
            lead = shuffled[w]
            if lead != 1:
                c = c * F(1, lead)
            for word, mult in shuffled.items():
                if word != w:
                    if word not in pending:
                        heapq.heappush(heap, tuple(-l for l in word))
                    _accumulate(pending, ((word, -c * mult),))
        terms[tuple(sorted(factors))] = c
    return LyndonPoly._of(terms)


class TestShuffle:
    def test_two_letters(self):
        assert shuffle((A,), (B,)) == {(A, B): 1, (B, A): 1}

    def test_same_letter(self):
        assert shuffle((A,), (A,)) == {(A, A): 2}

    def test_ab_ab(self):
        assert shuffle((A, B), (A, B)) == {(A, B, A, B): 2, (A, A, B, B): 4}

    def test_unit(self):
        assert shuffle((), (A, B)) == {(A, B): 1}

    def test_commutative(self):
        for w1, w2 in [((A,), (B, C)), ((A, B), (A, C)), ((B,), (B, B))]:
            assert shuffle(w1, w2) == shuffle(w2, w1)

    def test_total_multiplicity(self):
        # shuffles of lengths r, s total C(r+s, r)
        got = shuffle((A, B, C), (A, C))
        assert sum(got.values()) == 10


class TestIsLyndon:
    def test_examples(self):
        assert is_lyndon((A, A, B))
        assert not is_lyndon((B, A))
        assert is_lyndon((A,))
        assert not is_lyndon(())
        assert not is_lyndon((A, A))

    def test_aabab_is_lyndon(self):
        assert is_lyndon((A, A, B, A, B))

    def test_matches_definition(self):
        # is_lyndon reads Duval's factorization; every word of length <= 7 over three letters
        for n in range(8):
            for w in itertools.product(range(3), repeat=n):
                assert is_lyndon(w) == lyndon_by_definition(w), w


class TestEnumeration:
    def test_two_letter_table(self):
        words = all_lyndon_words(2, 4)
        expect = {
            (A,), (B,), (A, B),
            (A, A, B), (A, B, B),
            (A, A, A, B), (A, A, B, B), (A, B, B, B),
        }
        assert set(words) == expect
        assert words == sorted(words)

    def test_single_letter(self):
        assert all_lyndon_words(1, 3) == [(A,)]

    def test_matches_bruteforce(self):
        for k, max_len in ((2, 6), (3, 4)):
            expect = set()
            for n in range(1, max_len + 1):
                for w in itertools.product(range(k), repeat=n):
                    if lyndon_by_definition(w):
                        expect.add(w)
            assert set(all_lyndon_words(k, max_len)) == expect

    def test_necklace_counts(self):
        def mobius(n):
            if n == 1:
                return 1
            result, m, p = 1, n, 2
            while p * p <= m:
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        return 0
                    result = -result
                p += 1
            if m > 1:
                result = -result
            return result

        for k in (1, 2, 3):
            words = all_lyndon_words(k, 6)
            for n in range(1, 7):
                count = sum(1 for w in words if len(w) == n)
                expected = sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
                assert count == expected

        def check_weighted(letter_weight, max_len, max_weight):
            # Witt's count on a weighted alphabet: the Lyndon words of length n and weight k number
            # L(n, k) = (1/n) sum_{d | gcd(n, k)} mu(d) W(n/d, k/d), W(m, v) the words of length m and weight v
            words_by = [Counter({0: 1})]  # words_by[m][v] = W(m, v)
            for _ in range(max_len):
                words_by.append(Counter())
                for v, count in words_by[-2].items():
                    for weight in letter_weight.values():
                        words_by[-1][v + weight] += count
            got = Counter((len(w), sum(letter_weight[l] for l in w))
                          for w in lyndon_words(len(letter_weight), max_len, letter_weight, max_weight))
            want = Counter()
            for n in range(1, max_len + 1):
                for k in range(max_weight + 1):
                    g = math.gcd(n, k)
                    total = sum(mobius(d) * words_by[n // d][k // d] for d in range(1, g + 1) if g % d == 0)
                    assert total % n == 0, (n, k)
                    if total:
                        want[n, k] = total // n
            assert got == want, (letter_weight, max_len, max_weight)

        for max_weight, max_len in ((12, 4), (16, 4), (20, 3)):
            check_weighted({i: l.weight() for i, l in enumerate(basis_b(max_weight))}, max_len, max_weight)
        rng = random.Random(13)
        for _ in range(20):
            size = rng.randint(1, 4)
            check_weighted({l: rng.randint(0, 5) for l in range(size)}, rng.randint(1, 6), rng.randint(0, 15))

    def test_weight_filter(self):
        weights = {0: 0, 1: 2, 2: 4}
        words = lyndon_words(3, 3, weights, 4)
        assert all(sum(weights[l] for l in w) <= 4 for w in words)
        assert (0, 2) in words and (1, 2) not in words
        rng = random.Random(12)
        for _ in range(200):
            k, n = rng.randint(1, 4), rng.randint(1, 7)
            weights = {l: rng.randint(0, 5) for l in range(k)}
            bound = rng.randint(0, 20)
            expected = [w for w in all_lyndon_words(k, n) if sum(weights[l] for l in w) <= bound]
            assert lyndon_words(k, n, weights, bound) == expected
        # long words of small weight: 1, E2 and 1^j E2 for j < 400
        long_words = lyndon_words(2, 400, {0: 0, 1: 2}, 2)
        assert len(long_words) == 401
        assert long_words == [(0,)] + [(0,) * j + (1,) for j in range(399, -1, -1)]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            lyndon_words(2, 3, {0: 1, 1: -1}, 4)

    def test_letter_without_weight_rejected(self):
        with pytest.raises(ValueError, match=r"^letter 1 has no weight$"):
            lyndon_words(2, 2, {0: 0}, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=r"^max_len must be >= 0, got -1$"):
            all_lyndon_words(2, -1)
        with pytest.raises(ValueError, match=r"^alphabet_size must be >= 0, got -2$"):
            all_lyndon_words(-2, 3)
        assert all_lyndon_words(0, 3) == all_lyndon_words(2, 0) == all_lyndon_words(0, 0) == []


class TestFactorization:
    def test_decreasing_pair(self):
        assert lyndon_factorize((B, A)) == [(B,), (A,)]

    def test_already_lyndon(self):
        assert lyndon_factorize((A, B)) == [(A, B)]

    def test_aabab(self):
        # aabab is itself a Lyndon word, so it is its own factorization
        assert lyndon_factorize((A, A, B, A, B)) == [(A, A, B, A, B)]

    def test_ab_aab(self):
        assert lyndon_factorize((A, B, A, A, B)) == [(A, B), (A, A, B)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lyndon_factorize(())

    def test_properties_exhaustive(self):
        for k, max_len in ((2, 7), (3, 5)):
            for n in range(1, max_len + 1):
                for w in itertools.product(range(k), repeat=n):
                    factors = lyndon_factorize(w)
                    assert sum(factors, ()) == w
                    assert all(is_lyndon(f) for f in factors)
                    assert all(factors[i] >= factors[i + 1] for i in range(len(factors) - 1))


class TestLyndonBasis:
    def test_lyndon_input_is_monomial(self):
        assert to_lyndon_basis((A, B)) == LyndonPoly({((A, B),): F(1)})

    def test_ba(self):
        want = LyndonPoly({((A,), (B,)): F(1), ((A, B),): F(-1)})
        assert to_lyndon_basis((B, A)) == want

    def test_aa(self):
        assert to_lyndon_basis((A, A)) == LyndonPoly({((A,), (A,)): F(1, 2)})

    def test_roundtrip(self):
        for n in range(0, 6):
            for w in itertools.product(range(3), repeat=n):
                expanded = shuffle_expand(to_lyndon_basis(w))
                assert set(expanded) == {w}
                assert expanded[w] == 1

    @pytest.mark.parametrize("w, monomials", [((1, 0) * 6, 360), ((2, 1, 0) * 3, 333)])
    def test_long_words(self, w, monomials):
        poly = to_lyndon_basis(w)
        assert len(poly.terms) == monomials
        assert shuffle_expand(poly) == {w: 1}

    def test_every_short_word_matches_the_reference(self):
        words = [w for n in range(6) for w in itertools.product(range(3), repeat=n)]
        assert len(words) == 364
        for w in words:
            assert to_lyndon_basis(w) == reference_to_lyndon_basis(w), w

    @pytest.mark.parametrize("w", [(1, 0) * 6, (2, 1, 0) * 3])
    def test_long_words_match_the_reference(self, w):
        assert to_lyndon_basis(w) == reference_to_lyndon_basis(w)

    def test_algebra_morphism(self):
        for w1 in [(A,), (A, B), (B, A), (A, A)]:
            for w2 in [(B,), (A, C), (C, B)]:
                lhs = LyndonPoly.zero()
                for word, mult in shuffle(w1, w2).items():
                    lhs = lhs + to_lyndon_basis({word: F(mult)})
                assert lhs == to_lyndon_basis(w1) * to_lyndon_basis(w2)

    def test_rejects_non_lyndon_monomial(self):
        with pytest.raises(ValueError):
            LyndonPoly({((B, A),): F(1)})

    def test_powers(self):
        p = LyndonPoly({((A,),): F(1), ((A, B),): F(1, 2)})
        assert p ** 1 is p and p ** 3 == p * p * p
        for n in (0, -1):
            with pytest.raises(ValueError, match="^only positive powers are defined$"):
                p ** n

    @pytest.mark.parametrize("n", [2.5, 3.0, 1.5, "2", None], ids=repr)
    def test_non_integer_power_raises_type_error(self, n):
        # the exponent is read as an index, so a float is refused, not halved to a float
        with pytest.raises(TypeError):
            LyndonPoly({((A,),): F(1)}) ** n

    @pytest.mark.parametrize("other", [1, F(1, 2), 0.5, "x", None], ids=repr)
    def test_foreign_operand_raises_type_error(self, other):
        # each operator declines an operand of another class, so a sum or difference names its operator
        # (a string times it is a sequence repeat, refused by str)
        p = LyndonPoly({((A,),): F(1)})
        for op, symbol in ((operator.add, "+"), (operator.sub, "-"), (operator.mul, "*")):
            with pytest.raises(TypeError, match=None if symbol == "*" else f"for {re.escape(symbol)}:"):
                op(p, other)

    def test_input_word_fed_by_larger_words_keeps_the_callers_coefficient(self):
        # (1) ш (0,0) = (1,0,0) + (0,1,0) + (0,0,1): rewriting (1,0,0) adds to the row that the
        # input word (0,1,0)'s own coefficient c opened; (1,0,1,0) = (1)*(0,1,0) less smaller
        # words opens a second row of (0,1,0); (0,0), fed by (1,0,0), has lead 2
        c = E4 * F(3, 7) + E6
        fresh = QMPoly(c.terms)
        combo = {(1, 0, 1, 0): E2 * F(1, 2), (1, 0, 0): E4 - E6, (0, 1, 0): c, (0, 0): F(5, 3) * E4, (0, 1): E6}
        got = to_lyndon_basis(combo)
        assert (c.nums, c.den, hash(c)) == (fresh.nums, fresh.den, hash(fresh)) and c == fresh
        assert got == reference_to_lyndon_basis(combo)
        assert shuffle_expand(got) == _accumulate({}, combo.items())

    def test_lyndon_input_words_take_the_coefficient_type_of_the_rows(self):
        # a QMPoly anywhere makes every coefficient one; else each is a Fraction, ints included
        mixed = to_lyndon_basis({(0, 0): E4, (0,): F(1, 2)})
        assert mixed == to_lyndon_basis({(0, 0): E4, (0,): QMPoly.constant(F(1, 2))})
        assert mixed.terms[((0,),)] == QMPoly.constant(F(1, 2))
        assert {type(c) for c in mixed.terms.values()} == {QMPoly}
        scalars = to_lyndon_basis({(0, 1): 2, (1,): 1, (): -3, (1, 0): F(3, 2)})
        assert scalars.terms == {((0, 1),): F(1, 2), ((1,),): F(1), (): F(-3), ((0,), (1,)): F(3, 2)}
        assert {type(c) for c in scalars.terms.values()} == {F}

    @pytest.mark.parametrize("combo", [{(0, 1): 0.5}, {(1, 0): 0.5}, {(): 1.0}, {(0,): E4, (0, 1): 0.5}])
    def test_inexact_coefficient_rejected_on_every_word(self, combo):
        with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
            to_lyndon_basis(combo)


class TestAddRow:
    """The one routine that adds into the integer rows [den, numerators] of both rewriting stages."""

    def test_mixed_denominators_and_cancellation(self):
        x, y, z = (0, 0, 0), (1, 0, 0), (0, 1, 0)
        rows, nums = {}, {x: 3, y: 1}
        _add_row(rows, "w", nums, 1, 4)  # 3/4 + 1/4*E2
        assert rows == {"w": [4, {x: 3, y: 1}]} and rows["w"][1] is not nums
        _add_row(rows, "w", {x: 1, z: 2}, 5, 6)  # plus 5/6 + 5/3*E4, over lcm(4, 6) = 12
        assert rows["w"] == [12, {x: 19, y: 3, z: 20}]
        _add_row(rows, "w", {x: 1, y: 1}, -1, 4)  # a denominator that divides the row's
        assert rows["w"] == [12, {x: 16, z: 20}]
        _add_row(rows, "v", {x: 2, z: -1}, -3, 5)  # another key starts its own row
        assert rows["v"] == [5, {x: -6, z: 3}]
        _add_row(rows, "w", {x: 4, z: 5}, -1, 3)  # 4/3 + 5/3*E4 less itself: the row ends empty
        assert rows == {"w": [12, {}], "v": [5, {x: -6, z: 3}]}
        assert nums == {x: 3, y: 1}


class TestShuffleMemo:
    """Shuffles are memoized per computation: nothing outlives the call."""

    def test_each_suffix_pair_is_shuffled_once_per_rewrite(self, monkeypatch):
        computed = Counter()
        real = shuffle_lyndon._shuffle

        def spy(w1, w2, memo):
            if w1 and w2 and (w1, w2) not in memo:
                computed[w1, w2] += 1
            return real(w1, w2, memo)

        monkeypatch.setattr(shuffle_lyndon, "_shuffle", spy)
        w = (1, 0) * 5
        poly = to_lyndon_basis(w)
        # the factor shuffles of different popped words share suffix pairs
        assert computed and set(computed.values()) == {1}
        monkeypatch.setattr(shuffle_lyndon, "_shuffle", real)
        assert shuffle_expand(poly) == {w: 1}

    def test_a_returned_shuffle_is_the_callers(self):
        got = shuffle((A, B), (A,))
        assert got == {(A, B, A): 1, (A, A, B): 2}
        got[(A, B, A)] = 7
        got[(C,)] = 1
        assert shuffle((A, B), (A,)) == {(A, B, A): 1, (A, A, B): 2}

    def test_no_module_level_shuffle_cache(self):
        def held():
            return {name: len(obj) for name, obj in vars(shuffle_lyndon).items()
                    if isinstance(obj, (dict, list, set)) and not name.startswith("__")}

        assert not [name for name, obj in vars(shuffle_lyndon).items() if hasattr(obj, "cache_info")]
        before = held()
        to_lyndon_basis((1, 0) * 4)
        shuffle((A, B, C), (C, B, A))
        assert held() == before
