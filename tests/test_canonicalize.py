import importlib
import inspect
import logging
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from fractions import Fraction as F
from itertools import product
from math import isqrt, lcm

import pytest

import iterqm
import iterqm.canonicalize as canonicalize
import iterqm.iterint as iterint
from conftest import ibp, random_homogeneous, random_qmpoly
from iterqm.canonicalize import (
    _RANK_PRIME,
    ModularModeError,
    _certificate,
    _exact_rank,
    _pivot_rows,
    _rational_lift,
    canonical_form,
    independence_rank,
    reduce_letters,
)
from iterqm.expr import parse
from iterqm.iterint import BarWord, IntegralPoly, iter_integral
from iterqm.linear import _accumulate
from iterqm.qseries import LogQSeries
from iterqm.quasimodular import (
    E2, E4, E6, ONE, ZERO, QMPoly, basis_b, decompose, derive, expand, is_basis_letter, letter_sort_key,
)
from iterqm.shuffle_lyndon import LyndonPoly, is_lyndon, shuffle
from test_quasimodular import reference_gauss_jordan

linear = IntegralPoly.linear
logger = logging.getLogger("iterqm.canonicalize")


# The letter reduction as it stood before it carried integer rows: every
# step scales and adds whole QMPoly coefficients.  For tests only.
def reference_reduce_letters(combo: Mapping[BarWord, QMPoly]) -> dict[BarWord, QMPoly]:
    """Rewrite a combination of bar words so that every letter is a basis letter.

    Letters are decomposed whole along QM = C*E2 + D(QM) + M; pure-basis
    components are pulled out by multilinearity (their rational multiples
    join the coefficient), and the derivative component is eliminated by
    ``conftest.ibp``, integration by parts, which shortens the
    word by one letter.  At DEBUG, each elimination is logged under the
    name of its position in the word (``ibp_first``, ``ibp_middle`` or
    ``ibp_last``).  Pending words wait, merged, in one dict per (length,
    first non-basis position); longer words and then earlier positions go
    first.  A rewrite shortens the word or moves that position right, so a
    word is rewritten once, after all its contributions, and not at all if
    they cancel.  Each distinct letter is decomposed once per call.  The
    expansion of the result equals the expansion of the input exactly.
    """
    out: dict[BarWord, QMPoly] = {}
    pending: dict[tuple[int, int], dict[BarWord, QMPoly]] = {}
    splits: dict[QMPoly, tuple[list[tuple[QMPoly, Fraction]], QMPoly]] = {}

    def push(word: BarWord, coeff: QMPoly, start: int) -> None:
        pos = next((i for i in range(start, len(word)) if not is_basis_letter(word[i])), None)
        _accumulate(out if pos is None else pending.setdefault((len(word), pos), {}), ((word, coeff),))

    def split(letter: QMPoly) -> tuple[list[tuple[QMPoly, Fraction]], QMPoly]:
        """Basis letters with their multiples, and the h of the D(h) part."""
        c, m, h = decompose(letter)
        subs = [(E2, c)] if c else []
        subs.extend((QMPoly._of({mono: 1}), Fraction(num, m.den)) for mono, num in m.nums.items())
        return subs, h

    for word, coeff in combo.items():
        push(word, coeff, 0)
    debug = logger.isEnabledFor(logging.DEBUG)
    for n in range(max(map(len, combo), default=0), 0, -1):
        for pos in range(n):
            for word, coeff in pending.pop((n, pos), {}).items():
                subs, h = splits.get(word[pos]) or splits.setdefault(word[pos], split(word[pos]))
                prefix, suffix = word[:pos], word[pos + 1 :]
                for basis_letter, scalar in subs:
                    push(prefix + (basis_letter,) + suffix, coeff * scalar, pos + 1)
                # Eliminate D(h): ibp shortens the word by one and keeps
                # the letters before pos - 1.
                if h:
                    if debug:
                        rule = "ibp_middle" if prefix and suffix else "ibp_first" if suffix else "ibp_last"
                        logger.debug("%s: word length %d", rule, n)
                    for w, c in ibp(prefix, h, suffix).items():
                        push(w, coeff * c, max(pos - 1, 0))
    return out


class TestReduceLetters:
    def test_basis_letter_untouched(self):
        combo = {(E4,): ONE}
        assert reduce_letters(combo) == combo

    def test_e2_squared_letter(self):
        got = reduce_letters({(E2 * E2,): ONE})
        want = {(E4,): ONE, (): QMPoly.constant(12) - 12 * E2}
        assert got == want
        assert linear(got).expansion(30) == linear({(E2 * E2,): 1}).expansion(30)

    def test_derivative_letter_in_word(self):
        combo = {(ONE, derive(E4)): ONE}
        got = reduce_letters(combo)
        assert got == {(ONE,): ONE, (E4,): -ONE}
        assert linear(got).expansion(30) == linear(combo).expansion(30)

    def test_every_letter_lands_in_basis(self):
        rng = random.Random(31)
        for _ in range(20):
            word = tuple(random_qmpoly(rng, 8) for _ in range(rng.randint(1, 3)))
            got = reduce_letters({word: ONE})
            for w in got:
                assert all(is_basis_letter(l) for l in w)

    def test_expansion_equality_random(self):
        rng = random.Random(32)
        for _ in range(15):
            word = tuple(random_qmpoly(rng, 8) for _ in range(rng.randint(0, 3)))
            combo = {word: random_qmpoly(rng, 4)}
            assert linear(reduce_letters(combo)).expansion(20) == linear(combo).expansion(20)


    def test_matches_reference(self):
        rng = random.Random(33)
        for _ in range(15):
            combo = {tuple(random_qmpoly(rng, 8) for _ in range(rng.randint(0, 3))): random_qmpoly(rng, 4)
                     for _ in range(2)}
            combo = {w: c * F(rng.randint(1, 4), rng.randint(1, 4)) for w, c in combo.items()}
            assert reduce_letters(combo) == reference_reduce_letters(combo)


class TestMergedReduction:
    def test_eight_letters(self):
        # about 16 s without merging equal pending words
        letter = 2 * E4 + E2 * E2
        combo = {(letter,) * 8: ONE}
        got = reduce_letters(combo)
        assert all(is_basis_letter(l) for w in got for l in w)
        assert linear(got).expansion(3) == linear(combo).expansion(3)

    def test_each_letter_split_once(self, monkeypatch):
        calls = Counter()
        real = canonicalize._split

        def counting(letter):
            calls[letter] += 1
            return real(letter)

        monkeypatch.setattr(canonicalize, "_split", counting)
        # a and b recur across words and positions
        a, b = E4 + E2 * E4, E6 + E2 * E4 + E2 * E2
        combo = {(a, b, a): ONE, (b, a, ONE, b): E2, (a, a): E4}
        reduce_letters(combo)
        assert calls[a] == calls[b] == 1
        assert max(calls.values()) == 1

    def test_logs_each_rule(self, caplog):
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        reduce_letters({(derive(E4), E6): ONE})
        assert [r.getMessage() for r in caplog.records] == ["ibp_first: word length 2"]
        caplog.clear()
        reduce_letters({(E6, derive(E4)): ONE})
        assert [r.getMessage() for r in caplog.records] == ["ibp_last: word length 2"]
        caplog.clear()
        reduce_letters({(E6, derive(E4), E4): ONE})
        assert "ibp_middle: word length 3" in caplog.messages

    def test_derivative_parts_of_two_weights_take_one_ibp(self, caplog):
        # ibp is linear in h: the letter D(E4) + D(E2*E4) of weights 6 and 8
        # is eliminated by one step, which gives what the two parts give
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        got = reduce_letters({(derive(E4) + derive(E2 * E4), E6): ONE})
        assert [m for m in caplog.messages if m.startswith("ibp_first")] == ["ibp_first: word length 2"]
        parts = [reduce_letters({(derive(f), E6): ONE}) for f in (E4, E2 * E4)]
        assert got == _accumulate(parts[0], parts[1].items())

    def test_silent_without_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="iterqm.canonicalize")
        reduce_letters({(derive(E4), E6): ONE})
        assert not caplog.records

    def test_cancelled_word_is_not_expanded(self, monkeypatch):
        # ibp_first on the first word and ibp_middle on the second both
        # yield (E2*E4, E4), with opposite signs
        calls = Counter()
        real = canonicalize._split

        def counting(letter):
            calls[letter] += 1
            return real(letter)

        monkeypatch.setattr(canonicalize, "_split", counting)
        combo = {(derive(E4), E2, E4): ONE, (E2, derive(E4), E4): ONE}
        got = reduce_letters(combo)
        assert calls[E2 * E4] == 0
        assert got == {(E2, E4 * E4): ONE, (E2, E4): -E4}
        assert linear(got).expansion(10) == linear(combo).expansion(10)


class TestCanonicalForm:
    def test_single_basis_word(self):
        cf = canonical_form(linear({(E4,): 1}))
        idx = cf.basis.index(E4)
        assert cf.poly == LyndonPoly({((idx,),): QMPoly.constant(1)})

    def test_reversed_word(self):
        # [E4|1] = [1] sh [E4] - [1|E4]
        cf = canonical_form(linear({(E4, ONE): 1}))
        i1, i4 = cf.basis.index(ONE), cf.basis.index(E4)
        want = LyndonPoly({((i1,), (i4,)): QMPoly.constant(1), ((i1, i4),): QMPoly.constant(-1)})
        assert cf.poly == want

    def test_expansion_multiplies_only_between_factors(self, monkeypatch):
        # [E4|1] has monomials I(1)*I(E4) and I(1,E4): one product inside the
        # first, one by its coefficient each, and none by a constant 1
        cf = canonical_form(linear({(E4, ONE): E2}))
        assert sorted(map(len, cf.poly.terms)) == [1, 2]
        want = cf.expansion(8)  # warms the integral and expansion caches
        calls = []
        mul = LogQSeries.__mul__
        monkeypatch.setattr(LogQSeries, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert cf.expansion(8) == want
        assert len(calls) == 3

    def test_square_of_log(self):
        cf = canonical_form(linear({(ONE, ONE): 1}))
        i1 = cf.basis.index(ONE)
        assert cf.poly == LyndonPoly({((i1,), (i1,)): QMPoly.constant(F(1, 2))})

    def test_all_keys_lyndon(self):
        rng = random.Random(33)
        for _ in range(10):
            terms = {
                tuple(random_qmpoly(rng, 6) for _ in range(rng.randint(0, 3))): random_qmpoly(rng, 4)
                for _ in range(rng.randint(1, 2))
            }
            cf = canonical_form(linear(terms))
            for mono in cf.poly.terms:
                assert all(is_lyndon(w) for w in mono)

    def test_soundness_random(self):
        rng = random.Random(34)
        for _ in range(20):
            terms = {
                tuple(random_qmpoly(rng, 8) for _ in range(rng.randint(0, 3))): random_qmpoly(rng, 4)
                for _ in range(rng.randint(1, 2))
            }
            combo = linear(terms)
            cf = canonical_form(combo)
            assert cf.expansion(25) == combo.expansion(25)

    def test_homomorphism(self):
        # letter ranks are stable across basis sizes (weights order the
        # alphabet), so Lyndon polynomials over different bases compare
        # directly
        rng = random.Random(35)
        pool = [ONE, E2, E4, E6, E2 * E4, derive(E4)]
        for _ in range(8):
            w1 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            w2 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            prod = canonical_form(linear(shuffle(w1, w2)))
            c1 = canonical_form(linear({w1: 1}))
            c2 = canonical_form(linear({w2: 1}))
            assert prod.poly == c1.poly * c2.poly
            assert prod.expansion(18) == c1.expansion(18) * c2.expansion(18)

    def test_powers_of_an_integral(self):
        base = canonical_form(parse("I(E4,E6)")).poly
        power = base
        for k in range(2, 8):
            power = power * base
            assert canonical_form(parse(f"I(E4,E6)^{k}")).poly == power

    def test_powers_are_products_of_the_integral(self):
        """canonical and integral -N 30 of I(E4,E6)^k are the k-th powers of those of I(E4,E6)."""
        integral = parse("I(E4,E6)")
        base, series = canonical_form(integral).poly, integral.expansion(30)
        power, power_series = LyndonPoly({(): ONE}), LogQSeries.constant(1, 30)
        for k in range(1, 13):
            power, power_series = power * base, power_series * series
            got = parse(f"I(E4,E6)^{k}")
            assert canonical_form(got).poly == power
            assert got.expansion(30) == power_series

    def test_basis_prefix_stability(self):
        from iterqm.quasimodular import basis_b

        assert basis_b(8) == basis_b(12)[:5]
        assert basis_b(4, modular_only=True) == basis_b(12, modular_only=True)[:2]

    def test_idempotent_on_canonical_input(self):
        # a combination whose words are already Lyndon over the basis
        combo = linear({(ONE, E4): E2, (E2, E4): QMPoly.constant(3)})
        cf = canonical_form(combo)
        i1, i2, i4 = (cf.basis.index(x) for x in (ONE, E2, E4))
        want = LyndonPoly({((i1, i4),): E2, ((i2, i4),): QMPoly.constant(3)})
        assert cf.poly == want

    def test_modular_mode_rejects_e2(self):
        with pytest.raises(ModularModeError):
            canonical_form(linear({(E2,): 1}), modular_only=True)
        with pytest.raises(ModularModeError):
            canonical_form(linear({(E4,): E2}), modular_only=True)

    def test_modular_mode_agrees_with_general(self):
        rng = random.Random(36)
        for _ in range(6):
            word = tuple(
                random_homogeneous(rng, 4 * rng.randint(0, 2)) for _ in range(rng.randint(0, 2))
            )
            word = tuple(p if p.is_modular() else E4 for p in word)
            combo = linear({word: E4})
            general = canonical_form(combo)
            modular = canonical_form(combo, modular_only=True)
            assert modular.modular and E2 not in modular.basis
            assert all(c.is_modular() for c in modular.poly.terms.values())
            assert general.expansion(15) == modular.expansion(15)


class TestRank:
    def test_unit_and_log(self):
        assert independence_rank([(), (ONE,)], [ONE, ONE], 2) == 2

    def test_two_eisenstein(self):
        assert independence_rank([(E4,), (E6,)], [ONE, ONE], 4) == 2

    def test_seven_basis_integrals(self):
        words = [(ONE,), (E2,), (E4,), (E6,), (ONE, E4), (ONE, E6), (E2, E4)]
        assert independence_rank(words, [ONE] * 7, 12) == 7

    def test_detects_dependence(self):
        # I(1)I(E4) = I(1,E4) + I(E4,1), a genuine linear relation
        words = [(ONE, E4), (E4, ONE), (ONE, E4)]
        assert independence_rank(words, [ONE, ONE, ONE], 10) == 2

    def test_rows_only_in_the_log_parts(self):
        # I(1) = L, I(1,1) = L^2/2 and I(1,1,1) = L^3/6: every q^0 L^0 column and
        # every q^m column for m >= 1 is zero, and the rank lies in the L^k columns
        words = [(ONE,), (ONE, ONE), (ONE, ONE, ONE)]
        assert independence_rank(words, [ONE] * 3, 5) == 3
        assert independence_rank([(ONE,)] + words, [ONE] * 4, 5) == 3
        assert independence_rank([(ONE,), (ONE, ONE), (ONE,)], [ONE] * 3, 5) == 2

    def test_exact_rank_of_integer_rows(self):
        # the rank over Q, by the one elimination over Q: _exact_rank on integer rows
        assert _exact_rank([]) == 0
        assert _exact_rank([[0, 0]]) == 0
        assert _exact_rank([[1, 2], [2, 4]]) == 1
        assert _exact_rank([[1, 0], [1, 1]]) == 2
        assert _exact_rank([[0, 3], [0, 1], [2, 0]]) == 2  # the second row reduces to zero

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            independence_rank([()], [ONE, ONE], 5)

    def test_empty_family(self):
        assert independence_rank([], [], 5) == 0
        assert independence_rank([], [], 0) == 0

    @pytest.mark.parametrize("word", [(E4, 3), (F(1, 2),), ("E4",)], ids=str)
    def test_letter_not_qmpoly_rejected(self, word):
        with pytest.raises(TypeError, match="^bar word letters must be QMPoly$"):
            independence_rank([(E6,), word], [ONE, ONE], 5)

    @pytest.mark.parametrize("multiplier", [1, F(1, 2), "E4", None], ids=str)
    def test_multiplier_not_qmpoly_rejected(self, multiplier, monkeypatch):
        # an int multiplier raised AttributeError on its missing denominator; no series is built before the check
        def no_series(*args):
            raise AssertionError("a series was built")

        monkeypatch.setattr(canonicalize, "expand", no_series)
        monkeypatch.setattr(canonicalize, "iter_integral", no_series)
        with pytest.raises(TypeError, match="^multipliers must be QMPoly$"):
            independence_rank([(E4,), (E6,)], [ONE, multiplier], 5)


def reference_rank(rows):
    """Rank over Q by plain Fraction elimination, the old algorithm."""
    matrix = [[F(x) for x in row] for row in rows if any(x != 0 for x in row)]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / matrix[rank][col]
            matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def is_prime(n):
    """Deterministic Miller-Rabin: the first 12 prime bases decide n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


P = _RANK_PRIME


def reference_certified_rank(residues: list[list[int]], ncols: int, is_kernel) -> int | None:
    """The rank over Q of a matrix A, from its rows mod _RANK_PRIME, where they prove it.

    The certificate as it stood before it read A by columns in one pass: the
    rank from the rows, then the kernel from Gauss-Jordan on [A mod p | I],
    both by the reference Gauss-Jordan.  For tests only.
    """
    n = len(residues)
    rank = len(reference_gauss_jordan(residues, _RANK_PRIME)[0])
    if rank == n or rank == ncols:
        return rank
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(residues)]
    for row in reference_gauss_jordan(augmented, _RANK_PRIME)[1][rank:]:
        lifts = [_rational_lift(u) for u in row[-n:]]
        if None in lifts or not is_kernel(lifts):
            return None
    return rank


def certified_rank(columns: list[tuple[int, ...]], ncols: int, is_kernel) -> int | None:
    """The rank the _certificate of the columns proves, as independence_rank reads it, or None:
    each kernel vector is handed to ``is_kernel`` dense, in order of row, as the reference hands it."""
    n = len(columns[0]) if columns else 0
    rank, kernel = _certificate(columns, range(n))  # rows named by index
    checks = (is_kernel([lifts.get(i, F(0)) for i in range(n)]) for lifts in kernel or ())
    return rank if rank == ncols or kernel is not None and all(checks) else None


class TestOnePassCertificate:
    """One column pass gives the rank and kernel of the two-pass reference."""

    @staticmethod
    def both(rows, ncols=None, accept=True):
        """(rank, kernel lifts) from the reference on the rows and from the certificate on the columns."""
        ncols = len(rows[0]) if ncols is None else ncols
        results = []
        for certify, matrix in ((reference_certified_rank, rows), (certified_rank, list(zip(*reversed(rows))))):
            lifts = []
            results.append((certify(matrix, ncols, lambda v: lifts.append(v) or accept), lifts))
        return results

    @staticmethod
    def small_rows(rng, n, width, relations=0):
        """Small integer rows mod P, ``relations`` of them, at random places, combinations of two others."""
        rows = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(n - relations)]
        for _ in range(relations):
            (i, a), (j, b) = ((rng.randrange(len(rows)), rng.randint(-3, 3)) for _ in range(2))
            rows.insert(rng.randrange(len(rows) + 1), [a * x + b * y for x, y in zip(rows[i], rows[j])])
        return [[x % P for x in row] for row in rows]

    def test_full_rank(self):
        rng = random.Random(7)
        for n, width in [(1, 1), (1, 5), (3, 3), (5, 12), (16, 30), (20, 41)]:
            rows = [[rng.randrange(P) for _ in range(width)] for _ in range(n)]
            (rank, lifts), new = self.both(rows)
            assert rank == n and not lifts and new == (rank, lifts)
        rows = [[rng.randrange(P) for _ in range(3)] for _ in range(6)]  # tall: the rank is the column count
        assert self.both(rows) == [(3, []), (3, [])]

    @pytest.mark.parametrize("relations", [1, 2])
    def test_deficient(self, relations):
        rng = random.Random(relations)
        for n, width in [(3, 4), (6, 10), (11, 20), (15, 40)]:
            for _ in range(5):
                rows = self.small_rows(rng, n, width, relations)
                (rank, lifts), new = self.both(rows)
                assert rank == n - relations and len(lifts) == relations and new == (rank, lifts)
                assert self.both(rows, accept=False) == [(None, lifts[:1])] * 2

    def test_full_rank_only_at_the_last_column(self):
        rng = random.Random(11)
        for n, width in [(2, 3), (8, 20), (20, 41)]:
            rows = self.small_rows(rng, n, width - 1, relations=1)
            rows = [row + [rng.randrange(P)] for row in rows]
            (rank, lifts), new = self.both(rows)
            assert rank == n and new == (rank, lifts)
            assert len(_pivot_rows(list(zip(*reversed(rows)))[:-1], P)[0]) == n - 1

    @pytest.mark.parametrize("relations", [0, 1, 3])
    def test_column_order_does_not_matter(self, relations):
        # full rank is n whichever columns prove it, and a deficient matrix reads
        # every column: its kernel, in reduced echelon form, is unique
        rng = random.Random(40 + relations)
        for n, width in [(4, 6), (9, 14), (16, 30)]:
            columns = list(zip(*reversed(self.small_rows(rng, n, width, relations))))
            columns += [(0,) * n] * 3  # zero columns too, shuffled in below
            results = []
            for _ in range(6):
                lifts = []
                results.append((certified_rank(columns[:], width + 3, lambda v: lifts.append(v) or True), lifts))
                rng.shuffle(columns)
            assert results[0][0] == n - relations and len(results[0][1]) == relations
            assert results == results[:1] * 6

    def test_zero_or_one_row(self):
        assert self.both([], ncols=5) == [(0, [])] * 2
        assert self.both([[0, 0, 0]]) == [(0, [[F(1)]])] * 2  # a zero row is its own kernel
        assert self.both([[0, 4, 1]]) == [(1, [])] * 2
        assert self.both([[0, 0], [0, 0]]) == [(0, [[F(1), F(0)], [F(0), F(1)]])] * 2


@pytest.fixture
def moduli(monkeypatch):
    """The modulus of each elimination: the certificate's pass mod p and any over Q.

    The caches start empty, so that no certificate an earlier test cached spares a pass."""
    iterqm.clear_caches()
    seen = []
    pivot_rows, exact_rank = canonicalize._pivot_rows, canonicalize._exact_rank
    monkeypatch.setattr(canonicalize, "_pivot_rows", lambda rows, p: seen.append(p) or pivot_rows(rows, p))
    monkeypatch.setattr(canonicalize, "_exact_rank", lambda rows: seen.append(0) or exact_rank(rows))
    return seen


@pytest.fixture
def exact_words(monkeypatch):
    """The words whose exact integral is computed, and the multipliers expanded exactly.

    The caches start empty, so that no series a test builds comes from one an earlier test cached."""
    iterqm.clear_caches()
    seen = {"words": [], "multipliers": []}
    integral, expand = iterint._iter_integral, canonicalize.expand

    def integral_spy(word, trunc, modulus):
        if not modulus:
            seen["words"].append(word)
        return integral(word, trunc, modulus)

    def expand_spy(p, trunc, modulus=0):
        if not modulus:
            seen["multipliers"].append(p)
        return expand(p, trunc, modulus)

    monkeypatch.setattr(iterint, "_iter_integral", integral_spy)
    monkeypatch.setattr(canonicalize, "expand", expand_spy)
    return seen


class TestModularCertificate:
    """Full rank mod P certifies; a deficiency mod P is proved by its kernel
    lifted to Q and checked exactly, or else settled by the certificate at q^N
    or, should that fail too, by elimination over Q."""

    def test_modulus_is_prime(self):
        assert P.bit_length() >= 30 and is_prime(P)
        assert P != 2**61 - 1  # the benchmark oracle's prime stays independent
        assert [is_prime(n) for n in (1, 2, 561, 2**31 - 1, 2**32 + 1, 3215031751)] == [
            False, True, False, True, False, False]

    def test_full_rank_is_certified_mod_p(self, moduli):
        assert independence_rank([(E4,), (E6,)], [QMPoly.constant(F(1, 3)), QMPoly.constant(F(-7, 2))], 10) == 2
        assert moduli == [P]

    def test_full_rank_writes_no_rows(self, monkeypatch):
        # a pass mod p that reaches full rank returns its pivots as found, reducing none by the later
        # ones, and nothing is eliminated over Q
        found, _ = _pivot_rows([[1, 2], [3, 4]], P)
        assert [c for c, _, _ in found] == [0, 1] and found[0][1] == [P - 1, P - 2]  # -(1, 2), not -(1, 0)

        def eliminate(rows):
            raise AssertionError("rows eliminated over Q")

        monkeypatch.setattr(canonicalize, "_exact_rank", eliminate)
        assert independence_rank([(E4,), (E6,)], [QMPoly.constant(F(1, 3)), QMPoly.constant(F(-7, 2))], 10) == 2
        assert independence_rank([(E4,), (E6,), (E4, E6)], [ONE, E4, ONE], 12) == 3

    def test_diagonal_p_falls_back(self, moduli):
        # n = 2 rows of words of length 1 at N = 2: t = N, one certificate
        assert independence_rank([(E4,), (E6,)], [QMPoly.constant(P), ONE], 2) == 2
        assert moduli == [P, 0]  # the kernel (1, 0) lifts but fails the exact check

    def test_row_of_multiples_of_p_falls_back(self, moduli):
        # the letter P/3 * E4 enters by its numerators: the row of P * I(E4), zero mod P
        assert independence_rank([(E4 * F(P, 3),), (E6,)], [ONE, ONE], 2) == 2
        assert moduli == [P, 0]

    def test_denominators_divisible_by_p(self, moduli):
        # the numerators of E4/P + E6 are E4 + P*E6: the rows agree mod P, not over Q
        assert independence_rank([(E4,), (E4 * F(1, P) + E6,)], [ONE, ONE], 2) == 2
        assert moduli == [P, 0]
        moduli.clear()
        assert independence_rank([(E4,), (E6,)], [QMPoly.constant(F(1, P * P)), QMPoly.constant(F(3, P))], 10) == 2
        assert moduli == [P]

    def test_deficient_over_q_too(self, moduli):
        # the numerators of E4/P + E6 and of E4 + P*E6 agree: rank 1 over Q, proved by the lifted kernel
        assert independence_rank([(E4 * F(1, P) + E6,), (E4 + E6 * P,)], [ONE, ONE], 10) == 1
        assert moduli == [P]  # the kernel (1, -1) lifts and checks: no elimination over Q

    def test_wide(self, moduli):
        assert independence_rank([(E4,), (ONE, E6)], [ONE, E2], 20) == 2
        assert moduli == [P]
        assert independence_rank([(E4,), (E6,), (E4 + E6 * 2,)], [ONE] * 3, 20) == 2

    def test_tall(self, moduli, exact_words):
        # at N = 1 with words of length <= 1 there are 4 columns: q^0 and q^1 of L^0, then of L^1
        words, multipliers = [(), (), (ONE,), (ONE,), (E4,), ()], [ONE, E4, ONE, E4, ONE, E6]
        assert independence_rank(words, multipliers, 1) == 4
        assert moduli == [P]  # rank mod P reached the column count: no kernel is checked
        assert exact_words == {"words": [], "multipliers": []}
        assert independence_rank([(E4,)] * 5, [QMPoly.constant(F(3 * i, 2)) for i in range(5)], 10) == 1

    def test_zero_rows(self, moduli):
        assert independence_rank([(E4,), (E6,), (E4,)], [ZERO, ONE, ZERO], 10) == 1
        assert moduli == [P]
        assert independence_rank([(E4,), ()], [ZERO, ZERO], 10) == 0
        assert independence_rank([(), ()], [ZERO, ZERO], 0) == 0

    def test_integer_entries_stay_exact(self, moduli):
        # the multipliers differ by E4 and by P*E4: floats saw both rows of each pair as equal
        assert independence_rank([(), ()], [E4 * 10**17 + 1, E4 * (10**17 + 1) + 1], 4) == 2
        assert independence_rank([(), ()], [E4 * (P * 10**17) + 1, E4 * (P * 10**17 + P) + 1], 4) == 2
        assert moduli == [P, P, 0]  # t = N = 4: the second pair's kernel (1, -1) fails, and Q decides

    def test_planted_relation_takes_the_kernel_path(self, moduli):
        # I(D(E4)) = 1 - E4, the regularized integral of a derivative
        words = [(E6,), (derive(E4),), (ONE, E4), (), ()]
        mults = [ONE, ONE, E2, ONE, E4]
        assert independence_rank(words, mults, 12) == 4
        assert moduli == [P]

    def test_large_kernel_entries_fall_back(self, moduli):
        a, b = 10**6 + 3, 999_999  # the kernel (a, b, -1), scaled to a 1, is beyond sqrt(P/2)
        assert independence_rank([(E4,), (E6,), (E4 * a + E6 * b,)], [ONE] * 3, 2) == 2
        assert moduli == [P, 0]  # t = N = 2
        moduli.clear()
        assert independence_rank([(E4,), (E6,), (E4 * a + E6 * b,)], [ONE] * 3, 40) == 2
        assert moduli == [P, P, 0]  # no kernel lifts at q^4 or at q^40
        assert _rational_lift(b * pow(a, -1, P) % P) is None

    def test_rational_lift_bound(self):
        bound = isqrt(P // 2)
        for a, b in [(0, 1), (1, 3), (-5, 7), (bound, bound - 1), (-bound, 1), (1, bound)]:
            assert _rational_lift(a * pow(b, -1, P) % P) == F(a, b)
        assert _rational_lift((bound + 1) * pow(bound, -1, P) % P) is None
        assert _rational_lift(pow(10**6 + 3, -1, P)) is None

    def test_rows_skip_coefficient(self, monkeypatch):
        calls = []
        real = LogQSeries.coefficient
        monkeypatch.setattr(LogQSeries, "coefficient", lambda s, m, k: calls.append((m, k)) or real(s, m, k))
        assert LogQSeries.constant(1, 2).coefficient(0, 0) == 1 and calls == [(0, 0)]
        calls.clear()
        assert independence_rank([(E4,), (E6,), (ONE, E4), (ONE, E4)], [ONE, E2, ONE, ONE], 10) == 3
        assert calls == []

    def test_multiplier_divisible_by_p_falls_back(self, moduli):
        # the row of P * I() is zero mod P; its kernel vector lifts but fails the exact check
        assert independence_rank([(E4,), ()], [ONE, QMPoly.constant(P)], 10) == 2
        assert moduli == [P, P, 0]  # at q^2, then at q^10, then over Q
        iterqm.clear_caches()
        moduli.clear()
        assert independence_rank([(E4,), ()], [ONE, QMPoly.constant(P)], 2) == 2
        assert moduli == [P, 0]  # t = N = 2: one certificate, then over Q

    def test_denominator_p_is_decided_mod_p(self, moduli):
        # letters and multipliers enter by their numerators: each row times an integer, no denominator P
        assert independence_rank([(E4,), (E4,)], [ONE, QMPoly.constant(F(1, P))], 10) == 1
        assert moduli == [P]  # the rows are equal after scaling: the kernel (1, -1) checks
        assert independence_rank([(E4 * F(1, P),), (E4,), (E6,)], [ONE] * 3, 10) == 2
        assert independence_rank([(ONE, E6 * F(2, P)), (E4,)], [QMPoly.constant(F(3, 7 * P)), E2], 10) == 2
        assert moduli == [P, P, P]  # one certificate each, at q^t, and nothing over Q

    def test_full_rank_builds_no_exact_series(self, exact_words, moduli):
        words = [(E4,), (E6,), (ONE, E4), (E2, E6), ()]
        assert independence_rank(words, [ONE, E2, ONE, E4, E6], 10) == 5
        assert exact_words == {"words": [], "multipliers": []} and moduli == [P]

    def test_deficiency_builds_exact_series_on_the_kernel_support(self, exact_words, moduli):
        # the kernel is (0, 0, 1, -1), which holds to q^3 and is no identity: only I(1, E4) and
        # I(1, CLOSE), with their suffixes, are computed exactly
        close = TestFirstTruncation.CLOSE
        words = [(E6,), (E2, E4), (ONE, E4), (ONE, close)]
        assert independence_rank(words, [E2, E4, ONE, ONE], 3) == 3
        assert moduli == [P]
        assert set(exact_words["words"]) == {(ONE, E4), (E4,), (ONE, close), (close,), ()}
        assert exact_words["multipliers"] == [ONE]

    def test_leaves_input_alone(self):
        words, multipliers = [[E4 * F(1, 2)], [E4]], [QMPoly.constant(F(2, 3)), ONE]
        assert independence_rank(words, multipliers, 6) == 1
        assert words == [[E4 * F(1, 2)], [E4]] and multipliers == [QMPoly.constant(F(2, 3)), ONE]

    def test_random_against_reference(self):
        rng = random.Random(41)
        pool = [0, 1, -1, 2, P, -P, 2 * P, F(1, P), F(P, 3), F(3, 7)]
        for _ in range(150):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[F(rng.choice(pool)) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:  # plant a dependence
                a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.choice(pool))
                rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
            scales = [lcm(*(x.denominator for x in row)) for row in rows]
            assert _exact_rank([[int(x * s) for x in row] for row, s in zip(rows, scales)]) == reference_rank(rows)
        # the same scalars as multipliers and letter scales of families with planted relations
        for _ in range(30):
            words = [(rng.choice([E4, E6, E4 + E6]) * F(rng.choice(pool[1:])),) for _ in range(rng.randint(1, 4))]
            mults = [QMPoly.constant(F(rng.choice(pool))) for _ in words]
            if rng.random() < 0.5:
                words.append(words[0])
                mults.append(mults[0] * F(rng.choice(pool[1:])))
            trunc = rng.randint(0, 8)
            rows = [expand(m, trunc) * iter_integral(w, trunc) for w, m in zip(words, mults)]
            exact = [[s.coefficient(m, k) for k in range(2) for m in range(trunc + 1)] for s in rows]
            assert independence_rank(words, mults, trunc) == reference_rank(exact), (words, mults, trunc)


class TestFirstTruncation:
    """Rows mod p are read to q^t for t = min(N, 2*ceil(n/(1+l))) first; when the
    kernel found there does not lift or check at q^N, the certificate at q^N is
    read, and only if it fails too does _exact_rank decide on the exact rows to
    q^N, each built once."""

    #: Agrees with E4 to q^3: 1728*Delta = E4^3 - E6^2 starts at q.
    CLOSE = E4 + (E4**3 - E6**2) ** 4

    @pytest.fixture
    def truncations(self, monkeypatch):
        """The (trunc, modulus) of every integral and multiplier series built, from empty caches."""
        iterqm.clear_caches()
        seen = {"integrals": set(), "multipliers": set()}
        integral, expand = iterint._iter_integral, canonicalize.expand

        def integral_spy(word, trunc, modulus):
            seen["integrals"].add((trunc, modulus))
            return integral(word, trunc, modulus)

        def expand_spy(p, trunc, modulus=0):
            seen["multipliers"].add((trunc, modulus))
            return expand(p, trunc, modulus)

        monkeypatch.setattr(iterint, "_iter_integral", integral_spy)
        monkeypatch.setattr(canonicalize, "expand", expand_spy)
        return seen

    def test_false_kernel_at_the_first_truncation(self, moduli, truncations):
        # n = 2 rows of words of length 1: t = 2, where the rows are equal
        assert independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 20) == 2
        assert moduli == [P, P]  # at q^2, then at q^20, where the rows have full rank mod p
        assert truncations["integrals"] == {(2, P), (20, 0), (20, P)}

    def test_failed_certificates_hand_exact_rows_to_exact_rank(self, truncations, monkeypatch):
        # only when the certificates at q^t and at q^N both fail is the rank over Q computed,
        # by _exact_rank on the columns of the exact rows' numerators, n entries each
        calls = []
        real = canonicalize._exact_rank
        monkeypatch.setattr(canonicalize, "_exact_rank", lambda rows: calls.append(list(rows)) or real(calls[-1]))
        assert independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 20) == 2
        assert calls == [] and (20, P) in truncations["integrals"]  # the certificate at q^20 decides
        assert independence_rank([(E4,), ()], [ONE, QMPoly.constant(P)], 10) == 2
        assert [{len(column) for column in columns} for columns in calls] == [{2}]
        assert len(calls[0]) == 11 * 2  # q^0 to q^10 of L^0, then of L^1

    def test_each_exact_row_is_built_once(self, monkeypatch):
        # the kernel checks build the rows of their support over Q; the exit to _exact_rank reuses them.
        # The caches start empty: a family kept at full rank by an earlier test builds no row
        built = Counter()
        real = canonicalize.iter_integral

        def spy(word, trunc, modulus=0):
            if not modulus:
                built[tuple(word)] += 1
            return real(word, trunc, modulus)

        monkeypatch.setattr(canonicalize, "iter_integral", spy)
        for words, multipliers, trunc in [([(E4,), ()], [ONE, QMPoly.constant(P)], 10),
                                          ([(E4,), (self.CLOSE,)], [ONE, ONE], 20)]:
            iterqm.clear_caches()
            built.clear()
            assert independence_rank(words, multipliers, trunc) == 2
            assert built == Counter(words)

    def test_full_rank_builds_no_residue_series_above_it(self, moduli, truncations):
        words = [(E4,), (E6,), (ONE, E4), (E2, E6), ()]  # n = 5, l = 2: t = 4
        assert independence_rank(words, [ONE, E2, ONE, E4, E6], 30) == 5
        assert moduli == [P]
        assert truncations == {"integrals": {(4, P)}, "multipliers": {(4, P)}}

    def test_planted_relation_is_decided_there(self, moduli, truncations, exact_words):
        # I(D(E4)) - 1 + E4 = 0 on rows 1, 3 and 4; n = 5, l = 2: t = 4.  reduce_letters rewrites
        # the kernel's combination to nothing, so no exact series is built
        words = [(E6,), (derive(E4),), (ONE, E4), (), ()]
        assert independence_rank(words, [ONE, ONE, E2, ONE, E4], 30) == 4
        assert moduli == [P]
        assert {t for t, m in truncations["integrals"] if m} == {4}
        assert exact_words == {"words": [], "multipliers": []}

    def test_short_truncation_is_read_once(self, moduli, truncations):
        # t = min(N, 2*ceil(n/(1+l))) = N: one pass
        assert independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 1) == 1
        assert moduli == [P]
        assert truncations["integrals"] == {(1, P), (1, 0)}

    def test_logs_the_truncation_and_route(self, caplog):
        iterqm.clear_caches()
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        independence_rank([(E4,), (E6,)], [ONE, ONE], 20)
        independence_rank([(derive(E4),), (), ()], [ONE, ONE, E4], 20)
        independence_rank([(derive(E4),), (), ()], [ONE, ONE, E4], 25)
        independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 20)
        independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 3)
        independence_rank([(E4,), ()], [ONE, QMPoly.constant(P)], 10)
        independence_rank([(E4,), (E4,)], [ONE, QMPoly.constant(F(1, P))], 10)
        assert caplog.messages == [
            "rank 2 at q^2 of q^20: full rank",
            "ibp_last: word length 1",  # reduce_letters proves I(3*D(E4)) - 3 + 3*E4 = 0
            "rank 2 at q^4 of q^20: kernel of 1 an identity",
            "rank 2 at q^4 of q^25: kernel of 1 an identity",  # the floor answers
            "rank 2 at q^20 of q^20: full rank",
            "rank 1 at q^2 of q^3: kernel of 1 checked, 2 rows exact",
            "rank at q^10: exact rows, the kernel did not lift or check",
            "rank 1 at q^2 of q^10: full rank",  # the numerators make the rows equal: one row
        ]

    def test_silent_without_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="iterqm.canonicalize")
        independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 20)
        assert not caplog.records


class TestCertificateAcrossTruncations:
    """The certificate mod p to q^t of a family, its rank and lifted kernel, is kept: a call at
    another N with the same t builds no residue row and runs no elimination, while the exact
    rows to q^N, the kernel check and the exit to _exact_rank stay per call.  The lowest
    truncation whose certificate gave full rank, or a kernel that reduce_letters rewrites to
    nothing, is kept too with its rank, and answers every N at or above it."""

    #: I(D(E4)) - 1 + E4 = 0 on rows 1, 3 and 4; n = 5, l = 2: t = min(N, 4)
    WORDS = [(E6,), (derive(E4),), (ONE, E4), (), ()]
    MULTIPLIERS = [ONE, ONE, E2, ONE, E4]
    #: E4 * (I(E4) - I(FAR)) = O(q^6) on rows 1 and 4, no identity; n = 5, l = 2: t = min(N, 4)
    FAR = E4 + (E4**3 - E6**2) ** 6
    NEAR_WORDS = [(E6,), (E4,), (ONE, E4), (), (FAR,)]
    NEAR_MULTIPLIERS = [ONE, E4, E2, ONE, E4]

    @pytest.fixture
    def built(self, monkeypatch):
        """The (trunc, modulus) of every integral and the (multiplier, trunc, modulus) of every
        multiplier expanded, from empty caches."""
        iterqm.clear_caches()
        seen = {"integrals": [], "multipliers": []}
        integral, expand = iterint._iter_integral, canonicalize.expand

        def integral_spy(word, trunc, modulus):
            seen["integrals"].append((trunc, modulus))
            return integral(word, trunc, modulus)

        def expand_spy(p, trunc, modulus=0):
            seen["multipliers"].append((p, trunc, modulus))
            return expand(p, trunc, modulus)

        monkeypatch.setattr(iterint, "_iter_integral", integral_spy)
        monkeypatch.setattr(canonicalize, "expand", expand_spy)
        return seen

    def test_same_t_builds_no_residue_series(self, moduli, built, exact_words, caplog):
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank(self.NEAR_WORDS, self.NEAR_MULTIPLIERS, 5) == 4
        assert (4, P) in built["integrals"] and (E2, 4, P) in built["multipliers"]
        first = sorted(exact_words["words"], key=repr)
        for seen in (built["integrals"], built["multipliers"], exact_words["words"]):
            seen.clear()
        assert independence_rank(self.NEAR_WORDS, self.NEAR_MULTIPLIERS, 4) == 4
        assert {modulus for _, modulus in built["integrals"]} == {0}  # no residue series
        assert built["multipliers"] == [(E4, 4, 0)]  # none mod p, and E4 once for both rows
        assert sorted(exact_words["words"], key=repr) == first  # the kernel's exact rows stay per call
        assert moduli == [P]  # the second call reads the kept certificate
        assert caplog.messages == [f"rank 4 at q^4 of q^{trunc}: kernel of 1 checked, 2 rows exact" for trunc in (5, 4)]

    def test_new_t_builds_its_rows_and_expands_each_multiplier_once(self, built):
        words, multipliers = self.NEAR_WORDS + [(E4, E6)], self.NEAR_MULTIPLIERS + [E2]  # n = 6, l = 2: t = min(N, 4)
        for trunc, t in [(5, 4), (3, 3), (2, 2)]:
            built["integrals"].clear()
            built["multipliers"].clear()
            assert independence_rank(words, multipliers, trunc) == 5
            assert (t, P) in built["integrals"]
            assert Counter(p for p, _, modulus in built["multipliers"] if modulus) == Counter([ONE, E2, E4])
            assert Counter(p for p, _, modulus in built["multipliers"] if not modulus) == Counter([E4])

    def test_identity_kernel_answers_every_truncation_above_it(self, moduli, built, caplog):
        # the planted relation is proved at t = 4 for every N >= 4, and again at each lower t;
        # at N = 0 the rank is the width, 3, and the kernel of 2 holds a false vector, so the
        # floor stays at q^1 and answers N = 25
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        truncs = [30, 40, 3, 2, 1, 0, 25]
        assert [independence_rank(self.WORDS, self.MULTIPLIERS, trunc) for trunc in truncs] == [4, 4, 4, 4, 4, 3, 4]
        assert sorted({t for t, modulus in built["integrals"] if modulus}) == [0, 1, 2, 3, 4]
        assert moduli == [P] * 5  # one certificate per distinct t, and nothing over Q
        assert [m for m in caplog.messages if m.startswith("rank")][:2] == [
            f"rank 4 at q^4 of q^{trunc}: kernel of 1 an identity" for trunc in (30, 40)]
        assert not [s for s in built["integrals"] + built["multipliers"] if not s[-1]]  # no exact row at any N
        cold = []
        for trunc in truncs:
            iterqm.clear_caches()
            cold.append(independence_rank(self.WORDS, self.MULTIPLIERS, trunc))
        assert cold == [4, 4, 4, 4, 4, 3, 4]

    def test_identity_reads_the_multipliers(self):
        # I(E4) and (1 + (E4^3 - E6^2)^4) * I(E4) agree to q^3; the kernel (1, -1) at t = 2 sums to
        # -(E4^3 - E6^2)^4 on the word (E4,), no identity.  Without the multipliers it would be one,
        # and N = 20 and 25 would give 1
        iterqm.clear_caches()
        mults = [ONE, ONE + (E4**3 - E6**2) ** 4]
        assert [independence_rank([(E4,), (E4,)], mults, trunc) for trunc in (20, 3, 25)] == [2, 1, 2]

    def test_kernel_checked_on_exact_rows_sets_no_floor(self):
        # the CLOSE pair's kernel checks at q^3 only: a floor set there would answer 1 at N = 25
        iterqm.clear_caches()
        close = [(E4,), (TestFirstTruncation.CLOSE,)], [ONE, ONE]
        assert [independence_rank(*close, trunc) for trunc in (3, 25)] == [1, 2]

    def test_identity_is_tried_only_within_the_width(self, monkeypatch):
        # C has 5 monomials: the kernel (1, -1, -1) of these rows is an identity by multilinearity,
        # but its words have 2 * 5^7 + 5^7 + 5^7 monomial products, far above the width 11 * 9 at
        # N = 10, and reduce_letters would expand each C before the words cancel
        calls = []
        real = canonicalize.reduce_letters
        monkeypatch.setattr(canonicalize, "reduce_letters", lambda combo: calls.append(combo) or real(combo))
        c = E4 + E6 + E4**2 + E4 * E6 + E6**2
        iterqm.clear_caches()
        assert independence_rank([(c,) * 7 + (E4 + E6,), (c,) * 7 + (E4,), (c,) * 7 + (E6,)], [ONE] * 3, 10) == 2
        assert calls == []
        # the same rows with the differing letter first and one C are within it, and proved
        assert independence_rank([(E4 + E6, c), (E4, c), (E6, c)], [ONE] * 3, 10) == 2
        assert len(calls) == 1

    #: Families of full rank below their t = 2*ceil(n/(1+l)), or only above it, or of rank = width < n
    FAMILIES = [
        ([(E4,), (E6,), (ONE, E4), (E2, E6), ()], [ONE, E2, ONE, E4, E6]),  # t = 4, full rank from q^1
        ([(E4,), (TestFirstTruncation.CLOSE,)], [ONE, ONE]),  # t = 2, full rank from q^4
        ([()] * 9, [ONE, E2, E4, E6, E2 * E2, E2 * E4, E2 * E6, E4 * E4, E4 * E6]),  # t = 18, rank min(N + 1, 9)
        ([(), (), ()], [ONE, E4, E4]),  # rank 2 = width at q^1, and 2 above it
        (WORDS, MULTIPLIERS),  # t = 4, rank 4 from q^1 by an identity, 3 = width at q^0
        ([(E4,), (E4,)], [ONE, ONE + (E4**3 - E6**2) ** 4]),  # t = 2, a kernel that checks to q^3 only
    ]

    def test_ranks_at_rising_truncations_match_cold_ranks(self):
        rng = random.Random(44)
        letters = [ONE, E2, E4, E6, E4 * E4]
        multipliers = [ONE, E2, E4, E6, E2 * E4]
        families = list(self.FAMILIES)
        for _ in range(12):
            n = rng.randint(1, 9)
            words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in range(n)]
            mults = [rng.choice(multipliers) for _ in range(n)]
            if n > 1 and rng.random() < 0.5:  # a repeated row
                words.append(words[0])
                mults.append(mults[0])
            families.append((words, mults))
        for words, mults in families:
            for truncs in ([1, 2, 3, 5, 8, 12], [12, 8, 5, 3, 2, 1], [3, 12, 3, 1, 12, 2]):  # rising, falling, repeated
                iterqm.clear_caches()
                warm = [independence_rank(words, mults, trunc) for trunc in truncs]
                cold = []
                for trunc in truncs:
                    iterqm.clear_caches()
                    cold.append(independence_rank(words, mults, trunc))
                assert warm == cold, (words, mults, truncs)

    def test_kept_kernel_fails_at_a_higher_truncation(self, moduli):
        # I(E4) and I(CLOSE) agree to q^3: the kernel (1, -1) found at t = 2 checks at N = 2 and 3 only
        words, mults, truncs = [(E4,), (TestFirstTruncation.CLOSE,)], [ONE, ONE], [2, 20, 3, 4, 12, 5]
        warm = [independence_rank(words, mults, trunc) for trunc in truncs]
        assert warm == [1, 2, 1, 2, 2, 2]
        # t = 2 at N = 2, 20, 3 and 4: eliminated mod p once; at 20 and 4 the kept kernel fails and
        # the certificate at q^N gives full rank, so 12 and 5, above the floor q^4, eliminate
        # nothing, and nothing is eliminated over Q
        assert moduli == [P, P, P]
        cold = []
        for trunc in truncs:
            iterqm.clear_caches()
            cold.append(independence_rank(words, mults, trunc))
        assert cold == warm

    def test_full_rank_below_t_answers_above_it(self, moduli, exact_words, caplog):
        # n = 5, l = 2: t = 4, but the rows have full rank at q^1 already
        words, mults = self.FAMILIES[0]
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank(words, mults, 1) == 5
        assert independence_rank(words, mults, 30) == 5
        assert moduli == [P]  # one elimination in all: the floor q^1 answers q^30
        assert exact_words == {"words": [], "multipliers": []}
        assert caplog.messages == ["rank 5 at q^1 of q^1: full rank", "rank 5 at q^1 of q^30: full rank"]

    def test_floor_answers_only_at_or_above_it(self, caplog):
        # a floor read below its truncation, or set by a rank that is only the width or
        # a kernel's, would give n here
        iterqm.clear_caches()
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        close = [(E4,), (TestFirstTruncation.CLOSE,)], [ONE, ONE]
        assert [independence_rank(*close, trunc) for trunc in (20, 3, 25)] == [2, 1, 2]
        assert caplog.messages[-1] == "rank 2 at q^20 of q^25: full rank"
        constants = [(), (), ()], [ONE, E4, E4]
        assert [independence_rank(*constants, trunc) for trunc in (0, 3, 5)] == [1, 2, 2]

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_equal_rows_keep_linear_size(self, n, moduli, caplog):
        # n equal rows are ranked as one: one row to q^2, of full rank, kept as a family of one row
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank([(E4,)] * n, [ONE] * n, 30) == 1
        assert moduli == [P] and caplog.messages == ["rank 1 at q^2 of q^30: full rank"]
        assert [len(family) for family in canonicalize._proofs] == [1]

    def test_reordered_rows_read_the_same_proof(self, moduli, caplog):
        # the rows reversed, with the first repeated, are the same family: the kernel kept at
        # q^4 is read by row and checked again, the floor kept at q^4 answers
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        for words, mults, trunc in [(self.NEAR_WORDS, self.NEAR_MULTIPLIERS, 5), (self.WORDS, self.MULTIPLIERS, 30)]:
            caplog.clear()
            ranks = [independence_rank(words, mults, trunc),
                     independence_rank(words[::-1] + words[:1], mults[::-1] + mults[:1], trunc)]
            routes = [m for m in caplog.messages if m.startswith("rank")]
            assert ranks == [4, 4] and len(routes) == 2 and routes[0] == routes[1], routes
        assert moduli == [P, P]  # one elimination per family


def graded_piece(weight: int, length: int, modular: bool = False) -> tuple[list[BarWord], list[QMPoly]]:
    """The rows m * I(w) of the I^QM graded piece: each word w of 1 to ``length`` letters over
    basis_b(weight) with wt(w) <= weight, times each monomial E2^a E4^b E6^c of weight weight - wt(w);
    of the I^M piece if ``modular``: letters of basis_b(weight, modular_only=True), monomials E4^b E6^c."""
    words, multipliers = [], []
    for word in (w for j in range(1, length + 1) for w in product(basis_b(weight, modular), repeat=j)):
        rest = weight - sum(letter_sort_key(l)[0] for l in word)
        for a in range(1 if modular else rest // 2 + 1):
            for b in range((rest - 2 * a) // 4 + 1):
                if (rest - 2 * a - 4 * b) % 6 == 0:
                    words.append(word)
                    multipliers.append(E2**a * E4**b * E6 ** ((rest - 2 * a - 4 * b) // 6))
    return words, multipliers


def graded_piece_size(weight: int, length: int, modular: bool = False) -> int:
    """sum over the words w of the piece of dim QM_(weight - wt w), or of dim M_(weight - wt w) if ``modular``,
    by a closed formula: dim M_k = floor(k/12) + (k != 2 mod 12) for even k >= 0, dim QM_k = sum_i dim M_(k-2i),
    and basis_b has one letter of weight 0, one of weight 2 (none if ``modular``) and dim M_k of each weight k >= 4."""
    dim_m = [k // 12 + (k % 12 != 2) if k % 2 == 0 else 0 for k in range(weight + 1)]
    dim_qm = [sum(dim_m[k - 2 * i] for i in range(k // 2 + 1)) if k % 2 == 0 else 0 for k in range(weight + 1)]
    letters = dim_m if modular else [1, 0, 1] + dim_m[3:]  # letters of each weight
    dims = dim_m if modular else dim_qm
    words, total = [1] + [0] * weight, 0  # words of each weight, of the length reached
    for _ in range(length):
        words = [sum(words[w - v] * letters[v] for v in range(w + 1)) for w in range(weight + 1)]
        total += sum(words[w] * dims[weight - w] for w in range(weight + 1))
    return total


class TestGradedPiece:
    """The paper's theorem on a whole graded piece of I^QM: the rows m * I(w) of weight 12 and
    length <= 3 are independent, and a planted relation drops the rank by exactly one.  Ranked
    from empty caches in one pass mod p, to q^124 and q^126, so that products of 125 and 127
    slots are read."""

    def test_full_rank(self, moduli, caplog):
        words, multipliers = graded_piece(12, 3)
        assert len(words) == graded_piece_size(12, 3) == 248
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank(words, multipliers, 124) == 248
        assert moduli == [P] and caplog.messages == ["rank 248 at q^124 of q^124: full rank"]

    def test_planted_relation(self, moduli, caplog):
        # I(D(E4)) - 1 * I() + E4 * I() = 0, the relation the certify workload plants
        words, multipliers = graded_piece(12, 3)
        words, multipliers = words + [(derive(E4),), (), ()], multipliers + [ONE, ONE, E4]
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank(words, multipliers, 126) == 250
        assert moduli == [P] and caplog.messages[-1] == "rank 250 at q^126 of q^126: kernel of 1 an identity"


class TestModularGradedPiece:
    """The same for I^M: the rows m * I(w) of weight 20 and length <= 3 over basis_b(20, modular_only=True),
    m a monomial E4^b E6^c, are independent, ranked from empty caches in one pass mod p to q^114.  A
    multilinearity row (m1 + m2) * I(w) beside m1 * I(w) and m2 * I(w) drops the rank by exactly one: an
    elimination that ends short of full rank, with each pivot reduced by the later ones, at a width of 229."""

    def test_full_rank(self, moduli, caplog):
        words, multipliers = graded_piece(20, 3, modular=True)
        assert len(words) == graded_piece_size(20, 3, modular=True) == 228
        assert all(m.is_modular() and E2 not in word for m, word in zip(multipliers, words))
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank(words, multipliers, 114) == 228
        assert moduli == [P] and caplog.messages == ["rank 228 at q^114 of q^114: full rank"]

    def test_planted_multilinearity(self, moduli, caplog):
        words, multipliers = graded_piece(20, 3, modular=True)
        m1, m2 = E4**4, E4 * E6**2  # M_16 is two-dimensional
        assert {(m1, (E4,)), (m2, (E4,))} <= set(zip(multipliers, words))
        words, multipliers = words + [(E4,)], multipliers + [m1 + m2]
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        assert independence_rank(words, multipliers, 114) == 228
        assert moduli == [P] and caplog.messages[-1] == "rank 228 at q^114 of q^114: kernel of 1 an identity"


class TestClearCaches:
    def test_every_module_cache_is_emptied_and_results_stay(self):
        words = [(E4,), (E6,), (E4 + E6,), (ONE, E4), ()]

        def results():
            integrals = parse("I(E2^2, E4*E6) * I(E6) + E4*I(D(E4), 1)")
            return (independence_rank(words, [ONE, ONE, ONE, E2, E4], 12), canonical_form(integrals),
                    integrals.expansion(12), shuffle((E4, E2), (E6,)),
                    repr(iterqm.cocycle_r(E4, iterqm.cocycles.S, 1j)), repr(iterqm.e2_cocycle((1, 2), 1.3j)))

        before = results()
        # every functools cache in the package but the CLI's one argument parser, and the rank proofs
        caches = {name: obj for module_name, module in list(sys.modules.items())
                  if module_name.split(".")[0] == "iterqm" for name, obj in vars(module).items()
                  if hasattr(obj, "cache_clear") and not isinstance(obj, type)
                  and getattr(obj, "__module__", "").startswith("iterqm") and name != "build_parser"}
        assert set(caches) == {"bernoulli", "_gen_power", "_iter_integral", "_monomial_split", "_proofs",
                               "_eichler_poly", "_minus_log_disc", "_inverses"}

        def sizes():
            return [len(c) if c is canonicalize._proofs else c.cache_info().currsize for c in caches.values()]

        assert all(sizes())
        iterqm.clear_caches()
        assert sizes() == [0] * len(caches)
        assert results() == before
        assert before[0] == 4

    def test_every_module_cache_is_bounded(self):
        modules = [importlib.import_module(f"iterqm.{info.name}") for info in pkgutil.iter_modules(iterqm.__path__)]
        caches = [obj for module in modules for obj in vars(module).values()
                  if hasattr(obj, "cache_parameters") and getattr(obj, "__module__", "").startswith("iterqm")]
        assert {c.__name__ for c in caches} >= {"bernoulli", "_gen_power", "_iter_integral", "_monomial_split",
                                                "build_parser", "_eichler_poly", "_minus_log_disc", "_inverses"}
        # a cache of a function without arguments holds one entry whatever its bound
        assert [c.__name__ for c in caches
                if c.cache_parameters()["maxsize"] is None and inspect.signature(c).parameters] == []
        assert canonicalize._proofs.maxsize == 64  # the rank proofs, bounded by their own store

    def test_rank_proofs_stay_bounded_and_are_emptied(self, moduli):
        # 70 families of one row, k * I(E4), each settled by a floor at q^1: the 64 last kept
        families = [([(E4,)], [QMPoly.constant(k)]) for k in range(1, 71)]
        for family in families[:64]:
            assert independence_rank(*family, 1) == 1
        assert independence_rank(*families[0], 1) == 1  # read: now the most recently used
        for family in families[64:]:
            assert independence_rank(*family, 1) == 1
        assert len(canonicalize._proofs) == 64 and len(moduli) == 70
        kept = [k for k, family in enumerate(families) if frozenset(zip(family[1], family[0])) in canonicalize._proofs]
        assert kept == [0] + list(range(7, 70))  # families 1 to 6, the least recently used, were dropped
        assert independence_rank(*families[1], 1) == 1 and len(moduli) == 71  # eliminated again
        iterqm.clear_caches()
        assert len(canonicalize._proofs) == 0

    def test_numeric_caches_are_emptied_once_loaded_and_never_loaded(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys, iterqm\n"
            "iterqm.clear_caches()\n"
            "print('iterqm.cocycles' in sys.modules, 'mpmath' in sys.modules)\n"
            "from iterqm import cocycles\n"
            "cocycles.cocycle_r(iterqm.E4, cocycles.S, 1j)\n"
            "cocycles.e2_cocycle((1, 2), 1.3j)\n"
            "caches = (cocycles._eichler_poly, cocycles._minus_log_disc)\n"
            "print(*[c.cache_info().currsize > 0 for c in caches])\n"
            "iterqm.clear_caches()\n"
            "print(*[c.cache_info().currsize for c in caches])\n"
        )
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["False False", "True True", "0 0"]
