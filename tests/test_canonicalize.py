import logging
import random
import sys
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from fractions import Fraction as F
from math import isqrt

import pytest

import iterqm
import iterqm.canonicalize as canonicalize
import iterqm.iterint as iterint
from conftest import random_homogeneous, random_qmpoly
from iterqm.canonicalize import (
    _RANK_PRIME,
    ModularModeError,
    _certified_rank,
    _rational_lift,
    canonical_form,
    independence_rank,
    rational_rank,
    reduce_letters,
)
from iterqm.expr import parse
from iterqm.iterint import BarWord, IntegralPoly, ibp
from iterqm.linear import _accumulate
from iterqm.qseries import LogQSeries
from iterqm.quasimodular import E2, E4, E6, ONE, QMPoly, _row_reduce, decompose, derive, is_basis_letter
from iterqm.shuffle_lyndon import LyndonPoly, is_lyndon, shuffle

linear = IntegralPoly.linear
logger = logging.getLogger("iterqm.canonicalize")


# The letter reduction as it stood before it carried integer rows: every
# step scales and adds whole QMPoly coefficients.  For tests only.
def reference_reduce_letters(combo: Mapping[BarWord, QMPoly]) -> dict[BarWord, QMPoly]:
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

    for word, coeff in combo.items():
        push(word, coeff, 0)
    debug = logger.isEnabledFor(logging.DEBUG)
    for n in range(max(map(len, combo), default=0), 0, -1):
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
        real = QMPoly.weight_split

        def counting(letter):
            calls[letter] += 1
            return real(letter)

        monkeypatch.setattr(QMPoly, "weight_split", counting)
        # a and b recur across words and positions
        a, b = E4 + E2 * E4, E6 + E2 * E4 + E2 * E2
        combo = {(a, b, a): ONE, (b, a, ONE, b): E2, (a, a): E4}
        reduce_letters(combo)
        assert calls[a] == calls[b] == 1
        assert max(calls.values()) == 1

    def test_logs_each_rule(self, caplog):
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        reduce_letters({(derive(E4), E6): ONE})
        assert [r.getMessage() for r in caplog.records] == [
            "ibp_first: letter weight 6, word length 2"]
        caplog.clear()
        reduce_letters({(E6, derive(E4)): ONE})
        assert [r.getMessage() for r in caplog.records] == [
            "ibp_last: letter weight 6, word length 2"]
        caplog.clear()
        reduce_letters({(E6, derive(E4), E4): ONE})
        assert "ibp_middle: letter weight 6, word length 3" in caplog.messages

    def test_silent_without_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="iterqm.canonicalize")
        reduce_letters({(derive(E4), E6): ONE})
        assert not caplog.records

    def test_cancelled_word_is_not_expanded(self, monkeypatch):
        # ibp_first on the first word and ibp_middle on the second both
        # yield (E2*E4, E4), with opposite signs
        calls = Counter()
        real = canonicalize.decompose

        def counting(piece):
            calls[piece] += 1
            return real(piece)

        monkeypatch.setattr(canonicalize, "decompose", counting)
        combo = {(derive(E4), E2, E4): ONE, (E2, derive(E4), E4): ONE}
        got = reduce_letters(combo)
        assert calls[E2 * E4] == 0
        assert got == {(E2, E4 * E4): ONE, (E2, E4): -E4}
        assert linear(got).expansion(10) == linear(combo).expansion(10)


class TestCanonicalForm:
    def test_single_basis_word(self):
        cf = canonical_form(linear({(E4,): 1}))
        idx = cf.basis.index(E4)
        assert cf.poly == LyndonPoly.monomial([(idx,)], QMPoly.constant(1))

    def test_reversed_word(self):
        # [E4|1] = [1] sh [E4] - [1|E4]
        cf = canonical_form(linear({(E4, ONE): 1}))
        i1, i4 = cf.basis.index(ONE), cf.basis.index(E4)
        want = LyndonPoly.monomial([(i1,), (i4,)], QMPoly.constant(1)) + LyndonPoly.monomial(
            [(i1, i4)], QMPoly.constant(-1)
        )
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
        assert cf.poly == LyndonPoly.monomial([(i1,), (i1,)], QMPoly.constant(F(1, 2)))

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
        power, power_series = LyndonPoly.monomial([], ONE), LogQSeries.constant(1, 30)
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
        want = LyndonPoly.monomial([(i1, i4)], E2) + LyndonPoly.monomial(
            [(i2, i4)], QMPoly.constant(3)
        )
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

    def test_rational_rank_basics(self):
        assert rational_rank([]) == 0
        assert rational_rank([[F(0), F(0)]]) == 0
        assert rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_rank([[F(1), F(0)], [F(1), F(1)]]) == 2

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            independence_rank([()], [ONE, ONE], 5)


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
    rank from an echelon form of the rows, then the kernel from Gauss-Jordan
    on [A mod p | I].  For tests only.
    """
    n = len(residues)
    rank = len(_row_reduce([list(row) for row in residues], _RANK_PRIME))
    if rank == n or rank == ncols:
        return rank
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(residues)]
    _row_reduce(augmented, _RANK_PRIME, reduced=True)
    for row in augmented[rank:]:
        lifts = [_rational_lift(u) for u in row[-n:]]
        if None in lifts or not is_kernel(lifts):
            return None
    return rank


class TestOnePassCertificate:
    """One column pass gives the rank and kernel of the two-pass reference."""

    @staticmethod
    def both(rows, ncols=None, accept=True):
        """(rank, kernel lifts) from the reference on the rows and from _certified_rank on the columns."""
        ncols = len(rows[0]) if ncols is None else ncols
        results = []
        for certify, matrix in ((reference_certified_rank, rows), (_certified_rank, list(zip(*reversed(rows))))):
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
            assert len(_row_reduce(list(zip(*reversed(rows)))[:-1], P)) == n - 1

    def test_zero_or_one_row(self):
        assert self.both([], ncols=5) == [(0, [])] * 2
        assert self.both([[0, 0, 0]]) == [(0, [[F(1)]])] * 2  # a zero row is its own kernel
        assert self.both([[0, 4, 1]]) == [(1, [])] * 2
        assert self.both([[0, 0], [0, 0]]) == [(0, [[F(1), F(0)], [F(0), F(1)]])] * 2


@pytest.fixture
def moduli(monkeypatch):
    seen = []
    real = canonicalize._row_reduce

    def spy(rows, modulus=0, reduced=False):
        seen.append(modulus)
        return real(rows, modulus, reduced)

    monkeypatch.setattr(canonicalize, "_row_reduce", spy)
    return seen


@pytest.fixture
def exact_words(monkeypatch):
    """The words whose exact integral is computed, and the multipliers expanded exactly."""
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
    lifted to Q and checked exactly, or else settled by elimination over Q."""

    def test_modulus_is_prime(self):
        assert P.bit_length() >= 30 and is_prime(P)
        assert P != 2**61 - 1  # the benchmark oracle's prime stays independent
        assert [is_prime(n) for n in (1, 2, 561, 2**31 - 1, 2**32 + 1, 3215031751)] == [
            False, True, False, True, False, False]

    def test_full_rank_is_certified_mod_p(self, moduli):
        assert rational_rank([[F(1, 3), F(2)], [F(5), F(-7, 2)]]) == 2
        assert moduli == [P]

    def test_diagonal_p_falls_back(self, moduli):
        assert rational_rank([[F(P), F(0)], [F(0), F(1)]]) == 2
        assert moduli == [P, 0]  # the kernel (1, 0) lifts but fails the exact check

    def test_row_of_multiples_of_p_falls_back(self, moduli):
        rows = [[F(P, 3), F(2 * P, 5), F(-P)], [F(1), F(0), F(2)]]
        assert rational_rank(rows) == 2
        assert moduli == [P, 0]

    def test_denominators_divisible_by_p(self, moduli):
        # scaled rows [1, P] and [1, 2P] agree mod P; the determinant over Q is 1
        assert rational_rank([[F(1, P), F(1)], [F(1), F(2 * P)]]) == 2
        assert moduli == [P, 0]
        assert rational_rank([[F(1, P * P), F(3, P)], [F(2, 7 * P), F(1, 5)]]) == 2

    def test_deficient_over_q_too(self, moduli):
        # det = (1/P) * P - 1 = 0: rank 1 over Q, proved by the lifted kernel
        assert rational_rank([[F(1, P), F(1)], [F(1), F(P)]]) == 1
        assert moduli == [P]  # the kernel (1, -1) lifts and checks: no elimination over Q

    def test_wide(self, moduli):
        assert rational_rank([[F(1), F(2), F(3), F(4), F(5)], [F(0), F(1), F(1, 2), F(0), F(9)]]) == 2
        assert moduli == [P]
        wide = [[F(i + j) for j in range(6)] for i in range(3)]
        assert rational_rank(wide) == 2

    def test_tall(self, moduli):
        tall = [[F(i), F(i * i + 1, 3)] for i in range(6)]
        assert rational_rank(tall) == 2
        assert moduli == [P]  # rank mod P reached the column count
        assert rational_rank([[F(3 * i), F(-i, 2)] for i in range(5)]) == 1

    def test_zero_rows(self, moduli):
        zero = [F(0)] * 3
        assert rational_rank([zero, [F(1), F(2), F(3)], zero]) == 1
        assert moduli == [P]
        assert rational_rank([zero, zero]) == 0
        assert rational_rank([[], []]) == 0

    def test_integer_entries_stay_exact(self, moduli):
        # det = -1 and -P: floats saw both rows as equal
        assert rational_rank([[10**17, 1], [10**17 + 1, 1]]) == 2
        assert rational_rank([[P * 10**17, 1], [P * 10**17 + P, 1]]) == 2
        assert moduli == [P, P, 0]

    def test_planted_relation_takes_the_kernel_path(self, moduli):
        # I(D(E4)) = 1 - E4, the regularized integral of a derivative
        words = [(E6,), (derive(E4),), (ONE, E4), (), ()]
        mults = [ONE, ONE, E2, ONE, E4]
        assert independence_rank(words, mults, 12) == 4
        assert moduli == [P]

    def test_large_kernel_entries_fall_back(self, moduli):
        a, b = 10**6 + 3, 999_999  # the kernel (1, b/a, -1/a) is beyond sqrt(P/2)
        rows = [[1, 0, 2], [0, 1, 3], [a, b, 2 * a + 3 * b]]
        assert rational_rank(rows) == 2
        assert moduli == [P, 0]
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

    def test_denominator_p_takes_the_exact_path(self, moduli, monkeypatch):
        exact = []
        real = canonicalize.rational_rank
        monkeypatch.setattr(canonicalize, "rational_rank", lambda rows: exact.append(rows) or real(rows))
        assert independence_rank([(E4,), (E4,)], [ONE, QMPoly.constant(F(1, P))], 10) == 1
        assert len(exact) == 1 and moduli == [P]  # no rows mod P: 1/P has no residue
        assert independence_rank([(E4 * F(1, P),), (E4,), (E6,)], [ONE] * 3, 10) == 2
        assert len(exact) == 2

    def test_full_rank_builds_no_exact_series(self, exact_words, moduli):
        words = [(E4,), (E6,), (ONE, E4), (E2, E6), ()]
        assert independence_rank(words, [ONE, E2, ONE, E4, E6], 10) == 5
        assert exact_words == {"words": [], "multipliers": []} and moduli == [P]

    def test_deficiency_builds_exact_series_on_the_kernel_support(self, exact_words, moduli):
        # the kernel is (0, 0, 1, -1): only I(1, E4) is computed exactly
        words = [(E6,), (E2, E4), (ONE, E4), (ONE, E4)]
        assert independence_rank(words, [E2, E4, ONE, ONE], 10) == 3
        assert moduli == [P]
        assert exact_words["words"] and set(exact_words["words"]) <= {(ONE, E4), (E4,), ()}
        assert exact_words["multipliers"] == [ONE]

    def test_leaves_input_alone(self):
        rows = [[F(2), F(4)], [F(1), F(2)]]
        assert rational_rank(rows) == 1
        assert rows == [[F(2), F(4)], [F(1), F(2)]]

    def test_random_against_reference(self):
        rng = random.Random(41)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            pool = [0, 1, -1, 2, P, -P, 2 * P, F(1, P), F(P, 3), F(3, 7)]
            rows = [[F(rng.choice(pool)) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:  # plant a dependence
                a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.choice(pool))
                rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
            assert rational_rank(rows) == reference_rank(rows), rows


class TestFirstTruncation:
    """Rows mod p are read to q^t for t = min(N, 2*ceil(n/(1+l))) first, and to
    q^N only when the kernel found at q^t does not lift or check at q^N."""

    #: Agrees with E4 to q^3: 1728*Delta = E4^3 - E6^2 starts at q.
    CLOSE = E4 + (E4**3 - E6**2) ** 4

    @pytest.fixture
    def truncations(self, monkeypatch):
        """The (trunc, modulus) of every integral and multiplier series built."""
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
        assert moduli == [P, P]
        assert truncations["integrals"] == {(2, P), (20, 0), (20, P)}

    def test_full_rank_builds_no_residue_series_above_it(self, moduli, truncations):
        words = [(E4,), (E6,), (ONE, E4), (E2, E6), ()]  # n = 5, l = 2: t = 4
        assert independence_rank(words, [ONE, E2, ONE, E4, E6], 30) == 5
        assert moduli == [P]
        assert truncations == {"integrals": {(4, P)}, "multipliers": {(4, P)}}

    def test_planted_relation_is_decided_there(self, moduli, truncations, exact_words):
        # I(D(E4)) - 1 + E4 = 0 on rows 1, 3 and 4; n = 5, l = 2: t = 4
        words = [(E6,), (derive(E4),), (ONE, E4), (), ()]
        assert independence_rank(words, [ONE, ONE, E2, ONE, E4], 30) == 4
        assert moduli == [P]
        assert {t for t, m in truncations["integrals"] if m} == {4}
        assert set(exact_words["words"]) == {(derive(E4),), ()}
        assert sorted(exact_words["multipliers"], key=repr) == sorted([ONE, E4], key=repr)

    def test_short_truncation_is_read_once(self, moduli, truncations):
        # t = min(N, 2*ceil(n/(1+l))) = N: one pass
        assert independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 1) == 1
        assert moduli == [P]
        assert truncations["integrals"] == {(1, P), (1, 0)}

    def test_logs_the_truncation_and_route(self, caplog):
        caplog.set_level(logging.DEBUG, logger="iterqm.canonicalize")
        independence_rank([(E4,), (E6,)], [ONE, ONE], 20)
        independence_rank([(derive(E4),), (), ()], [ONE, ONE, E4], 20)
        independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 20)
        independence_rank([(E4,), ()], [ONE, QMPoly.constant(P)], 10)
        independence_rank([(E4,), (E4,)], [ONE, QMPoly.constant(F(1, P))], 10)
        assert caplog.messages == [
            "rank 2 at q^2 of q^20: full rank",
            "rank 2 at q^4 of q^20: kernel of 1 checked, 3 rows exact",
            "rank 2 at q^20 of q^20: full rank",
            "rank at q^10: exact elimination, the kernel mod p did not lift or check",
            "rank at q^10: exact rows, p divides a denominator",
        ]

    def test_silent_without_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="iterqm.canonicalize")
        independence_rank([(E4,), (self.CLOSE,)], [ONE, ONE], 20)
        assert not caplog.records


class TestClearCaches:
    def test_every_module_cache_is_emptied_and_results_stay(self):
        words = [(E4,), (E6,), (E4 + E6,), (ONE, E4), ()]

        def results():
            integrals = parse("I(E2^2, E4*E6) * I(E6) + E4*I(D(E4), 1)")
            return (independence_rank(words, [ONE, ONE, ONE, E2, E4], 12), canonical_form(integrals),
                    integrals.expansion(12), shuffle((E4, E2), (E6,)))

        before = results()
        # every functools cache in the package but the CLI's one argument parser
        caches = {obj for name, module in list(sys.modules.items()) if name.split(".")[0] == "iterqm"
                  for obj in vars(module).values()
                  if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("iterqm")
                  and obj.__name__ != "build_parser"}
        assert {c.__name__ for c in caches} == {"_gen_power", "_iter_integral", "_shuffle", "_decomposition_inverse"}
        assert all(c.cache_info().currsize for c in caches)
        iterqm.clear_caches()
        assert [c.cache_info().currsize for c in caches] == [0] * len(caches)
        assert results() == before
        assert before[0] == 4
