import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from iterqm.iterint import (
    BarCombo,
    _iter_integral,
    ibp_first,
    ibp_last,
    ibp_middle,
    iter_integral,
    r_map,
    shuffle_product_words,
)
from iterqm.qseries import LogQSeries, d_op
from iterqm.quasimodular import DELTA, E2, E4, E6, ONE, QMPoly, derive, expand


def L(trunc, k=1, coeff=1):
    return LogQSeries.log_power(k, trunc, coeff)


class TestIterIntegral:
    def test_constant_one_letter(self):
        assert iter_integral((ONE,), 3) == L(3, coeff=-1)

    def test_e2_series(self):
        # -L + 24q + 36q^2 : two oracles, termwise -a_n/n and -log Delta
        got = iter_integral((E2,), 2)
        want = LogQSeries(2, {1: [-1, 0, 0], 0: [0, 24, 36]})
        assert got == want

    def test_log_delta_oracle(self):
        # I(E2) = -(L + log(Delta/q)) with log computed by the series
        # recurrence n*l_n = [q^n](D(u)/u) from the product formula for u
        n = 100
        u = LogQSeries.constant(1, n)
        for m in range(1, n + 1):
            u = u * LogQSeries(n, {0: [1] + [0] * (m - 1) + [-1]})
        eta24 = LogQSeries.constant(1, n)
        for _ in range(24):
            eta24 = eta24 * u
        u = eta24
        du = d_op(u)
        # c = D(u)/u by the convolution recurrence c_n = du_n - sum_{j<n} c_j u_{n-j}
        c = [F(0)] * (n + 1)
        for m in range(n + 1):
            acc = du.coefficient(m, 0)
            for j in range(m):
                acc -= c[j] * u.coefficient(m - j, 0)
            c[m] = acc
        logu = [F(0)] * (n + 1)
        for m in range(1, n + 1):
            logu[m] = c[m] / m
        oracle = L(n, coeff=-1) - LogQSeries(n, {0: logu})
        assert iter_integral((E2,), n) == oracle

    def test_termwise_sigma_oracle(self):
        # -L + 24 sum sigma1(n)/n q^n
        n = 50
        coeffs = [F(0)] + [
            F(24 * sum(d for d in range(1, m + 1) if m % d == 0), m) for m in range(1, n + 1)
        ]
        assert iter_integral((E2,), n) == L(n, coeff=-1) + LogQSeries(n, {0: coeffs})

    def test_double_one(self):
        assert iter_integral((ONE, ONE), 3) == L(3, k=2, coeff=F(1, 2))

    def test_one_e4(self):
        got = iter_integral((ONE, E4), 2)
        want = LogQSeries(2, {2: [F(1, 2)], 0: [0, 240, 540]})
        assert got == want

    def test_empty_word(self):
        assert iter_integral((), 4) == LogQSeries.constant(1, 4)

    def test_log_degree_bound_and_vanishing_constant(self):
        rng = random.Random(21)
        pool = [ONE, E2, E4, DELTA]
        for _ in range(15):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            s = iter_integral(word, 10)
            assert s.log_degree() <= len(word)
            assert s.coefficient(0, 0) == 0

    def test_ode(self):
        pool = [ONE, E2, E4, DELTA]
        for n in (1, 2, 3):
            for word in product(pool, repeat=n):
                s = iter_integral(word, 12)
                tail = iter_integral(word[1:], 12)
                lhs = d_op(s) + expand(word[0], 12) * tail
                assert lhs.is_zero(), word

    def test_constant_term_structure(self):
        # q^0 part of I(f1..fn) = (prod f_j(cusp)) (-L)^n / n!
        pool = [ONE, E2, E4, DELTA]
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(1, 3)
            word = tuple(rng.choice(pool) for _ in range(n))
            s = iter_integral(word, 8)
            c = F(1)
            for f in word:
                c *= f.cusp_value()
            coeff = c * F((-1) ** n, math.factorial(n))
            for k in range(s.log_degree() + 1):
                expected = coeff if k == n else F(0)
                assert s.coefficient(0, k) == expected, (word, k)


class TestLongWords:
    def test_1100_letters(self):
        # I(1, ..., 1) = (-L)^n / n!; plain recursion ran out of stack here
        got = iter_integral((ONE,) * 1100, 0)
        assert got == L(0, k=1100, coeff=F(1, math.factorial(1100)))

    def test_short_words_make_the_same_lookups(self):
        # a fresh word of n letters costs n + 1 misses and no hit, as with
        # plain recursion; repeating it is one hit
        word = (E4, QMPoly({(0, 0, 1): 7}), E2 * E6)
        _iter_integral.cache_clear()
        before = _iter_integral.cache_info()
        iter_integral(word, 3)
        mid = _iter_integral.cache_info()
        assert (mid.misses - before.misses, mid.hits - before.hits) == (4, 0)
        iter_integral(word, 3)
        after = _iter_integral.cache_info()
        assert (after.misses - mid.misses, after.hits - mid.hits) == (0, 1)


class TestShuffleWords:
    def test_two_singletons(self):
        assert shuffle_product_words((E4,), (E6,)) == BarCombo({(E4, E6): 1, (E6, E4): 1})

    def test_unit(self):
        assert shuffle_product_words((E4,), ()) == BarCombo({(E4,): 1})

    def test_length_three(self):
        got = shuffle_product_words((E2, E4), (E6,))
        want = BarCombo({(E2, E4, E6): 1, (E2, E6, E4): 1, (E6, E2, E4): 1})
        assert got == want

    def test_shuffle_identity_exact(self):
        # I(w1) I(w2) = sum over shuffles, exact at N=30
        pool = [ONE, E2, E4, E6, DELTA]
        rng = random.Random(23)
        cases = 0
        for _ in range(40):
            n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
            w1 = tuple(rng.choice(pool) for _ in range(n1))
            w2 = tuple(rng.choice(pool) for _ in range(n2))
            lhs = iter_integral(w1, 30) * iter_integral(w2, 30)
            assert lhs == shuffle_product_words(w1, w2).expansion(30)
            cases += 1
        assert cases == 40


def _combo_integral(combo, n):
    total = LogQSeries.zero(n)
    for word, coeff in combo.terms.items():
        total = total + expand(coeff, n) * iter_integral(word, n)
    return total


class TestRegularizationAgreesWithAlternatingSum:
    """The ODE-with-zero-constant integral equals the alternating-sum
    construction: I(w) = sum_i (-1)^(n-i) I(R[w_<=i]) (prod tail cusp
    values) L^(n-i)/(n-i)!, exactly."""

    WORDS = [
        (E2,), (E4,), (ONE,), (DELTA,),
        (E2, E4), (E4, E6), (ONE, E2), (DELTA, E4), (ONE, ONE),
        (E2, E4, E6), (ONE, E2, E4), (E4, ONE, E6), (DELTA, ONE, E2),
    ]

    @staticmethod
    def _alternating_sum(word, n):
        m = len(word)
        total = LogQSeries.zero(n)
        for i in range(m + 1):
            consts = F(1)
            for f in word[i:]:
                consts *= f.cusp_value()
            piece = _combo_integral(r_map(word[:i]), n)
            if m - i:
                piece = piece * LogQSeries.log_power(m - i, n, F(1, math.factorial(m - i)))
            total = total + piece.scale(consts * F((-1) ** (m - i)))
        return total

    def test_exact_agreement(self):
        for w in self.WORDS:
            assert iter_integral(w, 18) == self._alternating_sum(w, 18), w

    def test_r_image_integrals_vanish_at_cusp(self):
        # the R-map produces combinations whose integrals converge at the
        # cusp: the whole q^0 layer (all log powers) is zero
        for w in self.WORDS:
            s = _combo_integral(r_map(w), 18)
            assert all(s.coefficient(0, k) == 0 for k in range(s.log_degree() + 1)), w


class TestRMap:
    def test_single_eisenstein(self):
        assert r_map((E4,)) == BarCombo({(E4,): 1, (ONE,): -1})

    def test_cusp_form_unchanged(self):
        assert r_map((DELTA,)) == BarCombo({(DELTA,): 1})

    def test_empty(self):
        assert r_map(()) == BarCombo.unit()

    def test_length_two_shape(self):
        # R[f|g] = [f|g] - [f] sh [g^inf] + [g^inf|f^inf]
        f, g = E4, E6
        one = QMPoly.constant(1)
        want = (
            BarCombo({(f, g): 1})
            - shuffle_product_words((f,), (one,))
            + BarCombo({(one, one): 1})
        )
        assert r_map((f, g)) == want


class TestIntegrationByParts:
    def test_ibp_first_shape(self):
        combo, (coeff, word) = ibp_first(E2, (E4,))
        assert combo == BarCombo({(E2 * E4,): 1})
        assert coeff == -E2 and word == (E4,)

    def test_ibp_first_rejects_empty(self):
        with pytest.raises(ValueError):
            ibp_first(E2, ())

    def test_ibp_first_numeric(self):
        # I(D(g), f2) = I(g f2) - g I(f2), exact at N=25
        g, f2 = E4, E6
        lhs = iter_integral((derive(g), f2), 25)
        combo, (coeff, word) = ibp_first(g, (f2,))
        rhs = combo.expansion(25) + expand(coeff, 25) * iter_integral(word, 25)
        assert lhs == rhs

    def test_ibp_middle_cancels_for_unit(self):
        assert ibp_middle((E2,), ONE, (E4,)).is_zero()

    def test_ibp_middle_numeric(self):
        for prefix, g, suffix in [((ONE,), E4, (ONE,)), ((E2,), E2, (E4,)), ((E4,), E6, (ONE, E2))]:
            lhs = iter_integral(prefix + (derive(g),) + suffix, 20)
            rhs = ibp_middle(prefix, g, suffix).expansion(20)
            assert lhs == rhs, (prefix, g, suffix)

    def test_ibp_middle_preconditions(self):
        with pytest.raises(ValueError):
            ibp_middle((), E4, (ONE,))
        with pytest.raises(ValueError):
            ibp_middle((ONE,), E4, ())

    def test_ibp_last_shapes(self):
        scalar, front, corr = ibp_last((ONE,), E4)
        assert (scalar, front) == (1, (ONE,)) and corr == BarCombo({(E4,): 1})
        scalar, front, corr = ibp_last((E4,), DELTA)
        assert scalar == 0 and corr == BarCombo({(E4 * DELTA,): 1})

    def test_ibp_last_numeric(self):
        front, g = (E2,), E6
        lhs = iter_integral(front + (derive(g),), 25)
        scalar, fw, corr = ibp_last(front, g)
        rhs = iter_integral(fw, 25).scale(scalar) - corr.expansion(25)
        assert lhs == rhs

    def test_ibp_last_empty_front(self):
        # I(D(g)) = g(cusp) - g
        for g in (E4, E2 * E4, DELTA):
            lhs = iter_integral((derive(g),), 20)
            scalar, fw, corr = ibp_last((), g)
            rhs = iter_integral(fw, 20).scale(scalar) - corr.expansion(20)
            assert lhs == rhs, g

    def test_random_instances(self):
        rng = random.Random(24)
        pool = [ONE, E2, E4, E6, DELTA, E2 * E4]
        for _ in range(25):
            g = rng.choice(pool[1:])
            n = rng.randint(1, 3)
            word = [rng.choice(pool) for _ in range(n)]
            pos = rng.randint(0, n)
            full = tuple(word[:pos]) + (derive(g),) + tuple(word[pos:])
            lhs = iter_integral(full, 15)
            if pos == 0 and n > 0:
                combo, (coeff, tail) = ibp_first(g, tuple(word))
                rhs = combo.expansion(15) + expand(coeff, 15) * iter_integral(tail, 15)
            elif pos == n:
                scalar, fw, corr = ibp_last(tuple(word), g)
                rhs = iter_integral(fw, 15).scale(scalar) - corr.expansion(15)
            else:
                rhs = ibp_middle(tuple(word[:pos]), g, tuple(word[pos:])).expansion(15)
            assert lhs == rhs

    def test_length_filtration_witness(self):
        # a word containing a derivative letter lies in the span of
        # strictly shorter integrals: eliminate and compare lengths
        rng = random.Random(25)
        pool = [ONE, E2, E4, E6]
        for _ in range(10):
            g = rng.choice([E2, E4, E6])
            n = rng.randint(1, 2)
            word = [rng.choice(pool) for _ in range(n)]
            pos = rng.randint(0, n)
            full = tuple(word[:pos]) + (derive(g),) + tuple(word[pos:])
            if pos == 0:
                combo, (coeff, tail) = ibp_first(g, tuple(word))
                words = list(combo.terms) + [tail]
                rhs = combo.expansion(12) + expand(coeff, 12) * iter_integral(tail, 12)
            elif pos == n:
                scalar, fw, corr = ibp_last(tuple(word), g)
                words = [fw] + list(corr.terms)
                rhs = iter_integral(fw, 12).scale(scalar) - corr.expansion(12)
            else:
                combo = ibp_middle(tuple(word[:pos]), g, tuple(word[pos:]))
                words = list(combo.terms)
                rhs = combo.expansion(12)
            assert all(len(w) <= len(full) - 1 for w in words)
            assert iter_integral(full, 12) == rhs
