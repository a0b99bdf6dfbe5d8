import math
import random
from fractions import Fraction as F

import pytest

from iterqm.qseries import LogQSeries, QSeries, d_op, eval_numeric, primitive, split


def L(trunc, k=1, coeff=1):
    return LogQSeries.log_power(k, trunc, coeff)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert QSeries(2, [1, 1]) * QSeries(2, [1, -1]) == QSeries(2, [1, 0, -1])

    def test_log_squares(self):
        assert L(3) * L(3) == L(3, k=2)

    def test_mixed_product(self):
        # (-L) * (-L - 240q) = L^2 + 240 q L
        a = L(1, coeff=-1)
        b = L(1, coeff=-1) + LogQSeries.from_qseries(QSeries(1, [0, -240]))
        want = LogQSeries(1, {2: QSeries.constant(1, 1), 1: QSeries(1, [0, 240])})
        assert a * b == want

    def test_min_truncation_rule(self):
        a = QSeries(5, [1, 1, 1, 1, 1, 1])
        b = QSeries(2, [1, 2, 3])
        assert (a + b).trunc == 2
        assert (a * b).trunc == 2

    def test_scale(self):
        s = LogQSeries(2, {0: QSeries(2, [1, 2, 3])})
        assert s.scale(F(1, 2)) == LogQSeries(2, {0: QSeries(2, [F(1, 2), 1, F(3, 2)])})
        assert s.scale(0).is_zero()

    def test_zero_parts_dropped(self):
        s = LogQSeries(2, {0: QSeries(2, [1]), 3: QSeries.zero(2)})
        assert set(s.parts) == {0}

    def test_mul_commutative_associative_random(self):
        rng = random.Random(11)

        def rand_series(n):
            parts = {}
            for k in range(rng.randint(0, 2)):
                parts[k] = QSeries(n, [F(rng.randint(-9, 9)) for _ in range(n + 1)])
            return LogQSeries(n, parts)

        for _ in range(20):
            n = rng.randint(1, 12)
            a, b, c = rand_series(n), rand_series(n), rand_series(n)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)



def schoolbook(a: QSeries, b: QSeries) -> QSeries:
    """Reference product: the plain Fraction convolution, truncated."""
    n = min(a.trunc, b.trunc)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return QSeries(n, out)


class TestIntegerProduct:
    """QSeries.__mul__ packs integers into one big int; check it against schoolbook."""

    def check(self, a, b):
        got = a * b
        assert got == schoolbook(a, b)
        assert all(type(c) is F for c in got.coeffs)
        return got

    def test_signed_rationals_unrelated_denominators(self):
        rng = random.Random(31)
        dens = [1, 2, 3, 7, 11, 13, 97, 101, 2**31 - 1, 10**12 + 39]
        for _ in range(200):
            n = rng.randint(0, 15)
            a, b = (
                QSeries(n, [F(rng.randint(-10**6, 10**6), rng.choice(dens)) for _ in range(n + 1)])
                for _ in range(2)
            )
            self.check(a, b)

    def test_sparse_random(self):
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randint(0, 12)
            a, b = (
                QSeries(n, [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.3 else 0
                            for _ in range(n + 1)])
                for _ in range(2)
            )
            self.check(a, b)

    def test_zero_operand(self):
        rng = random.Random(33)
        for n in (0, 1, 7, 30):
            a = QSeries(n, [F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n + 1)])
            assert self.check(a, QSeries.zero(n)) == QSeries.zero(n)
            assert self.check(QSeries.zero(n), a) == QSeries.zero(n)
            assert self.check(QSeries.zero(n), QSeries.zero(n)) == QSeries.zero(n)

    def test_single_coefficient_at_top(self):
        rng = random.Random(34)
        for n in (0, 1, 5, 30):
            top = QSeries.monomial(F(-5, 3), n, n)
            b = QSeries(n, [F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n + 1)])
            assert self.check(top, b) == QSeries.monomial(F(-5, 3) * b[0], n, n)
            self.check(b, top)
            want = QSeries.monomial(F(25, 9), 0, 0) if n == 0 else QSeries.zero(n)
            assert self.check(top, top) == want

    def test_unequal_truncations(self):
        rng = random.Random(35)
        for _ in range(50):
            n1, n2 = rng.randint(0, 20), rng.randint(0, 20)
            a = QSeries(n1, [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n1 + 1)])
            b = QSeries(n2, [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n2 + 1)])
            assert self.check(a, b).trunc == min(n1, n2)
            self.check(b, a)

    def test_large_coefficients(self):
        from iterqm.quasimodular import eisenstein_qexp

        e4, e6 = eisenstein_qexp(4, 200), eisenstein_qexp(6, 200)
        e4_10, e6_7 = QSeries.constant(1, 200), QSeries.constant(1, 200)
        for _ in range(10):
            e4_10 = schoolbook(e4_10, e4)
        for _ in range(7):
            e6_7 = schoolbook(e6_7, e6)
        assert e4 ** 10 == e4_10
        assert e6 ** 7 == e6_7
        prod = self.check(e4_10, e6_7)
        assert max(abs(c.numerator) for c in prod.coeffs).bit_length() > 300
        self.check(e4_10.scale(F(-1, 691)), e6_7.scale(F(7, 2730)))


class TestSplit:
    def test_eisenstein_like(self):
        f = QSeries(2, [1, -24, -72])
        inf, f0 = split(f)
        assert inf == 1
        assert f0 == QSeries(2, [0, -24, -72])

    def test_zero(self):
        inf, f0 = split(QSeries.zero(3))
        assert inf == 0 and f0.is_zero()

    def test_pure_q(self):
        inf, f0 = split(QSeries(1, [0, 1]))
        assert inf == 0 and f0 == QSeries(1, [0, 1])


class TestDerivation:
    def test_d_of_log(self):
        assert d_op(L(2, coeff=-1)) == LogQSeries.constant(-1, 2)

    def test_d_of_half_log_squared(self):
        assert d_op(L(2, k=2, coeff=F(1, 2))) == L(2)

    def test_product_rule_on_q_log(self):
        qL = LogQSeries(2, {1: QSeries(2, [0, 1])})
        q = LogQSeries.from_qseries(QSeries(2, [0, 1]))
        assert d_op(qL) == qL + q

    def test_trunc_preserved(self):
        assert d_op(L(7)).trunc == 7


class TestPrimitive:
    def test_inverse_of_constant(self):
        assert primitive(LogQSeries.constant(-1, 2)) == L(2, coeff=-1)

    def test_fixed_point_q(self):
        q240 = LogQSeries.from_qseries(QSeries(2, [0, 240]))
        assert primitive(q240) == q240

    def test_q_log_case(self):
        # primitive(240 q L) = q(-240 + 240 L)
        got = primitive(LogQSeries(1, {1: QSeries(1, [0, 240])}))
        want = LogQSeries(1, {0: QSeries(1, [0, -240]), 1: QSeries(1, [0, 240])})
        assert got == want

    def test_d_after_primitive_is_identity(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(0, 10)
            parts = {
                k: QSeries(n, [F(rng.randint(-20, 20)) for _ in range(n + 1)])
                for k in range(rng.randint(0, 3))
            }
            f = LogQSeries(n, parts)
            assert d_op(primitive(f)) == f

    def test_primitive_after_d_fixes_normalized(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(0, 10)
            parts = {
                k: QSeries(n, [F(rng.randint(-20, 20)) for _ in range(n + 1)])
                for k in range(rng.randint(0, 3))
            }
            g = LogQSeries(n, parts)
            # kill the q^0 L^0 coefficient
            g = g - LogQSeries.constant(g.coefficient(0, 0), n)
            assert primitive(d_op(g)) == g

    def test_zero_constant_coefficient(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(0, 8)
            f = LogQSeries(n, {0: QSeries(n, [F(rng.randint(-5, 5)) for _ in range(n + 1)])})
            assert primitive(f).coefficient(0, 0) == 0


class TestEvalNumeric:
    def test_zero(self):
        assert eval_numeric(LogQSeries.zero(5), 1j) == 0

    def test_log_at_i(self):
        assert abs(eval_numeric(L(5), 1j) - (-2 * math.pi)) < 1e-12

    def test_e4_at_i(self):
        # oracle recorded from 50-digit summation, independently equal to
        # 3*Gamma(1/4)^8/(2 pi)^6
        from iterqm.quasimodular import E4, expand

        value = eval_numeric(LogQSeries.from_qseries(expand(E4, 60)), 1j)
        assert abs(value - 1.4557628922687093) < 1e-12
        assert abs(value.imag) < 1e-15

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eval_numeric(LogQSeries.zero(2), 1 - 1j)
        with pytest.raises(ValueError):
            eval_numeric(LogQSeries.zero(2), 0.5)
