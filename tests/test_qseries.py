import math
import random
from fractions import Fraction as F

import pytest

from iterqm.qseries import LogQSeries, d_op, eval_numeric, primitive


def L(trunc, k=1, coeff=1):
    return LogQSeries.log_power(k, trunc, coeff)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert LogQSeries(2, {0: [1, 1]}) * LogQSeries(2, {0: [1, -1]}) == LogQSeries(2, {0: [1, 0, -1]})

    def test_log_squares(self):
        assert L(3) * L(3) == L(3, k=2)

    def test_mixed_product(self):
        # (-L) * (-L - 240q) = L^2 + 240 q L
        a = L(1, coeff=-1)
        b = L(1, coeff=-1) + LogQSeries(1, {0: [0, -240]})
        want = LogQSeries(1, {2: [1], 1: [0, 240]})
        assert a * b == want

    def test_min_truncation_rule(self):
        a = LogQSeries(5, {0: [1, 1, 1, 1, 1, 1]})
        b = LogQSeries(2, {0: [1, 2, 3]})
        assert (a + b).trunc == 2
        assert (a * b).trunc == 2

    def test_scale(self):
        s = LogQSeries(2, {0: [1, 2, 3]})
        assert s.scale(F(1, 2)) == LogQSeries(2, {0: [F(1, 2), 1, F(3, 2)]})
        assert s.scale(0).is_zero()

    def test_zero_parts_dropped(self):
        s = LogQSeries(2, {0: [1], 3: []})
        assert set(s.parts) == {0}

    def test_mul_commutative_associative_random(self):
        rng = random.Random(11)

        def rand_series(n):
            parts = {}
            for k in range(rng.randint(0, 2)):
                parts[k] = [F(rng.randint(-9, 9)) for _ in range(n + 1)]
            return LogQSeries(n, parts)

        for _ in range(20):
            n = rng.randint(1, 12)
            a, b, c = rand_series(n), rand_series(n), rand_series(n)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestRepresentation:
    """Integer numerators over one reduced denominator: equality is structural."""

    def test_common_denominator(self):
        s = LogQSeries(2, {0: [F(1, 2), F(1, 3)], 1: [0, F(5, 6)]})
        assert (s.den, s.parts) == (6, {0: (3, 2, 0), 1: (0, 5, 0)})
        assert LogQSeries.zero(4).den == 1 and LogQSeries.zero(4).parts == {}

    def test_results_are_reduced(self):
        half = LogQSeries.constant(F(1, 2), 2)
        assert (half + half).den == 1 and half + half == LogQSeries.constant(1, 2)
        assert half * LogQSeries.constant(2, 2) == LogQSeries.constant(1, 2)
        assert half.scale(F(4, 3)) == LogQSeries.constant(F(2, 3), 2)
        s = LogQSeries(3, {0: [0, F(1, 2), 0, F(1, 3)]})
        assert d_op(s) == LogQSeries(3, {0: [0, F(1, 2), 0, 1]})
        assert (d_op(s).den, d_op(s).parts) == (2, {0: (0, 1, 0, 2)})
        assert (half - half).den == 1 and (half - half).is_zero()

    def test_sum_rescales_to_the_lcm(self):
        a = LogQSeries(1, {0: [F(1, 4), F(1, 6)]})
        b = LogQSeries(1, {0: [F(1, 6), F(-1, 6)], 2: [F(1, 10)]})
        s = a + b
        assert (s.den, s.parts) == (60, {0: (25, 0), 2: (6, 0)})
        assert s.coefficient(0, 0) == F(5, 12) and s.coefficient(1, 0) == 0

    def test_coefficient_is_a_reduced_fraction(self):
        s = LogQSeries(1, {1: [F(2, 4), 3]})
        got = [s.coefficient(0, 1), s.coefficient(1, 1), s.coefficient(0, 0), s.coefficient(1, 7)]
        assert got == [F(1, 2), 3, 0, 0]
        assert [type(c) for c in got] == [F] * 4
        assert [c.denominator for c in got] == [2, 1, 1, 1]

    def test_truncate_renormalizes(self):
        s = LogQSeries(2, {0: [1, 0, F(1, 2)], 1: [0, 0, 7]})
        assert s.truncate(1) == LogQSeries.constant(1, 1)
        assert (s.truncate(1).den, s.truncate(1).parts) == (1, {0: (1, 0)})
        with pytest.raises(ValueError):
            s.truncate(3)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            LogQSeries(-1, {})
        with pytest.raises(ValueError):
            LogQSeries(1, {0: [1, 2, 3]})
        with pytest.raises(ValueError):
            LogQSeries(1, {-1: [1]})
        with pytest.raises(TypeError):
            LogQSeries(1, {0: [0.5]})

    def test_repr(self):
        s = LogQSeries(2, {0: [0, F(1, 2)], 1: [-1]})
        assert repr(s) == "LogQSeries(1/2*q^1 + -1*q^0*L^1 + O(q^3))"
        assert repr(LogQSeries.zero(2)) == "LogQSeries(0 + O(q^3))"


def q_expansion(n, coeffs):
    return LogQSeries(n, {0: coeffs})


def schoolbook(a: LogQSeries, b: LogQSeries) -> LogQSeries:
    """Reference product: the plain Fraction convolution of all q^m L^k
    coefficients, truncated."""
    n = min(a.trunc, b.trunc)
    ca = {k: [a.coefficient(m, k) for m in range(n + 1)] for k in a.parts}
    cb = {k: [b.coefficient(m, k) for m in range(n + 1)] for k in b.parts}
    out: dict[int, list[F]] = {}
    for k1, xs in ca.items():
        for k2, ys in cb.items():
            acc = out.setdefault(k1 + k2, [F(0)] * (n + 1))
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    acc[i + j] += xs[i] * ys[j]
    return LogQSeries(n, out)


class TestIntegerProduct:
    """LogQSeries.__mul__ packs integers into one big int; check it against schoolbook."""

    def check(self, a, b):
        got = a * b
        assert got == schoolbook(a, b)
        assert all(type(got.coefficient(m, 0)) is F for m in range(got.trunc + 1))
        return got

    def test_signed_rationals_unrelated_denominators(self):
        rng = random.Random(31)
        dens = [1, 2, 3, 7, 11, 13, 97, 101, 2**31 - 1, 10**12 + 39]
        for _ in range(200):
            n = rng.randint(0, 15)
            a, b = (
                q_expansion(n, [F(rng.randint(-10**6, 10**6), rng.choice(dens)) for _ in range(n + 1)])
                for _ in range(2)
            )
            self.check(a, b)

    def test_sparse_random(self):
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randint(0, 12)
            a, b = (
                q_expansion(n, [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.3 else 0
                                for _ in range(n + 1)])
                for _ in range(2)
            )
            self.check(a, b)

    def test_zero_operand(self):
        rng = random.Random(33)
        for n in (0, 1, 7, 30):
            a = q_expansion(n, [F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n + 1)])
            assert self.check(a, LogQSeries.zero(n)) == LogQSeries.zero(n)
            assert self.check(LogQSeries.zero(n), a) == LogQSeries.zero(n)
            assert self.check(LogQSeries.zero(n), LogQSeries.zero(n)) == LogQSeries.zero(n)

    def test_single_coefficient_at_top(self):
        rng = random.Random(34)
        for n in (0, 1, 5, 30):
            top = q_expansion(n, [0] * n + [F(-5, 3)])
            b = q_expansion(n, [F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n + 1)])
            assert self.check(top, b) == q_expansion(n, [0] * n + [F(-5, 3) * b.coefficient(0, 0)])
            self.check(b, top)
            want = q_expansion(0, [F(25, 9)]) if n == 0 else LogQSeries.zero(n)
            assert self.check(top, top) == want

    def test_unequal_truncations(self):
        rng = random.Random(35)
        for _ in range(50):
            n1, n2 = rng.randint(0, 20), rng.randint(0, 20)
            a = q_expansion(n1, [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n1 + 1)])
            b = q_expansion(n2, [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n2 + 1)])
            assert self.check(a, b).trunc == min(n1, n2)
            self.check(b, a)

    def test_log_parts(self):
        rng = random.Random(36)
        for _ in range(50):
            n = rng.randint(0, 10)
            a, b = (
                LogQSeries(n, {k: [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n + 1)]
                               for k in rng.sample(range(4), rng.randint(1, 3))})
                for _ in range(2)
            )
            self.check(a, b)

    def test_extreme_log_parts(self):
        # Three pairs of parts meet at L^2, each at its largest coefficient.
        for n in (0, 3, 9):
            for big in (1, 2**64 - 1):
                a = LogQSeries(n, {k: [big] * (n + 1) for k in range(3)})
                b = LogQSeries(n, {k: [-big] * (n + 1) for k in range(3)})
                got = self.check(a, b)
                assert got.coefficient(n, 2) == -3 * (n + 1) * big**2
                self.check(a, a)

    def test_large_coefficients(self):
        from iterqm.quasimodular import eisenstein_qexp

        e4, e6 = eisenstein_qexp(4, 200), eisenstein_qexp(6, 200)
        e4_10, e6_7 = LogQSeries.constant(1, 200), LogQSeries.constant(1, 200)
        for _ in range(10):
            e4_10 = schoolbook(e4_10, e4)
        for _ in range(7):
            e6_7 = schoolbook(e6_7, e6)
        power = LogQSeries.constant(1, 200)
        for _ in range(10):
            power = power * e4
        assert power == e4_10
        power = LogQSeries.constant(1, 200)
        for _ in range(7):
            power = power * e6
        assert power == e6_7
        prod = self.check(e4_10, e6_7)
        assert max(abs(prod.coefficient(m, 0).numerator) for m in range(201)).bit_length() > 300
        self.check(e4_10.scale(F(-1, 691)), e6_7.scale(F(7, 2730)))


class TestDerivation:
    def test_d_of_log(self):
        assert d_op(L(2, coeff=-1)) == LogQSeries.constant(-1, 2)

    def test_d_of_half_log_squared(self):
        assert d_op(L(2, k=2, coeff=F(1, 2))) == L(2)

    def test_product_rule_on_q_log(self):
        qL = LogQSeries(2, {1: [0, 1]})
        q = LogQSeries(2, {0: [0, 1]})
        assert d_op(qL) == qL + q

    def test_trunc_preserved(self):
        assert d_op(L(7)).trunc == 7


class TestPrimitive:
    def test_inverse_of_constant(self):
        assert primitive(LogQSeries.constant(-1, 2)) == L(2, coeff=-1)

    def test_fixed_point_q(self):
        q240 = LogQSeries(2, {0: [0, 240]})
        assert primitive(q240) == q240

    def test_q_log_case(self):
        # primitive(240 q L) = q(-240 + 240 L)
        got = primitive(LogQSeries(1, {1: [0, 240]}))
        want = LogQSeries(1, {0: [0, -240], 1: [0, 240]})
        assert got == want

    def test_d_after_primitive_is_identity(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(0, 10)
            parts = {
                k: [F(rng.randint(-20, 20)) for _ in range(n + 1)]
                for k in range(rng.randint(0, 3))
            }
            f = LogQSeries(n, parts)
            assert d_op(primitive(f)) == f

    def test_primitive_after_d_fixes_normalized(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(0, 10)
            parts = {
                k: [F(rng.randint(-20, 20)) for _ in range(n + 1)]
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
            f = LogQSeries(n, {0: [F(rng.randint(-5, 5)) for _ in range(n + 1)]})
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

        value = eval_numeric(expand(E4, 60), 1j)
        assert abs(value - 1.4557628922687093) < 1e-12
        assert abs(value.imag) < 1e-15

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eval_numeric(LogQSeries.zero(2), 1 - 1j)
        with pytest.raises(ValueError):
            eval_numeric(LogQSeries.zero(2), 0.5)
