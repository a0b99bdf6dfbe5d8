import math
import operator
import random
import re
from collections import defaultdict
from fractions import Fraction as F
from itertools import chain

import pytest

from iterqm.canonicalize import _RANK_PRIME as P
from iterqm.qseries import LogQSeries, _pack, _unpack, d_op, primitive


def L(trunc, k=1, coeff=1):
    return LogQSeries(trunc, {k: [coeff]})


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

    @pytest.mark.parametrize("other", [1, F(1, 2), 0.5, "x", None], ids=repr)
    def test_foreign_operand_raises_type_error(self, other):
        # a sum or difference declines an operand of another class, so the TypeError names its operator;
        # a product with a scalar scales
        s = LogQSeries.constant(1, 3)
        for op, symbol in ((operator.add, "+"), (operator.sub, "-")):
            with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
                op(s, other)
        assert s * 2 == 2 * s == s.scale(2) and s * F(1, 2) == s.scale(F(1, 2))

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

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 40])
    def test_slots_alternate_at_the_bound(self, n):
        # a_i = (-1)^i A and b_j = (-1)^j B in three parts each: the q^m L^2 coefficient is
        # (-1)^m 3(m+1) AB, so the slots alternate in sign and the last is +-bound, the edge
        # of the half-slot bias; the product negated reaches the other sign
        for big_a, big_b in [(1, 1), (2**64 - 1, 3), (10**30 + 7, 10**20 + 9)]:
            a = LogQSeries(n, {k: [(-1) ** i * big_a for i in range(n + 1)] for k in range(3)})
            b = LogQSeries(n, {k: [(-1) ** j * big_b for j in range(n + 1)] for k in range(3)})
            for x, y in [(a, b), (a, -b), (-a, -b)]:
                got = self.check(x, y)
                sign = 1 if (x.coefficient(0, 0) > 0) == (y.coefficient(0, 0) > 0) else -1
                assert [got.coefficient(m, 2) for m in range(n + 1)] == [
                    sign * (-1) ** m * 3 * (m + 1) * big_a * big_b for m in range(n + 1)]

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


class TestPack:
    @staticmethod
    def joined(residues, size):
        """The packing by one int.to_bytes per residue."""
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in residues), "little")

    @pytest.mark.parametrize("size", range(4, 17))
    def test_one_struct_call_equals_the_joined_bytes(self, size):
        rng = random.Random(size)
        for n in (0, 1, 2, 25, 48):
            residues = [rng.choice((0, 1, 2**32 - 1, rng.randrange(2**32))) for _ in range(n)]
            assert _pack(residues, size, 2**32) == self.joined(residues, size)
            assert _pack(tuple(residues), size, 2**32) == self.joined(residues, size)

    @pytest.mark.parametrize("modulus, sizes", [(7, range(1, 5)), (2**61 - 1, range(8, 17))])
    def test_small_slots_and_large_moduli_are_packed_too(self, modulus, sizes):
        # slots below 4 bytes and residues of 2^32 or more do not fit a uint32 slot
        rng = random.Random(modulus)
        for size in sizes:
            residues = [rng.choice((0, 1, modulus - 1, rng.randrange(modulus))) for _ in range(25)]
            assert _pack(residues, size, modulus) == self.joined(residues, size)

    @pytest.mark.parametrize("size", range(1, 18))
    def test_unpack_reads_back_what_pack_wrote(self, size):
        # the struct read (9, 10, 12 and 16 bytes) and the int.from_bytes read (any other width)
        rng = random.Random(100 + size)
        for modulus in (7, 2**30 - 35, 2**32, 2**61 - 1):
            if (modulus - 1).bit_length() > 8 * size:
                continue  # m - 1 does not fit the slot
            for count in (0, 1, 2, 25, 301):
                residues = ([0, 1, modulus - 1] + [rng.randrange(modulus) for _ in range(count)])[:count]
                assert _unpack(_pack(residues, size, modulus), size, count, modulus) == residues

    @pytest.mark.parametrize("size", range(1, 18))
    def test_unpack_reduces_each_slot(self, size):
        # slots above the modulus, up to the slot's largest value, come back reduced
        rng = random.Random(200 + size)
        top = (1 << 8 * size) - 1
        for modulus in (7, 2**30 - 35, 2**32, 2**61 - 1):
            for count in (1, 2, 25, 301):
                slots = [rng.choice((top, top - 1, modulus, rng.randrange(top + 1))) % (top + 1) for _ in range(count)]
                assert _unpack(self.joined(slots, size), size, count, modulus) == [x % modulus for x in slots]


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


def is_normalized(s: LogQSeries) -> bool:
    """No zero part, and over Q a positive den coprime to the numerators; mod p den 1 and residues in [0, p)."""
    nums = list(chain.from_iterable(s.parts.values()))
    if s.modulus:
        return s.den == 1 and all(0 <= x < s.modulus for x in nums) and all(map(any, s.parts.values()))
    return s.den > 0 and math.gcd(s.den, *nums) == 1 and all(map(any, s.parts.values()))


def reference_primitive(f: LogQSeries) -> LogQSeries:
    """The primitive over Q solved a q-column at a time: each column's highest
    nonzero L-power found by one ``max`` over the parts, S the lcm of k + 1 for
    each nonzero q^0 L^k and of m^(j+1) for a column m topped at L^j, then the
    column solved top-down in integers for den * S * a.  For tests only."""
    n, parts = f.trunc, f.parts
    highest = {m: max((k for k, p in parts.items() if p[m]), default=-1) for m in range(1, n + 1)}
    scale = math.lcm(*(k + 1 for k, p in parts.items() if p[0]),
                     *(m ** (j + 1) for m, j in highest.items() if j >= 0))
    out: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (n + 1))
    for k, p in parts.items():
        out[k + 1][0] = scale * p[0] // (k + 1)
    for m, j in highest.items():
        above = 0
        for k in range(j, -1, -1):
            p = parts.get(k)
            above = out[k][m] = ((scale * p[m] if p else 0) - (k + 1) * above) // m
    return LogQSeries._of(n, f.den * scale, {k: tuple(p) for k, p in out.items()})


def stepped_series(rng: random.Random, n: int, depth: int) -> LogQSeries:
    """A series whose q^m column is topped by a nonzero coefficient at its own
    random L-power (or is zero), with large rational coefficients below it."""
    parts = {k: [F(0)] * (n + 1) for k in range(depth + 1)}
    for m in range(n + 1):
        top = rng.randint(-1, depth)
        for k in range(top + 1):
            num = rng.randint(-10**15, 10**15) if k < top else rng.choice((-1, 1)) * rng.randint(1, 10**15)
            parts[k][m] = F(num, rng.choice((1, 2, 3, 4, 9, 25, 49, 720, 2**40)))
    return LogQSeries(n, parts)


class TestShortcuts:
    """Negation builds its result without normalizing it again, and the
    primitive over Q finds each column's highest L-power a part at a time."""

    def test_negation_is_scaling_by_minus_one(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(0, 12)
            s = stepped_series(rng, n, rng.randint(0, 4))
            for t in [s, s.modulo(P)] + ([s.modulo(7)] if s.den % 7 else []):
                neg = -t
                assert neg == t.scale(-1) and is_normalized(neg) and neg.modulus == t.modulus
                assert -neg == t and (t + neg).is_zero()
        assert -LogQSeries.zero(3) == LogQSeries.zero(3) and is_normalized(-LogQSeries.zero(3, P))

    def test_primitive_against_the_column_rule(self):
        rng = random.Random(63)
        for _ in range(80):
            n, depth = rng.randint(0, 16), rng.randint(0, 4)
            f = stepped_series(rng, n, depth)
            got = primitive(f)
            assert got == reference_primitive(f) and is_normalized(got)
            assert d_op(got) == f


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


class TestResidues:
    """A series with a prime modulus is the image of the exact series over Z/p."""

    def random_series(self, rng, n):
        return LogQSeries(n, {k: [F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)) for _ in range(n + 1)]
                              for k in rng.sample(range(4), rng.randint(0, 3))})

    def test_reduction_is_a_ring_homomorphism(self):
        # the product, negation and primitive mod p store their residues unchecked: each must be normalized;
        # mod 2^61 - 1 a product's slots have 16 bytes while its pairs of parts times n + 1 are at most 16, else 17
        rng = random.Random(51)
        for p in (P, 2**61 - 1):
            for _ in range(100):
                n = rng.randint(0, 10)
                a, b = self.random_series(rng, n), self.random_series(rng, rng.randint(0, 10))
                ap, bp = a.modulo(p), b.modulo(p)
                assert ap.den == 1 and all(0 <= x < p for part in ap.parts.values() for x in part)
                c = a.coefficient(n, 0)
                assert ap.coefficient(n, 0) == c.numerator * pow(c.denominator, -1, p) % p
                assert (a * b).modulo(p) == ap * bp == schoolbook(a, b).modulo(p)
                assert (a + b).modulo(p) == ap + bp and (a - b).modulo(p) == ap - bp
                assert (-a).modulo(p) == -ap and primitive(a).modulo(p) == primitive(ap)
                assert all(map(is_normalized, (ap * bp, bp * ap, -ap, primitive(ap), primitive(-bp))))
                assert d_op(a).modulo(p) == d_op(ap)
                assert a.scale(F(-3, 7)).modulo(p) == ap.scale(F(-3, 7)) == ap * F(-3, 7)

    @pytest.mark.parametrize("n", [20, 30, 40, 100, 300])
    def test_agreement_at_certify_sizes(self, n):
        # residues sit near p for the prime just above the truncation (41 at N = 40); a product's slots
        # have 9 or 10 bytes mod P, 11 or 12 mod 2^40 - 87 and 17 mod 2^61 - 1, and a prime beyond 2^32
        # has its residues packed whole; every result mod p must be normalized
        rng = random.Random(n)
        for p in (P, next(q for q in range(n + 1, 2 * n + 2) if all(q % d for d in range(2, q))), 2**40 - 87,
                  2**61 - 1):
            for _ in range(4):
                a, b = (LogQSeries(n, {k: [F(rng.randint(-10**6, 10**6), rng.choice([1, 2, 3, 7, 9, 11, 13]))
                                           for _ in range(n + 1)] for k in rng.sample(range(5), rng.randint(1, 5))})
                        for _ in range(2))
                ap, bp = a.modulo(p), b.modulo(p)
                assert a.log_degree() <= 4
                for got, want in ((ap * bp, (a * b).modulo(p)), (-bp, (-b).modulo(p)),
                                  (primitive(ap), primitive(a).modulo(p)), (primitive(bp), primitive(b).modulo(p))):
                    assert got == want and is_normalized(got)

    def test_parts_that_vanish_mod_p_are_dropped(self):
        # (1 + q^2 L) * (c + d q^2 L) = c + (c + d) q^2 L + O(q^4): with c + d = p the L-part vanishes mod p
        # but not over Q, in a slot read whole (mod 7) or by struct (mod P)
        for p in (7, P):
            a, b = LogQSeries(3, {0: [1], 1: [0, 0, 1]}), LogQSeries(3, {0: [p - 1], 1: [0, 0, 1]})
            assert (a * b).parts.keys() == {0, 1}
            for prod in (a.modulo(p) * b.modulo(p), b.modulo(p) * a.modulo(p)):
                assert prod == (a * b).modulo(p) == LogQSeries.constant(p - 1, 3, p) and is_normalized(prod)
        # D(q L^2 + 7 q L - 7 q) = q L^2 + 9 q L: mod 7 the primitive's L and L^0 parts vanish
        f = LogQSeries(1, {2: [0, 1], 1: [0, 9]})
        assert primitive(f) == LogQSeries(1, {2: [0, 1], 1: [0, 7], 0: [0, -7]})
        assert primitive(f.modulo(7)) == LogQSeries(1, {2: [0, 1]}).modulo(7) and is_normalized(primitive(f.modulo(7)))
        # q^0 coefficient 7: the L-part 7 L of the primitive vanishes mod 7
        g = primitive(LogQSeries(2, {0: [7, 1, 2]}).modulo(7))
        assert g == LogQSeries(2, {0: [0, 1, 1]}).modulo(7) and g.parts.keys() == {0} and is_normalized(g)

    def test_primitive_by_a_multiple_of_p_raises(self):
        # the division by 7 occurs: 7 has no inverse mod 7, so primitive raises
        q7 = [0] * 7 + [3]
        with pytest.raises(ZeroDivisionError):
            primitive(LogQSeries(10, {0: q7}).modulo(7))
        with pytest.raises(ZeroDivisionError):
            primitive(LogQSeries(10, {1: [0, 1], 2: q7}).modulo(7))
        with pytest.raises(ZeroDivisionError):
            primitive(LogQSeries(10, {6: [2]}).modulo(7))  # q^0 L^6 integrates to q^0 L^7 / 7
        # no division by 7 occurs: q^8 is divided by 8 = 1 mod 7
        f = LogQSeries(10, {0: [0, 1] + [0] * 6 + [5], 5: [1, 0, 2]})
        assert primitive(f.modulo(7)) == primitive(f).modulo(7)

    def test_constructors(self):
        assert LogQSeries(2, {0: [F(1, 2), 3], 1: [P]}).modulo(P) == LogQSeries(2, {0: [F(1, 2), 3]}).modulo(P)
        assert LogQSeries.constant(-1, 1, P).parts == {0: (P - 1, 0)}
        assert LogQSeries.zero(3, P).is_zero() and LogQSeries.zero(3, P).modulus == P
        assert LogQSeries(2, {0: [F(P, 3)]}).modulo(P).is_zero()

    def test_denominator_divisible_by_p(self):
        with pytest.raises(ZeroDivisionError):
            LogQSeries(2, {0: [F(1, P)]}).modulo(P)
        with pytest.raises(ZeroDivisionError):
            LogQSeries.constant(F(2, 3 * P), 2, P)
        with pytest.raises(ZeroDivisionError):
            LogQSeries.constant(1, 2, P).scale(F(1, 2 * P))

    def test_rings_do_not_mix(self):
        a, b = LogQSeries.constant(1, 3), LogQSeries.constant(1, 3, P)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)
        with pytest.raises(ValueError):
            b.modulo(7)
        assert b.modulo(P) is b and a.modulo(0) is a
        assert a != b

    def test_repr(self):
        assert repr(LogQSeries.constant(-1, 1, P)) == f"LogQSeries({P - 1}*q^0 + O(q^2) mod {P})"
