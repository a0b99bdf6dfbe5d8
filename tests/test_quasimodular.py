import copy
import pickle
import random
from fractions import Fraction as F

import mpmath
import pytest

from conftest import monomials_of_weight, random_homogeneous, random_qmpoly
from test_qseries import schoolbook
from iterqm.canonicalize import canonical_form
from iterqm.iterint import IntegralPoly
from iterqm.qseries import LogQSeries, d_op
from iterqm.quasimodular import (
    DELTA,
    E2,
    E4,
    E6,
    ONE,
    ZERO,
    QMPoly,
    _MONOMIAL_CACHE_SIZE,
    _gen_power,
    basis_b,
    bernoulli,
    decompose,
    derivative_decomposition,
    derive,
    eisenstein_qexp,
    expand,
    is_basis_letter,
    transform_coeffs,
)
from iterqm.shuffle_lyndon import shuffle


@pytest.mark.parametrize(
    "n,value",
    [(0, F(1)), (1, F(-1, 2)), (2, F(1, 6)), (4, F(-1, 30)), (6, F(1, 42)),
     (8, F(-1, 30)), (12, F(-691, 2730))],
)
def test_bernoulli(n, value):
    assert bernoulli(n) == value


def test_bernoulli_matches_mpmath():
    assert [bernoulli(n) for n in range(61)] == [F(*mpmath.bernfrac(n)) for n in range(61)]


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))


class TestEisenstein:
    def test_weight2(self):
        assert eisenstein_qexp(2, 3) == LogQSeries(3, {0: [1, -24, -72, -96]})

    def test_weight4(self):
        assert eisenstein_qexp(4, 2) == LogQSeries(2, {0: [1, 240, 2160]})

    def test_weight6(self):
        assert eisenstein_qexp(6, 2) == LogQSeries(2, {0: [1, -504, -16632]})

    def test_rejects_bad_weight(self):
        for w in (0, -2, 3, 5):
            with pytest.raises(ValueError):
                eisenstein_qexp(w, 5)


def _generator_power(which: int, exponent: int, trunc: int, modulus: int) -> LogQSeries:
    """A generator's q-expansion to the given power, by repeated products."""
    power = LogQSeries.constant(1, trunc, modulus)
    for _ in range(exponent):
        power = power * eisenstein_qexp(which, trunc).modulo(modulus)
    return power


def reference_expand(p: QMPoly, trunc: int, modulus: int = 0) -> LogQSeries:
    """expand() as one product of generator powers per monomial, scaled and summed."""
    total = None
    for exponents, num in p.nums.items():
        mono = None
        for which, e in zip((2, 4, 6), exponents):
            if e:
                power = _generator_power(which, e, trunc, modulus)
                mono = power if mono is None else mono * power
        if mono is None:
            mono = LogQSeries.constant(num, trunc, modulus)
        elif num != 1:
            mono = mono.scale(num)
        total = mono if total is None else total + mono
    if total is None:
        return LogQSeries.zero(trunc, modulus)
    return total if p.den == 1 else total.scale(F(1, p.den))


class TestExpand:
    def test_discriminant_product_formula(self):
        # oracle: Delta = q * prod (1-q^n)^24
        n = 60
        prod = LogQSeries.constant(1, n)
        for m in range(1, n + 1):
            prod = prod * LogQSeries(n, {0: [1] + [0] * (m - 1) + [-1]})
        oracle = LogQSeries(n, {0: [0, 1]})
        for _ in range(24):
            oracle = oracle * prod
        assert expand(DELTA, n) == oracle

    def test_constant(self):
        assert expand(ONE, 5) == LogQSeries.constant(1, 5)

    def test_e2(self):
        assert expand(E2, 1) == LogQSeries(1, {0: [1, -24]})

    def test_monomials_scale_cached_generator_powers(self, monkeypatch):
        n = 30
        scaled_cube, triple = QMPoly({(0, 3, 0): F(-5, 7)}), E2 * E4 * E6
        expand(scaled_cube, n), expand(triple, n)  # fills the monomial table
        products = []
        mul = LogQSeries.__mul__

        def counting(a, b):
            products.append(b)
            return mul(a, b)

        monkeypatch.setattr(LogQSeries, "__mul__", counting)
        got_cube = expand(scaled_cube, n)
        got_triple = expand(triple, n)
        assert products == []  # a warm expand is a dot product, no series product
        monkeypatch.undo()
        assert got_triple is _gen_power((1, 1, 1), n, 0)  # a monic monomial is the cached series
        e2, e4, e6 = (eisenstein_qexp(w, n) for w in (2, 4, 6))
        assert got_cube == schoolbook(schoolbook(e4, e4), e4).scale(F(-5, 7))
        assert got_triple == schoolbook(schoolbook(e2, e4), e6)

    def test_monomial_table_is_bounded(self):
        assert _gen_power.cache_info().maxsize == _MONOMIAL_CACHE_SIZE

    @pytest.mark.parametrize("p", [ZERO, ONE, E4, QMPoly.constant(F(1, 7)), E4 * F(1, 7) + E6])
    def test_negative_truncation_is_an_error(self, p):
        for modulus in (0, 7):
            with pytest.raises(ValueError):
                expand(p, -1, modulus)

    def test_matches_the_per_monomial_reference(self):
        """Equal series, or ZeroDivisionError on both sides where the modulus divides the denominator."""
        rng = random.Random(24)
        fixed = [ZERO, E4 * 7, QMPoly.constant(F(1, 7)), E4 * F(1, 7) + E6, E2 * F(3, 14)]
        for p in fixed + [random_qmpoly(rng, 12) * F(1, rng.choice([1, 2, 7, 2**30 - 35])) for _ in range(30)]:
            for modulus in (0, 7, 2**30 - 35):
                n = rng.randint(0, 20)
                try:
                    want = reference_expand(p, n, modulus)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        expand(p, n, modulus)
                else:
                    assert expand(p, n, modulus) == want

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(8):
            p = random_homogeneous(rng, 2 * rng.randint(0, 5))
            r = random_homogeneous(rng, 2 * rng.randint(0, 5))
            assert expand(p * r, 40) == expand(p, 40) * expand(r, 40)


class TestDerive:
    def test_generator_rules_against_expansion_oracle(self):
        # the Ramanujan images are imported knowledge; this is their
        # required validation: expand(derive(p)) == d_op(expand(p))
        for p in (E2, E4, E6):
            assert expand(derive(p), 100) == d_op(expand(p, 100))

    def test_derive_e2_closed_form(self):
        assert derive(E2) == (E2 * E2 - E4) * F(1, 12)

    def test_derive_constant(self):
        assert derive(ONE).is_zero()

    def test_derive_delta(self):
        assert derive(DELTA) == E2 * DELTA

    def test_leibniz_random(self):
        rng = random.Random(9)
        for _ in range(10):
            p = random_homogeneous(rng, 2 * rng.randint(0, 6))
            r = random_homogeneous(rng, 2 * rng.randint(0, 6))
            assert derive(p * r) == derive(p) * r + p * derive(r)

    def test_weight_raised_by_two(self):
        rng = random.Random(10)
        for _ in range(10):
            p = random_homogeneous(rng, 2 * rng.randint(1, 8))
            d = derive(p)
            if not d.is_zero():
                assert d.weight() == p.weight() + 2

    def test_deeply_nested_derivative(self):
        p, series = E4, expand(E4, 3)
        for _ in range(40):
            p, series = derive(p), d_op(series)
        assert expand(p, 3) == series


class TestTransform:
    def test_e2(self):
        assert transform_coeffs(E2) == [E2, QMPoly.constant(12)]

    def test_modular_is_depth_zero(self):
        assert transform_coeffs(E4) == [E4]

    def test_e2_squared(self):
        assert transform_coeffs(E2**2) == [E2**2, 24 * E2, QMPoly.constant(144)]

    def test_first_coefficient_is_the_form(self):
        rng = random.Random(12)
        for _ in range(10):
            p = random_homogeneous(rng, 2 * rng.randint(0, 7))
            coeffs = transform_coeffs(p)
            assert coeffs[0] == p
            assert len(coeffs) == p.depth() + 1

    def test_rejects_mixed_weight(self):
        with pytest.raises(ValueError):
            transform_coeffs(E2 + E4)

    def test_derivative_transformation_identity(self):
        # componentwise: (Df)_r = D(f_r) + (k - r + 1) f_{r-1}
        rng = random.Random(13)
        for _ in range(30):
            k = 2 * rng.randint(1, 8)
            p = random_homogeneous(rng, k)
            f = transform_coeffs(p)
            df = transform_coeffs(derive(p))
            top = max(len(df), len(f) + 1)
            for r in range(top):
                lhs = df[r] if r < len(df) else QMPoly()
                fr = f[r] if r < len(f) else QMPoly()
                fr1 = f[r - 1] if 0 <= r - 1 < len(f) else QMPoly()
                assert lhs == derive(fr) + (k - r + 1) * fr1


def test_power_of_delta_eigenproperty():
    # D(Delta^a) = a * E2 * Delta^a for a = 0..3
    for a in range(4):
        assert derive(DELTA**a) == a * E2 * DELTA**a


class TestDecompose:
    def test_e2(self):
        assert decompose(E2) == (1, QMPoly(), QMPoly())

    def test_e2_squared(self):
        assert decompose(E2**2) == (0, E4, 12 * E2)

    def test_modular_passthrough(self):
        assert decompose(E4) == (0, E4, QMPoly())

    def test_weight_zero(self):
        assert decompose(QMPoly.constant(5)) == (0, QMPoly.constant(5), QMPoly())

    def test_roundtrip_random(self):
        rng = random.Random(14)
        for _ in range(200):
            k = 2 * rng.randint(0, 10)
            p = random_homogeneous(rng, k)
            c, m, h = decompose(p)
            assert c * E2 + m + derive(h) == p
            assert m.is_modular()
            if not h.is_zero():
                assert h.weight() == k - 2
            if k != 2:
                assert c == 0

    def test_rejects_mixed_weight(self):
        with pytest.raises(ValueError):
            decompose(ONE + E2)


class TestTrustedArithmetic:
    """Ring operations build their results without re-validation; each must
    equal what the validating constructor makes of the same terms."""

    @staticmethod
    def assert_valid(p: QMPoly):
        again = QMPoly(dict(p.terms))
        assert p == again and hash(p) == hash(again)
        # hash and == treat F(3) and 3 alike, so check the stored types too
        assert all(type(v) is F and v != 0 for v in p.terms.values())

    def test_random_operations(self):
        rng = random.Random(43)
        for _ in range(60):
            p, q = random_qmpoly(rng, 10), random_qmpoly(rng, 10)
            for r in (p + q, p - q, -p, p * q, q * p, p - p):
                self.assert_valid(r)
            for c in (3, -1, F(-5, 7), F(4, 2), 0):
                self.assert_valid(p * c)
                self.assert_valid(c * p)
                assert p * c == p * QMPoly.constant(c)
            self.assert_valid(p * q + q * p * -1)

    def test_scalar_that_cancels(self):
        p = 3 * E4 + F(1, 2) * E2 * E2
        assert (p + p * -1).terms == {}
        assert (p * 0).terms == {} and (0 * p).terms == {}
        assert (p * F(2, 3)).terms == {(0, 1, 0): F(2), (2, 0, 0): F(1, 3)}

    def test_difference_of_equals_is_empty(self):
        assert (E4 - E4).terms == {}
        assert decompose(E4)[2].terms == {}


class TestValueSemantics:
    def test_pickle_and_deepcopy_preserve_equality_and_hash(self):
        p = F(3, 4) * E2 * E4 - 5 * E6
        combo = IntegralPoly.linear({(E4, p): E2, (E6 * E6, E2): F(1, 3)})
        cf = canonical_form(combo)
        for x in (p, QMPoly(), combo, cf.poly, cf, combo.expansion(4)):
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert type(y) is type(x) and y == x
        for y in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert (y.nums, y.den, hash(y)) == (p.nums, p.den, hash(p))

    @pytest.mark.parametrize("value", [0.1, 0.5, "1/3", 1 + 0j])
    def test_coefficients_must_be_exact_rationals(self, value):
        for make in (
            lambda: QMPoly({(0, 0, 0): value}),
            lambda: QMPoly([((1, 0, 0), value)]),
            lambda: QMPoly.constant(value),
            lambda: IntegralPoly.linear({(E4,): value}),
        ):
            with pytest.raises(TypeError, match="exact rational"):
                make()

    def test_never_equal_to_a_scalar(self):
        two = QMPoly.constant(2)
        assert two == QMPoly.constant(F(4, 2)) and two != 2 and two != F(2)
        assert len({two, 2}) == 2
        # so a bar word of constant letters and a word of letter indices
        # stay apart in the shuffle cache the two kinds of word share
        shuffle((ONE,), (ONE,))
        assert all(type(l) is int for w in shuffle((1,), (1,)) for l in w)



def reference_decompose(p: QMPoly):
    """The split p = m + derive(h) by a fresh Gaussian elimination per call."""
    k = p.weight()
    target = monomials_of_weight(k)
    modular = [mono for mono in target if mono[0] == 0]
    lower = monomials_of_weight(k - 2)
    columns = [QMPoly({mono: 1}) for mono in modular]
    columns += [derive(QMPoly({mono: 1})) for mono in lower]
    n = len(target)
    aug = [[col.terms.get(mono, F(0)) for col in columns] + [p.terms.get(mono, F(0))]
           for mono in target]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    sol = [aug[r][n] for r in range(n)]
    m = QMPoly({mono: sol[i] for i, mono in enumerate(modular)})
    h = QMPoly({mono: sol[len(modular) + i] for i, mono in enumerate(lower)})
    return F(0), m, h


class TestDecomposeEveryWeight:
    @pytest.mark.parametrize("k", range(4, 42, 2))
    def test_random_forms(self, k):
        rng = random.Random(1000 + k)
        for _ in range(3):
            p = random_homogeneous(rng, k)
            c, m, h = decompose(p)
            assert c * E2 + m + derive(h) == p
            assert c == 0
            assert m.is_modular()
            assert h.is_zero() or h.weight() == k - 2
            assert (c, m, h) == reference_decompose(p)

    @pytest.mark.parametrize("k", range(4, 18, 2))
    def test_every_monomial(self, k):
        for mono in monomials_of_weight(k):
            unit = QMPoly({mono: 1})
            assert decompose(unit) == reference_decompose(unit)

    def test_inverse_cache_is_bounded(self):
        from iterqm.quasimodular import _INVERSE_CACHE_WEIGHTS, _decomposition_inverse

        assert _decomposition_inverse.cache_info().maxsize == _INVERSE_CACHE_WEIGHTS


def test_deep_derivatives_of_e4():
    """D^k(E4) = 240 * sum n^k sigma_3(n) q^n, exactly, to 120 derivatives."""
    p = E4
    for k in range(1, 121):
        p = derive(p)
        if k <= 3 or k % 20 == 0:
            s = expand(p, 3)
            assert [s.coefficient(n, 0) for n in range(4)] == [0, 240, 240 * 2**k * 9, 240 * 3**k * 28]


class TestRowReduce:
    """The one elimination routine, in its three uses."""

    def test_gauss_jordan_inverts(self):
        from iterqm.quasimodular import _row_reduce

        rows = [[F(2), F(4), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
        assert _row_reduce(rows, reduced=True) == [0, 1]
        assert rows == [[1, 0, F(3, 2), -2], [0, 1, F(-1, 2), 1]]

    def test_echelon_over_q_and_mod_p(self):
        from iterqm.quasimodular import _row_reduce

        rows = [[F(0), F(2), F(4)], [F(0), F(1), F(2)], [F(3), F(0), F(1)]]
        assert _row_reduce(rows) == [0, 1]
        assert rows[0] == [1, 0, F(1, 3)] and rows[1] == [0, 1, 2] and rows[2] == [0, 0, 0]
        mod7 = [[0, 2, 4], [0, 1, 2], [3, 0, 1]]
        assert _row_reduce(mod7, 7) == [0, 1]
        assert mod7 == [[1, 0, 5], [0, 1, 2], [0, 0, 0]]  # 1/3 = 5 mod 7
        assert _row_reduce([[0, 0]], 7) == [] and _row_reduce([]) == []

    def test_rows_after_full_rank_are_not_read(self):
        from iterqm.quasimodular import _row_reduce

        for modulus in (0, 7):
            rows = [[0, 3], [2, 1], [5, 5], "never read"]
            assert _row_reduce(rows, modulus, reduced=True) == [0, 1]
            assert rows == [[1, 0], [0, 1], [0, 0], [0, 0]]

    def test_gauss_jordan_mod_p_against_fractions(self):
        from iterqm.quasimodular import _row_reduce

        rng = random.Random(3)
        p = 2**30 - 35
        for n, width in [(4, 6), (9, 5), (12, 30)]:
            rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(n)]
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            exact, residues = [[F(x) for x in row] for row in rows], [[x % p for x in row] for row in rows]
            assert _row_reduce(exact, reduced=True) == _row_reduce(residues, p, reduced=True)
            assert residues == [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in exact]


class TestDerivativeDecomposition:
    def test_modular(self):
        assert derivative_decomposition(E4) == [(F(1), 0, E4)]

    def test_e2_squared(self):
        assert derivative_decomposition(E2**2) == [(F(1), 0, E4), (F(12), 1, E2)]

    def test_e2(self):
        assert derivative_decomposition(E2) == [(F(1), 0, E2)]

    def test_reconstruction_random(self):
        rng = random.Random(15)
        for _ in range(40):
            p = random_homogeneous(rng, 2 * rng.randint(0, 9))
            total = QMPoly()
            for lam, order, g in derivative_decomposition(p):
                assert g == E2 or g.is_modular()
                piece = g
                for _ in range(order):
                    piece = derive(piece)
                total = total + lam * piece
            assert total == p


class TestBasisB:
    def test_weight6(self):
        assert basis_b(6) == [ONE, E2, E4, E6]

    def test_weight8(self):
        assert basis_b(8) == [ONE, E2, E4, E6, E4**2]

    def test_modular_only(self):
        assert basis_b(2, modular_only=True) == [ONE]
        assert E2 not in basis_b(12, modular_only=True)

    def test_weight12_order(self):
        b = basis_b(12)
        # within weight 12: E6^2 before E4^3 (smaller E4-exponent first)
        assert b == [ONE, E2, E4, E6, E4**2, E4 * E6, E6**2, E4**3]

    def test_letters_are_basis_letters(self):
        for letter in basis_b(20):
            assert is_basis_letter(letter)
        assert not is_basis_letter(2 * E4)
        assert not is_basis_letter(E2 * E4)
        assert not is_basis_letter(E2, modular_only=True)
