import copy
import pickle
import random
from fractions import Fraction as F

import mpmath
import pytest

from conftest import depth, monomials_of_weight, random_homogeneous, random_qmpoly
from test_qseries import schoolbook
from iterqm.canonicalize import _RANK_PRIME as P, _pivot_rows, canonical_form
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


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError, match="^Bernoulli numbers need n >= 0$"):
        bernoulli(-1)


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

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
            eisenstein_qexp(4, -1)

    @pytest.mark.parametrize("weight", range(2, 31, 2))
    def test_integer_numerators_match_the_rational_coefficients(self, weight):
        # 1 and -(2*weight/B_weight)*sigma_{weight-1}(n), each a Fraction, through the checking constructor
        factor = F(-2 * weight) / bernoulli(weight)
        coeffs = [F(1)] + [factor * sum(d ** (weight - 1) for d in range(1, n + 1) if n % d == 0)
                                  for n in range(1, 101)]
        for trunc in range(101):
            expected = LogQSeries(trunc, {0: coeffs[: trunc + 1]})
            series = eisenstein_qexp(weight, trunc)
            assert (series.den, series.parts) == (expected.den, expected.parts)
            assert series.modulo(P) == expected.modulo(P)


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
            assert len(coeffs) == depth(p) + 1

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

    def test_mixed_weight(self):
        # the split is direct in each weight, so one split serves any form
        assert decompose(ONE + E2) == (1, ONE, ZERO)

    def test_mixed_denominators(self):
        """The monomials' splits have denominators 1, 2, 5 and 14: each is brought to their lcm."""
        from iterqm.quasimodular import _monomial_split

        p = E2**3 * E4 - F(7, 3) * E2 * E6 + E2 + 1 + E2**2 * E4 + E2 * E4**2
        assert sorted({_monomial_split(mono)[2] for mono in p.nums}) == [1, 2, 5, 14]
        m = 2 * E4 * E6 - F(4, 3) * E4**2 + 1
        h = 2 * E2**2 * E4 + F(8, 7) * E2 * E6 + F(20, 7) * E4**2 + F(12, 5) * E2 * E4 - F(46, 15) * E6
        assert decompose(p) == (1, m, h)
        assert E2 + m + derive(h) == p
        # the sum of the reference's splits of the weights but 2, where E2 is its own part
        weights = {}
        for (a, b, c), v in p.terms.items():
            weights[2 * a + 4 * b + 6 * c] = weights.get(2 * a + 4 * b + 6 * c, ZERO) + QMPoly({(a, b, c): v})
        parts = [reference_decompose(part) for k, part in weights.items() if k != 2]
        assert (m, h) == (sum((x[1] for x in parts), ZERO), sum((x[2] for x in parts), ZERO))

    @pytest.mark.parametrize("value", [3, F(1, 2), 0.5, "E4", None], ids=repr)
    def test_not_a_form_rejected(self, value):
        with pytest.raises(TypeError, match=f"^expected a QMPoly, got {type(value).__name__}$"):
            decompose(value)
        with pytest.raises(TypeError, match=f"^expected a QMPoly, got {type(value).__name__}$"):
            derivative_decomposition(value)


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

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="^negative exponents are not allowed$"):
            QMPoly({(0, -1, 0): 1})
        for p in (E2 + E4, E4 + 1, ZERO):
            with pytest.raises(ValueError, match="^weight is defined only for nonzero homogeneous forms$"):
                p.weight()
        with pytest.raises(ValueError, match="^negative powers are not allowed$"):
            E4 ** -1
        assert E4 ** 0 == ONE

    @pytest.mark.parametrize("n", [0.0, 2.0, F(0), "2", None], ids=repr)
    def test_non_integer_power_raises_type_error(self, n):
        # the exponent is read as an index, so a float or Fraction is refused even when it is whole
        with pytest.raises(TypeError):
            E4 ** n

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


def reference_monomial_split(mono):
    """One monomial's split by the top-E2-degree peel on QMPoly and Fraction arithmetic:
    m's and h's numerators over their lowest common denominator."""
    rest, h = QMPoly._of({mono: 1}), QMPoly()
    while top := depth(rest):
        step = QMPoly({(a - 1, b, c): F(12 * v, (a - 1 + 4 * b + 6 * c) * rest.den)
                       for (a, b, c), v in rest.nums.items() if a == top})
        rest, h = rest - derive(step), h + step
    both = rest + h  # of weights k and k - 2, so nothing cancels
    return ({key: v for key, v in both.nums.items() if key in rest.nums},
            {key: v for key, v in both.nums.items() if key in h.nums}, both.den)


class TestDecomposeEveryWeight:
    @pytest.mark.parametrize("k", range(0, 62, 2))
    def test_inverse_matches_the_fraction_peel(self, k):
        """The integer peel splits each monomial of weight k into the same numerators over the same denominator."""
        from iterqm.quasimodular import _monomial_split

        if k == 2:  # E2 is its own part at weight 2; the peel divides by zero there
            assert _monomial_split((1, 0, 0)) == ((((1, 0, 0), 1),), (), 1)
            with pytest.raises(ZeroDivisionError):
                reference_monomial_split((1, 0, 0))
        else:
            for mono in monomials_of_weight(k):
                m, h, d = _monomial_split(mono)
                assert (dict(m), dict(h), d) == reference_monomial_split(mono)

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
        from iterqm.quasimodular import _SPLIT_CACHE_MONOMIALS, _monomial_split

        assert _monomial_split.cache_info().maxsize == _SPLIT_CACHE_MONOMIALS
        # every monomial of the weights above stays cached
        assert sum(len(monomials_of_weight(k)) for k in range(0, 62, 2)) == 1041 <= _SPLIT_CACHE_MONOMIALS


def test_deep_derivatives_of_e4():
    """D^k(E4) = 240 * sum n^k sigma_3(n) q^n, exactly, to 120 derivatives."""
    p = E4
    for k in range(1, 121):
        p = derive(p)
        if k <= 3 or k % 20 == 0:
            s = expand(p, 3)
            assert [s.coefficient(n, 0) for n in range(4)] == [0, 240, 240 * 2**k * 9, 240 * 3**k * 28]


def reference_gauss_jordan(rows, modulus=0):
    """The pivot columns and the nonzero rows of the reduced row echelon form, by textbook
    Gauss-Jordan with row swaps on Fractions, or on residues mod a prime ``modulus``."""
    if modulus:
        field, inverse = (lambda x: x % modulus), (lambda x: pow(x, -1, modulus))
    else:
        field, inverse = F, (lambda x: 1 / x)
    matrix = [[field(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(matrix[0]) if matrix else 0):
        top = len(pivots)
        if (r := next((r for r in range(top, len(matrix)) if matrix[r][col]), None)) is None:
            continue
        matrix[top], matrix[r] = matrix[r], matrix[top]
        inv = inverse(matrix[top][col])
        matrix[top] = [field(x * inv) for x in matrix[top]]
        for i, row in enumerate(matrix):
            if i != top and (f := row[col]):
                matrix[i] = [field(x - f * y) for x, y in zip(row, matrix[top])]
        pivots.append(col)
    return pivots, matrix[: len(pivots)]


def residues(rows, p):
    """Rational rows mapped to Z/p."""
    return [[F(x).numerator * pow(F(x).denominator, -1, p) % p for x in row] for row in rows]


def pivot_rows(rows, modulus):
    """The pivot columns and rows of canonicalize._pivot_rows, each row negated back to its 1 at the pivot."""
    found, _ = _pivot_rows(rows, modulus)
    return [c for c, _, _ in found], [[-a % modulus for a in negated] for _, negated, _ in found]


def assert_reference_pivots(rows, p):
    """_pivot_rows finds the reference's pivots mod p and, where the rows end short of full rank, its rows."""
    pivots, reduced = reference_gauss_jordan(rows, p)
    found = pivot_rows(rows, p)
    assert (found == (pivots, reduced)) if len(pivots) < len(rows[0]) else (found[0] == pivots)


class TestRowReduce:
    """The elimination mod p, canonicalize._pivot_rows, against the reference Gauss-Jordan above."""

    MODULI = (7, 2**30 - 35, 2**61 - 1)

    def test_gauss_jordan_inverts(self):
        # [A | I] ends short of full rank, so each pivot is reduced by the later ones: [I | A^-1]
        for p in self.MODULI:
            rows = [[2, 4, 1, 0], [1, 3, 0, 1]]
            assert pivot_rows(rows, p) == ([0, 1], residues([[1, 0, F(3, 2), -2], [0, 1, F(-1, 2), 1]], p))
            assert pivot_rows(rows, p) == reference_gauss_jordan(rows, p)

    def test_echelon_over_q_and_mod_p(self):
        # the reduced echelon form over Q, mapped mod 7, is the one mod 7: 1/3 = 5 mod 7
        rows = [[0, 2, 4], [0, 1, 2], [3, 0, 1]]
        assert reference_gauss_jordan(rows) == ([0, 1], [[1, 0, F(1, 3)], [0, 1, 2]])
        assert pivot_rows(rows, 7) == ([0, 1], [[1, 0, 5], [0, 1, 2]]) == reference_gauss_jordan(rows, 7)
        assert _pivot_rows([[0, 0]], 7) == ([], 2) and _pivot_rows([], 7) == ([], 0)

    def test_rows_after_full_rank_are_not_read(self):
        for p in self.MODULI:
            found, width = _pivot_rows([[0, 3], [2, 1], [5, 5], "never read"], p)
            assert [c for c, _, _ in found] == [0, 1] and width == 2

    @pytest.mark.parametrize("short", [False, True])
    def test_zero_rows_change_nothing(self, short):
        # a zero row is passed over before it is reduced: the pivots are as without it, on
        # rows that end short of full rank (and are reduced again) or reach it
        rng = random.Random(17)
        for p in self.MODULI:
            for n, width in [(3, 3), (6, 8), (10, 12)]:
                rows = [[rng.randrange(5) for _ in range(width)] for _ in range(n)]
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]  # a dependent row
                if not short:
                    rows += [[int(i == j) for j in range(width)] for i in range(width)]
                padded = [list(row) for row in rows]
                for _ in range(4):
                    padded.insert(rng.randrange(len(padded) + 1), [0] * width)
                found = _pivot_rows(rows, p)
                assert _pivot_rows(padded, p) == found
                assert (len(found[0]) < width) == short
                assert_reference_pivots(rows, p)

    def test_gauss_jordan_mod_p_against_fractions(self):
        rng = random.Random(3)
        for p, n, width in [(7, 5, 8), (2**30 - 35, 4, 6), (2**30 - 35, 9, 5), (2**30 - 35, 12, 30),
                            (2**61 - 1, 12, 30)]:
            rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(n)]
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            assert_reference_pivots([[x % p for x in row] for row in rows], p)
            if p > 7:  # p divides no pivot of these small rows: the form over Q maps to the one mod p
                pivots, reduced = reference_gauss_jordan(rows)
                assert reference_gauss_jordan(rows, p) == (pivots, residues(reduced, p))


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
        assert basis_b(0) == [ONE]

    @pytest.mark.parametrize("max_weight", [3, -2, 7])
    def test_odd_or_negative_weight_rejected(self, max_weight):
        for modular_only in (False, True):
            with pytest.raises(ValueError, match="^max_weight must be a non-negative even integer$"):
                basis_b(max_weight, modular_only)

    def test_weight12_order(self):
        b = basis_b(12)
        # within weight 12: E6^2 before E4^3 (smaller E4-exponent first)
        assert b == [ONE, E2, E4, E6, E4**2, E4 * E6, E6**2, E4**3]

    def test_letters_are_basis_letters(self):
        for letter in basis_b(20):
            assert is_basis_letter(letter)
        assert not is_basis_letter(2 * E4)
        assert not is_basis_letter(E2 * E4)
