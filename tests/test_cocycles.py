import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, zeta

from iterqm.cocycles import (
    IDENTITY,
    S,
    SL2Mat,
    T,
    XYPoly,
    admissible_tau,
    b3_to_sl2,
    cocycle_r,
    e2_cocycle,
    eichler_integral,
    quasimodular_cocycle,
    slash_poly,
)
from iterqm.iterint import iter_integral
from iterqm.qseries import eval_numeric
from iterqm.quasimodular import DELTA, E2, E4, E6, QMPoly, derive, expand

TWO_PI_I = 2j * math.pi


def reference_eichler_integral(f: QMPoly, tau, n_terms: int) -> XYPoly:
    """Term-by-term Eichler integral, O(N d^2): each a_n q^n integrated by
    parts into every coefficient separately."""
    with mp.workdps(50):
        tau = mpc(tau)
        k = f.weight()
        d = k - 2
        series = expand(f, n_terms)
        coeffs = [series.coefficient(m, 0) for m in range(n_terms + 1)]
        two_pi_i = 2j * mp.pi
        q = mp.exp(two_pi_i * tau)
        ints = [mpc(0)] * (d + 1)
        a0 = mpf(coeffs[0].numerator) / coeffs[0].denominator
        for j in range(d + 1):
            ints[j] -= a0 * tau ** (j + 1) / (j + 1)
        qn = mpc(1)
        for n in range(1, n_terms + 1):
            qn *= q
            an = mpf(coeffs[n].numerator) / coeffs[n].denominator
            cn = two_pi_i * n
            for j in range(d + 1):
                acc = mpc(0)
                for r in range(j + 1):
                    acc += (-1) ** r * math.perm(j, r) * tau ** (j - r) / cn ** (r + 1)
                ints[j] -= an * qn * acc
        front = two_pi_i ** (k - 1)
        return XYPoly(d, [front * math.comb(d, j) * (-1) ** j * ints[j] for j in range(d + 1)])


class TestSlash:
    def test_identity(self):
        p = XYPoly(3, [1, 2j, -1, 0.5])
        assert slash_poly(p, IDENTITY).distance(p) == 0

    def test_translation_on_x(self):
        assert slash_poly(XYPoly(1, [1, 0]), T).distance(XYPoly(1, [1, 1])) == 0

    def test_inversion_on_xy(self):
        # P = XY; under S: (-Y)(X) = -XY
        assert slash_poly(XYPoly(2, [0, 1, 0]), S).distance(XYPoly(2, [0, -1, 0])) == 0

    def test_right_action(self):
        rng = random.Random(41)
        p = XYPoly(4, [rng.random() + 1j * rng.random() for _ in range(5)])
        g1 = T * S
        g2 = S * T * T
        lhs = slash_poly(slash_poly(p, g1), g2)
        rhs = slash_poly(p, g1 * g2)
        assert lhs.distance(rhs) < 1e-12


class TestBraidGroup:
    def test_generators(self):
        assert b3_to_sl2((1,)) == SL2Mat(1, 1, 0, 1)
        assert b3_to_sl2((2,)) == SL2Mat(1, 0, -1, 1)

    def test_braid_relation(self):
        assert b3_to_sl2((1, 2, 1)) == b3_to_sl2((2, 1, 2)) == SL2Mat(0, 1, -1, 0)

    def test_empty_word(self):
        assert b3_to_sl2(()) == IDENTITY

    def test_inverses(self):
        assert b3_to_sl2((1, -1)) == IDENTITY
        assert b3_to_sl2((2, -2)) == IDENTITY

    def test_central_element_maps_to_identity(self):
        # (sigma1 sigma2)^6 generates the center and projects to the identity
        word = (1, 2) * 6
        assert b3_to_sl2(word) == IDENTITY


class TestEichlerIntegral:
    def test_zero_form(self):
        p = eichler_integral(QMPoly(), 1j)
        assert p.max_abs() == 0

    def test_rejects_nonmodular(self):
        with pytest.raises(ValueError):
            eichler_integral(E2, 1j)
        with pytest.raises(ValueError):
            eichler_integral(E2 * E4, 1j)

    @pytest.mark.parametrize("f,tau", [(E4, 10j), (E4, 1j), (E6, 1j), (DELTA, 1j), (DELTA, 0.3 + 1.1j)])
    def test_top_coefficient_matches_iterated_integral(self, f, tau):
        # X^(k-2) coefficient = (2 pi i)^(k-2) * I(f; tau)
        k = f.weight()
        top = complex(eichler_integral(f, tau, 80).coeffs[0])
        reference = TWO_PI_I ** (k - 2) * eval_numeric(iter_integral((f,), 80), tau)
        assert abs(top - reference) <= 1e-9 * max(1.0, abs(reference))


    @pytest.mark.parametrize("f", [E4, DELTA, QMPoly({(0, 2, 2): Fraction(1)})], ids=["E4", "Delta", "E4^2*E6^2"])
    @pytest.mark.parametrize("tau", [1j, 0.4 + 0.9j])
    def test_matches_term_by_term_reference(self, f, tau):
        got = eichler_integral(f, tau, 80)
        want = reference_eichler_integral(f, tau, 80)
        assert got.distance(want) <= 1e-40 * float(want.max_abs())


class TestModularCocycle:
    def test_identity_vanishes(self):
        assert float(cocycle_r(E4, IDENTITY, 1.3j).max_abs()) < 1e-20

    def test_cusp_form_translation_vanishes(self):
        assert float(cocycle_r(DELTA, T, 1.1j).max_abs()) < 1e-8
        assert float(cocycle_r(DELTA, T, 0.2 + 0.9j).max_abs()) < 1e-8

    def test_golden_value_e4_at_s(self):
        # classical closed form: r_{E4}(S) = -240 zeta(3) X^2
        #                                   + (5/3)(2 pi)^3 i XY + 240 zeta(3) Y^2
        V = cocycle_r(E4, S, 1j)
        with mp.workdps(30):
            z3 = 240 * zeta(3)
            mid = mpc(0, 1) * (2 * mp.pi) ** 3 * mp.mpf(5) / 3
            want = XYPoly(2, [-z3, mid, z3])
        assert V.distance(want) < 1e-20
        # frozen numeric regression baseline
        assert abs(complex(V.coeffs[0]) - (-288.49365675830263)) < 1e-10
        assert abs(complex(V.coeffs[1]) - 413.41702240399760j) < 1e-10
        assert abs(complex(V.coeffs[2]) - 288.49365675830263) < 1e-10

    def test_golden_value_e6_at_s(self):
        # closed form: 6048 zeta(5) (X^4 - Y^4) - (7/10)(2 pi)^5 i (X^3 Y + X Y^3)
        V = cocycle_r(E6, S, 1j)
        with mp.workdps(30):
            z5 = 6048 * zeta(5)
            mid = mpc(0, -1) * (2 * mp.pi) ** 5 * mp.mpf(7) / 10
            want = XYPoly(4, [z5, mid, 0, mid, -z5])
        assert V.distance(want) < 1e-20

    def test_negation_keeps_working_precision(self):
        V = cocycle_r(E4, S, 1j)
        assert (V + (-V)).max_abs() < 1e-40

    def test_caller_precision_untouched(self):
        with mp.workdps(30):
            z3 = 240 * zeta(3)
            mid = mpc(0, 1) * (2 * mp.pi) ** 3 * mp.mpf(5) / 3
            want = XYPoly(2, [-z3, mid, z3])
        saved = mp.dps
        try:
            mp.dps = 5
            assert cocycle_r(E4, S, 1j).distance(want) < 1e-20
            assert mp.dps == 5
        finally:
            mp.dps = saved

    def test_s_squared_relation(self):
        V = cocycle_r(E4, S, 1j)
        assert float((slash_poly(V, S) + V).max_abs()) < 1e-10  # r(S^2) = r(-I) = 0

    def test_base_point_independence(self):
        for f in (E4, E6, DELTA):
            r1 = cocycle_r(f, S, 1.3j)
            r2 = cocycle_r(f, S, mpc(0.4, 0.9))
            assert r1.distance(r2) < 1e-8

    def test_precondition(self):
        with pytest.raises(ValueError):
            cocycle_r(E4, S, 0.05j)  # Im too small
        with pytest.raises(ValueError):
            cocycle_r(E4, T * T * T, 5 + 0.1j)

    def test_cocycle_relation_sample(self):
        rng = random.Random(42)
        pool = [S, T]
        for f in (E4, E6, DELTA):
            done = 0
            while done < 8:
                g1 = IDENTITY
                g2 = IDENTITY
                for _ in range(rng.randint(0, 4)):
                    g1 = g1 * rng.choice(pool)
                for _ in range(rng.randint(0, 4)):
                    g2 = g2 * rng.choice(pool)
                try:
                    t12, t1, t2 = (admissible_tau(g) for g in (g1 * g2, g1, g2))
                except ValueError:
                    continue
                lhs = cocycle_r(f, g1 * g2, t12, 60)
                rhs = slash_poly(cocycle_r(f, g1, t1, 60), g2) + cocycle_r(f, g2, t2, 60)
                assert lhs.distance(rhs) < 1e-8, (f, g1, g2)
                done += 1


class TestE2Cocycle:
    def test_sigma1(self):
        for tau in (1.2j, 0.3 + 0.8j, 2j):
            v = complex(e2_cocycle((1,), tau))
            assert abs(v - (-TWO_PI_I)) < 1e-8

    def test_empty_word(self):
        assert abs(complex(e2_cocycle((), 1.2j))) < 1e-12

    def test_braid_relation(self):
        v1 = e2_cocycle((1, 2, 1), 1.2j)
        v2 = e2_cocycle((2, 1, 2), 0.9j)
        assert abs(complex(v1 - v2)) < 1e-8

    def test_additive(self):
        rng = random.Random(43)
        gens = (1, -1, 2, -2)
        done = 0
        while done < 10:
            w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            try:
                t12 = admissible_tau(b3_to_sl2(w1 + w2))
                t1 = admissible_tau(b3_to_sl2(w1))
                t2 = admissible_tau(b3_to_sl2(w2))
            except ValueError:
                continue
            total = e2_cocycle(w1 + w2, t12)
            assert abs(complex(total - e2_cocycle(w1, t1) - e2_cocycle(w2, t2))) < 1e-8
            done += 1

    def test_values_in_2pi_i_z(self):
        rng = random.Random(44)
        gens = (1, -1, 2, -2)
        done = 0
        while done < 12:
            w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
            try:
                tau = admissible_tau(b3_to_sl2(w))
            except ValueError:
                continue
            ratio = complex(e2_cocycle(w, tau) / TWO_PI_I)
            assert abs(ratio - round(ratio.real)) < 1e-8, w
            done += 1

    @pytest.mark.parametrize("word", [(1, 2) * 600, (-2, -1) * 3000], ids=["1200", "6000"])
    def test_long_word(self, word):
        # far past the interpreter's recursion limit; the value is -2 pi i
        # times the exponent sum of the word
        value = complex(e2_cocycle(word, admissible_tau(b3_to_sl2(word))))
        exponent_sum = sum(1 if g > 0 else -1 for g in word)
        assert abs(value - (-TWO_PI_I) * exponent_sum) < 1e-8

    def test_central_element_value(self):
        # the center of the braid group maps to 1 in the modular group but
        # the cocycle sees the winding: 12 full turns
        word = (1, 2) * 6
        ratio = complex(e2_cocycle(word, 1.5j) / TWO_PI_I)
        assert abs(ratio - round(ratio.real)) < 1e-8
        assert round(ratio.real) == -12


class TestQuasimodularCocycle:
    def test_modular_passthrough(self):
        comps = quasimodular_cocycle(E4, S, 1j)
        assert len(comps) == 1
        assert comps[0].distance(cocycle_r(E4, S, 1j)) < 1e-20

    def test_derivative_of_modular(self):
        word = (1, 2)
        mat = b3_to_sl2(word)
        comps = quasimodular_cocycle(derive(E4), word, 1.3j)
        assert len(comps) == 1
        assert comps[0].distance(cocycle_r(E4, mat, 1.3j)) < 1e-12

    def test_e2_squared_components(self):
        comps = quasimodular_cocycle(E2 * E2, (1,), 1.3j)
        assert [c.degree for c in comps] == [2, 0]
        assert comps[0].distance(cocycle_r(E4, T, 1.3j)) < 1e-12
        expected = 12 * e2_cocycle((1,), 1.3j)
        assert abs(complex(comps[1].coeffs[0] - expected)) < 1e-10

    def test_matrix_rejected_when_e2_present(self):
        with pytest.raises(ValueError):
            quasimodular_cocycle(E2, S, 1.3j)

    def test_rejects_nonhomogeneous(self):
        with pytest.raises(ValueError):
            quasimodular_cocycle(E4 + E6, S, 1j)
