import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import MPContext, mp, mpc, mpf, zeta
from mpmath.libmp import dps_to_prec

from iterqm.cocycles import (
    IDENTITY,
    MIN_IMAG,
    WORKING_DPS,
    S,
    SL2Mat,
    T,
    XYPoly,
    _branch_log,
    _read_braid,
    _require_upper,
    admissible_tau,
    b3_to_sl2,
    cocycle_r,
    e2_cocycle,
    eichler_integral,
    eval_numeric,
    quasimodular_cocycle,
    slash_poly,
)
from iterqm.iterint import iter_integral
from iterqm.qseries import LogQSeries
from iterqm.quasimodular import DELTA, E2, E4, E6, ONE, QMPoly, derive, expand

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


#: The generators' images in the modular group.
GEN_MATS = {1: SL2Mat(1, 1, 0, 1), -1: SL2Mat(1, -1, 0, 1), 2: SL2Mat(1, 0, -1, 1), -2: SL2Mat(1, 0, 1, 1)}


def reference_branch_log(word, tau):
    """One principal log per generator, at the image of tau under the suffix
    after it: l_{w1 w2}(tau) = l_{w1}(gamma_{w2} tau) + l_{w2}(tau), read
    from the right with exact matrix products."""
    with mp.workdps(50):
        tau = mpc(tau)
        total = mpc(0)
        rest = IDENTITY
        for g in reversed(word):
            m = GEN_MATS[g]
            total = mp.log(m.c * rest.moebius(tau) + m.d) + total
            rest = m * rest
        return total


def reference_log_disc(tau, n_terms):
    """2*pi*i*tau + 24 * sum of the principal logs of 1 - q^n, term by term."""
    with mp.workdps(50):
        tau = mpc(tau)
        q = mp.exp(2j * mp.pi * tau)
        return 2j * mp.pi * tau + 24 * mp.fsum(mp.log(1 - q**n) for n in range(1, n_terms + 1))


def quadrature_delta_integrals(tau, powers):
    """int_tau^{i oo} Delta(t) t^j dt for j in powers, by mpmath quadrature
    along t = tau + i s, with Delta = q (q; q)_oo^24 from mpmath's own
    q-Pochhammer symbol, at 30 digits in a context of its own.  The
    integrand has no constant term, so no regularization enters; beyond
    s = 20 it is below e^(-100) for j <= 10."""
    ctx = MPContext()
    ctx.dps = 30
    tau = ctx.mpc(tau)

    def delta(t):
        q = ctx.expjpi(2 * t)
        return q * ctx.qp(q) ** 24

    return [1j * ctx.quad(lambda s: delta(tau + 1j * s) * (tau + 1j * s) ** j, [0, 2, 20]) for j in powers]


def reference_values(series: LogQSeries, tau, dps: int):
    """The power-table summation the integer kernel replaced, in a context
    of ``dps`` digits of its own: one table of q^0, ..., q^N, one product of
    an mpc by each nonzero numerator, Horner in L.  Returns the value and
    the sum of the moduli of its terms."""
    ctx = MPContext()
    ctx.dps = dps
    tau = ctx.mpc(tau)
    ell = 2j * ctx.pi * tau
    q = ctx.exp(ell)
    powers = [ctx.mpc(1)]
    for _ in range(series.trunc):
        powers.append(powers[-1] * q)
    total, size = ctx.mpc(0), ctx.mpf(0)
    for k in range(series.log_degree(), -1, -1):
        part = series.parts.get(k, ())
        total = total * ell + sum((qm * x for qm, x in zip(powers, part) if x), ctx.mpc(0))
        size += abs(ell) ** k * sum(abs(qm) * abs(x) for qm, x in zip(powers, part))
    return total / series.den, size / series.den


def branch_log_gap(word, tau) -> float:
    with mp.workdps(50):
        return float(abs(_branch_log(*_read_braid(word), tau) - reference_branch_log(word, tau)))


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

    def test_half_twist_squared_is_minus_identity(self):
        assert b3_to_sl2((1, 2, 1) * 2) == SL2Mat(-1, 0, 0, -1)

    def test_central_element_maps_to_identity(self):
        # (sigma1 sigma2)^6 generates the center and projects to the identity
        word = (1, 2) * 6
        assert b3_to_sl2(word) == IDENTITY

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            b3_to_sl2((1, 3, 2))
        with pytest.raises(ValueError):
            e2_cocycle((3,), 1.2j)


class TestBranchLog:
    def test_matches_per_generator_reference(self):
        rng = random.Random(47)
        for length in list(range(13)) + list(range(16, 401, 8)):
            word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))
            tau = mpc(rng.uniform(-2, 2), rng.uniform(MIN_IMAG, 2))
            assert branch_log_gap(word, tau) < 1e-40, (length, tau)

    @pytest.mark.parametrize(
        "word", [(1, -2) * 100, (-1, 2) * 150, (1, 1, -2, -2) * 60], ids=["1,-2", "-1,2", "1,1,-2,-2"]
    )
    def test_large_entries(self, word):
        assert max(map(abs, b3_to_sl2(word).entries())) > 10**40
        for tau in (mpc(0.1, 0.2), mpc(-1.3, 0.7), mpc(0, 2)):
            assert branch_log_gap(word, tau) < 1e-40

    @pytest.mark.parametrize("word", [(1, 2, 1) * 2, (2, 1, 2) * 2, (-1, -2, -1) * 2, (1, 2) * 3, (-2, -1) * 9])
    def test_suffix_through_minus_identity(self, word):
        # some suffix has (c, d) = (0, -1): its j = -1 lies on the cut
        assert any(b3_to_sl2(word[i:]).entries()[2:] == (0, -1) for i in range(len(word)))
        for tau in (mpc(0, 0.2), mpc(0.45, 0.3), mpc(-0.7, 1.4)):
            assert branch_log_gap(word, tau) < 1e-40

    @pytest.mark.parametrize("g", [2, -2])
    def test_powers_of_sigma2(self, g):
        for k in range(13):
            for tau in (mpc(0, 0.2), mpc(0.5, 0.25), mpc(-0.9, 1), mpc(2.5, 2)):
                assert branch_log_gap((g,) * k, tau) < 1e-40, (k, tau)


class TestLogDisc:
    @pytest.mark.parametrize("n_terms", [80, 300])
    @pytest.mark.parametrize("tau", [0.2j, 0.37 + 0.2j, -0.5 + 0.25j, 0.1 + 1.3j])
    def test_one_log_matches_sum_of_logs(self, tau, n_terms):
        # log Delta = -I(E2), read from the series: no principal log is taken
        with mp.workdps(50):
            gap = abs(-eval_numeric(iter_integral((E2,), n_terms), tau) - reference_log_disc(tau, n_terms))
        assert gap < 1e-40


class TestEvalNumeric:
    def test_zero(self):
        assert eval_numeric(LogQSeries.zero(5), 1j) == 0

    def test_log_at_i(self):
        with mp.workdps(50):
            assert abs(eval_numeric(LogQSeries.log_power(1, 5), 1j) - (-2 * mp.pi)) < 1e-40

    def test_e4_at_i(self):
        # E4(i) = 3 Gamma(1/4)^8 / (2 pi)^6
        with mp.workdps(50):
            want = 3 * mp.gamma(mpf(1) / 4) ** 8 / (2 * mp.pi) ** 6
            value = eval_numeric(expand(E4, 60), 1j)
            assert abs(value - want) < 1e-40

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eval_numeric(LogQSeries.zero(2), 1 - 1j)
        with pytest.raises(ValueError):
            eval_numeric(LogQSeries.zero(2), 0.5)

    def test_quadrature_oracle(self):
        # I(Delta) = 2 pi i int_tau^{i oo} Delta(t) dt, against mpmath's
        # quadrature of mpmath's own product for Delta
        tau = 0.4 + 0.9j
        with mp.workdps(50):
            want = 2j * mp.pi * quadrature_delta_integrals(tau, [0])[0]
            got = eval_numeric(iter_integral((DELTA,), 80), tau)
            assert abs(got - want) < 1e-25 * abs(want)


E4SQ_E6SQ = QMPoly({(0, 2, 2): Fraction(1)})


class TestIntegerKernel:
    """eval_numeric sums each log-part by Horner on integers in fixed-point
    q.  Against the power-table summation at 120 digits, its error may
    exceed that of the power table at working precision by at most
    2^-(prec - 8) times the sum of the moduli of the terms."""

    SERIES = {
        "I(E2)": lambda: iter_integral((E2,), 80),
        **{f"I(1^{r},E4^2E6^2)": (lambda r=r: iter_integral((ONE,) * r + (E4SQ_E6SQ,), 80)) for r in range(19)},
        "I(Delta^2,E4)": lambda: iter_integral((DELTA * DELTA, E4), 80),
        "signs": lambda: LogQSeries(60, {
            0: [(-1) ** n * Fraction(n**3 + 1, n % 7 + 1) for n in range(61)],
            1: [0, 0, 0] + [Fraction(-5, n) for n in range(3, 61)],
            3: [(-2) ** n for n in range(20)],
        }),
    }
    POINTS = [0.3 + 0.05j, -0.1 + 0.2j, 0.45 + 0.3j, -0.25 + 1j, 0.5 + 4j, 0.7 + 20j, 0.5 + 1e6j]

    @pytest.mark.parametrize("name", SERIES)
    def test_error_within_power_table_error(self, name):
        series = self.SERIES[name]()
        ctx = MPContext()
        ctx.dps = 120
        slack = ctx.ldexp(1, -(dps_to_prec(WORKING_DPS) - 8))
        for tau in self.POINTS:
            truth, size = reference_values(series, tau, 120)
            table = ctx.mpc(reference_values(series, tau, WORKING_DPS)[0])
            kernel = ctx.mpc(eval_numeric(series, tau))
            assert abs(kernel - truth) <= abs(table - truth) + slack * size, (name, tau)

    def test_delta_squared_parts_start_at_q2(self):
        # q^2 is factored out of every part before the Horner sum
        parts = iter_integral((DELTA * DELTA, E4), 80).parts
        assert sorted(parts) == [0, 1]
        assert all(p[:2] == (0, 0) and p[2] for p in parts.values())

    def test_large_imaginary_part_is_fast(self):
        # terms that cannot reach working precision are dropped, so the work
        # does not grow with Im tau
        minus_log_disc = iter_integral((E2,), 80)
        start = time.perf_counter()
        value = eval_numeric(minus_log_disc, 0.5 + 1e6j)
        assert time.perf_counter() - start < 1
        with mp.workdps(50):  # -log Delta = -L - 24 q + ..., with |q| = e^(-2 pi 10^6)
            assert abs(value + 2j * mp.pi * mpc(0.5, 1e6)) < 1e-40


class TestNonFiniteTau:
    """NaN compares false with every bound on Im, and an infinite tau passes
    them: each entry point names a point that is not finite."""

    @pytest.mark.parametrize("tau", [complex("nan+1j"), complex(0, math.inf), complex("inf+1j"),
                                     complex(0.5, math.nan)], ids=str)
    def test_rejected_by_every_entry_point(self, tau):
        for call in (
            lambda: cocycle_r(E4, S, tau),
            lambda: e2_cocycle((1, 2), tau),
            lambda: eval_numeric(iter_integral((E4,), 4), tau),
            lambda: eichler_integral(E4, tau),
            lambda: quasimodular_cocycle(E2, (1,), tau),
        ):
            with pytest.raises(ValueError, match="^tau must be finite"):
                call()

    def test_image_point_is_named(self):
        with pytest.raises(ValueError, match="^g.tau must be finite"):
            _require_upper(complex("nan+1j"), "g.tau")


class TestLargeTau:
    """Beyond |tau| = 10^(WORKING_DPS - 20), tau + 1 and 2*pi*i*tau keep too
    few digits: at 1e52 + i, tau + 1 rounds to tau, and e2_cocycle of s1
    would read 0 instead of -2*pi*i."""

    @pytest.mark.parametrize("call", [lambda t: e2_cocycle((1,), t), lambda t: cocycle_r(E4, S, t),
                                      lambda t: eval_numeric(iter_integral((E2,), 4), t)],
                             ids=["e2_cocycle", "cocycle_r", "eval_numeric"])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match=r"^\|tau\| must be at most 1e30"):
            call(1e52 + 1j)

    def test_large_imaginary_part_still_evaluates(self):
        assert abs(complex(e2_cocycle((1,), 0.5 + 1e20j)) - (-TWO_PI_I)) < 1e-8


class TestClosedFormPeriods:
    """r_f(S) of a normalized Eisenstein series E_k, d = k - 2, has a closed
    form (Kohnen-Zagier): c_0 = -c_d = (2k/B_k)(d!/2) zeta(k - 1), and for
    1 <= j <= d - 1, c_j = (2 pi i)^(k-1) (k/B_k) C(d, j) B_(j+1) B_(k-1-j)
    / ((j + 1)(k - 1 - j)).  M_k is one-dimensional for these k, so E4E6 is
    E_10, and so on."""

    @staticmethod
    def closed_form(k: int):
        ctx = MPContext()
        ctx.dps = 70
        d, bern = k - 2, ctx.bernoulli
        c = [ctx.mpc(0)] * (d + 1)
        c[0] = 2 * k / bern(k) * math.factorial(d) / 2 * ctx.zeta(k - 1)
        c[d] = -c[0]
        for j in range(1, d):
            c[j] = ((2j * ctx.pi) ** (k - 1) * k / bern(k) * math.comb(d, j) * bern(j + 1) * bern(k - 1 - j)
                    / ((j + 1) * (k - 1 - j)))
        return ctx, c

    @pytest.mark.parametrize("f", [E4, E6, E4 * E4, E4 * E6, E4 * E4 * E6], ids=["E4", "E6", "E8", "E10", "E14"])
    @pytest.mark.parametrize("tau,bound", [(0.05 + 1j, 1e-44), (0.1 + 0.3j, 1e-39)])
    def test_matches_closed_form(self, f, tau, bound):
        ctx, want = self.closed_form(f.weight())
        got = cocycle_r(f, S, tau).coeffs
        gap = max(abs(ctx.mpc(g) - w) for g, w in zip(got, want))
        assert gap <= bound * max(map(abs, want))


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


    @pytest.mark.parametrize(
        "f",
        [E4, DELTA, QMPoly({(0, 2, 2): Fraction(1)}), E4 * DELTA, E6 * DELTA],
        ids=["E4", "Delta", "E4^2*E6^2", "E4*Delta", "E6*Delta"],
    )
    @pytest.mark.parametrize("tau", [1j, 0.4 + 0.9j, 0.1 + 0.31j])
    def test_matches_term_by_term_reference(self, f, tau):
        got = eichler_integral(f, tau, 80)
        want = reference_eichler_integral(f, tau, 80)
        assert got.distance(want) <= 1e-40 * float(want.max_abs())

    def test_matches_quadrature(self):
        # coefficient j is (2 pi i)^11 C(10, j) (-1)^j int_tau^{i oo} Delta(t) t^j dt
        tau = 0.4 + 0.9j
        got = eichler_integral(DELTA, tau, 80)
        with mp.workdps(50):
            for j, moment in zip((0, 5, 10), quadrature_delta_integrals(tau, (0, 5, 10))):
                want = (2j * mp.pi) ** 11 * math.comb(10, j) * (-1) ** j * moment
                assert abs(got.coeffs[j] - want) < 1e-20 * abs(want), j

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            eichler_integral(E4, 1j, -5)


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

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            e2_cocycle((1, 2), 1.2j, -5)

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
