import math
import operator
import random
import re
import time
from fractions import Fraction

import pytest
from mpmath import MPContext, mp, mpc, mpf, zeta
from mpmath.libmp import dps_to_prec

import iterqm
from iterqm import cocycles
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
from iterqm.quasimodular import DELTA, E2, E4, E6, ONE, QMPoly, derive, eisenstein_qexp, expand

TWO_PI_I = 2j * math.pi
PREC = dps_to_prec(WORKING_DPS)


def reference_eichler_integral(f: QMPoly, tau, n_terms: int, dps: int = 50) -> list:
    """Term-by-term Eichler integral, O(N d^2): each a_n q^n integrated by
    parts into every coefficient separately; its coefficients at ``dps`` digits."""
    with mp.workdps(dps):
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
        return [front * math.comb(d, j) * (-1) ** j * ints[j] for j in range(d + 1)]


def reference_slash_poly(poly: XYPoly, g: SL2Mat, dps: int) -> list:
    """The right action term by term in mpc arithmetic: each coefficient
    times the convolution of the binomial expansions of (aX+bY)^(d-j) and
    (cX+dY)^j, in a context of ``dps`` digits of its own.  Returns the
    coefficients."""
    ctx = MPContext()
    ctx.dps = dps
    d = poly.degree
    a, b, c, dd = g.entries()
    out = [ctx.mpc(0)] * (d + 1)
    for j, coeff in enumerate(poly.coeffs):
        coeff = ctx.mpc(coeff)
        first = [math.comb(d - j, t) * a ** (d - j - t) * b**t for t in range(d - j + 1)]
        second = [math.comb(j, t) * c ** (j - t) * dd**t for t in range(j + 1)]
        for t1, u in enumerate(first):
            for t2, v in enumerate(second):
                out[t1 + t2] += coeff * (u * v)
    return out


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


def reference_parts(series: list[LogQSeries], tau) -> tuple[mpc, list[dict[int, tuple[int, int, int, int]]]]:
    """q and the log-parts of the integer kernel, each part's last useful term found
    by a scan back from its last coefficient, one bit length per coefficient:
    q rounded once to q * 2^(bits + e), then for each part its first nonzero
    c_m, the last n with bit length(c_n) + bits - bit length(c_m) > e * (n - m),
    and the Horner sum of c_m..c_n.  For tests only."""
    ctx = cocycles._ctx
    bits = ctx.prec + max(s.trunc for s in series).bit_length() + 12
    with ctx.workprec(bits):
        q = ctx.expjpi(2 * ctx.mpc(tau))
    e = -ctx.mag(q)
    qr, qi = int(ctx.ldexp(q.real, bits + e)), int(ctx.ldexp(q.imag, bits + e))
    out = []
    for s in series:
        parts = {}
        for k, cs in s.parts.items():
            m = next(n for n, x in enumerate(cs) if x)
            lead = cs[m].bit_length()
            top = next(n for n in range(len(cs) - 1, m - 1, -1) if cs[n].bit_length() + bits - lead > e * (n - m))
            ar = ai = 0
            for x in reversed(cs[m : top + 1]):
                ar, ai = ((ar * qr - ai * qi) >> (bits + e)) + ((x << bits) >> lead), (ar * qi + ai * qr) >> (bits + e)
            parts[k] = (ar, ai, lead - bits, m)
        out.append(parts)
    return q, out


def reference_finite(tau, label: str = "tau"):
    """The finiteness and size checks in the context's mpc arithmetic."""
    ctx = cocycles._ctx
    tau = ctx.mpc(tau)
    if not ctx.isfinite(tau):
        raise ValueError(f"{label} must be finite, got {complex(tau)}")
    if abs(complex(tau)) > 10.0 ** (WORKING_DPS - 20):
        raise ValueError(f"|{label}| must be at most 1e{WORKING_DPS - 20}, got {complex(tau)}")
    return tau


def reference_require_upper(tau, label: str = "tau"):
    tau = reference_finite(tau, label)
    if tau.imag < MIN_IMAG:
        raise ValueError(f"{label} must satisfy Im >= {MIN_IMAG}, got {complex(tau)}")
    return tau


def reference_eval_numeric(f: LogQSeries, tau):
    """eval_numeric by the context's mpc operators: the reference for the raw libmp calls."""
    ctx = cocycles._ctx
    tau = reference_finite(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    q, (parts,) = reference_parts([f], tau)
    ell = 2j * ctx.pi * tau
    total = ctx.mpc(0)
    for k in range(f.log_degree(), -1, -1):
        re, im, x, m = parts.get(k, (0, 0, 0, 0))
        part = ctx.mpc(ctx.ldexp(re, x), ctx.ldexp(im, x))
        total = total * ell + (part * q**m if m else part)
    return total / f.den


def reference_branch(j, turns: int):
    """The branch of log(j) by the context's mpc operators."""
    value = cocycles._ctx.log(j)
    return value + 2j * cocycles._ctx.pi * turns if turns else value


def reference_e2_cocycle(word, tau, n_terms: int = 80):
    """e2_cocycle by the context's mpc operators, with no memo."""
    mat, turns = _read_braid(word)
    tau = reference_require_upper(tau)
    j = mat.c * tau + mat.d
    gtau = reference_require_upper((mat.a * tau + mat.b) / j, "gamma.tau")
    minus_log_disc = iter_integral((E2,), n_terms)
    value = reference_eval_numeric(minus_log_disc, gtau) - reference_eval_numeric(minus_log_disc, tau)
    return value + 12 * reference_branch(j, turns)


def outcome(call, *args):
    """The raw pair of the number a call returns, or the message of the ValueError it raises."""
    try:
        return call(*args)._mpc_
    except ValueError as error:
        return str(error)


def tau_kinds(value: complex) -> list:
    """value as a Python complex, a global mpmath mpc, a global mpc of its decimal digits
    at 70 digits (wider than the context's), and an mpc of the module's context."""
    with mp.workdps(70):
        wide = mpc(repr(value.real), repr(value.imag))
    return [value, mpc(value), wide, cocycles.mpc(value)]


#: TestBranchLog's words: seeded random words of length 0 to 400, each with its own point
RANDOM_WORDS = [(tuple(rng.choice((1, -1, 2, -2)) for _ in range(length)),
                 mpc(rng.uniform(-2, 2), rng.uniform(MIN_IMAG, 2)))
                for rng in [random.Random(47)] for length in list(range(13)) + list(range(16, 401, 8))]
#: words whose matrices have entries above 10^40
LARGE_WORDS = [(1, -2) * 100, (-1, 2) * 150, (1, 1, -2, -2) * 60]
#: words with a suffix (c, d) = (0, -1), whose j = -1 lies on the cut
SUFFIX_WORDS = [(1, 2, 1) * 2, (2, 1, 2) * 2, (-1, -2, -1) * 2, (1, 2) * 3, (-2, -1) * 9]
#: words with winding counts -2 to 2
WINDING_WORDS = [((1, -2) * 3, 0), ((2, 2, -1), 0), ((1, 2) * 3, -1), ((-2, -1) * 9, 1), ((1, 2) * 9, -2)]


def braid_word_cases() -> list[tuple[tuple[int, ...], object]]:
    """TestBranchLog's (word, point) pairs, the winding words at points of every kind, Im 0.2
    exactly among them, and long admissible words: seeded short words with identity blocks
    inserted, as in the benchmark."""
    cases = list(RANDOM_WORDS)
    cases += [(w, t) for w in LARGE_WORDS for t in (mpc(0.1, 0.2), mpc(-1.3, 0.7), mpc(0, 2))]
    cases += [(w, t) for w in SUFFIX_WORDS for t in (mpc(0, 0.2), mpc(0.45, 0.3), mpc(-0.7, 1.4))]
    cases += [(w, t) for w, _ in WINDING_WORDS for v in (0.3 + 0.4j, -1.2 + 0.25j, 2j, 0.2j, 0.5 + 0.2j)
              for t in tau_kinds(v)]
    rng, long_words = random.Random(61), 0
    blocks = ((1, 2) * 6, (2, 1) * 6, (-1, -2) * 6, (-2, -1) * 6)
    while long_words < 150:
        pieces = [(rng.choice((1, -1, 2, -2)),) for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(0, 33)):
            pieces.insert(rng.randint(0, len(pieces)), rng.choice(blocks))
        word = tuple(g for piece in pieces for g in piece)
        try:
            cases.append((word, admissible_tau(b3_to_sl2(word))))
            long_words += 1
        except ValueError:
            pass
    return cases


def branch_log_gap(word, tau) -> float:
    # j is formed from tau in the module's context, as e2_cocycle forms it: from a complex, j would be a double
    mat, turns = _read_braid(word)
    with mp.workdps(50):
        j = (mat.c * cocycles.mpc(tau) + mat.d)._mpc_
        return float(abs(cocycles._ctx.make_mpc(_branch_log(j, turns)) - reference_branch_log(word, tau)))


class TestXYPoly:
    def test_coefficients_of_the_context_are_kept(self):
        # an mpc of the module's context is stored as it is; anything else is converted
        c = cocycles.mpc(1, 2)
        p = XYPoly(2, [c, 3, mpc(0.5)])
        assert p.coeffs[0] is c
        assert [type(x) for x in p.coeffs] == [cocycles.mpc] * 3
        assert p.coeffs == (c, cocycles.mpc(3), cocycles.mpc(0.5))

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError, match="^degree must be >= 0$"):
            XYPoly(-1)
        with pytest.raises(ValueError, match="^too many coefficients for the degree$"):
            XYPoly(1, [1, 2, 3])
        for combine in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(ValueError, match="^degrees differ$"):
                combine(XYPoly(1, [1, 2]), XYPoly(2, [1, 2, 3]))

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "x", None], ids=repr)
    def test_foreign_operand_raises_type_error(self, other):
        # a sum or difference declines an operand of another class, so the TypeError names its operator
        p = XYPoly(2, [1, 2, 3])
        for op, symbol in ((operator.add, "+"), (operator.sub, "-")):
            with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
                op(p, other)
        assert p.scale(2).distance(XYPoly(2, [2, 4, 6])) == 0

    def test_equality_compares_degree_and_coefficients(self):
        p = XYPoly(2, [1, 2, 3])
        assert p == XYPoly(2, [1, 2, 3]) == XYPoly(2, [cocycles.mpc(1), 2.0, 3])
        assert p != XYPoly(2, [1, 2, 4]) and p != XYPoly(3, [1, 2, 3])
        assert p.scale(Fraction(1, 2)) == XYPoly(2, [0.5, 1, 1.5]) and p.scale(1j) == XYPoly(2, [1j, 2j, 3j])
        assert p.__eq__((1, 2, 3)) is NotImplemented and p != (1, 2, 3)

    @pytest.mark.parametrize("factor", ["x", "2", None, [2]], ids=repr)
    def test_scale_by_a_non_number_raises_type_error(self, factor):
        with pytest.raises(TypeError, match="^cannot scale by "):
            XYPoly(2, [1, 2, 3]).scale(factor)


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
        assert lhs.distance(rhs) <= cocycles._ctx.ldexp(rhs.max_abs(), -(PREC - 8))

    @pytest.mark.parametrize("g", [S, T * S * T * T * S, SL2Mat(7, -5, -11, 8), b3_to_sl2((1, -2) * 30)],
                             ids=["S", "TSTTS", "small", "large"])
    def test_each_coefficient_rounded_once(self, g):
        # the exact result, rounded once: each part within an ulp of the
        # term-by-term sum at 120 digits
        rng = random.Random(53)
        polys = [eichler_integral(E4SQ_E6SQ, 0.3 + 1.1j), eichler_integral(DELTA, -2.5 + 0.7j),
                 XYPoly(7, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.randint(-30, 30)
                            for _ in range(8)])]
        for p in polys:
            want = reference_slash_poly(p, g, 120)
            for got, w in zip(slash_poly(p, g).coeffs, want):
                for x, y in ((got.real, w.real), (got.imag, w.imag)):
                    assert abs(y - x) <= abs(y) * 2.0 ** -(PREC - 1), (p.degree, g)


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

    @pytest.mark.parametrize("entries", [(0.5, 0, 0, 2), (True, 1, 0, True), (1, Fraction(0), 0, 1), (1.0, 0, 0, 1)],
                             ids=str)
    def test_non_integer_entries_rejected(self, entries):
        # (0.5, 0; 0, 2) passed the determinant check, and slash_poly gave an X^2 coefficient of 0.0 for 0.25
        with pytest.raises(TypeError, match="^SL2Mat entries must be int$"):
            SL2Mat(*entries)

    @pytest.mark.parametrize("entries", [(2, 0, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 1), (0, 0, 0, 0)], ids=str)
    def test_determinant_other_than_one_rejected(self, entries):
        with pytest.raises(ValueError, match="^determinant must be 1$"):
            SL2Mat(*entries)

    @pytest.mark.parametrize("other", [2, "x", None, (1, 0, 0, 1)], ids=repr)
    def test_foreign_operand_raises_type_error(self, other):
        # the product declines an operand that is not an SL2Mat, so Python raises TypeError
        with pytest.raises(TypeError):
            T * other


class TestBranchLog:
    def test_matches_per_generator_reference(self):
        for word, tau in RANDOM_WORDS:
            assert branch_log_gap(word, tau) < 1e-40, (len(word), tau)

    @pytest.mark.parametrize("word", LARGE_WORDS, ids=["1,-2", "-1,2", "1,1,-2,-2"])
    def test_large_entries(self, word):
        assert max(map(abs, b3_to_sl2(word).entries())) > 10**40
        for tau in (mpc(0.1, 0.2), mpc(-1.3, 0.7), mpc(0, 2)):
            assert branch_log_gap(word, tau) < 1e-40

    @pytest.mark.parametrize("word", SUFFIX_WORDS)
    def test_suffix_through_minus_identity(self, word):
        # some suffix has (c, d) = (0, -1): its j = -1 lies on the cut
        assert any(b3_to_sl2(word[i:]).entries()[2:] == (0, -1) for i in range(len(word)))
        for tau in (mpc(0, 0.2), mpc(0.45, 0.3), mpc(-0.7, 1.4)):
            assert branch_log_gap(word, tau) < 1e-40

    @pytest.mark.parametrize("word, turns", WINDING_WORDS)
    def test_tau_of_any_kind(self, word, turns):
        # tau as an mpc of the module's context, a global mpmath mpc or a Python complex gives
        # the same branch once j is formed in the context; 2 pi i turns is added for a winding word only
        assert _read_braid(word)[1] == turns
        for value in (0.3 + 0.4j, -1.2 + 0.25j, 2j):
            kinds = (cocycles.mpc(value), mpc(value), value)
            for tau in kinds:
                assert branch_log_gap(word, tau) < 1e-40, (word, tau)
            if b3_to_sl2(word).moebius(kinds[0]).imag >= MIN_IMAG:  # e2_cocycle converts each kind alike
                assert len({e2_cocycle(word, tau) for tau in kinds}) == 1, (word, value)

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
            assert abs(eval_numeric(LogQSeries(5, {1: [1]}), 1j) - (-2 * mp.pi)) < 1e-40

    def test_e4_at_i(self):
        # E4(i) = 3 Gamma(1/4)^8 / (2 pi)^6
        with mp.workdps(50):
            want = 3 * mp.gamma(mpf(1) / 4) ** 8 / (2 * mp.pi) ** 6
            value = eval_numeric(expand(E4, 60), 1j)
            assert abs(value - want) < 1e-40

    @pytest.mark.parametrize("series", [lambda p: iter_integral((E4,), 20, p), lambda p: expand(E4**4, 20, p)],
                             ids=["I(E4)", "E4^4"])
    def test_rejects_a_series_mod_p(self, series):
        # residues summed as rationals give nonsense: -6.74e9 for I(E4) at i, whose value over Q is 5.831
        p = 2**30 - 35
        with pytest.raises(ValueError, match=f"^a series mod {p} has no numeric value$"):
            eval_numeric(series(p), 1j)

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

    @pytest.mark.parametrize("im", [0.05, 0.2, 0.3, 1, 4])
    def test_last_term_as_by_a_scan_from_the_end(self, im):
        # the scan for a part's last useful term starts where no later term can reach a unit; a part
        # whose largest coefficient c_t (bit length B) has B + bits - lead = e * (t - m) + r, 0 < r < e,
        # ends exactly at t, so a scan that starts one term earlier misses it
        rng = random.Random(round(im * 100))
        n, tau = 250, mpc(rng.uniform(-0.5, 0.5), im)
        bits = cocycles._ctx.prec + n.bit_length() + 12
        e = -cocycles._ctx.mag(cocycles._ctx.make_mpc(cocycles._parts([LogQSeries.zero(n)], cocycles._finite(tau))[0]))

        def coefficient(size):  # a random signed integer of this bit length
            return rng.choice((-1, 1)) * (rng.getrandbits(size - 1) | 1 << (size - 1)) if size else 0

        series = [iter_integral((E2,), n), iter_integral((ONE, ONE, E4SQ_E6SQ), n)]
        for _ in range(40):  # random sizes, the largest anywhere, mid-series included
            sizes = {k: [rng.choice((0, rng.randint(1, 400))) for _ in range(n + 1)] for k in range(rng.randint(1, 3))}
            series.append(LogQSeries(n, {k: [coefficient(b) for b in bs] for k, bs in sizes.items()}))
        for _ in range(40 if e >= 2 else 0):  # parts that end exactly where the scan starts
            m, lead, r = rng.randint(0, 5), rng.randint(1, 60), rng.randint(max(1, e // 2), e - 1)
            d = -(-(bits - r) // e) + rng.randint(0, 2)
            largest = e * d + r - bits + lead  # the bit length B of c_t, t = m + d
            cs = [0] * m + [coefficient(lead)] + [coefficient(rng.randint(0, largest - 1)) for _ in range(n - m)]
            cs[m + d] = coefficient(largest)
            series.append(LogQSeries(n, {0: cs, 1: cs[::-1]}))
        assert cocycles._parts(series, cocycles._finite(tau))[1] == reference_parts(series, tau)[1]

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
            with pytest.raises(ValueError, match="^tau must be finite") as error:
                call()
            assert str(error.value) == outcome(reference_finite, tau)

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
        for tau in (1e52 + 1j, complex(0.5, 2e30)):
            with pytest.raises(ValueError, match=r"^\|tau\| must be at most 1e30") as error:
                call(tau)
            assert str(error.value) == outcome(reference_finite, tau)

    def test_large_imaginary_part_still_evaluates(self):
        assert abs(complex(e2_cocycle((1,), 0.5 + 1e20j)) - (-TWO_PI_I)) < 1e-8


class TestBitIdentity:
    """The braid path, eval_numeric and the point checks call libmp on raw pairs, the call each
    mpc operator makes, so their values equal those of the mpc-operator references bit for bit."""

    def test_e2_cocycle(self):
        cases = braid_word_cases() + [(w, t) for w, _ in WINDING_WORDS for t in (1.5, -0.25, 1e30 + 0.5j)]
        evaluated = 0
        for word, tau in cases:
            got = outcome(e2_cocycle, word, tau)
            assert got == outcome(reference_e2_cocycle, word, tau), (word, tau)
            evaluated += type(got) is tuple
        assert evaluated >= 200

    def test_branch_log(self):
        for word, tau in braid_word_cases():
            mat, turns = _read_braid(word)
            j = mat.c * cocycles.mpc(tau) + mat.d
            assert _branch_log(j._mpc_, turns) == reference_branch(j, turns)._mpc_, (word, tau)

    @pytest.mark.parametrize("n_terms", [80, 300])
    @pytest.mark.parametrize("name", ["I(E2)", "E4", "E4*Delta"])
    def test_eval_numeric(self, name, n_terms):
        series = {"I(E2)": lambda: iter_integral((E2,), n_terms), "E4": lambda: expand(E4, n_terms),
                  "E4*Delta": lambda: expand(E4 * DELTA, n_terms)}[name]()
        points = [0.2j, 0.37 + 0.2j, 0.3 + 0.05j, -0.5 + 0.25j, 0.1 + 1.3j, 0.5 + 4j, 0.7 + 20j, 0.5 + 1e6j,
                  1e30 + 0.5j]
        taus = [t for v in points for t in tau_kinds(v)] + [1.5, -0.25, 1 - 1j]
        for tau in taus:
            assert outcome(eval_numeric, series, tau) == outcome(reference_eval_numeric, series, tau), tau


class TestPointChecks:
    """The raw point checks accept and refuse the points the mpc comparisons did, with the same messages."""

    @pytest.mark.parametrize("tau", [0.2j, cocycles.mpc(0, 0.2), mpc(0, 0.2)], ids=["complex", "context", "global"])
    def test_im_exactly_min_imag_accepted(self, tau):
        assert _require_upper(tau) == cocycles.mpc(tau)._mpc_
        assert outcome(e2_cocycle, (1,), tau) == reference_e2_cocycle((1,), tau)._mpc_
        assert cocycle_r(E4, T, tau).degree == 2

    @pytest.mark.parametrize("label", ["tau", "gamma.tau", "g.tau"])
    def test_just_below_min_imag_refused(self, label):
        tau = complex(0.3, math.nextafter(MIN_IMAG, 0))
        message = f"{label} must satisfy Im >= 0.2, got (0.3+0.19999999999999998j)"
        assert outcome(_require_upper, tau, label) == outcome(reference_require_upper, tau, label) == message

    def test_entry_points_refuse_just_below(self):
        below = complex(0, math.nextafter(MIN_IMAG, 0))
        for call in (lambda: e2_cocycle((1,), below), lambda: cocycle_r(E4, S, below),
                     lambda: eichler_integral(E4, below)):
            with pytest.raises(ValueError, match=r"^tau must satisfy Im >= 0.2, got 0.19999999999999998j$"):
                call()
        # S sends 2.5000001 + 2.5i to Im 2.5 / |tau|^2, just below 0.2
        tau = complex(2.5000001, 2.5)
        assert outcome(e2_cocycle, (1, 2, 1), tau) == outcome(reference_e2_cocycle, (1, 2, 1), tau)
        assert outcome(e2_cocycle, (1, 2, 1), tau).startswith("gamma.tau must satisfy Im >= 0.2, got ")


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

    FORMS = pytest.mark.parametrize("f", [E4, E6, E4 * E4, E4 * E6, E4 * E4 * E6],
                                    ids=["E4", "E6", "E8", "E10", "E14"])

    @FORMS
    # largest relative gaps measured: 1.2e-48 at 0.05 + i and 4.8e-42 at 0.1 + 0.3i, both for
    # E14, whose 80 terms leave about that much out at 0.1 + 0.3i
    @pytest.mark.parametrize("tau,bound", [(0.05 + 1j, 1e-44), (0.1 + 0.3j, 1e-39)])
    def test_matches_closed_form(self, f, tau, bound):
        ctx, want = self.closed_form(f.weight())
        got = cocycle_r(f, S, tau).coeffs
        gap = max(abs(ctx.mpc(g) - w) for g, w in zip(got, want))
        assert gap <= bound * max(map(abs, want))

    @FORMS
    def test_matches_closed_form_tightly_near_i(self, f):
        """At 0.05 + i the truncation leaves nothing visible: the exact slash and the
        fixed-point Eichler polynomial hold the gap within 1e-47."""
        self.test_matches_closed_form(f, 0.05 + 1j, 1e-47)

    @staticmethod
    def eisenstein(k: int) -> QMPoly:
        """E_k in Q[E4, E6] for k in 12, 16, 18, 20, where M_k is spanned by two monomials
        that both start 1 + O(q): their combination with E_k's q^1 coefficient."""
        first, last = [QMPoly({(0, a, (k - 4 * a) // 6): 1}) for a in range(k // 4, -1, -1) if (k - 4 * a) % 6 == 0]
        c_first, c_last, c_k = (s.coefficient(1, 0) for s in (expand(first, 1), expand(last, 1), eisenstein_qexp(k, 1)))
        x = (c_k - c_last) / (c_first - c_last)
        form = QMPoly.constant(x) * first + QMPoly.constant(1 - x) * last
        assert expand(form, 40) == eisenstein_qexp(k, 40)
        return form

    # relative gaps measured for E12, E16, E18, E20: 7.6e-49, 1.5e-47, 2.8e-47, 2.4e-46
    # at 0.05 + i and 1.7e-45, 1.2e-38, 2.0e-35, 2.8e-32 at 0.1 + 0.3i, where E16 to E20
    # are limited by the 80 terms
    @pytest.mark.parametrize("k,bounds", [(12, (1e-47, 1e-44)), (16, (1e-46, 1e-37)), (18, (1e-46, 1e-34)),
                                          (20, (1e-45, 1e-31))], ids=["E12", "E16", "E18", "E20"])
    @pytest.mark.parametrize("point", [0, 1])
    def test_matches_closed_form_with_cusp_forms(self, k, bounds, point):
        self.test_matches_closed_form(self.eisenstein(k), (0.05 + 1j, 0.1 + 0.3j)[point], bounds[point])


class TestDeltaPeriodPolynomial:
    """r_Delta(S), coefficient j of X^(10-j) Y^j, is w- times the odd polynomial
    4X^9Y - 25X^7Y^3 + 42X^5Y^5 - 25X^3Y^7 + 4XY^9 plus w+ times the even
    (36/691)(X^10 - Y^10) - X^2Y^2(X^2 - Y^2)^3, here scaled by 691 to integers.
    Within each parity the coefficients' ratios are rational; the measured
    relative gaps are 2.7e-53 to 1.2e-51 at the three points that pass."""

    ODD = {1: 4, 3: -25, 5: 42, 7: -25, 9: 4}
    EVEN = {0: 36, 2: -691, 4: 2073, 6: -2073, 8: 691, 10: -36}

    @staticmethod
    def ratio_gap(coeffs, poly):
        """How far the coefficients at poly's powers are from one multiple of poly, relative to their size."""
        r = max(poly, key=lambda j: abs(poly[j]))
        assert abs(coeffs[r]) > 1  # the period w is not zero
        return max(abs(coeffs[j] * poly[r] - coeffs[r] * poly[j]) for j in poly) / max(
            abs(coeffs[j] * poly[r]) for j in poly)

    @pytest.mark.parametrize("tau", [
        0.05 + 1j,
        0.1 + 0.5j,
        0.1 + 0.3j,
        pytest.param(0.1 + 0.2j, marks=pytest.mark.xfail(
            strict=True, reason="80 terms do not reach 50 digits at Im 0.2: relative gap about 2.5e-37")),
    ])
    def test_parities_are_multiples_of_the_period_polynomials(self, tau):
        coeffs = cocycle_r(DELTA, S, tau).coeffs
        assert self.ratio_gap(coeffs, self.ODD) < 1e-50
        assert self.ratio_gap(coeffs, self.EVEN) < 1e-50


class TestEichlerIntegral:
    def test_zero_form(self):
        p = eichler_integral(QMPoly(), 1j)
        assert p.max_abs() == 0

    def test_rejects_nonmodular(self):
        with pytest.raises(ValueError):
            eichler_integral(E2, 1j)
        with pytest.raises(ValueError):
            eichler_integral(E2 * E4, 1j)
        for constant in (ONE, QMPoly.constant(-3)):  # modular, of weight 0
            with pytest.raises(ValueError, match="^weight must be an even integer >= 4$"):
                eichler_integral(constant, 1j)

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
        want = XYPoly(got.degree, reference_eichler_integral(f, tau, 80))
        assert got.distance(want) <= 1e-40 * float(want.max_abs())

    @pytest.mark.parametrize("f", [E4, DELTA, E4SQ_E6SQ], ids=["E4", "Delta", "E4^2*E6^2"])
    @pytest.mark.parametrize("tau", [1e6 + 1j, 1e12 + 0.5j, -3e4 + 0.25j])
    def test_large_tau_keeps_relative_precision(self, f, tau):
        # the Taylor shift runs on tau / 2^s with |tau / 2^s| near 1, so the
        # coefficients, of sizes up to |tau|^(d+1), keep their digits
        got = eichler_integral(f, tau, 80)
        want = reference_eichler_integral(f, tau, 80, dps=120)
        with mp.workdps(120):
            gap = max(abs(mpc(g) - w) for g, w in zip(got.coeffs, want))
            assert gap <= 1e-40 * max(map(abs, want))

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

    def test_rejects_points_below_min_imag(self):
        # as cocycle_r does: at 0.05i, 80 terms leave only 9 of the 50 digits right
        for f in (E4, QMPoly()):
            with pytest.raises(ValueError, match=r"^tau must satisfy Im >= 0.2, got 0\.19j$"):
                eichler_integral(f, 0.19j)
        assert eichler_integral(E4, MIN_IMAG * 1j).degree == 2


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
        comps = quasimodular_cocycle(E4, (-1, -2, -1), 1j)  # the word of S
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

    def test_rejects_nonhomogeneous(self):
        with pytest.raises(ValueError):
            quasimodular_cocycle(E4 + E6, (-1, -2, -1), 1j)
        with pytest.raises(ValueError, match="^weight must be at least 2$"):  # homogeneous, of weight 0
            quasimodular_cocycle(QMPoly.constant(5), (-1, -2, -1), 1j)


class TestPointMemos:
    """Each (form, point) Eichler polynomial and each point value of log Delta
    is computed once; a cached value is the one a fresh computation gives."""

    @pytest.fixture(autouse=True)
    def empty_caches(self):
        iterqm.clear_caches()

    @pytest.mark.parametrize("f", [QMPoly({(0, 2, 2): 1}), DELTA], ids=["E4^2*E6^2", "Delta"])
    @pytest.mark.parametrize("tau", [1.3j, 0.4 + 0.9j])
    def test_cached_value_is_the_fresh_one(self, f, tau):
        first = eichler_integral(f, tau)
        assert eichler_integral(f, tau) is first
        iterqm.clear_caches()
        assert cocycles._eichler_poly.cache_info().currsize == 0
        assert repr(eichler_integral(f, tau)) == repr(first)

    def test_e2_value_after_clearing(self):
        first = e2_cocycle((1, 2, -1), 1.3j)
        iterqm.clear_caches()
        assert cocycles._minus_log_disc.cache_info().currsize == 0
        assert repr(e2_cocycle((1, 2, -1), 1.3j)) == repr(first)

    def test_complex_and_mpc_share_one_entry(self):
        first = eichler_integral(E4, 1.3j)
        assert eichler_integral(E4, mpc(1.3j)) is first
        assert eichler_integral(E4, cocycles.mpc(1.3j)) is first
        info = cocycles._eichler_poly.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)

    def test_log_disc_complex_and_mpc_share_one_entry(self):
        # the memo is keyed by the point's raw pair; the empty word's image is the point itself
        first = e2_cocycle((), 1.3j)
        for tau in (mpc(1.3j), cocycles.mpc(1.3j)):
            assert e2_cocycle((), tau)._mpc_ == first._mpc_
        info = cocycles._minus_log_disc.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 5)

    def test_truncation_is_part_of_the_key(self):
        # 5 terms leave q^6 = e(7.8i) ~ 1e-22 out
        assert repr(eichler_integral(E4, 1.3j, 5)) != repr(eichler_integral(E4, 1.3j, 80))
        assert cocycles._eichler_poly.cache_info().currsize == 2
        assert repr(e2_cocycle((1, 2, 1), 1.3j, 5)) != repr(e2_cocycle((1, 2, 1), 1.3j, 80))
        assert cocycles._minus_log_disc.cache_info().currsize == 4

    def test_one_miss_for_a_shared_base_point(self):
        tau = cocycles.mpc(1.3j)
        rng = random.Random(5)
        words = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 8))) for _ in range(20)]
        words = [w for w in words if b3_to_sl2(w).moebius(tau).imag >= MIN_IMAG]
        assert len(words) >= 10
        for word in words:
            e2_cocycle(word, tau)
        images = {b3_to_sl2(word).moebius(tau) for word in words}
        info = cocycles._minus_log_disc.cache_info()
        assert info.hits + info.misses == 2 * len(words)
        assert info.misses == len(images | {tau})

    def test_caller_precision_untouched(self):
        def values():
            return (repr(eichler_integral(DELTA, 1.3j)), repr(e2_cocycle((1, 2), 1.3j)),
                    repr(cocycle_r(E4, S, 1.3j)), repr(eval_numeric(iter_integral((E4,), 40), 0.4 + 0.9j)))

        saved = mp.dps
        try:
            mp.dps = 5
            low = values()
            assert mp.dps == 5
            mp.dps = 80
            assert values() == low
            assert mp.dps == 80
        finally:
            mp.dps = saved
        iterqm.clear_caches()
        assert values() == low
