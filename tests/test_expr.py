from fractions import Fraction as F

import pytest

import iterqm.shuffle_lyndon as shuffle_lyndon
from conftest import shuffle_expansion
from iterqm.expr import MAX_NESTING, ExprError, parse, parse_letters
from iterqm.quasimodular import DELTA, E2, E4, E6, ONE, QMPoly, derive
from iterqm.shuffle_lyndon import shuffle


def form(text):
    return parse(text, integrals=False)


class TestParse:
    def test_polynomial(self):
        assert form("E4^3 - E6^2") == E4**3 - E6**2

    def test_integral_with_product_letter(self):
        assert shuffle_expansion(parse("I(E2, E4*E6)")) == {(E2, E4 * E6): ONE}

    def test_rationals(self):
        assert form("1/1728*(E4^3-E6^2)") == DELTA
        assert form("-3/2") == QMPoly.constant(F(-3, 2))
        assert form("2-5") == QMPoly.constant(-3)

    def test_derivative_call(self):
        assert form("D(E2)") == derive(E2)
        assert form("D(D(E4))") == derive(derive(E4))

    def test_whitespace(self):
        assert form("  E2 * ( E4 + 1 ) ") == E2 * (E4 + ONE)

    def test_empty_integral_arguments_not_allowed(self):
        with pytest.raises(ExprError):
            parse("I()")


class TestMonomialTerms:
    """A term that is one signed integer times generator powers is built at
    once; any other term goes through the grammar, with the same values."""

    @pytest.mark.parametrize(
        "text,value",
        [
            ("-8*E2^2*E4", -8 * E2**2 * E4),
            ("E4*E4", E4**2),
            ("3", QMPoly.constant(3)),
            ("- 3 * E4 ^ 2", -3 * E4**2),
            ("0*E6", QMPoly()),
            ("-0", QMPoly()),
            ("E4^0*E6", E6),
            ("007*E6^01", 7 * E6),
            ("E2*E4 - 2*E6 + -5", E2 * E4 - 2 * E6 - 5),
            ("2^2*E4", 4 * E4),
            ("-2^2*E4", 4 * E4),
            ("3/2*E4", F(3, 2) * E4),
            ("E4*(E6)", E4 * E6),
            ("-2\u00a0*\u00a0E2^\u00a02 + E4", -2 * E2**2 + E4),
        ],
    )
    def test_value(self, text, value):
        assert (form(text).nums, form(text).den) == (value.nums, value.den)
        assert shuffle_expansion(parse(f"I({text})")) == ({(value,): ONE} if value else {})

    def test_built_without_products(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a monomial term was multiplied out")

        monkeypatch.setattr(QMPoly, "__mul__", refuse)
        monomial, integral = form("-8*E2^2*E4"), parse("I(E4*E6, 3*E2) - 2")
        spaced = form(" -8*E2^2 *\u3000E4 + E6")  # an ideographic space, as str.isspace reads it
        monkeypatch.undo()
        assert monomial.nums == {(2, 1, 0): -8}
        assert spaced.nums == {(2, 1, 0): -8, (0, 0, 1): 1}
        assert shuffle_expansion(integral) == {(E4 * E6, E2 * 3): ONE, (): -2 * ONE}


class TestUnaryMinus:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("-E4", -E4),
            ("-(E4)", -E4),
            ("E6*-E4", -E6 * E4),
            ("E4 - -E6", E4 + E6),
            ("-E4^2", -(E4**2)),
            ("--E4", E4),
            ("-D(E2)", -derive(E2)),
        ],
    )
    def test_negates_its_factor(self, text, value):
        assert form(text) == value

    @pytest.mark.parametrize(
        "text,value",
        [("-2^2", 4), ("- 2^2", 4), ("-(2^2)", -4), ("--2", 2), ("E4 -2", E4 - 2), ("E4*-1/2", E4 * F(-1, 2))],
    )
    def test_minus_before_a_digit_signs_the_literal(self, text, value):
        assert form(text) == (value if isinstance(value, QMPoly) else QMPoly.constant(value))

    def test_negated_integral(self):
        assert shuffle_expansion(parse("-I(E4)")) == {(E4,): -ONE}
        assert shuffle_expansion(parse("E2*-I(E4)")) == {(E4,): -E2}

    @pytest.mark.parametrize("count", [9_999, 10_000])
    def test_long_run_of_minus_signs(self, count):
        assert form("-" * count + "E4") == (-E4 if count % 2 else E4)
        assert shuffle_expansion(parse("-" * count + "I(E4)")) == {(E4,): -ONE if count % 2 else ONE}


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("E4 +", 4),
            ("(E4", 3),
            ("E4^", 3),
            ("E4^-1", 3),
            ("E5", 0),
            ("1/0", 2),
            ("E4 E6", 3),
            ("E4*", 3),
            ("-8*E2^2*E4 E6", 11),
            ("2*E4^2^2", 6),
            ("E24*E4", 0),
            ("\u0661", 0),  # an Arabic-Indic one is no literal, signed or not
            ("-\u0661", 1),
            ("E4 - \u0661", 5),
            ("1/\u0661", 2),
        ],
    )
    def test_syntax_error_offsets(self, text, offset):
        with pytest.raises(ExprError) as err:
            parse(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["E4^\u00b2", "E4^\u0661", "E4^\uff11"])
    def test_non_ascii_digits_are_refused(self, text):
        # superscript two, Arabic-Indic one and fullwidth one pass str.isdigit
        with pytest.raises(ExprError, match=r"^expected an unsigned integer \(at byte 3\)$") as err:
            parse(text)
        assert err.value.offset == 3

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("\u3000E5", 3),  # an ideographic space is three bytes of UTF-8
            ("\u00a0 E5", 3),
            ("(\u2003E4", 6),
            ("E4*\u00b2", 3),  # ASCII before the fault: the code-point index
        ],
    )
    def test_offsets_count_utf8_bytes(self, text, offset):
        with pytest.raises(ExprError, match=rf"\(at byte {offset}\)$") as err:
            parse(text)
        assert err.value.offset == offset

    def test_letters_offsets_count_utf8_bytes(self):
        with pytest.raises(ExprError, match=r"^unknown name 'E5' \(at byte 6\)$") as err:
            parse_letters("E4,\u3000E5")
        assert err.value.offset == 6

    def test_nested_integral_reports_offset(self):
        with pytest.raises(ExprError, match=r"at byte 2\)") as err:
            parse("I(I(E2))")
        assert err.value.offset == 2

    def test_integral_inside_derivative(self):
        with pytest.raises(ExprError) as err:
            parse("D(I(E2))")
        assert err.value.offset == 2

    def test_integral_in_quasimodular_context(self):
        with pytest.raises(ExprError) as err:
            form("E2 + I(E4)")
        assert err.value.offset == 5

    def test_nesting_limit(self):
        assert form("(" * MAX_NESTING + "E4" + ")" * MAX_NESTING) == E4
        assert form("D(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == QMPoly()
        with pytest.raises(ExprError) as err:
            form("(" * (MAX_NESTING + 1) + "E4" + ")" * (MAX_NESTING + 1))
        assert err.value.offset == MAX_NESTING + 1  # where the innermost expression starts


class TestEvalCombo:
    def test_product_of_integrals_is_shuffle(self):
        assert shuffle_expansion(parse("I(E2)*I(E4)")) == {w: QMPoly.constant(m) for w, m in shuffle((E2,), (E4,)).items()}

    def test_power_of_integral(self):
        assert shuffle_expansion(parse("I(1)^2")) == {(ONE, ONE): QMPoly.constant(2)}
        assert shuffle_expansion(parse("I(1)^0")) == {(): ONE}

    def test_scalar_coefficients(self):
        got = shuffle_expansion(parse("E2*I(E4) - 3*I(E6)"))
        assert got == {(E4,): E2, (E6,): QMPoly.constant(-3)}

    def test_products_stay_unexpanded(self):
        got = parse("I(E4,E6)^12")
        assert got.poly.terms == {((0, 1),) * 12: ONE}
        assert got.basis == (E4, E6)

    def test_parse_leaves_the_shuffle_cache_alone(self, monkeypatch):
        # products of integrals stay unexpanded: parsing shuffles nothing
        calls = []
        monkeypatch.setattr(shuffle_lyndon, "_shuffle", lambda *args: calls.append(args))
        parse("2*I(E4) + E6*I(E6,E4) + I(E4)*I(E6)^2")
        assert calls == []

    def test_pure_polynomial_becomes_empty_word(self):
        assert shuffle_expansion(parse("E2^2")) == {(): E2 * E2}
        assert shuffle_expansion(parse("E2 - E2")) == {}
