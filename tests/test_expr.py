from fractions import Fraction as F

import pytest

from iterqm.expr import ExprError, eval_combo, eval_quasimodular, parse
from iterqm.iterint import BarCombo, shuffle_product_words
from iterqm.quasimodular import DELTA, E2, E4, E6, ONE, QMPoly, derive


class TestParse:
    def test_polynomial(self):
        node = parse("E4^3 - E6^2")
        assert eval_quasimodular(node) == E4**3 - E6**2

    def test_integral_with_product_letter(self):
        node = parse("I(E2, E4*E6)")
        assert eval_combo(node) == BarCombo({(E2, E4 * E6): 1})

    def test_rationals(self):
        assert eval_quasimodular(parse("1/1728*(E4^3-E6^2)")) == DELTA
        assert eval_quasimodular(parse("-3/2")) == QMPoly.constant(F(-3, 2))
        assert eval_quasimodular(parse("2-5")) == QMPoly.constant(-3)

    def test_derivative_call(self):
        assert eval_quasimodular(parse("D(E2)")) == derive(E2)
        assert eval_quasimodular(parse("D(D(E4))")) == derive(derive(E4))

    def test_whitespace(self):
        assert eval_quasimodular(parse("  E2 * ( E4 + 1 ) ")) == E2 * (E4 + ONE)

    def test_empty_integral_arguments_not_allowed(self):
        with pytest.raises(ExprError):
            parse("I()")


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
        ],
    )
    def test_syntax_error_offsets(self, text, offset):
        with pytest.raises(ExprError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_nested_integral_reports_path(self):
        with pytest.raises(ExprError) as err:
            eval_combo(parse("I(I(E2))"))
        assert err.value.path is not None
        assert "I" in err.value.path

    def test_integral_inside_derivative(self):
        with pytest.raises(ExprError) as err:
            eval_combo(parse("D(I(E2))"))
        assert err.value.path is not None

    def test_integral_in_quasimodular_context(self):
        with pytest.raises(ExprError):
            eval_quasimodular(parse("E2 + I(E4)"))


class TestEvalCombo:
    def test_product_of_integrals_is_shuffle(self):
        got = eval_combo(parse("I(E2)*I(E4)"))
        assert got == shuffle_product_words((E2,), (E4,))

    def test_power_of_integral(self):
        got = eval_combo(parse("I(1)^2"))
        assert got == BarCombo({(ONE, ONE): 2})

    def test_scalar_coefficients(self):
        got = eval_combo(parse("E2*I(E4) - 3*I(E6)"))
        assert got == BarCombo({(E4,): E2, (E6,): QMPoly.constant(-3)})

    def test_pure_polynomial_becomes_empty_word(self):
        assert eval_combo(parse("E2^2")) == BarCombo({(): E2 * E2})
