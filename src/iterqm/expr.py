"""The expression language of the command line, evaluated as it is parsed.

Grammar::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' uint)?
    atom     := 'E2' | 'E4' | 'E6' | rational
              | 'D(' expr ')' | 'I(' expr (',' expr)* ')' | '(' expr ')'
    rational := '-'? uint ('/' uint)?,  uint := [0-9]+

A ``-`` that is followed, after any whitespace, by a digit is the sign of a
rational literal, so ``-2^2`` is 4; any other leading ``-`` negates its
factor.  Each rule returns its value: where an ``I`` may occur, a
polynomial (:class:`LyndonPoly`) in integrals, each ``I(...)`` one variable
over letters numbered as read, so a product of integrals is not shuffled
out; elsewhere (in ``I`` and ``D`` arguments and in forms) a
:class:`QMPoly`.  Every error carries the byte offset where it was found.
Brackets nest at most :data:`MAX_NESTING` deep.

A term that is one monomial, an optional signed integer times generator
powers such as ``-8*E2^2*E4`` followed by ``+``, ``-``, ``,``, ``)`` or the
end, is recognised by one regular expression and built as one
:class:`QMPoly` rather than as a product of factors.  It accepts only text
that the grammar reads to the same value, so every other term, and every
error with its offset, comes from the recursive descent above.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .iterint import IntegralPoly
from .quasimodular import E2, E4, E6, ONE, QMPoly, derive
from .shuffle_lyndon import LyndonPoly

Value = QMPoly | LyndonPoly


class ExprError(ValueError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


_GENERATORS = {"E2": E2, "E4": E4, "E6": E6}
_WS = r"[ \t\n\r\f\v]*"  # characters that str.isspace() accepts too
_GEN = rf"E[246](?:{_WS}\^{_WS}[0-9]+)?"
_GENS = rf"{_GEN}(?:{_WS}\*{_WS}{_GEN})*"
#: A whole term that is a monomial, such as ``-8*E2^2*E4``: a signed integer,
#: generator powers or both, then what may follow a term.
_MONOMIAL = re.compile(rf"{_WS}(?:(-?){_WS}([0-9]+)(?:{_WS}\*{_WS}({_GENS}))?|({_GENS})){_WS}(?=[-+,)]|\Z)")
_POWERS = re.compile(rf"E([246])(?:{_WS}\^{_WS}([0-9]+))?")
#: Four parser frames per level keep this well inside the recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, integrals: bool):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets around the expression being parsed
        self.integrals = integrals  # whether an I may occur at this point
        self.letters: dict[QMPoly, int] = {}  # each integrand letter's index

    def _form(self, form: QMPoly) -> Value:
        """A form as a value: a constant polynomial where an I may occur."""
        return LyndonPoly._of({(): form} if form else {}) if self.integrals else form

    # -- lexing helpers --

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ExprError(f"expected {ch!r}", offset=self.pos)
        self.pos += 1

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ExprError("expected an unsigned integer", offset=start)
        return int(self.text[start : self.pos])

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]

    def _signs_literal(self) -> bool:
        """Whether the '-' at the current position is followed by a digit."""
        i = self.pos + 1
        while i < len(self.text) and self.text[i].isspace():
            i += 1
        return i < len(self.text) and "0" <= self.text[i] <= "9"

    # -- grammar --

    def parse(self) -> IntegralPoly | QMPoly:
        value = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprError("unexpected trailing input", offset=self.pos)
        return IntegralPoly(value, tuple(self.letters)) if self.integrals else value

    def expr(self) -> Value:
        if self.depth > MAX_NESTING:
            raise ExprError(f"brackets nested deeper than {MAX_NESTING}", offset=self.pos)
        self.depth += 1
        value = self.term()
        while (op := self._peek()) in ("+", "-"):
            self.pos += 1
            other = self.term()
            value = value - other if op == "-" else value + other
        self.depth -= 1
        return value

    def term(self) -> Value:
        if match := _MONOMIAL.match(self.text, self.pos):  # one product, built at once
            sign, digits, after_digits, alone = match.groups()
            exponents = [0, 0, 0]
            for g, e in _POWERS.findall(after_digits or alone or ""):
                exponents["246".index(g)] += int(e or 1)
            num = -int(digits) if sign else int(digits) if digits else 1
            self.pos = match.end()
            return self._form(QMPoly._of({tuple(exponents): num} if num else {}))
        value = self.factor()
        while self._peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self) -> Value:
        negate = False
        while self._peek() == "-" and not self._signs_literal():
            self.pos += 1
            negate = not negate
        value = self.atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._uint()
            value = value**exponent if exponent else self._form(ONE)
        return -value if negate else value

    def atom(self) -> Value:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self._expect(")")
            return value
        if ch == "-" or "0" <= ch <= "9":
            sign = 1
            if ch == "-":
                self.pos += 1
                sign = -1
            numerator = self._uint()
            denominator = 1
            if self._peek() == "/":
                self.pos += 1
                denominator = self._uint()
                if denominator == 0:
                    raise ExprError("zero denominator", offset=self.pos - 1)
            return self._form(QMPoly.constant(Fraction(sign * numerator, denominator)))
        if ch.isalpha():
            name = self._name()
            if name in _GENERATORS:
                return self._form(_GENERATORS[name])
            if name in ("D", "I"):
                if name == "I" and not self.integrals:
                    raise ExprError("an integral is not allowed here", offset=start)
                self._expect("(")
                # the arguments are forms: no I may occur in them
                integrals, self.integrals = self.integrals, False
                args = [self.expr()]
                while name == "I" and self._peek() == ",":
                    self.pos += 1
                    args.append(self.expr())
                self._expect(")")
                self.integrals = integrals
                if name == "D":
                    return self._form(derive(args[0]))
                if not all(args):  # the integral is multilinear: a zero letter kills it
                    return LyndonPoly.zero()
                word = tuple(self.letters.setdefault(letter, len(self.letters)) for letter in args)
                return LyndonPoly._of({(word,): ONE})
            raise ExprError(f"unknown name {name!r}", offset=start)
        raise ExprError("expected an atom", offset=start)


def parse(text: str, integrals: bool = True) -> IntegralPoly | QMPoly:
    """Parse and evaluate an expression.

    Returns an :class:`IntegralPoly` over the letters read, or with
    ``integrals=False`` a :class:`QMPoly`, in which case an ``I`` is an
    error.  Raises :class:`ExprError` with the byte offset of the fault.
    """
    return _Parser(text, integrals).parse()
