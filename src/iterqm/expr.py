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
:class:`QMPoly`.  Every error carries the UTF-8 byte offset where it was found.
Brackets nest at most :data:`MAX_NESTING` deep.

Tokens are read through one regular expression: a run of ASCII digits, a
name of ``str.isalnum`` characters, one other character, or the end.  A
term that is one monomial, such as ``-8*E2^2*E4``, followed by ``+``,
``-``, ``,``, ``)`` or the end, is built at once through another.  Both
skip whitespace as ``str.isspace`` reads it, and the second accepts only
text that the grammar reads to the same value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .iterint import IntegralPoly
from .quasimodular import E2, E4, E6, ONE, QMPoly, derive
from .shuffle_lyndon import LyndonPoly

Value = QMPoly | LyndonPoly


class ExprError(ValueError):
    def __init__(self, message: str, text: str, index: int):
        self.offset = len(text[:index].encode())  # of text[index] in UTF-8; no lone surrogate is read before a fault
        super().__init__(f"{message} (at byte {self.offset})")


_GENERATORS = {"E2": E2, "E4": E4, "E6": E6}
#: A token after any whitespace: ASCII digits, a name, one other character or the end.
_TOKEN = re.compile(r"\s*([0-9]+|[^\W_]+|.|\Z)", re.S)
_GEN = r"E[246](?:\s*\^\s*[0-9]+)?"
_GENS = rf"{_GEN}(?:\s*\*\s*{_GEN})*"
#: A whole term that is a monomial, such as ``-8*E2^2*E4``: a signed integer,
#: generator powers or both, then what may follow a term.
_MONOMIAL = re.compile(rf"\s*(?:(-?)\s*([0-9]+)(?:\s*\*\s*({_GENS}))?|({_GENS}))\s*(?=[-+,)]|\Z)")
_POWERS = re.compile(r"E([246])(?:\s*\^\s*([0-9]+))?")
#: Four parser frames per level keep this well inside the recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, integrals: bool):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets around the expression being parsed
        self.integrals = integrals  # whether an I may occur at this point
        self.letters: dict[QMPoly, int] = {}  # each integrand letter's index
        self.peeked = -1  # the position whose next token is token
        self.token, self.start, self.end = "", 0, 0

    def _form(self, form: QMPoly) -> Value:
        """A form as a value: a constant polynomial where an I may occur."""
        return LyndonPoly._of({(): form} if form else {}) if self.integrals else form

    # -- tokens --

    def _peek(self) -> str:
        """The next token ("" at the end), from start to end; ``self.pos = self.end`` consumes it."""
        if self.pos != self.peeked:
            self.peeked = self.pos
            match = _TOKEN.match(self.text, self.pos)
            self.token, self.start, self.end = match[1], match.start(1), match.end()
        return self.token

    def _expect(self, token: str) -> None:
        if self._peek() != token:
            raise ExprError(f"expected {token!r}", self.text, self.start)
        self.pos = self.end

    def _uint(self) -> int:
        if not "0" <= (token := self._peek())[:1] <= "9":
            raise ExprError("expected an unsigned integer", self.text, self.start)
        self.pos = self.end
        return int(token)

    # -- grammar --

    def whole(self, rule):
        """What ``rule`` reads, which must be the whole text."""
        value = rule()
        if self._peek():
            raise ExprError("unexpected trailing input", self.text, self.start)
        return value

    def expr(self) -> Value:
        if self.depth > MAX_NESTING:
            raise ExprError(f"brackets nested deeper than {MAX_NESTING}", self.text, self.pos)
        self.depth += 1
        value = self.term()
        while (op := self._peek()) in ("+", "-"):
            self.pos = self.end
            other = self.term()
            value = value - other if op == "-" else value + other
        self.depth -= 1
        return value

    def arguments(self) -> list[Value]:
        """expr (',' expr)*: the letters of an integral."""
        args = [self.expr()]
        while self._peek() == ",":
            self.pos = self.end
            args.append(self.expr())
        return args

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
            self.pos = self.end
            value = value * self.factor()
        return value

    def factor(self) -> Value:
        negate = signed = False
        while self._peek() == "-":
            self.pos = self.end
            if signed := "0" <= self._peek()[:1] <= "9":  # the '-' is the sign of a literal
                break
            negate = not negate
        value = -self.atom() if signed else self.atom()
        if self._peek() == "^":
            self.pos = self.end
            exponent = self._uint()
            value = value**exponent if exponent else self._form(ONE)
        return -value if negate else value

    def atom(self) -> Value:
        token = self._peek()
        start, self.pos = self.start, self.end
        if token == "(":
            value = self.expr()
            self._expect(")")
            return value
        if "0" <= token[:1] <= "9":
            denominator = 1
            if self._peek() == "/":
                self.pos = self.end
                denominator = self._uint()
                if denominator == 0:
                    raise ExprError("zero denominator", self.text, self.pos - 1)
            return self._form(QMPoly.constant(Fraction(int(token), denominator)))
        if token in _GENERATORS:
            return self._form(_GENERATORS[token])
        if token in ("D", "I"):
            if token == "I" and not self.integrals:
                raise ExprError("an integral is not allowed here", self.text, start)
            self._expect("(")
            # the arguments are forms: no I may occur in them
            integrals, self.integrals = self.integrals, False
            args = self.arguments() if token == "I" else [self.expr()]
            self._expect(")")
            self.integrals = integrals
            if token == "D":
                return self._form(derive(args[0]))
            if not all(args):  # the integral is multilinear: a zero letter kills it
                return LyndonPoly.zero()
            word = tuple(self.letters.setdefault(letter, len(self.letters)) for letter in args)
            return LyndonPoly._of({(word,): ONE})
        if token[:1].isalpha():
            raise ExprError(f"unknown name {token!r}", self.text, start)
        raise ExprError("expected an atom", self.text, start)


def parse(text: str, integrals: bool = True) -> IntegralPoly | QMPoly:
    """Parse and evaluate an expression.

    Returns an :class:`IntegralPoly` over the letters read, or with
    ``integrals=False`` a :class:`QMPoly`, in which case an ``I`` is an
    error.  Raises :class:`ExprError` with the byte offset of the fault.
    """
    parser = _Parser(text, integrals)
    value = parser.whole(parser.expr)
    return IntegralPoly(value, tuple(parser.letters)) if integrals else value


def parse_letters(text: str) -> tuple[QMPoly, ...]:
    """The letters of one word, forms separated by commas as in ``I(...)``;
    errors as in :func:`parse`."""
    parser = _Parser(text, integrals=False)
    return tuple(parser.whole(parser.arguments))
