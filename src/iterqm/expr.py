"""Parser for the small expression language of the command line.

Grammar::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := 'E2' | 'E4' | 'E6' | rational
              | 'D(' expr ')' | 'I(' expr (',' expr)* ')' | '(' expr ')'
    rational := int ('/' uint)?

Expressions evaluate either to a quasimodular polynomial or, when they
contain integral nodes, to a linear combination of bar words.  An ``I``
may not occur inside the arguments of another ``I`` (or of ``D``); such
typing errors carry the path to the offending node, while syntax errors
carry the byte offset.  Brackets nest at most :data:`MAX_NESTING` deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .iterint import BarCombo
from .quasimodular import E2, E4, E6, ONE, ZERO, QMPoly, derive


class ExprError(ValueError):
    def __init__(self, message: str, offset: int | None = None, path: str | None = None):
        self.offset = offset
        self.path = path
        where = []
        if offset is not None:
            where.append(f"at byte {offset}")
        if path is not None:
            where.append(f"in {path}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


@dataclass(frozen=True)
class Lit:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Gen:
    name: str
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    pos: int


@dataclass(frozen=True)
class Mul:
    factors: tuple["Node", ...]
    pos: int


@dataclass(frozen=True)
class Add:
    terms: tuple[tuple[int, "Node"], ...]  # (sign, node)
    pos: int


@dataclass(frozen=True)
class DCall:
    arg: "Node"
    pos: int


@dataclass(frozen=True)
class ICall:
    args: tuple["Node", ...]
    pos: int


Node = Union[Lit, Gen, Pow, Mul, Add, DCall, ICall]

_GENERATORS = {"E2": E2, "E4": E4, "E6": E6}
#: Four parser frames per level keep this well inside the recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets around the expression being parsed

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprError("expected an unsigned integer", offset=start)
        return int(self.text[start : self.pos])

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]

    # -- grammar --

    def parse(self) -> Node:
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprError("unexpected trailing input", offset=self.pos)
        return node

    def expr(self) -> Node:
        start = self.pos
        if self.depth > MAX_NESTING:
            raise ExprError(f"brackets nested deeper than {MAX_NESTING}", offset=start)
        self.depth += 1
        terms = [(1, self.term())]
        while self._peek() in ("+", "-"):
            sign = 1 if self._peek() == "+" else -1
            self.pos += 1
            terms.append((sign, self.term()))
        self.depth -= 1
        return terms[0][1] if len(terms) == 1 else Add(tuple(terms), start)

    def term(self) -> Node:
        start = self.pos
        factors = [self.factor()]
        while self._peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors), start)

    def factor(self) -> Node:
        node = self.atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._uint()
            node = Pow(node, exponent, node.pos)
        return node

    def atom(self) -> Node:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch == "-" or ch.isdigit():
            sign = 1
            if ch == "-":
                self.pos += 1
                sign = -1
                self._skip_ws()
                if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
                    raise ExprError("expected an integer after '-'", offset=self.pos)
            numerator = self._uint()
            denominator = 1
            if self._peek() == "/":
                self.pos += 1
                denominator = self._uint()
                if denominator == 0:
                    raise ExprError("zero denominator", offset=self.pos - 1)
            return Lit(Fraction(sign * numerator, denominator), start)
        if ch.isalpha():
            name = self._name()
            if name in _GENERATORS:
                return Gen(name, start)
            if name == "D":
                self._expect("(")
                node = self.expr()
                self._expect(")")
                return DCall(node, start)
            if name == "I":
                self._expect("(")
                args = [self.expr()]
                while self._peek() == ",":
                    self.pos += 1
                    args.append(self.expr())
                self._expect(")")
                return ICall(tuple(args), start)
            raise ExprError(f"unknown name {name!r}", offset=start)
        raise ExprError("expected an atom", offset=start)


def parse(text: str) -> Node:
    """Parse an expression; raises ExprError with a byte offset on bad syntax."""
    return _Parser(text).parse()


def eval_quasimodular(node: Node, path: str = "expr") -> QMPoly:
    """Evaluate to a quasimodular polynomial; integral nodes are rejected."""
    if isinstance(node, Lit):
        return QMPoly.constant(node.value)
    if isinstance(node, Gen):
        return _GENERATORS[node.name]
    if isinstance(node, Pow):
        return eval_quasimodular(node.base, path + ".^") ** node.exponent
    if isinstance(node, Mul):
        out = ONE
        for i, f in enumerate(node.factors, 1):
            out = out * eval_quasimodular(f, f"{path}.factor{i}")
        return out
    if isinstance(node, Add):
        out = ZERO
        for i, (sign, t) in enumerate(node.terms, 1):
            val = eval_quasimodular(t, f"{path}.term{i}")
            out = out + (val if sign > 0 else -val)
        return out
    if isinstance(node, DCall):
        return derive(eval_quasimodular(node.arg, path + ".D"))
    if isinstance(node, ICall):
        raise ExprError("an integral is not allowed here", path=path + ".I")
    raise TypeError(f"unknown node {node!r}")


def eval_combo(node: Node, path: str = "expr") -> BarCombo:
    """Evaluate to a bar combination; products of integrals become shuffles."""
    if isinstance(node, ICall):
        letters = tuple(
            eval_quasimodular(arg, f"{path}.I(arg {i})")
            for i, arg in enumerate(node.args, 1)
        )
        return BarCombo.word(letters)
    if isinstance(node, (Lit, Gen, DCall)):
        return BarCombo({(): eval_quasimodular(node, path)})
    if isinstance(node, Pow):
        base = eval_combo(node.base, path + ".^")
        out = BarCombo.unit()
        for _ in range(node.exponent):
            out = out.shuffle(base)
        return out
    if isinstance(node, Mul):
        out = BarCombo.unit()
        for i, f in enumerate(node.factors, 1):
            out = out.shuffle(eval_combo(f, f"{path}.factor{i}"))
        return out
    if isinstance(node, Add):
        out = BarCombo.zero()
        for i, (sign, t) in enumerate(node.terms, 1):
            val = eval_combo(t, f"{path}.term{i}")
            out = out + (val if sign > 0 else -val)
        return out
    raise TypeError(f"unknown node {node!r}")
