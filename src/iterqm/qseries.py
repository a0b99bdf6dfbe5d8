"""Exact truncated series in q with an adjoined formal logarithm.

The basic objects are truncated q-expansions with rational coefficients
(:class:`QSeries`) and polynomials in a formal variable ``L`` whose
coefficients are such expansions (:class:`LogQSeries`).  ``L`` stands for
``log q = 2*pi*i*tau``, so on the upper half-plane a ``LogQSeries`` is a
function of ``tau``, and the differential operator

    ``D = q d/dq = (1/(2*pi*i)) d/dtau``

acts by ``D(q^m L^k) = m q^m L^k + k q^m L^(k-1)``.  :func:`primitive`
inverts ``D`` with the normalization that the coefficient of ``q^0 L^0``
vanishes; this is the regularization used for all integrals downstream.

All arithmetic is exact over the rationals.  Floating point enters only in
:func:`eval_numeric`.  Series are multiplied on integers (Kronecker
substitution): both operands are scaled to integers, packed into one big
integer each with ``2^b`` per coefficient, and multiplied once.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class QSeries:
    """A power series in q known modulo q^(trunc+1), with Fraction coefficients.

    Binary operations never extend knowledge: they truncate to the smaller
    of the two operand truncations.
    """

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: int, coeffs: Iterable[Scalar] = ()):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > trunc + 1:
            raise ValueError("more coefficients than the truncation order allows")
        cs.extend([_ZERO] * (trunc + 1 - len(cs)))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls(trunc, ())

    @classmethod
    def constant(cls, value: Scalar, trunc: int) -> "QSeries":
        return cls(trunc, [value])

    @classmethod
    def monomial(cls, coeff: Scalar, power: int, trunc: int) -> "QSeries":
        """coeff * q^power, or zero if power exceeds the truncation."""
        if power > trunc:
            return cls.zero(trunc)
        cs = [_ZERO] * (power + 1)
        cs[power] = _as_fraction(coeff)
        return cls(trunc, cs)

    # -- queries -------------------------------------------------------

    def __getitem__(self, m: int) -> Fraction:
        return self.coeffs[m]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, trunc: int) -> "QSeries":
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return QSeries(trunc, self.coeffs[: trunc + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.trunc, self.coeffs))

    def __repr__(self) -> str:
        terms = [f"{c}*q^{m}" for m, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O(q^{self.trunc + 1}))"

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        n = min(self.trunc, other.trunc)
        return QSeries(n, [self.coeffs[m] + other.coeffs[m] for m in range(n + 1)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        n = min(self.trunc, other.trunc)
        return QSeries(n, [self.coeffs[m] - other.coeffs[m] for m in range(n + 1)])

    def __neg__(self) -> "QSeries":
        return QSeries(self.trunc, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, LogQSeries):
            return NotImplemented
        if isinstance(other, QSeries):
            n = min(self.trunc, other.trunc)
            a, da = _integer_coeffs(self.coeffs[: n + 1])
            b, db = _integer_coeffs(other.coeffs[: n + 1])
            bound = max(map(abs, a)) * max(map(abs, b)) * (n + 1)
            if not bound:
                return QSeries.zero(n)
            # Each product coefficient is at most bound in absolute value, so a
            # slot of bound's bits plus a sign and a guard bit holds it exactly.
            bits = bound.bit_length() + 2
            packed = math.prod(sum(x << bits * i for i, x in enumerate(xs)) for xs in (a, b))
            mask, half, d = (1 << bits) - 1, 1 << (bits - 1), da * db
            out = []
            for _ in range(n + 1):
                slot = packed & mask
                packed >>= bits
                if slot >= half:  # a negative slot borrowed one from the next
                    slot -= 1 << bits
                    packed += 1
                out.append(Fraction(slot, d))
            return QSeries(n, out)
        return self.scale(other)

    def __rmul__(self, other) -> "QSeries":
        return self.scale(other)

    def scale(self, c: Scalar) -> "QSeries":
        c = _as_fraction(c)
        return QSeries(self.trunc, [c * x for x in self.coeffs])

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = QSeries.constant(1, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def q_derivative(self) -> "QSeries":
        """Apply q d/dq coefficientwise."""
        return QSeries(self.trunc, [m * c for m, c in enumerate(self.coeffs)])


def _integer_coeffs(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers x and a denominator d with coeffs[i] == x[i] / d (d the lcm)."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def split(f: QSeries) -> tuple[Fraction, QSeries]:
    """Separate the constant term: f = f_inf + f0 with f0 vanishing at q=0."""
    rest = [_ZERO] + list(f.coeffs[1:])
    return f.coeffs[0], QSeries(f.trunc, rest)


class LogQSeries:
    """An element of W[log q]: a polynomial in L with QSeries coefficients.

    ``parts`` maps the L-exponent k to the q-series coefficient of L^k;
    identically zero parts are never stored, and all parts share the same
    truncation order.
    """

    __slots__ = ("trunc", "parts")

    def __init__(self, trunc: int, parts: Mapping[int, QSeries]):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        cleaned: dict[int, QSeries] = {}
        for k, series in parts.items():
            if k < 0:
                raise ValueError("negative powers of log q are not allowed")
            if series.trunc < trunc:
                raise ValueError("part truncated below the series truncation")
            series = series.truncate(trunc) if series.trunc > trunc else series
            if not series.is_zero():
                cleaned[k] = series
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "parts", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LogQSeries is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "LogQSeries":
        return cls(trunc, {})

    @classmethod
    def constant(cls, value: Scalar, trunc: int) -> "LogQSeries":
        return cls(trunc, {0: QSeries.constant(value, trunc)})

    @classmethod
    def from_qseries(cls, f: QSeries) -> "LogQSeries":
        return cls(f.trunc, {0: f})

    @classmethod
    def log_power(cls, k: int, trunc: int, coeff: Scalar = 1) -> "LogQSeries":
        """coeff * L^k."""
        return cls(trunc, {k: QSeries.constant(coeff, trunc)})

    # -- queries ----------------------------------------------------------

    def part(self, k: int) -> QSeries:
        return self.parts.get(k, QSeries.zero(self.trunc))

    def log_degree(self) -> int:
        """Largest L-exponent present (0 for the zero series)."""
        return max(self.parts, default=0)

    def coefficient(self, m: int, k: int) -> Fraction:
        """Coefficient of q^m L^k."""
        p = self.parts.get(k)
        return p.coeffs[m] if p is not None else _ZERO

    def is_zero(self) -> bool:
        return not self.parts

    def truncate(self, trunc: int) -> "LogQSeries":
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return LogQSeries(trunc, self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogQSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.parts == other.parts

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        if not self.parts:
            return f"LogQSeries(0 + O(q^{self.trunc + 1}))"
        chunks = []
        for k in sorted(self.parts):
            chunks.append(f"L^{k}*({self.parts[k]!r})" if k else repr(self.parts[k]))
        return "LogQSeries(" + " + ".join(chunks) + ")"

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LogQSeries") -> "LogQSeries":
        n = min(self.trunc, other.trunc)
        keys = set(self.parts) | set(other.parts)
        parts = {k: self.part(k).truncate(n) + other.part(k).truncate(n) for k in keys}
        return LogQSeries(n, parts)

    def __sub__(self, other: "LogQSeries") -> "LogQSeries":
        return self + (-other)

    def __neg__(self) -> "LogQSeries":
        return LogQSeries(self.trunc, {k: -p for k, p in self.parts.items()})

    def __mul__(self, other) -> "LogQSeries":
        if isinstance(other, LogQSeries):
            n = min(self.trunc, other.trunc)
            parts: dict[int, QSeries] = {}
            for k1, p1 in self.parts.items():
                for k2, p2 in other.parts.items():
                    prod = p1.truncate(n) * p2.truncate(n)
                    k = k1 + k2
                    parts[k] = parts[k] + prod if k in parts else prod
            return LogQSeries(n, parts)
        if isinstance(other, QSeries):
            return self * LogQSeries.from_qseries(other)
        return self.scale(other)

    def __rmul__(self, other) -> "LogQSeries":
        if isinstance(other, QSeries):
            return LogQSeries.from_qseries(other) * self
        return self.scale(other)

    def scale(self, c: Scalar) -> "LogQSeries":
        c = _as_fraction(c)
        if c == 0:
            return LogQSeries.zero(self.trunc)
        return LogQSeries(self.trunc, {k: p.scale(c) for k, p in self.parts.items()})


def as_logq(f: Union[QSeries, LogQSeries]) -> LogQSeries:
    return f if isinstance(f, LogQSeries) else LogQSeries.from_qseries(f)


def d_op(f: Union[QSeries, LogQSeries]) -> LogQSeries:
    """The derivation D = q d/dq with D(L) = 1, truncation preserved."""
    f = as_logq(f)
    parts: dict[int, QSeries] = {}
    for k, p in f.parts.items():
        dp = p.q_derivative()
        parts[k] = parts[k] + dp if k in parts else dp
        if k >= 1:
            lower = p.scale(k)
            parts[k - 1] = parts[k - 1] + lower if k - 1 in parts else lower
    return LogQSeries(f.trunc, parts)


def primitive(f: Union[QSeries, LogQSeries]) -> LogQSeries:
    """The unique g with D(g) = f and zero coefficient of q^0 L^0.

    For each q-power m the equations ``m*a_k + (k+1)*a_{k+1} = c_k`` are
    upper triangular in the log-degree; they are solved top-down for m >= 1
    and directly (raising the log-degree by one) for m = 0.
    """
    f = as_logq(f)
    n = f.trunc
    top = f.log_degree()
    # result coefficients a[m][k]; the L-degree can exceed top by one (m=0).
    out: dict[int, list[Fraction]] = {}

    def set_coeff(m: int, k: int, value: Fraction) -> None:
        if value != 0:
            out.setdefault(k, [_ZERO] * (n + 1))[m] = value

    for m in range(n + 1):
        if m == 0:
            # a_{k+1} = c_k / (k+1); a_0 = 0 by normalization.
            for k in range(top + 1):
                set_coeff(0, k + 1, f.coefficient(0, k) / (k + 1))
        else:
            above = _ZERO  # a_{m, k+1}
            for k in range(top, -1, -1):
                a = (f.coefficient(m, k) - (k + 1) * above) / m
                set_coeff(m, k, a)
                above = a
    return LogQSeries(n, {k: QSeries(n, cs) for k, cs in out.items()})


def eval_numeric(f: Union[QSeries, LogQSeries], tau: complex) -> complex:
    """Evaluate the truncated sum at q = exp(2*pi*i*tau), L = 2*pi*i*tau.

    Double precision; requires tau in the open upper half-plane.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    f = as_logq(f)
    q = cmath.exp(2j * math.pi * tau)
    ell = 2j * math.pi * tau
    total = 0j
    for k, p in sorted(f.parts.items()):
        qpow = 1 + 0j
        acc = 0j
        for c in p.coeffs:
            if c != 0:
                acc += float(c) * qpow
            qpow *= q
        total += acc * ell**k
    return total
