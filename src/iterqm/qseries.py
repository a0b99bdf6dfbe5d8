"""Exact truncated series in q with an adjoined formal logarithm.

A :class:`LogQSeries` is a polynomial in a formal variable ``L`` whose
coefficients are truncated q-expansions; a q-expansion (a quasimodular
form's, say) is the case of log-degree 0.  ``L`` stands for
``log q = 2*pi*i*tau``, so on the upper half-plane a series is a function
of ``tau``, and the differential operator

    ``D = q d/dq = (1/(2*pi*i)) d/dtau``

acts by ``D(q^m L^k) = m q^m L^k + k q^m L^(k-1)``.  :func:`primitive`
inverts ``D`` with the normalization that the coefficient of ``q^0 L^0``
vanishes; this is the regularization used for all integrals downstream.

All arithmetic is exact over the rationals: a series stores integer
numerators over one positive denominator shared by all its log-parts, and
:class:`~fractions.Fraction` appears only where values come in (the
constructor) and go out (:meth:`LogQSeries.coefficient`).  Floating point
enters only in :func:`eval_numeric`.  Series are multiplied on integers
(Kronecker substitution): each log-part is packed into one big integer
with ``2^b`` per coefficient, and each pair of parts is multiplied once.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class LogQSeries:
    """An element of W[log q] known modulo q^(trunc+1).

    ``parts`` maps the L-exponent k to the numerators of the coefficients of
    q^0 L^k, ..., q^trunc L^k, all over the positive integer ``den``.
    Identically zero parts are never stored and ``den`` is coprime to the
    numerators, so equal series have equal fields.  Binary operations
    never extend knowledge: they truncate to the smaller of the two
    operand truncations.
    """

    __slots__ = ("trunc", "den", "parts")

    def __init__(self, trunc: int, parts: Mapping[int, Iterable[Scalar]]):
        """``parts`` maps k to the rational coefficients of q^0 L^k, q^1 L^k, ...;
        missing trailing coefficients are zero."""
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        rational: dict[int, list[Fraction]] = {}
        for k, coeffs in parts.items():
            if k < 0:
                raise ValueError("negative powers of log q are not allowed")
            cs = [_as_fraction(c) for c in coeffs]
            if len(cs) > trunc + 1:
                raise ValueError("more coefficients than the truncation order allows")
            rational[k] = cs + [Fraction(0)] * (trunc + 1 - len(cs))
        den = math.lcm(*(c.denominator for cs in rational.values() for c in cs))
        numerators = {
            k: tuple(c.numerator * (den // c.denominator) for c in cs) for k, cs in rational.items()
        }
        self._set(trunc, den, numerators)

    def _set(self, trunc: int, den: int, parts: dict[int, tuple[int, ...]]) -> None:
        """Store the series, dropping zero parts and cancelling common factors."""
        parts = {k: p for k, p in parts.items() if any(p)}
        g = math.gcd(den, *(x for p in parts.values() for x in p)) if parts else den
        if g != 1:
            den //= g
            parts = {k: tuple(x // g for x in p) for k, p in parts.items()}
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, trunc: int, den: int, parts: dict[int, tuple[int, ...]]) -> "LogQSeries":
        """Unchecked: a series from integer numerators of length trunc + 1 over den > 0."""
        obj = object.__new__(cls)
        obj._set(trunc, den, parts)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LogQSeries is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "LogQSeries":
        return cls(trunc, {})

    @classmethod
    def constant(cls, value: Scalar, trunc: int) -> "LogQSeries":
        return cls(trunc, {0: [value]})

    @classmethod
    def log_power(cls, k: int, trunc: int, coeff: Scalar = 1) -> "LogQSeries":
        """coeff * L^k."""
        return cls(trunc, {k: [coeff]})

    # -- queries ----------------------------------------------------------

    def log_degree(self) -> int:
        """Largest L-exponent present (0 for the zero series)."""
        return max(self.parts, default=0)

    def coefficient(self, m: int, k: int) -> Fraction:
        """Coefficient of q^m L^k."""
        p = self.parts.get(k)
        return Fraction(p[m], self.den) if p is not None else Fraction(0)

    def is_zero(self) -> bool:
        return not self.parts

    def truncate(self, trunc: int) -> "LogQSeries":
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return LogQSeries._of(trunc, self.den, {k: p[: trunc + 1] for k, p in self.parts.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogQSeries):
            return NotImplemented
        return (self.trunc, self.den, self.parts) == (other.trunc, other.den, other.parts)

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        terms = [
            f"{self.coefficient(m, k)}*q^{m}" + (f"*L^{k}" if k else "")
            for k in sorted(self.parts)
            for m in range(self.trunc + 1)
            if self.parts[k][m]
        ]
        return f"LogQSeries({' + '.join(terms) or '0'} + O(q^{self.trunc + 1}))"

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LogQSeries") -> "LogQSeries":
        n = min(self.trunc, other.trunc)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        parts = {k: tuple(fa * x for x in p[: n + 1]) for k, p in self.parts.items()}
        for k, p in other.parts.items():
            mine = parts.get(k)
            scaled = [fb * y for y in p[: n + 1]]
            parts[k] = tuple(map(int.__add__, mine, scaled)) if mine else tuple(scaled)
        return LogQSeries._of(n, den, parts)

    def __sub__(self, other: "LogQSeries") -> "LogQSeries":
        return self + (-other)

    def __neg__(self) -> "LogQSeries":
        parts = {k: tuple(-x for x in p) for k, p in self.parts.items()}
        return LogQSeries._of(self.trunc, self.den, parts)

    def __mul__(self, other) -> "LogQSeries":
        if not isinstance(other, LogQSeries):
            return self.scale(other)
        n = min(self.trunc, other.trunc)
        if not (self.parts and other.parts):
            return LogQSeries.zero(n)
        # Every product coefficient, summed over the pairs of parts that meet
        # at one L-exponent, is at most bound in absolute value, so a slot of
        # bound's bits plus a sign and a guard bit holds it exactly.
        pairs = min(len(self.parts), len(other.parts))
        bound = pairs * (n + 1) * max(max(map(abs, p)) for p in self.parts.values()) * max(
            max(map(abs, p)) for p in other.parts.values()
        )
        bits = bound.bit_length() + 2

        def pack(p: tuple[int, ...]) -> int:
            return sum(x << bits * i for i, x in enumerate(p[: n + 1]))

        packed_b = {k: pack(p) for k, p in other.parts.items()}
        sums: dict[int, int] = {}
        for k1, p in self.parts.items():
            a = pack(p)
            for k2, b in packed_b.items():
                sums[k1 + k2] = sums.get(k1 + k2, 0) + a * b
        mask, half, low = (1 << bits) - 1, 1 << (bits - 1), (1 << bits * (n + 1)) - 1
        parts = {}
        for k, packed in sums.items():
            packed &= low  # the slots above q^n are not needed
            out = []
            for _ in range(n + 1):
                slot = packed & mask
                packed >>= bits
                if slot >= half:  # a negative slot borrowed one from the next
                    slot -= 1 << bits
                    packed += 1
                out.append(slot)
            parts[k] = tuple(out)
        return LogQSeries._of(n, self.den * other.den, parts)

    def __rmul__(self, other) -> "LogQSeries":
        return self.scale(other)

    def scale(self, c: Scalar) -> "LogQSeries":
        c = _as_fraction(c)
        num = c.numerator
        parts = {k: tuple(num * x for x in p) for k, p in self.parts.items()} if num else {}
        return LogQSeries._of(self.trunc, self.den * c.denominator, parts)


#: ``bench/tracing.py`` times series products by wrapping
#: ``qseries.QSeries.__mul__`` (its ``qseries.mul`` layer); this alias keeps
#: that hook working until the benchmark names ``LogQSeries`` itself.
QSeries = LogQSeries


def d_op(f: LogQSeries) -> LogQSeries:
    """The derivation D = q d/dq with D(L) = 1, truncation preserved."""
    parts: dict[int, tuple[int, ...]] = {}
    for k, p in f.parts.items():
        dp = tuple(m * x for m, x in enumerate(p))
        below = f.parts.get(k + 1)
        parts[k] = tuple(x + (k + 1) * y for x, y in zip(dp, below)) if below else dp
        if k >= 1 and k - 1 not in f.parts:
            parts[k - 1] = tuple(k * x for x in p)
    return LogQSeries._of(f.trunc, f.den, parts)


def primitive(f: LogQSeries) -> LogQSeries:
    """The unique g with D(g) = f and zero coefficient of q^0 L^0.

    For each q-power m the equations ``m*a_k + (k+1)*a_{k+1} = c_k`` are
    upper triangular in the log-degree; they are solved top-down for m >= 1
    and directly (raising the log-degree by one) for m = 0.  They are solved
    for ``den * a`` from the numerators of ``c``, and the result is then
    divided by ``den``.
    """
    n, top = f.trunc, f.log_degree()
    numerators = [f.parts.get(k) for k in range(top + 1)]
    out: dict[int, list[Fraction]] = {}

    def set_coeff(m: int, k: int, value: Fraction) -> None:
        if value:
            out.setdefault(k, [0] * (n + 1))[m] = value

    for k, p in enumerate(numerators):
        if p:
            # a_{k+1} = c_k / (k+1); a_0 = 0 by normalization.
            set_coeff(0, k + 1, Fraction(p[0], k + 1))
    for m in range(1, n + 1):
        above = 0  # den * a_{m, k+1}
        for k in range(top, -1, -1):
            p = numerators[k]
            c = p[m] if p else 0
            if c or above:
                above = Fraction(c - (k + 1) * above, m)
                set_coeff(m, k, above)
    return LogQSeries(n, out).scale(Fraction(1, f.den))


def eval_numeric(f: LogQSeries, tau: complex) -> complex:
    """Evaluate the truncated sum at q = exp(2*pi*i*tau), L = 2*pi*i*tau.

    Double precision; requires tau in the open upper half-plane.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    q = cmath.exp(2j * math.pi * tau)
    ell = 2j * math.pi * tau
    total = 0j
    for k, p in sorted(f.parts.items()):
        qpow = 1 + 0j
        acc = 0j
        for x in p:
            if x:
                acc += x / f.den * qpow
            qpow *= q
        total += acc * ell**k
    return total
