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
numerators over one positive denominator shared by all its log-parts;
:class:`~fractions.Fraction` appears only where values come in (the
constructor) and go out (:meth:`LogQSeries.coefficient`), and floating
point only in :func:`iterqm.cocycles.eval_numeric`, outside this module.
A series with a prime ``modulus`` is the same series over Z/p: its
numerators are residues, the denominator folded in, and :func:`primitive`
multiplies by inverses of 1..N mod p (exact rank certificates read their
rows this way).  The constructors, sums, scaling and :func:`d_op`
normalize what they build; mod p, the product, negation and
:func:`primitive` store the residues they compute, each reduced once.
Series are multiplied on integers (Kronecker substitution): each log-part
is packed into one big integer, ``2^b`` per coefficient, and each pair of
parts is multiplied once.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import chain, compress, islice
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _pack(residues: Sequence[int], size: int, modulus: int) -> int:
    """Residues mod ``modulus`` as the slots of one int, ``size`` bytes each, the first lowest: one ``struct.pack``
    call, a little-endian uint32 and size - 4 zero bytes a slot, where the slots and a modulus up to 2^32 allow it."""
    if size < 4 or modulus > 1 << 32:  # else one int.to_bytes per residue
        return int.from_bytes(b"".join(r.to_bytes(size, "little") for r in residues), "little")
    return int.from_bytes(struct.pack("<" + f"I{size - 4}x" * len(residues), *residues), "little")


class LogQSeries:
    """An element of W[log q] known modulo q^(trunc+1).

    ``parts`` maps the L-exponent k to the numerators of the coefficients of
    q^0 L^k, ..., q^trunc L^k, all over the positive integer ``den``.
    Identically zero parts are never stored and ``den`` is coprime to the
    numerators, so equal series have equal fields.  Binary operations
    never extend knowledge: they truncate to the smaller of the two
    operand truncations.

    ``modulus`` is 0 for a series over Q, or a prime p for its image over
    Z/p, made by :meth:`modulo`: then ``den`` is 1 and the numerators are
    residues in [0, p), which the product, negation and :func:`primitive`
    store as they compute them.  A denominator divisible by p raises
    ZeroDivisionError, and operations mixing two rings raise ValueError.
    """

    __slots__ = ("trunc", "den", "parts", "modulus")

    def __init__(self, trunc: int, parts: Mapping[int, Iterable[Scalar]]):
        """``parts`` maps k to the rational coefficients of q^0 L^k, q^1 L^k, ...;
        missing trailing coefficients are zero.  The series is over Q; :meth:`modulo` reduces it mod p."""
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

    def _set(self, trunc: int, den: int, parts: dict[int, tuple[int, ...]], modulus: int = 0) -> None:
        """Normalize and store, for the constructors (modulo, constant, scale, expand), sums and d_op: drop zero parts
        and cancel common factors, or modulo a prime reduce the numerators times den^-1."""
        if modulus:
            if den % modulus == 0:
                raise ZeroDivisionError(f"denominator {den} is not invertible mod {modulus}")
            u, den, reduce = pow(den, -1, modulus), 1, modulus.__rmod__
            scaled = parts.items() if u == 1 else ((k, map(u.__mul__, p)) for k, p in parts.items())
            parts = {k: r for k, p in scaled if any(r := tuple(map(reduce, p)))}  # u = 1: only reduced
        else:
            parts = {k: p for k, p in parts.items() if any(p)}
            nums = [*chain.from_iterable(parts.values())]
            g = math.gcd(math.gcd(den, sum(nums)), *nums)  # den with the sum first: a small multiple of g, often 1
            if g != 1:
                den //= g
                parts = {k: tuple(x // g for x in p) for k, p in parts.items()}
        self._store(trunc, den, parts, modulus)

    def _store(self, *fields) -> "LogQSeries":
        """Store the fields as they are and return the series: normalized already, as mod-p products compute them."""
        for name, value in zip(LogQSeries.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _of(cls, trunc: int, den: int, parts: dict[int, tuple[int, ...]], modulus: int = 0) -> "LogQSeries":
        """Unchecked: a series from integer numerators of length trunc + 1 over den > 0."""
        obj = object.__new__(cls)
        obj._set(trunc, den, parts, modulus)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LogQSeries is immutable")

    def __reduce__(self):
        return type(self)._of, (self.trunc, self.den, self.parts, self.modulus)

    def _ring(self, other: "LogQSeries") -> int:
        """The modulus both operands share."""
        if self.modulus != other.modulus:
            raise ValueError(f"cannot combine series mod {self.modulus} and mod {other.modulus} (0: over Q)")
        return self.modulus

    def modulo(self, modulus: int) -> "LogQSeries":
        """This series over Z/modulus for a prime modulus, or itself for 0."""
        if modulus == self.modulus:
            return self
        if self.modulus:
            raise ValueError(f"a series mod {self.modulus} has no image mod {modulus}")
        return LogQSeries._of(self.trunc, self.den, self.parts, modulus)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, trunc: int, modulus: int = 0) -> "LogQSeries":
        return cls.constant(0, trunc, modulus)

    @classmethod
    def constant(cls, value: Scalar, trunc: int, modulus: int = 0) -> "LogQSeries":
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        value = _as_fraction(value)
        return cls._of(trunc, value.denominator, {0: (value.numerator,) + (0,) * trunc}, modulus)

    # -- queries ----------------------------------------------------------

    def log_degree(self) -> int:
        """Largest L-exponent present (0 for the zero series)."""
        return max(self.parts, default=0)

    def coefficient(self, m: int, k: int) -> Fraction:
        """Coefficient of q^m L^k (its residue, for a series mod p)."""
        p = self.parts.get(k)
        return Fraction(p[m], self.den) if p is not None else Fraction(0)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogQSeries):
            return NotImplemented
        return (self.trunc, self.den, self.parts, self.modulus) == (other.trunc, other.den, other.parts,
                                                                     other.modulus)

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        terms = [
            f"{self.coefficient(m, k)}*q^{m}" + (f"*L^{k}" if k else "")
            for k in sorted(self.parts)
            for m in range(self.trunc + 1)
            if self.parts[k][m]
        ]
        ring = f" mod {self.modulus}" if self.modulus else ""
        return f"LogQSeries({' + '.join(terms) or '0'} + O(q^{self.trunc + 1}){ring})"

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LogQSeries") -> "LogQSeries":
        if not isinstance(other, LogQSeries):
            return NotImplemented
        modulus = self._ring(other)
        n = min(self.trunc, other.trunc)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        parts = {k: tuple(fa * x for x in p[: n + 1]) for k, p in self.parts.items()}
        for k, p in other.parts.items():
            mine = parts.get(k)
            scaled = [fb * y for y in p[: n + 1]]
            parts[k] = tuple(map(int.__add__, mine, scaled)) if mine else tuple(scaled)
        return LogQSeries._of(n, den, parts, modulus)

    def __sub__(self, other: "LogQSeries") -> "LogQSeries":
        if not isinstance(other, LogQSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogQSeries":
        m = self.modulus  # -x over Q, and p - x mod p for x != 0, keep every part nonzero and the series normalized
        parts = {k: tuple(x and m - x for x in p) if m else tuple(map(int.__neg__, p)) for k, p in self.parts.items()}
        return object.__new__(LogQSeries)._store(self.trunc, self.den, parts, m)

    def __mul__(self, other) -> "LogQSeries":
        if not isinstance(other, LogQSeries):
            return self.scale(other)
        modulus = self._ring(other)
        n = min(self.trunc, other.trunc)
        if not (self.parts and other.parts):
            return LogQSeries.zero(n, modulus)
        for c, f in ((self, other), (other, self)):
            if c.parts.keys() == {0} and not any(c.parts[0][1 : n + 1]):  # a constant scales
                num = c.parts[0][0]
                if num == c.den == 1 and f.trunc == n:
                    return f
                parts = {k: tuple(num * x for x in p[: n + 1]) for k, p in f.parts.items()}
                return LogQSeries._of(n, c.den * f.den, parts, modulus)
        # Every product coefficient, summed over the pairs of parts that meet at one L-exponent, is at most
        # bound in absolute value (residues are below the modulus), so a slot of bound's bits plus a sign and
        # a guard bit holds it exactly; residues are packed by their bytes, in whole bytes.
        pairs = min(len(self.parts), len(other.parts))
        bound = pairs * (n + 1) * (
            (modulus - 1) ** 2 if modulus else max(max(map(abs, p)) for p in self.parts.values()) * max(
                max(map(abs, p)) for p in other.parts.values()))
        bits = (bound.bit_length() + 9) // 8 * 8 if modulus else bound.bit_length() + 2
        shifts = range(0, bits * (n + 1), bits)

        def pack(p: tuple[int, ...]) -> int:
            return _pack(p[: n + 1], bits // 8, modulus) if modulus else sum(map(int.__lshift__, p[: n + 1], shifts))

        packed_b = {k: pack(p) for k, p in other.parts.items()}
        sums: dict[int, int] = {}
        for k1, p in self.parts.items():
            a = pack(p)
            for k2, b in packed_b.items():
                sums[k1 + k2] = sums.get(k1 + k2, 0) + a * b
        mask, half, low = (1 << bits) - 1, 1 << (bits - 1), (1 << bits * (n + 1)) - 1  # slots above q^n: not needed
        if modulus:  # no slot is negative: one to_bytes of the sum gives every slot, each reduced once
            size, parts = bits // 8, {}
            high = {9: "B", 10: "H", 12: "I", 16: "Q"}.get(size)  # struct reads the slot as 8 low bytes and the rest
            for k, packed in sums.items():
                data = (packed & low).to_bytes(size * (n + 1), "little")
                if high:
                    u = iter(struct.unpack("<" + ("Q" + high) * (n + 1), data))
                    r = tuple([(lo + (hi << 64)) % modulus for lo, hi in zip(u, u)])
                else:
                    r = tuple(int.from_bytes(data[i : i + size], "little") % modulus for i in range(0, len(data), size))
                if any(r):  # a part that vanishes mod p is dropped
                    parts[k] = r
            return object.__new__(LogQSeries)._store(n, 1, parts, modulus)
        parts = {}
        for k, packed in sums.items():
            packed &= low
            out = []
            for _ in range(n + 1):
                slot = packed & mask
                packed >>= bits
                if slot >= half:  # a negative slot borrowed one from the next
                    slot -= 1 << bits
                    packed += 1
                out.append(slot)
            parts[k] = tuple(out)
        return LogQSeries._of(n, self.den * other.den, parts, modulus)

    def __rmul__(self, other) -> "LogQSeries":
        return self.scale(other)

    def scale(self, c: Scalar) -> "LogQSeries":
        c = _as_fraction(c)
        num = c.numerator
        parts = {k: tuple(num * x for x in p) for k, p in self.parts.items()} if num else {}
        return LogQSeries._of(self.trunc, self.den * c.denominator, parts, self.modulus)


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
    return LogQSeries._of(f.trunc, f.den, parts, f.modulus)


def primitive(f: LogQSeries) -> LogQSeries:
    """The unique g with D(g) = f and zero coefficient of q^0 L^0.

    For each q-power m the equations ``m*a_k + (k+1)*a_{k+1} = c_k`` are upper
    triangular in the log-degree; they are solved directly (raising the log-degree
    by one) for m = 0 and top-down, an L-part at a time, for m >= 1.  Over Q they are
    solved in integers for ``den * S * a`` with exact division, S clearing the
    divisions that occur: k + 1 for each nonzero q^0 L^k coefficient, m^(j+1) for a
    q^m column whose highest nonzero coefficient is at L^j.  Over Z/p they are solved
    by a table of the inverses of 1..max(trunc, log-degree + 1); a division by a
    multiple of p raises ZeroDivisionError.
    """
    n, parts, modulus, zero = f.trunc, f.parts, f.modulus, (0,) * (f.trunc + 1)
    if modulus:
        if any(c[m] for k, c in parts.items() for m in range((k + 1) % modulus and modulus, n + 1, modulus)):
            raise ZeroDivisionError(f"the primitive divides by a multiple of {modulus}")  # k + 1 at m = 0
        inv = [0, 1]  # 1/i = -(p // i) * 1/(p % i) for i < p
        for i in range(2, max(n, max(parts, default=0) + 1) + 1):
            inv.append(inv[i % modulus] if i >= modulus else -(modulus // i) * inv[modulus % i] % modulus)
        out = {k + 1: [c[0] * inv[k + 1] % modulus] + [0] * n for k, c in parts.items()}  # D(L^(k+1)) = (k+1) L^k
        for k in range(max(parts, default=-1), -1, -1):  # the q^m for m >= 1, an L-part at a time
            rhs = map(int.__sub__, parts.get(k, zero), map((k + 1).__mul__, out.get(k + 1, zero)))
            out.setdefault(k, [0] * (n + 1))[1:] = islice(map(modulus.__rmod__, map(int.__mul__, rhs, inv)), 1, None)
        return object.__new__(LogQSeries)._store(n, 1, {k: tuple(a) for k, a in out.items() if any(a)}, modulus)
    highest = {m: k for k in sorted(parts) for m in compress(range(1, n + 1), parts[k][1:])}  # q^m's top L-power
    scale = math.lcm(*(k + 1 for k, p in parts.items() if p[0]), *(m ** (j + 1) for m, j in highest.items()))
    out = {k + 1: [scale * p[0] // (k + 1)] + [0] * n for k, p in parts.items()}  # a_0 = 0 by normalization
    for k in range(max(highest.values(), default=-1), -1, -1):  # the q^m for m >= 1, an L-part at a time
        below = map((k + 1).__mul__, out.get(k + 1, zero)[1:])
        rhs = map(int.__sub__, map(scale.__mul__, parts.get(k, zero)[1:]), below)
        out.setdefault(k, [0] * (n + 1))[1:] = map(int.__floordiv__, rhs, range(1, n + 1))
    return LogQSeries._of(n, f.den * scale, {k: tuple(a) for k, a in out.items()})
