"""The graded ring of quasimodular forms as polynomials in E2, E4, E6.

A :class:`QMPoly` is a polynomial with rational coefficients in the three
Eisenstein series, graded by weight (E2, E4, E6 have weights 2, 4, 6) and
filtered by depth (the E2-degree).  The module provides

* q-expansions (:func:`eisenstein_qexp`, :func:`expand`),
* the weight-raising derivation :func:`derive`, whose images on the
  generators are the classical Ramanujan identities,
* :func:`transform_coeffs`, the polynomial coefficients governing the
  behaviour under the modular group, built from the E2 shift by 12X,
* :func:`decompose` and :func:`derivative_decomposition`, which split any
  homogeneous form along QM = C*E2 + D(QM) + M with one inverted linear
  system per weight, and
* :func:`basis_b`, the ordered monomial basis of C*E2 + M used as the
  alphabet for canonical forms of iterated integrals.

Everything is exact; q-expansions are :class:`~iterqm.qseries.LogQSeries`
of log-degree 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Union

from .qseries import LogQSeries

Scalar = Union[int, Fraction]
Exponents = tuple[int, int, int]  # powers of (E2, E4, E6)


class QMPoly:
    """A polynomial in E2, E4, E6 with Fraction coefficients.

    ``terms`` maps exponent triples (a, b, c) to nonzero coefficients; the
    monomial E2^a E4^b E6^c has weight 2a + 4b + 6c.  Instances are
    immutable and hashable, so they can serve as letters of bar words.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[Exponents, Fraction] = {}
        for key, val in items:
            a, b, c = key
            if a < 0 or b < 0 or c < 0:
                raise ValueError("negative exponents are not allowed")
            val = Fraction(val)
            if val != 0:
                key = (int(a), int(b), int(c))
                cleaned[key] = cleaned.get(key, Fraction(0)) + val
                if cleaned[key] == 0:
                    del cleaned[key]
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QMPoly is immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "QMPoly":
        return cls({(0, 0, 0): value})

    @classmethod
    def _of(cls, terms: dict[Exponents, Fraction]) -> "QMPoly":
        """Wrap a fresh dict of int triples to nonzero Fractions, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, QMPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == QMPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self.terms:
            return "QMPoly(0)"
        bits = []
        for (a, b, c), coeff in sorted(self.terms.items()):
            mono = "*".join(
                f"{g}^{e}" if e > 1 else g
                for g, e in (("E2", a), ("E4", b), ("E6", c))
                if e
            )
            bits.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return "QMPoly(" + " + ".join(bits) + ")"

    def is_homogeneous(self) -> bool:
        weights = {2 * a + 4 * b + 6 * c for (a, b, c) in self.terms}
        return len(weights) <= 1

    def weight(self) -> int:
        """Weight of a homogeneous form; raises on zero or mixed input."""
        weights = {2 * a + 4 * b + 6 * c for (a, b, c) in self.terms}
        if len(weights) != 1:
            raise ValueError("weight is defined only for nonzero homogeneous forms")
        return weights.pop()

    def weight_split(self) -> dict[int, "QMPoly"]:
        """Decompose into homogeneous components, keyed by weight."""
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for key, coeff in self.terms.items():
            a, b, c = key
            buckets.setdefault(2 * a + 4 * b + 6 * c, {})[key] = coeff
        return {w: QMPoly._of(t) for w, t in sorted(buckets.items())}

    def depth(self) -> int:
        """The E2-degree (0 for the zero form)."""
        return max((a for (a, _, _) in self.terms), default=0)

    def is_modular(self) -> bool:
        """True when no E2 occurs (depth zero)."""
        return all(a == 0 for (a, _, _) in self.terms)

    def cusp_value(self) -> Fraction:
        """The constant term of the q-expansion (every E_{2k} starts at 1)."""
        return sum(self.terms.values(), Fraction(0))

    def constant_part(self) -> Fraction:
        """Coefficient of the monomial 1."""
        return self.terms.get((0, 0, 0), Fraction(0))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "QMPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, val in other.terms.items():
            s = terms.get(key)
            s = val if s is None else s + val
            if s:
                terms[key] = s
            else:
                del terms[key]
        return QMPoly._of(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "QMPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QMPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "QMPoly":
        return QMPoly._of({k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "QMPoly":
        if isinstance(other, (int, Fraction)):
            return QMPoly._of({k: v * other for k, v in self.terms.items()} if other else {})
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Exponents, Fraction] = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                s = terms.get(key)
                s = v1 * v2 if s is None else s + v1 * v2
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return QMPoly._of(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QMPoly":
        if n < 0:
            raise ValueError("negative powers are not allowed")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def d_de2(self) -> "QMPoly":
        """Formal partial derivative with respect to E2."""
        return QMPoly({(a - 1, b, c): a * v for (a, b, c), v in self.terms.items() if a})


def _coerce(x) -> QMPoly | None:
    if isinstance(x, QMPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QMPoly.constant(x)
    return None


ZERO = QMPoly()
ONE = QMPoly.constant(1)
E2 = QMPoly({(1, 0, 0): 1})
E4 = QMPoly({(0, 1, 0): 1})
E6 = QMPoly({(0, 0, 1): 1})
DELTA = (E4**3 - E6**2) * Fraction(1, 1728)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, convention B_1 = -1/2.

    Computed from sum_{j=0}^{n} C(n+1, j) B_j = 0.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    acc = sum(comb(n + 1, j) * bernoulli(j) for j in range(n))
    return Fraction(-acc, n + 1)


def _sigma(n: int, k: int) -> int:
    """Divisor power sum sigma_k(n)."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


@lru_cache(maxsize=None)
def eisenstein_qexp(weight: int, trunc: int) -> LogQSeries:
    """q-expansion of the normalized Eisenstein series of the given weight.

    The coefficient of q^n for n >= 1 is -(4k/B_{2k}) * sigma_{2k-1}(n)
    where weight = 2k; the constant term is 1.
    """
    if weight <= 0 or weight % 2:
        raise ValueError("Eisenstein series exist for positive even weight only")
    k2 = weight  # = 2k
    factor = Fraction(-2 * k2, 1) / bernoulli(k2)
    coeffs = [Fraction(1)] + [factor * _sigma(n, k2 - 1) for n in range(1, trunc + 1)]
    return LogQSeries(trunc, {0: coeffs})


@lru_cache(maxsize=None)
def _gen_power(which: int, exponent: int, trunc: int) -> LogQSeries:
    """Cached powers of the generator q-expansions; which is 2, 4 or 6."""
    if exponent == 0:
        return LogQSeries.constant(1, trunc)
    if exponent == 1:
        return eisenstein_qexp(which, trunc)
    half = _gen_power(which, exponent // 2, trunc)
    sq = half * half
    return sq * eisenstein_qexp(which, trunc) if exponent % 2 else sq


def expand(p: QMPoly, trunc: int) -> LogQSeries:
    """Evaluation homomorphism into q-expansions, exact at the truncation.

    Each monomial is the product of its cached generator powers, scaled by
    its coefficient.
    """
    total = LogQSeries.zero(trunc)
    for exponents, coeff in p.terms.items():
        mono = None
        for which, e in zip((2, 4, 6), exponents):
            if e:
                power = _gen_power(which, e, trunc)
                mono = power if mono is None else mono * power
        total = total + (LogQSeries.constant(coeff, trunc) if mono is None else mono.scale(coeff))
    return total


# Ramanujan's images of the generators under D = q d/dq.  These are imported
# knowledge; the test suite validates them against the q-expansion oracle
# expand(derive(p)) == d_op(expand(p)).
_D_E2 = (E2 * E2 - E4) * Fraction(1, 12)
_D_E4 = (E2 * E4 - E6) * Fraction(1, 3)
_D_E6 = (E2 * E6 - E4 * E4) * Fraction(1, 2)


def derive(p: QMPoly) -> QMPoly:
    """The derivation extending D on the generators; raises weight by 2."""
    # product rule: a generator of exponent e contributes e times the
    # monomial with that exponent lowered by one, times the generator's image
    return QMPoly(
        ((r2 + x, r4 + y, r6 + z), coeff * e * v)
        for (a, b, c), coeff in p.terms.items()
        for e, (r2, r4, r6), image in (
            (a, (a - 1, b, c), _D_E2),
            (b, (a, b - 1, c), _D_E4),
            (c, (a, b, c - 1), _D_E6),
        )
        if e
        for (x, y, z), v in image.terms.items()
    )


def transform_coeffs(p: QMPoly) -> list[QMPoly]:
    """Coefficients f_r of the weight-k action: f transforms by sum f_r X^r.

    Since E4 and E6 are invariant and E2 shifts by 12X, the expansion is
    obtained by substituting E2 -> E2 + 12X, i.e. f_r = (12^r/r!) d^r f/dE2^r.
    The list has length depth(p) + 1 and starts with p itself.
    """
    if p.is_zero():
        return [ZERO]
    if not p.is_homogeneous():
        raise ValueError("transformation coefficients need a homogeneous form; split by weight first")
    coeffs = []
    current = p
    r = 0
    while current:
        coeffs.append(current)
        current = current.d_de2() * Fraction(12, r + 1)
        r += 1
    return coeffs


def _monomials_of_weight(k: int) -> list[Exponents]:
    """All (a, b, c) with 2a + 4b + 6c = k, ordered lexicographically."""
    out = []
    for a in range(k // 2 + 1):
        rem_a = k - 2 * a
        for b in range(rem_a // 4 + 1):
            rem = rem_a - 4 * b
            if rem % 6 == 0:
                out.append((a, b, rem // 6))
    return sorted(out)


def _row_reduce(rows: list[list], modulus: int = 0, reduced: bool = False) -> list[int]:
    """Gaussian elimination of ``rows`` in place; returns the pivot columns.

    Entries are rationals (over Q), or ints reduced mod a prime ``modulus``.
    Row i ends with a 1 in column pivots[i] and zeros below it (and above it
    too if ``reduced``: Gauss-Jordan); the rows after the pivots are zero.
    """
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        r = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        rows[top], rows[r] = rows[r], rows[top]
        inv = pow(rows[top][col], -1, modulus) if modulus else Fraction(1) / rows[top][col]
        pivot = rows[top] = [x * inv % modulus if modulus else x * inv for x in rows[top]]
        for i in range(0 if reduced else top + 1, len(rows)):
            row, f = rows[i], rows[i][col]
            if f and i != top:
                rows[i] = ([(x - f * y) % modulus for x, y in zip(row, pivot)] if modulus
                           else [x - f * y for x, y in zip(row, pivot)])
        pivots.append(col)
    return pivots


#: Weights whose inverted system :func:`decompose` keeps (a few dozen occur).
_INVERSE_CACHE_WEIGHTS = 64


@lru_cache(maxsize=_INVERSE_CACHE_WEIGHTS)
def _decomposition_inverse(k: int) -> tuple[list[Exponents], list[Exponents], dict]:
    """The weight-k system of :func:`decompose`, inverted by one Gauss-Jordan
    elimination over [M | I].  Unknowns: the modular monomials of weight k,
    then the monomials h of weight k-2 (column derive(h)).  Returns both
    lists and, per weight-k monomial, its nonzero column entries of M^-1.
    """
    target = _monomials_of_weight(k)
    index = {mono: i for i, mono in enumerate(target)}
    modular = [mono for mono in target if mono[0] == 0]
    lower = _monomials_of_weight(k - 2)
    n = len(target)
    rows = [[Fraction(0)] * n + [Fraction(int(r == i)) for i in range(n)] for r in range(n)]
    for j, mono in enumerate(modular):
        rows[index[mono]][j] = Fraction(1)
    for j, mono in enumerate(lower, len(modular)):
        for key, val in derive(QMPoly({mono: 1})).terms.items():
            rows[index[key]][j] = val
    if _row_reduce(rows, reduced=True)[:n] != list(range(n)):
        raise ArithmeticError("singular system in weight decomposition")
    columns = {mono: [(j, rows[j][n + i]) for j in range(n) if rows[j][n + i]]
               for i, mono in enumerate(target)}
    return modular, lower, columns


def decompose(p: QMPoly) -> tuple[Fraction, QMPoly, QMPoly]:
    """Split a homogeneous form as p = c*E2 + m + derive(h), uniquely.

    m is a polynomial in E4, E6 of the same weight, h has weight k - 2,
    and c vanishes unless k = 2.  At weight 2 the derivative part is
    trivial (D kills constants), and h is normalized to 0.  The split is
    linear: the weight's system is inverted once and cached, and the
    solution sums p's coefficients times their columns of the inverse.
    """
    if p.is_zero():
        return Fraction(0), ZERO, ZERO
    if not p.is_homogeneous():
        raise ValueError("decompose needs a homogeneous form; split by weight first")
    k = p.weight()
    if k == 0:
        return Fraction(0), p, ZERO
    if k == 2:
        return p.terms.get((1, 0, 0), Fraction(0)), ZERO, ZERO

    modular, lower, columns = _decomposition_inverse(k)
    sol = [Fraction(0)] * (len(modular) + len(lower))
    for mono, coeff in p.terms.items():
        for j, value in columns[mono]:
            sol[j] += coeff * value

    m = QMPoly._of({mono: x for mono, x in zip(modular, sol) if x})
    h = QMPoly._of({mono: x for mono, x in zip(lower, sol[len(modular):]) if x})
    return Fraction(0), m, h


def derivative_decomposition(p: QMPoly) -> list[tuple[Fraction, int, QMPoly]]:
    """Write a homogeneous form as sum lambda * D^order(g), g modular or E2.

    Produced by peeling off decompose() layers; the pieces reproduce the
    input exactly under derive.
    """
    if not p.is_homogeneous():
        raise ValueError("derivative decomposition needs a homogeneous form")
    components: list[tuple[Fraction, int, QMPoly]] = []
    order = 0
    current = p
    while not current.is_zero():
        c, m, h = decompose(current)
        if c:
            components.append((c, order, E2))
        if not m.is_zero():
            components.append((Fraction(1), order, m))
        current = h
        order += 1
    return components


def basis_b(max_weight: int, modular_only: bool = False) -> list[QMPoly]:
    """The ordered alphabet: 1, E2 and the monomials E4^a E6^b by weight.

    Letters are sorted by weight, and within a weight by the E4-exponent.
    ``modular_only`` drops E2.
    """
    if max_weight < 0 or max_weight % 2:
        raise ValueError("max_weight must be a non-negative even integer")
    letters: list[QMPoly] = [ONE]
    if max_weight >= 2 and not modular_only:
        letters.append(E2)
    for k in range(4, max_weight + 1, 2):
        for a in range(k // 4 + 1):
            rem = k - 4 * a
            if rem % 6 == 0:
                letters.append(QMPoly({(0, a, rem // 6): 1}))
    return letters


def letter_sort_key(letter: QMPoly) -> tuple[int, int, int]:
    """Total order on basis letters: weight, then E4- and E6-exponent."""
    if letter == ONE:
        return (0, 0, 0)
    (a, b, c) = next(iter(letter.terms))
    return (2 * a + 4 * b + 6 * c, b, c)


def is_basis_letter(p: QMPoly, modular_only: bool = False) -> bool:
    """True for 1, E2 (unless modular_only) and monic monomials E4^a E6^b."""
    if len(p.terms) != 1:
        return False
    (a, b, c), coeff = next(iter(p.terms.items()))
    if coeff != 1:
        return False
    if a == 0:
        return True
    return a == 1 and b == 0 and c == 0 and not modular_only
