"""The graded ring of quasimodular forms as polynomials in E2, E4, E6.

A :class:`QMPoly` is a polynomial with rational coefficients in the three
Eisenstein series, graded by weight (E2, E4, E6 have weights 2, 4, 6) and
filtered by depth (the E2-degree).  The module provides

* q-expansions (:func:`eisenstein_qexp`, and :func:`expand`, which dots a
  form's numerators with a table of at most 512 monomial expansions),
* the weight-raising derivation :func:`derive`, whose images on the
  generators are the classical Ramanujan identities,
* :func:`transform_coeffs`, the polynomial coefficients governing the
  behaviour under the modular group, built from the E2 shift by 12X,
* :func:`decompose` and :func:`derivative_decomposition`, which split any
  homogeneous form along QM = C*E2 + D(QM) + M with one inverted linear
  system per weight, and
* :func:`basis_b`, the ordered monomial basis of C*E2 + M used as the
  alphabet for canonical forms of iterated integrals.

Everything is exact: like a series, a polynomial is integer numerators over
one denominator.  q-expansions are :class:`~iterqm.qseries.LogQSeries` of
log-degree 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm

from .linear import _accumulate
from .qseries import LogQSeries, Scalar, _as_fraction, _pack

Exponents = tuple[int, int, int]  # powers of (E2, E4, E6)


class QMPoly:
    """A polynomial in E2, E4, E6 with rational coefficients.

    ``nums`` maps exponent triples (a, b, c) to nonzero integer numerators,
    all over the positive integer ``den``, with gcd(den, *nums) = 1 (so the
    zero form has den 1): equal polynomials have equal fields.  ``terms``
    is the same polynomial with Fraction coefficients, for outside readers.
    The monomial E2^a E4^b E6^c has weight 2a + 4b + 6c.  Instances are
    immutable and hashable, so they can serve as letters of bar words.
    """

    __slots__ = ("nums", "den", "_hash")

    def __new__(cls, terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()) -> "QMPoly":
        rational: dict[Exponents, Fraction] = {}
        for (a, b, c), val in terms.items() if isinstance(terms, Mapping) else terms:
            if a < 0 or b < 0 or c < 0:
                raise ValueError("negative exponents are not allowed")
            _accumulate(rational, [((int(a), int(b), int(c)), _as_fraction(val))])
        den = lcm(*(v.denominator for v in rational.values()))
        return cls._of({k: v.numerator * (den // v.denominator) for k, v in rational.items()}, den)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QMPoly is immutable")

    def __reduce__(self):
        return type(self)._of, (self.nums, self.den)

    @classmethod
    def constant(cls, value: Scalar) -> "QMPoly":
        value = _as_fraction(value)
        return cls._of({(0, 0, 0): value.numerator} if value else {}, value.denominator)

    @classmethod
    def _of(cls, nums: dict[Exponents, int], den: int = 1) -> "QMPoly":
        """Unchecked: a fresh dict of int triples to nonzero ints over den > 0;
        common factors of den and the numerators are cancelled here."""
        if den != 1 and (g := gcd(den, *nums.values())) != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
        self = object.__new__(cls)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        return self

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """A fresh dict of the coefficients as Fractions."""
        return {k: Fraction(v, self.den) for k, v in self.nums.items()}

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        # Never equal to a scalar: bar words of constants would then collide
        # with words of letter indices in the shared shuffle cache.
        if not isinstance(other, QMPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.den, frozenset(self.nums.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        bits = [f"{c}*{monomial_name(k)}" if any(k) else str(c) for k, c in sorted(self.terms.items())]
        return "QMPoly(" + (" + ".join(bits) or "0") + ")"

    def is_homogeneous(self) -> bool:
        weights = {2 * a + 4 * b + 6 * c for (a, b, c) in self.nums}
        return len(weights) <= 1

    def weight(self) -> int:
        """Weight of a homogeneous form; raises on zero or mixed input."""
        weights = {2 * a + 4 * b + 6 * c for (a, b, c) in self.nums}
        if len(weights) != 1:
            raise ValueError("weight is defined only for nonzero homogeneous forms")
        return weights.pop()

    def weight_split(self) -> dict[int, "QMPoly"]:
        """Decompose into homogeneous components, keyed by weight."""
        buckets: dict[int, dict[Exponents, int]] = {}
        for key, num in self.nums.items():
            a, b, c = key
            buckets.setdefault(2 * a + 4 * b + 6 * c, {})[key] = num
        return {w: QMPoly._of(t, self.den) for w, t in sorted(buckets.items())}

    def depth(self) -> int:
        """The E2-degree (0 for the zero form)."""
        return max((a for (a, _, _) in self.nums), default=0)

    def is_modular(self) -> bool:
        """True when no E2 occurs (depth zero)."""
        return all(a == 0 for (a, _, _) in self.nums)

    def cusp_value(self) -> Fraction:
        """The constant term of the q-expansion (every E_{2k} starts at 1)."""
        return Fraction(sum(self.nums.values()), self.den)

    def constant_part(self) -> Fraction:
        """Coefficient of the monomial 1."""
        return Fraction(self.nums.get((0, 0, 0), 0), self.den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "QMPoly":
        if isinstance(other, (int, Fraction)):
            other = QMPoly.constant(other)
        elif not isinstance(other, QMPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        out = {k: f1 * v for k, v in self.nums.items()}
        return QMPoly._of(_accumulate(out, ((k, f2 * v) for k, v in other.nums.items())), den)

    __radd__ = __add__

    def __sub__(self, other) -> "QMPoly":
        return self + -other

    def __rsub__(self, other) -> "QMPoly":
        return -self + other

    def __neg__(self) -> "QMPoly":
        return QMPoly._of({k: -v for k, v in self.nums.items()}, self.den)

    def __mul__(self, other) -> "QMPoly":
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return QMPoly._of({k: v * n for k, v in self.nums.items()} if n else {}, self.den * other.denominator)
        if not isinstance(other, QMPoly):
            return NotImplemented
        return QMPoly._of(_accumulate({}, (
            ((a1 + a2, b1 + b2, c1 + c2), v1 * v2)
            for (a1, b1, c1), v1 in self.nums.items()
            for (a2, b2, c2), v2 in other.nums.items()
        )), self.den * other.den)

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
        return QMPoly._of({(a - 1, b, c): a * v for (a, b, c), v in self.nums.items() if a}, self.den)


def monomial_name(exponents: Exponents) -> str:
    """E2^a*E4^b*E6^c without the unit exponents and absent generators."""
    return "*".join(f"{g}^{e}" if e > 1 else g for g, e in zip(("E2", "E4", "E6"), exponents) if e)


ZERO = QMPoly()
ONE = QMPoly.constant(1)
E2 = QMPoly({(1, 0, 0): 1})
E4 = QMPoly({(0, 1, 0): 1})
E6 = QMPoly({(0, 0, 1): 1})
DELTA = (E4**3 - E6**2) * Fraction(1, 1728)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0 for m = 1..n."""
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        bs.append(-sum(comb(m + 1, j) * b for j, b in enumerate(bs)) / (m + 1))
    return bs[n]


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


def eisenstein_qexp(weight: int, trunc: int) -> LogQSeries:
    """q-expansion of the normalized Eisenstein series of the given weight.

    The coefficient of q^n for n >= 1 is -(4k/B_{2k}) * sigma_{2k-1}(n)
    where weight = 2k; the constant term is 1.
    """
    if weight <= 0 or weight % 2:
        raise ValueError("Eisenstein series exist for positive even weight only")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    coeffs = [Fraction(1)] + [factor * _sigma(n, weight - 1) for n in range(1, trunc + 1)]
    return LogQSeries(trunc, {0: coeffs})


_MONOMIAL_CACHE_SIZE = 512  #: monomial q-expansions kept; a benchmark round reads 12 to 117


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _gen_power(exponents: Exponents, trunc: int, modulus: int) -> LogQSeries:
    """The q-expansion of E2^a E4^b E6^c over Z (Eisenstein coefficients are integers) or
    Z/p: one generator's power by square-and-multiply, else its generators' powers' product."""
    if not any(exponents):
        return LogQSeries.constant(1, trunc, modulus)
    powers = [tuple(e if j == i else 0 for j in range(3)) for i, e in enumerate(exponents) if e]
    if len(powers) > 1:  # at most two products of cached powers
        return reduce(LogQSeries.__mul__, (_gen_power(x, trunc, modulus) for x in powers))
    if sum(exponents) == 1:
        return eisenstein_qexp(2 + 2 * exponents.index(1), trunc).modulo(modulus)
    half = _gen_power(tuple(e // 2 for e in exponents), trunc, modulus)
    square = half * half
    return square * _gen_power(tuple(min(e, 1) for e in exponents), trunc, modulus) if sum(exponents) % 2 else square


def expand(p: QMPoly, trunc: int, modulus: int = 0) -> LogQSeries:
    """Evaluation homomorphism into q-expansions, exact at the truncation.

    Its q^m coefficient is p's integer numerators dotted with the q^m column of
    its monomials' cached expansions (:func:`_gen_power`), over p's denominator;
    a monic monomial is its cached series.  With a prime ``modulus`` the result
    is the series over Z/p (see :class:`~iterqm.qseries.LogQSeries`).
    """
    if not p.nums:
        return LogQSeries.zero(trunc, modulus)
    series, nums = [_gen_power(mono, trunc, modulus) for mono in p.nums], list(p.nums.values())
    if p.den == 1 and nums == [1]:
        return series[0]
    columns = zip(*(s.parts[0] for s in series))  # every monomial starts at 1, so no part is missing
    return LogQSeries._of(trunc, p.den, {0: tuple(sum(map(int.__mul__, nums, c)) for c in columns)}, modulus)


# Ramanujan's images of the generators under D = q d/dq, times 12 so that
# they are integral.  These are imported knowledge; the test suite validates
# them against the q-expansion oracle expand(derive(p)) == d_op(expand(p)).
_D_E2_12 = (E2 * E2 - E4).nums
_D_E4_12 = ((E2 * E4 - E6) * 4).nums
_D_E6_12 = ((E2 * E6 - E4 * E4) * 6).nums


def derive(p: QMPoly) -> QMPoly:
    """The derivation extending D on the generators; raises weight by 2."""
    # product rule: a generator of exponent e contributes e times the
    # monomial with that exponent lowered by one, times the generator's image
    return QMPoly._of(_accumulate({}, (
        ((r2 + x, r4 + y, r6 + z), num * e * v)
        for (a, b, c), num in p.nums.items()
        for e, (r2, r4, r6), image in (
            (a, (a - 1, b, c), _D_E2_12),
            (b, (a, b - 1, c), _D_E4_12),
            (c, (a, b, c - 1), _D_E6_12),
        )
        if e
        for (x, y, z), v in image.items()
    )), 12 * p.den)


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
    coeffs = [p]
    while coeffs[-1]:
        coeffs.append(coeffs[-1].d_de2() * Fraction(12, len(coeffs)))
    return coeffs[:-1]


def _monomials_of_weight(k: int) -> list[Exponents]:
    """All (a, b, c) with 2a + 4b + 6c = k, ordered lexicographically."""
    return [(a, b, (k - 2 * a - 4 * b) // 6) for a in range(k // 2 + 1) for b in range((k - 2 * a) // 4 + 1)
            if (k - 2 * a - 4 * b) % 6 == 0]


def _row_reduce(rows: list, modulus: int = 0, reduced: bool = False) -> list[int]:
    """Gaussian elimination of ``rows`` in place, a row at a time; returns the pivot columns.

    Entries are rationals (over Q), or residues in [0, p) for a prime
    ``modulus`` p.  Each row is reduced against the pivots found so far and,
    unless it vanishes, scaled to a new one with a 1 at its first nonzero
    entry, until every column has a pivot.  Row i ends with its 1 in column
    pivots[i] and zeros below it (and above it too if ``reduced``); the rows
    after the pivots are zero.  Mod p a pivot is also packed in one int, a
    byte-aligned slot of p - y per entry y, so a row update is one multiply-add.
    """
    width = len(rows[0]) if rows else 0
    size = (modulus + width * modulus**2).bit_length() // 8 + 1  # a slot's bytes: it stays below p + rank * p^2
    shifts, mask = range(0, 8 * size * width, 8 * size), (1 << 8 * size) - 1

    def reduce(row, pivots):  # the row less its multiples of the pivots: a list over Q, packed mod p
        if modulus:
            x = _pack(row, size)
            for c, _, negated in pivots:
                if f := (x >> shifts[c] & mask) % modulus:
                    x += f * negated
            return x
        row = list(row)
        for c, y, _ in pivots:
            if f := row[c]:  # y is zero left of c
                row[c:] = [a - f * b for a, b in zip(row[c:], y[c:])]
        return row

    def pivot(c: int, x) -> tuple:  # the reduced row scaled to a 1 in column c, and its packed negation
        row = [(x >> s & mask) % modulus for s in shifts] if modulus else x
        inv = pow(row[c], -1, modulus) if modulus else 1 / Fraction(row[c])
        y = [a * inv % modulus for a in row] if modulus else [a * inv for a in row]
        return c, y, modulus and _pack([-a % modulus for a in y], size)

    found, free = [], list(range(width))  # pivots (column, row, negation) as found; columns without
    for row in rows:
        x = reduce(row, found)
        if (c := next((j for j in free if ((x >> shifts[j] & mask) % modulus if modulus else x[j])), None)) is not None:
            found.append(pivot(c, x))
            free.remove(c)
            if not free:
                break
    if reduced and not free:  # every column has a pivot: the identity
        found = [(c, [int(j == c) for j in range(width)], 0) for c, _, _ in found]
    elif reduced:  # rows found later are zero in the pivot columns of earlier ones
        for i in range(len(found) - 2, -1, -1):
            found[i] = pivot(found[i][0], reduce(found[i][1], found[i + 1 :]))
    found.sort()
    rows[:] = [y for _, y, _ in found] + [[0] * width for _ in range(len(rows) - len(found))]
    return [c for c, _, _ in found]


#: Weights whose inverted system :func:`decompose` keeps (a few dozen occur).
_INVERSE_CACHE_WEIGHTS = 64


@lru_cache(maxsize=_INVERSE_CACHE_WEIGHTS)
def _decomposition_inverse(k: int) -> tuple[list[Exponents], list[Exponents], dict, int]:
    """The weight-k system of :func:`decompose`, solved once per monomial.

    Unknowns: the modular monomials of weight k, then the monomials h of
    weight k-2.  D raises the E2-degree by at most one, and the top part of
    D(E2^a E4^b E6^c) is (a + 4b + 6c)/12 * E2^(a+1) E4^b E6^c, nonzero
    for k > 2.  So a weight-k monomial is solved by peeling its top
    E2-degree part off as D of an h-part until a modular part is left.
    Returns both lists, per weight-k monomial its nonzero solution entries
    as integer numerators, and their one common denominator.
    """
    modular = [mono for mono in _monomials_of_weight(k) if mono[0] == 0]
    lower = _monomials_of_weight(k - 2)
    solutions = {}
    for mono in _monomials_of_weight(k):
        rest, h = QMPoly._of({mono: 1}), ZERO
        while top := rest.depth():
            step = QMPoly({(a - 1, b, c): Fraction(12 * v, (a - 1 + 4 * b + 6 * c) * rest.den)
                           for (a, b, c), v in rest.nums.items() if a == top})
            rest, h = rest - derive(step), h + step
        solutions[mono] = rest + h  # of weights k and k - 2: no monomial in common
    index = {mono: j for j, mono in enumerate(modular + lower)}
    den = lcm(*(x.den for x in solutions.values()))
    columns = {mono: [(index[key], v * (den // x.den)) for key, v in x.nums.items()]
               for mono, x in solutions.items()}
    return modular, lower, columns, den


def decompose(p: QMPoly) -> tuple[Fraction, QMPoly, QMPoly]:
    """Split a homogeneous form as p = c*E2 + m + derive(h), uniquely.

    m is a polynomial in E4, E6 of the same weight, h has weight k - 2,
    and c vanishes unless k = 2.  At weight 2 the derivative part is
    trivial (D kills constants), and h is normalized to 0.  The split is
    linear: the weight's system is inverted once and cached, and the
    solution sums p's numerators times their integer columns of the inverse.
    """
    if p.is_zero():
        return Fraction(0), ZERO, ZERO
    if not p.is_homogeneous():
        raise ValueError("decompose needs a homogeneous form; split by weight first")
    k = p.weight()
    if k == 2:
        return Fraction(p.nums.get((1, 0, 0), 0), p.den), ZERO, ZERO

    modular, lower, columns, den = _decomposition_inverse(k)
    sol = [0] * (len(modular) + len(lower))
    for mono, num in p.nums.items():
        for j, value in columns[mono]:
            sol[j] += num * value

    den *= p.den
    m = QMPoly._of({mono: x for mono, x in zip(modular, sol) if x}, den)
    h = QMPoly._of({mono: x for mono, x in zip(lower, sol[len(modular):]) if x}, den)
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
        letters.extend(QMPoly._of({mono: 1}) for mono in _monomials_of_weight(k) if mono[0] == 0)
    return letters


def letter_sort_key(letter: QMPoly) -> tuple[int, int, int]:
    """Total order on basis letters: weight, then E4- and E6-exponent."""
    (a, b, c) = next(iter(letter.nums))
    return (2 * a + 4 * b + 6 * c, b, c)


def is_basis_letter(p: QMPoly, modular_only: bool = False) -> bool:
    """True for 1, E2 (unless modular_only) and monic monomials E4^a E6^b."""
    if len(p.nums) != 1 or p.den != 1:
        return False
    (((a, b, c), num),) = p.nums.items()
    return num == 1 and (a == 0 or ((a, b, c) == (1, 0, 0) and not modular_only))
