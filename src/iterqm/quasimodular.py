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
  form along QM = C*E2 + D(QM) + M, a direct sum in each weight, monomial
  by monomial with one cached integer peel each, and
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
from operator import index

from .linear import _accumulate, _power
from .qseries import LogQSeries, Scalar, _as_fraction

Exponents = tuple[int, int, int]  # powers of (E2, E4, E6)


class QMPoly:
    """A polynomial in E2, E4, E6 with rational coefficients.

    ``nums`` maps exponent triples (a, b, c) to nonzero integer numerators,
    all over the positive integer ``den``, with gcd(den, *nums) = 1 (so the
    zero form has den 1): equal polynomials have equal fields.  ``terms``
    is the same polynomial with Fraction coefficients, for outside readers.
    The monomial E2^a E4^b E6^c has weight 2a + 4b + 6c and depth a, and a
    form's depth is its largest a.  Instances are immutable and hashable,
    so they can serve as letters of bar words.
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
        # Never equal to a scalar: bar words of constants would then equal
        # words of letter indices, as dict keys too.
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

    def is_modular(self) -> bool:
        """True when no E2 occurs (depth zero)."""
        return all(a == 0 for (a, _, _) in self.nums)

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
        if (n := index(n)) < 0:
            raise ValueError("negative powers are not allowed")
        return _power(self, n) if n else ONE

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


def eisenstein_qexp(weight: int, trunc: int) -> LogQSeries:
    """q-expansion of the normalized Eisenstein series of the given weight.

    The coefficient of q^n for n >= 1 is -(4k/B_{2k}) * sigma_{2k-1}(n)
    where weight = 2k; the constant term is 1.
    """
    if weight <= 0 or weight % 2:
        raise ValueError("Eisenstein series exist for positive even weight only")
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    sigma = [0] * (trunc + 1)  # sigma_{2k-1}(n), summed by one sieve over the divisors d <= trunc
    for d in range(1, trunc + 1):
        power = d ** (weight - 1)
        for n in range(d, trunc + 1, d):
            sigma[n] += power
    num, den = factor.numerator, factor.denominator
    return LogQSeries._of(trunc, den, {0: (den, *(num * s for s in sigma[1:]))})


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
    return QMPoly._of(_derive12(p.nums), 12 * p.den)


def _derive12(nums: dict[Exponents, int]) -> dict[Exponents, int]:
    """12 times D of the polynomial with these numerators, as a fresh dict of numerators."""
    # product rule: a generator of exponent e contributes e times the
    # monomial with that exponent lowered by one, times the generator's image
    return _accumulate({}, (
        ((r2 + x, r4 + y, r6 + z), num * e * v)
        for (a, b, c), num in nums.items()
        for e, (r2, r4, r6), image in (
            (a, (a - 1, b, c), _D_E2_12),
            (b, (a, b - 1, c), _D_E4_12),
            (c, (a, b, c - 1), _D_E6_12),
        )
        if e
        for (x, y, z), v in image.items()
    ))


def transform_coeffs(p: QMPoly) -> list[QMPoly]:
    """Coefficients f_r of the weight-k action: f transforms by sum f_r X^r.

    Since E4 and E6 are invariant and E2 shifts by 12X, the expansion is
    obtained by substituting E2 -> E2 + 12X, i.e. f_r = (12^r/r!) d^r f/dE2^r.
    The list has length depth(p) + 1 and starts with p itself.
    """
    if p.is_zero():
        return [ZERO]
    if not p.is_homogeneous():
        raise ValueError("transformation coefficients need a homogeneous form")
    coeffs = [p]
    while coeffs[-1]:
        coeffs.append(coeffs[-1].d_de2() * Fraction(12, len(coeffs)))
    return coeffs[:-1]


_SPLIT_CACHE_MONOMIALS = 2048  #: monomial splits kept; a soundness round splits 119-123, weights <= 60 hold 1,041


@lru_cache(maxsize=_SPLIT_CACHE_MONOMIALS)
def _monomial_split(mono: Exponents) -> tuple[tuple, tuple, int]:
    """One monomial of weight k as m + derive(h): numerators of m (basis letters
    of weight k) and of h (weight k - 2) over one denominator.

    D raises the E2-degree by at most one, and the top part of D(E2^a E4^b E6^c)
    is (a + 4b + 6c)/12 * E2^(a+1) E4^b E6^c, nonzero for k > 2.  So the monomial
    is split by peeling its top E2-degree part off as D of an h-part until a
    modular part is left, on integer numerators; E2 (k = 2) is its own part.
    The (monomial, numerator) pairs are tuples, as the cache shares them.
    """
    rest, h, d = {mono: 1}, {}, 1  # numerators over d
    while mono != (1, 0, 0) and (top := max((a for a, _, _ in rest), default=0)):
        tops = {(a - 1, b, c): v for (a, b, c), v in rest.items() if a == top}
        scale = 12 * lcm(*(a + 4 * b + 6 * c for a, b, c in tops))
        step = {m: v * scale // (m[0] + 4 * m[1] + 6 * m[2]) for m, v in tops.items()}  # over d * scale / 12
        rest = _accumulate({m: v * scale for m, v in rest.items()}, ((m, -v) for m, v in _derive12(step).items()))
        h = _accumulate({m: v * scale for m, v in h.items()}, ((m, 12 * v) for m, v in step.items()))
        d *= scale
    g = gcd(d, *rest.values(), *h.values())
    return tuple((m, v // g) for m, v in rest.items()), tuple((m, v // g) for m, v in h.items()), d // g


def _split(p: QMPoly) -> tuple[dict[Exponents, int], dict[Exponents, int], int]:
    """p = m + derive(h), m of basis letters (E2 at weight 2, the constant at weight 0):
    m's and h's numerators over one denominator, the sums of p's monomials' cached
    splits over the lcm of their denominators."""
    splits = [(num, _monomial_split(mono)) for mono, num in p.nums.items()]
    den = lcm(*(d for _, (_, _, d) in splits))
    m, h = {}, {}
    for num, (mono_m, mono_h, d) in splits:
        f = num * (den // d)
        for mono, v in mono_m:
            m[mono] = m.get(mono, 0) + f * v
        for mono, v in mono_h:
            h[mono] = h.get(mono, 0) + f * v
    return {k: v for k, v in m.items() if v}, {k: v for k, v in h.items() if v}, den * p.den


def decompose(p: QMPoly) -> tuple[Fraction, QMPoly, QMPoly]:
    """Split a form as p = c*E2 + m + derive(h), uniquely.

    m is a polynomial in E4, E6, and h has no constant term (D kills
    constants); a monomial of weight k gives m of weight k and h of weight
    k - 2, and only k = 2 gives c.  The sum is direct in each weight, so the
    split is unique and linear: the sum of the monomials' splits (:func:`_split`).
    """
    if not isinstance(p, QMPoly):
        raise TypeError(f"expected a QMPoly, got {type(p).__name__}")
    m, h, den = _split(p)
    return Fraction(m.pop((1, 0, 0), 0), den), QMPoly._of(m, den), QMPoly._of(h, den)


def derivative_decomposition(p: QMPoly) -> list[tuple[Fraction, int, QMPoly]]:
    """Write a form as sum lambda * D^order(g), g modular or E2.

    Produced by peeling off decompose() layers; the pieces reproduce the
    input exactly under derive.
    """
    components: list[tuple[Fraction, int, QMPoly]] = []
    order = 0
    while True:
        c, m, h = decompose(p)
        if c:
            components.append((c, order, E2))
        if not m.is_zero():
            components.append((Fraction(1), order, m))
        if h.is_zero():
            return components
        p, order = h, order + 1


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
        letters.extend(QMPoly._of({(0, b, (k - 4 * b) // 6): 1}) for b in range(k // 4 + 1) if (k - 4 * b) % 6 == 0)
    return letters


def letter_sort_key(letter: QMPoly) -> tuple[int, int, int]:
    """Total order on basis letters: weight, then E4- and E6-exponent."""
    (a, b, c) = next(iter(letter.nums))
    return (2 * a + 4 * b + 6 * c, b, c)


def is_basis_letter(p: QMPoly) -> bool:
    """True for 1, E2 and monic monomials E4^a E6^b."""
    if len(p.nums) != 1 or p.den != 1:
        return False
    (((a, b, c), num),) = p.nums.items()
    return num == 1 and (a == 0 or (a, b, c) == (1, 0, 0))
