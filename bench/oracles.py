"""Reference computations made apart from iterqm.

Nothing here imports iterqm.  Quasimodular forms are plain dicts
``{(a, b, c): Fraction}`` for ``E2^a E4^b E6^c``; a q/log-q series is a
dict ``{k: [c_0, ..., c_N]}`` mapping the power of ``L = log q`` to its
q-coefficients.  Coefficients live in a :class:`Field`: exact rationals,
or integers modulo a prime for the rank certificate.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

#: A Mersenne prime, far above every denominator the workloads produce.
PRIME = (1 << 61) - 1

# Classical normalisations: E2 = 1 - 24 sum sigma_1(n) q^n,
# E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum sigma_5(n) q^n.
_EISENSTEIN = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}


def sigma(n: int, k: int) -> int:
    """Sum of the k-th powers of the divisors of n."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


class Field:
    """Exact rationals (``p is None``) or the integers modulo the prime ``p``."""

    def __init__(self, p: int | None = None):
        self.p = p

    def of(self, x) -> object:
        x = Fraction(x)
        if self.p is None:
            return x
        if x.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by the prime")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def div(self, x, n: int):
        if self.p is None:
            return x / n
        return x * pow(n, -1, self.p) % self.p

    def norm(self, x):
        return x if self.p is None else x % self.p


class SeriesOracle:
    """q-expansions and regularised iterated integrals truncated at ``q^N``."""

    def __init__(self, n: int, field: Field | None = None):
        self.n = n
        self.field = field or Field()
        self._powers: dict[tuple[int, int], list] = {}

    def eisenstein(self, weight: int) -> list:
        factor, k = _EISENSTEIN[weight]
        return [self.field.of(1)] + [
            self.field.of(factor * sigma(m, k)) for m in range(1, self.n + 1)
        ]

    def mul(self, a: list, b: list) -> list:
        out = [self.field.of(0)] * (self.n + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(self.n + 1 - i):
                    out[i + j] += x * b[j]
        return [self.field.norm(c) for c in out]

    def _power(self, weight: int, e: int) -> list:
        key = (weight, e)
        if key not in self._powers:
            if e == 0:
                self._powers[key] = [self.field.of(1)] + [self.field.of(0)] * self.n
            else:
                self._powers[key] = self.mul(self._power(weight, e - 1), self.eisenstein(weight))
        return self._powers[key]

    def expand(self, poly: dict) -> list:
        """q-expansion of a polynomial in E2, E4, E6."""
        out = [self.field.of(0)] * (self.n + 1)
        for (a, b, c), coeff in poly.items():
            mono = self.mul(self.mul(self._power(2, a), self._power(4, b)), self._power(6, c))
            k = self.field.of(coeff)
            out = [self.field.norm(x + k * y) for x, y in zip(out, mono)]
        return out

    def times(self, f: list, series: dict) -> dict:
        """A q-series times a q/log-q series."""
        return {k: self.mul(f, part) for k, part in series.items()}

    def add(self, s: dict, t: dict) -> dict:
        out = dict(s)
        for k, part in t.items():
            out[k] = [self.field.norm(x + y) for x, y in zip(out[k], part)] if k in out else part
        return out

    def primitive(self, h: dict) -> dict:
        """The g with D g = h and zero coefficient of q^0 L^0.

        D(q^m L^k) = m q^m L^k + k q^m L^(k-1), so for m >= 1 the
        coefficients solve m g_{m,k} + (k+1) g_{m,k+1} = h_{m,k} from the
        top L-degree down, and for m = 0, (k+1) g_{0,k+1} = h_{0,k}.
        """
        top = max(h, default=0)
        zero = self.field.of(0)
        g = {k: [zero] * (self.n + 1) for k in range(top + 2)}
        for k in range(top + 1):
            g[k + 1][0] = self.field.div(h.get(k, [zero])[0], k + 1)
        for m in range(1, self.n + 1):
            above = zero
            for k in range(top, -1, -1):
                hk = h[k][m] if k in h else zero
                above = self.field.div(self.field.norm(hk - (k + 1) * above), m)
                g[k][m] = above
        return g

    def integral(self, word: list) -> dict:
        """I(f1, ..., fn) from D I(f1..fn) = -f1 * I(f2..fn) and I() = 1."""
        one = [self.field.of(1)] + [self.field.of(0)] * self.n
        value = {0: one}
        for letter in reversed(word):
            minus_f = [self.field.norm(-x) for x in self.expand(letter)]
            value = self.primitive(self.times(minus_f, value))
        return value

    def combination(self, terms: list) -> dict:
        """Sum of coeff * I(word) over ``[(coeff_poly, [letter_poly, ...]), ...]``."""
        total: dict = {}
        for coeff, word in terms:
            total = self.add(total, self.times(self.expand(coeff), self.integral(word)))
        return total


def as_terms(series: dict) -> dict:
    """Nonzero coefficients of a q/log-q series as ``{(m, k): value}``."""
    return {(m, k): c for k, part in series.items() for m, c in enumerate(part) if c}


def rank_mod_p(rows: list, p: int = PRIME) -> int:
    """Rank of an integer matrix reduced modulo p, by Gaussian elimination.

    Rank mod p never exceeds the rank over Q, so a row count reached here
    certifies full rank over Q.
    """
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


def is_lyndon_by_rotation(word: tuple) -> bool:
    """A Lyndon word is nonempty and strictly smaller than its other rotations."""
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def e2_cocycle_closed_form(word: tuple) -> complex:
    """-2*pi*i times the exponent sum: B3's abelianisation sends each generator to 1."""
    exponent_sum = sum(1 if g > 0 else -1 for g in word)
    return -2j * cmath.pi * exponent_sum
