"""Cocycles of modular and quasimodular forms, evaluated numerically.

For a modular form f of weight k, the regularized integral from tau to the
cusp of ``(2*pi*i)^(k-1) f(t) (X - tY)^(k-2) dt`` is a homogeneous
polynomial in X, Y (:func:`eichler_integral`); the difference

    r_f(gamma) = P(tau) - P(gamma.tau)|gamma

is independent of tau and satisfies the cocycle relation
``r(g1 g2) = r(g1)|g2 + r(g2)`` (:func:`cocycle_r`).

The weight-two Eisenstein series is not modular; its transformation defect
is a homomorphism not of the modular group but of the braid group on three
strands, which surjects onto it with central kernel.  :func:`e2_cocycle`
computes that homomorphism from the continuous branch of the logarithm of
the discriminant form, together with a branch of log(c*tau + d) assembled
along the braid word; its values lie in 2*pi*i times the integers.  A
general homogeneous quasimodular form is handled componentwise through its
expression in derivatives of modular forms and of the weight-two series
(:func:`quasimodular_cocycle`).

All computations run at a fixed working precision well beyond double:
the slash action mixes coefficients spanning many orders of magnitude
(powers of matrix entries times powers of tau), and the cocycle relation
cancels those almost completely, so double precision cannot certify the
1e-8 tolerances this module is tested at.  The 50 digits come from a
private mpmath context: the module neither reads nor changes mpmath's
process-wide precision, so a caller's precision is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Iterable, Sequence, Union

from mpmath import MPContext

from .quasimodular import E2, QMPoly, derivative_decomposition, expand

#: Working precision (decimal digits) for all cocycle arithmetic.
WORKING_DPS = 50

#: Default number of q-expansion terms used in the integrals.
DEFAULT_TERMS = 80

#: Smallest imaginary part accepted for evaluation points.
MIN_IMAG = 0.2

_ctx = MPContext()
_ctx.dps = WORKING_DPS
mpc, mpf, pi, exp, log = _ctx.mpc, _ctx.mpf, _ctx.pi, _ctx.exp, _ctx.log


@dataclass(frozen=True)
class SL2Mat:
    """An integer matrix (a, b; c, d) of determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other: "SL2Mat") -> "SL2Mat":
        return SL2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def moebius(self, tau):
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = SL2Mat(1, 0, 0, 1)
T = SL2Mat(1, 1, 0, 1)
S = SL2Mat(0, -1, 1, 0)


class XYPoly:
    """A homogeneous polynomial in X, Y; coefficient j belongs to X^(d-j) Y^j."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable = ()):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        cs = [mpc(c) for c in coeffs]
        if len(cs) > degree + 1:
            raise ValueError("too many coefficients for the degree")
        cs.extend([mpc(0)] * (degree + 1 - len(cs)))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("XYPoly is immutable")

    @classmethod
    def zero(cls, degree: int = 0) -> "XYPoly":
        return cls(degree)

    def __add__(self, other: "XYPoly") -> "XYPoly":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return XYPoly(self.degree, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return XYPoly(self.degree, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "XYPoly":
        return XYPoly(self.degree, [-x for x in self.coeffs])

    def scale(self, factor) -> "XYPoly":
        if isinstance(factor, Fraction):
            factor = mpf(factor.numerator) / factor.denominator
        factor = mpc(factor)
        return XYPoly(self.degree, [factor * x for x in self.coeffs])

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=mpf(0))

    def distance(self, other: "XYPoly") -> float:
        """Max-coefficient distance; degrees must agree."""
        return float((self - other).max_abs())

    def __repr__(self) -> str:
        d = self.degree
        bits = [f"({c})*X^{d - j}*Y^{j}" for j, c in enumerate(self.coeffs)]
        return "XYPoly(" + " + ".join(bits) + ")"


def slash_poly(poly: XYPoly, g: SL2Mat) -> XYPoly:
    """The right action P(X, Y) -> P(aX + bY, cX + dY)."""
    d = poly.degree
    a, b, c, dd = g.entries()
    out = [mpc(0)] * (d + 1)
    for j, coeff in enumerate(poly.coeffs):
        if coeff == 0:
            continue
        # (aX+bY)^(d-j) convolved with (cX+dY)^j, by Y-degree.
        first = [comb(d - j, t) * a ** (d - j - t) * b**t for t in range(d - j + 1)]
        second = [comb(j, t) * c ** (j - t) * dd**t for t in range(j + 1)]
        for t1, u in enumerate(first):
            if u == 0:
                continue
            for t2, v in enumerate(second):
                if v:
                    out[t1 + t2] += coeff * (u * v)
    return XYPoly(d, out)


def _require_upper(tau, label: str = "tau") -> mpc:
    tau = mpc(tau)
    if tau.imag < MIN_IMAG:
        raise ValueError(f"{label} must satisfy Im >= {MIN_IMAG}, got {complex(tau)}")
    return tau


def eichler_integral(f: QMPoly, tau, n_terms: int = DEFAULT_TERMS) -> XYPoly:
    """Regularized integral of the weighted form of a modular f, from tau.

    Termwise: a coefficient a_n q^n contributes a closed-form polynomial in
    tau from repeated integration by parts; the constant term a_0 tau^m is
    assigned the regularized primitive -a_0 tau^(m+1)/(m+1).
    """
    if f.is_zero():
        return XYPoly.zero(0)
    if not f.is_modular():
        raise ValueError("the Eichler integral needs a modular form (depth 0)")
    k = f.weight()
    if k < 4 or k % 2:
        raise ValueError("weight must be an even integer >= 4")
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    d = k - 2
    coeffs = expand(f, n_terms).coeffs
    two_pi_i = 2j * pi
    q = exp(two_pi_i * tau)

    # sums[r] = sum_{n >= 1} a_n q^n / (2 pi i n)^(r+1)
    sums = [mpc(0)] * (d + 1)
    qn = mpc(1)
    for n in range(1, n_terms + 1):
        qn *= q
        an = coeffs[n]
        if an == 0:
            continue
        cn = two_pi_i * n
        term = mpf(an.numerator) / an.denominator * qn
        for r in range(d + 1):
            term /= cn
            sums[r] += term

    # integrals I_j = int_tau^{i oo} f(t) t^j dt; integrating q^n t^j by
    # parts j times gives -q^n sum_r (-1)^r j!/(j-r)! t^(j-r) / (2 pi i n)^(r+1)
    a0 = mpf(coeffs[0].numerator) / coeffs[0].denominator
    tau_pow = [mpc(1)]
    for _ in range(d + 1):
        tau_pow.append(tau_pow[-1] * tau)
    front = two_pi_i ** (k - 1)
    out = []
    for j in range(d + 1):
        integral = -a0 * tau_pow[j + 1] / (j + 1) - sum(
            (-1) ** r * perm(j, r) * tau_pow[j - r] * sums[r] for r in range(j + 1)
        )
        out.append(front * comb(d, j) * (-1) ** j * integral)
    return XYPoly(d, out)


def cocycle_r(f: QMPoly, g: SL2Mat, tau, n_terms: int = DEFAULT_TERMS) -> XYPoly:
    """The modular cocycle value r_f(g), computed from the base point tau.

    Requires Im(tau) and Im(g.tau) at least 0.2; the result does not
    depend on tau.
    """
    tau = _require_upper(tau)
    gtau = g.moebius(tau)
    _require_upper(gtau, "g.tau")
    p_here = eichler_integral(f, tau, n_terms)
    p_there = eichler_integral(f, gtau, n_terms)
    return p_here - slash_poly(p_there, g)


# --- braid group ----------------------------------------------------------

B3Word = tuple[int, ...]  # entries in {1, -1, 2, -2} for the generators

_GEN_MATS = {
    1: SL2Mat(1, 1, 0, 1),
    -1: SL2Mat(1, -1, 0, 1),
    2: SL2Mat(1, 0, -1, 1),
    -2: SL2Mat(1, 0, 1, 1),
}


def b3_to_sl2(word: Iterable[int]) -> SL2Mat:
    """Image of a braid word under the projection to the modular group."""
    out = IDENTITY
    for g in word:
        if g not in _GEN_MATS:
            raise ValueError(f"unknown braid generator {g!r}")
        out = out * _GEN_MATS[g]
    return out


def _branch_log(word: B3Word, tau) -> mpc:
    """The branch of log(c*tau + d) the braid word selects.

    Generators use the principal branch (their c*tau + d never meets the
    negative real axis on the upper half-plane); words compose by
    l_{w1 w2}(tau) = l_{w1}(gamma_{w2} tau) + l_{w2}(tau), read here from
    the right, one generator at a time, with ``rest`` the exact matrix of
    the suffix read so far.
    """
    total = mpc(0)
    rest = IDENTITY
    for g in reversed(word):
        m = _GEN_MATS[g]
        total = log(m.c * rest.moebius(tau) + m.d) + total
        rest = m * rest
    return total


def _log_disc(tau, n_terms: int) -> mpc:
    """Continuous branch of the logarithm of the discriminant form."""
    two_pi_i = 2j * pi
    q = exp(two_pi_i * tau)
    total = two_pi_i * tau
    qn = mpc(1)
    for n in range(1, n_terms + 1):
        qn *= q
        total += 24 * log(1 - qn)
    return total


def e2_cocycle(word: Iterable[int], tau, n_terms: int = DEFAULT_TERMS) -> mpc:
    """The braid-group cocycle of the weight-two Eisenstein series.

    With F the numeric value of the regularized integral of the weight-two
    series (a branch of minus the log of the discriminant), the value is

        F(gamma.tau) - F(tau) + 12 * l_word(tau),

    which is independent of tau, additive in the word, and lies in
    2*pi*i*Z.
    """
    word = tuple(word)
    mat = b3_to_sl2(word)
    tau = _require_upper(tau)
    gtau = mat.moebius(tau)
    _require_upper(gtau, "gamma.tau")
    f_here = -_log_disc(tau, n_terms)
    f_there = -_log_disc(gtau, n_terms)
    return f_there - f_here + 12 * _branch_log(word, tau)


def quasimodular_cocycle(
    f: QMPoly,
    gamma: Union[SL2Mat, Iterable[int]],
    tau,
    n_terms: int = DEFAULT_TERMS,
) -> list[XYPoly]:
    """Cocycle components of a homogeneous quasimodular form.

    The form is written as a sum of repeated derivatives of modular forms
    and of the weight-two series; each modular piece of weight w
    contributes its scaled cocycle in degree w - 2, and the weight-two
    piece contributes the braid cocycle as a degree-0 polynomial.  The
    braid piece requires ``gamma`` to be a braid word; a bare matrix does
    not determine it.
    """
    if not f.is_homogeneous() or f.is_zero():
        raise ValueError("a nonzero homogeneous quasimodular form is required")
    if f.weight() < 2:
        raise ValueError("weight must be at least 2")
    if isinstance(gamma, SL2Mat):
        word, mat = None, gamma
    else:
        word = tuple(gamma)
        mat = b3_to_sl2(word)
    out: list[XYPoly] = []
    for lam, _order, g in derivative_decomposition(f):
        if g == E2:
            if word is None:
                raise ValueError(
                    "the E2 component needs a braid word, not just a matrix"
                )
            out.append(XYPoly(0, [lam * e2_cocycle(word, tau, n_terms)]))
        else:
            out.append(cocycle_r(g, mat, tau, n_terms).scale(Fraction(lam)))
    return out


def admissible_tau(g: SL2Mat, candidates: Sequence[complex] = ()) -> mpc:
    """A point with Im(tau) and Im(g.tau) both >= 0.2, preferring candidates.

    Falls back to a point centered for the translation part when c = 0.
    """
    pool = list(candidates) or [
        mpc(0, 1.3),
        mpc(0, 1),
        mpc(0.4, 0.9),
        mpc(0, 2),
        mpc(-0.5, 1.1),
        mpc(0.5, 1.1),
    ]
    for tau in pool:
        tau = mpc(tau)
        if tau.imag >= MIN_IMAG and g.moebius(tau).imag >= MIN_IMAG:
            return tau
    if g.c == 0:
        return mpc(-mpf(g.b) / (2 * g.d), 2)
    # center the pair (tau, g.tau) around the fixed-size geodesic
    tau = mpc(-mpf(g.d) / g.c, 1 / abs(g.c))
    if tau.imag >= MIN_IMAG and g.moebius(tau).imag >= MIN_IMAG:
        return tau
    raise ValueError(f"no admissible evaluation point found for {g}")
