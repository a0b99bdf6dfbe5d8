"""Cocycles of modular and quasimodular forms, evaluated numerically.

For a modular form f of weight k, the regularized integral from tau to the
cusp of ``(2*pi*i)^(k-1) f(t) (X - tY)^(k-2) dt`` is a homogeneous
polynomial in X, Y (:func:`eichler_integral`); the difference

    r_f(gamma) = P(tau) - P(gamma.tau)|gamma

is independent of tau and satisfies the cocycle relation
``r(g1 g2) = r(g1)|g2 + r(g2)`` (:func:`cocycle_r`).  Its coefficients are
read from the engine's own exact iterated integrals I(1, ..., 1, f) of
:mod:`iterqm.iterint`, whose cusp regularization is Eichler's.

The weight-two Eisenstein series is not modular; its transformation defect
is a homomorphism not of the modular group but of the braid group on three
strands, which surjects onto it with central kernel.  :func:`e2_cocycle`
computes it from log Delta = -I(E2), continuous by construction, and the
branch of log(c*tau + d) the braid word selects: one log plus 2*pi*i
times a winding count read from integer signs in one pass over the word.
Its values lie in 2*pi*i*Z.  A general homogeneous quasimodular form is handled componentwise
through its expression in derivatives of modular forms and of the
weight-two series (:func:`quasimodular_cocycle`).

All computations run at a fixed working precision well beyond double:
the slash action mixes coefficients spanning many orders of magnitude
(powers of matrix entries times powers of tau), and the cocycle relation
cancels those almost completely, so double precision cannot certify the
1e-8 tolerances this module is tested at.  Exact series become numbers
in one place, :func:`eval_numeric`, at q = e(tau) and L = 2*pi*i*tau: each
log-part is summed by Horner on Python integers in fixed-point q, with
guard bits, and rounded to a number once.  The 50 digits come from a
private mpmath context: the module neither reads nor changes mpmath's
process-wide precision, so a caller's precision is left untouched.  |tau|
is at most 10^30, so that (tau + 1) - tau keeps 20 of the 50 digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Iterable, Sequence, Union

from mpmath import MPContext

from .iterint import iter_integral
from .qseries import LogQSeries
from .quasimodular import E2, ONE, QMPoly, derivative_decomposition

#: Working precision (decimal digits) for all cocycle arithmetic.
WORKING_DPS = 50

#: Default number of q-expansion terms used in the integrals.
DEFAULT_TERMS = 80

#: Smallest imaginary part accepted for evaluation points.
MIN_IMAG = 0.2

_ctx = MPContext()
_ctx.dps = WORKING_DPS
mpc, mpf, pi, log, ldexp = _ctx.mpc, _ctx.mpf, _ctx.pi, _ctx.log, _ctx.ldexp


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

    def __add__(self, other: "XYPoly") -> "XYPoly":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return XYPoly(self.degree, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        return self + -other

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


def _finite(tau, label: str = "tau") -> mpc:
    """tau as an mpc; NaN and infinite parts would pass every bound on Im, and
    past |tau| = 10^(WORKING_DPS - 20), tau + 1 keeps too few digits."""
    tau = mpc(tau)
    if not _ctx.isfinite(tau):
        raise ValueError(f"{label} must be finite, got {complex(tau)}")
    if abs(complex(tau)) > 10.0 ** (WORKING_DPS - 20):
        raise ValueError(f"|{label}| must be at most 1e{WORKING_DPS - 20}, got {complex(tau)}")
    return tau


def _require_upper(tau, label: str = "tau") -> mpc:
    tau = _finite(tau, label)
    if tau.imag < MIN_IMAG:
        raise ValueError(f"{label} must satisfy Im >= {MIN_IMAG}, got {complex(tau)}")
    return tau


def eval_numeric(f: LogQSeries, tau) -> mpc:
    """The value of the truncated sum at q = exp(2*pi*i*tau), L = 2*pi*i*tau.

    50 digits, from the integer kernel of :func:`_values`; requires tau in
    the open upper half-plane with |tau| <= 10^(WORKING_DPS - 20).
    """
    return _values([f], tau)[0]


def _values(series: Sequence[LogQSeries], tau) -> list[mpc]:
    """Values of exact series at one point, as in :func:`eval_numeric`.

    The module's only numeric summation of a series.  q = e(tau) is rounded
    once to qr + i*qi = q * 2^(bits + e), where 2^-(e+2) <= |q| <= 2^-e and
    ``bits`` is the working precision plus guard bits.  Each log-part
    sum_n c_n q^n is q^m times a Horner sum on integers, from its first
    nonzero c_m, in units of 2^-bits * 2^(bit length of c_m), up to the last
    term that reaches a unit; terms beyond it are dropped, so the work stays
    bounded as Im tau grows.  Each part is rounded to ``mpc`` once, the parts
    combine by Horner in L, and each value is divided by its denominator.
    """
    tau = _finite(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    bits = _ctx.prec + max(s.trunc for s in series).bit_length() + 12
    with _ctx.workprec(bits):
        q = _ctx.expjpi(2 * tau)
    e = -_ctx.mag(q)
    qr, qi = int(ldexp(q.real, bits + e)), int(ldexp(q.imag, bits + e))
    ell = 2j * pi * tau
    out = []
    for s in series:
        total = mpc(0)
        for k in range(s.log_degree(), -1, -1):
            total *= ell
            if k not in s.parts:
                continue
            cs = s.parts[k]
            m = next(n for n, x in enumerate(cs) if x)
            lead = cs[m].bit_length()
            top = next(n for n in range(len(cs) - 1, m - 1, -1) if cs[n].bit_length() + bits - lead > e * (n - m))
            ar = ai = 0
            for x in reversed(cs[m : top + 1]):
                ar, ai = ((ar * qr - ai * qi) >> (bits + e)) + ((x << bits) >> lead), (ar * qi + ai * qr) >> (bits + e)
            part = mpc(ldexp(ar, lead - bits), ldexp(ai, lead - bits))
            total += part * q**m if m else part
        out.append(total / s.den)
    return out


def eichler_integral(f: QMPoly, tau, n_terms: int = DEFAULT_TERMS) -> XYPoly:
    """Regularized integral of the weighted form of a modular f, from tau.

    The moments come from the engine's own iterated integrals: the word of
    r letters 1 followed by f has I(1, ..., 1, f)(tau) =
    (2*pi*i)^(r+1) * int_tau^{i oo} (t - tau)^r / r! * f(t) dt, so with V_r
    its value at tau,

        int_tau^{i oo} f(t) t^j dt = sum_{r <= j} j!/(j-r)! tau^(j-r) V_r / (2*pi*i)^(r+1).

    The regularizations agree: the constant term a_0 enters V_r only as
    -a_0 (-L)^(r+1) / (r+1)! (the cusp normalization of
    :func:`~iterqm.qseries.primitive`), and since
    sum_r (-1)^r C(j+1, r+1) = 1 these sum to Eichler's regularized
    primitive -a_0 tau^(j+1)/(j+1) exactly.  The d + 1 words are suffixes
    of the longest, so their series are built once per (f, n_terms).
    """
    if f.is_zero():
        return XYPoly(0)
    if not f.is_modular():
        raise ValueError("the Eichler integral needs a modular form (depth 0)")
    k = f.weight()
    if k < 4 or k % 2:
        raise ValueError("weight must be an even integer >= 4")
    d = k - 2
    tau = mpc(tau)
    values = _values([iter_integral((ONE,) * r + (f,), n_terms) for r in range(d + 1)], tau)
    two_pi_i = 2j * pi
    # moments[r] = int_tau^{i oo} (t - tau)^r / r! * f(t) dt
    moments = [v / two_pi_i ** (r + 1) for r, v in enumerate(values)]
    tau_pow = [tau**j for j in range(d + 1)]
    front = two_pi_i ** (k - 1)
    out = []
    for j in range(d + 1):
        integral = sum(perm(j, r) * tau_pow[j - r] * moments[r] for r in range(j + 1))
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
    return eichler_integral(f, tau, n_terms) - slash_poly(eichler_integral(f, gtau, n_terms), g)


# --- braid group ----------------------------------------------------------

B3Word = tuple[int, ...]  # entries in {1, -1, 2, -2} for the generators


def _read_braid(word: Iterable[int]) -> tuple[SL2Mat, int]:
    """The word's matrix and winding count, read from the right over integers.

    For the suffix read so far, (a, b; c, d) and j = c*tau + d: s1^(+-1)
    changes only (a, b); s2^(+-1) sets (c, d) -+= (a, b), turning j clockwise
    (s2) or counterclockwise (s2^-1) by less than pi.  ``turns`` counts
    crossings of the principal cut (Arg(-1) = +pi); on it, j = -1 only.
    """
    a, b, c, d, turns = 1, 0, 0, 1, 0
    for g in reversed(tuple(word)):
        if g == 1:
            a, b = a + c, b + d
        elif g == -1:
            a, b = a - c, b - d
        elif g == 2:
            old_c, c, d = c, c - a, d - b
            if old_c < 0 < c or (c, d) == (0, -1):
                turns -= 1
        elif g == -2:
            if c > 0 > c + a or (c, d) == (0, -1):
                turns += 1
            c, d = c + a, d + b
        else:
            raise ValueError(f"unknown braid generator {g!r}")
    return SL2Mat(a, b, c, d), turns


def b3_to_sl2(word: Iterable[int]) -> SL2Mat:
    """Image of a braid word under the projection to the modular group."""
    return _read_braid(word)[0]


def _branch_log(mat: SL2Mat, turns: int, tau) -> mpc:
    """The branch of log(c*tau + d) a braid word selects, from its matrix
    and winding count as :func:`_read_braid` reads them.

    Generators take the principal branch and words compose by
    l_{w1 w2}(tau) = l_{w1}(gamma_{w2} tau) + l_{w2}(tau).  Each generator's
    factor lies in an open half-plane (Im < 0 for s2, Im > 0 for s2^-1; it
    is 1 for s1^(+-1)), so the sum is the principal log of the word's own
    c*tau + d plus 2*pi*i times the winding count.
    """
    return log(mat.c * mpc(tau) + mat.d) + 2j * pi * turns


def e2_cocycle(word: Iterable[int], tau, n_terms: int = DEFAULT_TERMS) -> mpc:
    """The braid-group cocycle of the weight-two Eisenstein series.

    With F the value of the regularized integral I(E2) of the weight-two
    series, the value is

        F(gamma.tau) - F(tau) + 12 * l_word(tau),

    which is independent of tau, additive in the word, and lies in
    2*pi*i*Z.  F is minus log Delta on its continuous branch: D(log Delta)
    = E2, and log Delta = L + 24 * sum log(1 - q^n) has no q^0 L^0 term,
    which is the normalization of I(E2).  So no principal log of a product
    is taken.
    """
    mat, turns = _read_braid(word)
    tau = _require_upper(tau)
    gtau = mat.moebius(tau)
    _require_upper(gtau, "gamma.tau")
    minus_log_disc = iter_integral((E2,), n_terms)
    return eval_numeric(minus_log_disc, gtau) - eval_numeric(minus_log_disc, tau) + 12 * _branch_log(mat, turns, tau)


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

    Falls back to a point centered for the translation part when c = 0, and
    otherwise to one that centers the pair (tau, g.tau) around the
    fixed-size geodesic.
    """
    pool = list(candidates) or [1.3j, 1j, 0.4 + 0.9j, 2j, -0.5 + 1.1j, 0.5 + 1.1j]
    pool.append(mpc(-mpf(g.b) / (2 * g.d), 2) if g.c == 0 else mpc(-mpf(g.d) / g.c, 1 / abs(g.c)))
    for tau in map(mpc, pool):
        if tau.imag >= MIN_IMAG and g.moebius(tau).imag >= MIN_IMAG:
            return tau
    raise ValueError(f"no admissible evaluation point found for {g}")
