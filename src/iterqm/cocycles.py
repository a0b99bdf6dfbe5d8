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

All computations run at a fixed working precision well beyond double: the
slash action mixes coefficients spanning many orders of magnitude, and the
cocycle relation cancels those almost completely.  The 50 digits come from
integer arithmetic and one rounding at the edge.  The integer kernel
:func:`_parts` sums each log-part of an exact series at q = e(tau) by Horner
on Python integers in fixed-point q, with guard bits, to a Gaussian integer
over a power of two, which :func:`eval_numeric` rounds.  The Eichler
polynomial is a fixed-point Taylor shift of those integers, the slash action
substitutes the integer matrix entries exactly into coefficients read
exactly, and each :class:`XYPoly` coefficient is rounded once, where it is
built.  Numbers live in a private mpmath context, so a caller's mpmath
precision is untouched.  The point checks, :func:`eval_numeric` and the braid
path work on the raw ``_mpc_`` pairs and call libmp at the context's
precision and rounding, the same call, and so the same single rounding, that
each ``mpc`` operator makes: no digit differs from mpc arithmetic.
|tau| <= 10^30 keeps 20 digits of (tau + 1) - tau.  Each point value is
computed once: Eichler polynomials are kept per (f, tau, n_terms), at most
64, and values of log Delta per (tau, n_terms), at most 128, keyed by tau's
raw pair, which hashes at C speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, repeat
from math import perm
from numbers import Number
from typing import Iterable, Sequence

from mpmath import MPContext
from mpmath.libmp import (finf, fninf, fnan, from_float, from_int, from_man_exp, fzero, mpc_add, mpc_add_mpf, mpc_div,
                          mpc_div_mpf, mpc_expjpi, mpc_log, mpc_mul, mpc_mul_int, mpc_pow_int, mpc_sub, mpc_to_complex,
                          mpf_le, mpf_lt, mpf_shift, pi_fixed, to_int)

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
mpc, mpf = _ctx.mpc, _ctx.mpf
_PREC = _ctx.prec  # the context's precision; with its rounding "n", each libmp call rounds as an mpc operator does
_TWO_PI_I, _MIN_IMAG, _NONFINITE = (2j * _ctx.pi)._mpc_, from_float(MIN_IMAG), (finf, fninf, fnan)


@dataclass(frozen=True)
class SL2Mat:
    """An integer matrix (a, b; c, d) of determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if any(type(x) is not int for x in self.entries()):  # a float may pass the determinant check, then slash wrongly
            raise TypeError("SL2Mat entries must be int")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other: "SL2Mat") -> "SL2Mat":
        if not isinstance(other, SL2Mat):
            return NotImplemented
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
        cs = [c if type(c) is mpc else mpc(c) for c in coeffs]  # an mpc of this context is kept as it is
        if len(cs) > degree + 1:
            raise ValueError("too many coefficients for the degree")
        cs.extend([mpc(0)] * (degree + 1 - len(cs)))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("XYPoly is immutable")

    def __add__(self, other: "XYPoly") -> "XYPoly":
        if not isinstance(other, XYPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return XYPoly(self.degree, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        if not isinstance(other, XYPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "XYPoly":
        return XYPoly(self.degree, [-x for x in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, XYPoly):
            return NotImplemented
        return (self.degree, self.coeffs) == (other.degree, other.coeffs)

    __hash__ = None

    def scale(self, factor) -> "XYPoly":
        if not isinstance(factor, Number):
            raise TypeError(f"cannot scale by {type(factor).__name__}")
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
    """The right action P(X, Y) -> P(aX + bY, cX + dY), exact and rounded once."""
    re, im, x = _read([c._mpc_ for c in poly.coeffs])
    return XYPoly(poly.degree, _rounded(*_slashed(re, im, g), [x] * len(re)))


def _read(pairs: Sequence[tuple]) -> tuple[list[int], list[int], int]:
    """Raw (re, im) pairs exactly, as integer real and imaginary parts over one power of two 2^x."""
    parts = [p for z in pairs for p in z]
    x = min((p[2] for p in parts if p[1]), default=0)
    ints = [(-p[1] if p[0] else p[1]) << (p[2] - x) if p[1] else 0 for p in parts]
    return ints[0::2], ints[1::2], x


def _slashed(re: list[int], im: list[int], g: SL2Mat) -> list[list[int]]:
    """P(aX + bY, cX + dY) on integer coefficients, by homogeneous Horner:
    sum_{i <= j} p_i U^(j-i) V^i is the sum for j - 1 times U, plus p_j V^j."""
    a, b, c, d = g.entries()
    out, v = [re[:1], im[:1]], [1]
    for pj in zip(re[1:], im[1:]):
        v = [c * s + d * t for s, t in zip(v + [0], [0] + v)]
        out = [[a * s + b * t + p * w for s, t, w in zip(acc + [0], [0] + acc, v)] for acc, p in zip(out, pj)]
    return out


def _rounded(re: list[int], im: list[int], xs: list[int]) -> list[mpc]:
    """Each (re + i*im) 2^x, both parts rounded once to working precision."""
    p = _PREC
    return [_ctx.make_mpc((from_man_exp(r, x, p, "n"), from_man_exp(i, x, p, "n"))) for r, i, x in zip(re, im, xs)]


def _finite(tau, label: str = "tau") -> tuple:
    """The raw (re, im) pair of tau in the context, an mpc of the context read
    without a copy; NaN and infinite parts would pass every bound on Im, and
    past |tau| = 10^(WORKING_DPS - 20), tau + 1 keeps too few digits."""
    z = tau._mpc_ if type(tau) is mpc else mpc(tau)._mpc_
    w = mpc_to_complex(z, False, "n")  # complex(tau)
    if z[0] in _NONFINITE or z[1] in _NONFINITE:
        raise ValueError(f"{label} must be finite, got {w}")
    if abs(w) > 10.0 ** (WORKING_DPS - 20):
        raise ValueError(f"|{label}| must be at most 1e{WORKING_DPS - 20}, got {w}")
    return z


def _require_upper(tau, label: str = "tau") -> tuple:
    z = _finite(tau, label)
    if mpf_lt(z[1], _MIN_IMAG):  # tau.imag < MIN_IMAG, against the exact double
        raise ValueError(f"{label} must satisfy Im >= {MIN_IMAG}, got {mpc_to_complex(z, False, 'n')}")
    return z


def eval_numeric(f: LogQSeries, tau) -> mpc:
    """The value of the truncated sum at q = exp(2*pi*i*tau), L = 2*pi*i*tau.

    50 digits, from the parts of :func:`_parts`, combined by Horner in L; requires
    a series over Q and tau in the open upper half-plane with |tau| <= 10^(WORKING_DPS - 20).
    """
    if f.modulus:
        raise ValueError(f"a series mod {f.modulus} has no numeric value")
    tau, p = _finite(tau), _PREC
    if mpf_le(tau[1], fzero):
        raise ValueError("tau must lie in the upper half-plane")
    q, (parts,) = _parts([f], tau)
    ell, total = mpc_mul(_TWO_PI_I, tau, p, "n"), (fzero, fzero)
    for k in range(f.log_degree(), -1, -1):
        re, im, x, m = parts.get(k, (0, 0, 0, 0))
        part = from_man_exp(re, x, p, "n"), from_man_exp(im, x, p, "n")
        part = mpc_mul(part, mpc_pow_int(q, m, p, "n"), p, "n") if m else part
        total = mpc_add(mpc_mul(total, ell, p, "n"), part, p, "n")
    return _ctx.make_mpc(mpc_div_mpf(total, from_int(f.den), p, "n"))


def _parts(series: Sequence[LogQSeries], tau: tuple) -> tuple[tuple, list[dict[int, tuple[int, int, int, int]]]]:
    """The integer kernel, the module's only numeric summation of a series:
    q = e(tau) and each series' log-parts at a raw tau with Im tau > 0, that of
    L^k as ``k: (re, im, x, m)`` for (re + i*im) 2^x q^m.  q is rounded once to qr + i*qi =
    q * 2^(bits + e), where 2^-(e+2) <= |q| <= 2^-e and ``bits`` is the
    working precision plus guard bits.  Each part sum_n c_n q^n is q^m times
    a Horner sum on integers, from its first nonzero c_m, in units of
    2^-bits * 2^(bit length of c_m), up to the last term that reaches a unit,
    sought back from the last index at which one can (for e > 0); later terms
    are dropped, so the work stays bounded as Im tau grows."""
    bits = _PREC + max(s.trunc for s in series).bit_length() + 12
    q = mpc_expjpi(mpc_mul_int(tau, 2, bits, "n"), bits, "n")
    e = -max(x[2] + x[3] for x in q if x[1]) - all(x[1] for x in q)  # -mag(q), as mpmath bounds |q|
    qr, qi = (to_int(mpf_shift(x, bits + e)) for x in q)
    out = []
    for s in series:
        parts = {}
        for k, cs in s.parts.items():
            m = next(n for n, x in enumerate(cs) if x)
            lead = cs[m].bit_length()
            last = min(m + (max(map(int.bit_length, cs)) + bits - lead) // e, len(cs) - 1) if e > 0 else len(cs) - 1
            top = next(n for n in range(last, m - 1, -1) if cs[n].bit_length() + bits - lead > e * (n - m))
            ar = ai = 0
            for x in reversed(cs[m : top + 1]):
                ar, ai = ((ar * qr - ai * qi) >> (bits + e)) + ((x << bits) >> lead), (ar * qi + ai * qr) >> (bits + e)
            parts[k] = (ar, ai, lead - bits, m)
        out.append(parts)
    return q, out


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
    of the longest, so their series are built once per (f, n_terms), and
    the polynomial once per (f, tau, n_terms), tau taken as its raw pair
    with Im tau >= MIN_IMAG, as for :func:`cocycle_r`.
    """
    tau = _require_upper(tau)
    if f.is_zero():
        return XYPoly(0)
    if not f.is_modular():
        raise ValueError("the Eichler integral needs a modular form (depth 0)")
    k = f.weight()
    if k < 4 or k % 2:
        raise ValueError("weight must be an even integer >= 4")
    return _eichler_poly(f, tau, n_terms)


_EICHLER_CACHE_SIZE = 64  #: Eichler polynomials kept; a benchmark round evaluates at most 36 (form, point) pairs


def _mul(z: tuple[int, int, int], w: tuple[int, int, int], bits: int) -> tuple[int, int, int]:
    """The product of two (re + i*im) 2^x numbers, truncated to ``bits`` bits."""
    (a, b, x), (c, d, y) = z, w
    re, im = a * c - b * d, a * d + b * c
    drop = max(max(abs(re), abs(im)).bit_length() - bits, 0)
    return re >> drop, im >> drop, x + y + drop


@lru_cache(maxsize=_EICHLER_CACHE_SIZE, typed=True)
def _eichler_poly(f: QMPoly, tau: tuple, n_terms: int) -> XYPoly:
    # The polynomial is sum_r c_r Y^r (X - tau Y)^(d-r), c_r = (-1)^r d!/(d-r)! (2 pi i)^(d-r) V_r,
    # V_r summing (2 pi i tau)^k (re + i*im) 2^x q^m / den over its parts.  X = 2^s X', 1 <= |tau / 2^s| < 3,
    # makes it a Taylor shift, Horner in Z = X' - (tau / 2^s) Y over the c_r 2^(s(d-r)), in units 2^-scale.
    d = f.weight() - 2
    series = [iter_integral((ONE,) * r + (f,), n_terms) for r in range(d + 1)]
    q, parts = _parts(series, tau)
    bits = _PREC + 3 * d + 16  # the roundings in Horner grow by less than (d + 1) 4^d
    mul = partial(_mul, bits=bits)
    ((tr,), (ti,), tx), ((qr,), (qi,), qx) = _read([tau]), _read([q])
    top = max((k for p in parts for k in p), default=0)
    u_pow = list(accumulate(repeat((0, pi_fixed(bits), 1 - bits), d + top), mul, initial=(1, 0, 0)))  # (2 pi i)^n
    tau_pow = list(accumulate(repeat((tr, ti, tx), top), mul, initial=(1, 0, 0)))
    shift = max(abs(tr), abs(ti)).bit_length() - 1  # tau / 2^s = (tr + i*ti) / 2^shift, s = shift + tx
    re, im = [], []  # by Y-degree
    for r, (series_r, p) in enumerate(zip(series, parts)):
        nb = series_r.den.bit_length()
        c = (((-1) ** r * perm(d, r)) << (nb + bits)) // series_r.den, 0, (shift + tx) * (d - r) - nb - bits
        zs = [reduce(mul, [(qr, qi, qx)] * m, mul(mul(mul(z, c), u_pow[d - r + k]), tau_pow[k]))
              for k, (*z, m) in p.items()]
        if r == 0:  # V_0 has parts if any V_r has, and c_0 leads, with ``bits`` bits
            scale = bits - max((max(abs(a), abs(b)).bit_length() + x for a, b, x in zs), default=0)
        re, im = ([a - ((tr * b - ti * w) >> shift) for a, b, w in zip(re + [0], [0] + re, [0] + im)],
                  [a - ((tr * w + ti * b) >> shift) for a, b, w in zip(im + [0], [0] + re, [0] + im)])
        re[r] += sum(a << max(x + scale, 0) >> max(-x - scale, 0) for a, _, x in zs)
        im[r] += sum(b << max(x + scale, 0) >> max(-x - scale, 0) for _, b, x in zs)
    return XYPoly(d, _rounded(re, im, [-scale - (shift + tx) * (d - j) for j in range(d + 1)]))


def cocycle_r(f: QMPoly, g: SL2Mat, tau, n_terms: int = DEFAULT_TERMS) -> XYPoly:
    """The modular cocycle value r_f(g), computed from the base point tau.

    Requires Im(tau) and Im(g.tau) at least 0.2; the result does not
    depend on tau.  P(tau) - P(g.tau)|g is formed exactly and rounded once.
    """
    tau = _ctx.make_mpc(_require_upper(tau))
    gtau = g.moebius(tau)
    _require_upper(gtau, "g.tau")
    p = eichler_integral(f, tau, n_terms).coeffs
    n = len(p)
    re, im, x = _read([c._mpc_ for c in p + eichler_integral(f, gtau, n_terms).coeffs])
    out = [[a - b for a, b in zip(u, w)] for u, w in zip((re, im), _slashed(re[n:], im[n:], g))]
    return XYPoly(n - 1, _rounded(*out, [x] * n))


# --- braid group ----------------------------------------------------------

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


def _branch_log(j: tuple, turns: int) -> tuple:
    """The branch of log(j), j = c*tau + d as a raw pair, a braid word selects,
    from its matrix and winding count as :func:`_read_braid` reads them.

    Generators take the principal branch and words compose by
    l_{w1 w2}(tau) = l_{w1}(gamma_{w2} tau) + l_{w2}(tau).  Each generator's
    factor lies in an open half-plane (Im < 0 for s2, Im > 0 for s2^-1; it
    is 1 for s1^(+-1)), so the sum is the principal log of the word's own
    c*tau + d plus 2*pi*i times the winding count.
    """
    value = mpc_log(j, _PREC, "n")
    return mpc_add(value, mpc_mul_int(_TWO_PI_I, turns, _PREC, "n"), _PREC, "n") if turns else value


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
    tau, p = _require_upper(tau), _PREC
    j = mpc_add_mpf(mpc_mul_int(tau, mat.c, p, "n"), from_int(mat.d), p, "n")
    gtau = mpc_div(mpc_add_mpf(mpc_mul_int(tau, mat.a, p, "n"), from_int(mat.b), p, "n"), j, p, "n")
    gtau = _require_upper(_ctx.make_mpc(gtau), "gamma.tau")
    value = mpc_sub(_minus_log_disc(gtau, n_terms), _minus_log_disc(tau, n_terms), p, "n")
    return _ctx.make_mpc(mpc_add(value, mpc_mul_int(_branch_log(j, turns), 12, p, "n"), p, "n"))


_LOG_DISC_CACHE_SIZE = 128  #: values of log Delta kept; a benchmark round evaluates it at 61 to 83 points


@lru_cache(maxsize=_LOG_DISC_CACHE_SIZE, typed=True)
def _minus_log_disc(tau: tuple, n_terms: int) -> tuple:
    return eval_numeric(iter_integral((E2,), n_terms), _ctx.make_mpc(tau))._mpc_


def quasimodular_cocycle(f: QMPoly, word: Iterable[int], tau, n_terms: int = DEFAULT_TERMS) -> list[XYPoly]:
    """Cocycle components of a homogeneous quasimodular form at a braid word.

    The form is written as a sum of repeated derivatives of modular forms
    and of the weight-two series; each modular piece of weight w
    contributes its scaled cocycle at the word's matrix in degree w - 2, and
    the weight-two piece contributes the braid cocycle of the word as a
    degree-0 polynomial.  The word is needed, as for :func:`e2_cocycle`: a
    bare matrix does not determine the braid piece.
    """
    if not f.is_homogeneous() or f.is_zero():
        raise ValueError("a nonzero homogeneous quasimodular form is required")
    if f.weight() < 2:
        raise ValueError("weight must be at least 2")
    word = tuple(word)
    mat = b3_to_sl2(word)
    out: list[XYPoly] = []
    for lam, _order, g in derivative_decomposition(f):
        if g == E2:
            out.append(XYPoly(0, [lam * e2_cocycle(word, tau, n_terms)]))
        else:
            out.append(cocycle_r(g, mat, tau, n_terms).scale(Fraction(lam)))
    return out


def admissible_tau(g: SL2Mat) -> mpc:
    """A point with Im(tau) and Im(g.tau) both >= 0.2: the first of six fixed points that is.

    Falls back to a point centered for the translation part when c = 0, and
    otherwise to one that centers the pair (tau, g.tau) around the
    fixed-size geodesic.
    """
    pool = [1.3j, 1j, 0.4 + 0.9j, 2j, -0.5 + 1.1j, 0.5 + 1.1j]
    pool.append(mpc(-mpf(g.b) / (2 * g.d), 2) if g.c == 0 else mpc(-mpf(g.d) / g.c, 1 / abs(g.c)))
    for tau in map(mpc, pool):
        if tau.imag >= MIN_IMAG and g.moebius(tau).imag >= MIN_IMAG:
            return tau
    raise ValueError(f"no admissible evaluation point found for {g}")
