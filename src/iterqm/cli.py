"""Command-line front end: expression parsing, dispatch, stable output.

Subcommands: expand, derive, decompose, integral, canonical, lyndon,
rank (word list on stdin), cocycle check|e2.  Output is plain text by
default or JSON with --json; expand, integral and rank truncate at -N,
by default 50 or the ITERQM_DEFAULT_N environment variable.  An
expression that begins with '-' goes after '--', as in
'expand -N 1 -- -E4'.  Each command renders its result in the requested
format only.  Text and JSON list the same terms in the same order: series
by (q, logq), canonical forms by total word length, then by monomial.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction

from . import cocycles
from .canonicalize import IntegralPoly, canonical_form, independence_rank
from .expr import ExprError, parse
from .qseries import LogQSeries
from .quasimodular import (
    DELTA, E4, E6, ONE, QMPoly, basis_b, decompose, derive, expand, letter_sort_key, monomial_name,
)
from .shuffle_lyndon import LyndonPoly, lyndon_words

# ---------------------------------------------------------------- rendering


def _join_terms(terms: list[tuple[Fraction, str]]) -> str:
    if not terms:
        return "0"
    out = []
    for i, (coeff, var) in enumerate(terms):
        mag = abs(coeff)
        if var and mag == 1:
            body = var
        elif var:
            body = f"{mag}*{var}"
        else:
            body = str(mag)
        if i == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)


def _power(base: str, exponent: int) -> str:
    return "" if exponent == 0 else base if exponent == 1 else f"{base}^{exponent}"


def _series_terms(s: LogQSeries) -> list[tuple[int, int, int]]:
    """The nonzero coefficients of ``s`` as (m, k, numerator of q^m L^k over s.den), in (q, logq) order."""
    parts = sorted(s.parts.items())
    return [(m, k, p[m]) for m in range(s.trunc + 1) for k, p in parts if p[m]]


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, with one gcd and no Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_series(s: LogQSeries) -> str:
    return _join_terms([(Fraction(n, s.den), "*".join(filter(None, (_power("q", m), _power("L", k)))))
                        for m, k, n in _series_terms(s)])


def _qmpoly_terms(p: QMPoly) -> list[tuple[Fraction, str]]:
    terms = p.terms
    keys = sorted(terms, key=lambda k: (2 * k[0] + 4 * k[1] + 6 * k[2], k), reverse=True)
    return [(terms[k], monomial_name(k)) for k in keys]


def format_qmpoly(p: QMPoly) -> str:
    return _join_terms(_qmpoly_terms(p))


def letter_name(letter: QMPoly) -> str:
    (exponents,) = letter.nums
    return monomial_name(exponents) or "1"


def _word_name(word: tuple[int, ...], basis) -> str:
    return "I(" + ",".join(letter_name(basis[i]) for i in word) + ")"


def _canonical_terms(cf: IntegralPoly) -> list[tuple[tuple, QMPoly]]:
    """The (monomial, coefficient) pairs of ``cf`` by total word length, then by monomial."""
    return sorted(cf.poly.terms.items(), key=lambda term: (sum(len(w) for w in term[0]), term[0]))


def format_canonical(cf: IntegralPoly) -> str:
    terms = []
    for mono, coeff in _canonical_terms(cf):
        mono_str = "*".join(_power(_word_name(w, cf.basis), n) for w, n in sorted(Counter(mono).items()))
        if not mono_str:  # the constant term's own terms, each signed as in format_qmpoly
            terms += _qmpoly_terms(coeff)
        elif coeff.nums.keys() == {(0, 0, 0)}:  # scalar coefficient
            terms.append((coeff.constant_part(), mono_str))
        else:
            terms.append((1, f"({format_qmpoly(coeff)})*{mono_str}"))
    return _join_terms(terms)


# ---------------------------------------------------------------- JSON codecs


def series_to_json(s: LogQSeries) -> dict:
    terms = [{"q": m, "logq": k, "coeff": _ratio(n, s.den)} for m, k, n in _series_terms(s)]
    return {"truncation": s.trunc, "terms": terms}


def series_from_json(data: dict) -> LogQSeries:
    trunc = data["truncation"]
    parts: dict[int, list[Fraction]] = {}
    for term in data["terms"]:
        k = term["logq"]
        parts.setdefault(k, [Fraction(0)] * (trunc + 1))[term["q"]] = Fraction(term["coeff"])
    return LogQSeries(trunc, parts)


def qmpoly_to_json(p: QMPoly) -> dict:
    return {"terms": [{"e2": a, "e4": b, "e6": c, "coeff": _ratio(num, p.den)}
                      for (a, b, c), num in sorted(p.nums.items())]}


def qmpoly_from_json(data: dict) -> QMPoly:
    return QMPoly(
        {(t["e2"], t["e4"], t["e6"]): Fraction(t["coeff"]) for t in data["terms"]}
    )


def canonical_to_json(cf: IntegralPoly) -> dict:
    basis_weight = max((letter_sort_key(l)[0] for l in cf.basis), default=0)
    terms = [
        {"coeff": qmpoly_to_json(coeff), "monomial": [[letter_name(cf.basis[i]) for i in w] for w in mono]}
        for mono, coeff in _canonical_terms(cf)
    ]
    return {"modular": cf.modular, "basis_max_weight": basis_weight, "terms": terms}


def canonical_from_json(data: dict) -> IntegralPoly:
    basis = tuple(basis_b(data["basis_max_weight"], modular_only=data["modular"]))
    rank = {letter_name(l): i for i, l in enumerate(basis)}
    poly = LyndonPoly(
        (tuple(tuple(rank[name] for name in w) for w in term["monomial"]), qmpoly_from_json(term["coeff"]))
        for term in data["terms"]
    )
    return IntegralPoly(poly=poly, basis=basis, modular=data["modular"])


# ---------------------------------------------------------------- commands


def _emit(args, result, to_text, to_json) -> None:
    """Print ``result`` through the renderer of the requested format only."""
    if args.json:
        print(json.dumps(to_json(result), separators=(",", ":")))
    else:
        print(to_text(result))


def _cmd_expand(args) -> int:
    _emit(args, expand(parse(args.expr, integrals=False), args.N), format_series, series_to_json)
    return 0


def _cmd_derive(args) -> int:
    _emit(args, derive(parse(args.expr, integrals=False)), format_qmpoly, qmpoly_to_json)
    return 0


def _cmd_decompose(args) -> int:
    p = parse(args.expr, integrals=False)
    pieces = [decompose(piece) for piece in p.weight_split().values()]
    c = sum((x[0] for x in pieces), Fraction(0))
    m = sum((x[1] for x in pieces), QMPoly())
    h = sum((x[2] for x in pieces), QMPoly())
    _emit(
        args, (c, m, h),
        lambda r: f"e2_coefficient: {r[0]}\nmodular_part: {format_qmpoly(r[1])}\n"
                  f"derivative_of: {format_qmpoly(r[2])}",
        lambda r: {"e2": str(r[0]), "modular": qmpoly_to_json(r[1]), "derivative_of": qmpoly_to_json(r[2])},
    )
    return 0


def _cmd_integral(args) -> int:
    _emit(args, parse(args.expr).expansion(args.N), format_series, series_to_json)
    return 0


def _cmd_canonical(args) -> int:
    cf = canonical_form(parse(args.expr), modular_only=args.modular)
    _emit(args, cf, format_canonical, canonical_to_json)
    return 0


def _cmd_lyndon(args) -> int:
    basis = basis_b(args.max_weight, modular_only=args.modular)
    weights = {i: letter_sort_key(l)[0] for i, l in enumerate(basis)}
    words = lyndon_words(len(basis), args.max_len, weights, args.max_weight)
    words.sort(key=lambda w: (sum(weights[i] for i in w), len(w), w))
    _emit(
        args, words,
        lambda ws: "\n".join(_word_name(w, basis) for w in ws),
        lambda ws: [[letter_name(basis[i]) for i in w] for w in ws],
    )
    return 0


def _cmd_rank(args) -> int:
    lines = filter(None, map(str.strip, sys.stdin.read().splitlines()))
    words = [() if line == "-" else tuple(parse(part, integrals=False) for part in line.split(",")) for line in lines]
    r = independence_rank(words, [ONE] * len(words), args.N)
    _emit(args, r, str, lambda r: {"rank": r, "count": len(words)})
    return 0


_B3_TOKENS = {"s1": 1, "s2": 2, "s1^-1": -1, "s2^-1": -2}


def parse_braid_word(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    out = []
    offset = 0
    for token in text.replace(",", "*").split("*"):
        name = token.strip()
        if name not in _B3_TOKENS:
            where = offset + len(token) - len(token.lstrip())
            raise ExprError(f"unknown braid generator {name!r} (use s1, s2, s1^-1, s2^-1)", where)
        out.append(_B3_TOKENS[name])
        offset += len(token) + 1
    return tuple(out)


def _cmd_cocycle_e2(args) -> int:
    word = parse_braid_word(args.word)
    tau = complex(args.tau) if args.tau else complex(cocycles.admissible_tau(cocycles.b3_to_sl2(word)))
    value = cocycles.e2_cocycle(word, tau, args.n_terms)
    ratio = complex(value / (2j * math.pi))
    nearest = round(ratio.real)
    resid = abs(ratio - nearest)
    _emit(
        args, (value, nearest, resid),
        lambda r: f"value: {complex(r[0])}\nmultiple_of_2pi_i: {r[1]}\nresidual: {r[2]:.3e}",
        lambda r: {"value": [float(r[0].real), float(r[0].imag)], "multiple_of_2pi_i": r[1],
                   "residual": float(r[2])},
    )
    return 0 if resid < args.precision else 1


def _cmd_cocycle_check(args) -> int:
    """The cocycle relation over random admissible word pairs."""
    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    rng = random.Random(args.seed)
    pool = [cocycles.T, cocycles.S]
    residuals = {}
    for name, f in {"E4": E4, "E6": E6, "Delta": DELTA}.items():
        produced = 0
        form_worst = 0.0
        while produced < args.pairs:
            mats = []
            for _ in range(2):
                m = cocycles.IDENTITY
                for _ in range(rng.randint(0, 4)):
                    m = m * pool[rng.randint(0, 1)]
                mats.append(m)
            g1, g2 = mats
            try:
                t12 = cocycles.admissible_tau(g1 * g2)
                t1 = cocycles.admissible_tau(g1)
                t2 = cocycles.admissible_tau(g2)
            except ValueError:
                continue
            lhs = cocycles.cocycle_r(f, g1 * g2, t12, args.n_terms)
            rhs = cocycles.slash_poly(cocycles.cocycle_r(f, g1, t1, args.n_terms), g2)
            rhs = rhs + cocycles.cocycle_r(f, g2, t2, args.n_terms)
            form_worst = max(form_worst, lhs.distance(rhs))
            produced += 1
        residuals[name] = form_worst
    worst = max(residuals.values())
    ok = worst < args.precision
    _emit(
        args, residuals,
        lambda r: "\n".join([f"{name}: max residual {x:.3e} over {args.pairs} pairs" for name, x in r.items()]
                            + [f"{'PASS' if ok else 'FAIL'} (tolerance {args.precision:g})"]),
        lambda r: {"max_residual": worst, "pass": ok},
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- entry point


def _default_trunc() -> int:
    env = os.environ.get("ITERQM_DEFAULT_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"ITERQM_DEFAULT_N must be an integer, got {env!r}")
    return 50


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``main`` fills in the default of -N."""
    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable output")
    group.add_argument("--text", dest="json", action="store_false", help="plain text output (default)")
    fmt.set_defaults(json=False)
    trunc = argparse.ArgumentParser(add_help=False)
    trunc.add_argument("-N", type=int, default=None, help="series truncation order")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=float, default=1e-8, help="numeric tolerance for checks")

    parser = argparse.ArgumentParser(prog="iterqm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    expr_help = "expression; put it after -- if it begins with '-'"
    for name, func, options, about in (
        ("expand", _cmd_expand, [fmt, trunc], "q-expansion of a quasimodular expression"),
        ("derive", _cmd_derive, [fmt], "derivative of a quasimodular expression"),
        ("decompose", _cmd_decompose, [fmt], "split into c*E2 + modular + D(h)"),
        ("integral", _cmd_integral, [fmt, trunc], "q/log-q series of an integral expression"),
        ("canonical", _cmd_canonical, [fmt], "canonical Lyndon polynomial form"),
    ):
        p = sub.add_parser(name, parents=options, help=about)
        p.add_argument("expr", help=expr_help)
        p.set_defaults(func=func)
    sub.choices["canonical"].add_argument(
        "--modular", action="store_true", help="restrict to the modular subalgebra"
    )

    p = sub.add_parser("lyndon", parents=[fmt], help="Lyndon words over the basis alphabet")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--modular", action="store_true")
    p.set_defaults(func=_cmd_lyndon)

    p = sub.add_parser("rank", parents=[fmt, trunc], help="exact rank of integrals read from stdin")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("cocycle", help="numeric cocycle checks")
    which = p.add_subparsers(dest="which", required=True)
    pc = which.add_parser("check", parents=[fmt, precision], help="verify the cocycle relation")
    pc.add_argument("--pairs", type=int, default=10)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--n-terms", type=int, default=cocycles.DEFAULT_TERMS)
    pc.set_defaults(func=_cmd_cocycle_check)
    pe = which.add_parser("e2", parents=[fmt, precision], help="braid-group cocycle of E2")
    pe.add_argument("word", help="braid word, e.g. 's1*s2*s1^-1'")
    pe.add_argument("--tau", default=None, help="evaluation point, e.g. '0.3+1.2j'")
    pe.add_argument("--n-terms", type=int, default=cocycles.DEFAULT_TERMS)
    pe.set_defaults(func=_cmd_cocycle_e2)
    return parser


def main(argv: list[str] | None = None) -> int:
    default_n = _default_trunc()
    args = build_parser().parse_args(argv)
    if getattr(args, "N", 0) is None:  # only expand, integral and rank have -N
        args.N = default_n
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RecursionError, MemoryError) as exc:  # ExprError too
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
