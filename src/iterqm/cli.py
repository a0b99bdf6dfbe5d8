"""Command-line front end: expression parsing, dispatch, stable output.

Subcommands: expand, derive, decompose, integral, canonical, lyndon,
rank (word list on stdin), cocycle check|e2.  Output is plain text by
default or JSON with --json; the default truncation is 50, overridable
by -N or the ITERQM_DEFAULT_N environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import cocycles
from .canonicalize import CanonicalForm, canonical_form, independence_rank
from .expr import ExprError, eval_combo, eval_quasimodular, parse
from .qseries import LogQSeries
from .quasimodular import ONE, QMPoly, basis_b, decompose, derive, expand, letter_sort_key
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


def format_series(s: LogQSeries) -> str:
    terms = []
    for m in range(s.trunc + 1):
        for k in sorted(s.parts):
            c = s.coefficient(m, k)
            if c == 0:
                continue
            var = []
            if m == 1:
                var.append("q")
            elif m > 1:
                var.append(f"q^{m}")
            if k == 1:
                var.append("L")
            elif k > 1:
                var.append(f"L^{k}")
            terms.append((c, "*".join(var)))
    return _join_terms(terms)


def _monomial_name(exponents: tuple[int, int, int]) -> str:
    a, b, c = exponents
    bits = [f"{g}^{e}" if e > 1 else g for g, e in (("E2", a), ("E4", b), ("E6", c)) if e]
    return "*".join(bits)


def format_qmpoly(p: QMPoly) -> str:
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, key=lambda k: (2 * k[0] + 4 * k[1] + 6 * k[2], k), reverse=True)
    return _join_terms([(p.terms[k], _monomial_name(k)) for k in keys])


def letter_name(letter: QMPoly) -> str:
    if letter == ONE:
        return "1"
    (exponents,) = letter.terms
    return _monomial_name(exponents)


def _word_name(word: tuple[int, ...], basis) -> str:
    return "I(" + ",".join(letter_name(basis[i]) for i in word) + ")"


def format_canonical(cf: CanonicalForm) -> str:
    if cf.poly.is_zero():
        return "0"
    pieces = []
    order = sorted(cf.poly.terms, key=lambda mono: (sum(len(w) for w in mono), mono))
    for mono in order:
        coeff = cf.poly.terms[mono]
        factors = []
        seen: dict[tuple[int, ...], int] = {}
        for w in mono:
            seen[w] = seen.get(w, 0) + 1
        for w in sorted(seen):
            name = _word_name(w, cf.basis)
            factors.append(name if seen[w] == 1 else f"{name}^{seen[w]}")
        mono_str = "*".join(factors)
        constant = coeff.constant_part()
        if not mono_str:
            pieces.append(format_qmpoly(coeff))
        elif coeff == QMPoly.constant(constant):  # scalar coefficient
            if constant == 1:
                pieces.append(mono_str)
            elif constant == -1:
                pieces.append(f"-{mono_str}")
            else:
                pieces.append(f"{constant}*{mono_str}")
        else:
            pieces.append(f"({format_qmpoly(coeff)})*{mono_str}")
    out = pieces[0]
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


# ---------------------------------------------------------------- JSON codecs


def series_to_json(s: LogQSeries) -> dict:
    terms = []
    for m in range(s.trunc + 1):
        for k in sorted(s.parts):
            c = s.coefficient(m, k)
            if c != 0:
                terms.append({"q": m, "logq": k, "coeff": str(c)})
    return {"truncation": s.trunc, "terms": terms}


def series_from_json(data: dict) -> LogQSeries:
    trunc = data["truncation"]
    parts: dict[int, list[Fraction]] = {}
    for term in data["terms"]:
        k = term["logq"]
        parts.setdefault(k, [Fraction(0)] * (trunc + 1))[term["q"]] = Fraction(term["coeff"])
    return LogQSeries(trunc, parts)


def qmpoly_to_json(p: QMPoly) -> dict:
    terms = [
        {"e2": a, "e4": b, "e6": c, "coeff": str(p.terms[(a, b, c)])}
        for (a, b, c) in sorted(p.terms)
    ]
    return {"terms": terms}


def qmpoly_from_json(data: dict) -> QMPoly:
    return QMPoly(
        {(t["e2"], t["e4"], t["e6"]): Fraction(t["coeff"]) for t in data["terms"]}
    )


def canonical_to_json(cf: CanonicalForm) -> dict:
    basis_weight = max((letter_sort_key(l)[0] for l in cf.basis), default=0)
    terms = []
    for mono in sorted(cf.poly.terms, key=lambda m: (sum(len(w) for w in m), m)):
        coeff = cf.poly.terms[mono]
        terms.append(
            {
                "coeff": qmpoly_to_json(coeff),
                "monomial": [[letter_name(cf.basis[i]) for i in w] for w in mono],
            }
        )
    return {"modular": cf.modular, "basis_max_weight": basis_weight, "terms": terms}


def canonical_from_json(data: dict) -> CanonicalForm:
    basis = tuple(basis_b(data["basis_max_weight"], modular_only=data["modular"]))
    rank = {letter_name(l): i for i, l in enumerate(basis)}
    poly = LyndonPoly.zero()
    for term in data["terms"]:
        mono = tuple(tuple(rank[name] for name in w) for w in term["monomial"])
        poly = poly + LyndonPoly({mono: qmpoly_from_json(term["coeff"])})
    return CanonicalForm(poly=poly, basis=basis, modular=data["modular"])


# ---------------------------------------------------------------- commands


def _emit(args, text: str, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=False))
    else:
        print(text)


def _cmd_expand(args) -> int:
    node = parse(args.expr)
    series = expand(eval_quasimodular(node), args.N)
    _emit(args, format_series(series), series_to_json(series))
    return 0


def _cmd_derive(args) -> int:
    p = derive(eval_quasimodular(parse(args.expr)))
    _emit(args, format_qmpoly(p), qmpoly_to_json(p))
    return 0


def _cmd_decompose(args) -> int:
    p = eval_quasimodular(parse(args.expr))
    pieces = [decompose(piece) for piece in p.weight_split().values()] or [
        (Fraction(0), QMPoly(), QMPoly())
    ]
    c = sum((x[0] for x in pieces), Fraction(0))
    m = sum((x[1] for x in pieces), QMPoly())
    h = sum((x[2] for x in pieces), QMPoly())
    text = "\n".join(
        [f"e2_coefficient: {c}", f"modular_part: {format_qmpoly(m)}", f"derivative_of: {format_qmpoly(h)}"]
    )
    _emit(args, text, {"e2": str(c), "modular": qmpoly_to_json(m), "derivative_of": qmpoly_to_json(h)})
    return 0


def _cmd_integral(args) -> int:
    combo = eval_combo(parse(args.expr))
    series = combo.expansion(args.N)
    _emit(args, format_series(series), series_to_json(series))
    return 0


def _cmd_canonical(args) -> int:
    combo = eval_combo(parse(args.expr))
    cf = canonical_form(combo, modular_only=args.modular)
    _emit(args, format_canonical(cf), canonical_to_json(cf))
    return 0


def _cmd_lyndon(args) -> int:
    basis = basis_b(args.max_weight, modular_only=args.modular)
    weights = {i: letter_sort_key(l)[0] for i, l in enumerate(basis)}
    words = lyndon_words(len(basis), args.max_len, weights, args.max_weight)
    words.sort(key=lambda w: (sum(weights[i] for i in w), len(w), w))
    names = [_word_name(w, basis) for w in words]
    _emit(args, "\n".join(names), [[letter_name(basis[i]) for i in w] for w in words])
    return 0


def _cmd_rank(args) -> int:
    words = []
    for line in sys.stdin.read().splitlines():
        line = line.strip()
        if not line:
            continue
        if line == "-":
            words.append(())
            continue
        letters = tuple(eval_quasimodular(parse(part)) for part in line.split(","))
        words.append(letters)
    r = independence_rank(words, [ONE] * len(words), args.N)
    _emit(args, str(r), {"rank": r, "count": len(words)})
    return 0


_B3_TOKENS = {"s1": 1, "s2": 2, "s1^-1": -1, "s2^-1": -2}


def parse_braid_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for token in text.replace(",", "*").split("*"):
        token = token.strip()
        if token not in _B3_TOKENS:
            raise ExprError(f"unknown braid generator {token!r} (use s1, s2, s1^-1, s2^-1)")
        out.append(_B3_TOKENS[token])
    return tuple(out)


def _cmd_cocycle(args) -> int:
    from .quasimodular import DELTA, E4, E6

    if args.which == "e2":
        word = parse_braid_word(args.word)
        mat = cocycles.b3_to_sl2(word)
        tau = complex(args.tau) if args.tau else complex(cocycles.admissible_tau(mat))
        value = cocycles.e2_cocycle(word, tau, args.n_terms)
        ratio = complex(value / (2j * math.pi))
        nearest = round(ratio.real)
        resid = abs(ratio - nearest)
        text = f"value: {complex(value)}\nmultiple_of_2pi_i: {nearest}\nresidual: {resid:.3e}"
        _emit(args, text, {"value": [float(value.real), float(value.imag)],
                           "multiple_of_2pi_i": nearest, "residual": float(resid)})
        return 0 if resid < args.precision else 1

    # relation check over random admissible word pairs
    rng = random.Random(args.seed)
    pool = [cocycles.T, cocycles.S]
    forms = {"E4": E4, "E6": E6, "Delta": DELTA}
    worst = 0.0
    lines = []
    for name, f in forms.items():
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
        worst = max(worst, form_worst)
        lines.append(f"{name}: max residual {form_worst:.3e} over {args.pairs} pairs")
    ok = worst < args.precision
    lines.append(f"{'PASS' if ok else 'FAIL'} (tolerance {args.precision:g})")
    _emit(args, "\n".join(lines), {"max_residual": worst, "pass": ok})
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-N", type=int, default=None, help="series truncation order")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable output")
    fmt.add_argument("--text", dest="json", action="store_false", help="plain text output (default)")
    common.add_argument("--precision", type=float, default=1e-8, help="numeric tolerance for checks")
    common.set_defaults(json=False)

    parser = argparse.ArgumentParser(prog="iterqm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="q-expansion of a quasimodular expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("derive", parents=[common], help="derivative of a quasimodular expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("decompose", parents=[common], help="split into c*E2 + modular + D(h)")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("integral", parents=[common], help="q/log-q series of an integral expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("canonical", parents=[common], help="canonical Lyndon polynomial form")
    p.add_argument("expr")
    p.add_argument("--modular", action="store_true", help="restrict to the modular subalgebra")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("lyndon", parents=[common], help="Lyndon words over the basis alphabet")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--modular", action="store_true")
    p.set_defaults(func=_cmd_lyndon)

    p = sub.add_parser("rank", parents=[common], help="exact rank of integrals read from stdin")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("cocycle", parents=[common], help="numeric cocycle checks")
    which = p.add_subparsers(dest="which", required=True)
    pc = which.add_parser("check", parents=[common], help="verify the cocycle relation")
    pc.add_argument("--pairs", type=int, default=10)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--n-terms", type=int, default=cocycles.DEFAULT_TERMS)
    pc.set_defaults(func=_cmd_cocycle)
    pe = which.add_parser("e2", parents=[common], help="braid-group cocycle of E2")
    pe.add_argument("word", help="braid word, e.g. 's1*s2*s1^-1'")
    pe.add_argument("--tau", default=None, help="evaluation point, e.g. '0.3+1.2j'")
    pe.add_argument("--n-terms", type=int, default=cocycles.DEFAULT_TERMS)
    pe.set_defaults(func=_cmd_cocycle)
    return parser


def main(argv: list[str] | None = None) -> int:
    default_n = _default_trunc()
    args = build_parser().parse_args(argv)
    if args.N is None:
        args.N = default_n
    try:
        return args.func(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
