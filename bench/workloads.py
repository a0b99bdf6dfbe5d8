"""The three workloads: seeded inputs, the timed operation, and the checks.

Each workload is a class with three steps, called in this order by
``worker.py``:

* ``inputs(seed, rounds)`` builds the fixed list of operations.  The
  *make-up* of the list (how many operations, their shapes and sizes) is
  fixed; ``seed`` only fills in the contents, so every seed does the same
  amount of work.
* ``run(op)`` is the operation; only this call is timed.
* ``check(ops, outputs)`` runs after the timed loop and returns a list of
  problems found (empty when every completed output is correct).

Inputs are plain Python data (dicts of exponent triples for quasimodular
forms, tuples of generators for braid words) so that the oracles in
``oracles.py`` read them without going through iterqm.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import iterqm
from iterqm import cli, cocycles

from oracles import (
    PRIME,
    Field,
    SeriesOracle,
    as_terms,
    e2_cocycle_closed_form,
    is_lyndon_by_rotation,
    rank_mod_p,
)

# ------------------------------------------------------------ forms as dicts


def monomials_of_weight(k: int) -> list[tuple[int, int, int]]:
    """Exponent triples (a, b, c) with 2a + 4b + 6c = k."""
    return [
        (a, b, (k - 2 * a - 4 * b) // 6)
        for a in range(k // 2 + 1)
        for b in range((k - 2 * a) // 4 + 1)
        if (k - 2 * a - 4 * b) % 6 == 0
    ]


def random_homogeneous(rng: random.Random, weight: int) -> dict:
    """A nonzero form of the given weight: each monomial kept with probability 0.7."""
    while True:
        poly = {}
        for mono in monomials_of_weight(weight):
            if rng.random() < 0.7:
                c = rng.randint(-9, 9)
                if c:
                    poly[mono] = Fraction(c)
        if poly:
            return poly


def random_form(rng: random.Random, weights: tuple[int, ...]) -> dict:
    """A sum of random homogeneous forms, one of each given weight."""
    poly: dict = {}
    for w in weights:
        poly = add_polys(poly, random_homogeneous(rng, w))
    return poly


def add_polys(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def mul_polys(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in q.items():
            out = add_polys(out, {(a1 + a2, b1 + b2, c1 + c2): x * y})
    return out


def render(poly: dict) -> str:
    """Expression text for iterqm's parser, e.g. ``(-3*E2*E4 + 1/2*E6)``."""
    if not poly:
        return "0"
    parts = []
    for (a, b, c), coeff in sorted(poly.items()):
        gens = [g if e == 1 else f"{g}^{e}" for g, e in (("E2", a), ("E4", b), ("E6", c)) if e]
        parts.append("*".join([str(coeff)] + gens))
    return "(" + " + ".join(parts) + ")"


ONE = {(0, 0, 0): Fraction(1)}
E2 = {(1, 0, 0): Fraction(1)}
E4 = {(0, 1, 0): Fraction(1)}
E6 = {(0, 0, 1): Fraction(1)}
# Delta = (E4^3 - E6^2) / 1728
DELTA = {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)}


# ------------------------------------------------------------------ soundness

#: Seed of the expression *shapes* (term count, word lengths, weights); fixed
#: so that every run's list has the same make-up.
SHAPE_SEED = 9
SOUNDNESS_N = 30
#: Expressions per round.
SOUNDNESS_OPS = 150
#: Every SAMPLE_STRIDE-th expression, from a seeded offset, is re-expanded from
#: its canonical form and re-computed by the series oracle; both cost several
#: times the operation itself.
SAMPLE_STRIDE = 6


def _soundness_shapes(count: int) -> list:
    """Criterion-09 shapes: 1-2 terms, words of length 0-3, letters of weight
    <= 10 and coefficients of weight <= 6, each a sum of two homogeneous parts."""
    rng = random.Random(SHAPE_SEED)

    def weights(max_weight):
        return tuple(2 * rng.randint(0, max_weight // 2) for _ in range(2))

    shapes = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 2)):
            word = tuple(weights(10) for _ in range(rng.randint(0, 3)))
            terms.append((weights(6), word))
        shapes.append(tuple(terms))
    return shapes


class Soundness:
    name = "soundness"

    def inputs(self, seed: int, rounds: int) -> list:
        shapes = _soundness_shapes(SOUNDNESS_OPS)
        rng = random.Random(seed)
        ops = []
        for _ in range(rounds):
            for shape in shapes:
                terms = [
                    (random_form(rng, cw), [random_form(rng, lw) for lw in word])
                    for cw, word in shape
                ]
                pieces = []
                for coeff, word in terms:
                    if word:
                        pieces.append(f"{render(coeff)}*I({','.join(render(l) for l in word)})")
                    else:
                        pieces.append(render(coeff))
                ops.append({"text": " + ".join(pieces), "terms": terms})
        offset = rng.randrange(SAMPLE_STRIDE)
        for i, op in enumerate(ops):
            op["sample"] = i % SAMPLE_STRIDE == offset
        return ops

    def run(self, op: dict) -> tuple[str, str]:
        outputs = []
        for argv in (
            ["canonical", op["text"], "--json"],
            ["integral", op["text"], "-N", str(SOUNDNESS_N), "--json"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"iterqm {argv[0]} exited {code}: {err.getvalue().strip()}")
            outputs.append(out.getvalue())
        return outputs[0], outputs[1]

    def check(self, ops: list, outputs: list) -> list[str]:
        problems = []
        oracle = SeriesOracle(SOUNDNESS_N)
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                continue
            canonical, integral = json.loads(out[0]), json.loads(out[1])
            if integral["truncation"] != SOUNDNESS_N:
                problems.append(f"op {i}: truncation {integral['truncation']}")
            for term in canonical["terms"]:
                for word in term["monomial"]:
                    if not is_lyndon_by_rotation(tuple(letter_key(name) for name in word)):
                        problems.append(f"op {i}: non-Lyndon word {word}")
            if not op["sample"]:
                continue
            series = cli.series_from_json(integral)
            if cli.canonical_from_json(canonical).expansion(SOUNDNESS_N) != series:
                problems.append(f"op {i}: canonical form does not re-expand to the integral")
            got = {(t["q"], t["logq"]): Fraction(t["coeff"]) for t in integral["terms"]}
            if got != as_terms(oracle.combination(op["terms"])):
                problems.append(f"op {i}: integral differs from the series oracle")
        return problems


def letter_key(name: str) -> tuple[int, int, int]:
    """Order of basis letters by name: weight, then E4-exponent, then E6-exponent."""
    if name == "1":
        return (0, 0, 0)
    exps = {"E2": 0, "E4": 0, "E6": 0}
    for factor in name.split("*"):
        gen, _, e = factor.partition("^")
        exps[gen] += int(e or 1)
    return (2 * exps["E2"] + 4 * exps["E4"] + 6 * exps["E6"], exps["E4"], exps["E6"])


# -------------------------------------------------------------------- certify


def basis_letters(max_weight: int) -> list[dict]:
    """1, E2, then E4^a E6^b ordered by weight and E4-exponent."""
    letters = [ONE, E2]
    for k in range(4, max_weight + 1, 2):
        for b in range(k // 4 + 1):
            if (k - 4 * b) % 6 == 0:
                letters.append({(0, b, (k - 4 * b) // 6): Fraction(1)})
    return letters


def lyndon_family(weight: int, max_len: int) -> list[list[dict]]:
    """Lyndon words (by the rotation definition) of exactly this weight."""
    letters = basis_letters(weight)
    lw = [2 * a + 4 * b + 6 * c for ((a, b, c),) in letters]
    words = []

    def extend(word):
        total = sum(lw[i] for i in word)
        if word and total == weight and is_lyndon_by_rotation(word):
            words.append(word)
        if len(word) < max_len:
            for i in range(len(letters)):
                if total + lw[i] <= weight:
                    extend(word + (i,))

    extend(())
    return [[letters[i] for i in w] for w in sorted(words)]


CERTIFY_TRUNCATIONS = (20, 25, 30, 35, 40)
MULTIPLIERS = {"1": ONE, "E2": E2, "E4": E4, "E6": E6, "Delta": DELTA}
# Planted relations I(D(g)) - g(cusp) * 1 + g = 0: the derivative letter D(g)
# from Ramanujan's identities, g, and the value of g at the cusp.
PLANTED = {
    "E4": ({(1, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1, 3)}, E4, 1),
    "E6": ({(1, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2)}, E6, 1),
    "Delta": (mul_polys(E2, DELTA), DELTA, 0),
}
#: (weight, max word length, multipliers, planted relation or None).  The
#: multipliers are fixed because they set most of the cost of a rank; the
#: seed orders the rows.  Families keep their order so that cache reuse
#: between them is the same in every run.  Most families are small, so that
#: many operations of similar cost lie around the median; the last is the
#: 48-row weight-12 certificate of the acceptance suite.
CERTIFY_FAMILIES = (
    (8, 3, ("1",), None),
    (8, 3, ("E2",), None),
    (8, 3, ("Delta",), None),
    (10, 3, ("E4",), None),
    (10, 3, ("E6",), None),
    (12, 3, ("1",), None),
    (12, 3, ("E2",), None),
    (14, 2, ("1", "E4"), None),
    (16, 2, ("E6", "Delta"), None),
    (14, 3, ("1",), None),
    (8, 3, ("E4",), "E4"),
    (10, 3, ("1",), "E6"),
    (12, 2, ("E2", "Delta"), "Delta"),
    (12, 3, ("1", "E2", "Delta"), None),
)


class Certify:
    name = "certify"

    def inputs(self, seed: int, rounds: int) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(rounds):
            for weight, max_len, mults, planted in CERTIFY_FAMILIES:
                rows = [(w, MULTIPLIERS[m]) for m in mults for w in lyndon_family(weight, max_len)]
                if planted:
                    dg, g, _ = PLANTED[planted]
                    rows += [([dg], ONE), ([], ONE), ([], g)]
                rng.shuffle(rows)
                expected = len(rows) - (1 if planted else 0)
                q_words = [tuple(iterqm.QMPoly(l) for l in w) for w, _ in rows]
                q_mults = [iterqm.QMPoly(m) for _, m in rows]
                for n in CERTIFY_TRUNCATIONS:
                    ops.append(
                        {"rows": rows, "planted": planted, "expected": expected,
                         "words": q_words, "mults": q_mults, "n": n}
                    )
        return ops

    def run(self, op: dict) -> int:
        return iterqm.independence_rank(op["words"], op["mults"], op["n"])

    def check(self, ops: list, outputs: list) -> list[str]:
        problems = []
        top = max(CERTIFY_TRUNCATIONS)
        modp = SeriesOracle(top, Field(PRIME))
        exact = SeriesOracle(top)
        words: dict = {}
        for name, (dg, g, cusp) in PLANTED.items():
            value = exact.integral([dg])
            g_series = exact.expand(g)
            target = [cusp - g_series[0]] + [-x for x in g_series[1:]]
            if as_terms(value) != as_terms({0: target}):
                problems.append(f"planted relation for {name} does not hold")
        for i, (op, got) in enumerate(zip(ops, outputs)):
            if got is None:
                continue
            n = op["n"]
            rows = []
            for word, mult in op["rows"]:
                key = repr(word)
                if key not in words:
                    words[key] = modp.integral(word)
                rows.append(modp.times(modp.expand(mult), words[key]))
            top_log = max(max(series) for series in rows)
            matrix = [
                [c for k in range(top_log + 1) for c in series.get(k, [0] * (top + 1))[: n + 1]]
                for series in rows
            ]
            oracle_rank = rank_mod_p(matrix)
            if oracle_rank != op["expected"]:
                problems.append(f"op {i}: rank mod p {oracle_rank}, expected {op['expected']}")
            if got != op["expected"]:
                problems.append(f"op {i}: independence_rank {got}, expected {op['expected']}")
        return problems


# -------------------------------------------------------------------- cocycle

TOLERANCE = 1e-8
COCYCLE_FORMS = {
    "E4": E4,
    "E6": E6,
    "Delta": DELTA,
    "E4*Delta": mul_polys(E4, DELTA),
    "E6*Delta": mul_polys(E6, DELTA),
    "E4^2*E6^2": {(0, 2, 2): Fraction(1)},
}
#: Lowest imaginary part of any point at which a relation operation
#: evaluates an Eichler integral.  cocycles.MIN_IMAG admits 0.2, but there
#: the default 80 terms leave E4^2*E6^2 (weight 20) wrong by far more than
#: the tolerance; from 0.3 up every form here is right to 1e-17.
RELATION_MIN_IMAG = 0.3
#: Braid word lengths per round; long words are built from identity blocks.
#: Operation times on a shared machine jitter by 10-20% each, so the median
#: and the tail each sit in a cluster of operations of equal size: each
#: length from 1 to 60 twice (the median), and thirteen words of 600 that,
#: below the 900-word and the three heaviest relation operations, hold the
#: eleventh-largest time.
BRAID_LENGTHS = tuple(range(1, 61)) * 2 + (
    64, 72, 80, 88, 96, 112, 128, 160, 192, 224, 256, 300, 360, 420, 480,
) + (600,) * 13 + (900,)
#: Words long enough to exceed the interpreter's recursion limit in
#: cocycles._branch_log; the same in every run, whatever the seed.
FAILING_WORDS = ((1, 2) * 600, (-2, -1) * 600)
# Blocks whose matrices are the identity, so a long word keeps the short
# matrix of its other letters and an admissible base point.
BLOCKS = ((1, 2) * 6, (2, 1) * 6, (-1, -2) * 6, (-2, -1) * 6)


def _admissible(g, tau, floor: float = RELATION_MIN_IMAG) -> bool:
    return tau.imag >= floor and g.moebius(tau).imag >= floor


class Cocycle:
    name = "cocycle"

    def inputs(self, seed: int, rounds: int) -> list:
        rng = random.Random(seed)
        pool = (cocycles.S, cocycles.T)
        ops = []
        for _ in range(rounds):
            for name, form in COCYCLE_FORMS.items():
                while True:
                    g1 = g2 = cocycles.IDENTITY
                    for _ in range(rng.randint(0, 4)):
                        g1 = g1 * rng.choice(pool)
                    for _ in range(rng.randint(0, 4)):
                        g2 = g2 * rng.choice(pool)
                    try:
                        taus = [cocycles.admissible_tau(g) for g in (g1 * g2, g1, g2)]
                    except ValueError:
                        continue
                    if all(_admissible(g, t) for g, t in zip((g1 * g2, g1, g2), taus)):
                        break
                ops.append({"kind": "relation", "form": name, "f": iterqm.QMPoly(form),
                            "g1": g1, "g2": g2, "taus": taus})
            for length in BRAID_LENGTHS:
                while True:
                    word = _braid_word(rng, length)
                    try:
                        tau = cocycles.admissible_tau(cocycles.b3_to_sl2(word))
                    except ValueError:
                        continue
                    break
                ops.append({"kind": "braid", "word": word, "tau": tau})
            for word in FAILING_WORDS:
                ops.append({"kind": "braid", "word": word, "tau": cocycles.admissible_tau(cocycles.IDENTITY)})
        return ops

    def run(self, op: dict):
        if op["kind"] == "braid":
            return iterqm.e2_cocycle(op["word"], op["tau"])
        f, g1, g2 = op["f"], op["g1"], op["g2"]
        t12, t1, t2 = op["taus"]
        r1 = iterqm.cocycle_r(f, g1, t1)
        lhs = iterqm.cocycle_r(f, g1 * g2, t12)
        rhs = iterqm.slash_poly(r1, g2) + iterqm.cocycle_r(f, g2, t2)
        return r1, lhs, rhs

    def check(self, ops: list, outputs: list) -> list[str]:
        problems = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                continue
            if op["kind"] == "braid":
                err = abs(complex(out) - e2_cocycle_closed_form(op["word"]))
                if not err < TOLERANCE:
                    problems.append(f"op {i}: e2_cocycle off the closed form by {err:.3e}")
                continue
            r1, lhs, rhs = out
            if not lhs.distance(rhs) < TOLERANCE:
                problems.append(f"op {i}: cocycle relation residual {lhs.distance(rhs):.3e}")
            # the value must not depend on the base point
            g1, t1 = op["g1"], op["taus"][1]
            for other in (t1 + 0.1, t1 - 0.1, t1 + 0.3j):
                if _admissible(g1, other):
                    again = iterqm.cocycle_r(op["f"], g1, other)
                    if not again.distance(r1) < TOLERANCE:
                        problems.append(f"op {i}: r({op['form']}) moves with the base point")
                    break
        return problems


def _braid_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """A short random word with identity blocks inserted at random places;
    its matrix is that of the short word."""
    pieces = [(rng.choice((1, -1, 2, -2)),) for _ in range(length % 12)]
    for _ in range(length // 12):
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(BLOCKS))
    return tuple(g for piece in pieces for g in piece)


WORKLOADS = {w.name: w for w in (Soundness(), Certify(), Cocycle())}
