"""Print the exact outputs of the benchmark's soundness, certify or cocycle operations, or of the parser, decompose and the Lyndon rewrite.

Usage: python3 tools/exact_outputs.py [--src DIR] [--seed N] [--workload soundness|certify|cocycle|parse|decompose|lyndon]

The operations of one seed are built by this checkout's
``bench/workloads.py`` and run in process with the iterqm package found
under DIR (default: this checkout's ``src``).  For each of the 150
``soundness`` expressions it runs ``iterqm canonical --json`` and
``iterqm integral -N 30 --json`` and prints one line: the expression's
index, the SHA-256 of each output and the expression.  For each ``certify``
operation it prints the operation's index, its truncation N, the
``independence_rank`` of its family, the DEBUG line that
``iterqm.canonicalize`` logs for it (its truncation and route; the
``ibp_*`` lines of a kernel proved by ``reduce_letters`` are left out), and the
rank again after ``iterqm.clear_caches()``: the first reads what earlier
operations left in the caches, the second starts from empty ones.  The
seed only shuffles the rows of each family and no printed field depends
on their order, so every seed prints the same ``certify`` listing: a
second seed catches only a rank or route that depends on row order.  For
each ``cocycle`` operation it
prints the operation's index, its kind and the ``repr`` of every number it
returns: the ``e2_cocycle`` value, or each coefficient of ``r1``, ``lhs``
and ``rhs``.  For ``parse`` it draws 20,000 seeded texts of the grammar,
spaced with ASCII and Unicode whitespace, half of them spoiled by a token
such as ``E5``, ``²``, ``_`` or ``((((``, and prints for each text and each
of ``iterqm.expr.parse``'s two modes the index, the mode, the SHA-256 of
the value or the error message with its offset, and the text.  For
``decompose`` it prints for each of the same texts the index, the SHA-256
of ``iterqm decompose --json``'s output (of its error line where it fails)
and the text.  For ``lyndon`` it rewrites, with
``iterqm.shuffle_lyndon.to_lyndon_basis``, the long words of the CI's
canonical steps in basis ranks, (1,0)^7, (2,1,0)^3 and (2,)+(0,)^130, and
200 seeded combinations of squared and repeated words with ``Fraction`` or
``QMPoly`` coefficients, and prints for each the index, the SHA-256 of the
sorted terms and the input.  Two trees
give the same results on these inputs exactly when the two listings are
byte-identical, so a change is checked against a base commit with

    git worktree add ../base BASE
    python3 tools/exact_outputs.py --src ../base/src > base.txt
    python3 tools/exact_outputs.py > head.txt
    cmp base.txt head.txt

The SHA-256 of each (workload, seed) listing that CI runs is committed
beside this tool, in ``exact_outputs.sha256``, so a tree is also checked
without a base commit; ``tests/test_exact_outputs.py`` recomputes the
``soundness``, ``certify``, ``cocycle`` and ``parse`` listings of seed 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import logging
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARSE_TEXTS = 20_000
SPACES = ("", "", "", "", " ", " ", "\t", "\n", "\u00a0", "\u3000", "\u2003")
#: What a text may be spoiled with: near-miss names, non-ASCII digits and
#: stray punctuation, but no ASCII digits, so exponents stay small.
NOISE = ("E5", "E24", "E", "x", "_", "١", "²", "１", "((((", "D(D(", "I(", "(", ")", ",", "^", "/", "-", "*")
LYNDON_COMBOS = 200
#: The monomials of the ``lyndon`` listing's QMPoly coefficients: 1, E2, E4, E6, E2^2 and E2*E4.
LYNDON_MONOMIALS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0))


def _expression(rng: random.Random, depth: int) -> list[str]:
    """The tokens of a random text of the grammar, brackets at most ``depth`` deep."""
    tokens = []
    for t in range(rng.randint(1, 3)):
        tokens += [rng.choice("+-")] if t else []
        for f in range(rng.randint(1, 3)):
            tokens += ["*"] if f else []
            tokens += ["-"] * rng.choice((0, 0, 0, 1, 2))
            kind = rng.random()
            if depth and kind < 0.3:
                head = rng.choice(("(", "D(", "I("))
                tokens += [head, *_expression(rng, depth - 1)]
                while head == "I(" and rng.random() < 0.4:
                    tokens += [",", *_expression(rng, depth - 1)]
                tokens.append(")")
            elif kind < 0.6:
                tokens.append(rng.choice(("0", "1", "2", "3", "07")))
                tokens += ["/", rng.choice(("0", "2", "3", "5", "9"))] if rng.random() < 0.2 else []
            else:
                tokens.append(rng.choice(("E2", "E4", "E6")))
            if rng.random() < 0.2:
                tokens += ["^", rng.choice(("0", "1", "2", "3", "03"))]
    return tokens


def parse_texts(seed: int) -> list[str]:
    """The seeded texts of the ``parse`` listing: texts of the grammar, spaced
    with ASCII and Unicode whitespace, half of them spoiled by a noise token."""
    rng = random.Random(seed)
    texts = []
    for _ in range(PARSE_TEXTS):
        tokens = _expression(rng, 2)
        if rng.random() < 0.5:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(NOISE))
        texts.append("".join(rng.choice(SPACES) + token for token in tokens) + rng.choice(SPACES))
    return texts


def lyndon_inputs(seed: int) -> list:
    """The inputs of the ``lyndon`` listing: the CI's long words in basis ranks, then
    seeded combinations of words made by squaring or repeating a short word over four
    letters, some with a tail, each combination's coefficients all Fractions or all QMPolys."""
    from fractions import Fraction

    from iterqm.quasimodular import QMPoly

    rng = random.Random(seed)

    def word() -> tuple:
        base = tuple(rng.randrange(4) for _ in range(rng.randint(1, 3)))
        tail = tuple(rng.randrange(4) for _ in range(rng.choice((0, 0, 1, 2))))
        return base * rng.randint(2, max(2, 6 // len(base))) + tail

    def ratio() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def form() -> QMPoly:
        return QMPoly({mono: ratio() for mono in rng.sample(LYNDON_MONOMIALS, rng.randint(1, 3))})

    combos = []
    for _ in range(LYNDON_COMBOS):
        coeff = form if rng.random() < 0.5 else ratio
        combos.append({word(): coeff() for _ in range(rng.randint(1, 5))})
    return [(1, 0) * 7, (2, 1, 0) * 3, (2,) + (0,) * 130, *combos]


def coeff_key(c) -> str:
    """A Fraction, or a form in the JSON of ``iterqm``, as text."""
    from iterqm.cli import qmpoly_to_json
    from iterqm.quasimodular import QMPoly

    return qmpoly_to_json(c) if isinstance(c, QMPoly) else str(c)


def value_key(value) -> str:
    """A form, or a polynomial in integrals with its letters in order, as text."""
    from iterqm.cli import qmpoly_to_json

    if hasattr(value, "basis"):
        terms = sorted((mono, qmpoly_to_json(coeff)) for mono, coeff in value.poly.terms.items())
        return repr((terms, [qmpoly_to_json(letter) for letter in value.basis]))
    return qmpoly_to_json(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the iterqm package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=("soundness", "certify", "cocycle", "parse", "decompose", "lyndon"),
                        default="soundness")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    from workloads import Certify, Cocycle, Soundness

    import iterqm

    if os.path.dirname(os.path.dirname(os.path.abspath(iterqm.__file__))) != os.path.abspath(args.src):
        sys.exit(f"iterqm was imported from {iterqm.__file__}, not from {args.src}")
    if args.workload == "parse":
        from iterqm.expr import ExprError, parse

        for i, text in enumerate(parse_texts(args.seed)):
            for integrals in (True, False):
                try:
                    out = hashlib.sha256(value_key(parse(text, integrals)).encode()).hexdigest()
                except ExprError as exc:
                    out = f"error: {exc}"
                print(i, "integrals" if integrals else "form", out, repr(text), sep="\t")
        return 0
    if args.workload == "decompose":
        from iterqm.cli import main as iterqm_main

        for i, text in enumerate(parse_texts(args.seed)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = iterqm_main(["decompose", "--json", "--", text])
            print(i, hashlib.sha256((out if code == 0 else err).getvalue().encode()).hexdigest(), repr(text), sep="\t")
        return 0
    if args.workload == "lyndon":
        from iterqm.shuffle_lyndon import to_lyndon_basis

        for i, combo in enumerate(lyndon_inputs(args.seed)):
            terms = sorted((mono, coeff_key(c)) for mono, c in to_lyndon_basis(combo).terms.items())
            text = repr(sorted((w, coeff_key(c)) for w, c in combo.items())) if isinstance(combo, dict) else repr(combo)
            print(i, hashlib.sha256(repr(terms).encode()).hexdigest(), text, sep="\t")
        return 0
    if args.workload == "certify":
        routes = io.StringIO()  # the route lines of iterqm.canonicalize at DEBUG, one per rank
        logger = logging.getLogger("iterqm.canonicalize")
        handler = logging.StreamHandler(routes)
        handler.addFilter(lambda record: record.msg.startswith("rank"))  # not reduce_letters' ibp_* lines
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        workload = Certify()
        for i, op in enumerate(workload.inputs(args.seed, 1)):
            routes.seek(0)
            routes.truncate()
            rank = workload.run(op)
            route = routes.getvalue().rstrip("\n")
            iterqm.clear_caches()
            print(i, op["n"], rank, route, workload.run(op), sep="\t")
        return 0
    if args.workload == "cocycle":
        workload = Cocycle()
        for i, op in enumerate(workload.inputs(args.seed, 1)):
            out = workload.run(op)
            values = [out] if op["kind"] == "braid" else [c for poly in out for c in poly.coeffs]
            print(i, op["kind"], *map(repr, values), sep="\t")
        return 0
    workload = Soundness()
    for i, op in enumerate(workload.inputs(args.seed, 1)):
        digests = (hashlib.sha256(out.encode()).hexdigest() for out in workload.run(op))
        print(i, *digests, op["text"], sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
