"""Acceptance suite: one test per criterion, at the stated scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit pass lines).  Every assertion here is exact unless a numeric
tolerance is stated.
"""

import json
import math
import random
from fractions import Fraction as F
from itertools import product

from conftest import cusp_value, ibp, random_homogeneous, random_qmpoly
from iterqm.canonicalize import canonical_form, independence_rank, reduce_letters
from iterqm.cli import letter_name, main, series_from_json, series_to_json
from iterqm.cocycles import (
    IDENTITY,
    S,
    T,
    admissible_tau,
    b3_to_sl2,
    cocycle_r,
    e2_cocycle,
    slash_poly,
)
from iterqm.iterint import IntegralPoly, iter_integral
from iterqm.qseries import LogQSeries, d_op
from iterqm.quasimodular import (
    DELTA,
    E2,
    E4,
    E6,
    ONE,
    QMPoly,
    basis_b,
    bernoulli,
    derive,
    eisenstein_qexp,
    expand,
    letter_sort_key,
    transform_coeffs,
)
from iterqm.shuffle_lyndon import is_lyndon, lyndon_words, shuffle

TWO_PI_I = 2j * math.pi


def _report(number: int, description: str) -> None:
    print(f"criterion {number:2d} PASS: {description}")


def _sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_criterion_01_eisenstein_oracle():
    n = 200
    for weight in (2, 4, 6):
        series = eisenstein_qexp(weight, n)
        factor = F(-2 * weight) / bernoulli(weight)
        assert series.coefficient(0, 0) == 1
        for m in range(1, n + 1):
            assert series.coefficient(m, 0) == factor * _sigma(m, weight - 1), (weight, m)
    _report(1, "Eisenstein q-expansions match the divisor-sum formula at N=200")


def test_criterion_02_discriminant_oracle():
    n = 100
    prod_series = LogQSeries.constant(1, n)
    for m in range(1, n + 1):
        prod_series = prod_series * LogQSeries(n, {0: [1] + [0] * (m - 1) + [-1]})
    oracle = LogQSeries(n, {0: [0, 1]})
    for _ in range(24):
        oracle = oracle * prod_series
    assert expand(DELTA, n) == oracle
    _report(2, "expand((E4^3-E6^2)/1728) equals the eta-product expansion at N=100")


def test_criterion_03_ramanujan_derivation():
    n = 100
    for p in (E2, E4, E6, E2 * E4, DELTA, E2**3):
        lhs = expand(derive(p), n)
        rhs = d_op(expand(p, n))
        assert lhs == rhs, p
    _report(3, "derivation commutes with q-expansion for the six reference forms at N=100")


def test_criterion_04_transformation_law():
    rng = random.Random(104)
    for _ in range(100):
        k = 2 * rng.randint(1, 8)
        p = random_homogeneous(rng, k)
        f = transform_coeffs(p)
        df = transform_coeffs(derive(p))
        for r in range(max(len(df), len(f) + 1)):
            lhs = df[r] if r < len(df) else QMPoly()
            fr = f[r] if r < len(f) else QMPoly()
            fr1 = f[r - 1] if 0 <= r - 1 < len(f) else QMPoly()
            assert lhs == derive(fr) + (k - r + 1) * fr1
    _report(4, "derivative transformation identity holds for 100 random forms of weight <= 16")


def test_criterion_05_shuffle_identity():
    n = 30
    letters = [ONE, E2, E4, E6]
    words: list[tuple] = [()]
    for length in range(1, 5):
        words.extend(product(letters, repeat=length))
    cases = 0
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            if len(w1) + len(w2) > 4:
                continue
            combo = shuffle(w1, w2)
            assert combo == shuffle(w2, w1)
            lhs = iter_integral(w1, n) * iter_integral(w2, n)
            assert lhs == IntegralPoly.linear(combo).expansion(n), (w1, w2)
            cases += 1
    assert cases >= 200
    _report(5, f"shuffle identity exact at N=30 for all {cases} word pairs (letters 1,E2,E4,E6)")


def test_criterion_06_ode_and_regularization():
    n = 20
    letters = [ONE, E2, E4, DELTA]
    count = 0
    for length in (1, 2, 3):
        for word in product(letters, repeat=length):
            s = iter_integral(word, n)
            ode = d_op(s) + expand(word[0], n) * iter_integral(word[1:], n)
            assert ode.is_zero(), word
            c = F(1)
            for f in word:
                c *= cusp_value(f)
            coeff = c * F((-1) ** length, math.factorial(length))
            for k in range(s.log_degree() + 1):
                assert s.coefficient(0, k) == (coeff if k == length else 0), (word, k)
            count += 1
    _report(6, f"ODE and cusp constant-term structure exact for all {count} words over 1,E2,E4,Delta")


def test_criterion_07_integral_of_e2_is_minus_log_delta():
    n = 100
    u = LogQSeries.constant(1, n)
    for m in range(1, n + 1):
        u = u * LogQSeries(n, {0: [1] + [0] * (m - 1) + [-1]})
    eta24 = LogQSeries.constant(1, n)
    for _ in range(24):
        eta24 = eta24 * u
    u = eta24
    du = d_op(u)
    c = [F(0)] * (n + 1)
    for m in range(n + 1):
        acc = du.coefficient(m, 0)
        for j in range(m):
            acc -= c[j] * u.coefficient(m - j, 0)
        c[m] = acc
    log_u = LogQSeries(n, {0: [F(0)] + [c[m] / m for m in range(1, n + 1)]})
    oracle = LogQSeries(n, {1: [-1]}) - log_u
    assert iter_integral((E2,), n) == oracle
    explicit = LogQSeries(n, {1: [-1]}) + LogQSeries(
        n, {0: [F(0)] + [F(24 * _sigma(m, 1), m) for m in range(1, n + 1)]}
    )
    assert iter_integral((E2,), n) == explicit
    _report(7, "I(E2) equals -log Delta by the product-formula oracle at N=100")


def test_criterion_08_integration_by_parts():
    n = 25
    rng = random.Random(108)
    pool = [ONE, E2, E4, E6, DELTA, E2 * E4, E2 + E4]
    for _ in range(50):
        g = rng.choice(pool[1:])
        length = rng.randint(1, 3)
        word = [rng.choice(pool) for _ in range(length)]
        pos = rng.randint(0, length)
        full = tuple(word[:pos]) + (derive(g),) + tuple(word[pos:])
        combo = ibp(tuple(word[:pos]), g, tuple(word[pos:]))
        assert all(len(w) == length for w in combo)
        assert iter_integral(full, n) == IntegralPoly.linear(combo).expansion(n)
    # length filtration: eliminating a derivative letter lands in shorter words
    witnessed = 0
    while witnessed < 20:
        g = rng.choice([E2, E4, E6, E2 * E4])
        length = rng.randint(1, 2)
        word = [rng.choice(pool[:4]) for _ in range(length)]
        pos = rng.randint(0, length)
        full = tuple(word[:pos]) + (derive(g),) + tuple(word[pos:])
        reduced = reduce_letters({full: ONE})
        assert all(len(w) <= len(full) - 1 for w in reduced)
        assert IntegralPoly.linear(reduced).expansion(15) == iter_integral(full, 15)
        witnessed += 1
    _report(8, "integration by parts exact at N=25 (50 cases); length filtration witnessed (20 cases)")


def test_criterion_09_canonicalization_soundness():
    n = 30
    rng = random.Random(109)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            word = tuple(random_qmpoly(rng, 10) for _ in range(rng.randint(0, 3)))
            terms[word] = random_qmpoly(rng, 6)
        combo = IntegralPoly.linear(terms)
        cf = canonical_form(combo)
        assert cf.expansion(n) == combo.expansion(n)
        for mono in cf.poly.terms:
            for w in mono:
                assert is_lyndon(w)
    _report(9, "canonical_form re-expands to the input exactly at N=30 for 100 random combinations")


def test_criterion_10_lyndon_tables():
    # Example list on two letters
    two_letter = lyndon_words(2, 4, dict.fromkeys(range(2), 0), 0)
    assert set(two_letter) == {
        (0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)
    }

    basis = basis_b(12)
    weights = {i: letter_sort_key(l)[0] for i, l in enumerate(basis)}
    names = {i: letter_name(l) for i, l in enumerate(basis)}

    def cell(weight, length):
        found = set()
        for w in lyndon_words(len(basis), length, weights, weight):
            if len(w) == length and sum(weights[i] for i in w) == weight:
                found.add(tuple(names[i] for i in w))
        return found

    table = {
        (0, 1): {("1",)},
        (2, 1): {("E2",)},
        (4, 1): {("E4",)},
        (4, 2): {("1", "E4")},
        (6, 1): {("E6",)},
        (6, 2): {("1", "E6"), ("E2", "E4")},
        (8, 1): {("E4^2",)},
        (8, 2): {("1", "E4^2"), ("E2", "E6")},
        (10, 1): {("E4*E6",)},
        (10, 2): {("1", "E4*E6"), ("E2", "E4^2"), ("E4", "E6")},
        (12, 1): {("E4^3",), ("E6^2",)},
        (12, 2): {("1", "E4^3"), ("1", "E6^2"), ("E2", "E4*E6"), ("E4", "E4^2")},
        (0, 2): set(),
    }
    for key, expected in table.items():
        assert cell(*key) == expected, key

    # The printed source table leaves the weight-2/length-2 cell empty, but
    # the word (1, E2) satisfies the Lyndon definition over the documented
    # order exactly as (1, E4) does; prove it from the definition and assert
    # the mathematically forced content.
    brute = {
        w
        for w in product(range(len(basis)), repeat=2)
        if sum(weights[i] for i in w) == 2 and all(w < w[i:] for i in range(1, 2))
    }
    assert brute == {(0, 1)}  # ranks of (1, E2)
    assert cell(2, 2) == {("1", "E2")}

    sixteen = {
        ("E4^3",), ("E6^2",),
        ("1", "E4^3"), ("1", "E6^2"), ("E2", "E4*E6"), ("E4", "E4^2"),
        ("1", "1", "E4^3"), ("1", "1", "E6^2"), ("1", "E2", "E4*E6"),
        ("1", "E4", "E4^2"), ("1", "E6", "E6"), ("1", "E4^2", "E4"),
        ("1", "E4*E6", "E2"), ("E2", "E2", "E4^2"), ("E2", "E4", "E6"),
        ("E2", "E6", "E4"),
    }
    found = set()
    for w in lyndon_words(len(basis), 3, weights, 12):
        if sum(weights[i] for i in w) == 12:
            found.add(tuple(names[i] for i in w))
    assert found == sixteen
    assert len(found) == 16
    _report(10, "Lyndon enumerations reproduce the reference tables (one provably missing cell corrected)")


def test_criterion_11_independence_witness():
    basis = basis_b(12)
    weights = {i: letter_sort_key(l)[0] for i, l in enumerate(basis)}
    words = [
        tuple(basis[i] for i in w)
        for w in lyndon_words(len(basis), 3, weights, 12)
        if sum(weights[i] for i in w) == 12
    ]
    assert len(words) == 16
    family = []
    multipliers = []
    for mult in (ONE, E2, DELTA):
        for w in words:
            family.append(w)
            multipliers.append(mult)
    assert independence_rank(family, multipliers, 40) == 48
    _report(11, "the 48 multiplied weight-12 basis integrals have exact rank 48 at N=40")


def test_criterion_12_cocycle_relation():
    rng = random.Random(112)
    pool = [S, T]
    tolerance = 1e-8
    for f in (E4, E6, DELTA):
        done = 0
        while done < 50:
            g1, g2 = IDENTITY, IDENTITY
            for _ in range(rng.randint(0, 4)):
                g1 = g1 * rng.choice(pool)
            for _ in range(rng.randint(0, 4)):
                g2 = g2 * rng.choice(pool)
            try:
                t12, t1, t2 = (admissible_tau(g) for g in (g1 * g2, g1, g2))
            except ValueError:
                continue
            lhs = cocycle_r(f, g1 * g2, t12, 60)
            rhs = slash_poly(cocycle_r(f, g1, t1, 60), g2) + cocycle_r(f, g2, t2, 60)
            assert lhs.distance(rhs) < tolerance, (f, g1, g2)
            done += 1
    from mpmath import mpc

    for f in (E4, E6, DELTA):
        r1 = cocycle_r(f, S, mpc(0, 1.3))
        r2 = cocycle_r(f, S, mpc(0.4, 0.9))
        assert r1.distance(r2) < tolerance
    _report(12, "cocycle relation below 1e-8 on 50 admissible pairs per form; base point free")


def test_criterion_13_braid_cocycle():
    tol = 1e-8
    assert abs(complex(e2_cocycle((1,), 1.3j)) - (-TWO_PI_I)) < tol
    v1 = e2_cocycle((1, 2, 1), 1.2j)
    v2 = e2_cocycle((2, 1, 2), 0.9j)
    assert abs(complex(v1 - v2)) < tol
    rng = random.Random(113)
    gens = (1, -1, 2, -2)
    done = 0
    while done < 15:
        w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        try:
            t12 = admissible_tau(b3_to_sl2(w1 + w2))
            t1 = admissible_tau(b3_to_sl2(w1))
            t2 = admissible_tau(b3_to_sl2(w2))
        except ValueError:
            continue
        total = e2_cocycle(w1 + w2, t12)
        assert abs(complex(total - e2_cocycle(w1, t1) - e2_cocycle(w2, t2))) < tol
        ratio = complex(total / TWO_PI_I)
        assert abs(ratio - round(ratio.real)) < tol
        done += 1
    _report(13, "braid cocycle: sigma1 -> -2 pi i, additive, braid-invariant, valued in 2 pi i Z")


def test_criterion_14_cli(capsys):
    assert main(["expand", "E4^3-E6^2", "-N", "2"]) == 0
    assert capsys.readouterr().out == "1728*q - 41472*q^2\n"
    assert main(["integral", "I(1)", "-N", "1"]) == 0
    assert capsys.readouterr().out == "-L\n"
    assert main(["lyndon", "--max-weight", "6", "--max-len", "2"]) == 0
    # the seven table entries plus the provably omitted I(1,E2)
    assert capsys.readouterr().out == (
        "I(1)\nI(E2)\nI(1,E2)\nI(E4)\nI(1,E4)\nI(E6)\nI(1,E6)\nI(E2,E4)\n"
    )

    rng = random.Random(114)
    for _ in range(100):
        n = rng.randint(0, 10)
        parts = {}
        for k in range(rng.randint(0, 3)):
            parts[k] = [F(rng.randint(-999, 999), rng.randint(1, 60)) for _ in range(n + 1)]
        series = LogQSeries(n, parts)
        payload = json.loads(series_to_json(series))
        assert series_from_json(payload) == series
    _report(14, "CLI outputs byte-identical; JSON round trip exact on 100 random series")
