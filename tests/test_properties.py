"""Generated-input properties of the series ring, the ring of quasimodular
polynomials and its derivation, the split c*E2 + m + D(h), the exact rank, the
linear combinations of words, integration by parts, the shuffle product,
the canonical form, the braid-word branch of log(c*tau + d), the slash
action on period polynomials, the expression parser and the CLI's text
rendering.

Runs only where Hypothesis is installed; the seeded tests in
test_qseries.py, test_quasimodular.py and test_canonicalize.py cover the
same code without it.
"""

import json
import operator
import re
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, rule  # noqa: E402
from mpmath.libmp import dps_to_prec  # noqa: E402

import iterqm  # noqa: E402
from iterqm import canonicalize  # noqa: E402
from conftest import ibp, monomials_of_weight, shuffle_combos, shuffle_expand, shuffle_expansion  # noqa: E402
from iterqm.canonicalize import (  # noqa: E402
    _RANK_PRIME, ModularModeError, _exact_rank, canonical_form, independence_rank, reduce_letters,
)
from iterqm.cli import (  # noqa: E402
    _canonical_terms, _power, _word_name, canonical_from_json, canonical_to_json, format_canonical, format_qmpoly,
    format_series, qmpoly_from_json, qmpoly_to_json, series_from_json, series_to_json,
)
from iterqm.cocycles import (  # noqa: E402
    IDENTITY, WORKING_DPS, S, SL2Mat, T, XYPoly, _branch_log, _ctx, _read, _read_braid, _slashed, admissible_tau,
    b3_to_sl2, mpc, slash_poly,
)
from iterqm.expr import parse  # noqa: E402
from iterqm.iterint import IntegralPoly, iter_integral  # noqa: E402
from iterqm.linear import _accumulate  # noqa: E402
from iterqm.qseries import LogQSeries, _integral_step, d_op, primitive  # noqa: E402
from iterqm.quasimodular import (  # noqa: E402
    E2, E4, E6, ONE, ZERO, QMPoly, basis_b, decompose, derive, expand, is_basis_letter, monomial_name,
)
from iterqm.shuffle_lyndon import LyndonPoly, is_lyndon, shuffle, to_lyndon_basis  # noqa: E402
from test_canonicalize import reference_rank, reference_reduce_letters  # noqa: E402
from test_qseries import schoolbook  # noqa: E402
from test_shuffle_lyndon import reference_to_lyndon_basis  # noqa: E402
from test_quasimodular import reference_decompose, reference_expand  # noqa: E402

fractions = st.fractions(max_denominator=10**9).filter(lambda x: abs(x) < 10**40)


def series(trunc):
    return st.lists(fractions, min_size=0, max_size=trunc + 1).map(
        lambda cs: LogQSeries(trunc, {0: cs})
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 20), st.integers(0, 20), st.data())
def test_product_matches_schoolbook(n1, n2, data):
    a, b = data.draw(series(n1)), data.draw(series(n2))
    assert a * b == schoolbook(a, b)


@st.composite
def log_series(draw, trunc=None):
    """Series of log-degree at most 3 whose parts have unrelated denominators."""
    n = draw(st.integers(0, 12)) if trunc is None else trunc
    degrees = draw(st.sets(st.integers(0, 3), max_size=4))
    return LogQSeries(n, {k: draw(st.lists(fractions, max_size=n + 1)) for k in degrees})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(log_series())
def test_d_op_inverts_primitive(f):
    assert d_op(primitive(f)) == f


@settings(derandomize=True, deadline=None, max_examples=100)
@given(log_series())
def test_json_round_trip_is_bit_exact(s):
    text = series_to_json(s)
    assert_compact_json_of(text, s, series_from_json)
    assert series_to_json(series_from_json(json.loads(text))) == text


def assert_compact_json_of(text, obj, from_json):
    """``text`` is json.dumps's compact form of what it encodes, and decodes to ``obj``."""
    data = json.loads(text)
    assert json.dumps(data, separators=(",", ":")) == text
    assert from_json(data) == obj


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(log_series(n), log_series(n))))
def test_equal_series_have_equal_representations(pair):
    a, b = pair
    for x, y in ((a * b, b * a), ((a + b) - b, a), (a - a, LogQSeries.zero(a.trunc))):
        assert x == y
        assert (x.den, x.parts, repr(x)) == (y.den, y.parts, repr(y))


@st.composite
def homogeneous(draw):
    k = draw(st.integers(2, 12)) * 2
    monos = monomials_of_weight(k)
    coeffs = draw(st.lists(st.fractions(max_denominator=50).filter(lambda x: abs(x) < 1000),
                           min_size=len(monos), max_size=len(monos)))
    return QMPoly(dict(zip(monos, coeffs)))


def polys(max_weight=8):
    """Forms of weight <= max_weight, zero included, with coefficients that may cancel."""
    monos = [mono for k in range(0, max_weight + 1, 2) for mono in monomials_of_weight(k)]
    coeff = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(st.tuples(st.sampled_from(monos), coeff), max_size=5).map(QMPoly)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(polys())
def test_form_json_is_compact_and_exact(p):
    assert_compact_json_of(qmpoly_to_json(p), p, qmpoly_from_json)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polys(), polys(), polys())
def test_qmpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a and (a * ONE).terms == a.terms
    assert (a - a).terms == {} and a - a == ZERO


@settings(derandomize=True, deadline=None, max_examples=100)
@given(polys(), polys())
def test_derive_is_a_derivation(a, b):
    assert derive(a * b) == derive(a) * b + a * derive(b)
    assert derive(a + b) == derive(a) + derive(b)


def assert_normal_form(p: QMPoly):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert p.terms == {k: F(v, p.den) for k, v in p.nums.items()}


scalars = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-20, 20), st.integers(1, 12)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polys(), polys(), st.integers(0, 3), scalars)
def test_qmpoly_operations_keep_normal_form(a, b, n, c):
    results = [a, a + b, a - b, -a, a * b, a**n, a * c, c * a, a + c, c - a, derive(a), a.d_de2(), *decompose(a)[1:]]
    for p in results:
        assert_normal_form(p)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polys(), polys())
def test_equal_polynomials_have_equal_fields(a, b):
    halves = QMPoly([(k, v / 2) for k, v in a.terms.items()] * 2)
    for x in (halves, QMPoly(a.terms), (a + b) - b, a * 3 - a * 2, a * F(1, 3) * 3, a + (b * a - a * b)):
        assert (x.nums, x.den, hash(x)) == (a.nums, a.den, hash(a))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(homogeneous())
def test_decompose_round_trip(p):
    c, m, h = decompose(p)
    assert c * E2 + m + derive(h) == p
    assert m.is_modular()
    if not p.is_zero() and p.weight() > 2:
        assert (c, m, h) == reference_decompose(p)
        assert c == F(0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polys())
@example(E2**3 * E4 - F(7, 3) * E2 * E6 + E2 + 1)
def test_decompose_splits_any_form(p):
    """One split of a form of any weights is the sum of the splits of its homogeneous parts."""
    c, m, h = decompose(p)
    assert c * E2 + m + derive(h) == p
    assert m.is_modular()
    parts: dict[int, dict] = {}
    for (a, b, e), num in p.nums.items():
        parts.setdefault(2 * a + 4 * b + 6 * e, {})[a, b, e] = F(num, p.den)
    pieces = [decompose(QMPoly(part)) for part in parts.values()]
    assert c == sum((x[0] for x in pieces), F(0))
    assert m == sum((x[1] for x in pieces), ZERO)
    assert h == sum((x[2] for x in pieces), ZERO)


@st.composite
def rational_matrices(draw):
    """Small matrices of Fraction or int rows, with entries that are multiples
    or fractions of the rank prime and rows that are combinations of earlier
    ones, some with large coefficients."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
        st.sampled_from([F(_RANK_PRIME), F(-2 * _RANK_PRIME), F(1, _RANK_PRIME), F(_RANK_PRIME, 7)]),
    )
    row = st.one_of(
        st.lists(entry, min_size=ncols, max_size=ncols),
        st.lists(st.integers(-50, 50), min_size=ncols, max_size=ncols),
    )
    coeff = st.one_of(entry, st.integers(-50, 50), st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 7)))
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(coeff), draw(coeff)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rational_matrices())
def test_exact_rank_matches_elimination(rows):
    # the rank over Q by _exact_rank, each row scaled to integers by the lcm of its denominators
    scales = [lcm(*(F(x).denominator for x in row)) for row in rows]
    assert _exact_rank([[int(F(x) * s) for x in row] for row, s in zip(rows, scales)]) == reference_rank(rows)


def exact_rank_rows(words, multipliers, trunc):
    """The rank rows built from exact series: each series' integer numerators
    over the q^m L^k grid, highest L-power first (the reference for rows
    built mod p)."""
    series = [expand(m, trunc) * iter_integral(w, trunc) for w, m in zip(words, multipliers)]
    max_log = max((s.log_degree() for s in series), default=0)
    zero = (0,) * (trunc + 1)
    return [[x for k in range(max_log, -1, -1) for x in s.parts.get(k, zero)] for s in series]


# agrees with E4 to q^2, so rows that differ only in it look dependent
# at a short truncation and not at a long one
CLOSE_TO_E4 = E4 + (E4**3 - E6**2) ** 3
FAMILY_LETTERS = [ONE, E2, E4, E6, E4 + E6, E2 * E4 - E6, derive(E4), E4 * F(3, 7), CLOSE_TO_E4]
FAMILY_MULTIPLIERS = [ONE, E2, E4, E4 + E6, QMPoly.constant(F(-3, 2)), QMPoly.constant(_RANK_PRIME),
                      QMPoly.constant(F(1, _RANK_PRIME))]
#: what a twin adds to a letter, (E4^3 - E6^2)^3 or ^5: O(q^3) or O(q^5)
TWIN_SHIFTS = [CLOSE_TO_E4 - E4, (E4**3 - E6**2) ** 5]


@st.composite
def integral_families(draw):
    """Rows (word, multiplier) with planted relations: by multilinearity in a
    letter (I(.., a, ..) + I(.., b, ..) = I(.., a + b, ..)), a repeated row
    with a scaled multiplier or one letter scaled, or a multiplier that is the
    sum of two others.  A multiplier divisible by the rank prime reaches the
    exact escape; a letter or multiplier with it in a denominator enters by
    its numerators.  Half the families start from a row and its
    twin, the row with one letter moved by CLOSE_TO_E4 - E4, which agrees
    with it to q^2, or by a multiple of Delta^5, which agrees to q^4.
    n <= 1 + l rows of words of up to l letters are read mod p to q^2
    first, where the two look dependent, so only the pass at trunc tells
    them apart; up to q^4 a Delta^5 twin is dependent, which the kernel's
    check on the exact rows shows."""
    word = st.lists(st.sampled_from(FAMILY_LETTERS), max_size=3).map(tuple)
    row = st.tuples(word, st.sampled_from(FAMILY_MULTIPLIERS))
    if draw(st.booleans()):
        w, m = draw(row.filter(lambda r: r[0]))
        i = draw(st.integers(0, len(w) - 1))
        rows = [(w, m), (w[:i] + (w[i] + draw(st.sampled_from(TWIN_SHIFTS)),) + w[i + 1 :], m)]
    else:
        rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        w, m = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["letter", "scale", "letter scale", "sum"] if w else ["scale", "sum"]))
        if kind == "letter":
            i, b = draw(st.integers(0, len(w) - 1)), draw(st.sampled_from(FAMILY_LETTERS))
            rows += [(w[:i] + (b,) + w[i + 1 :], m), (w[:i] + (w[i] + b,) + w[i + 1 :], m)]
        elif kind == "scale":
            rows.append((w, m * draw(st.sampled_from([F(2), F(-1, 3), F(_RANK_PRIME), F(1, _RANK_PRIME)]))))
        elif kind == "letter scale":
            i, c = draw(st.integers(0, len(w) - 1)), draw(st.sampled_from([F(-1, 3), F(5, 2), F(1, _RANK_PRIME)]))
            rows.append((w[:i] + (w[i] * c,) + w[i + 1 :], m))
        else:
            m2 = draw(st.sampled_from(FAMILY_MULTIPLIERS))
            rows += [(w, m2), (w, m + m2)]
    rows = draw(st.permutations(rows))
    return [w for w, _ in rows], [m for _, m in rows]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(integral_families(), st.integers(0, 12))
@example(([(E4,), (CLOSE_TO_E4,)], [ONE] * 2), 12)
@example(([(ONE, E4), (E6,), (ONE, CLOSE_TO_E4)], [E2, ONE, E2]), 9)
@example(([(E4,), (E6,), (E4 + E6,)], [ONE] * 3), 6)
@example(([(E4,), (E6, ONE), (E4 + E6,), (E6,), (E4, ONE)], [E2, ONE, E2, E2, ONE]), 5)
@example(([(derive(E4),), (), (E6, derive(E4)), (), (E6, ONE)], [ONE, ONE, E2, E4, E2]), 7)  # I(D(E4)) = 1 - E4
def test_independence_rank_matches_exact_rows(family, trunc):
    words, multipliers = family
    assert independence_rank(words, multipliers, trunc) == reference_rank(exact_rank_rows(words, multipliers, trunc))


def reference_integral(word, trunc, modulus):
    """iter_integral by its recursion on reference expansions, letter by letter from the last: no integral is cached."""
    series = LogQSeries.constant(1, trunc, modulus)
    for letter in reversed(word):
        series = primitive(-(reference_expand(letter, trunc, modulus) * series))
    return series


TRUNCATIONS = st.lists(st.integers(0, 12), min_size=1, max_size=4)  #: the N at which a rule ranks its family


class WarmRanksEqualCold(RuleBasedStateMachine):
    """Ranks through whatever the caches hold equal ranks from empty caches,
    and a kept proof spares exactly the eliminations it stands for.

    Drawn families are ranked at one to four drawn N, then ranked again as
    they are, reversed with a row repeated, with their rows permuted and a
    row repeated at a drawn place, or with other multipliers, at those N and
    one to four more, so that what one call keeps is read by another.  Between
    them, integrals and expansions over Q and mod p fill and evict the series
    caches, each checked against a reference that shares none of them, and
    clear_caches() empties everything.  Each rank is compared at the end
    with the rank of the same call from emptied caches, and so are its
    eliminations, the truncation of each certificate mod p and any exact
    one: none where the family's floor answered; where it read a certificate
    kept at q^t, those of its maker's rows from empty caches after their own
    at q^t, since a kept kernel, read by row, decides as it did for them
    (above q^t a new certificate in another row order may lift where theirs
    does not, so there only certificates count); else those of the call."""

    families = Bundle("families")

    def __init__(self):
        super().__init__()
        iterqm.clear_caches()
        self.ranks = []  # (words, multipliers, N, rank, floor and certificate read, eliminations)
        self.makers = {}  # id of a kept certificate: it, its t and the (words, multipliers) of the call that made it

    @staticmethod
    def observe(words, multipliers, trunc):
        """The rank, the family's key and (floor, certificate) as the call reads them, and its
        eliminations in order: (t, certificate) for each mod p, ("Q", None) for the exact one."""
        read, certify, exact = canonicalize._Proofs.read, canonicalize._residue_certificate, canonicalize._exact_rank
        seen, made = [], []
        canonicalize._Proofs.read = lambda store, key: seen.append((key, read(store, key))) or seen[-1][1]
        canonicalize._residue_certificate = lambda rows, t: made.append((t, certify(rows, t))) or made[-1][1]
        canonicalize._exact_rank = lambda rows: made.append(("Q", None)) or exact(rows)
        try:
            rank = independence_rank(words, multipliers, trunc)
        finally:
            canonicalize._Proofs.read, canonicalize._residue_certificate = read, certify
            canonicalize._exact_rank = exact
        return rank, *seen, made

    def rank(self, words, multipliers, truncs):
        for trunc in truncs:
            rank, (key, proof), made = self.observe(words, multipliers, trunc)
            kept = canonicalize._proofs.get(key, (None, None))[1]
            if kept is not None and kept is not proof[1]:  # made by this call's first certificate
                self.makers[id(kept)] = kept, made[0][0], (words, multipliers)
            self.ranks.append((words, multipliers, trunc, rank, proof, [t for t, _ in made]))

    @initialize(target=families)
    def rank_twins(self):
        """I(E4) and its twin, which agrees with it to q^4, ranked at q^3: the kernel of the
        certificate at q^2 is no identity but checks on the exact rows, so the certificate stays
        kept, and every run holds a family whose reordered calls read a kept kernel."""
        family = ([(E4,), (E4 + TWIN_SHIFTS[1],)], [ONE, ONE], [3])
        self.rank(*family)
        return family

    @rule(target=families, family=integral_families(), truncs=TRUNCATIONS)
    def rank_new(self, family, truncs):
        self.rank(*family, truncs)
        return (*family, truncs)

    @rule(family=families, truncs=TRUNCATIONS, data=st.data(),
          change=st.sampled_from(["none", "reversed", "permuted", "multipliers"]))
    def rank_again(self, family, truncs, change, data):
        rows, first = list(zip(*family[:2])), family[2]  # the rows, and the N they were first ranked at
        if change == "reversed":  # and its first row repeated
            rows = rows[-1:] + rows[::-1]
        elif change == "permuted":  # and a row repeated
            rows = data.draw(st.permutations(rows))
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(rows)))
        elif change == "multipliers":
            rows = [(w, data.draw(st.sampled_from(FAMILY_MULTIPLIERS))) for w, _ in rows]
        self.rank([w for w, _ in rows], [m for _, m in rows], first + truncs)

    @rule(word=st.lists(st.sampled_from(FAMILY_LETTERS), max_size=3), trunc=st.integers(0, 12),
          modulus=st.sampled_from([0, _RANK_PRIME]))
    def integral(self, word, trunc, modulus):
        assert iter_integral(word, trunc, modulus) == reference_integral(word, trunc, modulus)

    @rule(form=st.sampled_from([f for f in FAMILY_LETTERS + FAMILY_MULTIPLIERS if f.den % _RANK_PRIME]),
          trunc=st.integers(0, 12), modulus=st.sampled_from([0, _RANK_PRIME]))
    def expansion(self, form, trunc, modulus):
        assert expand(form, trunc, modulus) == reference_expand(form, trunc, modulus)

    @rule()
    def clear(self):
        iterqm.clear_caches()

    def teardown(self):
        for words, multipliers, trunc, rank, (floor, kept), made in self.ranks:
            iterqm.clear_caches()
            cold, _, cold_made = self.observe(words, multipliers, trunc)
            assert cold == rank, (words, multipliers, trunc)
            if floor and floor[0] <= trunc:
                want = []
            elif kept is not None and (maker := self.makers[id(kept)])[1] <= trunc:
                iterqm.clear_caches()
                want = [t for t, _ in self.observe(*maker[2], trunc)[2]][1:]
                if maker[1] < trunc:
                    made, want = ([t for t in ts if t != "Q"] for ts in (made, want))
            else:
                want = [t for t, _ in cold_made]
            assert made == want, (words, multipliers, trunc)


TestWarmRanksEqualCold = WarmRanksEqualCold.TestCase
TestWarmRanksEqualCold.settings = settings(derandomize=True, deadline=None, max_examples=40, stateful_step_count=12)


def forms(max_weight):
    """Nonzero forms of weight <= max_weight, E2 included, mixed weights allowed."""
    monos = [mono for k in range(0, max_weight + 1, 2) for mono in monomials_of_weight(k)]
    coeff = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    return st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=3).map(QMPoly)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(forms(12), st.sampled_from([1, F(7, 2), F(1, 7), F(1, _RANK_PRIME)]), st.integers(0, 40),
       st.sampled_from([0, _RANK_PRIME, 7]))
@example(ZERO, 1, 3, 7)
def test_expand_matches_the_per_monomial_reference(p, scale, trunc, modulus):
    """One dot product per q-power gives the series of the scaled and summed
    monomial products, or ZeroDivisionError on both sides: the modulus divides
    the denominator."""
    p = p * scale
    try:
        want = reference_expand(p, trunc, modulus)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            expand(p, trunc, modulus)
    else:
        assert expand(p, trunc, modulus) == want


@st.composite
def step_tails(draw):
    """Tails for an integration step to q^0..q^40: up to four L-parts at exponents in 0..8, with gaps
    between them, or one lone q^0 entry.  Denominators up to 6, so every tail has an image mod 7 and 23."""
    trunc, coefficient = draw(st.integers(0, 40)), st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 6))
    if draw(st.booleans()):
        return LogQSeries(trunc, {draw(st.integers(0, 8)): [draw(coefficient.filter(bool))]})
    parts = st.lists(coefficient, min_size=trunc // 2, max_size=trunc + 1)
    return LogQSeries(trunc, {k: draw(parts) for k in draw(st.sets(st.integers(0, 8), max_size=4))})


LONE_L6 = LogQSeries(9, {6: [1]})  # D(L^7) = 7 L^6: mod 7 the step divides by 7 at q^0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.sampled_from([ONE, -ONE, ZERO]), *[forms(12)] * 3), st.integers(0, 40), step_tails(),
       st.sampled_from([0, _RANK_PRIME, 2**61 - 1, 7, 23]))
@example(ONE, 9, LONE_L6, 7)
@example(ONE, 9, LONE_L6, 0)
@example(E4, 9, LogQSeries(9, {0: [0] * 7 + [1]}), 7)  # q^7 divided by 7
@example(E4, 30, LogQSeries(30, {0: [0] * 23 + [1]}), 23)  # q^23 divided by 23
@example(-ONE, 30, LogQSeries(30, {22: [1]}), 23)
def test_integral_step_is_the_primitive_of_minus_the_product(form, head_trunc, tail, modulus):
    """The one-pass step of iter_integral equals primitive(-(head * tail)), the two raising
    ZeroDivisionError on the same inputs, and solves D g = -(head * tail) with no q^0 L^0
    term.  Heads are constant (1, -1, 0) one time in four, else a form's expansion."""
    head, tail = expand(form, head_trunc, modulus), tail.modulo(modulus)
    try:
        want = primitive(-(head * tail))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _integral_step(head, tail)
        return
    got = _integral_step(head, tail)
    assert got == want
    assert d_op(got) == -(head * tail) and got.coefficient(0, 0) == 0


@st.composite
def bar_combos(draw, max_len=3, letter_weight=8):
    """Combinations of bar words: dicts from words to nonzero coefficients."""
    letter = forms(letter_weight).filter(lambda p: not is_basis_letter(p))
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        word = tuple(draw(st.lists(letter, max_size=max_len)))
        terms[word] = draw(forms(4))
    return terms


lyndon_monomials = st.lists(
    st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple).filter(is_lyndon), max_size=3
)


def lyndon_polys(coeff):
    return st.lists(st.tuples(lyndon_monomials, coeff), max_size=4).map(LyndonPoly)


# Both polynomials of a pair take their coefficients in one ring, Q or QM: a
# QMPoly never equals a Fraction, so sums across the two are not a group.
lyndon_poly_pairs = st.one_of(*(
    st.tuples(lyndon_polys(coeff), lyndon_polys(coeff))
    for coeff in (st.builds(F, st.integers(-3, 3), st.integers(1, 3)), polys(4))
))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lyndon_poly_pairs, st.sampled_from([-1, 1, F(-1, 2)]))
def test_combinations_form_a_group(pair, factor):
    x, z = pair
    # y shares x's keys, so that x + y cancels some or all of them
    for y in (z, LyndonPoly([(mono, factor * c) for mono, c in x.terms.items()]) + z):
        assert (x + y) - y == x
    assert x - x == x.zero() and (x - x).terms == {}
    assert -x + x == x.zero() and LyndonPoly([(mono, 0 * c) for mono, c in x.terms.items()]).terms == {}


def words(max_len):
    """Bar words of at most max_len letters drawn from the weight <= 6 basis."""
    return st.lists(st.sampled_from(basis_b(6)), max_size=max_len).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(words(3), words(3))
def test_shuffle_expands_to_product_of_integrals(w1, w2):
    n = 6
    product = shuffle(w1, w2)
    assert IntegralPoly.linear(product).expansion(n) == iter_integral(w1, n) * iter_integral(w2, n)


def form_words(max_len):
    """Bar words of at most max_len letters, each any form of weight <= 6."""
    return st.lists(forms(6), max_size=max_len).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(form_words(3), forms(6), form_words(3))
@example((), E4, ())
def test_ibp_equals_the_integral_with_a_derivative_letter(prefix, g, suffix):
    n = 6
    combo = ibp(prefix, g, suffix)
    assert IntegralPoly.linear(combo).expansion(n) == iter_integral(prefix + (derive(g),) + suffix, n)
    assert all(len(w) == len(prefix) + len(suffix) for w in combo)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 3), max_size=6).map(tuple))
def test_lyndon_basis_shuffles_back_to_the_word(w):
    assert shuffle_expand(to_lyndon_basis(w)) == {w: 1}


letter_words = st.lists(st.integers(0, 3), max_size=6).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(
    st.dictionaries(letter_words, st.fractions(max_denominator=9).filter(bool), max_size=5),
    st.dictionaries(letter_words, polys(4).filter(lambda p: not p.is_zero()), max_size=5),
))
@example({(): F(2), (1, 0): F(-1, 3), (3, 3, 1, 0, 2): F(5), (2, 2, 2): F(1, 2)})
@example({(): E4, (0, 1): E2 * E6, (1, 0): QMPoly.constant(3), (3, 0, 3, 0, 1, 1): -E4})
def test_lyndon_basis_of_a_combination(combo):
    """The whole combination reduces to what its words reduce to, term by term."""
    poly = to_lyndon_basis(combo)
    assert shuffle_expand(poly) == combo
    per_word = LyndonPoly.zero()
    for w, c in combo.items():
        per_word = per_word + to_lyndon_basis({w: c})
    assert poly == per_word


# squares of words: every Lyndon factor repeats, so lead is not 1 on the first rewrite
repeating_words = st.one_of(letter_words, st.lists(st.integers(0, 3), max_size=3).map(lambda w: tuple(w) * 2))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(
    st.dictionaries(repeating_words, st.fractions(max_denominator=9).filter(bool), max_size=5),
    st.dictionaries(repeating_words, polys(4).filter(lambda p: not p.is_zero()), max_size=5),
))
@example({(1, 0, 1, 0): F(1, 3), (2, 2, 1): F(5), (0, 1, 0, 1): F(-2, 7), (3, 3, 3): F(1)})
@example({(0, 1, 0, 1, 0, 1): E4 - E2 * E6 * F(1, 3), (3, 3, 3): E6, (2, 1, 2, 1): E2 * F(1, 2), (0,): ONE})
def test_lyndon_basis_matches_the_reference(combo):
    """Integer rows, each over its own denominator, give what reduction on the coefficients gives."""
    assert to_lyndon_basis(combo) == reference_to_lyndon_basis(combo)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bar_combos(letter_weight=8))
def test_reduce_letters_matches_the_reference(combo):
    """Integer rows give the same dict of QMPoly as whole-QMPoly arithmetic."""
    assert reduce_letters(combo) == reference_reduce_letters(combo)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bar_combos())
def test_canonical_form_round_trip(combo):
    integrals = IntegralPoly.linear(combo)
    cf = canonical_form(integrals)
    assert cf.expansion(6) == integrals.expansion(6)
    assert all(is_lyndon(w) for mono in cf.poly.terms for w in mono)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bar_combos(), st.booleans())
@example({(E4, E6 * E4): E4 + 1, (): E6}, True)
def test_canonical_json_is_compact_and_exact(combo, modular):
    integrals = IntegralPoly.linear(combo)
    try:
        cf = canonical_form(integrals, modular_only=modular)
    except ModularModeError:  # modular mode only where the combination avoids E2
        cf = canonical_form(integrals)
    assert_compact_json_of(canonical_to_json(cf), cf, canonical_from_json)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bar_combos(max_len=2), bar_combos(max_len=2))
def test_canonical_form_is_a_ring_homomorphism(x, y):
    """Shuffle products of integrals map to products of Lyndon polynomials.

    Letter indices agree between the three forms although their bases may
    differ: each basis is a prefix of any basis of larger maximal weight,
    because weights lead the letter order.  Words have at most two letters:
    with three, reducing the letters of the six-letter product words made
    the 60 examples take over a minute.
    """
    cx, cy = canonical_form(IntegralPoly.linear(x)), canonical_form(IntegralPoly.linear(y))
    cxy = canonical_form(IntegralPoly.linear(shuffle_combos(x, y)))
    assert cxy.poly == cx.poly * cy.poly


def reference_join(terms):
    """Signed (Fraction, name) terms as text: the reference for the CLI's joiner on numerators."""
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


def reference_form_terms(p):
    terms = p.terms
    keys = sorted(terms, key=lambda k: (2 * k[0] + 4 * k[1] + 6 * k[2], k), reverse=True)
    return [(terms[k], monomial_name(k)) for k in keys]


def reference_format_canonical(cf):
    terms = []
    for mono, coeff in _canonical_terms(cf):
        mono_str = "*".join(_power(_word_name(w, cf.basis), n) for w, n in sorted(Counter(mono).items()))
        if not mono_str:
            terms += reference_form_terms(coeff)
        elif coeff.terms.keys() == {(0, 0, 0)}:
            terms.append((coeff.terms[0, 0, 0], mono_str))
        else:
            terms.append((1, f"({reference_join(reference_form_terms(coeff))})*{mono_str}"))
    return reference_join(terms)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(log_series(), st.one_of(polys(), homogeneous()), st.sampled_from([1, -1, F(-1, 7), F(10**12, 3)]))
def test_text_rendering_matches_the_fraction_reference(s, p, scale):
    assert format_series(s) == reference_join([
        (s.coefficient(m, k), "*".join(filter(None, (_power("q", m), _power("L", k)))))
        for m in range(s.trunc + 1) for k in sorted(s.parts) if s.coefficient(m, k)
    ])
    p = p * scale
    assert format_qmpoly(p) == reference_join(reference_form_terms(p))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(bar_combos(max_len=2))
def test_canonical_text_matches_the_fraction_reference(combo):
    cf = canonical_form(IntegralPoly.linear(combo))
    assert format_canonical(cf) == reference_format_canonical(cf)


def _render(combo):
    """Expression text for a combination of bar words, every form in brackets."""
    def form(p):
        return f"({format_qmpoly(p)})"
    return " + ".join(f"{form(c)}*I({', '.join(map(form, w))})" if w else form(c)
                      for w, c in combo.items()) or "0"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bar_combos())
def test_linear_is_the_parse_of_the_combination(combo):
    """Letters numbered as first seen, the empty word as the constant monomial."""
    assert IntegralPoly.linear(combo) == parse(_render(combo))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(bar_combos(letter_weight=4), bar_combos(letter_weight=4))
def test_integral_and_canonical_are_ring_homomorphisms(x, y):
    """A parsed product is the product of its factors' series and canonical
    forms, and agrees with the canonical form of the expanded shuffle."""
    n = 6
    px, py, pxy = parse(_render(x)), parse(_render(y)), parse(f"({_render(x)})*({_render(y)})")
    assert pxy.expansion(n) == px.expansion(n) * py.expansion(n)
    cxy = canonical_form(pxy)
    assert cxy.poly == canonical_form(px).poly * canonical_form(py).poly
    assert cxy == canonical_form(IntegralPoly.linear(shuffle_combos(x, y)))


braid_words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=12).map(tuple)


def branch_log(word, tau):
    mat, turns = _read_braid(word)
    return _ctx.make_mpc(_branch_log((mat.c * mpc(tau) + mat.d)._mpc_, turns))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(braid_words, braid_words)
def test_branch_log_composes_along_the_word(w1, w2):
    g2 = b3_to_sl2(w2)
    try:
        tau = admissible_tau(g2)
    except ValueError:
        assume(False)
    split = branch_log(w1, g2.moebius(mpc(tau))) + branch_log(w2, tau)
    assert abs(branch_log(w1 + w2, tau) - split) < 1e-40


st_words = st.lists(st.sampled_from((S, T)), max_size=6).map(lambda gs: reduce(operator.mul, gs, IDENTITY))
dyadics = st.builds(lambda m, e: _ctx.ldexp(m, e), st.integers(-2**30, 2**30), st.integers(-20, 20))
dyadic_polys = st.integers(0, 20).flatmap(
    lambda d: st.lists(st.builds(mpc, dyadics, dyadics), min_size=d + 1, max_size=d + 1).map(lambda cs: XYPoly(d, cs)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(dyadic_polys, st_words, st_words)
def test_slash_is_a_right_action(p, g1, g2):
    # exactly so on integers; each slash_poly rounds once, so the two sides
    # differ by at most the first rounding carried through g2 plus the last two
    re, im, _ = _read([c._mpc_ for c in p.coeffs])
    assert _slashed(*_slashed(re, im, g1), g2) == _slashed(re, im, g1 * g2)
    once = slash_poly(p, g1)
    lhs, rhs = slash_poly(once, g2), slash_poly(p, g1 * g2)
    a, b, c, d = g2.entries()
    spread = sum(map(abs, once.coeffs)) * max(abs(a) + abs(b), abs(c) + abs(d)) ** p.degree
    assert lhs.distance(rhs) <= _ctx.ldexp(spread, -(dps_to_prec(WORKING_DPS) - 2))
    minus = slash_poly(p, SL2Mat(-1, 0, 0, -1))
    assert minus.coeffs == tuple((-1) ** p.degree * c for c in p.coeffs)


# Expression trees as (text, precedence, value, letters): the text is rendered
# with the brackets that precedence needs, the value is built directly, a
# QMPoly by its operators or a combination of bar words (a dict) by
# _accumulate and shuffle_combos, and letters bounds the word length of a combo.
SUM, TERM, FACTOR, ATOM = range(4)
MAX_LETTERS = 5


def _operand(node, level):
    return node[0] if node[1] >= level else f"({node[0]})"


def _negate(node, neg):
    text = _operand(node, FACTOR)
    return (f"-({text})" if text[0].isdigit() else f"-{text}", FACTOR, neg(node[2]), node[3])


def _expressions(leaves, add, neg, times, power, extra=()):
    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-"), children).map(lambda t: (
                f"{t[0][0]} {t[1]} {_operand(t[2], TERM)}", SUM,
                add(t[0][2], t[2][2] if t[1] == "+" else neg(t[2][2])), max(t[0][3], t[2][3]),
            )),
            st.tuples(children, children).filter(lambda t: t[0][3] + t[1][3] <= MAX_LETTERS).map(lambda t: (
                f"{_operand(t[0], TERM)}*{_operand(t[1], FACTOR)}", TERM, times(t[0][2], t[1][2]), t[0][3] + t[1][3],
            )),
            children.map(lambda n: _negate(n, neg)),
            st.tuples(children, st.integers(0, 3)).filter(lambda t: t[0][3] * t[1] <= MAX_LETTERS).map(lambda t: (
                f"{_operand(t[0], ATOM)}^{t[1]}", FACTOR, power(t[0][2], t[1]), t[0][3] * t[1],
            )),
            *(f(children) for f in extra),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _derivatives(children):
    return children.map(lambda n: (f"D({n[0]})", ATOM, derive(n[2]), 0))


form_exprs = _expressions(
    st.one_of(
        st.sampled_from([("E2", ATOM, E2, 0), ("E4", ATOM, E4, 0), ("E6", ATOM, E6, 0)]),
        st.fractions(max_denominator=12).filter(lambda x: abs(x) < 100).map(
            lambda x: (str(x), ATOM, QMPoly.constant(x), 0)
        ),
    ),
    operator.add,
    operator.neg,
    lambda a, b: a * b,
    lambda a, n: a**n,
    extra=(_derivatives,),
)


def _shuffle_power(combo, n):
    out = {(): ONE}
    for _ in range(n):
        out = shuffle_combos(out, combo)
    return out


def _word(letters):
    """The combination 1 * I(letters); a zero letter kills the integral."""
    return {letters: ONE} if all(letters) else {}


combo_exprs = _expressions(
    st.one_of(
        form_exprs.map(lambda n: (n[0], n[1], _accumulate({}, [((), n[2])]), 0)),
        st.lists(form_exprs, min_size=1, max_size=2).map(lambda letters: (
            "I(" + ", ".join(n[0] for n in letters) + ")", ATOM,
            _word(tuple(n[2] for n in letters)), len(letters),
        )),
    ),
    lambda a, b: _accumulate(dict(a), b.items()),
    lambda a: {w: -c for w, c in a.items()},
    shuffle_combos,
    _shuffle_power,
)


_TOKEN = re.compile(r"E[246]|[0-9]+(?:/[0-9]+)?|\S")


def _respellings(text):
    """``text`` with a space between tokens, with an em space between them (a
    whitespace no monomial term takes, so every term goes through the grammar),
    and with every generator and unsigned number not after '-' or '^' in
    brackets, so that no product is read as one monomial term."""
    tokens = _TOKEN.findall(text)
    bracketed = [f"({t})" if t[0] in "E0123456789" and prev not in "-^" else t
                 for prev, t in zip([""] + tokens, tokens)]
    return " ".join(tokens), "\u2003".join(tokens), "".join(bracketed)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(form_exprs)
@example(("-2^2", FACTOR, QMPoly.constant(4), 0))  # a '-' before a digit signs the literal
@example(("E6*-3/2^2", TERM, E6 * F(9, 4), 0))
@example(("-8*E2^2*E4 + 3 - -2^2*E6 - 0*E4", SUM, -8 * E2**2 * E4 + 3 - 4 * E6, 0))
def test_parse_evaluates_forms(node):
    """Every spelling, read by monomial terms or by the grammar alone, has the value."""
    for text in (node[0], *_respellings(node[0])):
        assert parse(text, integrals=False) == node[2], text
        assert shuffle_expansion(parse(text)) == _accumulate({}, [((), node[2])]), text


@settings(derandomize=True, deadline=None, max_examples=200)
@given(combo_exprs)
def test_parse_evaluates_combos(node):
    for text in (node[0], *_respellings(node[0])):
        assert shuffle_expansion(parse(text)) == node[2], text
