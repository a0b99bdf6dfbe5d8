"""Generated-input properties of the series ring, the weight split, the
exact rank, the shuffle product and the canonical form.

Runs only where Hypothesis is installed; the seeded tests in
test_qseries.py, test_quasimodular.py and test_canonicalize.py cover the
same code without it.
"""

import json
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import monomials_of_weight  # noqa: E402
from iterqm.canonicalize import _RANK_PRIME, canonical_form, rational_rank  # noqa: E402
from iterqm.cli import series_from_json, series_to_json  # noqa: E402
from iterqm.iterint import BarCombo, iter_integral  # noqa: E402
from iterqm.qseries import LogQSeries, d_op, primitive  # noqa: E402
from iterqm.quasimodular import E2, ONE, QMPoly, basis_b, decompose, derive, is_basis_letter  # noqa: E402
from iterqm.shuffle_lyndon import is_lyndon  # noqa: E402
from test_canonicalize import reference_rank  # noqa: E402
from test_qseries import schoolbook  # noqa: E402
from test_quasimodular import reference_decompose  # noqa: E402

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
    text = json.dumps(series_to_json(s))
    again = series_from_json(json.loads(text))
    assert again == s
    assert json.dumps(series_to_json(again)) == text


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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(homogeneous())
def test_decompose_round_trip(p):
    c, m, h = decompose(p)
    assert c * E2 + m + derive(h) == p
    assert m.is_modular()
    if not p.is_zero() and p.weight() > 2:
        assert (c, m, h) == reference_decompose(p)
        assert c == F(0)


@st.composite
def rational_matrices(draw):
    """Small matrices, with entries that are multiples or fractions of the
    rank prime and rows that are combinations of earlier ones."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
        st.sampled_from([F(_RANK_PRIME), F(-2 * _RANK_PRIME), F(1, _RANK_PRIME), F(_RANK_PRIME, 7)]),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rational_matrices())
def test_rational_rank_matches_elimination(rows):
    assert rational_rank(rows) == reference_rank(rows)


def forms(max_weight):
    """Nonzero forms of weight <= max_weight, E2 included, mixed weights allowed."""
    monos = [mono for k in range(0, max_weight + 1, 2) for mono in monomials_of_weight(k)]
    coeff = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    return st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=3).map(QMPoly)


@st.composite
def bar_combos(draw):
    letter = forms(8).filter(lambda p: not is_basis_letter(p))
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        word = tuple(draw(st.lists(letter, max_size=3)))
        terms[word] = draw(forms(4))
    return BarCombo(terms)


def words(max_len):
    """Bar words of at most max_len letters drawn from the weight <= 6 basis."""
    return st.lists(st.sampled_from(basis_b(6)), max_size=max_len).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(words(3), words(3))
def test_shuffle_expands_to_product_of_integrals(w1, w2):
    n = 6
    product = BarCombo({w1: ONE}).shuffle(BarCombo({w2: ONE}))
    assert product.expansion(n) == iter_integral(w1, n) * iter_integral(w2, n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bar_combos())
def test_canonical_form_round_trip(combo):
    cf = canonical_form(combo)
    assert cf.expansion(6) == combo.expansion(6)
    assert all(is_lyndon(w) for mono in cf.poly.terms for w in mono)
