"""The benchmark's oracles against classical known values.

Run with ``python3 -m pytest bench`` from the root of the repository.
"""

from fractions import Fraction

from oracles import (
    PRIME,
    Field,
    SeriesOracle,
    as_terms,
    e2_cocycle_closed_form,
    is_lyndon_by_rotation,
    rank_mod_p,
    sigma,
)

E2 = {(1, 0, 0): 1}
E4 = {(0, 1, 0): 1}
E6 = {(0, 0, 1): 1}
DELTA = {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)}
D_E4 = {(1, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1, 3)}  # Ramanujan: D(E4)


def test_sigma():
    assert [sigma(n, 1) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert sigma(6, 3) == 1 + 8 + 27 + 216


def test_eisenstein_expansions():
    o = SeriesOracle(4)
    assert o.expand(E2) == [1, -24, -72, -96, -168]
    assert o.expand(E4) == [1, 240, 2160, 6720, 17520]
    assert o.expand(E6) == [1, -504, -16632, -122976, -532728]


def test_discriminant():
    assert SeriesOracle(6).expand(DELTA) == [0, 1, -24, 252, -1472, 4830, -6048]


def test_integral_of_one_and_e2():
    o = SeriesOracle(8)
    assert as_terms(o.integral([{(0, 0, 0): 1}])) == {(0, 1): -1}
    expected = {(0, 1): -1}
    expected.update({(m, 0): Fraction(24 * sigma(m, 1), m) for m in range(1, 9)})
    assert as_terms(o.integral([E2])) == expected


def test_integral_satisfies_its_differential_equation():
    o = SeriesOracle(10)
    word = [E4, E2, {(0, 0, 0): 3}]
    value, tail = o.integral(word), o.integral(word[1:])
    # D(sum c q^m L^k) = sum c (m q^m L^k + k q^m L^(k-1))
    derivative: dict = {}
    for (m, k), c in as_terms(value).items():
        derivative[(m, k)] = derivative.get((m, k), 0) + m * c
        if k:
            derivative[(m, k - 1)] = derivative.get((m, k - 1), 0) + k * c
    minus_f_tail = o.times([-x for x in o.expand(word[0])], tail)
    assert {key: c for key, c in derivative.items() if c} == as_terms(minus_f_tail)
    assert as_terms(value).get((0, 0), 0) == 0


def test_modular_field_matches_rationals():
    exact, modp = SeriesOracle(6), SeriesOracle(6, Field(PRIME))
    word = [DELTA, E6]
    f = Field(PRIME)
    assert {key: f.of(c) for key, c in as_terms(exact.integral(word)).items()} == as_terms(
        modp.integral(word)
    )


def test_rank_mod_p():
    assert rank_mod_p([[1, 2, 3], [2, 4, 6]]) == 1
    assert rank_mod_p([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank_mod_p([[0, 0], [0, 0]]) == 0


def _rows(o: SeriesOracle, family) -> list:
    series = [o.times(o.expand(mult), o.integral(word)) for word, mult in family]
    top = max(max(s) for s in series)
    return [[c for k in range(top + 1) for c in s.get(k, [0] * (o.n + 1))] for s in series]


def test_planted_family_is_one_short():
    o = SeriesOracle(20, Field(PRIME))
    one = {(0, 0, 0): 1}
    family = [([one, E4], one), ([E4], one), ([E2, E4], E4)]
    assert rank_mod_p(_rows(o, family)) == 3
    planted = family + [([D_E4], one), ([], one), ([], E4)]
    assert rank_mod_p(_rows(o, planted)) == len(planted) - 1


def test_lyndon_by_rotation():
    assert is_lyndon_by_rotation((0, 1))
    assert is_lyndon_by_rotation((0, 0, 1, 0, 1))
    assert not is_lyndon_by_rotation((1, 0))
    assert not is_lyndon_by_rotation((0, 1, 0, 1))
    assert not is_lyndon_by_rotation(())


def test_e2_cocycle_closed_form():
    two_pi_i = 2j * 3.141592653589793
    assert abs(e2_cocycle_closed_form((1,)) + two_pi_i) < 1e-12
    assert abs(e2_cocycle_closed_form((2,)) + two_pi_i) < 1e-12
    assert e2_cocycle_closed_form((1, -2)) == 0
    assert abs(e2_cocycle_closed_form((1, 2) * 6) + 12 * two_pi_i) < 1e-9
