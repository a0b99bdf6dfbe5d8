import ast
import math
import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import iterqm
import iterqm.iterint as iterint
from conftest import cusp_value, ibp
from iterqm.expr import parse
from iterqm.iterint import BarWord, IntegralPoly, _as_word, _iter_integral, iter_integral
from iterqm.linear import _accumulate
from iterqm.qseries import LogQSeries, d_op
from iterqm.quasimodular import DELTA, E2, E4, E6, ONE, QMPoly, derive, expand
from iterqm.shuffle_lyndon import LyndonPoly, shuffle


def L(trunc, k=1, coeff=1):
    return LogQSeries(trunc, {k: [coeff]})


class TestIterIntegral:
    def test_constant_one_letter(self):
        assert iter_integral((ONE,), 3) == L(3, coeff=-1)

    def test_e2_series(self):
        # -L + 24q + 36q^2 : two oracles, termwise -a_n/n and -log Delta
        got = iter_integral((E2,), 2)
        want = LogQSeries(2, {1: [-1, 0, 0], 0: [0, 24, 36]})
        assert got == want

    def test_log_delta_oracle(self):
        # I(E2) = -(L + log(Delta/q)) with log computed by the series
        # recurrence n*l_n = [q^n](D(u)/u) from the product formula for u
        n = 100
        u = LogQSeries.constant(1, n)
        for m in range(1, n + 1):
            u = u * LogQSeries(n, {0: [1] + [0] * (m - 1) + [-1]})
        eta24 = LogQSeries.constant(1, n)
        for _ in range(24):
            eta24 = eta24 * u
        u = eta24
        du = d_op(u)
        # c = D(u)/u by the convolution recurrence c_n = du_n - sum_{j<n} c_j u_{n-j}
        c = [F(0)] * (n + 1)
        for m in range(n + 1):
            acc = du.coefficient(m, 0)
            for j in range(m):
                acc -= c[j] * u.coefficient(m - j, 0)
            c[m] = acc
        logu = [F(0)] * (n + 1)
        for m in range(1, n + 1):
            logu[m] = c[m] / m
        oracle = L(n, coeff=-1) - LogQSeries(n, {0: logu})
        assert iter_integral((E2,), n) == oracle

    def test_termwise_sigma_oracle(self):
        # -L + 24 sum sigma1(n)/n q^n
        n = 50
        coeffs = [F(0)] + [
            F(24 * sum(d for d in range(1, m + 1) if m % d == 0), m) for m in range(1, n + 1)
        ]
        assert iter_integral((E2,), n) == L(n, coeff=-1) + LogQSeries(n, {0: coeffs})

    def test_double_one(self):
        assert iter_integral((ONE, ONE), 3) == L(3, k=2, coeff=F(1, 2))

    def test_one_e4(self):
        got = iter_integral((ONE, E4), 2)
        want = LogQSeries(2, {2: [F(1, 2)], 0: [0, 240, 540]})
        assert got == want

    def test_empty_word(self):
        assert iter_integral((), 4) == LogQSeries.constant(1, 4)

    def test_log_degree_bound_and_vanishing_constant(self):
        rng = random.Random(21)
        pool = [ONE, E2, E4, DELTA]
        for _ in range(15):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            s = iter_integral(word, 10)
            assert s.log_degree() <= len(word)
            assert s.coefficient(0, 0) == 0

    def test_ode(self):
        pool = [ONE, E2, E4, DELTA]
        for n in (1, 2, 3):
            for word in product(pool, repeat=n):
                s = iter_integral(word, 12)
                tail = iter_integral(word[1:], 12)
                lhs = d_op(s) + expand(word[0], 12) * tail
                assert lhs.is_zero(), word

    def test_constant_term_structure(self):
        # q^0 part of I(f1..fn) = (prod f_j(cusp)) (-L)^n / n!
        pool = [ONE, E2, E4, DELTA]
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(1, 3)
            word = tuple(rng.choice(pool) for _ in range(n))
            s = iter_integral(word, 8)
            c = F(1)
            for f in word:
                c *= cusp_value(f)
            coeff = c * F((-1) ** n, math.factorial(n))
            for k in range(s.log_degree() + 1):
                expected = coeff if k == n else F(0)
                assert s.coefficient(0, k) == expected, (word, k)


class TestLongWords:
    def test_1100_letters(self):
        # I(1, ..., 1) = (-L)^n / n!; plain recursion ran out of stack here
        got = iter_integral((ONE,) * 1100, 0)
        assert got == L(0, k=1100, coeff=F(1, math.factorial(1100)))

    def test_short_words_make_the_same_lookups(self):
        # a fresh word of n letters costs n + 1 misses and no hit, as with
        # plain recursion; repeating it is one hit
        word = (E4, QMPoly({(0, 0, 1): 7}), E2 * E6)
        _iter_integral.cache_clear()
        before = _iter_integral.cache_info()
        iter_integral(word, 3)
        mid = _iter_integral.cache_info()
        assert (mid.misses - before.misses, mid.hits - before.hits) == (4, 0)
        iter_integral(word, 3)
        after = _iter_integral.cache_info()
        assert (after.misses - mid.misses, after.hits - mid.hits) == (0, 1)


class TestResidues:
    def test_integrals_and_expansions_reduce(self):
        # the same steps over Z/p give the exact results' images
        p = 2**30 - 35
        rng = random.Random(61)
        letters = [ONE, E2, E4, E6, DELTA, derive(E4), E4 * F(-5, 691), E2 * E2 - E4]
        for _ in range(30):
            n = rng.randint(0, 12)
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            assert iter_integral(word, n, p) == iter_integral(word, n).modulo(p)
            assert expand(word[0] if word else DELTA, n, p) == expand(word[0] if word else DELTA, n).modulo(p)

    @pytest.mark.parametrize("n, p", [(20, 2**30 - 35), (40, 2**30 - 35), (20, 23), (40, 41), (20, 2**61 - 1)])
    def test_agreement_at_certify_sizes(self, n, p):
        # words of up to four letters: log-degree up to 4, residues near p for a prime just above n;
        # any prime is a modulus, one beyond 2^32 too
        rng = random.Random(n + p)
        letters = [ONE, E2, E4, E6, DELTA, derive(E4), E4 * F(-5, 691), E2 * E2 - E4]
        for _ in range(6):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            mult = rng.choice(letters)
            exact = expand(mult, n) * iter_integral(word, n)
            assert exact.log_degree() <= 4
            assert iter_integral(word, n, p) == iter_integral(word, n).modulo(p)
            assert expand(mult, n, p) * iter_integral(word, n, p) == exact.modulo(p)


class TestShuffleWords:
    def test_two_singletons(self):
        assert shuffle((E4,), (E6,)) == {(E4, E6): 1, (E6, E4): 1}

    def test_unit(self):
        assert shuffle((E4,), ()) == {(E4,): 1}

    def test_length_three(self):
        got = shuffle((E2, E4), (E6,))
        want = {(E2, E4, E6): 1, (E2, E6, E4): 1, (E6, E2, E4): 1}
        assert got == want

    def test_shuffle_identity_exact(self):
        # I(w1) I(w2) = sum over shuffles, exact at N=30
        pool = [ONE, E2, E4, E6, DELTA]
        rng = random.Random(23)
        cases = 0
        for _ in range(40):
            n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
            w1 = tuple(rng.choice(pool) for _ in range(n1))
            w2 = tuple(rng.choice(pool) for _ in range(n2))
            lhs = iter_integral(w1, 30) * iter_integral(w2, 30)
            assert lhs == IntegralPoly.linear(shuffle(w1, w2)).expansion(30)
            cases += 1
        assert cases == 40


def r_map(word) -> dict[BarWord, QMPoly]:
    """Alternating shuffle of prefixes against reversed constant-term letters.

    The n-th letter contributes its cusp value as a constant letter; the
    image combination is the one whose iterated integrals converge at the
    cusp without regularization.
    """
    word = _as_word(word)
    n = len(word)
    consts = tuple(QMPoly.constant(cusp_value(letter)) for letter in reversed(word))
    total: dict[BarWord, QMPoly] = {}
    for i in range(n + 1):
        front, back = word[:i], consts[: n - i]
        if all(front + back):  # the integral is multilinear: a zero letter kills it
            sign = -1 if (n - i) % 2 else 1
            _accumulate(total, ((w, QMPoly.constant(sign * m)) for w, m in shuffle(front, back).items()))
    return total


def _combo_integral(combo, n):
    total = LogQSeries.zero(n)
    for word, coeff in combo.items():
        total = total + expand(coeff, n) * iter_integral(word, n)
    return total


class TestRegularizationAgreesWithAlternatingSum:
    """The ODE-with-zero-constant integral equals the alternating-sum
    construction: I(w) = sum_i (-1)^(n-i) I(R[w_<=i]) (prod tail cusp
    values) L^(n-i)/(n-i)!, exactly."""

    WORDS = [
        (E2,), (E4,), (ONE,), (DELTA,),
        (E2, E4), (E4, E6), (ONE, E2), (DELTA, E4), (ONE, ONE),
        (E2, E4, E6), (ONE, E2, E4), (E4, ONE, E6), (DELTA, ONE, E2),
    ]

    @staticmethod
    def _alternating_sum(word, n):
        m = len(word)
        total = LogQSeries.zero(n)
        for i in range(m + 1):
            consts = F(1)
            for f in word[i:]:
                consts *= cusp_value(f)
            piece = _combo_integral(r_map(word[:i]), n)
            if m - i:
                piece = piece * LogQSeries(n, {m - i: [F(1, math.factorial(m - i))]})
            total = total + piece.scale(consts * F((-1) ** (m - i)))
        return total

    def test_exact_agreement(self):
        for w in self.WORDS:
            assert iter_integral(w, 18) == self._alternating_sum(w, 18), w

    def test_r_image_integrals_vanish_at_cusp(self):
        # the R-map produces combinations whose integrals converge at the
        # cusp: the whole q^0 layer (all log powers) is zero
        for w in self.WORDS:
            s = _combo_integral(r_map(w), 18)
            assert all(s.coefficient(0, k) == 0 for k in range(s.log_degree() + 1)), w


class TestRMap:
    def test_single_eisenstein(self):
        assert r_map((E4,)) == {(E4,): ONE, (ONE,): -ONE}

    def test_cusp_form_unchanged(self):
        assert r_map((DELTA,)) == {(DELTA,): ONE}

    def test_empty(self):
        assert r_map(()) == {(): ONE}

    def test_length_two_shape(self):
        # R[f|g] = [f|g] - [f] sh [g^inf] + [g^inf|f^inf]
        f, g = E4, E6
        one = QMPoly.constant(1)
        want = {(f, g): ONE, (one, one): ONE}
        want.update({w: QMPoly.constant(-m) for w, m in shuffle((f,), (one,)).items()})
        assert r_map((f, g)) == want


class TestIntegrationByParts:
    """ibp at each position, named like the rules reduce_letters logs."""

    def test_ibp_first_shape(self):
        # I(D(g), f2) = I(g f2) - g I(f2)
        assert ibp((), E2, (E4,)) == {(E2 * E4,): ONE, (E4,): -E2}

    def test_ibp_first_numeric(self):
        # I(D(g), f2) = I(g f2) - g I(f2), exact at N=25
        g, f2 = E4, E6
        assert IntegralPoly.linear(ibp((), g, (f2,))).expansion(25) == iter_integral((derive(g), f2), 25)

    def test_ibp_middle_cancels_for_unit(self):
        assert ibp((E2,), ONE, (E4,)) == {}

    def test_ibp_of_a_zero_letter_is_zero(self):
        # the integral is multilinear: g = 0, so D(g) = 0, or a zero neighbour kills every term
        zero = QMPoly()
        for prefix, g, suffix in [((E2,), zero, (E4,)), ((), zero, ()), ((), zero, (E6,)), ((E4,), zero, ()),
                                  ((zero,), E4, (E6,)), ((E2, zero), E4, ()), ((), E4, (E6, zero))]:
            assert ibp(prefix, g, suffix) == {}

    def test_ibp_middle_numeric(self):
        for prefix, g, suffix in [((ONE,), E4, (ONE,)), ((E2,), E2, (E4,)), ((E4,), E6, (ONE, E2))]:
            lhs = iter_integral(prefix + (derive(g),) + suffix, 20)
            rhs = IntegralPoly.linear(ibp(prefix, g, suffix)).expansion(20)
            assert lhs == rhs, (prefix, g, suffix)

    def test_ibp_last_shapes(self):
        # I(f, D(g)) = g(cusp) I(f) - I(f g); a cusp form drops the first term
        assert ibp((ONE,), E4, ()) == {(ONE,): ONE, (E4,): -ONE}
        assert ibp((E4,), DELTA, ()) == {(E4 * DELTA,): -ONE}

    def test_ibp_last_boundary_is_the_cusp_value(self):
        # g(cusp) * I(f), built from g's numerators: the same dict as QMPoly.constant(cusp_value(g))
        for g in (E4, E2 * F(-3, 7), E4 * F(6, 5) - E2 * E6 * F(1, 10), DELTA, E4 - E2 * E2, E6 * 691 + ONE):
            want = {(E6,): QMPoly.constant(cusp_value(g))} if cusp_value(g) else {}
            assert {w: c for w, c in ibp((E6,), g, ()).items() if w == (E6,)} == want, g
            assert ibp((), g, ()) == {(): QMPoly.constant(cusp_value(g)) - g}, g

    def test_ibp_last_numeric(self):
        front, g = (E2,), E6
        assert IntegralPoly.linear(ibp(front, g, ())).expansion(25) == iter_integral(front + (derive(g),), 25)

    def test_ibp_last_empty_front(self):
        # I(D(g)) = g(cusp) - g, on the empty word
        for g in (E4, E2 * E4, DELTA):
            assert ibp((), g, ()) == {(): QMPoly.constant(cusp_value(g)) - g}, g
            assert IntegralPoly.linear(ibp((), g, ())).expansion(20) == iter_integral((derive(g),), 20), g

    def test_random_instances(self):
        rng = random.Random(24)
        pool = [ONE, E2, E4, E6, DELTA, E2 * E4]
        for _ in range(25):
            g = rng.choice(pool[1:])
            n = rng.randint(1, 3)
            word = [rng.choice(pool) for _ in range(n)]
            pos = rng.randint(0, n)
            full = tuple(word[:pos]) + (derive(g),) + tuple(word[pos:])
            rhs = IntegralPoly.linear(ibp(tuple(word[:pos]), g, tuple(word[pos:]))).expansion(15)
            assert iter_integral(full, 15) == rhs

    def test_length_filtration_witness(self):
        # a word containing a derivative letter lies in the span of
        # integrals exactly one letter shorter
        rng = random.Random(25)
        pool = [ONE, E2, E4, E6]
        for _ in range(10):
            g = rng.choice([E2, E4, E6])
            n = rng.randint(1, 2)
            word = [rng.choice(pool) for _ in range(n)]
            pos = rng.randint(0, n)
            full = tuple(word[:pos]) + (derive(g),) + tuple(word[pos:])
            combo = ibp(tuple(word[:pos]), g, tuple(word[pos:]))
            assert all(len(w) == len(full) - 1 for w in combo)
            assert iter_integral(full, 12) == IntegralPoly.linear(combo).expansion(12)


class TestLinear:
    """IntegralPoly.linear: a combination of words as a polynomial of degree one."""

    def test_letters_must_be_forms(self):
        with pytest.raises(TypeError, match="QMPoly"):
            IntegralPoly.linear({(E4, 1): ONE})

    def test_word_with_a_zero_letter_is_dropped(self):
        got = IntegralPoly.linear({(E4, QMPoly()): ONE, (E6,): E2})
        assert got == IntegralPoly(LyndonPoly._of({((0,),): E2}), (E6,))

    def test_rational_coefficients_become_forms(self):
        got = IntegralPoly.linear({(E4,): 2, (E6,): F(-1, 3), (E2,): 0})
        assert got.poly.terms == {((0,),): QMPoly.constant(2), ((1,),): QMPoly.constant(F(-1, 3))}
        assert got.basis == (E4, E6)

    def test_empty_word_is_the_constant_monomial(self):
        got = IntegralPoly.linear({(): 5, (E4,): E2})
        assert got.poly.terms == {(): QMPoly.constant(5), ((0,),): E2}
        assert got == parse("5 + E2*I(E4)")
        assert got.expansion(6) == LogQSeries.constant(5, 6) + expand(E2, 6) * iter_integral((E4,), 6)

    def test_letters_numbered_as_first_seen(self):
        got = IntegralPoly.linear({(E6, E4): ONE, (E4, E2, E6): E2})
        assert got.basis == (E6, E4, E2)
        assert got == parse("I(E6, E4) + E2*I(E4, E2, E6)")


def test_public_names():
    """Every exported name resolves, once; iterint exports integrals and the
    two forms of a combination only."""
    assert len(iterqm.__all__) == len(set(iterqm.__all__))
    assert all(hasattr(iterqm, name) for name in iterqm.__all__)
    own = {name for name, obj in vars(iterint).items()
           if not name.startswith("_") and getattr(obj, "__module__", None) == iterint.__name__}
    assert own == {"IntegralPoly", "iter_integral"}
    assert {"BarWord", "IntegralPoly", "iter_integral", "shuffle"} <= set(iterqm.__all__)
    assert not {"ibp", "r_map"} & set(iterqm.__all__)


ROOT = Path(__file__).resolve().parent.parent


def _public_definitions(tree: ast.Module) -> dict[str, set[tuple]]:
    """The public module-level functions, classes and assigned names, and the
    public methods of public classes, of a module: each shown name to the
    references (as :func:`_references` yields them) that read it.  A
    module-level name is read by a Name or an Attribute of its name; a method
    only by an Attribute, and by ``self.<m>`` or ``cls.<m>`` only in its class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]
        out.update({name: {("name", name), ("attr", name)} for name in names if not name.startswith("_")})
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out.update({f"{node.name}.{m.name}": {("attr", m.name), ("self", node.name, m.name)} for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")})
    return out


def _references(node: ast.AST, inside: frozenset = frozenset(), owner: str | None = None):
    """The reads of a tree: ("name", n) for a Name n that is loaded, so an
    assignment target is no reader; ("self", C, n) for ``self.n`` or ``cls.n``
    in the body of class C; ("attr", n) for any other Attribute n.  Each but
    those inside the def of the same name: a def's reference to itself is no
    caller."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
        owner = node.name if isinstance(node, ast.ClassDef) else owner
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
        yield "name", node.id
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        receiver = node.value.id if isinstance(node.value, ast.Name) else None
        yield ("self", owner, node.attr) if owner and receiver in ("self", "cls") else ("attr", node.attr)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside, owner)


def test_no_public_name_only_tests_use():
    """Every public function, class, class method and module-level assigned
    name of iterqm is read somewhere in src/, demos/, tools/ or bench/: one
    that only tests read belongs in the tests.  The re-exports of __init__.py
    are import aliases and strings of __all__, and a def is no Name, so
    neither counts.  Receivers are resolved only as far as self and cls: a
    read like ``x.scale``, x any other name, still matches every method named
    scale, so a method that only tests call hides behind a namesake that
    runs."""
    trees = [ast.parse(path.read_text(), str(path))
             for top in ("src", "demos", "tools", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    used = {ref for tree in trees for ref in _references(tree)}
    library = sorted((ROOT / "src" / "iterqm").glob("*.py"))
    assert len(library) >= 10
    unused = [f"{path.stem}.{shown}" for path in library
              for shown, reads in _public_definitions(ast.parse(path.read_text())).items() if not reads & used]
    assert unused == []
