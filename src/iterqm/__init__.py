"""Exact iterated integrals of quasimodular forms.

A computer-algebra library for the smallest integration-closed extension
of the ring of quasimodular forms for the full modular group: exact
q/log-q series, shuffle-algebra identities, canonical Lyndon-word
polynomial forms, and numeric verification of the associated modular and
braid-group cocycles.
"""

from .canonicalize import (
    ModularModeError,
    canonical_form,
    independence_rank,
    reduce_letters,
)
from .cocycles import (
    B3Word,
    SL2Mat,
    XYPoly,
    b3_to_sl2,
    cocycle_r,
    e2_cocycle,
    eichler_integral,
    eval_numeric,
    quasimodular_cocycle,
    slash_poly,
)
from .iterint import (
    BarWord,
    IntegralPoly,
    _iter_integral,
    ibp,
    iter_integral,
    r_map,
)
from .qseries import LogQSeries, d_op, primitive
from .quasimodular import (
    _decomposition_inverse,
    _gen_power,
    DELTA,
    E2,
    E4,
    E6,
    ONE,
    QMPoly,
    basis_b,
    bernoulli,
    decompose,
    derivative_decomposition,
    derive,
    eisenstein_qexp,
    expand,
    transform_coeffs,
)
from .shuffle_lyndon import (
    _shuffle,
    LyndonPoly,
    is_lyndon,
    lyndon_factorize,
    lyndon_words,
    shuffle,
    to_lyndon_basis,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module cache: monomial q-expansions (at most 512), iterated integrals
    (exact and mod p), word shuffles and decomposition inverses.  Results stay the same."""
    for cache in (_gen_power, _iter_integral, _shuffle, _decomposition_inverse):
        cache.cache_clear()


__all__ = [
    "BarWord",
    "B3Word",
    "DELTA",
    "E2",
    "E4",
    "E6",
    "IntegralPoly",
    "LogQSeries",
    "LyndonPoly",
    "ModularModeError",
    "ONE",
    "QMPoly",
    "SL2Mat",
    "XYPoly",
    "b3_to_sl2",
    "basis_b",
    "bernoulli",
    "canonical_form",
    "clear_caches",
    "cocycle_r",
    "d_op",
    "decompose",
    "derivative_decomposition",
    "derive",
    "e2_cocycle",
    "eichler_integral",
    "eisenstein_qexp",
    "eval_numeric",
    "expand",
    "ibp",
    "independence_rank",
    "is_lyndon",
    "iter_integral",
    "lyndon_factorize",
    "lyndon_words",
    "primitive",
    "quasimodular_cocycle",
    "r_map",
    "reduce_letters",
    "shuffle",
    "slash_poly",
    "to_lyndon_basis",
    "transform_coeffs",
]
