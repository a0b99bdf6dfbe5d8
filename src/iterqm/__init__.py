"""Exact iterated integrals of quasimodular forms.

A computer-algebra library for the smallest integration-closed extension
of the ring of quasimodular forms for the full modular group: exact
q/log-q series, shuffle-algebra identities, canonical Lyndon-word
polynomial forms, and numeric verification of the associated modular and
braid-group cocycles.
"""

import importlib
import sys

from .canonicalize import (
    ModularModeError,
    canonical_form,
    independence_rank,
    reduce_letters,
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

#: The numeric layer's names, served with :mod:`iterqm.cocycles` itself on first
#: use (PEP 562), so that ``import iterqm`` does not load mpmath.
_NUMERIC = {"B3Word", "SL2Mat", "XYPoly", "b3_to_sl2", "cocycle_r", "e2_cocycle", "eichler_integral", "eval_numeric",
            "quasimodular_cocycle", "slash_poly"}


def __getattr__(name: str):
    if name in _NUMERIC or name == "cocycles":
        cocycles = importlib.import_module(".cocycles", __name__)
        return cocycles if name == "cocycles" else getattr(cocycles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def clear_caches() -> None:
    """Empty every module cache: monomial q-expansions (at most 512), iterated integrals
    (exact and mod p, at most 4096), word shuffles (at most 131,072), decomposition
    inverses (at most 64 weights) and, once :mod:`iterqm.cocycles` is loaded (this does
    not load it), Eichler polynomials (at most 64) and values of log Delta (at most 128).
    Results stay the same."""
    caches = [_gen_power, _iter_integral, _shuffle, _decomposition_inverse]
    if cocycles := sys.modules.get(f"{__name__}.cocycles"):
        caches += [cocycles._eichler_poly, cocycles._minus_log_disc]
    for cache in caches:
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
