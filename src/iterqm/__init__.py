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
    iter_integral,
)
from .qseries import LogQSeries, d_op, primitive
from .quasimodular import (
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
    LyndonPoly,
    is_lyndon,
    lyndon_factorize,
    lyndon_words,
    shuffle,
    to_lyndon_basis,
)

__version__ = "0.1.0"

#: The numeric layer's names, bound here with :mod:`iterqm.cocycles` itself on
#: first use (PEP 562), so that ``import iterqm`` does not load mpmath.
_NUMERIC = {"SL2Mat", "XYPoly", "b3_to_sl2", "cocycle_r", "e2_cocycle", "eichler_integral", "eval_numeric",
            "quasimodular_cocycle", "slash_poly"}


def __getattr__(name: str):
    if name in _NUMERIC or name == "cocycles":
        cocycles = importlib.import_module(".cocycles", __name__)
        globals().update({n: getattr(cocycles, n) for n in _NUMERIC}, cocycles=cocycles)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def clear_caches() -> None:
    """Empty every cache, each bounded, defined in a loaded :mod:`iterqm` module: the functools
    caches and the rank proofs, :data:`iterqm.canonicalize._proofs`; :mod:`iterqm.cocycles` is
    not loaded for it.  Results stay the same."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__name__}."):
            for obj in vars(module).values():
                if (hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name
                        and not isinstance(obj, type)):  # the class of the rank proofs is no cache
                    obj.cache_clear()


__all__ = sorted([
    "BarWord", "DELTA", "E2", "E4", "E6", "IntegralPoly", "LogQSeries", "LyndonPoly", "ModularModeError", "ONE",
    "QMPoly", "basis_b", "bernoulli", "canonical_form", "clear_caches", "d_op", "decompose", "derivative_decomposition",
    "derive", "eisenstein_qexp", "expand", "independence_rank", "is_lyndon", "iter_integral", "lyndon_factorize",
    "lyndon_words", "primitive", "reduce_letters", "shuffle", "to_lyndon_basis", "transform_coeffs", *_NUMERIC,
])
