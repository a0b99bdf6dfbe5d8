"""Exact iterated integrals of quasimodular forms.

A computer-algebra library for the smallest integration-closed extension
of the ring of quasimodular forms for the full modular group: exact
q/log-q series, shuffle-algebra identities, canonical Lyndon-word
polynomial forms, and numeric verification of the associated modular and
braid-group cocycles.
"""

from .canonicalize import (
    CanonicalForm,
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
    quasimodular_cocycle,
    slash_poly,
)
from .iterint import (
    BarCombo,
    BarWord,
    ibp_first,
    ibp_last,
    ibp_middle,
    iter_integral,
    r_map,
    shuffle_product_words,
)
from .qseries import LogQSeries, d_op, eval_numeric, primitive
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

__all__ = [
    "BarCombo",
    "BarWord",
    "B3Word",
    "CanonicalForm",
    "DELTA",
    "E2",
    "E4",
    "E6",
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
    "ibp_first",
    "ibp_last",
    "ibp_middle",
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
    "shuffle_product_words",
    "slash_poly",
    "to_lyndon_basis",
    "transform_coeffs",
]
