"""Exact computer algebra for derivations on commutative rings and for
iterated skew polynomial rings of derivation type.

The kernel is pure and immutable: exact rational / prime-field coefficients,
canonical multivariate polynomials, reduced Groebner bases, derivations with
validated quotient actions, differential-simplicity deciders with replayable
certificates, and skew-ring normal-form arithmetic (Weyl algebras included).
A small expression language exposes everything through the ``derivalg``
command-line tool.

The field, polynomial and Groebner layers load with the package.  The
derivation, simplicity and skew layers load on first use of one of their
names, so a caller that only computes Groebner bases never runs them.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    DerivalgError,
    FieldMismatchError,
    InexactDivisionError,
    InvalidArgumentError,
    NonCommutingDerivationsError,
    NotInvariantError,
    ParseError,
    PreconditionError,
    UnitIdealError,
    UnknownIdentifierError,
    VanishingDenominatorError,
    ZeroPolynomialError,
)
from .field import GF, QQ, FieldElement, FieldSpec
from .poly import Poly, TermOrder, VarContext
from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBasis,
    IdealHandle,
    QuotientRing,
    buchberger,
    groebner_basis,
    ideal_member,
    is_unit_ideal,
    krull_dimension,
    normal_form,
    normal_form_with_cofactors,
)

# submodule -> the names it exports, resolved by __getattr__ on first access
_LAZY = {
    "derivation": (
        "CommuteReport",
        "Derivation",
        "commutator",
        "commuting_set_check",
        "d_ideal_check",
    ),
    "simplicity": (
        "DarbouxResult",
        "DarbouxStatus",
        "SimplicityCertificate",
        "SimplicityStatus",
        "SimplicityVerdict",
        "certificate",
        "d_simplicity",
        "darboux_search",
        "dim1_simplicity",
        "necessary_unit_condition",
        "prime_char_obstruction",
        "principal_stability_check",
        "replay_certificate",
    ),
    "skew": (
        "InnerAnalysis",
        "SkewPoly",
        "SkewRingDerivation",
        "SkewRingDescriptor",
        "binomial_push",
        "inner_induced",
        "inner_residuals",
        "skew_commutator",
        "skew_mul",
        "skew_simplicity",
        "weyl_algebra",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# the eager names are the public globals bound by the imports above
__all__ = [
    *(name for name, value in globals().items()
      if not name.startswith("_") and not isinstance(value, _ModuleType)),
    *_HOME,
]

__version__ = "0.1.0"


def __getattr__(name):
    """A lazy name, or one of the lazy submodules, loaded and then cached in
    the package namespace so later lookups skip this function."""
    module = _HOME.get(name)
    if module is None and name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f".{module or name}", __name__)
    value = loaded if module is None else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
