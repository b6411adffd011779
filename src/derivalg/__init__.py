"""Exact computer algebra for derivations on commutative rings and for
iterated skew polynomial rings of derivation type.

The kernel is pure and immutable: exact rational / prime-field coefficients,
canonical multivariate polynomials, reduced Groebner bases, derivations with
validated quotient actions, differential-simplicity deciders with replayable
certificates, and skew-ring normal-form arithmetic (Weyl algebras included).
A small expression language exposes everything through the ``derivalg``
command-line tool.
"""

from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    DerivalgError,
    FieldMismatchError,
    InexactDivisionError,
    NonCommutingDerivationsError,
    NotInjectiveError,
    NotInvariantError,
    ParseError,
    PreconditionError,
    UnitIdealError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)
from .field import GF, QQ, FieldElement, FieldSpec, normalize_rational
from .poly import (
    InjectivityStatus,
    Poly,
    RingEndomorphism,
    TermOrder,
    VarContext,
    apply_endo,
)
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
    quotient_reduce,
)
from .derivation import (
    CommuteReport,
    Derivation,
    SkewDerivation,
    commutator,
    commuting_set_check,
    d_ideal_check,
    family_skew_derivation,
    induce_on_quotient,
)
from .simplicity import (
    DarbouxResult,
    DarbouxStatus,
    SimplicityCertificate,
    SimplicityStatus,
    SimplicityVerdict,
    d_simplicity,
    darboux_search,
    dim1_simplicity,
    necessary_unit_condition,
    partials_certificate,
    prime_char_obstruction,
    principal_stability_check,
    replay_certificate,
    truncated_certificate,
)
from .skew import (
    InnerAnalysis,
    SingleOreDescriptor,
    SkewPoly,
    SkewRingDerivation,
    SkewRingDescriptor,
    binomial_push,
    build_skew_ring,
    extend_derivation,
    inner_induced,
    inner_residuals,
    skew_commutator,
    skew_mul,
    skew_simplicity,
    weyl_algebra,
)

__version__ = "0.1.0"
