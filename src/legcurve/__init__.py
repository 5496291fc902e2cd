"""Exact arithmetic for germs of Legendrian curve singularities.

The package computes the generic semigroup of a type (n, m), conormal
semigroups of concrete Puiseux-parametrized plane curves, contact
transformations of the ambient (x, y, p) space, the symbolic coefficient
matrix of contact monomials along a universal curve, and Legendrian
normal forms with their moduli coordinates.
"""

from types import ModuleType as _ModuleType

from .contact import (
    Classification,
    ContactCheck,
    ContactMap,
    TriangularDecomposition,
    act_on_curve,
    classify,
    compose,
    decompose_triangular,
    forget_transform,
    homothety,
    identity_map,
    legendre_transformation,
    linear_symplectic,
    linear_symplectic_inverse,
    require_contact,
    solve_contact,
    verify_contact,
)
from .curves import (
    PlaneCurveGerm,
    curve_from_y_series,
    default_accuracy,
    reparametrize,
)
from .cyclotomic import Cyclotomic
from .documents import curve_from_document, curve_to_document, dump_curve, load_curve
from .errors import (
    ContactDefectError,
    InsufficientPrecisionError,
    LegcurveError,
    NonGenericCurveError,
    NotRealizableError,
    ValidationError,
)
from .expansion import ExpansionContext, determinant, leading_monomial
from .expressions import format_germ, parse_germ
from .germs import Germ, contact_weights, evaluate_on_series, substitute
from .moduli import (
    NormalForm,
    canonical_point,
    equivalent_curves,
    is_generic,
    is_short_form,
    moduli_point,
    normal_form,
    orbit_equivalent,
    rotate_point,
)
from .oracle import ConormalOracle, conormal_semigroup, realize_order
from .semigroups import (
    NumericalSemigroup,
    free_indices,
    generic_semigroup,
    generic_semigroup_descent,
    moduli_dimension,
    s_invariant,
    try_s_invariant,
    two_generator_semigroup,
    weighted_monomial_count,
)
from .series import (
    TruncatedSeries,
    series_compose,
    series_nth_root,
    series_reverse,
)

__version__ = "0.1.0"

# the public names bound above; importing from a submodule binds it too
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
