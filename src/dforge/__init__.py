"""dforge: exact symbolic analysis of generalized Dirichlet series.

Formal series arithmetic over transcendental exponent bases, difference-
differential polynomial algebra with resultant elimination, integer-lattice
analysis of exponent systems, Wronskian-based equation derivation, and
machine-checkable obstruction certificates.
"""

from .diffpoly import (
    DiffIndeterminate,
    DiffPolynomial,
    eliminate_x,
    partial_wrt,
    split_x_monomial_content,
    sylvester_resultant,
    total_derivative_s,
    total_derivative_x,
)
from .errors import DforgeError
from .formal_eval import (
    ExpPolynomial,
    Residual,
    ThresholdReport,
    certify_root_bound,
    exp_poly_root_bound,
    forcing_threshold,
    initial_terms_of_partials,
    substitute,
)
from .grammar import parse_coefficient, parse_diffpoly, pretty
from .lattice import (
    Lattice,
    LatticeBasis,
    PrimeSupport,
    express,
    gap_ratios,
    integer_basis,
    omega_rewrite,
    prime_support,
)
from .obstruction import (
    Certificate,
    bivariate_certificate,
    coefficient_field_certificate,
    finite_basis_certificate,
    gap_certificate,
    recheck,
    signflip_construct,
)
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SymbolBasis,
    XPoly,
    differentiate_s,
    leading_term,
    make_series,
    series_add,
    series_mul,
    shift_s,
    truncate,
)
from .transforms import (
    ode_to_pde,
    rescale,
    verify_hilbert_zeta,
    verify_rescale_invariance,
)
from .wronskian import (
    NotFoundWithinW,
    PowerProduct,
    derive_ade,
    enumerate_products,
    wronskian_dependence,
)

__version__ = "0.1.0"
