"""Exact monogenic, ambigenic and contragenic function spaces on the unit ball.

The package constructs, over arbitrary-precision rationals:

* solid spherical harmonics and the homogeneous monogenic basis X, Y;
* the orthogonal ambigenic basis and the contragenic basis Z;
* every L2(B^3) inner product in closed form (rational multiples of pi);
* the degree-graded Bergman projection onto the vector parts of monogenic
  fields, which annihilates exactly the contragenic fields;
* the decomposition of any harmonic polynomial field into monogenic +
  antimonogenic + contragenic parts.

A floating-point quadrature harness cross-checks the exact arithmetic, and
the ``contragenic`` command line exposes basis tables, identity-check
suites, Gram matrices and decompositions.
"""

from .exact import (
    PiRational,
    TriPoly,
    TSPoly,
    TSNormalizationError,
    ball_integral,
    ball_monomial_integral,
    moment_pairing,
    scalar_pairing,
    sphere_integral,
    sphere_monomial_integral,
)
from .fields import (
    QuatField,
    VecField,
    apply_d,
    apply_dbar,
    conj,
    d_of_scalar,
    degree_split,
    grad_vec,
    inner_product,
    is_antimonogenic,
    is_monogenic,
    norm_sq,
    sc,
    star,
    vec,
)
from .harmonic import (
    SolidHarmonic,
    assoc_legendre,
    degree_basis,
    harmonic_dim_check,
    legendre,
    solid_harmonic,
    uv_norm_sq,
    uv_term,
)
from .monogenic import (
    MonogenicBasisElement,
    complete_scalar,
    leftright_check,
    monogenic_X,
    monogenic_Y,
    monogenic_basis,
    monogenic_element,
    xy_closed_form,
    xy_conj_pairing,
    xy_norm_sq,
)
from .spaces import (
    AmbigenicBasisElement,
    ContragenicBasisElement,
    ContragenicityCertificate,
    DimensionTableRow,
    ambigenic_basis,
    ambigenic_coefficient,
    ambigenic_minus_norm_sq,
    ambigenic_norm_sq,
    contragenic_basis,
    contragenic_norm_sq,
    dimension_table,
    expected_dimensions,
    gram_matrix,
    gram_rank,
    is_contragenic,
    matrix_rank,
    star_on_contragenics,
    surface_criterion,
    vec_basis,
    vec_norm_sq,
)
from .bergman import (
    KernelPair,
    KernelTensor,
    PointBoundReport,
    ProjectionResult,
    eval_kernel,
    eval_kernel_exact,
    kernel,
    kernel_from_orthogonal,
    point_eval_bound_check,
    project,
    project_truncated,
)
from .decompose import Decomposition, NormReport, decompose, norm_report
from .fieldio import DocumentError, FieldDocument, ReportDocument
from .quadrature import QuadReport, quad_crosscheck

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
