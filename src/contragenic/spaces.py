"""Ambigenic and contragenic bases, dimension counts and exact criteria.

An ambigenic field is a sum of a monogenic and an antimonogenic field.  Per
homogeneous degree n >= 1 the 4n+4 fields

    X+(n, m) = X(n, m)                         m = 0..n+1
    Y+(n, m) = Y(n, m)                         m = 1..n
    X-(n, m) = conj X(n, m) - a(n, m) X(n, m)  m = 0..n
    Y-(n, m) = conj Y(n, m) - a(n, m) Y(n, m)  m = 1..n+1

with a(n, m) = (n - 2m^2 + 1) / ((n+1)(2n+1)) for m <= n and a(n, n+1) = 0
form an orthogonal basis of the square-integrable ambigenic fields of degree
n.  The monogenic constants X(n, n+1), Y(n, n+1) appear once each (as X+ and
as Y-, conjugation only flips their sign).  At degree 0 the ambigenic space
is just the three-dimensional space of constants.

A harmonic field orthogonal to every ambigenic field is contragenic; these
form a (2n-1)-dimensional space per degree n >= 1, with orthogonal basis

    Z0(n)    = V(n,1) e1 - U(n,1) e2
    Z+(n, m) = (d V(n,m-1) + V(n,m+1)) e1 + (d U(n,m-1) - U(n,m+1)) e2
    Z-(n, m) = (d U(n,m-1) + U(n,m+1)) e1 + (-d V(n,m-1) + V(n,m+1)) e2

for 1 <= m <= n-1, where d = d(n, m) = (n-m)(n-m+1).  Contragenic fields
have identically zero scalar part.  ``contragenic_recipe`` is the one place
the code encodes these coefficients; the basis polynomials and the CLI's
LaTeX tables are both derived from it.

Everything here is exact: orthogonality is decided coefficientwise, space
dimensions come from ranks of rational Gram matrices, and the surface
criterion converts boundary 2-forms to flux integrals with the dictionary
dx2^dx0 <-> x1 dsigma, dx0^dx1 <-> x2 dsigma on the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exact import PiRational, TriPoly, scalar_pairing, sphere_integral
from .fields import QuatField, VecField, conj, degree_split, inner_product, vec
from .harmonic import UVCombo, degree_basis, uv_combo, uv_poly
from .monogenic import monogenic_basis, monogenic_element, xy_norm_sq

_ZERO = TriPoly.zero()


# -- exact rational linear algebra --------------------------------------------

def matrix_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by fraction-exact Gaussian elimination."""
    if not rows:
        return 0
    work = [list(row) for row in rows]
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    pivot_col = 0
    while rank < n_rows and pivot_col < n_cols:
        pivot = next(
            (r for r in range(rank, n_rows) if work[r][pivot_col] != 0), None
        )
        if pivot is None:
            pivot_col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][pivot_col]
        for r in range(rank + 1, n_rows):
            factor = work[r][pivot_col] / lead
            if factor:
                for c in range(pivot_col, n_cols):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
        pivot_col += 1
    return rank


def gram_matrix(fields: list) -> list[list[PiRational]]:
    """Exact Gram matrix of a list of fields (any mix of Vec/QuatField)."""
    size = len(fields)
    gram = [[PiRational.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = inner_product(fields[i], fields[j])
            gram[i][j] = value
            gram[j][i] = value
    return gram


def gram_rank(fields: list) -> int:
    """Dimension of the span of the given fields, via the Gram matrix."""
    gram = gram_matrix(fields)
    return matrix_rank([[entry.q for entry in row] for row in gram])


# -- the orthogonal basis of Vec M --------------------------------------------

@dataclass(frozen=True)
class VecBasisElement:
    """Vector part of a monogenic basis element; spans Vec M degree by degree."""

    kind: str  # 'X' or 'Y'
    n: int
    m: int
    field: VecField


def vec_norm_sq(kind: str, n: int, m: int) -> PiRational:
    """Closed-form squared norm of Vec X(n, m) / Vec Y(n, m)."""
    denom = (2 * n + 1) * (2 * n + 3)
    if m == 0:
        return PiRational(Fraction(n * (n + 1), denom))
    ratio = Fraction(math.factorial(n + m + 1), math.factorial(n - m + 1))
    return PiRational(Fraction(n * n + m * m + n, 2 * denom) * ratio)


@lru_cache(maxsize=None)
def _vec_basis_cached(n: int) -> tuple[VecBasisElement, ...]:
    out = []
    for element in monogenic_basis(n):
        vector_part = vec(element.field).as_vec()
        if vector_part.is_zero():
            continue  # only Vec X(0, 0) vanishes
        out.append(VecBasisElement(element.kind, n, element.m, vector_part))
    return tuple(out)


def vec_basis(n: int) -> list[VecBasisElement]:
    """Orthogonal basis of Vec M of degree n (zero members dropped)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return list(_vec_basis_cached(n))


# -- the orthogonal ambigenic basis -------------------------------------------

def ambigenic_coefficient(n: int, m: int) -> Fraction:
    """The mixing coefficient a(n, m); zero at the top order n+1."""
    if m == n + 1:
        return Fraction(0)
    return Fraction(n - 2 * m * m + 1, (n + 1) * (2 * n + 1))


@dataclass(frozen=True)
class AmbigenicBasisElement:
    kind: str  # 'X+', 'X-', 'Y+', 'Y-'
    n: int
    m: int
    field: QuatField

    def __str__(self) -> str:
        return f"{self.kind}({self.n},{self.m}) = {self.field}"


def _minus_element(kind: str, n: int, m: int) -> QuatField:
    base = monogenic_element(kind, n, m).field
    return conj(base) - base.scale(ambigenic_coefficient(n, m))


@lru_cache(maxsize=None)
def _ambigenic_basis_cached(n: int) -> tuple[AmbigenicBasisElement, ...]:
    out = []
    for m in range(n + 2):
        out.append(AmbigenicBasisElement("X+", n, m, monogenic_element("X", n, m).field))
    for m in range(1, n + 1):
        out.append(AmbigenicBasisElement("Y+", n, m, monogenic_element("Y", n, m).field))
    for m in range(n + 1):
        out.append(AmbigenicBasisElement("X-", n, m, _minus_element("X", n, m)))
    for m in range(1, n + 2):
        out.append(AmbigenicBasisElement("Y-", n, m, _minus_element("Y", n, m)))
    return tuple(out)


def ambigenic_basis(n: int) -> list[AmbigenicBasisElement]:
    """The 4n+4 orthogonal ambigenic basis elements of degree n >= 1.

    Degree 0 is rejected: there the ambigenic space is the constants, which
    are handled as a special case by callers.
    """
    if n < 1:
        raise ValueError("ambigenic basis is defined for degrees n >= 1")
    return list(_ambigenic_basis_cached(n))


def ambigenic_minus_norm_sq(kind: str, n: int, m: int) -> PiRational:
    """Closed-form squared norm of X-(n, m) / Y-(n, m)."""
    if m == n + 1:
        # a(n, n+1) = 0, so the element is conj Y(n, n+1) with unchanged norm
        return xy_norm_sq(kind, n, m)
    if m == 0:
        return PiRational(
            Fraction(4 * n * (n + 1) ** 2, (2 * n + 3) * (2 * n + 1) ** 2)
        )
    ratio = Fraction(math.factorial(n + m + 1), math.factorial(n - m))
    core = Fraction(
        2 * (n * n + m * m + n) * (n + m + 1),
        (n + 1) * (2 * n + 3) * (2 * n + 1) ** 2,
    )
    return PiRational(core * ratio)


def ambigenic_norm_sq(kind: str, n: int, m: int) -> PiRational:
    """Closed-form squared norm of the ambigenic element X+/X-/Y+/Y-(n, m)."""
    if kind.endswith("+"):
        return xy_norm_sq(kind[0], n, m)
    return ambigenic_minus_norm_sq(kind[0], n, m)


# -- the contragenic basis ------------------------------------------------------

@dataclass(frozen=True)
class ContragenicBasisElement:
    label: str  # 'Z0', 'Z+', 'Z-'
    n: int
    m: int  # 0 for Z0
    field: VecField

    def __str__(self) -> str:
        return f"{self.label}({self.n},{self.m}) = {self.field}"


def contragenic_recipe(label: str, n: int, m: int) -> tuple[UVCombo, UVCombo]:
    """The (e1, e2) components of a contragenic basis element as combinations
    of degree-n solid harmonics (m is ignored for Z0)."""
    if label == "Z0":
        return uv_combo(n, (1, "V", 1)), uv_combo(n, (-1, "U", 1))
    if label not in ("Z+", "Z-"):
        raise ValueError(f"unknown contragenic label {label!r}")
    if not 1 <= m <= n - 1:
        raise ValueError(f"{label} order must be in 1..{n - 1}")
    d = (n - m) * (n - m + 1)
    if label == "Z+":
        return (
            uv_combo(n, (d, "V", m - 1), (1, "V", m + 1)),
            uv_combo(n, (d, "U", m - 1), (-1, "U", m + 1)),
        )
    return (
        uv_combo(n, (d, "U", m - 1), (1, "U", m + 1)),
        uv_combo(n, (-d, "V", m - 1), (1, "V", m + 1)),
    )


@lru_cache(maxsize=None)
def _contragenic_basis_cached(n: int) -> tuple[ContragenicBasisElement, ...]:
    indices = [("Z0", 0)] + [(label, m) for m in range(1, n) for label in ("Z+", "Z-")]
    out = []
    for label, m in indices:
        field = VecField(_ZERO, *(uv_poly(n, part) for part in contragenic_recipe(label, n, m)))
        # is_harmonic() also memoizes the flag that sums of basis fields inherit
        if not field.is_harmonic():
            raise AssertionError(f"{label}({n},{m}) is not harmonic")
        out.append(ContragenicBasisElement(label, n, m, field))
    return tuple(out)


def contragenic_basis(n: int) -> list[ContragenicBasisElement]:
    """Orthogonal basis of the 2n-1 contragenic fields of degree n (empty at 0)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return []
    return list(_contragenic_basis_cached(n))


def contragenic_norm_sq(label: str, n: int, m: int = 0) -> PiRational:
    """Closed-form squared norm of a contragenic basis element."""
    denom = (2 * n + 1) * (2 * n + 3)
    if label == "Z0":
        return PiRational(Fraction(4 * n * (n + 1), denom))
    if label in ("Z+", "Z-"):
        if not 1 <= m <= n - 1:
            raise ValueError(f"{label} order must be in 1..{n - 1}")
        ratio = Fraction(math.factorial(n + m - 1), math.factorial(n - m - 1))
        return PiRational(Fraction(8 * (n * n + m * m + n), denom) * ratio)
    raise ValueError(f"unknown contragenic label {label!r}")


# -- dimension table --------------------------------------------------------------

@dataclass(frozen=True)
class DimensionTableRow:
    """Dimensions over R of the degree-n polynomial spaces."""

    n: int
    scalar_harmonics: int      # real-valued harmonic polynomials
    monogenic: int             # monogenic fields (same for antimonogenic)
    monogenic_constants: int   # monogenic intersect antimonogenic
    ambigenic: int             # monogenic + antimonogenic
    harmonic_fields: int       # all R^3-valued harmonic fields

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (
            self.scalar_harmonics,
            self.monogenic,
            self.monogenic_constants,
            self.ambigenic,
            self.harmonic_fields,
        )


def expected_dimensions(n: int) -> DimensionTableRow:
    """The closed-form dimension counts (degree 0 is special)."""
    if n == 0:
        return DimensionTableRow(0, 1, 3, 3, 3, 3)
    return DimensionTableRow(
        n, 2 * n + 1, 2 * n + 3, 2, 4 * n + 4, 6 * n + 3
    )


def dimension_table(n: int) -> DimensionTableRow:
    """Compute the dimension counts by rank-checking exact Gram matrices."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    harmonics = degree_basis(n)
    scalar_dim = gram_rank([h.as_field() for h in harmonics])

    mono_fields = [e.field for e in monogenic_basis(n)]
    mono_dim = gram_rank(mono_fields)

    spanning = mono_fields + [conj(f) for f in mono_fields]
    ambigenic_dim = gram_rank(spanning)
    constants_dim = 2 * mono_dim - ambigenic_dim

    component_fields = []
    for h in harmonics:
        component_fields.append(VecField(h.poly, _ZERO, _ZERO))
        component_fields.append(VecField(_ZERO, h.poly, _ZERO))
        component_fields.append(VecField(_ZERO, _ZERO, h.poly))
    harmonic_dim = gram_rank(component_fields)

    return DimensionTableRow(
        n, scalar_dim, mono_dim, constants_dim, ambigenic_dim, harmonic_dim
    )


# -- contragenicity tests ----------------------------------------------------------

@dataclass
class ContragenicityCertificate:
    """Outcome of the exact orthogonality test against the ambigenic bases.

    ``failures`` lists every nonzero pairing as (degree, basis label, value);
    an empty list certifies contragenicity.
    """

    ok: bool
    failures: list[tuple[int, str, PiRational]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_contragenic(h: VecField) -> ContragenicityCertificate:
    """Exact test that a harmonic polynomial field is contragenic.

    The field is split into homogeneous parts; each part must have zero
    scalar component and vanishing inner product against every ambigenic
    basis element of its degree.  Non-harmonic input is rejected.
    """
    if not h.is_harmonic():
        raise ValueError("input field is not harmonic")
    failures: list[tuple[int, str, PiRational]] = []
    if not h.c0.is_zero():
        # witness: the scalar part pairs nonzero against itself
        failures.append((-1, "scalar part", scalar_pairing(h.c0, h.c0)))
        return ContragenicityCertificate(False, failures)
    for degree, part in degree_split(h):
        if degree == 0:
            for axis, label in ((0, "1"), (1, "e1"), (2, "e2")):
                value = part.components()[axis]
                if not value.is_zero():
                    failures.append((0, label, PiRational(1)))
            continue
        for element in ambigenic_basis(degree):
            value = inner_product(part, element.field)
            if not value.is_zero():
                failures.append(
                    (degree, f"{element.kind}({degree},{element.m})", value)
                )
    return ContragenicityCertificate(not failures, failures)


def surface_criterion(h: VecField, n: int) -> bool:
    """Contragenicity via exact flux integrals over the unit sphere.

    For every solid harmonic g of degree n+1, compares the two boundary
    integrals of h1 g dx0^dx2 and h2 g dx0^dx1; on the sphere the 2-forms
    become -x1 dsigma and  x2 dsigma against the outward normal.  Requires a
    homogeneous harmonic h of degree n with zero scalar part.
    """
    if not h.c0.is_zero():
        raise ValueError("surface criterion requires a zero scalar part")
    if not h.is_harmonic():
        raise ValueError("input field is not harmonic")
    parts = degree_split(h)
    if parts and (len(parts) > 1 or parts[0][0] != n):
        raise ValueError(f"input is not homogeneous of degree {n}")
    x1 = TriPoly.variable(1)
    x2 = TriPoly.variable(2)
    for g in degree_basis(n + 1):
        lhs = sphere_integral(h.c1 * g.poly * x1).scale(-1)
        rhs = sphere_integral(h.c2 * g.poly * x2)
        if lhs != rhs:
            return False
    return True


# -- behaviour of the star involution on contragenics ------------------------------

@dataclass(frozen=True)
class StarImage:
    """Expansion of star(Z) in the contragenic basis of the same degree."""

    source: str
    coefficients: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class StarReport:
    n: int
    images: tuple[StarImage, ...]
    invertible: bool


def star_on_contragenics(n: int) -> StarReport:
    """Map each contragenic basis element through the star involution.

    Verifies exactly that every image is contragenic, expands it in the
    degree-n contragenic basis, checks the expansion reproduces the image,
    and reports whether the change-of-basis matrix is invertible.
    """
    basis = contragenic_basis(n)
    images = []
    matrix: list[list[Fraction]] = []
    for element in basis:
        starred = element.field.star()
        if not is_contragenic(starred):
            raise AssertionError(
                f"star image of {element.label}({n},{element.m}) is not contragenic"
            )
        row: list[Fraction] = []
        reconstruction = VecField.zero()
        coeffs = []
        for other in basis:
            norm = contragenic_norm_sq(other.label, n, other.m)
            coeff = inner_product(starred, other.field) / norm
            row.append(coeff)
            if coeff:
                reconstruction = reconstruction + other.field.scale(coeff)
                coeffs.append((f"{other.label}({n},{other.m})", coeff))
        if not (reconstruction - starred).is_zero():
            raise AssertionError(
                f"star image of {element.label}({n},{element.m}) "
                "does not lie in the contragenic basis span"
            )
        matrix.append(row)
        images.append(
            StarImage(f"{element.label}({n},{element.m})", tuple(coeffs))
        )
    invertible = matrix_rank(matrix) == len(basis)
    return StarReport(n, tuple(images), invertible)
