"""Degree-graded Bergman kernels and the orthogonal projection onto Vec M.

Per degree n the kernel pair (b1, b2) is the finite rank-1 sum

    b_i(x, y) = - sum_k psi_{k,i}(x) psi_k(y),    i = 1, 2,

over an orthonormal basis psi_k of the degree-n vector parts of monogenic
fields.  Orthonormalization is symbolic: with f_k the orthogonal basis and
||f_k||^2 = q_k * pi, each rank-1 pair is stored with the rational weight
-1/q_k and an implicit overall 1/pi.  The pi in the weight cancels the pi
produced by integration, so projecting a rational polynomial field yields a
rational polynomial field, exactly.

The induced operator

    B[f](x) = Sc( int b_1(x, y) f(y) dV ) e1 + Sc( int b_2(x, y) f(y) dV ) e2

is the orthogonal projection onto Vec M of degree n; it reproduces every
degree-n Vec M element and annihilates exactly the contragenic fields.
Kernels are kept as rank-1 tensor sums; no closed form is attempted.

The norms of a projection f = Pf + r come by bilinearity, with no
orthogonality assumed: ||Pf||^2 takes the Fischer path (Pf is a sum of
harmonic kernel fields), <f, Pf> = sum_k c_k <psi_k, f> reuses the kernel
pairings that produced the coefficients c_k, and

    ||r||^2 = ||f||^2 - 2 <f, Pf> + ||Pf||^2.

The dense, non-harmonic residual is never paired with itself, and
Pythagoras ||f||^2 = ||Pf||^2 + ||r||^2 still tests <f, Pf> = ||Pf||^2
between two independently computed numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import PiRational, TriPoly
from .fields import QuatField, VecField, inner_product, norm_sq
from .spaces import vec_basis

_ZERO = TriPoly.zero()


@dataclass(frozen=True)
class KernelPair:
    """One rank-1 term: weight * left_i(x) * right(y), weight in units of 1/pi."""

    weight: Fraction
    left: VecField
    right: VecField


@dataclass(frozen=True)
class KernelTensor:
    """A degree-n kernel pair (b1, b2) as a finite sum of rank-1 terms."""

    degree: int
    pairs: tuple[KernelPair, ...]

    def expand(self) -> dict[tuple[int, int, tuple, tuple], Fraction]:
        """Canonical bivariate expansion, for exact kernel equality tests.

        Keys are (i, j, x-monomial, y-monomial) with value the coefficient of
        the e_j component of b_i; the overall 1/pi stays implicit.
        """
        out: dict[tuple[int, int, tuple, tuple], Fraction] = {}
        for pair in self.pairs:
            lefts = (pair.left.c1, pair.left.c2)
            rights = (pair.right.c1, pair.right.c2)
            for i, lpoly in enumerate(lefts, start=1):
                for j, rpoly in enumerate(rights, start=1):
                    for ex, cx in lpoly.terms.items():
                        for ey, cy in rpoly.terms.items():
                            key = (i, j, ex, ey)
                            acc = out.get(key, Fraction(0)) + pair.weight * cx * cy
                            if acc:
                                out[key] = acc
                            else:
                                out.pop(key, None)
        return out


def kernel_from_orthogonal(degree: int, fields: list[VecField]) -> KernelTensor:
    """Assemble the kernel from any exact orthogonal basis of Vec M degree n."""
    pairs = []
    for f in fields:
        q = norm_sq(f).q
        if q == 0:
            raise ValueError("kernel basis contains the zero field")
        pairs.append(KernelPair(Fraction(-1, 1) / q, f, f))
    return KernelTensor(degree, tuple(pairs))


@lru_cache(maxsize=None)
def kernel(n: int) -> KernelTensor:
    """The degree-n kernel built from the standard orthogonal Vec M basis."""
    return kernel_from_orthogonal(n, [e.field for e in vec_basis(n)])


@dataclass(frozen=True)
class ProjectionResult:
    """Orthogonal split f = projected + residual with exact norms."""

    projected: VecField
    residual: VecField
    projected_norm_sq: PiRational
    residual_norm_sq: PiRational


def _coerce_vector_field(f) -> VecField:
    if isinstance(f, QuatField):
        if not f.c3.is_zero():
            raise ValueError("field has a nonzero e3 component")
        f = f.as_vec()
    if not isinstance(f, VecField):
        raise TypeError(f"expected a field, got {type(f).__name__}")
    if not f.c0.is_zero():
        raise ValueError("field has a nonzero scalar component")
    return f


def _projected(f: VecField, degrees) -> tuple[VecField, Fraction]:
    """The Bergman projection sum_n Pf_n over the given degrees of a coerced field.

    Pf is assembled once, as one linear combination of the kernel fields per
    component.  Also returns <f, Pf> / pi = sum_k c_k <psi_k, f> / pi, which
    the kernel pairings give for free.
    """
    terms = []
    along = Fraction(0)
    for n in degrees:
        for pair in kernel(n).pairs:
            pairing = inner_product(pair.right, f).q
            coeff = -pair.weight * pairing
            if coeff:
                terms.append((coeff, pair.left))
                along += coeff * pairing
    return VecField.combination(terms), along


def _split(f: VecField, projected: VecField, along: Fraction) -> ProjectionResult:
    """The split f = Pf + r with both norms by bilinearity.

    ||r||^2 = ||f||^2 - 2 <f, Pf> + ||Pf||^2 holds for any Pf, so it assumes
    no orthogonality and Pythagoras stays a check of <f, Pf> = ||Pf||^2.
    ||Pf||^2 takes the Fischer path; the dense r is never paired.
    """
    projected_sq = norm_sq(projected)
    residual_sq = norm_sq(f) - PiRational(2 * along) + projected_sq
    return ProjectionResult(projected, f - projected, projected_sq, residual_sq)


def project(f, n: int) -> ProjectionResult:
    """Apply the degree-n Bergman operator to a vector-valued polynomial field.

    Each rank-1 term integrates exactly against f over the unit ball; the
    implicit 1/pi of the kernel cancels the pi of the integral, so the
    projection has rational coefficients.  The scalar contraction of two
    vector-valued quaternionic fields is minus their pointwise dot product,
    whence the sign flip against the stored negative weights.
    """
    f = _coerce_vector_field(f)
    return _split(f, *_projected(f, (n,)))


def project_truncated(f, max_degree: int) -> ProjectionResult:
    """Sum of the degreewise Bergman projections for n = 0..max_degree.

    For a polynomial field of degree at most max_degree this is the full
    Bergman projection onto Vec M.
    """
    f = _coerce_vector_field(f)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return _split(f, *_projected(f, range(max_degree + 1)))


def eval_kernel(n: int, x: tuple, y: tuple) -> tuple[tuple[float, float], tuple[float, float]]:
    """Evaluate (b1, b2) at points in IEEE double.

    Returns ((b1_e1, b1_e2), (b2_e1, b2_e2)).  Points are expected inside
    the closed unit ball; evaluation itself is defined everywhere.
    """
    x0, x1, x2 = (float(v) for v in x)
    y0, y1, y2 = (float(v) for v in y)
    totals = [[0.0, 0.0], [0.0, 0.0]]
    for pair in kernel(n).pairs:
        w = float(pair.weight)
        lefts = (pair.left.c1.eval_float(x0, x1, x2), pair.left.c2.eval_float(x0, x1, x2))
        rights = (pair.right.c1.eval_float(y0, y1, y2), pair.right.c2.eval_float(y0, y1, y2))
        for i in range(2):
            for j in range(2):
                totals[i][j] += w * lefts[i] * rights[j]
    scale = 1.0 / math.pi
    return (
        (totals[0][0] * scale, totals[0][1] * scale),
        (totals[1][0] * scale, totals[1][1] * scale),
    )


def eval_kernel_exact(n: int, x: tuple, y: tuple) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Exact kernel values at rational points, in units of 1/pi."""
    xr = tuple(Fraction(v) for v in x)
    yr = tuple(Fraction(v) for v in y)
    totals = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for pair in kernel(n).pairs:
        lefts = (pair.left.c1.eval(xr), pair.left.c2.eval(xr))
        rights = (pair.right.c1.eval(yr), pair.right.c2.eval(yr))
        for i in range(2):
            for j in range(2):
                totals[i][j] += pair.weight * lefts[i] * rights[j]
    return (
        (totals[0][0], totals[0][1]),
        (totals[1][0], totals[1][1]),
    )


@dataclass(frozen=True)
class PointBoundReport:
    """Evaluation bound |f(0)| <= sqrt(3/(4 pi)) ||f||_2 for Vec M fields."""

    value_at_origin: float
    bound: float
    ratio: float
    ok: bool


def point_eval_bound_check(f) -> PointBoundReport:
    """Check the origin evaluation bound on a field in Vec M.

    Membership in Vec M is verified exactly first (the truncated Bergman
    projection must reproduce f); constants achieve the bound with equality.
    """
    f = _coerce_vector_field(f)
    degree = max(f.degree(), 0)
    split = project_truncated(f, degree)
    if not split.residual.is_zero():
        raise ValueError("field is not in Vec M (nonzero Bergman residual)")
    origin = (Fraction(0), Fraction(0), Fraction(0))
    value = math.hypot(float(f.c1.eval(origin)), float(f.c2.eval(origin)))
    bound = math.sqrt(3.0 / (4.0 * math.pi)) * math.sqrt(float(norm_sq(f)))
    ratio = value / bound if bound else (0.0 if value == 0.0 else math.inf)
    return PointBoundReport(value, bound, ratio, value <= bound * (1.0 + 1e-12))
