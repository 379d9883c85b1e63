"""The homogeneous monogenic basis X(n, m), Y(n, m) and scalar completion.

For each degree n >= 0 the 2n+3 fields

    X(n, m) = (1/2) D[U(n+1, m)],  m = 0..n+1
    Y(n, m) = (1/2) D[V(n+1, m)],  m = 1..n+1

form an orthogonal basis of the homogeneous monogenic polynomials of degree
n (monogenic by the factorization Laplacian = D Dbar).  The 1/2 factor is
the normalization under which the closed-form recombination below and the
norm table hold; see ``xy_closed_form``.

With c(n, m) = (n+m)(n+m+1)/4 the same elements can be recombined from
degree-n solid harmonics:

    X(n, 0) = (n+1)/2 U(n,0) + 1/2 U(n,1) e1 + 1/2 V(n,1) e2
    X(n, m) = (n+m+1)/2 U(n,m) - (c U(n,m-1) - 1/4 U(n,m+1)) e1
                                + (c V(n,m-1) + 1/4 V(n,m+1)) e2
    Y(n, m) = (n+m+1)/2 V(n,m) - (c V(n,m-1) - 1/4 V(n,m+1)) e1
                                - (c U(n,m-1) + 1/4 U(n,m+1)) e2

valid for n >= 1 with the convention that out-of-range solid harmonics
(order above degree, or V of order 0) are zero.  ``xy_recipe`` is the one
place the code encodes these coefficients; the closed-form polynomials and
the CLI's LaTeX tables are both derived from it.  The top-order elements
X(n, n+1), Y(n, n+1) are monogenic constants: they do not depend on x0 and
equal the negatives of their conjugates.

Squared norms over the unit ball:

    ||X(n, 0)||^2 = pi (n+1) / (2n+3)
    ||X(n, m)||^2 = ||Y(n, m)||^2 = pi (n+1) (n+m+1)! / (2 (2n+3) (n-m+1)!)

and the conjugation pairings

    <X(n, 0), conj X(n, 0)> = pi (n+1) / ((2n+1)(2n+3))
    <X(n, m), conj X(n, m)> = pi (n-2m^2+1) (n+m+1)! / (2 (2n+1)(2n+3) (n-m+1)!)

which turn negative once 2m^2 > n+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import PiRational, TriPoly
from .fields import (
    QuatField,
    VecField,
    apply_d,
    apply_dbar,
    conj,
    d_of_scalar,
    inner_product,
    sc,
)
from .harmonic import UVCombo, solid_harmonic, uv_combo, uv_norm_sq, uv_poly

_ZERO = TriPoly.zero()


def _check_xy_indices(kind: str, n: int, m: int) -> None:
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y', got {kind!r}")
    if n < 0:
        raise ValueError("degree must be >= 0")
    low = 0 if kind == "X" else 1
    if not low <= m <= n + 1:
        raise ValueError(f"{kind}({n}, {m}): order must be in {low}..{n + 1}")


@dataclass(frozen=True)
class MonogenicBasisElement:
    """A basis monogenic polynomial: kind 'X' or 'Y', degree n, order m."""

    kind: str
    n: int
    m: int
    field: QuatField

    def __str__(self) -> str:
        return f"{self.kind}({self.n},{self.m}) = {self.field}"


@lru_cache(maxsize=None)
def _monogenic_element(kind: str, n: int, m: int) -> MonogenicBasisElement:
    source = solid_harmonic("U" if kind == "X" else "V", n + 1, m)
    field = d_of_scalar(source.poly).scale(Fraction(1, 2))
    # is_harmonic() also memoizes the flag that sums of basis fields inherit
    if not apply_dbar(field, "left").is_zero() or not field.is_harmonic():
        raise AssertionError(f"construction of {kind}({n},{m}) is not monogenic")
    return MonogenicBasisElement(kind, n, m, field)


def monogenic_X(n: int, m: int) -> MonogenicBasisElement:
    """X(n, m) = (1/2) D[U(n+1, m)], for 0 <= m <= n+1."""
    _check_xy_indices("X", n, m)
    return _monogenic_element("X", n, m)


def monogenic_Y(n: int, m: int) -> MonogenicBasisElement:
    """Y(n, m) = (1/2) D[V(n+1, m)], for 1 <= m <= n+1."""
    _check_xy_indices("Y", n, m)
    return _monogenic_element("Y", n, m)


def monogenic_element(kind: str, n: int, m: int) -> MonogenicBasisElement:
    return monogenic_X(n, m) if kind == "X" else monogenic_Y(n, m)


def monogenic_basis(n: int) -> list[MonogenicBasisElement]:
    """The 2n+3 basis elements of degree n: X(n,0..n+1) then Y(n,1..n+1)."""
    out = [monogenic_X(n, m) for m in range(n + 2)]
    out += [monogenic_Y(n, m) for m in range(1, n + 2)]
    return out


def xy_recipe(kind: str, n: int, m: int) -> tuple[UVCombo, UVCombo, UVCombo]:
    """The (1, e1, e2) components of X(n, m) / Y(n, m) as combinations of
    degree-n solid harmonics: the closed-form recombination, for n >= 1."""
    _check_xy_indices(kind, n, m)
    if n < 1:
        raise ValueError("the closed form is stated for degrees n >= 1")
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    if kind == "X" and m == 0:
        return (
            uv_combo(n, (Fraction(n + 1, 2), "U", 0)),
            uv_combo(n, (half, "U", 1)),
            uv_combo(n, (half, "V", 1)),
        )
    c = Fraction((n + m) * (n + m + 1), 4)
    same, other, sign = ("U", "V", 1) if kind == "X" else ("V", "U", -1)
    return (
        uv_combo(n, (Fraction(n + m + 1, 2), same, m)),
        uv_combo(n, (-c, same, m - 1), (quarter, same, m + 1)),
        uv_combo(n, (sign * c, other, m - 1), (sign * quarter, other, m + 1)),
    )


def xy_closed_form(kind: str, n: int, m: int) -> QuatField:
    """Build X(n, m) or Y(n, m) directly from degree-n solid harmonics.

    This is the independent closed-form route (no differentiation); it agrees
    with the derivative construction as an exact polynomial identity for
    every n >= 1.  Degree 0 is outside its stated range and is rejected.
    """
    return QuatField(*(uv_poly(n, part) for part in xy_recipe(kind, n, m)), _ZERO)


def xy_norm_sq(kind: str, n: int, m: int) -> PiRational:
    """Closed-form squared norm of X(n, m) / Y(n, m) over the unit ball."""
    _check_xy_indices(kind, n, m)
    if m == 0:
        return PiRational(Fraction(n + 1, 2 * n + 3))
    ratio = Fraction(math.factorial(n + m + 1), math.factorial(n - m + 1))
    return PiRational(Fraction(n + 1, 2 * (2 * n + 3)) * ratio)


def xy_conj_pairing(kind: str, n: int, m: int) -> PiRational:
    """Closed-form pairing <X(n,m), conj X(n,m)> (same value for Y)."""
    _check_xy_indices(kind, n, m)
    if m == 0:
        return PiRational(Fraction(n + 1, (2 * n + 1) * (2 * n + 3)))
    ratio = Fraction(math.factorial(n + m + 1), math.factorial(n - m + 1))
    return PiRational(Fraction(n - 2 * m * m + 1, 2 * (2 * n + 1) * (2 * n + 3)) * ratio)


def complete_scalar(f0: TriPoly, degree: int | None = None) -> QuatField:
    """Complete a harmonic homogeneous scalar to a monogenic field.

    The result f satisfies Sc f = f0 exactly; among the completions (which
    differ by monogenic constants) this returns the canonical one carrying
    no X(n, n+1) or Y(n, n+1) component.
    """
    if f0.is_zero():
        return QuatField.zero()
    if not f0.is_homogeneous():
        raise ValueError("input is not homogeneous")
    n = f0.degree()
    if degree is not None and degree != n:
        raise ValueError(f"input has degree {n}, caller claimed {degree}")
    residual = f0.laplacian()
    if not residual.is_zero():
        raise ValueError(f"input is not harmonic: Laplacian residual {residual}")
    out = QuatField.zero()
    f0_field = VecField.from_scalar(f0)
    for kind, uv_kind, m_low in (("X", "U", 0), ("Y", "V", 1)):
        for m in range(m_low, n + 1):
            h = solid_harmonic(uv_kind, n, m)
            coeff = inner_product(f0_field, h.as_field()) / uv_norm_sq(uv_kind, n, m)
            if coeff:
                # Sc X(n, m) = (n+m+1)/2 U(n, m), so rescale by 2/(n+m+1)
                scale = coeff * Fraction(2, n + m + 1)
                out = out + monogenic_element(kind, n, m).field.scale(scale)
    if sc(out) != f0:
        raise AssertionError("scalar completion failed to reproduce its input")
    return out


def leftright_check(f: QuatField) -> bool:
    """Whether an R^3-valued field is monogenic, by three equivalent tests.

    Left Dbar f = 0, the right action f Dbar = 0 and D conj(f) = 0 vanish
    together; the three are evaluated independently and cross-asserted.
    """
    if not f.is_r3_valued():
        raise ValueError("field must be R^3-valued (zero e3 component)")
    left = apply_dbar(f, "left").is_zero()
    right = apply_dbar(f, "right").is_zero()
    via_conj = apply_d(conj(f), "left").is_zero()
    if not (left == right == via_conj):
        raise AssertionError(
            "left/right/conjugate monogenicity tests disagree: "
            f"{left}, {right}, {via_conj}"
        )
    return left
