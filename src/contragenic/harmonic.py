"""Legendre functions and solid spherical harmonics as exact polynomials.

With spherical coordinates x0 = r cos(theta), x1 = r sin(theta) cos(phi),
x2 = r sin(theta) sin(phi), the degree-n solid harmonics are

    U(n, m) = r^n P_n^m(cos theta) cos(m phi)     (m = 0..n)
    V(n, m) = r^n P_n^m(cos theta) sin(m phi)     (m = 1..n)

where P_n^m(t) = (1-t^2)^(m/2) d^m/dt^m P_n(t), with no Condon-Shortley
phase.  Each is produced here as an exact homogeneous harmonic ``TriPoly``:
writing pi_nm = d^m P_n / dt^m (a polynomial of fixed parity), the radial
factor r^(n-m) pi_nm(x0/r) is a polynomial in x0 and r^2 = x0^2+x1^2+x2^2,
and the azimuthal factor (r sin theta)^m {cos,sin}(m phi) equals
Re/Im[(x1 + i x2)^m].  No radicals or trigonometry ever enter.

Norms are over the unit ball, not the unit sphere:

    ||U(n,0)||^2 = 4 pi / ((2n+1)(2n+3))
    ||U(n,m)||^2 = ||V(n,m)||^2 = 2 pi (n+m)! / ((2n+1)(2n+3)(n-m)!)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import PiRational, TriPoly, TSPoly, linear_combination
from .fields import VecField, inner_product


@lru_cache(maxsize=None)
def _legendre_t_coeffs(n: int) -> tuple[tuple[int, Fraction], ...]:
    """Coefficients of P_n via the Rodrigues formula, as (t-power, value)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    # expand (t^2 - 1)^n, then differentiate n times and divide by 2^n n!
    out = []
    for k in range(n, -1, -1):
        power = 2 * k - n
        if power < 0:
            break
        binom = math.comb(n, k)
        sign = (-1) ** (n - k)
        deriv = math.factorial(2 * k) // math.factorial(2 * k - n)
        coeff = Fraction(sign * binom * deriv, 2**n * math.factorial(n))
        if coeff:
            out.append((power, coeff))
    return tuple(out)


def legendre(n: int) -> TSPoly:
    """The Legendre polynomial P_n(t), exactly."""
    return TSPoly(even=dict(_legendre_t_coeffs(n)))


@lru_cache(maxsize=None)
def _legendre_derivative_coeffs(n: int, m: int) -> tuple[tuple[int, Fraction], ...]:
    """Coefficients of d^m P_n / dt^m."""
    out = []
    for power, coeff in _legendre_t_coeffs(n):
        if power < m:
            continue
        factor = math.factorial(power) // math.factorial(power - m)
        out.append((power - m, coeff * factor))
    return tuple(out)


def assoc_legendre(n: int, m: int) -> TSPoly:
    """The associated Legendre function P_n^m(t) = s^m d^m P_n/dt^m.

    Orders above the degree give the zero function, matching the convention
    that out-of-range solid harmonics vanish.
    """
    if n < 0 or m < 0:
        raise ValueError("need n >= 0 and m >= 0")
    if m > n:
        return TSPoly.zero()
    pi_nm = dict(_legendre_derivative_coeffs(n, m))
    # s^m contributes (1-t^2)^(m//2), landing in the odd part when m is odd
    result = TSPoly(even=pi_nm) if m % 2 == 0 else TSPoly(odd=pi_nm)
    one_minus_t2 = TSPoly(even={0: Fraction(1), 2: Fraction(-1)})
    for _ in range(m // 2):
        result = result * one_minus_t2
    return result


@dataclass(frozen=True)
class SolidHarmonic:
    """A solid spherical harmonic: kind 'U' or 'V', indices (n, m), polynomial."""

    kind: str
    n: int
    m: int
    poly: TriPoly

    def as_field(self) -> VecField:
        return VecField.from_scalar(self.poly)

    def __str__(self) -> str:
        return f"{self.kind}({self.n},{self.m}) = {self.poly}"


@lru_cache(maxsize=None)
def _complex_power_parts(m: int) -> tuple[TriPoly, TriPoly]:
    """Re and Im of (x1 + i x2)^m as exact polynomials."""
    re_terms: dict[tuple[int, int, int], Fraction] = {}
    im_terms: dict[tuple[int, int, int], Fraction] = {}
    for j in range(m + 1):
        coeff = Fraction(math.comb(m, j))
        # i^j cycles through 1, i, -1, -i
        if j % 4 == 0:
            re_terms[(0, m - j, j)] = coeff
        elif j % 4 == 1:
            im_terms[(0, m - j, j)] = coeff
        elif j % 4 == 2:
            re_terms[(0, m - j, j)] = -coeff
        else:
            im_terms[(0, m - j, j)] = -coeff
    return TriPoly(re_terms), TriPoly(im_terms)


@lru_cache(maxsize=None)
def _solid_poly(kind: str, n: int, m: int) -> TriPoly:
    if m > n or (kind == "V" and m == 0):
        return TriPoly.zero()
    r2 = TriPoly({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    radial = TriPoly.zero()
    for power, coeff in _legendre_derivative_coeffs(n, m):
        # power has parity n - m, so (n - m - power) is even
        half = (n - m - power) // 2
        radial = radial + (r2**half) * TriPoly.monomial((power, 0, 0), coeff)
    re_part, im_part = _complex_power_parts(m)
    return radial * (re_part if kind == "U" else im_part)


def solid_harmonic(kind: str, n: int, m: int) -> SolidHarmonic:
    """Construct U(n, m) or V(n, m) as an exact cartesian polynomial.

    V with m = 0 does not exist and is rejected; m > n yields the zero
    harmonic (the convention that keeps downstream closed forms well-formed
    at their boundary orders).
    """
    if kind not in ("U", "V"):
        raise ValueError(f"kind must be 'U' or 'V', got {kind!r}")
    if n < 0:
        raise ValueError("degree must be >= 0")
    if kind == "V" and m == 0:
        raise ValueError("V(n, 0) does not exist")
    if m < 0:
        raise ValueError("order must be >= 0")
    return SolidHarmonic(kind, n, m, _solid_poly(kind, n, m))


def uv_term(kind: str, n: int, m: int) -> TriPoly:
    """Solid-harmonic polynomial extended by zero outside the index range.

    Returns the zero polynomial for m > n and for V with m = 0.
    """
    if kind not in ("U", "V"):
        raise ValueError(f"kind must be 'U' or 'V', got {kind!r}")
    if m < 0:
        raise ValueError("order must be >= 0")
    return _solid_poly(kind, n, m)


#: A linear combination of degree-n solid harmonics, as (coefficient, kind,
#: order) triples with kind 'U' or 'V'.
UVCombo = tuple[tuple[Fraction, str, int], ...]


def uv_combo(n: int, *terms: tuple[int | Fraction, str, int]) -> UVCombo:
    """The combination of the given (coefficient, kind, order) terms.

    Zero coefficients and solid harmonics that do not exist at degree n
    (order above n, or V of order 0) are dropped, so a closed form written
    for general orders stays valid at its boundary orders.
    """
    return tuple(
        (Fraction(coeff), kind, m)
        for coeff, kind, m in terms
        if coeff and m <= n and not (kind == "V" and m == 0)
    )


def uv_poly(n: int, combo: UVCombo) -> TriPoly:
    """Evaluate a combination of degree-n solid harmonics as a polynomial."""
    return linear_combination([(coeff, uv_term(kind, n, m)) for coeff, kind, m in combo])


def degree_basis(n: int) -> list[SolidHarmonic]:
    """The 2n+1 solid harmonics of degree n, U(n,0..n) then V(n,1..n)."""
    out = [solid_harmonic("U", n, m) for m in range(n + 1)]
    out += [solid_harmonic("V", n, m) for m in range(1, n + 1)]
    return out


def uv_norm_sq(kind: str, n: int, m: int) -> PiRational:
    """Closed-form squared L2(B^3) norm of a solid harmonic."""
    if kind == "V" and m == 0:
        raise ValueError("V(n, 0) does not exist")
    if m > n:
        return PiRational.zero()
    denom = (2 * n + 1) * (2 * n + 3)
    if m == 0:
        return PiRational(Fraction(4, denom))
    ratio = Fraction(math.factorial(n + m), math.factorial(n - m))
    return PiRational(2 * ratio / denom)


def harmonic_dim_check(n: int) -> int:
    """Build the degree-n solid harmonics, verify exact pairwise orthogonality,
    and return their count (always 2n+1)."""
    basis = degree_basis(n)
    for i, h in enumerate(basis):
        for g in basis[i + 1 :]:
            value = inner_product(h.as_field(), g.as_field())
            if not value.is_zero():
                raise AssertionError(
                    f"solid harmonics {h.kind}({n},{h.m}) and {g.kind}({n},{g.m}) "
                    f"are not orthogonal: {value}"
                )
    return len(basis)
