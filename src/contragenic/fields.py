"""Quaternion-valued and R^3-valued polynomial fields and their operators.

A ``QuatField`` has four ``TriPoly`` components along e0=1, e1, e2, e3 with
the usual quaternion table (e1*e2 = e3 cyclically, ej^2 = -1).  A
``VecField`` carries only the e0, e1, e2 components; it is the natural
argument type where the theory lives in R^3 inside the quaternions.

The first-order operators act through quaternionic multiplication:

    grad_vec = d/dx1 e1 + d/dx2 e2
    D        = d/dx0 - grad_vec        (applied left or right)
    Dbar     = d/dx0 + grad_vec

A field f with Dbar f = 0 is monogenic, with D f = 0 antimonogenic; both at
once makes it a monogenic constant.  The L2(B^3) inner product used
throughout is the real pairing <f, g> = integral of sum_i f_i g_i, evaluated
in closed form so that every Gram entry is an exact rational multiple of pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact import PiRational, TriPoly, linear_combination, scalar_pairing

_ZERO = TriPoly.zero()


@dataclass(frozen=True)
class VecField:
    """R^3-valued polynomial field f = c0 + c1 e1 + c2 e2."""

    c0: TriPoly
    c1: TriPoly
    c2: TriPoly

    @staticmethod
    def zero() -> VecField:
        return VecField(_ZERO, _ZERO, _ZERO)

    @staticmethod
    def from_scalar(p: TriPoly) -> VecField:
        return VecField(p, _ZERO, _ZERO)

    def components(self) -> tuple[TriPoly, TriPoly, TriPoly]:
        return (self.c0, self.c1, self.c2)

    def __add__(self, other: VecField) -> VecField:
        return VecField(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: VecField) -> VecField:
        return VecField(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> VecField:
        return VecField(-self.c0, -self.c1, -self.c2)

    def scale(self, factor: int | Fraction) -> VecField:
        return VecField(self.c0.scale(factor), self.c1.scale(factor), self.c2.scale(factor))

    @staticmethod
    def combination(terms: Iterable[tuple[int | Fraction, VecField]]) -> VecField:
        """The field sum_k c_k f_k, one ``linear_combination`` per component."""
        return VecField(*_combine_components(terms, 3))

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def is_harmonic(self) -> bool:
        return all(p.is_harmonic() for p in self.components())

    def degree(self) -> int:
        return max(p.degree() for p in self.components())

    def star(self) -> VecField:
        """The involution swapping x1 <-> x2 and the e1/e2 components."""
        return VecField(
            self.c0.substitute_swap12(),
            self.c2.substitute_swap12(),
            self.c1.substitute_swap12(),
        )

    def as_quat(self) -> QuatField:
        return QuatField(self.c0, self.c1, self.c2, _ZERO)

    def eval(self, point: tuple) -> tuple:
        return tuple(p.eval(point) for p in self.components())

    def __str__(self) -> str:
        return field_str(self.components())


@dataclass(frozen=True)
class QuatField:
    """Quaternion-valued polynomial field f = c0 + c1 e1 + c2 e2 + c3 e3."""

    c0: TriPoly
    c1: TriPoly
    c2: TriPoly
    c3: TriPoly

    @staticmethod
    def zero() -> QuatField:
        return QuatField(_ZERO, _ZERO, _ZERO, _ZERO)

    @staticmethod
    def from_scalar(p: TriPoly) -> QuatField:
        return QuatField(p, _ZERO, _ZERO, _ZERO)

    @staticmethod
    def basis_unit(axis: int) -> QuatField:
        comps = [_ZERO, _ZERO, _ZERO, _ZERO]
        comps[axis] = TriPoly.const(1)
        return QuatField(*comps)

    def components(self) -> tuple[TriPoly, TriPoly, TriPoly, TriPoly]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __add__(self, other: QuatField) -> QuatField:
        return QuatField(
            self.c0 + other.c0,
            self.c1 + other.c1,
            self.c2 + other.c2,
            self.c3 + other.c3,
        )

    def __sub__(self, other: QuatField) -> QuatField:
        return QuatField(
            self.c0 - other.c0,
            self.c1 - other.c1,
            self.c2 - other.c2,
            self.c3 - other.c3,
        )

    def __neg__(self) -> QuatField:
        return QuatField(-self.c0, -self.c1, -self.c2, -self.c3)

    def scale(self, factor: int | Fraction) -> QuatField:
        return QuatField(*(p.scale(factor) for p in self.components()))

    @staticmethod
    def combination(terms: Iterable[tuple[int | Fraction, QuatField]]) -> QuatField:
        """The field sum_k c_k f_k, one ``linear_combination`` per component."""
        return QuatField(*_combine_components(terms, 4))

    def __mul__(self, other: QuatField) -> QuatField:
        """Pointwise quaternion product."""
        if not isinstance(other, QuatField):
            return NotImplemented
        p0, p1, p2, p3 = self.components()
        q0, q1, q2, q3 = other.components()
        return QuatField(
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        )

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components())

    def is_r3_valued(self) -> bool:
        return self.c3.is_zero()

    def is_harmonic(self) -> bool:
        return all(p.is_harmonic() for p in self.components())

    def degree(self) -> int:
        return max(p.degree() for p in self.components())

    def as_vec(self) -> VecField:
        if not self.c3.is_zero():
            raise ValueError("field has a nonzero e3 component")
        return VecField(self.c0, self.c1, self.c2)

    def eval(self, point: tuple) -> tuple:
        return tuple(p.eval(point) for p in self.components())

    def __str__(self) -> str:
        return field_str(self.components())


def _combine_components(terms, width: int) -> list[TriPoly]:
    terms = [(coeff, field.components()) for coeff, field in terms]
    return [
        linear_combination([(coeff, comps[axis]) for coeff, comps in terms])
        for axis in range(width)
    ]


def field_str(components) -> str:
    """Canonical text form "(p0) + (p1)*e1 + ..." skipping zero components."""
    labels = ("", "e1", "e2", "e3")
    pieces = []
    for poly, label in zip(components, labels):
        if poly.is_zero():
            continue
        body = f"({poly})"
        pieces.append(f"{body}*{label}" if label else body)
    return " + ".join(pieces) if pieces else "0"


# -- scalar/vector projections and conjugation --------------------------------

def sc(f: QuatField) -> TriPoly:
    """Scalar (e0) part."""
    return f.c0


def vec(f: QuatField) -> QuatField:
    """Vector part, the e1/e2/e3 components."""
    return QuatField(_ZERO, f.c1, f.c2, f.c3)


def conj(f: QuatField) -> QuatField:
    """Quaternionic conjugate: scalar part minus vector part."""
    return QuatField(f.c0, -f.c1, -f.c2, -f.c3)


def star(f: QuatField) -> QuatField:
    """The involution swapping x1 <-> x2, e1 <-> e2 and negating e3."""
    return QuatField(
        f.c0.substitute_swap12(),
        f.c2.substitute_swap12(),
        f.c1.substitute_swap12(),
        -f.c3.substitute_swap12(),
    )


# -- the Cauchy-Riemann type operators ----------------------------------------

def _partial_field(f: QuatField, axis: int) -> QuatField:
    return QuatField(*(p.partial(axis) for p in f.components()))


def apply_dbar(f: QuatField, side: str = "left") -> QuatField:
    """Dbar = d/dx0 + d/dx1 e1 + d/dx2 e2, as a left or right operator."""
    d0, d1, d2 = (_partial_field(f, axis) for axis in (0, 1, 2))
    e1 = QuatField.basis_unit(1)
    e2 = QuatField.basis_unit(2)
    if side == "left":
        return d0 + e1 * d1 + e2 * d2
    if side == "right":
        return d0 + d1 * e1 + d2 * e2
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def apply_d(f: QuatField, side: str = "left") -> QuatField:
    """D = d/dx0 - d/dx1 e1 - d/dx2 e2, as a left or right operator."""
    d0, d1, d2 = (_partial_field(f, axis) for axis in (0, 1, 2))
    e1 = QuatField.basis_unit(1)
    e2 = QuatField.basis_unit(2)
    if side == "left":
        return d0 - e1 * d1 - e2 * d2
    if side == "right":
        return d0 - d1 * e1 - d2 * e2
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def d_of_scalar(p: TriPoly) -> QuatField:
    """D applied to a scalar field: grad with sign pattern (+, -, -)."""
    return QuatField(p.partial(0), -p.partial(1), -p.partial(2), _ZERO)


def grad_vec(p: TriPoly) -> VecField:
    """The vector gradient d/dx1 p e1 + d/dx2 p e2 of a scalar field."""
    return VecField(_ZERO, p.partial(1), p.partial(2))


def is_monogenic(f: QuatField) -> bool:
    return apply_dbar(f, "left").is_zero()


def is_antimonogenic(f: QuatField) -> bool:
    return apply_d(f, "left").is_zero()


# -- inner products ------------------------------------------------------------

def inner_product(f, g) -> PiRational:
    """Exact L2(B^3) inner product Sc integral of conj(f) g.

    Accepts VecField or QuatField on either side; the pairing is the sum of
    the componentwise scalar pairings.
    """
    fc = list(f.components())
    gc = list(g.components())
    while len(fc) < 4:
        fc.append(_ZERO)
    while len(gc) < 4:
        gc.append(_ZERO)
    total = PiRational.zero()
    for p, q in zip(fc, gc):
        if p.is_zero() or q.is_zero():
            continue
        total = total + scalar_pairing(p, q)
    return total


def norm_sq(f) -> PiRational:
    return inner_product(f, f)


# -- degree grading -------------------------------------------------------------

def degree_split(f: VecField) -> list[tuple[int, VecField]]:
    """Split a polynomial field into its homogeneous parts, ordered by degree.

    Summing the returned fields reproduces the input exactly; the zero field
    yields an empty list.
    """
    buckets: dict[int, list[TriPoly]] = {}
    for index, poly in enumerate(f.components()):
        for degree, part in poly.homogeneous_parts().items():
            slot = buckets.setdefault(degree, [_ZERO, _ZERO, _ZERO])
            slot[index] = part
    return [
        (degree, VecField(*buckets[degree])) for degree in sorted(buckets)
    ]
