"""Orthogonal decomposition of harmonic fields: monogenic + antimonogenic + contragenic.

A harmonic polynomial field splits degree by degree against the exact
orthogonal system (ambigenic basis) union (contragenic basis).  The
ambigenic coefficients are then unfolded into a monogenic and an
antimonogenic representative using

    X-(n, m) = conj X(n, m) - a(n, m) X(n, m)

so a coefficient beta on X- contributes beta conj X to the antimonogenic
part and -beta a(n, m) X to the monogenic part; likewise for Y.  The split
of an ambigenic field is only unique up to monogenic constants, which are
assigned wholly to the monogenic part: the antimonogenic part of every
decomposition carries no X(n, n+1) or Y(n, n+1) content.  Degree-0 fields
are constants, hence monogenic constants, and land in the monogenic part.

The monogenic and antimonogenic parts are not orthogonal to each other, but
their sum is orthogonal to the contragenic part, so the reported norms
satisfy ||f||^2 = ||ambigenic||^2 + ||contragenic||^2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import PiRational
from .fields import (
    QuatField,
    VecField,
    conj,
    degree_split,
    inner_product,
    norm_sq,
)
from .monogenic import monogenic_element
from .spaces import (
    ambigenic_basis,
    ambigenic_coefficient,
    ambigenic_norm_sq,
    contragenic_basis,
    contragenic_norm_sq,
)

#: coefficient-table key: (degree, basis label, order)
CoefficientKey = tuple[int, str, int]


@dataclass(frozen=True)
class Decomposition:
    """The three parts of a harmonic field plus its spectral coefficients.

    ``coefficients`` maps (degree, label, order) to the exact coefficient in
    the orthogonal system; labels are X+/X-/Y+/Y-/Z0/Z+/Z- plus the degree-0
    labels 1/e1/e2.
    """

    monogenic: QuatField
    antimonogenic: QuatField
    contragenic: VecField
    coefficients: dict[CoefficientKey, Fraction]

    def total(self) -> VecField:
        combined = self.monogenic + self.antimonogenic
        return combined.as_vec() + self.contragenic


@dataclass(frozen=True)
class NormReport:
    """Exact Parseval bookkeeping for a decomposition."""

    total_norm_sq: PiRational
    ambigenic_norm_sq: PiRational
    contragenic_norm_sq: PiRational
    monogenic_norm_sq: PiRational
    antimonogenic_norm_sq: PiRational
    cross_term: PiRational  # <monogenic, antimonogenic>, in general nonzero


def decompose(f: VecField) -> Decomposition:
    """Split a harmonic polynomial field into its three canonical parts.

    Rejects non-harmonic input, reporting the offending Laplacian residual.
    The output is deterministic and reconstructs the input exactly.
    """
    for p in f.components():
        if not p.is_harmonic():
            raise ValueError(f"input is not harmonic: Laplacian residual {p.laplacian()}")

    monogenic: list[tuple[Fraction, QuatField]] = []
    antimonogenic: list[tuple[Fraction, QuatField]] = []
    contragenic: list[tuple[Fraction, VecField]] = []
    coefficients: dict[CoefficientKey, Fraction] = {}

    for degree, part in degree_split(f):
        if degree == 0:
            # constants are monogenic constants; tie-break sends them left
            monogenic.append((Fraction(1), part.as_quat()))
            for axis, label in ((0, "1"), (1, "e1"), (2, "e2")):
                value = part.components()[axis].coefficient((0, 0, 0))
                if value:
                    coefficients[(0, label, 0)] = value
            continue

        plus_coeffs: dict[tuple[str, int], Fraction] = {}
        minus_coeffs: dict[tuple[str, int], Fraction] = {}
        for element in ambigenic_basis(degree):
            coeff = inner_product(part, element.field) / ambigenic_norm_sq(
                element.kind, degree, element.m
            )
            if not coeff:
                continue
            coefficients[(degree, element.kind, element.m)] = coeff
            bucket = plus_coeffs if element.kind.endswith("+") else minus_coeffs
            bucket[(element.kind[0], element.m)] = coeff

        for (kind, m), coeff in minus_coeffs.items():
            base = monogenic_element(kind, degree, m).field
            if m == degree + 1:
                # conj of a monogenic constant is -itself: keep it monogenic
                monogenic.append((coeff, conj(base)))
            else:
                antimonogenic.append((coeff, conj(base)))
                mixing = ambigenic_coefficient(degree, m)
                if mixing:
                    plus_coeffs[(kind, m)] = (
                        plus_coeffs.get((kind, m), Fraction(0)) - coeff * mixing
                    )

        for (kind, m), coeff in plus_coeffs.items():
            if coeff:
                monogenic.append((coeff, monogenic_element(kind, degree, m).field))

        for element in contragenic_basis(degree):
            coeff = inner_product(part, element.field) / contragenic_norm_sq(
                element.label, degree, element.m
            )
            if coeff:
                coefficients[(degree, element.label, element.m)] = coeff
                contragenic.append((coeff, element.field))

    return Decomposition(
        QuatField.combination(monogenic),
        QuatField.combination(antimonogenic),
        VecField.combination(contragenic),
        coefficients,
    )


def norm_report(d: Decomposition) -> NormReport:
    """Exact norms of the parts; the ambigenic/contragenic split is orthogonal."""
    ambigenic = d.monogenic + d.antimonogenic
    ambi_sq = norm_sq(ambigenic)
    contra_sq = norm_sq(d.contragenic)
    return NormReport(
        total_norm_sq=ambi_sq + contra_sq,
        ambigenic_norm_sq=ambi_sq,
        contragenic_norm_sq=contra_sq,
        monogenic_norm_sq=norm_sq(d.monogenic),
        antimonogenic_norm_sq=norm_sq(d.antimonogenic),
        cross_term=inner_product(d.monogenic, d.antimonogenic),
    )
