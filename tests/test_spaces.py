"""Ambigenic/contragenic bases, dimension table, contragenicity criteria."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from contragenic import (
    PiRational,
    TriPoly,
    VecField,
    ambigenic_basis,
    ambigenic_coefficient,
    ambigenic_minus_norm_sq,
    conj,
    contragenic_basis,
    contragenic_norm_sq,
    dimension_table,
    expected_dimensions,
    gram_rank,
    inner_product,
    is_contragenic,
    monogenic_X,
    norm_sq,
    solid_harmonic,
    star_on_contragenics,
    surface_criterion,
    vec,
    vec_basis,
    vec_norm_sq,
)

from util import degree_system

ZERO = TriPoly.zero()


class TestVecBasis:
    def test_degree_zero_members(self):
        basis = vec_basis(0)
        assert len(basis) == 2
        assert basis[0].field == VecField(ZERO, TriPoly.const(Fraction(-1, 2)), ZERO)
        assert basis[1].field == VecField(ZERO, ZERO, TriPoly.const(Fraction(-1, 2)))

    def test_counts(self):
        assert len(vec_basis(0)) == 2
        for n in range(1, 7):
            assert len(vec_basis(n)) == 2 * n + 3

    def test_norm_spot_value(self):
        assert vec_norm_sq("X", 1, 0) == PiRational(Fraction(2, 15))

    def test_norms_match(self):
        for n in range(6):
            for v in vec_basis(n):
                assert norm_sq(v.field) == vec_norm_sq(v.kind, n, v.m), (v.kind, n, v.m)

    def test_pairwise_orthogonal_at_degree_two(self):
        basis = vec_basis(2)
        for i, v in enumerate(basis):
            for w in basis[i + 1 :]:
                assert inner_product(v.field, w.field).is_zero()


class TestAmbigenicBasis:
    def test_count_is_4n_plus_4(self):
        for n in range(1, 7):
            assert len(ambigenic_basis(n)) == 4 * n + 4

    def test_mixing_coefficient(self):
        assert ambigenic_coefficient(1, 0) == Fraction(1, 3)
        assert ambigenic_coefficient(3, 4) == 0

    def test_minus_element_definition(self):
        x10 = monogenic_X(1, 0).field
        element = next(
            e for e in ambigenic_basis(1) if e.kind == "X-" and e.m == 0
        )
        assert element.field == conj(x10) - x10.scale(Fraction(1, 3))

    def test_minus_norms(self):
        assert ambigenic_minus_norm_sq("X", 1, 0) == PiRational(Fraction(16, 45))
        for n in range(1, 6):
            for e in ambigenic_basis(n):
                if e.kind.endswith("-"):
                    assert norm_sq(e.field) == ambigenic_minus_norm_sq(
                        e.kind[0], n, e.m
                    ), (e.kind, n, e.m)

    def test_orthogonality(self):
        for n in (1, 2, 3):
            basis = ambigenic_basis(n)
            for i, e in enumerate(basis):
                for other in basis[i + 1 :]:
                    assert inner_product(e.field, other.field).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            ambigenic_basis(0)


class TestContragenicBasis:
    def test_degree_one(self):
        basis = contragenic_basis(1)
        assert len(basis) == 1
        z = basis[0]
        assert z.field == VecField(ZERO, TriPoly.variable(2), -TriPoly.variable(1))
        assert norm_sq(z.field) == PiRational(Fraction(8, 15))
        assert contragenic_norm_sq("Z0", 1) == PiRational(Fraction(8, 15))

    def test_counts(self):
        assert contragenic_basis(0) == []
        for n in range(1, 9):
            assert len(contragenic_basis(n)) == 2 * n - 1

    def test_orthogonal_to_every_ambigenic(self):
        for n in range(1, 6):
            for z in contragenic_basis(n):
                for a in ambigenic_basis(n):
                    assert inner_product(z.field, a.field).is_zero(), (
                        z.label,
                        z.m,
                        a.kind,
                        a.m,
                    )

    def test_pairwise_diagonal(self):
        for n in range(1, 6):
            basis = contragenic_basis(n)
            for i, z in enumerate(basis):
                for w in basis[i + 1 :]:
                    assert inner_product(z.field, w.field).is_zero()

    def test_norms_match_closed_form(self):
        for n in range(1, 7):
            for z in contragenic_basis(n):
                assert norm_sq(z.field) == contragenic_norm_sq(z.label, n, z.m)

    def test_zero_scalar_part(self):
        for n in range(1, 7):
            for z in contragenic_basis(n):
                assert z.field.c0.is_zero()
                assert z.field.is_harmonic()

    def test_strict_inclusion_witness(self):
        # a nonzero harmonic field orthogonal to every ambigenic field exists
        z = contragenic_basis(1)[0]
        assert not z.field.is_zero()
        assert is_contragenic(z.field)


class TestBuildersFlagHarmonic:
    """Fresh builds of the cached bases carry the harmonic memo on every
    component, so sums and scalings of basis fields inherit it."""

    @staticmethod
    def _flagged(field) -> bool:
        return all(getattr(p, "_harmonic", None) is True or p.is_zero() for p in field.components())

    def test_monogenic_elements(self):
        from contragenic.monogenic import _monogenic_element

        for n in range(4):
            for m in range(n + 2):
                assert self._flagged(_monogenic_element.__wrapped__("X", n, m).field)

    def test_ambigenic_and_contragenic_bases(self):
        from contragenic.spaces import _ambigenic_basis_cached, _contragenic_basis_cached

        for n in range(1, 5):
            assert all(self._flagged(e.field) for e in _ambigenic_basis_cached.__wrapped__(n))
            assert all(self._flagged(e.field) for e in _contragenic_basis_cached.__wrapped__(n))


class TestDimensionTable:
    def test_rows_match(self):
        for n in range(5):
            assert dimension_table(n).as_tuple() == expected_dimensions(n).as_tuple()

    def test_union_spans_harmonics(self):
        for n in range(1, 5):
            assert gram_rank(degree_system(n)) == 6 * n + 3


class TestIsContragenic:
    def test_z_is_contragenic(self):
        assert is_contragenic(contragenic_basis(1)[0].field)

    def test_x2e1_certificate(self):
        cert = is_contragenic(VecField(ZERO, TriPoly.variable(2), ZERO))
        assert not cert
        assert cert.failures
        degree, label, value = cert.failures[0]
        assert degree == 1 and not value.is_zero()

    def test_zero_field(self):
        assert is_contragenic(VecField.zero())

    def test_scalar_part_fails(self):
        cert = is_contragenic(VecField(TriPoly.variable(0), ZERO, ZERO))
        assert not cert

    def test_rejects_non_harmonic(self):
        with pytest.raises(ValueError):
            is_contragenic(VecField(ZERO, TriPoly.monomial((2, 0, 0)), ZERO))

    def test_mixed_degree_combination(self):
        field = contragenic_basis(1)[0].field + contragenic_basis(2)[1].field.scale(
            Fraction(3, 7)
        )
        assert is_contragenic(field)


class TestSurfaceCriterion:
    def test_z_passes_all_degree_two_harmonics(self):
        z = contragenic_basis(1)[0]
        assert surface_criterion(z.field, 1) is True

    def test_vec_x10_fails(self):
        v = vec(monogenic_X(1, 0).field).as_vec()
        assert surface_criterion(v, 1) is False

    def test_failing_harmonic_is_the_zonal_one(self):
        # the spot that breaks Vec X(1,0) is g = U(2,0)
        from contragenic.exact import sphere_integral

        v = vec(monogenic_X(1, 0).field).as_vec()
        g = solid_harmonic("U", 2, 0).poly
        lhs = sphere_integral(v.c1 * g * TriPoly.variable(1)).scale(-1)
        rhs = sphere_integral(v.c2 * g * TriPoly.variable(2))
        assert lhs != rhs

    def test_zero_field(self):
        assert surface_criterion(VecField.zero(), 1) is True

    def test_rejects_scalar_part(self):
        with pytest.raises(ValueError):
            surface_criterion(VecField(TriPoly.variable(0), ZERO, ZERO), 1)

    def test_rejects_wrong_degree(self):
        z = contragenic_basis(2)[0]
        with pytest.raises(ValueError):
            surface_criterion(z.field, 1)

    def test_equivalence_with_volume_orthogonality(self):
        rng = random.Random(500)
        for n in range(1, 5):
            for z in contragenic_basis(n):
                assert surface_criterion(z.field, n) == bool(is_contragenic(z.field))
            for v in vec_basis(n):
                assert surface_criterion(v.field, n) == bool(is_contragenic(v.field))
            # random mixtures of the two families
            for _ in range(3):
                field = VecField.zero()
                for z in contragenic_basis(n):
                    field = field + z.field.scale(Fraction(rng.randint(-3, 3)))
                if rng.random() < 0.5:
                    field = field + vec_basis(n)[0].field.scale(
                        Fraction(rng.randint(1, 3))
                    )
                if field.is_zero():
                    continue
                assert surface_criterion(field, n) == bool(is_contragenic(field))


class TestStarOnContragenics:
    def test_z0_maps_to_minus_itself(self):
        report = star_on_contragenics(1)
        assert report.images[0].coefficients == (("Z0(1,0)", Fraction(-1)),)

    def test_star_images_contragenic_and_invertible(self):
        for n in range(1, 7):
            report = star_on_contragenics(n)
            assert report.invertible
            assert len(report.images) == 2 * n - 1

    def test_mixed_behaviour_of_plus_minus(self):
        # the involution sends some Z+ to Z- but fixes others
        report = star_on_contragenics(3)
        images = {img.source: dict(img.coefficients) for img in report.images}
        assert set(images["Z+(3,1)"]) == {"Z-(3,1)"}
        assert set(images["Z+(3,2)"]) == {"Z+(3,2)"}
