"""Decomposition into monogenic + antimonogenic + contragenic parts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from contragenic import (
    PiRational,
    TriPoly,
    VecField,
    apply_d,
    apply_dbar,
    conj,
    contragenic_basis,
    decompose,
    degree_split,
    inner_product,
    is_contragenic,
    monogenic_X,
    monogenic_Y,
    norm_report,
    norm_sq,
)

from util import random_harmonic_field

ZERO = TriPoly.zero()


class TestDegreeSplit:
    def test_mixed(self):
        f = VecField(TriPoly.variable(0), TriPoly.monomial((2, 0, 0)), ZERO)
        parts = degree_split(f)
        assert [n for n, _ in parts] == [1, 2]
        assert parts[0][1] == VecField(TriPoly.variable(0), ZERO, ZERO)
        assert parts[1][1] == VecField(ZERO, TriPoly.monomial((2, 0, 0)), ZERO)

    def test_homogeneous_single_entry(self):
        f = VecField(ZERO, TriPoly.variable(1), ZERO)
        assert len(degree_split(f)) == 1

    def test_zero_empty(self):
        assert degree_split(VecField.zero()) == []

    def test_sum_reconstructs(self):
        rng = random.Random(9)
        f = random_harmonic_field(rng, 4)
        total = VecField.zero()
        for _, part in degree_split(f):
            total = total + part
        assert (total - f).is_zero()


class TestDecomposeExamples:
    def test_x2e1(self):
        f = VecField(ZERO, TriPoly.variable(2), ZERO)
        d = decompose(f)
        half = Fraction(1, 2)
        ambigenic_part = (d.monogenic + d.antimonogenic).as_vec()
        assert ambigenic_part == VecField(
            ZERO, TriPoly.variable(2).scale(half), TriPoly.variable(1).scale(half)
        )
        assert d.contragenic == VecField(
            ZERO, TriPoly.variable(2).scale(half), TriPoly.variable(1).scale(-half)
        )
        assert d.coefficients[(1, "Z0", 0)] == half
        assert (d.total() - f).is_zero()

    def test_basis_member_passthrough(self):
        f = monogenic_X(2, 1).field
        d = decompose(f.as_vec())
        assert (d.monogenic - f).is_zero()
        assert d.antimonogenic.is_zero()
        assert d.contragenic.is_zero()

    def test_conjugate_goes_antimonogenic(self):
        f = conj(monogenic_X(1, 0).field)
        d = decompose(f.as_vec())
        assert d.monogenic.is_zero()
        assert (d.antimonogenic - f).is_zero()
        assert d.contragenic.is_zero()

    def test_constant_field_is_monogenic(self):
        f = VecField(TriPoly.const(2), TriPoly.const(-1), TriPoly.const(Fraction(1, 3)))
        d = decompose(f)
        assert (d.monogenic.as_vec() - f).is_zero()
        assert d.antimonogenic.is_zero() and d.contragenic.is_zero()

    def test_rejects_non_harmonic_with_residual(self):
        f = VecField(TriPoly.monomial((2, 0, 0)), ZERO, ZERO)
        with pytest.raises(ValueError, match="residual"):
            decompose(f)


class TestDecomposeProperties:
    def test_reconstruction_and_certificates(self):
        rng = random.Random(123)
        for _ in range(25):
            f = random_harmonic_field(rng, 5)
            d = decompose(f)
            assert (d.total() - f).is_zero()
            assert apply_dbar(d.monogenic, "left").is_zero()
            assert apply_d(d.antimonogenic, "left").is_zero()
            assert is_contragenic(d.contragenic)

    def test_canonical_and_deterministic(self):
        rng = random.Random(321)
        f = random_harmonic_field(rng, 4)
        d1 = decompose(f)
        d2 = decompose(d1.total())
        assert d1.coefficients == d2.coefficients
        assert (d1.monogenic - d2.monogenic).is_zero()

    def test_ambigenic_input_has_no_contragenic_part(self):
        rng = random.Random(55)
        f = VecField.zero()
        for n in (1, 2, 3):
            f = f + monogenic_X(n, 1).field.as_vec().scale(Fraction(rng.randint(1, 4)))
            f = f + conj(monogenic_Y(n, 1).field).as_vec().scale(
                Fraction(rng.randint(-4, -1))
            )
        d = decompose(f)
        assert d.contragenic.is_zero()

    def test_contragenic_input_has_no_ambigenic_part(self):
        f = VecField.zero()
        for n in (1, 2, 3):
            for z in contragenic_basis(n):
                f = f + z.field
        d = decompose(f)
        assert d.monogenic.is_zero()
        assert d.antimonogenic.is_zero()
        assert (d.contragenic - f).is_zero()

    def test_contragenic_part_has_zero_scalar(self):
        rng = random.Random(77)
        for _ in range(10):
            d = decompose(random_harmonic_field(rng, 4))
            assert d.contragenic.c0.is_zero()

    def test_antimonogenic_part_has_no_monogenic_constants(self):
        rng = random.Random(99)
        for _ in range(10):
            d = decompose(random_harmonic_field(rng, 4))
            for n in range(1, 5):
                for const in (monogenic_X(n, n + 1).field, monogenic_Y(n, n + 1).field):
                    assert inner_product(d.antimonogenic, conj(const)).is_zero()

    def test_orthogonality_of_splits(self):
        rng = random.Random(111)
        for _ in range(10):
            d = decompose(random_harmonic_field(rng, 4))
            ambigenic = d.monogenic + d.antimonogenic
            assert inner_product(ambigenic, d.contragenic).is_zero()


class TestNormReport:
    def test_pure_contragenic(self):
        z = contragenic_basis(1)[0].field
        report = norm_report(decompose(z))
        assert report.contragenic_norm_sq == norm_sq(z)
        assert report.ambigenic_norm_sq.is_zero()
        assert report.total_norm_sq == norm_sq(z)

    def test_x2e1_halves(self):
        f = VecField(ZERO, TriPoly.variable(2), ZERO)
        report = norm_report(decompose(f))
        assert report.ambigenic_norm_sq == PiRational(Fraction(2, 15))
        assert report.contragenic_norm_sq == PiRational(Fraction(2, 15))
        assert report.total_norm_sq == PiRational(Fraction(4, 15))

    def test_monogenic_input_no_cross_term(self):
        f = monogenic_X(1, 0).field
        report = norm_report(decompose(f.as_vec()))
        assert report.cross_term.is_zero()
        assert report.antimonogenic_norm_sq.is_zero()

    def test_parseval(self):
        rng = random.Random(222)
        for _ in range(10):
            f = random_harmonic_field(rng, 4)
            report = norm_report(decompose(f))
            assert report.total_norm_sq == norm_sq(f)
            assert (
                report.total_norm_sq
                == report.ambigenic_norm_sq + report.contragenic_norm_sq
            )

    def test_warm_degree_twelve_pays_only_the_input_laplacians(self, monkeypatch):
        # basis fields carry their harmonic flag from the cached builders and
        # every sum and scaling of them inherits it, so decompose and
        # norm_report compute no Laplacian beyond the input check
        rng = random.Random(12)
        f = random_harmonic_field(rng, 12, density=0.5)

        def fresh():
            return VecField(*(TriPoly(p.terms) for p in f.components()))

        norm_report(decompose(fresh()))  # warm the basis caches
        calls = []
        laplacian = TriPoly.laplacian

        def counting(self):
            calls.append(len(self.terms))
            return laplacian(self)

        monkeypatch.setattr(TriPoly, "laplacian", counting)
        report = norm_report(decompose(fresh()))
        assert len(calls) == 3
        assert report.total_norm_sq == report.ambigenic_norm_sq + report.contragenic_norm_sq
