"""Bergman kernels, projection properties and the evaluation bound."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contragenic.bergman as bergman
import contragenic.exact as exact
from contragenic.checks import bergman_suite
from contragenic import (
    PiRational,
    QuatField,
    TriPoly,
    VecField,
    contragenic_basis,
    eval_kernel,
    eval_kernel_exact,
    inner_product,
    kernel,
    kernel_from_orthogonal,
    moment_pairing,
    monogenic_X,
    norm_sq,
    point_eval_bound_check,
    project,
    project_truncated,
    vec,
    vec_basis,
)

from util import exact_gram_schmidt, random_invertible_matrix, random_tripoly

ZERO = TriPoly.zero()
N_MAX = 6


class TestKernelConstruction:
    def test_degree_zero_is_constant_rank_two(self):
        k = kernel(0)
        assert len(k.pairs) == 2
        value = -3.0 / (4.0 * math.pi)
        for x, y in (((0.0, 0.0, 0.0), (0.9, 0.1, -0.1)), ((0.5, 0.5, 0.5), (0.0, 0.0, 0.0))):
            b1, b2 = eval_kernel(0, x, y)
            assert b1[0] == pytest.approx(value, rel=1e-14)
            assert b1[1] == 0.0
            assert b2[0] == 0.0
            assert b2[1] == pytest.approx(value, rel=1e-14)

    def test_pair_counts(self):
        assert len(kernel(2).pairs) == 7
        for n in range(1, N_MAX + 1):
            assert len(kernel(n).pairs) == 2 * n + 3

    def test_kernel_at_origin_kills_positive_degrees(self):
        # for n >= 1 every basis field vanishes at 0, so b(0, y) = 0
        b1, b2 = eval_kernel(1, (0.0, 0.0, 0.0), (0.3, 0.2, 0.1))
        assert b1 == (0.0, 0.0) and b2 == (0.0, 0.0)

    def test_basis_independence(self):
        rng = random.Random(321)
        for n in range(0, 4):
            fields = [v.field for v in vec_basis(n)]
            mix = random_invertible_matrix(rng, len(fields))
            remixed = []
            for row in mix:
                combined = VecField.zero()
                for coeff, f in zip(row, fields):
                    if coeff:
                        combined = combined + f.scale(coeff)
                remixed.append(combined)
            reorthogonalized = exact_gram_schmidt(remixed)
            rebuilt = kernel_from_orthogonal(n, reorthogonalized)
            assert rebuilt.expand() == kernel(n).expand(), n


class TestProjection:
    def test_reproduces_basis_fields(self):
        for n in range(N_MAX + 1):
            for v in vec_basis(n):
                result = project(v.field, n)
                assert (result.projected - v.field).is_zero()
                assert result.residual.is_zero()

    def test_annihilates_contragenics(self):
        for n in range(N_MAX + 1):
            for z in contragenic_basis(n):
                result = project(z.field, n)
                assert result.projected.is_zero()

    def test_x2e1_split(self):
        f = VecField(ZERO, TriPoly.variable(2), ZERO)
        result = project(f, 1)
        half = Fraction(1, 2)
        assert result.projected == VecField(
            ZERO, TriPoly.variable(2).scale(half), TriPoly.variable(1).scale(half)
        )
        assert result.residual == VecField(
            ZERO, TriPoly.variable(2).scale(half), TriPoly.variable(1).scale(-half)
        )
        # the residual is proportional to the contragenic generator
        z = contragenic_basis(1)[0].field
        assert (result.residual - z.scale(half)).is_zero()

    def test_idempotence_orthogonality_pythagoras(self):
        rng = random.Random(88)
        for n in range(N_MAX + 1):
            field = VecField.zero()
            for v in vec_basis(n):
                field = field + v.field.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for z in contragenic_basis(n):
                field = field + z.field.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            if field.is_zero():
                continue
            result = project(field, n)
            again = project(result.projected, n)
            assert (again.projected - result.projected).is_zero()
            assert inner_product(result.projected, result.residual).is_zero()
            assert norm_sq(field) == result.projected_norm_sq + result.residual_norm_sq

    def test_rejects_scalar_component(self):
        with pytest.raises(ValueError):
            project(VecField(TriPoly.variable(0), ZERO, ZERO), 1)

    def test_truncated_on_mixed_degrees(self):
        f = vec(monogenic_X(1, 0).field).as_vec() + vec(monogenic_X(3, 2).field).as_vec()
        result = project_truncated(f, 3)
        assert (result.projected - f).is_zero()
        assert result.residual.is_zero()

    def test_truncated_annihilates_z_combination(self):
        f = contragenic_basis(1)[0].field + contragenic_basis(2)[1].field
        result = project_truncated(f, 2)
        assert result.projected.is_zero()
        assert (result.residual - f).is_zero()

    def test_truncated_equals_degreewise_sum(self):
        f = VecField(
            ZERO,
            TriPoly.variable(2) + TriPoly.monomial((1, 1, 0)),
            TriPoly.variable(1),
        )
        total = project_truncated(f, 2)
        per_degree = VecField.zero()
        for n in range(3):
            per_degree = per_degree + project(f, n).projected
        assert (total.projected - per_degree).is_zero()


def _moment_norm_sq(field) -> PiRational:
    """||field||^2 by the moment oracle alone, whatever the harmonic flags say."""
    total = PiRational.zero()
    for p in field.components():
        total = total + moment_pairing(p, p)
    return total


def _assert_norms_match_moments(result) -> None:
    assert result.projected_norm_sq == _moment_norm_sq(result.projected)
    assert result.residual_norm_sq == _moment_norm_sq(result.residual)


def _sparse_field(rng: random.Random, degree: int) -> VecField:
    """One random monomial per degree 0..degree on each of e1 and e2."""
    comps = []
    for _axis in (1, 2):
        terms = {}
        for n in range(degree + 1):
            a = rng.randint(0, n)
            b = rng.randint(0, n - a)
            terms[(a, b, n - a - b)] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 9))
        comps.append(TriPoly(terms))
    return VecField(ZERO, *comps)


_MONOMIAL = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).filter(
    lambda e: sum(e) <= 4
)
_POLY = st.dictionaries(
    _MONOMIAL, st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=6
).map(TriPoly)


class TestProjectionNorms:
    """Norms by bilinearity against the moment oracle on the returned fields."""

    @settings(max_examples=40, deadline=None)
    @given(_POLY, _POLY)
    def test_non_harmonic_fields(self, c1, c2):
        f = VecField(ZERO, c1, c2)
        assume(not f.is_harmonic())
        for n in range(5):
            _assert_norms_match_moments(project(f, n))
        _assert_norms_match_moments(project_truncated(f, 4))

    def test_dense_products(self):
        rng = random.Random(31)
        for _ in range(3):
            q = random_tripoly(rng, 2, terms=6)
            r = random_tripoly(rng, 2, terms=6)
            f = VecField(ZERO, q * q, q * r)
            for n in (2, 4):
                _assert_norms_match_moments(project(f, n))
            _assert_norms_match_moments(project_truncated(f, 4))

    def test_quat_input_with_zero_e3(self):
        rng = random.Random(32)
        c1, c2 = random_tripoly(rng, 3, terms=5), random_tripoly(rng, 3, terms=5)
        quat = QuatField(ZERO, c1, c2, ZERO)
        for split in (project(quat, 3), project_truncated(quat, 3)):
            _assert_norms_match_moments(split)
        assert project(quat, 3) == project(VecField(ZERO, c1, c2), 3)

    def test_zero_field(self):
        for split in (project(VecField.zero(), 2), project_truncated(VecField.zero(), 3)):
            assert split.projected.is_zero() and split.residual.is_zero()
            assert split.projected_norm_sq.is_zero() and split.residual_norm_sq.is_zero()

    def test_no_moment_pairing_of_two_dense_operands(self, monkeypatch):
        # the residual of a sparse non-harmonic field is dense; its norm must
        # come by bilinearity, not from an O(T^2) moment pairing
        rng = random.Random(12)
        f = _sparse_field(rng, 12)
        assert not f.is_harmonic()
        for n in range(13):
            kernel(n)
        sizes = []
        real = exact.moment_pairing

        def recording(p, q):
            sizes.append((len(p.terms), len(q.terms)))
            return real(p, q)

        monkeypatch.setattr(exact, "moment_pairing", recording)
        result = project_truncated(f, 12)
        monkeypatch.undo()
        assert sizes
        assert max(min(pair) for pair in sizes) <= 30, max(sizes, key=min)
        assert max(len(p.terms) for p in result.residual.components()) > 30
        _assert_norms_match_moments(result)

    def test_pf_is_assembled_once_not_per_kernel_pair(self, monkeypatch):
        # the only sums left are the residual f - Pf, one per component; a
        # running Pf + c_k psi_k would add once per kernel pair and component
        rng = random.Random(13)
        f = _sparse_field(rng, 12)
        pairs = sum(len(kernel(n).pairs) for n in range(13))
        assert pairs > 100
        calls = []
        real = TriPoly.__add__

        def counting(self, other):
            calls.append(None)
            return real(self, other)

        monkeypatch.setattr(TriPoly, "__add__", counting)
        result = project_truncated(f, 12)
        monkeypatch.undo()
        assert len(calls) <= 3, len(calls)
        assert result.projected + result.residual == f

    def test_pythagoras_row_catches_a_broken_kernel(self, monkeypatch):
        # doubling one rank-1 weight makes the operator a non-projection:
        # <f, Pf> and ||Pf||^2 then differ, so the bilinear ||r||^2 breaks
        # Pythagoras.  ||r||^2 = ||f||^2 - ||Pf||^2 would have passed.
        real = bergman.kernel

        def doubled(n):
            k = real(n)
            if n != 2:
                return k
            first = dataclasses.replace(k.pairs[0], weight=2 * k.pairs[0].weight)
            return dataclasses.replace(k, pairs=(first,) + k.pairs[1:])

        monkeypatch.setattr(bergman, "kernel", doubled)
        failed = {r.name for r in bergman_suite(2) if not r.passed}
        assert "Pythagoras at degree 2" in failed
        assert "Pythagoras at degree 1" not in failed
        mixed = vec_basis(2)[0].field + contragenic_basis(2)[0].field
        split = project(mixed, 2)
        tautological = norm_sq(mixed) - split.projected_norm_sq
        assert split.residual_norm_sq != tautological

    def test_dropped_pair_keeps_pythagoras_but_fails_reproduction(self, monkeypatch):
        # with one rank-1 pair dropped the operator is still an orthogonal
        # projection (onto a smaller space), so Pythagoras holds genuinely;
        # the reproduction rows are the ones that catch it
        real = bergman.kernel

        def dropped(n):
            k = real(n)
            return dataclasses.replace(k, pairs=k.pairs[1:]) if n == 2 else k

        monkeypatch.setattr(bergman, "kernel", dropped)
        failed = {r.name for r in bergman_suite(2) if not r.passed}
        assert failed == {f"Bergman reproduces Vec {vec_basis(2)[0].kind}(2,{vec_basis(2)[0].m})"}


class TestEvalKernel:
    def test_exact_vs_float_on_rational_points(self):
        x = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        for n in range(5):
            exact = eval_kernel_exact(n, x, x)
            floats = eval_kernel(n, tuple(map(float, x)), tuple(map(float, x)))
            for i in range(2):
                for j in range(2):
                    want = float(exact[i][j]) / math.pi
                    got = floats[i][j]
                    if want:
                        assert abs(got - want) / abs(want) <= 1e-12
                    else:
                        assert abs(got) <= 1e-13

    def test_reproducing_pairing_at_sample_points(self):
        # projecting a basis field through the kernel reproduces its values
        n = 2
        v = vec_basis(n)[3].field
        result = project(v, n)
        for point in ((0.2, 0.3, -0.1), (0.0, 0.5, 0.5)):
            got = result.projected.eval(point)
            want = v.eval(point)
            for a, b in zip(got, want):
                assert float(a) == pytest.approx(float(b), abs=1e-12)


class TestPointBound:
    def test_constant_saturates(self):
        f = VecField(ZERO, TriPoly.const(1), ZERO)
        report = point_eval_bound_check(f)
        assert report.ok
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_vanishes_at_origin(self):
        f = vec(monogenic_X(1, 0).field).as_vec()
        report = point_eval_bound_check(f)
        assert report.ok
        assert report.value_at_origin == 0.0

    def test_random_vec_m_combinations(self):
        rng = random.Random(404)
        for _ in range(20):
            field = VecField.zero()
            for n in range(4):
                for v in vec_basis(n):
                    if rng.random() < 0.35:
                        field = field + v.field.scale(
                            Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                        )
            if field.is_zero():
                continue
            report = point_eval_bound_check(field)
            assert report.ok

    def test_rejects_non_vec_m(self):
        z = contragenic_basis(1)[0].field
        with pytest.raises(ValueError):
            point_eval_bound_check(z)
