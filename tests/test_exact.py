"""Exact-algebra layer: polynomials, the t/s quotient ring, closed-form integrals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contragenic import (
    PiRational,
    TriPoly,
    TSPoly,
    TSNormalizationError,
    ball_integral,
    ball_monomial_integral,
    inner_product,
    moment_pairing,
    scalar_pairing,
    sphere_monomial_integral,
)
from contragenic.exact import linear_combination
from contragenic.fields import QuatField, VecField
from contragenic.quadrature import quad_crosscheck

from util import (
    degree_system,
    fraction_fischer_pairing,
    fraction_moment_pairing,
    random_quatfield,
    random_tripoly,
)

X0 = TriPoly.variable(0)
X1 = TriPoly.variable(1)
X2 = TriPoly.variable(2)
R2 = X0 * X0 + X1 * X1 + X2 * X2


class TestTriPolyRing:
    def test_square_of_variable(self):
        assert X0 * X0 == TriPoly.monomial((2, 0, 0))

    def test_cancellation_to_zero(self):
        assert ((X1 + X2) - (X1 + X2)).is_zero()

    def test_half_difference_expansion(self):
        # (3 x0^2 - r^2) / 2 = x0^2 - x1^2/2 - x2^2/2
        lhs = (X0 * X0).scale(3) - R2
        expected = TriPoly(
            {(2, 0, 0): 1, (0, 2, 0): Fraction(-1, 2), (0, 0, 2): Fraction(-1, 2)}
        )
        assert lhs.scale(Fraction(1, 2)) == expected

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240401)
        for _ in range(25):
            p = random_tripoly(rng, 4)
            q = random_tripoly(rng, 4)
            r = random_tripoly(rng, 4)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p
            assert p + q == q + p
            assert (p - p).is_zero()

    def test_no_zero_terms_stored(self):
        p = TriPoly({(1, 0, 0): 1, (0, 1, 0): 0})
        assert (1, 0, 0) in p.terms and (0, 1, 0) not in p.terms
        assert not (p - p).terms

    def test_canonical_string_graded_lex(self):
        p = TriPoly({(0, 0, 1): 1, (2, 0, 0): 1, (0, 1, 0): Fraction(-1, 2)})
        assert str(p) == "x0^2 - 1/2*x1 + x2"


class TestPartialAndEval:
    def test_partial_examples(self):
        assert (X0 * X0).partial(0) == X0.scale(2)
        assert X0.partial(1).is_zero()
        p = X0 * X1 * X2 * X2
        assert p.partial(2) == (X0 * X1 * X2).scale(2)

    def test_laplacian_of_harmonic(self):
        harmonic = X0 * X0 - X1 * X1
        assert harmonic.laplacian().is_zero()
        assert not (X0 * X0).laplacian().is_zero()

    def test_laplacian_is_sum_of_second_partials(self):
        rng = random.Random(77)
        for _ in range(40):
            p = random_tripoly(rng, 6, terms=8)
            second = [p.partial(axis).partial(axis) for axis in range(3)]
            assert p.laplacian() == second[0] + second[1] + second[2]

    def test_eval_exact(self):
        p = X0 * X0 + X1 * X1
        assert p.eval((Fraction(1), Fraction(0), Fraction(0))) == 1
        q = X0 * X1 * X2
        assert q.eval((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))) == Fraction(1, 30)

    def test_eval_float_is_double(self):
        # U(1, 0) = x0, so the value is just the first coordinate
        assert X0.eval((0.25, 0.5, -0.5)) == pytest.approx(0.25, abs=0.0)

    def test_homogeneous_parts_sum_back(self):
        rng = random.Random(7)
        p = random_tripoly(rng, 5, terms=8)
        parts = p.homogeneous_parts()
        total = TriPoly.zero()
        for degree, part in parts.items():
            assert part.is_homogeneous()
            assert part.degree() == degree
            total = total + part
        assert total == p


class TestBallIntegral:
    def test_ball_volume(self):
        assert ball_monomial_integral(0, 0, 0) == PiRational(Fraction(4, 3))

    def test_odd_symmetry_zero(self):
        assert ball_monomial_integral(1, 1, 0).is_zero()

    def test_quadratic_moment(self):
        # oracle: high-order quadrature agrees with the Gamma-product value
        mono = VecField.from_scalar(TriPoly.monomial((2, 0, 0)))
        one = VecField.from_scalar(TriPoly.const(1))
        report = quad_crosscheck(mono, one)
        exact = ball_monomial_integral(2, 0, 0)
        assert exact == PiRational(Fraction(4, 15))
        assert report.rel_error <= 1e-13

    def test_zero_iff_any_odd(self):
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    value = ball_monomial_integral(a, b, c)
                    if a % 2 or b % 2 or c % 2:
                        assert value.is_zero()
                    else:
                        assert value.q > 0

    def test_quadrature_oracle_all_even_to_degree_16(self):
        one = VecField.from_scalar(TriPoly.const(1))
        for a in range(0, 17, 2):
            for b in range(0, 17 - a, 2):
                for c in range(0, 17 - a - b, 2):
                    exact = float(ball_monomial_integral(a, b, c))
                    mono = VecField.from_scalar(TriPoly.monomial((a, b, c)))
                    report = quad_crosscheck(mono, one)
                    assert abs(report.quad_value - exact) / abs(exact) <= 1e-12, (a, b, c)

    def test_ball_integral_linear(self):
        rng = random.Random(11)
        p = random_tripoly(rng, 6, terms=6)
        q = random_tripoly(rng, 6, terms=6)
        assert (ball_integral(p) + ball_integral(q)) == ball_integral(p + q)
        assert scalar_pairing(p, q) == ball_integral(p * q)


def _basis_components(max_degree: int) -> list[TriPoly]:
    """Distinct nonzero components of the orthogonal systems of degree <= max_degree."""
    seen: dict[TriPoly, None] = {}
    for n in range(max_degree + 1):
        for field in degree_system(n):
            for poly in field.components():
                if not poly.is_zero():
                    seen.setdefault(poly)
    return list(seen)


BASIS_COMPONENTS = _basis_components(6)
SYSTEM = [field for n in range(6) for field in degree_system(n)]


def _moment_inner_product(f, g) -> PiRational:
    total = PiRational.zero()
    for p, q in zip(f.components(), g.components()):
        total = total + moment_pairing(p, q)
    return total


class TestPairingPaths:
    """The Fischer path of ``scalar_pairing`` against the moment oracle."""

    def test_every_pair_of_basis_components(self):
        # same-degree pairs take the Fischer sum; cross-degree pairs must vanish.
        # Both integer paths meet the Fraction-per-term oracles on every pair;
        # the product integral, the costliest oracle, on every self-pairing
        # and a fixed 1/25 of the other pairs.
        comps = BASIS_COMPONENTS
        assert len({p.degree() for p in comps}) == 7
        for i, p in enumerate(comps):
            for j, q in enumerate(comps[i:], start=i):
                value = scalar_pairing(p, q)
                expected = fraction_moment_pairing(p, q)
                assert value == moment_pairing(p, q) == expected, (p, q)
                assert value == fraction_fischer_pairing(p, q), (p, q)
                if i == j or (i + j) % 25 == 0:
                    assert ball_integral(p * q) == expected, (p, q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(SYSTEM) - 1),
                st.fractions(min_value=-9, max_value=9, max_denominator=9),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(
                st.integers(0, len(SYSTEM) - 1),
                st.fractions(min_value=-9, max_value=9, max_denominator=9),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_mixed_degree_combinations(self, f_terms, g_terms):
        f = VecField.zero()
        for index, coeff in f_terms:
            f = f + SYSTEM[index].scale(coeff)
        g = VecField.zero()
        for index, coeff in g_terms:
            g = g + SYSTEM[index].scale(coeff)
        assert f.is_harmonic() and g.is_harmonic()
        assert inner_product(f, g) == _moment_inner_product(f, g)

    def test_random_non_harmonic_mixed_degree(self):
        rng = random.Random(20261018)
        for _ in range(120):
            p = random_tripoly(rng, rng.randint(0, 8), terms=rng.randint(1, 10))
            q = random_tripoly(rng, rng.randint(0, 8), terms=rng.randint(1, 10))
            expected = fraction_moment_pairing(p, q)
            assert ball_integral(p * q) == expected, (p, q)
            assert moment_pairing(p, q) == expected, (p, q)
            assert scalar_pairing(p, q) == expected, (p, q)

    def test_empty_polynomial(self):
        zero = TriPoly()
        for other in (zero, TriPoly.const(3), X0 * X0, BASIS_COMPONENTS[-1]):
            for left, right in ((zero, other), (other, zero)):
                for pairing in (scalar_pairing, moment_pairing):
                    value = pairing(left, right)
                    assert value == PiRational(0)
                    assert type(value.q) is Fraction

    def test_non_harmonic_takes_moment_path(self):
        # x0^2 and 1 share no monomial, so the Fischer sum alone would give 0
        x0_sq = TriPoly.monomial((2, 0, 0))
        one = TriPoly.const(1)
        assert not x0_sq.is_harmonic() and one.is_harmonic()
        assert scalar_pairing(x0_sq, one) == PiRational(Fraction(4, 15))
        assert scalar_pairing(one, x0_sq) == PiRational(Fraction(4, 15))

    def test_harmonic_memo_is_per_object(self):
        harmonic = X0 * X0 - X1 * X1
        non_harmonic = X0 * X0
        assert harmonic.is_harmonic() and not non_harmonic.is_harmonic()
        assert not (harmonic + non_harmonic).is_harmonic()
        assert (harmonic + harmonic.scale(3)).is_harmonic()
        # parts of a known-harmonic polynomial are harmonic; a harmonic part of a
        # non-harmonic polynomial is found so on its own
        mixed = X0 + X0 * X0
        assert not mixed.is_harmonic()
        parts = mixed.homogeneous_parts()
        assert parts[1].is_harmonic() and not parts[2].is_harmonic()
        whole = X1 + harmonic
        assert whole.is_harmonic()
        assert all(part.is_harmonic() for part in whole.homogeneous_parts().values())


def _memo(p: TriPoly):
    """The harmonic memo of p, or None when it has none."""
    return getattr(p, "_harmonic", None)


_MONOMIAL = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_ARBITRARY = st.dictionaries(_MONOMIAL, _COEFF, max_size=5).map(TriPoly)


@st.composite
def _operand(draw) -> TriPoly:
    """A basis component or an arbitrary polynomial, with or without a memo.

    Every draw is a fresh object, so computing a memo here leaves the shared
    basis components untouched.
    """
    if draw(st.booleans()):
        p = TriPoly(BASIS_COMPONENTS[draw(st.integers(0, len(BASIS_COMPONENTS) - 1))].terms)
    else:
        p = draw(_ARBITRARY)
    if draw(st.booleans()):
        p.is_harmonic()
    return p


class TestHarmonicMemoFollowsRingOps:
    """Sums, differences, negations and scalings carry a sound harmonic memo."""

    @settings(max_examples=150, deadline=None)
    @given(
        _operand(),
        st.lists(
            st.tuples(st.sampled_from(["add", "sub", "neg", "scale"]), _operand(), _COEFF),
            min_size=1,
            max_size=6,
        ),
    )
    def test_memo_matches_laplacian(self, start, steps):
        acc = start
        for op, other, factor in steps:
            both_known = bool(_memo(acc) or not acc.terms) and bool(
                _memo(other) or not other.terms
            )
            if op == "add":
                acc = acc + other
            elif op == "sub":
                acc = acc - other
            elif op == "neg":
                before = _memo(acc)
                acc = -acc
                assert _memo(acc) == before
            else:
                before = _memo(acc)
                acc = acc.scale(factor)
                if factor:
                    assert _memo(acc) == before
            if op in ("add", "sub") and both_known:
                assert _memo(acc) is True
            if _memo(acc) is not None:
                assert _memo(acc) == (not acc.laplacian().terms), (op, acc)

    def test_basis_sums_need_no_laplacian(self, monkeypatch):
        parts = [TriPoly(p.terms) for p in BASIS_COMPONENTS[:40]]
        for p in parts:
            p.is_harmonic()
        calls = []
        monkeypatch.setattr(TriPoly, "laplacian", lambda self: calls.append(self))
        total = TriPoly()
        for k, p in enumerate(parts):
            total = total + p.scale(k + 1) - (-p)
        assert total.is_harmonic()
        assert calls == []

    def test_harmonic_plus_non_harmonic_has_no_memo(self):
        harmonic = X0 * X0 - X1 * X1
        assert harmonic.is_harmonic()
        known = X0 * X0
        assert not known.is_harmonic()
        unknown = X0 * X0 * X1
        for other in (known, unknown):
            for result in (harmonic + other, other + harmonic, harmonic - other, other - harmonic):
                assert _memo(result) is None
                assert not result.is_harmonic()
        # two non-harmonic operands can cancel to a harmonic sum: no memo either
        assert _memo(known - known.scale(2)) is None

    def test_empty_polynomial_counts_as_harmonic(self):
        harmonic = X0 * X1
        assert harmonic.is_harmonic()
        for empty in (TriPoly(), TriPoly.zero(), harmonic.scale(0)):
            assert _memo(empty + harmonic) is True
            assert _memo(harmonic - empty) is True
        assert _memo(TriPoly() + TriPoly()) is True


class TestSphereIntegral:
    def test_sphere_area(self):
        assert sphere_monomial_integral(0, 0, 0) == PiRational(4)

    def test_quadratic_moment_symmetry(self):
        # the three axis moments are equal and sum to the area
        moments = [
            sphere_monomial_integral(2, 0, 0),
            sphere_monomial_integral(0, 2, 0),
            sphere_monomial_integral(0, 0, 2),
        ]
        assert moments[0] == moments[1] == moments[2]
        assert moments[0] + moments[1] + moments[2] == PiRational(4)
        assert moments[0] == PiRational(Fraction(4, 3))

    def test_odd_zero(self):
        assert sphere_monomial_integral(1, 0, 2).is_zero()

    def test_radial_homogeneity_identity(self):
        for a in range(0, 17):
            for b in range(0, 17 - a):
                for c in range(0, 17 - a - b):
                    lhs = sphere_monomial_integral(a, b, c).scale(
                        Fraction(1, a + b + c + 3)
                    )
                    assert lhs == ball_monomial_integral(a, b, c), (a, b, c)


T = TSPoly.t_power(1)
S = TSPoly.s()


class TestTSPoly:
    def test_s_squared_rewrites(self):
        assert S * S == TSPoly({0: 1, 2: -1})

    def test_normal_form_never_holds_s2(self):
        rng = random.Random(3)
        for _ in range(20):
            p = TSPoly(
                even={rng.randint(0, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 5))},
                odd={rng.randint(0, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 5))},
            )
            q = p * p * p
            # the representation carries only s-exponents 0 and 1 by type
            assert set(q.even) or set(q.odd) or q.is_zero()
            with pytest.raises(ValueError):
                q.coeff(0, 2)

    def test_diff_t_polynomial(self):
        assert (T * T).diff_t() == T.scale(2)

    def test_scaled_diff_on_legendre_two(self):
        p2 = TSPoly({2: Fraction(3, 2), 0: Fraction(-1, 2)})
        # (1 - t^2) d/dt P2 = 3t - 3t^3
        assert p2.scaled_diff_t() == TSPoly({1: 3, 3: -3})

    def test_diff_t_reports_non_normalizable(self):
        with pytest.raises(TSNormalizationError):
            S.diff_t()

    def test_diff_t_closed_when_odd_part_divisible(self):
        # s*(1 - t^2) differentiates inside the ring
        p = S * (TSPoly({0: 1, 2: -1}))
        got = p.diff_t()
        # d/dt [s (1-t^2)] = s' (1-t^2) + s (-2t) = -t s - 2 t s = -3 t s
        assert got == TSPoly(odd={1: -3})

    def test_ring_ops_match_float_evaluation(self):
        rng = random.Random(5)
        for _ in range(10):
            p = TSPoly(
                even={rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 4))},
                odd={rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 4))},
            )
            q = TSPoly(
                even={rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 4))},
                odd={rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 4))},
            )
            for t in (-0.7, 0.0, 0.3, 0.96):
                assert (p * q).eval(t) == pytest.approx(p.eval(t) * q.eval(t), abs=1e-12)
                assert (p + q).eval(t) == pytest.approx(p.eval(t) + q.eval(t), abs=1e-12)
                assert (p - q).eval(t) == pytest.approx(p.eval(t) - q.eval(t), abs=1e-12)


class TestPiRational:
    def test_arithmetic(self):
        a = PiRational(Fraction(4, 15))
        b = PiRational(Fraction(1, 15))
        assert a + b == PiRational(Fraction(1, 3))
        assert a - b == PiRational(Fraction(1, 5))
        assert a.scale(Fraction(1, 2)) == PiRational(Fraction(2, 15))
        assert a / b == 4
        assert str(a) == "4/15*pi"

    def test_float_value(self):
        import math

        assert float(PiRational(Fraction(4, 3))) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_comparisons(self):
        assert PiRational(Fraction(1, 3)) < PiRational(Fraction(1, 2))
        assert PiRational(0).is_zero()
        assert PiRational(0) == 0


def _chain(terms) -> TriPoly:
    """sum_k c_k p_k by repeated ``+`` and ``scale``."""
    total = TriPoly.zero()
    for coeff, poly in terms:
        total = total + poly.scale(coeff)
    return total


class TestLinearCombination:
    """The one-pass sum against the ``+``/``scale`` chain."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_COEFF, _operand()), max_size=6))
    def test_equals_chain_with_sound_memo(self, terms):
        result = linear_combination(terms)
        assert result == _chain(terms)
        assert all(type(value) is Fraction and value for value in result.terms.values())
        known = all(_memo(poly) or not poly.terms for coeff, poly in terms if coeff)
        assert (_memo(result) is True) == known
        if _memo(result) is not None:
            assert _memo(result) == (not result.laplacian().terms)

    def test_zero_coefficients_empty_inputs_and_cancellation(self):
        harmonic = X0 * X0 - X1 * X1
        non_harmonic = X0 * X0
        assert harmonic.is_harmonic() and not non_harmonic.is_harmonic()
        assert linear_combination([]).terms == {}
        assert linear_combination([(0, non_harmonic), (5, TriPoly())]).terms == {}
        # a zero coefficient drops its input, memo included, as scale(0) does
        scaled = linear_combination([(3, harmonic), (0, non_harmonic), (2, TriPoly())])
        assert scaled == harmonic.scale(3) and _memo(scaled) is True
        cancelled = linear_combination([(1, harmonic), (Fraction(1, 2), harmonic.scale(-2))])
        assert cancelled.terms == {} and _memo(cancelled) is True
        partial = linear_combination(
            [(Fraction(2, 3), harmonic + X2 * X2), (Fraction(-2, 3), X2 * X2)]
        )
        assert partial == harmonic.scale(Fraction(2, 3)) == _chain(
            [(Fraction(2, 3), harmonic + X2 * X2), (Fraction(-2, 3), X2 * X2)]
        )
        assert _memo(partial) is None and partial.is_harmonic()

    def test_field_combinations_equal_chains(self):
        rng = random.Random(7)
        vec_terms = [(Fraction(k - 3, k + 1), SYSTEM[(7 * k) % len(SYSTEM)]) for k in range(8)]
        vec_terms.append((Fraction(1), vec_terms[0][1].scale(Fraction(-2, 5))))
        total = VecField.zero()
        for coeff, field in vec_terms:
            total = total + field.scale(coeff)
        combined = VecField.combination(vec_terms)
        assert combined == total and combined.is_harmonic()
        assert all(_memo(p) is True for p in combined.components())
        quat_terms = [(Fraction(k, 3), random_quatfield(rng, 4)) for k in range(5)]
        quat = QuatField.zero()
        for coeff, field in quat_terms:
            quat = quat + field.scale(coeff)
        assert QuatField.combination(quat_terms) == quat
        assert QuatField.combination([]) == QuatField.zero()
