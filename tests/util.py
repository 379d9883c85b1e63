"""Shared generators for randomized exact tests (seeded, deterministic)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from contragenic import (
    PiRational,
    QuatField,
    TriPoly,
    VecField,
    ambigenic_basis,
    ball_monomial_integral,
    contragenic_basis,
    inner_product,
    norm_sq,
)
from contragenic.exact import double_factorial


def random_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_tripoly(rng: random.Random, degree: int, terms: int = 4) -> TriPoly:
    data = {}
    for _ in range(terms):
        total = rng.randint(0, degree)
        a = rng.randint(0, total)
        b = rng.randint(0, total - a)
        c = total - a - b
        data[(a, b, c)] = random_fraction(rng)
    return TriPoly(data)


def random_vecfield(rng: random.Random, degree: int, terms: int = 3) -> VecField:
    return VecField(
        random_tripoly(rng, degree, terms),
        random_tripoly(rng, degree, terms),
        random_tripoly(rng, degree, terms),
    )


def random_quatfield(rng: random.Random, degree: int, terms: int = 3) -> QuatField:
    return QuatField(
        random_tripoly(rng, degree, terms),
        random_tripoly(rng, degree, terms),
        random_tripoly(rng, degree, terms),
        random_tripoly(rng, degree, terms),
    )


def degree_system(n: int) -> list:
    """The full orthogonal system of degree-n harmonic fields."""
    if n == 0:
        zero = TriPoly.zero()
        one = TriPoly.const(1)
        return [
            VecField(one, zero, zero),
            VecField(zero, one, zero),
            VecField(zero, zero, one),
        ]
    system = [a.field.as_vec() for a in ambigenic_basis(n)]
    system += [z.field for z in contragenic_basis(n)]
    return system


def random_harmonic_field(rng: random.Random, max_degree: int, density: float = 0.4) -> VecField:
    """Random rational combination of the exact orthogonal bases, degrees <= max_degree."""
    total = VecField.zero()
    picked = 0
    for n in range(max_degree + 1):
        for element in degree_system(n):
            if rng.random() < density:
                total = total + element.scale(random_fraction(rng, 5))
                picked += 1
    if picked == 0:
        total = degree_system(max_degree)[0]
    return total


def exact_gram_schmidt(fields: list[VecField]) -> list[VecField]:
    """Orthogonalize exactly; input must be linearly independent."""
    out: list[VecField] = []
    for f in fields:
        g = f
        for h in out:
            coeff = inner_product(h, f) / norm_sq(h)
            if coeff:
                g = g - h.scale(coeff)
        if g.is_zero():
            raise ValueError("fields are linearly dependent")
        out.append(g)
    return out


def random_invertible_matrix(rng: random.Random, size: int) -> list[list[Fraction]]:
    from contragenic import matrix_rank

    while True:
        matrix = [
            [Fraction(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)
        ]
        if matrix_rank(matrix) == size:
            return matrix


# -- Fraction-per-term pairing oracles ---------------------------------------
#
# The pairing loops as they were before the integer-numerator kernels in
# ``exact``: one Fraction operation per term pair.  Tests compare the integer
# paths against them.

def fraction_moment_pairing(p: TriPoly, q: TriPoly) -> PiRational:
    """Integral of p*q over the unit ball, term pair by term pair."""
    total = Fraction(0)
    for (a1, b1, c1), coeff1 in p.terms.items():
        for (a2, b2, c2), coeff2 in q.terms.items():
            a, b, c = a1 + a2, b1 + b2, c1 + c2
            if a % 2 or b % 2 or c % 2:
                continue
            total += coeff1 * coeff2 * ball_monomial_integral(a, b, c).q
    return PiRational(total)


def _fischer_weight(a: int, b: int, c: int) -> Fraction:
    """w(a, b, c) = 4 a! b! c! / ((2n+3) (2n+1)!!) with n = a+b+c, in units of pi."""
    n = a + b + c
    num = 4 * math.factorial(a) * math.factorial(b) * math.factorial(c)
    return Fraction(num, (2 * n + 3) * double_factorial(2 * n + 1))


def fraction_fischer_pairing(p: TriPoly, q: TriPoly) -> PiRational:
    """The Fischer sum over shared monomials; equals <p, q> for harmonic p, q."""
    if len(q.terms) < len(p.terms):
        p, q = q, p
    other = q.terms
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        match = other.get(exps)
        if match is not None:
            total += _fischer_weight(*exps) * coeff * match
    return PiRational(total)
