"""Exact reference arithmetic for verifying benchmark outputs.

Written apart from the package on purpose: polynomials are plain dicts
``{(a, b, c): Fraction}`` and every integral is a rational multiple of pi,
returned as the rational factor.  Two independent routes are provided:

* the moment route, the integral of each monomial pair over the unit ball,
  for arbitrary polynomials (cost grows with the product of term counts);
* the Fischer route for harmonic polynomials: for harmonic homogeneous p, q
  of degree n,  int_B p q dV = 4 pi sum_a a! p_a q_a / ((2n+3) (2n+1)!!),
  and harmonic parts of different degree are orthogonal (cost linear).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def ball_moment(a: int, b: int, c: int) -> Fraction:
    """Integral of x0^a x1^b x2^c over the unit ball, divided by pi."""
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    n = a + b + c
    num = 4 * double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
    return Fraction(num, double_factorial(n + 1) * (n + 3))


def moment_pairing(p: dict, q: dict) -> Fraction:
    total = Fraction(0)
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in q.items():
            if (a1 + a2) % 2 or (b1 + b2) % 2 or (c1 + c2) % 2:
                continue
            total += x * y * ball_moment(a1 + a2, b1 + b2, c1 + c2)
    return total


def laplacian(p: dict) -> dict:
    out: dict = {}
    for (a, b, c), coeff in p.items():
        for exps, power in (((a - 2, b, c), a), ((a, b - 2, c), b), ((a, b, c - 2), c)):
            if power >= 2:
                out[exps] = out.get(exps, 0) + coeff * power * (power - 1)
    return {k: v for k, v in out.items() if v}


def fischer_pairing(p: dict, q: dict) -> Fraction:
    """<p, q> / pi for harmonic polynomials p and q (not checked here).

    Each homogeneous part is harmonic, parts of different degree are
    orthogonal, so only monomials present in both contribute.
    """
    total = Fraction(0)
    for (a, b, c), x in p.items():
        y = q.get((a, b, c))
        if y is not None:
            n = a + b + c
            total += Fraction(4 * factorial(a) * factorial(b) * factorial(c) * x * y,
                              (2 * n + 3) * double_factorial(2 * n + 1))
    return total


def fischer_norm_sq(p: dict) -> Fraction:
    """||p||^2 / pi for a harmonic polynomial p (raises if p is not harmonic)."""
    if laplacian(p):
        raise ValueError("Fischer route needs a harmonic polynomial")
    return fischer_pairing(p, p)


def add(p: dict, q: dict, scale: Fraction = Fraction(1)) -> dict:
    """p + scale * q, with zero terms dropped."""
    out = dict(p)
    for exps, coeff in q.items():
        value = out.get(exps, 0) + scale * coeff
        if value:
            out[exps] = value
        else:
            out.pop(exps, None)
    return out


def parse_pi(text: str) -> Fraction:
    """The rational factor of a rendered "q*pi" value."""
    if not text.endswith("*pi"):
        raise ValueError(f"not a q*pi value: {text!r}")
    return Fraction(text[: -len("*pi")])
