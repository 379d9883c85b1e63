"""Exact arithmetic kernel: sparse rational polynomials and symbolic pi.

Everything downstream (basis construction, Gram matrices, projections) runs
over arbitrary-precision rationals, so orthogonality and norm statements are
decided exactly rather than up to rounding.  Three carriers live here:

* ``TriPoly``   -- a polynomial in the cartesian variables x0, x1, x2, stored
  as a map from exponent triples (a, b, c) to ``Fraction`` coefficients.
  Zero coefficients are never stored; the canonical string form orders terms
  graded-lexicographically so serialization is bit-exact.
* ``TSPoly``    -- an element of Q[t, s] / (s^2 - (1 - t^2)), kept as the
  pair (even part in t, s * odd part in t).  This is the natural home of
  Legendre data: t stands for cos(theta) and s for sin(theta) >= 0.
* ``PiRational`` -- an exact value q * pi with q rational.  Every integral of
  a polynomial over the unit ball or unit sphere has this form.

Closed-form monomial integrals over the unit ball B^3 and the unit sphere
S^2 complete the module; they are the primitive that makes every L2 inner
product in the package an exact computation.

``scalar_pairing`` is the one entry point for the L2(B^3) pairing of two
scalar polynomials and serves it by one of two paths:

* the Fischer path, taken when both polynomials are harmonic.  For harmonic
  homogeneous p, q of degree n the Fischer inner product identity
  (Axler, Bourdon, Ramey, *Harmonic Function Theory*, ch. 5) gives the
  sphere integral as 4 pi sum_alpha alpha! p_alpha q_alpha / (2n+1)!!, and
  the radial integral contributes 1/(2n+3).  Every homogeneous part of a
  harmonic polynomial is harmonic (the Laplacian lowers the degree by
  exactly 2) and harmonic parts of different degrees are L2(B^3)-orthogonal,
  so for any harmonic p, q the pairing is a sum over their shared monomials:

      <p, q> = pi * sum_{alpha in supp p & supp q} w(alpha) p_alpha q_alpha,
      w(a, b, c) = 4 a! b! c! / ((2|alpha|+3) (2|alpha|+1)!!),

  which costs O(min(|p|, |q|)) lookups;
* the moment path ``moment_pairing`` for everything else: a double loop over
  term pairs against the closed-form ball moments (Folland, "How to
  integrate a polynomial over a sphere", Amer. Math. Monthly 108, 2001)

      int_B x0^a x1^b x2^c = 4 pi (a-1)!! (b-1)!! (c-1)!! / ((s+1)!! (s+3)),

  s = a+b+c, zero unless a, b, c are all even.  Terms are grouped by the
  parity of their exponents, so term pairs whose product has an odd
  exponent are never visited.  It is exact for every input.

Both closed forms share one denominator per total degree s of the product
monomial: (2n+3)(2n+1)!! = (s+3)!! with s = 2n, and (s+1)!!(s+3) = (s+3)!!
for even s.  So each path brings both operands to integer numerators over
their common denominators d_p, d_q, sums the integer weights a!b!c! or
(a-1)!!(b-1)!!(c-1)!! times P_alpha Q_beta per degree, and builds a single
``Fraction`` at the end: (s+3)!! divides (t+3)!! for even s <= t, so the
degree sums share the largest denominator, and the result is
4 sum_s S_s ((t+3)!!/(s+3)!!) / ((t+3)!! d_p d_q).  ``linear_combination``
sums c_k p_k the same way, one ``Fraction`` per result term.

Harmonicity is memoized per ``TriPoly`` and follows the ring operations: a
sum or difference of polynomials known to be harmonic (or empty) is flagged
harmonic, and negation and scaling copy the memo of their operand.  Fields
assembled from the cached harmonic bases (projections, decompositions)
therefore reach the Fischer path without computing a Laplacian.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, int, int]

#: names used by the canonical string form, index i <-> variable x_i
VAR_NAMES = ("x0", "x1", "x2")


def _as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def grlex_key(exps: Monomial) -> tuple[int, Monomial]:
    """Graded-lex sort key: total degree first, then the exponent triple."""
    return (sum(exps), exps)


def _known_harmonic(p: TriPoly) -> bool:
    """True when p is known harmonic without a Laplacian: memo or no terms.

    A sum of harmonic polynomials is harmonic, so ``+`` and ``-`` flag their
    result when both operands pass this test; a sum involving anything else
    gets no flag and pays a Laplacian if asked.
    """
    return not p.terms or getattr(p, "_harmonic", False)


def _copy_harmonic(source: TriPoly, result: TriPoly) -> None:
    """Negation and nonzero scaling keep harmonicity either way: copy the memo."""
    memo = getattr(source, "_harmonic", None)
    if memo is not None:
        result._harmonic = memo


class TriPoly:
    """Sparse exact polynomial in x0, x1, x2 over the rationals.

    Instances are immutable values: all arithmetic returns new objects and
    results are normalized (no stored zero coefficients), so ``==`` is exact
    structural equality of polynomials.
    """

    __slots__ = ("terms", "_harmonic")

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                a, b, c = exps
                if a < 0 or b < 0 or c < 0:
                    raise ValueError(f"negative exponent in monomial {exps}")
                frac = _as_fraction(coeff)
                if frac:
                    clean[(a, b, c)] = frac
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> TriPoly:
        return TriPoly()

    @staticmethod
    def const(value: int | Fraction) -> TriPoly:
        return TriPoly({(0, 0, 0): value})

    @staticmethod
    def variable(axis: int) -> TriPoly:
        exps = [0, 0, 0]
        exps[axis] = 1
        return TriPoly({tuple(exps): 1})

    @staticmethod
    def monomial(exps: Monomial, coeff: int | Fraction = 1) -> TriPoly:
        return TriPoly({exps: coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TriPoly) -> TriPoly:
        if not isinstance(other, TriPoly):
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, Fraction(0)) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        result = TriPoly.__new__(TriPoly)
        result.terms = out
        if _known_harmonic(self) and _known_harmonic(other):
            result._harmonic = True
        return result

    def __neg__(self) -> TriPoly:
        result = TriPoly.__new__(TriPoly)
        result.terms = {exps: -coeff for exps, coeff in self.terms.items()}
        _copy_harmonic(self, result)
        return result

    def __sub__(self, other: TriPoly) -> TriPoly:
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: TriPoly) -> TriPoly:
        if not isinstance(other, TriPoly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for (a1, b1, c1), coeff1 in self.terms.items():
            for (a2, b2, c2), coeff2 in other.terms.items():
                exps = (a1 + a2, b1 + b2, c1 + c2)
                acc = out.get(exps, Fraction(0)) + coeff1 * coeff2
                if acc:
                    out[exps] = acc
                else:
                    out.pop(exps, None)
        result = TriPoly.__new__(TriPoly)
        result.terms = out
        return result

    def scale(self, factor: int | Fraction) -> TriPoly:
        frac = _as_fraction(factor)
        if not frac:
            return TriPoly.zero()
        result = TriPoly.__new__(TriPoly)
        result.terms = {exps: coeff * frac for exps, coeff in self.terms.items()}
        _copy_harmonic(self, result)
        return result

    def __pow__(self, exponent: int) -> TriPoly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        acc = TriPoly.const(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- calculus ----------------------------------------------------------

    def partial(self, axis: int) -> TriPoly:
        """Exact partial derivative with respect to x_axis (axis in 0..2)."""
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        out: dict[Monomial, Fraction] = {}
        for exps, coeff in self.terms.items():
            power = exps[axis]
            if power == 0:
                continue
            dropped = list(exps)
            dropped[axis] = power - 1
            out[tuple(dropped)] = coeff * power
        result = TriPoly.__new__(TriPoly)
        result.terms = out
        return result

    def laplacian(self) -> TriPoly:
        # integer numerators over one common denominator: the sums are exact
        # and, for the common harmonic case, no Fraction is ever built.  The
        # lcm takes a list: on CPython 3.11 math.lcm(*genexpr) grows the
        # process's resident memory when called repeatedly.
        common = math.lcm(*[coeff.denominator for coeff in self.terms.values()])
        out: dict[Monomial, int] = {}
        for (a, b, c), coeff in self.terms.items():
            numerator = coeff.numerator * (common // coeff.denominator)
            if a > 1:
                exps = (a - 2, b, c)
                out[exps] = out.get(exps, 0) + numerator * a * (a - 1)
            if b > 1:
                exps = (a, b - 2, c)
                out[exps] = out.get(exps, 0) + numerator * b * (b - 1)
            if c > 1:
                exps = (a, b, c - 2)
                out[exps] = out.get(exps, 0) + numerator * c * (c - 1)
        result = TriPoly.__new__(TriPoly)
        result.terms = {exps: Fraction(num, common) for exps, num in out.items() if num}
        return result

    def is_harmonic(self) -> bool:
        """True when the Laplacian vanishes; computed once per object.

        The memo is sound because no operation mutates ``terms`` after
        construction.  A result of ``+``, ``-``, unary ``-`` or ``scale``
        starts with the memo its operands determine (see
        ``_known_harmonic``); every other result starts with an empty memo.
        """
        try:
            return self._harmonic
        except AttributeError:
            self._harmonic = not self.laplacian().terms
            return self._harmonic

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b + c for (a, b, c) in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {a + b + c for (a, b, c) in self.terms}
        return len(degrees) <= 1

    def homogeneous_parts(self) -> dict[int, TriPoly]:
        """Split into homogeneous components keyed by total degree."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for exps, coeff in self.terms.items():
            buckets.setdefault(sum(exps), {})[exps] = coeff
        # the Laplacian lowers degree by exactly 2, so the parts of a
        # polynomial known to be harmonic are harmonic
        harmonic = getattr(self, "_harmonic", False)
        out = {}
        for degree, terms in buckets.items():
            part = TriPoly.__new__(TriPoly)
            part.terms = terms
            if harmonic:
                part._harmonic = True
            out[degree] = part
        return out

    def coefficient(self, exps: Monomial) -> Fraction:
        return self.terms.get(exps, Fraction(0))

    def substitute_swap12(self) -> TriPoly:
        """Swap the variables x1 and x2 (the reflection used by the star map)."""
        result = TriPoly.__new__(TriPoly)
        result.terms = {(a, c, b): coeff for (a, b, c), coeff in self.terms.items()}
        return result

    def eval(self, point: tuple) -> Fraction | float:
        """Evaluate at a point; exact for rational inputs, IEEE double for floats."""
        x0, x1, x2 = point
        total: Fraction | float = Fraction(0)
        for (a, b, c), coeff in self.terms.items():
            total = total + coeff * x0**a * x1**b * x2**c
        return total

    def eval_float(self, x0, x1, x2):
        """Evaluate with float coefficients; accepts scalars or numpy arrays."""
        total = 0.0 * (x0 + x1 + x2)
        for (a, b, c), coeff in self.terms.items():
            total = total + float(coeff) * x0**a * x1**b * x2**c
        return total

    # -- canonical form ----------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (the canonical print order)."""
        for exps in sorted(self.terms, key=grlex_key, reverse=True):
            yield exps, self.terms[exps]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(VAR_NAMES, exps)
                if power
            ]
            magnitude = abs(coeff)
            if factors:
                body = "*".join(factors)
                if magnitude != 1:
                    body = f"{magnitude}*{body}"
            else:
                body = str(magnitude)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"TriPoly({self})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TriPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class TSNormalizationError(ValueError):
    """Raised when d/dt of a TSPoly leaves the quotient ring."""


class TSPoly:
    """Element of Q[t, s] with the relation s^2 = 1 - t^2.

    Stored as the pair (even, odd) of univariate t-polynomials meaning
    ``even(t) + s * odd(t)``; after normalization the s-exponent is 0 or 1,
    so equality is a decidable coefficient-wise check.
    """

    __slots__ = ("even", "odd")

    def __init__(
        self,
        even: Mapping[int, int | Fraction] | None = None,
        odd: Mapping[int, int | Fraction] | None = None,
    ):
        self.even = self._clean(even)
        self.odd = self._clean(odd)

    @staticmethod
    def _clean(data: Mapping[int, int | Fraction] | None) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        if data:
            for power, coeff in data.items():
                if power < 0:
                    raise ValueError("negative t-power")
                frac = _as_fraction(coeff)
                if frac:
                    out[power] = frac
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> TSPoly:
        return TSPoly()

    @staticmethod
    def one() -> TSPoly:
        return TSPoly({0: 1})

    @staticmethod
    def t_power(power: int, coeff: int | Fraction = 1) -> TSPoly:
        return TSPoly({power: coeff})

    @staticmethod
    def s() -> TSPoly:
        return TSPoly(odd={0: 1})

    # -- helpers on plain t-polynomials (dict power -> Fraction) ------------

    @staticmethod
    def _t_add(p: dict[int, Fraction], q: dict[int, Fraction]) -> dict[int, Fraction]:
        out = dict(p)
        for power, coeff in q.items():
            acc = out.get(power, Fraction(0)) + coeff
            if acc:
                out[power] = acc
            else:
                out.pop(power, None)
        return out

    @staticmethod
    def _t_mul(p: dict[int, Fraction], q: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for pa, ca in p.items():
            for pb, cb in q.items():
                acc = out.get(pa + pb, Fraction(0)) + ca * cb
                if acc:
                    out[pa + pb] = acc
                else:
                    out.pop(pa + pb, None)
        return out

    @staticmethod
    def _t_scale(p: dict[int, Fraction], factor: Fraction) -> dict[int, Fraction]:
        if not factor:
            return {}
        return {power: coeff * factor for power, coeff in p.items()}

    @staticmethod
    def _t_diff(p: dict[int, Fraction]) -> dict[int, Fraction]:
        return {power - 1: coeff * power for power, coeff in p.items() if power}

    # one_minus_t2 = 1 - t^2, the modulus of the quotient ring
    _MODULUS = {0: Fraction(1), 2: Fraction(-1)}

    @staticmethod
    def _t_divmod_modulus(p: dict[int, Fraction]) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """Divide a t-polynomial by (1 - t^2); returns (quotient, remainder)."""
        rem = dict(p)
        quo: dict[int, Fraction] = {}
        while rem:
            top = max(rem)
            if top < 2:
                break
            coeff = rem[top]
            # leading term of 1 - t^2 is -t^2
            factor = -coeff
            quo[top - 2] = quo.get(top - 2, Fraction(0)) + factor
            for power, mcoeff in TSPoly._MODULUS.items():
                acc = rem.get(top - 2 + power, Fraction(0)) - factor * mcoeff
                if acc:
                    rem[top - 2 + power] = acc
                else:
                    rem.pop(top - 2 + power, None)
        return {k: v for k, v in quo.items() if v}, rem

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: TSPoly) -> TSPoly:
        if not isinstance(other, TSPoly):
            return NotImplemented
        out = TSPoly.__new__(TSPoly)
        out.even = self._t_add(self.even, other.even)
        out.odd = self._t_add(self.odd, other.odd)
        return out

    def __neg__(self) -> TSPoly:
        out = TSPoly.__new__(TSPoly)
        out.even = {k: -v for k, v in self.even.items()}
        out.odd = {k: -v for k, v in self.odd.items()}
        return out

    def __sub__(self, other: TSPoly) -> TSPoly:
        if not isinstance(other, TSPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: TSPoly) -> TSPoly:
        if not isinstance(other, TSPoly):
            return NotImplemented
        # (a1 + s b1)(a2 + s b2) = a1 a2 + (1 - t^2) b1 b2 + s (a1 b2 + a2 b1)
        even = self._t_add(
            self._t_mul(self.even, other.even),
            self._t_mul(self._t_mul(self.odd, other.odd), self._MODULUS),
        )
        odd = self._t_add(
            self._t_mul(self.even, other.odd), self._t_mul(self.odd, other.even)
        )
        out = TSPoly.__new__(TSPoly)
        out.even = even
        out.odd = odd
        return out

    def scale(self, factor: int | Fraction) -> TSPoly:
        frac = _as_fraction(factor)
        out = TSPoly.__new__(TSPoly)
        out.even = self._t_scale(self.even, frac)
        out.odd = self._t_scale(self.odd, frac)
        return out

    def diff_t(self) -> TSPoly:
        """Exact d/dt, using ds/dt = -t/s.

        For p = a(t) + s*b(t) the derivative is a' + s*b' - t*b/s, which stays
        in the quotient ring only when (1 - t^2) divides b.  Inputs built from
        associated Legendre functions of even order always qualify; otherwise
        a TSNormalizationError reports the non-normalizable input.
        """
        even = self._t_diff(self.even)
        if not self.odd:
            return TSPoly(even=even)
        quotient, remainder = self._t_divmod_modulus(self.odd)
        if remainder:
            raise TSNormalizationError(
                "d/dt leaves Q[t,s]/(s^2-(1-t^2)): odd part not divisible by 1-t^2"
            )
        # -t*b/s = -s*t*(b/(1-t^2))
        correction = self._t_mul({1: Fraction(-1)}, quotient)
        odd = self._t_add(self._t_diff(self.odd), correction)
        out = TSPoly.__new__(TSPoly)
        out.even = even
        out.odd = odd
        return out

    def scaled_diff_t(self) -> TSPoly:
        """(1 - t^2) * d/dt, which is defined for every ring element."""
        # (1-t^2)(a' + s b' - t b / s) = (1-t^2) a' + s ((1-t^2) b' - t b)
        even = self._t_mul(self._MODULUS, self._t_diff(self.even))
        odd = self._t_add(
            self._t_mul(self._MODULUS, self._t_diff(self.odd)),
            self._t_mul({1: Fraction(-1)}, self.odd),
        )
        out = TSPoly.__new__(TSPoly)
        out.even = even
        out.odd = odd
        return out

    def times_s(self) -> TSPoly:
        """Multiply by s (uses s^2 = 1 - t^2 on the odd part)."""
        out = TSPoly.__new__(TSPoly)
        out.even = self._t_mul(self._MODULUS, self.odd)
        out.odd = dict(self.even)
        return out

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.even and not self.odd

    def coeff(self, t_power: int, s_power: int) -> Fraction:
        if s_power == 0:
            return self.even.get(t_power, Fraction(0))
        if s_power == 1:
            return self.odd.get(t_power, Fraction(0))
        raise ValueError("normalized s-power is 0 or 1")

    def eval(self, t: float) -> float:
        s = math.sqrt(max(0.0, 1.0 - t * t))
        even = sum(float(c) * t**p for p, c in self.even.items())
        odd = sum(float(c) * t**p for p, c in self.odd.items())
        return even + s * odd

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TSPoly)
            and self.even == other.even
            and self.odd == other.odd
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.even.items()), frozenset(self.odd.items())))

    @staticmethod
    def _t_str(p: dict[int, Fraction]) -> str:
        pieces = []
        for power in sorted(p, reverse=True):
            coeff = p[power]
            body = "t" if power == 1 else f"t^{power}" if power else ""
            mag = abs(coeff)
            term = body if (mag == 1 and body) else (f"{mag}*{body}" if body else str(mag))
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, term))
        if not pieces:
            return "0"
        first_sign, first_term = pieces[0]
        text = (f"-{first_term}" if first_sign == "-" else first_term)
        for sign, term in pieces[1:]:
            text += f" {sign} {term}"
        return text

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.even:
            parts.append(self._t_str(self.even))
        if self.odd:
            parts.append(f"s*({self._t_str(self.odd)})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TSPoly({self})"


class PiRational:
    """An exact value q * pi, the result type of all ball and sphere integrals."""

    __slots__ = ("q",)

    def __init__(self, q: int | Fraction):
        self.q = _as_fraction(q)

    @staticmethod
    def zero() -> PiRational:
        return PiRational(0)

    def __add__(self, other: PiRational) -> PiRational:
        if not isinstance(other, PiRational):
            return NotImplemented
        return PiRational(self.q + other.q)

    def __sub__(self, other: PiRational) -> PiRational:
        if not isinstance(other, PiRational):
            return NotImplemented
        return PiRational(self.q - other.q)

    def __neg__(self) -> PiRational:
        return PiRational(-self.q)

    def scale(self, factor: int | Fraction) -> PiRational:
        return PiRational(self.q * _as_fraction(factor))

    def __mul__(self, factor: int | Fraction) -> PiRational:
        return self.scale(factor)

    __rmul__ = __mul__

    def __truediv__(self, other: PiRational | int | Fraction):
        """Ratio of two pi-multiples is an exact rational."""
        if isinstance(other, PiRational):
            return self.q / other.q
        return PiRational(self.q / _as_fraction(other))

    def is_zero(self) -> bool:
        return self.q == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiRational):
            return self.q == other.q
        if other == 0:
            return self.q == 0
        return NotImplemented

    def __lt__(self, other: PiRational) -> bool:
        return self.q < other.q

    def __le__(self, other: PiRational) -> bool:
        return self.q <= other.q

    def __hash__(self) -> int:
        return hash(("PiRational", self.q))

    def __float__(self) -> float:
        return float(self.q) * math.pi

    def __str__(self) -> str:
        return f"{self.q}*pi"

    def __repr__(self) -> str:
        return f"PiRational({self.q})"


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double factorial of n < -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def sphere_monomial_integral(a: int, b: int, c: int) -> PiRational:
    """Exact integral of x0^a x1^b x2^c over the unit sphere S^2.

    Zero if any exponent is odd; for even exponents the value is
    4*pi * (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!.
    """
    if min(a, b, c) < 0:
        raise ValueError("negative exponent")
    if a % 2 or b % 2 or c % 2:
        return PiRational.zero()
    num = 4 * double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
    return PiRational(Fraction(num, double_factorial(a + b + c + 1)))


def _gamma_half_over_sqrt_pi(j: int) -> Fraction:
    """Gamma(j/2) / sqrt(pi) for odd positive j, as an exact rational."""
    if j <= 0 or j % 2 == 0:
        raise ValueError("defined for odd positive arguments only")
    return Fraction(double_factorial(j - 2), 2 ** ((j - 1) // 2))


@lru_cache(maxsize=None)
def ball_monomial_integral(a: int, b: int, c: int) -> PiRational:
    """Exact integral of x0^a x1^b x2^c over the unit ball B^3.

    Zero when any exponent is odd.  Otherwise the spherical factor is the
    half-integer Gamma product 2*G((a+1)/2)G((b+1)/2)G((c+1)/2)/G((a+b+c+3)/2)
    and the radial factor is 1/(a+b+c+3); the Gamma quotient collapses to a
    rational multiple of pi.
    """
    if min(a, b, c) < 0:
        raise ValueError("negative exponent")
    if a % 2 or b % 2 or c % 2:
        return PiRational.zero()
    total = a + b + c
    spherical = (
        2
        * _gamma_half_over_sqrt_pi(a + 1)
        * _gamma_half_over_sqrt_pi(b + 1)
        * _gamma_half_over_sqrt_pi(c + 1)
        / _gamma_half_over_sqrt_pi(total + 3)
    )
    return PiRational(spherical / (total + 3))


def ball_integral(p: TriPoly) -> PiRational:
    """Exact integral of a polynomial over the unit ball."""
    total = Fraction(0)
    for (a, b, c), coeff in p.terms.items():
        if a % 2 or b % 2 or c % 2:
            continue
        total += coeff * ball_monomial_integral(a, b, c).q
    return PiRational(total)


def sphere_integral(p: TriPoly) -> PiRational:
    """Exact integral of a polynomial over the unit sphere."""
    total = Fraction(0)
    for (a, b, c), coeff in p.terms.items():
        if a % 2 or b % 2 or c % 2:
            continue
        total += coeff * sphere_monomial_integral(a, b, c).q
    return PiRational(total)


class _Memo(dict):
    """Integer weight per key, computed from the key on first lookup."""

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(*key)
        return value


#: a! b! c!, the Fischer weight of x0^a x1^b x2^c without its denominator
_FACTORIAL_WEIGHTS = _Memo(
    lambda a, b, c: math.factorial(a) * math.factorial(b) * math.factorial(c)
)

#: (a-1)!! (b-1)!! (c-1)!!, the ball moment of x0^a x1^b x2^c without its
#: denominator; meaningful for even a, b, c only, which the callers ensure
_MOMENT_WEIGHTS = _Memo(
    lambda a, b, c: double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
)


@lru_cache(maxsize=None)
def _degree_denominator(s: int) -> int:
    """(s+3)!!, the denominator both closed forms share at product degree s."""
    return double_factorial(s + 3)


def _integer_numerators(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """The coefficients as integer numerators over their common denominator d."""
    # a list, not a generator: see TriPoly.laplacian
    common = math.lcm(*[coeff.denominator for coeff in coeffs])
    return [coeff.numerator * (common // coeff.denominator) for coeff in coeffs], common


def _ball_sum(sums: dict[int, int], denominator: int) -> Fraction:
    """sum_s 4 S_s / ((s+3)!! denominator) over the per-degree integer sums S_s.

    Every s is even and (s+3)!! divides (t+3)!! for s <= t, so the sums are
    brought to the largest degree's denominator and one Fraction is built.
    """
    if not sums:
        return Fraction(0)
    top = _degree_denominator(max(sums))
    total = sum(value * (top // _degree_denominator(s)) for s, value in sums.items())
    return Fraction(4 * total, top * denominator)


def scalar_pairing(p: TriPoly, q: TriPoly) -> PiRational:
    """Exact L2(B^3) pairing of two scalar polynomials, integral of p*q.

    The hot path of every Gram computation.  Harmonic pairs take the Fischer
    path (a weighted sum over shared monomials); any other pair goes to
    ``moment_pairing``.  Both are exact and agree wherever both apply.
    """
    if not (p.is_harmonic() and q.is_harmonic()):
        return moment_pairing(p, q)
    if len(q.terms) < len(p.terms):
        p, q = q, p
    other = q.terms
    shared = [exps for exps in p.terms if exps in other]
    p_nums, p_den = _integer_numerators([p.terms[exps] for exps in shared])
    q_nums, q_den = _integer_numerators([other[exps] for exps in shared])
    sums: dict[int, int] = {}
    for exps, p_num, q_num in zip(shared, p_nums, q_nums):
        s = 2 * (exps[0] + exps[1] + exps[2])
        sums[s] = sums.get(s, 0) + _FACTORIAL_WEIGHTS[exps] * p_num * q_num
    return PiRational(_ball_sum(sums, p_den * q_den))


def moment_pairing(p: TriPoly, q: TriPoly) -> PiRational:
    """Exact L2(B^3) pairing of two arbitrary polynomials by ball moments.

    Works term-by-term without forming the product polynomial.  The longer
    operand is grouped by exponent parity and degree, and each term of the
    shorter one meets only the group of its own parity: the product of two
    terms has all exponents even exactly when their parities agree.
    """
    if len(q.terms) < len(p.terms):
        p, q = q, p
    parities = [(a & 1) | (b & 1) << 1 | (c & 1) << 2 for a, b, c in p.terms]
    wanted = set(parities)
    kept = []
    for (a, b, c), coeff in q.terms.items():
        parity = (a & 1) | (b & 1) << 1 | (c & 1) << 2
        if parity in wanted:
            kept.append((parity, a, b, c, coeff))
    q_nums, q_den = _integer_numerators([coeff for *_, coeff in kept])
    groups: dict[int, dict[int, list[tuple[int, int, int, int]]]] = {}
    for (parity, a, b, c, _), q_num in zip(kept, q_nums):
        groups.setdefault(parity, {}).setdefault(a + b + c, []).append((a, b, c, q_num))
    p_nums, p_den = _integer_numerators(list(p.terms.values()))
    weights = _MOMENT_WEIGHTS
    sums: dict[int, int] = {}
    for (a1, b1, c1), parity, p_num in zip(p.terms, parities, p_nums):
        for degree, terms in groups.get(parity, {}).items():
            acc = 0
            for a2, b2, c2, q_num in terms:
                acc += q_num * weights[a1 + a2, b1 + b2, c1 + c2]
            s = a1 + b1 + c1 + degree
            sums[s] = sums.get(s, 0) + p_num * acc
    return PiRational(_ball_sum(sums, p_den * q_den))


def linear_combination(terms: Iterable[tuple[int | Fraction, TriPoly]]) -> TriPoly:
    """The polynomial sum_k c_k p_k, built in one pass.

    Equal to the chain ``zero + p_1.scale(c_1) + ...`` without copying the
    partial sums: every c_k p_alpha is brought to one common denominator, the
    integer numerators are summed per monomial and one ``Fraction`` is built
    per nonzero result term.  The harmonic memo follows the rule of ``+``:
    the result is flagged when every input with a nonzero coefficient is
    known harmonic or empty.
    """
    scaled = []
    for coeff, poly in terms:
        coeff = _as_fraction(coeff)
        if coeff:
            nums, den = _integer_numerators(list(poly.terms.values()))
            scaled.append((poly, coeff.numerator, coeff.denominator * den, nums))
    common = math.lcm(*[den for _, _, den, _ in scaled])
    sums: dict[Monomial, int] = {}
    for poly, coeff_num, den, nums in scaled:
        factor = coeff_num * (common // den)
        for exps, num in zip(poly.terms, nums):
            sums[exps] = sums.get(exps, 0) + factor * num
    result = TriPoly.__new__(TriPoly)
    result.terms = {exps: Fraction(num, common) for exps, num in sums.items() if num}
    if all(_known_harmonic(poly) for poly, _, _, _ in scaled):
        result._harmonic = True
    return result


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" text form (plain "p" when the denominator is 1)."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())
