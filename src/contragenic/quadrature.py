"""Floating-point quadrature over the unit ball, the independent cross-check.

The exact integrals elsewhere in the package are closed-form rational
multiples of pi.  This harness re-computes L2(B^3) inner products purely
numerically, in spherical coordinates, with

* Gauss-Legendre nodes in the radius on [0, 1],
* Gauss-Legendre nodes in t = cos(theta) on [-1, 1],
* a uniform (rectangle-rule) grid in the azimuth phi on [0, 2 pi).

For a polynomial integrand of total degree d the rule is exact (up to
rounding) once

    radial nodes   >= ceil((d + 3) / 2)     (r-polynomial of degree d + 2)
    polar nodes    >= ceil((d + 1) / 2) + 1
    azimuthal nodes >= d + 1                (trig polynomial of degree d)

so quadrature-versus-closed-form agreement at the 1e-12 level is a sharp
test of the exact path.  Deliberately undersized rules alias and disagree,
which doubles as a sanity check of the harness itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .fields import inner_product

# numpy is imported inside the functions that use it, so that importing the
# package (and starting the CLI) does not pay for it
if TYPE_CHECKING:
    import numpy as np


@lru_cache(maxsize=None)
def _pi_ld():
    """pi to extended (80-bit on x86) precision; harmless where longdouble == double."""
    import numpy as np

    return np.longdouble("3.14159265358979323846264338327950288")


def required_nodes(degree: int) -> tuple[int, int, int]:
    """(radial, polar, azimuthal) node counts that integrate the degree exactly."""
    radial = max(1, math.ceil((degree + 3) / 2))
    polar = max(1, math.ceil((degree + 1) / 2) + 1)
    azimuthal = max(1, degree + 1)
    return radial, polar, azimuthal


def _legendre_value_and_derivative(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_k and P_k' by the three-term recurrence, in the dtype of x."""
    import numpy as np

    if k == 0:
        return np.ones_like(x), np.zeros_like(x)
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(1, k):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    dp = k * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def gauss_legendre_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] in extended precision.

    Double-precision nodes leave the rule inexact for polynomials at the
    1e-16 level, which cancellation can amplify past 1e-12; Newton refinement
    of the standard nodes against the exact recurrence removes that error on
    platforms with a wider longdouble.
    """
    import numpy as np

    x = np.polynomial.legendre.leggauss(k)[0].astype(np.longdouble)
    for _ in range(3):
        p, dp = _legendre_value_and_derivative(k, x)
        x = x - p / dp
    _, dp = _legendre_value_and_derivative(k, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def ball_quadrature_grid(radial: int, polar: int, azimuthal: int):
    """Cartesian quadrature nodes and weights covering the unit ball."""
    import numpy as np

    r_nodes, r_weights = gauss_legendre_nodes(radial)
    r_nodes = 0.5 * (r_nodes + 1.0)  # map [-1, 1] -> [0, 1]
    r_weights = 0.5 * r_weights
    t_nodes, t_weights = gauss_legendre_nodes(polar)
    phi = 2.0 * _pi_ld() * np.arange(azimuthal, dtype=np.longdouble) / azimuthal
    phi_weight = 2.0 * _pi_ld() / azimuthal

    r = r_nodes[:, None, None]
    t = t_nodes[None, :, None]
    p = phi[None, None, :]
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    x0 = r * t + 0.0 * p
    x1 = r * sin_theta * np.cos(p)
    x2 = r * sin_theta * np.sin(p)
    weights = (
        (r_weights * r_nodes**2)[:, None, None]
        * t_weights[None, :, None]
        * phi_weight
    ) + 0.0 * p
    return x0, x1, x2, weights


def quad_inner_product(f, g, radial: int, polar: int, azimuthal: int) -> float:
    """Numerical L2(B^3) inner product of two polynomial fields."""
    import numpy as np

    x0, x1, x2, weights = ball_quadrature_grid(radial, polar, azimuthal)
    total = np.zeros_like(weights)
    for p, q in zip(f.components(), g.components()):
        if p.is_zero() or q.is_zero():
            continue
        total = total + p.eval_float(x0, x1, x2) * q.eval_float(x0, x1, x2)
    return float(np.sum(total * weights))


@dataclass(frozen=True)
class QuadReport:
    """Comparison of the quadrature and closed-form values of one pairing."""

    quad_value: float
    exact_value: float
    abs_error: float
    rel_error: float
    nodes: tuple[int, int, int]


def quad_crosscheck(f, g, order: int | None = None) -> QuadReport:
    """Cross-check inner_product(f, g) against nested quadrature.

    ``order`` is the polynomial degree the rule is sized for; it defaults to
    deg(f) + deg(g), which makes the rule exact.  Passing a smaller order
    produces a deliberately aliased (inexact) rule.
    """
    if order is None:
        order = max(0, f.degree()) + max(0, g.degree())
    if order < 1:
        order = 1
    nodes = required_nodes(order)
    quad = quad_inner_product(f, g, *nodes)
    exact = float(inner_product(f, g))
    abs_error = abs(quad - exact)
    rel_error = abs_error / abs(exact) if exact else math.inf
    return QuadReport(quad, exact, abs_error, rel_error, nodes)
