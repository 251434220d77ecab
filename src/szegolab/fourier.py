"""Fourier decomposition along circle orbits.

The weight-m component of a function is extracted by orbit quadrature: the
trapezoid rule on the circle integrates e^{i p theta} exactly for |p| < M,
so with enough nodes the projector is exact on trigonometric polynomials.
"""

from __future__ import annotations

import numpy as np

from .geometry import Manifold


def default_quadrature(max_level: int) -> int:
    """Node count of the orbit rule, exact for every trigonometric degree the suite touches."""
    return 2 * max_level + 8


def circle_average(M: Manifold, u, x: np.ndarray, m, nodes: int):
    """Orbit Fourier coefficient (1/M) sum_s u(e^{i theta_s}.x) e^{-i m theta_s}
    by the trapezoid rule on M = nodes equispaced angles theta_s = 2 pi s / M.

    u maps an (M, n) coordinate array to an (M,) array.  For u of pure orbit
    degree p this returns u(x) when p = m and 0 otherwise, exactly, provided
    the node count exceeds |p| + |m|.  m is one level, giving a complex, or a
    sequence of levels, giving an array of their coefficients from one
    evaluation of u on the orbit and one (levels, nodes) phase product.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = np.asarray(u(M.act(thetas, x)))
    levels = np.asarray(m)
    coeffs = np.mean(vals * np.exp(-1j * np.multiply.outer(levels, thetas)), axis=-1)
    return complex(coeffs) if levels.ndim == 0 else coeffs

