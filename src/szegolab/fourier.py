"""Fourier decomposition along circle orbits.

The weight-m component of a function is extracted by orbit quadrature: the
trapezoid rule on the circle integrates e^{i p theta} exactly for |p| < M,
so with enough nodes the projector is exact on trigonometric polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FourierBasis, eval_basis, eval_basis_jacobian
from .geometry import Manifold


@dataclass(frozen=True)
class OrbitQuadrature:
    """Equispaced circle nodes theta_s = 2 pi s / M."""

    node_count: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")

    @property
    def nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.node_count) / self.node_count

    @property
    def exactness_degree(self) -> int:
        return self.node_count - 1


def default_quadrature(max_level: int) -> OrbitQuadrature:
    # exact for every trigonometric degree the suite touches
    return OrbitQuadrature(2 * max_level + 8)


def circle_average(M: Manifold, u, x: np.ndarray, m, Q: OrbitQuadrature):
    """Orbit Fourier coefficient (1/M) sum_s u(e^{i theta_s}.x) e^{-i m theta_s}.

    u maps an (M, n) coordinate array to an (M,) array.  For u of pure orbit
    degree p this returns u(x) when p = m and 0 otherwise, exactly, provided
    the node count exceeds |p| + |m|.  m is one level, giving a complex, or a
    sequence of levels, giving an array of their coefficients from one
    evaluation of u on the orbit and one (levels, nodes) phase product.
    """
    thetas = Q.nodes
    vals = np.asarray(u(M.act(thetas, x)))
    levels = np.asarray(m)
    coeffs = np.mean(vals * np.exp(-1j * np.multiply.outer(levels, thetas)), axis=-1)
    return complex(coeffs) if levels.ndim == 0 else coeffs


def check_T_eigen(B: FourierBasis, M: Manifold, x: np.ndarray) -> np.ndarray:
    """Residuals |T f_j - i m f_j| at x via the holomorphic chain rule."""
    J = eval_basis_jacobian(B, x)
    f = eval_basis(B, x)
    T = M.reeb_vector(x)
    return np.abs(J @ T - 1j * B.level * f)
