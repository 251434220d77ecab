from fractions import Fraction

import numpy as np
import pytest

from szegolab.geometry import DefiningPolynomial, Manifold


@pytest.fixture(scope="session")
def sphere2():
    """Standard unit sphere in C^2 (weights (1, 1))."""
    return Manifold.sphere(2)


@pytest.fixture(scope="session")
def sphere3():
    """Standard unit sphere in C^3."""
    return Manifold.sphere(3)


@pytest.fixture(scope="session")
def wsphere12():
    """Unit sphere in C^2 with action weights (1, 2)."""
    return Manifold.sphere(2, (1, 2))


@pytest.fixture(scope="session")
def wsphere126():
    """Unit sphere in C^3 with action weights (1, 2, 6)."""
    return Manifold.sphere(3, (1, 2, 6))


@pytest.fixture(scope="session")
def example2():
    """The degree-(4, 6) perturbed invariant hypersurface in C^3."""
    return Manifold.invariant_hypersurface_example()


@pytest.fixture(scope="session")
def flat_ellipsoid():
    """|z1|^2 + 1e-4 |z2|^2 = 1 with weights (1, 2): the z2 axis meets X at t = 100."""
    terms = {
        ((1, 0), (1, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(1, 10_000),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    return Manifold(2, (1, 2), DefiningPolynomial(2, terms))


def random_point(M, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=M.n) + 1j * rng.normal(size=M.n)
    u /= np.linalg.norm(u)
    from szegolab.integrate import project_radially

    return M.point(project_radially(M, u))


def random_points(M, count, seed=0):
    return [random_point(M, seed + 100 * i) for i in range(count)]
