import math

import numpy as np
import pytest

from conftest import random_point
from oracles import component_orthogonality, integrate_surface

from szegolab.basis import (
    ROUND_EXACT,
    block_jacobian,
    block_values,
    enumerate_multiindices,
    eval_basis,
    fourier_basis,
    monomial_values,
    sphere_monomial_norm_sq,
)
from szegolab.fourier import circle_average, default_quadrature
from szegolab.integrate import sample_sphere


def monomial_fn(a, b=None):
    """z^a (zbar^b) as a vectorized callable on coordinate arrays."""

    def u(Z):
        out = np.ones(Z.shape[0], dtype=complex)
        for j, e in enumerate(a):
            if e:
                out = out * Z[:, j] ** e
        if b is not None:
            for j, e in enumerate(b):
                if e:
                    out = out * np.conj(Z[:, j]) ** e
        return out

    return u


class TestCircleAverage:
    def test_zero_nodes_rejected(self, wsphere12):
        x = random_point(wsphere12, 1)
        with pytest.raises(ValueError, match="nodes must be >= 1"):
            circle_average(wsphere12, monomial_fn((1, 0)), x, 1, 0)

    def test_reproduces_matching_degree_exactly(self, wsphere12):
        Q = default_quadrature(10)
        x = random_point(wsphere12, 1)
        # z1 z2^2 has orbit degree 1 + 2*2 = 5
        u = monomial_fn((1, 2))
        val = circle_average(wsphere12, u, x, 5, Q)
        expected = u(x[None, :])[0]
        assert abs(val - expected) < 1e-12 * max(1, abs(expected))
        for m in (0, 1, 4, 6, 10):
            assert abs(circle_average(wsphere12, u, x, m, Q)) < 1e-12

    def test_many_levels_in_one_call(self, wsphere126):
        # one evaluation of u on the orbit serves every level, and each
        # coefficient equals the one-level call's, bit for bit
        Q = default_quadrature(20)
        x = random_point(wsphere126, 6)
        calls = []
        u = monomial_fn((1, 0, 2), (0, 1, 0))

        def counted(Z):
            calls.append(1)
            return u(Z)

        levels = [-3, 0, 11, 12, 20]
        got = circle_average(wsphere126, counted, x, levels, Q)
        assert len(calls) == 1
        assert got.shape == (len(levels),)
        for m, v in zip(levels, got.tolist()):
            assert v == circle_average(wsphere126, u, x, m, Q)

    def test_orbit_degree_zero_functions(self, wsphere12):
        Q = default_quadrature(6)
        x = random_point(wsphere12, 2)
        u = monomial_fn((1, 0), (1, 0))  # |z1|^2
        v0 = circle_average(wsphere12, u, x, 0, Q)
        assert abs(v0 - abs(x[0]) ** 2) < 1e-13
        assert abs(circle_average(wsphere12, u, x, 3, Q)) < 1e-13

    def test_mixed_term_orbit_degree(self, wsphere12):
        # zbar1 z2^2 has orbit degree -1 + 4 = 3 under weights (1, 2)
        Q = default_quadrature(8)
        x = random_point(wsphere12, 3)
        u = monomial_fn((0, 2), (1, 0))
        val = circle_average(wsphere12, u, x, 3, Q)
        z = x
        expected = np.conj(z[0]) * z[1] ** 2
        assert abs(val - expected) < 1e-12
        assert abs(circle_average(wsphere12, u, x, -3, Q)) < 1e-12

    def test_idempotence_and_annihilation_on_components(self, wsphere126):
        B5 = fourier_basis(wsphere126, 5, measure=ROUND_EXACT)
        B7 = fourier_basis(wsphere126, 7, measure=ROUND_EXACT)
        Q = default_quadrature(7)
        x = random_point(wsphere126, 4)

        def u(Z):
            from szegolab.basis import eval_basis_batch

            return eval_basis_batch(B5, Z)[:, 0] + 2.0 * eval_basis_batch(B7, Z)[:, 1]

        v5 = circle_average(wsphere126, u, x, 5, Q)
        assert abs(v5 - eval_basis(B5, x)[0]) < 1e-12 * max(1, abs(v5))
        v7 = circle_average(wsphere126, u, x, 7, Q)
        assert abs(v7 - 2 * eval_basis(B7, x)[1]) < 1e-12 * max(1, abs(v7))
        assert abs(circle_average(wsphere126, u, x, 6, Q)) < 1e-12

    def test_random_monomial_sweep(self, wsphere126):
        rng = np.random.default_rng(11)
        Q = default_quadrature(40)
        x = random_point(wsphere126, 5)
        w = np.array(wsphere126.weights.weights)
        for _ in range(100):
            a = rng.integers(0, 3, size=3)
            b = rng.integers(0, 3, size=3)
            p = int(np.dot(a, w) - np.dot(b, w))
            u = monomial_fn(a, b)
            expected = u(x[None, :])[0]
            got = circle_average(wsphere126, u, x, p, Q)
            assert abs(got - expected) < 1e-12 * max(1, abs(expected))
            assert abs(circle_average(wsphere126, u, x, p + 1, Q)) < 1e-12


class TestParseval:
    def test_finite_span(self, sphere2):
        # u = sum of orthonormal elements across levels 2..5 with known weights
        levels = [2, 3, 4, 5]
        coeffs = [1.0, -0.5, 2.0, 0.25j]
        bases = {m: fourier_basis(sphere2, m) for m in levels}

        def u(Z):
            from szegolab.basis import eval_basis_batch

            return sum(c * eval_basis_batch(bases[m], Z)[:, 0] for c, m in zip(coeffs, levels))

        Q = default_quadrature(5)
        x = random_point(sphere2, 8)
        # pointwise: components recover each term
        for c, m in zip(coeffs, levels):
            got = circle_average(sphere2, u, x, m, Q)
            expected = c * eval_basis(bases[m], x)[0]
            assert abs(got - expected) < 1e-12
        # integral: sum of component norms equals the norm of u
        S = sample_sphere(2, 150_000, seed=17)
        total, total_err = integrate_surface(lambda Z: np.abs(u(Z)) ** 2, S)
        parts = []
        for c, m in zip(coeffs, levels):
            def um(Z, c=c, m=m):
                from szegolab.basis import eval_basis_batch

                return np.abs(c * eval_basis_batch(bases[m], Z)[:, 0]) ** 2

            est, err = integrate_surface(um, S)
            parts.append((est, err))
        sum_parts = sum(p for p, _ in parts)
        err = math.hypot(total_err, *[e for _, e in parts])
        assert abs(total - sum_parts) < 5 * err
        # exact values: orthonormal elements have unit norm
        exact = sum(abs(c) ** 2 for c in coeffs)
        assert abs(total - exact) < 5 * err + 1e-9


class TestTEigen:
    def test_exact_route(self, wsphere126):
        # T f = df(T) by the holomorphic chain rule, = i m f on level m
        B = fourier_basis(wsphere126, 9, measure=ROUND_EXACT)
        X = np.stack([random_point(wsphere126, seed) for seed in (0, 1)])
        T = wsphere126.reeb_vector(X)
        Tf = np.einsum("pjk,pk->pj", block_jacobian(X, [B]), T)
        assert np.max(np.abs(Tf - 1j * B.level * block_values(X, [B]))) < 1e-9

    def test_finite_difference_route(self, wsphere12):
        B = fourier_basis(wsphere12, 6, measure=ROUND_EXACT)
        x = random_point(wsphere12, 2)
        h = 1e-4
        f_plus = eval_basis(B, wsphere12.act(h, x))
        f_minus = eval_basis(B, wsphere12.act(-h, x))
        deriv = (f_plus - f_minus) / (2 * h)
        res = np.abs(deriv - 1j * B.level * eval_basis(B, x))
        assert np.max(res) < 1e-5

    def test_conjugate_monomial_has_negative_eigenvalue(self, wsphere12):
        # T zbar^alpha = -i <alpha, w> zbar^alpha: residual against +m is large
        x = random_point(wsphere12, 3)
        h = 1e-5
        m = 4

        def u(z):
            return np.conj(z[0]) ** 2 * np.conj(z[1])  # orbit degree -4

        d = (u(wsphere12.act(h, x)) - u(wsphere12.act(-h, x))) / (2 * h)
        val = u(x)
        assert abs(d + 1j * m * val) < 1e-6  # eigenvalue -i m
        assert abs(d - 1j * m * val) > 0.1 * abs(val)  # not +i m


class TestComponentOrthogonality:
    def test_round_exact_orthogonality(self, sphere2):
        # distinct monomials are exactly orthogonal under the round measure:
        # diagonal Gram entries at different levels share no multiindices
        i2 = enumerate_multiindices(sphere2.weights, 2)
        i3 = enumerate_multiindices(sphere2.weights, 3)
        assert set(map(tuple, i2.tolist())).isdisjoint(map(tuple, i3.tolist()))

    def test_mc_orthogonality(self, wsphere12):
        B2 = fourier_basis(wsphere12, 2, measure=ROUND_EXACT)
        B3 = fourier_basis(wsphere12, 3, measure=ROUND_EXACT)
        worst, stderr = component_orthogonality(wsphere12, B2, B3, samples=60_000, seed=4)
        assert worst <= 5 * stderr

    def test_equal_levels_rejected(self, wsphere12):
        B = fourier_basis(wsphere12, 2, measure=ROUND_EXACT)
        with pytest.raises(ValueError):
            component_orthogonality(wsphere12, B, B)
