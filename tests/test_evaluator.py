"""The shared monomial evaluator and the ray-root finder against independent
references: term-by-term mpmath sums, central differences, and mpmath roots
of each ray's polynomial."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import holomorphic_derivative_fd, horner_two_pass

import szegolab.integrate as integrate
from szegolab.basis import enumerate_multiindices, monomial_jacobian, monomial_values
from szegolab.errors import SamplingError
from szegolab.geometry import ROW_BLOCK, DefiningPolynomial, Manifold
from szegolab.integrate import radial_roots, sample_hypersurface


@pytest.fixture(autouse=True)
def _precision():
    with mpmath.workdps(40):
        yield


def _points(n, count, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    return scale * (rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n)))


def _mp_monomial(z, a, b=None):
    out = mpmath.mpc(1)
    for k, zk in enumerate(z):
        zk = mpmath.mpc(zk)
        out *= zk ** a[k]
        if b is not None:
            out *= mpmath.conj(zk) ** b[k]
    return out


def _lower(e, j):
    return tuple(x - (1 if i == j else 0) for i, x in enumerate(e))


def _mp_rho(terms, z):
    return sum(mpmath.mpf(c.numerator) / c.denominator * _mp_monomial(z, a, b)
               for (a, b), c in terms.items())


def _mp_gradient(terms, z, j):
    return sum(mpmath.mpf(c.numerator) / c.denominator * a[j] * _mp_monomial(z, _lower(a, j), b)
               for (a, b), c in terms.items() if a[j])


def _mp_hessian(terms, z, j, k):
    return sum(
        mpmath.mpf(c.numerator) / c.denominator * a[j] * b[k]
        * _mp_monomial(z, _lower(a, j), _lower(b, k))
        for (a, b), c in terms.items() if a[j] and b[k]
    )


def _close(x, ref, rtol):
    return abs(complex(x) - complex(ref)) <= rtol * max(1.0, abs(complex(ref)))


def test_rho_value_and_gradient_match_mpmath(example2):
    terms = example2.rho.terms
    Z = _points(3, 12, seed=3)
    values = example2.rho.value(Z)
    grads = example2.rho.z_gradient(Z)
    for z, v, g in zip(Z, values, grads):
        assert _close(v, mpmath.re(_mp_rho(terms, z)), 1e-13)
        assert _close(example2.rho.value(z), mpmath.re(_mp_rho(terms, z)), 1e-13)
        for j in range(3):
            assert _close(g[j], _mp_gradient(terms, z, j), 1e-13)


def test_rho_gradient_matches_finite_differences(example2):
    for z in _points(3, 5, seed=4, scale=0.5):
        g = example2.rho.z_gradient(z)
        for j in range(3):
            fd = holomorphic_derivative_fd(example2.rho.value, z, j)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(g[j]))


def test_rho_hessian_matches_mpmath_and_finite_differences(example2):
    terms = example2.rho.terms
    for z in _points(3, 5, seed=5, scale=0.5):
        H = example2.rho.zz_hessian(z)
        for j in range(3):
            # d/d zbar_k of rho_j is the conjugate of d/d z_k of conj(rho_j)
            conj_rho_j = lambda w, j=j: np.conj(example2.rho.z_gradient(w)[j])  # noqa: E731
            for k in range(3):
                assert _close(H[j, k], _mp_hessian(terms, z, j, k), 1e-13)
                fd = np.conj(holomorphic_derivative_fd(conj_rho_j, z, k))
                assert abs(H[j, k] - fd) <= 1e-6 * max(1.0, abs(H[j, k]))


def test_monomial_jacobian_matches_mpmath_and_finite_differences(example2):
    idx = enumerate_multiindices(example2.weights, 12)
    exps = idx.tolist()
    for z in _points(3, 4, seed=6):
        D = monomial_jacobian(z, idx)
        assert D.shape == (len(idx), 3)
        for j, a in enumerate(exps):
            for k in range(3):
                ref = a[k] * _mp_monomial(z, _lower(a, k)) if a[k] else 0
                assert _close(D[j, k], ref, 1e-13)
        for k in range(3):
            fd = holomorphic_derivative_fd(lambda w: monomial_values(w, idx), z, k)
            assert np.allclose(D[:, k], fd, rtol=1e-6, atol=1e-7)


def _mp_first_ray_root(M, u):
    """Smallest positive root of t -> rho(t u), from mpmath roots of its polynomial."""
    coeffs = {}
    for (a, b), c in M.rho.terms.items():
        d = sum(a) + sum(b)
        coeffs[d] = coeffs.get(d, 0) + mpmath.mpf(c.numerator) / c.denominator * mpmath.re(
            _mp_monomial(u, a, b)
        )
    top = max(coeffs)
    roots = mpmath.polyroots([coeffs.get(d, 0) for d in range(top, -1, -1)],
                             maxsteps=400, extraprec=200)
    positive = [mpmath.re(r) for r in roots
                if abs(mpmath.im(r)) < mpmath.mpf(10) ** -25 and mpmath.re(r) > 0]
    return float(min(positive))


def test_radial_roots_match_mpmath_ray_polynomial(example2):
    rng = np.random.default_rng(8)
    U = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    t = radial_roots(example2, U)
    for u, root in zip(U, t):
        assert abs(root - _mp_first_ray_root(example2, u)) <= 1e-14 * root


def test_radial_roots_in_every_doubling_bracket():
    """4|z1|^2 + |z1|^4 + |z2|^2/50 + |z2|^4/10^4 = 1: roots from 0.49 (z1 axis) to 6.4."""
    terms = {
        ((1, 0), (1, 0)): Fraction(4),
        ((2, 0), (2, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(1, 50),
        ((0, 2), (0, 2)): Fraction(1, 10_000),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    M = Manifold(2, (1, 2), DefiningPolynomial(2, terms))
    s = np.linspace(0.0, 1.0, 41)
    U = np.stack([np.sqrt(1.0 - s), np.sqrt(s) * np.exp(0.7j)], axis=1)
    t = radial_roots(M, U)
    for lo, hi in [(0, 1), (1, 2), (2, 4), (4, 8)]:
        assert np.any((t > lo) & (t < hi))
    for u, root in zip(U, t):
        assert abs(root - _mp_first_ray_root(M, u)) <= 1e-14 * root


def test_radial_roots_bisect_when_newton_leaves_bracket():
    """rho(t e1) = -1 + 10 t^2 - 8 t^4 falls at t = 1, so Newton from there steps past 1."""
    terms = {
        ((1, 0), (1, 0)): Fraction(10),
        ((2, 0), (2, 0)): Fraction(-8),
        ((0, 1), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    M = Manifold(2, (1, 2), DefiningPolynomial(2, terms))
    U = np.array([[1.0, 0.0]], dtype=complex)
    ray = np.polynomial.Polynomial(M.rho.ray_coefficients(U)[0])
    assert ray(1.0) > 0 and 1.0 - ray(1.0) / ray.deriv()(1.0) > 1.0
    root = radial_roots(M, U)[0]
    assert abs(root - _mp_first_ray_root(M, U[0])) <= 1e-14 * root


def test_radial_roots_of_a_ray_do_not_depend_on_the_batch(example2):
    rng = np.random.default_rng(9)
    U = rng.normal(size=(ROW_BLOCK + 40, 3)) + 1j * rng.normal(size=(ROW_BLOCK + 40, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    batch = radial_roots(example2, U)
    near_block_edge = slice(ROW_BLOCK - 40, None)
    single = np.array([radial_roots(example2, u[None, :])[0] for u in U[near_block_edge]])
    np.testing.assert_allclose(single, batch[near_block_edge], rtol=1e-15, atol=0)


def test_fused_horner_matches_two_passes(example2, monkeypatch):
    """One recurrence for rho(t u) and d rho(t u) / dt: the same values, the
    derivative to rounding, and no root more than 1 ulp from two passes."""
    rng = np.random.default_rng(10)
    U = rng.normal(size=(5000, 3)) + 1j * rng.normal(size=(5000, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    fused = radial_roots(example2, U)
    C = example2.rho.ray_coefficients(U).T
    f, df = integrate._horner_with_derivative(C, fused)
    f_ref, df_ref = horner_two_pass(C, fused)
    np.testing.assert_array_equal(f, f_ref)
    bound = horner_two_pass(np.abs(C), fused)[1]  # sum_d d |C_d| t^(d-1)
    assert np.all(np.abs(df - df_ref) <= 1e-14 * bound)
    monkeypatch.setattr(integrate, "_horner_with_derivative", horner_two_pass)
    two_pass = radial_roots(example2, U)
    assert np.all(np.abs(fused - two_pass) <= np.spacing(two_pass))


def test_unbracketed_ray_gives_nan(flat_ellipsoid):
    t = radial_roots(flat_ellipsoid, np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    assert t[0] == pytest.approx(1.0, abs=1e-15)
    assert np.isnan(t[1])


def test_unbracketed_stratum_is_unconfirmed(flat_ellipsoid):
    strata = flat_ellipsoid.strata_orders()
    assert strata.orders == (1,)
    assert strata.unconfirmed == (2,)


def test_unbracketed_rays_stop_sampling(flat_ellipsoid):
    with pytest.raises(SamplingError, match="not bracketed"):
        sample_hypersurface(flat_ellipsoid, 500, seed=0)
