"""The shared monomial evaluator and the ray-root finder against independent
references: term-by-term mpmath sums, central differences, mpmath roots of
each ray's polynomial, and Fraction-summed derivative tables."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import (
    derivative_table_fractions,
    example2_terms_fractions,
    holomorphic_derivative_fd,
    horner_two_pass,
    radial_roots_doubling,
)

import szegolab.integrate as integrate
from szegolab.basis import enumerate_multiindices, monomial_jacobian, monomial_values
from szegolab.errors import SamplingError
from szegolab.geometry import ROW_BLOCK, DefiningPolynomial, Manifold, monomial_products
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


def test_monomial_products_do_not_depend_on_the_batch(example2):
    # rows go through in cache-sized passes; every entry is formed the same way
    A, B, _ = example2.rho._ray
    Z = _points(3, 1500, seed=11)
    V = monomial_products(Z, A, B)
    single = np.concatenate([monomial_products(z[None, :], A, B) for z in Z[::7]])
    assert V[::7].tobytes() == single.tobytes()
    assert monomial_products(Z, A, B, real=True).tobytes() == np.ascontiguousarray(V.real).tobytes()


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
    # the Newton iteration is per ray, but the ray coefficients come from a
    # BLAS contraction whose rounding depends on the batch size, hence rtol
    rng = np.random.default_rng(9)
    U = rng.normal(size=(ROW_BLOCK + 40, 3)) + 1j * rng.normal(size=(ROW_BLOCK + 40, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    batch = radial_roots(example2, U)
    near_block_edge = slice(ROW_BLOCK - 40, None)
    single = np.array([radial_roots(example2, u[None, :])[0] for u in U[near_block_edge]])
    np.testing.assert_allclose(single, batch[near_block_edge], rtol=1e-15, atol=0)


def test_ray_evaluator_matches_two_passes(example2, monkeypatch):
    """One power table for rho(t u) and d rho(t u) / dt: both within rounding
    of two Horner passes, and no root more than 4 ulp, the solver's freeze
    tolerance, from the roots found with the two passes."""
    rng = np.random.default_rng(10)
    U = rng.normal(size=(5000, 3)) + 1j * rng.normal(size=(5000, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    roots = radial_roots(example2, U)
    C = example2.rho.ray_coefficients(U)
    f, df = integrate._ray_values(C, C[:, 1:] * np.arange(1, C.shape[1]), roots)
    f_ref, df_ref = horner_two_pass(C.T, roots)
    # sum_d |C_d| t^d and sum_d d |C_d| t^(d-1)
    scale, bound = horner_two_pass(np.abs(C.T), roots)
    assert np.all(np.abs(f - f_ref) <= 1e-14 * scale)
    assert np.all(np.abs(df - df_ref) <= 1e-14 * bound)
    monkeypatch.setattr(integrate, "_ray_values", lambda C, D, t: horner_two_pass(C.T, t))
    two_pass = radial_roots(example2, U)
    assert np.all(np.abs(roots - two_pass) <= 4 * np.spacing(roots))


@pytest.fixture(scope="module")
def three_axes():
    """|z1|^2/4 + |z2|^2/36 + |z3|^2/10^4 = 1: the axes meet X at t = 2, a
    point of the bracketing grid, at t = 6 and at t = 100 > RAY_T_MAX."""
    terms = {
        ((1, 0, 0), (1, 0, 0)): Fraction(1, 4),
        ((0, 1, 0), (0, 1, 0)): Fraction(1, 36),
        ((0, 0, 1), (0, 0, 1)): Fraction(1, 10_000),
        ((0, 0, 0), (0, 0, 0)): Fraction(-1),
    }
    return Manifold(3, (1, 1, 1), DefiningPolynomial(3, terms))


def test_radial_roots_on_grid_points_are_exact(three_axes):
    # rho is exactly 0 at the bracket's upper end, so Newton freezes there
    U = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 1j]])
    assert np.all(radial_roots(Manifold.sphere(2), U) == 1.0)
    radius2 = {
        ((1, 0), (1, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(-4),
    }
    assert np.all(radial_roots(Manifold(2, (1, 1), DefiningPolynomial(2, radius2)), U) == 2.0)
    assert radial_roots(three_axes, np.eye(3)[:1])[0] == 2.0


def test_mixed_bracket_batch_gives_single_ray_roots(three_axes):
    U = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 1, 0]],
                 dtype=complex)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    batch = radial_roots(three_axes, U)
    # roots on the grid (t = 2) and in the last bracket (t = 6); (0, 0, 1) and
    # (0, 1, 1) / sqrt(2) meet X at t = 100 and 8.47, past RAY_T_MAX
    assert batch[0] == 2.0 and 4.0 < batch[1] <= integrate.RAY_T_MAX
    assert abs(batch[1] - _mp_first_ray_root(three_axes, U[1])) <= 1e-14 * batch[1]
    assert np.isnan(batch).tolist() == [False, False, True, False, True, False, False]
    assert np.all(three_axes.rho.value(integrate.RAY_T_MAX * U[np.isnan(batch)]) < 0)
    single = [radial_roots(three_axes, u[None, :])[0] for u in U]
    np.testing.assert_array_equal(batch, single)


def _unit_rays(n, count, seed):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def test_radial_roots_match_the_doubling_bracket(example2):
    # the 1/16 grid brackets the same first sign change as t = 1, 2, 4, 8
    U = _unit_rays(3, 2048, 12)
    roots = radial_roots(example2, U)
    reference = radial_roots_doubling(example2, U)
    assert not np.any(np.isnan(roots))
    np.testing.assert_allclose(roots, reference, rtol=1e-14, atol=0)


def test_radial_roots_on_a_fine_grid_point_are_exact():
    """|z1|^4 + |z1|^2 + |z2|^2 = 71825/65536 meets the z1 axis at t = 13/16,
    a point of the 1/16 grid and of no coarser one; every coefficient and
    every power of 13/16 up to the fourth is exact in binary."""
    terms = {
        ((2, 0), (2, 0)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(-71825, 65536),
    }
    M = Manifold(2, (1, 1), DefiningPolynomial(2, terms))
    U = np.array([[1.0, 0.0], [-1.0, 0.0], [1j, 0.0], [0.0, 1.0]], dtype=complex)
    roots = radial_roots(M, U)
    assert np.all(roots[:3] == 13 / 16)
    # the z2 axis, in the same batch, meets X off the grid at sqrt(71825) / 256
    assert abs(roots[3] - float(mpmath.sqrt(71825) / 256)) <= 1e-15 * roots[3]


def test_radial_roots_bisect_when_newton_leaves_a_fine_bracket():
    """rho(t e1) = -1 + (1984 t^2 - 1024 t^4) / 957 has its first root at
    sqrt(29/32) in the bracket (15/16, 1], and falls at t = 1, so Newton from
    the upper end steps past it."""
    terms = {
        ((1, 0), (1, 0)): Fraction(1984, 957),
        ((2, 0), (2, 0)): Fraction(-1024, 957),
        ((0, 1), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    M = Manifold(2, (1, 2), DefiningPolynomial(2, terms))
    U = np.array([[1.0, 0.0]], dtype=complex)
    ray = np.polynomial.Polynomial(M.rho.ray_coefficients(U)[0])
    assert ray(15 / 16) < 0 < ray(1.0) and 1.0 - ray(1.0) / ray.deriv()(1.0) > 1.0
    root = radial_roots(M, U)[0]
    assert abs(root - np.sqrt(29 / 32)) <= 1e-15
    assert abs(root - _mp_first_ray_root(M, U[0])) <= 1e-14 * root


def test_newton_passes_from_the_fine_bracket(example2, monkeypatch):
    """Newton starts at the upper end of a bracket 1/16 wide.  Rays whose
    root lies within 1/32 of that end converge in 5 evaluator passes; the
    rest take at most a sixth (the doubling bracket took 8)."""
    U = _unit_rays(3, 2048, 13)
    roots = radial_roots(example2, U)
    _, upper = integrate.ray_brackets(example2, U)
    near_upper = roots >= integrate._RAY_GRID[upper] - 1 / 32
    passes = []
    ray_values = integrate._ray_values

    def counting(C, D, t):
        passes[-1] += 1
        return ray_values(C, D, t)

    monkeypatch.setattr(integrate, "_ray_values", counting)
    for rays in (U[near_upper], U):
        passes.append(0)
        radial_roots(example2, rays)
    assert passes[0] <= 5 and passes[1] <= 6, passes


def _non_dyadic():
    """A (1, 2)-invariant rho with coefficients 1/3, 1/50, 7/10^4, 1/7 and 1/10,
    none dyadic; the last meets factors of 3, and float(1/10) * 3 is not 3/10."""
    term = lambda c, a, b: {"coeff": c, "z_exponents": a, "zbar_exponents": b}  # noqa: E731
    return Manifold.from_spec({"n": 2, "weights": [1, 2], "rho": [
        term("1/3", [1, 0], [1, 0]),
        term("1/50", [0, 1], [0, 1]),
        term("7/10000", [2, 0], [2, 0]),
        term("1/7", [2, 0], [0, 1]),
        term("1/7", [0, 1], [2, 0]),
        term("1/10", [3, 0], [3, 0]),
        term("-1", [0, 0], [0, 0]),
    ]})


@pytest.mark.parametrize("name", ["example2", "sphere3", "wsphere126", "non_dyadic"])
def test_derivative_tables_equal_fraction_sums(name, request):
    M = _non_dyadic() if name == "non_dyadic" else request.getfixturevalue(name)
    rho, n = M.rho, M.n
    for table, z_vars, zbar_vars in [
        (rho._value, [None], [None]),
        (rho._gradient, range(n), [None]),
        (rho._hessian, range(n), range(n)),
    ]:
        for new, ref in zip(table, derivative_table_fractions(rho.terms, n, z_vars, zbar_vars)):
            assert new.dtype == ref.dtype and new.shape == ref.shape
            assert new.tobytes() == ref.tobytes()


def test_example2_terms_and_tables_equal_a_fraction_expansion(example2):
    # the preset expands its powers in ints; the reference by the binomial
    # theorem in Fractions
    ref = dict(sorted(example2_terms_fractions().items()))
    rho = example2.rho
    assert list(rho.terms.items()) == list(ref.items())
    assert {type(c) for c in rho.terms.values()} == {Fraction}
    value = derivative_table_fractions(ref, 3, [None], [None])
    A, B, C = value
    degree = A.sum(axis=1) + B.sum(axis=1)
    by_degree = np.zeros((len(C), degree.max() + 1))
    by_degree[np.arange(len(C)), degree] = C[:, 0]
    for table, reference in [
        (rho._value, value),
        (rho._gradient, derivative_table_fractions(ref, 3, range(3), [None])),
        (rho._ray, (A, B, by_degree)),
    ]:
        for new, old in zip(table, reference, strict=True):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()


def test_coefficients_are_read_exactly():
    # ints, Fractions and strings all become the Fraction they name: "1/3" is
    # a third, not the float nearest it
    rho = DefiningPolynomial(2, {((1, 0), (1, 0)): "1/3", ((0, 1), (0, 1)): Fraction(2, 3),
                                 ((2, 0), (2, 0)): 0, ((0, 0), (0, 0)): -1})
    assert rho.terms == {((0, 0), (0, 0)): -1, ((0, 1), (0, 1)): Fraction(2, 3),
                         ((1, 0), (1, 0)): Fraction(1, 3)}
    assert {type(c) for c in rho.terms.values()} == {Fraction}
    # from_spec sums a repeated monomial exactly: 0.2 + 0.7 + 1/10 is 1, so
    # this is the (1, 2) unit sphere (in floats the sum is 1 - 2^-53)
    sphere = Manifold.sphere(2, (1, 2)).to_spec()
    z1 = next(t for t in sphere["rho"] if t["z_exponents"] == [1, 0])
    spec = {**sphere, "rho": sphere["rho"] + [dict(z1, coeff=0.7), dict(z1, coeff="1/10")]}
    z1["coeff"] = "0.2"
    M = Manifold.from_spec(spec)
    assert M.kind == "sphere"
    assert M.content_hash == Manifold.sphere(2, (1, 2)).content_hash


def test_hessian_table_is_built_by_the_first_levi_form():
    M = Manifold.invariant_hypersurface_example()
    M.strata_orders()
    assert "_hessian" not in M.rho.__dict__
    x = M.point([0.0, 0.0, 0.8260313576541872])
    levi = M.levi_form(x)
    assert "_hessian" in M.rho.__dict__
    ref = Manifold.invariant_hypersurface_example()
    ref.rho.__dict__["_hessian"] = derivative_table_fractions(ref.rho.terms, 3, range(3), range(3))
    assert levi == ref.levi_form(x)


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
