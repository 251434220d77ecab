import math

import mpmath
import numpy as np
import pytest

from conftest import random_point
from oracles import ball_points_loop, sample_hypersurface_one_shot, stratum_info

import szegolab.integrate as integrate
from szegolab.basis import enumerate_multiindices, monomial_values, sphere_monomial_norm_sq
from szegolab.errors import SamplingError
from szegolab.geometry import ROW_BLOCK
from szegolab.integrate import (
    ball_points,
    compliant_density,
    hypersurface_blocks,
    integrate_surface,
    sample_hypersurface,
    sample_sphere,
    sphere_area,
    stratified_minimum,
    stratified_points,
    support_pattern_points,
    surface_samples,
    torus_invariant,
    torus_quadrature,
)


def test_sphere_weights_sum_to_area():
    S = sample_sphere(2, 1000, seed=0)
    assert abs(S.weights.sum() - 2 * math.pi**2) < 1e-9


def test_sphere_mean_coordinate_power():
    # E |z_1|^2 = 1/n on the unit sphere
    S = sample_sphere(3, 1_000_000, seed=1)
    est, stderr = integrate_surface(lambda Z: np.abs(Z[:, 0]) ** 2, S)
    target = sphere_area(3) / 3
    assert abs(est - target) < 3 * stderr + 1e-12


def test_sampling_deterministic_per_seed():
    A = sample_sphere(2, 500, seed=42)
    B = sample_sphere(2, 500, seed=42)
    assert A.points.tobytes() == B.points.tobytes()
    assert A.weights.tobytes() == B.weights.tobytes()
    C = sample_sphere(2, 500, seed=43)
    assert A.points.tobytes() != C.points.tobytes()


def test_hypersurface_route_on_sphere_reduces_to_uniform(sphere2):
    S = sample_hypersurface(sphere2, 2000, seed=5)
    assert np.allclose(np.abs(np.linalg.norm(S.points, axis=1)) - 1, 0, atol=1e-12)
    assert np.allclose(S.weights, sphere_area(2) / 2000, atol=1e-12)


def test_cross_backend_monomial_integrals(sphere2):
    rng = np.random.default_rng(7)
    S1 = sample_sphere(2, 120_000, seed=11)
    S2 = sample_hypersurface(sphere2, 120_000, seed=12)
    for _ in range(20):
        a = rng.integers(0, 4, size=2)
        b = rng.integers(0, 4, size=2)

        def f(Z):
            return (Z[:, 0] ** a[0] * Z[:, 1] ** a[1]) * np.conj(
                Z[:, 0] ** b[0] * Z[:, 1] ** b[1]
            )

        e1, s1 = integrate_surface(f, S1)
        e2, s2 = integrate_surface(f, S2)
        assert abs(e1 - e2) < 5 * math.hypot(s1, s2) + 1e-12


@pytest.mark.parametrize("count", [1, ROW_BLOCK - 1, ROW_BLOCK, 5000])
def test_streamed_sampler_equals_one_shot_draw(example2, count):
    S = sample_hypersurface(example2, count, seed=6)
    X, w = sample_hypersurface_one_shot(example2, count, seed=6)
    assert S.points.tobytes() == X.tobytes()
    assert S.weights.tobytes() == w.tobytes()


def test_streamed_density_is_the_compliant_density(example2):
    sizes = []
    for X, w, density in hypersurface_blocks(example2, 5000, seed=7):
        sizes.append(len(X))
        assert X.shape == (len(w), 3)
        assert density.tobytes() == compliant_density(example2, X).tobytes()
    assert sizes == [ROW_BLOCK, ROW_BLOCK, 5000 - 2 * ROW_BLOCK]


def test_example2_area_stable_across_seeds(example2):
    areas = []
    for seed in (1, 2):
        S = sample_hypersurface(example2, 200_000, seed=seed)
        areas.append(S.weights.sum())
        assert np.max(np.abs(example2.rho.value(S.points))) < 1e-10
    assert abs(areas[0] - areas[1]) / areas[0] < 0.01


def test_constant_integrates_to_weight_sum(example2):
    S = sample_hypersurface(example2, 5000, seed=3)
    est, _ = integrate_surface(lambda Z: np.ones(Z.shape[0]), S)
    assert abs(est - S.weights.sum()) < 1e-9


def test_monomial_norms_against_exact(sphere2):
    S = sample_sphere(2, 200_000, seed=21)
    for exps in ((0, 0), (1, 0), (2, 1), (0, 3)):
        level = enumerate_multiindices(sphere2.weights, sum(exps))
        alpha = [a for a in level.tolist() if tuple(a) == exps][0]

        def f(Z):
            return np.abs(monomial_values(Z, [alpha])[:, 0]) ** 2

        est, stderr = integrate_surface(f, S)
        exact = sphere_monomial_norm_sq(alpha, 2).value()
        assert abs(est - exact) < 5 * stderr + 1e-12


def test_density_hook_identity_on_standard_sphere(sphere2):
    S = sample_sphere(2, 50_000, seed=2)

    def f(Z):
        return np.abs(Z[:, 1]) ** 4

    plain, _ = integrate_surface(f, S)
    weighted, _ = integrate_surface(f, S, density=lambda Z: compliant_density(sphere2, Z))
    assert abs(plain - weighted) < 1e-10


def test_action_invariance_of_estimates(wsphere126):
    S = surface_samples(wsphere126, 100_000, seed=8)

    def f(Z):
        return np.abs(Z[:, 0] + Z[:, 2] ** 2) ** 2

    def f_rot(Z):
        return f(wsphere126.act(0.7, Z))

    e1, s1 = integrate_surface(f, S, density=lambda Z: compliant_density(wsphere126, Z))
    e2, s2 = integrate_surface(f_rot, S, density=lambda Z: compliant_density(wsphere126, Z))
    assert abs(e1 - e2) < 5 * math.hypot(s1, s2)


def test_stderr_scales_with_sample_count(sphere2):
    def f(Z):
        return np.abs(Z[:, 0]) ** 6

    _, s_small = integrate_surface(f, sample_sphere(2, 50_000, seed=14))
    _, s_large = integrate_surface(f, sample_sphere(2, 200_000, seed=15))
    assert 1.8 <= s_small / s_large <= 2.2


def test_star_shape_violation_detected():
    from fractions import Fraction

    from szegolab.geometry import DefiningPolynomial, Manifold

    # rho(0) = +1 > 0: no ray from the origin can bracket a root
    terms = {
        ((1, 0), (1, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(1),
    }
    M = Manifold(2, (1, 1), DefiningPolynomial(2, terms))
    with pytest.raises(SamplingError):
        sample_hypersurface(M, 10, seed=0)


def test_stratified_points_cover_patterns(wsphere126):
    Z, labels = stratified_points(wsphere126, 50, seed=6)
    assert set(labels) == {"regular", "stratum", "near-stratum"}
    orders, _ = wsphere126.strata_of(Z)
    assert {2, 6} <= set(orders[labels == "stratum"].tolist())
    assert np.all(np.abs(wsphere126.rho.value(Z)) <= wsphere126.surface_tolerance)


def test_stratified_points_free_action(sphere3):
    Z, labels = stratified_points(sphere3, 20, seed=1)
    assert Z.shape == (20, 3)
    assert all(label == "regular" for label in labels)


@pytest.mark.parametrize("name", ["sphere3", "wsphere126"])
def test_stratified_points_reject_an_empty_count(request, name):
    M = request.getfixturevalue(name)
    with pytest.raises(ValueError, match=f"count must be >= {stratified_minimum(M)}, got 0"):
        stratified_points(M, 0)


def test_stratified_points_root_calls_do_not_grow_with_count(example2, monkeypatch):
    example2.strata  # certified before counting, whatever ran first
    calls = []
    real = integrate.radial_roots

    def counting(M, U, *args, **kwargs):
        calls.append(len(U))
        return real(M, U, *args, **kwargs)

    monkeypatch.setattr(integrate, "radial_roots", counting)
    counts = []
    for count in (30, 300):
        calls.clear()
        Z, labels = stratified_points(example2, count, seed=0)
        assert Z.shape == (count, 3) and labels.shape == (count,)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_support_pattern_points_realize_each_support(example2):
    supports = [(2,), (1, 2), (1,), (2,)] * 5
    Z = support_pattern_points(example2, supports, seed=9)
    for z, support in zip(Z, supports):
        assert stratum_info(example2, z)[1] == support
    assert np.all(np.abs(example2.rho.value(Z)) <= example2.surface_tolerance)


def test_support_pattern_points_name_an_unrealizable_pattern():
    from fractions import Fraction

    from szegolab.geometry import DefiningPolynomial, Manifold

    # |z1|^2 + 1e-4 |z2|^2 = 1: the z2 axis meets X at |z2| = 100, beyond RAY_T_MAX
    terms = {
        ((1, 0), (1, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(1, 10_000),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    M = Manifold(2, (1, 2), DefiningPolynomial(2, terms))
    with pytest.raises(SamplingError, match=r"support pattern \(1,\)"):
        support_pattern_points(M, [(0,), (1,)], seed=0)


@pytest.mark.parametrize("align_orbit", [False, True])
@pytest.mark.parametrize("preset, radius", [("wsphere12", 0.1), ("example2", 0.3)])
def test_ball_points_match_per_try_loop(request, preset, radius, align_orbit):
    M = request.getfixturevalue(preset)
    x0 = random_point(M, 5)
    got = ball_points(M, x0, radius, 50, seed=8, align_orbit=align_orbit)
    ref = ball_points_loop(M, x0, radius, 50, seed=8, align_orbit=align_orbit)
    assert got.shape == ref.shape == (50, M.n)
    assert np.max(np.abs(got - ref)) <= 1e-15


def test_torus_invariant_on_spheres_not_example2(sphere2, sphere3, wsphere12, wsphere126, example2):
    assert all(torus_invariant(M) for M in (sphere2, sphere3, wsphere12, wsphere126))
    assert not torus_invariant(example2)
    with pytest.raises(ValueError, match="torus-invariant"):
        torus_quadrature(example2, 4)


def test_torus_quadrature_weights_sum_to_area(sphere2, wsphere126):
    for M in (sphere2, wsphere126):
        S = torus_quadrature(M, 10)
        assert S.weights.sum() == pytest.approx(sphere_area(M.n), rel=1e-14)
        assert np.max(np.abs(np.linalg.norm(S.points, axis=1) - 1)) <= 1e-15


@pytest.mark.parametrize("q", [2, 3, 10, 39, 80])
def test_gauss_legendre_against_mpmath(q):
    # 40-digit roots of P_q, polished from the float nodes, and the weights
    # 2 / ((1 - x^2) P_q'(x)^2) there
    x, w = integrate._gauss_legendre(q)
    assert np.all(np.diff(x) > 0)
    np.testing.assert_array_equal(x, -x[::-1])
    with mpmath.workdps(40):
        for xi, wi in zip(x.tolist(), w.tolist()):
            r = mpmath.findroot(lambda t: mpmath.legendre(q, t), mpmath.mpf(xi))
            dp = q * (mpmath.legendre(q - 1, r) - r * mpmath.legendre(q, r)) / (1 - r * r)
            exact = 2 / ((1 - r * r) * dp * dp)
            assert abs(xi - r) <= 2e-16
            assert abs((wi - exact) / exact) <= 3.1e-14
