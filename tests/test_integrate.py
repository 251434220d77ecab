import math

import mpmath
import numpy as np
import pytest

from conftest import random_point
from oracles import ball_points_loop, integrate_surface, sample_hypersurface_one_shot, stratum_info

import szegolab.integrate as integrate
from szegolab.basis import enumerate_multiindices, monomial_values, sphere_monomial_norm_sq
from szegolab.embedding import ImmersionReport, SeparationReport, build_embedding, immersion_job, separation_job
from szegolab.errors import SamplingError
from szegolab.geometry import ROW_BLOCK
from szegolab.integrate import (
    ball_points,
    compliant_density,
    hypersurface_blocks,
    sample_hypersurface,
    sample_sphere,
    pair_job,
    pattern_job,
    plan_job,
    projection_job,
    solve_rays,
    sphere_area,
    stratified_job,
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


@pytest.fixture
def two_radii():
    """|z1|^2 / 4 + |z2|^2 = 1: the z1 axis meets X at t = 2, the z2 axis at t = 1."""
    from fractions import Fraction

    from szegolab.geometry import DefiningPolynomial, Manifold

    terms = {
        ((1, 0), (1, 0)): Fraction(1, 4),
        ((0, 1), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    return Manifold(2, (1, 1), DefiningPolynomial(2, terms))


@pytest.fixture
def root_calls(monkeypatch):
    """The ray count of every radial_roots call, in order."""
    calls = []
    real = integrate.radial_roots

    def counting(M, U):
        calls.append(len(U))
        return real(M, U)

    monkeypatch.setattr(integrate, "radial_roots", counting)
    return calls


def _axis_job(axis, sizes):
    """Fake ray job: sizes[k] rays along one coordinate axis of C^2 at step k;
    returns the roots it was sent."""
    sent = []
    for k in sizes:
        U = np.zeros((k, 2), dtype=complex)
        U[:, axis] = 1.0
        sent.append((yield U))
    return sent


def test_lockstep_jobs_share_one_root_call_per_step(two_radii, root_calls):
    a, b, c = solve_rays(two_radii, _axis_job(0, [2, 0, 3]), _axis_job(1, [1, 4]), _axis_job(1, []))
    # a job may ask for no rays in a step, and jobs end at different steps
    assert root_calls == [3, 4, 3]
    assert [t.tolist() for t in a] == [[2.0, 2.0], [], [2.0, 2.0, 2.0]]
    assert [t.tolist() for t in b] == [[1.0], [1.0] * 4]
    assert c == []
    root_calls.clear()
    [(t,)] = solve_rays(two_radii, _axis_job(0, [0]))
    assert root_calls == [0] and t.shape == (0,)


def test_lockstep_error_names_its_pattern(flat_ellipsoid, root_calls):
    # the z2 axis meets X beyond RAY_T_MAX: the pattern job raises after its
    # last round, when the axis job beside it has long finished
    with pytest.raises(SamplingError, match=r"support pattern \(1,\)"):
        solve_rays(flat_ellipsoid, _axis_job(0, [2, 1]), pattern_job(flat_ellipsoid, [(0,), (1,)], 0))
    assert len(root_calls) == integrate._MAX_ROUNDS
    assert root_calls[:2] == [4, 2]


def test_a_ray_meeting_x_tangentially_raises():
    # rho = -(|z|^2 - 1)^2 touches 0 on the unit sphere without changing sign:
    # the axis rays find the root t = 1 exactly, where x . grad rho = 0
    from fractions import Fraction

    from szegolab.geometry import DefiningPolynomial, Manifold

    terms = {
        ((2, 0), (2, 0)): Fraction(-1),
        ((1, 1), (1, 1)): Fraction(-2),
        ((0, 2), (0, 2)): Fraction(-1),
        ((1, 0), (1, 0)): Fraction(2),
        ((0, 1), (0, 1)): Fraction(2),
        ((0, 0), (0, 0)): Fraction(-1),
    }
    M = Manifold(2, (1, 1), DefiningPolynomial(2, terms))
    with pytest.raises(SamplingError, match="non-transversally"):
        solve_rays(M, integrate._coarea_rule(M, np.eye(2, dtype=complex), 1.0))
    # a pattern row is checked like a regular one: the z_1 axis meets X at t = 1
    with pytest.raises(SamplingError, match="non-transversally"):
        support_pattern_points(M, [(0,)])


@pytest.mark.parametrize("scale", [1, 10**-5, 10**5])
def test_the_transversality_bound_scales_with_rho(scale):
    # the touch bound sqrt(|rho(0)| surface_tolerance) scales with rho, so a
    # transversal X keeps sampling and a touching one keeps raising
    from fractions import Fraction

    from szegolab.geometry import DefiningPolynomial, Manifold

    c = Fraction(scale)
    ellipse = {((1, 0), (1, 0)): c, ((0, 1), (0, 1)): c / 4, ((0, 0), (0, 0)): -c}
    # -c (|z_1|^2 - 1)^2 + c |z_2|^2: the z_1 axis touches X at |z_1| = 1
    touch = {((2, 0), (2, 0)): -c, ((1, 0), (1, 0)): 2 * c, ((0, 1), (0, 1)): c, ((0, 0), (0, 0)): -c}
    M = Manifold(2, (1, 2), DefiningPolynomial(2, ellipse))
    assert stratified_points(M, 10, seed=0)[0].shape == (10, 2)
    assert sample_hypersurface(M, 50, seed=0).count == 50
    with pytest.raises(SamplingError, match="non-transversally"):
        support_pattern_points(Manifold(2, (1, 2), DefiningPolynomial(2, touch)), [(0,)] * 5)


def _report_parts(report) -> tuple[tuple, np.ndarray]:
    """An immersion or separation report as (its exact fields, its floats)."""
    if isinstance(report, ImmersionReport):
        floats = [r[3] for r in report.records] + report.argmin_point.view(float).tolist()
        return ([r[:3] for r in report.records], report.argmin_index, report.failures), np.array(floats)
    floats = [report.min_image_distance, report.min_same_orbit_image_distance, report.image_scale]
    return (report.pair_count, report.violations), np.array(floats)


def _regular_plan(M, count, seed):
    """plan_job on count regular rows, directions from the fit point's key."""
    rows = np.ones((count, M.n), dtype=bool)
    return plan_job(M, rows, np.full(count, "regular"), integrate._stream(seed, integrate.POINT_KEY), None)


def test_jobs_together_equal_jobs_alone(example2):
    # each job draws from its own stream; only the batch a ray is solved in
    # differs, whose rounding can move a root by the last bits
    example2.strata
    Phi = build_embedding(example2, 4)
    rng = np.random.default_rng(4)
    Z = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    supports = [(2,), (1, 2), (1,), (0, 1, 2)] * 3

    def jobs(seed, pairs=60):
        return [
            _regular_plan(example2, 25, seed),
            pattern_job(example2, supports, seed + 1000),
            stratified_job(example2, 30, seed),
            projection_job(Z),
            immersion_job(Phi, 30, seed),
            separation_job(Phi, pairs, 0.05, seed),
            pair_job(example2, pairs, seed),
        ]

    for seed in range(4):
        together = solve_rays(example2, *jobs(seed))
        alone = [solve_rays(example2, job)[0] for job in jobs(seed)]
        for mixed, solo in zip(together, alone):
            if isinstance(solo, tuple):  # stratified_job: (points, labels); pair_job: (X, Y, kinds)
                assert np.array_equal(mixed[-1], solo[-1])
                mixed, solo = np.stack(mixed[:-1]), np.stack(solo[:-1])
            if isinstance(solo, (ImmersionReport, SeparationReport)):
                (exact, mixed), (exact_solo, solo) = _report_parts(mixed), _report_parts(solo)
                assert exact == exact_solo
            np.testing.assert_allclose(mixed, solo, rtol=1e-15, atol=0)
            if seed == 0:
                assert np.array_equal(mixed, solo)
        # the immersion sample has a stream of its own: the pair count moves
        # none of its points
        more_pairs = solve_rays(example2, *jobs(seed, pairs=300))
        assert _report_parts(more_pairs[4])[0] == _report_parts(together[4])[0]
        np.testing.assert_allclose(_report_parts(more_pairs[4])[1], _report_parts(together[4])[1], rtol=1e-15)


def test_near_steps_do_not_reuse_the_direction_draws(example2, monkeypatch):
    # the near-stratum steps once came from a fresh generator on the stream
    # whose first normals the regular directions had read, so the steps were
    # those directions reshaped
    example2.strata
    draws = []

    class Recording(np.random.Generator):
        def normal(self, *args, **kwargs):
            out = super().normal(*args, **kwargs)
            draws.append(out.ravel())
            return out

    monkeypatch.setattr(np.random, "Generator", Recording)
    _, labels = stratified_points(example2, 30, seed=0)
    directions, steps = draws[0], draws[-1]
    assert steps.size == np.count_nonzero(labels == "near-stratum") * example2.n * 2
    assert not np.isin(steps, directions).any()


def test_public_wrappers_are_their_jobs_alone(example2):
    supports = [(2,), (1, 2)] * 3
    [X] = solve_rays(example2, _regular_plan(example2, 12, 3))
    assert np.array_equal(integrate.random_surface_points(example2, 12, 3), X)
    # random points and Gram samples read streams of their own: no row is shared
    samples = sample_hypersurface(example2, 12, 3).points
    assert not np.any(np.all(X[:, None, :] == samples[None, :, :], axis=2))
    [X] = solve_rays(example2, pattern_job(example2, supports, 5))
    assert np.array_equal(support_pattern_points(example2, supports, 5), X)
    [(X, labels)] = solve_rays(example2, stratified_job(example2, 20, 1))
    Z, labels2 = stratified_points(example2, 20, 1)
    assert np.array_equal(Z, X) and np.array_equal(labels, labels2)


@pytest.mark.parametrize("preset, radius", [("wsphere12", 0.1), ("example2", 0.3)])
def test_ball_points_match_per_try_loop(request, preset, radius):
    M = request.getfixturevalue(preset)
    x0 = random_point(M, 5)
    got = ball_points(M, x0, radius, 50, seed=8)
    ref = ball_points_loop(M, x0, radius, 50, seed=8)
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
