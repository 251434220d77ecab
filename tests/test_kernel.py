import cmath
import math

import numpy as np
import pytest

from conftest import random_point, random_points
from oracles import sphere2_kernel_closed_form

from szegolab.basis import (
    COMPLIANT,
    ROUND_EXACT,
    enumerate_multiindices,
    eval_basis_batch,
    fourier_basis,
    monomial_values,
    sphere_monomial_norm_sq,
)
from szegolab.errors import InsufficientLevelsError, UndefinedRatioError
from szegolab.integrate import integrate_surface, sample_sphere
from szegolab.kernel import (
    decay_profile,
    fit_expansion,
    kernel_diagonal,
    ratio_diagnostic,
    ratio_search,
    root_of_unity_selector,
    stratum_vanishing_check,
    szego_kernel,
)


class TestKernelValues:
    def test_sphere_diagonal_closed_form(self, sphere2):
        for m in (1, 5, 12):
            B = fourier_basis(sphere2, m)
            for seed in (0, 1):
                x = random_point(sphere2, seed)
                val = kernel_diagonal(B, x)
                assert val == pytest.approx((m + 1) / (2 * math.pi**2), rel=1e-10)

    def test_sphere_offdiagonal_closed_form(self, sphere2):
        B = fourier_basis(sphere2, 7)
        x, y = random_points(sphere2, 2, seed=5)
        got = szego_kernel(B, x, y).value
        expected = sphere2_kernel_closed_form(7, x.coordinates, y.coordinates)
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_direct_summation_oracle(self, sphere2):
        # independent route: sum_alpha z^alpha(x) conj(z^alpha(y)) / ||z^alpha||^2
        m = 6
        idx = enumerate_multiindices(sphere2.weights, m)
        x, y = random_points(sphere2, 2, seed=9)
        vx = monomial_values(x.coordinates, idx)
        vy = monomial_values(y.coordinates, idx)
        norms = np.array([sphere_monomial_norm_sq(alpha, 2).value() for alpha in idx.tolist()])
        direct = np.sum(vx * vy.conj() / norms)
        B = fourier_basis(sphere2, m)
        assert abs(szego_kernel(B, x, y).value - direct) < 1e-12

    def test_reproducing_property_mc(self, sphere2):
        m = 4
        B = fourier_basis(sphere2, m)
        x = random_point(sphere2, 3)
        S = sample_sphere(2, 200_000, seed=8)

        def f(Z):
            vals = eval_basis_batch(B, Z)
            kern = eval_basis_batch(B, x.coordinates[None, :])[0]
            # S_m(x, y) g(y) with g the first basis element
            return (kern[None, :] @ vals.conj().T)[0] * vals[:, 0]

        est, stderr = integrate_surface(f, S)
        target = complex(np.asarray(eval_basis_batch(B, x.coordinates[None, :]))[0, 0])
        assert abs(est - target) < 5 * stderr

    def test_equivariance_exact(self, wsphere126):
        B = fourier_basis(wsphere126, 8, measure=ROUND_EXACT)
        x, y = random_points(wsphere126, 2, seed=2)
        base = szego_kernel(B, x, y).value
        for theta in (0.4, 2.2):
            xt, yt = wsphere126.act(theta, x), wsphere126.act(theta, y)
            assert abs(szego_kernel(B, xt, yt).value - base) < 1e-12 * max(1, abs(base))

    def test_hermitian_positivity_cauchy_schwarz(self, sphere2, wsphere12, wsphere126):
        # all pairs of 40 points per manifold (1600 >= 1000 sampled pairs)
        for M in (sphere2, wsphere12, wsphere126):
            B = fourier_basis(M, 10, measure=ROUND_EXACT)
            pts = np.stack(
                [random_point(M, 50 + 3 * s).coordinates for s in range(40)]
            )
            F = eval_basis_batch(B, pts)
            K = F @ F.conj().T  # K[i, j] = S_m(x_i, x_j)
            diag = np.real(np.diag(K))
            assert np.all(diag >= 0)
            assert np.max(np.abs(K - K.conj().T)) < 1e-12 * max(1, diag.max())
            cs = np.abs(K) ** 2 - np.outer(diag, diag) * (1 + 1e-12)
            assert np.all(cs <= 1e-12)

    def test_basis_independence(self, wsphere12):
        from szegolab.basis import gram_matrix, orthonormalize
        from szegolab.integrate import surface_samples

        idx = enumerate_multiindices(wsphere12.weights, 8)
        S = surface_samples(wsphere12, 60_000, 1)
        G = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S)
        B1 = orthonormalize(idx, G, wsphere12.weights)
        P = np.random.default_rng(0).permutation(len(idx))
        B2 = orthonormalize(
            idx[P], G.matrix[np.ix_(P, P)], wsphere12.weights, measure=COMPLIANT
        )
        x, y = random_points(wsphere12, 2, seed=21)
        v1 = szego_kernel(B1, x, y).value
        v2 = szego_kernel(B2, x, y).value
        assert abs(v1 - v2) < 1e-10 * max(1, abs(v1))


class TestStratumVanishing:
    def test_weights_12(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        for m in (1, 3, 5, 7, 9):
            B = fourier_basis(wsphere12, m, measure=ROUND_EXACT)
            assert stratum_vanishing_check(B, wsphere12, x0) == 0.0

    def test_weights_126(self, wsphere126):
        x0 = wsphere126.point([0.0, 0.0, 1.0])
        B = fourier_basis(wsphere126, 8, measure=ROUND_EXACT)
        assert stratum_vanishing_check(B, wsphere126, x0) == 0.0

    def test_divisible_level_rejected(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        B = fourier_basis(wsphere12, 4, measure=ROUND_EXACT)
        with pytest.raises(ValueError, match="divisible"):
            stratum_vanishing_check(B, wsphere12, x0)

    def test_regular_point_rejected(self, wsphere12):
        x = random_point(wsphere12, 1)
        B = fourier_basis(wsphere12, 3, measure=ROUND_EXACT)
        with pytest.raises(ValueError, match="singular"):
            stratum_vanishing_check(B, wsphere12, x)

    def test_vanishing_forces_kernel_row_zero(self, wsphere12):
        # S_m(x, x0) = 0 for every x once all basis values vanish at x0
        x0 = wsphere12.point([0.0, 1.0])
        B = fourier_basis(wsphere12, 7, measure=ROUND_EXACT)
        for seed in range(3):
            x = random_point(wsphere12, seed)
            assert szego_kernel(B, x, x0).value == 0


class TestRootOfUnity:
    def test_selector_table(self):
        for k in range(1, 13):
            for m in range(0, 201):
                v = root_of_unity_selector(k, m)
                assert v == (k if m % k == 0 else 0)
                fl = sum(cmath.exp(2j * cmath.pi * s * m / k) for s in range(k))
                assert abs(fl - v) < 1e-9


class TestFitExpansion:
    def test_sphere2_exact(self, sphere2):
        x = random_point(sphere2, 0)
        fit = fit_expansion(sphere2, x, 20, 60)
        assert fit.relative_error < 1e-12
        # closed form (m+1)/(2 pi^2): both coefficients equal 1/(2 pi^2)
        assert fit.c_lead == pytest.approx(1 / (2 * math.pi**2), rel=1e-12)
        assert fit.c_next == pytest.approx(1 / (2 * math.pi**2), rel=1e-8)

    def test_insufficient_levels(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        with pytest.raises(InsufficientLevelsError):
            fit_expansion(wsphere12, x0, 20, 25)

    def test_only_admissible_levels_used(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        fit = fit_expansion(wsphere12, x0, 20, 40, samples=40_000, seed=3)
        assert all(m % 2 == 0 for m in fit.levels)
        assert fit.stratum_order == 2

    def test_values_match_single_level_bases(self, wsphere12):
        x = random_point(wsphere12, 4)
        fit = fit_expansion(wsphere12, x, 10, 16, samples=30_000, seed=6)
        assert fit.levels == tuple(range(10, 17))
        for m, value in zip(fit.levels, fit.values):
            B = fourier_basis(wsphere12, m, samples=30_000, seed=6)
            assert value == pytest.approx(kernel_diagonal(B, x), rel=1e-12)

    def test_diagonal_growth_bounded(self, wsphere126):
        # S_m(x, x) / m^{n-1} stays within fixed positive bounds, at regular
        # and stabilized points alike (admissible levels only)
        x_reg = random_point(wsphere126, 12)
        x_sing = wsphere126.point([0.0, 0.0, 1.0])
        for x, k in ((x_reg, 1), (x_sing, 6)):
            ratios = []
            for m in range(24, 61, 6):
                if m % k:
                    continue
                B = fourier_basis(wsphere126, m, measure=ROUND_EXACT)
                ratios.append(kernel_diagonal(B, x) / m**2)
            assert min(ratios) > 0
            assert max(ratios) / min(ratios) < 10


class TestDecay:
    def test_sphere_slope_matches_inner_product(self, sphere2):
        bases = {m: fourier_basis(sphere2, m) for m in range(5, 41)}
        for seed in range(5):
            x, y = random_points(sphere2, 2, seed=60 + seed * 3)
            inner = abs(np.sum(x.coordinates * y.coordinates.conj()))
            if inner < 0.15:
                continue
            prof = decay_profile(sphere2, x, y, range(5, 41), bases=bases)
            assert prof.slope == pytest.approx(math.log(inner), rel=1e-6)
            assert prof.r_squared > 0.999999

    def test_same_orbit_rejected(self, sphere2):
        x = random_point(sphere2, 1)
        y = sphere2.act(1.0, x)
        with pytest.raises(ValueError, match="same orbit"):
            decay_profile(sphere2, x, y, range(5, 15))

    def test_slope_monotone_in_separation(self, sphere2):
        # pairs with increasing separation have increasingly negative slopes
        bases = {m: fourier_basis(sphere2, m) for m in range(5, 31)}
        base = np.array([1.0, 0.0], dtype=complex)
        slopes = []
        for t in (0.25, 0.5, 0.75, 1.0, 1.2):
            other = np.array([math.cos(t), math.sin(t)], dtype=complex)
            prof = decay_profile(
                sphere2, sphere2.point(base), sphere2.point(other), range(5, 31), bases=bases
            )
            slopes.append(prof.slope)
        assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_underflow_truncates_with_flag(self, sphere2):
        # inner product 0.34: the ratio crosses the representability floor
        # inside the window, so the top levels are dropped and flagged
        levels = range(560, 621, 5)
        bases = {m: fourier_basis(sphere2, m) for m in levels}
        x = sphere2.point([1.0, 0.0])
        y = sphere2.point([0.34, math.sqrt(1 - 0.34**2)])
        prof = decay_profile(sphere2, x, y, levels, bases=bases)
        assert prof.truncated
        assert max(prof.levels) < 620
        assert prof.slope == pytest.approx(math.log(0.34), rel=1e-6)


class TestRatio:
    def test_diagonal_ratio_approaches_one(self, sphere2):
        x = random_point(sphere2, 2)
        for m in (10, 30, 50):
            B1 = fourier_basis(sphere2, m)
            B2 = fourier_basis(sphere2, m + 1)
            R, I = ratio_diagnostic(B1, B2, x, x)
            assert R == pytest.approx((m + 2) / (m + 1), rel=1e-10)
            assert abs(I) < 1e-12

    def test_far_point_ratio_undefined(self, sphere2):
        B1 = fourier_basis(sphere2, 60)
        B2 = fourier_basis(sphere2, 61)
        x = sphere2.point([1.0, 0.0])
        y = sphere2.point([0.3, math.sqrt(1 - 0.09)])
        with pytest.raises(UndefinedRatioError):
            ratio_diagnostic(B1, B2, y, x)

    def test_ratio_search_finds_window(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        rep = ratio_search(
            wsphere12, x0, m_candidates=[30], radii=[0.1],
            points_per_ball=20, samples=60_000, seed=13,
        )
        assert rep.passing_m == 30 and rep.passing_radius == 0.1

    def test_ratio_search_draws_no_samples_on_wsphere12(self, wsphere12, monkeypatch):
        from szegolab import basis, integrate, kernel

        def refuse(*args, **kwargs):
            raise AssertionError("surface_samples called")

        for module in (basis, integrate, kernel):
            monkeypatch.setattr(module, "surface_samples", refuse)
        x0 = wsphere12.point([0.0, 1.0])
        rep = ratio_search(
            wsphere12, x0, m_candidates=[30], radii=[0.1], measure=COMPLIANT,
            points_per_ball=20, samples=60_000, seed=13,
        )
        assert rep.passing_m == 30 and rep.passing_radius == 0.1

    def test_ratio_search_builds_each_level_once(self, wsphere12, monkeypatch):
        from szegolab import basis
        from szegolab.integrate import ball_points

        x0 = wsphere12.point([0.0, 1.0])
        candidates, radii, samples, seed = [3, 4, 5], [0.3, 0.1], 20_000, 2
        # the search as one pair of single-level bases per candidate; on the
        # torus-invariant wsphere12 their Grams come from the simplex rule
        expected = []
        for m in candidates:
            B_low = fourier_basis(wsphere12, 2 * m)
            B_high = fourier_basis(wsphere12, 2 * (m + 1))
            for radius in radii:
                worst_r, worst_i = 0.0, 0.0
                for x in ball_points(wsphere12, x0, radius, 10, seed=seed + m, align_orbit=True):
                    try:
                        R, I = ratio_diagnostic(B_low, B_high, x, x0)
                    except UndefinedRatioError:
                        worst_r, worst_i = float("inf"), float("inf")
                        break
                    worst_r, worst_i = max(worst_r, abs(1.0 - R)), max(worst_i, abs(I))
                expected.append((m, radius, worst_r, worst_i))

        built = []
        grams = basis.gram_matrices

        def counting_grams(level_indices, *args, **kwargs):
            built.extend(level_indices)
            return grams(level_indices, *args, **kwargs)

        monkeypatch.setattr(basis, "gram_matrices", counting_grams)
        rep = ratio_search(
            wsphere12, x0, m_candidates=candidates, radii=radii, sigma=1e-6,
            points_per_ball=10, samples=samples, seed=seed,
        )
        assert sorted(built) == [6, 8, 10, 12]
        assert rep.passing_m is None and rep.passing_radius is None
        assert [a[:2] for a in rep.attempts] == [a[:2] for a in expected]
        for got, want in zip(rep.attempts, expected):
            assert got[2:] == pytest.approx(want[2:], rel=1e-9)
