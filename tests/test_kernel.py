import cmath
import math

import numpy as np
import pytest

from conftest import random_point, random_points
from oracles import (
    integrate_surface,
    ratio_worst_loop,
    sphere2_kernel_closed_form,
    weighted_sphere_kernel_closed_form,
)

from szegolab.basis import (
    COMPLIANT,
    ROUND_EXACT,
    enumerate_multiindices,
    eval_basis_batch,
    fourier_bases,
    fourier_basis,
    monomial_values,
    sphere_monomial_norm_sq,
)
from szegolab.errors import InsufficientLevelsError, UndefinedRatioError
from szegolab.integrate import ball_points, sample_sphere, stratified_points, surface_samples
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


def direct_summation(M, m, x, y):
    """sum_alpha z^alpha(x) conj(z^alpha(y)) / ||z^alpha||^2 over the level-m
    monomials: the round-exact kernel, without any basis or Gram matrix."""
    idx = enumerate_multiindices(M.weights, m)
    norms = np.array([sphere_monomial_norm_sq(alpha, M.n).value() for alpha in idx.tolist()])
    return np.sum(monomial_values(x, idx) * monomial_values(y, idx).conj() / norms)


class TestKernelValues:
    def test_sphere_diagonal_closed_form(self, sphere2):
        levels = np.array([1, 5, 12])
        bases = [fourier_basis(sphere2, m) for m in levels]
        X = np.stack([random_point(sphere2, seed) for seed in (0, 1)])
        vals = kernel_diagonal(bases, X)
        assert vals.shape == (2, 3)
        expected = np.broadcast_to((levels + 1) / (2 * math.pi**2), vals.shape)
        assert vals == pytest.approx(expected, rel=1e-10)

    def test_sphere_offdiagonal_closed_form(self, sphere2):
        B = fourier_basis(sphere2, 7)
        x, y = random_points(sphere2, 2, seed=5)
        (got,) = szego_kernel([B], x, y)
        expected = sphere2_kernel_closed_form(7, x, y)
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_direct_summation_oracle(self, sphere2):
        # independent route: sum_alpha z^alpha(x) conj(z^alpha(y)) / ||z^alpha||^2
        m = 6
        x, y = random_points(sphere2, 2, seed=9)
        B = fourier_basis(sphere2, m)
        assert abs(szego_kernel([B], x, y)[0] - direct_summation(sphere2, m, x, y)) < 1e-12

    @pytest.mark.parametrize("name", ["sphere2", "wsphere126", "example2"])
    def test_stacked_levels_and_points_match_direct_summation(self, request, name):
        M = request.getfixturevalue(name)
        levels = [0, 3, 4, 7]
        bases = list(fourier_bases(M, levels, measure=ROUND_EXACT).values())
        X = np.stack(random_points(M, 3, seed=31))
        Y = np.stack(random_points(M, 3, seed=47))
        S = szego_kernel(bases, X, Y)
        D = kernel_diagonal(bases, X)
        assert S.shape == D.shape == (3, len(levels))
        assert D.dtype == float
        for i in range(3):
            for j, m in enumerate(levels):
                want = direct_summation(M, m, X[i], Y[i])
                assert abs(S[i, j] - want) <= 1e-12 * max(1.0, abs(want))
                want = direct_summation(M, m, X[i], X[i])
                assert abs(D[i, j] - want) <= 1e-12 * max(1.0, abs(want))
        # one pair (n,) gives the row of the batch, (L,)
        np.testing.assert_allclose(szego_kernel(bases, X[1], Y[1]), S[1], rtol=1e-14)
        np.testing.assert_allclose(kernel_diagonal(bases, X[1]), D[1], rtol=1e-14)

    def test_reproducing_property_mc(self, sphere2):
        m = 4
        B = fourier_basis(sphere2, m)
        x = random_point(sphere2, 3)
        S = sample_sphere(2, 200_000, seed=8)

        def f(Z):
            vals = eval_basis_batch(B, Z)
            kern = eval_basis_batch(B, x[None, :])[0]
            # S_m(x, y) g(y) with g the first basis element
            return (kern[None, :] @ vals.conj().T)[0] * vals[:, 0]

        est, stderr = integrate_surface(f, S)
        target = complex(np.asarray(eval_basis_batch(B, x[None, :]))[0, 0])
        assert abs(est - target) < 5 * stderr

    @pytest.mark.parametrize("name", ["sphere2", "sphere3", "wsphere12", "wsphere126"])
    def test_weighted_sphere_closed_form_to_level_200(self, request, name):
        # the diagonal to 1e-13 relative, exactly 0 where the closed form is
        # (odd levels at the z2 axis of (1, 2), say), and the off-diagonal to
        # 1e-13 sqrt(S_m(x, x) S_m(y, y)); ten levels a time bound the memory
        M = request.getfixturevalue(name)
        Z, _ = stratified_points(M, 10, seed=4)
        X, Y = Z[:5], Z[5:]
        w = M.weights.array
        diag = np.array([weighted_sphere_kernel_closed_form(w, 200, z, z).real for z in Z])
        off = np.array([weighted_sphere_kernel_closed_form(w, 200, x, y) for x, y in zip(X, Y)])
        scale = np.sqrt(diag[:5] * diag[5:])
        for start in range(1, 201, 10):
            levels = range(start, start + 10)
            bases = list(fourier_bases(M, levels, measure=ROUND_EXACT).values())
            D = kernel_diagonal(bases, Z)
            ref = diag[:, levels]
            assert np.all(np.abs(D - ref) <= 1e-13 * ref)
            S = szego_kernel(bases, X, Y)
            assert np.all(np.abs(S - off[:, levels]) <= 1e-13 * scale[:, levels])

    def test_equivariance_exact(self, wsphere126):
        B = fourier_basis(wsphere126, 8, measure=ROUND_EXACT)
        x, y = random_points(wsphere126, 2, seed=2)
        (base,) = szego_kernel([B], x, y)
        thetas = np.array([0.4, 2.2])
        rotated = szego_kernel([B], wsphere126.act(thetas, x), wsphere126.act(thetas, y))[:, 0]
        assert np.all(np.abs(rotated - base) < 1e-12 * max(1, abs(base)))

    def test_hermitian_positivity_cauchy_schwarz(self, sphere2, wsphere12, wsphere126):
        # all pairs of 40 points per manifold (1600 >= 1000 sampled pairs)
        for M in (sphere2, wsphere12, wsphere126):
            B = fourier_basis(M, 10, measure=ROUND_EXACT)
            pts = np.stack(
                [random_point(M, 50 + 3 * s) for s in range(40)]
            )
            F = eval_basis_batch(B, pts)
            K = F @ F.conj().T  # K[i, j] = S_m(x_i, x_j)
            diag = np.real(np.diag(K))
            assert np.all(diag >= 0)
            assert np.max(np.abs(K - K.conj().T)) < 1e-12 * max(1, diag.max())
            cs = np.abs(K) ** 2 - np.outer(diag, diag) * (1 + 1e-12)
            assert np.all(cs <= 1e-12)

    def test_basis_independence(self, wsphere12):
        from szegolab.basis import GramEstimate, gram_matrix, orthonormalize
        from szegolab.integrate import surface_samples

        idx = enumerate_multiindices(wsphere12.weights, 8)
        S = surface_samples(wsphere12, 60_000, 1)
        G = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S)
        B1 = orthonormalize(idx, G, wsphere12.weights)
        P = np.random.default_rng(0).permutation(len(idx))
        G2 = GramEstimate(G.matrix[np.ix_(P, P)], None, COMPLIANT, G.smallest_eigenvalue)
        B2 = orthonormalize(idx[P], G2, wsphere12.weights)
        x, y = random_points(wsphere12, 2, seed=21)
        v1, v2 = szego_kernel([B1, B2], x, y)
        assert abs(v1 - v2) < 1e-10 * max(1, abs(v1))


class TestStratumVanishing:
    def test_weights_12(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        bases = [fourier_basis(wsphere12, m, measure=ROUND_EXACT) for m in (1, 3, 5, 7, 9)]
        assert stratum_vanishing_check(bases, wsphere12, x0).tolist() == [0.0] * 5

    def test_weights_126(self, wsphere126):
        x0 = wsphere126.point([0.0, 0.0, 1.0])
        B = fourier_basis(wsphere126, 8, measure=ROUND_EXACT)
        assert stratum_vanishing_check([B], wsphere126, x0).tolist() == [0.0]

    def test_divisible_level_rejected(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        bases = [fourier_basis(wsphere12, m, measure=ROUND_EXACT) for m in (3, 4)]
        with pytest.raises(ValueError, match="level 4 is divisible"):
            stratum_vanishing_check(bases, wsphere12, x0)

    def test_regular_point_rejected(self, wsphere12):
        x = random_point(wsphere12, 1)
        B = fourier_basis(wsphere12, 3, measure=ROUND_EXACT)
        with pytest.raises(ValueError, match="singular"):
            stratum_vanishing_check([B], wsphere12, x)

    def test_vanishing_forces_kernel_row_zero(self, wsphere12):
        # S_m(x, x0) = 0 for every x once all basis values vanish at x0
        x0 = wsphere12.point([0.0, 1.0])
        B = fourier_basis(wsphere12, 7, measure=ROUND_EXACT)
        X = np.stack([random_point(wsphere12, seed) for seed in range(3)])
        assert np.all(szego_kernel([B], X, np.broadcast_to(x0, X.shape)) == 0)


class TestRootOfUnity:
    def test_selector_table(self):
        for k in range(1, 13):
            for m in range(0, 201):
                v = root_of_unity_selector(k, m)
                assert v == (k if m % k == 0 else 0)
                fl = sum(cmath.exp(2j * cmath.pi * s * m / k) for s in range(k))
                assert abs(fl - v) < 1e-9

    def test_selector_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            root_of_unity_selector(0, 3)


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
            assert value == pytest.approx(kernel_diagonal([B], x)[0], rel=1e-12)

    def test_one_block_pass_for_all_levels(self, wsphere12, monkeypatch):
        from szegolab import kernel

        calls = []
        block_values = kernel.block_values

        def counting(Z, bases):
            calls.append(len(bases))
            return block_values(Z, bases)

        monkeypatch.setattr(kernel, "block_values", counting)
        fit = fit_expansion(wsphere12, wsphere12.point([0.0, 1.0]), 20, 60)
        assert len(fit.levels) == 21
        assert calls == [21]

    def test_diagonal_growth_bounded(self, wsphere126):
        # S_m(x, x) / m^{n-1} stays within fixed positive bounds, at regular
        # and stabilized points alike (admissible levels only)
        x_reg = random_point(wsphere126, 12)
        x_sing = wsphere126.point([0.0, 0.0, 1.0])
        levels = np.arange(24, 61, 6)  # every level divisible by 6
        bases = list(fourier_bases(wsphere126, levels, measure=ROUND_EXACT).values())
        for x in (x_reg, x_sing):
            ratios = kernel_diagonal(bases, x) / levels**2
            assert min(ratios) > 0
            assert max(ratios) / min(ratios) < 10


class TestDecay:
    def test_sphere_slope_matches_inner_product(self, sphere2):
        bases = {m: fourier_basis(sphere2, m) for m in range(5, 41)}
        for seed in range(5):
            x, y = random_points(sphere2, 2, seed=60 + seed * 3)
            inner = abs(np.sum(x * y.conj()))
            if inner < 0.15:
                continue
            prof = decay_profile(sphere2, x, y, range(5, 41), bases=bases)
            assert prof.slope == pytest.approx(math.log(inner), rel=1e-6)
            assert prof.r_squared > 0.999999

    def test_same_orbit_rejected(self, sphere2):
        x = random_point(sphere2, 1)
        y = sphere2.act(1.0, x)
        with pytest.raises(ValueError, match="same orbit"):
            decay_profile(sphere2, x, y, range(5, 15), bases={})

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

        x0 = wsphere12.point([0.0, 1.0])
        candidates, radii, samples, seed = [3, 4, 5], [0.3, 0.1], 20_000, 2
        # the search as one pair of single-level bases per candidate; on the
        # torus-invariant wsphere12 their Grams come from the simplex rule
        expected = []
        for m in candidates:
            B_low = fourier_basis(wsphere12, 2 * m)
            B_high = fourier_basis(wsphere12, 2 * (m + 1))
            for radius in radii:
                Z = ball_points(wsphere12, x0, radius, 10, seed=seed)
                expected.append((m, radius, *ratio_worst_loop(B_low, B_high, Z, x0)))

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

    @pytest.mark.parametrize(
        "name, point, candidates, radii",
        [
            # a dense compliant Monte-Carlo basis pair on the only non-sphere
            ("example2", [0.0, 0.0, 0.8260313576541872], [1, 2], [0.3, 0.1]),
            # the wide ball holds points where S_60(z, x0) underflows the floor
            ("sphere2", [1.0, 0.0], [60], [1.2, 0.05]),
        ],
    )
    def test_ratio_search_matches_per_point_loop(self, request, name, point, candidates, radii):
        M = request.getfixturevalue(name)
        x0 = M.point(point)
        k = M.stratum_order(x0)
        samples, seed, count = 4000, 3, 20
        measure = "auto" if name == "sphere2" else COMPLIANT
        sample_set = surface_samples(M, samples, seed) if name == "example2" else None
        rep = ratio_search(
            M, x0, m_candidates=candidates, radii=radii, sigma=1e-9,
            points_per_ball=count, measure=measure, samples=samples, seed=seed,
        )
        expected = []
        for m in candidates:
            bases = fourier_bases(M, [k * m, k * (m + 1)], measure=measure, sample_set=sample_set)
            for radius in radii:
                Z = ball_points(M, x0, radius, count, seed=seed)
                expected.append((m, radius, *ratio_worst_loop(*bases.values(), Z, x0)))
        assert [a[:2] for a in rep.attempts] == [a[:2] for a in expected]
        for got, want in zip(rep.attempts, expected):
            # the batch divides in numpy complex arithmetic, the loop in Python's
            assert got[2:] == pytest.approx(want[2:], rel=1e-12, abs=1e-14)
        if name == "sphere2":
            assert rep.attempts[0][2:] == (math.inf, math.inf)
            assert math.isfinite(rep.attempts[1][2])

    def test_batched_ratio_names_the_first_undefined_row(self, sphere2):
        B1, B2 = fourier_bases(sphere2, [60, 61]).values()
        x = sphere2.point([1.0, 0.0])
        near = sphere2.point([math.cos(0.05), math.sin(0.05)])
        far = sphere2.point([0.3, math.sqrt(1 - 0.09)])
        R, I = ratio_diagnostic(B1, B2, np.stack([near, near]), x)
        assert R.shape == I.shape == (2,)
        assert (R[0], I[0]) == ratio_diagnostic(B1, B2, near, x)
        with pytest.raises(UndefinedRatioError, match="row 1:"):
            ratio_diagnostic(B1, B2, np.stack([near, far, far]), x)
