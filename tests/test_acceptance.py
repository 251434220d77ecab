"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here and nowhere else."""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_point, random_points
from oracles import integrate_surface

from szegolab.basis import (
    COMPLIANT,
    ROUND_EXACT,
    dimension,
    eval_basis,
    eval_basis_batch,
    fourier_bases,
    fourier_basis,
)
from szegolab.embedding import (
    build_embedding,
    check_equivariance,
    immersion_report,
    phase_pair_demo,
    separation_report,
)
from szegolab.fourier import circle_average, default_quadrature
from szegolab.integrate import project_radially, sample_sphere
from szegolab.kernel import (
    fit_expansion,
    ratio_search,
    root_of_unity_selector,
    stratum_vanishing_check,
)


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as e:
        failed = e
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None else "FAIL"
        print(f"[{status}] criterion {number}: {title} ({elapsed:.2f}s / budget {budget_seconds}s)")
        if failed is None:
            assert elapsed <= budget_seconds, (
                f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s"
            )


def test_criterion_01_leading_coefficient(sphere2, sphere3):
    with criterion(1, "leading-coefficient reproduction on round spheres", 10):
        x2 = random_point(sphere2, 0)
        fit2 = fit_expansion(sphere2, x2, 20, 60, measure=ROUND_EXACT)
        assert fit2.relative_error <= 0.01
        assert fit2.predicted == pytest.approx(1 / (2 * math.pi**2), rel=1e-12)
        x3 = random_point(sphere3, 1)
        fit3 = fit_expansion(sphere3, x3, 20, 60, measure=ROUND_EXACT)
        assert fit3.relative_error <= 0.01
        assert fit3.predicted == pytest.approx(1 / (2 * math.pi**3), rel=1e-12)
        # exact closed-form cross-checks of the fitted diagonals
        for m, v in zip(fit2.levels, fit2.values):
            assert v == pytest.approx((m + 1) / (2 * math.pi**2), rel=1e-10)
        for m, v in zip(fit3.levels, fit3.values):
            assert v == pytest.approx(math.comb(m + 2, 2) / math.pi**3, rel=1e-10)


def test_criterion_02_stratum_vanishing(wsphere12, wsphere126):
    with criterion(2, "exact vanishing at stabilized points for k not dividing m", 5):
        x12 = wsphere12.point([0.0, 1.0])
        bases = fourier_bases(wsphere12, [m for m in range(1, 61) if m % 2], measure=ROUND_EXACT)
        assert np.all(stratum_vanishing_check(list(bases.values()), wsphere12, x12) <= 1e-12)
        x126 = wsphere126.point([0.0, 0.0, 1.0])
        bases = fourier_bases(wsphere126, [m for m in range(1, 61) if m % 6], measure=ROUND_EXACT)
        assert np.all(stratum_vanishing_check(list(bases.values()), wsphere126, x126) <= 1e-12)


def test_criterion_03_root_of_unity_selector():
    with criterion(3, "root-of-unity selector, exact integers", 1):
        for k in range(1, 13):
            for m in range(0, 201):
                v = root_of_unity_selector(k, m)
                assert v == (k if m % k == 0 else 0)
        # spot float cross-check on a coarse subgrid
        for k in (2, 5, 12):
            for m in (0, 3, 60, 144, 200):
                fl = sum(cmath.exp(2j * cmath.pi * s * m / k) for s in range(k))
                assert abs(fl - root_of_unity_selector(k, m)) < 1e-9


def test_criterion_04_factor_k_stretch(wsphere12):
    with criterion(4, "factor-k diagonal law under the unit-field measure", 60):
        x0 = wsphere12.point([0.0, 1.0])
        fit = fit_expansion(
            wsphere12, x0, 20, 60, measure=COMPLIANT, samples=200_000, seed=7
        )
        print(
            f"  fitted leading coefficient {fit.c_lead:.6f}, "
            f"predicted (k/2pi) pi^-1 |det L| = {fit.predicted:.6f} "
            f"(k={fit.stratum_order}, det L={fit.levi_determinant})"
        )
        assert fit.stratum_order == 2
        assert fit.levi_determinant == pytest.approx(0.5, abs=1e-10)
        # a failure here with both numbers finite indicates a measure
        # convention mismatch, not a sampling problem; report both
        assert fit.relative_error <= 0.002, (
            f"fitted {fit.c_lead} vs predicted {fit.predicted}"
        )


def test_criterion_05_equivariance(sphere2, wsphere12, wsphere126):
    with criterion(5, "equivariance residual at 200 random (x, theta) per preset", 5):
        rng = np.random.default_rng(17)
        for M, m in ((sphere2, 2), (wsphere12, 4), (wsphere126, 4)):
            Phi = build_embedding(M, m)
            for _ in range(200):
                g = rng.normal(size=(M.n, 2))
                z = project_radially(M, g[:, 0] + 1j * g[:, 1])
                x = M.point(z)
                theta = float(rng.uniform(0, 2 * math.pi))
                assert check_equivariance(Phi, x, theta) <= 1e-10


def test_criterion_06_minimal_weight_law(sphere2, wsphere12, wsphere126):
    with criterion(6, "minimal coordinate weight exceeds the requested bound", 10):
        for M in (sphere2, wsphere12, wsphere126):
            for m0 in (10, 100):
                Phi = build_embedding(M, m0 + 1)
                assert Phi.min_weight > m0


def test_criterion_07_immersion_certificate(sphere2, wsphere12, wsphere126, example2):
    with criterion(7, "positive immersion floor, stable across seeds", 60):
        for M, m in ((sphere2, 2), (wsphere12, 4), (wsphere126, 4), (example2, 4)):
            Phi = build_embedding(M, m)
            floors = []
            for seed in (1, 2, 3):
                rep = immersion_report(Phi, samples=100, seed=seed)
                assert rep.min_singular_value > 1e-6
                assert not rep.failures
                floors.append(rep.min_singular_value)
            assert max(floors) <= 1.2 * min(floors), floors


def test_criterion_08_separation_certificate(sphere2, wsphere12, wsphere126, example2):
    with criterion(8, "zero separation violations; phase-pair failure detected", 120):
        for M, m in ((sphere2, 2), (wsphere12, 4), (wsphere126, 4), (example2, 4)):
            Phi = build_embedding(M, m)
            rep = separation_report(Phi, pair_count=10_000, threshold=0.05, seed=11)
            assert rep.violations == (), rep.violations[:1]
            assert rep.min_image_distance > 0
        demo = phase_pair_demo(wsphere12, wsphere12.point([0.0, 1.0]), 4)
        assert demo.violation_detected
        assert demo.distance_with_paired_levels > 1.0


def _orbit_distance_gap(M, x, y, grid=2048):
    """(closest, second local minimum) of |x - e^{i theta}.y| over the orbit."""
    thetas = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    w = M.weights.array.astype(float)
    ph = np.exp(1j * np.outer(thetas, w))
    d = np.linalg.norm(x[None, :] - y[None, :] * ph, axis=1)
    i = int(np.argmin(d))
    mask = np.ones(grid, bool)
    mask[np.arange(i - grid // 8, i + grid // 8 + 1) % grid] = False
    return float(d[i]), float(d[mask].min())


def test_criterion_09_offdiagonal_decay(sphere2, wsphere12, wsphere126):
    from szegolab.kernel import decay_profile

    with criterion(9, "off-diagonal exponential decay rates", 10):
        bases2 = {m: fourier_basis(sphere2, m) for m in range(5, 41)}
        checked = 0
        seed = 0
        while checked < 5:
            x, y = random_points(sphere2, 2, seed=200 + seed)
            seed += 1
            inner = abs(np.sum(x * y.conj()))
            if not 0.2 <= inner <= 0.9:
                continue
            prof = decay_profile(sphere2, x, y, range(5, 41), bases=bases2)
            assert abs(prof.slope - math.log(inner)) <= 0.02 * abs(math.log(inner))
            checked += 1
        # weighted presets: pairs offset along a holomorphic tangent
        # direction, keeping a single dominating orbit representative
        # (competing representatives at comparable distance beat against
        # each other in m and mask the exponential law at desk scale)
        for M in (wsphere12, wsphere126):
            levels = range(20, 61, 2)
            bases = {m: fourier_basis(M, m, measure=ROUND_EXACT) for m in levels}
            hits = 0
            seed = 0
            while hits < 3:
                rng = np.random.default_rng(500 + seed)
                g = rng.normal(size=M.n) + 1j * rng.normal(size=M.n)
                x = M.point(project_radially(M, g))
                v = M.holomorphic_tangent_frame(x)[seed % (M.n - 1)]
                y = M.point(project_radially(M, x + 0.4 * v))
                seed += 1
                d1, d2 = _orbit_distance_gap(M, x, y)
                if d1 < 0.3 or d2**2 - d1**2 < 0.6:
                    continue
                prof = decay_profile(M, x, y, levels, bases=bases)
                assert prof.slope < 0
                assert prof.r_squared >= 0.99
                hits += 1


def test_criterion_10_ratio_diagnostics(wsphere12):
    with criterion(10, "consecutive-level ratio bounds near a stabilized point", 30):
        x0 = wsphere12.point([0.0, 1.0])
        rep = ratio_search(
            wsphere12,
            x0,
            m_candidates=[30, 40, 50, 60],
            radii=[0.3, 0.1, 0.03],
            sigma=0.05,
            imag_bound=0.01,
            points_per_ball=50,
            measure=COMPLIANT,
            samples=200_000,
            seed=23,
        )
        print(f"  first passing (m, radius) = ({rep.passing_m}, {rep.passing_radius})")
        assert rep.passing_m is not None and rep.passing_m <= 60
        assert rep.passing_radius in (0.3, 0.1, 0.03)


def test_criterion_11_fourier_projector(wsphere126, sphere2):
    with criterion(11, "orbit projector exactness and finite-span energy split", 5):
        rng = np.random.default_rng(31)
        Q = default_quadrature(40)
        x = random_point(wsphere126, 9)
        w = np.array(wsphere126.weights.weights)
        for _ in range(100):
            a = rng.integers(0, 4, size=3)
            b = rng.integers(0, 4, size=3)
            p = int(np.dot(a, w) - np.dot(b, w))

            def u(Z, a=a, b=b):
                out = np.ones(Z.shape[0], dtype=complex)
                for j in range(3):
                    if a[j]:
                        out = out * Z[:, j] ** a[j]
                    if b[j]:
                        out = out * np.conj(Z[:, j]) ** b[j]
                return out

            expected = u(x[None, :])[0]
            got = circle_average(wsphere126, u, x, p, Q)
            scale = max(1.0, abs(expected))
            assert abs(got - expected) <= 1e-12 * scale
            assert abs(circle_average(wsphere126, u, x, p + 3, Q)) <= 1e-12 * scale
        # finite-span energy split under the invariant measure
        levels = [2, 3, 4]
        coeffs = [1.0, 0.5j, -1.5]
        bases = {m: fourier_basis(sphere2, m) for m in levels}

        def span(Z):
            return sum(c * eval_basis_batch(bases[m], Z)[:, 0] for c, m in zip(coeffs, levels))

        S = sample_sphere(2, 100_000, seed=37)
        total, err_t = integrate_surface(lambda Z: np.abs(span(Z)) ** 2, S)
        parts, errs = [], []
        for c, m in zip(coeffs, levels):
            est, err = integrate_surface(
                lambda Z, c=c, m=m: np.abs(c * eval_basis_batch(bases[m], Z)[:, 0]) ** 2, S
            )
            parts.append(est)
            errs.append(err)
        tol = 5 * math.hypot(err_t, *errs)
        assert abs(total - sum(parts)) <= tol
        assert abs(total - sum(abs(c) ** 2 for c in coeffs)) <= tol + 1e-9


def test_criterion_12_dimension_asymptotics(sphere2, wsphere12, wsphere126):
    with criterion(12, "component dimension growth law", 1):
        for M in (sphere2, wsphere12, wsphere126):
            ws = M.weights.weights
            n = M.n
            L = M.weights.lcm
            m = 200 * L
            ratio = (
                dimension(M.weights, m)
                * math.factorial(n - 1)
                * math.prod(ws)
                / m ** (n - 1)
            )
            assert 0.9 <= ratio <= 1.1
