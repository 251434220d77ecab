import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point, random_points
from oracles import (
    brute_orbit_distance,
    central_difference,
    contact_form,
    levi_bracket_oracle,
    levi_form_passes,
    orbit_distance_whole,
    strata_orders_loop,
    stratum_info,
    volume_density_gram_determinant,
)

from szegolab.errors import (
    InvalidSurfaceError,
    NotOnSurfaceError,
    PseudoconvexityError,
)
from szegolab.geometry import (
    DefiningPolynomial,
    ROW_BLOCK,
    STRATA_RAYS,
    Manifold,
    StrataOrders,
    WeightVector,
    safeguarded_newton,
)

# (orders, unconfirmed orders, certifying patterns) per preset, as certified
# when every pattern's rays were solved for their roots
_C3_PATTERNS_126 = (((0,), 1), ((1,), 2), ((0, 1), 1), ((2,), 6), ((0, 2), 1), ((1, 2), 2),
                    ((0, 1, 2), 1))
STRATA_BY_ROOTS = [
    ("sphere2", ((1,), (), (((0,), 1), ((1,), 1), ((0, 1), 1)))),
    ("sphere3", ((1,), (), (((0,), 1), ((1,), 1), ((0, 1), 1), ((2,), 1), ((0, 2), 1),
                            ((1, 2), 1), ((0, 1, 2), 1)))),
    ("wsphere12", ((1, 2), (), (((0,), 1), ((1,), 2), ((0, 1), 1)))),
    ("wsphere126", ((1, 2, 6), (), _C3_PATTERNS_126)),
    ("example2", ((1, 2, 6), (), _C3_PATTERNS_126)),
    ("flat_ellipsoid", ((1,), (2,), (((0,), 1), ((0, 1), 1)))),
]


class TestConstruction:
    def test_standard_sphere_accepted(self, sphere2):
        assert sphere2.n == 2
        assert sphere2.weights.weights == (1, 1)
        assert sphere2.kind == "sphere"

    def test_example_hypersurface_accepted(self, example2):
        assert example2.weights.weights == (1, 2, 6)
        assert example2.kind == "hypersurface"
        # every term must balance its weighted bidegree; construction validates
        example2.rho.check_invariance(example2.weights)

    def test_gcd_normalization_records_warning(self):
        with pytest.warns(UserWarning):
            M = Manifold.sphere(2, (2, 4))
        assert M.weights.weights == (1, 2)
        assert M.weight_divisor == 2
        assert M.warnings

    def test_non_invariant_rho_rejected_with_term(self):
        # z1 zbar2 has weighted bidegree (1, 2) under weights (1, 2)
        terms = {
            ((1, 0), (1, 0)): Fraction(1),
            ((0, 1), (0, 1)): Fraction(1),
            ((1, 0), (0, 1)): Fraction(1, 2),
            ((0, 1), (1, 0)): Fraction(1, 2),
            ((0, 0), (0, 0)): Fraction(-1),
        }
        rho = DefiningPolynomial(2, terms)
        with pytest.raises(InvalidSurfaceError, match=r"\(1, 0\)"):
            Manifold(2, (1, 2), rho)

    def test_non_real_rho_rejected(self):
        terms = {((1, 0), (0, 1)): Fraction(1), ((0, 0), (0, 0)): Fraction(-1)}
        with pytest.raises(InvalidSurfaceError, match="not real"):
            DefiningPolynomial(2, terms)

    def test_spec_roundtrip(self, example2):
        M = Manifold.from_spec(example2.to_spec())
        assert M.content_hash == example2.content_hash
        assert M.weights.weights == example2.weights.weights

    def test_kind_is_derived_from_rho(self):
        sphere = Manifold.sphere(2, (1, 2))
        assert Manifold.from_spec(sphere.to_spec()).kind == "sphere"
        spec = sphere.to_spec()
        del spec["kind"]
        assert Manifold.from_spec(spec).kind == "sphere"
        # the spec still carries kind, so manifold hashes are unchanged
        assert sphere.content_hash == "0a40d1d6a2f57c48"
        spec["rho"][0]["coeff"] = "2"  # 2|z1|^2 + |z2|^2 = 1: an ellipsoid
        assert Manifold.from_spec(spec).kind == "hypersurface"
        with pytest.raises(ValueError, match="kind 'sphere'"):
            Manifold.from_spec({**spec, "kind": "sphere"})

    def test_kind_is_computed_once(self, monkeypatch):
        import szegolab.geometry as geometry

        built = [
            (Manifold.sphere(2), "sphere"),
            (Manifold.invariant_hypersurface_example(), "hypersurface"),
            (Manifold.from_spec(Manifold.sphere(3).to_spec()), "sphere"),
        ]
        calls = []
        unit_sphere_terms = geometry._unit_sphere_terms
        monkeypatch.setattr(
            geometry, "_unit_sphere_terms", lambda n: calls.append(n) or unit_sphere_terms(n)
        )
        for M, kind in built:
            assert [M.kind for _ in range(10)] == [kind] * 10
        # from_spec read its kind while checking the spec: only the first two
        # compare rho with the unit sphere's terms here, once each
        assert calls == [2, 3]

    def test_point_rejects_off_surface(self, sphere2):
        with pytest.raises(NotOnSurfaceError):
            sphere2.point([1.0, 1.0])

    def test_points_match_point_row_by_row(self, example2):
        from szegolab.integrate import sample_hypersurface

        Z = sample_hypersurface(example2, 300, seed=3).points
        batch = example2.points(Z)
        assert np.array_equal(batch, Z)
        residuals = np.abs(example2.rho.value(Z))
        for z, r in zip(Z, residuals):
            single = example2.point(z)
            assert np.array_equal(single, z)
            assert abs(r - abs(example2.rho.value(single))) <= 1e-15

    def test_points_reject_an_off_surface_row(self, example2):
        from szegolab.integrate import sample_hypersurface

        Z = sample_hypersurface(example2, 50, seed=4).points.copy()
        Z[17] *= 1.01
        with pytest.raises(NotOnSurfaceError) as batch:
            example2.points(Z)
        with pytest.raises(NotOnSurfaceError) as single:
            example2.point(Z[17])
        assert str(batch.value) == str(single.value)


class TestAction:
    def test_act_rotates_by_weights(self, wsphere12):
        x = wsphere12.point([1.0, 0.0])
        y = wsphere12.act(math.pi, x)
        assert np.allclose(y, [-1.0, 0.0], atol=1e-14)
        x2 = wsphere12.point([0.0, 1.0])
        y2 = wsphere12.act(math.pi, x2)
        assert np.allclose(y2, [0.0, 1.0], atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0, 2 * math.pi), seed=st.integers(0, 1000))
    def test_act_preserves_rho(self, example2, theta, seed):
        x = random_point(example2, seed)
        y = example2.act(theta, x)
        assert abs(example2.rho.value(y)) <= 50 * example2.surface_tolerance

    def test_reeb_vector_values(self, sphere2, wsphere12):
        assert np.allclose(
            sphere2.reeb_vector(sphere2.point([1.0, 0.0])), [1j, 0.0]
        )
        assert np.allclose(
            wsphere12.reeb_vector(wsphere12.point([0.0, 1.0])), [0.0, 2j]
        )

    def test_reeb_vector_matches_central_difference(self, wsphere126):
        x = random_point(wsphere126, 5)
        h = 1e-6
        fd = (
            wsphere126.act(h, x) - wsphere126.act(-h, x)
        ) / (2 * h)
        assert np.allclose(fd, wsphere126.reeb_vector(x), atol=1e-8)

    def test_reeb_vector_is_tangent(self, example2):
        for seed in range(5):
            x = random_point(example2, seed)
            T = example2.reeb_vector(x)
            rho_z = example2.rho.z_gradient(x)
            # d rho (T) = 2 Re sum rho_j T_j
            assert abs(2 * np.sum(rho_z * T).real) < 1e-10


class TestStrata:
    def test_stratum_orders_at_axes(self, wsphere12, wsphere126):
        assert wsphere12.stratum_order(wsphere12.point([0.0, 1.0])) == 2
        assert wsphere126.stratum_order(wsphere126.point([0.0, 0.0, 1.0])) == 6
        x = random_point(wsphere126, 3)
        assert wsphere126.stratum_order(x) == 1

    def test_stratum_order_rejects_origin_support(self, sphere2):
        with pytest.raises(NotOnSurfaceError):
            sphere2.stratum_order(np.zeros(2, dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0, 2 * math.pi), seed=st.integers(0, 200))
    def test_stratum_order_orbit_invariant(self, wsphere126, theta, seed):
        x = random_point(wsphere126, seed)
        assert wsphere126.stratum_order(x) == wsphere126.stratum_order(
            wsphere126.act(theta, x)
        )

    def test_strata_orders_presets(self, sphere3, wsphere12, wsphere126):
        assert sphere3.strata_orders().orders == (1,)
        assert wsphere12.strata_orders().orders == (1, 2)
        # subset-gcd oracle: gcds of nonempty subsets of {1, 2, 6}
        import itertools

        expected = set()
        for r in range(1, 4):
            for sub in itertools.combinations((1, 2, 6), r):
                expected.add(math.gcd(*sub))
        assert set(wsphere126.strata_orders().orders) == expected == {1, 2, 6}

    def test_strata_orders_example2_certified(self, example2):
        st_orders = example2.strata
        assert st_orders.orders == (1, 2, 6)
        assert st_orders.unconfirmed == ()
        # the certifying patterns include the pure axes
        patterns = dict(st_orders.support_patterns)
        assert patterns[(1,)] == 2 and patterns[(2,)] == 6

    @pytest.mark.parametrize(
        "name", ["sphere2", "wsphere12", "wsphere126", "example2", "flat_ellipsoid"]
    )
    def test_strata_orders_match_per_pattern_loop(self, request, name):
        # one batch from a fixed stream certifies what a loop over the
        # patterns certifies from any of several seeds
        M = request.getfixturevalue(name)
        st_orders = M.strata_orders()
        for seed in range(5):
            assert st_orders == strata_orders_loop(M, seed=seed)

    def test_strata_orders_take_one_bracket_pass(self, example2, monkeypatch):
        # the strata read only which rays are bracketed: no root is solved
        import szegolab.integrate as integrate

        root_calls, passes = [], []
        radial_roots = integrate.radial_roots
        ray_coefficients = DefiningPolynomial.ray_coefficients

        def counting_roots(M, U):
            root_calls.append(len(U))
            return radial_roots(M, U)

        def counting_passes(rho, U):
            passes.append(len(U))
            return ray_coefficients(rho, U)

        monkeypatch.setattr(integrate, "radial_roots", counting_roots)
        monkeypatch.setattr(DefiningPolynomial, "ray_coefficients", counting_passes)
        st_orders = example2.strata_orders()
        assert root_calls == []
        assert len(passes) == 1
        assert passes[0] <= 7 * STRATA_RAYS  # the 7 support patterns of C^3
        assert st_orders == example2.strata

    @pytest.mark.parametrize("name, expected", STRATA_BY_ROOTS, ids=[n for n, _ in STRATA_BY_ROOTS])
    def test_strata_orders_equal_those_certified_by_roots(self, request, name, expected):
        # the orders, unconfirmed orders and certifying patterns that the
        # strata had when each pattern's rays were solved for their roots
        orders, unconfirmed, patterns = expected
        assert request.getfixturevalue(name).strata_orders() == StrataOrders(
            orders, unconfirmed, patterns
        )

    def test_near_stratum_flag(self, wsphere12):
        z = np.array([1e-7, math.sqrt(1 - 1e-14)], dtype=complex)
        orders, near = wsphere12.strata_of(wsphere12.points(z[None, :]))
        assert near[0] and orders[0] == 1
        z2 = np.array([1e-10, 1.0], dtype=complex)
        orders, near = wsphere12.strata_of(wsphere12.points(z2[None, :]))
        assert orders[0] == 2 and not near[0]

    @pytest.mark.parametrize("name", ["sphere2", "sphere3", "wsphere12", "wsphere126", "example2"])
    def test_strata_of_matches_per_point_rule(self, request, name):
        from szegolab.integrate import stratified_points

        M = request.getfixturevalue(name)
        Z, _ = stratified_points(M, 60, seed=2)
        orders, near = M.strata_of(Z)
        assert orders.shape == near.shape == (len(Z),)
        reference = [stratum_info(M, z) for z in Z]
        assert orders.tolist() == [k for k, _, _ in reference]
        assert near.tolist() == [flag for _, _, flag in reference]
        assert [M.stratum_order(M.point(z)) for z in Z] == orders.tolist()

    def test_strata_of_at_the_band_edges(self, wsphere126):
        # z_1 (weight 1) at moduli on both sides of ZERO_TOLERANCE and
        # NEAR_STRATUM_TOLERANCE, beside (z_2, z_3) of order 2 or z_3 of order 6
        moduli = [0.0, 1e-10, 1e-7, 1e-5]
        Z = np.array([[r, 0.6, 0.8] for r in moduli] + [[r, 0.0, 1.0] for r in moduli], dtype=complex)
        orders, near = wsphere126.strata_of(Z)
        assert orders.tolist() == [2, 2, 1, 1, 6, 6, 1, 1]
        assert near.tolist() == [False, False, True, False] * 2
        reference = [stratum_info(wsphere126, z) for z in Z]
        assert orders.tolist() == [k for k, _, _ in reference]
        assert near.tolist() == [flag for _, _, flag in reference]

    def test_strata_of_rejects_a_zero_row(self, wsphere126):
        Z = np.array([[0.0, 0.0, 1.0], [0.0, 1e-10, 0.0]], dtype=complex)
        with pytest.raises(NotOnSurfaceError, match="origin"):
            wsphere126.strata_of(Z)
        with pytest.raises(NotOnSurfaceError):
            stratum_info(wsphere126, Z[1])


class TestTangentAndLevi:
    def test_frame_at_pole(self, sphere2):
        F = sphere2.holomorphic_tangent_frame(sphere2.point([1.0, 0.0]))
        assert F.shape == (1, 2)
        assert abs(abs(F[0, 1]) - 1.0) < 1e-12 and abs(F[0, 0]) < 1e-12

    def test_frame_annihilates_gradient_and_is_orthonormal(self, example2):
        for seed in range(5):
            x = random_point(example2, seed)
            F = example2.holomorphic_tangent_frame(x)
            rho_z = example2.rho.z_gradient(x)
            assert np.max(np.abs(F @ rho_z)) < 1e-12
            assert np.max(np.abs(F @ F.conj().T - np.eye(example2.n - 1))) < 1e-12

    def test_contact_form_normalization(self, sphere2, wsphere126, example2):
        for M in (sphere2, wsphere126, example2):
            for seed in range(4):
                x = random_point(M, seed)
                T = M.reeb_vector(x)
                assert abs(contact_form(M, x, T) + 1.0) < 1e-10
                F = M.holomorphic_tangent_frame(x)
                for row in F:
                    assert abs(contact_form(M, x, row)) < 1e-10
                    assert abs(contact_form(M, x, 1j * row)) < 1e-10

    def test_levi_on_standard_spheres(self, sphere2, sphere3):
        for M in (sphere2, sphere3):
            for seed in range(3):
                ld = M.levi_form(random_point(M, seed))
                assert np.allclose(ld.eigenvalues, 1.0, atol=1e-8)
                assert abs(ld.determinant - 1.0) < 1e-8
                assert abs(ld.volume_density - 1.0) < 1e-8

    def test_levi_determinant_is_eigenvalue_product(self, example2):
        for seed in range(5):
            ld = example2.levi_form(random_point(example2, seed))
            prod = math.prod(ld.eigenvalues)
            assert abs(ld.determinant - prod) <= 1e-10 * abs(prod)

    def test_levi_positive_at_sampled_points(
        self, sphere2, wsphere12, wsphere126, example2
    ):
        from szegolab.integrate import surface_samples

        for M in (sphere2, wsphere12, wsphere126, example2):
            S = surface_samples(M, 1000, seed=9)
            for z in S.points:
                assert M.levi_form(M.point(z)).eigenvalues[0] > 0

    def test_hessian_vs_bracket_oracle(self, sphere2, wsphere12, example2):
        rel_tol = 1e-4
        for M, count in ((sphere2, 15), (wsphere12, 15), (example2, 20)):
            for x in random_points(M, count, seed=31):
                B = levi_bracket_oracle(M, x)
                eh = np.array(M.levi_form(x).eigenvalues)
                eb = np.linalg.eigvalsh(B)
                assert np.max(np.abs(eh - eb)) < 1e-5 * max(1.0, np.max(np.abs(eh)))
                det_h, det_b = np.prod(eh), np.prod(eb)
                assert abs(det_h - det_b) <= rel_tol * abs(det_h)

    def test_levi_form_takes_one_gradient(self, monkeypatch, sphere2, wsphere12, wsphere126, example2):
        # one z_gradient pass gives the frame, the pairing and the density;
        # each field equals the one of a pass per field, bit for bit
        x0 = np.array([0.0, 0.0, 0.8260313576541872])
        cases = [(sphere2, random_point(sphere2, 1)), (wsphere12, wsphere12.point([0.0, 1.0])),
                 (wsphere126, random_point(wsphere126, 2)), (example2, example2.point(x0)),
                 (example2, random_point(example2, 3))]
        gradient = DefiningPolynomial.z_gradient
        for M, x in cases:
            expected = levi_form_passes(M, x)
            calls = []
            monkeypatch.setattr(DefiningPolynomial, "z_gradient",
                                lambda rho, Z: calls.append(1) or gradient(rho, Z))
            got = M.levi_form(x)
            monkeypatch.setattr(DefiningPolynomial, "z_gradient", gradient)
            assert len(calls) == 1
            assert got == expected

    def test_weighted_levi_at_stabilized_point(self, wsphere12):
        ld = wsphere12.levi_form(wsphere12.point([0.0, 1.0]))
        assert abs(ld.determinant - 0.5) < 1e-12

    def test_pseudoconvexity_violation_raises(self):
        # |z1|^2 + |z2|^2 + (z1^2 zbar2^2 + zbar1^2 z2^2) - 1 is invariant and
        # real but the mixed Hessian loses positivity where 4 |z1 z2| > 1
        terms = {
            ((1, 0), (1, 0)): Fraction(1),
            ((0, 1), (0, 1)): Fraction(1),
            ((2, 0), (0, 2)): Fraction(1),
            ((0, 2), (2, 0)): Fraction(1),
            ((0, 0), (0, 0)): Fraction(-1),
        }
        M = Manifold(2, (1, 1), DefiningPolynomial(2, terms))
        t = math.sqrt((math.sqrt(3) - 1) / 2)
        with pytest.raises(PseudoconvexityError):
            M.levi_form(M.point([t, t]))


class TestVolumeDensity:
    """The Gram-determinant reference of tests/oracles.py, and the closed form
    of compliant_density and levi_form against it."""

    def test_sphere_density_is_one(self, sphere2):
        for seed in range(5):
            x = random_point(sphere2, seed)
            assert abs(volume_density_gram_determinant(sphere2, x) - 1) < 1e-10

    def test_weighted_density_at_pole(self, wsphere12):
        # rotation field has Euclidean length 2 there, so the unit-field
        # metric shrinks the volume by exactly that factor
        x = wsphere12.point([0.0, 1.0])
        assert abs(volume_density_gram_determinant(wsphere12, x) - 0.5) < 1e-12

    def test_density_constant_along_orbits(self, example2):
        x = random_point(example2, 7)
        v0 = volume_density_gram_determinant(example2, x)
        for theta in (0.3, 1.8, 4.4):
            v = volume_density_gram_determinant(example2, example2.act(theta, x))
            assert abs(v - v0) < 1e-9

    def test_density_matches_first_derivative_form(self, wsphere126, example2):
        from szegolab.integrate import compliant_density

        for M in (wsphere126, example2):
            for x in random_points(M, 10, seed=13):
                direct = compliant_density(M, x)
                assert abs(volume_density_gram_determinant(M, x) - direct) < 1e-10
                assert M.levi_form(x).volume_density == direct


class TestQuotientDistance:
    def test_same_orbit_is_zero(self, wsphere126):
        x = random_point(wsphere126, 2)
        y = wsphere126.act(2.1, x)
        assert wsphere126.quotient_distance(x, y) <= 1e-8

    def test_disjoint_circles(self, sphere2):
        d = sphere2.quotient_distance(sphere2.point([1, 0]), sphere2.point([0, 1]))
        assert abs(d - math.sqrt(2)) < 1e-10

    def test_matches_brute_force_grid(self, wsphere126):
        for seed in (0, 1, 2):
            x, y = random_points(wsphere126, 2, seed=seed * 17 + 3)
            d = wsphere126.quotient_distance(x, y)
            brute = brute_orbit_distance(
                wsphere126.weights.weights, x, y
            )
            assert d <= brute + 1e-12
            assert abs(d - brute) < 1e-6

    def test_blocked_scan_matches_whole_array(self, example2, wsphere126):
        from szegolab.integrate import surface_samples

        pairs = ROW_BLOCK + 300
        for M in (example2, wsphere126):
            Z = surface_samples(M, 2 * pairs, seed=17).points
            X, Y = Z[:pairs], Z[pairs:]
            dist, theta = M.orbit_distance_batch(X, Y)
            dist_whole, theta_whole = orbit_distance_whole(M, X, Y)
            assert np.max(np.abs(dist - dist_whole)) <= 1e-12
            gap = np.abs(theta - theta_whole)
            assert np.max(np.minimum(gap, 2 * np.pi - gap)) <= 1e-12

    @pytest.mark.parametrize("name", ["example2", "wsphere126"])
    def test_matches_golden_section_on_support_patterns(self, request, name):
        """Pairs with exact zero coordinates: c = conj(x) y may vanish, so the
        slope never changes sign and the grid angle is kept, or be supported
        where the weights share a factor k, so the minimum repeats with
        period 2 pi / k and the angles agree modulo that period."""
        from szegolab.integrate import support_pattern_points

        M = request.getfixturevalue(name)
        patterns = [support for support, _ in M.strata_orders().support_patterns]
        k = len(patterns)  # every (x, y) pattern pair, k^2 <= 210 for n = 3
        supports = [patterns[i % k] for i in range(210)] + [patterns[i // k % k] for i in range(210)]
        Z = support_pattern_points(M, supports, seed=3)
        X, Y = Z[:210], Z[210:]
        dist, theta = M.orbit_distance_batch(X, Y)
        dist_whole, theta_whole = orbit_distance_whole(M, X, Y)
        assert np.max(np.abs(dist - dist_whole)) <= 1e-12
        c = X.conj() * Y
        disjoint = ~np.any(c, axis=1)
        assert disjoint.any() and not disjoint.all()
        assert np.all(theta[disjoint] == 0.0)
        for i in np.flatnonzero(~disjoint):
            period = 2 * np.pi / math.gcd(*M.weights.array[c[i] != 0].tolist())
            gap = np.mod(theta[i] - theta_whole[i], period)
            assert min(gap, period - gap) <= 1e-12

    def test_symmetry_and_triangle_inequality(self, wsphere12):
        pts = random_points(wsphere12, 6, seed=40)
        for i in range(0, 6, 3):
            a, b, c = pts[i], pts[i + 1], pts[(i + 2) % 6]
            dab = wsphere12.quotient_distance(a, b)
            dba = wsphere12.quotient_distance(b, a)
            assert abs(dab - dba) < 1e-9
            dac = wsphere12.quotient_distance(a, c)
            dcb = wsphere12.quotient_distance(c, b)
            assert dab <= dac + dcb + 2e-9


class TestSafeguardedNewton:
    @staticmethod
    def _polynomial(coeffs, counter=None):
        """fdf for the polynomials with ascending coefficient rows coeffs[i]."""
        P = [np.polynomial.Polynomial(c) for c in coeffs]

        def fdf(t):
            if counter is not None:
                counter.append(t.copy())
            return (np.array([p(x) for p, x in zip(P, t)]),
                    np.array([p.deriv()(x) for p, x in zip(P, t)]))

        return fdf

    def test_known_roots(self):
        # t^2 - 2, t^3 - 3 and 4 t^2 - 1 with brackets f(lo) < 0 <= f(hi)
        fdf = self._polynomial([[-2, 0, 1], [-3, 0, 0, 1], [-1, 0, 4]])
        roots = safeguarded_newton(fdf, np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 1.0]))
        expected = np.array([math.sqrt(2), 3 ** (1 / 3), 0.5])
        assert np.all(np.abs(roots - expected) <= 4 * np.spacing(expected))

    def test_bisects_when_newton_leaves_the_bracket(self):
        # -1 + 10 t^2 - 8 t^4 falls at t = 1: Newton from there lands at 13/12 > hi
        calls = []
        fdf = self._polynomial([[-1, 0, 10, 0, -8]], calls)
        root = safeguarded_newton(fdf, np.array([0.0]), np.array([1.0]))[0]
        assert 1.0 - (-1 + 10 - 8) / (20 - 32) > 1.0
        expected = math.sqrt((10 - math.sqrt(68)) / 16)
        assert abs(root - expected) <= 4 * np.spacing(expected)
        assert len(calls) < 60

    def test_exact_zero_stops_at_once(self):
        # (t - 2)^3 is 0 at hi with f' = 0, so the Newton step is NaN there;
        # the first entry freezes at 2 while the second runs on
        calls = []
        fdf = self._polynomial([[-8, 12, -6, 1], [-2, 0, 1]], calls)
        roots = safeguarded_newton(fdf, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert roots[0] == 2.0
        assert abs(roots[1] - math.sqrt(2)) <= 4 * np.spacing(math.sqrt(2))
        assert len(calls) > 1
        assert all(t.shape == (2,) and t[0] == 2.0 for t in calls)

    def test_root_in_a_batch_equals_its_root_alone(self):
        # a bisecting polynomial, an exact zero at hi and two plain Newton
        # cases; t^2 - 2 would move by an ulp if it kept iterating after
        # converging while 4 t^2 - 1 still runs
        coeffs = [[-1, 0, 10, 0, -8], [-8, 12, -6, 1], [-2, 0, 1], [-1, 0, 4]]
        lo, hi = np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 2.0, 2.0, 1.0])
        batch = safeguarded_newton(self._polynomial(coeffs), lo, hi)
        for i, c in enumerate(coeffs):
            alone = safeguarded_newton(self._polynomial([c]), lo[i : i + 1], hi[i : i + 1])
            assert batch[i].tobytes() == alone[0].tobytes()


class TestWeightVector:
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=5))
    def test_normalized_gcd_one(self, ws):
        wv, divisor = WeightVector.normalized(ws)
        assert math.gcd(*wv.weights) == 1 if len(wv.weights) > 1 else wv.weights[0] >= 1
        assert all(w * divisor == orig for w, orig in zip(wv.weights, ws))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector((1, 0))
