import math

import numpy as np
import pytest

from conftest import random_point, random_points
from oracles import jacobian_smallest_singular_value, reeb_image, search_embedding

from szegolab.basis import dimension
from szegolab.embedding import (
    build_embedding,
    check_equivariance,
    embedding_from_levels,
    evaluate,
    evaluate_batch,
    immersion_report,
    phase_pair_demo,
    separation_report,
)
from szegolab.kernel import kernel_diagonal


class TestConstruction:
    def test_free_action_blocks(self, sphere2):
        Phi = build_embedding(sphere2, 4)
        assert Phi.levels == (4, 5)
        assert Phi.total_dim == 5 + 6
        assert Phi.min_weight == 4

    def test_weights_12_blocks(self, wsphere12):
        Phi = build_embedding(wsphere12, 4)
        assert Phi.levels == (4, 5, 8, 10)
        d = [dimension(wsphere12.weights, m) for m in (4, 5, 8, 10)]
        assert d == [3, 3, 5, 6]
        assert Phi.total_dim == 17

    def test_weights_126_blocks_span_all_orders(self, wsphere126):
        # levels k*m, k*(m+1) for every k up to the largest stabilizer order;
        # the k=5 level 25 = 1 mod 6 supplies the z1-derivative on the
        # order-6 stratum, where the realized orders {1, 2, 6} alone would
        # leave the differential degenerate
        Phi = build_embedding(wsphere126, 4)
        assert Phi.levels == (4, 5, 8, 10, 12, 15, 16, 20, 24, 25, 30)

    def test_min_weight_law(self, wsphere12):
        for m0 in (10, 100):
            Phi = build_embedding(wsphere12, m0 + 1)
            assert Phi.min_weight == m0 + 1 > m0

    def test_extra_levels_merged(self, wsphere12):
        Phi = build_embedding(wsphere12, 4, extra_levels=[7, 8])
        assert Phi.levels == (4, 5, 7, 8, 10)

    def test_empty_block_warns(self):
        from szegolab.geometry import Manifold

        M = Manifold.sphere(2, (2, 3))
        Phi = build_embedding(M, 1)  # level 1 has no representation
        assert any("level 1" in w for w in Phi.warnings)
        assert 1 not in set(Phi.coordinate_weights.tolist())


class TestEvaluation:
    def test_norm_is_sum_of_diagonals(self, wsphere12):
        Phi = build_embedding(wsphere12, 4)
        x = random_point(wsphere12, 3)
        total = sum(kernel_diagonal(B, x) for _, B in Phi.blocks)
        assert np.linalg.norm(evaluate(Phi, x)) ** 2 == pytest.approx(total, rel=1e-12)

    def test_norm_constant_on_orbits(self, wsphere126):
        Phi = build_embedding(wsphere126, 4)
        x = random_point(wsphere126, 5)
        n0 = np.linalg.norm(evaluate(Phi, x))
        for theta in (0.7, 3.1):
            nt = np.linalg.norm(evaluate(Phi, wsphere126.act(theta, x)))
            assert nt == pytest.approx(n0, rel=1e-12)

    def test_nonvanishing_on_sphere(self, sphere2):
        Phi = build_embedding(sphere2, 3)
        for x in random_points(sphere2, 20, seed=8):
            assert np.linalg.norm(evaluate(Phi, x)) > 0.1

    def test_batch_matches_single(self, wsphere12):
        Phi = build_embedding(wsphere12, 4)
        pts = np.stack([random_point(wsphere12, s).coordinates for s in range(3)])
        batch = evaluate_batch(Phi, pts)
        for i in range(3):
            assert np.allclose(batch[i], evaluate(Phi, pts[i]))


class TestEquivariance:
    def test_residual_small_everywhere(self, sphere2, wsphere12, wsphere126):
        rng = np.random.default_rng(1)
        for M, m in ((sphere2, 2), (wsphere12, 4), (wsphere126, 4)):
            Phi = build_embedding(M, m)
            for _ in range(50):
                x = random_point(M, int(rng.integers(0, 10**6)))
                theta = float(rng.uniform(0, 2 * math.pi))
                assert check_equivariance(Phi, x, theta) <= 1e-10

    def test_zero_angle(self, wsphere12):
        Phi = build_embedding(wsphere12, 4)
        x = random_point(wsphere12, 0)
        assert check_equivariance(Phi, x, 0.0) == 0.0

    def test_stabilizer_forces_coordinate_vanishing(self, wsphere126):
        # at x in the order-k stratum, rotating by 2 pi / k fixes x, so every
        # coordinate whose weight k does not divide must vanish there
        Phi = build_embedding(wsphere126, 4)
        x6 = wsphere126.point([0.0, 0.0, 1.0])
        k = wsphere126.stratum_order(x6)
        vals = evaluate(Phi, x6)
        for j, w in enumerate(Phi.coordinate_weights):
            if w % k != 0:
                assert abs(vals[j]) == 0.0

    def test_reeb_image_eigenrelation(self, wsphere126):
        Phi = build_embedding(wsphere126, 4)
        for seed in (2, 3):
            x = random_point(wsphere126, seed)
            geometric = reeb_image(Phi, x)
            algebraic = 1j * Phi.coordinate_weights * evaluate(Phi, x)
            assert np.max(np.abs(geometric - algebraic)) < 1e-8


class TestImmersion:
    def test_floors_frozen(self, sphere2, wsphere12, wsphere126):
        # floors measured once and frozen as regression values (20% slack)
        expected = {id(sphere2): 0.95, id(wsphere12): 0.77, id(wsphere126): 1.52}
        for M, m in ((sphere2, 2), (wsphere12, 4), (wsphere126, 4)):
            rep = immersion_report(build_embedding(M, m), samples=60, seed=1)
            assert not rep.failures
            assert rep.min_singular_value > 0.8 * expected[id(M)]

    def test_seed_stability(self, wsphere126):
        Phi = build_embedding(wsphere126, 4)
        floors = [
            immersion_report(Phi, samples=60, seed=s).min_singular_value for s in (1, 2, 3)
        ]
        assert max(floors) <= 1.2 * min(floors)

    def test_small_blocks_degenerate_at_stratum(self, wsphere126):
        # without a level = 1 mod 6, the differential loses the z1 direction
        # on the order-6 stratum: the k-indexed pairs exist for a reason
        Phi = embedding_from_levels(wsphere126, [6, 12, 24], base_level=6)
        x6 = wsphere126.point([0.0, 0.0, 1.0])
        assert jacobian_smallest_singular_value(Phi, x6) < 1e-12
        full = build_embedding(wsphere126, 4)
        assert jacobian_smallest_singular_value(full, x6) > 1.0


class TestSeparation:
    def test_no_violations_on_presets(self, sphere2, wsphere12, wsphere126):
        for M, m in ((sphere2, 2), (wsphere12, 4), (wsphere126, 4)):
            Phi = build_embedding(M, m)
            rep = separation_report(Phi, pair_count=1500, threshold=0.05, seed=3)
            assert rep.violations == ()
            assert rep.min_image_distance > 0

    def test_same_point_has_zero_distance(self, wsphere12):
        Phi = build_embedding(wsphere12, 4)
        x = random_point(wsphere12, 1)
        v = evaluate(Phi, x)
        assert np.linalg.norm(v - v) == 0.0

    def test_antipodal_points_separated(self, sphere2):
        Phi = build_embedding(sphere2, 2)
        x = random_point(sphere2, 4)
        y = sphere2.point(-x.coordinates)
        # the odd-level block flips sign: distance = 2 sqrt(S_3(x, x))
        d = np.linalg.norm(evaluate(Phi, x) - evaluate(Phi, y))
        assert d > 0.5

    def test_phase_pair_demo(self, wsphere12):
        x0 = wsphere12.point([0.0, 1.0])
        demo = phase_pair_demo(wsphere12, x0, 4)
        assert demo.stratum_order == 2
        assert demo.ambient_distance == pytest.approx(2.0)
        assert demo.violation_detected
        assert demo.distance_without_paired_levels < 1e-12
        assert demo.distance_with_paired_levels > 1.0

    def test_search_embedding(self, wsphere12):
        m, Phi, rep = search_embedding(wsphere12, 2, 6, pair_count=400, seed=7)
        assert m == 2
        assert rep.violations == ()
