import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_point, random_points
from oracles import (
    brute_orbit_distance,
    jacobian_smallest_singular_value,
    jacobian_spectra_loop,
    reeb_image,
    search_embedding,
    stratum_info,
)

from szegolab import basis, embedding, geometry, integrate
from szegolab.basis import dimension, eval_basis_batch, eval_basis_jacobian, monomial_jacobian
from szegolab.embedding import (
    ARGMIN_RTOL,
    build_embedding,
    check_equivariance,
    embedding_from_levels,
    evaluate,
    immersion_report,
    jacobian_singular_values,
    phase_pair_demo,
    separation_report,
)
from szegolab.integrate import stratified_points
from szegolab.kernel import kernel_diagonal

# (preset fixture, base level) of the maps the batched certificate is checked on
PRESET_MAPS = [("sphere2", 2), ("wsphere12", 4), ("wsphere126", 4), ("example2", 4)]


@pytest.fixture(scope="module")
def example2_phi(example2):
    """The m = 4 map on example2, whitened by the closed-form round-exact
    diagonal (measure="auto" on a map)."""
    return build_embedding(example2, 4)


def _preset_map(request, name, m):
    M = request.getfixturevalue(name)
    if name == "example2":
        return M, request.getfixturevalue("example2_phi")
    return M, build_embedding(M, m)


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

    def test_example2_map_draws_no_gram_samples(self, example2, monkeypatch):
        # a map depends only on the span of each component, so auto whitens it
        # by the closed-form round-exact diagonal and streams no sample
        def refuse(*args, **kwargs):
            raise AssertionError("Gram samples drawn")

        for module in (basis, integrate):
            monkeypatch.setattr(module, "hypersurface_blocks", refuse)
        Phi = build_embedding(example2, 4)
        for B in Phi.blocks:
            assert B.measure == basis.ROUND_EXACT
            norms = [basis.sphere_monomial_norm_sq(a, example2.n).value() for a in B.exponents.tolist()]
            np.testing.assert_allclose(B.coeff_matrix, np.power(norms, -0.5), rtol=1e-15)

    def test_maps_and_certificates_certify_strata_once(self, monkeypatch):
        # the strata belong to the manifold: a fresh example2 certifies them
        # on first use, and every later map and certificate reads them
        M = geometry.Manifold.invariant_hypersurface_example()
        calls = []
        strata_orders = geometry.Manifold.strata_orders

        def counting(self):
            calls.append(self)
            return strata_orders(self)

        monkeypatch.setattr(geometry.Manifold, "strata_orders", counting)
        Phi = build_embedding(M, 4)
        assert immersion_report(Phi, samples=6, seed=1).failures == ()
        assert separation_report(Phi, pair_count=12, seed=2).violations == ()
        x0 = M.point(integrate.project_radially(M, np.array([0.0, 0.0, 1.0])))
        assert phase_pair_demo(M, x0, 4).violation_detected
        assert calls == [M]


def test_orbit_angles_are_not_the_raw_draws_of_another_stream(example2_phi, monkeypatch):
    # the same-orbit angles once came from a fresh generator on the stream of
    # the immersion sample's directions: angles / 2 pi were the first raw
    # draws of that stream
    Generator = np.random.Generator
    made, angles = [], []

    class Recording(Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            made.append((self, bit_generator.state))

        def uniform(self, low=0.0, high=1.0, size=None):
            out = super().uniform(low, high, size)
            angles.append((self, out))
            return out

    monkeypatch.setattr(np.random, "Generator", Recording)
    integrate.solve_rays(
        example2_phi.manifold, embedding.immersion_job(example2_phi, 30, 0),
        embedding.separation_job(example2_phi, 60, 0.05, 0),
    )
    [(drawer, theta)] = angles
    others = [state for g, state in made if g is not drawer]
    assert len(others) == len(made) - 1 >= 1
    for state in others:
        replay = np.random.Philox()
        replay.state = state
        raw = Generator(replay).random(theta.size)
        assert not np.allclose(theta / (2 * math.pi), raw, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name, m", [("wsphere126", 4), ("example2", 4)])
def test_certificates_solved_together_equal_each_alone(request, name, m):
    # one lockstep over both jobs batches their rays, which may move the
    # roots in the last bits, and nothing more
    M, Phi = _preset_map(request, name, m)
    imm, sep = integrate.solve_rays(
        M, embedding.immersion_job(Phi, 30, 3), embedding.separation_job(Phi, 300, 0.05, 3)
    )
    imm_alone = immersion_report(Phi, samples=30, seed=3)
    sep_alone = separation_report(Phi, pair_count=300, threshold=0.05, seed=3)
    assert imm.min_singular_value == pytest.approx(imm_alone.min_singular_value, rel=1e-12)
    assert [r[:3] for r in imm.records] == [r[:3] for r in imm_alone.records]
    assert len(imm.failures) == len(imm_alone.failures) == 0
    for floor in ("min_image_distance", "min_same_orbit_image_distance", "image_scale"):
        assert getattr(sep, floor) == pytest.approx(getattr(sep_alone, floor), rel=1e-12)
    assert sep.pair_count == sep_alone.pair_count
    assert len(sep.violations) == len(sep_alone.violations) == 0


class TestEvaluation:
    def test_norm_is_sum_of_diagonals(self, wsphere12):
        Phi = build_embedding(wsphere12, 4)
        x = random_point(wsphere12, 3)
        total = np.sum(kernel_diagonal(Phi.blocks, x))
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
        pts = np.stack([random_point(wsphere12, s) for s in range(3)])
        batch = basis.block_values(pts, Phi.blocks)
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
        Phi = embedding_from_levels(wsphere126, [6, 12, 24])
        x6 = wsphere126.point([0.0, 0.0, 1.0])
        assert jacobian_smallest_singular_value(Phi, x6) < 1e-12
        full = build_embedding(wsphere126, 4)
        assert jacobian_smallest_singular_value(full, x6) > 1.0


class TestBatchedJacobian:
    """One stacked Jacobian pass and one stacked SVD against the real-frame route."""

    @pytest.mark.parametrize("name, m", PRESET_MAPS)
    def test_spectra_match_point_loop(self, request, name, m):
        # the real Jacobian on T_z X has 2n - 1 singular values; by
        # interlacing, its odd-indexed ones are the n of the complex Jacobian
        M, Phi = _preset_map(request, name, m)
        Z, labels = stratified_points(M, 40, seed=5)
        if name != "sphere2":  # the only preset with a free action
            assert {"stratum", "near-stratum"} <= set(labels)
        batched = jacobian_singular_values(Phi, Z)
        reference = jacobian_spectra_loop(Phi, Z)
        assert reference.shape == (len(Z), 2 * M.n - 1)
        assert batched.shape == (len(Z), M.n)
        odd = reference[:, 0::2]
        assert np.all(np.abs(batched - odd) <= 1e-12 * odd)
        assert np.all(np.abs(batched[:, -1] - odd[:, -1]) <= 1e-14 * odd[:, -1])
        single = jacobian_singular_values(Phi, M.point(Z[0]))
        assert single.shape == (M.n,)
        assert np.all(np.abs(single - odd[0]) <= 1e-12 * odd[0])

    @pytest.mark.parametrize("name, m", PRESET_MAPS)
    def test_spectra_constant_on_orbits(self, request, name, m):
        # Phi is equivariant, so J(e^{i theta}.z) = U J(z) V* with unitary
        # diagonals U and V: the rotation leaves every singular value alone
        M, Phi = _preset_map(request, name, m)
        Z, _ = stratified_points(M, 20, seed=8)
        spectra = jacobian_singular_values(Phi, Z)
        for theta in (0.3, 1.7, 4.0):
            rotated = jacobian_singular_values(Phi, M.act(theta, Z))
            assert np.all(np.abs(rotated - spectra) <= 1e-13 * spectra)

    @pytest.mark.parametrize("name", ["example2", "wsphere126", "wsphere12", "sphere2", "sphere3"])
    def test_spectra_equal_the_plain_svd_bit_for_bit(self, request, name):
        # the m = 1..7 maps all have N >= 17 n // 9 rows, so the SVD runs on
        # the R factor of a QR, and gives the bits of the SVD of J itself
        M = request.getfixturevalue(name)
        Z, _ = stratified_points(M, 40, seed=9)
        for m in range(1, 8):
            Phi = build_embedding(M, m)
            assert Phi.total_dim >= 17 * M.n // 9
            plain = np.linalg.svd(basis.block_jacobian(Z, Phi.blocks), compute_uv=False)
            assert jacobian_singular_values(Phi, Z).tobytes() == plain.tobytes()

    def test_spectra_of_a_narrow_map_equal_the_plain_svd(self, wsphere126):
        # N = 4 < 17 n // 9 = 5: LAPACK bidiagonalizes J without a QR step,
        # and so does jacobian_singular_values
        Phi = embedding_from_levels(wsphere126, [2, 3])
        assert Phi.total_dim == 4
        Z, _ = stratified_points(wsphere126, 200, seed=9)
        plain = np.linalg.svd(basis.block_jacobian(Z, Phi.blocks), compute_uv=False)
        assert jacobian_singular_values(Phi, Z).tobytes() == plain.tobytes()

    def test_map_with_fewer_coordinates_than_n_is_no_immersion(self, wsphere126):
        # a map into C^1 has rank at most 1 < n = 3: every sample fails, and
        # each spectrum lists n values, the last n - N of them 0
        Phi = embedding_from_levels(wsphere126, [1])
        assert Phi.total_dim == 1
        rep = immersion_report(Phi, samples=50)
        assert rep.min_singular_value == 0.0
        assert len(rep.failures) == len(rep.records) == 50
        for failure in rep.failures:
            assert failure["singular_values"][1:] == [0.0, 0.0]

    def test_map_with_no_coordinates_fails_both_certificates(self):
        # level 1 has no representation on the (2, 3) sphere, so N = 0: every
        # spectrum is n zeros and no pair has distinct images
        from szegolab.geometry import Manifold

        Phi = embedding_from_levels(Manifold.sphere(2, (2, 3)), [1])
        assert Phi.total_dim == 0 and Phi.min_weight == 0
        rep = immersion_report(Phi, samples=20)
        assert len(rep.failures) == len(rep.records) == 20
        for failure in rep.failures:
            assert failure["singular_values"] == [0.0, 0.0]
        sep = separation_report(Phi, pair_count=30)
        assert len(sep.violations) == sep.pair_count == 30
        for v in sep.violations:
            assert v["quotient_distance"] > sep.threshold or (
                v["kind"] == "same-orbit" and v["ambient_distance"] > sep.threshold
            )
            assert v["image_distance"] == 0.0 and v["offending_coordinates"] == []

    @pytest.mark.parametrize("name, m", PRESET_MAPS)
    def test_basis_jacobians_equal_stacked_points(self, request, name, m):
        M, Phi = _preset_map(request, name, m)
        Z, _ = stratified_points(M, 12, seed=6)
        for B in Phi.blocks:
            stacked = np.stack([monomial_jacobian(z, B.exponents) for z in Z])
            assert np.array_equal(monomial_jacobian(Z, B.exponents), stacked)
            stacked = np.stack([eval_basis_jacobian(B, z) for z in Z])
            assert np.array_equal(eval_basis_jacobian(B, Z), stacked)

    @pytest.mark.parametrize("name, m", PRESET_MAPS)
    def test_map_is_its_bases_side_by_side(self, request, name, m):
        # a basis is a map with one block: the map's values and Jacobian are
        # its blocks' eval_basis_batch and eval_basis_jacobian, bit for bit
        M, Phi = _preset_map(request, name, m)
        Z, _ = stratified_points(M, 12, seed=7)
        np.testing.assert_array_equal(
            basis.block_values(Z, Phi.blocks), np.hstack([eval_basis_batch(B, Z) for B in Phi.blocks])
        )
        np.testing.assert_array_equal(
            basis.block_jacobian(Z, Phi.blocks),
            np.concatenate([eval_basis_jacobian(B, Z) for B in Phi.blocks], axis=1),
        )

    def test_monomial_passes_bounded_by_row_blocks(self, example2, example2_phi, monkeypatch):
        # every monomial pass of the certificate covers a whole batch: the
        # count does not grow with the sample (points x blocks would be 1100)
        original = geometry.monomial_products
        rows = []

        def counted(Z, *args, **kwargs):
            rows.append(len(Z))
            return original(Z, *args, **kwargs)

        for module in (geometry, basis):
            monkeypatch.setattr(module, "monomial_products", counted)
        calls = {}
        for samples in (25, 100):
            rows.clear()
            rep = immersion_report(example2_phi, samples=samples, seed=1)
            assert len(rep.records) == samples
            calls[samples] = len(rows)
        assert len(example2_phi.blocks) == 11
        assert calls[25] == calls[100] <= 16
        assert max(rows) <= geometry.ROW_BLOCK

    def test_records_match_the_per_point_rule(self, example2, example2_phi):
        # the records' strata from one strata_of call, their sigma from the
        # stacked spectra, rebuilt point by point from the oracle's rule
        Z, labels = stratified_points(example2, 30, seed=0)
        sigma = jacobian_singular_values(example2_phi, Z)[:, -1]
        expected = []
        for z, label, s in zip(Z, labels, sigma):
            order, _, near = stratum_info(example2, z)
            expected.append((str(label), order, near, float(s)))
        rep = immersion_report(example2_phi, 30)
        assert rep.records == tuple(expected)
        assert {label for label, *_ in rep.records} == {"regular", "stratum", "near-stratum"}
        assert rep.min_singular_value == float(np.min(sigma))
        first = int(np.flatnonzero(sigma <= np.min(sigma) * (1 + ARGMIN_RTOL))[0])
        assert rep.argmin_index == first
        assert np.array_equal(rep.argmin_point, Z[first])


    def test_named_sample_does_not_move_with_the_last_bits(self, example2_phi, monkeypatch):
        # sigma_min is constant on an orbit, and the order-6 stratum of
        # example2 (the z_3 axis) is one orbit: its samples tie to rounding.
        # At seed 1 the minimum lies on that stratum
        rep = immersion_report(example2_phi, samples=30, seed=1)
        sigma = np.array([record[3] for record in rep.records])
        tied = np.flatnonzero(sigma <= rep.min_singular_value * (1 + ARGMIN_RTOL))
        assert len(tied) >= 4 and rep.argmin_index == tied[0]
        assert {rep.records[i][1] for i in tied} == {6}
        spectra = embedding.jacobian_singular_values
        exact_argmins = set()
        for seed in range(8):
            ulps = np.random.default_rng(seed).integers(-4, 5, size=len(tied))

            def perturbed(Phi, Z):
                S = spectra(Phi, Z)
                S[tied, -1] *= 1 + ulps * np.finfo(float).eps
                exact_argmins.add(int(np.argmin(S[:, -1])))
                return S

            monkeypatch.setattr(embedding, "jacobian_singular_values", perturbed)
            moved = immersion_report(example2_phi, samples=30, seed=1)
            assert moved.min_singular_value == min(record[3] for record in moved.records)
            assert moved.argmin_index == rep.argmin_index
            assert np.array_equal(moved.argmin_point, rep.argmin_point)
        # the exact argmin moves with the last bits; the named sample does not
        assert len(exact_argmins) > 1, exact_argmins

    def test_m3_map_is_no_immersion_on_z3_axis(self, example2, example2_phi):
        # at m = 3 no block level is = 1 mod 6, so on the order-6 stratum (the
        # z_3 axis) every coordinate's z_1-derivative vanishes: a
        # demonstration of why the k-indexed levels are needed, not a bug
        Phi3 = build_embedding(example2, 3)
        assert not any(level % 6 == 1 for level in Phi3.levels)
        rep = immersion_report(Phi3, samples=100, seed=1)
        assert rep.failures
        for failure in rep.failures:
            assert failure["label"] == "stratum"
            assert failure["stratum_order"] == 6
            support = np.flatnonzero(np.abs(failure["point"]) > geometry.ZERO_TOLERANCE)
            assert support.tolist() == [2]
            assert len(failure["singular_values"]) == example2.n
            assert failure["singular_values"][-1] < 1e-20
        assert rep.min_singular_value == min(f["singular_values"][-1] for f in rep.failures)
        # the bound is on the scale of the compliant-whitened map
        Phi4 = build_embedding(example2, 4, measure="compliant-quadrature", samples=12_500)
        rep4 = immersion_report(Phi4, samples=100, seed=1)
        assert rep4.failures == ()
        assert rep4.min_singular_value > 1.0


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
        y = sphere2.point(-x)
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


def _certify_given_pairs(monkeypatch, M, X, Y, same_orbit, threshold):
    """separation_report on the pairs (X, Y) under a map that sends every
    point to 0, so that each pair it holds to the floor is a violation.
    Each pair's kind is its index, or "same-orbit" where same_orbit is set."""
    kinds = np.where(same_orbit, "same-orbit", np.arange(len(X)).astype(str))

    def given_pairs(M, pair_count, seed):
        return X, Y, kinds
        yield  # a ray job that asks for no rays

    monkeypatch.setattr(embedding, "pair_job", given_pairs)
    monkeypatch.setattr(embedding, "block_values", lambda Z, bases: np.zeros((len(Z), 1)))
    Phi = embedding.EmbeddingMap(M, (), np.zeros(0, dtype=np.int64))
    return separation_report(Phi, len(X), threshold).violations


def _pairs(M, delta, seed):
    """(X, Y, same_orbit): eight pairs of each family on M, in order: random
    points; points at ambient distance about delta; pairs whose quotient
    distance is the lower bound || |x| - |y| || (equal phases, up to a turn);
    pairs whose quotient distance is the ambient one (real coordinates >= 0);
    same-orbit pairs."""
    rng = np.random.default_rng(seed)
    P = integrate.random_surface_points(M, 24, seed)
    step = rng.normal(size=(8, M.n)) + 1j * rng.normal(size=(8, M.n))
    near = integrate.project_radially(M, P[16:] + delta * step / np.linalg.norm(step, axis=1, keepdims=True))
    stretched = integrate.project_radially(M, P[:8] * rng.uniform(0.5, 1.5, size=(8, M.n)))
    aligned = M.act(rng.uniform(0.0, 2 * math.pi, 8), stretched)
    real = integrate.project_radially(M, np.abs(P[8:]))
    turned = M.act(rng.uniform(0.0, 2 * math.pi, 8), P[:8])
    X = np.concatenate([P[:8], P[16:], P[:8], real[:8], P[:8]])
    Y = np.concatenate([P[8:16], near, aligned, real[8:], turned])
    return X, Y, np.arange(40) >= 32


class TestSeparationBounds:
    """separation_job decides pairs by exact bounds on the quotient distance,
    and runs the orbit search only on the pairs they leave open."""

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), delta=st.sampled_from([0.001, 0.05, 0.3]))
    def test_bound_verdicts_equal_the_search(self, monkeypatch, sphere2, wsphere12, wsphere126,
                                             example2, seed, delta):
        # thresholds: delta, and nudged by a relative step, the quotient
        # distance of a random and a near pair, the lower bound of an aligned
        # pair and the ambient distance of a real one, where each bound is tight
        for M in (sphere2, wsphere12, wsphere126, example2):
            X, Y, same_orbit = _pairs(M, delta, seed)
            qd = M.orbit_distance_batch(X, Y)[0]
            lower = np.linalg.norm(np.abs(X) - np.abs(Y), axis=1)
            ambient = np.linalg.norm(X - Y, axis=1)
            j = seed % 8
            straddling = np.outer([qd[j], qd[8 + j], lower[16 + j], ambient[24 + j]],
                                  1 + np.array([-1e-9, -1e-13, 0.0, 1e-13, 1e-9]))
            for threshold in [delta, *straddling[straddling > 0].tolist()]:
                violations = _certify_given_pairs(monkeypatch, M, X, Y, same_orbit, threshold)
                held = {int(v["kind"]) for v in violations if v["kind"] != "same-orbit"}
                assert held == set(np.flatnonzero(~same_orbit & (qd > threshold)).tolist())
                assert np.all(qd[same_orbit] <= threshold)

    @pytest.mark.parametrize("name", ["sphere2", "wsphere12", "wsphere126", "example2"])
    def test_the_search_lies_between_the_bounds(self, request, name):
        M = request.getfixturevalue(name)
        X, Y, _ = _pairs(M, 0.05, 1)
        qd = M.orbit_distance_batch(X, Y)[0]
        lower = np.linalg.norm(np.abs(X) - np.abs(Y), axis=1)
        ambient = np.linalg.norm(X - Y, axis=1)
        for i in range(0, len(X), 3):
            brute = brute_orbit_distance(M.weights.array, X[i], Y[i])
            assert lower[i] <= qd[i] * (1 + 1e-12) + 1e-15
            assert lower[i] <= brute and qd[i] <= brute * (1 + 1e-12) + 1e-15
            assert brute <= ambient[i] * (1 + 1e-15)

    def test_violations_keep_the_search_value_same_orbit(self, monkeypatch, wsphere12):
        # the level-4 block of the (1, 2) sphere is invariant under the
        # quarter turn, so same-orbit pairs a quarter turn apart violate
        pairs = []

        def quarter_turns(M, pair_count, seed):
            X, Y, kinds = yield from integrate.pair_job(M, pair_count, seed)
            orbit = np.flatnonzero(kinds == "same-orbit")
            Y[orbit] = M.act(math.pi / 2 * (1 + orbit % 3), X[orbit])
            pairs.append((X, Y))
            return X, Y, kinds

        monkeypatch.setattr(embedding, "pair_job", quarter_turns)
        rep = separation_report(embedding_from_levels(wsphere12, [4]), pair_count=60, seed=0)
        [(X, Y)] = pairs
        self._assert_records_keep_the_search_value(wsphere12, X, Y, rep.violations)
        assert {v["kind"] for v in rep.violations} == {"same-orbit"}
        assert len(rep.violations) >= 10

    def test_violations_keep_the_search_value_every_kind(self, monkeypatch):
        # level 1 has no representation on the (2, 3) sphere, so N = 0 and
        # every pair violates; all of them, and only they, are searched
        M = geometry.Manifold.sphere(2, (2, 3))
        [(X, Y, _)] = integrate.solve_rays(M, integrate.pair_job(M, 30, 0))
        rows, search = [], geometry.Manifold.orbit_distance_batch
        monkeypatch.setattr(geometry.Manifold, "orbit_distance_batch",
                            lambda M, A, B: rows.append(len(A)) or search(M, A, B))
        rep = separation_report(embedding_from_levels(M, [1]), pair_count=30, seed=0)
        assert rows == [len(rep.violations)] == [30]
        self._assert_records_keep_the_search_value(M, X, Y, rep.violations)

    def test_a_lone_violating_pair_keeps_the_search_value(self, monkeypatch, example2):
        # each same-orbit pair certified alone is the one row searched; its
        # record equals the all-pairs search, where a one-row grid scan that
        # rounded otherwise picked another angle on 25 of these 988 pairs
        [(X, Y, kinds)] = integrate.solve_rays(example2, integrate.pair_job(example2, 3000, 5))
        qd = example2.orbit_distance_batch(X, Y)[0]
        rows, search = [], geometry.Manifold.orbit_distance_batch
        monkeypatch.setattr(geometry.Manifold, "orbit_distance_batch",
                            lambda M, A, B: rows.append(len(A)) or search(M, A, B))
        same = np.flatnonzero((kinds == "same-orbit") & (np.linalg.norm(X - Y, axis=1) > 0.05))
        for i in same:
            [v] = _certify_given_pairs(monkeypatch, example2, X[i : i + 1], Y[i : i + 1], True, 0.05)
            assert v["quotient_distance"] == qd[i], i
        assert rows == [1] * len(same)

    @staticmethod
    def _assert_records_keep_the_search_value(M, X, Y, violations):
        qd = M.orbit_distance_batch(X, Y)[0]
        index = {(tuple(x), tuple(y)): i for i, (x, y) in enumerate(zip(X.tolist(), Y.tolist()))}
        for v in violations:
            assert v["quotient_distance"] == qd[index[tuple(v["x"]), tuple(v["y"])]]
