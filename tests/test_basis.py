import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point
from oracles import (
    exhaustive_multiindices,
    holomorphic_derivative_fd,
    mc_sphere_integral,
    multiindices_recursive,
    simplex_rule_diagonal_complex,
)

import szegolab.basis as basis
import szegolab.geometry as geometry
import szegolab.integrate as integrate
from szegolab.basis import (
    COMPLIANT,
    ROUND_EXACT,
    GramEstimate,
    dimension,
    enumerate_multiindices,
    eval_basis,
    eval_basis_batch,
    eval_basis_jacobian,
    fourier_bases,
    fourier_basis,
    gram_matrices,
    gram_matrix,
    monomial_values,
    orthonormalize,
    resolve_measure,
    sphere_monomial_norm_sq,
)
from szegolab.errors import GramNotPositiveDefiniteError, RankDeficiencyError, SamplingError
from szegolab.geometry import Manifold, WeightVector
from szegolab.integrate import SampleSet, compliant_density, surface_samples


class TestEnumeration:
    def test_unit_weights(self):
        idx = enumerate_multiindices(WeightVector((1, 1)), 3)
        assert idx.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]

    def test_weights_12(self):
        idx = enumerate_multiindices(WeightVector((1, 2)), 4)
        assert idx.tolist() == [[4, 0], [2, 1], [0, 2]]

    @pytest.mark.parametrize(
        "ws", [(1, 2, 6), (1, 1), (1, 2), (2, 3, 5), (1, 1, 1, 1), (3, 1, 2), (2, 1), (1,), (5, 3)]
    )
    def test_matches_recursive_generator(self, ws):
        for m in range(61):
            idx = enumerate_multiindices(WeightVector(ws), m)
            ref = multiindices_recursive(ws, m)
            assert idx.dtype == ref.dtype and idx.shape == ref.shape
            np.testing.assert_array_equal(idx, ref)

    @pytest.mark.parametrize(
        "ws", [(1, 2, 6), (1, 1), (1, 2), (2, 3, 5), (1, 1, 1, 1), (3, 1, 2), (2, 1), (1,), (5, 3)]
    )
    def test_stacked_levels_equal_the_per_level_rows(self, ws):
        # unsorted, with a repeat, level 0 and levels that are empty for some weights
        wv = WeightVector(ws)
        levels = [17, 0, 4, 1, 60, 4, 2, 33]
        A, counts = enumerate_multiindices(wv, levels)
        per_level = [enumerate_multiindices(wv, m) for m in levels]
        assert A.dtype == np.int64 and counts.tolist() == [len(B) for B in per_level]
        np.testing.assert_array_equal(A, np.vstack(per_level))
        np.testing.assert_array_equal(enumerate_multiindices(wv, [60])[0], per_level[4])

    def test_stacked_edge_cases(self):
        wv = WeightVector((2, 3))
        A, counts = enumerate_multiindices(wv, [])
        assert A.shape == (0, 2) and counts.tolist() == []
        A, counts = enumerate_multiindices(wv, [1, 6, 1])
        assert A.tolist() == [[3, 0], [0, 2]] and counts.tolist() == [0, 2, 0]
        with pytest.raises(ValueError, match="m must be >= 0"):
            enumerate_multiindices(wv, [3, -1])
        with pytest.raises(ValueError, match="m must be >= 0"):
            enumerate_multiindices(wv, -1)

    def test_weights_126_vs_exhaustive(self):
        idx = enumerate_multiindices(WeightVector((1, 2, 6)), 6)
        expected = exhaustive_multiindices((1, 2, 6), 6)
        assert list(map(tuple, idx.tolist())) == expected
        assert len(idx) == 5

    @settings(max_examples=60, deadline=None)
    @given(
        ws=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        m=st.integers(0, 18),
    )
    def test_matches_exhaustive_and_degrees(self, ws, m):
        wv = WeightVector(tuple(ws))
        idx = enumerate_multiindices(wv, m)
        assert idx.dtype == np.int64 and idx.shape == (dimension(wv, m), len(ws))
        assert list(map(tuple, idx.tolist())) == exhaustive_multiindices(ws, m)
        assert np.all(idx @ np.array(ws) == m)

    def test_dimension_bounds(self):
        # d_m <= binom(m+n-1, n-1), equality for unit weights
        for m in range(0, 30):
            assert dimension(WeightVector((1, 1, 1)), m) == math.comb(m + 2, 2)
            d = dimension(WeightVector((1, 2, 6)), m)
            assert d <= math.comb(m + 2, 2)

    def test_dimension_monotone_along_residue_classes(self):
        wv = WeightVector((1, 2, 6))
        L = wv.lcm
        for r in range(L):
            ds = [dimension(wv, m) for m in range(r, 201, L)]
            assert all(a <= b for a, b in zip(ds, ds[1:]))

    def test_quasi_polynomial_growth(self):
        # d_m (n-1)! prod(w) / m^{n-1} -> 1 along multiples of the lcm
        for ws in ((1, 1), (1, 2), (1, 2, 6)):
            wv = WeightVector(ws)
            n = len(ws)
            L = wv.lcm
            m = (200 // L) * L
            ratio = (
                dimension(wv, m)
                * math.factorial(n - 1)
                * math.prod(ws)
                / m ** (n - 1)
            )
            assert 0.9 <= ratio <= 1.1


class TestExactNorms:
    def test_closed_forms(self):
        norm = sphere_monomial_norm_sq((0, 0), 2)
        assert norm.rational_part == Fraction(2) and norm.pi_power == 2
        assert sphere_monomial_norm_sq((1, 0), 2).value() == pytest.approx(math.pi**2)
        norm3 = sphere_monomial_norm_sq((2, 1, 0), 3)
        assert norm3.rational_part == Fraction(2 * 2, math.factorial(5))
        assert norm3.value() == pytest.approx(math.pi**3 / 30)

    @pytest.mark.parametrize("exps,n", [((0, 0), 2), ((1, 0), 2), ((2, 1, 0), 3)])
    def test_against_mc_oracle(self, exps, n):
        exact = sphere_monomial_norm_sq(exps, n).value()

        def f(Z):
            return np.abs(monomial_values(Z, [exps])[:, 0]) ** 2

        est, stderr = mc_sphere_integral(f, n, samples=1_000_000, seed=77)
        assert abs(est - exact) < 5 * stderr + 1e-12

    def test_no_overflow_for_large_degree(self):
        v = sphere_monomial_norm_sq((150, 100, 80), 3).value()
        assert 0 < v < 1e-100  # tiny but representable via exact rational ratio


class TestGram:
    def test_round_exact_diagonal(self, sphere2, example2):
        # the sphere-L^2 normalization of the monomials, on a sphere or not
        for M in (sphere2, example2):
            idx = enumerate_multiindices(M.weights, 5)
            G = gram_matrix(idx, M, measure=ROUND_EXACT)
            assert G.stderr is None
            expected = [sphere_monomial_norm_sq(alpha, M.n).value() for alpha in idx.tolist()]
            assert np.allclose(G.matrix, expected)

    def test_auto_rule(self, sphere2, wsphere12, example2):
        # span-only callers get round-exact everywhere; kernel values get it
        # only on the standard sphere
        for M, kernel_value in ((sphere2, ROUND_EXACT), (wsphere12, COMPLIANT),
                                (example2, COMPLIANT)):
            assert resolve_measure(M, "auto") == kernel_value
            assert resolve_measure(M, "auto", span_only=True) == ROUND_EXACT
            for explicit in (ROUND_EXACT, COMPLIANT):
                assert resolve_measure(M, explicit) == explicit
                assert resolve_measure(M, explicit, span_only=True) == explicit

    def test_compliant_offdiagonal_within_noise(self, wsphere12):
        idx = enumerate_multiindices(wsphere12.weights, 6)
        S = surface_samples(wsphere12, 100_000, 3)
        G = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S)
        off = ~np.eye(len(idx), dtype=bool)
        assert np.all(np.abs(G.matrix[off]) <= 5 * G.stderr[off] + 1e-12)

    def test_example2_gram_positive_definite(self, example2):
        idx = enumerate_multiindices(example2.weights, 6)
        assert len(idx) == 5
        G = gram_matrix(idx, example2, measure=COMPLIANT, samples=60_000, seed=5)
        assert G.smallest_eigenvalue > 0

    def test_mixed_levels_rejected(self, sphere2):
        with pytest.raises(ValueError, match="several weighted degrees"):
            gram_matrix([(1, 0), (1, 1)], sphere2)

    @pytest.mark.parametrize("measure", [ROUND_EXACT, COMPLIANT])
    def test_degrees_are_read_under_the_manifolds_weights(self, wsphere12, measure):
        # (2, 0) and (0, 2) share a degree under weights (1, 1), but under X's
        # weights (1, 2) they are levels 2 and 4
        with pytest.raises(ValueError, match=r"several weighted degrees: \[2, 4\]"):
            gram_matrix([(2, 0), (0, 2)], wsphere12, measure=measure)
        with pytest.raises(ValueError, match="several weighted degrees"):
            gram_matrices({4: [(4, 0), (2, 1), (0, 4)]}, wsphere12, measure=measure)

    @pytest.mark.parametrize("measure", [ROUND_EXACT, COMPLIANT])
    def test_negative_exponents_rejected(self, wsphere12, measure):
        # (4, -1) has weighted degree 2 under (1, 2), the level of (2, 0)
        with pytest.raises(ValueError, match="negative exponent"):
            gram_matrix([(2, 0), (4, -1)], wsphere12, measure=measure)


def _level_set(M, keep):
    """Levels with the monomials that keep[m] accepts; None keeps all of them."""
    levels = {}
    for m, rule in keep.items():
        A = enumerate_multiindices(M.weights, m)
        levels[m] = A[np.array([rule is None or rule(e) for e in A.tolist()], dtype=bool)]
    return levels


# on each manifold one level is empty and the largest exponents of the
# coordinates come from different levels
LEVEL_SETS = {
    "wsphere12": {
        9: None,  # largest z1 exponent, 9
        12: lambda e: e[0] <= 2,  # largest z2 exponent, 6
        7: lambda e: False,
        10: lambda e: e[0] % 4 == 0,
    },
    "example2": {
        10: lambda e: e[2] == 0,  # largest z1 and z2 exponents, 10 and 5
        12: lambda e: e[0] <= 1 and e[1] <= 1,  # largest z3 exponent, 2
        5: lambda e: False,
        8: None,
    },
}


class TestGramMatrices:
    @pytest.mark.parametrize("name, samples", [("wsphere12", 30_000), ("example2", 8_000)])
    def test_batched_equals_single_level(self, request, name, samples):
        M = request.getfixturevalue(name)
        levels = _level_set(M, LEVEL_SETS[name])
        assert any(len(idx) == 0 for idx in levels.values())
        A = {m: idx for m, idx in levels.items() if len(idx)}
        argmax_levels = {max(A, key=lambda m: A[m][:, k].max()) for k in range(M.n)}
        assert len(argmax_levels) > 1

        S = surface_samples(M, samples, 4)
        batched = gram_matrices(levels, M, measure=COMPLIANT, sample_set=S)
        assert list(batched) == list(levels)
        c = S.weights * compliant_density(M, S.points)
        for m, idx in levels.items():
            single = gram_matrix(idx, M, measure=COMPLIANT, sample_set=S)
            got = batched[m]
            assert got.matrix.shape == single.matrix.shape == (len(idx), len(idx))
            assert got.stderr.shape == single.stderr.shape == (len(idx), len(idx))
            if len(idx) == 0:
                assert got.smallest_eigenvalue == single.smallest_eigenvalue == 0.0
                continue
            scale = np.max(np.abs(single.matrix))
            assert np.max(np.abs(got.matrix - single.matrix)) <= 1e-13 * scale
            assert np.max(np.abs(got.stderr - single.stderr)) <= 1e-13 * np.max(single.stderr)
            assert got.smallest_eigenvalue == pytest.approx(single.smallest_eigenvalue, rel=1e-13)
            # reference: one dense complex product over all the samples at
            # once; the Gram is its real part (its imaginary part is noise)
            V = monomial_values(S.points, idx)
            reference = (V * c[:, None]).T @ V.conj()
            assert np.max(np.abs(got.matrix - reference.real)) <= 1e-12 * scale

    def test_not_positive_definite_fires(self, wsphere12):
        S = surface_samples(wsphere12, 5_000, 2)
        negated = SampleSet(S.points, -S.weights)
        levels = {m: enumerate_multiindices(wsphere12.weights, m) for m in (4, 5)}
        with pytest.raises(GramNotPositiveDefiniteError) as info:
            gram_matrices(levels, wsphere12, measure=COMPLIANT, sample_set=negated)
        assert info.value.smallest_eigenvalue < 0
        assert "level 4 (3 monomials)" in str(info.value)

    @pytest.mark.parametrize("name, levels", [("wsphere12", (4, 7)), ("example2", (6, 12))])
    def test_conjugation_closed_set_gives_the_real_gram(self, request, name, levels):
        """On a sample set closed under z -> zbar the complex estimate is real
        up to rounding, and gram_matrices returns its real part."""
        M = request.getfixturevalue(name)
        S = surface_samples(M, 4_000, 5)
        closed = SampleSet(
            np.concatenate([S.points, S.points.conj()]),
            np.concatenate([S.weights, S.weights]) / 2,
        )
        c = closed.weights * compliant_density(M, closed.points)
        level_indices = {m: enumerate_multiindices(M.weights, m) for m in levels}
        grams = gram_matrices(level_indices, M, measure=COMPLIANT, sample_set=closed)
        for m, idx in level_indices.items():
            V = monomial_values(closed.points, idx)
            oracle = (V * c[:, None]).T @ V.conj()
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(oracle.imag)) <= 1e-15 * scale
            G = grams[m].matrix
            assert G.dtype == np.float64 and grams[m].stderr.dtype == np.float64
            np.testing.assert_array_equal(G, G.T)
            assert np.max(np.abs(G - oracle.real)) <= 1e-12 * scale
            # stderr keeps the complex estimate's second moments
            B = np.abs(V) ** 2
            N = closed.count
            S2 = (B * (N * c**2)[:, None]).T @ B
            stderr = np.sqrt(np.maximum(S2 - oracle.real**2, 0.0) / (N - 1))
            assert np.max(np.abs(grams[m].stderr - stderr)) <= 1e-12 * np.max(stderr)

    def test_streamed_gram_equals_gram_over_the_sample_set(self, example2, monkeypatch):
        levels = {m: enumerate_multiindices(example2.weights, m) for m in (4, 5, 12)}
        with monkeypatch.context() as patch:
            def refuse(*args, **kwargs):
                raise AssertionError("sample set materialized")

            for module, name in ((basis, "surface_samples"), (integrate, "sample_hypersurface")):
                patch.setattr(module, name, refuse)
            streamed = gram_matrices(levels, example2, measure=COMPLIANT, samples=5_000, seed=8)
        S = integrate.sample_hypersurface(example2, 5_000, 8)
        given = gram_matrices(levels, example2, measure=COMPLIANT, sample_set=S)
        for m in levels:
            np.testing.assert_array_equal(streamed[m].matrix, given[m].matrix)
            np.testing.assert_array_equal(streamed[m].stderr, given[m].stderr)

    def test_round_exact_levels(self, wsphere126):
        levels = {m: enumerate_multiindices(wsphere126.weights, m) for m in (3, 6, 7)}
        grams = gram_matrices(levels, wsphere126, measure=ROUND_EXACT)
        for m, idx in levels.items():
            assert grams[m].stderr is None
            np.testing.assert_array_equal(
                grams[m].matrix, gram_matrix(idx, wsphere126).matrix
            )

    def test_round_exact_diagonal_is_the_exact_norms(self, sphere2, wsphere12, wsphere126):
        # the int/int division rounds as float(Fraction) does: equal bit for bit
        for M in (sphere2, wsphere12, wsphere126):
            levels = {m: enumerate_multiindices(M.weights, m) for m in range(61)}
            grams = gram_matrices(levels, M, measure=ROUND_EXACT)
            for m, idx in levels.items():
                expected = [sphere_monomial_norm_sq(alpha, M.n).value() for alpha in idx.tolist()]
                np.testing.assert_array_equal(grams[m].matrix, np.array(expected))

    def test_fourier_bases_keeps_first_occurrence_order(self, wsphere12):
        bases = fourier_bases(wsphere12, [6, 3, 6, 5], samples=2_000, seed=1)
        assert list(bases) == [6, 3, 5]
        for m, B in bases.items():
            assert B.level == m
            np.testing.assert_array_equal(B.exponents, enumerate_multiindices(wsphere12.weights, m))


# |z1|^2 + |z2|^2 + |z1|^4 + |z2|^4 / 2 = 1 under weights (1, 2): torus-invariant, not a sphere
TORUS_SPEC = {
    "n": 2,
    "weights": [1, 2],
    "rho": [
        {"coeff": c, "z_exponents": list(e), "zbar_exponents": list(e)}
        for c, e in (("-1", (0, 0)), ("1", (1, 0)), ("1", (0, 1)), ("1", (2, 0)), ("1/2", (0, 2)))
    ],
}


def _doubled_nodes(M, degree):
    """torus_quadrature with twice its nodes per axis: q = (degree + n) // 2 + 8
    becomes degree + n + 16."""
    return integrate.torus_quadrature(M, 2 * degree + M.n + 16)


# |z1|^2 + 2 |z2|^2 + |z3|^2 / 2 + |z1|^2 |z3|^2 = 1 under weights (1, 2, 6): a
# torus-invariant non-sphere in C^3
TORUS_SPEC_3 = {
    "n": 3,
    "weights": [1, 2, 6],
    "rho": [
        {"coeff": c, "z_exponents": list(e), "zbar_exponents": list(e)}
        for c, e in (("-1", (0, 0, 0)), ("1", (1, 0, 0)), ("2", (0, 1, 0)), ("1/2", (0, 0, 1)),
                     ("1", (1, 0, 1)))
    ],
}


def _torus_manifold(request, name):
    """A torus-invariant fixture by name, or the manifold of TORUS_SPEC ("spec")
    or TORUS_SPEC_3 ("spec3")."""
    specs = {"spec": TORUS_SPEC, "spec3": TORUS_SPEC_3}
    return Manifold.from_spec(specs[name]) if name in specs else request.getfixturevalue(name)


# the two specs are the non-spheres, whose nodes are projected to X along rays
TORUS_MANIFOLDS = ["sphere2", "wsphere12", "wsphere126", "spec", "spec3"]


class TestTorusQuadrature:
    @pytest.mark.parametrize("name", TORUS_MANIFOLDS)
    def test_nodes_are_real(self, request, name):
        # the real-arithmetic Gram pass rests on this: sqrt(sigma) times a real ray root
        M = _torus_manifold(request, name)
        for degree in (0, 7, 60):
            points = integrate.torus_quadrature(M, degree).points
            assert points.dtype == complex and not np.any(points.imag)

    def test_no_rule_on_an_unbracketed_manifold(self, flat_ellipsoid):
        # the z2 axis meets X at t = 100, beyond the ray bracket
        with pytest.raises(SamplingError, match="not bracketed"):
            integrate.torus_quadrature(flat_ellipsoid, 4)

    @pytest.mark.parametrize("gather_entries", [basis.GATHER_ENTRIES, 0])
    @pytest.mark.parametrize("name", TORUS_MANIFOLDS)
    def test_real_pass_equals_the_complex_diagonal(self, request, name, gather_entries, monkeypatch):
        M = _torus_manifold(request, name)
        levels = {m: enumerate_multiindices(M.weights, m) for m in range(61)}
        levels[30] = levels[30][:0]  # an empty level among the others
        monkeypatch.setattr(basis, "GATHER_ENTRIES", gather_entries)
        grams = gram_matrices(levels, M, measure=COMPLIANT)
        want = simplex_rule_diagonal_complex(levels, M)
        for m in levels:
            assert grams[m].matrix.dtype == want[m].dtype == np.float64
            np.testing.assert_array_equal(grams[m].matrix, want[m])

    @pytest.mark.parametrize("n, levels", [(2, (0, 7, 30, 60)), (3, (1, 12, 40))])
    def test_standard_sphere_matches_exact_norms(self, n, levels):
        M = Manifold.sphere(n)
        grams = gram_matrices(
            {m: enumerate_multiindices(M.weights, m) for m in levels}, M, measure=COMPLIANT
        )
        for m in levels:
            G = grams[m]
            assert G.matrix.ndim == 1 and G.stderr is None
            assert G.measure == COMPLIANT
            exact = np.array(
                [sphere_monomial_norm_sq(a, n).value() for a in enumerate_multiindices(M.weights, m).tolist()]
            )
            assert np.max(np.abs(G.matrix / exact - 1)) <= 1e-13

    @pytest.mark.parametrize("weights", [(1, 2), (1, 2, 6)])
    def test_doubling_the_nodes_changes_nothing(self, weights, monkeypatch):
        M = Manifold.sphere(len(weights), weights)
        levels = {m: enumerate_multiindices(M.weights, m) for m in range(1, 61)}
        grams = gram_matrices(levels, M, measure=COMPLIANT)
        monkeypatch.setattr(basis, "torus_quadrature", _doubled_nodes)
        doubled = gram_matrices(levels, M, measure=COMPLIANT)
        for m in levels:
            change = grams[m].matrix / doubled[m].matrix - 1
            assert np.max(np.abs(change)) <= 1e-12

    @pytest.mark.parametrize("name, levels", [("wsphere126", (6, 12)), ("spec", (4, 7))])
    def test_agrees_with_monte_carlo(self, request, name, levels):
        M = _torus_manifold(request, name)
        level_indices = {m: enumerate_multiindices(M.weights, m) for m in levels}
        exact = gram_matrices(level_indices, M, measure=COMPLIANT)
        mc = gram_matrices(
            level_indices, M, measure=COMPLIANT, sample_set=surface_samples(M, 100_000, 5)
        )
        for m in levels:
            assert mc[m].stderr is not None and exact[m].stderr is None
            diff = np.abs(np.diag(exact[m].matrix) - mc[m].matrix)
            assert np.all(diff <= 5 * mc[m].stderr)

    def test_empty_level_and_non_positive_entry(self, wsphere12, monkeypatch):
        levels = {m: enumerate_multiindices(wsphere12.weights, m) for m in (4, 5)}
        grams = gram_matrices({**levels, 7: []}, wsphere12, measure=COMPLIANT)
        assert grams[7].matrix.shape == (0,) and grams[7].smallest_eigenvalue == 0.0
        monkeypatch.setattr(basis, "compliant_density", lambda M, Z: -np.ones(len(Z)))
        with pytest.raises(GramNotPositiveDefiniteError) as info:
            gram_matrices(levels, wsphere12, measure=COMPLIANT)
        assert info.value.smallest_eigenvalue < 0
        assert "level 4 (3 monomials)" in str(info.value)


def _counting(monkeypatch, calls, module, name):
    """Replace module.name by a wrapper that counts its calls in calls[name]."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counted


class TestStackedLevels:
    """fourier_bases builds its levels as one stacked exponent array; a level's
    basis must not depend on the levels built beside it."""

    LEVELS = [9, 2, 0, 14, 2, 5, 30, 1]

    @staticmethod
    def assert_stacking_changes_no_bit(M, levels, **options):
        bases = fourier_bases(M, levels, **options)
        assert list(bases) == list(dict.fromkeys(levels))
        for m, B in bases.items():
            alone = fourier_bases(M, [m], **options)[m]
            assert B.level == alone.level == m and B.measure == alone.measure
            for got, want in ((B.exponents, alone.exponents), (B.coeff_matrix, alone.coeff_matrix)):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["sphere2", "wsphere12", "wsphere126", "example2"])
    def test_round_exact(self, request, name):
        M = request.getfixturevalue(name)
        self.assert_stacking_changes_no_bit(M, self.LEVELS, measure=ROUND_EXACT)

    @staticmethod
    def pin_the_rule(monkeypatch, degree):
        """The simplex rule's node count follows the largest degree in a call:
        pinned, a level alone is integrated on the rule it gets beside others."""
        monkeypatch.setattr(
            basis, "torus_quadrature", lambda M, _: integrate.torus_quadrature(M, degree)
        )

    @pytest.mark.parametrize("name", ["sphere2", "wsphere12", "wsphere126", "spec"])
    def test_torus_rule(self, request, name, monkeypatch):
        M = _torus_manifold(request, name)
        self.pin_the_rule(monkeypatch, max(self.LEVELS))
        self.assert_stacking_changes_no_bit(M, self.LEVELS, measure=COMPLIANT)

    def test_monte_carlo(self, example2):
        S = surface_samples(example2, 2_000, 7)
        self.assert_stacking_changes_no_bit(example2, [6, 4, 5, 6], measure=COMPLIANT, sample_set=S)

    @pytest.mark.parametrize("measure", [ROUND_EXACT, COMPLIANT])
    def test_empty_level(self, measure, monkeypatch):
        M = Manifold.sphere(2, (2, 3))  # no monomial has weighted degree 1
        self.pin_the_rule(monkeypatch, 3)
        self.assert_stacking_changes_no_bit(M, [5, 1, 0, 1, 6], measure=measure)
        assert fourier_bases(M, [1], measure=measure)[1].d == 0

    @pytest.mark.parametrize("measure", [ROUND_EXACT, COMPLIANT])
    def test_negative_level_raises(self, wsphere12, measure):
        with pytest.raises(ValueError, match="m must be >= 0"):
            fourier_bases(wsphere12, [3, -2, 5], measure=measure)

    def test_gather_groups_change_no_bit(self, wsphere126, monkeypatch):
        # GATHER_ENTRIES bounds the rows of one gather; one level per group
        # must give the same diagonals as one group for all of them
        levels = {m: enumerate_multiindices(wsphere126.weights, m) for m in range(0, 40)}
        grams = gram_matrices(levels, wsphere126, measure=COMPLIANT)
        monkeypatch.setattr(basis, "GATHER_ENTRIES", 0)
        calls = collections.Counter()
        _counting(monkeypatch, calls, basis, "gather_products")
        single = gram_matrices(levels, wsphere126, measure=COMPLIANT)
        assert calls["gather_products"] == len(levels)
        for m in levels:
            np.testing.assert_array_equal(grams[m].matrix, single[m].matrix)

    @pytest.mark.parametrize("measure", [ROUND_EXACT, COMPLIANT])
    def test_call_counts_do_not_grow_with_the_level_count(self, wsphere12, monkeypatch, measure):
        # a timing-free guard: the numpy passes of a diagonal path are made once
        # per call, not once per level
        calls = collections.Counter()
        for name in ("gather_products", "power_table"):
            wrapper = _counting(monkeypatch, calls, geometry, name)
            monkeypatch.setattr(basis, name, wrapper)
        for name in ("_round_exact_diagonal", "enumerate_multiindices"):
            _counting(monkeypatch, calls, basis, name)
        counts = []
        for levels in ([20, 22], list(range(20, 61, 2))):
            calls.clear()
            fourier_bases(wsphere12, levels, measure=measure)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["enumerate_multiindices"] == 1
        if measure == ROUND_EXACT:
            assert counts[0]["_round_exact_diagonal"] == 1 and "gather_products" not in counts[0]
        else:
            assert counts[0]["gather_products"] >= 1 and "_round_exact_diagonal" not in counts[0]

    def test_simplex_rule_tables_are_real(self, wsphere12, monkeypatch):
        # a timing-free guard: the compliant torus branch builds and gathers
        # float64 tables, never complex ones
        dtypes = collections.defaultdict(set)
        for name in ("gather_products", "power_table"):
            fn = getattr(geometry, name)

            def recorded(*args, _fn=fn, _name=name):
                out = _fn(*args)
                dtypes[_name].add(out.dtype)
                return out

            monkeypatch.setattr(basis, name, recorded)
        fourier_bases(wsphere12, list(range(20, 61, 2)), measure=COMPLIANT)
        assert dtypes == {"gather_products": {np.dtype(np.float64)}, "power_table": {np.dtype(np.float64)}}


class TestOrthonormalize:
    def test_diagonal_gram_gives_inverse_roots(self, sphere2):
        idx = enumerate_multiindices(sphere2.weights, 3)
        G = gram_matrix(idx, sphere2, measure=ROUND_EXACT)
        B = orthonormalize(idx, G, sphere2.weights)
        assert B.coeff_matrix.ndim == 1
        assert np.allclose(
            B.coeff_matrix, 1 / np.sqrt(G.matrix)
        )
        # orthonormality residual of the exact-measure basis
        C = np.diag(B.coeff_matrix)
        W = C @ np.diag(G.matrix) @ C.conj().T
        assert np.max(np.abs(W - np.eye(len(idx)))) <= 1e-10

    def test_whitened_gram_is_identity(self, wsphere12):
        idx = enumerate_multiindices(wsphere12.weights, 8)
        S = surface_samples(wsphere12, 80_000, 9)
        G = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S)
        B = orthonormalize(idx, G, wsphere12.weights)
        C = B.coeff_matrix
        W = C @ G.matrix @ C.conj().T
        assert np.max(np.abs(W - np.eye(len(idx)))) < 1e-10

    def test_independent_regram_within_noise(self, wsphere12):
        idx = enumerate_multiindices(wsphere12.weights, 6)
        S1 = surface_samples(wsphere12, 100_000, 10)
        G1 = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S1)
        B = orthonormalize(idx, G1, wsphere12.weights)
        S2 = surface_samples(wsphere12, 100_000, 11)
        G2 = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S2)
        C = np.asarray(B.coeff_matrix)
        W = C @ G2.matrix @ C.conj().T
        tol = np.abs(C) @ (3.0 * G2.stderr) @ np.abs(C).T
        assert np.all(np.abs(W - np.eye(len(idx))) <= tol + 1e-9)

    def test_rank_deficiency_carries_pivot(self, sphere2):
        idx = enumerate_multiindices(sphere2.weights, 2)
        G = np.eye(3, dtype=complex)
        G[2, 2] = 0.0  # exact rank drop at the last pivot
        with pytest.raises(RankDeficiencyError) as e:
            orthonormalize(idx, GramEstimate(G, None, COMPLIANT, 0.0), sphere2.weights)
        assert e.value.pivot_index == 2

    def test_no_monomials_rejected(self, wsphere12):
        # an empty level has no basis to whiten; fourier_bases builds its
        # empty FourierBasis itself
        empty = enumerate_multiindices(wsphere12.weights, 7)[:0]
        for matrix in (np.zeros((0, 0)), np.zeros(0)):
            with pytest.raises(ValueError, match="empty"):
                orthonormalize(empty, GramEstimate(matrix, None, COMPLIANT, 0.0), wsphere12.weights)

    def test_permuted_indices_span_same_kernel(self, wsphere12):
        from szegolab.kernel import szego_kernel

        idx = enumerate_multiindices(wsphere12.weights, 8)
        perm = idx[::-1]
        S = surface_samples(wsphere12, 60_000, 12)
        G1 = gram_matrix(idx, wsphere12, measure=COMPLIANT, sample_set=S)
        P = np.arange(len(idx))[::-1]
        G2m = G1.matrix[np.ix_(P, P)]
        B1 = orthonormalize(idx, G1, wsphere12.weights)
        G2 = GramEstimate(G2m, None, COMPLIANT, G1.smallest_eigenvalue)
        B2 = orthonormalize(perm, G2, wsphere12.weights)
        x = random_point(wsphere12, 1)
        y = random_point(wsphere12, 2)
        v1, v2 = szego_kernel([B1, B2], x, y)
        assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


class TestEvaluation:
    def test_equivariance_phase(self, wsphere126):
        B = fourier_basis(wsphere126, 7, measure=ROUND_EXACT)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = random_point(wsphere126, int(rng.integers(0, 10_000)))
            theta = float(rng.uniform(0, 2 * math.pi))
            lhs = eval_basis(B, wsphere126.act(theta, x))
            rhs = np.exp(1j * B.level * theta) * eval_basis(B, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_jacobian_matches_finite_differences(self, wsphere12):
        B = fourier_basis(wsphere12, 6, measure=ROUND_EXACT)
        x = random_point(wsphere12, 4)
        J = eval_basis_jacobian(B, x)
        for k in range(2):
            for j in range(B.d):
                fd = holomorphic_derivative_fd(
                    lambda z, j=j: eval_basis(B, z)[j], x, k
                )
                denom = max(abs(J[j, k]), 1.0)
                assert abs(fd - J[j, k]) / denom < 1e-6

    def test_level_zero_is_inverse_root_volume(self, sphere2):
        B = fourier_basis(sphere2, 0)
        x = random_point(sphere2, 6)
        val = eval_basis(B, x)
        assert val.shape == (1,)
        assert abs(val[0] - 1 / math.sqrt(2 * math.pi**2)) < 1e-12

    def test_batch_matches_single(self, wsphere12):
        B = fourier_basis(wsphere12, 5, measure=ROUND_EXACT)
        pts = np.stack([random_point(wsphere12, s) for s in range(4)])
        batch = eval_basis_batch(B, pts)
        for i in range(4):
            assert np.allclose(batch[i], eval_basis(B, pts[i]))

    def test_diagonal_and_dense_bases_side_by_side(self, wsphere12):
        # one call over a 1-D (round-exact) and a 2-D (Monte-Carlo) coefficient
        # array equals each basis alone, column slice by column slice, bit for bit
        diagonal = fourier_basis(wsphere12, 6, measure=ROUND_EXACT)
        S = surface_samples(wsphere12, 20_000, 3)
        dense = fourier_bases(wsphere12, [5], measure=COMPLIANT, sample_set=S)[5]
        assert diagonal.coeff_matrix.ndim == 1 and dense.coeff_matrix.ndim == 2
        Z = np.stack([random_point(wsphere12, s) for s in range(9)])
        F = basis.block_values(Z, [diagonal, dense])
        J = basis.block_jacobian(Z, [diagonal, dense])
        for B, cols in ((diagonal, slice(0, diagonal.d)), (dense, slice(diagonal.d, None))):
            np.testing.assert_array_equal(F[:, cols], basis.block_values(Z, [B]))
            np.testing.assert_array_equal(J[:, cols], basis.block_jacobian(Z, [B]))

    def test_diagonal_bases_side_by_side(self, wsphere126):
        # every coefficient array 1-D: one product with their concatenation,
        # equal to each basis alone bit for bit
        bases = list(fourier_bases(wsphere126, [7, 3, 12, 8], measure=ROUND_EXACT).values())
        Z = np.stack([random_point(wsphere126, s) for s in range(5)])
        F = basis.block_values(Z, bases)
        J = basis.block_jacobian(Z, bases)
        stop = 0
        for B in bases:
            cols = slice(stop, stop + B.d)
            stop = cols.stop
            np.testing.assert_array_equal(F[:, cols], basis.block_values(Z, [B]))
            np.testing.assert_array_equal(J[:, cols], basis.block_jacobian(Z, [B]))

    def test_empty_level(self):
        from szegolab.geometry import Manifold

        M = Manifold.sphere(2, (2, 3))
        B = fourier_basis(M, 1, measure=ROUND_EXACT)
        assert B.d == 0
