"""Surface sampling and quadrature backends.

Uniform sphere sampling is exact (normalized Gaussians, equal weights).
General invariant hypersurfaces are sampled by radial projection: draw a
direction uniformly on the unit sphere, solve rho(t u) = 0 along the ray, and
weight by the angular co-area Jacobian t^{2n} |grad rho| / (x . grad rho) so
that weighted sums estimate Euclidean surface integrals.  The sampler also
streams: hypersurface_blocks yields the points, weights and compliant
densities block by block, the density taken from the gradient the co-area
weight already needed.  rho has real coefficients with c(a, b) = c(b, a), so
rho(zbar) = rho(z): conjugation maps X to itself and preserves its surface
measure and the compliant density, which is why the Monte-Carlo Gram
matrices built from these samples are real symmetric.  On torus-invariant
hypersurfaces, integrands that depend only on (|z_1|^2, ..., |z_n|^2) are
integrated deterministically instead: a Gauss-Legendre rule on the simplex
of those moduli, pushed to X along the same rays with the same weights.

Every root on a ray is found by a ray job: a generator that yields the unit
directions it needs, is sent their roots (NaN where a ray meets no point of
X) and returns its result.  solve_rays runs jobs in lockstep with one
radial_roots call per step.  Each job reads streams of its own, so its points
are the ones it finds alone, up to the last bits that the batch size moves.
The strata need only to know which rays meet X, and ray_brackets tells that
without solving a root.

Every random draw is made here, from _stream(seed, *key): a counter-based
Philox generator on SeedSequence(seed, spawn_key=key), so chunked draws equal
the one-shot draw.  Each role has a key of its own; no two share a stream:

    ()                   Monte-Carlo Gram samples and sample_sphere
    (IMMERSION_KEY, i)   stratified_job: directions (i = 0), near steps (1)
    (SEPARATION_KEY, i)  pair_job: the same, and orbit angles (2)
    (POINT_KEY,)         random_surface_points: fit's evaluation point
    (PATTERN_KEY,)       support_pattern_points
    (BALL_KEY,)          ball_points: ratio's balls

Manifold.strata_orders draws none: its witness rays are fixed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SamplingError
from .geometry import (
    ROW_BLOCK,
    Manifold,
    compliant_density_from_gradient,
    safeguarded_newton,
)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in C^n: 2 pi^n / (n-1)!."""
    return 2.0 * math.pi**n / math.factorial(n - 1)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Quadrature points on X with surface-measure weights (sum ~ area)."""

    points: np.ndarray  # (N, n) complex
    weights: np.ndarray  # (N,) positive

    @property
    def count(self) -> int:
        return self.points.shape[0]


IMMERSION_KEY, SEPARATION_KEY, POINT_KEY, PATTERN_KEY, BALL_KEY = range(5)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of the role with spawn key `key` under seed (the key table above)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _uniform_directions(n: int, count: int, rng) -> np.ndarray:
    g = rng.normal(size=(count, 2 * n))
    u = g[:, :n] + 1j * g[:, n:]
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def sample_sphere(n: int, count: int, seed: int = 0) -> SampleSet:
    """Uniform points on the unit sphere S^{2n-1} with equal weights."""
    if count < 1:
        raise ValueError("count must be >= 1")
    u = _uniform_directions(n, count, _stream(seed))
    w = np.full(count, sphere_area(n) / count)
    return SampleSet(u, w)


# rays still inside X at this distance from the origin get no root
RAY_T_MAX = 8.0
# the bracketing grid: t = 0 and the uniform steps of RAY_T_MAX / 128 = 1/16 up
# to RAY_T_MAX, every point a dyadic rational
_RAY_GRID = np.arange(129) * (RAY_T_MAX / 128)
RULE_AXIS_MAX = 2048  # Gauss-Legendre nodes per axis of a simplex rule (dense Jacobi matrix)


def _ray_values(C: np.ndarray, D: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, f') at t (N,) of the polynomials with coefficient rows C (N, d+1) and
    derivative rows D (N, d), from one power table T[i, k] = t_i^k and row sums."""
    T = np.power(t[:, None], np.arange(C.shape[1], dtype=float))
    return np.einsum("ij,ij->i", C, T), np.einsum("ij,ij->i", D, T[:, :-1])


def ray_brackets(M: Manifold, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, upper) for the rays along the rows of U (N, n): no root is solved.

    C (N, degree + 1) holds each ray's polynomial, rho(t u_i) = sum_d C[i, d] t^d,
    from one evaluator pass, and one product with the powers of the grid
    _RAY_GRID brackets every ray: upper[i] indexes the first grid point where
    rho >= 0, and is 0 (the grid point t = 0, where rho < 0) on the rays
    still negative at RAY_T_MAX.  rho(0) >= 0 raises SamplingError.
    """
    C = M.rho.ray_coefficients(U)
    if np.any(C[:, 0] >= 0):
        raise SamplingError("rho(0) >= 0: surface is not star-shaped about 0")
    nonneg = C @ _RAY_GRID[None, 1:] ** np.arange(C.shape[1])[:, None] >= 0
    return C, np.where(nonneg.any(axis=1), np.argmax(nonneg, axis=1) + 1, 0)


def radial_roots(M: Manifold, U: np.ndarray) -> np.ndarray:
    """First positive root of rho(t u) per row of U; NaN where none is bracketed.

    ray_brackets gives each ray's polynomial and its bracket on the uniform
    grid of step RAY_T_MAX / 128 = 1/16.  One geometry.safeguarded_newton
    call on _ray_values starts each bracketed ray at the upper end, so a root
    on the grid comes back exactly.  An example2 ray converges in 5 passes
    when its root lies within 1/32 of that end, and in at most 6.  The
    coefficients come from a BLAS contraction whose rounding
    depends on the batch size, so a ray's root can differ from its one-ray
    root in the last bits.  Nothing checks that a ray meets X only once: two
    crossings within 1/16 of each other, between grid points, go unseen, and
    the root is a sign change inside the first bracket.  rho(0) >= 0 raises
    SamplingError.
    """
    C, upper = ray_brackets(M, U)
    bracketed = np.flatnonzero(upper)
    upper = upper[bracketed]
    roots = np.full(len(C), np.nan)
    C = C[bracketed]
    roots[bracketed] = safeguarded_newton(
        functools.partial(_ray_values, C, C[:, 1:] * np.arange(1, C.shape[1])),
        _RAY_GRID[upper - 1], _RAY_GRID[upper],
    )
    return roots


def hypersurface_blocks(M: Manifold, count: int, seed: int = 0):
    """Radial-projection samples of {rho = 0}, streamed ROW_BLOCK directions at a time.

    Yields (X, w, density) per block: the points on X, their co-area weights
    and the compliant density at them, computed from the gradient that the
    co-area weight needed already.  All directions come from the stream
    _stream(seed).  Chunked draws equal the one-shot draw, roots are
    found per ray, and rho's evaluator works in blocks of ROW_BLOCK rows, so
    the blocks concatenate to sample_hypersurface(M, count, seed) bit for bit.
    """
    for X, w, rho_z in _projected_blocks(M, count, seed):
        yield X, w, compliant_density_from_gradient(M, X, rho_z)


def sample_hypersurface(M: Manifold, count: int, seed: int = 0) -> SampleSet:
    """Radial-projection sampling of {rho = 0} with co-area weights: the
    points and weights of hypersurface_blocks, concatenated.

    On a sphere the weights reduce to the equal sphere-uniform weights.
    """
    X, w, _ = zip(*_projected_blocks(M, count, seed))
    return SampleSet(np.concatenate(X), np.concatenate(w))


def _projected_blocks(M: Manifold, count: int, seed: int):
    """_coarea_rule per block of ROW_BLOCK directions drawn from one stream."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _stream(seed)
    w = sphere_area(M.n) / count
    for start in range(0, count, ROW_BLOCK):
        U = _uniform_directions(M.n, min(ROW_BLOCK, count - start), rng)
        yield solve_rays(M, _coarea_rule(M, U, w))[0]


def _coarea_rule(M: Manifold, U: np.ndarray, w):
    """Ray job: a rule on X from a rule on the unit sphere, directions U (N, n)
    with weights w.

    Each direction is projected to X along its ray, and its weight is
    multiplied by the angular co-area Jacobian t^{2n} |grad rho| / (x . grad rho).
    Returns the points, their weights and the gradient (d rho / d z_j) there.
    """
    t = yield from _roots(U)
    X = U * t[:, None]
    rho_z, radial = _radial_slopes(M, X)
    return X, w * t ** (2 * M.n) * (2.0 * np.linalg.norm(rho_z, axis=1)) / radial, rho_z


def _radial_slopes(M: Manifold, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d rho / d z_j) and x . grad rho at the rows of X.  A ray touching X,
    rho = -a (t - t0)^2 along it, has a slope of either sign and at most about
    2 sqrt(a tol) where |rho| <= tol = surface_tolerance; so, with |rho(0)| for
    a, a slope of at most sqrt(|rho(0)| tol) raises SamplingError."""
    rho_z = M.rho.z_gradient(X)
    radial = 2.0 * np.sum(X * rho_z, axis=1).real
    depth = -float(M.rho.terms.get(((0,) * M.n, (0,) * M.n), 0))  # |rho(0)|: rho(0) < 0 on a star-shaped X
    if np.any(radial <= math.sqrt(depth * M.surface_tolerance)):
        raise SamplingError("ray meets the surface non-transversally")
    return rho_z, radial


def torus_invariant(M: Manifold) -> bool:
    """True when every term of rho is z^a zbar^a, so that rho depends only on
    s = (|z_1|^2, ..., |z_n|^2); every sphere is torus-invariant."""
    return all(a == b for a, b in M.rho.terms)


def _legendre_pair(x: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(P_{q-1}(x), P_q(x)) by the three-term recurrence, for q >= 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, q + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p_prev, p


@functools.lru_cache
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], nodes ascending; built
    once per process for each q and shared read-only.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix,
    off-diagonal k / sqrt(4 k^2 - 1) (Golub and Welsch, Math. Comp. 23, 1969),
    polished by one Newton step through the three-term recurrence and made
    symmetric about 0.  The weights 2 / ((1 - x^2) P_q'(x)^2) come from the
    same recurrence, with P_q'(x) = q (P_{q-1}(x) - x P_q(x)) / (1 - x^2).
    Against 40-digit rules the nodes are good to 9e-17 at every q <= 80.  The
    weights are good to 3.1e-14 relative at q = 2, 3, 10, 39 and 80, and to
    1.3e-13 at every q <= 80: an end node's rounding error alone moves its
    weight by 2 |x| / (1 - x^2) times that error, relative.
    """
    k = np.arange(1, q)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    p_prev, p = _legendre_pair(x, q)
    x = x - p * (1.0 - x) * (1.0 + x) / (q * (p_prev - x * p))  # P_q / P_q'
    x = 0.5 * (x - x[::-1])
    p_prev, p = _legendre_pair(x, q)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp = q * (p_prev - x * p) / one_minus_x2  # P_q'(x)
    w = 2.0 / (one_minus_x2 * dp**2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def torus_quadrature(M: Manifold, degree: int) -> SampleSet:
    """Deterministic nodes on a torus-invariant X for integrands that depend on s only.

    s = (|u_1|^2, ..., |u_n|^2) of a uniform direction u on the unit sphere is
    uniform on the (n-1)-simplex, and on a torus-invariant X the ray root, the
    co-area weight and the compliant density depend on s alone.  So a rule on
    the simplex gives one on X: the collapsed-coordinate (Duffy) product of
    Gauss-Legendre rules, sigma_j = x_j prod_{i<j} (1 - x_i) for j < n and
    sigma_n = prod_i (1 - x_i), with q = (degree + n) // 2 + 8 nodes per axis.
    That is exact for polynomials in s of total degree `degree` (the squared
    modulus of a monomial of total degree `degree`) times the Duffy Jacobian;
    the 8 extra nodes absorb the analytic factors that are not polynomial
    (density and co-area weight).  The directions are sqrt(sigma), projected to
    X with the co-area weights of sample_hypersurface; on a sphere they lie on
    X already and keep the simplex weights.  The weights sum to the area of
    the unit sphere, as a sample set's do.  Nothing is drawn.  A rule of more
    than RULE_AXIS_MAX nodes per axis or RULE_AXIS_MAX**2 in all is a ValueError.
    """
    if not torus_invariant(M):
        raise ValueError("torus_quadrature needs a torus-invariant rho")
    n, q = M.n, (degree + M.n) // 2 + 8
    if q > RULE_AXIS_MAX or q ** (n - 1) > RULE_AXIS_MAX**2:
        raise ValueError(f"the simplex rule of degree {degree} needs {q} nodes per axis, {q ** (n - 1)} "
                         f"in all; at most {RULE_AXIS_MAX} per axis and {RULE_AXIS_MAX**2} in all are built")
    x, w = _gauss_legendre(q)
    axes = np.meshgrid(*[0.5 * (x + 1.0)] * (n - 1), indexing="ij")
    weights = np.prod(np.meshgrid(*[0.5 * w] * (n - 1), indexing="ij"), axis=0).ravel()
    sigma = np.empty((weights.size, n))
    rest = np.ones(weights.size)  # prod_{i<j} (1 - x_i), the Jacobian's j-th factor
    for j, xj in enumerate(axes):
        xj = xj.ravel()
        sigma[:, j] = xj * rest
        weights *= rest
        rest = rest * (1.0 - xj)
    sigma[:, -1] = rest
    # the simplex has volume 1 / (n-1)!: rescale the rule to the sphere's area
    weights *= sphere_area(n) * math.factorial(n - 1)
    U = np.sqrt(sigma).astype(complex)
    if M.kind == "sphere":
        return SampleSet(U, weights)
    [(X, weights, _)] = solve_rays(M, _coarea_rule(M, U, weights))
    return SampleSet(X, weights)


def surface_samples(M: Manifold, count: int, seed: int = 0) -> SampleSet:
    """Sampling backend dispatch: exact sphere sampling when available."""
    if M.kind == "sphere":
        return sample_sphere(M.n, count, seed)
    return sample_hypersurface(M, count, seed)


def compliant_density(M: Manifold, Z: np.ndarray) -> np.ndarray:
    """Compliant-metric volume density at raw coordinates, vectorized.

    Equals |d_z rho| divided by the transversal pairing, as in
    Manifold.levi_form; agrees with a Gram-determinant construction over a
    real tangent frame (covered by tests).
    """
    Z = np.asarray(Z, dtype=complex)
    return compliant_density_from_gradient(M, Z, M.rho.z_gradient(Z))


# -- ray jobs and structured point generators ------------------------------

# Rounds of redraws before a structured point generator gives up; a guard, not
# a tuning knob: certified support patterns and balls around points of X are
# realized in the first round or two.
_MAX_ROUNDS = 200


def solve_rays(M: Manifold, *jobs) -> list:
    """The results of ray jobs run in lockstep on M: each step solves the
    requests of every live job in one radial_roots call (on the unit sphere
    every root is 1 and no call is made), and jobs may finish at different
    steps.  One call on both embedding certificates solves every root of an
    embed campaign in two radial_roots calls when every ray meets X."""
    results = [None] * len(jobs)
    requests = {}  # index of each live job -> the directions it asked for

    def advance(i, t):
        try:
            requests[i] = jobs[i].send(t)
        except StopIteration as stop:
            requests.pop(i, None)
            results[i] = stop.value

    for i in range(len(jobs)):
        advance(i, None)
    while requests:
        live = list(requests)
        U = np.concatenate([requests[i] for i in live])
        t = np.ones(len(U)) if M.kind == "sphere" else radial_roots(M, U)
        for i, roots in zip(live, np.split(t, np.cumsum([len(requests[i]) for i in live])[:-1])):
            advance(i, roots)
    return results


def _roots(U: np.ndarray):
    """Ray job: the roots on the rays U (N, n); SamplingError where one has none."""
    t = yield U
    if np.any(np.isnan(t)):
        raise SamplingError(f"ray root not bracketed in (0, {RAY_T_MAX}]")
    return t


def projection_job(Z: np.ndarray):
    """Ray job: the ambient points Z (N, n) mapped to X along rays from the origin."""
    U = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    t = yield from _roots(U)
    return U * t[:, None]


def _support_mask(supports: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """(len(supports), n) bool array, row i True exactly on supports[i]."""
    return np.array([[j in s for j in range(n)] for s in supports], dtype=bool).reshape(-1, n)


def _patterns_in_turn(M: Manifold, count: int) -> np.ndarray:
    """Support masks (count, n): the singular patterns of M.strata in turn, or all coordinates."""
    patterns = [s for s, _ in M.strata.singular_patterns()] or [tuple(range(M.n))]
    return _support_mask(patterns, M.n)[np.arange(count) % len(patterns)]


def _stratified_plan(M: Manifold, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The support masks and labels of the rows of stratified_points(M, count)."""
    minimum = stratified_minimum(M)
    if count < minimum:
        raise ValueError(f"count must be >= {minimum}, got {count}")
    singular, n_singular, n_near = M.strata.singular_patterns(), 0, 0
    if singular:
        n_singular = max(len(singular), int(round(0.4 * count)))
        n_near = max(1, count - max(1, int(round(0.4 * count))) - n_singular)
    n_regular = count - n_singular - n_near
    on = np.concatenate([np.ones((n_regular, M.n), dtype=bool), _patterns_in_turn(M, n_singular),
                         _patterns_in_turn(M, n_near)])
    return on, np.repeat(["regular", "stratum", "near-stratum"], [n_regular, n_singular, n_near])


def plan_job(M: Manifold, on: np.ndarray, labels: np.ndarray, directions, perturbations):
    """Ray job: one point of X per row of a point plan, (len(on), n).

    Row i is nonzero exactly where the support mask on[i] is True; labels[i]
    is "regular" (every coordinate), "stratum" or "near-stratum".  Every row
    draws its direction from `directions` in one pass, all yielded in one
    step; a regular ray without a root raises SamplingError.  A pattern row
    redraws in the next round when a support coordinate of its direction is
    below 1e-3 in modulus (that direction is not yielded) or its ray has no
    root; one still pending after _MAX_ROUNDS rounds raises SamplingError
    naming its pattern.  Then each near-stratum row steps off its support by
    a length between 0.18 and 0.9 times NEAR_DISTANCE, drawn from
    `perturbations`, and is projected back to X in one more step.  One
    gradient pass checks every row's slope x . grad rho (_radial_slopes),
    and one Manifold.points pass that every row lies on X.
    """
    regular = labels == "regular"
    X = np.empty(on.shape, dtype=complex)
    pending = np.arange(len(on))
    for _ in range(_MAX_ROUNDS):
        g = directions.normal(size=(pending.size, M.n, 2))
        U = np.where(on[pending], g[..., 0] + 1j * g[..., 1], 0.0)
        drawn = np.flatnonzero(regular[pending] | np.all((np.abs(U) >= 1e-3) | ~on[pending], axis=1))
        U = U[drawn] / np.linalg.norm(U[drawn], axis=1, keepdims=True)
        t = yield U
        hit = np.isfinite(t)
        if np.any(regular[pending[drawn[~hit]]]):
            raise SamplingError(f"ray root not bracketed in (0, {RAY_T_MAX}]")
        X[pending[drawn[hit]]] = U[hit] * t[hit, None]
        pending = np.delete(pending, drawn[hit])
        if pending.size == 0:
            break
    else:
        pattern = tuple(np.flatnonzero(on[pending[0]]).tolist())
        raise SamplingError(f"could not realize support pattern {pattern}")
    near = np.flatnonzero(labels == "near-stratum")
    if near.size:
        # a singular pattern never covers every coordinate; perturbing only the
        # off-support ones keeps the distance to the stratum locus controlled by
        # the perturbation size
        g = perturbations.normal(size=(near.size, M.n, 2))
        delta = np.where(on[near], 0.0, g[..., 0] + 1j * g[..., 1])
        size = (0.2 + 0.8 * perturbations.random(near.size)) * NEAR_DISTANCE * 0.9
        delta *= (size / np.maximum(np.linalg.norm(delta, axis=1), 1e-12))[:, None]
        X[near] = yield from projection_job(X[near] + delta)
    _radial_slopes(M, X)
    return M.points(X)


def pattern_job(M: Manifold, supports: Sequence[tuple[int, ...]], seed: int = 0):
    """Ray job: support_pattern_points(M, supports, seed), plan_job on pattern
    rows alone with directions from key PATTERN_KEY, one radial_roots call a round."""
    return plan_job(M, _support_mask(supports, M.n), np.full(len(supports), "stratum"),
                    _stream(seed, PATTERN_KEY), None)


def stratified_job(M: Manifold, count: int, seed: int = 0):
    """Ray job: stratified_points(M, count, seed), plan_job on its plan with
    the streams (IMMERSION_KEY, i), in two steps when every ray meets X."""
    on, labels = _stratified_plan(M, count)
    Z = yield from plan_job(M, on, labels, _stream(seed, IMMERSION_KEY, 0), _stream(seed, IMMERSION_KEY, 1))
    return Z, labels


def pair_job(M: Manifold, pair_count: int, seed: int = 0):
    """Ray job: pair_count stratified pairs of points of X, (X, Y, kinds).

    pair_count // 3 "same-orbit" pairs rotate the rows of a stratified sample
    of max(pair_count // 3, stratified_minimum) points by random angles; as
    many "cross-stratum" pairs put regular points against the singular
    patterns in turn ("regular" pairs of regular points on a free action);
    the rest are "near-stratum" pairs from the regular and near-stratum rows
    of a stratified sample of max(3 n_near // 2, 3, stratified_minimum)
    points.  All points are one plan_job, two steps when every ray meets X,
    and read the streams (SEPARATION_KEY, i), i = 0, 1, 2.
    """
    n_orbit = n_cross = pair_count // 3
    n_near = pair_count - n_orbit - n_cross
    singular = M.strata.singular_patterns()
    minimum = stratified_minimum(M)
    orbit, orbit_labels = _stratified_plan(M, max(n_orbit, minimum))
    pool, pool_labels = _stratified_plan(M, max(3 * n_near // 2, 3, minimum))
    kept = pool_labels != "stratum"
    cross = "stratum" if singular else "regular"  # the label of the cross pairs' second points
    on = np.concatenate([orbit, np.ones((n_cross, M.n), dtype=bool), _patterns_in_turn(M, n_cross), pool[kept]])
    labels = np.concatenate([orbit_labels, np.repeat(["regular", cross], n_cross), pool_labels[kept]])
    directions, perturbations, angles = (_stream(seed, SEPARATION_KEY, i) for i in range(3))
    Z = yield from plan_job(M, on, labels, directions, perturbations)
    X_orbit, X_cross, Y_cross, pool = np.split(Z, np.cumsum([len(orbit), n_cross, n_cross]))
    X_orbit = X_orbit[:n_orbit]
    Y_orbit = M.act(angles.uniform(0.0, 2 * math.pi, size=n_orbit), X_orbit)
    i = np.arange(n_near)
    X_near, Y_near = pool[i % len(pool)], pool[(i * 7 + 1) % len(pool)]
    kinds = np.repeat(["same-orbit", "cross-stratum" if singular else "regular", "near-stratum"],
                      [n_orbit, n_cross, n_near])
    return np.concatenate([X_orbit, X_cross, X_near]), np.concatenate([Y_orbit, Y_cross, Y_near]), kinds


def project_radially(M: Manifold, Z: np.ndarray) -> np.ndarray:
    """Map ambient points, one (n,) or a batch (N, n), to X along rays from the
    origin: projection_job solved alone.  A ray that meets no point of X
    raises SamplingError."""
    Z = np.asarray(Z, dtype=complex)
    [X] = solve_rays(M, projection_job(Z.reshape(-1, M.n)))
    return X.reshape(Z.shape)


def random_surface_points(M: Manifold, count: int, seed: int = 0) -> np.ndarray:
    """Points of X (count, n) along uniform directions, checked transversal
    and on X: plan_job on count regular rows, directions from key POINT_KEY."""
    [X] = solve_rays(M, plan_job(M, np.ones((count, M.n), dtype=bool), np.full(count, "regular"),
                                 _stream(seed, POINT_KEY), None))
    return X


def support_pattern_points(M: Manifold, supports: Sequence[tuple[int, ...]], seed: int = 0) -> np.ndarray:
    """Points of X (len(supports), n), row i nonzero exactly on supports[i],
    checked transversal and on X: pattern_job solved alone."""
    [X] = solve_rays(M, pattern_job(M, supports, seed))
    return X


def ball_points(
    M: Manifold,
    x0: np.ndarray,
    radius: float,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """Points of X (count, n) within ambient distance `radius` of x0.

    Each round projects `count` candidate steps around x0 at once, rotates
    each to the orbit representative closest to x0, probing the transverse
    neighborhood of the orbit, and keeps those within the radius after both
    steps; the first `count` kept over the rounds are returned.  The steps
    read key BALL_KEY: balls of one seed take the same normal draws, scaled.
    """
    rng = _stream(seed, BALL_KEY)
    z0 = np.asarray(x0, dtype=complex)
    kept: list[np.ndarray] = []
    found = 0
    for _ in range(_MAX_ROUNDS):
        g = rng.normal(size=(count, M.n, 2))
        Z = project_radially(M, z0 + (g[..., 0] + 1j * g[..., 1]) * radius / math.sqrt(2 * M.n))
        Z = Z[np.linalg.norm(Z - z0, axis=1) <= radius]
        _, theta = M.orbit_distance_batch(np.broadcast_to(z0, Z.shape), Z)
        Z = M.act(theta, Z)
        Z = Z[np.linalg.norm(Z - z0, axis=1) <= radius]
        kept.append(Z)
        found += len(Z)
        if found >= count:
            return M.points(np.concatenate(kept)[:count])
    raise SamplingError("ball sampling failed; radius too small?")


# upper end of the step from a singular stratum to a near-stratum point
NEAR_DISTANCE = 0.05


def stratified_minimum(M: Manifold) -> int:
    """The least count stratified_points accepts: one regular point, one per
    singular pattern of M.strata and one near point; 1 when the action is free."""
    singular = M.strata.singular_patterns()
    return len(singular) + 2 if singular else 1


def stratified_points(M: Manifold, count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sample mix: 40% regular, 40% on singular strata, 20% near them.

    Returns count points of X (count, n) and a label per row, "regular",
    "stratum" or "near-stratum"; M.strata_of gives their stabilizer orders.
    Every singular pattern gets a point and there is at least one near
    point; where that and the 40% shares exceed count, the regular share
    gives way.  A count below stratified_minimum(M) raises ValueError.  On
    manifolds with a free action every point is regular.  The singular
    patterns of M.strata are used in turn.  The points are one plan_job,
    directions from (IMMERSION_KEY, 0) and near steps from (IMMERSION_KEY, 1),
    in two radial_roots calls when every ray meets X; a pattern redraws a ray
    at most _MAX_ROUNDS rounds before raising SamplingError, and a tangential
    ray raises it too.
    """
    [(Z, labels)] = solve_rays(M, stratified_job(M, count, seed))
    return Z, labels
