"""Surface sampling and Monte-Carlo integration backends.

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
of those moduli, pushed to X along the same rays with the same weights.  A
pointwise density hook carries measure reweightings such as the compliant
volume density.
"""

from __future__ import annotations

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
    seed: int
    method: str

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based: streams derived from the seed are reproducible
    # independently of how draws are chunked.
    return np.random.Generator(np.random.Philox(seed))


def _uniform_directions(n: int, count: int, rng) -> np.ndarray:
    g = rng.normal(size=(count, 2 * n))
    u = g[:, :n] + 1j * g[:, n:]
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def sample_sphere(n: int, count: int, seed: int = 0) -> SampleSet:
    """Uniform points on the unit sphere S^{2n-1} with equal weights."""
    if count < 1:
        raise ValueError("count must be >= 1")
    u = _uniform_directions(n, count, _rng(seed))
    w = np.full(count, sphere_area(n) / count)
    return SampleSet(u, w, seed, "sphere-uniform")


def _horner(C: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values at t of the polynomials with ascending coefficient rows C (degree + 1, N)."""
    f = C[-1]
    for c in C[-2::-1]:
        f = f * t + c
    return f


def _horner_with_derivative(C: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives at t of the polynomials of C, in one
    Horner recurrence: df <- df t + f, then f <- f t + c."""
    f = C[-1]
    df = np.zeros_like(f)
    for c in C[-2::-1]:
        df = df * t + f
        f = f * t + c
    return f, df


# rays still inside X at this distance from the origin get no root
RAY_T_MAX = 8.0


def radial_roots(M: Manifold, U: np.ndarray) -> np.ndarray:
    """First positive root of rho(t u) per row of U; NaN where none is bracketed.

    One evaluator pass gives each ray's coefficients of the real polynomial
    t -> rho(t u).  Doubling t from 1 up to RAY_T_MAX brackets the first sign
    change seen at t = 1, 2, 4, ...; rays still negative at the last doubling
    inside RAY_T_MAX get NaN.  Each bracketed ray's polynomial and its derivative,
    evaluated together by one Horner recurrence, go to
    geometry.safeguarded_newton, which starts from the bracket's upper end,
    where rho >= 0, and stops a ray once its step or its bracket is within
    4 ulp of t, or rho is exactly 0 there.
    So a root depends neither on the other rays of the batch nor on the
    blocks of geometry.ROW_BLOCK rays that the iteration runs in.  Nothing
    checks that a ray meets X only once: crossings in pairs between grid
    points go unseen, and the root is a sign change inside the first bracket.
    rho(0) >= 0 raises SamplingError.
    """
    U = np.asarray(U, dtype=complex)
    C = np.ascontiguousarray(M.rho.ray_coefficients(U).T)  # (degree + 1, N)
    if np.any(C[0] >= 0):
        raise SamplingError("rho(0) >= 0: surface is not star-shaped about 0")
    lo = np.zeros(U.shape[0])
    hi = np.ones(U.shape[0])
    neg = _horner(C, hi) < 0
    while np.any(grow := neg & (2.0 * hi <= RAY_T_MAX)):
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        neg[grow] = _horner(C[:, grow], hi[grow]) < 0
    roots = np.full(U.shape[0], np.nan)
    bracketed = np.flatnonzero(~neg)
    # Blocks of ROW_BLOCK rays keep the shrinking active-set copies small; one
    # pass over all rays fragments the heap enough to raise the peak RSS of an
    # example2 embed campaign by up to 2 MiB.
    for start in range(0, bracketed.size, ROW_BLOCK):
        block = bracketed[start : start + ROW_BLOCK]
        roots[block] = safeguarded_newton(
            lambda idx, t: _horner_with_derivative(C[:, block[idx]], t),
            lo[block],
            hi[block],
        )
    return roots


def _ray_roots(M: Manifold, U: np.ndarray) -> np.ndarray:
    """radial_roots, raising SamplingError if any ray has no root."""
    t = radial_roots(M, U)
    if np.any(np.isnan(t)):
        raise SamplingError(f"ray root not bracketed in (0, {RAY_T_MAX}]")
    return t


def hypersurface_blocks(M: Manifold, count: int, seed: int = 0):
    """Radial-projection samples of {rho = 0}, streamed ROW_BLOCK directions at a time.

    Yields (X, w, density) per block: the points on X, their co-area weights
    and the compliant density at them, computed from the gradient that the
    co-area weight needed already.  All directions come from one Philox
    stream seeded by seed.  Chunked draws equal the one-shot draw, roots are
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
    return SampleSet(np.concatenate(X), np.concatenate(w), seed, "implicit-projection")


def _projected_blocks(M: Manifold, count: int, seed: int):
    """_coarea_rule per block of ROW_BLOCK directions drawn from one stream."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _rng(seed)
    w = sphere_area(M.n) / count
    for start in range(0, count, ROW_BLOCK):
        yield _coarea_rule(M, _uniform_directions(M.n, min(ROW_BLOCK, count - start), rng), w)


def _coarea_rule(M: Manifold, U: np.ndarray, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A rule on X from a rule on the unit sphere: directions U (N, n) with weights w.

    Each direction is projected to X along its ray, and its weight is
    multiplied by the angular co-area Jacobian t^{2n} |grad rho| / (x . grad rho).
    Returns the points, their weights and the gradient (d rho / d z_j) there.
    """
    t = _ray_roots(M, U)
    X = U * t[:, None]
    rho_z = M.rho.z_gradient(X)
    grad_norm = 2.0 * np.linalg.norm(rho_z, axis=1)
    radial = 2.0 * np.sum(X * rho_z, axis=1).real  # x . grad rho
    if np.any(radial <= 0):
        raise SamplingError("ray meets the surface non-transversally")
    return X, w * t ** (2 * M.n) * grad_norm / radial, rho_z


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


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

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
    return x, 2.0 / (one_minus_x2 * dp**2)


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
    the unit sphere, as a sample set's do.  Nothing is drawn: seed is 0.
    """
    if not torus_invariant(M):
        raise ValueError("torus_quadrature needs a torus-invariant rho")
    n = M.n
    x, w = _gauss_legendre((degree + n) // 2 + 8)
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
        return SampleSet(U, weights, 0, "simplex-gauss")
    X, weights, _ = _coarea_rule(M, U, weights)
    return SampleSet(X, weights, 0, "simplex-gauss")


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


def integrate_surface(f, S: SampleSet, density=None) -> tuple[complex, float]:
    """Weighted Monte-Carlo mean of f over X; returns (estimate, stderr).

    f maps an (N, n) coordinate array to an (N,) array.  The optional density
    reweights the surface measure pointwise.
    """
    vals = np.asarray(f(S.points))
    c = S.weights if density is None else S.weights * np.asarray(density(S.points))
    contrib = c * vals
    estimate = np.sum(contrib)
    per_draw = contrib * S.count  # single-draw unbiased estimates
    stderr = float(np.std(per_draw) / math.sqrt(S.count))
    return estimate, stderr


# -- structured point generators ------------------------------------------

# Rounds of redraws before a structured point generator gives up; a guard, not
# a tuning knob: certified support patterns and balls around points of X are
# realized in the first round or two.
_MAX_ROUNDS = 200


def project_radially(M: Manifold, Z: np.ndarray) -> np.ndarray:
    """Map ambient points, one (n,) or a batch (N, n), to X along rays from the origin."""
    Z = np.asarray(Z, dtype=complex)
    U = Z / np.linalg.norm(Z, axis=-1, keepdims=True)
    if M.kind == "sphere":
        return U
    return U * _ray_roots(M, U.reshape(-1, M.n)).reshape(U.shape[:-1] + (1,))


def random_surface_points(M: Manifold, count: int, seed: int = 0) -> np.ndarray:
    """The (count, n) points of surface_samples(M, count, seed), validated on X."""
    return M.points(surface_samples(M, count, seed).points)


def support_pattern_points(
    M: Manifold, supports: Sequence[tuple[int, ...]], seed: int = 0
) -> np.ndarray:
    """Points of X (len(supports), n), row i nonzero exactly on supports[i].

    The whole call draws from one generator seeded by seed.  In each round
    every pending point draws a direction with zeros off its support;
    directions with a support coordinate below 1e-3 in modulus are redrawn,
    and the rest go through one radial_roots call.  Rays without a root are
    redrawn in the next round.  A point still pending after _MAX_ROUNDS
    rounds raises SamplingError naming its pattern.
    """
    rng = _rng(seed)
    on = np.zeros((len(supports), M.n), dtype=bool)
    for i, support in enumerate(supports):
        on[i, list(support)] = True
    X = np.empty(on.shape, dtype=complex)
    pending = np.arange(len(supports))
    for _ in range(_MAX_ROUNDS):
        g = rng.normal(size=(pending.size, M.n, 2))
        U = np.where(on[pending], g[..., 0] + 1j * g[..., 1], 0.0)
        drawn = np.flatnonzero(np.all((np.abs(U) >= 1e-3) | ~on[pending], axis=1))
        U = U[drawn] / np.linalg.norm(U[drawn], axis=1, keepdims=True)
        t = np.ones(drawn.size) if M.kind == "sphere" else radial_roots(M, U)
        hit = np.isfinite(t)
        X[pending[drawn[hit]]] = U[hit] * t[hit, None]
        pending = np.delete(pending, drawn[hit])
        if pending.size == 0:
            return M.points(X)
    raise SamplingError(f"could not realize support pattern {tuple(supports[pending[0]])}")


def ball_points(
    M: Manifold,
    x0: np.ndarray,
    radius: float,
    count: int,
    seed: int = 0,
    align_orbit: bool = False,
) -> np.ndarray:
    """Points of X (count, n) within ambient distance `radius` of x0.

    Each round projects `count` candidate steps around x0 at once and keeps
    those within the radius; the first `count` kept over the rounds are
    returned.  With align_orbit=True each candidate is rotated to the orbit
    representative closest to x0, probing the transverse neighborhood of the
    orbit, and the radius test is applied again.
    """
    rng = _rng(seed)
    z0 = np.asarray(x0, dtype=complex)
    kept: list[np.ndarray] = []
    found = 0
    for _ in range(_MAX_ROUNDS):
        g = rng.normal(size=(count, M.n, 2))
        Z = project_radially(M, z0 + (g[..., 0] + 1j * g[..., 1]) * radius / math.sqrt(2 * M.n))
        Z = Z[np.linalg.norm(Z - z0, axis=1) <= radius]
        if align_orbit:
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
    patterns of M.strata are used in turn.  Regular points come from
    random_surface_points(seed); the on-stratum points from one
    support_pattern_points call seeded seed + 1000; the near-stratum points
    perturb the off-support coordinates of the points of a second call,
    seeded seed + 5000, by a step of length between 0.18 and 0.9 times
    NEAR_DISTANCE drawn from seed, and project the results back to X
    together.  Each of those calls redraws a ray at most a fixed number of
    rounds before raising SamplingError.
    """
    minimum = stratified_minimum(M)
    if count < minimum:
        raise ValueError(f"count must be >= {minimum}, got {count}")
    singular = M.strata.singular_patterns()
    if not singular:
        return random_surface_points(M, count, seed), np.full(count, "regular")
    n_singular = max(len(singular), int(round(0.4 * count)))
    n_near = max(1, count - max(1, int(round(0.4 * count))) - n_singular)
    n_regular = count - n_singular - n_near
    regular = random_surface_points(M, n_regular, seed)
    on_stratum = [singular[i % len(singular)][0] for i in range(n_singular)]
    stratum = support_pattern_points(M, on_stratum, seed + 1000)
    near = [singular[i % len(singular)][0] for i in range(n_near)]
    base = support_pattern_points(M, near, seed + 5000)
    rng = _rng(seed)
    g = rng.normal(size=(n_near, M.n, 2))
    # a singular pattern never covers every coordinate; perturbing only the
    # off-support ones keeps the distance to the stratum locus controlled by
    # the perturbation size
    off = np.ones((n_near, M.n), dtype=bool)
    for i, support in enumerate(near):
        off[i, list(support)] = False
    delta = np.where(off, g[..., 0] + 1j * g[..., 1], 0.0)
    size = (0.2 + 0.8 * rng.random(n_near)) * NEAR_DISTANCE * 0.9
    delta *= (size / np.maximum(np.linalg.norm(delta, axis=1), 1e-12))[:, None]
    Z = np.concatenate([regular, stratum, M.points(project_radially(M, base + delta))])
    labels = np.repeat(["regular", "stratum", "near-stratum"], [n_regular, n_singular, n_near])
    return Z, labels
