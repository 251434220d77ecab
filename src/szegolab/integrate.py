"""Surface sampling and Monte-Carlo integration backends.

Uniform sphere sampling is exact (normalized Gaussians, equal weights).
General invariant hypersurfaces are sampled by radial projection: draw a
direction uniformly on the unit sphere, solve rho(t u) = 0 along the ray, and
weight by the angular co-area Jacobian t^{2n} |grad rho| / (x . grad rho) so
that weighted sums estimate Euclidean surface integrals.  A pointwise density
hook carries measure reweightings such as the compliant volume density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplingError
from .geometry import ROW_BLOCK, Manifold, SurfacePoint

# Termination guard for the per-ray iteration, not a tolerance: example2 rays
# converge in at most 8 iterations.
_MAX_ITERS = 60


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


def radial_roots(M: Manifold, U: np.ndarray, t_max: float = 8.0) -> np.ndarray:
    """First positive root of rho(t u) per row of U; NaN where none is bracketed.

    One evaluator pass gives each ray's coefficients of the real polynomial
    t -> rho(t u).  Doubling t from 1 up to t_max brackets the first sign
    change seen at t = 1, 2, 4, ...; rays still negative at the last doubling
    inside t_max get NaN.  Each bracketed ray then runs a safeguarded Newton
    iteration from the bracket's upper end, where rho >= 0: the sign of rho
    shrinks the bracket, and a Newton step that leaves it is replaced by
    bisection.  A ray stops once its step or its bracket is within 4 ulp of
    t, or rho is exactly 0 there, so its root does not depend on the other
    rays of the batch, nor on the blocks of geometry.ROW_BLOCK rays that the
    iteration runs in.  Nothing checks that a ray meets X only once:
    crossings in pairs between grid points go unseen, and the root is a sign
    change inside the first bracket.  rho(0) >= 0 raises SamplingError.
    """
    U = np.asarray(U, dtype=complex)
    C = np.ascontiguousarray(M.rho.ray_coefficients(U).T)  # (degree + 1, N)
    if np.any(C[0] >= 0):
        raise SamplingError("rho(0) >= 0: surface is not star-shaped about 0")
    lo = np.zeros(U.shape[0])
    hi = np.ones(U.shape[0])
    neg = _horner(C, hi) < 0
    while np.any(grow := neg & (2.0 * hi <= t_max)):
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
        roots[block] = _safeguarded_newton(C[:, block], lo[block], hi[block])
    return roots


def _safeguarded_newton(C: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root per column of C (ascending coefficients) in (lo, hi], where f(lo) < 0 <= f(hi)."""
    roots = np.empty(hi.shape)
    idx = np.arange(hi.size)
    degrees = np.arange(1, len(C))[:, None]
    t = hi.copy()
    for _ in range(_MAX_ITERS):
        if idx.size == 0:
            break
        f = _horner(C, t)
        below = f < 0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - f / _horner(C[1:] * degrees, t)
        tol = 4.0 * np.spacing(t)
        converged = np.abs(newton - t) <= tol
        done = converged | (hi - lo <= tol) | (f == 0)
        inside = (newton > lo) & (newton < hi)
        t = np.where(f == 0, t, np.where(converged | inside, newton, 0.5 * (lo + hi)))
        if np.any(done):
            roots[idx[done]] = t[done]
            live = ~done
            idx, C, lo, hi, t = idx[live], C[:, live], lo[live], hi[live], t[live]
    roots[idx] = t
    return roots


def _ray_roots(M: Manifold, U: np.ndarray) -> np.ndarray:
    """radial_roots, raising SamplingError if any ray has no root."""
    t = radial_roots(M, U)
    if np.any(np.isnan(t)):
        raise SamplingError("ray root not bracketed in (0, t_max]")
    return t


def sample_hypersurface(M: Manifold, count: int, seed: int = 0) -> SampleSet:
    """Radial-projection sampling of {rho = 0} with co-area weights.

    On a sphere the weights reduce to the equal sphere-uniform weights.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    U = _uniform_directions(M.n, count, _rng(seed))
    t = _ray_roots(M, U)
    X = U * t[:, None]
    rho_z = M.rho.z_gradient(X)
    grad_norm = 2.0 * np.linalg.norm(rho_z, axis=1)
    radial = 2.0 * np.sum(X * rho_z, axis=1).real  # x . grad rho
    if np.any(radial <= 0):
        raise SamplingError("ray meets the surface non-transversally")
    area = sphere_area(M.n)
    w = (area / count) * t ** (2 * M.n) * grad_norm / radial
    return SampleSet(X, w, seed, "implicit-projection")


def surface_samples(M: Manifold, count: int, seed: int = 0) -> SampleSet:
    """Sampling backend dispatch: exact sphere sampling when available."""
    if M.kind == "sphere":
        return sample_sphere(M.n, count, seed)
    return sample_hypersurface(M, count, seed)


def compliant_density(M: Manifold, Z: np.ndarray) -> np.ndarray:
    """Compliant-metric volume density at raw coordinates, vectorized.

    Equals |d_z rho| divided by the transversal pairing; agrees with the
    Gram-determinant construction in geometry (covered by tests).
    """
    rho_z = M.rho.z_gradient(Z)
    denom = np.sum(M.weights.array * np.asarray(Z, dtype=complex) * rho_z, axis=-1).real
    return np.linalg.norm(rho_z, axis=-1) / denom


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


def project_radially(M: Manifold, Z: np.ndarray) -> np.ndarray:
    """Map ambient points to X along rays from the origin."""
    Z = np.asarray(Z, dtype=complex)
    norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    U = Z / norms
    if M.kind == "sphere":
        return U
    single = U.ndim == 1
    Ub = U[None, :] if single else U
    t = _ray_roots(M, Ub)
    X = Ub * t[:, None]
    return X[0] if single else X


def random_surface_points(M: Manifold, count: int, seed: int = 0) -> list[SurfacePoint]:
    S = surface_samples(M, count, seed)
    return [M.point(z) for z in S.points]


def support_pattern_points(
    M: Manifold, support: tuple[int, ...], count: int, seed: int = 0
) -> list[SurfacePoint]:
    """Points of X supported exactly on the given coordinate subset."""
    rng = _rng(seed)
    out: list[SurfacePoint] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 50 * count + 50:
            raise SamplingError(f"could not realize support pattern {support}")
        u = np.zeros(M.n, dtype=complex)
        g = rng.normal(size=(len(support), 2))
        u[list(support)] = g[:, 0] + 1j * g[:, 1]
        if np.min(np.abs(u[list(support)])) < 1e-3:
            continue
        try:
            x = project_radially(M, u)
        except SamplingError:
            continue
        out.append(M.point(x))
    return out


def ball_points(
    M: Manifold,
    x0: SurfacePoint,
    radius: float,
    count: int,
    seed: int = 0,
    align_orbit: bool = False,
) -> list[SurfacePoint]:
    """Points of X within ambient distance `radius` of x0.

    With align_orbit=True each point is rotated to the orbit representative
    closest to x0, probing the transverse neighborhood of the orbit.
    """
    rng = _rng(seed)
    z0 = x0.coordinates
    out: list[SurfacePoint] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * count + 200:
            raise SamplingError("ball sampling failed; radius too small?")
        g = rng.normal(size=(M.n, 2))
        step = (g[:, 0] + 1j * g[:, 1]) * radius / math.sqrt(2 * M.n)
        z = project_radially(M, z0 + step)
        if np.linalg.norm(z - z0) > radius:
            continue
        if align_orbit:
            _, theta = M.orbit_distance_batch(z0[None, :], z[None, :])
            z = M.act_coordinates(float(theta[0]), z[None, :])[0]
            if np.linalg.norm(z - z0) > radius:
                continue
        out.append(M.point(z))
    return out


def stratified_points(
    M: Manifold,
    count: int,
    seed: int = 0,
    near_distance: float = 0.05,
    strata=None,
) -> list[tuple[SurfacePoint, str, int]]:
    """Sample mix: 40% regular, 40% on singular strata, 20% near them.

    Returns (point, label, stratum_order) triples.  On manifolds with a free
    action everything is regular.
    """
    if strata is None:
        strata = M.strata_orders(seed=seed)
    singular = strata.singular_patterns()
    rng = _rng(seed)
    out: list[tuple[SurfacePoint, str, int]] = []
    if not singular:
        for x in random_surface_points(M, count, seed):
            out.append((x, "regular", M.stratum_order(x)))
        return out
    n_regular = max(1, int(round(0.4 * count)))
    n_singular = max(len(singular), int(round(0.4 * count)))
    n_near = max(1, count - n_regular - n_singular)
    for x in random_surface_points(M, n_regular, seed):
        out.append((x, "regular", M.stratum_order(x)))
    for i in range(n_singular):
        support, k = singular[i % len(singular)]
        x = support_pattern_points(M, support, 1, seed + 1000 + i)[0]
        out.append((x, "stratum", k))
    for i in range(n_near):
        support, k = singular[i % len(singular)]
        x = support_pattern_points(M, support, 1, seed + 5000 + i)[0]
        g = rng.normal(size=(M.n, 2))
        delta = (g[:, 0] + 1j * g[:, 1])
        off = [j for j in range(M.n) if j not in support]
        if off:
            # perturb only off-support coordinates so the distance to the
            # stratum locus is controlled by the perturbation size
            mask = np.zeros(M.n)
            mask[off] = 1.0
            delta = delta * mask
        delta *= (0.2 + 0.8 * rng.random()) * near_distance * 0.9 / max(
            np.linalg.norm(delta), 1e-12
        )
        y = M.point(project_radially(M, x.coordinates + delta))
        out.append((y, "near-stratum", M.stratum_order(y)))
    return out
