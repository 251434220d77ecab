"""Equivariant maps into C^N built from blocks of Fourier components.

For base level m the block set takes levels k*m and k*(m+1) for every
k = 1, ..., l where l is the largest stabilizer order on X (optionally
augmented by extra levels).  Each coordinate carries its level as a rotation
weight, so the map intertwines the manifold action with a diagonal action on
C^N.  Immersion and point separation are certified empirically: smallest
singular values of the holomorphic (N, n) Jacobian over stratified samples,
which are those of d Phi on the tangent spaces of X, and image distances
over stratified point pairs.

The map holds its blocks' bases and is evaluated like one basis, by
basis.block_values and basis.block_jacobian on those bases.  They stack the
exponent rows of all blocks, so the map and its Jacobian over a batch of
points take one monomial pass per ROW_BLOCK rows; each block's coefficient
array then acts on its own column slice.  The immersion certificate takes
the spectra of all its samples from one stacked SVD.

Both certificates are ray jobs (integrate.solve_rays) on the point plans of
integrate.stratified_job and integrate.pair_job, which draw all their random
numbers, so one solve_rays call runs them together and the roots of a whole
embed campaign take two radial_roots calls when every ray meets X.
immersion_report and separation_report solve one job each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    FourierBasis,
    block_jacobian,
    block_values,
    fourier_bases,
    resolve_measure,
)
from .geometry import ROW_BLOCK, Manifold
# stratified_points is not called here; the benchmark's span tracer rebinds it
# in every module that imports it, so the name stays
from .integrate import pair_job, solve_rays, stratified_job, stratified_points  # noqa: F401


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Concatenation of Fourier-component blocks with per-coordinate weights:
    one basis per block, in increasing level."""

    manifold: Manifold
    blocks: tuple[FourierBasis, ...]
    coordinate_weights: np.ndarray  # (N,) int, the level of each coordinate
    warnings: tuple[str, ...] = ()

    @property
    def total_dim(self) -> int:
        return int(self.coordinate_weights.shape[0])

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(B.level for B in self.blocks)

    @property
    def min_weight(self) -> int:
        """Smallest coordinate level; 0 for a map with no coordinates."""
        return min(self.coordinate_weights.tolist(), default=0)


def embedding_from_levels(
    M: Manifold,
    levels,
    measure: str = "auto",
    samples: int = 50_000,
    seed: int = 0,
) -> EmbeddingMap:
    """The map built from the bases of the given levels.  The certificates
    depend only on the span of each component, so measure="auto" is
    round-exact on every manifold and draws no Gram samples."""
    bases = fourier_bases(
        M, sorted(set(int(m) for m in levels)),
        measure=resolve_measure(M, measure, span_only=True),
        samples=samples, seed=seed,
    )
    blocks = tuple(bases.values())
    weights = np.repeat(np.array(list(bases), dtype=np.int64), [B.d for B in blocks])
    warnings = tuple(
        f"level {B.level} has no representation (empty block)" for B in blocks if B.d == 0
    )
    return EmbeddingMap(M, blocks, weights, warnings)


def build_embedding(
    M: Manifold,
    m: int,
    extra_levels=(),
    measure: str = "auto",
    samples: int = 50_000,
    seed: int = 0,
) -> EmbeddingMap:
    """Standard block set: levels k*m and k*(m+1) for k = 1..M.strata.max_order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    levels = set(int(x) for x in extra_levels)
    for k in range(1, M.strata.max_order + 1):
        levels.update((k * m, k * (m + 1)))
    return embedding_from_levels(M, levels, measure=measure, samples=samples, seed=seed)


def jacobian_singular_values(Phi: EmbeddingMap, x) -> np.ndarray:
    """Singular values (descending) of the holomorphic Jacobian d Phi at x.

    The real Jacobian of Phi has each of these values twice, and by Cauchy
    interlacing its restriction to the real hyperplane T_x X keeps one of
    each, so the last one is the smallest singular value of d Phi on T_x X.
    x is one point (n,) or a batch (P, n); a batch gives one spectrum per
    row, (P, n).  A map into C^N with N < n has rank at most N, so its last
    n - N values are 0.

    A tall Jacobian, N >= 17 n // 9 rows, is first reduced to the (n, n) R
    factor of one stacked QR, and the SVD runs on R (Chan's R-SVD, ACM TOMS
    8, 1982).  LAPACK's zgesdd, behind np.linalg.svd, takes that same QR
    step itself from this row count on, so the spectra are bit for bit
    those of the plain SVD, at about half its cost.  Below that count
    zgesdd bidiagonalizes J directly, and going through R would move the
    last bits.
    """
    z = np.asarray(x, dtype=complex)
    Z = z.reshape(-1, Phi.manifold.n)
    J = block_jacobian(Z, Phi.blocks)
    if J.shape[1] >= 17 * J.shape[2] // 9:
        J = np.linalg.qr(J, mode="r")
    spectra = np.linalg.svd(J, compute_uv=False)
    spectra = np.pad(spectra, ((0, 0), (0, Phi.manifold.n - spectra.shape[1])))
    return spectra[0] if z.ndim == 1 else spectra


# a sample whose smallest singular value is at or below this is a rank drop,
# and a map with one fails the immersion certificate
IMMERSION_FLOOR = 1e-6
# image distances below this times the median image norm are violations
VIOLATION_FLOOR = 1e-9


# samples whose smallest singular value is within this relative distance of
# the minimum count as reaching it: on an orbit sigma_min is constant up to
# rounding, so the exact argmin would move with the last bits of the points
ARGMIN_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ImmersionReport:
    min_singular_value: float
    argmin_index: int  # the first sample with sigma_min <= min * (1 + ARGMIN_RTOL)
    argmin_point: np.ndarray  # (n,), that sample
    # per sample: (label, stratum order, near-stratum flag, sigma_min)
    records: tuple[tuple[str, int, bool, float], ...]
    failures: tuple[dict, ...]  # rank drops, with the point and its spectrum


def immersion_report(Phi: EmbeddingMap, samples: int = 100, seed: int = 0) -> ImmersionReport:
    """Smallest singular value of d Phi over a stratified sample of X:
    immersion_job solved alone, two radial_roots calls when every ray
    meets X."""
    [report] = solve_rays(Phi.manifold, immersion_job(Phi, samples, seed))
    return report


def immersion_job(Phi: EmbeddingMap, samples: int = 100, seed: int = 0):
    """Ray job: the ImmersionReport of Phi over the stratified sample
    stratified_points(Phi.manifold, samples, seed).

    Every sample's spectrum comes from one jacobian_singular_values call, and
    its stratum from one strata_of call, on the whole sample.  The failures
    are the samples whose smallest singular value is at most IMMERSION_FLOOR.
    min_singular_value is the exact minimum, and argmin_index names the
    first sample within ARGMIN_RTOL of it, so that ties on an orbit do not
    move the named sample when the points move by rounding.
    """
    M = Phi.manifold
    Z, labels = yield from stratified_job(M, samples, seed)
    spectra = jacobian_singular_values(Phi, Z)
    sigma = spectra[:, -1]
    orders, near = M.strata_of(Z)
    records = tuple(zip(labels.tolist(), orders.tolist(), near.tolist(), sigma.tolist()))
    failures = tuple(
        {
            "index": i,
            "label": records[i][0],
            "stratum_order": records[i][1],
            "point": Z[i].tolist(),
            "singular_values": spectra[i].tolist(),
        }
        for i in np.flatnonzero(sigma <= IMMERSION_FLOOR).tolist()
    )
    floor = float(np.min(sigma))
    worst = int(np.argmax(sigma <= floor * (1.0 + ARGMIN_RTOL)))
    return ImmersionReport(floor, worst, Z[worst], records, failures)


@dataclass(frozen=True, eq=False)
class SeparationReport:
    pair_count: int
    threshold: float
    min_image_distance: float  # over pairs with quotient distance > threshold
    min_same_orbit_image_distance: float  # over distinct same-orbit pairs
    violations: tuple[dict, ...]
    image_scale: float


def separation_report(
    Phi: EmbeddingMap, pair_count: int = 10_000, threshold: float = 0.05, seed: int = 0
) -> SeparationReport:
    """Certify that sampled distinct points have distinct images:
    separation_job solved alone, two radial_roots calls when every ray
    meets X."""
    [report] = solve_rays(Phi.manifold, separation_job(Phi, pair_count, threshold, seed))
    return report


def separation_job(
    Phi: EmbeddingMap, pair_count: int = 10_000, threshold: float = 0.05, seed: int = 0
):
    """Ray job: the SeparationReport of Phi over pair_job(Phi.manifold, pair_count, seed).

    Same-orbit pairs are separated by the phase pair of consecutive levels
    whenever the rotation actually moves the point.  For every pair with
    quotient distance above the threshold the image distance must clear
    VIOLATION_FLOOR times the median image norm; same-orbit pairs are held
    to the same floor once the ambient distance is above the threshold.

    Exact bounds decide most pairs: the quotient distance qd is 0 on same-orbit pairs,
    and || |x| - |y| || <= qd <= |x - y| (invariant moduli; theta = 0).  Only pairs whose
    bounds straddle the threshold (relative margin 1e-12) and violating ones are searched.
    """
    M = Phi.manifold
    X, Y, kinds = yield from pair_job(M, pair_count, seed)
    ambient = np.linalg.norm(X - Y, axis=1)
    separated = np.linalg.norm(np.abs(X) - np.abs(Y), axis=1) > threshold * (1 + 1e-12)
    undecided = ~separated & (ambient >= threshold * (1 - 1e-12)) & (kinds != "same-orbit")
    # the images are formed ROW_BLOCK pairs at a time; only each pair's image
    # distance and |Phi(x)| are kept
    img = np.empty(len(X))
    image_norm = np.empty(len(X))
    for start in range(0, len(X), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        FX = block_values(X[rows], Phi.blocks)
        img[rows] = np.linalg.norm(FX - block_values(Y[rows], Phi.blocks), axis=1)
        image_norm[rows] = np.linalg.norm(FX, axis=1)
    scale = float(np.median(image_norm)) or 1.0
    floor = VIOLATION_FLOOR * scale

    same_orbit_distinct = (kinds == "same-orbit") & (ambient > threshold)
    searched = undecided | ((separated | same_orbit_distinct) & (img < floor))
    qd = np.zeros(len(X))
    if searched.any():
        qd[searched] = M.orbit_distance_batch(X[searched], Y[searched])[0]
        separated |= undecided & (qd > threshold)
    bad = np.flatnonzero((separated | same_orbit_distinct) & (img < floor))
    violations = ()
    if bad.size:
        gaps = np.abs(block_values(X[bad], Phi.blocks) - block_values(Y[bad], Phi.blocks))
        strata = np.column_stack([M.strata_of(X[bad])[0], M.strata_of(Y[bad])[0]]).tolist()
        violations = tuple(
            {
                "kind": str(kinds[i]),
                "x": X[i].tolist(),
                "y": Y[i].tolist(),
                "quotient_distance": float(qd[i]),
                "ambient_distance": float(ambient[i]),
                "image_distance": float(img[i]),
                "strata": pair_strata,
                "offending_coordinates": np.flatnonzero(gap == gap.max(initial=0.0)).tolist(),
            }
            for i, gap, pair_strata in zip(bad, gaps, strata)
        )
    return SeparationReport(
        pair_count=len(kinds),
        threshold=threshold,
        min_image_distance=float(np.min(img[separated], initial=math.inf)),
        min_same_orbit_image_distance=float(np.min(img[same_orbit_distinct], initial=math.inf)),
        violations=violations,
        image_scale=scale,
    )

