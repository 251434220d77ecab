"""Reproducing kernels of the weight-m components and their diagnostics.

S_m(x, y) = sum_j f_j(x) conj(f_j(y)) over an orthonormal basis of the
weight-m component.  On the diagonal it grows like m^{n-1}; the leading
coefficient at a point with stabilizer order k is

    (k / 2 pi) * pi^{-(n-1)} * |det Levi|

in the compliant-metric normalization (k divides m, other levels vanish at
stabilized points).  This module fits that law, certifies the exact
vanishing, and computes the consecutive-level kernel ratio used by the
embedding construction.  Off-diagonal decay is read from szego_kernel and
kernel_diagonal directly (acceptance criterion 9).

A point is a complex (n,) array and a point set a (P, n) array.  The kernel
functions take one basis per level and evaluate all levels at all points in
one basis.block_values call on those bases; a level's value is a row sum
over its own columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (
    COMPLIANT,
    DEFAULT_GRAM_SAMPLES,
    FourierBasis,
    block_values,
    fourier_bases,
    resolve_measure,
)
from .errors import InsufficientLevelsError, UndefinedRatioError
from .geometry import Manifold
from .integrate import ball_points, surface_samples, torus_invariant


def _level_values(bases: Sequence[FourierBasis], Z: np.ndarray) -> tuple[np.ndarray, list[slice]]:
    """Values of every basis at the rows of Z (P, n), side by side, from one
    block_values call, and each basis's column slice."""
    stops = np.cumsum([B.d for B in bases]).tolist()
    F = block_values(Z, bases)
    return F, [slice(stop - B.d, stop) for B, stop in zip(bases, stops)]


def _level_sums(T: np.ndarray, slices: list[slice]) -> np.ndarray:
    """Row sums of T (P, N) over each level's columns: (P, L)."""
    return np.stack([np.sum(T[:, s], axis=-1) for s in slices], axis=-1)


def szego_kernel(bases: Sequence[FourierBasis], X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """S_m(x_i, y_i) for each basis (level m) and each row pair of X and Y
    (P, n): shape (P, L), or (L,) for one point pair (n,)."""
    X = np.asarray(X, dtype=complex)
    rows = X.reshape(-1, X.shape[-1])
    F, slices = _level_values(bases, np.vstack([rows, np.reshape(Y, rows.shape)]))
    S = _level_sums(F[: len(rows)] * F[len(rows) :].conj(), slices)
    return S[0] if X.ndim == 1 else S


def kernel_diagonal(bases: Sequence[FourierBasis], X: np.ndarray) -> np.ndarray:
    """S_m(x_i, x_i) = sum_j |f_j(x_i)|^2, real, for each basis and each row
    of X (P, n): shape (P, L), or (L,) for one point (n,)."""
    X = np.asarray(X, dtype=complex)
    F, slices = _level_values(bases, X.reshape(-1, X.shape[-1]))
    S = _level_sums(np.abs(F) ** 2, slices)
    return S[0] if X.ndim == 1 else S


def stratum_vanishing_check(
    bases: Sequence[FourierBasis], M: Manifold, x0: np.ndarray
) -> np.ndarray:
    """Max |f_j(x0)| over each basis, (L,), for a stabilized point x0 (n,)
    whose order divides none of the levels.  Each value is forced to zero
    exactly: applying the stabilizing rotation multiplies every f_j(x0) by a
    nontrivial root of unity while fixing x0.
    """
    k = M.stratum_order(x0)
    if k <= 1:
        raise ValueError("x0 must lie on a singular stratum (order > 1)")
    for B in bases:
        if B.level % k == 0:
            raise ValueError(f"level {B.level} is divisible by stabilizer order {k}")
    F, slices = _level_values(bases, np.reshape(x0, (1, M.n)))
    return np.array([np.max(np.abs(F[0, s]), initial=0.0) for s in slices])


@dataclass(frozen=True, eq=False)
class ExpansionFit:
    """Two-term diagonal fit S_m(x,x) ~ c_lead m^{n-1} + c_next m^{n-2}."""

    point: np.ndarray
    stratum_order: int
    levels: tuple[int, ...]
    values: tuple[float, ...]
    c_lead: float
    c_next: float
    predicted: float
    relative_error: float
    levi_determinant: float
    max_residual: float
    measure: str


def fit_expansion(
    M: Manifold,
    x: np.ndarray,
    m_min: int,
    m_max: int,
    measure: str = "auto",
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
) -> ExpansionFit:
    """Fit the diagonal growth law at x over levels in [m_min, m_max].

    Only levels divisible by the stabilizer order of x enter (the others
    vanish identically at x).  The leading coefficient is compared against
    (k / 2 pi) pi^{-(n-1)} |det Levi(x)|.
    """
    k = M.stratum_order(x)
    levels = [m for m in range(m_min, m_max + 1) if m % k == 0]
    if len(levels) < 4:
        raise InsufficientLevelsError(
            f"only {len(levels)} admissible levels in [{m_min}, {m_max}] with {k} | m"
        )
    measure = resolve_measure(M, measure)
    bases = fourier_bases(M, levels, measure=measure, samples=samples, seed=seed)
    values = kernel_diagonal([bases[m] for m in levels], x)
    n = M.n
    A = np.column_stack(
        [np.asarray(levels, float) ** (n - 1), np.asarray(levels, float) ** (n - 2)]
    )
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    resid = A @ coef - values
    levi = M.levi_form(x)
    predicted = (k / (2 * math.pi)) * math.pi ** (-(n - 1)) * abs(levi.determinant)
    rel = abs(coef[0] - predicted) / predicted
    return ExpansionFit(
        point=x,
        stratum_order=k,
        levels=tuple(levels),
        values=tuple(values.tolist()),
        c_lead=float(coef[0]),
        c_next=float(coef[1]),
        predicted=float(predicted),
        relative_error=float(rel),
        levi_determinant=float(levi.determinant),
        max_residual=float(np.max(np.abs(resid))),
        measure=measure,
    )


# |S_low(x, x0)| below this times sqrt(S_low(x, x) S_low(x0, x0)) leaves the
# consecutive-level ratio undefined
RATIO_FLOOR = 1e-14


def ratio_diagnostic(
    B_low: FourierBasis, B_high: FourierBasis, Z: np.ndarray, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | tuple[float, float]:
    """(Re, Im) of S_high(z, x0) / S_low(z, x0) for consecutive block levels,
    as arrays over the rows of Z (R, n), or floats for one point z (n,).

    The denominator must clear RATIO_FLOOR times its scale
    sqrt(S_low(z, z) S_low(x0, x0)); otherwise z is outside the neighborhood
    where the ratio is meaningful, and UndefinedRatioError names the first
    such row.  Both levels at every row and at x0 come from one evaluation.
    """
    Z = np.asarray(Z, dtype=complex)
    rows = Z.reshape(-1, Z.shape[-1])
    F, slices = _level_values([B_low, B_high], np.vstack([rows, np.reshape(x0, (1, -1))]))
    low, high = _level_sums(F[:-1] * F[-1].conj(), slices).T
    d_low = np.sum(np.abs(F[:, slices[0]]) ** 2, axis=-1)  # S_low(z, z), then S_low(x0, x0)
    scale = np.sqrt(np.maximum(d_low[:-1] * d_low[-1], 1e-300))
    undefined = np.flatnonzero(np.abs(low) < RATIO_FLOOR * scale)
    if undefined.size:
        i = undefined[0]
        raise UndefinedRatioError(
            f"row {i}: |S_low(x, x0)| = {abs(low[i]):.3e} below {RATIO_FLOOR:.1e} * scale"
        )
    r = high / low
    if Z.ndim == 1:
        return float(r[0].real), float(r[0].imag)
    return r.real, r.imag


@dataclass(frozen=True)
class RatioReport:
    """First (m, radius) at which the consecutive-level ratio bounds hold."""

    stratum_order: int
    passing_m: int | None
    passing_radius: float | None
    attempts: tuple[tuple[int, float, float, float], ...]  # (m, radius, max|1-R|, max|I|)


def ratio_search(
    M: Manifold,
    x0: np.ndarray,
    m_candidates,
    radii,
    sigma: float = 0.05,
    imag_bound: float = 0.01,
    points_per_ball: int = 50,
    measure: str = "auto",
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
) -> RatioReport:
    """Scan base levels and ball radii for the ratio bounds around x0.

    For each candidate m the blocks are k*m and k*(m+1) with k the stabilizer
    order of x0; points are sampled in the ambient ball, orbit-aligned to
    probe the transverse neighborhood, and both bounds are checked at every
    point, all from one ratio_diagnostic call per (m, radius); a ball with a
    point where the ratio is undefined scores (inf, inf).  A ball needs at
    least one point and a finite positive radius, else ValueError: an empty
    ball or one that holds only x0 would pass on no evidence.
    There is one ball per radius, drawn on first use from key
    integrate.BALL_KEY and shared by every candidate m; the radii read the
    same normal draws, scaled (common random numbers).
    """
    radii = list(radii)
    if points_per_ball < 1:
        raise ValueError(f"points_per_ball must be >= 1, got {points_per_ball}")
    if not all(0 < radius < np.inf for radius in radii):
        raise ValueError(f"every radius must be > 0 and finite, got {radii}")
    k = M.stratum_order(x0)
    measure = resolve_measure(M, measure)
    # one sample set for every candidate; torus-invariant manifolds draw none,
    # their compliant Grams come from the deterministic simplex rule
    sample_set = (
        surface_samples(M, samples, seed)
        if measure == COMPLIANT and not torus_invariant(M)
        else None
    )
    attempts = []
    bases: dict[int, FourierBasis] = {}  # level k*(m+1) is the next candidate's k*m
    ball = functools.cache(lambda radius: ball_points(M, x0, radius, points_per_ball, seed))
    for m in m_candidates:
        missing = [level for level in (k * m, k * (m + 1)) if level not in bases]
        if missing:
            bases.update(fourier_bases(
                M, missing, measure=measure, samples=samples, seed=seed, sample_set=sample_set
            ))
        B_low, B_high = bases[k * m], bases[k * (m + 1)]
        for radius in radii:
            try:
                R, I = ratio_diagnostic(B_low, B_high, ball(radius), x0)
                worst_r = float(np.max(np.abs(1.0 - R), initial=0.0))
                worst_i = float(np.max(np.abs(I), initial=0.0))
            except UndefinedRatioError:
                worst_r, worst_i = math.inf, math.inf
            attempts.append((m, radius, worst_r, worst_i))
            if worst_r < sigma and worst_i < imag_bound:
                return RatioReport(k, m, radius, tuple(attempts))
    return RatioReport(k, None, None, tuple(attempts))
