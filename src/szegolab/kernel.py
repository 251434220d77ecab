"""Reproducing kernels of the weight-m components and their diagnostics.

S_m(x, y) = sum_j f_j(x) conj(f_j(y)) over an orthonormal basis of the
weight-m component.  On the diagonal it grows like m^{n-1}; the leading
coefficient at a point with stabilizer order k is

    (k / 2 pi) * pi^{-(n-1)} * |det Levi|

in the compliant-metric normalization (k divides m, other levels vanish at
stabilized points).  This module fits that law, certifies the exact
vanishing, measures off-diagonal decay, and computes the consecutive-level
kernel ratio used by the embedding construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    COMPLIANT,
    FourierBasis,
    eval_basis,
    fourier_bases,
    resolve_measure,
)
from .errors import InsufficientLevelsError, UndefinedRatioError
from .geometry import Manifold, SurfacePoint
from .integrate import surface_samples, torus_invariant


@dataclass(frozen=True)
class KernelEvaluation:
    level: int
    value: complex
    x: SurfacePoint
    y: SurfacePoint


def szego_kernel(B: FourierBasis, x: SurfacePoint, y: SurfacePoint) -> KernelEvaluation:
    """Kernel value at (x, y); real non-negative by construction on the diagonal."""
    fx = eval_basis(B, x)
    if x is y:
        value = complex(np.sum(np.abs(fx) ** 2))
    else:
        value = complex(np.sum(fx * eval_basis(B, y).conj()))
    return KernelEvaluation(B.level, value, x, y)


def kernel_diagonal(B: FourierBasis, x: SurfacePoint) -> float:
    return float(np.sum(np.abs(eval_basis(B, x)) ** 2))


def root_of_unity_selector(k: int, m: int) -> int:
    """sum_{s=1}^{k} e^{2 pi i (s-1) m / k}, evaluated exactly as an integer.

    The exponents (s-1) m mod k sweep the multiples of gcd(m, k), each hit
    gcd(m, k) times; the full cycle of q-th roots sums to zero for q > 1.
    Both facts are verified with integer arithmetic, so the returned value
    (k if k | m else 0) is exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = math.gcd(m % k if m % k else k, k)
    counts: dict[int, int] = {}
    for s in range(k):
        counts[(s * m) % k] = counts.get((s * m) % k, 0) + 1
    expected = {r: g for r in range(0, k, g)}
    if counts != expected:
        raise AssertionError(f"exponent cycle structure violated for k={k}, m={m}")
    if m % k == 0:
        return k  # every term is e^{2 pi i * integer} = 1
    # g < k: the distinct exponents are a full set of (k/g)-th roots of unity,
    # whose sum vanishes because x^{k/g} - 1 = (x - 1)(x^{k/g - 1} + ... + 1)
    # and e^{2 pi i g / k} != 1.
    assert g < k
    return 0


def stratum_vanishing_check(B: FourierBasis, M: Manifold, x0: SurfacePoint) -> float:
    """Max |f_j(x0)| over the basis, for a stabilized point whose order
    does not divide the level.  The value is forced to zero exactly: applying
    the stabilizing rotation multiplies every f_j(x0) by a nontrivial root of
    unity while fixing x0.
    """
    k = M.stratum_order(x0)
    if k <= 1:
        raise ValueError("x0 must lie on a singular stratum (order > 1)")
    if B.level % k == 0:
        raise ValueError(f"level {B.level} is divisible by stabilizer order {k}")
    vals = eval_basis(B, x0)
    return float(np.max(np.abs(vals))) if B.d else 0.0


@dataclass(frozen=True)
class ExpansionFit:
    """Two-term diagonal fit S_m(x,x) ~ c_lead m^{n-1} + c_next m^{n-2}."""

    point: SurfacePoint
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
    x: SurfacePoint,
    m_min: int,
    m_max: int,
    measure: str = "auto",
    samples: int = 200_000,
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
    values = [kernel_diagonal(bases[m], x) for m in levels]
    n = M.n
    A = np.column_stack(
        [np.asarray(levels, float) ** (n - 1), np.asarray(levels, float) ** (n - 2)]
    )
    coef, *_ = np.linalg.lstsq(A, np.asarray(values), rcond=None)
    resid = A @ coef - np.asarray(values)
    levi = M.levi_form(x)
    predicted = (k / (2 * math.pi)) * math.pi ** (-(n - 1)) * abs(levi.determinant)
    rel = abs(coef[0] - predicted) / predicted
    return ExpansionFit(
        point=x,
        stratum_order=k,
        levels=tuple(levels),
        values=tuple(float(v) for v in values),
        c_lead=float(coef[0]),
        c_next=float(coef[1]),
        predicted=float(predicted),
        relative_error=float(rel),
        levi_determinant=float(levi.determinant),
        max_residual=float(np.max(np.abs(resid))),
        measure=measure,
    )


@dataclass(frozen=True)
class DecayProfile:
    """Fit of log(|S_m(x,y)| / S_m(x,x)) against m."""

    levels: tuple[int, ...]
    log_ratios: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    truncated: bool
    quotient_distance: float


def decay_profile(
    M: Manifold,
    x: SurfacePoint,
    y: SurfacePoint,
    levels,
    bases: dict[int, FourierBasis] | None = None,
    measure: str = "auto",
    samples: int = 200_000,
    seed: int = 0,
) -> DecayProfile:
    """Off-diagonal decay rate at fixed separation.

    The contract for non-orbit-equivalent points is a negative slope:
    |S_m(x, y)| / S_m(x, x) decays exponentially in m.  Underflowing levels
    are dropped with a flag.
    """
    qd = M.quotient_distance(x, y)
    if qd <= 10 * M.surface_tolerance:
        raise ValueError("points lie on (numerically) the same orbit")
    levels = list(levels)
    if bases is None:
        bases = fourier_bases(M, levels, measure=measure, samples=samples, seed=seed)
    used, logs = [], []
    truncated = False
    for m in levels:
        B = bases[m]
        num = abs(szego_kernel(B, x, y).value)
        den = kernel_diagonal(B, x)
        if num <= 0 or den <= 0 or num / den < 1e-280:
            truncated = True
            continue
        used.append(m)
        logs.append(math.log(num) - math.log(den))
    if len(used) < 3:
        raise InsufficientLevelsError("fewer than 3 usable levels in decay fit")
    A = np.column_stack([np.asarray(used, float), np.ones(len(used))])
    coef, *_ = np.linalg.lstsq(A, np.asarray(logs), rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((np.asarray(logs) - fitted) ** 2))
    ss_tot = float(np.sum((np.asarray(logs) - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayProfile(
        levels=tuple(used),
        log_ratios=tuple(float(v) for v in logs),
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r2,
        truncated=truncated,
        quotient_distance=float(qd),
    )


# |S_low(x, x0)| below this times sqrt(S_low(x, x) S_low(x0, x0)) leaves the
# consecutive-level ratio undefined
RATIO_FLOOR = 1e-14


def ratio_diagnostic(
    B_low: FourierBasis, B_high: FourierBasis, x, x0: SurfacePoint
) -> tuple[float, float]:
    """(Re, Im) of S_high(x, x0) / S_low(x, x0) for consecutive block levels,
    x a SurfacePoint or raw coordinates (n,).

    The denominator must clear RATIO_FLOOR times its scale; otherwise x is
    outside the neighborhood where the ratio is meaningful.
    """
    low = szego_kernel(B_low, x, x0).value
    high = szego_kernel(B_high, x, x0).value
    scale = math.sqrt(max(kernel_diagonal(B_low, x) * kernel_diagonal(B_low, x0), 1e-300))
    if abs(low) < RATIO_FLOOR * scale:
        raise UndefinedRatioError(
            f"|S_low(x, x0)| = {abs(low):.3e} below {RATIO_FLOOR:.1e} * scale"
        )
    r = high / low
    return float(r.real), float(r.imag)


@dataclass(frozen=True)
class RatioReport:
    """First (m, radius) at which the consecutive-level ratio bounds hold."""

    stratum_order: int
    sigma: float
    imag_bound: float
    passing_m: int | None
    passing_radius: float | None
    attempts: tuple[tuple[int, float, float, float], ...]  # (m, radius, max|1-R|, max|I|)


def ratio_search(
    M: Manifold,
    x0: SurfacePoint,
    m_candidates,
    radii,
    sigma: float = 0.05,
    imag_bound: float = 0.01,
    points_per_ball: int = 50,
    measure: str = "auto",
    samples: int = 200_000,
    seed: int = 0,
) -> RatioReport:
    """Scan base levels and ball radii for the ratio bounds around x0.

    For each candidate m the blocks are k*m and k*(m+1) with k the stabilizer
    order of x0; points are sampled in the ambient ball, orbit-aligned to
    probe the transverse neighborhood, and both bounds are checked at every
    point.
    """
    from .integrate import ball_points

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
    for m in m_candidates:
        missing = [level for level in (k * m, k * (m + 1)) if level not in bases]
        if missing:
            bases.update(fourier_bases(
                M, missing, measure=measure, samples=samples, seed=seed, sample_set=sample_set
            ))
        B_low, B_high = bases[k * m], bases[k * (m + 1)]
        for radius in radii:
            Z = ball_points(M, x0, radius, points_per_ball, seed=seed + m, align_orbit=True)
            worst_r, worst_i = 0.0, 0.0
            ok = True
            for z in Z:
                try:
                    R, I = ratio_diagnostic(B_low, B_high, z, x0)
                except UndefinedRatioError:
                    ok = False
                    worst_r, worst_i = float("inf"), float("inf")
                    break
                worst_r = max(worst_r, abs(1.0 - R))
                worst_i = max(worst_i, abs(I))
            attempts.append((m, radius, worst_r, worst_i))
            if ok and worst_r < sigma and worst_i < imag_bound:
                return RatioReport(k, sigma, imag_bound, m, radius, tuple(attempts))
    return RatioReport(k, sigma, imag_bound, None, None, tuple(attempts))
