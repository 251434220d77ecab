"""Monomial bases of the positive Fourier components and their Gram matrices.

The weight-m component of the CR function space on the hypersurface model is
spanned by restrictions of monomials z^alpha with <alpha, weights> = m.  On
the unit sphere with Euclidean surface measure the Gram matrix is diagonal
with closed-form entries

    integral over S^{2n-1} of |z^alpha|^2 dS = 2 pi^n alpha! / (n - 1 + |alpha|)!

carried exactly as (rational, pi-power) pairs.  That diagonal, the round-exact
measure, whitens the monomials of any manifold; computations that depend only
on the span of each component use it everywhere.  Under the compliant measure
on a torus-invariant manifold (every term of rho is z^a zbar^a, as on every
sphere) the Gram matrix is diagonal too, and its entries are integrals over
the simplex of s = (|z_1|^2, ..., |z_n|^2); they come from the deterministic
Gauss-Legendre rule of integrate.torus_quadrature, so the sample count and
seed do not affect them.  On other manifolds, or when a sample set is
passed, the Gram matrix is estimated by Monte Carlo with per-entry standard
errors.  Since z -> zbar preserves X and the compliant measure, that Gram
matrix is real symmetric, and it is accumulated in real arithmetic.
Orthonormalization is Cholesky whitening.

The kernels are studied over many levels on one rule or sample set, so the
Gram matrices of all requested levels are assembled in one pass over it
(gram_matrices, fourier_bases).  The pass runs in blocks of rows, taken from
the given rule or sample set or streamed from the sampler; per block it
takes the weighted compliant density once, builds one power table per
coordinate up to the largest exponent any level needs, gathers each level's
monomial rows from those tables, and adds them to that level's diagonal, or
to its matrix and second-moment accumulator.  The one-level functions
gram_matrix and fourier_basis go through the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import GramNotPositiveDefiniteError, RankDeficiencyError
from .geometry import (
    ROW_BLOCK,
    Manifold,
    SurfacePoint,
    WeightVector,
    gather_products,
    monomial_products,
    power_table,
)
from .integrate import (
    SampleSet,
    compliant_density,
    hypersurface_blocks,
    surface_samples,  # unused here, kept importable: bench/spans.py wraps basis.surface_samples
    torus_invariant,
    torus_quadrature,
)

ROUND_EXACT = "round-exact"
COMPLIANT = "compliant-quadrature"

DEFAULT_GRAM_SAMPLES = 200_000


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector with its weighted and total degrees (always recomputed)."""

    exponents: tuple[int, ...]
    weighted_degree: int
    total_degree: int

    @classmethod
    def make(cls, exponents: Sequence[int], weights: WeightVector) -> "MultiIndex":
        e = tuple(int(a) for a in exponents)
        if any(a < 0 for a in e):
            raise ValueError(f"negative exponent in {e}")
        wd = int(sum(a * w for a, w in zip(e, weights.weights)))
        return cls(e, wd, int(sum(e)))


def enumerate_multiindices(weights: WeightVector, m: int) -> list[MultiIndex]:
    """All alpha >= 0 with <alpha, weights> = m, in colexicographic order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    ws = weights.weights
    n = len(ws)

    def rec(k: int, target: int):
        # exponents for coordinates 0..k, colex order (later coordinates vary
        # slowest and ascend first)
        if k == 0:
            if target % ws[0] == 0:
                yield (target // ws[0],)
            return
        for a in range(target // ws[k] + 1):
            for head in rec(k - 1, target - a * ws[k]):
                yield head + (a,)

    out = []
    for e in sorted(rec(n - 1, m), key=lambda t: t[::-1]):
        out.append(MultiIndex.make(e, weights))
    return out


def dimension(weights: WeightVector, m: int) -> int:
    """Count of enumerate_multiindices without materializing it: the ways to
    make m from the weights, by the coin-change recurrence in O(n m)."""
    if m < 0:
        return 0
    ways = [1] + [0] * m
    for w in weights.weights:
        for s in range(w, m + 1):
            ways[s] += ways[s - w]
    return ways[m]


@dataclass(frozen=True)
class ExactNorm:
    """Exact value rational_part * pi^pi_power."""

    rational_part: Fraction
    pi_power: int

    def __post_init__(self):
        if self.rational_part <= 0:
            raise ValueError("rational part must be positive")

    def value(self) -> float:
        return float(self.rational_part) * math.pi**self.pi_power


def sphere_monomial_norm_sq(alpha: MultiIndex, n: int) -> ExactNorm:
    """Squared L^2(dS) norm of z^alpha on the unit sphere in C^n, exactly."""
    num = 2 * math.prod(math.factorial(a) for a in alpha.exponents)
    den = math.factorial(n - 1 + alpha.total_degree)
    return ExactNorm(Fraction(num, den), n)


def monomial_values(Z: np.ndarray, indices: Sequence[MultiIndex]) -> np.ndarray:
    """Matrix V[i, j] = z_i^{alpha_j} for points Z (N, n)."""
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[-1]
    A = np.array([mi.exponents for mi in indices], dtype=np.int64).reshape(-1, n)
    V = monomial_products(Z.reshape(-1, n), A)
    return V[0] if Z.ndim == 1 else V


def derivative_table(A: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, factors, lowered) for the monomials z^{A_j}, A (T, n).

    d z^{A_j} / d z_k = A[j, k] z^{A_j - e_k}: one entry per nonzero A[j, k],
    at row j and column k, with factor A[j, k] and lowered exponents A_j - e_k.
    """
    A = np.asarray(A, dtype=np.int64)
    rows, cols = np.nonzero(A)
    lowered = A[rows] - np.eye(A.shape[1], dtype=np.int64)[cols]
    return rows, cols, A[rows, cols], lowered


def table_jacobian(Z: np.ndarray, table: tuple[np.ndarray, ...], count: int) -> np.ndarray:
    """D[i, k, j] = d z^{A_j} / d z_k at the points Z (P, n), for the
    derivative_table of count monomials; one monomial_products call."""
    rows, cols, factors, lowered = table
    D = np.zeros((Z.shape[0], Z.shape[1], count), dtype=complex)
    D[:, cols, rows] = factors * monomial_products(Z, lowered)
    return D


def monomial_jacobian(z: np.ndarray, indices: Sequence[MultiIndex]) -> np.ndarray:
    """D[..., j, k] = d z^{alpha_j} / d z_k at one point (n,) or a batch (P, n)."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    A = np.array([mi.exponents for mi in indices], dtype=np.int64).reshape(-1, n)
    D = np.swapaxes(table_jacobian(z.reshape(-1, n), derivative_table(A), len(A)), 1, 2)
    return D[0] if z.ndim == 1 else D


class DiagonalMatrix:
    """Diagonal matrix stored as its diagonal (Gram or coefficient matrix).

    Keeps large exact-measure components memory-safe (a level with d ~ 10^4
    monomials would otherwise materialize a d x d dense matrix).
    """

    def __init__(self, diagonal):
        self.diagonal = np.asarray(diagonal)

    @property
    def shape(self):
        d = self.diagonal.shape[0]
        return (d, d)

    def toarray(self) -> np.ndarray:
        return np.diag(self.diagonal)


def apply_coeff(C, rows: np.ndarray) -> np.ndarray:
    """C @ rows for a dense or diagonal coefficient matrix; rows is (d,) or a
    stack (..., d, k)."""
    if isinstance(C, DiagonalMatrix):
        return C.diagonal * rows if rows.ndim == 1 else C.diagonal[:, None] * rows
    return C @ rows


def apply_coeff_right(V: np.ndarray, C) -> np.ndarray:
    """V @ C.T for a dense or diagonal coefficient matrix."""
    if isinstance(C, DiagonalMatrix):
        return V * C.diagonal[None, :]
    return V @ C.T


@dataclass(frozen=True, eq=False)
class GramEstimate:
    matrix: "np.ndarray | DiagonalMatrix"
    stderr: np.ndarray | None  # None for exact measures
    measure: str
    smallest_eigenvalue: float
    largest_eigenvalue: float


def gram_matrices(
    level_indices: Mapping[int, Sequence[MultiIndex]],
    M: Manifold,
    measure: str = ROUND_EXACT,
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> dict[int, GramEstimate]:
    """Gram matrices of the monomials of several levels under one measure.

    level_indices maps each level m to monomials of weighted degree m.
    round-exact is the sphere-L^2 normalization of the monomials: the closed
    form diagonal of sphere_monomial_norm_sq on the unit sphere S^{2n-1},
    whatever the manifold.  On the standard sphere it is the Gram matrix of
    X's own measure; elsewhere it whitens the same span by another inner
    product, which serves every computation that depends only on the span
    (see resolve_measure).  compliant-quadrature reweights a rule on X by the
    compliant volume density.  On a torus-invariant X with no sample_set given
    the Gram matrices are diagonal, and their entries come from the
    deterministic simplex rule of torus_quadrature; samples and seed are then
    unused.  Otherwise the Gram matrices are Monte-Carlo estimates: one pass,
    block by block, over the given sample set or over the blocks that
    integrate.hypersurface_blocks streams for samples and seed (never
    materialized), accumulates every level's matrix and the second moments
    behind its per-entry standard errors.

    rho has real coefficients with c(a, b) = c(b, a), so z -> zbar maps X to
    itself and preserves its surface measure and the compliant density.  So
    G_ab = G_ba = conj(G_ab): every compliant Gram matrix is real symmetric,
    and the imaginary part of a complex estimate is sampling noise only.  The
    estimate accumulates the real part alone, in real arithmetic, and is
    symmetrized; its stderr is the complex estimate's, an upper bound on the
    standard error of the real part.  Each result must be positive definite;
    otherwise GramNotPositiveDefiniteError names the level and its size.
    """
    for level, indices in level_indices.items():
        degrees = {mi.weighted_degree for mi in indices}
        if degrees - {level}:
            raise ValueError(
                f"indices of level {level} span several weighted degrees: "
                f"{sorted(degrees | {level})}"
            )
    if measure == ROUND_EXACT:
        return {
            level: _diagonal_estimate(
                level,
                np.array([sphere_monomial_norm_sq(mi, M.n).value() for mi in indices]),
                measure,
            )
            for level, indices in level_indices.items()
        }
    if measure != COMPLIANT:
        raise ValueError(f"unknown measure {measure!r}")
    exps = {
        level: np.array([mi.exponents for mi in indices], dtype=np.int64).reshape(-1, M.n)
        for level, indices in level_indices.items()
    }
    nonempty = any(len(A) for A in exps.values())
    if sample_set is None and torus_invariant(M):
        diag = {level: np.zeros(len(A)) for level, A in exps.items()}
        if nonempty:
            degree = max(int(A.sum(axis=1).max(initial=0)) for A in exps.values())
            blocks = _compliant_blocks(M, torus_quadrature(M, degree))
            for c, powers in _power_blocks(blocks, exps):
                for level, A in exps.items():
                    V = gather_products(powers, A)
                    diag[level] += (V.real**2 + V.imag**2) @ c
        return {level: _diagonal_estimate(level, d, measure) for level, d in diag.items()}
    G = {level: np.zeros((len(A), len(A))) for level, A in exps.items()}
    S2 = {level: np.zeros((len(A), len(A))) for level, A in exps.items()}
    N = 0
    if nonempty:
        if sample_set is not None:
            N, blocks = sample_set.count, _compliant_blocks(M, sample_set)
        else:
            N = samples
            blocks = ((X, w * density) for X, w, density in hypersurface_blocks(M, samples, seed))
        for c, powers in _power_blocks(blocks, exps):
            c2 = np.repeat(c, 2)
            Nc2 = N * c**2
            for level, A in exps.items():
                # R[j, 2i] + 1j R[j, 2i + 1] = z_i^{alpha_j}: a real view, no copy
                R = gather_products(powers, A).view(np.float64)
                G[level] += (R * c2) @ R.T  # Re sum_i c_i z_i^{alpha_j} conj(z_i^{alpha_k})
                R2 = R * R
                B = R2[:, 0::2] + R2[:, 1::2]  # |z_i^{alpha_j}|^2
                S2[level] += (B * Nc2) @ B.T
    out = {}
    for level, A in exps.items():
        Gm = 0.5 * (G[level] + G[level].T)
        stderr = np.sqrt(np.maximum(S2[level] - Gm**2, 0.0) / max(N - 1, 1))
        spectrum = np.linalg.eigvalsh(Gm) if len(A) else np.zeros(1)
        if len(A) and spectrum[0] <= 0:
            raise _not_positive_definite(level, len(A), float(spectrum[0]))
        out[level] = GramEstimate(Gm, stderr, measure, float(spectrum[0]), float(spectrum[-1]))
    return out


def _compliant_blocks(M: Manifold, S: SampleSet):
    """(Z, c) per block of ROW_BLOCK rows of S: the points and their weights
    times the compliant density."""
    for start in range(0, S.count, ROW_BLOCK):
        Z = S.points[start : start + ROW_BLOCK]
        yield Z, S.weights[start : start + ROW_BLOCK] * compliant_density(M, Z)


def _power_blocks(blocks, exps: Mapping[int, np.ndarray]):
    """(c, powers) per block (Z, c) of blocks, with powers one table per
    coordinate of Z, up to the largest exponent of that coordinate in exps."""
    e_max = np.max([A.max(axis=0, initial=0) for A in exps.values()], axis=0).tolist()
    for Z, c in blocks:
        yield c, [power_table(Z[:, k], e) for k, e in enumerate(e_max)]


def _not_positive_definite(level: int, d: int, smallest: float) -> GramNotPositiveDefiniteError:
    return GramNotPositiveDefiniteError(
        smallest,
        f"Gram matrix of level {level} ({d} monomials) not positive definite "
        f"(smallest eigenvalue {smallest:.3e})",
    )


def _diagonal_estimate(level: int, diag: np.ndarray, measure: str) -> GramEstimate:
    """GramEstimate of an exactly diagonal Gram matrix (no standard errors)."""
    if len(diag) == 0:
        return GramEstimate(DiagonalMatrix(diag), None, measure, 0.0, 0.0)
    smallest = float(diag.min())
    if smallest <= 0:
        raise _not_positive_definite(level, len(diag), smallest)
    return GramEstimate(DiagonalMatrix(diag), None, measure, smallest, float(diag.max()))


def gram_matrix(
    indices: Sequence[MultiIndex],
    M: Manifold,
    measure: str = ROUND_EXACT,
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> GramEstimate:
    """Gram matrix of one level's monomials (see gram_matrices)."""
    level = indices[0].weighted_degree if indices else 0
    return gram_matrices(
        {level: indices}, M, measure=measure, samples=samples, seed=seed, sample_set=sample_set
    )[level]


def resolve_measure(M: Manifold, measure: str, span_only: bool = False) -> str:
    """The one rule for measure="auto"; an explicit measure is returned as given.

    A computation that depends only on the span of each component (span_only:
    vanishing on a stratum, an embedding's certificates) gets round-exact on
    every manifold: any basis of the span gives the same image up to a
    blockwise linear change of target coordinates, and the closed-form
    diagonal needs no Gram samples.  A kernel value depends on the inner
    product, so it gets round-exact only on the standard sphere, where the
    compliant measure coincides with the round one, and compliant-quadrature
    otherwise.
    """
    if measure != "auto":
        return measure
    standard = M.kind == "sphere" and all(w == 1 for w in M.weights)
    return ROUND_EXACT if span_only or standard else COMPLIANT


@dataclass(frozen=True, eq=False)
class FourierBasis:
    """Orthonormalized weight-m component basis.

    Rows of coeff_matrix applied to the raw monomial vector give the
    orthonormal family; the matrix is lower triangular (inverse Cholesky
    factor of the Gram matrix).
    """

    level: int
    indices: tuple[MultiIndex, ...]
    coeff_matrix: np.ndarray
    measure: str
    weights: WeightVector
    gram_condition: float

    @property
    def d(self) -> int:
        return len(self.indices)


def _cholesky_with_pivot(G: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        lo, hi = 1, G.shape[0]
        while lo < hi:  # smallest failing leading minor
            mid = (lo + hi) // 2
            try:
                np.linalg.cholesky(G[:mid, :mid])
                lo = mid + 1
            except np.linalg.LinAlgError:
                hi = mid
        raise RankDeficiencyError(lo - 1)


def orthonormalize(
    indices: Sequence[MultiIndex],
    gram: GramEstimate | np.ndarray,
    weights: WeightVector,
    measure: str | None = None,
) -> FourierBasis:
    """Cholesky whitening of the Gram matrix into a FourierBasis."""
    if isinstance(gram, GramEstimate):
        G = gram.matrix
        measure = measure or gram.measure
        extremes = (gram.smallest_eigenvalue, gram.largest_eigenvalue)
    else:
        G = gram if isinstance(gram, DiagonalMatrix) else np.asarray(gram)
        measure = measure or "custom"
        extremes = None
    d = len(indices)
    if d == 0:
        return FourierBasis(0, (), np.zeros((0, 0), dtype=complex), measure, weights, 1.0)
    level = indices[0].weighted_degree
    if isinstance(G, DiagonalMatrix):
        diag = G.diagonal
        if np.any(diag <= 0):
            raise RankDeficiencyError(int(np.argmax(diag <= 0)))
        C = DiagonalMatrix((1.0 / np.sqrt(diag)).astype(complex))
        cond = float(diag.max() / diag.min())
    else:
        L = _cholesky_with_pivot(G)
        C = np.linalg.inv(L)
        # a Hermitian positive definite G has 2-norm condition lambda_max / lambda_min
        lo, hi = extremes if extremes is not None else np.linalg.eigvalsh(G)[[0, -1]]
        cond = float(hi / lo)
    return FourierBasis(level, tuple(indices), C, measure, weights, cond)


def fourier_bases(
    M: Manifold,
    levels,
    measure: str = "auto",
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> dict[int, FourierBasis]:
    """Enumerate, assemble the Gram matrices and whiten, for several levels.

    The non-empty levels share one gram_matrices call, hence one sample set
    and one pass over it.  measure="auto" is resolved by resolve_measure.
    """
    measure = resolve_measure(M, measure)
    indices = {m: enumerate_multiindices(M.weights, m) for m in dict.fromkeys(map(int, levels))}
    grams = gram_matrices(
        {m: idx for m, idx in indices.items() if idx},
        M, measure=measure, samples=samples, seed=seed, sample_set=sample_set,
    )
    return {
        m: orthonormalize(idx, grams[m], M.weights)
        if idx
        else FourierBasis(m, (), np.zeros((0, 0), dtype=complex), measure, M.weights, 1.0)
        for m, idx in indices.items()
    }


def fourier_basis(
    M: Manifold,
    m: int,
    measure: str = "auto",
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> FourierBasis:
    """The basis of one level (see fourier_bases)."""
    return fourier_bases(
        M, [m], measure=measure, samples=samples, seed=seed, sample_set=sample_set
    )[int(m)]


def eval_basis(B: FourierBasis, x) -> np.ndarray:
    """Values (f_1(x), ..., f_d(x)) at a SurfacePoint or raw coordinates."""
    z = x.coordinates if isinstance(x, SurfacePoint) else np.asarray(x, dtype=complex)
    if B.d == 0:
        return np.zeros(0, dtype=complex)
    return apply_coeff(B.coeff_matrix, monomial_values(z, B.indices))


def eval_basis_batch(B: FourierBasis, Z: np.ndarray) -> np.ndarray:
    """Values matrix (N, d) over raw coordinates (N, n)."""
    if B.d == 0:
        return np.zeros((np.asarray(Z).shape[0], 0), dtype=complex)
    out = np.empty((np.asarray(Z).shape[0], B.d), dtype=complex)
    Z = np.asarray(Z, dtype=complex)
    for start in range(0, Z.shape[0], ROW_BLOCK):
        V = monomial_values(Z[start : start + ROW_BLOCK], B.indices)
        out[start : start + ROW_BLOCK] = apply_coeff_right(V, B.coeff_matrix)
    return out


def eval_basis_jacobian(B: FourierBasis, x) -> np.ndarray:
    """Holomorphic derivatives J[..., j, k] = d f_j / d z_k at a SurfacePoint,
    at raw coordinates (n,), or over a batch (P, n)."""
    z = x.coordinates if isinstance(x, SurfacePoint) else np.asarray(x, dtype=complex)
    if B.d == 0:
        return np.zeros(z.shape[:-1] + (0, z.shape[-1]), dtype=complex)
    return apply_coeff(B.coeff_matrix, monomial_jacobian(z, B.indices))
