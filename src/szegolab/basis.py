"""Monomial bases of the positive Fourier components and their Gram matrices.

The weight-m component of the CR function space on the hypersurface model is
spanned by restrictions of monomials z^alpha with <alpha, weights> = m; a
level's monomials are one (d, n) int64 array of exponent rows alpha, in
colexicographic order (enumerate_multiindices).  On the unit sphere with
Euclidean surface measure the Gram matrix is diagonal with closed-form entries

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

A whitened basis is a map with one block.  block_values and block_jacobian
evaluate several bases side by side, from their stacked exponent rows (or
their derivative_table) and their coefficient matrices: a FourierBasis as
one block, an embedding.EmbeddingMap as all of its blocks.

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


def enumerate_multiindices(weights: WeightVector, m: int) -> np.ndarray:
    """All alpha >= 0 with <alpha, weights> = m: the (d, n) int64 exponent
    rows, in colexicographic order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    ws = weights.weights

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

    return np.array(list(rec(len(ws) - 1, m)), dtype=np.int64).reshape(-1, len(ws))


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


def sphere_monomial_norm_sq(alpha: Sequence[int], n: int) -> ExactNorm:
    """Squared L^2(dS) norm of z^alpha on the unit sphere in C^n, exactly."""
    num = 2 * math.prod(math.factorial(a) for a in alpha)
    den = math.factorial(n - 1 + sum(alpha))
    return ExactNorm(Fraction(num, den), n)


def _round_exact_diagonal(A: np.ndarray, n: int) -> np.ndarray:
    """sphere_monomial_norm_sq(alpha, n).value() per exponent row alpha of A,
    bit for bit: the int/int true division is correctly rounded, as
    float(Fraction) is, and no Fraction is built."""
    factorial = [1]
    for k in range(1, n + int(A.sum(axis=1).max(initial=0))):
        factorial.append(factorial[-1] * k)
    return np.array(
        [2 * math.prod(factorial[a] for a in alpha) / factorial[n - 1 + sum(alpha)] for alpha in A.tolist()]
    ) * math.pi**n


def monomial_values(Z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Matrix V[i, j] = z_i^{alpha_j} for points Z (N, n) and exponent rows
    alpha_j; one point (n,) gives the row V[0]."""
    Z = np.asarray(Z, dtype=complex)
    V = monomial_products(Z.reshape(-1, Z.shape[-1]), exponents)
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


def monomial_jacobian(z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """D[..., j, k] = d z^{alpha_j} / d z_k at one point (n,) or a batch (P, n)."""
    z = np.asarray(z, dtype=complex)
    A = np.asarray(exponents, dtype=np.int64).reshape(-1, z.shape[-1])
    D = np.swapaxes(table_jacobian(z.reshape(-1, A.shape[1]), derivative_table(A), len(A)), 1, 2)
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


def _apply_blocks(coeffs: Sequence, V: np.ndarray) -> np.ndarray:
    """out[:, s] = V[:, s] @ C.T for each dense or diagonal coefficient matrix
    C of coeffs and its column slice s, in order: monomial columns to basis
    columns."""
    out = np.empty_like(V)
    start = 0
    for C in coeffs:
        cols = slice(start, start + C.shape[0])
        diagonal = isinstance(C, DiagonalMatrix)
        out[:, cols] = V[:, cols] * C.diagonal if diagonal else V[:, cols] @ C.T
        start = cols.stop
    return out


def block_values(Z: np.ndarray, exponents: np.ndarray, coeffs: Sequence) -> np.ndarray:
    """Values of several bases side by side at the rows of Z (P, n).

    exponents stacks the bases' exponent rows (N, n), block after block, and
    coeffs holds their coefficient matrices in the same order; one
    monomial_values pass per ROW_BLOCK rows covers every block.
    """
    Z = np.asarray(Z, dtype=complex)
    out = np.empty((Z.shape[0], len(exponents)), dtype=complex)
    for start in range(0, Z.shape[0], ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        out[rows] = _apply_blocks(coeffs, monomial_values(Z[rows], exponents))
    return out


def block_jacobian(Z: np.ndarray, derivatives: tuple, coeffs: Sequence) -> np.ndarray:
    """Holomorphic Jacobians J[i, j, k] = d f_j / d z_k of several bases side
    by side at the rows of Z (P, n), from the derivative_table of their
    stacked exponent rows and their coefficient matrices (see block_values)."""
    Z = np.asarray(Z, dtype=complex)
    P, n = Z.shape
    N = sum(C.shape[0] for C in coeffs)
    out = np.empty((P, n, N), dtype=complex)
    for start in range(0, P, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        D = table_jacobian(Z[rows], derivatives, N)  # (rows, n, N)
        out[rows] = _apply_blocks(coeffs, D.reshape(-1, N)).reshape(D.shape)
    return out.transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class GramEstimate:
    matrix: "np.ndarray | DiagonalMatrix"
    stderr: np.ndarray | None  # None for exact measures
    measure: str
    smallest_eigenvalue: float
    largest_eigenvalue: float


def gram_matrices(
    level_exponents: Mapping[int, np.ndarray],
    M: Manifold,
    measure: str = ROUND_EXACT,
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> dict[int, GramEstimate]:
    """Gram matrices of the monomials of several levels under one measure.

    level_exponents maps each level m to exponent rows of weighted degree m
    under M's weights, with no negative entry; anything else is a ValueError.
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
    exps = {
        level: np.asarray(A, dtype=np.int64).reshape(-1, M.n)
        for level, A in level_exponents.items()
    }
    for level, A in exps.items():
        if np.any(A < 0):
            raise ValueError(f"negative exponent in level {level}")
        degrees = A @ M.weights.array
        if np.any(degrees != level):
            raise ValueError(
                f"exponents of level {level} span several weighted degrees: "
                f"{sorted(set(degrees.tolist()) | {level})}"
            )
    if measure == ROUND_EXACT:
        return {
            level: _diagonal_estimate(level, _round_exact_diagonal(A, M.n), measure)
            for level, A in exps.items()
        }
    if measure != COMPLIANT:
        raise ValueError(f"unknown measure {measure!r}")
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
    exponents: np.ndarray,
    M: Manifold,
    measure: str = ROUND_EXACT,
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> GramEstimate:
    """Gram matrix of one level's exponent rows (see gram_matrices)."""
    A = np.asarray(exponents, dtype=np.int64).reshape(-1, M.n)
    level = int(A[0] @ M.weights.array) if len(A) else 0
    return gram_matrices(
        {level: A}, M, measure=measure, samples=samples, seed=seed, sample_set=sample_set
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
    """Orthonormalized weight-m component basis: a map with one block.

    exponents holds the monomials' (d, n) exponent rows in colex order.  Rows
    of coeff_matrix applied to the raw monomial vector give the orthonormal
    family; the matrix is lower triangular (inverse Cholesky factor of the
    Gram matrix).
    """

    level: int
    exponents: np.ndarray  # (d, n) int
    coeff_matrix: np.ndarray
    measure: str

    @property
    def d(self) -> int:
        return len(self.exponents)


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
    exponents: np.ndarray,
    gram: GramEstimate | np.ndarray,
    weights: WeightVector,
    measure: str | None = None,
) -> FourierBasis:
    """Cholesky whitening of the Gram matrix of one level's exponent rows
    (at least one; the level is the first row's weighted degree) into a
    FourierBasis."""
    if isinstance(gram, GramEstimate):
        G = gram.matrix
        measure = measure or gram.measure
    else:
        G = gram if isinstance(gram, DiagonalMatrix) else np.asarray(gram)
        measure = measure or "custom"
    A = np.asarray(exponents, dtype=np.int64).reshape(-1, len(weights))
    if len(A) == 0:
        raise ValueError("cannot orthonormalize an empty set of monomials")
    if isinstance(G, DiagonalMatrix):
        diag = G.diagonal
        if np.any(diag <= 0):
            raise RankDeficiencyError(int(np.argmax(diag <= 0)))
        C = DiagonalMatrix((1.0 / np.sqrt(diag)).astype(complex))
    else:
        C = np.linalg.inv(_cholesky_with_pivot(G))
    return FourierBasis(int(A[0] @ weights.array), A, C, measure)


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
    exps = {m: enumerate_multiindices(M.weights, m) for m in dict.fromkeys(map(int, levels))}
    grams = gram_matrices(
        {m: A for m, A in exps.items() if len(A)},
        M, measure=measure, samples=samples, seed=seed, sample_set=sample_set,
    )
    return {
        m: orthonormalize(A, grams[m], M.weights)
        if len(A)
        else FourierBasis(m, A, np.zeros((0, 0), dtype=complex), measure)
        for m, A in exps.items()
    }


def fourier_basis(
    M: Manifold,
    m: int,
    measure: str = "auto",
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
) -> FourierBasis:
    """The basis of one level (see fourier_bases)."""
    return fourier_bases(M, [m], measure=measure, samples=samples, seed=seed)[int(m)]


def eval_basis(B: FourierBasis, x) -> np.ndarray:
    """Values (f_1(x), ..., f_d(x)) at one point (n,)."""
    return block_values(np.asarray(x, dtype=complex)[None, :], B.exponents, [B.coeff_matrix])[0]


def eval_basis_batch(B: FourierBasis, Z: np.ndarray) -> np.ndarray:
    """Values matrix (N, d) over raw coordinates (N, n)."""
    return block_values(Z, B.exponents, [B.coeff_matrix])


def eval_basis_jacobian(B: FourierBasis, x) -> np.ndarray:
    """Holomorphic derivatives J[..., j, k] = d f_j / d z_k at one point (n,)
    or over a batch (P, n)."""
    z = np.asarray(x, dtype=complex)
    J = block_jacobian(z.reshape(-1, z.shape[-1]), derivative_table(B.exponents), [B.coeff_matrix])
    return J[0] if z.ndim == 1 else J
