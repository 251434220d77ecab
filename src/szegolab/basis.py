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

A whitened basis is exponent rows and one coefficient array, 1-D for a
diagonal Gram matrix (so no d x d matrix is formed) and 2-D otherwise.  It
is a map with one block: block_values and block_jacobian evaluate a sequence
of bases side by side, one alone or an embedding.EmbeddingMap's blocks.

The kernels are studied over many levels at once, so the levels of one
fourier_bases call are one stacked exponent array with a row count per level
(enumerate_multiindices of a level sequence).  On the diagonal paths the
sign and degree check, the closed-form diagonal, the gathers from the power
tables, the reciprocal square root and the coefficient product of each
evaluated row block (_apply_blocks) are one numpy call each, whatever the
level count.  The Gram pass runs over the rule or sample set in blocks of
rows, taken from the given rule or sample set or streamed from the sampler;
per block it takes the weighted compliant density once and builds one power
table per coordinate up to the largest exponent any level needs.  On the
simplex rule it gathers the stacked rows from those tables in groups of
whole levels of about GATHER_ENTRIES entries (one group unless the rows are
many) and adds each level's squared moduli to its diagonal by a product
of its own, so that a level's entries do not depend on the levels beside it.
A Monte-Carlo pass gathers each level's rows and adds them to that level's
matrix and second-moment accumulator.  Each basis and Gram estimate holds
views of the stacked arrays.  The one-level functions gram_matrix and
fourier_basis are the one-level case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
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

# float64 entries (8 MiB) per gather_products call of the simplex rule: the
# stacked rows are gathered in groups of the levels that start in the same
# GATHER_ENTRIES entries, so a group holds less than that plus one level
GATHER_ENTRIES = 1 << 20


def enumerate_multiindices(weights: WeightVector, levels):
    """All alpha >= 0 with <alpha, weights> = m as int64 exponent rows, in
    colexicographic order, built a coordinate at a time from the last.

    An int m gives that level's (d, n) rows.  A sequence of levels gives the
    rows of all of them stacked in the given order, each level's rows in
    colex order, and the (L,) count of rows per level: the recurrence is
    seeded with every level at once and tracks the level each row belongs to.
    """
    one = np.ndim(levels) == 0
    ms = np.array([levels] if one else levels, dtype=np.int64)
    if np.any(ms < 0):
        raise ValueError("m must be >= 0")
    ws = weights.weights
    rest = ms  # what each partial row leaves of its level
    owner = np.arange(len(ms))  # the index of each partial row's level
    columns: list[np.ndarray] = []
    for w in ws[:0:-1]:
        k = rest // w + 1  # each row's children: exponents a = 0, ..., rest // w
        parent = np.repeat(np.arange(len(rest)), k)
        a = np.arange(len(parent)) - np.repeat(np.cumsum(k) - k, k)
        rest, owner = rest[parent] - w * a, owner[parent]
        columns = [a] + [c[parent] for c in columns]
    if ws[0] > 1:
        fits = rest % ws[0] == 0
        rest, owner, columns = rest[fits] // ws[0], owner[fits], [c[fits] for c in columns]
    A = np.stack([rest] + columns, axis=1, dtype=np.int64)
    return A if one else (A, np.bincount(owner, minlength=len(ms)))


def _level_rows(levels: Sequence[int], counts: Sequence[int]) -> dict[int, slice]:
    """Each level's row slice of rows stacked level by level, counts[i] rows
    for levels[i]."""
    return {level: slice(stop - d, stop) for level, d, stop in zip(levels, counts, accumulate(counts))}


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
    bit for bit: the products and factorials are exact Python ints in an
    object array, their true division is correctly rounded, as
    float(Fraction) is, and no Fraction is built."""
    degrees = A.sum(axis=1)
    F = np.array([math.factorial(k) for k in range(n + int(degrees.max(initial=0)))], dtype=object)
    return (2 * F[A].prod(axis=1) / F[n - 1 + degrees]).astype(float) * math.pi**n


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


def _apply_blocks(bases: Sequence[FourierBasis], V: np.ndarray) -> np.ndarray:
    """out[:, s] = V[:, s] @ C.T for the coefficient array C of each basis and
    its column slice s, in order (V[:, s] * C for a 1-D diagonal C): monomial
    columns to basis columns.  When every C is 1-D, one product with their
    concatenation."""
    coeffs = [B.coeff_matrix for B in bases]
    if all(C.ndim == 1 for C in coeffs):
        return V * np.concatenate(coeffs)
    out = np.empty_like(V)
    start = 0
    for C in coeffs:
        cols = slice(start, start + C.shape[0])
        out[:, cols] = V[:, cols] * C if C.ndim == 1 else V[:, cols] @ C.T
        start = cols.stop
    return out


def block_values(Z: np.ndarray, bases: Sequence[FourierBasis]) -> np.ndarray:
    """Values of several bases side by side at the rows of Z (P, n): one
    monomial_values pass per ROW_BLOCK rows over their stacked exponent rows,
    then each coefficient array on its own column slice."""
    Z = np.asarray(Z, dtype=complex)
    exponents = np.vstack([B.exponents for B in bases])
    out = np.empty((Z.shape[0], len(exponents)), dtype=complex)
    for start in range(0, Z.shape[0], ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        out[rows] = _apply_blocks(bases, monomial_values(Z[rows], exponents))
    return out


def block_jacobian(Z: np.ndarray, bases: Sequence[FourierBasis]) -> np.ndarray:
    """Holomorphic Jacobians J[i, j, k] = d f_j / d z_k of several bases side
    by side at the rows of Z (P, n), from the derivative_table of their
    stacked exponent rows (see block_values)."""
    Z = np.asarray(Z, dtype=complex)
    P, n = Z.shape
    derivatives = derivative_table(np.vstack([B.exponents for B in bases]))
    N = sum(B.d for B in bases)
    out = np.empty((P, n, N), dtype=complex)
    for start in range(0, P, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        D = table_jacobian(Z[rows], derivatives, N)  # (rows, n, N)
        out[rows] = _apply_blocks(bases, D.reshape(D.shape[0] * n, N)).reshape(D.shape)
    return out.transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class GramEstimate:
    matrix: np.ndarray  # (d,), the diagonal, when exactly diagonal; else (d, d)
    stderr: np.ndarray | None  # None for exact measures
    measure: str
    smallest_eigenvalue: float


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
    unused.  The rule's nodes are real, so that pass runs in float64, bit for
    bit as in complex128: the product of two operands with zero imaginary
    parts is ab + 0j exactly, and |V|^2 = V.real**2 + 0.  Otherwise the Gram
    matrices are Monte-Carlo estimates: one pass, block by block, over the
    given sample set or over the blocks that integrate.hypersurface_blocks
    streams for samples and seed (never materialized), accumulates every
    level's matrix and the second moments behind its per-entry standard errors.

    rho has real coefficients with c(a, b) = c(b, a), so z -> zbar maps X to
    itself and preserves its surface measure and the compliant density.  So
    G_ab = G_ba = conj(G_ab): every compliant Gram matrix is real symmetric,
    and the imaginary part of a complex estimate is sampling noise only.  The
    estimate accumulates the real part alone, in real arithmetic, and is
    symmetrized; its stderr is the complex estimate's, an upper bound on the
    standard error of the real part.  Each result must be positive definite;
    otherwise GramNotPositiveDefiniteError names the level and its size.
    """
    parts = [np.asarray(A, dtype=np.int64).reshape(-1, M.n) for A in level_exponents.values()]
    A = np.concatenate([np.zeros((0, M.n), dtype=np.int64), *parts])
    counts = [len(part) for part in parts]
    rows = _level_rows(list(level_exponents), counts)
    owner = np.repeat(np.array(list(level_exponents), dtype=np.int64), counts)  # each row's level
    negative = np.flatnonzero(np.any(A < 0, axis=1))
    if negative.size:
        raise ValueError(f"negative exponent in level {owner[negative[0]]}")
    degrees = A @ M.weights.array
    wrong = np.flatnonzero(degrees != owner)
    if wrong.size:
        level = int(owner[wrong[0]])
        raise ValueError(
            f"exponents of level {level} span several weighted degrees: "
            f"{sorted(set(degrees[rows[level]].tolist()) | {level})}"
        )
    if measure == ROUND_EXACT:
        return _diagonal_estimates(rows, _round_exact_diagonal(A, M.n), measure)
    if measure != COMPLIANT:
        raise ValueError(f"unknown measure {measure!r}")
    if sample_set is None and torus_invariant(M):
        diag = np.zeros(len(A))
        if len(A):
            blocks = _compliant_blocks(M, torus_quadrature(M, int(A.sum(axis=1).max())))
            filled = [s for s in rows.values() if s.stop > s.start]
            # the rule's nodes are real: real tables give |V|^2 = V * V exactly
            for c, powers in _power_blocks(((Z.real, c) for Z, c in blocks), A):
                size = max(GATHER_ENTRIES // len(c), 1)  # rows per gather, a level or more
                for _, group in groupby(filled, key=lambda s: s.start // size):
                    group = list(group)
                    first = group[0].start
                    B = gather_products(powers, A[first : group[-1].stop])
                    B *= B
                    for s in group:  # a product per level keeps each level's rounding
                        diag[s] += B[s.start - first : s.stop - first] @ c
        return _diagonal_estimates(rows, diag, measure)
    G = {level: np.zeros((d, d)) for level, d in zip(rows, counts)}
    S2 = {level: np.zeros((d, d)) for level, d in zip(rows, counts)}
    N = 0
    if len(A):
        if sample_set is not None:
            N, blocks = sample_set.count, _compliant_blocks(M, sample_set)
        else:
            N = samples
            blocks = ((X, w * density) for X, w, density in hypersurface_blocks(M, samples, seed))
        for c, powers in _power_blocks(blocks, A):
            c2 = np.repeat(c, 2)
            Nc2 = N * c**2
            for level, s in rows.items():
                # R[j, 2i] + 1j R[j, 2i + 1] = z_i^{alpha_j}: a real view, no copy
                R = gather_products(powers, A[s]).view(np.float64)
                G[level] += (R * c2) @ R.T  # Re sum_i c_i z_i^{alpha_j} conj(z_i^{alpha_k})
                R2 = R * R
                B = R2[:, 0::2] + R2[:, 1::2]  # |z_i^{alpha_j}|^2
                S2[level] += (B * Nc2) @ B.T
    out = {}
    for level, d in zip(rows, counts):
        Gm = 0.5 * (G[level] + G[level].T)
        stderr = np.sqrt(np.maximum(S2[level] - Gm**2, 0.0) / max(N - 1, 1))
        spectrum = np.linalg.eigvalsh(Gm) if d else np.zeros(1)
        if d and spectrum[0] <= 0:
            raise _not_positive_definite(level, d, float(spectrum[0]))
        out[level] = GramEstimate(Gm, stderr, measure, float(spectrum[0]))
    return out


def _compliant_blocks(M: Manifold, S: SampleSet):
    """(Z, c) per block of ROW_BLOCK rows of S: the points and their weights
    times the compliant density."""
    for start in range(0, S.count, ROW_BLOCK):
        Z = S.points[start : start + ROW_BLOCK]
        yield Z, S.weights[start : start + ROW_BLOCK] * compliant_density(M, Z)


def _power_blocks(blocks, A: np.ndarray):
    """(c, powers) per block (Z, c) of blocks, with powers the per-coordinate
    slices of one power_table over the contiguous transpose of Z, up to the
    largest exponent in A."""
    e_max = int(A.max(initial=0))
    for Z, c in blocks:
        yield c, list(power_table(np.ascontiguousarray(Z.T), e_max).swapaxes(0, 1))


def _not_positive_definite(level: int, d: int, smallest: float) -> GramNotPositiveDefiniteError:
    return GramNotPositiveDefiniteError(
        smallest,
        f"Gram matrix of level {level} ({d} monomials) not positive definite "
        f"(smallest eigenvalue {smallest:.3e})",
    )


def _diagonal_estimates(rows: Mapping[int, slice], diag: np.ndarray, measure: str) -> dict[int, GramEstimate]:
    """GramEstimates of exactly diagonal Gram matrices (no standard errors):
    each level's rows[level] slice of one stacked diagonal."""
    starts = [s.start for s in rows.values() if s.stop > s.start]
    smallest = iter(np.minimum.reduceat(diag, starts).tolist() if starts else [])
    out = {}
    for level, s in rows.items():
        d = s.stop - s.start
        low = next(smallest) if d else 0.0
        if d and low <= 0:
            raise _not_positive_definite(level, d, low)
        out[level] = GramEstimate(diag[s], None, measure, low)
    return out


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
    Gram matrix), or its (d,) diagonal when the Gram matrix is diagonal.
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


def _whitening(G: np.ndarray) -> np.ndarray:
    """Coefficient array that whitens G: 1 / sqrt of a 1-D Gram diagonal, of
    one level or several stacked, or the inverse Cholesky factor of a 2-D
    Gram matrix."""
    if G.ndim == 1:
        if np.any(G <= 0):
            raise RankDeficiencyError(int(np.argmax(G <= 0)))
        return (1.0 / np.sqrt(G)).astype(complex)
    return np.linalg.inv(_cholesky_with_pivot(G))


def orthonormalize(exponents: np.ndarray, gram: GramEstimate, weights: WeightVector) -> FourierBasis:
    """Cholesky whitening of the Gram matrix of one level's exponent rows
    (at least one; the level is the first row's weighted degree) into a
    FourierBasis: a 1-D Gram diagonal gives the 1-D coefficient diagonal."""
    A = np.asarray(exponents, dtype=np.int64).reshape(-1, len(weights))
    if len(A) == 0:
        raise ValueError("cannot orthonormalize an empty set of monomials")
    return FourierBasis(int(A[0] @ weights.array), A, _whitening(gram.matrix), gram.measure)


def fourier_bases(
    M: Manifold,
    levels,
    measure: str = "auto",
    samples: int = DEFAULT_GRAM_SAMPLES,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> dict[int, FourierBasis]:
    """Enumerate, assemble the Gram matrices and whiten, for several levels.

    The levels' monomials are one stacked exponent array from one
    enumerate_multiindices call, and each basis holds a view of its rows.
    The non-empty levels share one gram_matrices call, hence one sample set
    and one pass over it.  Diagonal Gram matrices are whitened together, by
    one reciprocal square root of their concatenation, and each basis holds
    a view of its coefficients; a dense Gram matrix is whitened on its own.
    An empty level gets an empty basis.  measure="auto" is resolved by
    resolve_measure.
    """
    measure = resolve_measure(M, measure)
    levels = list(dict.fromkeys(map(int, levels)))
    A, counts = enumerate_multiindices(M.weights, levels)
    rows = _level_rows(levels, counts.tolist())
    grams = gram_matrices(
        {m: A[s] for m, s in rows.items() if s.stop > s.start},
        M, measure=measure, samples=samples, seed=seed, sample_set=sample_set,
    )
    diagonals = [G.matrix for G in grams.values() if G.matrix.ndim == 1]
    if len(diagonals) == len(grams):
        C = _whitening(np.concatenate([np.zeros(0), *diagonals]))
        coeffs = {m: C[s] for m, s in rows.items()}
    else:
        empty = np.zeros((0, 0), dtype=complex)
        coeffs = {m: _whitening(grams[m].matrix) if m in grams else empty for m in rows}
    return {m: FourierBasis(m, A[s], coeffs[m], measure) for m, s in rows.items()}


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
    return block_values(np.asarray(x, dtype=complex)[None, :], [B])[0]


def eval_basis_batch(B: FourierBasis, Z: np.ndarray) -> np.ndarray:
    """Values matrix (N, d) over raw coordinates (N, n)."""
    return block_values(Z, [B])


def eval_basis_jacobian(B: FourierBasis, x) -> np.ndarray:
    """Holomorphic derivatives J[..., j, k] = d f_j / d z_k at one point (n,)
    or over a batch (P, n)."""
    z = np.asarray(x, dtype=complex)
    J = block_jacobian(z.reshape(-1, z.shape[-1]), [B])
    return J[0] if z.ndim == 1 else J
