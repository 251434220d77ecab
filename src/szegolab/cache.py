"""Binary sidecar caching for bases and sample sets, keyed by content hashes."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .basis import DiagonalMatrix, FourierBasis, MultiIndex
from .geometry import Manifold
from .integrate import SampleSet


def basis_cache_path(directory, M: Manifold, m: int, measure: str, seed: int, samples: int) -> Path:
    name = f"basis_{M.content_hash}_m{m}_{measure}_s{seed}_n{samples}.npz"
    return Path(directory) / name


def save_basis(path, B: FourierBasis) -> None:
    diagonal = isinstance(B.coeff_matrix, DiagonalMatrix)
    np.savez_compressed(
        path,
        level=B.level,
        exponents=np.asarray([mi.exponents for mi in B.indices], dtype=np.int64).reshape(
            B.d, -1
        ),
        coeff=B.coeff_matrix.diagonal if diagonal else B.coeff_matrix,
        diagonal=diagonal,
        measure=np.asarray(B.measure),
        weights=np.asarray(B.weights.weights, dtype=np.int64),
        gram_condition=B.gram_condition,
    )


def load_basis(path) -> FourierBasis:
    from .geometry import WeightVector

    with np.load(path, allow_pickle=False) as data:
        weights = WeightVector(tuple(int(w) for w in data["weights"]))
        indices = tuple(
            MultiIndex.make(tuple(int(a) for a in row), weights)
            for row in data["exponents"]
        )
        coeff = np.asarray(data["coeff"], dtype=complex)
        if bool(data["diagonal"]):
            coeff = DiagonalMatrix(coeff)
        return FourierBasis(
            level=int(data["level"]),
            indices=indices,
            coeff_matrix=coeff,
            measure=str(data["measure"]),
            weights=weights,
            gram_condition=float(data["gram_condition"]),
        )


def sample_cache_path(directory, M: Manifold, count: int, seed: int, method: str) -> Path:
    return Path(directory) / f"samples_{M.content_hash}_{method}_c{count}_s{seed}.npz"


def save_samples(path, S: SampleSet) -> None:
    np.savez_compressed(path, points=S.points, weights=S.weights, seed=S.seed, method=np.asarray(S.method))


def load_samples(path) -> SampleSet:
    with np.load(path, allow_pickle=False) as data:
        return SampleSet(
            points=np.asarray(data["points"], dtype=complex),
            weights=np.asarray(data["weights"], dtype=float),
            seed=int(data["seed"]),
            method=str(data["method"]),
        )
