"""szegolab: Fourier components of CR functions on circle-invariant
hypersurfaces, their reproducing kernels, and equivariant embeddings."""

__version__ = "0.1.0"

from .basis import fourier_basis
from .embedding import build_embedding
from .geometry import Manifold
from .kernel import fit_expansion
