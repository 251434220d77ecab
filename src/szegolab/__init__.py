"""szegolab: Fourier components of CR functions on circle-invariant
hypersurfaces, their reproducing kernels, and equivariant embeddings."""

__version__ = "0.1.0"

from .basis import (
    ExactNorm,
    FourierBasis,
    dimension,
    enumerate_multiindices,
    eval_basis,
    eval_basis_jacobian,
    fourier_bases,
    fourier_basis,
    gram_matrices,
    gram_matrix,
    orthonormalize,
    sphere_monomial_norm_sq,
)
from .embedding import (
    EmbeddingMap,
    SeparationReport,
    build_embedding,
    check_equivariance,
    evaluate,
    immersion_report,
    separation_report,
)
from .fourier import OrbitQuadrature, check_T_eigen, circle_average, component_orthogonality, default_quadrature
from .geometry import LeviData, Manifold, WeightVector
from .integrate import SampleSet, integrate_surface, sample_hypersurface, sample_sphere
from .kernel import (
    DecayProfile,
    ExpansionFit,
    decay_profile,
    fit_expansion,
    ratio_diagnostic,
    root_of_unity_selector,
    stratum_vanishing_check,
    szego_kernel,
)
