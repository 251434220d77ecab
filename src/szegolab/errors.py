"""Exception hierarchy shared across the package."""


class SzegolabError(Exception):
    """Base class for all package-specific errors."""


class InvalidSurfaceError(SzegolabError):
    """A defining polynomial failed validation (non-real, non-invariant, ...)."""


class NotOnSurfaceError(SzegolabError):
    """A point's defining-function residual exceeds the surface tolerance."""


class SingularPointError(SzegolabError):
    """The defining function has degenerate gradient at the requested point."""


class TransversalityError(SzegolabError):
    """The rotation field fails to be transverse to the holomorphic tangent space."""


class PseudoconvexityError(SzegolabError):
    """A Levi eigenvalue is non-positive where strict positivity is required."""


class GramNotPositiveDefiniteError(SzegolabError):
    """An estimated Gram matrix is not positive definite within sampling noise."""

    def __init__(self, smallest_eigenvalue, message):
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(message)


class RankDeficiencyError(SzegolabError):
    """Cholesky factorization failed; carries the offending pivot index."""

    def __init__(self, pivot_index):
        self.pivot_index = pivot_index
        super().__init__(f"rank deficiency at pivot {pivot_index}")


class InsufficientLevelsError(SzegolabError):
    """A fit was requested with fewer admissible levels than the minimum."""


class UndefinedRatioError(SzegolabError):
    """Kernel ratio denominator fell below the reliability floor."""


class SamplingError(SzegolabError):
    """Surface sampling failed (ray root not bracketed, support not realizable, ...)."""
