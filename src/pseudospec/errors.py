"""Exception hierarchy shared by all modules: a :class:`NumericFailure` is a
computation failing on valid input (CLI exit 3); every other
:class:`PseudospecError` rejects the input itself (CLI exit 2)."""


class PseudospecError(Exception):
    """Base class for all library errors."""


class NumericFailure(PseudospecError):
    """A computation on valid input cannot produce a trustworthy result."""


class NonConvergence(NumericFailure):
    """An iterative kernel (eigensolver, SVD) failed or missed its residual target."""


class DefectiveInput(NumericFailure):
    """Eigenvalues too close to treat as simple (min gap below threshold):
    the matrix is (nearly) defective, or its eigenvalues are simple but too
    ill-conditioned to separate in double precision."""


class DimensionMismatch(PseudospecError):
    """Matrix dimension incompatible with the requested structure or operation."""


class ZeroOffdiagonal(PseudospecError):
    """Tridiagonal Toeplitz reference requires nonzero off-diagonal entries."""


class ZeroProjection(NumericFailure):
    """Projection onto the structure subspace is numerically zero."""


class VanishingOverlap(NumericFailure):
    """y^H x is numerically zero; the eigenvalue is defective to working precision."""


class DegenerateSpectrum(NumericFailure):
    """Fewer than two eigenvalues available for pair minimization."""


class OutOfBounds(PseudospecError):
    """Query point lies outside the grid window."""


class EmptyLevelSet(NumericFailure):
    """No grid cell lies in the requested level set; widen the window."""


class UnknownFamily(PseudospecError):
    """Matrix generator family name not recognized."""


class BadParams(PseudospecError):
    """Generator or CLI parameters outside their schema."""
