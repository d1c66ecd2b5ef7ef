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
    """A matrix that is not square, below 2x2 or not finite; a dimension below
    2 or not fitting a structure pattern; a pattern of unknown kind or support."""


class ZeroProjection(NumericFailure):
    """Projection onto the structure subspace is numerically zero."""


class VanishingOverlap(NumericFailure):
    """y^H x is numerically zero; the eigenvalue is defective to working precision."""


class DegenerateSpectrum(NumericFailure):
    """Fewer than two eigenvalues with positive kappa (coalescence estimate),
    or a cloud that sub-cloud matching cannot split: size not a multiple of
    n, an empty sub-cloud, or no point near the tangency point."""


class OutOfBounds(PseudospecError):
    """A non-finite or flat grid window, or a resolution below 2x2 (grid_field)."""


class EmptyLevelSet(NumericFailure):
    """No grid cell lies in the requested level set; widen the window."""


class UnknownFamily(PseudospecError):
    """Matrix generator family name not recognized."""


class BadParams(PseudospecError):
    """Generator or CLI parameters outside their schema."""
