"""Exception types shared across the package."""


class QdqError(Exception):
    """Base class for all library errors."""


class InputError(QdqError, ValueError):
    """Input the caller supplied is malformed or names no valid object."""


class FieldMismatchError(QdqError):
    """Operands carry different root orders; caller mixed scalar fields."""


class ZeroInverseError(QdqError, ZeroDivisionError):
    """Inversion of the zero rational function."""


class NonRepresentableExponentError(QdqError):
    """q^r requested with r*M not an integer; the root order was computed wrongly."""


class SingularMatrixError(QdqError):
    """Exact rank deficiency during inversion."""


class SubmatrixSingularError(SingularMatrixError):
    """The punctured submatrix needed by a quasideterminant is singular.

    Carries the puncture position so callers can tell which quasiminor
    is undefined.
    """

    def __init__(self, i, j, message=None):
        self.i = i
        self.j = j
        super().__init__(message or f"submatrix for puncture ({i},{j}) is singular")


class WrongWedgeDimensionError(QdqError):
    """The joint antisymmetric kernel is not 1-dimensional."""

    def __init__(self, dim, message=None):
        self.dim = dim
        super().__init__(message or f"top wedge space has dimension {dim}, expected 1")


class BetaNotInH0Error(InputError):
    """The antisymmetric Cartan extension is not supported on h0 x h0."""


class OrderReversingError(InputError):
    """The diagram bijection reverses orientation on a connected block."""


class InvalidTripleError(InputError):
    """The (gamma1, gamma2, tau) datum violates a structural requirement."""


class NoSolutionError(QdqError):
    """The Cartan correction system is inconsistent (indicates a bug, not data)."""
