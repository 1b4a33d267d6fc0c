"""Exception types shared across the package."""


class AdicError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleAlphabets(AdicError):
    pass


class HorizonExceeded(AdicError):
    pass


class NotReduced(AdicError):
    pass


class MalformedWord(AdicError):
    pass


class InsufficientPrefix(AdicError):
    pass


class AbelianizationMismatch(AdicError):
    pass


class NotNested(AdicError):
    pass


class ShapeMismatch(AdicError):
    pass


class DepthExceeded(AdicError):
    pass


class NonPositiveEntry(AdicError):
    pass


class NotInBase(AdicError):
    pass


class UndeterminedTail(AdicError):
    pass


class NotPrimitive(AdicError):
    pass


class EmptyCone(AdicError):
    pass


class NoFiniteBaseMeasure(AdicError):
    pass


class NotEigenvector(AdicError):
    pass


class InternalError(AdicError):
    """An internal consistency check failed: a defect in this package, not
    in the input."""
