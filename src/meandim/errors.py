"""Exception types shared across the package."""


class MeanDimError(Exception):
    """Base class for all package errors."""


class EmptySubshift(MeanDimError):
    """The described subshift contains no points."""


class ResourceLimit(MeanDimError):
    """An enumeration or state space would exceed the configured budget."""


class DomainError(MeanDimError):
    """An argument is outside the documented domain of an operation."""


class DegenerateScale(MeanDimError):
    """The requested scale is too close to the truncation error of a cloud."""


class ParameterOverflow(MeanDimError):
    """A derived parameter or value passes the range of double precision."""
