"""Exception types shared across the engine."""


class BilevelError(Exception):
    """Base class for every error this package raises deliberately."""


class LayoutMismatch(BilevelError):
    """Vectors with different segment layouts were combined."""


class NonFiniteValue(BilevelError):
    """A NaN or infinity appeared where a finite number is required."""


class MissingSegment(BilevelError):
    """A named segment required by an operation is absent from the layout."""


class LengthMismatch(BilevelError):
    """Paired sequences (tasks and parameter vectors) have different lengths."""


class InsufficientClasses(BilevelError):
    """The data source has fewer classes than the episode asks for."""


class InsufficientItemsPerClass(BilevelError):
    """A class cannot supply shot + query distinct items."""


class MixedDimensions(BilevelError):
    """Feature rows of differing width within one data source."""


class ParseError(BilevelError):
    """A data or parameter file failed to parse; message names file and line."""


class EmptyClass(BilevelError):
    """A class directory contains no examples."""


class TrajectoryNotRecorded(BilevelError):
    """A reverse-mode computation needs intermediate iterates that were not stored."""


class InsufficientIterates(BilevelError):
    """A truncated reverse pass asked for more recorded steps than exist."""


class IndefiniteCurvature(BilevelError):
    """The conjugate-gradient solver met a direction of non-positive curvature."""


class UnknownMethod(BilevelError):
    """Unrecognized named method; message lists the valid names."""


class ConfigError(BilevelError):
    """Invalid experiment configuration; message carries the field path."""
