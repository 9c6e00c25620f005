"""Exception types shared across the package.

Out-of-range element and linear indices raise the builtin ``IndexError``;
I/O failures surface as the builtin ``OSError``.  Everything else uses the
hierarchy below so callers can catch ``TensorError`` as a single umbrella.
"""


class TensorError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TensorError):
    """Invalid shape, or a size/divisibility mismatch between values."""


class DimError(TensorError):
    """A 1-indexed dimension number is out of range, or ranks disagree."""


class BlockError(TensorError):
    """An outer grid extent that does not divide the extent it partitions."""


class FormatError(TensorError):
    """A tensor file cannot be parsed."""


class VerificationError(TensorError):
    """An internal cross-check failed; reported with exit status 2 by the CLI."""
