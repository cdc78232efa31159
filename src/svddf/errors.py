"""Exception types shared across the package."""


class SvddfError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SvddfError, ValueError):
    """A parameter is outside its admissible range."""


class DimensionError(SvddfError, ValueError):
    """Array shapes or sizes are incompatible with the operation."""


class DegenerateInputError(SvddfError, ValueError):
    """Input is degenerate for the requested quantity (e.g. zero norm)."""


class FormatError(SvddfError, ValueError):
    """A file does not conform to the expected format.

    The byte offset at which parsing failed is kept in ``offset`` when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DivergenceError(SvddfError, ArithmeticError):
    """The iteration, or the SSIM of its result, produced non-finite values."""

    partial_log = None  # a run sets its log so far, whose ``steps`` is the last step completed
