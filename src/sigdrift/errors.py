"""Exception types shared across the package."""


class SigdriftError(Exception):
    """Base class for errors raised by this package."""


class SettingError(SigdriftError, ValueError):
    """A setting, from a config file, a flag or a library call, is out of
    its domain or cannot run with the others."""


class ParseError(SigdriftError, ValueError):
    """A file or serialized payload does not match its format."""


class AlignmentError(SigdriftError, ValueError):
    """Series, windows, or grids that must line up do not."""


class ConstantSeriesError(SigdriftError, ValueError):
    """An operation is undefined on a zero-variance series."""


class ZeroVectorError(SigdriftError, ValueError):
    """An angle-based measure was asked about an all-zero vector."""
