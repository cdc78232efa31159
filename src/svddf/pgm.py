"""PGM (portable graymap) reading and writing.

Reads both the binary (P5) and ASCII (P2) variants with maxval up to
65535; binary 16-bit samples are big-endian as in the netpbm convention.
Intensities are scaled to [0, 1] on read.  Writing emits P5 with the exact
header ``P5\\n<W> <H>\\n<maxval>\\n``; intensities are clipped to [0, 1],
scaled back and rounded half to even.
"""

import itertools
import re

import numpy as np

from .errors import FormatError, ParameterError
from .grid import ImageGrid

# whitespace and '#' comments to the end of their line, then one token: a run of non-whitespace bytes
_TOKEN = re.compile(rb"(?:\s+|#[^\n]*\n)*(\S*)")


def _sample_type(maxval: int, error=ParameterError, **where) -> np.dtype:
    """Type of one binary sample: big-endian 16-bit above maxval 255, else one byte."""
    if not (0 < maxval <= 65535):
        raise error(f"maxval {maxval} outside (0, 65535]", **where)
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def _tokens(matches, names, number) -> tuple[list, int]:
    """``number`` of the next token for each name, and the offset after the last; only ``bytes`` takes any token."""
    values = []
    for name, m in zip(names, matches):
        tok = m[1]
        if not tok or tok[:1] == b"#":  # the end of the data, or a comment with no newline after it
            raise FormatError("unterminated comment" if tok else "unexpected end of header", offset=m.start(1))
        try:
            if not (number is bytes or tok.isdigit()):  # int() and float() also take signs and '_'
                raise ValueError(tok)
            values.append(number(tok))
        except ValueError:  # also raised by int() beyond its limit of digits
            raise FormatError(f"invalid {name} {tok!r}", offset=m.start(1)) from None
    return values, m.end()


def read_pgm(path) -> ImageGrid:
    """Read a P2 or P5 graymap and return intensities scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    matches = _TOKEN.finditer(data)
    (magic,), _ = _tokens(matches, ("magic",), bytes)
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file: magic {magic!r}", offset=0)
    (width, height, maxval), end = _tokens(matches, ("width", "height", "maxval"), int)
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=end)
    dtype = _sample_type(maxval, FormatError, offset=end)

    n = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        if not data[end : end + 1].isspace():
            raise FormatError("missing separator before binary payload", offset=end)
        found = len(data) - end - 1
        if found < n * dtype.itemsize:
            raise FormatError(f"truncated payload: expected {n * dtype.itemsize} bytes, found {found}",
                              offset=len(data))
        raw = np.frombuffer(data, dtype, count=n, offset=end + 1).astype(np.float64)
    else:
        # a sample too long for a float reads as inf, above every maxval
        samples, end = _tokens(matches, itertools.repeat("sample", n), float)
        raw = np.array(samples)
    if raw.max(initial=0.0) > maxval:
        raise FormatError(f"sample exceeds maxval {maxval}", offset=end)
    pixels = raw.reshape((height, width)) / float(maxval)
    # integer samples over a positive maxval: finite, and no one else holds the array
    return ImageGrid.of_finite(pixels, 1.0)


def write_pgm(grid: ImageGrid, path, maxval: int = 255) -> None:
    """Write a binary (P5) graymap; round-trip error is at most 1/(2*maxval)."""
    dtype = _sample_type(maxval)
    header = f"P5\n{grid.cols} {grid.rows}\n{maxval}\n".encode("ascii")
    payload = np.rint(np.clip(grid.pixels, 0.0, 1.0) * maxval).astype(dtype).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
