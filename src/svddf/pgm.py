"""PGM (portable graymap) reading and writing.

Reads both the binary (P5) and ASCII (P2) variants with maxval up to
65535; binary 16-bit samples are big-endian as in the netpbm convention.
Intensities are scaled to [0, 1] on read.  Writing emits P5 with the exact
header ``P5\\n<W> <H>\\n<maxval>\\n``; intensities are clipped to [0, 1],
scaled back and rounded half to even.
"""

import numpy as np

from .errors import FormatError, ParameterError
from .grid import ImageGrid

_WHITESPACE = b" \t\r\n\v\f"


class _Scanner:
    """Token scanner for PGM headers; skips whitespace and # comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        while self.pos < len(self.data):
            b = self.data[self.pos : self.pos + 1]
            if b in (b"#",):
                nl = self.data.find(b"\n", self.pos)
                if nl < 0:
                    raise FormatError("unterminated comment", offset=self.pos)
                self.pos = nl + 1
            elif b in _WHITESPACE and b:
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _WHITESPACE:
            self.pos += 1
        if self.pos == start:
            raise FormatError("unexpected end of header", offset=start)
        return self.data[start : self.pos]

    def int_token(self, what: str) -> int:
        start = self.pos
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"invalid {what} {tok!r}", offset=start) from None


def read_pgm(path) -> ImageGrid:
    """Read a P2 or P5 graymap and return intensities scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    sc = _Scanner(data)
    magic = sc.token()
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file: magic {magic!r}", offset=0)
    width = sc.int_token("width")
    height = sc.int_token("height")
    maxval = sc.int_token("maxval")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=sc.pos)
    if not (0 < maxval <= 65535):
        raise FormatError(f"maxval {maxval} outside (0, 65535]", offset=sc.pos)

    n = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in _WHITESPACE:
            raise FormatError("missing separator before binary payload", offset=sc.pos)
        payload = data[sc.pos + 1 :]
        itemsize = 2 if maxval > 255 else 1
        if len(payload) < n * itemsize:
            raise FormatError(
                f"truncated payload: expected {n * itemsize} bytes, found {len(payload)}",
                offset=sc.pos + 1 + len(payload),
            )
        dtype = ">u2" if itemsize == 2 else np.uint8
        raw = np.frombuffer(payload[: n * itemsize], dtype=dtype).astype(np.float64)
    else:
        raw = np.empty(n, dtype=np.float64)
        for i in range(n):
            raw[i] = sc.int_token("sample")
    if raw.max(initial=0.0) > maxval:
        raise FormatError(f"sample exceeds maxval {maxval}", offset=sc.pos)
    pixels = raw.reshape((height, width)) / float(maxval)
    # integer samples over a positive maxval: finite, and no one else holds the array
    return ImageGrid.of_finite(pixels, 1.0)


def write_pgm(grid: ImageGrid, path, maxval: int = 255) -> None:
    """Write a binary (P5) graymap; round-trip error is at most 1/(2*maxval)."""
    if not (0 < maxval <= 65535):
        raise ParameterError(f"maxval {maxval} outside (0, 65535]")
    header = f"P5\n{grid.cols} {grid.rows}\n{maxval}\n".encode("ascii")
    scaled = np.rint(np.clip(grid.pixels, 0.0, 1.0) * maxval)
    dtype = ">u2" if maxval > 255 else np.uint8
    payload = scaled.astype(dtype).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
