import numpy as np
import pytest

import svddf
from svddf import ImageGrid, read_pgm, write_pgm


def _write_16bit(samples, path):
    """A P5 file at maxval 65535 holding integer ``samples``, big-endian as netpbm has it."""
    rows, cols = samples.shape
    path.write_bytes(f"P5\n{cols} {rows}\n65535\n".encode("ascii") + samples.astype(">u2").tobytes())


def test_round_trip_within_quantization(tmp_path, rng):
    g = ImageGrid(rng.uniform(size=(13, 9)))
    write_pgm(g, tmp_path / "rt255.pgm")
    _write_16bit(np.rint(g.pixels * 65535), tmp_path / "rt65535.pgm")  # write_pgm writes 8 bits only
    for maxval in (255, 65535):
        back = read_pgm(tmp_path / f"rt{maxval}.pgm")
        assert back.shape == g.shape
        assert np.max(np.abs(back.pixels - g.pixels)) <= 0.5 / maxval + 1e-12


def test_header_bytes_exact(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(ImageGrid(np.zeros((3, 5))), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n5 3\n255\n")
    assert len(data) == len(b"P5\n5 3\n255\n") + 15


def test_ascii_1x1(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P2 1 1 255 128")
    g = read_pgm(path)
    assert g.shape == (1, 1)
    assert g.pixels[0, 0] == pytest.approx(128 / 255)


def test_ascii_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n# another\n10\n0 5\n10 10\n")
    g = read_pgm(path)
    assert np.array_equal(g.pixels, np.array([[0.0, 0.5], [1.0, 1.0]]))


def test_binary_16bit_big_endian(tmp_path):
    path = tmp_path / "w.pgm"
    payload = (1000).to_bytes(2, "big") + (0).to_bytes(2, "big")
    path.write_bytes(b"P5\n2 1\n1000\n" + payload)
    g = read_pgm(path)
    assert g.pixels.tolist() == [[1.0, 0.0]]


def test_corrupt_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(svddf.FormatError):
        read_pgm(path)


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(svddf.FormatError) as err:
        read_pgm(path)
    assert err.value.offset is not None


def test_values_rounded_half_to_even(tmp_path):
    # times 255 these pixels are exactly 0.5 and 1.5, which round to 0 and 2
    g = ImageGrid(np.array([[0.5 / 255, 1.5 / 255]]))
    assert (g.pixels * 255).tolist() == [[0.5, 1.5]]
    path = tmp_path / "r.pgm"
    write_pgm(g, path)
    raw = path.read_bytes()[-2:]
    assert list(raw) == [0, 2]


def test_write_clips_out_of_range(tmp_path):
    g = ImageGrid(np.array([[-0.25, 1.25]]))
    path = tmp_path / "clip.pgm"
    write_pgm(g, path)
    assert list(path.read_bytes()[-2:]) == [0, 255]


def _read_bytes(tmp_path, data: bytes):
    path = tmp_path / "in.pgm"
    path.write_bytes(data)
    return read_pgm(path)


def _format_error(tmp_path, data: bytes):
    with pytest.raises(svddf.FormatError) as err:
        _read_bytes(tmp_path, data)
    return err.value


class TestFormatErrors:
    """Message and byte offset of every way a file can fail to parse."""

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P7\n2 2\n255\n" + bytes(4), "not a PGM file: magic b'P7'", 0),
            (b"P6 2 1 255 ", "not a PGM file: magic b'P6'", 0),
            (b"", "unexpected end of header", 0),
            (b" \n\t", "unexpected end of header", 3),
            (b"P2 2 1", "unexpected end of header", 6),
            (b"P2 2 1 255 3\n", "truncated raster: expected 2 samples, found 1", 13),
            (b"P2 2 1 255\n", "truncated raster: expected 2 samples, found 0", 11),
            (b"P2\n3 2\n255\n1 2 3 4\n", "truncated raster: expected 6 samples, found 4", 19),
            (b"# no newline", "unterminated comment", 0),
            (b"P2 # no newline", "unterminated comment", 3),
            (b"P2 2 1 255 3 # tail", "unterminated comment", 13),
            (b"P2 0 1 255", "bad dimensions 0x1", 10),
            (b"P2 2 0 255 1", "bad dimensions 2x0", 10),
            (b"P2 2 1 0 1 1", "maxval 0 outside (0, 65535]", 8),
            (b"P2 2 1 65536 1 1", "maxval 65536 outside (0, 65535]", 12),
            (b"P5 2 1 255", "missing separator before binary payload", 10),
            (b"P5\n4 4\n255\n" + bytes(7), "truncated payload: expected 16 bytes, found 7", 18),
            (b"P5\n2 1\n1000\n" + bytes(3), "truncated payload: expected 4 bytes, found 3", 15),
            (b"P2 2 1 10 3 11", "sample exceeds maxval 10", 14),
            (b"P2 2 1 10 11 3 99", "sample exceeds maxval 10", 14),
            (b"P5 2 1 10\n\x03\x0b", "sample exceeds maxval 10", 9),
        ],
    )
    def test_message_and_offset(self, tmp_path, data, message, offset):
        err = _format_error(tmp_path, data)
        assert err.offset == offset
        assert str(err) == f"{message} (at byte offset {offset})"

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P2 x 1 255 3 1", "invalid width b'x'", 3),
            (b"P2 2 y 255 3 1", "invalid height b'y'", 5),
            (b"P5 2 1 255#c\n\x01\x02", "invalid maxval b'255#c'", 7),
            (b"P2 2 1 255 3 1e1", "invalid sample b'1e1'", 13),
            (b"P2 2 1 255 3\n\n0x1", "invalid sample b'0x1'", 14),
            (b"P2 2 1 255 \xd9\xa3 1", "invalid sample b'\\xd9\\xa3'", 11),
        ],
    )
    def test_invalid_token(self, tmp_path, data, message, offset):
        # the offset is the token's first byte, not the separator before it
        err = _format_error(tmp_path, data)
        assert err.offset == offset
        assert str(err) == f"{message} (at byte offset {offset})"


class TestExactPixels:
    """Files that parse, read to exactly these float64 pixels."""

    @staticmethod
    def _assert_pixels(grid, samples, maxval):
        expected = np.array(samples, dtype=np.float64) / float(maxval)
        assert grid.pixels.dtype == np.float64
        assert grid.pixels.flags.c_contiguous
        assert grid.shape == expected.shape
        assert grid.pixels.tobytes() == expected.tobytes()

    def test_ascii_with_comments_between_tokens(self, tmp_path):
        data = (
            b"#lead\nP2 # magic\n3\t#w\n2\v#h\n# own line\n10\f#m\n"
            b"0 # first sample\n5 10\r\n# raster line\n7\n3 #\n1\n"
        )
        g = _read_bytes(tmp_path, data)
        self._assert_pixels(g, [[0, 5, 10], [7, 3, 1]], 10)

    def test_ascii_leading_zeros_and_trailing_tokens(self, tmp_path):
        g = _read_bytes(tmp_path, b"P2 2 1 0255 007 010 trailing tokens")
        self._assert_pixels(g, [[7, 10]], 255)

    def test_binary_8bit(self, tmp_path):
        samples = [[0, 1, 128], [255, 7, 200]]
        g = _read_bytes(tmp_path, b"P5\n3 2\n255\n" + bytes(sum(samples, [])))
        self._assert_pixels(g, samples, 255)

    def test_binary_8bit_below_255(self, tmp_path):
        g = _read_bytes(tmp_path, b"P5 2 2 200\t" + bytes([0, 200, 100, 3]))
        self._assert_pixels(g, [[0, 200], [100, 3]], 200)

    def test_binary_16bit(self, tmp_path):
        samples = [[0, 1, 256], [65535, 1000, 4097]]
        payload = b"".join(s.to_bytes(2, "big") for s in sum(samples, []))
        g = _read_bytes(tmp_path, b"P5\n3 2\n65535\n" + payload)
        self._assert_pixels(g, samples, 65535)

    def test_binary_with_trailing_bytes(self, tmp_path):
        g = _read_bytes(tmp_path, b"P5\n2 1\n255 \x01\x02trailing bytes\n")
        self._assert_pixels(g, [[1, 2]], 255)

    def test_binary_separator_is_one_byte(self, tmp_path):
        # the second newline is the first sample (10), not more header whitespace
        g = _read_bytes(tmp_path, b"P5 2 1 255\n\n\x20")
        self._assert_pixels(g, [[10, 32]], 255)

    def test_written_file_reads_back_exactly(self, tmp_path, rng):
        samples = rng.integers(0, 256, size=(5, 4))
        path = tmp_path / "w.pgm"
        write_pgm(ImageGrid(samples / 255.0), path)
        self._assert_pixels(read_pgm(path), samples, 255)


class TestUnsignedDecimalOnly:
    """Tokens Python's int() would take but PGM's ASCII decimal does not."""

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P2 2 1 255 -5 7", "invalid sample b'-5'", 11),
            (b"P2 2 1 255 1_0 7", "invalid sample b'1_0'", 11),
            (b"P2 2 1 +255 1 7", "invalid maxval b'+255'", 7),
            (b"P2 2 -1 255 1 1", "invalid height b'-1'", 5),
        ],
    )
    def test_rejected_at_the_token(self, tmp_path, data, message, offset):
        err = _format_error(tmp_path, data)
        assert err.offset == offset
        assert str(err) == f"{message} (at byte offset {offset})"

    def test_denoise_exits_2_and_writes_nothing(self, tmp_path, capsys):
        from svddf.cli import main

        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P2 3 3 255 " + b" ".join([b"9"] * 4 + [b"-5"] + [b"9"] * 4))
        out = tmp_path / "out"
        assert main(["denoise", str(path), "--out", str(out)]) == 2
        assert "error: invalid sample b'-5' (at byte offset 19)" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_beyond_float_range_exceeds_maxval(self, tmp_path):
        # 400 digits overflow a float: the sample still reads as above maxval
        err = _format_error(tmp_path, b"P2 2 1 255 7 " + b"9" * 400)
        assert str(err) == "sample exceeds maxval 255 (at byte offset 413)"

    def test_token_beyond_int_digit_limit_is_invalid(self, tmp_path):
        # int() refuses more than 4300 digits by default; that width is an invalid token, not a ValueError
        err = _format_error(tmp_path, b"P2 " + b"1" * 5000 + b" 1 255 7")
        assert str(err).startswith("invalid width b'1111")
        assert err.offset == 3
