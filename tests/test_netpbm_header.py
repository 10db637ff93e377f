"""The P5/P6 header regex against the byte tokenizer it replaced.

Valid headers are damaged by a few edits drawn mostly from the bytes a
header is made of: whitespace, '#', newlines and digits, with a few others.
Both parsers must accept or refuse each result alike, and on acceptance
give the same width, height and payload offset.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from purefoodnet import dataio as D
from purefoodnet.errors import DataFormatError


def tokenizer_oracle(blob: bytes, magic: bytes, path) -> tuple:
    """The byte-by-byte header tokenizer `_parse_netpbm_header` replaced."""
    if not blob.startswith(magic):
        raise DataFormatError(f"{path}: not a {magic.decode()} file")
    if not blob[len(magic):len(magic) + 1].isspace():
        raise DataFormatError(f"{path}: no whitespace after {magic.decode()}")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise DataFormatError(f"{path}: truncated header")
        ch = blob[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            pos = blob.find(b"\n", pos)
            if pos < 0:
                raise DataFormatError(f"{path}: truncated header comment")
        elif ch.isdigit():
            end = pos
            while end < len(blob) and blob[end:end + 1].isdigit():
                end += 1
            try:
                fields.append(int(blob[pos:end]))
            except ValueError:
                raise DataFormatError(f"{path}: header number too long") from None
            pos = end
        else:
            raise DataFormatError(f"{path}: bad header byte {ch!r}")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise DataFormatError(f"{path}: missing whitespace after header")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataFormatError(f"{path}: unsupported maxval {maxval} (need 255)")
    return width, height, pos + 1


VALID = (b"P6\n2 1\n255\n" + bytes(range(6)),
         b"P6 12 1 255\n" + bytes(range(48, 84)),
         b"P6\n# a comment\n3#glued\n 1 #\n255\t9 9\n\x00",
         b"P5\n# two rows\n2 2\t255\r\x00\x80\xfe\xff",
         b"P5 1 1 255\n\x07",
         b"P5\x0b\x0c7\r\n1\n\n255 1234567")

# Bytes a header is made of, and a few it is not.
PIECES = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"# c\n",
                          b"0", b"1", b"2", b"5", b"9", b"255", b"00", b"x", b"-", b"+",
                          b"\x00", b"\xff", b"\x85", b"\xa0", b"P", b"6"])
EDIT = st.tuples(st.integers(0, 64), st.integers(0, 4),
                 st.lists(PIECES, max_size=6).map(b"".join))


def edited(blob: bytes, edits) -> bytes:
    """Replace blob[at:at + width] by data for each (at, width, data), with
    the position wrapped into the bytes after the magic."""
    for at, width, data in edits:
        at = 2 + at % (len(blob) - 1)
        blob = blob[:at] + data + blob[at + width:]
    return blob


def parse(parser, blob, magic):
    try:
        return parser(blob, magic, "x")
    except DataFormatError:
        return None


@settings(derandomize=True, deadline=None, database=None, max_examples=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, len(VALID) - 1), st.lists(EDIT, min_size=1, max_size=4))
@example(1, [(0, 1, b"")])  # the magic glued to the width
@example(1, [(1, 2, b"1" * 5000)])  # a width of more digits than int() converts
@example(0, [(1, 1, b"1" * 5000 + b"x")])  # ... followed by a bad byte
@example(2, [(0, 0, b"")])  # unchanged
def test_regex_agrees_with_tokenizer(valid, edits):
    blob = edited(VALID[valid], edits)
    magic = VALID[valid][:2]
    assert parse(D._parse_netpbm_header, blob, magic) == parse(tokenizer_oracle, blob, magic)


@pytest.mark.parametrize("blob, message", [
    (b"P5\n1 1\n255\n", "not a P6 file"),
    (b"P612 1 255\n", "no whitespace after P6"),
    (b"P6\n" + b"1" * 5000 + b" 1\n255\n", "header number too long"),
    (b"P6\n0 1\n255\n", "bad dimensions 0x1"),
    (b"P6\n1 1\n65535\n", "unsupported maxval 65535"),
    # The tokenizer's four other faults share one message.
    (b"P6\n1 1", "malformed P6 header"),  # truncated
    (b"P6\n1 1 #255", "malformed P6 header"),  # the comment never ends
    (b"P6\n1 x\n255\n", "malformed P6 header"),  # a byte no header holds
    (b"P6\n1 1\n255", "malformed P6 header"),  # no whitespace after maxval
    (b"P6\n1 1\n255#\n", "malformed P6 header"),
])
def test_messages(blob, message):
    with pytest.raises(DataFormatError, match=message):
        D._parse_netpbm_header(blob, b"P6", "x")
