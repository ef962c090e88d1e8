"""Codec for the graph6 ASCII format (headerless, one graph per line).

Layout: a size field (byte n+63 for n <= 62, or '~' followed by three
bytes carrying 18 bits for larger n), then ceil(n(n-1)/2 / 6) payload
bytes of 63 + 6 bits each.  Payload bits walk the upper triangle in
column-major pair order (0,1), (0,2), (1,2), (0,3), ... with zero
padding to a byte boundary.

Decoding is two steps: check_graph6 makes every validity check and
builds nothing, decode_graph6 turns a checked line into a Graph by
walking the set bits of each payload byte.  The atlas reader checks
every line of its file but decodes only the lines a command uses.

This module owns the shape rule (_payload_shape: the payload length and
the padding mask of the last byte for each order) and the byte range
(GRAPH6_BYTES); check_graph6 applies both, and ONE_BYTE_SHAPES tabulates
the rule for one-byte size fields, so that the atlas reader clears a
common line with a lookup and leaves the rest to check_graph6.

It also owns the rules of every data file: read_lines is the one place
a data file is opened, text the one decode of what it read, and
ParsedTokens the one memo that parses each distinct token once.
"""

from __future__ import annotations

import functools

from minrank_atlas.graphs import MAX_ORDER, Graph


# the bytes of a graph6 line: every size and payload byte is in 63..126
GRAPH6_BYTES = bytes(range(63, 127))


def read_lines(path) -> list[bytes]:
    r"""The lines of a data file, without their ends.  Text mode ends a
    line at \n, \r\n or \r; surrogateescape keeps a non-ASCII byte, for
    the reader's own check to reject with its line.  As bytes, strip(),
    split() and isdigit() know only ASCII whitespace and digits."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        return fh.read().encode("ascii", "surrogateescape").split(b"\n")


def text(data: bytes) -> str:
    """A line or token of a data file as read, for parsing and messages."""
    return data.decode("ascii", "surrogateescape")


class ParsedTokens(dict):
    """Each token's value, parsed on its first lookup (__missing__).  A
    token that fails is never stored, so it fails again the same way."""

    __slots__ = ("parse",)

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, token):
        value = self[token] = self.parse(token)
        return value


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the 0-based byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def from_graph6(text: str) -> Graph:
    """Decode one headerless graph6 line (optional trailing newline)."""
    return decode_graph6(check_graph6(text))


def check_graph6(text: str) -> bytes:
    """Validate one headerless graph6 line (optional trailing newline) and
    return its bytes without the line ending, ready for decode_graph6."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {text[exc.start]!r}", exc.start) from None
    if data.endswith(b"\n"):
        data = data[:-1]
    if data.endswith(b"\r"):
        data = data[:-1]
    if not data:
        raise Graph6Error("empty graph6 string")
    if data.translate(None, GRAPH6_BYTES):  # the loop only finds the offset
        for off, b in enumerate(data):
            if not 63 <= b <= 126:
                raise Graph6Error(f"byte {b!r} outside graph6 range 63..126", off)

    if data[0] == 126:  # extended size field
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte size fields (n > 258047) are not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated extended size field", len(data))
    n, body_at = _size_field(data)
    if n < 1:
        raise Graph6Error("graphs of order 0 are not supported", 0)
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the supported maximum {MAX_ORDER}", 0)

    nbytes, padding = _payload_shape(n)
    if len(data) - body_at < nbytes:
        raise Graph6Error(
            f"payload too short: need {nbytes} bytes for order {n}", len(data)
        )
    if len(data) - body_at > nbytes:
        raise Graph6Error("trailing garbage after payload", body_at + nbytes)
    if (data[-1] - 63) & padding:
        raise Graph6Error("nonzero padding bit", len(data) - 1)
    return data


def _payload_shape(n: int) -> tuple[int, int]:
    """The shape rule of order n: the number of payload bytes, and the
    mask of the padding bits, all of them in the last byte's 6-bit value
    (0 when there is no payload)."""
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    return nbytes, (1 << (nbytes * 6 - npairs)) - 1


# The shape rule for a one-byte size field (orders 1..62), by size byte:
# the exact line length and the padding mask of the last byte.  A line
# of bytes in 63..126 whose size byte is a key here, with that length and
# no padding bit set, is a line check_graph6 accepts unchanged.
ONE_BYTE_SHAPES = {
    n + 63: (1 + nbytes, padding)
    for n in range(1, 63)
    for nbytes, padding in [_payload_shape(n)]
}


def decode_graph6(data: bytes) -> Graph:
    """Decode a line that check_graph6 accepted."""
    n, body_at = _size_field(data)
    pairs = _pairs(n)
    rows = [0] * n
    # the byte at pair first carries pairs first..first+5, the first in
    # its high bit; padding bits are zero, so a set bit names a pair
    for first, b in zip(range(0, len(pairs), 6), data[body_at:]):
        bits = b - 63
        while bits:
            top = bits.bit_length()
            i, j = pairs[first + 6 - top]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            bits ^= 1 << (top - 1)
    return Graph(n, tuple(rows))


def _size_field(data: bytes) -> tuple[int, int]:
    """Order and payload offset of a line whose size field is complete."""
    if data[0] == 126:
        return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    return data[0] - 63, 1


def to_graph6(g: Graph) -> str:
    """Minimal-length headerless encoding: a one-byte size field up to
    order 62, and '~' with three bytes of 6 bits each above."""
    n = g.order
    size = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    payload = "".join(["1" if (g.adj[i] >> j) & 1 else "0" for i, j in _pairs(n)])
    payload += "0" * (-len(payload) % 6)
    groups = [chr(int(payload[k : k + 6], 2) + 63) for k in range(0, len(payload), 6)]
    return size + "".join(groups)


@functools.cache  # one entry per order, and orders stop at MAX_ORDER
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The upper-triangle pairs of order n in payload bit order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))
