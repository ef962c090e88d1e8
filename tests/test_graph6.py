import random

import pytest

from minrank_atlas.graph6 import (
    Graph6Error,
    check_graph6,
    decode_graph6,
    from_graph6,
    to_graph6,
)
from minrank_atlas.graphs import Graph

from oracles import graph6_by_integer, random_graph


def test_decode_k2():
    # 'A' = order 2; '_' = 95 -> bits 100000 -> pair (0,1) present
    g = from_graph6("A_")
    assert g.order == 2 and g.size() == 1


def test_decode_empty_five():
    # 'D' = order 5; two all-zero payload bytes
    g = from_graph6("D??")
    assert g.order == 5 and g.size() == 0


def test_encode_k1_and_k2():
    assert to_graph6(Graph(1, (0,))) == "@"
    assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"


def test_trailing_newline_accepted():
    assert from_graph6("A_\n") == from_graph6("A_")


def test_corpus_round_trip(data_dir):
    lines = (data_dir / "atlas.g6").read_text().splitlines()
    assert len(lines) == 1252
    # derive-forbidden writes to_graph6 output, so its file is pinned too
    lines += (data_dir / "forbidden_mr2.g6").read_text().splitlines()
    assert len(lines) == 1257
    for line in lines:
        assert to_graph6(from_graph6(line)) == line


def test_encoder_against_integer_packing():
    rng = random.Random(62)
    for n in list(range(1, 63)) + [rng.randint(1, 62) for _ in range(200)]:
        g = random_graph(rng, n, rng.random())
        assert to_graph6(g) == graph6_by_integer(g)


def test_random_round_trip():
    rng = random.Random(1729)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        assert from_graph6(to_graph6(g)) == g


def test_round_trip_at_orders_8_9_62():
    # 8 and 9 straddle Graph's 8-bit row field, and 62 is the largest
    # order with a one-byte size field; the oracle encoder is independent
    rng = random.Random(8962)
    for n in (8, 9, 62):
        for p in (0.0, 0.3, 1.0):
            g = random_graph(rng, n, p)
            assert from_graph6(graph6_by_integer(g)) == g
            assert from_graph6(to_graph6(g)) == g


def test_extended_size_field():
    # order 63 via '~' + three 6-bit groups; empty payload of 326 bytes
    npairs = 63 * 62 // 2
    payload = "?" * ((npairs + 5) // 6)
    g = from_graph6("~??~" + payload)
    assert g.order == 63 and g.size() == 0
    assert to_graph6(g) == "~??~" + payload
    # orders 63 and 64 round trip with edges; order 62 keeps its one size byte
    rng = random.Random(263)
    for n, size in ((62, "}"), (63, "~??~"), (64, "~?@?")):
        g = random_graph(rng, n, 0.3)
        text = to_graph6(g)
        assert text.startswith(size) and len(text) == len(size) + (n * (n - 1) // 2 + 5) // 6
        assert from_graph6(text) == g and check_graph6(text) == text.encode()


def test_eight_byte_size_field_is_refused():
    # '~~' alone opens an 8-byte size field: refused as such, at offset 0,
    # not reported as a truncated 4-byte one
    for text in ("~~", "~~????????"):
        with pytest.raises(Graph6Error) as exc:
            from_graph6(text)
        assert exc.value.offset == 0
        assert str(exc.value) == "8-byte size fields (n > 258047) are not supported (byte offset 0)"


@pytest.mark.parametrize(
    "text",
    [
        "",                 # empty
        "A",                # truncated payload
        "A__",              # trailing garbage
        "A_ ",              # out-of-range byte (space)
        "A\x7f",            # out-of-range byte (127)
        "?",                # order 0
        "~~????????",       # 8-byte size field unsupported
        "Aw",               # nonzero padding bits for order 2
    ],
)
def test_malformed_inputs(text):
    with pytest.raises(Graph6Error) as decoded:
        from_graph6(text)
    with pytest.raises(Graph6Error) as checked:
        check_graph6(text)
    assert str(checked.value) == str(decoded.value)
    assert checked.value.offset == decoded.value.offset


def test_error_carries_offset():
    for step in (from_graph6, check_graph6):
        with pytest.raises(Graph6Error) as exc:
            step("A_X")
        assert "offset" in str(exc.value)


@pytest.mark.parametrize("text, offset", [("Cé", 1), ("é", 0), ("D?\u200b", 2), ("A\uff3f", 1)])
def test_non_ascii_rejected_with_offset(text, offset):
    # a non-ASCII character must not be read as '?' (63), a valid all-zero group
    for step in (from_graph6, check_graph6):
        with pytest.raises(Graph6Error) as exc:
            step(text)
        assert exc.value.offset == offset
        assert "non-ASCII" in str(exc.value)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("A_ ", 2), ("A\x7f", 1), ("\x00A_", 0), ("A_X ", 3),  # range, then offset
        ("A", 1), ("C", 1), ("F~Xo", 4),                       # payload too short
        ("A__", 2), ("@?", 1),                                # trailing garbage
        ("Aw", 1), ("B`", 1), ("F~XoP", 4),                    # nonzero padding bit
        ("~", 1), ("~??", 3),                                 # truncated size field
        ("?", 0), ("~~????????", 0), ("~?A?", 0),              # order 0, 8 bytes, > 64
    ],
)
def test_check_reports_the_first_bad_byte(text, offset):
    with pytest.raises(Graph6Error) as exc:
        check_graph6(text)
    assert exc.value.offset == offset


def test_check_returns_the_line_without_its_ending():
    rng = random.Random(31)
    for n in range(1, 20):
        g = random_graph(rng, n)
        text = to_graph6(g)
        for ending in ("", "\n", "\r\n"):
            assert check_graph6(text + ending) == text.encode("ascii")
        assert decode_graph6(text.encode("ascii")) == g
