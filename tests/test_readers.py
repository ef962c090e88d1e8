"""The atlas, reference-table and certificate readers against their
plainest references in oracles, on seeded corruptions of the bundled
files; the work each does on the bundled files, counted rather than
timed; and the whitespace rule of every data reader."""

import random
import re
from collections import Counter
from pathlib import Path

import pytest

from minrank_atlas import catalog, cli, witness
from minrank_atlas.catalog import FIXTURE_COLUMNS, load_fixtures, read_atlas
from minrank_atlas.witness import parse_witness_file

from oracles import load_fixtures_by_row, parse_witness_file_by_token, read_atlas_by_line

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    """The commands' default data paths are repo-relative."""
    monkeypatch.chdir(REPO)


# what the corruptions insert: line ends, ASCII whitespace, the control
# bytes that only str strip() and split() take for whitespace, non-ASCII
# bytes, and the characters of each file's grammar
INSERTS = (
    b"\n", b"\n", b"\r", b"\r\n", b" ", b"\t", b"\v", b"\f", b"\x00", b"\x1c", b"\x1f",
    b"\xc3\xa9", b"\xff", b"~", b"?", b"@", b"_", b"#", b"/", b"-", b"+", b"0", b"1", b"7",
    b"T", b"F", b"atlas", b"n",
)
# '~' lines: order 63 (valid, empty), a truncated size field, order 65
TILDE_LINES = (b"~??~" + b"?" * 326, b"~??", b"~?A?")
# the control bytes that the references take for whitespace and the readers do not
STR_ONLY_SPACE = re.compile(rb"[\x1c-\x1f]")


def _corrupt(rng: random.Random, data: bytes, extra) -> bytes:
    """data with one to three seeded faults: a byte replaced or bit
    flipped, a byte inserted or deleted, \\r\\n line ends, a blank line, a
    line repeated, or one of the file's own faults from extra."""
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        i = rng.randrange(len(data) + 1)
        kind = rng.randrange(9)
        if kind == 0 and i < len(data):
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
        elif kind == 1 and i < len(data):
            data = data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
        elif kind == 2:
            data = data[:i] + rng.choice(INSERTS) + data[i:]
        elif kind == 3:
            data = data[:i] + data[i + 1:]
        elif kind == 4:
            data = data.replace(b"\n", b"\r\n")
        elif kind == 5:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice((b"", b"  ", b"\t")))
            data = b"\n".join(lines)
        elif kind == 6:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            data = b"\n".join(lines)
        else:
            data = extra(rng, lines)
    return data


def _atlas_fault(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(TILDE_LINES))
    return b"\n".join(lines)


def _fixture_fault(rng, lines):
    # a row-rule fault: order, size, mr, lb or ub set to a small number
    i = rng.randrange(1, len(lines))
    cells = lines[i].split(b"\t")
    if len(cells) == len(FIXTURE_COLUMNS):
        cells[rng.choice((1, 2, 3, 5, 6))] = str(rng.randrange(12)).encode()
        lines[i] = b"\t".join(cells)
    return b"\n".join(lines)


def _witness_fault(rng, lines):
    # a block repeated, or its 'n' line off by one
    i = rng.randrange(len(lines))
    if lines[i].startswith(b"atlas") and rng.randrange(2):
        return b"\n".join(lines + [b""] + lines[i:i + 9])
    if re.fullmatch(rb"n [0-9]+", lines[i]):
        lines[i] = b"n %d" % (int(lines[i][2:]) + rng.choice((-1, 1)))
    return b"\n".join(lines)


def _outcome(read, path, *args):
    try:
        return read(path, *args)
    except ValueError as exc:
        return str(exc)


def _agree(path: Path, new, old) -> bool:
    """Equal results or messages, or else the one rule that differs: the
    reader stops at a line that holds a byte in \\x1c-\\x1f."""
    if new == old:
        return True
    m = isinstance(new, str) and re.match(re.escape(str(path)) + r":(\d+): ", new)
    lines = re.split(rb"\r\n|\r|\n", path.read_bytes())
    return bool(m) and STR_ONLY_SPACE.search((lines + [b""])[int(m.group(1)) - 1]) is not None


def _variants(tmp_path, name, text: bytes, head: int, block: int, extra, count, seed):
    """count corrupted copies of seeded windows of text: its first head
    lines, then 1 to 40 lines' worth of blocks of block lines each; every
    25th copy corrupts the whole file instead."""
    rng = random.Random(seed)
    lines = text.split(b"\n")
    path = tmp_path / name
    for k in range(count):
        if k % 25:
            start = head + block * rng.randrange((len(lines) - head) // block)
            window = lines[:head] + lines[start:start + block * rng.randint(1, max(1, 40 // block))]
            data = b"\n".join(window) + b"\n"
        else:
            data = text
        path.write_bytes(_corrupt(rng, data, extra))
        yield path


def test_read_atlas_agrees_with_the_line_by_line_reader(tmp_path):
    text = (REPO / "data" / "atlas.g6").read_bytes()
    outcomes = Counter()
    for path in _variants(tmp_path, "a.g6", text, 0, 1, _atlas_fault, 1200, 2101):
        new, old = _outcome(read_atlas, path), _outcome(read_atlas_by_line, path)
        assert _agree(path, new, old), (path.read_bytes(), new, old)
        outcomes[isinstance(new, list)] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100  # clean and faulty copies


def test_load_fixtures_agrees_with_the_row_by_row_reader(tmp_path):
    text = (REPO / "data" / "table1.tsv").read_bytes()
    outcomes = Counter()
    for path in _variants(tmp_path, "t.tsv", text, 1, 1, _fixture_fault, 1000, 2102):
        new, old = _outcome(load_fixtures, path), _outcome(load_fixtures_by_row, path)
        assert _agree(path, new, old), (path.read_bytes(), new, old)
        outcomes[isinstance(new, list)] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


def test_parse_witness_file_agrees_with_the_token_by_token_reader(tmp_path):
    text = (REPO / "data" / "witnesses.txt").read_bytes()
    assert text.split(b"\n")[4:6] == [b"atlas 721", b"n 7"]  # 4 comment lines, 10-line blocks
    outcomes = Counter()
    for path in _variants(tmp_path, "w.txt", text, 4, 10, _witness_fault, 1000, 2103):
        new = _outcome(parse_witness_file, path)
        old = _outcome(parse_witness_file_by_token, path)
        assert _agree(path, new, old), (path.read_bytes(), new, old)
        outcomes[isinstance(new, list)] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


# The mechanism, pinned by counts.


def test_read_atlas_checks_only_the_lines_the_shape_table_cannot_clear(tmp_path, monkeypatch):
    calls = []
    real = catalog.check_graph6
    monkeypatch.setattr(catalog, "check_graph6", lambda text: calls.append(text) or real(text))
    text = (REPO / "data" / "atlas.g6").read_bytes()
    lines = read_atlas(REPO / "data" / "atlas.g6")
    assert (len(lines), calls) == (1252, [])
    # text mode ends a line at \r\n, so the table clears it too
    path = tmp_path / "crlf.g6"
    path.write_bytes(text.replace(b"\nF~XoO\n", b"\nF~XoO\r\n"))  # line 900
    assert read_atlas(path) == lines and calls == []
    path.write_bytes(text + TILDE_LINES[0] + b"\n")  # order 63: a '~' size field
    assert read_atlas(path) == lines + [TILDE_LINES[0]]
    assert calls == [TILDE_LINES[0].decode()]


def test_verify_witnesses_parses_each_distinct_token_once(capsys, monkeypatch):
    calls = []
    real = witness.parse_rational
    monkeypatch.setattr(witness, "parse_rational", lambda text: calls.append(text) or real(text))
    assert cli.main(["verify-witnesses"]) == 0
    rows = [line for line in (REPO / "data" / "witnesses.txt").read_text().splitlines()
            if line and line[0] not in "#an"]
    tokens = [t for row in rows for t in row.split()]
    assert (len(tokens), len(calls)) == (35 * 49, 19)
    assert sorted(calls) == sorted(set(tokens))


def test_load_fixtures_parses_each_distinct_token_once_per_column(monkeypatch):
    calls = []

    def counted(col, cell):
        return lambda token: calls.append((col, token)) or cell(token)

    monkeypatch.setattr(catalog, "_CELLS", tuple(counted(c, f) for c, f in enumerate(catalog._CELLS)))
    assert len(load_fixtures(REPO / "data" / "table1.tsv")) == 1162
    rows = [line.split("\t") for line in (REPO / "data" / "table1.tsv").read_text().splitlines()[1:]]
    distinct = {(c, token) for row in rows for c, token in enumerate(row)}
    assert Counter(calls) == Counter(distinct)


# Only ASCII whitespace is whitespace in any data file: \x1c-\x1f, which
# str strip() and split() also strip and split on, are bytes like any other.


def test_atlas_control_byte_lines_are_no_blank_lines(capsys, tmp_path):
    path = tmp_path / "atlas.g6"
    path.write_bytes((REPO / "data" / "atlas.g6").read_bytes() + b"\x1c\n\x1f\n")
    code, out, err = cli.main(["bounds", "--atlas", "1", "--atlas-file", str(path)]), *capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {path}:1253: byte 28 outside graph6 range 63..126 (byte offset 0)\n"


def test_fixture_control_byte_line_is_a_row(tmp_path):
    path = tmp_path / "t.tsv"
    lines = (REPO / "data" / "table1.tsv").read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["\x1c"] + lines[3:]) + "\n")
    with pytest.raises(ValueError) as info:
        load_fixtures(path)
    assert str(info.value) == f"{path}:4: expected 17 fields, got 1"


def test_certificate_tokens_split_only_on_ascii_whitespace(tmp_path):
    path = tmp_path / "w.txt"
    text = (REPO / "data" / "witnesses.txt").read_text()
    assert text.splitlines()[6] == "-1 1 0 0 1 0 1"
    path.write_text(text.replace("-1 1 0 0 1 0 1\n", "-1 1 0 0 1 0\x1c1\n", 1))
    with pytest.raises(ValueError) as info:
        parse_witness_file(path)
    assert str(info.value) == f"{path}:7: expected 7 entries per row, got 6"


def test_forbidden_list_control_bytes_are_no_whitespace(capsys, tmp_path):
    path = tmp_path / "fl.g6"
    for text, line, byte, offset in (("Cr\n\x1c\n", 2, 28, 0), ("Cr\x1f\n", 1, 31, 2)):
        path.write_text(text)
        code = cli.main(["bounds", "--atlas", "5", "--forbidden", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:{line}: byte {byte} outside graph6 range 63..126 "
                       f"(byte offset {offset})\n")
