"""Data ingestion (atlas corpus, transcribed reference table), the
full-table pipeline, and the computed-vs-reference diff.

compute_all combines each isomorphism class once, in one pass in
corpus order, and hands combine the rows it already holds (piece_row;
combine's docstring gives the reductions that read them).  An atlas in
order of size computes every such piece first.

Atlas file contract: one graph6 string per line, and line k is atlas
graph k.  Blank lines may follow the last graph but not precede it: a
blank line earlier would make line numbers and positions disagree, so
it is an error that names path:line.  Every line is validated on every
read (read_atlas); a command decodes only the lines it uses, and
load_atlas decodes them all.  Either way item k - 1 of the returned
list is atlas graph k, and every consumer numbers from that position.
check_atlas_number is the one atlas-number range rule; every command
applies it to each atlas number it reads before using it.

read_atlas reads the file once and still validates every line on every
read: graph6's shape table for a one-byte size field clears a line of
the common form, and only a line it cannot clear (a '~' size field, a
blank line or a fault) goes to check_graph6, which stays the one source
of messages and offsets.

Reference-table TSV columns:
  atlas order size mr mr_by_hand lb ub con zfs_lb diam_lb cc_ub
  np_ub nop_ub path_ub is cv tree
Blank cells are empty fields, never 0 (zero is a legitimate bound).
A row keeps bounds.check_connected_only, and a disconnected row has
tree F.  load_fixtures checks each row before it reads the next, and
parses each distinct token of a column once (graph6.ParsedTokens).

Both files are read through graph6.read_lines, so in them only ASCII
whitespace is whitespace; any other control byte is an ordinary byte.

Diff relations (the acceptance contract):
  - con and lb: equality on every row
  - zfs/diam/cc/np/nop/path/is/cv/tree: equality on connected rows,
    presence included
  - ub: computed >= reference (the reference program had one extra
    reduction for cut vertices that this pipeline does not implement)
  - bracket: computed lb <= reference mr <= computed ub
  - mr_exact, when set: equals reference mr; tree rows must be exact
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from operator import attrgetter

from minrank_atlas.bounds import AtlasIndex, BoundsRow, ForbiddenList, check_connected_only, combine
from minrank_atlas.graph6 import (
    GRAPH6_BYTES, ONE_BYTE_SHAPES, ParsedTokens, check_graph6, decode_graph6, read_lines, text,
)
from minrank_atlas.graphs import Graph

# the bound columns end both headers; diff holds them equal on connected rows
_BOUND_COLUMNS = ("zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub", "is", "cv", "tree")
FIXTURE_COLUMNS = ("atlas", "order", "size", "mr", "mr_by_hand", "lb", "ub", "con", *_BOUND_COLUMNS)
TABLE_COLUMNS = ("atlas", "order", "size", "lb", "ub", "mr_exact", "con", *_BOUND_COLUMNS)

# Column name -> row field where they differ: FixtureRow holds atlas as
# atlas_number, and "is" is a Python keyword, so FixtureRow and BoundsRow
# hold that column as is_flag.
_FIELD = {"atlas": "atlas_number", "is": "is_flag"}
_COLUMN = {fld: col for col, fld in _FIELD.items()}


class FixtureRow(namedtuple("FixtureRow", [_FIELD.get(col, col) for col in FIXTURE_COLUMNS])):
    """One transcribed reference row; None marks a blank cell."""

    __slots__ = ()


class Mismatch(namedtuple("Mismatch", ("atlas_number", "column", "expected", "computed"))):
    """One diff finding: the reference value of a column against the computed one."""

    __slots__ = ()


class DiffReport(namedtuple("DiffReport", ("rows_checked", "mismatches"))):
    """All findings of one diff; ok when there are none."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def by_column(self) -> dict[str, int]:
        return dict(Counter(m.column for m in self.mismatches))


def read_atlas(path) -> list[bytes]:
    """Every graph of an atlas file, validated and left for decode_graph6
    to decode: item k - 1 is line k, atlas graph k."""
    lines = read_lines(path)
    end = len(lines)
    while end and not lines[end - 1].strip():  # blank lines may follow the last graph
        end -= 1
    out = []
    for ln, line in enumerate(lines[:end], 1):
        # the shape table clears a line of the common form; check_graph6
        # takes the rest: a '~' size field, a blank line or a fault
        shape = ONE_BYTE_SHAPES.get(line[0]) if line else None
        if (
            shape is not None
            and len(line) == shape[0]
            and not (line[-1] - 63) & shape[1]
            and not line.translate(None, GRAPH6_BYTES)
        ):
            out.append(line)
            continue
        if not line.strip():
            raise ValueError(f"{path}:{ln}: blank line before the last graph")
        try:
            out.append(check_graph6(text(line)))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
    return out


def check_atlas_number(a: int, count: int, path) -> None:
    """The atlas-position rule, for the atlas file at path: an atlas of
    count graphs has atlas numbers 1..count and no other, and any other
    a raises a ValueError."""
    if not 1 <= a <= count:
        held = f"atlas 1..{count}" if count else "no graphs"
        raise ValueError(f"{path} has no atlas {a}: it holds {held}")


def load_atlas(path) -> list[Graph]:
    """Every graph of an atlas file, decoded: item k - 1 is atlas graph k."""
    return [decode_graph6(line) for line in read_atlas(path)]


def _parse_bool(token: str) -> bool:
    if token == "T":
        return True
    if token == "F":
        return False
    raise ValueError(f"expected T or F, got {token!r}")


def _int(token: str) -> int:
    # the file is read as ASCII, non-ASCII bytes as lone surrogates, so
    # only 0-9 pass: no sign, space, "_" or other digit
    if not token.isdigit():
        raise ValueError(f"expected integer, got {token!r}")
    return int(token)


def _optional(cell):
    """The parser of an optional column: a blank cell is None."""
    return lambda token: None if token == "" else cell(token)


# the cell parser of each column of FIXTURE_COLUMNS
_CELLS = (
    (_int,) * 4 + (_parse_bool,) + (_int,) * 2 + (_parse_bool,)
    + (_optional(_int),) * 6 + (_optional(_parse_bool),) * 3
)


def load_fixtures(path) -> list[FixtureRow]:
    """Load the transcribed reference table, sorted by atlas number."""
    rows: list[FixtureRow] = []
    seen: set[int] = set()
    parsed = [ParsedTokens(cell) for cell in _CELLS]
    lines = read_lines(path)
    header = text(lines[0]).split("\t")
    if tuple(header) != FIXTURE_COLUMNS:
        raise ValueError(f"{path}:1: unexpected header {header}")
    for ln, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        f = text(line).split("\t")
        if len(f) != len(FIXTURE_COLUMNS):
            raise ValueError(f"{path}:{ln}: expected {len(FIXTURE_COLUMNS)} fields, got {len(f)}")
        try:
            # dict.__getitem__ parses a new token through ParsedTokens.__missing__
            row = FixtureRow._make(map(dict.__getitem__, parsed, f))
            check_connected_only(row)
        except ValueError as exc:  # the first bad cell, left to right, then the rule
            raise ValueError(f"{path}:{ln}: {exc}") from exc
        if not row.con and row.tree is not False:
            raise ValueError(f"{path}:{ln}: disconnected row has tree {_cell(row.tree)!r}, not 'F'")
        if row.lb > row.ub:
            raise ValueError(f"{path}:{ln}: lb {row.lb} exceeds ub {row.ub}")
        if not row.lb <= row.mr <= row.ub:
            raise ValueError(f"{path}:{ln}: mr {row.mr} outside [{row.lb}, {row.ub}]")
        # lb <= mr <= ub, so ub bounds all three: mr(G) <= order - 1
        if row.ub > row.order - 1:
            raise ValueError(f"{path}:{ln}: ub {row.ub} exceeds order - 1 = {row.order - 1}")
        if row.size > row.order * (row.order - 1) // 2:
            raise ValueError(f"{path}:{ln}: size {row.size} exceeds order(order - 1)/2 = "
                             f"{row.order * (row.order - 1) // 2}")
        if row.atlas_number in seen:
            raise ValueError(f"{path}:{ln}: duplicate atlas number {row.atlas_number}")
        seen.add(row.atlas_number)
        rows.append(row)
    rows.sort(key=lambda r: r.atlas_number)
    return rows


def compute_all(corpus: Sequence[Graph], forbidden: ForbiddenList) -> dict[int, BoundsRow]:
    """Bounds row per corpus graph, keyed by atlas number (position + 1),
    in one pass in corpus order: one combine call per graph.

    combine takes the rows of a graph's pieces from row: its components
    when it is disconnected, its blocks of 4 or more vertices when it has
    a cut vertex, and the graph with its lowest degree-2 vertex
    contracted when it is 2-connected of order >= 4.  row returns the
    row already in out for the piece's class, found through one
    AtlasIndex that lives for this call only, or combine's own when the
    corpus lacks the class or holds it only later.  Every piece has a
    lower order than its graph, and the bundled atlas certifies every
    order (see AtlasIndex), so there each lookup is one dict read with
    no confirming search, and the order-7 graphs, which no piece has,
    are never keyed.  The fallback passes no row, so row holds no
    reference to itself and is freed by refcount when this call returns.
    """
    index = AtlasIndex(corpus)
    out = {}

    def row(h: Graph) -> BoundsRow:
        try:
            return out[index.atlas_number(h)]
        except LookupError:  # KeyError too: a class not yet in out
            return combine(h, forbidden)

    for a, g in enumerate(corpus, 1):
        out[a] = combine(g, forbidden, row)
    return out


_connected_equal = attrgetter(*(_FIELD.get(col, col) for col in _BOUND_COLUMNS))


def diff(
    fixtures: Sequence[FixtureRow], computed: Mapping[int, BoundsRow]
) -> DiffReport:
    """Compare computed rows against the transcribed reference."""
    mismatches: list[Mismatch] = []
    for f in fixtures:
        c = computed.get(f.atlas_number)
        if c is None:
            raise ValueError(f"no computed row for atlas {f.atlas_number}")
        a = f.atlas_number
        if c.order != f.order:
            mismatches.append(Mismatch(a, "order", f.order, c.order))
        if c.size != f.size:
            mismatches.append(Mismatch(a, "size", f.size, c.size))
        if c.con != f.con:
            mismatches.append(Mismatch(a, "con", f.con, c.con))
            continue
        if c.lb != f.lb:
            mismatches.append(Mismatch(a, "lb", f.lb, c.lb))
        if f.con:
            wants, gots = _connected_equal(f), _connected_equal(c)
            if wants != gots:  # the common case compares the tuples only
                for col, want, got in zip(_BOUND_COLUMNS, wants, gots):
                    if want != got:
                        mismatches.append(Mismatch(a, col, want, got))
        if c.ub < f.ub:
            mismatches.append(Mismatch(a, "ub", f">= {f.ub}", c.ub))
        if not c.lb <= f.mr <= c.ub:
            mismatches.append(Mismatch(a, "mr_bracket", f"[{c.lb}, {c.ub}]", f.mr))
        if c.mr_exact is not None and c.mr_exact != f.mr:
            mismatches.append(Mismatch(a, "mr_exact", f.mr, c.mr_exact))
        if c.tree and c.mr_exact is None:
            mismatches.append(Mismatch(a, "tree_mr", f.mr, None))
    return DiffReport(rows_checked=len(fixtures), mismatches=mismatches)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "T" if v else "F"
    return str(v)


def bounds_row_fields(atlas_label: str, row: BoundsRow) -> list[str]:
    """TSV cells for one computed row, in TABLE_COLUMNS order."""
    return [atlas_label] + [_cell(getattr(row, _FIELD.get(col, col))) for col in TABLE_COLUMNS[1:]]


def bounds_row_dict(atlas_number: int | None, row: BoundsRow) -> dict:
    out: dict = {"atlas": atlas_number}
    for name in BoundsRow._fields:
        out[_COLUMN.get(name, name)] = getattr(row, name)
    return out


def table_lines(computed: Mapping[int, BoundsRow]) -> Iterable[str]:
    """Deterministic TSV rendering of the whole computed table."""
    yield "\t".join(TABLE_COLUMNS)
    for a in sorted(computed):
        yield "\t".join(bounds_row_fields(str(a), computed[a]))
