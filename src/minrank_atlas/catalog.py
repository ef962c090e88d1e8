"""Data ingestion (atlas corpus, transcribed reference table), the
full-table pipeline, and the computed-vs-reference diff.

compute_all combines each isomorphism class once: a disconnected
graph's row is summed from the rows of its components' classes.

Atlas file contract: one graph6 string per line, and line k is atlas
graph k.  Blank lines may follow the last graph but not precede it: a
blank line earlier would make line numbers and positions disagree, so
it is an error that names path:line.  Every line is validated on every
read (read_atlas); a command decodes only the lines it uses, and
load_atlas decodes them all.  Either way item k - 1 of the returned
list is atlas graph k, and every consumer numbers from that position.

Reference-table TSV columns:
  atlas order size mr mr_by_hand lb ub con zfs_lb diam_lb cc_ub
  np_ub nop_ub path_ub is cv tree
Blank cells are empty fields, never 0 (zero is a legitimate bound).

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

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import starmap

from minrank_atlas import graphs
from minrank_atlas.bounds import AtlasIndex, BoundsRow, ForbiddenList, combine, disjoint_union_row
from minrank_atlas.graph6 import check_graph6, decode_graph6
from minrank_atlas.graphs import Graph

FIXTURE_COLUMNS = (
    "atlas", "order", "size", "mr", "mr_by_hand", "lb", "ub", "con",
    "zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub",
    "is", "cv", "tree",
)

TABLE_COLUMNS = (
    "atlas", "order", "size", "lb", "ub", "mr_exact", "con",
    "zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub",
    "is", "cv", "tree",
)


class FixtureRow(namedtuple("FixtureRow", (
    "atlas_number", "order", "size", "mr", "mr_by_hand", "lb", "ub", "con",
    "zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub", "is_flag", "cv", "tree",
))):
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
        out: dict[str, int] = {}
        for m in self.mismatches:
            out[m.column] = out.get(m.column, 0) + 1
        return out


def read_atlas(path) -> list[bytes]:
    """Every graph of an atlas file, validated and left for decode_graph6
    to decode: item k - 1 is line k, atlas graph k."""
    # surrogateescape hands a non-ASCII byte on to check_graph6, which
    # reports it with its line and offset
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    out = []
    blank = None
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            if blank is None:
                blank = ln
            continue
        if blank is not None:
            raise ValueError(f"{path}:{blank}: blank line before the last graph")
        try:
            out.append(check_graph6(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
    return out


def has_atlas_number(a: int, count: int) -> bool:
    """The atlas-position rule: an atlas of count graphs has atlas
    numbers 1..count and no other."""
    return 1 <= a <= count


def check_atlas_number(a: int, count: int, path) -> None:
    """has_atlas_number for the atlas file at path, or a ValueError."""
    if not has_atlas_number(a, count):
        raise ValueError(f"{path} has no atlas {a}: it holds atlas 1..{count}")


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


def _opt_int(token: str) -> int | None:
    return None if token == "" else _int(token)


def _opt_bool(token: str) -> bool | None:
    return None if token == "" else _parse_bool(token)


# the cell parser of each column of FIXTURE_COLUMNS
_CELLS = (
    (_int,) * 4 + (_parse_bool,) + (_int,) * 2 + (_parse_bool,)
    + (_opt_int,) * 6 + (_opt_bool,) * 3
)


def load_fixtures(path) -> list[FixtureRow]:
    """Load the transcribed reference table, sorted by atlas number."""
    rows: list[FixtureRow] = []
    seen: set[int] = set()
    # per column, the value of each token parsed so far; a token that
    # fails is never stored, so it fails again with the same message
    parsed: list[dict] = [{} for _ in _CELLS]
    # surrogateescape, as in read_atlas: a non-ASCII byte fails a cell check
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != FIXTURE_COLUMNS:
            raise ValueError(f"{path}:1: unexpected header {header}")
        for ln, line in enumerate(fh, 2):
            if not line.strip():
                continue
            f = line.rstrip("\n").split("\t")
            if len(f) != len(FIXTURE_COLUMNS):
                raise ValueError(f"{path}:{ln}: expected {len(FIXTURE_COLUMNS)} fields, got {len(f)}")
            try:
                row = FixtureRow(*[
                    known[token] if token in known else known.setdefault(token, cell(token))
                    for cell, known, token in zip(_CELLS, parsed, f)
                ])
            except ValueError as exc:  # the first bad cell, left to right
                raise ValueError(f"{path}:{ln}: {exc}") from exc
            if row.lb > row.ub:
                raise ValueError(f"{path}:{ln}: lb {row.lb} exceeds ub {row.ub}")
            if not row.lb <= row.mr <= row.ub:
                raise ValueError(f"{path}:{ln}: mr {row.mr} outside [{row.lb}, {row.ub}]")
            if row.atlas_number in seen:
                raise ValueError(f"{path}:{ln}: duplicate atlas number {row.atlas_number}")
            seen.add(row.atlas_number)
            rows.append(row)
    rows.sort(key=lambda r: r.atlas_number)
    return rows


def corpus_integrity_mismatches(
    corpus: Sequence[Graph], fixtures: Iterable[FixtureRow]
) -> list[Mismatch]:
    """Order/size of each corpus graph (item k - 1 is atlas graph k)
    against the transcribed columns."""
    out = []
    for row in fixtures:
        if not has_atlas_number(row.atlas_number, len(corpus)):
            out.append(Mismatch(row.atlas_number, "present", "graph", None))
            continue
        g = corpus[row.atlas_number - 1]
        if g.order != row.order:
            out.append(Mismatch(row.atlas_number, "order", row.order, g.order))
        if g.size() != row.size:
            out.append(Mismatch(row.atlas_number, "size", row.size, g.size()))
    return out


def compute_all(
    corpus: Sequence[Graph], forbidden: ForbiddenList, jobs: int = 1
) -> dict[int, BoundsRow]:
    """Bounds row per corpus graph, keyed by atlas number (position + 1);
    the result is independent of jobs.

    combine runs on the connected graphs only, in this process or in a
    pool of jobs workers.  A component of a disconnected graph is
    connected, so the row computed for its class, found through one
    AtlasIndex over the corpus, is its row; disjoint_union_row sums
    them.  Only a component whose class the corpus lacks is combined on
    its own.  The index and its answers live for this call only.
    """
    comps = [graphs.components(g) for g in corpus]
    connected = [a for a, c in enumerate(comps, 1) if len(c) == 1]
    work = [(corpus[a - 1], forbidden) for a in connected]
    if jobs <= 1:
        rows = list(starmap(combine, work))
    else:
        from multiprocessing import Pool  # only worker runs pay for the import

        with Pool(jobs) as pool:
            rows = pool.starmap(combine, work, chunksize=32)
    connected_rows = dict(zip(connected, rows))
    index = AtlasIndex(corpus)

    def component_row(h: Graph) -> BoundsRow:
        try:
            return connected_rows[index.atlas_number(h)]
        except LookupError:
            return combine(h, forbidden)

    out = {}
    for a, (g, cs) in enumerate(zip(corpus, comps), 1):
        if len(cs) == 1:
            out[a] = connected_rows[a]
        else:
            parts = [component_row(graphs.induced_subgraph(g, c)) for c in cs]
            out[a] = disjoint_union_row(parts)
    return out


# Column name -> row field where they differ: "is" is a Python keyword,
# so FixtureRow and BoundsRow hold that column as is_flag.
_FIELD = {"is": "is_flag"}
_COLUMN = {fld: col for col, fld in _FIELD.items()}

_CONNECTED_EQUAL = (
    "zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub", "is", "cv", "tree",
)


def diff(
    fixtures: Iterable[FixtureRow], computed: Mapping[int, BoundsRow]
) -> DiffReport:
    """Compare computed rows against the transcribed reference."""
    mismatches: list[Mismatch] = []
    rows = 0
    for f in fixtures:
        c = computed.get(f.atlas_number)
        if c is None:
            raise ValueError(f"no computed row for atlas {f.atlas_number}")
        rows += 1
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
            for col in _CONNECTED_EQUAL:
                name = _FIELD.get(col, col)
                want, got = getattr(f, name), getattr(c, name)
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
    return DiffReport(rows_checked=rows, mismatches=mismatches)


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
