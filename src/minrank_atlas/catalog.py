"""Data ingestion (atlas corpus, transcribed reference table), the
full-table pipeline, and the computed-vs-reference diff.

Atlas file contract: one graph6 string per line, and line k is atlas
graph k.  Blank lines may follow the last graph but not precede it: a
blank line earlier would make line numbers and positions disagree, so
it is an error that names path:line.  Every line is validated on every
read (read_atlas); a command decodes only the lines it uses, and
load_atlas decodes them all.

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

from dataclasses import dataclass, fields
from typing import Iterable, Mapping

from minrank_atlas.bounds import BoundsRow, ForbiddenList, combine
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


@dataclass(frozen=True)
class AtlasEntry:
    """Atlas graph atlas_number, decoded from line atlas_number of the file."""

    atlas_number: int
    graph: Graph


@dataclass(frozen=True)
class FixtureRow:
    """One transcribed reference row; None marks a blank cell."""

    atlas_number: int
    order: int
    size: int
    mr: int
    mr_by_hand: bool
    lb: int
    ub: int
    con: bool
    zfs_lb: int | None
    diam_lb: int | None
    cc_ub: int | None
    np_ub: int | None
    nop_ub: int | None
    path_ub: int | None
    is_flag: bool | None
    cv: bool | None
    tree: bool | None


@dataclass(frozen=True)
class Mismatch:
    """One diff finding: the reference value of a column against the computed one."""

    atlas_number: int
    column: str
    expected: object
    computed: object


@dataclass
class DiffReport:
    """All findings of one diff; ok when there are none."""

    rows_checked: int
    mismatches: list[Mismatch]

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


def load_atlas(path) -> list[AtlasEntry]:
    """Every graph of an atlas file, decoded and numbered from 1."""
    return [AtlasEntry(a, decode_graph6(line)) for a, line in enumerate(read_atlas(path), 1)]


def _parse_bool(token: str, where: str) -> bool:
    if token == "T":
        return True
    if token == "F":
        return False
    raise ValueError(f"{where}: expected T or F, got {token!r}")


def _int(token: str, where: str) -> int:
    # the file is read as ASCII, non-ASCII bytes as lone surrogates, so
    # only 0-9 pass: no sign, space, "_" or other digit
    if not token.isdigit():
        raise ValueError(f"{where}: expected integer, got {token!r}")
    return int(token)


def _opt_int(token: str, where: str) -> int | None:
    return None if token == "" else _int(token, where)


def _opt_bool(token: str, where: str) -> bool | None:
    if token == "":
        return None
    return _parse_bool(token, where)


def load_fixtures(path) -> list[FixtureRow]:
    """Load the transcribed reference table, sorted by atlas number."""
    rows: list[FixtureRow] = []
    seen: set[int] = set()
    # surrogateescape, as in read_atlas: a non-ASCII byte fails a cell check
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != FIXTURE_COLUMNS:
            raise ValueError(f"{path}:1: unexpected header {header}")
        for ln, line in enumerate(fh, 2):
            if not line.strip():
                continue
            where = f"{path}:{ln}"
            f = line.rstrip("\n").split("\t")
            if len(f) != len(FIXTURE_COLUMNS):
                raise ValueError(f"{where}: expected {len(FIXTURE_COLUMNS)} fields, got {len(f)}")
            try:
                row = FixtureRow(
                    atlas_number=_int(f[0], where),
                    order=_int(f[1], where),
                    size=_int(f[2], where),
                    mr=_int(f[3], where),
                    mr_by_hand=_parse_bool(f[4], where),
                    lb=_int(f[5], where),
                    ub=_int(f[6], where),
                    con=_parse_bool(f[7], where),
                    zfs_lb=_opt_int(f[8], where),
                    diam_lb=_opt_int(f[9], where),
                    cc_ub=_opt_int(f[10], where),
                    np_ub=_opt_int(f[11], where),
                    nop_ub=_opt_int(f[12], where),
                    path_ub=_opt_int(f[13], where),
                    is_flag=_opt_bool(f[14], where),
                    cv=_opt_bool(f[15], where),
                    tree=_opt_bool(f[16], where),
                )
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}" if where not in str(exc) else str(exc)) from exc
            if row.lb > row.ub:
                raise ValueError(f"{where}: lb {row.lb} exceeds ub {row.ub}")
            if not row.lb <= row.mr <= row.ub:
                raise ValueError(f"{where}: mr {row.mr} outside [{row.lb}, {row.ub}]")
            if row.atlas_number in seen:
                raise ValueError(f"{where}: duplicate atlas number {row.atlas_number}")
            seen.add(row.atlas_number)
            rows.append(row)
    rows.sort(key=lambda r: r.atlas_number)
    return rows


def corpus_integrity_mismatches(
    entries: Iterable[AtlasEntry], fixtures: Iterable[FixtureRow]
) -> list[Mismatch]:
    """Order/size of each corpus graph against the transcribed columns."""
    graphs_by_atlas = {e.atlas_number: e.graph for e in entries}
    out = []
    for row in fixtures:
        g = graphs_by_atlas.get(row.atlas_number)
        if g is None:
            out.append(Mismatch(row.atlas_number, "present", "graph", None))
            continue
        if g.order != row.order:
            out.append(Mismatch(row.atlas_number, "order", row.order, g.order))
        if g.size() != row.size:
            out.append(Mismatch(row.atlas_number, "size", row.size, g.size()))
    return out


def _compute_worker(args) -> tuple[int, BoundsRow]:
    entry, forbidden = args
    return entry.atlas_number, combine(entry.graph, forbidden)


def compute_all(
    entries: Iterable[AtlasEntry], forbidden: ForbiddenList, jobs: int = 1
) -> dict[int, BoundsRow]:
    """Bounds row per atlas entry; result is independent of jobs."""
    entries = list(entries)
    if jobs <= 1:
        return {e.atlas_number: combine(e.graph, forbidden) for e in entries}
    from multiprocessing import Pool  # only worker runs pay for the import

    with Pool(jobs) as pool:
        pairs = pool.map(
            _compute_worker, ((e, forbidden) for e in entries), chunksize=32
        )
    return dict(pairs)


_CONNECTED_EQUAL = (
    ("zfs_lb", "zfs_lb"), ("diam_lb", "diam_lb"), ("cc_ub", "cc_ub"),
    ("np_ub", "np_ub"), ("nop_ub", "nop_ub"), ("path_ub", "path_ub"),
    ("is", "is_flag"), ("cv", "cv"), ("tree", "tree"),
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
            for fcol, ccol in _CONNECTED_EQUAL:
                want = getattr(f, "is_flag" if fcol == "is" else fcol)
                got = getattr(c, ccol)
                if want != got:
                    mismatches.append(Mismatch(a, fcol, want, got))
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
    return [atlas_label] + [
        _cell(getattr(row, "is_flag" if col == "is" else col))
        for col in TABLE_COLUMNS[1:]
    ]


def bounds_row_dict(atlas_number: int | None, row: BoundsRow) -> dict:
    out: dict = {"atlas": atlas_number}
    for fld in fields(BoundsRow):
        out["is" if fld.name == "is_flag" else fld.name] = getattr(row, fld.name)
    return out


def table_lines(computed: Mapping[int, BoundsRow]) -> Iterable[str]:
    """Deterministic TSV rendering of the whole computed table."""
    yield "\t".join(TABLE_COLUMNS)
    for a in sorted(computed):
        yield "\t".join(bounds_row_fields(str(a), computed[a]))
