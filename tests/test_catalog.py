import re

import pytest

from minrank_atlas import catalog
from minrank_atlas.bounds import BoundsRow, combine
from minrank_atlas.catalog import (
    FIXTURE_COLUMNS,
    FixtureRow,
    compute_all,
    corpus_integrity_mismatches,
    diff,
    load_atlas,
    load_fixtures,
    table_lines,
)
from minrank_atlas.graphs import Graph, is_connected, is_isomorphic


def test_load_atlas_spot_entries(atlas_corpus):
    assert len(atlas_corpus) == 1252
    assert atlas_corpus[0] == Graph.empty(1)
    g52 = atlas_corpus[51]
    assert (g52.order, g52.size()) == (5, 10)
    g1252 = atlas_corpus[1251]
    assert (g1252.order, g1252.size()) == (7, 21)
    assert is_isomorphic(atlas_corpus[13], Graph.path(4))


def test_load_atlas_error_names_line(tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("@\nA_\nzz!!\n")
    with pytest.raises(ValueError, match="bad.g6:3"):
        load_atlas(p)


def test_load_fixtures_spot_rows(fixtures_by_atlas, fixture_rows):
    assert len(fixture_rows) == 1162
    r52 = fixtures_by_atlas[52]
    assert (r52.mr, r52.np_ub, r52.nop_ub, r52.path_ub) == (1, 1, 2, 3)
    assert r52.con and not r52.mr_by_hand
    r558 = fixtures_by_atlas[558]
    assert (r558.lb, r558.ub, r558.mr, r558.mr_by_hand) == (3, 4, 3, True)
    r2 = fixtures_by_atlas[2]
    assert not r2.con
    assert r2.zfs_lb is None and r2.diam_lb is None and r2.cc_ub is None
    assert r2.np_ub is None and r2.nop_ub is None and r2.path_ub is None
    assert r2.is_flag is None and r2.cv is False and r2.tree is False


def test_fixture_gaps_match_untranscribed_ranges(fixtures_by_atlas):
    missing = set(range(1, 1253)) - set(fixtures_by_atlas)
    assert missing == set(range(181, 241)) | set(range(331, 361))


def _write_fixture(tmp_path, rows):
    header = "\t".join(FIXTURE_COLUMNS)
    body = "\n".join("\t".join(r) for r in rows)
    p = tmp_path / "t.tsv"
    p.write_text(header + "\n" + body + "\n")
    return p


GOOD_ROW = ["3", "2", "1", "1", "F", "1", "1", "T", "1", "1", "1", "", "", "", "F", "F", "T"]


def test_load_fixtures_errors(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("atlas\twrong\n")
    with pytest.raises(ValueError, match="header"):
        load_fixtures(p)

    bad_lb = GOOD_ROW.copy()
    bad_lb[5], bad_lb[6] = "2", "1"
    with pytest.raises(ValueError, match="exceeds"):
        load_fixtures(_write_fixture(tmp_path, [bad_lb]))

    bad_mr = GOOD_ROW.copy()
    bad_mr[3] = "9"
    with pytest.raises(ValueError, match="outside"):
        load_fixtures(_write_fixture(tmp_path, [bad_mr]))

    with pytest.raises(ValueError, match="duplicate"):
        load_fixtures(_write_fixture(tmp_path, [GOOD_ROW, GOOD_ROW]))

    short = GOOD_ROW[:-1]
    with pytest.raises(ValueError, match="fields"):
        load_fixtures(_write_fixture(tmp_path, [short]))

    bad_bool = GOOD_ROW.copy()
    bad_bool[7] = "Q"
    with pytest.raises(ValueError, match="T or F"):
        load_fixtures(_write_fixture(tmp_path, [bad_bool]))


@pytest.mark.parametrize("token", ["+1", " 1", "1_0"], ids=["sign", "space", "underscore"])
def test_load_fixtures_integer_cells_are_ascii_digits(tmp_path, token):
    # every integer column, required (atlas, order, size, mr, lb, ub) and optional
    for col in (0, 1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13):
        row = GOOD_ROW.copy()
        row[col] = token
        message = f"t.tsv:2: expected integer, got {token!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_fixtures(_write_fixture(tmp_path, [row]))


def test_load_fixtures_cell_grammar_by_column(tmp_path):
    # a blank cell passes only in an optional column (zfs_lb onward) and
    # "T" only in a flag column; the message names the column's kind
    for col, name in enumerate(FixtureRow._fields):
        is_flag = name in ("mr_by_hand", "con", "is_flag", "cv", "tree")
        optional = col >= FixtureRow._fields.index("zfs_lb")
        for token, value, ok in (("", None, optional), ("T", True, is_flag)):
            row = GOOD_ROW.copy()
            row[col] = token
            p = _write_fixture(tmp_path, [row])
            if ok:
                assert getattr(load_fixtures(p)[0], name) is value
            else:
                kind = "T or F" if is_flag else "integer"
                message = f"t.tsv:2: expected {kind}, got {token!r}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    load_fixtures(p)


def test_load_fixtures_repeated_tokens(tmp_path):
    # one call remembers each column's parsed tokens: a bad token that
    # recurs still fails on the first row that has it, and "T", parsed
    # in the flag columns of an earlier row, is still no integer
    def row(atlas, order):
        return [atlas, order] + GOOD_ROW[2:]

    p = _write_fixture(tmp_path, [GOOD_ROW, row("4", "x"), row("5", "x")])
    with pytest.raises(ValueError, match=re.escape("t.tsv:3: expected integer, got 'x'")):
        load_fixtures(p)
    p = _write_fixture(tmp_path, [GOOD_ROW, row("4", "T")])
    with pytest.raises(ValueError, match=re.escape("t.tsv:3: expected integer, got 'T'")):
        load_fixtures(p)
    rows = load_fixtures(_write_fixture(tmp_path, [row("5", "2"), GOOD_ROW, row("4", "2")]))
    assert [r.atlas_number for r in rows] == [3, 4, 5]
    assert {r._replace(atlas_number=0) for r in rows} == {rows[0]._replace(atlas_number=0)}


def test_corpus_integrity(atlas_corpus, fixture_rows):
    assert corpus_integrity_mismatches(atlas_corpus, fixture_rows) == []


def test_corpus_integrity_catches_faults(atlas_corpus, fixture_rows):
    broken = fixture_rows[0]._replace(size=99)
    out = corpus_integrity_mismatches(atlas_corpus, [broken])
    assert len(out) == 1 and out[0].column == "size"
    beyond = fixture_rows[0]._replace(atlas_number=len(atlas_corpus) + 1)
    out = corpus_integrity_mismatches(atlas_corpus, [beyond])
    assert [(m.atlas_number, m.column) for m in out] == [(1253, "present")]


def test_compute_row_spots(atlas_corpus, forbidden):
    row52 = combine(atlas_corpus[51], forbidden)
    assert (row52.lb, row52.ub) == (1, 1)
    row1 = combine(atlas_corpus[0], forbidden)
    assert (row1.lb, row1.ub, row1.mr_exact, row1.zfs_lb, row1.cc_ub) == (0, 0, 0, 0, 0)
    row175 = combine(atlas_corpus[174], forbidden)
    assert row175.np_ub == 2


def _echo_rows(fixtures):
    """BoundsRow objects mirroring the fixture values exactly."""
    out = {}
    for f in fixtures:
        out[f.atlas_number] = BoundsRow(
            order=f.order, size=f.size, con=f.con,
            zfs_lb=f.zfs_lb, diam_lb=f.diam_lb, cc_ub=f.cc_ub,
            np_ub=f.np_ub, nop_ub=f.nop_ub, path_ub=f.path_ub,
            is_flag=f.is_flag,
            cv=bool(f.cv), tree=bool(f.tree),
            lb=f.lb, ub=f.ub,
            mr_exact=f.mr if f.lb == f.ub else None,
        )
    return out


def test_diff_reflexive(fixture_rows):
    report = diff(fixture_rows, _echo_rows(fixture_rows))
    assert report.ok and report.rows_checked == len(fixture_rows)


def test_diff_flags_single_perturbation(fixture_rows):
    subset = [f for f in fixture_rows if f.atlas_number <= 52]
    rows = _echo_rows(subset)
    target = next(f for f in subset if f.con and f.zfs_lb is not None and f.zfs_lb > 0)
    rows[target.atlas_number] = rows[target.atlas_number]._replace(
        zfs_lb=target.zfs_lb - 1
    )
    report = diff(subset, rows)
    assert len(report.mismatches) == 1
    m = report.mismatches[0]
    assert (m.atlas_number, m.column) == (target.atlas_number, "zfs_lb")
    assert report.by_column() == {"zfs_lb": 1}


def test_is_column_is_the_is_flag_field(fixtures_by_atlas):
    # "is" is a keyword, so the column lives in the is_flag field of both row types
    f = fixtures_by_atlas[7]._replace(is_flag=False, cv=False)
    row = _echo_rows([f])[7]._replace(is_flag=True)
    cells = dict(zip(catalog.TABLE_COLUMNS, catalog.bounds_row_fields("7", row)))
    assert (cells["is"], cells["cv"]) == ("T", "F")
    as_json = catalog.bounds_row_dict(7, row)
    assert (as_json["is"], as_json["cv"]) == (True, False) and "is_flag" not in as_json
    report = diff([f], {7: row})
    assert [(m.column, m.expected, m.computed) for m in report.mismatches] == [("is", False, True)]


def test_diff_requires_matching_domain(fixture_rows):
    with pytest.raises(ValueError, match="no computed row"):
        diff(fixture_rows[:5], {})


def test_diff_checks_ub_one_sided(fixtures_by_atlas):
    # computed ub above the reference is allowed; below is flagged
    f = fixtures_by_atlas[7]  # K3: connected, not a tree, lb = ub = 1
    echo = _echo_rows([f])[7]
    looser = echo._replace(ub=f.ub + 1, mr_exact=None)
    assert diff([f], {7: looser}).ok
    tighter = echo._replace(ub=f.ub - 1, lb=f.lb - 1, mr_exact=None)
    report = diff([f], {7: tighter})
    assert {m.column for m in report.mismatches} == {"lb", "ub", "mr_bracket"}


def test_compute_all_jobs_agree(atlas_corpus, forbidden):
    # 29 of these 60 rows are disconnected, so the workers' rows feed the sums
    slice_ = atlas_corpus[:60]
    rows = compute_all(slice_, forbidden, jobs=1)
    assert sum(not r.con for r in rows.values()) == 29
    assert rows == compute_all(slice_, forbidden, jobs=2)


def test_disconnected_rows_equal_direct_combine(atlas_corpus, computed_table, forbidden):
    # compute_all sums the rows of the components' classes; combine
    # recomputes every component from scratch
    computed, _ = computed_table
    disconnected = [a for a, g in enumerate(atlas_corpus, 1) if not is_connected(g)]
    assert len(disconnected) == 256
    for a in disconnected:
        assert computed[a] == combine(atlas_corpus[a - 1], forbidden), a


def test_compute_all_combines_a_class_the_corpus_lacks(atlas_corpus, forbidden, monkeypatch):
    # line 3 (K2) overwritten by line 4's graph: no corpus graph is a K2,
    # so the K2 components of K2+K1, 2K2, ... fall back to combine
    corpus = list(atlas_corpus[:60])
    corpus[2] = corpus[3]
    real = catalog.combine
    combined = []
    monkeypatch.setattr(catalog, "combine", lambda g, fb: combined.append(g) or real(g, fb))
    rows = compute_all(corpus, forbidden)
    assert Graph.complete(2) in combined
    assert rows == {a: real(g, forbidden) for a, g in enumerate(corpus, 1)}


def test_table_lines_shape(atlas_corpus, forbidden):
    rows = compute_all(atlas_corpus[:18], forbidden)
    lines = list(table_lines(rows))
    assert lines[0].startswith("atlas\torder\tsize\tlb\tub\tmr_exact")
    assert len(lines) == 19
    assert lines[1].split("\t")[0] == "1"
    assert list(table_lines(rows)) == lines


def test_atlas_file_is_the_networkx_atlas(atlas_corpus):
    # an independent transcription of the same atlas: line k of the file is
    # networkx's graph k with the same vertex labels, not merely isomorphic
    nx = pytest.importorskip("networkx")
    reference = nx.graph_atlas_g()
    assert len(atlas_corpus) == len(reference) - 1 == 1252  # networkx 0 is the null graph
    for k, g in enumerate(atlas_corpus, 1):
        h = reference[k]
        assert sorted(h.nodes) == list(range(g.order)), k
        assert sorted(tuple(sorted(e)) for e in h.edges) == list(g.edges()), k
