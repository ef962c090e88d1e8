import gc
import re

import pytest

from minrank_atlas import catalog, cli
from minrank_atlas.bounds import CONNECTED_ONLY, BoundsRow, clique_cover_number, combine
from minrank_atlas.catalog import (
    FIXTURE_COLUMNS,
    FixtureRow,
    compute_all,
    diff,
    load_atlas,
    load_fixtures,
    table_lines,
)
from minrank_atlas.graphs import Graph, articulation_points, is_connected, is_isomorphic
from minrank_atlas.minors import is_outerplanar, is_planar

from oracles import corpus_integrity_mismatches, cycle, deletion_law_faults, mr_by_cut_vertex, path, relabel


def test_load_atlas_spot_entries(atlas_corpus):
    assert len(atlas_corpus) == 1252
    assert atlas_corpus[0] == Graph(1, (0,))
    g52 = atlas_corpus[51]
    assert (g52.order, g52.size()) == (5, 10)
    g1252 = atlas_corpus[1251]
    assert (g1252.order, g1252.size()) == (7, 21)
    assert is_isomorphic(atlas_corpus[13], path(4))


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


def test_mr_by_hand_marks_exactly_the_unsettled_rows(fixture_rows):
    by_hand = {f.atlas_number for f in fixture_rows if f.mr_by_hand}
    assert len(by_hand) == 42
    assert by_hand == {f.atlas_number for f in fixture_rows if f.lb < f.ub}


def test_reference_mr_obeys_the_deletion_laws(atlas_corpus, fixture_rows):
    # mr(G - v) <= mr(G) <= mr(G - v) + 2 and |mr(G) - mr(G - e)| <= 1,
    # on every pair whose deletion class has a reference row
    mr = {f.atlas_number: f.mr for f in fixture_rows}
    assert deletion_law_faults(atlas_corpus, mr) == (6713, 11126, [])


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

    # mr(G) <= order - 1, and a graph of order n has at most n(n-1)/2 edges
    for cells, message in (
        ({3: "2", 5: "2", 6: "2"}, "ub 2 exceeds order - 1 = 1"),
        ({2: "2"}, "size 2 exceeds order(order - 1)/2 = 1"),
    ):
        bad = GOOD_ROW.copy()
        for col, token in cells.items():
            bad[col] = token
        with pytest.raises(ValueError, match=re.escape(f"t.tsv:2: {message}")):
            load_fixtures(_write_fixture(tmp_path, [bad]))

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
    # "T" only in a flag column; the message names the column's kind.
    # GOOD_ROW is connected, so a blank that passes in one of its four
    # unconditional columns meets the connected-only rule instead.
    for col, name in enumerate(FixtureRow._fields):
        is_flag = name in ("mr_by_hand", "con", "is_flag", "cv", "tree")
        optional = col >= FixtureRow._fields.index("zfs_lb")
        for token, value, ok in (("", None, optional), ("T", True, is_flag)):
            row = GOOD_ROW.copy()
            row[col] = token
            p = _write_fixture(tmp_path, [row])
            if ok and value is None and name in CONNECTED_ONLY[:4]:
                message = "t.tsv:2: connected row missing an unconditional column"
                with pytest.raises(ValueError, match=re.escape(message)):
                    load_fixtures(p)
            elif ok:
                assert getattr(load_fixtures(p)[0], name) is value
            else:
                kind = "T or F" if is_flag else "integer"
                message = f"t.tsv:2: expected {kind}, got {token!r}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    load_fixtures(p)


def test_load_fixtures_keeps_the_connected_only_rule(tmp_path, data_dir, capsys):
    # BoundsRow's rule, on reference rows: atlas 2 (2K1) is disconnected
    # and atlas 3 (K2) connected; the bundled table keeps it on every row
    lines = (data_dir / "table1.tsv").read_text().splitlines()
    row2, row3 = (lines[k].split("\t") for k in (2, 3))
    assert (row2[0], row2[7], row3[0], row3[7]) == ("2", "F", "3", "T")
    cases = [(row2, col, "0", "disconnected row carries a connected-only column")
             for col in (8, 9, 10, 11, 12, 13)]
    cases += [(row2, 14, "F", "disconnected row carries a connected-only column"),
              (row2, 16, "T", "disconnected row has tree 'T', not 'F'"),
              (row2, 16, "", "disconnected row has tree '', not 'F'")]
    cases += [(row3, col, "", "connected row missing an unconditional column")
              for col in (8, 9, 10, 14)]
    for row, col, token, message in cases:
        bad = row.copy()
        bad[col] = token
        p = _write_fixture(tmp_path, [bad])
        with pytest.raises(ValueError) as info:
            load_fixtures(p)
        assert str(info.value) == f"{p}:2: {message}", FIXTURE_COLUMNS[col]
    # the commands that read the table exit 2, diff included
    for argv in (["diff"], ["derive-forbidden", "--out", str(tmp_path / "f.g6")]):
        assert cli.main([*argv, "--fixtures", str(p), "--atlas-file", str(data_dir / "atlas.g6")]) == 2
        assert capsys.readouterr().err == f"error: {p}:2: {message}\n"
    assert not (tmp_path / "f.g6").exists()


def test_reference_cv_is_false_on_every_disconnected_row(fixture_rows, computed_table):
    # the reference leaves cv F on a disconnected row even when a
    # component has a cut vertex, while the computed cv is T there; diff
    # compares cv on connected rows only, so it does not see the split
    disconnected = [f.atlas_number for f in fixture_rows if not f.con]
    cvs = {f.cv for f in fixture_rows if not f.con}
    computed, _ = computed_table
    assert (len(disconnected), cvs) == (212, {False})
    assert sum(computed[a].cv for a in disconnected) == 95


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
    # a partial corpus: 29 of these 60 rows are disconnected and summed from
    # the connected rows of the prefix, which must equal combine on each graph
    slice_ = atlas_corpus[:60]
    rows = compute_all(slice_, forbidden)
    assert sum(not r.con for r in rows.values()) == 29
    assert rows == {a: combine(g, forbidden) for a, g in enumerate(slice_, 1)}


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
    monkeypatch.setattr(catalog, "combine", lambda g, fb, row=None: combined.append(g) or real(g, fb, row))
    rows = compute_all(corpus, forbidden)
    assert Graph.complete(2) in combined
    assert rows == {a: real(g, forbidden) for a, g in enumerate(corpus, 1)}


def test_compute_all_combines_a_class_the_corpus_holds_later(atlas_corpus, forbidden, monkeypatch):
    # the first 60 atlas graphs in reverse: each disconnected graph comes
    # before its components' classes, so out has no row for them yet
    corpus = atlas_corpus[:60][::-1]
    assert corpus[-3] == Graph.complete(2)
    real = catalog.combine
    combined = []
    monkeypatch.setattr(catalog, "combine", lambda g, fb, row=None: combined.append(g) or real(g, fb, row))
    rows = compute_all(corpus, forbidden)
    assert combined.count(Graph.complete(2)) > 1
    assert rows == {a: real(g, forbidden) for a, g in enumerate(corpus, 1)}


def test_compute_all_combines_a_block_class_the_corpus_lacks(atlas_corpus, forbidden, monkeypatch):
    # line 16 (C4) overwritten by line 17's graph: no corpus graph is a
    # C4, so the C4 component of C4 + K1, the C4 block of atlas 37 (C4
    # with a pendant edge) and the C4 that C5 (atlas 38) reaches with a
    # degree-2 vertex contracted fall back to combine
    c4 = cycle(4)
    corpus = list(atlas_corpus[:60])
    assert is_isomorphic(corpus[15], c4) and articulation_points(corpus[36])
    corpus[15] = corpus[16]
    real = catalog.combine
    combined = []
    monkeypatch.setattr(catalog, "combine", lambda g, fb, row=None: combined.append(g) or real(g, fb, row))
    rows = compute_all(corpus, forbidden)
    assert sum(is_isomorphic(g, c4) for g in combined) == 3
    assert rows == {a: real(g, forbidden) for a, g in enumerate(corpus, 1)}


def test_cut_vertex_rows_take_their_block_columns_from_their_blocks(atlas_corpus, computed_table, forbidden):
    # compute_all reads cc, np and nop of a graph with a cut vertex from
    # its blocks' rows; each must be the column computed on g itself
    computed, _ = computed_table
    cut = [a for a, g in enumerate(atlas_corpus, 1) if is_connected(g) and articulation_points(g)]
    assert len(cut) == 456
    for a in cut:
        g, row = atlas_corpus[a - 1], computed[a]
        assert row.cc_ub == clique_cover_number(g), a
        assert (row.np_ub is None) == is_planar(g), a
        assert (row.nop_ub is None) == is_outerplanar(g), a
        assert row == combine(g, forbidden), a


def test_two_connected_rows_take_np_and_nop_from_a_smaller_row(atlas_corpus, computed_table, forbidden):
    # compute_all reads np and nop of a 2-connected graph with a degree-2
    # vertex from the row of that vertex contracted; each must be the
    # column computed on g itself, and the row standalone combine's
    computed, _ = computed_table
    no_cut = [(a, g) for a, g in enumerate(atlas_corpus, 1) if is_connected(g) and not articulation_points(g)]
    assert len(no_cut) == 540
    assert sum(g.order >= 4 and 2 in map(int.bit_count, g.adj) for _, g in no_cut) == 365
    for a, g in no_cut:
        row = computed[a]
        assert (row.np_ub is None) == is_planar(g), a
        assert (row.nop_ub is None) == is_outerplanar(g), a
        assert row == combine(g, forbidden), a


def test_compute_all_combines_a_contraction_the_corpus_lacks(forbidden, monkeypatch):
    # C5's lowest degree-2 vertex contracted gives a C4.  Alone, the corpus
    # lacks C4; with C4 after it, out has no row for C4 yet; and C4's own
    # contraction, a K3, is missing too.  Each falls back to combine
    c5, c4, k3 = cycle(5), cycle(4), Graph.complete(3)
    real = catalog.combine
    calls = []
    def combined(g, fb, row=None):
        calls.append((g, row is None))
        return real(g, fb, row)

    monkeypatch.setattr(catalog, "combine", combined)
    for corpus, expected in (
        ([c5], [(c5, False), (c4, True)]),
        ([c5, c4], [(c5, False), (c4, True), (c4, False), (k3, True)]),
    ):
        calls.clear()
        rows = compute_all(corpus, forbidden)
        assert len(calls) == len(expected)
        for (h, fallback), (e, want) in zip(calls, expected):
            assert is_isomorphic(h, e) and fallback == want, (h, fallback)
        assert rows == {a: real(g, forbidden) for a, g in enumerate(corpus, 1)}


def test_compute_all_over_uncertified_orders_equals_combine(atlas_corpus, forbidden, lookup_counts):
    # without C5 (atlas 38) order 5 is uncertified and C5's pieces fall
    # back to combine; with atlas 8 (4K1) replaced by a relabelled C4
    # (atlas 16) order 4 holds C4 twice, and its lookups find atlas 8
    c4 = atlas_corpus[15]
    without_c5 = atlas_corpus[:37] + atlas_corpus[38:]
    c4_twice = [*atlas_corpus[:7], relabel(c4, [2, 0, 3, 1]), *atlas_corpus[8:]]
    alone = {}
    for corpus in (without_c5, c4_twice):
        lookup_counts.clear()
        rows = compute_all(corpus, forbidden)
        assert lookup_counts["confirmations"] > 0
        for g in corpus:
            if g not in alone:
                alone[g] = combine(g, forbidden)
        assert rows == {a: alone[g] for a, g in enumerate(corpus, 1)}


def test_compute_all_leaves_no_reference_cycle(atlas_corpus, forbidden):
    # the row function holds no reference to itself, and over the atlas
    # no row runs the minor search, whose nested search refers to itself
    gc.collect()
    gc.disable()
    try:
        compute_all(atlas_corpus, forbidden)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cut_vertex_reduction_pins_every_atlas_row(atlas_corpus, computed_table, fixture_rows):
    # the oracle settles every cut-vertex and disconnected row that the
    # bounds leave open; only the 42 by-hand rows need outside values
    computed, _ = computed_table
    by_hand = {f.atlas_number: f.mr for f in fixture_rows if f.mr_by_hand}
    alone = mr_by_cut_vertex(atlas_corpus, computed)
    assert sum(v is not None for v in alone.values()) == 1210
    assert {a for a, v in alone.items() if v is None} == set(by_hand)
    mr = mr_by_cut_vertex(atlas_corpus, computed, by_hand)
    assert None not in mr.values() and len(mr) == 1252
    reference = {f.atlas_number: f.mr for f in fixture_rows}
    assert [a for a in reference if mr[a] != reference[a]] == []
    assert [a for a, v in mr.items() if not computed[a].lb <= v <= computed[a].ub] == []
    assert [mr[a] for a in (339, 343, 344)] == [4, 4, 4]  # untranscribed cut-vertex rows
    assert deletion_law_faults(atlas_corpus, mr) == (8474, 12342, [])


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
