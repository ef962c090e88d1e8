import argparse
import hashlib
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from minrank_atlas import bounds, catalog, cli, graphs
from minrank_atlas.catalog import FIXTURE_COLUMNS

DATA_FLAGS = ["--atlas-file", "data/atlas.g6"]


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    """Default data paths are repo-relative; anchor the cwd."""
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def small_data(tmp_path, data_dir):
    """First 52 atlas graphs with the matching reference rows."""
    atlas_lines = (data_dir / "atlas.g6").read_text().splitlines()[:52]
    atlas = tmp_path / "atlas.g6"
    atlas.write_text("\n".join(atlas_lines) + "\n")
    fixture_lines = (data_dir / "table1.tsv").read_text().splitlines()
    keep = [fixture_lines[0]] + [
        l for l in fixture_lines[1:] if int(l.split("\t")[0]) <= 52
    ]
    fixtures = tmp_path / "table1.tsv"
    fixtures.write_text("\n".join(keep) + "\n")
    return {"atlas": str(atlas), "fixtures": str(fixtures), "dir": tmp_path}


def test_bounds_by_atlas_number(capsys):
    code, out, _ = run(capsys, ["bounds", "--atlas", "52"] + DATA_FLAGS)
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "52"
    # atlas order size lb ub mr_exact ...
    assert fields[3] == "1" and fields[4] == "1" and fields[5] == "1"


def test_bounds_by_graph6(capsys):
    code, out, _ = run(capsys, ["bounds", "--graph6", "A_"])
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "-" and fields[5] == "1"


def test_bounds_json(capsys):
    code, out, _ = run(capsys, ["bounds", "--atlas", "52", "--json"] + DATA_FLAGS)
    assert code == 0
    row = json.loads(out)
    assert row["atlas"] == 52 and row["lb"] == 1 and row["ub"] == 1
    assert row["np_ub"] == 1 and row["is"] is False


def test_bounds_k333_has_minimum_rank_above_two(capsys):
    # K3,3,3 (order 9) holds none of the derived order <= 6 patterns
    code, out, _ = run(capsys, ["bounds", "--graph6", "HFzf~z{"])
    assert code == 0
    fields = out.rstrip("\n").split("\t")
    assert fields[catalog.TABLE_COLUMNS.index("is")] == "T"
    assert fields[catalog.TABLE_COLUMNS.index("lb")] == "3"
    assert fields[catalog.TABLE_COLUMNS.index("mr_exact")] == ""


def test_bounds_bad_targets(capsys):
    code, _, err = run(capsys, ["bounds", "--atlas", "99999"] + DATA_FLAGS)
    assert code == 2 and "99999" in err
    code, _, err = run(capsys, ["bounds", "--graph6", "!!"])
    assert code == 2
    code, _, _ = run(capsys, ["bounds"])
    assert code == 2
    code, _, _ = run(capsys, ["no-such-command"])
    assert code == 2


def test_bounds_rejects_non_ascii_graph6(capsys):
    # 'é' must not decode as '?', an all-zero payload group
    code, out, err = run(capsys, ["bounds", "--graph6", "Cé"])
    assert code == 2 and out == ""
    assert "non-ASCII" in err and "offset 1" in err


def test_single_value_helpers(capsys):
    assert run(capsys, ["zf", "--graph6", "A_"])[:2] == (0, "1\n")
    assert run(capsys, ["zf", "--atlas", "52"] + DATA_FLAGS)[:2] == (0, "4\n")
    assert run(capsys, ["cc", "--atlas", "38"] + DATA_FLAGS)[:2] == (0, "5\n")
    assert run(capsys, ["diam", "--atlas", "14"] + DATA_FLAGS)[:2] == (0, "3\n")
    code, _, err = run(capsys, ["diam", "--atlas", "2"] + DATA_FLAGS)
    assert code == 2 and "disconnected" in err


def test_table_small(capsys, small_data, tmp_path):
    out_path = tmp_path / "table.tsv"
    code, _, _ = run(capsys, [
        "table", "--atlas-file", small_data["atlas"], "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 53
    # deterministic: second run is byte-identical
    out2 = tmp_path / "table2.tsv"
    run(capsys, ["table", "--atlas-file", small_data["atlas"], "--out", str(out2)])
    assert out_path.read_bytes() == out2.read_bytes()


def test_table_json(capsys, small_data):
    code, out, _ = run(capsys, ["table", "--atlas-file", small_data["atlas"], "--json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 52
    assert rows[51]["atlas"] == 52 and rows[51]["mr_exact"] == 1


@pytest.mark.parametrize("command", ["table", "diff"])
@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1), "two"])
def test_jobs_out_of_range(capsys, monkeypatch, small_data, command, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run(capsys, [command, "--atlas-file", small_data["atlas"], "--jobs", jobs])
    assert code == 2 and out == ""
    assert "argument --jobs" in err
    assert f"got {jobs}" in err or f"got {jobs!r}" in err


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_table_jobs_two_builds_a_pool_and_matches_one(capsys, monkeypatch, small_data):
    # the pool that test_jobs_out_of_range patches is the one --jobs 2 builds
    built = []
    real_pool = multiprocessing.Pool

    def counted_pool(*args, **kwargs):
        built.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counted_pool)
    argv = ["table", "--atlas-file", small_data["atlas"]]
    code1, out1, _ = run(capsys, argv + ["--jobs", "1"])
    assert built == []
    code2, out2, _ = run(capsys, argv + ["--jobs", "2"])
    assert built == [(2,)]
    assert code1 == code2 == 0 and out1 == out2


def test_jobs_accepts_one_to_cpu_count():
    parser = cli.build_parser()
    for n in (1, os.cpu_count() or 1):
        assert parser.parse_args(["table", "--jobs", str(n)]).jobs == n
    assert parser.parse_args(["diff"]).jobs == 1


def test_readme_cli_examples_parse(monkeypatch):
    # every example in README's CLI block parses, and every command has one;
    # --jobs is bounded by the CPU count, so the host's count is not the README's
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    examples = [l.split("#", 1)[0] for l in block.splitlines() if l.startswith("minrank-atlas ")]
    assert examples
    parser = cli.build_parser()
    commands = set()
    for example in examples:
        try:
            args = parser.parse_args(shlex.split(example)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {example}")
        commands.add(args.command)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subparsers.choices)


def test_parser_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    # the shared parser keeps no state between runs
    assert run(capsys, ["zf", "--graph6", "A_"])[:2] == (0, "1\n")
    assert run(capsys, ["zf", "--graph6", "A_", "--atlas", "1"])[0] == 2
    assert run(capsys, ["cc", "--graph6", "Bw"])[:2] == (0, "1\n")


def test_diff_clean_subset(capsys, small_data):
    argv = ["diff", "--atlas-file", small_data["atlas"], "--fixtures", small_data["fixtures"]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == "# checked 52 rows: ok\n"
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    assert json.loads(out) == {"rows_checked": 52, "mismatches": [], "by_column": {}}


def test_diff_flags_fault(capsys, small_data, tmp_path):
    lines = open(small_data["fixtures"]).read().splitlines()
    # atlas 14 (P4): bump the transcribed zfs_lb from 3 to 4
    idx, col = None, FIXTURE_COLUMNS.index("zfs_lb")
    for i, line in enumerate(lines):
        f = line.split("\t")
        if f[0] == "14":
            f[col] = "4"
            lines[i] = "\t".join(f)
            idx = i
    assert idx is not None
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, [
        "diff", "--atlas-file", small_data["atlas"], "--fixtures", str(bad),
    ])
    assert code == 1
    flagged = [l for l in out.splitlines() if not l.startswith("#")]
    assert flagged == ["14\tzfs_lb\t4\t3"]


@pytest.mark.parametrize("token", ["+1", " 1", "1_0"], ids=["sign", "space", "underscore"])
def test_non_digit_atlas_cell_exits_2_with_line(capsys, small_data, tmp_path, token):
    # "+1" and " 1" must not read as atlas 1, nor "1_0" as atlas 10
    lines = open(small_data["fixtures"]).read().splitlines()
    assert lines[1].startswith("1\t")
    lines[1] = token + lines[1][1:]
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    for command in ("diff", "verify-witnesses"):
        code, out, err = run(capsys, [
            command, "--atlas-file", small_data["atlas"], "--fixtures", str(bad),
        ])
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:2: expected integer, got {token!r}\n"


@pytest.mark.parametrize(
    "command", ["diff", "verify-witnesses", "derive-forbidden", "bounds", "witnesses"]
)
def test_non_ascii_byte_names_the_line(capsys, small_data, tmp_path, data_dir, command):
    if command == "bounds":
        lines = (data_dir / "forbidden_mr2.g6").read_text().splitlines()
        lines[2] = "\u00e9" + lines[2][1:]
        argv, flag, ln = ["bounds", "--atlas", "5"], "--forbidden", 3
    elif command == "witnesses":
        lines = (data_dir / "witnesses.txt").read_text().splitlines()
        assert lines[4:6] == ["atlas 721", "n 7"]
        lines[6] = "\udcff" + lines[6]  # a raw 0xff byte before the first matrix token
        argv, flag, ln = ["verify-witnesses"], "--witnesses", 7
    else:
        lines = open(small_data["fixtures"]).read().splitlines()
        lines[1] = "\u0663" + lines[1][1:]  # ARABIC-INDIC DIGIT THREE as the atlas cell
        argv, flag, ln = [command], "--fixtures", 2
    bad = tmp_path / "bad"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    out_path = tmp_path / "fl.g6"
    if command == "derive-forbidden":
        argv += ["--out", str(out_path)]
    code, out, err = run(capsys, argv + ["--atlas-file", small_data["atlas"], flag, str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}:{ln}: "), err
    assert not out_path.exists()


def test_diff_counts_mismatches_by_column(capsys, small_data, tmp_path):
    lines = open(small_data["fixtures"]).read().splitlines()
    zfs, diam = FIXTURE_COLUMNS.index("zfs_lb"), FIXTURE_COLUMNS.index("diam_lb")
    for i, line in enumerate(lines):
        f = line.split("\t")
        if f[0] in ("14", "30"):  # two connected rows: both columns are set
            f[zfs] = str(int(f[zfs]) + 1)
            if f[0] == "30":
                f[diam] = str(int(f[diam]) + 1)
            lines[i] = "\t".join(f)
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    argv = ["diff", "--atlas-file", small_data["atlas"], "--fixtures", str(bad)]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out.splitlines()[-2:] == [
        "# mismatches by column: zfs_lb=2 diam_lb=1",
        "# checked 52 rows: 3 mismatches",
    ]
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 1
    assert json.loads(out)["by_column"] == {"zfs_lb": 2, "diam_lb": 1}


def test_diff_missing_file(capsys, small_data):
    code, _, err = run(capsys, [
        "diff", "--atlas-file", small_data["atlas"],
        "--fixtures", "no/such/file.tsv",
    ])
    assert code == 2 and "error" in err


def test_verify_witnesses_clean(capsys):
    code, out, _ = run(capsys, ["verify-witnesses"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 35
    assert all(l.split("\t")[2] == "pass" for l in lines)
    assert lines[0] == "721\t3\tpass"


def test_verify_witnesses_tampered(capsys, tmp_path, data_dir):
    text = (data_dir / "witnesses.txt").read_text()
    lines = text.splitlines()
    i = lines.index("atlas 721")
    row = lines[i + 2].split()
    row[4] = "0" if row[4] != "0" else "1"  # break symmetry
    lines[i + 2] = " ".join(row)
    bad = tmp_path / "w.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["verify-witnesses", "--witnesses", str(bad)])
    assert code == 1
    line721 = next(l for l in out.splitlines() if l.startswith("721\t"))
    assert "fail" in line721 and "symmetric" in line721


def test_verify_witnesses_unexpected_record(capsys, tmp_path, data_dir):
    text = (data_dir / "witnesses.txt").read_text()
    block = text[text.index("atlas 721"):]
    block = block[: block.index("\n\n") + 2]
    extra = block.replace("atlas 721", "atlas 558", 1)
    bad = tmp_path / "w.txt"
    bad.write_text(text + "\n" + extra)
    code, out, _ = run(capsys, ["verify-witnesses", "--witnesses", str(bad)])
    assert code == 1
    line558 = next(l for l in out.splitlines() if l.startswith("558\t"))
    assert "unexpected" in line558


def test_verify_witnesses_parse_error(capsys, tmp_path):
    bad = tmp_path / "w.txt"
    bad.write_text("atlas zzz\n")
    code, _, err = run(capsys, ["verify-witnesses", "--witnesses", str(bad)])
    assert code == 2 and err.startswith(f"error: {bad}:1: "), err


def test_comment_only_forbidden_list_exits_2(capsys, tmp_path):
    empty = tmp_path / "fl.g6"
    empty.write_text("# no patterns\n\n")
    code, out, err = run(capsys, ["bounds", "--atlas", "5", "--forbidden", str(empty)])
    assert (code, out) == (2, "")
    assert err == f"error: {empty}: forbidden list must be nonempty\n"


def test_derive_forbidden_idempotent(capsys, tmp_path, data_dir):
    out_path = tmp_path / "fl.g6"
    code, out, _ = run(capsys, ["derive-forbidden", "--out", str(out_path)])
    assert code == 0
    assert "5 patterns" in out
    assert out_path.read_bytes() == (data_dir / "forbidden_mr2.g6").read_bytes()


def test_derive_forbidden_gap_failure(capsys, tmp_path):
    header = "\t".join(FIXTURE_COLUMNS)
    row14 = "14\t4\t3\t3\tF\t3\t3\tT\t3\t3\t3\t\t\t\tT\tT\tT"
    fixtures = tmp_path / "only14.tsv"
    fixtures.write_text(header + "\n" + row14 + "\n")
    code, _, err = run(capsys, [
        "derive-forbidden", "--fixtures", str(fixtures),
        "--out", str(tmp_path / "fl.g6"),
    ])
    assert code == 1 and "candidate 14" in err


@pytest.fixture()
def short_atlas(tmp_path, data_dir):
    """First 100 atlas graphs, fewer than the reference rows and witnesses name."""
    lines = (data_dir / "atlas.g6").read_text().splitlines()[:100]
    path = tmp_path / "atlas100.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_verify_witnesses_short_atlas(capsys, short_atlas):
    code, out, err = run(capsys, ["verify-witnesses", "--atlas-file", short_atlas])
    assert code == 2 and "atlas 721" in err
    assert out == ""


def test_derive_forbidden_short_atlas(capsys, short_atlas, tmp_path):
    code, _, err = run(capsys, [
        "derive-forbidden", "--atlas-file", short_atlas,
        "--out", str(tmp_path / "fl.g6"),
    ])
    assert code == 2 and "atlas 101" in err
    assert not (tmp_path / "fl.g6").exists()


@pytest.mark.parametrize("command, number", [
    ("bounds", 101),            # the --atlas argument
    ("verify-witnesses", 721),  # the first certificate past the file
    ("derive-forbidden", 101),  # the first reference row past the file
])
def test_atlas_number_past_the_file_names_it(capsys, short_atlas, tmp_path, command, number):
    extra = {"bounds": ["--atlas", "101"], "derive-forbidden": ["--out", str(tmp_path / "fl.g6")]}
    code, out, err = run(capsys, [command, "--atlas-file", short_atlas] + extra.get(command, []))
    assert code == 2 and out == ""
    assert err == f"error: {short_atlas} has no atlas {number}: it holds atlas 1..100\n"


def test_derive_forbidden_atlas_missing_a_class(capsys, tmp_path, data_dir):
    # atlas 32 replaced by a copy of atlas 31: a one-vertex deletion of a
    # larger graph then has no corpus match
    lines = (data_dir / "atlas.g6").read_text().splitlines()
    lines[31] = lines[30]
    atlas = tmp_path / "dup.g6"
    atlas.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, [
        "derive-forbidden", "--atlas-file", str(atlas),
        "--out", str(tmp_path / "fl.g6"),
    ])
    assert code == 2 and out == ""
    assert "no corpus graph matches order 5 size 4" in err
    assert not (tmp_path / "fl.g6").exists()


def _atlas_copy(tmp_path, data_dir, edit):
    """The bundled atlas file with edit applied to its list of lines."""
    lines = (data_dir / "atlas.g6").read_text().splitlines()
    edit(lines)
    path = tmp_path / "atlas.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


ATLAS_COMMANDS = [
    ["bounds", "--atlas", "5"],
    ["zf", "--atlas", "5"],
    ["table"],
    ["diff"],
    ["verify-witnesses"],
    ["derive-forbidden"],
]


@pytest.mark.parametrize("argv", ATLAS_COMMANDS, ids=lambda a: a[0])
def test_blank_line_before_last_graph_is_an_error(capsys, tmp_path, data_dir, argv):
    # were it skipped, graph 5 by position (order 3, size 1) and by line
    # number (order 3, size 0) would differ
    path = _atlas_copy(tmp_path, data_dir, lambda lines: lines.insert(3, ""))
    extra = ["--out", str(tmp_path / "out")] if argv[0] == "derive-forbidden" else []
    code, out, err = run(capsys, argv + ["--atlas-file", path] + extra)
    assert code == 2 and out == ""
    assert f"{path}:4: blank line before the last graph" in err


def test_blank_lines_after_last_graph_are_allowed(capsys, tmp_path, data_dir):
    path = _atlas_copy(tmp_path, data_dir, lambda lines: lines.extend(["", "  ", ""]))
    code, out, _ = run(capsys, ["bounds", "--atlas", "1252", "--atlas-file", path])
    assert code == 0 and out.startswith("1252\t7\t21\t")
    code, out, _ = run(capsys, ["verify-witnesses", "--atlas-file", path])
    assert code == 0 and len(out.splitlines()) == 35


MALFORMED_900 = {
    "out-of-range byte": ("F~ oO", "byte 32 outside graph6 range 63..126 (byte offset 2)"),
    "nonzero padding bit": ("F~XoP", "nonzero padding bit (byte offset 4)"),
    "truncated payload": ("F~Xo", "payload too short: need 4 bytes for order 7 (byte offset 4)"),
}


@pytest.mark.parametrize("argv", [["bounds", "--atlas", "1"], ["verify-witnesses"]],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("fault", sorted(MALFORMED_900))
def test_every_atlas_line_is_validated(capsys, tmp_path, data_dir, argv, fault):
    # line 1 alone is decoded for `bounds --atlas 1`, and line 900 is
    # certified by no witness: the error comes from validation alone
    line, message = MALFORMED_900[fault]

    def edit(lines):
        assert lines[899] == "F~XoO"
        lines[899] = line

    path = _atlas_copy(tmp_path, data_dir, edit)
    code, out, err = run(capsys, argv + ["--atlas-file", path])
    assert code == 2 and out == ""
    assert err == f"error: {path}:900: {message}\n"


def test_non_ascii_atlas_byte_names_the_line(capsys, tmp_path, data_dir):
    path = _atlas_copy(tmp_path, data_dir, lambda lines: lines.__setitem__(9, "Cé"))
    code, out, err = run(capsys, ["bounds", "--atlas", "1", "--atlas-file", path])
    assert code == 2 and out == ""
    assert f"{path}:10: non-ASCII character" in err and "offset 1" in err


def test_bounds_by_atlas_number_matches_table_rows(capsys, computed_table):
    computed, _ = computed_table
    for a in [*range(1, 1253, 25), 1252]:
        code, out, _ = run(capsys, ["bounds", "--atlas", str(a)])
        assert code == 0
        assert out == "\t".join(catalog.bounds_row_fields(str(a), computed[a])) + "\n"


COLD_START = """
import sys
before = set(sys.modules)
from minrank_atlas import cli
for argv in (["bounds", "--atlas", "1"], ["bounds", "--graph6", "DqK"]):
    assert cli.main(argv) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_bounds_cold_start_skips_unused_imports():
    # a fresh interpreter: the modules this process imported do not count
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.splitlines()[-1].split())
    assert "minrank_atlas.bounds" in imported
    assert not imported & {"multiprocessing", "fractions", "decimal", "json",
                           "dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("command", ["bounds", "zf"])
def test_atlas_zero_is_out_of_range(capsys, command):
    code, out, err = run(capsys, [command, "--atlas", "0"] + DATA_FLAGS)
    assert code == 2 and out == ""
    assert "data/atlas.g6 has no atlas 0: it holds atlas 1..1252" in err


def test_witness_for_atlas_zero_has_no_graph(capsys, tmp_path, data_dir):
    # atlas 0 passes the witness parser once the reference table names it
    fixture_lines = (data_dir / "table1.tsv").read_text().splitlines()
    row1 = next(l for l in fixture_lines if l.startswith("1\t"))
    fixtures = tmp_path / "t.tsv"
    fixtures.write_text("\n".join(fixture_lines + ["0" + row1[1:]]) + "\n")
    witnesses = tmp_path / "w.txt"
    witnesses.write_text("atlas 0\nn 1\n0\n")
    code, out, err = run(capsys, ["verify-witnesses", "--fixtures", str(fixtures),
                                  "--witnesses", str(witnesses)])
    assert code == 2 and out == ""
    assert "data/atlas.g6 has no atlas 0: it holds atlas 1..1252" in err


TABLE_SHA256 = {
    "tsv": "9b29ebf3c819b1d1b81199452c1e0785382f788e2e379ce8830e006ec5c5bc9b",
    "json": "aaf4b31698964d037e20abc7e7dde8b44f444503018c9c5d310a21e5854510d2",
}


@pytest.mark.parametrize("form", ["tsv", "json"])
def test_table_bytes_are_pinned(capsys, monkeypatch, tmp_path, computed_table, form):
    # the session's rows through the command's own rendering: any changed
    # cell, column name or ordering moves the hash
    computed, _ = computed_table
    monkeypatch.setattr(catalog, "compute_all", lambda corpus, forbidden, jobs: computed)
    out = tmp_path / "table"
    argv = ["table", "--out", str(out)] + (["--json"] if form == "json" else [])
    assert run(capsys, argv)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_SHA256[form]


def _count_calls(monkeypatch, module, name) -> list:
    """Patch module.name to record one item per call; return the record."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(None) or real(*a, **kw))
    return calls


def test_no_result_outlives_a_diff(capsys, monkeypatch):
    # each command combines the 996 connected classes once, and a second
    # command in the same process starts again from nothing
    calls = _count_calls(monkeypatch, bounds, "zero_forcing_number")
    for _ in range(2):
        calls.clear()
        code, out, _ = run(capsys, ["diff"])
        assert code == 0 and out.endswith("# checked 1162 rows: ok\n")
        assert len(calls) == 996


def test_no_lookup_outlives_a_derivation(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, graphs, "contains_induced")
    counts = []
    for _ in range(2):
        calls.clear()
        assert run(capsys, ["derive-forbidden", "--out", str(tmp_path / "fl.g6")])[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
