import json
import os
from pathlib import Path

import pytest

from minrank_atlas import catalog, cli
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

    monkeypatch.setattr(catalog, "Pool", no_pool)
    code, out, err = run(capsys, [command, "--atlas-file", small_data["atlas"], "--jobs", jobs])
    assert code == 2 and out == ""
    assert "argument --jobs" in err
    assert f"got {jobs}" in err or f"got {jobs!r}" in err


def test_jobs_accepts_one_to_cpu_count():
    parser = cli.build_parser()
    for n in (1, os.cpu_count() or 1):
        assert parser.parse_args(["table", "--jobs", str(n)]).jobs == n
    assert parser.parse_args(["diff"]).jobs == 1


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
    assert code == 2 and "line 1" in err


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
