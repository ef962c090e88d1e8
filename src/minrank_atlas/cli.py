"""Command-line front end for reproducible batch runs.

Commands: bounds, table, diff, verify-witnesses, derive-forbidden, and
the single-value helpers zf, cc, diam.  Exit status: 0 success,
1 verification or diff failure, 2 usage or I/O error.  Data paths
default to ./data and are overridable per run; there is no environment
configuration.  _emit writes every output file, whole: its text is
built before the file is opened, so a command that fails leaves --out
as it was.  verify-witnesses reads no reference table: each certificate
must reach rank n - Z of its atlas graph.
"""

from __future__ import annotations

import argparse
import functools
import sys

from minrank_atlas import bounds, catalog, graphs, witness
from minrank_atlas.graph6 import decode_graph6, from_graph6, to_graph6

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_ATLAS = "data/atlas.g6"
DEFAULT_FIXTURES = "data/table1.tsv"
DEFAULT_WITNESSES = "data/witnesses.txt"
DEFAULT_FORBIDDEN = "data/forbidden_mr2.g6"


def _add_data_flags(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "atlas": ("--atlas-file", DEFAULT_ATLAS),
        "fixtures": ("--fixtures", DEFAULT_FIXTURES),
        "witnesses": ("--witnesses", DEFAULT_WITNESSES),
        "forbidden": ("--forbidden", DEFAULT_FORBIDDEN),
    }
    for name in names:
        flag, default = flags[name]
        p.add_argument(flag, default=default, metavar="PATH")


def _add_target_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--atlas", type=int, metavar="N", help="atlas number")
    grp.add_argument("--graph6", metavar="G6", help="graph6 string")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    top = argparse.ArgumentParser(
        prog="minrank-atlas",
        description="Minimum-rank bound tables and certificate checks for the small-graph atlas.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="bound row for one graph")
    _add_target_flags(p)
    _add_data_flags(p, "atlas", "forbidden")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("table", help="computed rows for the whole corpus")
    _add_data_flags(p, "atlas", "forbidden")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("diff", help="computed table against the transcribed reference")
    _add_data_flags(p, "atlas", "fixtures", "forbidden")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_diff)

    p = sub.add_parser("verify-witnesses", help="check the optimal-matrix certificates")
    _add_data_flags(p, "atlas", "witnesses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_verify_witnesses)

    p = sub.add_parser("derive-forbidden", help="recompute the forbidden-subgraph family")
    _add_data_flags(p, "atlas", "fixtures")
    p.add_argument("--out", default=DEFAULT_FORBIDDEN, metavar="PATH")
    p.set_defaults(run=cmd_derive_forbidden)

    for name, help_text, kernel in (
        ("zf", "zero forcing number", (bounds, "zero_forcing_number")),
        ("cc", "clique cover number", (bounds, "clique_cover_number")),
        ("diam", "diameter", (graphs, "diameter")),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_target_flags(p)
        _add_data_flags(p, "atlas")
        p.set_defaults(run=cmd_single_value, kernel=kernel)
    return top


def _load_target(args) -> graphs.Graph:
    if args.graph6 is not None:
        return from_graph6(args.graph6)
    lines = catalog.read_atlas(args.atlas_file)
    catalog.check_atlas_number(args.atlas, len(lines), args.atlas_file)
    return decode_graph6(lines[args.atlas - 1])


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _json_line(payload) -> str:
    import json  # only --json output needs it

    return json.dumps(payload) + "\n"


def cmd_bounds(args) -> int:
    g = _load_target(args)
    row = bounds.combine(g, bounds.read_forbidden_list(args.forbidden))
    label = str(args.atlas) if args.graph6 is None else "-"
    if args.json:  # args.atlas is None under --graph6
        sys.stdout.write(_json_line(catalog.bounds_row_dict(args.atlas, row)))
    else:
        print("\t".join(catalog.bounds_row_fields(label, row)))
    return EXIT_OK


def cmd_table(args) -> int:
    corpus = catalog.load_atlas(args.atlas_file)
    forbidden = bounds.read_forbidden_list(args.forbidden)
    computed = catalog.compute_all(corpus, forbidden)
    if args.json:
        payload = [catalog.bounds_row_dict(a, computed[a]) for a in sorted(computed)]
        _emit(_json_line(payload), args.out)
    else:
        _emit("".join(line + "\n" for line in catalog.table_lines(computed)), args.out)
    return EXIT_OK


def cmd_diff(args) -> int:
    corpus = catalog.load_atlas(args.atlas_file)
    fixtures = catalog.load_fixtures(args.fixtures)
    for f in fixtures:
        catalog.check_atlas_number(f.atlas_number, len(corpus), args.atlas_file)
    forbidden = bounds.read_forbidden_list(args.forbidden)
    computed = catalog.compute_all(corpus, forbidden)
    report = catalog.diff(fixtures, computed)
    if args.json:
        sys.stdout.write(_json_line({
            "rows_checked": report.rows_checked,
            "mismatches": [
                {"atlas": m.atlas_number, "column": m.column,
                 "expected": str(m.expected), "computed": str(m.computed)}
                for m in report.mismatches
            ],
            "by_column": report.by_column(),
        }))
        return EXIT_OK if report.ok else EXIT_FAIL
    for m in report.mismatches:
        print(f"{m.atlas_number}\t{m.column}\t{m.expected}\t{m.computed}")
    if not report.ok:
        counts = " ".join(f"{col}={n}" for col, n in report.by_column().items())
        print(f"# mismatches by column: {counts}")
    status = "ok" if report.ok else f"{len(report.mismatches)} mismatches"
    print(f"# checked {report.rows_checked} rows: {status}")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_verify_witnesses(args) -> int:
    lines = catalog.read_atlas(args.atlas_file)
    records = witness.parse_witness_file(args.witnesses)
    reports = []
    for rec in sorted(records, key=lambda r: r.atlas_number):
        catalog.check_atlas_number(rec.atlas_number, len(lines), args.atlas_file)
        reports.append(witness.verify_witness(rec, decode_graph6(lines[rec.atlas_number - 1])))
    if args.json:
        sys.stdout.write(_json_line([
            {"atlas": r.atlas_number, "rank": r.rank_found, "passed": r.passed, "reasons": r.reasons}
            for r in reports
        ]))
    else:
        for r in reports:
            verdict = "pass" if r.passed else "fail(" + ",".join(r.reasons) + ")"
            print(f"{r.atlas_number}\t{r.rank_found}\t{verdict}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_derive_forbidden(args) -> int:
    corpus = catalog.load_atlas(args.atlas_file)
    fixtures = catalog.load_fixtures(args.fixtures)
    mr_by_atlas = {f.atlas_number: f.mr for f in fixtures}
    for a in mr_by_atlas:
        catalog.check_atlas_number(a, len(corpus), args.atlas_file)
    if not any(mr >= 3 for mr in mr_by_atlas.values()):
        raise ValueError(f"{args.fixtures}: forbidden list must be nonempty: no row has mr >= 3")
    try:
        derived = bounds.derive_forbidden_list(corpus, mr_by_atlas)
    except bounds.ForbiddenDerivationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    except LookupError as exc:  # the atlas file lacks the class of a gap's deletion
        raise ValueError(f"{args.atlas_file}: {exc}") from None
    _emit("".join(to_graph6(p) + "\n" for p in derived.patterns), args.out)
    orders = ",".join(str(p.order) for p in derived.patterns)
    print(f"wrote {len(derived.patterns)} patterns (orders {orders}) to {args.out}")
    return EXIT_OK


def cmd_single_value(args) -> int:
    g = _load_target(args)
    # the kernel is read off its module at call time, so a wrapper
    # installed there (a tracer, a monkeypatch) sees the call
    module, name = args.kernel
    print(getattr(module, name)(g))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
