"""Acceptance suite: each criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
check quantifies over the transcribed reference rows (atlas 181-240 and
331-360 are not in the excerpt and are out of scope).
"""

import random
import sys
import time

from minrank_atlas import bounds, catalog, graphs, minors, witness
from minrank_atlas.graph6 import from_graph6, to_graph6
from minrank_atlas.ratmat import rank
from minrank_atlas.witness import KNOWN_UNWITNESSED, verify_witness

from oracles import gauss_jordan_rank, is_triangle_free, random_graph
from test_minors import grid
from test_witness import TABLE2_ATLAS


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def test_criterion_1_corpus_integrity(atlas_entries, fixture_rows):
    t0 = time.monotonic()
    mismatches = catalog.corpus_integrity_mismatches(atlas_entries, fixture_rows)
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 1.0
    report(
        "1 corpus-integrity",
        ok,
        f"{len(fixture_rows)} rows, {len(mismatches)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_column_reproduction(computed_table, fixture_rows):
    computed, elapsed = computed_table
    bad = []
    cols = ("zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub", "cv", "tree")
    for f in fixture_rows:
        c = computed[f.atlas_number]
        if c.con != f.con:
            bad.append((f.atlas_number, "con"))
            continue
        if c.lb != f.lb:
            bad.append((f.atlas_number, "lb"))
        if f.con:
            for col in cols:
                if getattr(c, col) != getattr(f, col):
                    bad.append((f.atlas_number, col))
            if c.is_flag != f.is_flag:
                bad.append((f.atlas_number, "is"))
            if c.lb != max(
                c.zfs_lb, c.diam_lb, 3 if c.is_flag else 0
            ):
                bad.append((f.atlas_number, "lb-rule"))
    ok = not bad and elapsed < 60.0
    report(
        "2 column-reproduction",
        ok,
        f"{len(fixture_rows)} rows, {len(bad)} mismatches, full run {elapsed:.1f}s",
    )


def test_criterion_3_ub_bracket_and_trees(computed_table, fixture_rows, atlas_graphs):
    computed, _ = computed_table
    bad = []
    tree_rows = 0
    for f in fixture_rows:
        c = computed[f.atlas_number]
        if c.ub < f.ub or not c.lb <= f.mr <= c.ub:
            bad.append((f.atlas_number, "bracket"))
        if f.con and f.tree:
            tree_rows += 1
            if bounds.tree_minimum_rank(atlas_graphs[f.atlas_number]) != f.mr:
                bad.append((f.atlas_number, "tree"))
    spot = (
        bounds.tree_minimum_rank(atlas_graphs[29]) == 2
        and bounds.tree_minimum_rank(atlas_graphs[286]) == 6
    )
    ok = not bad and spot and tree_rows > 0
    report("3 ub-bracket-and-trees", ok, f"{tree_rows} tree rows, {len(bad)} violations")


def test_criterion_4_disconnected_additivity(fixture_rows, atlas_graphs, forbidden):
    bad = []
    sums = {}
    disconnected = 0
    for f in fixture_rows:
        if f.con:
            continue
        disconnected += 1
        g = atlas_graphs[f.atlas_number]
        parts = [
            bounds.combine(graphs.induced_subgraph(g, c), forbidden)
            for c in graphs.components(g)
        ]
        if any(p.mr_exact is None for p in parts):
            continue  # a component needs the out-of-scope cut-vertex reduction
        sums[f.atlas_number] = sum(p.mr_exact for p in parts)
        if sums[f.atlas_number] != f.mr:
            bad.append(f.atlas_number)
    spot_ok = sums.get(2) == 0 and sums.get(5) == 1 and sums.get(10) == 2
    ok = not bad and spot_ok and len(sums) > 200
    report(
        "4 disconnected-additivity",
        ok,
        f"{len(sums)}/{disconnected} disconnected rows exactly resolved, {len(bad)} violations",
    )


def test_criterion_5_witness_suite(witness_records, atlas_graphs, fixtures_by_atlas):
    t0 = time.monotonic()
    failures = []
    for rec in witness_records:
        rep = verify_witness(rec, atlas_graphs[rec.atlas_number])
        if not rep.passed:
            failures.append(rec.atlas_number)
        if rep.rank_found != fixtures_by_atlas[rec.atlas_number].lb:
            failures.append(rec.atlas_number)
    elapsed = time.monotonic() - t0
    ok = not failures and len(witness_records) == 35 and elapsed < 1.0
    report(
        "5 witness-suite",
        ok,
        f"{len(witness_records)} certificates, {len(failures)} failures, {elapsed:.2f}s",
    )


def test_criterion_6_exclusion_list(witness_records, fixture_rows):
    present = {r.atlas_number for r in witness_records}
    undecided = {f.atlas_number for f in fixture_rows if f.lb != f.ub}
    ok = (
        present == set(TABLE2_ATLAS)
        and not present & KNOWN_UNWITNESSED
        and undecided - present == KNOWN_UNWITNESSED
    )
    report(
        "6 exclusion-list",
        ok,
        f"{len(present)} certificates; excluded {sorted(KNOWN_UNWITNESSED)}",
    )


def test_criterion_7_is_semantics(computed_table, fixture_rows):
    computed, _ = computed_table
    bad = [
        f.atlas_number
        for f in fixture_rows
        if f.con and computed[f.atlas_number].is_flag != (f.mr >= 3)
    ]
    connected = sum(1 for f in fixture_rows if f.con)
    report(
        "7 is-semantics",
        not bad,
        f"{connected} connected rows, {len(bad)} violations",
    )


def test_criterion_8_oracle_properties(atlas_entries):
    from fractions import Fraction

    from minrank_atlas.ratmat import RationalMatrix

    violations = []
    rng = random.Random(20260810)

    pool = [Fraction(k) for k in range(-2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(200):
        n = rng.randint(1, 7)
        m = RationalMatrix(
            tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
        )
        if rank(m) != gauss_jordan_rank(m.rows):
            violations.append("rank")

    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        s = rng.randrange(1 << g.order)
        t = rng.randrange(1 << g.order)
        cs = bounds.zf_closure(g, s)
        if cs & s != s or bounds.zf_closure(g, cs) != cs:
            violations.append("closure")
        if bounds.zf_closure(g, s | t) & cs != cs:
            violations.append("closure-monotone")

    for e in atlas_entries:
        if from_graph6(to_graph6(e.graph)) != e.graph:
            violations.append(f"g6-corpus-{e.atlas_number}")
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        if from_graph6(to_graph6(g)) != g:
            violations.append("g6-random")

    done = 0
    while done < 100:
        g = random_graph(rng, rng.randint(1, 7), 0.35)
        if not is_triangle_free(g):
            continue
        done += 1
        if bounds.clique_cover_number(g) != g.size():
            violations.append("cc-triangle-free")

    report("8 oracle-properties", not violations, f"{len(violations)} violations")


def test_criterion_9_grid_planarity():
    times = []
    ok = True
    for rows, cols in ((3, 5), (8, 8)):
        g = grid(rows, cols)
        t0 = time.monotonic()
        ok &= minors.is_planar(g)
        elapsed = time.monotonic() - t0
        ok &= elapsed < 1.0
        times.append(f"{rows}x{cols} {elapsed * 1e3:.1f}ms")
    report("9 grid-planarity", ok, ", ".join(times))
