from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import pytest

from minrank_atlas import bounds, catalog, graphs, witness

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def atlas_corpus():
    """Item k - 1 is atlas graph k."""
    return catalog.load_atlas(DATA / "atlas.g6")


@pytest.fixture(scope="session")
def atlas_graphs(atlas_corpus):
    return dict(enumerate(atlas_corpus, 1))


@pytest.fixture(scope="session")
def fixture_rows():
    return catalog.load_fixtures(DATA / "table1.tsv")


@pytest.fixture(scope="session")
def fixtures_by_atlas(fixture_rows):
    return {f.atlas_number: f for f in fixture_rows}


@pytest.fixture(scope="session")
def forbidden():
    return bounds.read_forbidden_list(DATA / "forbidden_mr2.g6")


@pytest.fixture(scope="session")
def computed_table(atlas_corpus, forbidden):
    """Full-corpus bounds rows plus the wall time the run took."""
    t0 = time.monotonic()
    rows = catalog.compute_all(atlas_corpus, forbidden)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="session")
def witness_records():
    return witness.parse_witness_file(DATA / "witnesses.txt")


@pytest.fixture
def lookup_counts(monkeypatch):
    """Counts, while the test runs, of "lookups" (AtlasIndex.atlas_number
    calls), "confirmations" (the contains_induced searches a lookup runs)
    and "contains_induced" (every call, from anywhere)."""
    counts = Counter()
    depth = [0]  # lookups in progress
    search = graphs.contains_induced
    lookup = bounds.AtlasIndex.atlas_number

    def counted_search(g, pattern):
        counts["contains_induced"] += 1
        if depth[0]:
            counts["confirmations"] += 1
        return search(g, pattern)

    def counted_lookup(self, h):
        counts["lookups"] += 1
        depth[0] += 1
        try:
            return lookup(self, h)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(graphs, "contains_induced", counted_search)
    monkeypatch.setattr(bounds.AtlasIndex, "atlas_number", counted_lookup)
    return counts
