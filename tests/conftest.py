from __future__ import annotations

import time
from pathlib import Path

import pytest

from minrank_atlas import bounds, catalog, witness

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
