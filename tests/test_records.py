"""The record types' contract: fields, equality, hashing, immutability,
validation and pickling.  The records are public immutable values, so
copy and pickle must round-trip them, a Graph through its validating
constructor."""

import pickle

import pytest

from minrank_atlas.bounds import BoundsRow, combine
from minrank_atlas.graphs import Graph

from oracles import cycle, path

ROW = dict(order=2, size=1, con=True, zfs_lb=1, diam_lb=1, cc_ub=1,
           np_ub=None, nop_ub=None, path_ub=None, is_flag=False,
           cv=False, tree=True, lb=1, ub=1, mr_exact=1)


@pytest.mark.parametrize("make", [
    lambda fb: path(5),
    lambda fb: fb,
    lambda fb: combine(cycle(5), fb),
    lambda fb: combine(Graph.from_edges(4, [(0, 1), (2, 3)]), fb),
])
def test_pickle_round_trip(forbidden, make):
    value = make(forbidden)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)


def test_a_graph_unpickles_through_its_validating_constructor():
    assert path(3).__reduce__() == (Graph, (3, (2, 5, 2)))


def test_graph_fields_are_read_only():
    g = path(3)
    for name in ("order", "adj", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.order, g.adj) == (3, (2, 5, 2))


def test_graph_equality_hash_and_repr():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = path(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, cycle(3)}) == 2
    assert a != Graph(3, (0, 0, 0)) and a != (3, (2, 5, 2))
    assert repr(a) == "Graph(order=3, adj=(2, 5, 2))"


def test_bounds_row_fields_and_validation():
    row = BoundsRow(**ROW)
    assert BoundsRow._fields == tuple(ROW)
    assert BoundsRow(*ROW.values()) == row and hash(BoundsRow(**ROW)) == hash(row)
    with pytest.raises(AttributeError):
        row.lb = 0
    bad = [
        dict(ub=2, mr_exact=3),  # mr_exact outside [lb, ub]
        dict(ub=2, mr_exact=0),
        dict(is_flag=None),  # connected row missing a column
    ]
    for change in bad:
        with pytest.raises(ValueError):
            BoundsRow(**{**ROW, **change})
    # the connected-only rule, column by column
    for col in ("zfs_lb", "diam_lb", "cc_ub", "is_flag"):
        with pytest.raises(ValueError, match="^connected row missing an unconditional column$"):
            BoundsRow(**{**ROW, col: None})
    disconnected = {**ROW, "con": False, "zfs_lb": None, "diam_lb": None, "cc_ub": None,
                    "is_flag": None}
    BoundsRow(**disconnected)
    for col in ("zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub", "path_ub", "is_flag"):
        with pytest.raises(ValueError, match="^disconnected row carries a connected-only column$"):
            BoundsRow(**{**disconnected, col: 0})
