"""Property tests: the bound columns are graph invariants, and the graph6
reader fails only with its own error.  Derandomized, so every run draws
the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minrank_atlas.bounds import combine
from minrank_atlas.graph6 import Graph6Error, from_graph6
from minrank_atlas.graphs import Graph

from oracles import relabel

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@st.composite
def graph_and_permutation(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges), perm


@PROPERTY
@given(graph_and_permutation())
def test_every_column_is_invariant_under_relabelling(forbidden, case):
    g, perm = case
    assert combine(relabel(g, perm), forbidden) == combine(g, forbidden)


GRAPH6_BYTES = [chr(c) for c in range(63, 127)]


@st.composite
def near_graph6(draw):
    """A size byte for order 0..14 and about the payload that order needs:
    most draws reach the padding and decoding steps."""
    n = draw(st.integers(0, 14))
    need = (n * (n - 1) // 2 + 5) // 6
    length = max(draw(st.sampled_from([need, need, need - 1, need + 1])), 0)
    return chr(63 + n) + draw(st.text(alphabet=GRAPH6_BYTES, min_size=length, max_size=length))


@settings(PROPERTY, max_examples=400)
@given(st.one_of(
    st.text(max_size=40),
    st.text(alphabet=GRAPH6_BYTES + ["\n", "\r", " ", "\x80", "٣"], max_size=40),
    near_graph6(),
))
def test_graph6_reader_raises_only_its_own_error(text):
    try:
        g = from_graph6(text)
    except Graph6Error:
        return
    assert isinstance(g, Graph)
