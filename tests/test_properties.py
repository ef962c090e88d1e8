"""Property tests: Graph accepts and rejects exactly as the row-and-pair
rule of oracles.graph_fault, the bound columns are graph invariants, the
graph6 reader fails only with its own error, an AtlasIndex lookup finds
a graph networkx calls isomorphic, and a malformed witness block is
reported at its path:line.  Derandomized, so every run draws
the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minrank_atlas.bounds import AtlasIndex, combine
from minrank_atlas.graph6 import Graph6Error, from_graph6
from minrank_atlas.graphs import Graph
from minrank_atlas.witness import parse_witness_file

from oracles import graph_fault, relabel, to_networkx

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

CORRUPTIONS = ("none", "one-sided edge", "loop", "bit past column n", "negative row", "row count")


@st.composite
def adjacency_case(draw):
    """A valid adjacency tuple of order 1..64, most often at the edges of
    the 8/16/32/64-bit row fields, with at most one corruption."""
    n = draw(st.one_of(st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64]), st.integers(1, 64)))
    upper = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    rows = [0] * n
    for i, j in ((i, j) for j in range(1, n) for i in range(j)):
        if upper & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        upper >>= 1
    kind = draw(st.sampled_from(CORRUPTIONS))
    v = draw(st.integers(0, n - 1))
    if kind == "one-sided edge" and n > 1:
        rows[v] ^= 1 << draw(st.integers(0, n - 1).filter(lambda u: u != v))
    elif kind == "loop":
        rows[v] |= 1 << v
    elif kind == "bit past column n":
        rows[v] |= 1 << draw(st.one_of(st.integers(n, 64), st.integers(n, 2 * n + 70)))
    elif kind == "negative row":
        rows[v] = ~rows[v]
    elif kind == "row count":
        rows = rows[:-1] if draw(st.booleans()) else rows + [0]
    return n, tuple(rows)


@settings(PROPERTY, max_examples=300)
@given(adjacency_case())
def test_graph_validates_as_the_oracle(case):
    n, adj = case
    expected = graph_fault(n, adj)
    if expected is None:
        assert Graph(n, adj).adj == adj
    else:
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == expected


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


@pytest.fixture(scope="module")
def indexed_atlas(atlas_corpus):
    """An AtlasIndex over the atlas, and networkx's own copy of the atlas."""
    nx = pytest.importorskip("networkx")
    return AtlasIndex(atlas_corpus), nx.graph_atlas_g()


@PROPERTY
@given(graph_and_permutation().filter(lambda case: case[0].order <= 6))
def test_atlas_index_finds_an_isomorphic_atlas_graph(indexed_atlas, case):
    nx = pytest.importorskip("networkx")
    index, reference = indexed_atlas
    g, perm = case
    a = index.atlas_number(relabel(g, perm))
    assert nx.is_isomorphic(to_networkx(g), reference[a])


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


NUMBERS = (3, 7, 11, 52)  # atlas numbers of the blocks
TOKENS = ["0", "1", "-2", "3/5", "-7/3"]
FAULTS = ("atlas header", "duplicate atlas", "n header", "row width", "bad token", "short block")


@st.composite
def witness_file_with_fault(draw):
    """The lines of a witness file whose blocks are valid but one, with
    '#' comments inside blocks and noise between them, and the 1-based
    number of the line that the first fault is on."""
    fault = draw(st.sampled_from(FAULTS))
    duplicate = fault == "duplicate atlas"
    numbers = draw(st.lists(st.sampled_from(NUMBERS), min_size=1 + duplicate, max_size=3, unique=True))
    bad = draw(st.integers(int(duplicate), len(numbers) - 1))
    lines: list[str] = []
    comments = st.lists(st.just("# note"), max_size=1)
    where = None
    for b, a in enumerate(numbers):
        lines += draw(st.lists(st.sampled_from(["", " ", "# between"]), max_size=2))
        faulty = b == bad
        if faulty and fault in ("atlas header", "duplicate atlas"):
            where = len(lines) + 1
            a = numbers[0] if duplicate else a
        header = f"atlas {a}"
        if faulty and fault == "atlas header":
            header = draw(st.sampled_from([f"atlas {a} x", f"atlas -{a}", f"atlus {a}", "atlas", f"atlas {a}/1", "atlas ٣"]))
        lines += [header] + draw(comments)
        d = draw(st.integers(1, 4))
        size = f"n {d}"
        if faulty and fault == "n header":
            where = len(lines) + 1
            size = draw(st.sampled_from([f"n {d} {d}", "n x", f"m {d}", "n -1", "n 0", ""]))
        lines.append(size)
        kept = draw(st.integers(0, d - 1)) if faulty and fault == "short block" else d
        broken = draw(st.integers(0, d - 1))
        for r in range(kept):
            lines += draw(comments)
            row = [draw(st.sampled_from(TOKENS)) for _ in range(d)]
            if faulty and r == broken and fault == "row width":
                where = len(lines) + 1
                row = row[1:] if draw(st.booleans()) else row + ["0"]
            elif faulty and r == broken and fault == "bad token":
                where = len(lines) + 1
                row[draw(st.integers(0, d - 1))] = draw(st.sampled_from(["1/0", "x", "1.5", "--1", "٣", "+"]))
            lines.append(" ".join(row))
        if faulty and fault == "short block":
            lines += draw(comments)
            where = len(lines) + 1
            lines.append("")
    return lines, where


@PROPERTY
@given(witness_file_with_fault())
def test_malformed_witness_block_names_its_line(tmp_path_factory, case):
    lines, where = case
    path = tmp_path_factory.getbasetemp() / "malformed_witnesses.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        parse_witness_file(path)
    assert str(exc.value).startswith(f"{path}:{where}: "), (lines, str(exc.value))
