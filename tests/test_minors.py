import random

import pytest

from minrank_atlas import minors
from minrank_atlas.graphs import Graph, is_connected
from minrank_atlas.minors import K4, K23, has_minor, is_outerplanar, is_planar

from oracles import K5, K33, brute_has_minor, random_graph, relabel


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_has_minor_basics():
    assert has_minor(K5, K5)
    assert has_minor(K33, K33)
    assert not has_minor(Graph.cycle(5), K4)
    assert has_minor(Graph.complete(7), K5)
    assert has_minor(Graph.cycle(4), Graph.cycle(3))  # contraction needed
    assert not has_minor(Graph.path(7), Graph.cycle(3))


def contract_by_edge_list(g: Graph, u: int, v: int) -> Graph:
    """g with v renamed u, loops and repeated edges dropped, and the
    labels above v shifted down by one."""
    def new(x: int) -> int:
        x = u if x == v else x
        return x - (x > v)

    edges = {frozenset((new(a), new(b))) for a, b in g.edges()}
    return Graph.from_edges(g.order - 1, [tuple(e) for e in edges if len(e) == 2])


def test_contract_against_edge_list_construction():
    rng = random.Random(43)
    contracted = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        for i, j in g.edges():
            for u, v in ((i, j), (j, i)):
                got = minors._contract(g, u, v)
                assert got == contract_by_edge_list(g, u, v), (g, u, v)
                contracted += 1
    assert contracted >= 3000


def test_petersen_minors():
    p = petersen()
    assert has_minor(p, K5)
    assert not is_planar(p)


def test_brute_force_agreement():
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 6), 0.5)
        for h in (K4, K23):
            assert has_minor(g, h) == brute_has_minor(g, h), (g, h)
    for _ in range(10):
        g = random_graph(rng, 6, 0.7)
        for h in (K5, K33):
            assert has_minor(g, h) == brute_has_minor(g, h), (g, h)


def test_planarity_classics():
    assert not is_planar(K5)
    assert not is_planar(K33)
    assert is_planar(K4)
    assert is_planar(Graph.cycle(7))
    assert is_planar(Graph.complete_bipartite(2, 5))
    # K5 minus an edge and K3,3 minus an edge are planar
    k5e = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)])
    assert is_planar(k5e)


def test_outerplanarity_classics():
    assert not is_outerplanar(K4)
    assert not is_outerplanar(K23)
    assert is_outerplanar(Graph.cycle(6))
    assert is_outerplanar(Graph.path(7))
    assert is_outerplanar(Graph.complete(3))
    wheel4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
    assert not is_outerplanar(wheel4)
    assert is_planar(wheel4)


def test_planarity_properties_random():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        planar = is_planar(g)
        if is_outerplanar(g):
            assert planar
        n, m = g.order, g.size()
        if n >= 3 and m > 3 * n - 6:
            assert not planar
        if m <= 8:
            # K5 needs 10 edges, K3,3 needs 9, minors only lose edges
            assert planar


def whole_graph_search(g: Graph) -> tuple[bool, bool]:
    """(planar, outerplanar) by the minor search on all of g, no reductions."""
    planar = not has_minor(g, K5) and not has_minor(g, K33)
    outerplanar = not has_minor(g, K4) and not has_minor(g, K23)
    return planar, outerplanar


def no_search(g, h):
    raise AssertionError("has_minor called")


def agree_with_whole_graph_search(cases, monkeypatch):
    """is_outerplanar, then is_planar with has_minor patched to raise,
    against the whole-graph search run before the patch."""
    expected = [whole_graph_search(g) for g in cases]
    for g, (_, outerplanar) in zip(cases, expected):
        assert is_outerplanar(g) == outerplanar, g
    monkeypatch.setattr(minors, "has_minor", no_search)
    for g, (planar, _) in zip(cases, expected):
        assert is_planar(g) == planar, g


def test_block_tests_agree_with_whole_graph_search_on_atlas(atlas_graphs, monkeypatch):
    agree_with_whole_graph_search(list(atlas_graphs.values()), monkeypatch)


def test_block_tests_agree_with_whole_graph_search_random(monkeypatch):
    rng = random.Random(61)
    cases = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(1000)]
    assert sum(not is_connected(g) for g in cases) >= 100
    agree_with_whole_graph_search(cases, monkeypatch)


def test_searched_blocks_with_a_k4_minor_have_a_k23_minor(atlas_graphs, monkeypatch):
    # is_outerplanar searches K2,3 first: a block that reaches the search
    # is 2-connected and not K4, so a K4 minor brings a K2,3 minor
    rng = random.Random(1408)
    cases = [g for g in atlas_graphs.values() if is_connected(g)]
    while len(cases) < 996 + 200:
        g = random_graph(rng, rng.randint(8, 9), rng.uniform(0.2, 0.5))
        if is_connected(g):
            cases.append(g)
    searched = {}
    search = minors.has_minor

    def record(b, h):
        searched[b] = None
        return search(b, h)

    with monkeypatch.context() as m:
        m.setattr(minors, "has_minor", record)
        for g in cases:
            is_outerplanar(g)
    with_k4 = 0
    for b in searched:
        if has_minor(b, K4):
            assert has_minor(b, K23), b
            with_k4 += 1
    assert len(searched) >= 300 and with_k4 >= 150
    assert {b.order for b in searched} == set(range(4, 10))


def subdivide(g: Graph) -> Graph:
    """g with every edge replaced by a path of length two."""
    edges = []
    for k, (i, j) in enumerate(g.edges()):
        mid = g.order + k
        edges += [(i, mid), (mid, j)]
    return Graph.from_edges(g.order + g.size(), edges)


def glue(g: Graph, h: Graph) -> Graph:
    """g and h sharing one vertex: h's vertex 0 becomes g's last vertex."""
    shift = g.order - 1
    return Graph.from_edges(
        g.order + h.order - 1,
        list(g.edges()) + [(i + shift, j + shift) for i, j in h.edges()],
    )


def wheel(rim: int) -> Graph:
    return Graph.from_edges(rim + 1, list(Graph.cycle(rim).edges()) + [(rim, i) for i in range(rim)])


def fan_triangulation(n: int) -> Graph:
    """Polygon 0..n-1 triangulated from vertex 0: outerplanar with m = 2n - 3."""
    return Graph.from_edges(n, list(Graph.cycle(n).edges()) + [(0, i) for i in range(2, n - 1)])


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


OCTAHEDRON = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3])
K23_HUB_EDGE = Graph.from_edges(5, list(K23.edges()) + [(0, 1)])
K4_PLUS_DEGREE_TWO = Graph.from_edges(5, list(K4.edges()) + [(4, 0), (4, 1)])

# (name, graph, planar, outerplanar)
HARD_CASES = [
    ("K2,3", K23, True, False),
    ("K2,3 + hub edge", K23_HUB_EDGE, True, False),
    ("K4 + degree-2 vertex", K4_PLUS_DEGREE_TWO, True, False),
    ("subdivided K4", subdivide(K4), True, False),
    ("subdivided K5", subdivide(K5), False, False),
    ("subdivided K3,3", subdivide(K33), False, False),
    ("K5 - e", Graph.from_edges(5, [e for e in K5.edges() if e != (0, 1)]), True, False),
    ("octahedron", OCTAHEDRON, True, False),
    ("two K5 at a vertex", glue(K5, K5), False, False),
    ("K5 with a pendant path", glue(K5, Graph.path(4)), False, False),
    ("K3,3 with a pendant triangle", glue(K33, Graph.complete(3)), False, False),
    ("K4 with a pendant edge", glue(K4, Graph.path(2)), True, False),
    ("K2,3 glued to K4", glue(K23, K4), True, False),
    ("triangles on a bridge", glue(glue(Graph.complete(3), Graph.path(2)), Graph.complete(3)), True, True),
    ("K5 and an isolated vertex", Graph.from_edges(6, K5.edges()), False, False),
    ("C6 and isolated vertices", Graph.from_edges(8, Graph.cycle(6).edges()), True, True),
    ("spider", Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), True, True),
    ("3x3 grid", grid(3, 3), True, False),
    ("3x4 grid", grid(3, 4), True, False),
    ("ladder 2x4", grid(2, 4), True, True),
] + [
    (f"wheel W{rim}", wheel(rim), True, False) for rim in range(3, 8)
] + [
    (f"triangulated {n}-gon", fan_triangulation(n), True, True) for n in range(4, 9)
]


@pytest.mark.parametrize("name,g,planar,outerplanar", HARD_CASES, ids=[c[0] for c in HARD_CASES])
def test_hard_cases(name, g, planar, outerplanar, monkeypatch):
    # the planar column is what whole-graph has_minor(., K5) and
    # has_minor(., K33) answer; subdivided K3,3 and the 3x4 grid take
    # seconds there, so the search is not rerun here
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(g.order))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert is_outerplanar(h) == outerplanar, perm
        with monkeypatch.context() as m:
            m.setattr(minors, "has_minor", no_search)
            assert is_planar(h) == planar, perm


def test_reductions_decide_without_search(monkeypatch):
    monkeypatch.setattr(minors, "has_minor", no_search)
    # small blocks; is_planar never searches
    assert is_planar(Graph.cycle(30)) and is_outerplanar(Graph.path(30))
    assert is_planar(subdivide(K4)) and is_planar(glue(K4, K4))
    assert is_outerplanar(glue(Graph.complete(3), Graph.complete(3)))
    assert not is_planar(K5) and not is_planar(subdivide(K5))
    assert not is_planar(glue(Graph.path(3), Graph.complete(6)))
    # m > 2n - 3 (m = 2n - 2 here, with a degree-2 vertex) and minimum degree >= 3
    assert not is_outerplanar(K4_PLUS_DEGREE_TWO)
    assert not is_outerplanar(K33) and not is_outerplanar(OCTAHEDRON)


def test_path_addition_runs_only_between_the_edge_count_exits(atlas_graphs, monkeypatch):
    # is_planar settles a block with m < 9 (planar) or m > 3n - 6 (not)
    # from its edge count; path addition sees only the blocks in between
    seen = []
    planar_block = minors._planar_block

    def counted(adj, block):
        n = block.bit_count()
        m = sum((adj[v] & block).bit_count() for v in range(len(adj)) if block >> v & 1) // 2
        seen.append((n, m))
        return planar_block(adj, block)

    monkeypatch.setattr(minors, "_planar_block", counted)
    for g in atlas_graphs.values():
        is_planar(g)
    assert seen
    assert all(9 <= m <= 3 * n - 6 for n, m in seen), seen


def nx_planar(g: Graph, apex: bool = False) -> bool:
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.order + apex))
    h.add_edges_from(g.edges())
    if apex:
        h.add_edges_from((g.order, v) for v in range(g.order))
    return nx.check_planarity(h)[0]


def test_planarity_against_networkx():
    rng = random.Random(67)
    cases = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(1000)]
    cases += [c[1] for c in HARD_CASES]
    for g in cases:
        # outerplanar iff adding a vertex joined to every vertex keeps it planar
        assert is_planar(g) == nx_planar(g), g
        assert is_outerplanar(g) == nx_planar(g, apex=True), g


def with_pendant_trees(g: Graph, rng, extra: int) -> Graph:
    """g with extra new vertices, each joined to one earlier vertex."""
    edges = list(g.edges()) + [(rng.randrange(v), v) for v in range(g.order, g.order + extra)]
    return Graph.from_edges(g.order + extra, edges)


def test_planarity_against_networkx_beyond_the_minor_search():
    # orders the minor search could not reach in test time; is_outerplanar
    # still runs it, so it stays checked at order <= 9 above
    rng = random.Random(71)
    cases = [
        random_graph(rng, n, p)
        for n in range(10, 17)
        for p in (0.15, 0.25, 0.35, 0.5)
        for _ in range(8)
    ]
    cases += [grid(r, c) for r in range(2, 9) for c in range(r, 9)]
    cases += [wheel(rim) for rim in range(8, 15)]
    cases += [petersen(), glue(K33, K33)]
    for _ in range(4):
        cases += [with_pendant_trees(subdivide(h), rng, 10) for h in (K5, K33)]
    planar = [is_planar(g) for g in cases]
    assert planar == [nx_planar(g) for g in cases]
    assert 60 <= sum(planar) <= len(cases) - 60
