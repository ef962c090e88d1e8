import random

import pytest

from minrank_atlas import minors
from minrank_atlas.catalog import compute_all
from minrank_atlas.graphs import Graph, articulation_points, bits, contract, induced_subgraph, is_connected
from minrank_atlas.minors import K4, K23, has_minor, is_outerplanar, is_planar

from oracles import K5, K33, brute_has_minor, complete, complete_multipartite, cycle, path, petersen, random_graph, relabel


def test_has_minor_basics():
    assert has_minor(K5, K5)
    assert has_minor(K33, K33)
    assert not has_minor(cycle(5), K4)
    assert has_minor(complete(7), K5)
    assert has_minor(cycle(4), cycle(3))  # contraction needed
    assert not has_minor(path(7), cycle(3))


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
                got = contract(g, u, v)
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
    assert is_planar(cycle(7))
    assert is_planar(complete_multipartite(2, 5))
    # K5 minus an edge and K3,3 minus an edge are planar
    k5e = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)])
    assert is_planar(k5e)


def test_outerplanarity_classics():
    assert not is_outerplanar(K4)
    assert not is_outerplanar(K23)
    assert is_outerplanar(cycle(6))
    assert is_outerplanar(path(7))
    assert is_outerplanar(complete(3))
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


def no_path_addition(adj, block):
    raise AssertionError("_planar_block called")


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


def test_minor_search_calls_over_the_atlas_are_pinned(atlas_graphs, monkeypatch):
    # The minor search is the exponential part of is_outerplanar: every
    # early exit in front of it keeps these counts, and a change to
    # them is a change to the method
    calls = {K23: 0, K4: 0}
    search = minors.has_minor

    def count(b, h):
        calls[h] += 1
        return search(b, h)

    monkeypatch.setattr(minors, "has_minor", count)
    for g in atlas_graphs.values():
        is_outerplanar(g)
    assert calls == {K23: 519, K4: 237}


def test_minor_search_calls_in_compute_all_are_pinned(atlas_corpus, forbidden, monkeypatch):
    # compute_all reads a cut-vertex row's outerplanarity from its blocks'
    # rows, and a 2-connected row's with a degree-2 vertex from the row of
    # that vertex contracted; the 175 rows left have order <= 3 or minimum
    # degree >= 3, which is_outerplanar settles before any search.  The
    # direct counts above over all 1252 graphs do not move
    calls = []
    search = minors.has_minor
    monkeypatch.setattr(minors, "has_minor", lambda b, h: calls.append(h) or search(b, h))
    compute_all(atlas_corpus, forbidden)
    assert len(calls) == 0


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
    return Graph.from_edges(rim + 1, list(cycle(rim).edges()) + [(rim, i) for i in range(rim)])


def fan_triangulation(n: int) -> Graph:
    """Polygon 0..n-1 triangulated from vertex 0: outerplanar with m = 2n - 3."""
    return Graph.from_edges(n, list(cycle(n).edges()) + [(0, i) for i in range(2, n - 1)])


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


OCTAHEDRON = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3])
K5_MINUS_E = Graph.from_edges(5, [e for e in K5.edges() if e != (0, 1)])
K5_ONE_EDGE_SUBDIVIDED = Graph.from_edges(6, list(K5_MINUS_E.edges()) + [(0, 5), (5, 1)])
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
    ("K5 - e", K5_MINUS_E, True, False),
    ("K5 with one edge subdivided", K5_ONE_EDGE_SUBDIVIDED, False, False),
    ("octahedron", OCTAHEDRON, True, False),
    ("two K5 at a vertex", glue(K5, K5), False, False),
    ("K5 with a pendant path", glue(K5, path(4)), False, False),
    ("K3,3 with a pendant triangle", glue(K33, complete(3)), False, False),
    ("K4 with a pendant edge", glue(K4, path(2)), True, False),
    ("K2,3 glued to K4", glue(K23, K4), True, False),
    ("triangles on a bridge", glue(glue(complete(3), path(2)), complete(3)), True, True),
    ("K5 and an isolated vertex", Graph.from_edges(6, K5.edges()), False, False),
    ("C6 and isolated vertices", Graph.from_edges(8, cycle(6).edges()), True, True),
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
    assert is_planar(cycle(30)) and is_outerplanar(path(30))
    assert is_planar(subdivide(K4)) and is_planar(glue(K4, K4))
    assert is_outerplanar(glue(complete(3), complete(3)))
    assert not is_planar(K5) and not is_planar(subdivide(K5))
    assert not is_planar(glue(path(3), complete(6)))
    # m > 2n - 3 (m = 2n - 2 here, with a degree-2 vertex) and minimum degree >= 3
    assert not is_outerplanar(K4_PLUS_DEGREE_TWO)
    assert not is_outerplanar(K33) and not is_outerplanar(OCTAHEDRON)
    # fewer than 6 vertices of degree >= 3 and fewer than 5 of degree >= 4:
    # no room for the branch vertices of a K3,3 or K5 subdivision
    with monkeypatch.context() as m:
        m.setattr(minors, "_planar_block", no_path_addition)
        assert is_planar(K5_MINUS_E) and is_planar(grid(3, 3))
    # exactly 6 of degree >= 3 (K3,3) or 5 of degree >= 4 (K5 with one
    # edge subdivided): path addition decides
    reached = []
    planar_block = minors._planar_block

    def recorded(adj, block):
        reached.append(block)
        return planar_block(adj, block)

    monkeypatch.setattr(minors, "_planar_block", recorded)
    for g in (K33, K5_ONE_EDGE_SUBDIVIDED):
        reached.clear()
        assert not is_planar(g) and reached == [g.vertex_mask], g


def branch_counts(adj, block) -> tuple[int, int]:
    """The block's vertices of degree >= 3 and of degree >= 4 in it."""
    degrees = [(adj[v] & block).bit_count() for v in range(len(adj)) if block >> v & 1]
    return sum(d >= 3 for d in degrees), sum(d >= 4 for d in degrees)


def test_path_addition_runs_only_between_the_edge_count_exits(atlas_graphs, monkeypatch):
    # is_planar settles a block with too few vertices of degree >= 3 and
    # of degree >= 4 for a Kuratowski subdivision (planar) from its
    # degrees, and one with m > 3n - 6 (not) from its edge count; path
    # addition sees only the rest, so m >= 9, since 6 vertices of degree
    # >= 3 need 9 edges and 5 of degree >= 4 need 10
    seen = []
    planar_block = minors._planar_block

    def counted(adj, block):
        n = block.bit_count()
        m = sum((adj[v] & block).bit_count() for v in range(len(adj)) if block >> v & 1) // 2
        seen.append((n, m, *branch_counts(adj, block)))
        return planar_block(adj, block)

    monkeypatch.setattr(minors, "_planar_block", counted)
    for g in atlas_graphs.values():
        is_planar(g)
    assert all(9 <= m <= 3 * n - 6 for n, m, _, _ in seen), seen
    assert all(b3 >= 6 or b4 >= 5 for _, _, b3, b4 in seen), seen
    # 648 calls with only the m < 9 and Euler exits
    assert len(seen) == 341


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


def test_degree_two_rule_against_networkx():
    # bounds.combine's rule for a 2-connected g of order >= 4 with a vertex
    # v of degree 2, neighbours u and w, and H = v contracted into u:
    # (a) g planar iff H is; (b) g outerplanar iff H is and g - {u, v, w},
    # which is H - {u, w}, is connected.  Every degree-2 vertex; into
    # either neighbour, since both give the same H
    rng = random.Random(89)
    seen = {}
    checked = 0
    while checked < 400:
        g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.2, 0.7))
        twos = [v for v, row in enumerate(g.adj) if row.bit_count() == 2]
        if not twos or not is_connected(g) or articulation_points(g):
            continue
        checked += 1
        planar, outerplanar = nx_planar(g), nx_planar(g, apex=True)
        for v in twos:
            u, w = bits(g.adj[v])
            through = is_connected(induced_subgraph(g, g.vertex_mask ^ g.adj[v] ^ (1 << v)))
            h = contract(g, u, v)
            assert contract(g, w, v) == h, (g, v)
            h_outerplanar = nx_planar(h, apex=True)
            assert nx_planar(h) == planar, (g, v)
            assert (h_outerplanar and through) == outerplanar, (g, v)
            # (u and w adjacent, H outerplanar, g - {u, v, w} connected)
            key = (bool(g.adj[u] >> w & 1), h_outerplanar, through)
            seen[key] = seen.get(key, 0) + 1
    # both kinds of neighbour pair, and H outerplanar with either answer
    # of the connectivity test
    assert sorted(k for k, count in seen.items() if count >= 5) == [
        (False, False, False), (False, False, True), (False, True, False), (False, True, True),
        (True, False, False), (True, False, True), (True, True, False), (True, True, True),
    ], seen


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
