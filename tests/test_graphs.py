import gc
import random
from itertools import combinations

import pytest

from minrank_atlas import bounds, graphs
from minrank_atlas.bounds import combine
from minrank_atlas.graphs import (
    Graph,
    articulation_points,
    bits,
    blocks,
    components,
    contains_induced,
    diameter,
    embeds,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    is_tree,
    maximal_cliques,
)

from oracles import (
    blocks_by_recursion,
    brute_contains_induced,
    brute_contains_subgraph,
    cycle,
    induced_subgraph_by_index,
    path,
    random_graph,
    relabel,
    to_networkx,
)


def complement(g):
    full = g.vertex_mask
    return Graph(g.order, tuple((full ^ row) & ~(1 << i) for i, row in enumerate(g.adj)))


def test_graph_validation():
    cases = [
        (0, (), "order must be in 1..64, got 0"),
        (65, (0,) * 65, "order must be in 1..64, got 65"),
        (2, (0b10,), "expected 2 adjacency rows, got 1"),
        (2, (0b01, 0b10), "loop at vertex 0"),
        (2, (0b10, 0b00), "asymmetric adjacency at (0,1)"),
        (2, (0b100, 0b000), "row 0 has bits outside 0..1"),
        (2, (0b10, -2), "row 1 has bits outside 0..1"),  # negative row
        (9, (1 << 9,) + (0,) * 8, "row 0 has bits outside 0..8"),  # inside the 16-bit field
        (8, (0,) * 7 + (1 << 8,), "row 7 has bits outside 0..7"),  # past the 8-bit field
        # the first fault by row wins, and pairs are scanned (0,1), (0,2), ...
        (3, (0b110, 0b000, 0b101), "loop at vertex 2"),
        (3, (0b100, 0b100, 0b000), "asymmetric adjacency at (0,2)"),
    ]
    for order, adj, message in cases:
        with pytest.raises(ValueError) as exc:
            Graph(order, adj)
        assert str(exc.value) == message
    with pytest.raises(TypeError):
        Graph(2, (0b10, 1.0))  # a non-int row
    with pytest.raises(TypeError):
        Graph(2.0, (0b10, 0b01))  # a non-int order
    # from_edges leaves a loop to the constructor's diagonal test
    with pytest.raises(ValueError, match="^loop at vertex 2$"):
        Graph.from_edges(3, [(0, 1), (2, 2)])


def test_valid_graphs_pass_without_the_scan(monkeypatch):
    # the packed-matrix check alone accepts a valid graph: the row-and-pair
    # scan, which would accept it too, runs only after a fault
    def scan(n, adj):
        raise AssertionError(f"scanned a valid graph of order {n}")

    monkeypatch.setattr(graphs, "_raise_first_fault", scan)
    rng = random.Random(64)
    for n in range(1, 65):
        for p in (0.0, 0.5, 1.0):
            g = random_graph(rng, n, p)
            assert Graph(n, g.adj) == g


def test_size_families():
    assert Graph.complete(5).size() == 10
    assert Graph(1, (0,)).size() == 0
    assert path(6).size() == 5
    assert Graph.complete_bipartite(3, 3).size() == 9


def test_components_and_connectivity():
    two = Graph(2, (0, 0))
    assert components(two) == [0b01, 0b10]
    assert not is_connected(two)
    assert is_connected(Graph(1, (0,)))
    assert is_connected(Graph.complete(5))


def test_components_partition_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 7), 0.3)
        comps = components(g)
        acc = 0
        for c in comps:
            assert not acc & c
            acc |= c
        assert acc == g.vertex_mask
        assert is_connected(g) == (len(comps) == 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_diameter_families(n):
    assert diameter(path(n)) == n - 1
    assert diameter(Graph.complete(n)) == 1


def test_diameter_edge_cases():
    assert diameter(Graph(1, (0,))) == 0
    assert diameter(cycle(6)) == 3
    with pytest.raises(ValueError):
        diameter(Graph(2, (0, 0)))


def test_articulation_points():
    assert articulation_points(path(4)) == 0b0110
    assert articulation_points(cycle(5)) == 0
    assert articulation_points(Graph.from_edges(2, [(0, 1)])) == 0
    star = Graph.complete_bipartite(1, 3)
    assert articulation_points(star) == 0b0001
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert articulation_points(bowtie) == 0b00100


def test_blocks_examples():
    assert blocks(Graph(1, (0,))) == [0b1]
    assert sorted(blocks(path(4))) == [0b0011, 0b0110, 0b1100]
    assert blocks(cycle(5)) == [0b11111]
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert sorted(blocks(bowtie)) == [0b00111, 0b11100]
    # triangle, a bridge to a pendant vertex, and an isolated vertex
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert sorted(blocks(g)) == [0b00111, 0b01100, 0b10000]


def isolate(g: Graph, gone: int) -> Graph:
    """g with every edge at a vertex of gone removed."""
    return Graph(g.order, tuple(0 if (gone >> v) & 1 else row & ~gone for v, row in enumerate(g.adj)))


def test_blocks_match_the_recursive_dfs(atlas_graphs):
    # the explicit-stack DFS returns the recursion's list, order included
    rng = random.Random(2802)
    seeded = [random_graph(rng, rng.randint(1, 64), rng.random() ** 3) for _ in range(1000)]
    assert {g.order for g in seeded} == set(range(1, 65))
    # isolated vertices before, between and after the rest
    spaced = [
        isolate(g, sum(1 << v for v in range(0, g.order, (2, 3, 5, 7)[i % 4])))
        for i, g in enumerate(seeded[:200])
    ]
    cases = [*atlas_graphs.values(), *seeded, *spaced, path(64), Graph(64, (0,) * 64)]
    assert sum(0 in g.adj and g.size() > 0 for g in cases) >= 300
    for g in cases:
        assert blocks(g) == blocks_by_recursion(g), g


def _cut_vertices_brute(g: Graph) -> int:
    """v is a cut vertex iff deleting it adds a component."""
    if g.order == 1:
        return 0
    before = len(components(g))
    cut = 0
    for v in range(g.order):
        if len(components(induced_subgraph(g, g.vertex_mask ^ (1 << v)))) > before:
            cut |= 1 << v
    return cut


def test_blocks_against_brute_force():
    rng = random.Random(71)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.6)
        bs = blocks(g)
        for i, j in g.edges():
            assert sum((b >> i) & (b >> j) & 1 for b in bs) == 1, (g, i, j)
        cover = 0
        for b in bs:
            cover |= b
        assert cover == g.vertex_mask
        for a, b in combinations(bs, 2):
            assert (a & b).bit_count() <= 1, g
        for b in bs:
            h = induced_subgraph(g, b)
            assert is_connected(h)
            if h.order == 1:
                assert g.adj[b.bit_length() - 1] == 0
            assert _cut_vertices_brute(h) == 0, (g, b)
        assert articulation_points(g) == _cut_vertices_brute(g), g


def test_tree_and_path_predicates(forbidden):
    # a path is a tree of maximum degree <= 2: combine leaves its path_ub blank
    assert is_tree(Graph(1, (0,))) and combine(Graph(1, (0,)), forbidden).path_ub is None
    assert is_tree(path(5)) and combine(path(5), forbidden).path_ub is None
    star = Graph.complete_bipartite(1, 3)
    assert is_tree(star) and combine(star, forbidden).path_ub is not None
    assert not is_tree(cycle(4))
    assert not is_tree(Graph(3, (0, 0, 0)))  # disconnected forest is not a tree


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        assert complement(complement(g)) == g


def test_induced_subgraph():
    k3 = induced_subgraph(Graph.complete(5), 0b10101)
    assert is_isomorphic(k3, Graph.complete(3))
    p3 = induced_subgraph(path(4), 0b0111)
    assert is_isomorphic(p3, path(3))
    with pytest.raises(ValueError):
        induced_subgraph(Graph.complete(3), 0)
    with pytest.raises(ValueError):
        induced_subgraph(Graph.complete(3), 0b1000)


def test_induced_subgraph_against_index_map():
    # masks of every density, so single and many-vertex removals both occur
    rng = random.Random(29)
    for n in list(range(1, 9)) + [31, 32, 33, 63, 64] + [rng.randint(9, 64) for _ in range(20)]:
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        full = g.vertex_mask
        masks = {full, full ^ 1, full ^ (1 << (n - 1))}
        for _ in range(15):
            keep = rng.random()
            masks.add(sum(1 << v for v in range(n) if rng.random() < keep))
        for s in masks - {0}:
            assert induced_subgraph(g, s) == induced_subgraph_by_index(g, s), (n, s)


def test_edges_and_size_against_a_double_loop():
    # has_minor tries contractions in edges() order, so the order is pinned
    # too; orders 63 and 64 fill the widest packed row
    rng = random.Random(31)
    for n in list(range(1, 65)) + [63, 64] * 4:
        g = random_graph(rng, n, rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)))
        naive = [(i, j) for i in range(n) for j in range(i + 1, n) if (g.adj[i] >> j) & 1]
        assert list(g.edges()) == naive, g
        assert g.size() == len(naive), g


def test_isomorphism_relabeling():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert is_isomorphic(g, relabel(g, perm))
        assert is_isomorphic(g, g)


def test_isomorphism_symmetric():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 6)
        g, h = random_graph(rng, n), random_graph(rng, n)
        assert is_isomorphic(g, h) == is_isomorphic(h, g)


def test_isomorphism_rejections():
    assert not is_isomorphic(path(4), Graph.complete_bipartite(1, 3))
    assert not is_isomorphic(path(4), path(3))
    # same order, size, and degree sequence, still non-isomorphic
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(cycle(6), two_triangles)


def test_c5_self_complementary():
    c5 = cycle(5)
    assert is_isomorphic(c5, complement(c5))


def test_contains_induced():
    # (host, pattern, induced answer, plain answer); the cases after the
    # first four are grouped by the count or degree exit they exercise
    k1 = Graph(1, (0,))
    star = Graph.complete_bipartite(1, 3)
    k2_k1 = Graph.from_edges(3, [(0, 1)])
    three_k1 = Graph(3, (0, 0, 0))
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    k5_minus_edge = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)])
    cases = [
        (path(5), path(4), True, True),
        (Graph.complete(5), path(4), False, True),
        (cycle(5), path(4), True, True),
        (path(3), path(4), False, False),
        # equal orders and sizes, different degree sequences
        (path(4), star, False, False),
        (star, path(4), False, False),
        # too many pattern non-edges: 2K2 has 4 and K5 - e 1; 3K1 has 3 and K4 none
        (k5_minus_edge, two_k2, False, True),
        (Graph.complete(4), three_k1, False, True),
        # a pattern degree (4) above every host degree (2), with edges to spare
        (cycle(8), Graph.complete_bipartite(1, 4), False, False),
        # isolated pattern vertices
        (path(3), k2_k1, False, True),
        (path(4), k2_k1, True, True),
        (path(4), three_k1, False, True),
        (cycle(6), three_k1, True, True),
        # order 1
        (k1, k1, True, True),
        (path(3), k1, True, True),
        (k1, Graph.complete(2), False, False),
        # order 64: the top vertex bit, and counts past a machine word
        (path(64), path(64), True, True),
        (cycle(64), path(63), True, True),
        (cycle(64), path(64), False, True),
        (Graph.complete(64), path(5), False, True),
        (Graph.complete(64), Graph.complete(64), True, True),
        (relabel(path(64), [63 - v for v in range(64)]), Graph.complete(3), False, False),
    ]
    for g, p, induced, plain in cases:
        assert contains_induced(g, p) == embeds(g, p, induced=True) == induced, (g, p)
        assert embeds(g, p, induced=False) == plain, (g, p)
        if g.order <= 7:
            assert (brute_contains_induced(g, p), brute_contains_subgraph(g, p)) == (induced, plain)


def test_embedding_search_against_brute_force():
    rng = random.Random(37)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        # half the patterns are relabeled induced subgraphs of g, so both
        # answers occur; the other half are unrelated random graphs
        k = rng.randint(1, g.order)
        if rng.random() < 0.5:
            keep = sum(1 << v for v in rng.sample(range(g.order), k))
            sub = induced_subgraph(g, keep)
            p = relabel(sub, rng.sample(range(k), k))
        else:
            p = random_graph(rng, k, rng.random())
        assert contains_induced(g, p) == brute_contains_induced(g, p)
        h = p if k == g.order else random_graph(rng, g.order, rng.random())
        assert is_isomorphic(g, h) == brute_contains_induced(g, h)


def test_plain_embedding_against_brute_force():
    rng = random.Random(41)
    spanning_lower = 0
    for _ in range(360):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        if rng.random() < 0.6:
            # a relabeled subgraph of g with about a third of its edges
            # dropped; at full order it spans g with lower degrees
            k = g.order if rng.random() < 0.5 else rng.randint(1, g.order)
            keep = sum(1 << v for v in rng.sample(range(g.order), k))
            sub = induced_subgraph(g, keep)
            sub = Graph.from_edges(k, [e for e in sub.edges() if rng.random() < 0.7])
            p = relabel(sub, rng.sample(range(k), k))
        else:
            p = random_graph(rng, rng.randint(1, g.order), rng.random())
        expected = brute_contains_subgraph(g, p)
        assert embeds(g, p, induced=False) == expected, (g, p)
        assert embeds(g, p, induced=True) == brute_contains_induced(g, p), (g, p)
        if expected and p.order == g.order and sorted(map(int.bit_count, p.adj)) != sorted(map(int.bit_count, g.adj)):
            spanning_lower += 1
    assert spanning_lower >= 60


def test_embedding_search_against_networkx():
    # past the brute-force oracles' order 7: node-induced subgraph
    # isomorphism for the induced mode, monomorphism for the plain mode
    nx = pytest.importorskip("networkx")
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    rng = random.Random(812)
    answers = []
    for trial in range(120):
        g = random_graph(rng, rng.randint(8, 12), rng.random())
        if trial % 2 == 0:
            # planted: a relabeled induced subgraph of g, with edges
            # dropped in every fourth trial, so that the plain mode also
            # meets subgraphs that are not induced
            k = rng.randint(1, g.order)
            sub = induced_subgraph(g, sum(1 << v for v in rng.sample(range(g.order), k)))
            if trial % 4 == 0:
                sub = Graph.from_edges(k, [e for e in sub.edges() if rng.random() < 0.7])
            p = relabel(sub, rng.sample(range(k), k))
        else:
            p = random_graph(rng, rng.randint(1, 8), rng.random())
        host = to_networkx(g)
        induced = isomorphism.GraphMatcher(host, to_networkx(p)).subgraph_is_isomorphic()
        # VF2 monomorphism can take seconds to place isolated vertices or
        # to fail on a pattern with more edges than g.  Both have a plain
        # answer, since the pattern is never larger than g here, so only
        # the rest of the pattern goes to the matcher
        rest = to_networkx(p)
        rest.remove_nodes_from(list(nx.isolates(rest)))
        plain = p.size() <= g.size() and isomorphism.GraphMatcher(host, rest).subgraph_is_monomorphic()
        assert embeds(g, p, induced=True) == contains_induced(g, p) == induced, (g, p)
        assert embeds(g, p, induced=False) == plain, (g, p)
        answers.append((induced, plain))
    # every outcome the two modes allow occurs
    assert {(True, True), (False, True), (False, False)} <= set(answers)


def test_maximal_cliques_examples():
    assert maximal_cliques(Graph.complete(5)) == [0b11111]
    c5 = cycle(5)
    assert sorted(c.bit_count() for c in maximal_cliques(c5)) == [2] * 5
    p3 = path(3)
    assert maximal_cliques(p3) == [0b011, 0b110]
    assert maximal_cliques(Graph(3, (0, 0, 0))) == [0b001, 0b010, 0b100]


def test_maximal_cliques_properties():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        cliques = maximal_cliques(g)
        assert cliques == sorted(cliques)
        for c in cliques:
            vs = list(bits(c))
            assert all((g.adj[a] >> b) & 1 for a, b in combinations(vs, 2))
            # maximal: no outside vertex adjacent to the whole clique
            for v in range(g.order):
                if not (c >> v) & 1:
                    assert g.adj[v] & c != c
        for c1 in cliques:
            for c2 in cliques:
                assert c1 == c2 or c1 & c2 != c1
        for i, j in g.edges():
            e = (1 << i) | (1 << j)
            assert any(c & e == e for c in cliques)


def test_maximal_cliques_leaves_no_reference_cycle():
    # the search runs on an explicit stack, so a call leaves nothing for
    # the cyclic collector
    g = random_graph(random.Random(84), 12)
    gc.collect()
    gc.disable()
    try:
        maximal_cliques(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_maximal_cliques_against_networkx(atlas_graphs):
    nx = pytest.importorskip("networkx")
    rng = random.Random(97)
    seeded = [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(300)]
    for g in [*atlas_graphs.values(), *seeded]:
        expected = sorted(sum(1 << v for v in c) for c in nx.find_cliques(to_networkx(g)))
        assert maximal_cliques(g) == expected, g


def test_k333_flag_against_networkx():
    # GraphMatcher's subgraph test is node-induced, as the K3,3,3 flag is
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    k333 = to_networkx(bounds.K333)
    rng = random.Random(333)
    found = []
    for trial in range(90):
        g = random_graph(rng, rng.randint(9, 11), rng.uniform(0.4, 0.9))
        if trial % 3 == 0:  # plant K3,3,3 on nine random vertices
            part = dict(zip(rng.sample(range(g.order), 9), [0, 1, 2] * 3))
            g = Graph.from_edges(g.order, [
                (i, j) for i in range(g.order) for j in range(i + 1, g.order)
                if (part[i] != part[j] if i in part and j in part else (g.adj[i] >> j) & 1)
            ])
        expected = isomorphism.GraphMatcher(to_networkx(g), k333).subgraph_is_isomorphic()
        assert contains_induced(g, bounds.K333) == expected, g
        found.append(expected)
    assert 30 <= sum(found) <= 60
