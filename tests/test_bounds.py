import gc
import random
from collections import Counter
from itertools import combinations

import pytest

from minrank_atlas import bounds, cli, graphs
from minrank_atlas.bounds import (
    AtlasIndex,
    BoundsRow,
    ForbiddenDerivationError,
    ForbiddenList,
    clique_cover_number,
    combine,
    derive_forbidden_list,
    is_forbidden_mr2,
    tree_minimum_rank,
    zero_forcing_number,
)
from minrank_atlas.catalog import compute_all
from minrank_atlas.graphs import Graph, class_key, is_isomorphic, is_tree, contains_induced

from oracles import (
    brute_clique_cover,
    clique_cover_by_edge_index,
    complete_multipartite,
    cycle,
    derive_by_deletion_lookup,
    disjoint_union,
    is_triangle_free,
    path,
    petersen,
    random_graph,
    random_tree,
    relabel,
    to_networkx,
    tree_path_cover_brute,
    zero_forcing_scan,
    zf_closure,
)


def test_zf_closure_examples():
    p3 = path(3)
    assert zf_closure(p3, 0b001) == 0b111
    k3 = Graph.complete(3)
    assert zf_closure(k3, 0b001) == 0b001
    assert zf_closure(k3, k3.vertex_mask) == k3.vertex_mask
    with pytest.raises(ValueError):
        zf_closure(k3, 0b1000)


def test_zf_closure_properties():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        s = rng.randrange(1 << g.order)
        t = rng.randrange(1 << g.order)
        cs = zf_closure(g, s)
        assert cs & s == s                        # extensive
        assert zf_closure(g, cs) == cs            # idempotent
        cst = zf_closure(g, s | t)
        assert cst & cs == cs                     # monotone


@pytest.mark.parametrize("n", range(1, 8))
def test_zero_forcing_families(n):
    assert zero_forcing_number(path(n)) == 1
    assert zero_forcing_number(Graph.complete(n)) == max(1, n - 1)
    assert zero_forcing_number(Graph(n, (0,) * n)) == n
    if n >= 3:
        assert zero_forcing_number(cycle(n)) == 2


def test_zero_forcing_stars_and_bipartite():
    assert zero_forcing_number(Graph.complete_bipartite(1, 3)) == 2
    assert zero_forcing_number(Graph.complete_bipartite(1, 4)) == 3
    assert zero_forcing_number(Graph.complete_bipartite(2, 3)) == 3
    assert zero_forcing_number(Graph.complete_bipartite(3, 3)) == 4


def test_zero_forcing_disconnected_is_additive():
    # P3 + K3 in one graph
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    assert zero_forcing_number(g) == 1 + 2
    assert zero_forcing_number(Graph(2, (0, 0))) == 2


def test_zero_forcing_min_degree_bound():
    rng = random.Random(67)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        z = zero_forcing_number(g)
        assert z >= min(row.bit_count() for row in g.adj)


def test_zero_forcing_against_scan_from_one(atlas_graphs):
    # the production search sums over components and starts each at its min degree
    rng = random.Random(2008)
    seeded = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(300)]
    for g in [*atlas_graphs.values(), *seeded]:
        assert zero_forcing_number(g) == zero_forcing_scan(g), g


def test_zero_forcing_searches_connected_graphs_only(monkeypatch):
    # no force crosses a component, so Z sums over components and the
    # subset search starts on each component alone, never on their union
    searched = set()
    closure = bounds._closure
    monkeypatch.setattr(bounds, "_closure", lambda adj, b: searched.add(adj) or closure(adj, b))
    rng = random.Random(2401)
    cases = [disjoint_union(path(3), Graph.complete(3)), Graph(3, (0,) * 3)]
    cases += [random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.4)) for _ in range(40)]
    assert sum(not graphs.is_connected(g) for g in cases) >= 20
    for g in cases:
        assert zero_forcing_number(g) == zero_forcing_scan(g), g
    assert zero_forcing_number(disjoint_union(petersen(), petersen())) == 10
    assert searched and all(graphs.is_connected(Graph(len(adj), adj)) for adj in searched)


@pytest.mark.parametrize("g", [
    *(path(n) for n in range(1, 8)),
    *(cycle(n) for n in range(3, 8)),
    *(Graph.complete_bipartite(1, n) for n in range(2, 6)),
    Graph.complete_bipartite(3, 3),
], ids=repr)
def test_zero_forcing_start_at_most_z_keeps_the_answer(g):
    z = zero_forcing_number(g)
    for k in range(-1, z + 1):
        assert zero_forcing_number(g, at_least=k) == z


def test_combine_zero_forcing_start_beyond_the_atlas(forbidden, monkeypatch):
    # combine starts the search at n - ub (Z >= n - mr >= n - ub); outside
    # the atlas no reference column checks it, so the scan from one does
    rng = random.Random(1409)
    cases = []
    while len(cases) < 60:
        g = random_graph(rng, rng.randint(8, 9), rng.uniform(0.2, 0.8))
        if graphs.is_connected(g):
            cases.append(g)
    raised = []
    search = bounds.zero_forcing_number

    def record(g, *, at_least):
        raised.append(at_least > max(1, min(row.bit_count() for row in g.adj)))
        return search(g, at_least=at_least)

    monkeypatch.setattr(bounds, "zero_forcing_number", record)
    for g in cases:
        assert combine(g, forbidden).zfs_lb == g.order - zero_forcing_scan(g), g
    assert len(raised) == len(cases) and sum(raised) >= 20


def test_zfs_and_diam_gating(forbidden):
    assert combine(Graph.complete(5), forbidden).zfs_lb == 1
    assert combine(path(6), forbidden).zfs_lb == 5
    assert combine(path(4), forbidden).diam_lb == 3
    assert combine(Graph(1, (0,)), forbidden).diam_lb == 0
    blank = combine(Graph(2, (0, 0)), forbidden)
    assert blank.zfs_lb is None and blank.diam_lb is None


def test_clique_cover_examples():
    assert clique_cover_number(Graph.complete(5)) == 1
    assert clique_cover_number(path(4)) == 3
    assert clique_cover_number(cycle(5)) == 5
    assert clique_cover_number(Graph(4, (0,) * 4)) == 0
    assert clique_cover_number(Graph.complete_bipartite(2, 3)) == 6
    # two triangles sharing an edge: the triangles cover everything
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert clique_cover_number(g) == 2


def test_clique_cover_of_one_clique_per_edge_needs_no_recursion():
    # each of K32,32's 1024 edges is its own maximal clique, so every
    # clique is forced and the cover is taken with no search
    assert clique_cover_number(Graph.complete_bipartite(32, 32)) == 1024


def test_clique_cover_searches_connected_graphs_only(monkeypatch):
    # every clique lies in one component, so the cover search starts on
    # each component alone; one K3,3,4 needs 12 triangles
    searched = []
    cliques = graphs.maximal_cliques
    monkeypatch.setattr(graphs, "maximal_cliques", lambda g: searched.append(g) or cliques(g))
    rng = random.Random(2402)
    cases = [random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.4)) for _ in range(40)]
    assert sum(not graphs.is_connected(g) for g in cases) >= 20
    for g in cases:
        assert clique_cover_number(g) == clique_cover_by_edge_index(g), g
    k334 = complete_multipartite(3, 3, 4)
    assert clique_cover_number(disjoint_union(k334, k334)) == 24
    assert searched and all(graphs.is_connected(g) for g in searched)


def test_clique_cover_triangle_free_equals_size():
    rng = random.Random(71)
    found = 0
    while found < 60:
        g = random_graph(rng, rng.randint(1, 7), 0.35)
        if not is_triangle_free(g):
            continue
        found += 1
        assert clique_cover_number(g) == g.size()


def test_clique_cover_against_edge_index_search(atlas_graphs):
    rng = random.Random(1010)
    seeded = [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(300)]
    assert max(g.order for g in seeded) == 10
    for g in [*atlas_graphs.values(), *seeded]:
        assert clique_cover_number(g) == clique_cover_by_edge_index(g), g


def test_clique_cover_brute_agreement():
    rng = random.Random(73)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        assert clique_cover_number(g) == brute_clique_cover(g)
        assert 0 <= clique_cover_number(g) <= g.size() or g.size() == 0


def forced_cliques(g: Graph) -> tuple[int, int]:
    """How many maximal cliques hold an edge no other maximal clique
    holds, and how many maximal cliques have an edge."""
    cliques = [c for c in graphs.maximal_cliques(g) if c & (c - 1)]
    forced = set()
    for i, j in g.edges():
        holders = [c for c in cliques if (c >> i) & (c >> j) & 1]
        if len(holders) == 1:
            forced.add(holders[0])
    return len(forced), len(cliques)


def friendship(k: int) -> Graph:
    """k triangles sharing vertex 0."""
    return Graph.from_edges(2 * k + 1, [e for t in range(1, 2 * k, 2) for e in ((0, t), (0, t + 1), (t, t + 1))])


def random_block_graph(rng, count: int) -> Graph:
    """count cliques of 2 to 5 vertices, each glued at one vertex of those before."""
    n, edges = 1, []
    for _ in range(count):
        size = rng.randint(2, 5)
        vs = [rng.randrange(n), *range(n, n + size - 1)]
        n += size - 1
        edges += combinations(vs, 2)
    return Graph.from_edges(n, edges)


def glue_on(g: Graph, part: Graph, at: int) -> Graph:
    """g and part with part's vertex 0 identified with g's vertex at."""
    rename = [at, *range(g.order, g.order + part.order - 1)]
    return Graph.from_edges(
        g.order + part.order - 1, [*g.edges(), *((rename[i], rename[j]) for i, j in part.edges())]
    )


def count_frames(monkeypatch) -> list[int]:
    """A counter of clique_cover_number's search frames, taken by
    counting the iter calls over the clique list: one per frame."""
    frames = [0]

    def counting_iter(options):
        frames[0] += 1
        return iter(options)

    monkeypatch.setattr(bounds, "iter", counting_iter, raising=False)
    return frames


def test_forced_cliques_against_the_edge_index_search(monkeypatch):
    frames = count_frames(monkeypatch)
    rng = random.Random(2801)
    k222, k333 = complete_multipartite(2, 2, 2), complete_multipartite(3, 3, 3)

    def check(g: Graph) -> tuple[int, int, int]:
        """cc(g) against the oracle; (forced, cliques, frames)."""
        frames[0] = 0
        assert clique_cover_number(g) == clique_cover_by_edge_index(g), g
        return (*forced_cliques(g), frames[0])

    # every clique forced: the forced step is the whole answer
    every = [friendship(k) for k in range(1, 9)]
    every += [random_block_graph(rng, rng.randint(1, 9)) for _ in range(40)]
    every += [random_tree(rng, n) for n in range(2, 21)]
    for g in every:
        forced, cliques, searched = check(g)
        assert forced == cliques and searched == 0, g
    k3232 = Graph.complete_bipartite(32, 32)
    frames[0] = 0
    assert clique_cover_number(k3232) == 1024 and frames[0] == 0

    # none forced: each edge of K2,2,2 lies in 2 triangles, of K3,3,3 in 3
    for g, cc in ((k222, 4), (k333, 9)):
        assert check(g)[0] == 0 and clique_cover_number(g) == cc

    # forced and unforced mixed: pendant triangles and paths glued on
    triangle, pendant = Graph.complete(3), path(4)
    for host, cc in ((k222, 4), (k333, 9)):
        for at in range(host.order):
            g = glue_on(host, triangle, at)
            forced, _, searched = check(g)
            assert forced == 1 and searched > 0 and clique_cover_number(g) == cc + 1
            g = glue_on(glue_on(g, pendant, rng.randrange(g.order)), triangle, rng.randrange(g.order))
            forced, cliques, _ = check(g)
            assert 0 < forced < cliques and clique_cover_number(g) == cc + 5

    seeded = []
    while len(seeded) < 120:
        g = random_graph(rng, rng.randint(8, 12), rng.uniform(0.3, 0.8))
        if graphs.is_connected(g):
            seeded.append(check(g))
    assert sum(0 < forced < cliques for forced, cliques, _ in seeded) >= 60
    assert sum(forced == 0 for forced, _, _ in seeded) >= 3
    assert sum(searched > 0 for _, _, searched in seeded) >= 40


def test_clique_cover_search_frames_are_pinned(atlas_graphs, monkeypatch):
    # The work of the cover search, pinned: a search that prunes less
    # gives the same numbers and shows only here.  "len(stack) + need <=
    # best" for "<" pushes 359 frames on the atlas and 1886 on the
    # seeded graphs.
    frames = count_frames(monkeypatch)
    for g in atlas_graphs.values():
        clique_cover_number(g)
    assert frames[0] == 155
    frames[0] = 0
    rng = random.Random(2808)
    for _ in range(60):
        clique_cover_number(random_graph(rng, rng.randint(8, 12), rng.uniform(0.3, 0.8)))
    assert frames[0] == 654


def test_structural_upper_bounds(forbidden):
    def structural(g):
        row = combine(g, forbidden)
        return row.np_ub, row.nop_ub, row.path_ub

    assert structural(Graph.complete(5)) == (1, 2, 3)
    assert structural(Graph.complete(4)) == (None, 1, 2)
    assert structural(path(4)) == (None, None, None)
    assert structural(Graph.complete(7)) == (3, 4, 5)


def test_forbidden_flag_with_bundled_list(forbidden):
    assert is_forbidden_mr2(path(4), forbidden)
    assert is_forbidden_mr2(cycle(5), forbidden)
    assert not is_forbidden_mr2(Graph.complete(3), forbidden)
    assert not is_forbidden_mr2(Graph.complete_bipartite(1, 3), forbidden)
    # disconnected members of the family
    p3_k2 = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert is_forbidden_mr2(p3_k2, forbidden)
    three_k2 = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert is_forbidden_mr2(three_k2, forbidden)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_forbidden_mr2(two_k2, forbidden)


def test_k333_forces_minimum_rank_three(forbidden):
    """mr(K3,3,3) = 3 (Barrett-van der Holst-Loewy, ELA 11, 2004), so a
    graph holding it induced has mr >= 3.  Suppose rank A = 2.  Then
    A = X D X^T with rows x_i in R^2 and D = diag(+-1, +-1).  The three
    vertices of a part are pairwise non-adjacent, so they need pairwise
    D-orthogonal nonzero vectors.  With D definite that is impossible in
    R^2.  With D = diag(1, -1) all three lie on one null line; there are
    only two, so two parts share one, and are then D-orthogonal although
    every edge joins them.
    """
    k333 = bounds.K333
    assert k333.order == 9 and k333.size() == 27
    assert all(row.bit_count() == 6 for row in k333.adj)
    rng = random.Random(333)
    for extra in (1, 2, 3):  # orders 10-12
        n = 9 + extra
        # a pendant path of `extra` vertices hung on vertex 8
        pendant = [(v, v + 1) for v in range(8, n - 1)]
        g = relabel(Graph.from_edges(n, list(k333.edges()) + pendant), rng.sample(range(n), n))
        assert contains_induced(g, k333)
        row = combine(g, forbidden)
        assert row.is_flag and row.lb >= 3 and row.ub >= 3
        assert row.mr_exact is None or row.mr_exact >= 3
        # K3,3,extra+3: complete multipartite, so no pattern of the
        # derived list is induced in it and K3,3,3 alone sets the flag
        part = [min(v // 3, 2) for v in range(n)]
        multi = [(i, j) for i in range(n) for j in range(i + 1, n) if part[i] != part[j]]
        h = relabel(Graph.from_edges(n, multi), rng.sample(range(n), n))
        assert not any(contains_induced(h, p) for p in forbidden.patterns)
        assert is_forbidden_mr2(h, forbidden)
    # K4,4 (mr 2) holds no K3,3,3
    assert not is_forbidden_mr2(Graph.complete_bipartite(4, 4), forbidden)


def test_forbidden_list_requires_patterns():
    with pytest.raises(ValueError):
        ForbiddenList(())


def tree_path_cover_number(t):
    """P(t) = n - mr(t), from the production tree formula."""
    return t.order - tree_minimum_rank(t)


@pytest.mark.parametrize("n", [*range(1, 8), 40])
def test_path_cover_paths(n):
    assert tree_path_cover_number(path(n)) == 1


def test_path_cover_examples():
    assert tree_path_cover_number(Graph.complete_bipartite(1, 3)) == 2
    assert tree_path_cover_number(Graph.complete_bipartite(1, 4)) == 3
    double_star = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    assert tree_path_cover_number(double_star) == 2
    # 5 legs of 8 around a center: two legs share a path through it
    legs = [[1 + 8 * j + i for i in range(8)] for j in range(5)]
    spider = Graph.from_edges(41, [
        (a, b) for leg in legs for a, b in zip([0] + leg, leg)
    ])
    assert tree_path_cover_number(spider) == 4
    with pytest.raises(ValueError):
        tree_path_cover_number(cycle(4))
    with pytest.raises(ValueError):
        tree_path_cover_number(Graph(2, (0, 0)))


def test_path_cover_dp_agreement():
    rng = random.Random(79)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 7))
        assert tree_path_cover_number(t) == tree_path_cover_brute(t)


def test_tree_minimum_rank_leaves_no_reference_cycle():
    # one pass over a breadth-first order, no nested recursive function:
    # a call leaves nothing for the cyclic collector
    t = random_tree(random.Random(85), 30)
    gc.collect()
    gc.disable()
    try:
        tree_minimum_rank(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_path_cover_against_all_corpus_trees(atlas_graphs):
    for g in atlas_graphs.values():
        if is_tree(g):
            assert tree_path_cover_number(g) == tree_path_cover_brute(g)


def test_tree_minimum_rank_examples():
    assert tree_minimum_rank(path(7)) == 6
    assert tree_minimum_rank(Graph.complete_bipartite(1, 4)) == 2
    assert tree_minimum_rank(Graph(1, (0,))) == 0


def test_combine_k5(forbidden):
    row = combine(Graph.complete(5), forbidden)
    assert (row.lb, row.ub, row.mr_exact) == (1, 1, 1)
    assert row.con and not row.tree and not row.cv
    assert (row.zfs_lb, row.diam_lb, row.cc_ub) == (1, 1, 1)
    assert (row.np_ub, row.nop_ub, row.path_ub) == (1, 2, 3)
    assert row.is_flag is False


def test_combine_p4(forbidden):
    row = combine(path(4), forbidden)
    assert (row.lb, row.ub, row.mr_exact) == (3, 3, 3)
    assert row.is_flag is True and row.tree and row.cv
    assert row.path_ub is None


def test_combine_disconnected_sum(forbidden):
    k2_k1 = Graph.from_edges(3, [(0, 1)])
    row = combine(k2_k1, forbidden)
    assert not row.con
    assert (row.lb, row.ub, row.mr_exact) == (1, 1, 1)
    assert row.zfs_lb is None and row.is_flag is None and row.cc_ub is None
    # cut vertices reported with the true definition even when disconnected
    p4_k1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    row = combine(p4_k1, forbidden)
    assert (row.lb, row.ub, row.mr_exact) == (3, 3, 3)
    assert row.cv and not row.tree


def test_combine_row_558(atlas_graphs, forbidden):
    row = combine(atlas_graphs[558], forbidden)
    assert (row.lb, row.ub) == (3, 4)
    assert row.mr_exact is None


def test_bounds_row_validation():
    with pytest.raises(ValueError):
        BoundsRow(order=2, size=1, con=True, zfs_lb=1, diam_lb=1, cc_ub=1,
                  np_ub=None, nop_ub=None, path_ub=None, is_flag=False,
                  cv=False, tree=False, lb=2, ub=1, mr_exact=None)
    with pytest.raises(ValueError):
        BoundsRow(order=2, size=1, con=False, zfs_lb=1, diam_lb=None, cc_ub=None,
                  np_ub=None, nop_ub=None, path_ub=None, is_flag=None,
                  cv=False, tree=False, lb=1, ub=1, mr_exact=1)
    with pytest.raises(ValueError):
        BoundsRow(order=2, size=1, con=True, zfs_lb=None, diam_lb=1, cc_ub=1,
                  np_ub=None, nop_ub=None, path_ub=None, is_flag=False,
                  cv=False, tree=False, lb=1, ub=1, mr_exact=None)


def test_derive_forbidden_matches_bundle(atlas_corpus, atlas_graphs, fixture_rows, forbidden):
    mr = {f.atlas_number: f.mr for f in fixture_rows}
    derived = derive_forbidden_list(atlas_corpus, mr)
    assert len(derived.patterns) == len(forbidden.patterns)
    for got, want in zip(derived.patterns, forbidden.patterns):
        assert is_isomorphic(got, want)
    # every pattern has recorded mr >= 3 and the family is an antichain
    for p in derived.patterns:
        a = next(a for a, g in atlas_graphs.items() if g.order == p.order and is_isomorphic(g, p))
        assert mr[a] >= 3
    assert any(is_isomorphic(p, path(4)) for p in derived.patterns)
    for p in derived.patterns:
        for q in derived.patterns:
            if p is not q:
                assert not contains_induced(p, q)


def _graph(order, edges):
    """A graph from edges written as digit pairs: "01 12" is 0-1, 1-2."""
    return Graph.from_edges(order, [(int(e[0]), int(e[1])) for e in edges.split()])


def test_derived_family_is_the_theorems(atlas_corpus, fixture_rows):
    # the order <= 7 part of Barrett-van der Holst-Loewy (ELA 11, 2004):
    # mr(G) <= 2 iff G has none of these, nor K3,3,3, as an induced subgraph
    theorem = {
        "P4": _graph(4, "01 12 23"),
        "P3+K2": _graph(5, "01 12 34"),
        "dart": _graph(5, "01 12 13 23 14 24"),
        "ltimes": _graph(5, "04 14 24 34 23"),
        "3K2": _graph(6, "01 23 45"),
    }
    derived = derive_forbidden_list(atlas_corpus, {f.atlas_number: f.mr for f in fixture_rows}).patterns
    matches = {name: [k for k, p in enumerate(derived) if is_isomorphic(p, g)] for name, g in theorem.items()}
    assert len(derived) == 5 and all(len(ks) == 1 for ks in matches.values()), matches
    assert sorted(ks[0] for ks in matches.values()) == [0, 1, 2, 3, 4]


def test_deletion_laws_past_the_atlas(forbidden):
    # mr(G - v) <= mr(G) <= mr(G - v) + 2 and |mr(G) - mr(G - e)| <= 1, so
    # the computed bounds of seeded connected graphs of order 8-10 and of
    # each of their one-vertex and one-edge deletions must not contradict
    rng = random.Random(0)
    checks, bad = 0, []  # a check is one deletion and its two laws
    for n in (8, 9, 10):
        seeded = []
        while len(seeded) < 20:
            g = random_graph(rng, n)
            if graphs.is_connected(g):
                seeded.append(g)
        for g in seeded:
            row = combine(g, forbidden)
            for v in range(n):
                h = combine(graphs.induced_subgraph(g, g.vertex_mask ^ (1 << v)), forbidden)
                checks += 1
                if not (h.lb <= row.ub and row.lb <= h.ub + 2):
                    bad.append((g, "vertex", v))
            edges = list(g.edges())
            for e in edges:
                h = combine(Graph.from_edges(n, [f for f in edges if f != e]), forbidden)
                checks += 1
                if not (row.lb <= h.ub + 1 and h.lb <= row.ub + 1):
                    bad.append((g, "edge", e))
    assert bad == [] and checks == 1627


def test_derive_forbidden_reports_gaps(atlas_corpus):
    with pytest.raises(ForbiddenDerivationError) as exc:
        derive_forbidden_list(atlas_corpus, {14: 3})
    assert 14 in exc.value.gaps


def _derivation_outcome(derive, corpus, mr_by_atlas):
    """The derived patterns, or the text of the error the derivation raised."""
    try:
        return derive(corpus, mr_by_atlas).patterns
    except ForbiddenDerivationError as exc:
        return str(exc)


def test_derive_forbidden_agrees_with_deletion_lookup(atlas_corpus, fixture_rows):
    small = [(f.atlas_number, f.mr) for f in fixture_rows if f.order <= 6]
    tables = [{f.atlas_number: f.mr for f in fixture_rows}, {14: 3}]
    rng = random.Random(1701)
    for _ in range(40):
        tables.append({a: mr for a, mr in small if rng.random() < 0.94})
    outcomes = []
    for table in tables:
        got = _derivation_outcome(derive_forbidden_list, atlas_corpus, table)
        assert got == _derivation_outcome(derive_by_deletion_lookup, atlas_corpus, table), table
        outcomes.append(got)
    assert len(outcomes[0]) == 5
    assert outcomes[1].endswith("candidate 14 needs rows [5, 6]")
    gaps = sum(isinstance(o, str) for o in outcomes[2:])
    assert gaps >= 5 and len(outcomes) - 2 - gaps >= 5


def _relabelled(g: Graph, rng) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_atlas_index_finds_relabelled_graphs(atlas_corpus, atlas_graphs, lookup_counts):
    # the atlas holds every class of each order once, so every order is
    # certified and no lookup runs a confirming search
    index = AtlasIndex(atlas_corpus)
    rng = random.Random(113)
    for a, g in atlas_graphs.items():
        assert index.atlas_number(_relabelled(g, rng)) == a
    assert lookup_counts["lookups"] == 1252 and lookup_counts["confirmations"] == 0


def test_atlas_index_confirms_every_bucket(atlas_corpus):
    # the cube Q3 and the Wagner graph are both cubic and triangle-free on
    # 8 vertices, so they share a class key, and they are not isomorphic
    # (Q3 is bipartite, and the Wagner graph has the 5-cycle 0 1 2 3 4):
    # the bucket is nonempty but holds another class, so the lookup fails
    cube = Graph.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    wagner = Graph.from_edges(8, [(v, (v + 1) % 8) for v in range(8)] + [(v, v + 4) for v in range(4)])
    assert class_key(cube) == class_key(wagner) and not is_isomorphic(cube, wagner)
    index = AtlasIndex([cube])
    assert index.atlas_number(relabel(cube, [3, 6, 0, 5, 7, 1, 4, 2])) == 1
    with pytest.raises(LookupError):
        index.atlas_number(wagner)
    with pytest.raises(LookupError):
        index.atlas_number(Graph.complete(7))
    # the key is a class invariant: no relabeling moves a graph to another bucket
    rng = random.Random(29)
    for g in atlas_corpus:
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert class_key(relabel(g, perm)) == class_key(g)


def test_atlas_index_certifies_only_complete_orders(atlas_corpus, lookup_counts):
    rng = random.Random(31)
    # without C5 (atlas 38) order 5 confirms the one candidate of each
    # bucket, and C5's key has no bucket; the graphs after it move down one
    assert is_isomorphic(atlas_corpus[37], cycle(5))
    index = AtlasIndex(atlas_corpus[:37] + atlas_corpus[38:])
    for a, g in enumerate(atlas_corpus, 1):
        lookup_counts.clear()
        if a == 38:
            with pytest.raises(LookupError):
                index.atlas_number(_relabelled(g, rng))
        else:
            assert index.atlas_number(_relabelled(g, rng)) == a - (a > 38)
        assert lookup_counts["confirmations"] == (g.order == 5 and a != 38), a
    # atlas 8 (4K1) replaced by a relabelled C4 (atlas 16): order 4 holds
    # 11 graphs but 10 keys, so it confirms, and C4 finds its lower copy
    twice = list(atlas_corpus)
    twice[7] = _relabelled(atlas_corpus[15], rng)
    index = AtlasIndex(twice)
    for a, g in enumerate(atlas_corpus, 1):
        lookup_counts.clear()
        if a == 8:
            with pytest.raises(LookupError):
                index.atlas_number(_relabelled(g, rng))
        else:
            assert index.atlas_number(_relabelled(g, rng)) == (8 if a == 16 else a)
        assert lookup_counts["confirmations"] == (g.order == 4 and a != 8), a


def test_classes_are_the_networkx_atlas_counts():
    nx = pytest.importorskip("networkx")
    counts = Counter(len(h) for h in nx.graph_atlas_g()[1:])  # networkx 0 is the null graph
    assert bounds.CLASSES == dict(counts) == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_class_key_is_the_networkx_triples(atlas_corpus):
    # per vertex (degree, triangles through it, neighbours' degree sum),
    # taken from networkx on its own copy of the atlas, unpacked from
    # class_key's fields; the triples tell all 1252 classes apart
    nx = pytest.importorskip("networkx")
    keys = set()
    for g, h in zip(atlas_corpus, nx.graph_atlas_g()[1:]):
        triangles = nx.triangles(h)
        triples = sorted((h.degree(v), triangles[v], sum(h.degree(w) for w in h[v])) for v in h)
        keys.add((len(h), tuple(triples)))
        order, fields = class_key(g)
        assert (order, [(f >> 23, f >> 12 & 0x7FF, f & 0xFFF) for f in fields]) == (len(h), triples)
    assert len(keys) == len({class_key(g) for g in atlas_corpus}) == 1252


def test_compute_all_lookups_find_isomorphic_atlas_graphs(atlas_corpus, forbidden, monkeypatch):
    nx = pytest.importorskip("networkx")
    # every (piece, atlas number) pair compute_all resolves, checked by
    # networkx's own isomorphism test against networkx's own atlas graph
    found = []
    lookup = AtlasIndex.atlas_number

    def record(self, h):
        found.append((h, lookup(self, h)))
        return found[-1][1]

    monkeypatch.setattr(AtlasIndex, "atlas_number", record)
    compute_all(atlas_corpus, forbidden)
    assert len(found) == 1377
    reference = nx.graph_atlas_g()
    for h, a in found:
        assert nx.is_isomorphic(to_networkx(h), reference[a]), (h, a)


def test_read_write_forbidden_round_trip(tmp_path, forbidden, data_dir, monkeypatch):
    path = tmp_path / "fl.g6"
    monkeypatch.chdir(data_dir.parent)  # the default data paths are repo-relative
    assert cli.main(["derive-forbidden", "--out", str(path)]) == 0
    again = bounds.read_forbidden_list(path)
    assert again.patterns == forbidden.patterns
    path.write_text("# comment only\n\n")
    with pytest.raises(ValueError):
        bounds.read_forbidden_list(path)
