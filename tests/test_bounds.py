import random

import pytest

from minrank_atlas import bounds, graphs
from minrank_atlas.bounds import (
    AtlasIndex,
    BoundsRow,
    ForbiddenDerivationError,
    ForbiddenList,
    clique_cover_number,
    combine,
    derive_forbidden_list,
    is_forbidden_mr2,
    nop_upper_bound,
    np_upper_bound,
    path_upper_bound,
    tree_minimum_rank,
    tree_path_cover_number,
    zero_forcing_number,
    zf_closure,
)
from minrank_atlas.graphs import Graph, class_key, is_isomorphic, is_tree, contains_induced

from oracles import (
    brute_clique_cover,
    clique_cover_by_edge_index,
    is_triangle_free,
    random_graph,
    random_tree,
    relabel,
    tree_path_cover_brute,
    zero_forcing_scan,
)


def test_zf_closure_examples():
    p3 = Graph.path(3)
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
    assert zero_forcing_number(Graph.path(n)) == 1
    assert zero_forcing_number(Graph.complete(n)) == max(1, n - 1)
    assert zero_forcing_number(Graph.empty(n)) == n
    if n >= 3:
        assert zero_forcing_number(Graph.cycle(n)) == 2


def test_zero_forcing_stars_and_bipartite():
    assert zero_forcing_number(Graph.complete_bipartite(1, 3)) == 2
    assert zero_forcing_number(Graph.complete_bipartite(1, 4)) == 3
    assert zero_forcing_number(Graph.complete_bipartite(2, 3)) == 3
    assert zero_forcing_number(Graph.complete_bipartite(3, 3)) == 4


def test_zero_forcing_disconnected_is_additive():
    # P3 + K3 in one graph
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    assert zero_forcing_number(g) == 1 + 2
    assert zero_forcing_number(Graph.empty(2)) == 2


def test_zero_forcing_min_degree_bound():
    rng = random.Random(67)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        z = zero_forcing_number(g)
        assert z >= min(g.degree(v) for v in range(g.order))


def test_zero_forcing_against_scan_from_one(atlas_graphs):
    # the production search starts at max(#components, min degree)
    rng = random.Random(2008)
    seeded = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(300)]
    for g in [*atlas_graphs.values(), *seeded]:
        assert zero_forcing_number(g) == zero_forcing_scan(g), g


@pytest.mark.parametrize("g", [
    *(Graph.path(n) for n in range(1, 8)),
    *(Graph.cycle(n) for n in range(3, 8)),
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
        raised.append(at_least > max(1, min(g.degree(v) for v in range(g.order))))
        return search(g, at_least=at_least)

    monkeypatch.setattr(bounds, "zero_forcing_number", record)
    for g in cases:
        assert combine(g, forbidden).zfs_lb == g.order - zero_forcing_scan(g), g
    assert len(raised) == len(cases) and sum(raised) >= 20


def test_zfs_and_diam_gating(forbidden):
    assert combine(Graph.complete(5), forbidden).zfs_lb == 1
    assert combine(Graph.path(6), forbidden).zfs_lb == 5
    assert combine(Graph.path(4), forbidden).diam_lb == 3
    assert combine(Graph.empty(1), forbidden).diam_lb == 0
    blank = combine(Graph.empty(2), forbidden)
    assert blank.zfs_lb is None and blank.diam_lb is None


def test_clique_cover_examples():
    assert clique_cover_number(Graph.complete(5)) == 1
    assert clique_cover_number(Graph.path(4)) == 3
    assert clique_cover_number(Graph.cycle(5)) == 5
    assert clique_cover_number(Graph.empty(4)) == 0
    assert clique_cover_number(Graph.complete_bipartite(2, 3)) == 6
    # two triangles sharing an edge: the triangles cover everything
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert clique_cover_number(g) == 2


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


def test_structural_upper_bounds():
    k5, k4, p4 = Graph.complete(5), Graph.complete(4), Graph.path(4)
    assert np_upper_bound(k5) == 1
    assert nop_upper_bound(k5) == 2
    assert path_upper_bound(k5) == 3
    assert np_upper_bound(k4) is None
    assert nop_upper_bound(k4) == 1
    assert path_upper_bound(k4) == 2
    assert np_upper_bound(p4) is None
    assert nop_upper_bound(p4) is None
    assert path_upper_bound(p4) is None
    k7 = Graph.complete(7)
    assert (np_upper_bound(k7), nop_upper_bound(k7), path_upper_bound(k7)) == (3, 4, 5)


def test_forbidden_flag_with_bundled_list(forbidden):
    assert is_forbidden_mr2(Graph.path(4), forbidden)
    assert is_forbidden_mr2(Graph.cycle(5), forbidden)
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
    assert all(k333.degree(v) == 6 for v in range(9))
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


@pytest.mark.parametrize("n", [*range(1, 8), 40])
def test_path_cover_paths(n):
    assert tree_path_cover_number(Graph.path(n)) == 1


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
        tree_path_cover_number(Graph.cycle(4))
    with pytest.raises(ValueError):
        tree_path_cover_number(Graph.empty(2))


def test_path_cover_dp_agreement():
    rng = random.Random(79)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 7))
        assert tree_path_cover_number(t) == tree_path_cover_brute(t)


def test_path_cover_against_all_corpus_trees(atlas_graphs):
    for g in atlas_graphs.values():
        if is_tree(g):
            assert tree_path_cover_number(g) == tree_path_cover_brute(g)


def test_tree_minimum_rank_examples():
    assert tree_minimum_rank(Graph.path(7)) == 6
    assert tree_minimum_rank(Graph.complete_bipartite(1, 4)) == 2
    assert tree_minimum_rank(Graph.empty(1)) == 0


def test_combine_k5(forbidden):
    row = combine(Graph.complete(5), forbidden)
    assert (row.lb, row.ub, row.mr_exact) == (1, 1, 1)
    assert row.con and not row.tree and not row.cv
    assert (row.zfs_lb, row.diam_lb, row.cc_ub) == (1, 1, 1)
    assert (row.np_ub, row.nop_ub, row.path_ub) == (1, 2, 3)
    assert row.is_flag is False


def test_combine_p4(forbidden):
    row = combine(Graph.path(4), forbidden)
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
    assert any(is_isomorphic(p, Graph.path(4)) for p in derived.patterns)
    for p in derived.patterns:
        for q in derived.patterns:
            if p is not q:
                assert not contains_induced(p, q)


def test_derive_forbidden_reports_gaps(atlas_corpus):
    with pytest.raises(ForbiddenDerivationError) as exc:
        derive_forbidden_list(atlas_corpus, {14: 3})
    assert 14 in exc.value.gaps


def test_atlas_index_finds_relabelled_graphs(atlas_corpus, atlas_graphs, monkeypatch):
    index = AtlasIndex(atlas_corpus)
    rng = random.Random(113)
    small = [a for a, g in atlas_graphs.items() if g.order <= 6]
    assert len(small) == 208
    searches = []
    real = graphs.contains_induced
    monkeypatch.setattr(graphs, "contains_induced", lambda g, p: searches.append(p) or real(g, p))
    looked_up = []
    for a in small:
        g = atlas_graphs[a]
        perm = list(range(g.order))
        rng.shuffle(perm)
        looked_up.append((a, relabel(g, perm)))
    for a, h in looked_up:
        assert index.atlas_number(h) == a
    first = len(searches)
    assert first >= len(small)
    # every graph again: the index remembers its answers and searches no more
    for a, h in looked_up:
        assert index.atlas_number(h) == a
    assert len(searches) == first


def test_atlas_index_confirms_every_bucket(atlas_corpus):
    # truncate just before the first graph whose class key an earlier
    # graph already has: its bucket is nonempty but holds another class,
    # so the lookup must still fail
    seen = set()
    for cut, g in enumerate(atlas_corpus):
        key = class_key(g)
        if key in seen:
            break
        seen.add(key)
    index = AtlasIndex(atlas_corpus[:cut])
    with pytest.raises(LookupError):
        index.atlas_number(atlas_corpus[cut])
    with pytest.raises(LookupError):
        index.atlas_number(Graph.complete(7))
    # the key is a class invariant: no relabeling moves a graph to another bucket
    rng = random.Random(29)
    for g in atlas_corpus:
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert class_key(relabel(g, perm)) == class_key(g)


def test_read_write_forbidden_round_trip(tmp_path, forbidden):
    path = tmp_path / "fl.g6"
    bounds.write_forbidden_list(path, forbidden)
    again = bounds.read_forbidden_list(path)
    assert again.patterns == forbidden.patterns
    path.write_text("# comment only\n\n")
    with pytest.raises(ValueError):
        bounds.read_forbidden_list(path)
