"""Independent reference implementations, used only to cross-check the
package's algorithms.  Each one deliberately takes a different route
than the production code."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from minrank_atlas.graphs import Graph, bits

# Kuratowski's graphs: planar iff neither is a minor (Wagner)
K5 = Graph.complete(5)
K33 = Graph.complete_bipartite(3, 3)


def gauss_jordan_rank(rows) -> int:
    """Rank by plain rational Gauss-Jordan reduction (normalized pivots)."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def tree_path_cover_brute(t: Graph) -> int:
    """Minimum path cover of a tree by scanning all 2^(n-1) edge subsets.

    A path partition of a tree is exactly a spanning linear forest, so
    the cover is n minus the most edges in a subset with degrees <= 2.
    """
    edges = list(t.edges())
    best_edges = 0
    for mask in range(1 << len(edges)):
        deg = [0] * t.order
        for i in bits(mask):
            for v in edges[i]:
                deg[v] += 1
        if max(deg) <= 2:
            best_edges = max(best_edges, mask.bit_count())
    return t.order - best_edges


def zero_forcing_scan(g: Graph) -> int:
    """Zero forcing number by trying vertex sets smallest first, from size 1,
    with a one-force-at-a-time closure over Python sets."""
    nbrs = [set(bits(row)) for row in g.adj]
    for k in range(1, g.order + 1):
        for combo in combinations(range(g.order), k):
            filled = set(combo)
            forced = True
            while forced:
                forced = False
                for v in list(filled):
                    white = nbrs[v] - filled
                    if len(white) == 1:
                        filled |= white
                        forced = True
            if len(filled) == g.order:
                return k
    raise AssertionError("unreachable: the full vertex set always forces")


def brute_contains_induced(g: Graph, pattern: Graph) -> bool:
    """Induced containment by trying every injective map V(pattern) -> V(g)."""
    pairs = list(combinations(range(pattern.order), 2))
    return any(
        all(g.has_edge(image[a], image[b]) == pattern.has_edge(a, b) for a, b in pairs)
        for image in permutations(range(g.order), pattern.order)
    )


def brute_contains_subgraph(g: Graph, pattern: Graph) -> bool:
    """Subgraph containment by trying every injective map V(pattern) -> V(g);
    only pattern edges must land on edges, non-edges are free."""
    pairs = list(pattern.edges())
    return any(
        all(g.has_edge(image[a], image[b]) for a, b in pairs)
        for image in permutations(range(g.order), pattern.order)
    )


def brute_clique_cover(g: Graph) -> int:
    """Smallest family of cliques covering all edges, by raw enumeration.

    Cliques are all complete vertex subsets of size >= 2; only for tiny
    graphs.
    """
    edges = list(g.edges())
    if not edges:
        return 0
    eindex = {e: i for i, e in enumerate(edges)}
    cliques = []
    for k in range(2, g.order + 1):
        for sub in combinations(range(g.order), k):
            if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                em = 0
                for a, b in combinations(sub, 2):
                    em |= 1 << eindex[(a, b)]
                cliques.append(em)
    full = (1 << len(edges)) - 1
    for k in range(1, len(edges) + 1):
        for family in combinations(cliques, k):
            acc = 0
            for em in family:
                acc |= em
            if acc == full:
                return k
    raise AssertionError("edges always coverable by themselves")


def brute_has_minor(g: Graph, h: Graph) -> bool:
    """Minor test by enumerating branch-set assignments (class 0 = unused).

    Each h-vertex gets a nonempty connected branch set; every h-edge
    needs some g-edge between the two sets.  Exponential; tiny g only.
    """
    k = h.order
    hedges = list(h.edges())
    for assign in product(range(k + 1), repeat=g.order):
        sets = [0] * k
        for v, c in enumerate(assign):
            if c:
                sets[c - 1] |= 1 << v
        if any(s == 0 for s in sets):
            continue
        if not all(_connected_in(g, s) for s in sets):
            continue
        ok = True
        for a, b in hedges:
            if not _touching(g, sets[a], sets[b]):
                ok = False
                break
        if ok:
            return True
    return False


def _connected_in(g: Graph, s: int) -> bool:
    start = s & -s
    comp = start
    while True:
        grown = comp
        for v in bits(comp):
            grown |= g.adj[v] & s
        if grown == comp:
            return comp == s
        comp = grown


def _touching(g: Graph, s1: int, s2: int) -> bool:
    return any(g.adj[v] & s2 for v in bits(s1))


def is_triangle_free(g: Graph) -> bool:
    return all(not g.adj[i] & g.adj[j] for i, j in g.edges())


def induced_subgraph_by_index(g: Graph, s: int) -> Graph:
    """Induced subgraph rebuilt bit by bit through a vertex -> new-index map."""
    verts = list(bits(s))
    index = {v: k for k, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in bits(g.adj[v] & s):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(verts), tuple(rows))


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(rng, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Graph with vertex v renamed to perm[v]."""
    rows = [0] * g.order
    for i in range(g.order):
        for j in bits(g.adj[i]):
            rows[perm[i]] |= 1 << perm[j]
    return Graph(g.order, tuple(rows))
