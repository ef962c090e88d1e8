"""Minor containment for small graphs, and the excluded-minor planarity
and outerplanarity tests built on it.

has_minor searches by the classic recursion: H is a minor of G iff H is
a subgraph of G (the shared search graphs.embeds, not induced) or H is
a minor of some single-edge contraction of G.  It is exponential in the
order of G; a visited set keeps repeated contractions from blowing up.

is_planar and is_outerplanar run it only where exact reductions leave
a doubt.  K5, K3,3, K4 and K2,3 are 2-connected, so each such minor
lies inside one block, and the tests run block by block.  A block of
order <= 4 (<= 3 for outerplanarity) passes at once, Euler's bounds
m <= 3n - 6 and m <= 2n - 3 reject dense blocks, and every outerplanar
graph has a vertex of degree <= 2.  Planarity also suppresses degree-2
vertices first, which keeps planarity both ways; outerplanarity must
not, since K2,3 suppresses to the outerplanar K4 - e.
"""

from __future__ import annotations

from minrank_atlas.graphs import Graph, bits, blocks, embeds, induced_subgraph

K5 = Graph.complete(5)
K4 = Graph.complete(4)
K33 = Graph.complete_bipartite(3, 3)
K23 = Graph.complete_bipartite(2, 3)


def _contract(g: Graph, u: int, v: int) -> Graph:
    """Merge v into u and drop v; parallel edges and loops collapse away."""
    adj = list(g.adj)
    moved = adj[v] & ~(1 << u)
    adj[u] |= moved
    for w in bits(moved):
        adj[w] |= 1 << u
    return induced_subgraph(Graph(g.order, tuple(adj)), g.vertex_mask ^ (1 << v))


def has_minor(g: Graph, h: Graph) -> bool:
    """True iff h is a minor of g."""
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def search(cur: Graph) -> bool:
        if cur.order < h.order or cur.size() < h.size():
            return False
        key = (cur.order, cur.adj)
        if key in seen:
            return False
        seen.add(key)
        if embeds(cur, h, induced=False):
            return True
        if cur.order == h.order:
            return False
        for i, j in cur.edges():
            if search(_contract(cur, i, j)):
                return True
        return False

    return search(g)


def _suppress_degree_two(g: Graph) -> Graph:
    """Delete degree-2 vertices while the order exceeds 4, joining each
    one's two neighbours when they are not already adjacent."""
    adj = list(g.adj)
    alive = g.vertex_mask
    for _ in range(g.order - 4):
        v = next((v for v in bits(alive) if adj[v].bit_count() == 2), None)
        if v is None:
            break
        a, b = bits(adj[v])
        adj[a] = (adj[a] ^ (1 << v)) | (1 << b)
        adj[b] = (adj[b] ^ (1 << v)) | (1 << a)
        adj[v] = 0
        alive ^= 1 << v
    return induced_subgraph(Graph(g.order, tuple(adj)), alive)


def is_planar(g: Graph) -> bool:
    """No K5 minor and no K3,3 minor, tested block by block."""
    for block in blocks(g):
        if block.bit_count() <= 4:
            continue
        b = _suppress_degree_two(induced_subgraph(g, block))
        if b.order <= 4:
            continue
        if b.size() > 3 * b.order - 6 or has_minor(b, K5) or has_minor(b, K33):
            return False
    return True


def is_outerplanar(g: Graph) -> bool:
    """No K4 minor and no K2,3 minor, tested block by block."""
    for block in blocks(g):
        if block.bit_count() <= 3:
            continue
        b = induced_subgraph(g, block)
        if b.size() > 2 * b.order - 3 or min(map(int.bit_count, b.adj)) >= 3:
            return False
        if has_minor(b, K4) or has_minor(b, K23):
            return False
    return True
