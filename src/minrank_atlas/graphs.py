"""Bitset-backed simple graphs and the structural predicates the bound
computations rely on.

Vertices are 0-based.  A vertex set is a plain int used as a bitmask
(bit v set <=> vertex v in the set), which keeps the inner loops of the
solvers branch-light.  Graphs are immutable and hashable.  embeds is
the one backtracking search, shared by induced containment, isomorphism
and the minor test's subgraph step.  It rejects on edge and non-edge
counts before searching, and searches iteratively along a plan built
once per pattern and kept in a bounded cache.  class_key is the one
isomorphism invariant: the prefilter of is_isomorphic and the bucket
key of bounds.AtlasIndex, on whose certified orders it decides the
class with no search.

Every construction is validated on the whole adjacency matrix at once.
The n rows are packed into one int, row i in bits [i*w, (i+1)*w) with
w the smallest of 8/16/32/64 that is >= n (struct rejects a negative,
too wide or non-int row).  One AND with the diagonal finds a loop;
log2(w) delta swaps (Hacker's Delight, section 7-3) transpose the
packed matrix, and the graph is symmetric iff the transpose equals it.
That test also finds a bit at or beyond column n, whose mirror would
lie in a row the matrix does not have.  Only a graph that fails is
scanned row by row and pair by pair, so that the message names the
first fault.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterator

MAX_ORDER = 64

VertexSet = int


def bits(mask: VertexSet) -> Iterator[int]:
    """Yield the positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unit_rows(rows: int, width: int) -> int:
    """The int with bit 0 of each of rows consecutive width-bit fields set."""
    return ((1 << (rows * width)) - 1) // ((1 << width) - 1)


_LAYOUTS: list = [None] * (MAX_ORDER + 1)  # per order, filled on first use


def _layout(n: int):
    """Order n's row packer, the mask of its diagonal, and the delta
    swaps that transpose its packed matrix."""
    w = 8
    while w < n:
        w *= 2
    swaps = []
    s = w // 2
    while s:  # swap the top-right and bottom-left s x s blocks of each 2s x 2s block
        top_rows = ((1 << (s * w)) - 1) * _unit_rows(w // (2 * s), 2 * s * w)
        right_cols = (((1 << s) - 1) << s) * _unit_rows(w // (2 * s), 2 * s)
        swaps.append((s * (w - 1), top_rows & right_cols * _unit_rows(w, w)))
        s //= 2
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}[w]
    _LAYOUTS[n] = layout = (struct.Struct(f"<{n}{code}").pack, _unit_rows(n, w + 1), tuple(swaps))
    return layout


def _raise_first_fault(n: int, adj) -> None:
    """Raise for the first bad row, loop or asymmetric pair of adj."""
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"row {i} has bits outside 0..{n - 1}")
        if (row >> i) & 1:
            raise ValueError(f"loop at vertex {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if (adj[i] >> j) & 1 != (adj[j] >> i) & 1:
                raise ValueError(f"asymmetric adjacency at ({i},{j})")


class Graph:
    """Undirected simple graph: adj[i] has bit j set iff {i,j} is an edge.

    Immutable: equality and hashing are on (order, adj).  The constructor
    checks the packed matrix: no bit on the diagonal, and equal to its
    transpose (see the module docstring).
    """

    __slots__ = ("order", "adj")
    order: int
    adj: tuple[int, ...]

    def __init__(self, order: int, adj: tuple[int, ...]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", adj)
        n = order
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n}")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        # a list index, not a dict key: a float order raises TypeError
        pack, diagonal, swaps = _LAYOUTS[n] or _layout(n)
        try:
            m = int.from_bytes(pack(*adj), "little")
        except struct.error:  # a negative, too wide or non-int row: the scan names it
            m = diagonal
        t = m
        for shift, mask in swaps:
            d = ((t >> shift) ^ t) & mask
            t ^= d ^ (d << shift)
        if m & diagonal or t != m:
            _raise_first_fault(n, adj)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.adj) == (other.order, other.adj)

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order!r}, adj={self.adj!r})"

    def __reduce__(self):
        # copy and pickle rebuild a graph through the validating
        # constructor, since __setattr__ refuses the default slot restore
        return (Graph, (self.order, self.adj))

    @classmethod
    def from_edges(cls, order: int, edges) -> Graph:
        rows = [0] * order
        for i, j in edges:  # the constructor rejects a loop (i, i)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(order, tuple(rows))

    @property
    def vertex_mask(self) -> VertexSet:
        return (1 << self.order) - 1

    def size(self) -> int:
        return sum(map(int.bit_count, self.adj)) >> 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """The edges (i, j) with i < j, in lexicographic order."""
        for i, row in enumerate(self.adj):
            rest = row & -(2 << i)
            while rest:
                low = rest & -rest
                yield i, low.bit_length() - 1
                rest ^= low


def components(g: Graph) -> list[VertexSet]:
    """Maximal connected vertex sets, ascending by smallest vertex."""
    adj = g.adj
    seen = 0
    out = []
    for v in range(g.order):
        if (seen >> v) & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def diameter(g: Graph) -> int:
    """Largest BFS distance over vertex pairs; rejects disconnected input."""
    adj = g.adj
    best = 0
    full = g.vertex_mask
    for v in range(g.order):
        reached = frontier = 1 << v
        dist = 0
        while True:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & ~reached
            if not frontier:
                break
            reached |= frontier
            dist += 1
        if reached != full:
            raise ValueError("diameter is undefined for a disconnected graph")
        best = max(best, dist)
    return best


def blocks(g: Graph) -> list[VertexSet]:
    """Vertex sets of the biconnected components: 2-connected blocks,
    bridges and isolated vertices.  Every edge lies in exactly one block.

    Tarjan's low-link DFS in vertex-stack form, on an explicit stack of
    the vertices whose neighbours are still being scanned, children in
    ascending order: when a child w is done with low[w] >= disc[u], the
    vertices stacked since w, plus u, form one block.  On entering u,
    every neighbour already seen is an ancestor (in an undirected DFS a
    finished vertex has seen all its neighbours), and a neighbour seen
    later is a descendant, whose disc cannot lower low[u]; so u's
    back edges are read once, on entry, as one mask.
    """
    n = g.order
    adj = g.adj
    disc = [0] * n
    low = [0] * n
    todo = list(adj)  # todo[u]: u's neighbours that may still be children
    stack: list[int] = []
    out: list[VertexSet] = []
    seen = 0
    timer = 0
    for v in range(n):
        if (seen >> v) & 1:
            continue
        seen |= 1 << v
        disc[v] = low[v] = timer
        timer += 1
        path = [v]  # the DFS path from v; u = path[-1] is being scanned
        while path:
            u = path[-1]
            kids = todo[u] & ~seen
            if kids:
                bit = kids & -kids
                todo[u] = kids ^ bit
                w = bit.bit_length() - 1
                least = disc[w] = timer
                timer += 1
                back = adj[w] & seen & ~(1 << u)
                while back:
                    b = back & -back
                    d = disc[b.bit_length() - 1]
                    if d < least:
                        least = d
                    back ^= b
                low[w] = least
                seen |= bit
                stack.append(w)
                path.append(w)
                continue
            path.pop()
            if path:
                p = path[-1]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    block = 1 << p
                    while True:
                        x = stack.pop()
                        block |= 1 << x
                        if x == u:
                            break
                    out.append(block)
        if not adj[v]:
            out.append(1 << v)
    return out


def articulation_points(g: Graph, block_sets: list[VertexSet] | None = None) -> VertexSet:
    """Vertices whose removal increases the component count: those that
    lie in two or more blocks.  block_sets, when given, is blocks(g)."""
    seen = cut = 0
    for b in blocks(g) if block_sets is None else block_sets:
        cut |= seen & b
        seen |= b
    return cut


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.size() == g.order - 1


def induced_subgraph(g: Graph, s: VertexSet) -> Graph:
    """Subgraph induced by s, relabeled to 0..|s|-1 preserving vertex order.

    Each row keeps its bits in s, then every removed bit position is
    squeezed out, highest first, by shifting the bits above it down one.
    """
    if not s:
        raise ValueError("cannot induce on the empty vertex set")
    if s & ~g.vertex_mask:
        raise ValueError("vertex set has bits outside the graph")
    lows = [(1 << p) - 1 for p in reversed(list(bits(g.vertex_mask ^ s)))]
    rows = []
    for v in bits(s):
        r = g.adj[v] & s
        for low in lows:
            r = (r & low) | ((r >> 1) & ~low)
        rows.append(r)
    return Graph(len(rows), tuple(rows))


def contract(g: Graph, u: int, v: int) -> Graph:
    """Merge v into u and drop v; parallel edges and loops collapse away,
    and the labels above v shift down by one."""
    adj = list(g.adj)
    bit = 1 << u
    moved = adj[v] & ~bit
    adj[u] |= moved
    while moved:
        low = moved & -moved
        adj[low.bit_length() - 1] |= bit
        moved ^= low
    return induced_subgraph(Graph(g.order, tuple(adj)), ((1 << g.order) - 1) ^ (1 << v))


def class_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(order, the sorted per-vertex (degree, triangles through v, sum of
    neighbour degrees)): isomorphic graphs share it, so only graphs with
    equal keys need the bijection search.  It separates all 1252 atlas
    classes.  Each triple is packed into one int, degree above bit 23
    and triangles above bit 12: up to order 64 a degree is < 64, a
    vertex has < 2**11 triangles and its neighbours' degrees sum to
    < 2**12, so the fields cannot overlap and the ints sort as the
    triples do."""
    adj = g.adj
    deg = list(map(int.bit_count, adj))
    fields = []
    for d, row in zip(deg, adj):
        twice = spread = 0  # twice the triangles through v; the neighbours' degree sum
        rest = row
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            twice += (adj[w] & row).bit_count()
            spread += deg[w]
            rest ^= low
        fields.append(d << 23 | twice << 11 | spread)
    fields.sort()
    return g.order, tuple(fields)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Adjacency-preserving bijection test: class_key prefilter, then the
    induced-embedding search, which between equal orders is a bijection.
    h is the searched pattern, so a caller that holds one graph fixed
    passes it second and reuses its plan (verify_witness passes the
    atlas graph)."""
    return class_key(g) == class_key(h) and contains_induced(g, h)


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """True iff some vertex subset of g induces a copy of pattern: embeds
    in its induced mode, which keeps non-adjacency as well as adjacency."""
    return embeds(g, pattern, induced=True)


# Plans, not answers, are cached.  The cache is a bounded LRU rather
# than a plan held by each looping caller, because the patterns are not
# bounded: AtlasIndex sends one query graph per lookup on an order it
# cannot certify (on a certified order it searches none).  The loops that
# repeat a pattern (the forbidden list in every combine, K4/K2,3 in the
# combine of the bounds command, which alone runs the minor search, the
# kept graphs and each deletion across the hosts of
# derive_forbidden_list, a query across its bucket, an atlas graph
# across verify-witnesses runs) reuse it while it is recent.
@functools.lru_cache(maxsize=128)
def _plan(pattern: Graph):
    """Pattern's edge count and, per search level: the degree of the
    level's vertex, and the earlier levels it is joined to and apart
    from.  High-degree vertices come first, since they prune hardest.
    """
    adj = pattern.adj
    order = sorted(range(pattern.order), key=lambda v: adj[v].bit_count(), reverse=True)
    joined = []
    apart = []
    for i, v in enumerate(order):
        row = adj[v]
        joined.append(tuple([e for e in range(i) if (row >> order[e]) & 1]))
        apart.append(tuple([e for e in range(i) if not (row >> order[e]) & 1]))
    # tuples: every caller of a pattern shares its plan
    return pattern.size(), tuple([adj[v].bit_count() for v in order]), tuple(joined), tuple(apart)


def embeds(g: Graph, pattern: Graph, *, induced: bool) -> bool:
    """True iff some injective map V(pattern) -> V(g) sends every pattern
    edge to an edge and, when induced, every non-edge to a non-edge.

    Counts reject first: g needs at least the pattern's edges and, when
    induced, at least its non-edges (so between equal orders exactly its
    edges).  Then one depth-first search follows the pattern's cached
    plan (see _plan), keeping each level's untried candidates as a mask
    on an explicit stack.  A level's candidates come from degree
    buckets: a g-vertex needs at least the pattern vertex's degree d
    and, when induced, at most d + g.order - pattern.order, since its
    non-neighbours must hold the pattern vertex's.
    """
    k, n = pattern.order, g.order
    if k > n:
        return False
    size, degs, joined, apart = _plan(pattern)
    gadj = g.adj
    gdeg = list(map(int.bit_count, gadj))
    m = sum(gdeg) >> 1
    if size > m or induced and k * (k - 1) // 2 - size > n * (n - 1) // 2 - m:
        return False
    at_least = [0] * (n + 1)  # at_least[d]: the g-vertices of degree >= d
    for w, d in enumerate(gdeg):
        at_least[d] |= 1 << w
    for d in range(n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    if induced:
        slack = n - k + 1
        masks = [at_least[d] & ~at_least[d + slack] for d in degs]
    else:
        masks = [at_least[d] for d in degs]
    rows = [0] * k    # rows[i]: g-row of the vertex placed at level i
    placed = [0] * k  # placed[i]: its bit; placed[k - 1] stays 0, so the last step back frees none
    cands = [0] * k   # cands[i]: level i's candidates not yet tried
    cands[0] = masks[0]
    used = 0
    i = 0
    while i >= 0:
        c = cands[i]
        if not c:
            i -= 1
            used ^= placed[i]
            continue
        low = c & -c
        cands[i] = c ^ low
        if i + 1 == k:
            return True
        placed[i] = low
        used |= low
        rows[i] = gadj[low.bit_length() - 1]
        i += 1
        c = masks[i] & ~used
        for e in joined[i]:
            c &= rows[e]
        if induced:
            for e in apart[i]:
                c &= ~rows[e]
        cands[i] = c
    return False


def maximal_cliques(g: Graph) -> list[VertexSet]:
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted by bitset value.

    The calls (r, p, x) wait on an explicit stack: a call's children take
    their arguments from the loop over its candidates alone, never from
    a child's result, so each call pushes all of them at once.
    """
    out: list[VertexSet] = []
    adj = g.adj
    stack = [(0, g.vertex_mask, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(r)
            continue
        pivot_row = 0
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            row = adj[low.bit_length() - 1]
            c = (row & p).bit_count()
            if c > best:
                best = c
                pivot_row = row
            rest ^= low
        cand = p & ~pivot_row
        while cand:
            bit = cand & -cand
            row = adj[bit.bit_length() - 1]
            stack.append((r | bit, p & row, x & row))
            p ^= bit
            x |= bit
            cand ^= bit
    return sorted(out)
