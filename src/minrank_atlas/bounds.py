"""One operation per bound column, the combiner that folds them into a
row, and the derivation of the forbidden-subgraph family that decides
the "minimum rank at most 2" test: the minimal reference graphs with
mr >= 3 under induced containment, found in one pass.

Bound semantics (n = order, connected g unless noted):
  zero forcing   mr >= n - Z(g)
  diameter       mr >= diam(g)
  clique cover   mr <= cc(g)
  nonplanar      mr <= n - 4
  not outerplanar mr <= n - 3
  not a path     mr <= n - 2
  no induced forbidden pattern and no induced K3,3,3
                 mr <= 2 (Barrett-van der Holst-Loewy); with one, mr >= 3
  tree           mr = n - P(g) exactly (P = path cover number)
Disconnected graphs: every bound is the sum over components
(disjoint_union_row), and the CONNECTED_ONLY columns are blank.  That
one list drives check_connected_only (the rule of a BoundsRow and of a
reference row), the blanks of disjoint_union_row and catalog.diff.
zero_forcing_number and clique_cover_number sum over components
themselves.  np, nop and path are one line each in combine.

Block columns: cc, np and nop are decided block by block, and np and
nop of a 2-connected graph with a degree-2 vertex are those of the
graph with that vertex contracted, up to one connectivity test (combine
gives the theorems).  combine reads them from the rows of those smaller
graphs when its caller hands it the rows of the pieces
(catalog.compute_all, which holds every smaller atlas class); alone
(bounds --graph6) it computes them on the graph itself.

combine computes the upper bounds first and starts the zero forcing
search at n - ub, ub the least of cc, np, nop, path, n - 1 and the tree
rank: Z(g) >= M(g) = n - mr(g) (AIM Minimum Rank-Special Graphs Work
Group, LAA 428, 2008), and mr <= ub.  The mr <= 2 bound stays out of
that minimum.  It holds only when the forbidden list is complete, and
a list read with --forbidden may not be; the other bounds are theorems
about g alone.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from itertools import combinations
from operator import attrgetter

from minrank_atlas import graphs
from minrank_atlas.graph6 import from_graph6, read_lines, text
from minrank_atlas.graphs import Graph, VertexSet
from minrank_atlas.minors import is_outerplanar, is_planar


# The fields that only a connected row fills, the four that it always
# fills first; np_ub, nop_ub and path_ub stay None when the triggering
# structure is absent.
CONNECTED_ONLY = ("zfs_lb", "diam_lb", "cc_ub", "is_flag", "np_ub", "nop_ub", "path_ub")
_unconditional = attrgetter(*CONNECTED_ONLY[:4])
_connected_only = attrgetter(*CONNECTED_ONLY)
_BLANK = (None,) * len(CONNECTED_ONLY)


def check_connected_only(row) -> None:
    """The connected-only rule, of a BoundsRow or a catalog.FixtureRow."""
    if row.con and None in _unconditional(row):
        raise ValueError("connected row missing an unconditional column")
    if not row.con and _connected_only(row) != _BLANK:
        raise ValueError("disconnected row carries a connected-only column")


class BoundsRow(namedtuple("BoundsRow", (
    "order", "size", "con", "zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub",
    "path_ub", "is_flag", "cv", "tree", "lb", "ub", "mr_exact",
))):
    """Computed analogue of one table row.

    The CONNECTED_ONLY columns are None on disconnected rows.  mr_exact
    is set only when the bounds pin the minimum rank.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lb > self.ub:
            raise ValueError(f"lb {self.lb} exceeds ub {self.ub}")
        if self.mr_exact is not None and not self.lb <= self.mr_exact <= self.ub:
            raise ValueError(f"mr_exact {self.mr_exact} outside [{self.lb}, {self.ub}]")
        check_connected_only(self)
        return self


class ForbiddenList(namedtuple("ForbiddenList", ("patterns",))):
    """Minimal graphs whose induced presence forces minimum rank >= 3."""

    __slots__ = ()

    def __new__(cls, patterns: tuple[Graph, ...]):
        self = super().__new__(cls, patterns)
        if not self.patterns:
            raise ValueError("forbidden list must be nonempty")
        return self


def _closure(adj: tuple[int, ...], filled: VertexSet) -> VertexSet:
    """Least superset of filled (inside the graph) closed under the
    color-change rule: each round walks the filled bits inline, and each
    filled vertex with exactly one unfilled neighbour forces it."""
    while True:
        grown = rest = filled
        while rest:
            low = rest & -rest
            unfilled = adj[low.bit_length() - 1] & ~grown
            if unfilled and unfilled & (unfilled - 1) == 0:
                grown |= unfilled
            rest ^= low
        if grown == filled:
            return filled
        filled = grown


def zero_forcing_number(g: Graph, *, at_least: int = 0) -> int:
    """Smallest |B| whose closure fills the graph.

    No force crosses a component, so a disconnected graph's Z is the sum
    over its components, and at_least is ignored there.  A connected
    graph's search runs over cardinalities in increasing order, subsets
    in lexicographic order, from max(min degree, at_least): the first
    force u -> w needs N[u] minus w inside B, which is deg(u) >= min
    degree vertices (with no force at all, B is V, larger still).
    at_least must be a lower bound on Z(g), or the answer is too large.
    combine passes n - ub, since Z >= n - mr >= n - ub for any ub on mr
    that holds for g alone; the mr <= 2 bound, which holds only when
    the forbidden list is complete, is not one of them.  verify_witness
    passes n - rank of a matrix with g's pattern, an ub of that kind.
    """
    comps = graphs.components(g)
    if len(comps) > 1:
        return sum(zero_forcing_number(graphs.induced_subgraph(g, c)) for c in comps)
    adj = g.adj
    full = g.vertex_mask
    singletons = [1 << v for v in range(g.order)]
    for k in range(max(min(map(int.bit_count, adj)), at_least), g.order + 1):
        for combo in combinations(singletons, k):
            if _closure(adj, sum(combo)) == full:
                return k
    raise AssertionError("unreachable: the full vertex set always forces")


def clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques covering every edge (exact branch and bound).

    Candidates are maximal cliques only: any clique in a cover can be
    enlarged to a maximal one without increasing the count.  Edge {i<j}
    is bit i*n + j, so row i's edges are (adj[i] above i) << i*n, and a
    clique's are its own vertex bits above i shifted the same way.

    Forced cliques come first (the data reduction of Gramm-Guo-Hueffner-
    Niedermeier, ACM JEA 13, 2008): an edge that lies in exactly one
    maximal clique C is covered in every cover by a subclique of C, and
    swapping that subclique for C keeps the count and covers no less, so
    some minimum cover holds C.  Every forced clique is then taken at
    once: cc(g) = forced + the least number of the other cliques that
    covers the edges the forced ones leave.  Each of those edges lies in
    two or more cliques, none forced; the branch runs on them alone.

    The search branches on the lowest uncovered edge, over the cliques
    that hold both of its ends, depth first on an explicit stack: it may
    hold one frame per clique of a cover, and n*n/4 cliques always
    suffice (Erdos-Goodman-Posa, 1966), 1024 at order 64.  It prunes a
    partial cover that cannot beat the best one by the packing bound: no
    clique covers more of the left edges than the most any one covers
    at the start.  Every clique lies in one component, so a disconnected
    graph sums its components' covers.
    """
    n = g.order
    uncovered = 0
    for i, row in enumerate(g.adj):
        uncovered |= (row >> (i + 1)) << (i * n + i + 1)
    if not uncovered:
        return 0
    comps = graphs.components(g)
    if len(comps) > 1:
        return sum(clique_cover_number(graphs.induced_subgraph(g, c)) for c in comps)
    cliques = []
    once = twice = 0  # the edges in at least one, and in at least two, maximal cliques
    for c in graphs.maximal_cliques(g):
        if c & (c - 1):
            em = 0
            rest = c
            while rest:
                low = rest & -rest
                rest ^= low
                em |= rest << ((low.bit_length() - 1) * n)
            cliques.append((c, em))
            twice |= once & em
            once |= em
    single = once & ~twice
    forced = 0
    for _, em in cliques:
        if em & single:
            forced += 1
            uncovered &= ~em
    if not uncovered:
        return forced
    # the cliques left, each cut to the edges it can still cover
    cliques = [(c, em & uncovered) for c, em in cliques if em & uncovered]
    max_clique_edges = max(em.bit_count() for _, em in cliques)
    best = uncovered.bit_count() + 1

    # one frame per clique of the partial cover: the edges it leaves
    # uncovered, the ends of the lowest, and the cliques not yet tried
    i, j = divmod((uncovered & -uncovered).bit_length() - 1, n)
    stack = [(uncovered, (1 << i) | (1 << j), iter(cliques))]
    while stack:
        uncovered, ends, options = stack[-1]
        for c, em in options:
            if c & ends == ends:
                rest = uncovered & ~em
                if not rest:  # a cover; no sibling can beat it
                    best = len(stack)
                    stack.pop()
                    break
                need = (rest.bit_count() + max_clique_edges - 1) // max_clique_edges
                if len(stack) + need < best:
                    i, j = divmod((rest & -rest).bit_length() - 1, n)
                    stack.append((rest, (1 << i) | (1 << j), iter(cliques)))
                    break
        else:
            stack.pop()
    return forced + best


# Barrett, van der Holst and Loewy, "Graphs whose minimal rank is two"
# (ELA 11, 2004): over the reals, mr(G) <= 2 iff G has no induced P4,
# dart, ltimes, P3 + K2, 3K2 or K3,3,3.  The list derived from the atlas
# holds the first five; K3,3,3 has order 9, so no atlas graph shows it,
# and graphs.embeds rejects it on a smaller host before any search.
K333 = Graph.from_edges(9, [(i, j) for i in range(9) for j in range(i + 1, 9) if i // 3 != j // 3])


def is_forbidden_mr2(g: Graph, forbidden: ForbiddenList) -> bool:
    """True iff g contains some forbidden pattern or K333 as an induced subgraph."""
    return any(graphs.contains_induced(g, p) for p in (*forbidden.patterns, K333))


def tree_minimum_rank(t: Graph) -> int:
    """Minimum rank of a tree: n - P(t), P the path cover number.

    A path partition of a tree is a spanning linear forest, so
    P(t) = n - (most edges in a linear forest of t), and mr(t) is that
    edge count.  Per vertex v, in the reverse of a breadth-first order
    from vertex 0 (so after all of v's children), it finds the most
    forest edges in v's subtree with v free (up to two child edges) and
    with v joined to its parent (at most one).  Taking the edge to a
    child c gains joined(c) + 1 - free(c), which is 0 or 1, so v takes
    up to its limit of the children that gain 1.
    """
    if not graphs.is_tree(t):
        raise ValueError("path cover formula applies to trees only")
    adj = t.adj
    parent = [0] * t.order  # the root is its own parent; it has no loop
    order = [0]
    for v in order:
        kids = adj[v] & ~(1 << parent[v])
        while kids:
            low = kids & -kids
            parent[low.bit_length() - 1] = v
            order.append(low.bit_length() - 1)
            kids ^= low
    base = [0] * t.order
    gains = [0] * t.order
    for v in reversed(order):
        free = base[v] + min(gains[v], 2)
        joined = base[v] + min(gains[v], 1)
        if v:
            base[parent[v]] += free
            gains[parent[v]] += joined + 1 - free
    return free


def disjoint_union_row(parts: Sequence[BoundsRow]) -> BoundsRow:
    """Row of the disjoint union of two or more graphs, from their rows:
    order, size, lb, ub and mr_exact (when every part has one) are sums,
    cv holds when some part has a cut vertex, and every connected-only
    column is blank."""
    exact = None
    if all(p.mr_exact is not None for p in parts):
        exact = sum(p.mr_exact for p in parts)
    return BoundsRow(
        order=sum(p.order for p in parts),
        size=sum(p.size for p in parts),
        con=False,
        cv=any(p.cv for p in parts),
        tree=False,
        lb=sum(p.lb for p in parts),
        ub=sum(p.ub for p in parts),
        mr_exact=exact,
        **dict.fromkeys(CONNECTED_ONLY),
    )


def combine(
    g: Graph, forbidden: ForbiddenList, piece_row: Callable[[Graph], BoundsRow] | None = None
) -> BoundsRow:
    """Fold every bound into one row; disconnected graphs sum over components.

    A connected row computes graphs.blocks once: cv comes from it, and
    the planarity and outerplanarity tests take it.  It counts edges
    once too: it is a tree iff it has n - 1, and the path test reads that.

    piece_row, when given, returns the row of a connected piece of g;
    a caller that already holds those rows passes it (compute_all).  A
    disconnected g then sums piece_row over its components, and a
    connected g with a cut vertex takes cc, np and nop from its blocks:
    every clique lies in one block, and so does every K5, K3,3, K4 or
    K2,3 subdivision or minor, since each is 2-connected.  So cc is the
    sum over the blocks, 1 for a K2 or K3 block and the block row's
    cc_ub for a larger one, and g is planar (outerplanar) iff every
    block row has np_ub (nop_ub) None.

    With piece_row, a 2-connected g of order n >= 4 with a vertex of
    degree 2 takes np and nop from one smaller row too (the degree-2
    reduction of Mitchell's outerplanarity test, IPL 9, 1979).  Let v be
    the lowest such vertex, u < w its neighbours, and H = contract(g, u,
    v): g - v when u and w are adjacent, g with the path u v w replaced
    by the edge uw when they are not.  H is 2-connected of order n - 1.
    Suppressing v keeps 2-connectivity; so does deleting it, since a cut
    vertex x of g - v outside {u, w} would leave u and w, joined by uw,
    on one side, and v would not reconnect g - x, while g - v - u is
    g - u without its leaf v.  Then:
      (a) g is planar iff H is.  H is a minor of g; and in a plane
          drawing of H, v goes on the edge uw, or into a face beside it.
      (b) g is outerplanar iff H is and H - {u, w} is connected, that is
          g - {u, v, w}.  A 2-connected outerplanar graph of order >= 3
          has one Hamiltonian cycle C, its outer face.  If uw lies on C,
          C - {u, w} is a path; if uw is a chord, it splits C - {u, w}
          into two arcs that no edge joins, as such an edge would cross
          uw.  So the test says uw lies on C, and v then goes outside C
          beside uw.  Conversely, in an outerplanar g both edges at v
          lie on g's cycle, and u v w replaced by uw is a Hamiltonian
          cycle of H through uw, with every other edge inside it.
    n >= 4 keeps H - {u, w} nonempty.  cc, zero forcing, diameter and
    the forbidden flag are computed on g as before.

    Without piece_row every column is computed on g itself, and
    components are combined recursively.
    """
    comps = graphs.components(g)
    if len(comps) > 1:
        return disjoint_union_row([
            piece_row(h) if piece_row else combine(h, forbidden)
            for h in (graphs.induced_subgraph(g, c) for c in comps)
        ])

    n = g.order
    size = g.size()
    tree = size == n - 1  # g is connected
    block_sets = graphs.blocks(g)
    cv = bool(graphs.articulation_points(g, block_sets))
    if cv and piece_row:
        cc = 0
        planar = outerplanar = True
        for b in block_sets:
            if b.bit_count() <= 3:  # K2 or K3: one clique, planar and outerplanar
                cc += 1
                continue
            r = piece_row(graphs.induced_subgraph(g, b))
            cc += r.cc_ub
            planar = planar and r.np_ub is None
            outerplanar = outerplanar and r.nop_ub is None
        np_ub = None if planar else n - 4
        nop_ub = None if outerplanar else n - 3
    else:
        cc = clique_cover_number(g)
        v = None  # the lowest vertex of degree 2 of a 2-connected g
        if piece_row and n >= 4:  # g has no cut vertex here
            v = next((x for x, r in enumerate(g.adj) if r.bit_count() == 2), None)
        if v is None:
            np_ub = None if is_planar(g, block_sets) else n - 4
            nop_ub = None if is_outerplanar(g, block_sets) else n - 3
        else:
            ends = g.adj[v]
            r = piece_row(graphs.contract(g, (ends & -ends).bit_length() - 1, v))
            np_ub = None if r.np_ub is None else n - 4
            outerplanar = r.nop_ub is None and graphs.is_connected(
                graphs.induced_subgraph(g, g.vertex_mask ^ ends ^ (1 << v))
            )
            nop_ub = None if outerplanar else n - 3
    path_ub = None if tree and max(map(int.bit_count, g.adj)) <= 2 else n - 2
    ubs = [cc, n - 1]
    ubs.extend(v for v in (np_ub, nop_ub, path_ub) if v is not None)
    if tree:
        ubs.append(tree_minimum_rank(g))
    # Z >= n - mr >= n - ub; the forbidden-list bound is not in ubs yet
    zfs = n - zero_forcing_number(g, at_least=n - min(ubs))
    diam = graphs.diameter(g)
    forb = is_forbidden_mr2(g, forbidden)

    lb = max(zfs, diam, 3 if forb else 0)
    if not forb:
        ubs.append(2)
    ub = min(ubs)
    return BoundsRow(
        order=n,
        size=size,
        con=True,
        zfs_lb=zfs,
        diam_lb=diam,
        cc_ub=cc,
        np_ub=np_ub,
        nop_ub=nop_ub,
        path_ub=path_ub,
        is_flag=forb,
        cv=cv,
        tree=tree,
        lb=lb,
        ub=ub,
        mr_exact=lb if lb == ub else None,
    )


class ForbiddenDerivationError(ValueError):
    """Raised when reference rows needed to certify minimality are missing."""

    def __init__(self, gaps: Mapping[int, tuple[int, ...]]):
        self.gaps = dict(gaps)
        detail = "; ".join(
            f"candidate {a} needs rows {sorted(set(missing))}"
            for a, missing in sorted(self.gaps.items())
        )
        super().__init__(f"missing minimum-rank rows block the derivation: {detail}")


# The number of isomorphism classes of graphs of order k (OEIS A000088)
CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


class AtlasIndex:
    """Isomorphism class -> atlas number (1-based position) over a corpus.

    The corpus is grouped by order, and the first lookup of order k
    buckets that order's graphs by graphs.class_key, once.  Order k is
    certified when the corpus holds exactly CLASSES[k] graphs of order k
    and their keys are pairwise distinct.  Isomorphic graphs share a
    key, so those graphs are pairwise non-isomorphic: they are CLASSES[k]
    distinct classes, which is every class of order k.  A query h of
    order k is then isomorphic to one of them, whose key is h's key, and
    no other has that key.  So on a certified order a lookup is one dict
    read.  On any other order (a truncated or user corpus, a class held
    twice, order >= 8) every candidate in h's bucket is confirmed, in
    corpus order, so the lowest matching atlas number wins; with equal
    orders the induced search is a bijection test.
    """

    def __init__(self, corpus: Sequence[Graph]):
        self._by_order: dict[int, list[tuple[int, Graph]]] = {}
        for a, g in enumerate(corpus, 1):
            self._by_order.setdefault(g.order, []).append((a, g))
        # order -> (certified, class_key -> its graphs in corpus order)
        self._keyed: dict[int, tuple[bool, dict[tuple, list[tuple[int, Graph]]]]] = {}

    def _key_order(self, k: int):
        """Bucket the corpus graphs of order k and decide whether k is certified."""
        held = self._by_order.get(k, ())
        buckets: dict[tuple, list[tuple[int, Graph]]] = {}
        for a, g in held:
            buckets.setdefault(graphs.class_key(g), []).append((a, g))
        self._keyed[k] = keyed = (len(held) == CLASSES.get(k) == len(buckets), buckets)
        return keyed

    def atlas_number(self, h: Graph) -> int:
        """Atlas number of the corpus graph isomorphic to h; LookupError if none."""
        certified, buckets = self._keyed.get(h.order) or self._key_order(h.order)
        bucket = buckets.get(graphs.class_key(h), ())
        if certified:
            return bucket[0][0]
        for a, g in bucket:
            if graphs.contains_induced(g, h):
                return a
        raise LookupError(f"no corpus graph matches order {h.order} size {h.size()}")


def derive_forbidden_list(
    corpus: Sequence[Graph], mr_by_atlas: Mapping[int, int]
) -> ForbiddenList:
    """Minimal graphs with recorded mr >= 3 under induced containment.

    mr >= 3 passes to every induced supergraph, so one pass over the
    recorded mr >= 3 graphs in (order, atlas number) order skips each
    graph that holds one kept before it (an isomorphic copy included)
    and keeps the rest.  A kept graph is a pattern when each one-vertex
    deletion sits induced in a recorded mr <= 2 graph of at least its
    order: then every proper induced subgraph has mr <= 2.  Otherwise
    the records cannot certify it minimal, and it is a gap; its unplaced
    deletions are named by atlas number through an AtlasIndex, built
    for the first gap only.
    mr_by_atlas is keyed by atlas number, corpus position + 1; a key
    past the corpus names no graph and goes unread (the command line
    rejects it first, with catalog.check_atlas_number).
    """
    le2_hosts = [g for a, g in enumerate(corpus, 1) if mr_by_atlas.get(a, 3) <= 2]
    kept: list[Graph] = []
    patterns: list[Graph] = []
    gaps: dict[int, tuple[int, ...]] = {}
    index = None
    for a, g in sorted(enumerate(corpus, 1), key=lambda ag: ag[1].order):
        if mr_by_atlas.get(a, 0) < 3 or any(graphs.contains_induced(g, k) for k in kept):
            continue
        kept.append(g)
        deletions = [graphs.induced_subgraph(g, g.vertex_mask ^ (1 << v)) for v in range(g.order)]
        unplaced = [
            h for h in deletions
            if not any(host.order >= h.order and graphs.contains_induced(host, h) for host in le2_hosts)
        ]
        if not unplaced:
            patterns.append(g)
            continue
        index = index or AtlasIndex(corpus)
        gaps[a] = tuple(map(index.atlas_number, unplaced))
    if gaps:
        raise ForbiddenDerivationError(gaps)
    return ForbiddenList(tuple(patterns))


def read_forbidden_list(path) -> ForbiddenList:
    """Load patterns from a graph6-per-line file ('#' lines are comments)."""
    patterns = []
    for ln, line in enumerate(read_lines(path), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith(b"#"):
            continue
        try:
            patterns.append(from_graph6(text(stripped)))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
    try:
        return ForbiddenList(tuple(patterns))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
