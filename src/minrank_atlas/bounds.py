"""One operation per bound column, the combiner that folds them into a
row, and the derivation of the forbidden-subgraph family that decides
the "minimum rank at most 2" test.

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
(disjoint_union_row).

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
from collections.abc import Mapping, Sequence
from itertools import combinations

from minrank_atlas import graphs
from minrank_atlas.graph6 import from_graph6, to_graph6
from minrank_atlas.graphs import Graph, VertexSet, bits
from minrank_atlas.minors import is_outerplanar, is_planar


class BoundsRow(namedtuple("BoundsRow", (
    "order", "size", "con", "zfs_lb", "diam_lb", "cc_ub", "np_ub", "nop_ub",
    "path_ub", "is_flag", "cv", "tree", "lb", "ub", "mr_exact",
))):
    """Computed analogue of one table row.

    Connected-only columns (zfs_lb, diam_lb, cc_ub, np_ub, nop_ub,
    path_ub, is_flag) are None on disconnected rows; np/nop/path are
    additionally None when the triggering structure is absent.
    mr_exact is set only when the bounds pin the minimum rank.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lb > self.ub:
            raise ValueError(f"lb {self.lb} exceeds ub {self.ub}")
        if self.mr_exact is not None and not self.lb <= self.mr_exact <= self.ub:
            raise ValueError(f"mr_exact {self.mr_exact} outside [{self.lb}, {self.ub}]")
        gated = (self.zfs_lb, self.diam_lb, self.cc_ub, self.is_flag)
        if self.con and any(v is None for v in gated):
            raise ValueError("connected row missing an unconditional column")
        if not self.con and any(
            v is not None
            for v in gated + (self.np_ub, self.nop_ub, self.path_ub)
        ):
            raise ValueError("disconnected row carries a connected-only column")
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
    """zf_closure without the input check: each round walks the filled
    bits inline and lets every vertex with one unfilled neighbour force."""
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


def zf_closure(g: Graph, filled: VertexSet) -> VertexSet:
    """Least superset of filled closed under the color-change rule
    (a filled vertex with exactly one unfilled neighbor forces it)."""
    if filled & ~g.vertex_mask:
        raise ValueError("filled set has bits outside the graph")
    return _closure(g.adj, filled)


def zero_forcing_number(g: Graph, *, at_least: int = 0) -> int:
    """Smallest |B| whose closure fills the graph.

    Searches cardinalities in increasing order, subsets in lexicographic
    order; sets missing an entire component are skipped since no force
    can ever reach it.  The search starts at max(#components, min
    degree, at_least): every component needs a vertex of B, and the
    first force u -> w needs N[u] minus w inside B, which is deg(u) >=
    min degree vertices (with no force at all, B is V, larger still).
    at_least must be a lower bound on Z(g), or the answer is too large.
    combine passes n - ub, since Z >= n - mr >= n - ub for any ub on mr
    that holds for g alone; the mr <= 2 bound, which holds only when
    the forbidden list is complete, is not one of them.
    """
    adj = g.adj
    full = g.vertex_mask
    comps = graphs.components(g)
    several = len(comps) > 1
    singletons = [1 << v for v in range(g.order)]
    min_degree = min(row.bit_count() for row in adj)
    for k in range(max(len(comps), min_degree, at_least), g.order + 1):
        for combo in combinations(singletons, k):
            b = sum(combo)
            if several and any(not b & c for c in comps):
                continue
            if _closure(adj, b) == full:
                return k
    raise AssertionError("unreachable: the full vertex set always forces")


def clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques covering every edge (exact branch and bound).

    Candidates are maximal cliques only: any clique in a cover can be
    enlarged to a maximal one without increasing the count.  Edge {i<j}
    is bit i*n + j, so row i's edges are (adj[i] above i) << i*n, and a
    clique's are its own vertex bits above i shifted the same way.  The
    search branches on the lowest uncovered edge, over the cliques that
    hold both of its ends.
    """
    n = g.order
    uncovered = 0
    for i, row in enumerate(g.adj):
        uncovered |= (row >> (i + 1)) << (i * n + i + 1)
    if not uncovered:
        return 0
    cliques = []
    for c in graphs.maximal_cliques(g):
        if c & (c - 1):
            em = 0
            rest = c
            while rest:
                low = rest & -rest
                rest ^= low
                em |= rest << ((low.bit_length() - 1) * n)
            cliques.append((c, em))
    max_clique_edges = max(em.bit_count() for _, em in cliques)
    best = uncovered.bit_count() + 1

    def descend(uncovered: int, count: int) -> None:
        nonlocal best
        if not uncovered:
            best = count
            return
        need = (uncovered.bit_count() + max_clique_edges - 1) // max_clique_edges
        if count + need >= best:
            return
        i, j = divmod((uncovered & -uncovered).bit_length() - 1, n)
        ends = (1 << i) | (1 << j)
        for c, em in cliques:
            if c & ends == ends:
                descend(uncovered & ~em, count + 1)

    descend(uncovered, 0)
    return best


def np_upper_bound(g: Graph, block_sets: list[VertexSet] | None = None) -> int | None:
    """order - 4 when g is nonplanar, else None.  Meaningful for connected g.
    block_sets, when given, is graphs.blocks(g)."""
    return g.order - 4 if not is_planar(g, block_sets) else None


def nop_upper_bound(g: Graph, block_sets: list[VertexSet] | None = None) -> int | None:
    """order - 3 when g is not outerplanar, else None.  block_sets, when
    given, is graphs.blocks(g)."""
    return g.order - 3 if not is_outerplanar(g, block_sets) else None


def path_upper_bound(g: Graph, tree: bool | None = None) -> int | None:
    """order - 2 when g is not a path, else None.  tree, when given, is
    graphs.is_tree(g)."""
    if tree is None:
        tree = graphs.is_tree(g)
    return None if tree and max(map(int.bit_count, g.adj)) <= 2 else g.order - 2


# Barrett, van der Holst and Loewy, "Graphs whose minimal rank is two"
# (ELA 11, 2004): over the reals, mr(G) <= 2 iff G has no induced P4,
# dart, ltimes, P3 + K2, 3K2 or K3,3,3.  The list derived from the atlas
# holds the first five; K3,3,3 has order 9, so no atlas graph shows it.
K333 = Graph.from_edges(9, [(i, j) for i in range(9) for j in range(i + 1, 9) if i // 3 != j // 3])


def is_forbidden_mr2(g: Graph, forbidden: ForbiddenList) -> bool:
    """True iff g contains some forbidden pattern, or from order 9 on
    K333, as an induced subgraph."""
    return any(graphs.contains_induced(g, p) for p in forbidden.patterns) or (
        g.order >= 9 and graphs.contains_induced(g, K333)
    )


def tree_path_cover_number(t: Graph) -> int:
    """Minimum number of vertex-disjoint paths covering V(t).

    A path partition of a tree is a spanning linear forest, so
    P(t) = n - (most edges in a linear forest of t).  One DFS returns,
    per vertex v, the most forest edges in v's subtree with v free (up
    to two child edges) and with v joined to its parent (at most one).
    Taking the edge to a child c gains joined(c) + 1 - free(c), which is
    0 or 1, so v takes up to its limit of the children that gain 1.
    """
    if not graphs.is_tree(t):
        raise ValueError("path cover formula applies to trees only")

    def dfs(v: int, parent: int) -> tuple[int, int]:
        base = gains = 0
        for c in bits(t.adj[v]):
            if c != parent:
                free, joined = dfs(c, v)
                base += free
                gains += joined + 1 - free
        return base + min(gains, 2), base + min(gains, 1)

    return t.order - dfs(0, -1)[0]


def tree_minimum_rank(t: Graph) -> int:
    """order - P(t); exact for trees."""
    return t.order - tree_path_cover_number(t)


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
        zfs_lb=None,
        diam_lb=None,
        cc_ub=None,
        np_ub=None,
        nop_ub=None,
        path_ub=None,
        is_flag=None,
        cv=any(p.cv for p in parts),
        tree=False,
        lb=sum(p.lb for p in parts),
        ub=sum(p.ub for p in parts),
        mr_exact=exact,
    )


def combine(g: Graph, forbidden: ForbiddenList) -> BoundsRow:
    """Fold every bound into one row; disconnected graphs sum over components.

    A connected row computes graphs.blocks once: cv comes from it, and
    the planarity and outerplanarity tests take it.  It counts edges
    once too: it is a tree iff it has n - 1, and the path test reads that.
    """
    comps = graphs.components(g)
    if len(comps) > 1:
        return disjoint_union_row(
            [combine(graphs.induced_subgraph(g, c), forbidden) for c in comps]
        )

    n = g.order
    size = g.size()
    tree = size == n - 1  # g is connected
    block_sets = graphs.blocks(g)
    cv = bool(graphs.articulation_points(g, block_sets))
    cc = clique_cover_number(g)
    np_ub = np_upper_bound(g, block_sets)
    nop_ub = nop_upper_bound(g, block_sets)
    path_ub = path_upper_bound(g, tree)
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


class AtlasIndex:
    """Isomorphism class -> atlas number (1-based position) over a corpus.

    Buckets by graphs.class_key.  Every candidate is confirmed,
    singletons included, since a user corpus need not hold every class;
    with equal orders the induced search is a bijection test.  Each
    answer is remembered under the looked-up graph's adj tuple for the
    life of the index object, so a repeated lookup searches nothing.
    Callers build one index per command, and nothing outlives it.
    """

    def __init__(self, corpus: Sequence[Graph]):
        self._buckets: dict[tuple, list[tuple[int, Graph]]] = {}
        for a, g in enumerate(corpus, 1):
            self._buckets.setdefault(graphs.class_key(g), []).append((a, g))
        self._answers: dict[tuple[int, ...], int] = {}

    def atlas_number(self, h: Graph) -> int:
        """Atlas number of the corpus graph isomorphic to h; LookupError if none."""
        known = self._answers.get(h.adj)
        if known is not None:
            return known
        for a, g in self._buckets.get(graphs.class_key(h), ()):
            if graphs.contains_induced(g, h):
                self._answers[h.adj] = a
                return a
        raise LookupError(f"no corpus graph matches order {h.order} size {h.size()}")


def derive_forbidden_list(
    corpus: Sequence[Graph], mr_by_atlas: Mapping[int, int]
) -> ForbiddenList:
    """Minimal graphs with mr >= 3 among the corpus.

    A graph qualifies when its recorded mr is >= 3 and every one-vertex
    deletion has mr <= 2 (by induced-subgraph monotonicity this
    certifies all proper induced subgraphs).  Graphs without a recorded
    mr are classified through the same monotonicity: mr >= 3 when some
    deletion of theirs is so certified, mr <= 2 when they sit induced
    inside a recorded mr <= 2 graph.  A deletion that neither route
    settles makes its candidate undecidable and is reported as a gap.
    mr_by_atlas is keyed by atlas number, corpus position + 1; a key
    past the corpus names no graph and goes unread (the command line
    rejects it first, with catalog.check_atlas_number).
    """
    atlas_of = AtlasIndex(corpus).atlas_number
    le2_hosts = [g for a, g in enumerate(corpus, 1) if mr_by_atlas.get(a, 3) <= 2]
    cert: dict[int, str | None] = {}

    def certify(a: int) -> str | None:
        """'ge3', 'le2', or None when the records cannot decide graph a."""
        if a in cert:
            return cert[a]
        mr = mr_by_atlas.get(a)
        if mr is not None:
            cert[a] = "ge3" if mr >= 3 else "le2"
            return cert[a]
        g = corpus[a - 1]
        verdict: str | None = None
        if g.order > 1:
            for v in range(g.order):
                h = graphs.induced_subgraph(g, g.vertex_mask ^ (1 << v))
                if certify(atlas_of(h)) == "ge3":
                    verdict = "ge3"
                    break
        if verdict is None:
            for host in le2_hosts:
                if host.order > g.order and graphs.contains_induced(host, g):
                    verdict = "le2"
                    break
        cert[a] = verdict
        return verdict

    patterns: list[Graph] = []
    gaps: dict[int, tuple[int, ...]] = {}
    for a, g in enumerate(corpus, 1):
        mr = mr_by_atlas.get(a)
        if mr is None or mr < 3:
            continue
        minimal = True
        unknown: list[int] = []
        for v in range(g.order):
            h = graphs.induced_subgraph(g, g.vertex_mask ^ (1 << v))
            sub = atlas_of(h)
            verdict = certify(sub)
            if verdict == "ge3":
                minimal = False
                break
            if verdict is None:
                unknown.append(sub)
        if not minimal:
            continue
        if unknown:
            gaps[a] = tuple(unknown)
            continue
        if not any(graphs.is_isomorphic(g, p) for p in patterns):
            patterns.append(g)
    if gaps:
        raise ForbiddenDerivationError(gaps)
    return ForbiddenList(tuple(patterns))


def read_forbidden_list(path) -> ForbiddenList:
    """Load patterns from a graph6-per-line file ('#' lines are comments)."""
    patterns = []
    # surrogateescape hands a non-ASCII byte on to from_graph6, which rejects it
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                patterns.append(from_graph6(stripped))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from exc
    try:
        return ForbiddenList(tuple(patterns))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_forbidden_list(path, forbidden: ForbiddenList) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for p in forbidden.patterns:
            fh.write(to_graph6(p) + "\n")
