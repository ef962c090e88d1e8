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
  forbidden-free mr <= 2
  tree           mr = n - P(g) exactly (P = path cover number)
Disconnected graphs: every bound is the sum over components.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from minrank_atlas import graphs
from minrank_atlas.graph6 import from_graph6, to_graph6
from minrank_atlas.graphs import Graph, VertexSet, bits
from minrank_atlas.minors import is_outerplanar, is_planar


@dataclass(frozen=True)
class BoundsRow:
    """Computed analogue of one table row.

    Connected-only columns (zfs_lb, diam_lb, cc_ub, np_ub, nop_ub,
    path_ub, is_flag) are None on disconnected rows; np/nop/path are
    additionally None when the triggering structure is absent.
    mr_exact is set only when the bounds pin the minimum rank.
    """

    order: int
    size: int
    con: bool
    zfs_lb: int | None
    diam_lb: int | None
    cc_ub: int | None
    np_ub: int | None
    nop_ub: int | None
    path_ub: int | None
    is_flag: bool | None
    cv: bool
    tree: bool
    lb: int
    ub: int
    mr_exact: int | None

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class ForbiddenList:
    """Minimal graphs whose induced presence forces minimum rank >= 3."""

    patterns: tuple[Graph, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("forbidden list must be nonempty")


def zf_closure(g: Graph, filled: VertexSet) -> VertexSet:
    """Least superset of filled closed under the color-change rule
    (a filled vertex with exactly one unfilled neighbor forces it)."""
    if filled & ~g.vertex_mask:
        raise ValueError("filled set has bits outside the graph")
    adj = g.adj
    while True:
        grown = filled
        for v in bits(filled):
            unfilled = adj[v] & ~grown
            if unfilled and unfilled & (unfilled - 1) == 0:
                grown |= unfilled
        if grown == filled:
            return filled
        filled = grown


def zero_forcing_number(g: Graph) -> int:
    """Smallest |B| whose closure fills the graph.

    Searches cardinalities in increasing order, subsets in lexicographic
    order; sets missing an entire component are skipped since no force
    can ever reach it.  The search starts at max(#components, min
    degree): every component needs a vertex of B, and the first force
    u -> w needs N[u] minus w inside B, which is deg(u) >= min degree
    vertices (with no force at all, B is V, larger still).
    """
    full = g.vertex_mask
    comps = graphs.components(g)
    min_degree = min(row.bit_count() for row in g.adj)
    for k in range(max(len(comps), min_degree), g.order + 1):
        for combo in combinations(range(g.order), k):
            b = 0
            for v in combo:
                b |= 1 << v
            if any(not b & c for c in comps):
                continue
            if zf_closure(g, b) == full:
                return k
    raise AssertionError("unreachable: the full vertex set always forces")


def clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques covering every edge (exact branch and bound).

    Candidates are maximal cliques only: any clique in a cover can be
    enlarged to a maximal one without increasing the count.
    """
    edges = list(g.edges())
    m = len(edges)
    if m == 0:
        return 0
    eindex = {e: i for i, e in enumerate(edges)}
    cmasks = []
    for c in graphs.maximal_cliques(g):
        vs = list(bits(c))
        if len(vs) < 2:
            continue
        em = 0
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                em |= 1 << eindex[(vs[a], vs[b])]
        cmasks.append(em)
    per_edge = [[em for em in cmasks if (em >> i) & 1] for i in range(m)]
    max_clique_edges = max(em.bit_count() for em in cmasks)
    best = m + 1

    def descend(uncovered: int, count: int) -> None:
        nonlocal best
        if not uncovered:
            best = count
            return
        need = (uncovered.bit_count() + max_clique_edges - 1) // max_clique_edges
        if count + need >= best:
            return
        e = (uncovered & -uncovered).bit_length() - 1
        for em in per_edge[e]:
            descend(uncovered & ~em, count + 1)

    descend((1 << m) - 1, 0)
    return best


def np_upper_bound(g: Graph) -> int | None:
    """order - 4 when g is nonplanar, else None.  Meaningful for connected g."""
    return g.order - 4 if not is_planar(g) else None


def nop_upper_bound(g: Graph) -> int | None:
    """order - 3 when g is not outerplanar, else None."""
    return g.order - 3 if not is_outerplanar(g) else None


def path_upper_bound(g: Graph) -> int | None:
    """order - 2 when g is not a path, else None."""
    return g.order - 2 if not graphs.is_path(g) else None


def is_forbidden_mr2(g: Graph, forbidden: ForbiddenList) -> bool:
    """True iff g contains some forbidden pattern as an induced subgraph."""
    return any(graphs.contains_induced(g, p) for p in forbidden.patterns)


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


def combine(g: Graph, forbidden: ForbiddenList) -> BoundsRow:
    """Fold every bound into one row; disconnected graphs sum over components."""
    comps = graphs.components(g)
    cv = bool(graphs.articulation_points(g))
    if len(comps) > 1:
        parts = [combine(graphs.induced_subgraph(g, c), forbidden) for c in comps]
        exact = None
        if all(p.mr_exact is not None for p in parts):
            exact = sum(p.mr_exact for p in parts)
        return BoundsRow(
            order=g.order,
            size=g.size(),
            con=False,
            zfs_lb=None,
            diam_lb=None,
            cc_ub=None,
            np_ub=None,
            nop_ub=None,
            path_ub=None,
            is_flag=None,
            cv=cv,
            tree=False,
            lb=sum(p.lb for p in parts),
            ub=sum(p.ub for p in parts),
            mr_exact=exact,
        )

    n = g.order
    zfs = n - zero_forcing_number(g)
    diam = graphs.diameter(g)
    cc = clique_cover_number(g)
    np_ub = np_upper_bound(g)
    nop_ub = nop_upper_bound(g)
    path_ub = path_upper_bound(g)
    forb = is_forbidden_mr2(g, forbidden)
    tree = graphs.is_tree(g)

    lb = max(zfs, diam, 3 if forb else 0)
    ubs = [cc, n - 1]
    ubs.extend(v for v in (np_ub, nop_ub, path_ub) if v is not None)
    if not forb:
        ubs.append(2)
    if tree:
        ubs.append(tree_minimum_rank(g))
    ub = min(ubs)
    return BoundsRow(
        order=n,
        size=g.size(),
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

    Buckets by (order, size, degree sequence).  Every candidate is
    confirmed, singletons included, since a user corpus need not hold
    every class; with equal orders the induced search is a bijection test.
    """

    def __init__(self, corpus: Sequence[Graph]):
        self._buckets: dict[tuple[int, int, tuple[int, ...]], list[tuple[int, Graph]]] = {}
        for a, g in enumerate(corpus, 1):
            self._buckets.setdefault(_class_key(g), []).append((a, g))

    def atlas_number(self, h: Graph) -> int:
        """Atlas number of the corpus graph isomorphic to h; LookupError if none."""
        for a, g in self._buckets.get(_class_key(h), ()):
            if graphs.contains_induced(g, h):
                return a
        raise LookupError(f"no corpus graph matches order {h.order} size {h.size()}")


def _class_key(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    return g.order, g.size(), g.degree_sequence()


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
    """
    beyond = sorted(a for a in mr_by_atlas if not 1 <= a <= len(corpus))
    if beyond:
        raise ValueError(
            f"reference row for atlas {beyond[0]} has no graph: "
            f"the corpus holds atlas 1..{len(corpus)}"
        )
    atlas_of = AtlasIndex(corpus).atlas_number
    le2_hosts = [
        corpus[a - 1] for a, mr in sorted(mr_by_atlas.items()) if mr <= 2
    ]
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
    return ForbiddenList(tuple(patterns))


def write_forbidden_list(path, forbidden: ForbiddenList) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for p in forbidden.patterns:
            fh.write(to_graph6(p) + "\n")
