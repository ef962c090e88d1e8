"""Independent reference implementations, used only to cross-check the
package's algorithms; each one deliberately takes a different route
than the production code.  Also the builders and checks that only the
tests need."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm

from minrank_atlas.bounds import AtlasIndex, ForbiddenDerivationError, ForbiddenList, _closure
from minrank_atlas.catalog import _CELLS, FIXTURE_COLUMNS, FixtureRow, Mismatch
from minrank_atlas.graph6 import check_graph6
from minrank_atlas.graphs import (
    MAX_ORDER,
    Graph,
    bits,
    contains_induced,
    induced_subgraph,
    is_isomorphic,
    maximal_cliques,
)
from minrank_atlas.ratmat import IntMatrix, parse_rational
from minrank_atlas.witness import WitnessRecord

# Kuratowski's graphs: planar iff neither is a minor (Wagner)
K5 = Graph.complete(5)
K33 = Graph.complete_bipartite(3, 3)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def complete_multipartite(*sizes: int) -> Graph:
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if part[i] != part[j]])


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each relabeled above the ones before it."""
    rows: list[int] = []
    for g in parts:
        shift = len(rows)
        rows += [row << shift for row in g.adj]
    return Graph(len(rows), tuple(rows))


def matrix(rows) -> IntMatrix:
    """IntMatrix of rows (ints, Fractions or strings) times the lcm of
    their denominators, worked out in Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return IntMatrix(tuple(tuple(int(x * scale) for x in row) for row in rows))


def zf_closure(g: Graph, filled: int) -> int:
    """The production closure, bounds._closure, for a filled set checked
    to lie inside g."""
    if filled & ~g.vertex_mask:
        raise ValueError("filled set has bits outside the graph")
    return _closure(g.adj, filled)


def corpus_integrity_mismatches(corpus, fixtures) -> list[Mismatch]:
    """Order/size of each corpus graph (item k - 1 is atlas graph k)
    against the transcribed columns; an atlas number outside
    1..len(corpus) is a "present" mismatch."""
    out = []
    for row in fixtures:
        if not 1 <= row.atlas_number <= len(corpus):
            out.append(Mismatch(row.atlas_number, "present", "graph", None))
            continue
        g = corpus[row.atlas_number - 1]
        if g.order != row.order:
            out.append(Mismatch(row.atlas_number, "order", row.order, g.order))
        if g.size() != row.size:
            out.append(Mismatch(row.atlas_number, "size", row.size, g.size()))
    return out


def _components_within(g: Graph, s: int) -> list[int]:
    """The vertex sets of the components of g[s], in g's labels, each
    grown one neighbourhood at a time from the lowest vertex left."""
    out = []
    while s:
        comp = s & -s
        while True:
            grown = comp
            for u in bits(comp):
                grown |= g.adj[u] & s
            if grown == comp:
                break
            comp = grown
        out.append(comp)
        s ^= comp
    return out


def _found(mr, index, g: Graph, s: int) -> int | None:
    """The value found for the class of g[s]; None if open or not in the corpus."""
    try:
        return mr.get(index.atlas_number(induced_subgraph(g, s)))
    except LookupError:
        return None


def mr_by_cut_vertex(corpus, rows, known=None) -> dict[int, int | None]:
    """Minimum rank per atlas number, None where it stays open.

    A graph with a cut vertex v takes the reduction of Barioli, Fallat
    and Hogben (LAA 392, 2004): with G_i the v-branches (v joined to one
    component C_i of G - v), mr(G) = sum mr(C_i) + min(sum r_i, 2), where
    r_i = mr(G_i) - mr(C_i).  A disconnected graph sums its components.
    Each piece's value is the one already found for its class, so the
    corpus lists smaller graphs first, as the atlas does; the first cut
    vertex whose pieces all have values is used.  A graph the split
    does not settle takes its row's mr_exact, else known[a] (values
    supplied from outside, such as the reference's by-hand rows).
    """
    known = known or {}
    index = AtlasIndex(corpus)
    mr: dict[int, int | None] = {}
    for a, g in enumerate(corpus, 1):
        value = None
        comps = _components_within(g, g.vertex_mask)
        if len(comps) > 1:
            values = [_found(mr, index, g, c) for c in comps]
            if None not in values:
                value = sum(values)
        else:
            for v in range(g.order):
                branches = _components_within(g, g.vertex_mask ^ (1 << v))
                if len(branches) < 2:
                    continue
                without = [_found(mr, index, g, c) for c in branches]
                joined = [_found(mr, index, g, c | 1 << v) for c in branches]
                if None not in without and None not in joined:
                    value = sum(without) + min(sum(joined) - sum(without), 2)
                    break
        if value is None:
            value = rows[a].mr_exact if rows[a].mr_exact is not None else known.get(a)
        mr[a] = value
    return mr


def deletion_law_faults(corpus, mr) -> tuple[int, int, list]:
    """The vertex law mr(G - v) <= mr(G) <= mr(G - v) + 2 and the edge law
    |mr(G) - mr(G - e)| <= 1, over every pair whose deletion class has a
    value in mr (keyed by atlas number): the vertex and edge pairs
    checked and the (atlas, "vertex" or "edge", deletion's atlas) faults."""
    atlas_of = AtlasIndex(corpus).atlas_number
    vertex_pairs, edge_pairs, bad = 0, 0, []
    for a, m in mr.items():
        g = corpus[a - 1]
        for v in range(g.order if g.order > 1 else 0):
            b = atlas_of(induced_subgraph(g, g.vertex_mask ^ (1 << v)))
            if b in mr:
                vertex_pairs += 1
                if not mr[b] <= m <= mr[b] + 2:
                    bad.append((a, "vertex", b))
        edges = list(g.edges())
        for e in edges:
            b = atlas_of(Graph.from_edges(g.order, [f for f in edges if f != e]))
            if b in mr:
                edge_pairs += 1
                if abs(m - mr[b]) > 1:
                    bad.append((a, "edge", b))
    return vertex_pairs, edge_pairs, bad


def derive_by_deletion_lookup(corpus, mr_by_atlas) -> ForbiddenList:
    """The forbidden family by per-deletion class lookups, in atlas order.

    A graph with recorded mr >= 3 is a pattern when no one-vertex
    deletion is certified mr >= 3 and every one is certified mr <= 2.
    Each deletion's class is looked up by atlas number and certified
    from its record, or, when it has none, recursively: mr >= 3 when
    one of its own deletions is so certified, mr <= 2 when it sits
    induced in a larger recorded mr <= 2 graph.  An undecided deletion
    makes its graph a gap.  Isomorphic patterns are kept once.  Lookups
    are remembered per labelled graph for the call.
    """
    atlas_of = cache(AtlasIndex(corpus).atlas_number)
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
                h = induced_subgraph(g, g.vertex_mask ^ (1 << v))
                if certify(atlas_of(h)) == "ge3":
                    verdict = "ge3"
                    break
        if verdict is None:
            for host in le2_hosts:
                if host.order > g.order and contains_induced(host, g):
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
            sub = atlas_of(induced_subgraph(g, g.vertex_mask ^ (1 << v)))
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
        if not any(is_isomorphic(g, p) for p in patterns):
            patterns.append(g)
    if gaps:
        raise ForbiddenDerivationError(gaps)
    return ForbiddenList(tuple(patterns))


def graph_fault(order: int, adj) -> str | None:
    """The message Graph(order, adj) must raise, or None when it is valid:
    the rule read row by row and then pair by pair (i < j, ascending)."""
    n = order
    if not 1 <= n <= MAX_ORDER:
        return f"order must be in 1..{MAX_ORDER}, got {n}"
    if len(adj) != n:
        return f"expected {n} adjacency rows, got {len(adj)}"
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            return f"row {i} has bits outside 0..{n - 1}"
        if (row >> i) & 1:
            return f"loop at vertex {i}"
    for i in range(n):
        for j in range(i + 1, n):
            if (adj[i] >> j) & 1 != (adj[j] >> i) & 1:
                return f"asymmetric adjacency at ({i},{j})"
    return None


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


def rank_mod_p(rows, p: int) -> int:
    """Rank over the field of p elements (p prime) of an integer matrix,
    by Gauss-Jordan reduction with pivot inverses from pow."""
    a = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
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
        all((g.adj[image[a]] >> image[b]) & 1 == (pattern.adj[a] >> b) & 1 for a, b in pairs)
        for image in permutations(range(g.order), pattern.order)
    )


def brute_contains_subgraph(g: Graph, pattern: Graph) -> bool:
    """Subgraph containment by trying every injective map V(pattern) -> V(g);
    only pattern edges must land on edges, non-edges are free."""
    pairs = list(pattern.edges())
    return any(
        all((g.adj[image[a]] >> image[b]) & 1 for a, b in pairs)
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
            if all((g.adj[a] >> b) & 1 for a, b in combinations(sub, 2)):
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


def clique_cover_by_edge_index(g: Graph) -> int:
    """Clique cover number by branch and bound over maximal cliques, with
    edges numbered through an index dict and one clique list per edge."""
    edges = list(g.edges())
    m = len(edges)
    if m == 0:
        return 0
    eindex = {e: i for i, e in enumerate(edges)}
    cmasks = []
    for c in maximal_cliques(g):
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


def brute_has_minor(g: Graph, h: Graph) -> bool:
    """Minor test by assigning each g-vertex in turn a branch set (or
    none), depth first.

    Each h-vertex gets a nonempty connected branch set; every h-edge
    needs some g-edge between the two sets.  A partial assignment is
    abandoned once the vertices left cannot fill every empty branch
    set.  Exponential; tiny g only.
    """
    hedges = list(h.edges())
    sets = [0] * h.order

    def extend(v: int) -> bool:
        if sets.count(0) > g.order - v:
            return False
        if v == g.order:
            return all(_connected_in(g, s) for s in sets) and all(
                _touching(g, sets[a], sets[b]) for a, b in hedges
            )
        if extend(v + 1):  # v in no branch set
            return True
        for c in range(h.order):
            sets[c] |= 1 << v
            found = extend(v + 1)
            sets[c] ^= 1 << v
            if found:
                return True
        return False

    return extend(0)


def blocks_by_recursion(g: Graph) -> list[int]:
    """graphs.blocks by Tarjan's low-link DFS as a recursion, children in
    ascending order, each back edge read when its neighbour is scanned:
    the same blocks in the same order."""
    n = g.order
    adj = g.adj
    disc = [-1] * n
    low = [0] * n
    stack: list[int] = []
    out: list[int] = []
    timer = 0

    def dfs(u: int, parent: int) -> None:
        nonlocal timer
        disc[u] = low[u] = timer
        timer += 1
        stack.append(u)
        for w in bits(adj[u]):
            if disc[w] == -1:
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    block = 1 << u
                    while True:
                        x = stack.pop()
                        block |= 1 << x
                        if x == w:
                            break
                    out.append(block)
            elif w != parent:
                low[u] = min(low[u], disc[w])

    for v in range(n):
        if disc[v] == -1:
            dfs(v, -1)
            stack.pop()  # the root stays stacked below its last block
            if not adj[v]:
                out.append(1 << v)
    return out


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


def to_networkx(g: Graph):
    """g as a networkx graph on the same vertex labels; networkx is a
    test-only dependency, imported on first use."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def graph6_by_integer(g: Graph) -> str:
    """graph6 line (order <= 62) packed into one big integer: the pair
    bits in column-major order, zero-padded, then cut into 6-bit groups
    from the top."""
    n = g.order
    x = count = 0
    for j in range(1, n):
        for i in range(j):
            x = (x << 1) | (g.adj[i] >> j) & 1
            count += 1
    pad = -count % 6
    x <<= pad
    groups = [(x >> k) & 63 for k in range(count + pad - 6, -1, -6)]
    return "".join(chr(63 + b) for b in [n] + groups)


# The data readers in their plainest form, in text mode: one check_graph6
# call per atlas line, one cell parse per table cell, one parse_rational
# call per certificate token.  They give the results and messages of
# catalog and witness but for one rule: str strip() and split() also
# count \x1c-\x1f as whitespace.


def read_atlas_by_line(path) -> list[bytes]:
    """catalog.read_atlas, one check_graph6 call per line."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    out = []
    blank = None
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            if blank is None:
                blank = ln
            continue
        if blank is not None:
            raise ValueError(f"{path}:{blank}: blank line before the last graph")
        try:
            out.append(check_graph6(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
    return out


def load_fixtures_by_row(path) -> list[FixtureRow]:
    """catalog.load_fixtures, every check of a row made before the next row is read."""
    rows: list[FixtureRow] = []
    seen: set[int] = set()
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != FIXTURE_COLUMNS:
            raise ValueError(f"{path}:1: unexpected header {header}")
        for ln, line in enumerate(fh, 2):
            if not line.strip():
                continue
            f = line.rstrip("\n").split("\t")
            if len(f) != len(FIXTURE_COLUMNS):
                raise ValueError(f"{path}:{ln}: expected {len(FIXTURE_COLUMNS)} fields, got {len(f)}")
            try:
                row = FixtureRow(*[cell(token) for cell, token in zip(_CELLS, f)])
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from exc
            connected_only = [row.zfs_lb, row.diam_lb, row.cc_ub, row.is_flag,
                              row.np_ub, row.nop_ub, row.path_ub]
            if row.con and None in connected_only[:4]:
                raise ValueError(f"{path}:{ln}: connected row missing an unconditional column")
            if not row.con and connected_only != [None] * 7:
                raise ValueError(f"{path}:{ln}: disconnected row carries a connected-only column")
            if not row.con and row.tree is not False:
                tree = "" if row.tree is None else "T"
                raise ValueError(f"{path}:{ln}: disconnected row has tree {tree!r}, not 'F'")
            if row.lb > row.ub:
                raise ValueError(f"{path}:{ln}: lb {row.lb} exceeds ub {row.ub}")
            if not row.lb <= row.mr <= row.ub:
                raise ValueError(f"{path}:{ln}: mr {row.mr} outside [{row.lb}, {row.ub}]")
            if row.ub > row.order - 1:
                raise ValueError(f"{path}:{ln}: ub {row.ub} exceeds order - 1 = {row.order - 1}")
            if row.size > row.order * (row.order - 1) // 2:
                raise ValueError(f"{path}:{ln}: size {row.size} exceeds order(order - 1)/2 = "
                                 f"{row.order * (row.order - 1) // 2}")
            if row.atlas_number in seen:
                raise ValueError(f"{path}:{ln}: duplicate atlas number {row.atlas_number}")
            seen.add(row.atlas_number)
            rows.append(row)
    rows.sort(key=lambda r: r.atlas_number)
    return rows


def parse_witness_file_by_token(path) -> list[WitnessRecord]:
    """witness.parse_witness_file, one parse_rational call per matrix token,
    each matrix scaled to integers through Fractions."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    records: dict[int, WitnessRecord] = {}
    atlas_number = None
    dim = 0
    rows: list[tuple] = []
    for ln, line in enumerate(lines, 1):
        parts = line.split()
        if parts and parts[0].startswith("#"):
            continue
        if atlas_number is None:
            if not parts:
                continue
            if len(parts) != 2 or parts[0] != "atlas" or not parts[1].isdigit():
                raise ValueError(f"{path}:{ln}: expected 'atlas <number>', got {line!r}")
            atlas_number = int(parts[1])
            if atlas_number in records:
                raise ValueError(f"{path}:{ln}: duplicate record for atlas {atlas_number}")
        elif not dim:
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                raise ValueError(f"{path}:{ln}: expected 'n <dimension>', got {line!r}")
            dim = int(parts[1])
            if dim < 1:
                raise ValueError(f"{path}:{ln}: dimension must be positive")
        else:
            if not parts:
                raise ValueError(f"{path}:{ln}: expected {dim} matrix rows, found {len(rows)}")
            if len(parts) != dim:
                raise ValueError(f"{path}:{ln}: expected {dim} entries per row, got {len(parts)}")
            try:
                rows.append(tuple(Fraction(*parse_rational(t)) for t in parts))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from exc
            if len(rows) == dim:
                records[atlas_number] = WitnessRecord(atlas_number, matrix(rows))
                atlas_number, dim, rows = None, 0, []
    if dim:
        raise ValueError(f"{path}:{len(lines) + 1}: expected {dim} matrix rows, found {len(rows)}")
    if atlas_number is not None:
        raise ValueError(f"{path}:{len(lines)}: missing 'n <dimension>' header")
    return list(records.values())
