"""Seeded inputs and correctness gates for the three benchmark workloads.

Every input is generated here, from the seed, with the benchmark's own
code; the program under test only ever sees the generated graph6 strings
and certificate files, through `minrank_atlas.cli.main(argv)`.

A workload yields *passes*: fixed-size lists of operations.  An operation
is one or more CLI calls run back to back and timed as one; its check runs
after the timed loop and returns a failure cause, or None when correct.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# sha256 of `minrank-atlas table` output over the bundled data.  The table
# TSV must stay byte-identical: a change that alters it fails the gate.
TABLE_SHA256 = "9b29ebf3c819b1d1b81199452c1e0785382f788e2e379ce8830e006ec5c5bc9b"
DIFF_VERDICT = "# checked 1162 rows: ok\n"

Outputs = list[tuple[int | None, str]]  # (exit code, stdout) per CLI call


@dataclass
class Op:
    calls: list[list[str]]
    check: Callable[[Outputs], str | None]


def _rc(outs: Outputs, expected: list[int]) -> str | None:
    got = [rc for rc, _ in outs]
    return None if got == expected else f"exit codes {got}, expected {expected}"


# ---------------------------------------------------------------- atlas-diff

class AtlasDiff:
    """`diff` over the bundled data; the seed has no inputs to vary.

    Load falls on minors (planarity, outerplanarity) and bounds; ratmat and
    witness are not exercised.
    """

    needs_networkx = False

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def gate_ops(self) -> list[Op]:
        out = self.workdir / "table.tsv"

        def check(outs: Outputs) -> str | None:
            bad = _rc(outs, [0])
            if bad:
                return bad
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            return None if digest == TABLE_SHA256 else f"table sha256 {digest}"

        return [Op([["table", "--out", str(out)]], check)]

    def build_pass(self, k: int, uid: int) -> list[Op]:
        def check(outs: Outputs) -> str | None:
            return _rc(outs, [0]) or (
                None if outs[0][1] == DIFF_VERDICT else f"diff printed {outs[0][1][-200:]!r}")

        return [Op([["diff"]], check)]

    def inputs_digest(self) -> str | None:
        return None


# -------------------------------------------------------------- certificates

def _read_certificates(path: Path) -> list[tuple[int, list[list[Fraction]]]]:
    """Blocks of 'atlas k' / 'n d' / d rows of rational tokens."""
    certs = []
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    i = 0
    while i < len(lines):
        atlas = int(lines[i].split()[1])
        dim = int(lines[i + 1].split()[1])
        rows = [[Fraction(t) for t in lines[i + 2 + r].split()] for r in range(dim)]
        certs.append((atlas, rows))
        i += 2 + dim
    return certs


def _read_lower_bounds(path: Path) -> dict[int, int]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        col = header.index("lb")
        return {int(f[0]): int(f[col]) for f in (ln.rstrip("\n").split("\t") for ln in fh) if f[0]}


def gauss_rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gauss-Jordan elimination, independent of the program's Bareiss."""
    a = [list(r) for r in rows]
    n, rank = len(a), 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))


class Certificates:
    """`verify-witnesses` on a seeded copy of the certificates, then
    `derive-forbidden` into a scratch file.

    Each copy replaces every matrix A by c*D*P*A*P^T*D (P a permutation, D a
    nonzero rational diagonal, c a nonzero rational): symmetry, the pattern's
    isomorphism class and the rank survive, the Fractions grow.  In each copy
    one certificate is made asymmetric and one has an off-diagonal pair zeroed.

    Load falls on ratmat (Bareiss rank), witness and whole-graph
    is_isomorphic lookups; minors is not exercised.
    """

    needs_networkx = False
    copies_per_pass = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.certs = _read_certificates(Path("data/witnesses.txt"))
        self.claimed = _read_lower_bounds(Path("data/table1.tsv"))
        self.forbidden = Path("data/forbidden_mr2.g6").read_bytes()

    def gate_ops(self) -> list[Op]:
        return []

    def _copy(self, k: int, i: int) -> tuple[str, dict[int, str]]:
        """Text of copy i of pass k, and the expected `rank<TAB>verdict` per atlas."""
        rng = random.Random(f"certificates:{self.seed}:{k}:{i}")
        asym, zeroed = rng.sample(range(len(self.certs)), 2)
        blocks, expected = [], {}
        for idx, (atlas, a) in enumerate(self.certs):
            n = len(a)
            p = list(range(n))
            rng.shuffle(p)
            d = [_nonzero_rational(rng) for _ in range(n)]
            c = _nonzero_rational(rng)
            b = [[c * d[i] * d[j] * a[p[i]][p[j]] for j in range(n)] for i in range(n)]
            claimed = self.claimed[atlas]
            if idx in (asym, zeroed):
                i, j = rng.choice([(i, j) for i in range(n) for j in range(n)
                                   if i != j and b[i][j] != 0])
                if idx == asym:
                    b[i][j] *= 2
                    reasons = ["symmetric", "pattern"]  # no pattern without symmetry
                else:
                    b[i][j] = b[j][i] = Fraction(0)
                    reasons = ["pattern"]
                rank = gauss_rank(b)
                if rank != claimed:
                    reasons.append("rank")
                expected[atlas] = f"{rank}\tfail({','.join(reasons)})"
            else:
                expected[atlas] = f"{claimed}\tpass"
            rows = "\n".join(" ".join(str(x) for x in row) for row in b)
            blocks.append(f"atlas {atlas}\nn {n}\n{rows}\n")
        return "\n".join(blocks), expected

    def build_pass(self, k: int, uid: int) -> list[Op]:
        ops = []
        for i in range(self.copies_per_pass):
            text, expected = self._copy(k, i)
            copy = self.workdir / f"witnesses-{uid}-{i}.txt"
            copy.write_text(text, encoding="utf-8")
            derived = self.workdir / f"forbidden-{uid}-{i}.g6"
            ops.append(Op(
                [["verify-witnesses", "--witnesses", str(copy)],
                 ["derive-forbidden", "--out", str(derived)]],
                self._checker(expected, derived),
            ))
        return ops

    def _checker(self, expected: dict[int, str], derived: Path):
        want = "".join(f"{a}\t{expected[a]}\n" for a in sorted(expected))

        def check(outs: Outputs) -> str | None:
            bad = _rc(outs, [1, 0])
            if bad:
                return bad
            if outs[0][1] != want:
                got = dict(ln.split("\t", 1) for ln in outs[0][1].splitlines() if "\t" in ln)
                wrong = [a for a in sorted(expected) if got.get(str(a)) != expected[a]]
                return f"certificate verdicts differ for atlas {wrong[:5]}"
            if derived.read_bytes() != self.forbidden:
                return "derived forbidden list differs from data/forbidden_mr2.g6"
            return None

        return check

    def inputs_digest(self) -> str | None:
        digest = hashlib.sha256()
        for i in range(self.copies_per_pass):
            digest.update(self._copy(0, i)[0].encode())
        return digest.hexdigest()


# ------------------------------------------------------------- graph-queries

Edges = list[tuple[int, int]]


def to_graph6(n: int, edges: Edges) -> str:
    """Headerless graph6 for order <= 62 (upper triangle, column-major)."""
    adj = {(min(e), max(e)) for e in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(out)


def is_connected(n: int, edges: Edges) -> bool:
    nbrs = {v: set() for v in range(n)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen, todo = {0}, [0]
    while todo:
        for w in nbrs[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == n


def gnp(n: int, p: float, rng: random.Random) -> Edges:
    """Connected G(n, p): redraw until connected."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if is_connected(n, edges):
            return edges


def ladder(k: int) -> Edges:
    """The 2 x k ladder: two paths of k vertices joined by k rungs."""
    return ([(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
            + [(i, k + i) for i in range(k)])


def wheel(n: int) -> Edges:
    """Hub 0 joined to a cycle on 1..n-1."""
    return [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)]


def grid(r: int, c: int) -> Edges:
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
    return edges


def triangulated_polygon(n: int, rng: random.Random) -> Edges:
    """A random triangulation of the convex n-gon (a maximal outerplanar graph)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    stack = [list(range(n))]
    while stack:
        poly = stack.pop()
        if len(poly) < 4:
            continue
        k = rng.randrange(1, len(poly) - 1)
        if k > 1:
            edges.append((poly[0], poly[k]))
        if k < len(poly) - 2:
            edges.append((poly[k], poly[-1]))
        stack += [poly[:k + 1], poly[k:]]
    return edges


def relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    p = list(range(n))
    rng.shuffle(p)
    return [(p[a], p[b]) for a, b in edges]


# G(n, p) draws per pass, by (order, density).  Sparse and mid densities stay
# at order <= 9 because their cost is heavy-tailed past that (the exponential
# minor search); order 10 is covered by the planar families below.
GNP_PER_PASS = {
    (8, 0.3): 8, (8, 0.5): 8, (8, 0.7): 8,
    (9, 0.3): 2, (9, 0.5): 2, (9, 0.7): 2,
    (10, 0.7): 2,
}


def planar_family(rng: random.Random) -> list[tuple[int, Edges]]:
    """Ladders 2x4 and 2x5, wheels of order 8-10, triangulated 8-, 9- and
    10-gons and the 3x3 grid: planar inputs on which the minor search and
    the zero-forcing subset scan dominate."""
    fixed = [(8, ladder(4)), (10, ladder(5)), (8, wheel(8)), (9, wheel(9)),
             (10, wheel(10)), (9, grid(3, 3))]
    fixed += [(n, triangulated_polygon(n, rng)) for n in (8, 9, 10)]
    return [(n, relabel(n, e, rng)) for n, e in fixed]


class GraphQueries:
    """A stream of `bounds --graph6 G --json` calls on connected graphs of
    order 8-10 outside the atlas; every pass draws fresh graphs.

    Shows single-graph latency past order 7, where the minor search and the
    zero-forcing subset scan dominate; catalog, ratmat and witness are not
    exercised.
    """

    needs_networkx = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def gate_ops(self) -> list[Op]:
        return []

    def graphs(self, k: int) -> list[tuple[int, Edges]]:
        rng = random.Random(f"graph-queries:{self.seed}:{k}")
        out = [(n, gnp(n, p, rng)) for (n, p), count in GNP_PER_PASS.items()
               for _ in range(count)]
        out += planar_family(rng)
        rng.shuffle(out)
        return out

    def build_pass(self, k: int, uid: int) -> list[Op]:
        ops = []
        for n, edges in self.graphs(k):
            g6 = to_graph6(n, edges)
            ops.append(Op([["bounds", "--graph6", g6, "--json"]], _bounds_checker(g6, n, edges)))
        return ops

    def inputs_digest(self) -> str | None:
        return hashlib.sha256(
            "".join(to_graph6(n, e) + "\n" for n, e in self.graphs(0)).encode()).hexdigest()


def _bounds_checker(g6: str, n: int, edges: Edges):
    def check(outs: Outputs) -> str | None:
        import networkx as nx  # imported after the timed loop; see run.py

        bad = _rc(outs, [0])
        if bad:
            return bad
        try:
            row = json.loads(outs[0][1])
        except ValueError:
            return f"{g6}: output is not JSON"
        g = nx.from_graph6_bytes(g6.encode())
        if {frozenset(e) for e in g.edges()} != {frozenset(e) for e in edges}:
            return f"{g6}: benchmark graph6 encoder disagrees with networkx"
        apex = g.copy()
        apex.add_edges_from((n, v) for v in range(n))
        causes = []
        if (row["order"], row["size"], row["con"]) != (n, len(edges), True):
            causes.append("order/size/con")
        if not row["lb"] <= row["ub"]:
            causes.append("lb > ub")
        if (row["np_ub"] is not None) == nx.check_planarity(g)[0]:
            causes.append("np_ub vs planarity")
        if (row["nop_ub"] is not None) == nx.check_planarity(apex)[0]:
            causes.append("nop_ub vs outerplanarity")
        if row["diam_lb"] != nx.diameter(g):
            causes.append("diam_lb")
        return f"{g6}: {', '.join(causes)}" if causes else None

    return check


WORKLOADS = {
    "atlas-diff": AtlasDiff,
    "certificates": Certificates,
    "graph-queries": GraphQueries,
}
