"""Optimal-matrix certificates: a record pairs an atlas number with an
exact symmetric matrix, and verify_witness alone gives the verdict on it
against the atlas graph g: the checks it fails among symmetry, its
off-diagonal nonzero pattern being g (up to isomorphism; the certificates
do not fix a vertex labeling), its rank being n - Z(g), and its number
not being unwitnessed.  Since Z(g) >= M(g), mr(g) >= n - Z(g), so a
certificate that passes proves mr(g) = its rank, with no reference table.

parse_witness_file reads a certificate file through graph6.read_lines in
one pass, as the other data readers do: each fault is a ValueError that
starts with 'path:line: '.  It splits lines on ASCII whitespace only,
parses each distinct matrix token once per file, in graph6.ParsedTokens,
and scales each matrix once by the lcm of its denominators into an
IntMatrix.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from minrank_atlas.bounds import zero_forcing_number
from minrank_atlas.graph6 import ParsedTokens, read_lines, text
from minrank_atlas.graphs import Graph, is_isomorphic
from minrank_atlas.ratmat import IntMatrix, is_symmetric, parse_rational, pattern_graph, rank

# Atlas numbers whose minimum rank is settled by other means; the bundled
# certificate file must not contain them, and a record for one fails.
KNOWN_UNWITNESSED = frozenset({558, 669, 678, 679, 791, 1086, 1135})


class WitnessRecord(namedtuple("WitnessRecord", ("atlas_number", "matrix"))):
    """One parsed certificate: an atlas number and its integer matrix."""

    __slots__ = ()


class WitnessReport(namedtuple("WitnessReport", ("atlas_number", "rank_found", "reasons"))):
    """The rank a certificate reached and the checks it failed, in order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.reasons


def parse_witness_file(path) -> list[WitnessRecord]:
    """Read blocks of 'atlas <k>' / 'n <d>' / d rows of d rational tokens.

    Blank lines separate blocks, and '#' lines are comments wherever they
    stand.  Each fault raises a ValueError that starts with 'path:line: '.
    Whether atlas k exists is the caller's check, against its atlas file.
    """
    lines = read_lines(path)
    records: dict[int, WitnessRecord] = {}
    # each distinct matrix token parsed once; parse_rational is looked up per call
    values = ParsedTokens(lambda token: parse_rational(text(token)))
    atlas_number = None  # of the block being read
    dim = 0  # its dimension, once its 'n' line is read
    rows: list[tuple] = []
    for ln, line in enumerate(lines, 1):
        parts = line.split()
        if parts and parts[0].startswith(b"#"):
            continue
        try:  # one path:line prefix for every fault, int()'s digit limit included
            if atlas_number is None:
                if not parts:
                    continue
                if len(parts) != 2 or parts[0] != b"atlas" or not parts[1].isdigit():
                    raise ValueError(f"expected 'atlas <number>', got {text(line)!r}")
                atlas_number = int(parts[1])
                if atlas_number in records:
                    raise ValueError(f"duplicate record for atlas {atlas_number}")
            elif not dim:
                if len(parts) != 2 or parts[0] != b"n" or not parts[1].isdigit():
                    raise ValueError(f"expected 'n <dimension>', got {text(line)!r}")
                dim = int(parts[1])
                if dim < 1:
                    raise ValueError("dimension must be positive")
            else:
                if not parts:
                    raise ValueError(f"expected {dim} matrix rows, found {len(rows)}")
                if len(parts) != dim:
                    raise ValueError(f"expected {dim} entries per row, got {len(parts)}")
                rows.append(tuple(map(values.__getitem__, parts)))  # the first bad token raises
                if len(rows) == dim:  # (num, den) pairs, scaled to ints
                    scale = lcm(*{den for row in rows for _, den in row})
                    matrix = tuple(tuple([num * (scale // den) for num, den in row]) for row in rows)
                    records[atlas_number] = WitnessRecord(atlas_number, IntMatrix(matrix))
                    atlas_number, dim, rows = None, 0, []
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
    if dim:
        raise ValueError(f"{path}:{len(lines) + 1}: expected {dim} matrix rows, found {len(rows)}")
    if atlas_number is not None:
        raise ValueError(f"{path}:{len(lines)}: missing 'n <dimension>' header")
    return list(records.values())


def verify_witness(record: WitnessRecord, g: Graph) -> WitnessReport:
    """Check one certificate against its atlas graph g.  The reasons name
    its failed checks in order: 'symmetric', 'pattern' (which an asymmetric
    matrix fails too), 'rank' (a rank other than n - Z(g)), and
    'unexpected' for a KNOWN_UNWITNESSED number; failures are reasons,
    never exceptions."""
    m = record.matrix
    reasons = []
    # an asymmetric matrix has no pattern graph; a dimension other than
    # the graph's order fails before pattern_graph, which rejects an
    # order past Graph's 64
    if not is_symmetric(m):
        reasons += ("symmetric", "pattern")
    elif m.n != g.order or not is_isomorphic(pattern_graph(m), g):
        reasons.append("pattern")
    rank_found = rank(m)
    # m with g's pattern gives Z(g) >= M(g) >= n - rank(m): the scan starts there
    at_least = 0 if reasons else g.order - rank_found
    if rank_found != g.order - zero_forcing_number(g, at_least=at_least):
        reasons.append("rank")
    if record.atlas_number in KNOWN_UNWITNESSED:
        reasons.append("unexpected")
    return WitnessReport(record.atlas_number, rank_found, tuple(reasons))
