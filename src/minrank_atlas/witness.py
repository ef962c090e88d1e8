"""Optimal-matrix certificates: a record pairs an atlas number with an
exact symmetric matrix whose rank is claimed to equal that graph's
minimum rank.  Verification checks symmetry, that the off-diagonal
nonzero pattern is the atlas graph (up to isomorphism; the certificates
do not fix a vertex labeling), and the exact rational rank.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping

from minrank_atlas.graphs import Graph, is_isomorphic
from minrank_atlas.ratmat import (
    RationalMatrix,
    is_symmetric,
    parse_rational,
    pattern_graph,
    rank,
)

# Atlas numbers whose minimum rank is settled by other means; the bundled
# certificate file must not contain them, and a record for one is flagged.
KNOWN_UNWITNESSED = frozenset({558, 669, 678, 679, 791, 1086, 1135})


class WitnessRecord(namedtuple("WitnessRecord", ("atlas_number", "matrix", "claimed_rank"))):
    """One parsed certificate and the rank it must reach."""

    __slots__ = ()


class WitnessReport(namedtuple("WitnessReport", (
    "atlas_number", "symmetric_ok", "pattern_ok", "rank_found", "rank_ok",
))):
    """Outcome of each certificate check; passed when all three hold."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.symmetric_ok and self.pattern_ok and self.rank_ok

    def reasons(self) -> list[str]:
        out = []
        if not self.symmetric_ok:
            out.append("symmetric")
        if not self.pattern_ok:
            out.append("pattern")
        if not self.rank_ok:
            out.append("rank")
        return out


class WitnessParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _is_digits(token: str) -> bool:
    return token.isascii() and token.isdigit()  # isdigit alone takes U+0663, U+00B2


def parse_witness_file(
    text: str, claimed_ranks: Mapping[int, int]
) -> list[WitnessRecord]:
    """Parse blocks of 'atlas <k>' / 'n <d>' / d rows of d rational tokens.

    Blank lines separate blocks and '#' lines are comments.  claimed_ranks
    maps atlas number -> claimed rank (the reference lower bound); an
    atlas number without an entry is an error.
    """
    lines = text.split("\n")
    records: list[WitnessRecord] = []
    seen: set[int] = set()
    i = 0

    def is_noise(s: str) -> bool:
        t = s.strip()
        return not t or t.startswith("#")

    while i < len(lines):
        if is_noise(lines[i]):
            i += 1
            continue
        ln = i + 1
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != "atlas" or not _is_digits(parts[1]):
            raise WitnessParseError(ln, f"expected 'atlas <number>', got {lines[i]!r}")
        atlas_number = int(parts[1])
        if atlas_number in seen:
            raise WitnessParseError(ln, f"duplicate record for atlas {atlas_number}")
        if atlas_number not in claimed_ranks:
            raise WitnessParseError(ln, f"unknown atlas number {atlas_number}")
        i += 1
        while i < len(lines) and lines[i].strip().startswith("#"):
            i += 1
        if i >= len(lines):
            raise WitnessParseError(len(lines), "missing 'n <dimension>' header")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != "n" or not _is_digits(parts[1]):
            raise WitnessParseError(i + 1, f"expected 'n <dimension>', got {lines[i]!r}")
        dim = int(parts[1])
        if dim < 1:
            raise WitnessParseError(i + 1, "dimension must be positive")
        i += 1
        rows = []
        while len(rows) < dim:
            if i >= len(lines) or not lines[i].strip():
                raise WitnessParseError(
                    i + 1, f"expected {dim} matrix rows, found {len(rows)}"
                )
            if lines[i].strip().startswith("#"):
                i += 1
                continue
            tokens = lines[i].split()
            if len(tokens) != dim:
                raise WitnessParseError(
                    i + 1, f"expected {dim} entries per row, got {len(tokens)}"
                )
            try:
                rows.append(tuple(parse_rational(t) for t in tokens))
            except ValueError as exc:
                raise WitnessParseError(i + 1, str(exc)) from exc
            i += 1
        seen.add(atlas_number)
        records.append(
            WitnessRecord(atlas_number, RationalMatrix(tuple(rows)), claimed_ranks[atlas_number])
        )
    return records


def read_witness_file(path, claimed_ranks: Mapping[int, int]) -> list[WitnessRecord]:
    """parse_witness_file over a file; errors name path:line."""
    # surrogateescape, as for the other data files: a non-ASCII byte fails
    # the token check of its line (and is allowed in a comment)
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        return parse_witness_file(text, claimed_ranks)
    except WitnessParseError as exc:
        raise ValueError(f"{path}:{exc.line}: {exc.message}") from exc


def verify_witness(record: WitnessRecord, g: Graph) -> WitnessReport:
    """Check one certificate against its atlas graph; failures are report
    fields, never exceptions."""
    m = record.matrix
    symmetric_ok = is_symmetric(m)
    pattern_ok = False
    if symmetric_ok:
        pattern_ok = is_isomorphic(pattern_graph(m), g)
    rank_found = rank(m)
    return WitnessReport(
        atlas_number=record.atlas_number,
        symmetric_ok=symmetric_ok,
        pattern_ok=pattern_ok,
        rank_found=rank_found,
        rank_ok=rank_found == record.claimed_rank,
    )
