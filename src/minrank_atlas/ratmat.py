"""Exact rational matrices: token parsing, symmetry, nonzero-pattern
extraction, and rank by fraction-free (Bareiss) elimination.

Tokens are parsed into and stored as fractions.Fraction.  The rank
scales each row to integers first and then eliminates over Python ints;
there is no floating point anywhere on this path.

`fractions` (which imports `decimal`) is imported by the first
parse_rational call, so commands that check no certificate never load it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import lcm

from minrank_atlas.graphs import Graph

Fraction = None  # fractions.Fraction, once parse_rational has run

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'sign? digits (/ digits)?', digits ASCII 0-9 only, into a reduced fraction."""
    global Fraction
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed rational token {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    if Fraction is None:
        from fractions import Fraction
    return Fraction(num, den)


class RationalMatrix(namedtuple("RationalMatrix", ("rows",))):
    """Square matrix of Fractions, stored as a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[Fraction, ...], ...]):
        self = super().__new__(cls, rows)
        n = len(self.rows)
        if n == 0:
            raise ValueError("empty matrix")
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {n}x{len(row)} row")
        return self

    @property
    def n(self) -> int:
        return len(self.rows)


def is_symmetric(m: RationalMatrix) -> bool:
    rows = m.rows
    return all(rows[i][j] == rows[j][i] for i in range(m.n) for j in range(i + 1, m.n))


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals by Bareiss elimination over the integers.

    Each row is first multiplied by the lcm of its denominators; a
    nonzero row scale keeps the rank.  Every quotient the elimination
    forms is a minor of the scaled matrix, so each `//` leaves no remainder.
    Pivot rule: first row with a nonzero entry in the current column;
    with exact arithmetic only determinism matters.
    """
    n = m.n
    a = []
    for row in m.rows:
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        tail = a[r][c + 1:]  # column c below the pivot is never read again
        for i in range(r + 1, n):
            row = a[i]
            f = row[c]
            row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = p
        r += 1
        if r == n:
            break
    return r


def pattern_graph(m: RationalMatrix) -> Graph:
    """Graph on n vertices with i ~ j iff the (i,j) entry is nonzero (i != j).

    The diagonal is ignored.  m must be symmetric, as verify_witness
    checks first: Graph rejects an asymmetric nonzero pattern, but not
    unequal nonzero entries in mirrored places.
    """
    rows = []
    for i in range(m.n):
        row = 0
        for j in range(m.n):
            if i != j and m.rows[i][j] != 0:
                row |= 1 << j
        rows.append(row)
    return Graph(m.n, tuple(rows))
