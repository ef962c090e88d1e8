"""Exact certificate matrices in integers: token parsing, symmetry,
nonzero-pattern extraction, and rank by fraction-free (Bareiss) elimination.

A rational token parses to a reduced integer pair (numerator,
denominator).  The certificate reader scales each matrix once by the lcm
of its denominators, which keeps symmetry, the nonzero pattern and the
rank; IntMatrix then holds ints only, so every check here is Python int
arithmetic, with no fraction and no floating point.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd

from minrank_atlas.graphs import Graph

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def parse_rational(text: str) -> tuple[int, int]:
    """Parse 'sign? digits (/ digits)?', digits ASCII 0-9 only, into a
    reduced (numerator, denominator) pair with a positive denominator."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed rational token {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    g = gcd(num, den)
    return num // g, den // g


class IntMatrix(namedtuple("IntMatrix", ("rows",))):
    """Square matrix of ints, stored as a tuple of row tuples.  Any other
    row or entry (a list, a fraction, a float, a bool) is a TypeError when
    it is built."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        self = super().__new__(cls, rows)
        n = len(self.rows)
        if n == 0:
            raise ValueError("empty matrix")
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {n}x{len(row)} row")
            if type(row) is not tuple or {*map(type, row)} != {int}:
                raise TypeError(f"matrix rows must be tuples of ints, got {row!r}")
        return self

    @property
    def n(self) -> int:
        return len(self.rows)


def is_symmetric(m: IntMatrix) -> bool:
    return tuple(m.rows) == tuple(zip(*m.rows))


def rank(m: IntMatrix) -> int:
    """Rank over the rationals by Bareiss elimination over the integers.

    Every quotient the elimination forms is a minor of the matrix, so
    each `//` leaves no remainder.  Pivot rule: first row with a nonzero
    entry in the current column; with exact arithmetic only determinism
    matters.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c]), None)
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


def pattern_graph(m: IntMatrix) -> Graph:
    """Graph on n vertices with i ~ j iff the (i,j) entry is nonzero (i != j).

    The diagonal is ignored.  m must be symmetric, as verify_witness
    checks first: Graph rejects an asymmetric nonzero pattern, but not
    unequal nonzero entries in mirrored places.
    """
    return Graph(m.n, tuple(
        sum(1 << j for j, x in enumerate(row) if x) & ~(1 << i) for i, row in enumerate(m.rows)
    ))
