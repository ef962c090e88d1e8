import random
from fractions import Fraction

import pytest

from minrank_atlas.bounds import zero_forcing_number
from minrank_atlas.graphs import Graph, is_isomorphic
from minrank_atlas.ratmat import (
    IntMatrix,
    is_symmetric,
    parse_rational,
    pattern_graph,
    rank,
)
from minrank_atlas.witness import parse_witness_file

from oracles import complete, gauss_jordan_rank, matrix


def identity(n):
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_parse_rational_examples():
    # reduced (numerator, denominator) pairs, the denominator positive
    assert parse_rational("-19") == (-19, 1)
    assert parse_rational("3/5") == (3, 5)
    assert parse_rational("2/4") == (1, 2)
    assert parse_rational("-6/4") == (-3, 2)
    assert parse_rational("+7") == (7, 1)
    assert parse_rational("0") == (0, 1)
    assert parse_rational("-0/9") == (0, 1)


@pytest.mark.parametrize("bad", [
    "", "1/0", "a", "1.5", "1/ 2", "1/-2", "1 /2", "--1", "1/2/3",
    # Unicode decimal digits that int() would accept
    "\u0663/\u0667", "\uff11\uff12", "1/\u0663", "-\u09e7",
])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(())
    with pytest.raises(ValueError):
        matrix([[1, 2], [3]])


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(3), 0.5, 1.0, True, "1"],
                         ids=["fraction", "integral-fraction", "float", "integral-float", "bool", "str"])
def test_matrix_holds_ints_only(entry):
    # no fraction or float can reach rank's floor division
    with pytest.raises(TypeError):
        IntMatrix(((1, 0), (0, entry)))
    with pytest.raises(TypeError):
        IntMatrix(((entry,),))


def test_matrix_rows_are_tuples():
    # is_symmetric compares the rows with the transpose's tuples
    with pytest.raises(TypeError):
        IntMatrix(([1, 0], (0, 1)))
    assert is_symmetric(IntMatrix(((1, 2), (2, 1))))


def test_rank_basics():
    assert rank(matrix([[0] * 4] * 4)) == 0
    assert rank(identity(7)) == 7
    m = matrix([[1, 2], [2, 4]])
    assert rank(m) == 1
    dup = matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert rank(dup) == 2


def _random_matrix(rng, n):
    pool = [Fraction(k) for k in range(-2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]
    return matrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)])


def test_rank_agrees_with_gauss_jordan():
    rng = random.Random(83)
    for _ in range(200):
        m = _random_matrix(rng, rng.randint(1, 7))
        assert rank(m) == gauss_jordan_rank(m.rows)


def test_rank_on_big_integers():
    # entries far beyond 64 bits keep the elimination honest
    rng = random.Random(89)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = matrix(
            [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(n)]
        )
        assert rank(m) == gauss_jordan_rank(m.rows)


def test_rank_permutation_invariant():
    rng = random.Random(97)
    for _ in range(50):
        n = rng.randint(2, 7)
        m = _random_matrix(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = IntMatrix(
            tuple(tuple(m.rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        )
        assert rank(m) == rank(permuted)


def test_rank_duplicate_row_unchanged():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = _random_matrix(rng, n)
        i, j = rng.randrange(n), rng.randrange(n)
        rows = list(m.rows)
        rows[i] = rows[j]
        assert rank(IntMatrix(tuple(rows))) == gauss_jordan_rank(rows)


def test_is_symmetric():
    assert is_symmetric(identity(3))
    m = matrix([[0, 1], [0, 0]])
    assert not is_symmetric(m)


def test_pattern_graph():
    assert pattern_graph(identity(7)).size() == 0
    ones = matrix([[1] * 3] * 3)
    assert is_isomorphic(pattern_graph(ones), complete(3))
    with pytest.raises(ValueError):
        pattern_graph(matrix([[0, 1], [0, 0]]))
    m = matrix([[5, 0, Fraction(1, 2)], [0, 0, -1], [Fraction(1, 2), -1, 7]])
    g = pattern_graph(m)
    assert g.adj == (0b100, 0b100, 0b011)


def _parsed(tmp_path, rows):
    """The IntMatrix that the certificate reader makes of rows of tokens."""
    path = tmp_path / "w.txt"
    path.write_text(f"atlas 1\nn {len(rows)}\n" + "".join(" ".join(r) + "\n" for r in rows))
    (record,) = parse_witness_file(path)
    return record.matrix


def test_rank_needs_exact_row_scaling(tmp_path):
    # rows equal up to a rational factor: numerators alone would give rank 2;
    # the reader scales the whole matrix by the lcm of its denominators
    assert rank(_parsed(tmp_path, [["1", "1/2"], ["2", "1"]])) == 1
    assert rank(_parsed(tmp_path, [["1/3", "1/5"], ["5", "3"]])) == 1
    assert rank(_parsed(tmp_path, [["1/3", "1"], ["1", "3"]])) == 1
    assert rank(_parsed(tmp_path, [["1/3", "1"], ["1", "1/3"]])) == 2
    assert _parsed(tmp_path, [["1/3", "1/5"], ["5", "3"]]).rows == ((5, 3), (75, 45))


def test_equal_rationals_spelled_apart_are_symmetric(tmp_path):
    # 1/2 and 2/4 in mirrored cells are one value, so one integer
    m = _parsed(tmp_path, [["1/2", "1/2"], ["2/4", "-3/6"]])
    assert m.rows == ((1, 1), (1, -1)) and is_symmetric(m)
    assert not is_symmetric(_parsed(tmp_path, [["0", "1/2"], ["2/3", "0"]]))


def _mixed_rational(rng):
    den = rng.choice((1, 2, 3, 7, 11, 97, 2**31 - 1, 10**9 + 7, 3**20))
    num = rng.choice((rng.randint(-9, 9), rng.randint(-10**15, 10**15)))
    return Fraction(num, den)


def test_rank_mixed_denominators_deficient_and_swapped():
    # A = B*C with inner dimension k has rank <= k; a zero first row of B
    # and a sparse C force pivot swaps and skipped columns
    rng = random.Random(107)
    swapped = deficient = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        k = rng.randint(0, n)
        b = [[_mixed_rational(rng) for _ in range(k)] for _ in range(n)]
        if rng.random() < 0.5:
            b[0] = [Fraction(0)] * k
        c = [[_mixed_rational(rng) if rng.random() < 0.6 else Fraction(0)
              for _ in range(n)] for _ in range(k)]
        rows = [[sum((b[i][t] * c[t][j] for t in range(k)), Fraction(0))
                 for j in range(n)] for i in range(n)]
        want = gauss_jordan_rank(rows)
        assert rank(matrix(rows)) == want
        deficient += want < n
        swapped += rows[0][0] == 0 and any(row[0] for row in rows)
    assert deficient >= 50 and swapped >= 20


def test_rank_invariant_under_certificate_rescaling(witness_records, atlas_graphs):
    # rank(c*D*P*A*P^T*D) == rank(A) for nonzero rational c and diagonal D
    rng = random.Random(109)

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))

    assert len(witness_records) == 35
    for rec in witness_records:
        a = rec.matrix.rows
        n = rec.matrix.n
        p = list(range(n))
        rng.shuffle(p)
        d = [nonzero() for _ in range(n)]
        c = nonzero()
        b = [[c * d[i] * d[j] * a[p[i]][p[j]] for j in range(n)] for i in range(n)]
        want = gauss_jordan_rank(a)
        g = atlas_graphs[rec.atlas_number]
        assert rank(rec.matrix) == want == g.order - zero_forcing_number(g)
        assert rank(matrix(b)) == want, rec.atlas_number
