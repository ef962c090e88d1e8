import random
import re
from fractions import Fraction

import pytest

from minrank_atlas.bounds import zero_forcing_number
from minrank_atlas.graphs import Graph
from minrank_atlas.ratmat import IntMatrix, rank
from minrank_atlas.witness import (
    KNOWN_UNWITNESSED,
    WitnessRecord,
    parse_witness_file,
    verify_witness,
)

from oracles import brute_contains_induced, gauss_jordan_rank, matrix, rank_mod_p

TABLE2_ATLAS = (
    721, 801, 812, 831, 832, 846, 863, 873, 878, 913, 918, 924, 932, 944,
    953, 956, 958, 970, 990, 995, 996, 1002, 1005, 1028, 1060, 1075, 1077,
    1087, 1095, 1099, 1104, 1146, 1167, 1205, 1212,
)


def test_bundled_file_parses(witness_records, atlas_graphs, fixtures_by_atlas):
    assert len(witness_records) == 35
    assert tuple(r.atlas_number for r in witness_records) == TABLE2_ATLAS
    assert all(r.matrix.n == 7 for r in witness_records)
    # the rank each must reach, n - Z, is the reference lb on every one
    for r in witness_records:
        g = atlas_graphs[r.atlas_number]
        assert g.order - zero_forcing_number(g) == 3 == fixtures_by_atlas[r.atlas_number].lb


def test_no_record_for_externally_resolved_graphs(witness_records):
    present = {r.atlas_number for r in witness_records}
    assert not present & KNOWN_UNWITNESSED


def parse_text(path, text):
    path.write_text(text, encoding="utf-8")
    return parse_witness_file(path)


def test_empty_file(tmp_path):
    path = tmp_path / "w.txt"
    assert parse_text(path, "") == []
    assert parse_text(path, "# just a comment\n\n") == []


def test_parse_errors(tmp_path):
    # whether the atlas number exists is the atlas file's rule, checked by
    # verify-witnesses (tests/test_cli.py), not a parse error
    path = tmp_path / "w.txt"
    good = "atlas 3\nn 2\n0 1\n1 0\n"
    assert len(parse_text(path, good)) == 1
    assert len(parse_text(path, "atlas 3\n# c\nn 1\n# d\n0\n")) == 1

    for text, message in [
        ("atlas x\n", "1: expected 'atlas <number>', got 'atlas x'"),
        ("atlas 3\nrows 2\n", "2: expected 'n <dimension>', got 'rows 2'"),
        # short matrix: blank line after one of two rows
        ("atlas 3\nn 2\n0 1\n\n1 0\n", "4: expected 2 matrix rows, found 1"),
        ("atlas 3\nn 2\n0 1 1\n1 0\n", "3: expected 2 entries per row, got 3"),
        ("atlas 3\nn 2\n0 x\n1 0\n", "3: malformed rational token 'x'"),
        ("atlas 3\nn 2\n0 1\n1/0 0\n", "4: zero denominator in '1/0'"),
        (good + "\n" + good, "6: duplicate record for atlas 3"),
        # end of file before the 'n' line: the last line
        ("atlas 3", "1: missing 'n <dimension>' header"),
        ("atlas 3\n", "2: expected 'n <dimension>', got ''"),
        ("atlas 3\n\nn 1\n0\n", "2: expected 'n <dimension>', got ''"),
        ("atlas 3\nn 0\n", "2: dimension must be positive"),
        # end of file inside a matrix: one line past the last
        ("atlas 3\nn 2\n0 1\n", "4: expected 2 matrix rows, found 1"),
        ("atlas 3\nn 2\n0 1", "4: expected 2 matrix rows, found 1"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_text(path, text)
        assert str(info.value) == f"{path}:{message}", text


@pytest.mark.parametrize("text,line", [
    ("atlas \u0663\nn 2\n0 1\n1 0\n", 1),      # Arabic-Indic three
    ("atlas \u00b2\nn 2\n0 1\n1 0\n", 1),      # superscript two
    ("atlas 3\nn \u0663\n0 1 1\n1 0 1\n1 1 0\n", 2),
    ("atlas 3\nn \u00b2\n0 1\n1 0\n", 2),
], ids=["atlas-arabic-indic", "atlas-superscript", "n-arabic-indic", "n-superscript"])
def test_header_numbers_are_ascii_digits(tmp_path, text, line):
    path = tmp_path / "w.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: expected '(atlas|n) <"):
        parse_text(path, text)


def test_verify_all_bundled(witness_records, atlas_graphs, fixtures_by_atlas):
    for rec in witness_records:
        report = verify_witness(rec, atlas_graphs[rec.atlas_number])
        assert report.passed, (rec.atlas_number, report)
        fix = fixtures_by_atlas[rec.atlas_number]
        assert fix.lb <= report.rank_found <= fix.ub


def test_verify_spot_ranks(witness_records, atlas_graphs):
    by_atlas = {r.atlas_number: r for r in witness_records}
    for a in (721, 846, 913, 1205, 1146):
        report = verify_witness(by_atlas[a], atlas_graphs[a])
        assert report.rank_found == 3 and report.passed


def test_witness_913_pattern_size(witness_records, atlas_graphs):
    from minrank_atlas.ratmat import pattern_graph

    rec = next(r for r in witness_records if r.atlas_number == 913)
    g = pattern_graph(rec.matrix)
    assert g.size() == 12 == atlas_graphs[913].size()


def test_tampered_pattern_fails(witness_records, atlas_graphs):
    rec = next(r for r in witness_records if r.atlas_number == 721)
    rows = [list(r) for r in rec.matrix.rows]
    # flip one off-diagonal zero to 1, symmetrically
    i, j = next(
        (i, j)
        for i in range(7)
        for j in range(i + 1, 7)
        if rows[i][j] == 0
    )
    rows[i][j] = rows[j][i] = 1
    bad = WitnessRecord(721, IntMatrix(tuple(tuple(r) for r in rows)))
    report = verify_witness(bad, atlas_graphs[721])
    assert report.reasons == ("pattern", "rank") and not report.passed


def test_asymmetric_matrix_fails(atlas_graphs):
    m = matrix([[0, 1], [0, 0]])
    report = verify_witness(WitnessRecord(3, m), atlas_graphs[3])
    assert report.reasons == ("symmetric", "pattern") and not report.passed


def test_low_rank_with_the_wrong_pattern_fails_rank(atlas_graphs):
    # the zero matrix has rank 0 < n - Z(K2) = 1; only a matrix with g's
    # pattern bounds Z(g) below by n - rank, so this one must not
    assert atlas_graphs[3].size() == 1
    report = verify_witness(WitnessRecord(3, matrix([[0, 0], [0, 0]])), atlas_graphs[3])
    assert (report.reasons, report.rank_found) == (("pattern", "rank"), 0)


def test_wrong_claimed_rank_fails(witness_records, atlas_graphs):
    # a diagonal entry moved: the pattern stays, the rank leaves n - Z = 3
    rec = next(r for r in witness_records if r.atlas_number == 721)
    rows = [list(r) for r in rec.matrix.rows]
    rows[0][0] += 1
    bad = WitnessRecord(721, IntMatrix(tuple(map(tuple, rows))))
    report = verify_witness(bad, atlas_graphs[721])
    assert report.reasons == ("rank",) and not report.passed
    assert report.rank_found == 4


def test_unwitnessed_number_fails_unexpected(witness_records, atlas_graphs):
    # a record for an atlas number that must have no certificate fails,
    # whatever its other checks give
    rec = next(r for r in witness_records if r.atlas_number == 721)
    report = verify_witness(WitnessRecord(558, rec.matrix), atlas_graphs[558])
    assert report.reasons[-1] == "unexpected" and not report.passed
    assert report.atlas_number == 558


def test_symmetry_is_checked_once_per_certificate(witness_records, atlas_graphs, monkeypatch):
    from minrank_atlas import ratmat, witness

    is_symmetric = ratmat.is_symmetric
    calls = []

    def counted(m):
        calls.append(m)
        return is_symmetric(m)

    monkeypatch.setattr(witness, "is_symmetric", counted)
    monkeypatch.setattr(ratmat, "is_symmetric", counted)
    for rec in witness_records:
        assert verify_witness(rec, atlas_graphs[rec.atlas_number]).passed
    assert len(calls) == len(witness_records) == 35


def test_bareiss_stays_integral_on_integer_witnesses(witness_records):
    # fraction-free elimination: on integer input every intermediate is an
    # integer (checked by a mirrored run of the same recurrence in Fractions)
    checked = 0
    for rec in witness_records:
        checked += 1
        a = [[Fraction(x) for x in row] for row in rec.matrix.rows]
        n = len(a)
        prev = Fraction(1)
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if a[i][c] != 0), None)
            if piv is None:
                continue
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
            for i in range(r + 1, n):
                for j in range(c + 1, n):
                    a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) / prev
                    assert a[i][j].denominator == 1, rec.atlas_number
                a[i][c] = Fraction(0)
            prev = a[r][c]
            r += 1
        assert r == rank(rec.matrix)
    assert checked == 35  # every certificate is read as an integer matrix


def test_verification_invariant_under_permutation(witness_records, atlas_graphs):
    rng = random.Random(103)
    for rec in rng.sample(witness_records, 8):
        n = rec.matrix.n
        perm = list(range(n))
        rng.shuffle(perm)
        rows = tuple(
            tuple(rec.matrix.rows[perm[i]][perm[j]] for j in range(n))
            for i in range(n)
        )
        shuffled = WitnessRecord(rec.atlas_number, IntMatrix(rows))
        assert verify_witness(shuffled, atlas_graphs[rec.atlas_number]).passed


def _nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))


def _oracle_verdict(b, g, claimed):
    """Reasons and rank of a Fraction matrix b against graph g, worked out
    in Fractions: symmetry by transposition, the pattern by brute-force
    isomorphism, the rank by Gauss-Jordan reduction."""
    n = len(b)
    reasons = []
    if any(b[i][j] != b[j][i] for i in range(n) for j in range(n)):
        reasons += ["symmetric", "pattern"]
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if b[i][j]]
        if n != g.order or not brute_contains_induced(g, Graph.from_edges(n, edges)):
            reasons.append("pattern")
    found = gauss_jordan_rank(b)
    if found != claimed:
        reasons.append("rank")
    return tuple(reasons), found


def test_rescaled_certificates_match_the_oracle(tmp_path, witness_records, atlas_graphs,
                                                fixtures_by_atlas):
    # c*D*P*A*P^T*D with nonzero rational c and diagonal D and a permutation
    # P keeps symmetry, the pattern's class and the rank; each copy is read
    # back from its tokens, and one asymmetric and one zeroed copy of each
    # certificate fail as the oracle says
    rng = random.Random(2611)
    copies = {"rescaled": [], "asymmetric": [], "zeroed": []}
    for rec in witness_records:
        a, n = rec.matrix.rows, rec.matrix.n
        p = list(range(n))
        rng.shuffle(p)
        d = [_nonzero_rational(rng) for _ in range(n)]
        c = _nonzero_rational(rng)
        b = [[c * d[i] * d[j] * a[p[i]][p[j]] for j in range(n)] for i in range(n)]
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if i != j and b[i][j]])
        asym = [row[:] for row in b]
        asym[i][j] *= 2
        zeroed = [row[:] for row in b]
        zeroed[i][j] = zeroed[j][i] = Fraction(0)
        for kind, m in (("rescaled", b), ("asymmetric", asym), ("zeroed", zeroed)):
            copies[kind].append((rec.atlas_number, m))
    seen = set()
    for kind, blocks in copies.items():
        path = tmp_path / f"{kind}.txt"
        path.write_text("\n".join(
            f"atlas {atlas}\nn {len(m)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in m)
            for atlas, m in blocks))
        records = parse_witness_file(path)
        assert [r.atlas_number for r in records] == [atlas for atlas, _ in blocks]
        for rec, (atlas, m) in zip(records, blocks):
            g = atlas_graphs[atlas]
            reasons, found = _oracle_verdict(m, g, fixtures_by_atlas[atlas].lb)
            report = verify_witness(rec, g)
            assert (report.reasons, report.rank_found) == (reasons, found), (kind, atlas)
            assert rank(rec.matrix) == gauss_jordan_rank(m)
            seen.add((kind, reasons))
    # on this seed every broken copy also leaves rank 3
    assert seen == {("rescaled", ()), ("asymmetric", ("symmetric", "pattern", "rank")),
                    ("zeroed", ("pattern", "rank"))}


# Z >= M over every field (AIM Work Group, LAA 428, 2008).  An integer
# certificate whose nonzero off-diagonal entries are all prime to p keeps
# its pattern mod p, so rank mod p = n - Z proves mr = n - Z over every
# field of characteristic p.  Counts of such certificates, by p:
PRIME_FIELD_COUNTS = {2: 14, 3: 31, 5: 34, 7: 35}


def test_certificates_settle_mr_over_prime_fields(witness_records, atlas_graphs):
    counts = {}
    for p in PRIME_FIELD_COUNTS:
        kept = [rec for rec in witness_records
                if all(x % p for i, row in enumerate(rec.matrix.rows)
                       for j, x in enumerate(row) if i != j and x)]
        counts[p] = len(kept)
        for rec in kept:
            g = atlas_graphs[rec.atlas_number]
            assert rank_mod_p(rec.matrix.rows, p) == g.order - zero_forcing_number(g), (p, rec.atlas_number)
    assert counts == PRIME_FIELD_COUNTS
