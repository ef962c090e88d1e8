"""The step table: counts of the work one catalog.compute_all over the
bundled atlas does, each with the reason it has that value.  The counts
do not depend on the host, so a change that does more work fails here
on any machine.  A change of method edits the row it moves and its
reason, and says so in CHANGES.md."""

from minrank_atlas.catalog import compute_all

# step -> (count per compute_all over the atlas, why)
STEPS = {
    "lookups": (
        1377,
        "AtlasIndex.atlas_number, one per piece: 614 components of the 256 "
        "disconnected rows, 398 blocks of 4 or more vertices of the 456 "
        "cut-vertex rows (a K2 or K3 block needs none) and 365 contractions "
        "of 2-connected rows",
    ),
    "confirmations": (
        0,
        "contains_induced searches run inside a lookup: every piece has "
        "order <= 6, and the atlas certifies orders 1-6 (it holds every "
        "class of each, with pairwise distinct class keys), so each lookup "
        "is one dict read",
    ),
    "contains_induced": (
        1517,
        "the forbidden flag alone, on the 996 connected rows, stopping at the "
        "first pattern held: 852 rows stop at the first, 10 at the second, "
        "39 at the third, 21 at the fourth, and 74 hold none of the 5 "
        "patterns nor K3,3,3",
    ),
}


def test_compute_all_steps_are_pinned(atlas_corpus, forbidden, lookup_counts):
    compute_all(atlas_corpus, forbidden)
    assert {step: lookup_counts[step] for step in STEPS} == {
        step: count for step, (count, _) in STEPS.items()
    }
