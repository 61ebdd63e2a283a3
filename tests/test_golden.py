"""Byte-for-byte golden outputs: the classification table and the splittings.

The files under tests/golden/ were written by the code as it stood before the
decomposition started sharing the criteria search engine:

  dpz classify n --format json > tests/golden/classify_n<n>.json   (n = 2..8)

and, in decompose.jsonl, one line per classify_involutions(n) representative,
json.dumps({"n": n, "label": label, "decomposition": decompose(rep, n).to_json()},
sort_keys=True).  Any change to a verdict, certificate, witness vector, split
step or leaf shows up here.

Since decompose works in the chamber conjugate of its input, 14 of the 33
decompose.jsonl lines were regenerated (n = 4 m2; 5 m2b, m3; 6 m3, m4; 7 m3b,
m4a, m4b, m5; 8 m4a, m4b, m5, m6, m7): their split and leaf basis vectors, and
with them the leaf matrices, changed.  Every action, leaf type, leaf rank and
verdict stayed as written before.

Since decompose splits with routes c, d and e (route c's and e's lex-min
sign-canonical ambient vector, route d's pair c1, g(c1)), 23 of the 33 lines
were regenerated again (n = 3 m1b, m2; 4 m2; 5 m1, m2a, m2b, m3; 6 m1, m2, m3;
7 m1, m2, m3a, m3b, m4a, m4b, m5; 8 m1, m2, m3, m4a, m4b, m5), with the same
kind of change: basis vectors and leaf matrices only.

Since decompose starts from check_reducible's eigen data (K anchors the
fixed side when the chamber conjugate fixes it) and narrows each eigen side
to the orthogonal complement of the split block, with the leaf basis taken
as the complement of everything peeled, 16 of the 33 lines were
regenerated (n = 4 m2; 5 m1, m2a, m2b, m3; 6 m2, m3; 7 m2, m3b, m4a, m4b;
8 m1, m2, m4a, m4b, m5).  Split vectors changed only in 5 m2b and 7 m3b;
the others changed their leaf basis and matrix.  Every action, leaf type,
leaf rank and verdict stayed as written before.

test_stream_digests pins two benchmark streams of perfbench/inputs.py
(read, not changed) by the first 16 hex digits of the sha256 of
json.dumps(outputs, sort_keys=True): check_reducible at height bound 2 on
the 640 conjugates of verify_stream(101), and decompose at the default
bound 10 on the 160 operations of decompose_stream(17).  The verify digest
is as the code wrote it before the slab search moved to one coset per slab;
the decompose digest as it wrote it once decompose peeled eigen sides (8 of
the 160 action lists changed then, two fixes becoming one swap on 5 m1,
7 m2 and 8 m2 conjugates, with the same leaf).  Both are entries of the
table tools/digests.py checks (tools/digests.json), and
test_digest_table_holds_the_pinned_stream_digests holds the two side by side.

check_conjugates.jsonl pins check_reducible(g, n, height_bound=2) on two
K-stabilizer and two O(M_n) wall-word conjugates of every catalog class,
n = 3..8 (_conjugate_checks), as the code wrote it before route b, the slab
lift and route d's mod-2 test moved to integer tuples.

Since route b and the unit routes close by a mod-4 walk over L/2L before
any slab search, the classify goldens (15 flags of 13 classes, None to
false; 7 narratives), 47 of the 128 check_conjugates.jsonl lines and the
verify digest were regenerated.  Only flags and narrative entries moved,
each from searched(t<=...) to plus_no_partner_mod4 (route b) or
plus_no_unit_mod4 (route a); every verdict, certificate kind, witness,
label and class size stayed as written before.  decompose.jsonl and the
decompose digest did not move.

Since class sizes come from double counting over the frame, classify_n8.json
was regenerated: its nine class_size fields moved from null to 120, 3780,
37800, 113400, 3150, 37800, 3780, 120 and 1 (m1 .. m8), the class orbit
sizes of the census.  Nothing else in it moved, and classify_n2..n7.json did
not move.

Since decompose anchors every piece of a K-fixing input at the piece's
canonical class K' = K + sum (K.b) b and reads routes c and d off the table
of exceptional classes under the mask of the piece, the decompose digest was
rewritten: on decompose_stream(17) the operations 57 (8 m3, K), 89 (8 m3,
O), 114 (7 m4a, K), 121 (8 m3, K) and 153 (8 m3, O) moved their split and
leaf basis vectors, and every action, leaf type, leaf rank and verdict
stayed as written before.  decompose.jsonl did not move.

Since check_reducible decides an involution whose chamber conjugate moves K
as its normal form w_I (weyl.normal_form) when w_I fixes K, on its class
record, 11 of the 128 check_conjugates.jsonl lines were regenerated (44,
48, 51, 59, 60, 67, 72, 95, 100, 104 and 107, all O(M_n) conjugates at
n = 6..8), and so was the verify digest.  Every verdict stayed as written
before.  Five certificate kinds moved, each to its representative's kind:
44, 48, 59 and 60 from FixedNormPlus1 to FixedHyperbolicPair, and 67 from
FixedNormPlus1 to FixedNormMinus1, with their witnesses and narratives;
the other six lines kept their kind and narrative and moved their
witnesses only.  The classify goldens,
decompose.jsonl and the decompose digest did not move.

Since decompose picks its basis by check_reducible's rule (an input that
fixes K is split as given, anchored at K, not as its chamber conjugate),
14 of the 33 decompose.jsonl lines were regenerated (n = 4 m2; 5 m2b, m3;
6 m3, m4; 7 m3b, m4a, m4b, m5; 8 m4a, m4b, m5, m6, m7), the
representatives whose chamber conjugate is another matrix, and so was the
decompose digest.  Every action, leaf type, leaf rank and verdict stayed
as written before.  The classify goldens, check_conjugates.jsonl and the
verify digest did not move.
"""
import hashlib
import json
import random
from pathlib import Path

import pytest

from delpezzo.cli import EXIT_OK, main
from delpezzo.involutions import classify_involutions
from delpezzo.irreducibility import check_reducible, decompose
from delpezzo.lattice import Isometry, del_pezzo_lattice, identity_isometry
from delpezzo.weyl import wall_generators

from conftest import bench_inputs, canonical_generators

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", range(2, 9))
def test_classify_json_matches_golden(capsys, n):
    code = main(["classify", str(n), "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"classify_n{n}.json").read_text()


def test_catalog_decompositions_match_golden():
    lines = []
    for n in range(2, 9):
        for cls in classify_involutions(n):
            rec = {"n": n, "label": cls.label,
                   "decomposition": decompose(cls.representative, n).to_json()}
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
    assert "".join(lines) == (GOLDEN / "decompose.jsonl").read_text()


def _conjugate_checks():
    """One JSON line per conjugate: K words of length 8, O(M_n) words of 12."""
    rng = random.Random(8080)
    lines = []
    for n in range(3, 9):
        gens = {"K": canonical_generators(n), "O": wall_generators(n).isometries()}
        for cls in classify_involutions(n):
            for kind, length in (("K", 8), ("K", 8), ("O", 12), ("O", 12)):
                h = identity_isometry(cls.representative.lattice)
                for _ in range(length):
                    h = h @ rng.choice(gens[kind])
                g = h @ cls.representative @ h.inverse()
                rec = {"n": n, "label": cls.label, "kind": kind,
                       "matrix": [list(r) for r in g.matrix],
                       "verdict": check_reducible(g, n, height_bound=2).to_json()}
                lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)


def test_conjugate_verdicts_match_golden():
    assert _conjugate_checks() == (GOLDEN / "check_conjugates.jsonl").read_text()


STREAM_DIGESTS = [
    ("verify", 101, "fd4b6198454c868c"),
    ("decompose", 17, "0067af49f069fe44"),
]


def test_digest_table_holds_the_pinned_stream_digests():
    # tools/digests.py names these two streams verify_seed101_bound2 and
    # decompose_seed17; its checked-in table is read here, not recomputed
    table = json.loads((GOLDEN.parent.parent / "tools" / "digests.json").read_text())
    names = {"verify": "verify_seed{}_bound2", "decompose": "decompose_seed{}"}
    for stream, seed, want in STREAM_DIGESTS:
        assert table[names[stream].format(seed)] == want


@pytest.mark.parametrize("stream, seed, want", STREAM_DIGESTS)
def test_stream_digests(stream, seed, want):
    inputs = bench_inputs()
    outs = []
    if stream == "verify":
        for op in inputs.verify_stream(seed):
            g = Isometry(del_pezzo_lattice(op.n), op.matrix)
            outs.append(check_reducible(g, op.n, height_bound=2).to_json())
    else:
        for op in inputs.decompose_stream(seed):
            g = Isometry(del_pezzo_lattice(op.n), op.matrix)
            outs.append(decompose(g, op.n, height_bound=10).to_json())
    assert len(outs) == {"verify": 640, "decompose": 160}[stream]
    blob = json.dumps(outs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == want
