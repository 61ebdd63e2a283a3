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
"""
import json
from pathlib import Path

import pytest

from delpezzo.cli import EXIT_OK, main
from delpezzo.involutions import classify_involutions
from delpezzo.irreducibility import decompose

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
