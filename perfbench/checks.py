"""Correctness gate: every program output is checked against the pinned table.

A check returns a list of error strings; an empty list means the output is
correct.  The arithmetic here is independent of delpezzo, except that
certificates are re-verified through the library's own verify().
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from inputs import PINNED_COUNTS, PINNED_SPLIT, PINNED_VERDICT

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"
UNKNOWN = "Unknown"


def _q(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def _apply(m, v: Sequence[int]) -> List[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _det(rows: Sequence[Sequence[int]]) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        p = next((r for r in range(c, size) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def classify_output(n: int, stdout: str) -> List[str]:
    """`dpz classify n --format json`: class count and decided verdict per label."""
    rows = json.loads(stdout)["classes"]
    errors = []
    if len(rows) != PINNED_COUNTS[n]:
        errors.append(f"n={n}: {len(rows)} classes, pinned {PINNED_COUNTS[n]}")
    for row in rows:
        want = PINNED_VERDICT.get((n, row["label"]))
        if row["verdict"] not in (want, UNKNOWN):
            errors.append(f"n={n} {row['label']}: verdict {row['verdict']}, pinned {want}")
    return errors


def certificate(verdict_json: dict, g, expected: str, where: str) -> List[str]:
    """A decided verdict must match the pinned one and its certificate verify."""
    from delpezzo import ReducibilityCertificate

    status = verdict_json["status"]
    if status == UNKNOWN:
        return []
    if status != expected:
        return [f"{where}: verdict {status}, pinned {expected}"]
    blob = json.loads(json.dumps(verdict_json))["certificate"]
    if blob is None or not ReducibilityCertificate.from_json(blob).verify(g):
        return [f"{where}: certificate does not verify"]
    return []


def decomposition(n: int, matrix, tree: dict, expected: str, where: str) -> List[str]:
    """Steps and leaf form an orthogonal unimodular splitting respected by g."""
    errors = []
    blocks = [s["basis"] for s in tree["steps"]] + [tree["leaf"]["basis"]]
    vectors = [v for block in blocks for v in block]
    if len(vectors) != n + 1 or abs(_det(vectors)) != 1:
        errors.append(f"{where}: blocks do not form a unimodular basis")
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            if any(_q(u, v) for u in a for v in b):
                errors.append(f"{where}: blocks are not orthogonal")
    for step in tree["steps"]:
        vs = step["basis"]
        images = [_apply(matrix, v) for v in vs]
        if any(_q(v, v) != -1 for v in vs):
            errors.append(f"{where}: step block is not of square -1")
        action = step["action"]
        if action == "fix":
            ok = len(vs) == 1 and images[0] == vs[0]
        elif action == "negate":
            ok = len(vs) == 1 and images[0] == [-x for x in vs[0]]
        elif action == "swap":
            ok = (len(vs) == 2 and _q(vs[0], vs[1]) == 0
                  and images[0] == vs[1] and images[1] == vs[0])
        else:
            ok = False
        if not ok:
            errors.append(f"{where}: step {action} does not match g")
    leaf = tree["leaf"]
    basis, sub = leaf["basis"], leaf["matrix"]
    for j, v in enumerate(basis):
        combo = [sum(sub[i][j] * basis[i][k] for i in range(len(basis)))
                 for k in range(n + 1)]
        if _apply(matrix, v) != combo:
            errors.append(f"{where}: leaf matrix does not match g")
            break
    # a split step is a witness of reducibility
    if expected == IRREDUCIBLE and tree["steps"]:
        errors.append(f"{where}: split steps for a class pinned {IRREDUCIBLE}")
    return errors


def split_shortfall(n: int, label: str, tree: dict) -> Optional[str]:
    """Why a decomposition with a decided leaf stopped short of the pinned one.

    Conjugating g carries every split of g to a split of the conjugate, so a
    leaf called Irreducible must be no larger than the leaf of the pinned
    representative's decomposition; for a class pinned Reducible that leaf
    is smaller than the whole lattice.  None when the leaf is Unknown or
    not larger than pinned.
    """
    leaf = tree["leaf"]
    _split, pinned_rank = PINNED_SPLIT[n, label]
    rank = len(leaf["basis"])
    if leaf["verdict"] == UNKNOWN or rank <= pinned_rank:
        return None
    if not tree["steps"] and PINNED_VERDICT[n, label] == REDUCIBLE:
        return f"no split and leaf called {leaf['verdict']}, class pinned {REDUCIBLE}"
    return (f"leaf of rank {rank} called {leaf['verdict']}, pinned decomposition "
            f"leaves rank {pinned_rank}")


def split_counts(tree: dict) -> Dict[str, int]:
    """Blocks of each action in a decomposition, in catalog.json's form."""
    return {a: sum(s["action"] == a for s in tree["steps"]) for a in ("fix", "swap", "negate")}
