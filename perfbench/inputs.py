"""Seeded benchmark inputs: conjugates of the pinned catalog representatives.

Everything here uses plain integer arithmetic and the pinned catalog in
catalog.json, so the generated matrices depend only on the seed and this
file, never on the program under test.
"""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

Matrix = Tuple[Tuple[int, ...], ...]

CATALOG: List[dict] = json.loads(
    (Path(__file__).with_name("catalog.json")).read_text())["classes"]

# expected verdict of every conjugacy class, keyed by (n, label)
PINNED_VERDICT: Dict[Tuple[int, str], str] = {
    (c["n"], c["label"]): c["verdict"] for c in CATALOG}

# the representative's decomposition at the seed commit, keyed by (n, label):
# how many blocks of each action it split off, and the rank of its leaf
PINNED_SPLIT: Dict[Tuple[int, str], Tuple[Dict[str, int], int]] = {
    (c["n"], c["label"]): (c["split"], c["leaf_rank"]) for c in CATALOG}

# class counts per n (1, 3, 2, 5, 4, 9, 9 for n = 2..8)
PINNED_COUNTS: Dict[int, int] = Counter(c["n"] for c in CATALOG)

# word lengths of the conjugating elements: K-stabilizer words as in the
# acceptance suite, O(M_n) words as in the measured defect (ROADMAP item 4)
K_WORD = 8
O_WORD = 12
VERIFY_ROUNDS = 10     # 10 x 32 classes x {K, O} = 640 checks
DECOMPOSE_ROUNDS = 2   # 32 representatives + 2 x 32 classes x {K, O} = 160 calls


class Op(NamedTuple):
    n: int
    label: str
    kind: str       # "rep" (catalog matrix), "K" or "O" (conjugate by a word)
    matrix: Matrix


def _vec(n: int, h: int, es: Dict[int, int]) -> Tuple[int, ...]:
    v = [h] + [0] * n
    for i, c in es.items():
        v[i] = c
    return tuple(v)


def _k_generators(n: int) -> List[Tuple[int, ...]]:
    """Simple roots H-E1-E2-E3, E_i-E_{i+1}: reflections fixing K."""
    return ([_vec(n, 1, {1: -1, 2: -1, 3: -1})]
            + [_vec(n, 0, {i: 1, i + 1: -1}) for i in range(1, n)])


def _o_generators(n: int) -> List[Tuple[int, ...]]:
    """Walls H+E1+E2+E3, E_i-E_{i+1}, E_n: reflections generating O(M_n)."""
    return ([_vec(n, 1, {1: 1, 2: 1, 3: 1})]
            + [_vec(n, 0, {i: 1, i + 1: -1}) for i in range(1, n)]
            + [_vec(n, 0, {n: 1})])


def _reflect(m: Matrix, v: Tuple[int, ...]) -> Matrix:
    """r m r for the reflection r(w) = w - 2 Q(v, w) / Q(v, v) v, Q = diag(1, -1, ...).

    r = I - v u^T with u = 2 D v / Q(v, v), which is integral because every
    generator has Q(v, v) = -1 or -2.
    """
    d = [1] + [-1] * (len(v) - 1)
    nv = sum(di * x * x for di, x in zip(d, v))
    u = [2 * di * x // nv for di, x in zip(d, v)]
    cols = range(len(v))
    s = [sum(u[i] * m[i][j] for i in cols) for j in cols]
    rm = [[m[i][j] - v[i] * s[j] for j in cols] for i in cols]
    t = [sum(row[j] * v[j] for j in cols) for row in rm]
    return tuple(tuple(rm[i][j] - t[i] * u[j] for j in cols) for i in cols)


def _conjugate(m: Matrix, word: List[Tuple[int, ...]]) -> Matrix:
    """h m h^-1 for h the product of the reflections in word (left to right)."""
    for v in reversed(word):
        m = _reflect(m, v)
    return m


def _conjugate_op(rng: random.Random, cls: dict, kind: str) -> Op:
    n = cls["n"]
    gens, length = (_k_generators(n), K_WORD) if kind == "K" else (_o_generators(n), O_WORD)
    word = [rng.choice(gens) for _ in range(length)]
    m = tuple(tuple(r) for r in cls["matrix"])
    return Op(n, cls["label"], kind, _conjugate(m, word))


def _reps() -> List[dict]:
    return [c for c in CATALOG if c["n"] >= 3]


def verify_stream(seed: int) -> List[Op]:
    """VERIFY_ROUNDS x (32 classes x {K, O}) conjugates, interleaved by class."""
    rng = random.Random(f"verify/{seed}")
    return [_conjugate_op(rng, cls, kind)
            for _ in range(VERIFY_ROUNDS) for cls in _reps() for kind in ("K", "O")]


def decompose_stream(seed: int) -> List[Op]:
    """The 32 catalog representatives, then DECOMPOSE_ROUNDS K- and O(M_n)-conjugates of each."""
    rng = random.Random(f"decompose/{seed}")
    ops = [Op(c["n"], c["label"], "rep", tuple(tuple(r) for r in c["matrix"]))
           for c in _reps()]
    ops += [_conjugate_op(rng, cls, kind)
            for _ in range(DECOMPOSE_ROUNDS) for kind in ("K", "O") for cls in _reps()]
    return ops


def digest(payload) -> str:
    """Short sha256 of the canonical JSON form of the inputs."""
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
