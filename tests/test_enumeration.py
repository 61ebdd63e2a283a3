"""Exact vector enumeration: completeness against brute-force boxes."""
import gc
import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

import delpezzo.enumeration as en
from delpezzo.errors import InputError

E8 = [[2, 0, -1, 0, 0, 0, 0, 0],      # Bourbaki labelling, node 4 trivalent
      [0, 2, 0, -1, 0, 0, 0, 0],
      [-1, 0, 2, -1, 0, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0],
      [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, -1],
      [0, 0, 0, 0, 0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _box_oracle(gram, target, bound):
    n = len(gram)
    out = set()
    for c in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(c):
            continue
        val = sum(c[i] * gram[i][j] * c[j] for i in range(n) for j in range(n))
        if val == target:
            out.add(c)
    return out


def _a(n):
    return [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]


def _random_forms():
    """A^T A + I of rank 1..7, seeded; some have Cholesky denominators > 1."""
    rng = random.Random(707)
    forms = []
    for n in range(1, 8):
        for _ in range(3):
            a = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)]
                 for _ in range(rng.randrange(1, n + 1))]
            forms.append([[sum(r[i] * r[j] for r in a) + (i == j) for j in range(n)]
                          for i in range(n)])
    return forms


def _complete_box_oracle(gram, max_norm):
    """{norm: set of vectors} for 0 < norm <= max_norm, by an exhaustive box.

    |x_i| <= sqrt(max_norm * (gram^-1)_ii) holds for every such vector, so
    the box (exact Fraction inverse) is complete.
    """
    n = len(gram)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = [[Fraction(x) for x in row] for row in gram]
    for c in range(n):    # Gauss-Jordan; a definite matrix has nonzero pivots
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        inv[c] = [x / pivot for x in inv[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    bounds = [isqrt(int(max_norm * inv[i][i])) for i in range(n)]
    out = {}
    for c in itertools.product(*(range(-b, b + 1) for b in bounds)):
        val = sum(c[i] * gram[i][j] * c[j] for i in range(n) for j in range(n)
                  if c[i] and c[j])
        if 0 < val <= max_norm:
            out.setdefault(val, set()).add(c)
    return out


def _reversed_coords(c):
    return c[::-1]


def test_definite_vectors_matches_box_oracle():
    # the complete solution set, sorted by reversed coordinates
    assert any(q.denominator > 1 for g in _random_forms()
               for row in en._cholesky(g) for q in row)
    for gram in [_a(n) for n in range(1, 6)] + [D4] + _random_forms():
        oracle = _complete_box_oracle(gram, 8)
        for target in range(1, 9):
            expected = sorted(oracle.get(target, ()), key=_reversed_coords)
            assert en.definite_vectors(gram, target) == expected
    assert len(en.definite_vectors(_a(3), 2)) == 12  # A3 roots


def test_definite_vectors_by_norm_groups_consistently():
    gram = [[1, 0], [0, 3]]
    table = en.definite_vectors_by_norm(gram, 9)
    for norm, vecs in table.items():
        assert 0 < norm <= 9
        for v in vecs:
            assert sum(v[i] * gram[i][j] * v[j]
                       for i in range(2) for j in range(2)) == norm
    flat = [v for vecs in table.values() for v in vecs]
    assert len(flat) == len(set(flat))
    oracle = set()
    for t in range(1, 10):
        oracle |= _box_oracle(gram, t, 3)
    assert set(flat) == oracle
    # each group is exactly definite_vectors at that norm, order included
    for gram in [_a(4), D4, E8] + _random_forms()[::4]:
        table = en.definite_vectors_by_norm(gram, 6)
        assert set(table) == {t for t in range(1, 7) if en.definite_vectors(gram, t)}
        for norm, vecs in table.items():
            assert vecs == en.definite_vectors(gram, norm)


def test_definite_vectors_rejects_indefinite_gram():
    with pytest.raises(InputError):
        en.definite_vectors([[1, 0], [0, -1]], 2)


def test_definite_vectors_e8_against_theta_series():
    # a box complete up to norm 8 has 31^8 points in any basis, so the
    # oracle is the theta series of E8: 240 sigma_3(m) vectors of norm 2m
    counts = {2: 240, 4: 2160, 6: 6720, 8: 17520}
    for target in range(1, 9):
        found = en.definite_vectors(E8, target)
        assert len(found) == counts.get(target, 0)
        assert len(set(found)) == len(found)
        assert found == sorted(found, key=_reversed_coords)
        for c in found:
            assert sum(ci * sum(e * cj for e, cj in zip(row, c))
                       for ci, row in zip(c, E8)) == target


def test_definite_vectors_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        en.definite_vectors(E8, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_anchored_norm_slices_complete_within_slab():
    # signature (1,1): diag(1, -1), anchor (1, 0)
    gram = [[1, 0], [0, -1]]
    p = [1, 0]
    got = {c for _, batch in en.anchored_norm_slices(gram, p, -1, 3) for c in batch}
    oracle = {c for c in _box_oracle(gram, -1, 12) if abs(c[0]) <= 3}
    assert got == oracle


def test_anchored_norm_slices_ordered_and_tagged():
    gram = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    p = [1, 0, 0]
    heights = []
    for t, batch in en.anchored_norm_slices(gram, p, -2, 4):
        heights.append(t)
        for c in batch:
            assert abs(c[0]) == t  # <p, c> = c0 for this anchor
            n = len(gram)
            assert sum(c[i] * gram[i][j] * c[j]
                       for i in range(n) for j in range(n)) == -2
    assert heights == [0, 1, 2, 3, 4]


def test_anchored_norm_slices_requires_positive_anchor():
    with pytest.raises(InputError):
        next(en.anchored_norm_slices([[1, 0], [0, -1]], [0, 1], -1, 2))
