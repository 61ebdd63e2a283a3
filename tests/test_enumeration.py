"""Exact vector enumeration: completeness against brute-force boxes.

The slab tests use anchors of square m = 1 (no division after the
descent), anchors of square m >= 2 and anchors with g = gcd(G p) > 1, so
the coset step of the slab search (slab t empty unless g | t, complement
coordinates fixed mod m) is checked against a box that is complete for the
slabs, and against the majorant search on random forms of signature (1, k).
"""
import gc
import itertools
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delpezzo.enumeration as en
import delpezzo.exactlinalg as xl
from delpezzo.errors import InputError

from conftest import assert_slabs_ascend

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


def _gauss_jordan_inverse(gram):
    n = len(gram)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = [[Fraction(x) for x in row] for row in gram]
    for c in range(n):    # for a definite matrix every pivot is nonzero
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        inv[c] = [x / pivot for x in inv[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    return inv


def _complete_box_oracle(gram, max_norm):
    """{norm: set of vectors} for 0 < norm <= max_norm, by an exhaustive box.

    |x_i| <= sqrt(max_norm * (gram^-1)_ii) holds for every such vector, so
    the box (exact Fraction inverse) is complete.
    """
    n = len(gram)
    inv = _gauss_jordan_inverse(gram)
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
    assert any(en._scaled_cholesky(g)[2] > 1 for g in _random_forms())
    for gram in [_a(n) for n in range(1, 6)] + [D4] + _random_forms():
        oracle = _complete_box_oracle(gram, 8)
        neg = [[-x for x in row] for row in gram]
        for target in range(1, 9):
            expected = sorted(oracle.get(target, ()), key=_reversed_coords)
            assert en.definite_vectors(gram, target) == expected
            # a negative definite gram is searched as -gram at -target
            assert en.definite_vectors(neg, -target) == expected
            assert en.definite_vectors(neg, target) == []
    assert len(en.definite_vectors(_a(3), 2)) == 12  # A3 roots


def test_definite_vectors_lift_with_basis_rows():
    # with basis rows B the descent yields B x, in definite_vectors order
    rng = random.Random(1818)
    for gram in [_a(n) for n in range(1, 6)] + [D4] + _random_forms():
        n = len(gram)
        rows = [tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(n + rng.randrange(0, 3))]
        for g, target in ((gram, 4), ([[-x for x in row] for row in gram], -2)):
            want = [tuple(sum(a * b for a, b in zip(row, c)) for row in rows)
                    for c in en.definite_vectors(g, target)]
            assert en.definite_vectors(g, target, rows) == want


def _fraction_scaled_cholesky(gram):
    """Reference: the rational Cholesky data q_ij over Fraction, scaled by
    the lcm D of their denominators."""
    n = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            return None
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    scale = lcm(*(q[i][j].denominator for i in range(n) for j in range(i, n)))
    return ([int(q[i][i] * scale) for i in range(n)],
            [[int(q[i][j] * scale) if j > i else 0 for j in range(n)] for i in range(n)],
            scale)


def test_scaled_cholesky_matches_fraction_reference():
    rng = random.Random(909)
    forms = [_a(n) for n in range(1, 9)] + [D4, E8] + _random_forms()
    for _ in range(300):
        n = rng.randrange(1, 10)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(1, n + 3))]
        forms.append([[sum(r[i] * r[j] for r in a) + (i == j) * rng.randrange(0, 3)
                       for j in range(n)] for i in range(n)])
    definite = 0
    for gram in forms:
        want = _fraction_scaled_cholesky(gram)
        if want is None:
            with pytest.raises(InputError):
                en._scaled_cholesky(gram)
        else:
            assert en._scaled_cholesky(gram) == want
            definite += want[2] > 1
    assert definite > 100


def test_definite_vectors_rejects_indefinite_gram():
    # whatever the sign of the target against the first diagonal entry, and
    # on a degenerate Gram
    for gram, target in (([[1, 0], [0, -1]], 2), ([[-1, 0], [0, 1]], -2),
                         ([[-1, 0], [0, 1]], 2), ([[1, 0], [0, -1]], -2),
                         ([[0]], -1), ([[0]], 1)):
        with pytest.raises(InputError):
            en.definite_vectors(gram, target)


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
    got = {c for _, batch in en.anchored_norm_slices(en.AnchorFrame(gram, p), -1, 3)
           for c in batch}
    oracle = {c for c in _box_oracle(gram, -1, 12) if abs(c[0]) <= 3}
    assert got == oracle


def test_anchored_norm_slices_ordered_and_tagged():
    gram = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    p = [1, 0, 0]
    heights = []
    for t, batch in en.anchored_norm_slices(en.AnchorFrame(gram, p), -2, 4):
        heights.append(t)
        for c in batch:
            assert abs(c[0]) == t  # <p, c> = c0 for this anchor
            n = len(gram)
            assert sum(c[i] * gram[i][j] * c[j]
                       for i in range(n) for j in range(n)) == -2
    assert heights == [0, 1, 2, 3, 4]


def test_anchored_norm_slices_requires_positive_anchor():
    with pytest.raises(InputError):
        next(en.anchored_norm_slices(en.AnchorFrame([[1, 0], [0, -1]], [0, 1]), -1, 2))


def _majorant(gram, p):
    """(m, G p, m M) with m M = 2 (G p)(G p)^T - m G positive definite.

    For c = a p + v with v orthogonal to p, m M(c) = m (a^2 m - v^2), and
    v^2 <= 0 on a form of signature (1, k), so a vector of slab t and
    square target has m M(c) = 2 t^2 - m target exactly.
    """
    n = len(gram)
    gp = [sum(gram[i][j] * p[j] for j in range(n)) for i in range(n)]
    m = sum(a * b for a, b in zip(p, gp))
    return m, gp, [[2 * gp[i] * gp[j] - m * gram[i][j] for j in range(n)] for i in range(n)]


def _slab_box_bound(gram, p, targets, t_bound):
    """A coordinate bound B such that the box |c_i| <= B holds every c with
    c^2 in targets and |<p, c>| <= t_bound."""
    m, _, major = _majorant(gram, p)
    top = max(2 * t_bound * t_bound - m * target for target in targets)
    inv = _gauss_jordan_inverse(major)
    return max(isqrt(int(top * inv[i][i])) for i in range(len(gram)))


DIAG3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
U_2 = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]        # U + <-2>
SLAB_CASES = [   # (gram, anchor, m, gcd(G p))
    (DIAG3, [2, 1, 0], 3, 1),
    (DIAG3, [2, 0, 0], 4, 2),
    ([[2, 0, 0], [0, -2, 0], [0, 0, -2]], [1, 0, 0], 2, 2),
    (U_2, [1, 1, 0], 2, 1),
    (U_2, [1, 2, 0], 4, 1),
    ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], [3, 1, 1, 1], 6, 1),
    ([[2, 1, 0], [1, -2, 0], [0, 0, -6]], [1, 0, 0], 2, 1),
    ([[0, 2, 0], [2, 0, 0], [0, 0, -4]], [1, 1, 0], 4, 2),
    ([[4, 2], [2, -2]], [1, 0], 4, 2),
    (DIAG3, [1, 0, 0], 1, 1),       # m = 1: no division after the descent
]
SLAB_TARGETS = (1, 0, -1, -2)


@pytest.mark.parametrize("gram, p, m, g", SLAB_CASES)
def test_anchored_slabs_match_box_oracle_for_every_coset(gram, p, m, g):
    n = len(gram)
    frame = en.AnchorFrame(gram, p)
    assert (frame.m, frame.g) == (m, g)
    # the complement spans the lattice kernel([G p]) spans, in a basis of the
    # frame's own, and neg is its negated Gram
    comp = [list(b) for b in frame.cols]
    kern = xl.kernel([xl.mat_vec(gram, p)])
    assert len(comp) == len(kern) == n - 1
    assert all(xl.solve_integer(xl.transpose(comp), b) is not None for b in kern)
    assert all(xl.solve_integer(xl.transpose(kern), b) is not None for b in comp)
    gram_comp = xl.mat_mul(xl.mat_mul(comp, gram), xl.transpose(comp))
    assert frame.neg == [[-x for x in row] for row in gram_comp]
    bound = _slab_box_bound(gram, p, SLAB_TARGETS, 4)
    gp = [sum(gram[i][j] * p[j] for j in range(n)) for i in range(n)]
    for target in SLAB_TARGETS:
        oracle = {}
        for c in _box_oracle(gram, target, bound):
            t = abs(sum(a * b for a, b in zip(gp, c)))
            if t <= 4:
                oracle.setdefault(t, set()).add(c)
        slabs = list(en.anchored_norm_slices(en.AnchorFrame(gram, p), target, 4))
        assert [t for t, _ in slabs] == [0, 1, 2, 3, 4]
        for t, batch in slabs:
            assert batch == sorted(oracle.get(t, ()))
            if t % g:
                assert not batch


CHARACTERISTIC_CASES = [   # (gram, anchor): G p = diag G (mod 2)
    ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], [3, 1, 1, 1]),
    (DIAG3, [3, 1, 1]),
    ([[2, 0, 0], [0, -2, 0], [0, 0, -2]], [1, 0, 0]),   # even: every c^2 is even
]


@pytest.mark.parametrize("gram, p", CHARACTERISTIC_CASES)
def test_characteristic_anchor_skips_wrong_parity_slabs(monkeypatch, gram, p):
    # <p, c> = c^2 (mod 2), so a slab t of the other parity than the target
    # is empty, and it is answered without a descent
    n = len(gram)
    frame = en.AnchorFrame(gram, p)
    assert frame.characteristic
    assert not en.AnchorFrame(DIAG3, [1, 0, 0]).characteristic
    descents = []
    exact_norm = en._exact_norm

    def counted(*args):
        descents.append(args)
        return exact_norm(*args)

    monkeypatch.setattr(en, "_exact_norm", counted)
    bound = _slab_box_bound(gram, p, SLAB_TARGETS, 4)
    gp = [sum(gram[i][j] * p[j] for j in range(n)) for i in range(n)]
    for target in SLAB_TARGETS:
        oracle = {}
        for c in _box_oracle(gram, target, bound):
            oracle.setdefault(abs(sum(a * b for a, b in zip(gp, c))), set()).add(c)
        for t, batch in en.anchored_norm_slices(frame, target, 4):
            descents.clear()
            assert batch == sorted(oracle.get(t, ()))
            if (t - target) % 2:
                assert batch == [] and frame.slab(target, t) == [] and descents == []


def test_anchored_slabs_cover_cosets_with_nonzero_residues():
    # the coset step is exercised: some slab has a residue class other than
    # 0 mod m, and every case with g > 1 has a nonempty slab
    seen_residue = False
    for gram, p, m, g in SLAB_CASES:
        frame = en.AnchorFrame(gram, p)
        seen_residue |= any(frame.residues)
        if g > 1:
            assert any(batch for target in SLAB_TARGETS
                       for _, batch in en.anchored_norm_slices(frame, target, 4))
    assert seen_residue


def _lower_unitriangular(rows):
    """A lower unitriangular integer matrix from its strict lower entries."""
    n = len(rows) + 1
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        for j in range(i):
            a[i][j] = rows[i - 1][j]
    return a


@st.composite
def _hyperbolic_forms(draw):
    """(G, p): G = scale A^T D A of signature (1, k), k <= 6, with A lower
    unitriangular, and an anchor p = mult A^-1 y of positive square."""
    k = draw(st.integers(1, 6))
    n = k + 1
    diag = [draw(st.integers(1, 3))] + [-draw(st.integers(1, 3)) for _ in range(k)]
    a = _lower_unitriangular([draw(st.lists(st.integers(-1, 1), min_size=i, max_size=i))
                              for i in range(1, n)])
    scale = draw(st.sampled_from((1, 1, 2)))
    gram = [[scale * sum(a[r][i] * diag[r] * a[r][j] for r in range(n)) for j in range(n)]
            for i in range(n)]
    y = [0] + [draw(st.integers(-1, 1)) for _ in range(k)]
    need = sum(-diag[i] * y[i] * y[i] for i in range(1, n))
    y[0] = max(draw(st.integers(1, 2)), isqrt(need // diag[0]) + 1)
    # A p = y by forward substitution, which is integral for unitriangular A
    p = []
    for i in range(n):
        p.append(y[i] - sum(a[i][j] * p[j] for j in range(i)))
    mult = draw(st.sampled_from((1, 1, 2)))
    return gram, [mult * x for x in p]


@given(_hyperbolic_forms(), st.sampled_from(SLAB_TARGETS), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_anchored_slabs_match_majorant_search(form, target, t_bound):
    gram, p = form
    n = len(gram)
    assert xl.sylvester_signature(gram) == (1, n - 1, 0)
    m, gp, major = _majorant(gram, p)
    assert m > 0
    for t, batch in en.anchored_norm_slices(en.AnchorFrame(gram, p), target, t_bound):
        norm = 2 * t * t - m * target
        want = sorted(c for c in en.definite_vectors(major, norm)
                      if abs(sum(a * b for a, b in zip(gp, c))) == t
                      and sum(c[i] * gram[i][j] * c[j]
                              for i in range(n) for j in range(n)) == target)
        assert batch == want


@pytest.mark.parametrize("gram, p, m, g", SLAB_CASES)
def test_anchored_slabs_come_out_ascending(gram, p, m, g):
    assert_slabs_ascend(en.AnchorFrame(gram, p), SLAB_TARGETS, 4)


@given(_hyperbolic_forms())
@settings(max_examples=60, deadline=None)
def test_anchored_slabs_come_out_ascending_on_random_forms(form):
    gram, p = form
    assert_slabs_ascend(en.AnchorFrame(gram, p), SLAB_TARGETS, 3)
