"""Chamber normal form: verdicts and splittings do not depend on the basis.

O+(M_n), n <= 9, is the reflection group of a simplex with walls
H - E1 - E2 - E3 (H - E1 - E2 for n = 2), E_i - E_{i+1} and E_n.
Involutions are decided in their chamber conjugates, so conjugating one by
a word in the wall reflections must not change the outcome.
"""
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from delpezzo import (
    IRREDUCIBLE,
    InputError,
    UNKNOWN,
    UnsupportedError,
    check_reducible,
    classify_involutions,
    decompose,
    identity_isometry,
    normal_form,
)
from delpezzo import criteria
from delpezzo import weyl
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.irreducibility import _decompose_in_basis
from delpezzo.lattice import Isometry, Lattice, del_pezzo_lattice
from delpezzo.weyl import (canonical_class, chamber_conjugate, reduce_to_chamber,
                           reflection, wall_generators)

from conftest import bench_inputs


def _walls(n):
    """The simplex walls of O+(M_n), as coordinate tuples."""
    alpha0 = (1,) + (-1,) * min(n, 3) + (0,) * (n - min(n, 3))
    steps = [tuple(int(j == i) - int(j == i + 1) for j in range(n + 1))
             for i in range(1, n)]
    return [alpha0, *steps, tuple(int(j == n) for j in range(n + 1))]


def _q(u, v):
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def _word(n, rng, length=12):
    lat = del_pezzo_lattice(n)
    gens = wall_generators(n).isometries()
    h = identity_isometry(lat)
    for _ in range(length):
        h = h @ rng.choice(gens)
    return h


@pytest.mark.parametrize("n", range(2, 9))
def test_reduction_ends_in_the_chamber(n):
    rng = random.Random(600 + n)
    walls = wall_generators(n).isometries()
    for step in range(40):
        g = _word(n, rng)
        # chamber_conjugate skips the form check; the full check accepts it
        conj, _ = chamber_conjugate(g @ walls[step % len(walls)] @ g.inverse())
        assert conj == Isometry(conj.lattice, conj.matrix)
        assert conj.is_involution()
        x = [int(i == 0) + c for i, c in enumerate(g.apply(
            del_pezzo_lattice(n).basis_vector(0)).coords)]  # H + gH, x^2 > 0
        reduced, h = reduce_to_chamber(x)
        assert reduced == tuple(xl.mat_vec(h, x))
        assert _q(reduced, reduced) == _q(x, x)
        j = [[(1 if i == 0 else -1) * int(i == k) for k in range(n + 1)]
             for i in range(n + 1)]
        assert xl.mat_mul(xl.mat_mul(xl.transpose(h), j), h) == j
        assert all(_q(reduced, w) >= 0 for w in _walls(n))
        # each O+ orbit meets the closed chamber once
        other = g.apply(del_pezzo_lattice(n).vector(x)).coords
        assert reduce_to_chamber(other)[0] == reduced
        assert reduce_to_chamber(reduced)[0] == reduced


def _conjugate_by_products(g):
    """(h g h^-1, h^-1) for the h of reduce_to_chamber(H +- gH), formed with
    two xl.mat_mul products; h^-1 = J h^T J is checked against h."""
    mat = g.matrix
    size = len(mat)
    sign = 1 if mat[0][0] > 0 else -1
    _, h = reduce_to_chamber([int(i == 0) + sign * mat[i][0] for i in range(size)])
    j = [1] + [-1] * (size - 1)
    h_inv = [[j[r] * h[c][r] * j[c] for c in range(size)] for r in range(size)]
    assert xl.mat_mul(h_inv, h) == xl.identity(size)
    return xl.mat_mul(xl.mat_mul(h, mat), h_inv), h_inv


def _assert_conjugated_along_the_word(g):
    conj, h_inv = chamber_conjugate(g)
    want, want_inv = _conjugate_by_products(g)
    assert [list(r) for r in conj.matrix] == want
    assert [list(r) for r in h_inv] == want_inv
    return h_inv


def test_chamber_conjugate_matches_the_matrix_products_on_the_streams():
    # g' is carried along the wall word; the products h g h^-1 are the oracle
    inputs = bench_inputs()
    for seed in (101, 17):
        for op in inputs.verify_stream(seed) + inputs.decompose_stream(seed):
            _assert_conjugated_along_the_word(Isometry(del_pezzo_lattice(op.n), op.matrix))


@pytest.mark.parametrize("n", range(2, 10))
def test_chamber_conjugate_matches_the_matrix_products_on_wall_words(n):
    # conjugates of wall reflections, of their negatives and of the word
    # itself (no involution: the reduction runs on any isometry).  The words
    # alternate walls with reflections in H - E_i - E_j (- E_k), alpha0 up
    # to a permutation of the E_i, so they move H and their reduction takes
    # alpha0 steps, which leave h_00 > 1; n = 2 has step 2 and a two-root
    # alpha0
    rng = random.Random(2400 + n)
    lat = del_pezzo_lattice(n)
    walls = wall_generators(n).isometries()
    moved = 0
    for step in range(40):
        w = identity_isometry(lat)
        for _ in range(4):
            es = rng.sample(range(1, n + 1), min(n, 3))
            w = w @ reflection(lat.vector([1] + [-int(i in es) for i in range(1, n + 1)]))
            w = w @ rng.choice(walls)
        s = walls[step % len(walls)]
        for g in (w @ s @ w.inverse(), (w @ s @ w.inverse()).negated(), w):
            moved += _assert_conjugated_along_the_word(g)[0][0] > 1
    assert moved >= 20


@lru_cache(maxsize=None)
def _w_i(n, walls):
    """1 - 2 A (A^T J A)^-1 A^T J for the walls of I as the columns of A, in
    Fractions: -1 on span I and 1 on its orthogonal complement."""
    size = n + 1
    j = [1] + [-1] * n
    ja = [[j[r] * a[r] for r in range(size)] for a in walls]     # rows: (J a)^T
    k = len(walls)
    # (A^T J A)^-1 by Gauss-Jordan on [A^T J A | 1]
    m = [[Fraction(sum(x * y for x, y in zip(ja[p], walls[q]))) for q in range(k)]
         + [Fraction(int(p == q)) for q in range(k)] for p in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(k):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    inv = [row[k:] for row in m]
    w = [[Fraction(int(r == c)) - 2 * sum(walls[p][r] * inv[p][q] * ja[q][c]
                                         for p in range(k) for q in range(k))
          for c in range(size)] for r in range(size)]
    assert all(x.denominator == 1 for row in w for x in row)
    return [[int(x) for x in row] for row in w]


def _assert_normal_form(g):
    """h g h^-1 = s w_I as a matrix identity, with w_I built independently
    (_w_i), h an isometry of O+ with the inverse h^-1, I in wall order, and
    s the sign of g_00; returns (s, I)."""
    n = g.lattice.rank - 1
    s, walls, h, h_inv, w = normal_form(g)
    size = n + 1
    j = [1] + [-1] * n
    assert s == (1 if g.matrix[0][0] > 0 else -1)
    assert list(walls) == [a for a in _walls(n) if a in walls]
    # h^-1 = J h^T J is the inverse of h, so h^T J h = J; h_00 > 0 keeps the cone
    assert h_inv == tuple(tuple(j[r] * h[c][r] * j[c] for c in range(size))
                          for r in range(size))
    assert xl.mat_mul(h, h_inv) == xl.identity(size) and h[0][0] > 0
    assert [list(r) for r in w.matrix] == _w_i(n, walls)
    assert xl.mat_mul(xl.mat_mul(h, g.matrix), h_inv) == [[s * x for x in r]
                                                          for r in _w_i(n, walls)]
    return s, walls, h


def test_normal_form_is_s_w_i_on_the_streams():
    # every operation of verify seeds 101-103 and decompose seeds 101-110
    # (all with g_00 > 0), and its negation, which has s = -1 and the same
    # I and h
    inputs = bench_inputs()
    ops = [op for seed in (101, 102, 103) for op in inputs.verify_stream(seed)]
    ops += [op for seed in range(101, 111) for op in inputs.decompose_stream(seed)]
    for op in ops:
        g = Isometry(del_pezzo_lattice(op.n), op.matrix)
        s, walls, h = _assert_normal_form(g)
        assert s == 1 and _assert_normal_form(g.negated()) == (-1, walls, h)
    assert len(ops) == 3520


@pytest.mark.parametrize("n", range(2, 9))
def test_normal_form_of_the_reflections_in_e_n_and_e_1(n):
    lat = del_pezzo_lattice(n)
    e_n = tuple(int(i == n) for i in range(n + 1))
    for i in (n, 1):
        g = reflection(lat.vector(tuple(int(j == i) for j in range(n + 1))))
        assert _assert_normal_form(g)[:2] == (1, (e_n,))


def test_normal_form_rejects_a_non_involution():
    lat = del_pezzo_lattice(3)
    # order 3 fixing K, and order 4 moving it
    r = reflection(lat.vector((0, 1, -1, 0))) @ reflection(lat.vector((0, 0, 1, -1)))
    s = reflection(lat.vector((0, 1, 0, 0))) @ reflection(lat.vector((0, 1, -1, 0)))
    for bad in (r, s, s.negated()):
        with pytest.raises(InputError, match="^not an involution$"):
            normal_form(bad)


def test_normal_form_gives_up_when_every_draw_lands_on_a_wall(monkeypatch):
    # with every draw 0, v is a multiple of the reduced x', which for these
    # inputs lies on more walls than the rank of L-: 2H for the identity
    # and for the reflection in E_1, whose chamber x' is fixed by every E_i
    # and E_i - E_{i+1}
    monkeypatch.setattr(weyl, "_draws", lambda size: ((0,) * size,) * weyl.NORMAL_FORM_DRAWS)
    lat = del_pezzo_lattice(4)
    for g in (identity_isometry(lat), reflection(lat.vector((0, 1, 0, 0, 0)))):
        with pytest.raises(UnsupportedError, match="no generic draw"):
            normal_form(g)
    # check_reducible then decides the chamber conjugate, as it did before
    # the normal form: the verdict is still the representative's
    rng = random.Random(6063)
    moved = 0
    for n, cls, g in _conjugates(rng):
        conj, _ = chamber_conjugate(g)
        k = canonical_class(n)
        if conj.apply(k) != k and g.matrix[0][0] > 0:
            moved += 1
            verdict = check_reducible(g, n, height_bound=2)
            assert verdict.status == check_reducible(cls.representative, n, 2).status
            assert verdict.certificate.verify(g)
    assert moved > 0


def test_reduction_rejects_vectors_outside_the_positive_cone():
    for x in ((-1, 0, 0), (1, 1, 0), (0, 0, 0, 0), (2, 1, 1, 1, 1)):
        with pytest.raises(InputError):
            reduce_to_chamber(x)


def _conjugates(rng, per_class=2, negated=False):
    """(n, class, conjugate of its representative g, or of -g when negated)."""
    for n in range(3, 9):
        for cls in classify_involutions(n):
            g = cls.representative.negated() if negated else cls.representative
            for _ in range(per_class):
                h = _word(n, rng)
                yield n, cls, h @ g @ h.inverse()


def test_verdicts_and_witnesses_are_basis_independent():
    rng = random.Random(6061)
    base = {}
    for n, cls, g in _conjugates(rng):
        if (n, cls.label) not in base:
            base[n, cls.label] = check_reducible(cls.representative, n, height_bound=2).status
        verdict = check_reducible(g, n, height_bound=2)
        assert verdict.status == base[n, cls.label] != UNKNOWN
        # witnesses are vectors of the input g, not of its chamber conjugate
        assert verdict.certificate.verify(g)


def test_decompositions_are_basis_independent():
    """Conjugates of g and of -g end in leaves of the rank of g's and -g's.

    The -g conjugates guard against anchoring every side with a chamber
    vertex and keeping that anchor through the splits.  The t = 0 slab is
    searched first, so the anchor survives into the leaf, and an anchor of
    square 2 cannot lie in a point leaf: conjugates of -m1 and -m2 at
    n = 5..8 would end in a rank-2 quadric leaf, not a point.
    """
    rng = random.Random(6062)
    rank = {}
    cases = [(False, c) for c in _conjugates(rng, per_class=1)]
    cases += [(True, c) for c in _conjugates(rng, per_class=3, negated=True)]
    for negated, (n, cls, g) in cases:
        if (negated, n, cls.label) not in rank:
            rep = cls.representative.negated() if negated else cls.representative
            rank[negated, n, cls.label] = len(decompose(rep, n).leaf.basis)
        d = decompose(g, n)
        assert d.leaf.verdict != UNKNOWN
        assert len(d.leaf.basis) == rank[negated, n, cls.label]
        lat = g.lattice
        for step in d.steps:
            vs = [lat.vector(b) for b in step.basis]
            images = [g.apply(v) for v in vs]
            want = {"fix": vs, "negate": [-v for v in vs], "swap": vs[::-1]}[step.action]
            assert images == want


def _partner_oracle(gram, c1):
    """An explicit partner of c1 from an HNF solution of v.y = 1, or None.

    The y with v.y = 1 are y0 + ker v; y^2 mod 2 is affine on that coset, so
    a y of even square exists iff y0 has one or some kernel vector is odd.
    """
    v = xl.mat_vec(gram, c1)
    y0 = xl.solve_integer([v], [1])
    if y0 is None:
        return None

    def sq(y):
        return sum(a * b for a, b in zip(y, xl.mat_vec(gram, y)))

    y = y0
    if sq(y) % 2:
        odd = [k for k in xl.kernel([v]) if sq(k) % 2]
        if not odd:
            return None
        y = [a + b for a, b in zip(y0, odd[0])]
    return [a - sq(y) // 2 * b for a, b in zip(y, c1)]


def test_partner_test_matches_hnf_oracle_on_catalog_plus_sides():
    checked = 0
    for n in (6, 7, 8):
        for cls in classify_involutions(n):
            plus = criteria.eigen_data(cls.representative).plus
            if plus.definite or criteria._anchor(plus) is None:
                continue
            gram = [list(r) for r in plus.gram]
            # the side-coordinate slicer: the partner test reads G c1
            frame = en.AnchorFrame(gram, criteria._anchor(plus))
            for _, batch in en.anchored_norm_slices(frame, 0, 3):
                for c1 in batch:
                    partner = _partner_oracle(gram, list(c1))
                    assert criteria.has_partner(gram, c1) == (partner is not None)
                    if partner is not None:
                        pv = xl.mat_vec(gram, partner)
                        assert sum(a * b for a, b in zip(partner, pv)) == 0
                        assert sum(a * b for a, b in zip(c1, pv)) == 1
                    checked += 1
    assert checked > 1000


def test_partner_test_hand_cases():
    # U + <-1>: (1, 0, 0) pairs with (0, 1, 0); (2, 0, 0) has gcd(v) = 2
    u1 = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -1)), ("e", "f", "z"))
    assert criteria.has_partner(u1.gram, (1, 0, 0))
    assert not criteria.has_partner(u1.gram, (2, 0, 0))
    # <1> + <-1>: H + E1 is primitive but characteristic, v = diag mod 2
    assert not criteria.has_partner(del_pezzo_lattice(1).gram, (1, 1))
    for c1 in ((1, 0, 0), (2, 0, 0)):
        assert criteria.has_partner(u1.gram, c1) == (
            _partner_oracle([list(r) for r in u1.gram], list(c1)) is not None)


# seed 17, op 50 of the decompose benchmark stream: an n = 7 m4a K-conjugate
SEED17_OP50 = (
    (5, 3, 2, 2, 2, 1, 1, 1), (-3, -2, -1, -1, -1, -1, -1, -1),
    (-2, -1, -1, -1, -1, -1, 0, 0), (-2, -1, -1, -1, -1, 0, -1, 0),
    (-2, -1, -1, -1, -1, 0, 0, -1), (-1, -1, -1, 0, 0, 0, 0, 0),
    (-1, -1, 0, -1, 0, 0, 0, 0), (-1, -1, 0, 0, -1, 0, 0, 0),
)


def test_seed17_op50_leaf_is_not_called_irreducible_early():
    g = Isometry(del_pezzo_lattice(7), SEED17_OP50)
    d = decompose(g, 7)
    assert [s.action for s in d.steps] == ["swap"] * 3
    assert len(d.leaf.basis) == 2 and d.leaf.verdict == IRREDUCIBLE
    # as written, every plus side is even and indefinite; route d's pairs
    # leave pieces whose plus sides have an anchor, so the unreduced
    # splitting reaches the same rank-2 leaf.  On M_7 g fixes K, which
    # anchors it; the same form under other labels is not M_7, so there the
    # splitting takes box anchors
    plain = Lattice(g.lattice.gram, tuple(f"b{i}" for i in range(8)))
    raw = _decompose_in_basis(Isometry(plain, SEED17_OP50), criteria.DEFAULT_HEIGHT_BOUND)
    assert [s.action for s in raw.steps] == ["swap"] * 3
    assert len(raw.leaf.basis) == 2 and raw.leaf.verdict == IRREDUCIBLE


def test_check_reducible_and_decompose_agree():
    # one search engine: an Irreducible verdict leaves decompose nothing to
    # split, and a split is a witness that the involution is reducible
    rng = random.Random(6063)
    reps = [(n, cls, cls.representative) for n in range(3, 9) for cls in classify_involutions(n)]
    irreducible = split = 0
    for n, cls, g in [*reps, *_conjugates(rng, per_class=1)]:
        verdict = check_reducible(g, n).status
        d = decompose(g, n)
        if verdict == IRREDUCIBLE:
            assert not d.steps
            assert d.leaf.verdict == IRREDUCIBLE and len(d.leaf.basis) == n + 1
            irreducible += 1
        if d.steps:
            assert verdict != IRREDUCIBLE
            split += 1
    assert irreducible == 8 and split == 56
