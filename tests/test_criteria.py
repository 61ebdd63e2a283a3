"""The integer-tuple scans of routes b and d against their reference forms.

_search_batches yields ambient int tuples; route_b pairs them and builds
lattice vectors only for its witnesses; congruent_roots reduces each root
against one F2 echelon of the other side.  Here the batches are held
against the side-coordinate enumeration lifted vector by vector, route_b
against the scan it replaced, on sorted (LatticeVector, coords) pairs of
partner-tested side coordinates with one matrix product per c1, and
congruent_roots against one xl.f2_solvable call per root.
"""
import itertools
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import classify_involutions, criteria, decompose
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.errors import InputError
from delpezzo.lattice import Sublattice, has_even_products, identity_isometry
from delpezzo.weyl import canonical_class, chamber_conjugate, wall_generators


def _reference_partner(gram, c1):
    v = xl.mat_vec(gram, c1)
    return (math.gcd(*v) == 1
            and any((x - gram[i][i]) % 2 for i, x in enumerate(v)))


def _side_batches(side, target, t_bound):
    """The batches of _search_batches in side coordinates, as the search
    enumerated them before it lifted."""
    gram = [list(r) for r in side.gram]
    if side.definite:
        if gram[0][0] > 0:
            yield en.definite_vectors(gram, target)
        else:
            yield en.definite_vectors([[-x for x in r] for r in gram], -target)
        return
    if side.anchor is None:
        return
    frame = en.AnchorFrame(gram, side.anchor)
    for _, batch in en.anchored_norm_slices(frame, target, t_bound):
        yield batch


def _reference_route_b(data, t_bound):
    """The pair scan on lattice vectors, as route_b ran it before."""
    if data.plus.sub.rank < 2:
        return criteria.RouteResult(criteria.CLOSED, "plus_rank_below_2")
    if has_even_products(data.plus.gram):
        return criteria.RouteResult(criteria.CLOSED, "plus_even_products")
    if data.plus.definite:
        return criteria.RouteResult(criteria.CLOSED, "plus_definite_no_isotropic")
    gram = data.plus.gram
    seen = []
    for coords in _side_batches(data.plus, 0, t_bound):
        for c in coords:
            assert criteria.has_partner(gram, c) == _reference_partner(gram, c)
        batch = sorted((data.plus.sub.from_coords(c), c)
                       for c in coords if _reference_partner(gram, c))
        pool = sorted(seen + batch)
        for c1, x in batch:
            v = xl.mat_vec(gram, x)
            for c2, y in pool:
                if sum(a * b for a, b in zip(v, y)) == 1:
                    return criteria.RouteResult(criteria.WITNESS, "fixed_hyperbolic_pair",
                                                tuple(sorted((c1, c2))))
        seen = pool
    return criteria.RouteResult(criteria.OPEN, f"searched(t<={t_bound})")


def _eigen_data():
    """Eigen data of the catalog representatives, n = 3..8, then of 40
    chamber conjugates of wall-word conjugates, as check_reducible sees them."""
    reps = [(n, cls.representative) for n in range(3, 9) for cls in classify_involutions(n)]
    out = [criteria.eigen_data(g, canonical_class(n)) for n, g in reps]
    rng = random.Random(8081)
    for _ in range(40):
        n, g = rng.choice(reps)
        h = identity_isometry(g.lattice)
        for _ in range(12):
            h = h @ rng.choice(wall_generators(n).isometries())
        conj = h @ g @ h.inverse()
        if conj.apply(canonical_class(n)) != canonical_class(n):
            conj, _ = chamber_conjugate(conj)
        out.append(criteria.eigen_data(conj, canonical_class(n)))
    return out


@pytest.fixture(scope="module")
def eigen_data():
    return _eigen_data()


@pytest.mark.parametrize("bound", (2, 4))
def test_route_b_matches_reference_scan(eigen_data, bound):
    # the reference has no mod-4 closure: where it ends open, route_b may
    # close on L/2L before the scan; everywhere else the two agree
    witnesses = mod4 = 0
    closed = criteria.RouteResult(criteria.CLOSED, "plus_no_partner_mod4")
    for data in eigen_data:
        got = criteria.route_b(data, bound)
        want = _reference_route_b(data, bound)
        if want.status == criteria.OPEN and got != want:
            assert got == closed
            mod4 += 1
        else:
            assert got == want
        witnesses += got.status == criteria.WITNESS
    assert witnesses > 20 and mod4 > 10


@st.composite
def _hyperbolic_forms(draw):
    """(sign, g): g is a nondegenerate form of rank 2..7 and signature
    (1, rank - 1), small entries around a diagonal with one positive entry
    first; the form under test is sign * g."""
    r = draw(st.integers(2, 7))
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = draw(st.integers(1, 4) if i == 0 else st.integers(-6, -1))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.sampled_from((-2, -1, 0, 0, 0, 1, 2)))
    pos, _, zero = xl.sylvester_signature(g)
    assume(pos == 1 and not zero)
    return draw(st.sampled_from((1, -1))), g


@given(_hyperbolic_forms())
@settings(max_examples=150, deadline=None)
def test_mod4_closures_find_nothing_a_slab_search_finds(form):
    # where a mod-4 walk rules a vector out, the slabs |<p, c>| <= 6 against
    # an anchor p of g (the form's sign flips the target) hold none: no
    # hyperbolic pair for route b, no vector of square +-1 for routes a, c, e
    sign, g = form
    gram = [[sign * x for x in row] for row in g]
    frame = en.AnchorFrame(g, criteria._find_anchor(g, None))

    def slab_vectors(target):
        return [c for _, batch in en.anchored_norm_slices(frame, sign * target, 6)
                for c in batch]

    if not criteria._mod4_allows_partner(gram):
        isotropic = slab_vectors(0)
        for c1 in isotropic:
            v = xl.mat_vec(gram, c1)
            assert all(sum(map(operator.mul, v, c2)) != 1 for c2 in isotropic)
    for target in (1, -1):
        if not criteria._mod4_allows_square(gram, target):
            assert not slab_vectors(target)


def _block_sum(a, b):
    return ([list(row) + [0] * len(b) for row in a]
            + [[0] * len(a) + list(row) for row in b])


@given(st.integers(0, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mod4_walk_allows_what_a_summand_holds(rank, rnd):
    # U + N holds a hyperbolic pair, <+-1> + N a vector of square +-1, in any
    # basis: the walk must let the search run on each
    n = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1):
            n[i][j] = n[j][i] = rnd.randint(-3, 3)

    def rebased(gram):
        # A^T G A for a product A of elementary column operations
        a = [[int(i == j) for j in range(len(gram))] for i in range(len(gram))]
        for _ in range(6 if len(gram) > 1 else 0):
            i, j = rnd.sample(range(len(gram)), 2)
            f = rnd.choice((-2, -1, 1, 2))
            for row in a:
                row[j] += f * row[i]
        ga = xl.mat_mul(gram, a)
        return [[sum(a[k][i] * ga[k][j] for k in range(len(a))) for j in range(len(a))]
                for i in range(len(a))]

    assert criteria._mod4_allows_partner(rebased(_block_sum([[0, 1], [1, 0]], n)))
    for unit in (1, -1):
        assert criteria._mod4_allows_square(rebased(_block_sum([[unit]], n)), unit)


@pytest.mark.parametrize("target", (1, 0, -1, -2))
def test_search_batches_lift_the_side_coordinate_enumeration(eigen_data, target):
    batches = {"definite": 0, "slab": 0}
    for data in eigen_data:
        for side in (data.plus, data.minus):
            if side.sub.rank == 0:
                continue
            want = [[side.sub.lift(c) for c in batch]
                    for batch in _side_batches(side, target, 2)]
            got = list(criteria._search_batches(side, target, 2))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if side.definite:
                    assert g == w     # definite_vectors order, lifted
                else:
                    assert g == sorted(set(w)) and len(w) == len(set(w))
                batches["definite" if side.definite else "slab"] += 1
    assert batches["definite"] > 50 and batches["slab"] > 50


def test_anchor_frame_is_built_once_per_side(monkeypatch):
    # every route on a side reads one AnchorFrame, built at its first slab
    built = []

    class Counting(en.AnchorFrame):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(en, "AnchorFrame", Counting)
    frames = 0
    for n in range(3, 9):
        for cls in classify_involutions(n):
            data = criteria.eigen_data(cls.representative, canonical_class(n))
            before = len(built)
            for _ in range(2):
                for _name, _res in criteria.iter_routes(data, n, 4):
                    pass
            sides = [s for s in (data.plus, data.minus) if s.frame is not None]
            assert len(built) - before == len(sides)
            for side in sides:
                assert not side.definite and side.anchor is not None
                gp = xl.mat_vec(side.gram, side.anchor)
                assert side.frame.m == sum(map(operator.mul, side.anchor, gp))
                assert side.frame.g == math.gcd(*gp)
            frames += len(sides)
    assert frames > 10


def test_side_rejects_an_unsaturated_sublattice(eigen_data):
    sub = eigen_data[0].plus.sub
    assert criteria._side(sub).gram == sub.gram()
    with pytest.raises(InputError):
        criteria._side(Sublattice(sub.ambient, sub.basis))
    # twice the basis spans a sublattice of index 2^rank, so it must not pass
    doubled = tuple(2 * v for v in sub.basis)
    with pytest.raises(InputError):
        criteria._side(Sublattice(sub.ambient, doubled))


@pytest.mark.parametrize("bound", (2, 4))
def test_congruent_roots_match_f2_solvable(eigen_data, bound):
    checked = 0
    for data in eigen_data:
        for side, other in ((data.minus, data.plus), (data.plus, data.minus)):
            if not side.definite:
                continue
            roots = criteria._roots(side, bound)
            other_basis = [[x % 2 for x in row] for row in other.sub.basis_matrix()]
            want = [a for a in roots if xl.f2_solvable(other_basis, [x % 2 for x in a])]
            assert criteria.congruent_roots(roots, other) == want
            checked += len(roots)
    assert checked > 1000


def test_f2_echelon_reduces_exactly_its_span():
    rows = [0b0110, 0b0011, 0b1000, 0b0101]
    echelon = xl.f2_echelon(rows)
    assert len(echelon) == xl.f2_rank([[(r >> i) & 1 for i in range(4)] for r in rows]) == 3
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    for r in range(16):
        assert (xl.f2_reduce(echelon, r) == 0) == (r in span)


def _reference_find_anchor(gram, preferred):
    """_find_anchor as it was: the square of every box prefix from scratch."""
    if preferred is not None:
        return preferred
    n = len(gram)
    last = n - 1
    col, d = [gram[i][last] for i in range(last)], gram[last][last]
    for radius in range(1, criteria.ANCHOR_RADIUS + 1):
        if (2 * radius + 1) ** n > 5 * 10 ** 6:
            return None
        box = range(-radius, radius + 1)
        for prefix in itertools.product(box, repeat=last):
            a = sum(prefix[i] * gram[i][j] * prefix[j]
                    for i in range(last) for j in range(last))
            b = sum(p * x for p, x in zip(prefix, col))
            for t in box:
                if a + 2 * b * t + d * t * t > 0:
                    return list(prefix) + [t]
    return None


def test_find_anchor_matches_reference_on_seeded_indefinite_forms():
    rng = random.Random(4242)
    late = 0
    for rank in range(2, 8):
        made = 0
        while made < 6:
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                g[i][i] = rng.choice((-6, -5, -4, -3, -2, -1, 0, 1))
                for j in range(i):
                    g[i][j] = g[j][i] = rng.choice((-1, 0, 0, 1))
            pos, neg, _ = xl.sylvester_signature(g)
            if not (pos and neg):
                continue
            made += 1
            want = _reference_find_anchor(g, None)
            assert criteria._find_anchor(g, None) == want
            late += max(map(abs, want)) > 1
    assert late >= 2   # some first hits lie past the radius-1 box
    # positive vectors only outside the box: both give up
    assert criteria._find_anchor([[-100, 10], [10, 0]], None) is None
    assert _reference_find_anchor([[-100, 10], [10, 0]], None) is None
    assert criteria._find_anchor([[1, 0], [0, -1]], [0, 5]) == [0, 5]


def test_find_anchor_matches_reference_on_decompose_sides(monkeypatch):
    grams = []
    find_anchor = criteria._find_anchor

    def recording(gram, preferred):
        grams.append((gram, preferred))
        return find_anchor(gram, preferred)

    monkeypatch.setattr(criteria, "_find_anchor", recording)
    for n in range(3, 9):
        for cls in classify_involutions(n):
            decompose(cls.representative, n)
    assert len(grams) > 20
    for gram, preferred in grams:
        assert find_anchor(gram, preferred) == _reference_find_anchor(gram, preferred)
