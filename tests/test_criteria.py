"""The integer-tuple scans of routes b and d against their reference forms.

Eigen sides are bases of ambient int tuples; _search_batches yields
ambient int tuples; route_b pairs them and returns its witnesses as int
tuples; route_d searches only the congruent sublattices of
_congruent_sublattice.  Here the batches are held against the
side-coordinate enumeration lifted vector by vector, route_b against the
scan it replaced, on sorted (lifted, coords) pairs of partner-tested side
coordinates with one matrix product per c1, and route_d against the route
that listed every root of both sides, reduced each root against one F2
echelon and built its witnesses as lattice vectors, whose filter is held
against one xl.f2_solvable call per root.
"""
import dataclasses
import itertools
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import check_reducible, classify_involutions, criteria, decompose, irreducibility
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.lattice import (
    Isometry,
    del_pezzo_lattice,
    has_even_products,
    identity_isometry,
    sign_canonical_coords,
)
from delpezzo import weyl as weyl_mod
from delpezzo.weyl import (
    canonical_class,
    chamber_conjugate,
    orbit,
    reflection,
    wall_generators,
    weyl_generators,
)

from conftest import (
    assert_slabs_ascend,
    bench_inputs,
    canonical_generators,
    coords_of,
    decompose_pieces,
    e_reflections,
    full_table_witnesses,
    lift,
)


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
    anchor = criteria._anchor(side)
    if anchor is None:
        return
    frame = en.AnchorFrame(gram, anchor)
    for _, batch in en.anchored_norm_slices(frame, target, t_bound):
        yield batch


def _reference_route_b(data, t_bound):
    """The pair scan on sorted lifted vectors, as route_b ran it before."""
    if len(data.plus.basis) < 2:
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
        batch = sorted((lift(data.plus.basis, c), c)
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


def _reference_congruent_roots(roots, other):
    """The roots (ambient coordinates) congruent mod 2 to some vector of the
    other eigen side, in their given order.

    The other side's basis mod 2 goes into one F2 echelon, and each root is
    reduced against it on packed ints.
    """
    echelon = xl.f2_echelon(xl.f2_bits(v) for v in other.basis)
    return [a for a in roots if not xl.f2_reduce(echelon, xl.f2_bits(a))]


def _reference_roots(side, t_bound):
    """Ambient coordinates of the roots found on a side, in search order."""
    return [a for batch in criteria._search_batches(side, -2, t_bound) for a in batch]


def _reference_route_d(data, t_bound):
    """route_d as it listed every root of the complete side and filtered
    them mod 2, then searched every root of the other side."""
    if data.minus.definite:
        complete_side, other = "minus", data.plus
    else:
        complete_side, other = "plus", data.minus
    complete_list = _reference_roots(getattr(data, complete_side), t_bound)
    if not complete_list:
        return criteria.RouteResult(criteria.CLOSED, f"no_{complete_side}_roots")
    congruent = _reference_congruent_roots(complete_list, other)
    if not congruent:
        return criteria.RouteResult(criteria.CLOSED, "mod2_unsolvable")
    by_parity: dict = {}
    for a in congruent:
        by_parity.setdefault(xl.f2_bits(a), []).append(a)
    for batch in criteria._search_batches(other, -2, t_bound):
        best = None
        for b in batch:
            for a in by_parity.get(xl.f2_bits(b), ()):
                c1 = sign_canonical_coords(tuple((x + y) // 2 for x, y in zip(a, b)))
                if best is None or c1 < best:
                    best = c1
        if best is not None:
            c1 = data.g.lattice.vector(best)
            return criteria.RouteResult(criteria.WITNESS, "swapped_minus1_pair",
                                        (c1.coords, data.g.apply(c1).coords))
    if other.definite:
        return criteria.RouteResult(criteria.CLOSED, "definite_pairs_exhausted")
    return criteria.RouteResult(criteria.OPEN, f"searched(t<={t_bound})")


def _wall_conjugates(n, g, rng, count):
    """count O(M_n) wall-word conjugates of g, each replaced by its chamber
    conjugate when it does not fix K, as check_reducible sees them."""
    out = []
    for _ in range(count):
        h = identity_isometry(g.lattice)
        for _ in range(12):
            h = h @ rng.choice(wall_generators(n).isometries())
        conj = h @ g @ h.inverse()
        if conj.apply(canonical_class(n)) != canonical_class(n):
            conj, _ = chamber_conjugate(conj)
        out.append(conj)
    return out


def _eigen_data():
    """Eigen data of the catalog representatives, n = 3..8, then of 40
    chamber conjugates of wall-word conjugates, as check_reducible sees them."""
    reps = [(n, cls.representative) for n in range(3, 9) for cls in classify_involutions(n)]
    out = [criteria.eigen_data(g, canonical_class(n)) for n, g in reps]
    rng = random.Random(8081)
    for _ in range(40):
        n, g = rng.choice(reps)
        conj, = _wall_conjugates(n, g, rng, 1)
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


def _verify_eigen_data(seed, ns):
    """Eigen data of the verify stream's inputs with n in ns, as
    check_reducible sees them: chamber conjugates where K is not fixed."""
    out = []
    for op in bench_inputs().verify_stream(seed):
        if op.n in ns:
            g, k = Isometry(del_pezzo_lattice(op.n), op.matrix), canonical_class(op.n)
            if g.apply(k) != k:
                g, _ = chamber_conjugate(g)
            out.append(criteria.eigen_data(g, k))
    return out


def test_lazy_route_b_matches_reference_on_verify_inputs():
    # the scan over the conic table's fixed entries, then over the complete
    # batches, finds the witness of the reference scan over complete sorted
    # slabs, on the inputs where route b costs most
    witnesses = 0
    closed = criteria.RouteResult(criteria.CLOSED, "plus_no_partner_mod4")
    for data in _verify_eigen_data(101, (7, 8)):
        got = criteria.route_b(data, 2)
        want = _reference_route_b(data, 2)
        if want.status == criteria.OPEN and got != want:
            assert got == closed
        else:
            assert got == want
        witnesses += got.status == criteria.WITNESS
    assert witnesses >= 100


def test_lazy_route_b_draws_a_prefix_of_the_slab(monkeypatch):
    # at n = 8 with K as the anchor (K^2 = 1) slab 2 of a rank-8 plus side
    # holds 1512 isotropic vectors; route b finds its witness among the
    # fixed entries of the conic table and draws none of them from the
    # descent.  The table is built first, so its own search is not counted
    weyl_mod._slab_table(8, 0, 2)
    walk, depth, made = en._walk, [0], [0]

    def counted(*args):
        out = args[-1]
        before = len(out)
        depth[0] += 1
        try:
            walk(*args)
        finally:
            depth[0] -= 1
        if not depth[0]:
            made[0] += len(out) - before

    monkeypatch.setattr(en, "_walk", counted)
    witnesses = 0
    for data in _verify_eigen_data(101, (8,)):
        if len(data.plus.basis) != 8 or criteria._anchor(data.plus) is None:
            continue
        made[0] = 0
        res = criteria.route_b(data, 2)
        assert res.status == criteria.WITNESS and made[0] == 0
        frame = criteria._frame(data.plus)
        assert frame.m == 1
        assert len(next(b for t, b in en.anchored_norm_slices(frame, 0, 2) if t == 2)) == 1512
        witnesses += 1
    assert witnesses == 20


def test_lifted_slabs_come_out_ascending(eigen_data):
    # with basis rows the ambient slabs ascend as they leave the descent,
    # and so do the merged batches anchored_norm_slices yields
    frames = 0
    for data in eigen_data:
        side = data.plus
        if side.definite or criteria._anchor(side) is None:
            continue
        assert_slabs_ascend(criteria._frame(side), (0, -1, -2), 3)
        frames += 1
    assert frames > 20


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
    frame = en.AnchorFrame(g, criteria._find_anchor(g))

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
            if not side.basis:
                continue
            want = [[lift(side.basis, c) for c in batch]
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
    # every route on a side reads one AnchorFrame, built at its first slab;
    # route d's congruent sublattice of its other side (data.glue) builds at
    # most one more per eigen data, and the second pass builds no frame.
    # The data carry no table of exceptional classes, so routes c and d
    # search their slabs
    built = []

    class Counting(en.AnchorFrame):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(en, "AnchorFrame", Counting)
    frames = glue_frames = 0
    for n in range(3, 9):
        for cls in classify_involutions(n):
            data = dataclasses.replace(
                criteria.eigen_data(cls.representative, canonical_class(n)), exceptional=None)
            before = len(built)
            for _name, _res in criteria.iter_routes(data, n, 4):
                pass
            first = len(built)
            for _name, _res in criteria.iter_routes(data, n, 4):
                pass
            assert len(built) == first
            sides = [s for s in (data.plus, data.minus) if s.frame is not None]
            glue = [data.glue] if data.glue is not None and data.glue.frame is not None else []
            assert first - before == len(sides) + len(glue)
            for side in sides + glue:
                assert not side.definite and side.anchor is not None
                gp = xl.mat_vec(side.gram, side.anchor)
                assert side.frame.m == sum(map(operator.mul, side.anchor, gp))
                assert side.frame.g == math.gcd(*gp)
            for side in glue:
                # the anchor 2p of the plus side's p, read in the sublattice basis
                assert side.frame.g % 2 == 0
                p = lift(data.plus.basis, criteria._anchor(data.plus))
                assert lift(side.basis, side.anchor) == tuple(2 * x for x in p)
            frames += len(sides)
            glue_frames += len(glue)
    assert frames > 10 and glue_frames > 5


def test_ambient_anchors_are_solved_only_for_a_search(monkeypatch):
    # a side handed its anchor in ambient coordinates (K, a piece's K', a
    # glue's 2p) forms its basis coordinates only where a search reads
    # them: nowhere on verify seed 101 at bound 2, where the K-slab tables
    # give every witness, and somewhere at bound 1, below their first
    # slabs.  Each solution is the fresh Hermite solve in the side's basis
    solved = []
    anchor = criteria._anchor

    def recorded(side):
        fresh = side.anchor is None and side.ambient_anchor is not None
        got = anchor(side)
        if fresh:
            solved.append((side, got))
        return got

    monkeypatch.setattr(criteria, "_anchor", recorded)
    ops = [(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n)
           for op in bench_inputs().verify_stream(101)]
    for bound in (2, 1):
        monkeypatch.setattr(irreducibility, "_CLASS_RECORD", {})
        solved.clear()
        for g, n in ops:
            check_reducible(g, n, height_bound=bound)
        if bound == 2:
            assert not solved
    assert solved
    for side, got in solved:
        assert tuple(got) == coords_of(side.basis, side.ambient_anchor)


@pytest.mark.parametrize("bound", (2, 4))
def test_congruent_roots_match_f2_solvable(eigen_data, bound):
    # the roots of the congruent sublattice are the complete side's roots
    # that one f2_solvable call per root keeps, as sets
    checked = 0
    for data in eigen_data:
        for side, other in ((data.minus, data.plus), (data.plus, data.minus)):
            if not side.definite:
                continue
            roots = _reference_roots(side, bound)
            other_basis = [[x % 2 for x in row] for row in xl.transpose(other.basis)]
            want = [a for a in roots if xl.f2_solvable(other_basis, [x % 2 for x in a])]
            assert _reference_congruent_roots(roots, other) == want
            lam = criteria._congruent_sublattice(side, other, data.g.lattice.gram)
            got = [a for batch in criteria._search_batches(lam, -2, bound) for a in batch]
            assert len(got) == len(set(got)) and set(got) == set(want)
            checked += len(roots)
    assert checked > 1000


def _catalog_sides():
    """(class, side, other, ambient Gram) for both eigen sides of every
    catalog representative, n = 2..8."""
    for n in range(2, 9):
        gram = del_pezzo_lattice(n).gram
        for cls in classify_involutions(n):
            data = criteria.eigen_data(cls.representative, canonical_class(n))
            yield cls, data.plus, data.minus, gram
            yield cls, data.minus, data.plus, gram


def test_congruent_sublattice_is_the_mod2_glue():
    # 2L lies in Lambda, x lies in Lambda exactly when it reduces to 0
    # against the other side's echelon, and the index is 2^(rank - r) for
    # the r of the class's Z[G] splitting (t, c, r)
    rng = random.Random(2222)
    sides = 0
    for cls, side, other, gram in _catalog_sides():
        lam = criteria._congruent_sublattice(side, other, gram)
        rank = len(side.basis)
        assert len(lam.basis) == rank and lam.definite == side.definite
        if not rank:
            continue
        # B^T G B, with the basis vectors as the rows of B^T
        want = xl.mat_mul(xl.mat_mul(lam.basis, gram), xl.transpose(lam.basis))
        assert lam.gram == tuple(map(tuple, want))
        coords = [coords_of(side.basis, v) for v in lam.basis]
        _, _, r = cls.invariant.zg
        assert abs(xl.det([list(c) for c in coords])) == 2 ** (rank - r)
        for v in side.basis:
            assert coords_of(lam.basis, [2 * x for x in v]) is not None
        echelon = xl.f2_echelon(xl.f2_bits(v) for v in other.basis)
        for _ in range(20):
            v = lift(side.basis, [rng.randint(-3, 3) for _ in range(rank)])
            assert ((coords_of(lam.basis, v) is not None)
                    == (xl.f2_reduce(echelon, xl.f2_bits(v)) == 0))
        sides += 1
    assert sides > 60


def _route_d_checked(data, bound, outcomes, route_d=criteria.route_d):
    """route_d's result, asserted equal to the reference's; outcomes counts
    each status, and each closure reason."""
    got = route_d(data, bound)
    assert got == _reference_route_d(data, bound)
    key = got.reason if got.status == criteria.CLOSED else got.status
    outcomes[key] = outcomes.get(key, 0) + 1
    return got


@pytest.mark.parametrize("bound", (1, 2, 4, 10))
def test_route_d_matches_reference_on_catalog(bound):
    outcomes = {}
    for n in range(2, 9):
        for cls in classify_involutions(n):
            data = criteria.eigen_data(cls.representative, canonical_class(n))
            _route_d_checked(data, bound, outcomes)
            # a second call reads the cached congruent sublattice
            _route_d_checked(data, bound, outcomes)
    assert set(outcomes) == {"open" if bound == 1 else "witness", "mod2_unsolvable"}
    # -1 and +-(the reflections in H and E_1), which fix no K: a side with no
    # root on each side of the route
    for n in range(2, 9):
        lat = del_pezzo_lattice(n)
        minus_one = identity_isometry(lat).negated()
        for g in (minus_one, reflection(lat.basis_vector(0)), reflection(lat.basis_vector(1))):
            _route_d_checked(criteria.eigen_data(g), bound, outcomes)
            _route_d_checked(criteria.eigen_data(g.negated()), bound, outcomes)
    assert outcomes["no_plus_roots"] and outcomes["no_minus_roots"]


@pytest.mark.parametrize("bound", (2, 10))
def test_route_d_matches_reference_on_wall_conjugates(bound):
    rng = random.Random(3131)
    outcomes = {}
    for n in range(2, 9):
        for cls in classify_involutions(n):
            for conj in _wall_conjugates(n, cls.representative, rng, 3):
                data = criteria.eigen_data(conj, canonical_class(n))
                _route_d_checked(data, bound, outcomes)
    assert outcomes["witness"] > 50 and outcomes["mod2_unsolvable"] > 20


@pytest.mark.parametrize("seed", (101, 17))
def test_route_d_matches_reference_on_decompose_streams(monkeypatch, seed):
    # every route_d call decompose makes, on its chamber conjugates and on
    # the narrowed sides after each split; a positive definite other side
    # closes the route with no glue built
    route_d, outcomes = criteria.route_d, {}

    def checked(data, bound):
        got = _route_d_checked(data, bound, outcomes, route_d)
        other = data.plus if data.minus.definite else data.minus
        if got.reason == "definite_pairs_exhausted" and other.positive == len(other.basis):
            assert data.glue is None
            outcomes["positive_other"] = outcomes.get("positive_other", 0) + 1
        return got

    monkeypatch.setattr(criteria, "route_d", checked)
    for op in bench_inputs().decompose_stream(seed):
        decompose(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n, height_bound=10)
    assert outcomes["witness"] > 100 and outcomes["definite_pairs_exhausted"] > 50
    assert outcomes["positive_other"] > 50
    assert outcomes["mod2_unsolvable"] > 20 and outcomes["no_minus_roots"] > 10


def test_route_d_pairs_each_sign_class_once(monkeypatch):
    # one cold classify pass with no table of exceptional classes, so that
    # route_d searches: it forms a pair product for a sign-canonical a only,
    # half as many as the reference, which pairs every congruent root, and
    # returns the reference's result
    counts = {"route_d": 0, "reference": 0}
    inside = []
    canonical = sign_canonical_coords

    def counted(coords):
        if inside:
            counts[inside[-1]] += 1
        return canonical(coords)

    route_d = criteria.route_d

    def checked(data, bound):
        assert data.exceptional is None
        before = dict(counts)
        inside.append("route_d")
        got = route_d(data, bound)
        inside[-1] = "reference"
        assert got == _reference_route_d(data, bound)
        inside.pop()
        assert (counts["reference"] - before["reference"]
                == 2 * (counts["route_d"] - before["route_d"]))
        return got

    monkeypatch.setattr(criteria, "sign_canonical_coords", counted)
    monkeypatch.setitem(globals(), "sign_canonical_coords", counted)
    monkeypatch.setattr(criteria, "route_d", checked)
    monkeypatch.setattr(criteria, "_slab_table", lambda n, square, t: None)
    classify_involutions.cache_clear()
    try:
        for n in range(2, 9):
            classify_involutions(n)
    finally:
        classify_involutions.cache_clear()
    assert counts["route_d"] > 0
    assert counts["reference"] == 2 * counts["route_d"]


def _exceptional_oracle(n):
    """The sign-canonical classes of square -1 and K.c = +-1: the W_n-orbit
    of E_n for n >= 3 (W_n is transitive on them), with their negatives,
    and for n <= 4 a box search over coordinates in [-2, 2]."""
    lat, k = del_pezzo_lattice(n), canonical_class(n)
    found = set()
    if n >= 3:
        e_n = lat.basis_vector(n)
        found |= {sign_canonical_coords(v.coords) for v in orbit(e_n, weyl_generators(n))}
    if n <= 4:
        box = set()
        for c in itertools.product(range(-2, 3), repeat=n + 1):
            v = lat.vector(c)
            if v.norm() == -1 and abs(v.dot(k)) == 1:
                box.add(sign_canonical_coords(c))
        assert n < 3 or box == found
        found = box
    return sorted(found)


@pytest.mark.parametrize("n", range(2, 9))
def test_exceptional_table_is_the_orbit_of_e_n(n):
    # the table eigen_data puts on the data: weyl._slab_table(n, -1, 1)
    table = weyl_mod._slab_table(n, -1, 1)
    classes, (_, size, planes, offset) = table.vectors, table.whole
    assert list(classes) == _exceptional_oracle(n)
    assert len(classes) == {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}[n]
    assert criteria.eigen_data(identity_isometry(del_pezzo_lattice(n)),
                               canonical_class(n)).exceptional is table
    # the planes hold the classes' coordinates, and route d's product planes,
    # at the same offset, their coordinate products
    assert size == len(classes)
    for i, plane in enumerate(planes):
        fields = (plane + offset).to_bytes(size, "little")
        assert [b - weyl_mod._OFFSET for b in fields] == [c[i] for c in classes]
    pairs, products = weyl_mod._exceptional_products(n)
    assert products.vectors is classes and products.whole[3] == offset
    for (a, b), plane in zip(pairs, products.whole[2]):
        fields = (plane + offset).to_bytes(size, "little")
        assert [f - weyl_mod._OFFSET for f in fields] == [c[a] * c[b] for c in classes]
    assert len(pairs) == (n + 1) * (n + 2) // 2


def test_exceptional_table_field_bounds():
    # twice the largest |coordinate| bounds g c - c, and every product of two
    # classes has |c . c'| <= 1 + 2 / K^2: both are attained, and far inside
    # the byte fields of the planes
    coords, products = {}, {}
    for n in range(2, 9):
        classes = weyl_mod._slab_table(n, -1, 1).vectors
        gram = del_pezzo_lattice(n).gram
        coords[n] = 2 * max(abs(x) for c in classes for x in c)
        products[n] = max(abs(sum(map(operator.mul, xl.mat_vec(gram, c), d)))
                          for c in classes for d in classes)
        assert products[n] <= 1 + 2 // (9 - n)
    assert coords == {2: 2, 3: 2, 4: 2, 5: 4, 6: 4, 7: 6, 8: 12}
    assert products == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 3}
    assert max(coords.values()) < weyl_mod._OFFSET
    # the same bound on route b's conic table and route a's +1 table
    firsts = {(square, t): {n: 2 * max(abs(x) for c in weyl_mod._slab_table(n, square, t).vectors
                                       for x in c) for n in ns}
              for square, t, ns in ((0, 2, range(2, 9)), (1, 3, range(2, 8)))}
    assert firsts == {(0, 2): {2: 2, 3: 2, 4: 4, 5: 4, 6: 6, 7: 10, 8: 22},
                      (1, 3): {2: 2, 3: 4, 4: 4, 5: 6, 6: 10, 7: 16}}
    assert max(firsts[0, 2].values()) < weyl_mod._OFFSET


def _slab_oracle(n, seed, square, t):
    """The sign-canonical classes in the orbit of the coordinates seed under
    the K-stabilizer, the reflections in the norm -2 generators of W_n
    (<s_{E1-E2}> at n = 2), checked for n <= 4 against a box search for the
    classes of the square with |K.c| = t over coordinates in [-2, 2]."""
    lat, k = del_pezzo_lattice(n), canonical_class(n)
    found = {sign_canonical_coords(v.coords)
             for v in orbit(lat.vector(seed), canonical_generators(n))}
    if n <= 4:
        box = set()
        for c in itertools.product(range(-2, 3), repeat=n + 1):
            v = lat.vector(c)
            if v.norm() == square and abs(v.dot(k)) == t:
                box.add(sign_canonical_coords(c))
        assert box == found
    return sorted(found)


@pytest.mark.parametrize("n", range(2, 9))
def test_conic_and_plus1_tables_are_the_orbits_of_h_minus_e1_and_h(n):
    # route b's table, the conics (c^2 = 0, |K.c| = 2), is the orbit of
    # H - E1, and route a's, the +1 classes with |K.c| = 3 (n <= 7), the
    # orbit of H; the planes hold the coordinates
    h, e1 = (1,) + (0,) * n, (0, 1) + (0,) * (n - 1)
    tables = [((0, 2), tuple(a - b for a, b in zip(h, e1)),
               {2: 2, 3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160})]
    if n <= 7:
        tables.append(((1, 3), h, {2: 1, 3: 2, 4: 5, 5: 16, 6: 72, 7: 576}))
    for (square, t), seed, counts in tables:
        table = weyl_mod._slab_table(n, square, t)
        vectors, (_, _, planes, offset) = table.vectors, table.whole
        assert list(vectors) == _slab_oracle(n, seed, square, t)
        assert len(vectors) == counts[n]
        for i, plane in enumerate(planes):
            fields = (plane + offset).to_bytes(len(vectors), "little")
            assert [b - weyl_mod._OFFSET for b in fields] == [c[i] for c in vectors]


def _table_routes_checked(data, bound, hits):
    """routes a, b, c and d on data, asserted equal to the same routes on
    the same data with the table removed, which is the mark that K anchors
    the plus side; hits counts the witnesses that data with a table got, by
    route."""
    bare = dataclasses.replace(data, exceptional=None, results={})
    n = len(data.g.matrix) - 1
    routes = (("a", lambda d, b: criteria.route_a(d, n, b)), ("b", criteria.route_b),
              ("c", criteria.route_c), ("d", criteria.route_d))
    for name, route in routes:
        got = route(data, bound)
        assert got == route(bare, bound), (name, bound)
        if data.exceptional is not None and got.status == criteria.WITNESS:
            hits[name] += 1


@pytest.fixture(scope="module")
def catalog_and_conjugate_data():
    """Eigen data, anchored at K, of the catalog representatives, n = 2..8,
    and of two wall-word conjugates of each, as check_reducible sees them."""
    rng = random.Random(4343)
    out = []
    for n in range(2, 9):
        k = canonical_class(n)
        for cls in classify_involutions(n):
            for g in [cls.representative] + _wall_conjugates(n, cls.representative, rng, 2):
                out.append(criteria.eigen_data(g, k))
    return out


@pytest.mark.parametrize("bound", (1, 2, 3, 4, 10))
def test_table_routes_match_the_search_on_catalog_and_conjugates(catalog_and_conjugate_data,
                                                                 bound):
    # the catalog representatives carry the table; their wall-word
    # conjugates carry it when the chamber conjugate fixes K.  The first
    # slab that can hold a witness is |K.c| = 1 for route c, 2 for routes b
    # and d and 3 for route a, so below it no data with a table witnesses
    hits = {"a": 0, "b": 0, "c": 0, "d": 0}
    for data in catalog_and_conjugate_data:
        _table_routes_checked(data, bound, hits)
    assert sum(d.exceptional is not None for d in catalog_and_conjugate_data) > 50
    assert hits["c"] > 20
    assert hits["a"] > 10 if bound >= 3 else hits["a"] == 0
    assert hits["b"] > 10 if bound >= 2 else hits["b"] == 0
    assert hits["d"] > 10 if bound >= 2 else hits["d"] == 0


def test_table_routes_match_the_search_on_verify_inputs():
    # every input of verify seed 101 whose chamber conjugate fixes K, as
    # check_reducible sees it
    hits, tabled = {"a": 0, "b": 0, "c": 0, "d": 0}, 0
    for op in bench_inputs().verify_stream(101):
        g, k = Isometry(del_pezzo_lattice(op.n), op.matrix), canonical_class(op.n)
        if g.apply(k) != k:
            g, _ = chamber_conjugate(g)
        data = criteria.eigen_data(g, k)
        if data.exceptional is None:
            continue
        tabled += 1
        for bound in (2, 10):
            _table_routes_checked(data, bound, hits)
    assert tabled > 500 and hits["b"] > 200 and hits["c"] > 200 and hits["d"] > 200


def _decompose_sides_inputs():
    """(g, n) for the operations of decompose_stream(101), each of which
    decompose splits on a K-fixing conjugate, then for the K-moving inputs
    that keep the box anchor: their negations (g_00 < 0) and the
    reflections in E_1 and E_n, n = 2..8."""
    ops = [(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n)
           for op in bench_inputs().decompose_stream(101)]
    return (ops + [(g.negated(), n) for g, n in ops]
            + [(r, n) for n in range(2, 9) for r in e_reflections(n)])


def test_decompose_narrowed_data_carry_the_table_only_on_k_fixing_inputs(monkeypatch):
    # after a split of a K-fixing input, the narrowed data are anchored at
    # the piece's canonical class K' and keep the first eigen data's table,
    # its masks and a mask of the entries orthogonal to the peeled blocks;
    # the pieces of a K-moving input carry neither.  first keeps each first
    # eigen data alive, so that no later object takes its id
    first, seen = {}, {"first": 0, "k_fixing": 0, "k_moving": 0}
    current = []
    eigen_data = criteria.eigen_data

    def recorded(*args):
        data = eigen_data(*args)
        first[id(data)] = data
        current[:] = [data]
        return data

    def watched(route):
        def run(data, bound):
            head = current[0]
            if data is head:
                seen["first"] += data.exceptional is not None
                assert data.within is None
            elif head.exceptional is not None:
                assert id(data) not in first
                assert data.exceptional is head.exceptional and data.masks is head.masks
                assert data.within is not None
                seen["k_fixing"] += 1
            else:
                assert data.exceptional is None and data.within is None
                seen["k_moving"] += 1
            return route(data, bound)
        return run

    monkeypatch.setattr(criteria, "eigen_data", recorded)
    for name in ("route_c", "route_d", "route_e"):
        monkeypatch.setattr(criteria, name, watched(getattr(criteria, name)))
    for g, n in _decompose_sides_inputs():
        decompose(g, n, height_bound=10)
    assert seen["first"] > 100 and seen["k_fixing"] > 100 and seen["k_moving"] > 10


@pytest.fixture(scope="module")
def narrowed_data():
    """The narrowed pieces (every piece after the first) of decompose at
    bound 10 on the catalog representatives, n = 2..8, and on two wall-word
    conjugates of each (_wall_conjugates), where they fix K."""
    rng = random.Random(6161)
    out = []
    for n in range(2, 9):
        k = canonical_class(n)
        for cls in classify_involutions(n):
            for g in [cls.representative] + _wall_conjugates(n, cls.representative, rng, 2):
                if g.apply(k) == k:
                    out.extend(decompose_pieces(g)[1][1:])
    return out


@pytest.mark.parametrize("bound", (1, 2, 4, 10))
def test_masked_table_routes_match_the_search_at_k_prime(narrowed_data, bound):
    # on each narrowed piece routes c and d read the table under its mask;
    # with the table removed they search the piece, anchored at K'.  Routes
    # a and b read no table there (next test), so they match trivially
    hits = {"a": 0, "b": 0, "c": 0, "d": 0}
    for data in narrowed_data:
        assert data.exceptional is not None and data.within is not None
        _table_routes_checked(data, bound, hits)
    assert len(narrowed_data) > 100
    assert hits["c"] > 50
    assert hits["d"] > 10 if bound >= 2 else hits["d"] == 0


def test_routes_a_and_b_read_no_table_on_narrowed_data(narrowed_data, monkeypatch):
    # the +1 and conic tables hold classes of M_n, not of the piece, so
    # routes a and b search a narrowed piece; on first eigen data they read
    # the tables, which shows the recorder sees a read
    reads = []
    slab_table = criteria._slab_table
    monkeypatch.setattr(criteria, "_slab_table",
                        lambda *key: reads.append(key) or slab_table(*key))
    for data in narrowed_data:
        n = len(data.g.matrix) - 1
        for bound in (3, 10):
            criteria.route_a(data, n, bound)
            criteria.route_b(data, bound)
    assert not reads
    for n in (4, 6):
        data = criteria.eigen_data(classify_involutions(n)[0].representative, canonical_class(n))
        criteria.route_a(data, n, 3)
        criteria.route_b(data, 3)
    assert {key[1:] for key in reads} == {(-1, 1), (1, 3), (0, 2)}


def _k_fixing(g, n):
    """check_reducible's K-fixing conjugate of g (irreducibility's basis
    rule), else None."""
    g_red, _, fixes_k = irreducibility._k_fixing_conjugate(g, canonical_class(n))
    return g_red if fixes_k else None


@pytest.fixture(scope="module")
def table_read_inputs():
    """(g, n, withins, verify) for chunked table reads: the catalog
    representatives, n = 2..8, and the distinct K-fixing conjugates of
    verify seeds 101-103 (verify True), each read on its first eigen data
    (within None); and the K-fixing conjugates of decompose seeds 101 and 17
    with the within of each piece decompose reads the table on, in order."""
    out, seen = [], set()
    for n in range(2, 9):
        for cls in classify_involutions(n):
            seen.add(cls.representative.matrix)
            out.append((cls.representative, n, (None,), False))
    for seed in (101, 102, 103):
        for op in bench_inputs().verify_stream(seed):
            g = _k_fixing(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n)
            if g is not None and g.matrix not in seen:
                seen.add(g.matrix)
                out.append((g, op.n, (None,), True))
    for seed in (101, 17):
        for op in bench_inputs().decompose_stream(seed):
            g = _k_fixing(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n)
            if g is not None:
                pieces = decompose_pieces(g)[1]
                out.append((g, op.n, tuple(d.within for d in pieces
                                           if d.exceptional is not None), False))
    return out


@pytest.mark.parametrize("chunk", (1, 64, 2160))
def test_chunked_table_reads_match_the_full_table_oracle(table_read_inputs, monkeypatch,
                                                         chunk):
    # table_witnesses reads the K-slab tables chunk by chunk (weyl._Table),
    # with chunks of one entry, of the default 64 and of the largest table
    # (the n = 8 conics: every table is one chunk).  Each answer, at bounds
    # 1, 2, 3 and 10, is the full-table oracle's.  One masks dict serves
    # every read of an input, the pieces of a decomposition in order as
    # decompose hands it on, so the reads of c and d go on from the chunks
    # an earlier read left.  With one-entry chunks an n = 8 conic read that
    # finds no pair evaluates 2160 chunks, so that run leaves out the n = 8
    # verify conjugates; the catalog and the decompose pieces cover n = 8
    assert len(weyl_mod._slab_table(8, 0, 2).vectors) == 2160
    monkeypatch.setattr(weyl_mod, "_CHUNK", chunk)
    for n in range(2, 9):
        # the tables table_witnesses reads by chunks, rechunked
        tables = [weyl_mod._slab_table(n, 0, 2), weyl_mod._slab_table(n, -1, 1),
                  weyl_mod._exceptional_products(n)[1]]
        for table in tables + ([weyl_mod._slab_table(n, 1, 3)] if n <= 7 else []):
            monkeypatch.setitem(vars(table), "chunks", weyl_mod._chunked(table.whole))
    hits = {"a": 0, "b": 0, "c": 0, "d": 0}
    narrowed = exhausted = 0
    for g, n, withins, verify in table_read_inputs:
        if chunk == 1 and n == 8 and verify:
            continue
        masks = {}
        for bound in (1, 2, 3, 10):
            for within in withins:
                narrowed += within is not None
                for name in "abcd" if bound <= 2 else "acd":
                    # route b's read is gated at t >= 2 only: bounds 3 and
                    # 10 repeat bound 2
                    got = criteria.table_witnesses(name, g, n, bound, within, masks)
                    assert got == full_table_witnesses(name, g, n, bound, within), (
                        name, n, bound, g.matrix)
                    hits[name] += got is not None
                    # a pair from the negated half is found there, so a
                    # read that returns None has walked both halves
                    exhausted += (name == "b" and bound >= 2 and within is None
                                  and got is None)
    assert min(hits.values()) > 10 and narrowed > 100 and exhausted > 10


def test_route_b_conic_read_evaluates_at_most_two_chunks(monkeypatch):
    # on the n = 8 inputs of verify seed 101 whose K-fixing conjugate
    # check_reducible certifies by a fixed hyperbolic pair, the pair is
    # among the highest fixed conics, negated: the conic read evaluates at
    # most the top two of the 34 chunks of the n = 8 conic table, and its
    # pair, mapped back, is the certificate's
    calls = []
    fixed_entries = weyl_mod.fixed_entries
    monkeypatch.setattr(criteria, "fixed_entries",
                        lambda rows, chunk: calls.append(chunk[0]) or fixed_entries(rows, chunk))
    k, checked = canonical_class(8), 0
    # the chunk starts of the conic table, from the top down
    top = [chunk[0] for chunk in reversed(weyl_mod._slab_table(8, 0, 2).chunks)]
    assert len(top) == 34
    for op in bench_inputs().verify_stream(101):
        if op.n != 8:
            continue
        g = Isometry(del_pezzo_lattice(8), op.matrix)
        cert = check_reducible(g, 8, 2).certificate
        g_red, h_inv, fixes_k = irreducibility._k_fixing_conjugate(g, k)
        if not fixes_k or cert.kind != "FixedHyperbolicPair":
            continue
        calls.clear()
        pair = criteria.table_witnesses("b", g_red, 8, 2)
        assert 1 <= len(calls) <= 2 and calls == top[:len(calls)], (op, calls)
        assert tuple(irreducibility._back(h_inv, c) for c in pair) == cert.witnesses
        checked += 1
    assert checked >= 40


def test_anchored_signatures_match_sylvester(monkeypatch):
    # a K-fixing involution's sides have signatures (1, r - 1) and (0, r),
    # on the catalog and on three O(M_n) conjugates of each class; eigen_data
    # then runs no sylvester_signature.  Every side's positive inertia and
    # definiteness are those sylvester_signature finds, inferred or not
    rng = random.Random(5151)
    inferred = 0
    for n in range(2, 9):
        k = canonical_class(n)
        for cls in classify_involutions(n):
            for g in [cls.representative] + _wall_conjugates(n, cls.representative, rng, 3):
                fixed = criteria.fixes(g.matrix, k.coords)
                data = criteria.eigen_data(g, k)
                plus, minus = len(data.plus.basis), len(data.minus.basis)
                for side, known in ((data.plus, (1, plus - 1)), (data.minus, (0, minus))):
                    pos, neg, zero = xl.sylvester_signature(side.gram)
                    assert not zero and side.positive == pos
                    assert side.definite == (pos == 0 or neg == 0)
                    if fixed:
                        assert (pos, neg) == known
                inferred += fixed
    assert inferred > 100
    calls = []
    monkeypatch.setattr(xl, "sylvester_signature",
                        lambda gram: calls.append(gram) or (_ for _ in ()).throw(AssertionError))
    for n in range(2, 9):
        for cls in classify_involutions(n):
            criteria.eigen_data(cls.representative, canonical_class(n))
    assert not calls


def test_f2_echelon_reduces_exactly_its_span():
    rows = [0b0110, 0b0011, 0b1000, 0b0101]
    echelon = xl.f2_echelon(rows)
    assert len(echelon) == xl.f2_rank([[(r >> i) & 1 for i in range(4)] for r in rows]) == 3
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    for r in range(16):
        assert (xl.f2_reduce(echelon, r) == 0) == (r in span)


def _reference_find_anchor(gram):
    """_find_anchor as it was: the square of every box prefix from scratch."""
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
            want = _reference_find_anchor(g)
            assert criteria._find_anchor(g) == want
            late += max(map(abs, want)) > 1
    assert late >= 2   # some first hits lie past the radius-1 box
    # positive vectors only outside the box: both give up
    assert criteria._find_anchor([[-100, 10], [10, 0]]) is None
    assert _reference_find_anchor([[-100, 10], [10, 0]]) is None


def test_find_anchor_matches_reference_on_decompose_sides(monkeypatch):
    # the box search runs on the sides of K-moving inputs only: an input
    # with a K-fixing conjugate and its pieces are anchored at K and K'.
    # Its calls on _decompose_sides_inputs are held against the reference,
    # and none comes from an input with a K-fixing conjugate
    calls, k_fixing = [], []
    find_anchor = criteria._find_anchor

    def recording(gram):
        calls.append((gram, k_fixing[-1]))
        return find_anchor(gram)

    monkeypatch.setattr(criteria, "_find_anchor", recording)
    for g, n in _decompose_sides_inputs():
        k_fixing.append(irreducibility._k_fixing_conjugate(g, canonical_class(n))[2])
        decompose(g, n)
    assert len(calls) >= 10 and not any(fixing for _, fixing in calls)
    for gram, _ in calls:
        assert find_anchor(gram) == _reference_find_anchor(gram)


def test_iter_routes_reuses_results_only_where_they_hold(monkeypatch):
    # one eigen data asked at bounds 4, 1, 2, 10 gives, at each bound, the
    # routes of fresh eigen data: statuses, reasons and witnesses; a repeat
    # at the last bound runs no route.  Another, asked at bounds 10, 4, 2, 1,
    # gives them too, and an open result at a higher bound is reused below
    # it with no route run, and kept as it was
    routes = ("route_a", "route_b", "route_c", "route_d", "route_e")
    ran = []

    def counted(name):
        route = getattr(criteria, name)

        def run(*args):
            ran.append(name)
            return route(*args)
        return run

    rng = random.Random(2727)
    statuses = {bound: set() for bound in (4, 1, 2, 10)}
    reran = lower = open_reused = 0
    for n in range(2, 9):
        k = canonical_class(n)
        for cls in classify_involutions(n):
            for g in [cls.representative] + _wall_conjugates(n, cls.representative, rng, 1):
                kept, got, fresh_at = criteria.eigen_data(g, k), {}, {}
                for bound in (4, 1, 2, 10):
                    fresh = fresh_at[bound] = list(
                        criteria.iter_routes(criteria.eigen_data(g, k), n, bound))
                    assert list(criteria.iter_routes(kept, n, bound)) == fresh, (n, bound)
                    statuses[bound].update(res.status for _, res in fresh)
                    got[bound] = [res.status for _, res in fresh]
                descending = criteria.eigen_data(g, k)
                for bound in (10, 4, 2, 1):
                    opened = {name: kept_at for name, kept_at in descending.results.items()
                              if kept_at[0].status == criteria.OPEN and bound < kept_at[1]}
                    with monkeypatch.context() as m:
                        for name in routes:
                            m.setattr(criteria, name, counted(name))
                        before = len(ran)
                        assert list(criteria.iter_routes(descending, n, bound)) == \
                            fresh_at[bound], (n, bound)
                    assert not set(opened) & {name[-1] for name in ran[before:]}
                    assert all(descending.results[name] == kept_at
                               for name, kept_at in opened.items())
                    open_reused += len(opened)
                # a witness at bound 4 that bound 1 does not find
                lower += sum(a == criteria.WITNESS != b for a, b in zip(got[4], got[1]))
                with monkeypatch.context() as m:
                    for name in routes:
                        m.setattr(criteria, name, counted(name))
                    before = len(ran)
                    assert list(criteria.iter_routes(kept, n, 10)) == fresh
                    reran += len(ran) - before
    assert reran == 0 and lower > 0 and open_reused > 0
    # every kind of result is reused or re-run somewhere in the sequence
    assert statuses[1] == {criteria.CLOSED, criteria.WITNESS, criteria.OPEN}
    assert statuses[10] == {criteria.CLOSED, criteria.WITNESS}
