"""The integer-tuple scans of routes b and d against their reference forms.

route_b pairs isotropic vectors on int tuples and builds lattice vectors
only for its witnesses; congruent_roots reduces each root against one F2
echelon of the other side.  Here the first is held against the scan it
replaced, on sorted (LatticeVector, coords) pairs with one matrix product per
c1, and the second against one xl.f2_solvable call per root.
"""
import math
import random

import pytest

from delpezzo import classify_involutions, criteria
from delpezzo import exactlinalg as xl
from delpezzo.lattice import has_even_products, identity_isometry
from delpezzo.weyl import canonical_class, chamber_conjugate, wall_generators


def _reference_partner(gram, c1):
    v = xl.mat_vec(gram, c1)
    return (math.gcd(*v) == 1
            and any((x - gram[i][i]) % 2 for i, x in enumerate(v)))


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
    for coords in criteria._search_batches(data.plus, 0, t_bound):
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
    witnesses = 0
    for data in eigen_data:
        got = criteria.route_b(data, bound)
        assert got == _reference_route_b(data, bound)
        witnesses += got.status == criteria.WITNESS
    assert witnesses > 20


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
