"""Roots, reflections, and the canonical-class stabilizer."""
import os
import random
import subprocess
import sys
from functools import reduce

import pytest

import delpezzo
import delpezzo.enumeration as en
import delpezzo.exactlinalg as xl
import delpezzo.involutions as inv_mod
import delpezzo.permgroup as pg
import delpezzo.weyl as weyl_mod
from delpezzo import InputError, UnsupportedError
from delpezzo.involutions import FRAMES
from delpezzo.lattice import (
    Isometry,
    del_pezzo_lattice,
    identity_isometry,
    orthogonal_complement,
    span,
)
from delpezzo.weyl import (
    canonical_class,
    coxeter_diagram,
    enumerate_roots,
    orbit,
    product_of_reflections,
    reflection,
    wall_generators,
    weyl_generators,
    weyl_order,
)

from conftest import (
    bench_inputs,
    bfs_closure,
    brute_force_root_count,
    canon_table,
    conjugacy_orbit,
    fixed_entries_oracle,
    key_orbit,
    perm_identity,
    perm_to_isometry,
    random_group_element,
)

ROOT_COUNTS = {2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
WEYL_ORDERS = {2: 4, 3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040,
               8: 696729600}


def test_root_counts():
    for n, count in ROOT_COUNTS.items():
        assert len(enumerate_roots(n)) == count


def test_root_counts_against_box_oracle():
    for n in range(3, 9):
        assert brute_force_root_count(n) == ROOT_COUNTS[n]


def test_roots_have_norm_minus_two_and_kill_k():
    for n in (3, 5, 7):
        k = canonical_class(n)
        for r in enumerate_roots(n).roots:
            assert r.norm() == -2
            assert r.dot(k) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_roots_equal_the_k_perp_search(n):
    # the reference: the definite search in K-perp, the root search before
    # the slab table, gives the same roots in the same (sorted) order
    lat = del_pezzo_lattice(n)
    kperp = orthogonal_complement(span(lat, [canonical_class(n)]))
    rows = tuple(zip(*(v.coords for v in kperp.basis)))
    found = en.definite_vectors(kperp.gram(), -2, rows)
    assert enumerate_roots(n).roots == tuple(sorted(lat.vector(c) for c in found))


@pytest.mark.parametrize("n", range(2, 9))
def test_root_slab_table_is_the_sign_canonical_half(n):
    # the builder's root table holds the roots with first nonzero coordinate
    # positive, ascending; their ids, the fields of the class layer, hold
    # every root FRAMES indexes
    roots = enumerate_roots(n).roots
    half = tuple(i for i, r in enumerate(roots) if next(x for x in r.coords if x) > 0)
    table = weyl_mod._slab_table(n, -2, 0)
    vectors, (_, _, planes, offset) = table.vectors, table.whole
    assert vectors == tuple(roots[i].coords for i in half)
    assert inv_mod._canonical_ids(n) == half
    assert set(FRAMES[n]) <= set(half)
    for i, plane in enumerate(planes):
        fields = (plane + offset).to_bytes(len(vectors), "little")
        assert [b - weyl_mod._OFFSET for b in fields] == [c[i] for c in vectors]


def test_reflection_requires_unit_or_root_norm():
    lat = del_pezzo_lattice(3)
    with pytest.raises(InputError):
        reflection(lat.vector((0, 1, 1, 1)))  # norm -3
    root = lat.vector((0, 1, -1, 0))
    for coords, square in (((1, 1, 0, 0), 0), ((0, 1, 1, 1), -3), ((2, 1, 0, 0), 3)):
        v = lat.vector(coords)
        assert v.norm() == square
        for word in ([v], [root, v, root]):
            with pytest.raises(InputError):
                product_of_reflections(word)


def test_weyl_orders():
    for n, order in WEYL_ORDERS.items():
        assert weyl_order(n) == order


def test_weyl_orders_small_n_by_full_closure():
    for n in (3, 4, 5):
        _, _, gens = pg.root_action_context(n)
        degree = len(enumerate_roots(n))
        assert len(bfs_closure(gens, degree)) == WEYL_ORDERS[n]


def test_weyl_order_and_classification_run_without_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(delpezzo.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from delpezzo.weyl import weyl_order\n"
            "from delpezzo.involutions import classify_involutions\n"
            "assert [weyl_order(n) for n in range(2, 9)] == "
            f"{[WEYL_ORDERS[n] for n in range(2, 9)]}\n"
            "classify_involutions(5)\n"
            "assert 'sympy' not in sys.modules\n"
            "assert 'networkx' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _e4_orbit(limit):
    return orbit(del_pezzo_lattice(4).basis_vector(4), weyl_generators(4), limit=limit)


def _n4_group(limit):
    _, _, gens = pg.root_action_context(4)
    return bfs_closure(gens, len(enumerate_roots(4)), limit=limit)


def _n4_conjugacy_orbit(limit):
    _, _, gens = pg.root_action_context(4)
    return conjugacy_orbit(gens[0], gens, limit=limit)


def _n4_class_orbit(limit):
    # one root pair id; its class orbit is all 10 root pairs of A4
    return key_orbit((canon_table(4)[0],), 4, limit=limit)


@pytest.mark.parametrize("build, size, what", [
    (_e4_orbit, 10, "orbit"),
    (_n4_group, 120, "group closure"),
    (_n4_conjugacy_orbit, 10, "conjugacy orbit"),
    (_n4_class_orbit, 10, "class orbit"),
])
def test_closure_stops_at_its_safety_limit(build, size, what):
    # the shared breadth-first closure holds at most limit items
    assert len(build(size)) == size
    with pytest.raises(UnsupportedError, match=f"^{what} exceeded the safety limit$"):
        build(size - 1)


def test_generators_fix_canonical_class_for_n_at_least_3():
    for n in range(3, 9):
        k = canonical_class(n)
        for g in (reflection(v) for v in weyl_generators(n).vectors):
            assert g.apply(k) == k


def test_n2_odd_generator_moves_canonical_class():
    # the norm -1 generator H - E1 - E2 pairs nontrivially with K,
    # so its reflection does not stabilize the canonical class
    lat = del_pezzo_lattice(2)
    v = lat.vector((1, -1, -1))
    assert v.norm() == -1
    assert v.dot(canonical_class(2)) == -1
    g = reflection(v)
    assert g.apply(canonical_class(2)) != canonical_class(2)


def test_exceptional_class_orbit_sizes():
    # E_n is a (-1)-class with Q(E_n, K) = 1; its orbit consists of all such
    lat = del_pezzo_lattice(4)
    e4 = lat.basis_vector(4)
    gens = [reflection(v) for v in weyl_generators(4).vectors]
    assert len(orbit(e4, gens)) == 10


def test_root_orbit_is_whole_root_system():
    # the rank 4 and 5 systems are irreducible, so one orbit covers them
    for n in (4, 5):
        roots = enumerate_roots(n).roots
        gens = [reflection(v) for v in weyl_generators(n).vectors
                if v.norm() == -2]
        assert len(orbit(roots[0], gens)) == len(roots)


def test_rank3_system_splits_into_two_orbits():
    # rank 3 roots form A2 x A1: a 6-element orbit and a 2-element orbit
    lat = del_pezzo_lattice(3)
    gens = [reflection(v) for v in weyl_generators(3).vectors]
    assert len(orbit(lat.vector((0, 1, -1, 0)), gens)) == 6
    assert len(orbit(lat.vector((1, -1, -1, -1)), gens)) == 2


def test_coxeter_diagram_of_simple_roots():
    gens = weyl_generators(5)
    diagram = coxeter_diagram(gens)
    orders = sorted(diagram.values())
    assert set(orders) <= {2, 3}
    assert orders.count(3) == 4  # the rank-5 tree has four edges


@pytest.mark.parametrize("n", range(2, 10))
def test_coxeter_diagram_matches_element_orders(n):
    # the diagram read off the Gram against the order of s_a s_b, found by
    # matrix powers; no power up to 12 is the identity means infinite order
    def order(g):
        acc = g
        for k in range(1, 13):
            if acc.is_identity():
                return k
            acc = acc @ g
        return 0

    for gens in (weyl_generators(n), wall_generators(n)):
        refl = gens.isometries()
        want = {}
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                m = order(refl[i] @ refl[j])
                if m != 2:
                    want[(gens.labels[i], gens.labels[j])] = m
        assert coxeter_diagram(gens) == want, gens.labels


def test_product_of_reflections_in_orthogonal_roots_is_involution():
    lat = del_pezzo_lattice(5)
    r1 = lat.vector((0, 1, -1, 0, 0, 0))
    r2 = lat.vector((0, 0, 0, 1, -1, 0))
    g = product_of_reflections((r1, r2))
    assert g.is_involution() and not g.is_identity()


def _reflection_matrix(v):
    """Columns w - (2 Q(v, w) / Q(v, v)) v for the basis vectors w."""
    lat, nv = v.lattice, v.norm()
    cols = [[b - 2 * v.dot(lat.basis_vector(j)) // nv * c
             for b, c in zip(lat.basis_vector(j).coords, v.coords)]
            for j in range(lat.rank)]
    return tuple(zip(*cols))


def test_product_of_reflections_equals_composition():
    rng = random.Random(7171)
    for n in range(2, 9):
        pool = list(enumerate_roots(n).roots) + list(wall_generators(n).vectors)
        non_orthogonal = 0
        for _ in range(25):
            word = [rng.choice(pool) for _ in range(rng.randrange(1, 7))]
            non_orthogonal += any(u.dot(v) for u, v in zip(word, word[1:]))
            expected = reduce(xl.mat_mul, (_reflection_matrix(v) for v in word))
            assert product_of_reflections(word).matrix == tuple(map(tuple, expected))
            assert reflection(word[0]).matrix == _reflection_matrix(word[0])
        assert non_orthogonal


def test_perm_round_trip(rng):
    for n in (3, 5, 7):
        for _ in range(10):
            g = random_group_element(n, rng)
            p = pg.isometry_to_perm(g, n)
            assert perm_to_isometry(p, n).matrix == g.matrix


def test_root_action_is_faithful_for_n_at_least_3(rng):
    for n in (3, 4, 6):
        degree = len(enumerate_roots(n))
        ident = perm_identity(degree)
        for _ in range(20):
            g = random_group_element(n, rng)
            if pg.isometry_to_perm(g, n) == ident:
                assert g.is_identity()


def test_fused_fixed_entries_match_the_per_row_oracle():
    # fixed_entries ORs its rows' masks and reads their zero bytes once; on
    # every K-slab table of M_n, n = 2..8, whole and chunk by chunk, with
    # negated off and on, its masks are those of the per-row oracle for the
    # K-fixing conjugate of every input of verify seed 101
    from delpezzo import irreducibility

    matrices = {}
    for op in bench_inputs().verify_stream(101):
        g = Isometry(del_pezzo_lattice(op.n), op.matrix)
        g_red, _, fixes_k = irreducibility._k_fixing_conjugate(g)
        if fixes_k:
            matrices.setdefault(op.n, set()).add(g_red.matrix)
    assert sorted(matrices) == list(range(3, 9))
    marked = 0
    for n in range(2, 9):
        tables = [weyl_mod._slab_table(n, *slab) for slab in ((-2, 0), (1, 3), (0, 2), (-1, 1))]
        identity = identity_isometry(del_pezzo_lattice(n)).matrix
        for rows in [identity] + sorted(matrices.get(n, ())):
            for table in tables:
                fixed, negated = fixed_entries_oracle(rows, table.whole, negated=True)
                assert weyl_mod.fixed_entries(rows, table.whole) == fixed
                assert weyl_mod.fixed_entries(rows, table.whole, negated=True) == (fixed, negated)
                for chunk in table.chunks:
                    start, count = chunk[:2]
                    low = ((1 << count) - 1) << start
                    assert weyl_mod.fixed_entries(rows, chunk) == fixed & low
                    assert (weyl_mod.fixed_entries(rows, chunk, negated=True)
                            == (fixed & low, negated & low))
                marked += bool(fixed) + bool(negated)
    assert marked > 1000
    # rows that fix the entry H - E1 - E2 of the exceptional classes of M_8
    # in every row but the last, which adds the H coordinate to the E_8 one:
    # it is not fixed, while E_1, with no H part, is
    table = weyl_mod._slab_table(8, -1, 1)
    rows = [tuple(int(i == j) for j in range(9)) for i in range(8)] + [(1,) + (0,) * 7 + (1,)]
    moved, kept = (table.vectors.index(c) for c in ((1, -1, -1) + (0,) * 6, (0, 1) + (0,) * 7))
    for block in (table.whole, table.chunks[moved // weyl_mod._CHUNK]):
        fixed = weyl_mod.fixed_entries(rows, block)
        assert fixed == fixed_entries_oracle(rows, block)
        assert not fixed >> moved & 1
    assert weyl_mod.fixed_entries(rows, table.whole) >> kept & 1
