"""Conjugacy classification of involutions in the canonical-class stabilizer."""
import itertools

import pytest

import delpezzo.involutions as inv_mod
import delpezzo.permgroup as pg
import delpezzo.weyl as weyl_mod
from delpezzo import (
    InputError,
    are_conjugate,
    classify_involutions,
    find_class,
    invariant_of,
    minus_root_key,
    orthogonal_root_set,
    zg_invariant,
)
from delpezzo.lattice import del_pezzo_lattice, fixed_and_antifixed
from delpezzo.weyl import canonical_class, product_of_reflections, weyl_order

from conftest import all_involutions, key_orbit, random_group_element

CLASS_COUNTS = {1: 0, 2: 1, 3: 3, 4: 2, 5: 5, 6: 4, 7: 9, 8: 9}


def test_class_counts():
    for n, count in CLASS_COUNTS.items():
        assert len(classify_involutions(n)) == count


def test_representatives_are_nontrivial_k_fixing_involutions():
    for n in range(2, 9):
        k = canonical_class(n)
        for cls in classify_involutions(n):
            g = cls.representative
            assert g.is_involution() and not g.is_identity()
            assert g.apply(k) == k


def test_carter_exponent_equals_antifixed_rank():
    for n in range(2, 9):
        for cls in classify_involutions(n):
            _, minus = fixed_and_antifixed(cls.representative)
            assert minus.rank == cls.invariant.carter_exponent
            assert len(cls.roots) == cls.invariant.carter_exponent


def test_representative_is_product_of_its_roots():
    for n in (3, 5, 7):
        for cls in classify_involutions(n):
            g = product_of_reflections(cls.roots.roots)
            assert g.matrix == cls.representative.matrix


def test_class_sizes_sum_to_involution_count_small_n():
    for n in (4, 5, 6):
        total = sum(c.class_size for c in classify_involutions(n))
        assert total == len(all_involutions(n))


def test_distinct_classes_are_not_conjugate():
    for n in (3, 5, 7, 8):
        classes = classify_involutions(n)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert not are_conjugate(a.representative, b.representative, n)


def test_conjugates_land_in_same_class(rng):
    for n in (3, 5, 7, 8):
        for cls in classify_involutions(n):
            h = random_group_element(n, rng)
            g = h @ cls.representative @ h.inverse()
            assert find_class(g, n).label == cls.label


def test_find_class_round_trip():
    for n in range(2, 9):
        for cls in classify_involutions(n):
            assert find_class(cls.representative, n).label == cls.label


def test_minus_root_key_is_conjugation_equivariant(rng):
    n = 5
    cls = classify_involutions(n)[2]
    g = cls.representative
    h = random_group_element(n, rng)
    conj = h @ g @ h.inverse()
    assert len(minus_root_key(conj, n)) == len(minus_root_key(g, n))


def test_w7_carter_multiplicities():
    labels = [c.label for c in classify_involutions(7)]
    assert labels == ["m1", "m2", "m3a", "m3b", "m4a", "m4b", "m5", "m6", "m7"]


def test_w8_carter_multiplicities():
    labels = [c.label for c in classify_involutions(8)]
    assert labels == ["m1", "m2", "m3", "m4a", "m4b", "m5", "m6", "m7", "m8"]


def test_w5_m2_classes_separated_by_fixed_kperp_determinant():
    classes = [c for c in classify_involutions(5)
               if c.invariant.carter_exponent == 2]
    dets = sorted(abs(c.invariant.kperp_fixed_det) for c in classes)
    assert len(classes) == 2 and dets[0] != dets[1]


def test_w7_m4_classes_separated_by_zg_invariant():
    classes = [c for c in classify_invariants_helper(7, 4)]
    zgs = {tuple(c.invariant.zg) for c in classes}
    assert zgs == {(0, 0, 4), (2, 2, 2)}


def classify_invariants_helper(n, m):
    return [c for c in classify_involutions(n)
            if c.invariant.carter_exponent == m]


def test_w8_m4_classes_separated_by_minus_root_count():
    classes = classify_invariants_helper(8, 4)
    counts = sorted(c.invariant.minus_root_count for c in classes)
    assert counts == [8, 24]


def test_zg_invariant_ranks_add_up():
    for n in (4, 6, 8):
        for cls in classify_involutions(n):
            zg = zg_invariant(cls.representative)
            assert zg.t + zg.c + 2 * zg.r == n + 1


def test_orthogonal_root_set_validates_input():
    lat = del_pezzo_lattice(4)
    with pytest.raises(InputError):
        # not mutually orthogonal
        orthogonal_root_set(4, (lat.vector((0, 1, -1, 0, 0)),
                                lat.vector((0, 0, 1, -1, 0))))


def test_invariant_of_rejects_non_k_fixing(rng):
    from delpezzo.weyl import reflection
    lat = del_pezzo_lattice(2)
    g = reflection(lat.vector((1, -1, -1)))  # moves K
    with pytest.raises(InputError):
        invariant_of(g, 2)


def test_invariant_json_is_serializable():
    import json
    for cls in classify_involutions(5):
        blob = json.dumps(cls.to_json())
        assert json.loads(blob)["label"] == cls.label


def _frame_rows(n):
    """(subset, mask key, mask kperp pairs, involution) for every subset of
    every frame the classification walks."""
    roots, _ = inv_mod._roots_and_index(n)
    rows = []
    for frame in inv_mod._maximal_orthogonal_reps(*inv_mod._orthogonality(n)):
        for sub, key, perp in inv_mod._frame_candidates(n, frame):
            rset = orthogonal_root_set(n, [roots[i] for i in sub])
            rows.append((sub, key, perp, rset.involution()))
    return rows


@pytest.fixture(scope="module")
def frame_rows():
    return {n: _frame_rows(n) for n in range(2, 9)}


def test_mask_keys_equal_minus_root_keys(frame_rows):
    for n, rows in frame_rows.items():
        for sub, key, perp, g in rows:
            assert key == minus_root_key(g, n), (n, sub)
            assert inv_mod._class_triple(g, n) == (key, (len(sub), len(key), perp)), (n, sub)
    # 419 subsets over n = 2..8, each with its own key
    assert sum(len(rows) for rows in frame_rows.values()) == 419
    assert sum(len({row[1] for row in rows}) for rows in frame_rows.values()) == 419


def test_mask_fields_equal_invariants(frame_rows):
    for n, rows in frame_rows.items():
        for sub, key, perp, g in rows:
            inv = invariant_of(g, n)
            assert inv.minus_root_count == 2 * len(key), (n, sub)
            assert inv.kperp_fixed_roots == 2 * perp, (n, sub)
            assert inv.carter_exponent == len(sub)


def _partition(items, group_of):
    groups = {}
    for item in items:
        groups.setdefault(group_of(item), set()).add(item[1])
    return sorted(sorted(g) for g in groups.values())


def test_n8_mask_groups_equal_merge_key_groups(frame_rows):
    # classify_involutions(8) separates classes by (|S|, |key|, kperp root
    # count), which must cut the candidates exactly as merge_key does
    rows = {key: (sub, key, perp, g) for sub, key, perp, g in frame_rows[8]}
    assert len(rows) == 255
    items = list(rows.values())
    by_masks = _partition(items, lambda r: (len(r[0]), len(r[1]), r[2]))
    by_merge_key = _partition(items, lambda r: invariant_of(r[3], 8).merge_key())
    assert by_masks == by_merge_key
    assert len(by_masks) == CLASS_COUNTS[8]


# class orbit sizes at n = 8
N8_CLASS_SIZES = {"m1": 120, "m2": 3780, "m3": 37800, "m4a": 113400, "m4b": 3150,
                  "m5": 37800, "m6": 3780, "m7": 120, "m8": 1}


@pytest.mark.parametrize("n", range(2, 9))
def test_frame_triples_are_class_orbits(n):
    # The census that makes (|S|, |key|, fixed pairs) a complete class
    # invariant.  Every involution is a product of reflections in orthogonal
    # roots (Carter), and the maximal orthogonal sets form one orbit, so
    # every class meets the frame candidates; each triple group of them lies
    # in one class orbit, so equal triples mean conjugate involutions.  The
    # orbits also check the class sizes of the frame count.
    groups = {}
    for frame in inv_mod._maximal_orthogonal_reps(*inv_mod._orthogonality(n)):
        for sub, key, perp in inv_mod._frame_candidates(n, frame):
            groups.setdefault((len(sub), len(key), perp), set()).add(key)
    classes = {c.minus_root_key: c for c in classify_involutions(n)}
    assert len(groups) == len(classes) == CLASS_COUNTS[n]
    sizes = {}
    for triple, keys in groups.items():
        first = min(keys)
        orbit = key_orbit(first, n)
        assert {bytes(k) for k in keys} <= orbit, (n, triple)
        cls = classes[first]
        assert cls.invariant.class_triple() == triple
        assert inv_mod._class_triple(cls.representative, n) == (first, triple)
        sizes[cls.label] = len(orbit)
    assert sizes == {c.label: c.class_size for c in classes.values()}
    if n == 8:
        assert sizes == N8_CLASS_SIZES and sum(sizes.values()) == 199951


def test_class_sizes_divide_the_group_order():
    for n in range(3, 9):
        for cls in classify_involutions(n):
            assert weyl_order(n) % cls.class_size == 0, (n, cls.label)


def test_invariants_are_built_for_representatives_only(monkeypatch):
    calls = {"invariant_of": 0, "product_of_reflections": 0}

    def counted(name):
        fn = getattr(inv_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(inv_mod, name, counted(name))
    for n in range(2, 9):
        for name in calls:
            calls[name] = 0
        # bypass the cache, so the classification really runs
        classes = inv_mod.classify_involutions.__wrapped__(n)
        assert calls == {"invariant_of": len(classes),
                         "product_of_reflections": len(classes)}, n
        assert [c.label for c in classes] == [c.label for c in classify_involutions(n)]


def test_classify_hands_invariant_of_the_class_triple(monkeypatch):
    # classify_involutions passes the triple of its frame table, so that
    # invariant_of need not read it off g again
    handed = []
    invariant_of = inv_mod.invariant_of

    def recording(g, n, with_flags=False, triple=None):
        handed.append((g, n, triple))
        return invariant_of(g, n, with_flags, triple=triple)

    monkeypatch.setattr(inv_mod, "invariant_of", recording)
    for n in range(2, 9):
        inv_mod.classify_involutions.__wrapped__(n)
    assert len(handed) == 33
    for g, n, triple in handed:
        assert triple == inv_mod._class_triple(g, n)[1]


@pytest.mark.parametrize("n", range(2, 9))
def test_catalog_flags_are_decided(n):
    # routes a-d close exactly or find a witness at the flag bound on every
    # class: the mod-4 closures leave no bounded search open
    for cls in classify_involutions(n):
        assert None not in cls.invariant.flags, cls.label


# maximal cliques of the root orthogonality graph, and the frame the library
# takes, for n = 2..8
MAXIMAL_CLIQUE_COUNTS = {2: 1, 3: 3, 4: 15, 5: 15, 6: 135, 7: 135, 8: 2025}
FRAMES = {
    2: (1,),
    3: (4, 7),
    4: (10, 18),
    5: (21, 25, 32, 33),
    6: (36, 39, 61, 66),
    7: (63, 73, 80, 93, 100, 118, 121),
    8: (128, 131, 140, 153, 155, 161, 227, 237),
}


def _all_maximal_cliques(n):
    import networkx as nx

    roots, _ = inv_mod._roots_and_index(n)
    pos_ids = sorted(set(inv_mod._canon_table(n)))
    graph = nx.Graph()
    graph.add_nodes_from(pos_ids)
    graph.add_edges_from((a, b) for i, a in enumerate(pos_ids) for b in pos_ids[i + 1:]
                         if roots[a].dot(roots[b]) == 0)
    return [tuple(sorted(c)) for c in nx.find_cliques(graph)]


@pytest.mark.parametrize("n", range(2, 9))
def test_maximal_orthogonal_sets_form_one_orbit(n):
    # classification takes the first maximal clique only; that is complete
    # because every maximal orthogonal root set lies in the orbit of that frame
    reps = inv_mod._maximal_orthogonal_reps(*inv_mod._orthogonality(n))
    assert [tuple(sorted(f)) for f in reps] == [FRAMES[n]]
    cliques = _all_maximal_cliques(n)
    assert len(cliques) == len(set(cliques)) == MAXIMAL_CLIQUE_COUNTS[n]
    orbit = key_orbit(FRAMES[n], n)
    assert {bytes(c) for c in cliques} == orbit
    roots, _ = inv_mod._roots_and_index(n)
    assert [r.coords for r in orthogonal_root_set(n, [roots[i] for i in reps[0]])] == sorted(
        roots[i].coords for i in FRAMES[n])


def _reference_key_orbit(key, n):
    """The class orbit of a key on sorted id tuples, one set per step."""
    from delpezzo.weyl import closure

    _, _, gens = pg.root_action_context(n)
    canon = inv_mod._canon_table(n)
    return closure([key], gens, lambda s, g: tuple(sorted({canon[g[i]] for i in s})),
                   3 * 10 ** 6, "class orbit")


def test_byte_key_orbit_matches_tuple_reference():
    keys = [(n, c.minus_root_key) for n in range(2, 8) for c in classify_involutions(n)]
    keys.append((8, FRAMES[8]))
    for n, key in keys:
        ref = _reference_key_orbit(key, n)
        assert key_orbit(key, n) == {bytes(k) for k in ref}, (n, key)
    # the n = 8 frame orbit: 2025 keys
    assert len(_reference_key_orbit(FRAMES[8], 8)) == MAXIMAL_CLIQUE_COUNTS[8]


@pytest.mark.parametrize("n", range(2, 9))
def test_frame_count_equals_maximal_cliques(n):
    # N, the orthogonal |F|-sets of all roots, is the number of maximal
    # cliques networkx enumerates
    ids, orth = inv_mod._orthogonality(n)
    [frame] = inv_mod._maximal_orthogonal_reps(ids, orth)
    count = inv_mod._orthogonal_set_counter(orth)
    assert count((1 << len(ids)) - 1, len(frame)) == MAXIMAL_CLIQUE_COUNTS[n]


def _listed_set_counts(members, n):
    """[c_0, c_1, ...]: the orthogonal j-sets among the root ids members, by
    extending every orthogonal set in combinations order."""
    roots, _ = inv_mod._roots_and_index(n)
    members = sorted(members)
    perp = {(a, b) for a, b in itertools.combinations(members, 2)
            if roots[a].dot(roots[b]) == 0}
    counts, level = [1], [()]
    while level:
        level = [s + (b,) for s in level for b in members
                 if (not s or b > s[-1]) and all((a, b) in perp for a in s)]
        counts.append(len(level))
    return counts[:-1]


def test_set_counter_matches_listed_orthogonal_sets():
    # on the key roots and the fixed roots of every frame candidate, n <= 7
    listed = {}
    for n in range(2, 8):
        ids, orth = inv_mod._orthogonality(n)
        [frame] = inv_mod._maximal_orthogonal_reps(ids, orth)
        bit = {a: 1 << i for i, a in enumerate(ids)}
        count = inv_mod._orthogonal_set_counter(orth)
        roots, _ = inv_mod._roots_and_index(n)
        for sub, key, perp in inv_mod._frame_candidates(n, frame):
            fixed = tuple(a for a in ids if all(roots[a].dot(roots[r]) == 0 for r in sub))
            assert len(fixed) == perp
            for members in (key, fixed):
                mask = sum(bit[a] for a in members)
                if (n, mask) not in listed:
                    listed[n, mask] = _listed_set_counts(members, n)
                want = listed[n, mask]
                got = [count(mask, j) for j in range(len(frame) + 2)]
                assert got == want + [0] * (len(got) - len(want)), (n, sub, members)


def test_conjugacy_tests_square_g_once(monkeypatch, rng):
    from delpezzo.lattice import Isometry
    from delpezzo.weyl import reflection

    calls = []
    is_involution = Isometry.is_involution

    def counted(self):
        calls.append(self)
        return is_involution(self)

    # classes, class sizes and conjugacy come with no closure at all: no
    # orbit walk, no group closure
    walks = []
    closure = weyl_mod.closure

    def walked(*args, **kwargs):
        walks.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(weyl_mod, "closure", walked)
    for n in range(2, 9):
        inv_mod.classify_involutions.__wrapped__(n)
    assert walks == []

    monkeypatch.setattr(Isometry, "is_involution", counted)
    n = 5
    cls = classify_involutions(n)[2]
    cls8 = classify_involutions(8)[4]
    h = random_group_element(n, rng)
    conj = h @ cls.representative @ h.inverse()
    calls.clear()
    assert are_conjugate(cls.representative, conj, n)
    assert len(calls) == 2
    calls.clear()
    assert find_class(conj, n).label == cls.label
    assert len(calls) == 1
    h = random_group_element(8, rng)
    conj = h @ cls8.representative @ h.inverse()
    calls.clear()
    assert find_class(conj, 8).label == cls8.label == "m4b"
    assert len(calls) == 1
    assert walks == []
    lat = del_pezzo_lattice(3)
    r = reflection(lat.vector((0, 1, -1, 0))) @ reflection(lat.vector((0, 0, 1, -1)))
    g = classify_involutions(3)[0].representative
    with pytest.raises(InputError, match="^not an involution$"):
        are_conjugate(g, r, 3)
    with pytest.raises(InputError, match="^expected a nontrivial involution$"):
        find_class(r, 3)
