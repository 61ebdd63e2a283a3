"""Acceptance suite: one labeled pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py`; each test below is one
acceptance criterion (criterion 8 is split into its five property suites)
and prints a `criterion N: PASS` line on success.
"""
import functools
import itertools
import json
import random
import time

import delpezzo.involutions
import delpezzo.permgroup as pg
from delpezzo import (
    IRREDUCIBLE,
    REDUCIBLE,
    ReducibilityCertificate,
    bertini,
    bertini_roots,
    check_reducible,
    classify_involutions,
    de_jonquieres,
    defect_sum,
    geiser,
    geiser_roots,
    negation_twist,
    zg_invariant,
)
from delpezzo.lattice import del_pezzo_lattice, fixed_and_antifixed
from delpezzo.weyl import (
    enumerate_roots,
    product_of_reflections,
    reflection,
    weyl_order,
)

from conftest import (
    all_involutions,
    bfs_closure,
    brute_force_root_count,
    conjugacy_orbit,
    perm_to_isometry,
    random_group_element,
)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {label}: FAIL")
                raise
            print(f"criterion {label}: PASS")
        return wrapper
    return deco


@criterion("1 (irreducible class counts and runtime)")
def test_criterion_1_irreducible_counts():
    delpezzo.involutions.classify_involutions.cache_clear()
    expected = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 0, 7: 2, 8: 1}

    start = time.perf_counter()
    for n in range(1, 8):
        classes = classify_involutions(n)
        count = sum(
            check_reducible(c.representative, n).status == IRREDUCIBLE
            for c in classes)
        assert count == expected[n], f"n={n}: {count} irreducible classes"
    elapsed_small = time.perf_counter() - start
    assert elapsed_small < 60, f"n<=7 took {elapsed_small:.1f}s"

    start = time.perf_counter()
    classes = classify_involutions(8)
    count = sum(check_reducible(c.representative, 8).status == IRREDUCIBLE
                for c in classes)
    elapsed_large = time.perf_counter() - start
    assert count == expected[8]
    assert elapsed_large < 600, f"n=8 took {elapsed_large:.1f}s"


@criterion("2 (Carter graph multiplicities for W_7 and W_8)")
def test_criterion_2_carter_multiplicities():
    def multiplicities(n):
        out = {}
        for c in classify_involutions(n):
            out[c.invariant.carter_exponent] = \
                out.get(c.invariant.carter_exponent, 0) + 1
        return out

    assert multiplicities(7) == {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1}
    assert multiplicities(8) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1,
                                 8: 1}


@criterion("3 (root counts against the box-enumeration oracle)")
def test_criterion_3_root_counts():
    expected = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
    start = time.perf_counter()
    for n, count in expected.items():
        assert len(enumerate_roots(n)) == count
        assert brute_force_root_count(n) == count
    assert time.perf_counter() - start < 5


@criterion("4 (stabilizer orders, cross-checked by closure for n <= 5)")
def test_criterion_4_weyl_orders():
    expected = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040, 8: 696729600}
    start = time.perf_counter()
    for n, order in expected.items():
        assert weyl_order(n) == order
    for n in (3, 4, 5):
        _, _, gens = pg.root_action_context(n)
        degree = len(enumerate_roots(n))
        assert len(bfs_closure(gens, degree)) == expected[n]
    assert time.perf_counter() - start < 60


@criterion("5 (named model identities)")
def test_criterion_5_model_identities():
    start = time.perf_counter()
    assert geiser().isometry.matrix == \
        product_of_reflections(geiser_roots()).matrix
    assert bertini().isometry.matrix == \
        product_of_reflections(bertini_roots()).matrix

    plus, _ = fixed_and_antifixed(de_jonquieres(5).isometry)
    assert plus.rank == 2
    gram = plus.gram()
    target = ((0, 2), (2, -4))
    # exhaustive search over small integral basis changes of determinant +-1
    found = False
    for cols in itertools.product(
            itertools.product(range(-3, 4), repeat=2), repeat=2):
        (a, c), (b, d) = cols
        if abs(a * d - b * c) != 1:
            continue
        image = tuple(
            tuple(sum(cols[i][k] * gram[k][l] * cols[j][l]
                      for k in range(2) for l in range(2))
                  for j in range(2))
            for i in range(2))
        if image == target:
            found = True
            break
    assert found, f"fixed lattice {gram} is not equivalent to {target}"
    assert time.perf_counter() - start < 1


@criterion("6 (group-ring module invariants)")
def test_criterion_6_zg_invariants():
    start = time.perf_counter()

    def zg(g):
        v = zg_invariant(g)
        return (v.t, v.c, v.r)

    for n in (5, 7):
        assert zg(de_jonquieres(n).isometry) == (0, n - 3, 2)
    assert zg(bertini().isometry) == (1, 8, 0)
    pair = {zg(c.representative) for c in classify_involutions(7)
            if c.invariant.carter_exponent == 4}
    assert pair == {(0, 0, 4), (2, 2, 2)}
    assert time.perf_counter() - start < 1


@criterion("7 (signature defect sums of the twisted models)")
def test_criterion_7_defect_sums():
    start = time.perf_counter()
    for n in (5, 7):
        assert defect_sum(negation_twist(de_jonquieres(n).isometry)) == 1 - n
    assert defect_sum(negation_twist(geiser().isometry)) == -8
    assert defect_sum(negation_twist(bertini().isometry)) == -9
    assert time.perf_counter() - start < 1


@criterion("8(i) (1000 random reflections preserve the form and square to 1)")
def test_criterion_8i_random_reflections():
    rng = random.Random(81)
    produced = 0
    while produced < 1000:
        n = rng.randrange(2, 9)
        lat = del_pezzo_lattice(n)
        v = lat.vector([rng.randrange(-3, 4) for _ in range(n + 1)])
        if v.is_zero() or v.norm() not in (1, -1, 2, -2):
            continue
        r = reflection(v)  # the constructor verifies form preservation
        assert r.is_involution()
        assert (r @ r).is_identity()
        assert r.apply(v) == -v
        produced += 1


@criterion("8(ii) (verdicts invariant under 100 random conjugations per class)")
def test_criterion_8ii_conjugation_invariance():
    rng = random.Random(82)
    # a small uniform slice bound keeps every verdict decided and fast;
    # the verdict at a fixed bound is a conjugation invariant
    bound = 2
    for n in range(2, 9):
        for cls in classify_involutions(n):
            base = check_reducible(cls.representative, n,
                                   height_bound=bound).status
            assert base in (REDUCIBLE, IRREDUCIBLE)
            for _ in range(100):
                h = random_group_element(n, rng)
                g = h @ cls.representative @ h.inverse()
                assert check_reducible(g, n, height_bound=bound).status == base


@criterion("8(iii) (verdict of g equals verdict of -g)")
def test_criterion_8iii_negation_invariance():
    for n in range(2, 9):
        for cls in classify_involutions(n):
            g = cls.representative
            assert (check_reducible(g, n, height_bound=2).status
                    == check_reducible(negation_twist(g), n,
                                       height_bound=2).status)


@criterion("8(iv) (every certificate re-verifies from its JSON form)")
def test_criterion_8iv_certificates_verify():
    for n in range(2, 9):
        for cls in classify_involutions(n):
            verdict = check_reducible(cls.representative, n)
            blob = json.dumps(verdict.to_json())
            cert = ReducibilityCertificate.from_json(
                json.loads(blob)["certificate"])
            assert cert.verify(cls.representative)


@criterion("8(v) (invariant partition equals conjugacy partition, n <= 6)")
def test_criterion_8v_partition_oracle():
    from delpezzo import invariant_of

    for n in range(3, 7):
        perms = all_involutions(n)
        _, _, gens = pg.root_action_context(n)

        by_invariant = {}
        for p in perms:
            g = perm_to_isometry(p, n)
            key = invariant_of(g, n).merge_key()
            by_invariant.setdefault(key, set()).add(p)

        remaining = set(perms)
        conjugacy = []
        while remaining:
            p = next(iter(remaining))
            orb = conjugacy_orbit(p, gens) & set(perms)
            conjugacy.append(frozenset(orb))
            remaining -= orb

        assert set(map(frozenset, by_invariant.values())) == set(conjugacy)
