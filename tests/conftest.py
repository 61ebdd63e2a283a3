"""Shared helpers for the test suite."""
import importlib.util
import random
from functools import lru_cache
from pathlib import Path

import pytest

import delpezzo.permgroup as pg
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.errors import InputError, UnsupportedError
from delpezzo.involutions import _canon_table, _roots_and_index
from delpezzo.lattice import Isometry, del_pezzo_lattice
from delpezzo.weyl import canonical_class, closure, enumerate_roots, reflection, weyl_generators


def canonical_generators(n):
    """The reflections in the norm -2 generator vectors (they all fix K)."""
    return [reflection(v) for v in weyl_generators(n).vectors if v.norm() == -2]


def random_group_element(n, rng: random.Random, length: int = 8) -> Isometry:
    """A pseudo-random product of canonical-class-fixing generators."""
    gens = canonical_generators(n)
    lat = del_pezzo_lattice(n)
    g = Isometry(lat, tuple(tuple(1 if i == j else 0 for j in range(lat.rank))
                            for i in range(lat.rank)))
    for _ in range(rng.randrange(1, length + 1)):
        g = g @ rng.choice(gens)
    return g


def assert_slabs_ascend(frame, targets, t_bound):
    """Each slab t and -t of the frame comes out of the descent ascending,
    and the lazy merged iterator yields anchored_norm_slices's batch."""
    for target in targets:
        for t, batch in en.anchored_norm_slices(frame, target, t_bound):
            for s in {t, -t}:
                slab = frame.slab(target, s)
                assert all(a < b for a, b in zip(slab, slab[1:]))
            assert list(frame.ascending(target, t)) == batch


def bench_inputs():
    """perfbench/inputs.py as a module: the benchmark's input streams."""
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The byte-permutation oracles.  A permutation of the sorted root list
# (pg.root_action_context) is a bytes object, entry i the index of the image
# of root i, so composition is one bytes.translate call.


def _table(q: bytes) -> bytes:
    """Pad a permutation to the 256-byte table bytes.translate expects."""
    return q + bytes(range(len(q), 256))


def perm_compose(p: bytes, q: bytes) -> bytes:
    """The permutation 'first p, then q'."""
    return p.translate(_table(q))


def perm_identity(degree: int) -> bytes:
    return bytes(range(degree))


def perm_inverse(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, j in enumerate(p):
        out[j] = i
    return bytes(out)


@lru_cache(maxsize=None)
def _perm_to_matrix_data(n: int):
    # columns: K followed by the simple roots; invertible over Q
    lat = del_pezzo_lattice(n)
    vecs = [canonical_class(n)] + list(weyl_generators(n).vectors)
    cols = [[v.coords[i] for v in vecs] for i in range(lat.rank)]
    return vecs, cols, xl.inverse(cols)


def perm_to_isometry(p: bytes, n: int) -> Isometry:
    """Reconstruct the isometry from its root permutation (K is fixed)."""
    if n < 3:
        raise UnsupportedError("root permutations determine isometries only for n >= 3")
    roots, index = _roots_and_index(n)
    vecs, cols, inv = _perm_to_matrix_data(n)
    lat = del_pezzo_lattice(n)
    images = [canonical_class(n)]
    for v in vecs[1:]:
        images.append(roots[p[index[v.coords]]])
    img_cols = [[w.coords[i] for w in images] for i in range(lat.rank)]
    prod = xl.mat_mul(img_cols, inv)
    matrix = []
    for row in prod:
        out_row = []
        for x in row:
            if getattr(x, "denominator", 1) != 1:
                raise InputError("permutation does not come from an integral isometry")
            out_row.append(int(x))
        matrix.append(tuple(out_row))
    return Isometry(lat, tuple(matrix))


def bfs_closure(gens, degree: int, limit: int = 10 ** 7):
    """All products of the generators, by breadth-first closure."""
    return closure([perm_identity(degree)], [_table(g) for g in gens], bytes.translate,
                   limit, "group closure")


def conjugacy_orbit(p: bytes, gens, limit: int = 10 ** 7):
    """Orbit of p under conjugation by the generated group."""
    pairs = [(perm_inverse(g), g) for g in gens]
    return closure([p], pairs, lambda q, pair: perm_compose(perm_compose(pair[0], q), pair[1]),
                   limit, "conjugacy orbit")


def all_involutions(n: int):
    """Every involution in the group, by full closure; small n only."""
    if n > 6:
        raise UnsupportedError("full enumeration is limited to n <= 6")
    _, _, gens = pg.root_action_context(n)
    degree = len(enumerate_roots(n))
    ident = perm_identity(degree)
    return [p for p in bfs_closure(gens, degree)
            if p != ident and perm_compose(p, p) == ident]


def key_orbit(key, n, limit: int = 3 * 10 ** 6):
    """The census oracle: the orbit of a key (sorted sign-canonical root ids)
    under the group, each member as bytes of its sorted ids.

    Root ids fit in a byte (root_action_context checks), so a generator acts
    on a key by one bytes.translate with the table i -> canon[g[i]].  The
    images of distinct pair ids are distinct pairs, so sorting the bytes
    gives the image key.
    """
    _, _, gens = pg.root_action_context(n)
    canon = _canon_table(n)
    tables = [_table(bytes(canon[j] for j in g)) for g in gens]
    return closure([bytes(key)], tables, lambda s, t: bytes(sorted(s.translate(t))),
                   limit, "class orbit")


def brute_force_root_count(n, coeff_bound: int = 3) -> int:
    """Independent root oracle: vectors of square -2 orthogonal to K.

    Exhaustive over |a_i| <= coeff_bound in the (H, E) basis, with
    branch-and-bound pruning on the two defining equations
    sum a_i^2 = a_0^2 + 2 and sum a_i = -3 a_0.
    """
    count = 0
    for a0 in range(-coeff_bound, coeff_bound + 1):
        norm_budget = a0 * a0 + 2          # remaining sum of squares
        sum_target = -3 * a0               # remaining coordinate sum

        def descend(k, budget, target):
            nonlocal count
            remaining = n - k
            if remaining == 0:
                if budget == 0 and target == 0:
                    count += 1
                return
            if budget < 0 or abs(target) > coeff_bound * remaining:
                return
            if target * target > budget * remaining:
                return
            for a in range(-coeff_bound, coeff_bound + 1):
                descend(k + 1, budget - a * a, target - a)

        descend(0, norm_budget, sum_target)
    return count


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260826)
