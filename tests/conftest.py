"""Shared helpers for the test suite."""
import importlib.util
import random
from pathlib import Path

import pytest

import delpezzo.permgroup as pg
from delpezzo import enumeration as en
from delpezzo.involutions import _canon_table
from delpezzo.lattice import Isometry, del_pezzo_lattice
from delpezzo.weyl import closure, reflection, weyl_generators


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
    tables = [pg._table(bytes(canon[j] for j in g)) for g in gens]
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
