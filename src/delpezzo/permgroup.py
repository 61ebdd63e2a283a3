"""The root action of the K-stabilizer, for the benchmark's set-up.

perfbench/run.py warms root_action_context(n) for n = 2..8 when it sets
up; no library path imports this module.  The byte-permutation oracles
that ran on it (group closure, conjugacy orbits, the involution census)
live in tests/conftest.py.  A permutation of degree < 256 is a bytes
object: entry i is the index of the image of root i.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import InputError, UnsupportedError
from .involutions import _roots_and_index
from .lattice import Isometry
from .weyl import reflection, weyl_generators


@lru_cache(maxsize=None)
def root_action_context(n: int):
    """Sorted root list, index lookup, and permutations of the simple reflections.

    Only the norm -2 generators act on the root list; this drops the odd
    n=2 generator, whose reflection does not permute the roots.
    """
    roots, index = _roots_and_index(n)
    if len(roots) > 255:
        raise UnsupportedError("root action degree exceeds byte range")
    gens = tuple(isometry_to_perm(reflection(v), n)
                 for v in weyl_generators(n).vectors if v.norm() == -2)
    return roots, index, gens


def isometry_to_perm(g: Isometry, n: int) -> bytes:
    """Action of a K-stabilizing isometry on the sorted root list."""
    roots, index = _roots_and_index(n)
    out = bytearray(len(roots))
    for i, r in enumerate(roots):
        img = g.apply(r)
        j = index.get(img.coords)
        if j is None:
            raise InputError("isometry does not permute the roots")
        out[i] = j
    return bytes(out)
