"""Fast permutation machinery for lattice groups acting on root lists.

Permutations of degree < 256 are stored as bytes objects, so composition
is a single bytes.translate call.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Set

from .errors import InputError, UnsupportedError
from . import exactlinalg as xl
from .lattice import Isometry, del_pezzo_lattice
from .weyl import canonical_class, closure, enumerate_roots, reflection, weyl_generators

Perm = bytes


def _table(q: Perm) -> bytes:
    """Pad a permutation to the 256-byte table bytes.translate expects."""
    return q + bytes(range(len(q), 256))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """The permutation 'first p, then q'."""
    return p.translate(_table(q))


def perm_identity(degree: int) -> Perm:
    return bytes(range(degree))


def perm_inverse(p: Perm) -> Perm:
    out = bytearray(len(p))
    for i, j in enumerate(p):
        out[j] = i
    return bytes(out)


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


def isometry_to_perm(g: Isometry, n: int) -> Perm:
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


@lru_cache(maxsize=None)
def _roots_and_index(n: int):
    roots = enumerate_roots(n).roots
    return roots, {r.coords: i for i, r in enumerate(roots)}


@lru_cache(maxsize=None)
def _perm_to_matrix_data(n: int):
    # columns: K followed by the simple roots; invertible over Q
    lat = del_pezzo_lattice(n)
    vecs = [canonical_class(n)] + list(weyl_generators(n).vectors)
    cols = [[v.coords[i] for v in vecs] for i in range(lat.rank)]
    return vecs, cols, xl.inverse(cols)


def perm_to_isometry(p: Perm, n: int) -> Isometry:
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


def bfs_closure(gens: Sequence[Perm], degree: int, limit: int = 10 ** 7) -> Set[Perm]:
    """All products of the generators, by breadth-first closure."""
    return closure([perm_identity(degree)], [_table(g) for g in gens], bytes.translate,
                   limit, "group closure")


def conjugacy_orbit(p: Perm, gens: Sequence[Perm], limit: int = 10 ** 7) -> Set[Perm]:
    """Orbit of p under conjugation by the generated group."""
    pairs = [(perm_inverse(g), g) for g in gens]
    return closure([p], pairs, lambda q, pair: perm_compose(perm_compose(pair[0], q), pair[1]),
                   limit, "conjugacy orbit")
