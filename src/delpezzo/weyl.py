"""Reflection groups stabilizing the canonical class of a blowup lattice.

For the rank n+1 lattice with basis (H, E_1, ..., E_n) the distinguished
class is K = -3H + E_1 + ... + E_n.  The group of interest is the full
integral isometry group fixing K; for 2 <= n <= 8 it is finite and
generated by reflections in roots (norm -2 vectors orthogonal to K).

The whole group O+(M_n), n <= 9, is the reflection group of a simplex
(wall_generators); reduce_to_chamber moves a vector of positive square into
its fundamental chamber, and chamber_conjugate uses that to put an
involution into a normal basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, UnsupportedError
from . import enumeration as en
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    Lattice,
    LatticeVector,
    del_pezzo_lattice,
    del_pezzo_vector,
    orthogonal_complement,
    sign_canonical_coords,
    span,
)

def canonical_class(n: int) -> LatticeVector:
    """K = -3H + E_1 + ... + E_n in the rank n+1 blowup lattice."""
    lat = del_pezzo_lattice(n)
    return lat.vector((-3,) + (1,) * n)


def reflection(v: LatticeVector) -> Isometry:
    """The reflection w -> w - (2 Q(v,w) / Q(v,v)) v.

    Integral exactly when Q(v,v) divides 2 Q(v, b) for every basis vector b,
    which holds whenever Q(v,v) is +-1 or +-2; other norms are rejected.
    """
    return product_of_reflections([v])


@dataclass(frozen=True)
class GeneratorSet:
    """A labelled family of reflection generators of a lattice group."""

    lattice: Lattice
    vectors: Tuple[LatticeVector, ...]
    labels: Tuple[str, ...]

    def isometries(self) -> Tuple[Isometry, ...]:
        return tuple(reflection(v) for v in self.vectors)

    def __len__(self):
        return len(self.vectors)


@lru_cache(maxsize=None)
def wall_generators(n: int) -> GeneratorSet:
    """Reflections generating the full isometry group of the blowup lattice.

    These include odd reflections (norm +-1 mirrors), so the group they
    generate is the whole orthogonal group, not just the K-stabilizer.
    """
    lat = del_pezzo_lattice(n)
    if n == 2:
        vecs = (del_pezzo_vector(2, 1, {1: 1, 2: 1}), del_pezzo_vector(2, 0, {1: 1, 2: -1}),
                del_pezzo_vector(2, 0, {2: 1}))
        labels = ("H+E1+E2", "E1-E2", "E2")
    elif 3 <= n <= 9:
        vecs = [del_pezzo_vector(n, 1, {1: 1, 2: 1, 3: 1})]
        labels = ["H+E1+E2+E3"]
        for i in range(1, n):
            vecs.append(del_pezzo_vector(n, 0, {i: 1, i + 1: -1}))
            labels.append(f"E{i}-E{i + 1}")
        vecs.append(del_pezzo_vector(n, 0, {n: 1}))
        labels.append(f"E{n}")
        vecs = tuple(vecs)
        labels = tuple(labels)
    else:
        raise InputError("wall generators are defined for 2 <= n <= 9")
    return GeneratorSet(lat, vecs, labels)


def reduce_to_chamber(x: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """(x', h) with x' = h x in the fundamental chamber of O+(M_n), 2 <= n <= 9.

    For n <= 9, O+(M_n) is the reflection group of a simplex with walls
    alpha0 = H - E1 - E2 - E3 (H - E1 - E2 for n = 2), E_i - E_{i+1} and E_n
    (Vinberg 1972).  Writing x = aH + sum c_i E_i with x^2 > 0 and a > 0:
    reflect in E_i while some c_i > 0, sort so that c_1 <= ... <= c_n, and
    reflect in alpha0 while Q(x, alpha0) = a + c_1 + c_2 (+ c_3) < 0.  Each
    alpha0 step strictly lowers a, so the loop ends.  Everything runs on
    plain integers; h comes back as the rows of its matrix.  The loop is
    _wall_word, which chamber_conjugate runs with a matrix carried along.
    """
    reduced, h, _ = _wall_word(x, None)
    return reduced, h


def _wall_word(x: Sequence[int], g: Optional[Sequence[Sequence[int]]]):
    """(x', h, g') for reduce_to_chamber(x), with g' = h g h^-1 when g (the
    rows of a matrix) is given, else None.

    g' is carried along the word one wall at a time, with no matrix
    product: a sign flip in E_i negates row and column i, a sort permutes
    rows and columns alike, and the alpha0 reflection
    S = S^-1 = 1 + step alpha0 e^T (e the indicator of the first m + 1
    coordinates, since Q(y, alpha0) = e.y) makes S g' S from two rank-one
    updates, of rows 0..m and of columns 0..m.
    """
    n = len(x) - 1
    if not 2 <= n <= 9:
        raise InputError("chamber reduction is defined for 2 <= n <= 9")
    a, c = x[0], list(x[1:])
    if a <= 0 or a * a <= sum(y * y for y in c):
        raise InputError("chamber reduction needs x^2 > 0 and a positive H coefficient")
    m = min(n, 3)
    step = 2 if n == 2 else 1    # -2 / Q(alpha0, alpha0)
    rows = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    conj = None if g is None else [list(r) for r in g]
    while True:
        for i in range(n):
            if c[i] > 0:
                c[i] = -c[i]
                rows[i + 1] = [-y for y in rows[i + 1]]
                if conj is not None:
                    conj[i + 1] = [-y for y in conj[i + 1]]
                    for r in conj:
                        r[i + 1] = -r[i + 1]
        order = sorted(range(n), key=c.__getitem__)
        c = [c[i] for i in order]
        perm = [0] + [i + 1 for i in order]
        rows = [rows[i] for i in perm]
        if conj is not None:
            conj = [[r[i] for i in perm] for r in (conj[i] for i in perm)]
        q = a + sum(c[:m])
        if q >= 0:
            return ((a, *c), tuple(tuple(r) for r in rows),
                    None if conj is None else tuple(tuple(r) for r in conj))
        # y -> y + step * Q(y, alpha0) * alpha0, on x and on every column of h
        # and of g' (S g')
        t = step * q
        a += t
        for i in range(m):
            c[i] -= t
        for mat in (rows,) if conj is None else (rows, conj):
            w = [step * sum(col) for col in zip(*mat[:m + 1])]
            mat[0] = [y + d for y, d in zip(mat[0], w)]
            for i in range(1, m + 1):
                mat[i] = [y - d for y, d in zip(mat[i], w)]
        if conj is not None:
            # and g' S: column j <= m gains step * (g' alpha0) in each row
            for r in conj:
                d = step * (r[0] - sum(r[1:m + 1]))
                for j in range(m + 1):
                    r[j] += d


def chamber_conjugate(g: Isometry) -> Tuple[Isometry, Tuple[Tuple[int, ...], ...]]:
    """(g', h^-1) with g' = h g h^-1 for the h of reduce_to_chamber(x).

    x = H + g(H), or H - g(H) when Q(H, gH) < 0, so x^2 = 2 + 2|g_00| > 0
    and its H coefficient is 1 + |g_00| > 0: the reduction runs on any
    isometry, and the caller's eigen data (criteria.eigen_data) is what
    tests g^2 = 1.  For an involution g(x) = +-x, so the reduced x' is fixed
    or negated by g'.  g' is carried along the wall word (_wall_word).  A
    vector w' of g' belongs to g as h^-1 w'.  h^-1 = J h^T J with
    J = diag(1, -1, ...).
    """
    mat = g.matrix
    size = len(mat)
    sign = 1 if mat[0][0] > 0 else -1
    x = [int(i == 0) + sign * mat[i][0] for i in range(size)]
    _, h, conj = _wall_word(x, mat)
    j = [1] + [-1] * (size - 1)
    h_inv = tuple(tuple(j[r] * h[c][r] * j[c] for c in range(size)) for r in range(size))
    # h is a product of wall reflections, so h g h^-1 needs no form check
    return Isometry._trusted(g.lattice, conj), h_inv


@lru_cache(maxsize=None)
def weyl_generators(n: int) -> GeneratorSet:
    """Simple-root reflections generating the stabilizer of K, for n >= 3.

    For n = 2 the first generator is the norm -1 class H - E1 - E2, whose
    reflection moves K; the two reflections generate a group of order 4
    that contains the K-stabilizer <s_{E1-E2}> with index 2.
    """
    lat = del_pezzo_lattice(n)
    if n == 2:
        vecs = (del_pezzo_vector(2, 1, {1: -1, 2: -1}),
                del_pezzo_vector(2, 0, {1: 1, 2: -1}))
        labels = ("H-E1-E2", "E1-E2")
    elif 3 <= n <= 9:
        vecs = [del_pezzo_vector(n, 1, {1: -1, 2: -1, 3: -1})]
        labels = ["H-E1-E2-E3"]
        for i in range(1, n):
            vecs.append(del_pezzo_vector(n, 0, {i: 1, i + 1: -1}))
            labels.append(f"E{i}-E{i + 1}")
        vecs = tuple(vecs)
        labels = tuple(labels)
    else:
        raise InputError("simple roots are defined for 2 <= n <= 9")
    return GeneratorSet(lat, vecs, labels)


@dataclass(frozen=True)
class RootSystem:
    """All roots (norm -2 vectors orthogonal to K) of a blowup lattice."""

    n: int
    roots: Tuple[LatticeVector, ...]
    simple_roots: Tuple[LatticeVector, ...]

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def positive(self) -> Tuple[LatticeVector, ...]:
        """One representative per +-pair, canonical sign."""
        return tuple(r for r in self.roots if sign_canonical_coords(r.coords) == r.coords)


@lru_cache(maxsize=None)
def enumerate_roots(n: int) -> RootSystem:
    """Complete list of roots, found by a definite search in K-perp."""
    if not 2 <= n <= 8:
        raise InputError("root enumeration requires 2 <= n <= 8")
    lat = del_pezzo_lattice(n)
    k = canonical_class(n)
    kperp = orthogonal_complement(span(lat, [k]))
    coords = en.definite_vectors(kperp.gram(), -2, kperp._rows)
    roots = sorted(lat.vector(c) for c in coords)
    return RootSystem(n, tuple(roots), weyl_generators(n).vectors)


@lru_cache(maxsize=None)
def weyl_order(n: int) -> int:
    """Order of the group generated by weyl_generators(n), by orbit-stabilizer.

    For n >= 3 that group is the K-stabilizer W_n.  For n = 2 it also
    contains the odd reflection in H - E1 - E2, which moves K: the value 4
    counts the group <s_{H-E1-E2}, s_{E1-E2}>, and the K-stabilizer itself
    is <s_{E1-E2}>, of order 2.
    """
    if not 2 <= n <= 8:
        raise InputError("group order is available for 2 <= n <= 8")
    gens = weyl_generators(n)
    return _reflection_group_order(orbit(gens.vectors, gens))


def _reflection_group_order(vectors: Sequence[LatticeVector]) -> int:
    """Order of the finite group W generated by the reflections in vectors.

    vectors must be closed under W.  |W| = |W v| |W_v| for v = vectors[0],
    and by Steinberg's theorem the stabilizer W_v is generated by the
    reflections in the w of vectors with Q(w, v) = 0, a W_v-closed set.
    """
    if not vectors:
        return 1
    v = vectors[0]
    # s_w = s_{-w}: one reflection per +-pair
    gens = [reflection(w) for w in vectors if sign_canonical_coords(w.coords) == w.coords]
    return len(orbit(v, gens)) * _reflection_group_order(
        [w for w in vectors if w.dot(v) == 0])


def stabilizes_canonical_class(g: Isometry, n: int) -> bool:
    k = canonical_class(n)
    return g.lattice == del_pezzo_lattice(n) and g.apply(k) == k


def product_of_reflections(vectors: Sequence[LatticeVector]) -> Isometry:
    """Ref_{v_0} Ref_{v_1} ... Ref_{v_k}, each v_i of norm +-1 or +-2.

    Works on the integer columns of the product: the factors act from the
    last to the first, each column c becoming c - (2 Q(v, c) / Q(v, v)) v,
    and the finished matrix is checked once as an Isometry.
    """
    if not vectors:
        raise InputError("empty reflection product")
    lat = vectors[0].lattice
    n = lat.rank
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for v in reversed(vectors):
        if v.lattice != lat:
            raise InputError("isometries act on different lattices")
        nv = v.norm()
        if nv not in (1, -1, 2, -2):
            raise InputError("reflection requires self-intersection in {+-1, +-2}")
        gv = xl.mat_vec(lat.gram, list(v.coords))
        for c in cols:
            k = 2 * sum(a * b for a, b in zip(gv, c)) // nv
            if k:
                for i, vi in enumerate(v.coords):
                    c[i] -= k * vi
    return Isometry(lat, tuple(tuple(c[i] for c in cols) for i in range(n)))


def closure(seeds, gens, act, limit: int, what: str = "orbit") -> set:
    """Everything reached from the seeds by steps x -> act(x, g), g in gens.

    Breadth first; the items must be hashable.  Raises UnsupportedError
    ("<what> exceeded the safety limit") rather than hold more than limit.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    if len(seen) >= limit:
                        raise UnsupportedError(f"{what} exceeded the safety limit")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def orbit(seed, gens, limit: int = 10 ** 6) -> List[LatticeVector]:
    """Orbit of a seed vector (or vectors) under a generated group."""
    vectors = [seed] if isinstance(seed, LatticeVector) else seed
    generators = gens.isometries() if isinstance(gens, GeneratorSet) else list(gens)
    return sorted(closure(vectors, generators, lambda v, g: g.apply(v), limit))


def coxeter_diagram(gens: GeneratorSet) -> Dict[Tuple[str, str], int]:
    """Edge orders m(i, j) >= 3 between generator labels; 0 marks infinite."""
    edges: Dict[Tuple[str, str], int] = {}
    gi = gens.isometries()
    n = len(gens)
    for i in range(n):
        for j in range(i + 1, n):
            prod = gi[i] @ gi[j]
            m = _element_order(prod, cap=12)
            if m >= 3 or m == 0:
                edges[(gens.labels[i], gens.labels[j])] = m
    return edges


def _element_order(g: Isometry, cap: int = 10 ** 6) -> int:
    acc = g
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc @ g
    return 0
