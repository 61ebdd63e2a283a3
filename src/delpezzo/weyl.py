"""Reflection groups stabilizing the canonical class of a blowup lattice.

For the rank n+1 lattice with basis (H, E_1, ..., E_n) the distinguished
class is K = -3H + E_1 + ... + E_n.  The group of interest is the full
integral isometry group fixing K; for 2 <= n <= 8 it is finite and
generated by reflections in roots (norm -2 vectors orthogonal to K).

The group O+(M_n), n <= 9, is the reflection group of a simplex, and
wall_generators gives reflections generating it; reduce_to_chamber moves a
vector of positive square into its fundamental chamber, and
chamber_conjugate uses that to put an involution into a normal basis.
normal_form goes one step further, to one normal form per conjugacy class
of involutions of O(M_n) = O+(M_n) x {+-1} (Richardson 1982): it reduces a
generic vector of the fixed lattice of +-g, from chamber_conjugate's
reduced vector, so that h g h^-1 = s w_I, with s = +-1 and w_I the
isometry that is -1 on the span of a set I of chamber walls
(_chamber_walls) and 1 on its orthogonal complement.

The K-slab tables are this module's alone to lay out.  _slab_table builds
each from the exact slab search: the roots (slab (-2, 0)), which
enumerate_roots and the W_n class layer of involutions read, the +1
classes (1, 3), the conics (0, 2) and the exceptional classes (-1, 1),
from which routes a to d of criteria read their first witness, and
_exceptional_products lays out the exceptional classes by their
coordinate products for route d.  A table (_Table) packs its entries x_j
into one Python int per coordinate i, plane_i = sum_j (x_j)_i 256^j
(_planes), so that one big-int multiply-add applies a row of a matrix to
every x_j at once, and _zero_fields reads which fields of such a
combination are 0: one byte-string read per mask, for all the rows of a
matrix at once, as their combinations' bytes are ORed first.  Its chunks
are blocks of _CHUNK entries with planes of their own, the byte slices of
the table's, built at the first lazy read, so a read evaluates only the
chunks it needs: the root table is read whole, in one pass, and the
others chunk by chunk.  Two readers take a block, the whole table or a
chunk, and are the only way any module reads a table: fixed_entries, the
entries g fixes (and those it negates, in the same pass), and
zero_entries, the entries a row combination sends to 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, UnsupportedError
from . import enumeration as en
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    Lattice,
    LatticeVector,
    del_pezzo_lattice,
    sign_canonical_coords,
)


@lru_cache(maxsize=None)
def canonical_class(n: int) -> LatticeVector:
    """K = -3H + E_1 + ... + E_n in the rank n+1 blowup lattice, built once
    per n (LatticeVector is frozen)."""
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
    """Reflections generating O+(M_n), the isometries keeping the positive
    cone, for 2 <= n <= 9.

    They include odd reflections (norm -1 mirrors), so the group is larger
    than the K-stabilizer.  Every vector has negative square, so each
    reflection keeps the positive cone: the group is O+(M_n), of index 2 in
    O(M_n) = O+(M_n) x {+-1}, and does not contain -1.  The first vector,
    H+E1+E2+E3 (H+E1+E2 for n = 2), is not the chamber wall alpha0 of
    reduce_to_chamber but its image under the sign changes of E1, E2, E3
    (E1, E2), which the E_i - E_{i+1} and E_n reflections generate.
    """
    return _wall_set(n, True)


def _wall_set(n: int, flipped: bool) -> GeneratorSet:
    """The walls of _chamber_walls(n), labelled: every wall but E_n, or
    with flipped every wall, with the signs of the E_i of alpha0 flipped;
    InputError outside 2 <= n <= 9."""
    lat = del_pezzo_lattice(n)
    if not 2 <= n <= 9:
        raise InputError(("wall generators" if flipped else "simple roots")
                         + " are defined for 2 <= n <= 9")
    walls = list(_chamber_walls(n))
    if flipped:
        walls[0] = (1,) + tuple(-x for x in walls[0][1:])
    else:
        walls.pop()
    sign = "+" if flipped else "-"
    labels = ["H" + "".join(f"{sign}E{i}" for i in range(1, min(n, 3) + 1))]
    labels += [f"E{i}-E{i + 1}" for i in range(1, n)] + [f"E{n}"]
    return GeneratorSet(lat, tuple(lat.vector(w) for w in walls), tuple(labels[:len(walls)]))


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


def _wall_word(x: Sequence[int], g: Optional[Sequence[Sequence[int]]],
               start: Optional[Sequence[Sequence[int]]] = None):
    """(x', h, g') for reduce_to_chamber(x), with g' = h g h^-1 when g (the
    rows of a matrix) is given, else None.  With start (the rows of h0) the
    returned h is the word times h0: every step acts on the rows of h from
    the left.

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
    rows = ([[int(i == j) for j in range(n + 1)] for i in range(n + 1)] if start is None
            else [list(r) for r in start])
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
    isometry, and the caller tests g^2 = 1 on g' (the eigen data of
    criteria.eigen_data, or Isometry.is_involution).  For an
    involution g(x) = +-x, so the reduced x' is fixed or negated by g'.
    g' is carried along the wall word (_wall_word).  A vector w' of g'
    belongs to g as h^-1 w'.  h^-1 = J h^T J with J = diag(1, -1, ...).
    """
    _, _, h, conj = _chamber(g)
    # h is a product of wall reflections, so h g h^-1 needs no form check
    return Isometry._trusted(g.lattice, conj), _inverse(h)


def _chamber(g: Isometry):
    """(s, x', h, g') of chamber_conjugate as plain int tuples: s the sign
    of g_00, x' = h x the reduced x = H + s g(H), h and g' = h g h^-1 by
    their rows."""
    mat = g.matrix
    sign = 1 if mat[0][0] > 0 else -1
    x = [int(i == 0) + sign * mat[i][0] for i in range(len(mat))]
    reduced, h, conj = _wall_word(x, mat)
    return sign, reduced, h, conj


def _inverse(h: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """h^-1 = J h^T J for an isometry h of M_n, J = diag(1, -1, ...)."""
    first, *rest = zip(*h)     # the columns of h, the rows of h^T
    return ((first[0], *(-y for y in first[1:])),
            *((-row[0], *row[1:]) for row in rest))


# normal_form draws at most this many perturbations before it gives up
NORMAL_FORM_DRAWS = 64
# the entries of a draw lie in [-_DRAW_RADIUS, _DRAW_RADIUS]
_DRAW_RADIUS = 10 ** 5


def _draws(size: int):
    """Yield the fixed draw sequence of normal_form on M_n, size = n + 1:
    NORMAL_FORM_DRAWS integer vectors of that size, entries in
    [-_DRAW_RADIUS, _DRAW_RADIUS], from a 64-bit linear congruential
    generator seeded with size, so every process and Python version draws
    the same.  Each draw is made when it is read."""
    state = size
    for _ in range(NORMAL_FORM_DRAWS):
        draw = []
        for _ in range(size):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            draw.append((state >> 33) % (2 * _DRAW_RADIUS + 1) - _DRAW_RADIUS)
        yield draw


@lru_cache(maxsize=None)
def _chamber_walls(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The walls of the fundamental chamber of reduce_to_chamber, in order:
    alpha0 = H - E1 - E2 - E3 (H - E1 - E2 for n = 2), E_i - E_{i+1} for
    i = 1..n-1, and E_n, as coordinate tuples, 2 <= n <= 9.  A vector x of
    the chamber has Q(x, alpha) >= 0 for each."""
    m = min(n, 3)
    walls = [(1,) + (-1,) * m + (0,) * (n - m)]
    walls += [(0,) * i + (1, -1) + (0,) * (n - i - 1) for i in range(1, n)]
    walls.append((0,) * n + (1,))
    return tuple(walls)


def normal_form(g: Isometry):
    """(s, I, h, h^-1, g') for an involution g of M_n, 2 <= n <= 9, with
    h g h^-1 = s g' and g' = w_I: s = +-1 the sign of g_00, I a tuple of
    walls of the fundamental chamber (_chamber_walls, in that order), w_I
    the isometry that is -1 on the span of I and 1 on its orthogonal
    complement, h an isometry of O+(M_n) and h^-1 = J h^T J by their rows,
    and g' an Isometry.

    g^2 = 1 is tested before any draw (_normal_form), else
    InputError("not an involution"), as is a lattice other than M_n.  Every
    involution of O(M_n) = O+(M_n) x {+-1} is conjugate to such an s w_I
    (Richardson 1982; Vinberg 1972).  The method:

    - g~ = s g lies in O+, and its +1 eigenspace L+ holds the x' of
      chamber_conjugate, x' = h0 x with x^2 > 0, fixed by g~' = h0 g~ h0^-1.
    - A draw u (_draws) gives v = N x' + (1 + g~') u, with N doubled from 1
      until v^2 > 0 and v_0 > 0.  v lies in L+(g~'), and the vectors
      (1 + g~') u span a full-rank sublattice of it, as it holds 2 L+.
    - _wall_word carries g~' along the word h1 that reduces v, from the
      rows of h0, so h = h1 h0 and g' = h g~ h^-1 fixes v' = h1 v.
      v' lies in the closed chamber, and I is the set of walls through it.
    - For a generic v, Stab(v') = W_I is finite (v' is timelike) and holds
      g', and W_I is the identity on the orthogonal complement of span I,
      so the -1 eigenspace of g' lies in span I.  It is all of span I, and
      g' is w_I, exactly when |I| = rank L-(g~) = (n + 1 - tr g~) / 2; the
      draw is accepted when that holds and g' alpha = -alpha for every
      alpha in I, which checks it.  A draw that fails (v' on a further
      wall) is followed by the next, and after NORMAL_FORM_DRAWS failed
      draws UnsupportedError is raised, so no input loops.

    Everything is exact integer arithmetic, and there is no second
    reduction loop: _wall_word goes on from h0 and the reduced x', next to
    which v starts.  w_I fixes K exactly when K is orthogonal to every wall
    of I: for n >= 3 when E_n is not in I, as alpha0 and the E_i - E_{i+1}
    are orthogonal to K (at n = 2, alpha0 = H - E1 - E2 is not).
    """
    if g.lattice != del_pezzo_lattice(g.lattice.rank - 1):
        raise InputError("the normal form is defined on the blowup lattice M_n")
    return _normal_form(g.lattice, *_chamber(g))


def _normal_form(lattice: Lattice, sign: int, x: Sequence[int], h: Sequence[Sequence[int]],
                 conj: Sequence[Sequence[int]]):
    """normal_form from the (s, x', h0, g') of _chamber.  Before any draw,
    InputError("not an involution") unless J g' is symmetric: g' is an
    isometry, so g'^-1 = J g'^T J, and g'^2 = 1 exactly when J g' = g'^T J
    (as Isometry.is_involution reads it, on the rows held here).  A draw
    can pass the acceptance test below on a non-involution."""
    size = len(x)
    # J = diag(1, -1, ..., -1): (J g')_ij = (J g')_ji
    if any(conj[i][j] != (conj[j][i] if j else -conj[j][i])
           for i in range(1, size) for j in range(i)):
        raise InputError("not an involution")
    walls = _chamber_walls(size - 1)
    tilde = conj if sign > 0 else [[-y for y in row] for row in conj]
    rank = (size - sum(tilde[i][i] for i in range(size))) // 2
    for u in _draws(size):
        w = [a + sum(map(mul, row, u)) for a, row in zip(u, tilde)]
        scale = 1
        while True:
            v = [scale * a + b for a, b in zip(x, w)]
            if v[0] > 0 and v[0] * v[0] > sum(y * y for y in v[1:]):
                break
            scale *= 2
        reduced, word, g_nf = _wall_word(v, tilde, h)
        # Q(v', alpha) = 0, and then g' alpha = -alpha
        through = [alpha for alpha in walls
                   if reduced[0] * alpha[0] == sum(map(mul, reduced[1:], alpha[1:]))]
        if len(through) == rank and all(
                tuple(-sum(map(mul, row, alpha)) for row in g_nf) == alpha
                for alpha in through):
            return (sign, tuple(through), word, _inverse(word),
                    Isometry._trusted(lattice, g_nf))
    raise UnsupportedError(f"normal form: no generic draw in {NORMAL_FORM_DRAWS}")


@lru_cache(maxsize=None)
def weyl_generators(n: int) -> GeneratorSet:
    """Simple-root reflections generating the stabilizer of K, for n >= 3.

    For n = 2 the first generator is the norm -1 class H - E1 - E2, whose
    reflection moves K; the two reflections generate a group of order 4
    that contains the K-stabilizer <s_{E1-E2}> with index 2.
    """
    return _wall_set(n, False)


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


@lru_cache(maxsize=None)
def enumerate_roots(n: int) -> RootSystem:
    """Complete list of roots, sorted: the sign-canonical roots of
    _slab_table(n, -2, 0) and their negatives."""
    if not 2 <= n <= 8:
        raise InputError("root enumeration requires 2 <= n <= 8")
    lat = del_pezzo_lattice(n)
    half = _slab_table(n, -2, 0).vectors
    coords = sorted(half + tuple(tuple(-x for x in c) for c in half))
    return RootSystem(n, tuple(lat.vector(c) for c in coords), weyl_generators(n).vectors)


# A field of a plane is one byte, read after adding _OFFSET to it: exact
# while every field v of the plane combination has |v| < _OFFSET.
_OFFSET = 128
# bytes.translate table: a zero byte to "1", any other to "0"
_ZERO_DIGITS = bytes(ord("1") if b == 0 else ord("0") for b in range(256))
# entries per chunk of a table (_Table.chunks)
_CHUNK = 64


def _planes(vectors: Sequence[Sequence[int]], bound: int) -> Tuple[Tuple[int, ...], int]:
    """(planes, offset): for each coordinate i the plane
    sum_j vectors[j]_i 256^j, and sum_j _OFFSET 256^j.

    A combination sum_i c_i plane_i holds sum_i c_i vectors[j]_i in field j.
    With every field v_j in (-128, 128), x + offset = sum_j (v_j + 128) 256^j
    has digits v_j + 128 in [0, 256), so its bytes are the fields exactly
    (_zero_fields).  bound is the largest |v| a field of the combinations
    the caller reads can hold; RuntimeError unless it is below _OFFSET.
    Each plane is read from the bytes of its fields, which must lie within
    +-127 themselves (bytes raises ValueError otherwise).
    """
    if bound >= _OFFSET:
        raise RuntimeError("plane combinations do not fit the plane fields")
    offset = int.from_bytes(bytes([_OFFSET]) * len(vectors), "little")
    planes = tuple(int.from_bytes(bytes([x + _OFFSET for x in column]), "little") - offset
                   for column in zip(*vectors))
    return planes, offset


def _zero_fields(mask: int, size: int) -> int:
    """The bitmask of the zero bytes of mask, bit j for byte j, of its size
    low bytes.  (x + offset) ^ offset, for a plane combination x within the
    bound of _planes, has byte j zero exactly when field j of x is 0, and
    the OR of several such masks exactly when field j is 0 in each."""
    return int(mask.to_bytes(size, "big").translate(_ZERO_DIGITS), 2)


def _chunked(block) -> Tuple[tuple, ...]:
    """The blocks of _CHUNK entries of a block, the last one short: each
    one's planes are the byte slices of plane + offset over its entries,
    so a combination of them holds, in field j, field start + j of the same
    combination of the whole planes."""
    _, size, planes, offset = block
    fields = [(plane + offset).to_bytes(size, "little") for plane in planes]
    chunks = []
    for start in range(0, size, _CHUNK):
        count = min(_CHUNK, size - start)
        base = int.from_bytes(bytes([_OFFSET]) * count, "little")
        chunks.append((start, count, tuple(int.from_bytes(f[start:start + count], "little")
                                           - base for f in fields), base))
    return tuple(chunks)


class _Table:
    """The entries vectors of a table, laid out in planes (_planes) from
    fields, one row per entry (the vectors themselves when None), whose
    combinations the readers take within bound: whole, the block of every
    entry, and chunks, the blocks of _CHUNK entries each, built at the
    first lazy read (_chunked).  A block is (start, count, planes, offset),
    with entry start + j in field j of its planes."""

    def __init__(self, vectors, bound: int, fields=None):
        planes, offset = _planes(vectors if fields is None else fields, bound)
        self.vectors = vectors
        self.whole = (0, len(vectors), planes, offset)

    @cached_property
    def chunks(self) -> Tuple[tuple, ...]:
        return _chunked(self.whole)


def fixed_entries(rows, block, negated: bool = False):
    """The bitmask of the entries x of a table block with g x = x, for the
    rows of g, bit start + j for its entry j: row_k(g) . planes - plane_k
    holds (g x - x)_k in each field, and the fixed entries are the fields
    that are 0 in every row k.  The rows' masks (x + offset) ^ offset are
    ORed together and their zero bytes read once (_zero_fields).  With
    negated, the pair (fixed, negated) of that mask and the one of the x
    with g x = -x, from row_k(g) . planes + plane_k in the same pass.  The
    caller keeps every field of g x -+ x within the table's bound, as an
    isometry fixing K does on a K-slab table (_slab_table)."""
    start, count, planes, offset = block
    moved = flipped = 0
    for row, plane in zip(rows, planes):
        image = sum(map(mul, row, planes)) + offset
        moved |= (image - plane) ^ offset
        if negated:
            flipped |= (image + plane) ^ offset
    fixed = _zero_fields(moved, count) << start
    return (fixed, _zero_fields(flipped, count) << start) if negated else fixed


def zero_entries(scales, block) -> int:
    """The bitmask of the entries of a table block that the combination
    sum_i scales_i plane_i sends to 0, bit start + j for its entry j.  The
    caller keeps every field of the combination within the table's
    bound."""
    start, count, planes, offset = block
    return _zero_fields((sum(map(mul, scales, planes)) + offset) ^ offset, count) << start


@lru_cache(maxsize=None)
def _slab_table(n: int, square: int, t: int) -> _Table:
    """The _Table of the vectors c of M_n with c^2 = square and K.c = +-t,
    one of each +-pair, sign-canonical and sorted, for 2 <= n <= 8, built
    once per (n, square, t).

    The vectors come from the exact slab search, AnchorFrame(J, K).slab,
    divided by m = K^2; slab t = 0 holds both signs of each vector and slab
    t > 0 one.  Roots are slab (-2, 0), exceptional classes slab (-1, 1).
    The field bound, checked by _planes, is twice the largest |coordinate|:
    an isometry g fixing K preserves c^2 and K.c, so it permutes the
    vectors up to sign, and each field of g c -+ c lies within that bound.
    """
    frame = en.AnchorFrame(del_pezzo_lattice(n).gram, canonical_class(n).coords)
    m = frame.m
    vectors = tuple(sorted({sign_canonical_coords(tuple([x // m for x in c]))
                            for c in frame.slab(square, t)}))
    return _Table(vectors, 2 * max(abs(x) for c in vectors for x in c))


@lru_cache(maxsize=None)
def _exceptional_products(n: int) -> Tuple[Tuple[Tuple[int, int], ...], _Table]:
    """(pairs, products): the coordinate pairs (a, b), a <= b, of M_n and
    the _Table of the exceptional classes c of _slab_table(n, -1, 1) laid
    out by their coordinate products, c_a c_b in plane (a, b).

    With c = (K.c / K^2) K + e, e^2 = -1 - 1/K^2 in the negative definite
    K-perp, so |c . c'| <= 1/K^2 + |e| |e'| <= 1 + 2/K^2, at most 3, for any
    two classes c, c' (Cauchy-Schwarz), which bounds every field of c . g c.
    """
    classes = _slab_table(n, -1, 1).vectors
    pairs = tuple((a, b) for a in range(n + 1) for b in range(a, n + 1))
    # the bound above, with K^2 = 9 - n
    return pairs, _Table(classes, 1 + 2 // (9 - n),
                         [[c[a] * c[b] for a, b in pairs] for c in classes])


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
    """Edge orders m(i, j) >= 3 between generator labels; 0 marks infinite.

    s_a s_b has order m(a, b) with 4 (a.b)^2 / (a^2 b^2) = 4 cos^2(pi / m)
    on a definite plane span(a, b): the values 0, 1, 2, 3 give m = 2, 3, 4,
    6.  Four or more, or a^2 b^2 < 0 with a.b != 0, gives infinite order.
    The ratio is an integer, since a^2 and b^2 are +-1 or +-2, as for any
    integral reflection.
    """
    vecs = gens.vectors
    norms = [v.norm() for v in vecs]
    if not set(norms) <= {1, -1, 2, -2}:
        raise InputError("reflection requires self-intersection in {+-1, +-2}")
    edges: Dict[Tuple[str, str], int] = {}
    for i, a in enumerate(vecs):
        for j in range(i + 1, len(vecs)):
            ab = a.dot(vecs[j])
            if ab:
                ratio = 4 * ab * ab // (norms[i] * norms[j])
                edges[(gens.labels[i], gens.labels[j])] = {1: 3, 2: 4, 3: 6}.get(ratio, 0)
    return edges
