"""Unimodular lattices of blowup type and exact sublattice operations.

The main ambient lattice has Gram matrix diag(1, -1, ..., -1) in the basis
(H, E_1, ..., E_n).  Two derived bases are supported: the rank-2 even
hyperbolic lattice with basis (S_1, S_2), and its blowup extension with
basis (S_1, S_2, e_1, ..., e_{n-1}).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import InputError, all_json_ints
from . import exactlinalg as xl

Coords = Tuple[int, ...]


@dataclass(frozen=True)
class Lattice:
    """A finitely generated free Z-module with an integral symmetric form."""

    gram: Tuple[Tuple[int, ...], ...]
    basis_labels: Tuple[str, ...]

    def __post_init__(self):
        n = len(self.gram)
        if len(self.basis_labels) != n:
            raise InputError("label count does not match rank")
        for i in range(n):
            if len(self.gram[i]) != n:
                raise InputError("Gram matrix is not square")
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InputError("Gram matrix is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def vector(self, coords: Sequence[int]) -> "LatticeVector":
        """The vector with the given coordinates, which must be ints (not
        bools): anything else raises InputError, with nothing truncated."""
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise InputError("coordinate length does not match rank")
        if not all_json_ints(coords):
            raise InputError("coordinates must be integers")
        return LatticeVector(self, coords)

    def basis_vector(self, i: int) -> "LatticeVector":
        return self.vector(tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self) -> "LatticeVector":
        return self.vector((0,) * self.rank)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "gram": [list(row) for row in self.gram],
            "basis": list(self.basis_labels),
        }


@dataclass(frozen=True, order=True)
class LatticeVector:
    lattice: Lattice = field(compare=False)
    coords: Coords = field(compare=True)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _same_lattice(self, other)
        return LatticeVector(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _same_lattice(self, other)
        return LatticeVector(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(self.lattice, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "LatticeVector":
        return LatticeVector(self.lattice, tuple(k * a for a in self.coords))

    def dot(self, other: "LatticeVector") -> int:
        _same_lattice(self, other)
        return inner(self.lattice, self, other)

    def norm(self) -> int:
        return self.dot(self)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_primitive(self) -> bool:
        from math import gcd
        g = 0
        for c in self.coords:
            g = gcd(g, c)
        return g == 1


def sign_canonical_coords(coords: Sequence[int]) -> Coords:
    """The coordinates up to sign, with the first nonzero entry positive."""
    for x in coords:
        if x:
            return tuple(coords) if x > 0 else tuple(-y for y in coords)
    return tuple(coords)


def sign_canonical(v: LatticeVector) -> LatticeVector:
    """v or -v, whichever has its first nonzero coordinate positive."""
    return LatticeVector(v.lattice, sign_canonical_coords(v.coords))


def _same_lattice(u: LatticeVector, v: LatticeVector) -> None:
    if u.lattice != v.lattice:
        raise InputError("vectors live in different lattices")


@lru_cache(maxsize=None)
def _diagonal(gram: Tuple[Tuple[int, ...], ...]) -> Optional[Tuple[int, ...]]:
    n = len(gram)
    if all(gram[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        return tuple(gram[i][i] for i in range(n))
    return None


@lru_cache(maxsize=None)
def _unit_diagonal(gram: Tuple[Tuple[int, ...], ...]) -> Optional[Tuple[int, ...]]:
    """The diagonal of a diagonal +-1 form, else None."""
    diag = _diagonal(gram)
    return diag if diag is not None and all(d in (1, -1) for d in diag) else None


@lru_cache(maxsize=None)
def _is_degenerate(gram: Tuple[Tuple[int, ...], ...]) -> bool:
    """Whether det gram == 0; a diagonal form is read off its diagonal."""
    diag = _diagonal(gram)
    return 0 in diag if diag is not None else xl.det(gram) == 0


def gram_of(gram: Tuple[Tuple[int, ...], ...], vecs: Sequence[Sequence[int]]):
    """The Gram matrix (u_i . u_j) of the given vectors under the form gram.

    Each u_i is multiplied by the form once, by its diagonal when the form
    is diagonal, and each pair i <= j costs one product of length rank.
    """
    diag = _diagonal(gram)
    if diag is not None:
        left = [tuple(map(mul, diag, u)) for u in vecs]
    else:
        left = [xl.mat_vec(gram, u) for u in vecs]
    k = len(vecs)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        gu, row = left[i], out[i]
        for j in range(i, k):
            row[j] = out[j][i] = sum(map(mul, gu, vecs[j]))
    return tuple(tuple(row) for row in out)


def _preserves_unit_form(diag: Tuple[int, ...], rows, top: int) -> bool:
    """Whether g^T J g = J for J = diag(diag), a diagonal +-1 form, and g
    given by its rows with every |entry| <= top, as one big-int identity.

    Row k packed as a_k = sum_i g_ki 2^(w i) and as b_k = sum_j g_kj
    2^(w size j) gives sum_k J_kk a_k b_k = sum_ij (g^T J g)_ij
    2^(w (i + size j)), and J packs as sum_i J_ii 2^((w size + w) i).  Every
    field of either side is at most size top^2 + 1 < 2^(w-1) in absolute
    value, so the balanced base-2^w digits of each side are its fields, and
    the two sides are equal exactly when every field is."""
    size = len(diag)
    w = (size * top * top + 1).bit_length() + 1
    wide = w * size
    total = 0
    for d, row in zip(diag, rows):
        a = b = 0
        for x in reversed(row):
            a = (a << w) + x
            b = (b << wide) + x
        total += a * b if d > 0 else -a * b
    return total == sum(d << ((wide + w) * i) for i, d in enumerate(diag))


def inner(lattice: Lattice, u: LatticeVector, v: LatticeVector) -> int:
    """The bilinear form Q(u, v) of the given lattice."""
    if u.lattice != lattice or v.lattice != lattice:
        raise InputError("vector does not belong to the given lattice")
    diag = _diagonal(lattice.gram)
    if diag is not None:
        return sum(d * a * b for d, a, b in zip(diag, u.coords, v.coords))
    total = 0
    for i, a in enumerate(u.coords):
        if a:
            row = lattice.gram[i]
            total += a * sum(row[j] * b for j, b in enumerate(v.coords) if b)
    return total


@lru_cache(maxsize=None)
def del_pezzo_lattice(n: int) -> Lattice:
    """Rank n+1 odd unimodular lattice with basis (H, E_1, ..., E_n)."""
    if not 0 <= n <= 9:
        raise InputError("del Pezzo index n must satisfy 0 <= n <= 9")
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n + 1))
        for i in range(n + 1)
    )
    labels = ("H",) + tuple(f"E{i}" for i in range(1, n + 1))
    return Lattice(gram, labels)


def del_pezzo_vector(n: int, h: int, es: Dict[int, int]) -> LatticeVector:
    """The class h H + sum of es[i] E_i in the rank n+1 blowup lattice."""
    coords = [h] + [0] * n
    for i, c in es.items():
        coords[i] = c
    return del_pezzo_lattice(n).vector(coords)


@lru_cache(maxsize=None)
def quadric_lattice() -> Lattice:
    """Rank 2 even hyperbolic lattice with basis (S_1, S_2)."""
    return Lattice(((0, 1), (1, 0)), ("S1", "S2"))


@lru_cache(maxsize=None)
def blowup_quadric_lattice(n: int) -> Lattice:
    """Rank n+1 lattice with basis (S_1, S_2, e_1, ..., e_{n-1})."""
    if not 1 <= n <= 9:
        raise InputError("blown-up quadric index n must satisfy 1 <= n <= 9")
    rank = n + 1
    gram = [[0] * rank for _ in range(rank)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, rank):
        gram[i][i] = -1
    labels = ("S1", "S2") + tuple(f"e{i}" for i in range(1, n))
    return Lattice(tuple(tuple(row) for row in gram), labels)


@dataclass(frozen=True)
class Sublattice:
    """A sublattice given by an explicit basis of ambient vectors."""

    ambient: Lattice
    basis: Tuple[LatticeVector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> Tuple[Tuple[int, ...], ...]:
        return gram_of(self.ambient.gram, [v.coords for v in self.basis])


def span(ambient: Lattice, vectors: Iterable[LatticeVector]) -> Sublattice:
    vecs = tuple(vectors)
    for v in vecs:
        if v.lattice != ambient:
            raise InputError("spanning vector does not belong to the ambient lattice")
    cols = [[v.coords[i] for v in vecs] for i in range(ambient.rank)]
    if vecs and xl.rational_rank(cols) != len(vecs):
        raise InputError("spanning vectors are linearly dependent")
    return Sublattice(ambient, vecs)


def full_sublattice(lattice: Lattice) -> Sublattice:
    return Sublattice(lattice, tuple(lattice.basis_vector(i) for i in range(lattice.rank)))


def orthogonal_complement(sub: Sublattice) -> Sublattice:
    """Saturated sublattice of all ambient vectors orthogonal to sub."""
    rows = [xl.mat_vec(sub.ambient.gram, list(v.coords)) for v in sub.basis]
    if not rows:
        return full_sublattice(sub.ambient)
    basis = tuple(sub.ambient.vector(col) for col in xl.kernel(rows))
    return Sublattice(sub.ambient, basis)


def signature(sub: Sublattice) -> Tuple[int, int, int]:
    """(positive, negative, zero) inertia of the restricted form."""
    return xl.sylvester_signature(sub.gram())


def is_even(sub: Sublattice) -> bool:
    """Whether every vector of the sublattice has even self-intersection."""
    return all(v.norm() % 2 == 0 for v in sub.basis)


def has_even_products(gram: Sequence[Sequence[int]]) -> bool:
    """Whether a bilinear form, given by its Gram matrix, takes only even values."""
    return all(x % 2 == 0 for row in gram for x in row)


@dataclass(frozen=True)
class Isometry:
    """An integral isometry, stored column-wise (column j = image of basis j).

    The constructor takes int entries only (not bools, errors.all_json_ints),
    and checks g^T G g = G: on a diagonal +-1 form as one packed big-int
    identity, with one product per row at field width w, the least with
    2^(w-1) > rank max|g_ij|^2 + 1 (_preserves_unit_form), and on other
    forms as the Gram matrix of g's columns (gram_of).  On a nondegenerate
    form that already forces det(g)^2 = 1, since det(g)^2 det G = det G, so
    |det g| = 1 is tested only when det G = 0.
    """

    lattice: Lattice
    matrix: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.lattice.rank
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("matrix size does not match lattice rank")
        entries = tuple(chain.from_iterable(self.matrix))
        if not all_json_ints(entries):
            raise InputError("matrix entries must be integers")
        gram = self.lattice.gram
        diag = _unit_diagonal(gram)
        if diag is not None:
            top = max(map(abs, entries), default=0)
            preserved = _preserves_unit_form(diag, self.matrix, top)
        else:
            preserved = gram_of(gram, list(zip(*self.matrix))) == gram
        if not preserved:
            raise InputError("matrix does not preserve the intersection form")
        if _is_degenerate(gram) and abs(xl.det(self.matrix)) != 1:
            raise InputError("matrix is not unimodular")

    @classmethod
    def _trusted(cls, lattice: Lattice, matrix: Tuple[Tuple[int, ...], ...]) -> "Isometry":
        """An isometry built from ones already checked: no form or determinant check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "lattice", lattice)
        object.__setattr__(obj, "matrix", matrix)
        return obj

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.lattice != self.lattice:
            raise InputError("vector does not belong to the isometry's lattice")
        return self.lattice.vector(xl.mat_vec(self.matrix, list(v.coords)))

    def compose(self, other: "Isometry") -> "Isometry":
        if other.lattice != self.lattice:
            raise InputError("isometries act on different lattices")
        prod = xl.mat_mul(self.matrix, other.matrix)
        return Isometry._trusted(self.lattice, tuple(tuple(r) for r in prod))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

    def inverse(self) -> "Isometry":
        diag = _unit_diagonal(self.lattice.gram)
        if diag is not None:
            # g^-1 = G^-1 g^T G, and G^-1 = G for a diagonal +-1 form
            size = len(diag)
            m = tuple(tuple(diag[i] * self.matrix[j][i] * diag[j] for j in range(size))
                      for i in range(size))
        else:
            m = tuple(tuple(int(x) for x in row) for row in xl.inverse(self.matrix))
        return Isometry._trusted(self.lattice, m)

    def is_identity(self) -> bool:
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(self.lattice.rank) for j in range(self.lattice.rank))

    def is_involution(self) -> bool:
        """Whether g^2 = 1.  On a diagonal +-1 form G no product is formed:
        g^-1 = G g^T G (inverse), so g^2 = 1 exactly when G g is symmetric,
        G_ii g_ij = G_jj g_ji for i > j.  Other forms square g."""
        m = self.matrix
        diag = _unit_diagonal(self.lattice.gram)
        if diag is not None:
            return all(diag[i] * m[i][j] == diag[j] * m[j][i]
                       for i in range(len(m)) for j in range(i))
        return xl.mat_eq(xl.mat_mul(m, m), xl.identity(self.lattice.rank))

    def trace(self) -> int:
        return sum(self.matrix[i][i] for i in range(self.lattice.rank))

    def negated(self) -> "Isometry":
        return Isometry._trusted(self.lattice,
                                 tuple(tuple(-x for x in row) for row in self.matrix))


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, tuple(tuple(row) for row in xl.identity(lattice.rank)))


def eigenbases(g: Isometry):
    """(plus, minus): saturated bases of the (+1)- and (-1)-eigenlattices
    of an involution, as tuples of ambient coordinate tuples.

    This is the one involution test: g^2 = 1 is read off the two kernels,
    with no squaring.  Over Q an involution is diagonalizable with
    eigenvalues +-1, so the ranks add up to the lattice rank, and when they
    do, g is +-1 on two complementary subspaces, so g^2 = 1; otherwise
    InputError("not an involution") is raised.
    """
    plus = xl.kernel(xl.mat_add_scaled_identity(g.matrix, -1))
    minus = xl.kernel(xl.mat_add_scaled_identity(g.matrix, 1))
    if len(plus) + len(minus) != g.lattice.rank:
        raise InputError("not an involution")
    return tuple(map(tuple, plus)), tuple(map(tuple, minus))


def fixed_and_antifixed(g: Isometry) -> Tuple[Sublattice, Sublattice]:
    """The saturated (+1)- and (-1)-eigenlattices of an involution, as
    sublattices: the public view of eigenbases."""
    lat = g.lattice
    return tuple(Sublattice(lat, tuple(LatticeVector(lat, c) for c in basis))
                 for basis in eigenbases(g))
