"""Unimodular lattices of blowup type and exact sublattice operations.

The main ambient lattice has Gram matrix diag(1, -1, ..., -1) in the basis
(H, E_1, ..., E_n).  Two derived bases are supported: the rank-2 even
hyperbolic lattice with basis (S_1, S_2), and its blowup extension with
basis (S_1, S_2, e_1, ..., e_{n-1}).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError, NotAnInvolution
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
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InputError("coordinate length does not match rank")
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
def _is_degenerate(gram: Tuple[Tuple[int, ...], ...]) -> bool:
    """Whether det gram == 0; a diagonal form is read off its diagonal."""
    diag = _diagonal(gram)
    return 0 in diag if diag is not None else xl.det(gram) == 0


def _gram_of(gram: Tuple[Tuple[int, ...], ...], vecs: Sequence[Sequence[int]]):
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
    saturated: bool = False

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> List[List[int]]:
        """Ambient coordinates of the basis, as matrix columns."""
        return [list(row) for row in self._rows]

    def gram(self) -> Tuple[Tuple[int, ...], ...]:
        return _gram_of(self.ambient.gram, [v.coords for v in self.basis])

    @cached_property
    def _rows(self) -> Tuple[Coords, ...]:
        """Row i holds the i-th ambient coordinate of each basis vector."""
        return tuple(tuple(v.coords[i] for v in self.basis) for i in range(self.ambient.rank))

    def lift(self, coords: Sequence[int]) -> Coords:
        """Ambient coordinates of the vector with the given sublattice coordinates."""
        return tuple([sum(map(mul, row, coords)) for row in self._rows])

    def from_coords(self, coords: Sequence[int]) -> LatticeVector:
        """Ambient vector with the given coordinates in the sublattice basis."""
        return self.ambient.vector(self.lift(coords))

    def coords_of(self, v: LatticeVector) -> Optional[Tuple[int, ...]]:
        """Integer coordinates of an ambient vector in this basis, or None."""
        sol = xl.solve_integer(self.basis_matrix(), list(v.coords))
        return tuple(sol) if sol is not None else None

    def determinant(self) -> int:
        return xl.det(self.gram())


def span(ambient: Lattice, vectors: Iterable[LatticeVector], *,
         saturated: bool = False) -> Sublattice:
    vecs = tuple(vectors)
    for v in vecs:
        if v.lattice != ambient:
            raise InputError("spanning vector does not belong to the ambient lattice")
    cols = [[v.coords[i] for v in vecs] for i in range(ambient.rank)]
    if vecs and xl.rational_rank(cols) != len(vecs):
        raise InputError("spanning vectors are linearly dependent")
    return Sublattice(ambient, vecs, saturated)


def full_sublattice(lattice: Lattice) -> Sublattice:
    return Sublattice(lattice, tuple(lattice.basis_vector(i) for i in range(lattice.rank)),
                      saturated=True)


def orthogonal_complement(sub: Sublattice) -> Sublattice:
    """Saturated sublattice of all ambient vectors orthogonal to sub."""
    rows = [xl.mat_vec(sub.ambient.gram, list(v.coords)) for v in sub.basis]
    if not rows:
        return full_sublattice(sub.ambient)
    basis = tuple(sub.ambient.vector(col) for col in xl.kernel(rows))
    return Sublattice(sub.ambient, basis, saturated=True)


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

    The constructor checks g^T G g = G as the Gram matrix of g's columns
    (_gram_of: on a diagonal form, one product per column pair i <= j).
    On a nondegenerate form that already forces det(g)^2 = 1, since
    det(g)^2 det G = det G, so |det g| = 1 is tested only when det G = 0.
    """

    lattice: Lattice
    matrix: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.lattice.rank
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("matrix size does not match lattice rank")
        gram = self.lattice.gram
        if _gram_of(gram, list(zip(*self.matrix))) != gram:
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
        diag = _diagonal(self.lattice.gram)
        if diag is not None and all(d in (1, -1) for d in diag):
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
        sq = xl.mat_mul(self.matrix, self.matrix)
        return xl.mat_eq(sq, xl.identity(self.lattice.rank))

    def trace(self) -> int:
        return sum(self.matrix[i][i] for i in range(self.lattice.rank))

    def negated(self) -> "Isometry":
        return Isometry._trusted(self.lattice,
                                 tuple(tuple(-x for x in row) for row in self.matrix))


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, tuple(tuple(row) for row in xl.identity(lattice.rank)))


def fixed_and_antifixed(g: Isometry, along: Optional[LatticeVector] = None):
    """Saturated (+1)- and (-1)-eigenlattices of an involution.

    This is the involution test of check_reducible and decompose: g^2 = 1
    is read off the two kernels, with no squaring.  Over Q an involution is
    diagonalizable with eigenvalues +-1, so the ranks add up to the lattice
    rank, and when they do, g is +-1 on two complementary subspaces, so
    g^2 = 1; otherwise NotAnInvolution (an InputError) is raised.  With
    along, returns (plus, minus, coords): the coordinates of along in the
    plus basis, or None when g does not fix it, carried through the kernel
    reduction of g - 1.
    """
    if along is None:
        plus = xl.kernel(xl.mat_add_scaled_identity(g.matrix, -1))
    else:
        plus, coords = xl.kernel(xl.mat_add_scaled_identity(g.matrix, -1), along.coords)
    minus = xl.kernel(xl.mat_add_scaled_identity(g.matrix, 1))
    lat = g.lattice
    if len(plus) + len(minus) != lat.rank:
        raise NotAnInvolution("fixed_and_antifixed expects an involution")
    sides = (
        Sublattice(lat, tuple(LatticeVector(lat, tuple(c)) for c in plus), saturated=True),
        Sublattice(lat, tuple(LatticeVector(lat, tuple(c)) for c in minus), saturated=True),
    )
    return sides if along is None else sides + (coords,)
