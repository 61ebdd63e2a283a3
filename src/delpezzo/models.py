"""Named involution models, basis changes, and signature-defect arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

from .errors import InputError
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    Lattice,
    LatticeVector,
    blowup_quadric_lattice,
    del_pezzo_lattice,
    del_pezzo_vector,
    fixed_and_antifixed,
    full_sublattice,
    orthogonal_complement,
    sign_canonical,
    signature,
    span,
)
from .weyl import canonical_class, product_of_reflections


@dataclass(frozen=True)
class NamedInvolution:
    name: str
    n: int
    isometry: Isometry
    basis: str = "HE"
    degree: Optional[int] = None   # algebraic degree annotation, when meaningful

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "basis": self.basis,
            "degree": self.degree,
            "matrix": [list(row) for row in self.isometry.matrix],
        }


@lru_cache(maxsize=None)
def de_jonquieres(n: int) -> NamedInvolution:
    """Product of (n-1)/2 commuting reflection pairs fixing H - E_1.

    g = prod_k Ref_{H-E1-E_{2k}-E_{2k+1}} . Ref_{E_{2k}-E_{2k+1}},
    so g(E_{2k}) = H - E_1 - E_{2k}.
    """
    if n % 2 == 0 or not 5 <= n <= 7:
        raise InputError("this model requires odd n with 5 <= n <= 7")
    vecs = []
    for k in range(1, (n - 1) // 2 + 1):
        vecs.append(del_pezzo_vector(n, 1, {1: -1, 2 * k: -1, 2 * k + 1: -1}))
        vecs.append(del_pezzo_vector(n, 0, {2 * k: 1, 2 * k + 1: -1}))
    g = product_of_reflections(vecs)
    return NamedInvolution("dejonquieres", n, g, degree=(n + 1) // 2)


def de_jonquieres_model(C: LatticeVector, v: Sequence[LatticeVector]) -> Isometry:
    """The unique involution with g(C) = C and g(v_k) = C - v_k.

    Requires Q(C,C) = 0, Q(C,v_k) = 0, Q(v_k,v_l) = -delta, and an odd
    ambient index; the completion class c with Q(C,c) = 1, Q(v_k,c) = 0
    is solved for exactly and normalized by multiples of C.
    """
    lat = C.lattice
    n = lat.rank - 1
    v = list(v)
    if len(v) != n - 1:
        raise InputError("expected n-1 negative classes for the rank n+1 lattice")
    if n % 2 == 0:
        raise InputError("the model closes up only for odd n")
    if C.norm() != 0 or not C.is_primitive():
        raise InputError("C must be primitive and isotropic")
    for i, vk in enumerate(v):
        if vk.lattice != lat or C.dot(vk) != 0:
            raise InputError("classes must be orthogonal to C")
        for j, vl in enumerate(v):
            if vk.dot(vl) != (-1 if i == j else 0):
                raise InputError("classes must be orthonormal of square -1")
    rows = [xl.mat_vec(lat.gram, list(C.coords))]
    rows += [xl.mat_vec(lat.gram, list(vk.coords)) for vk in v]
    sol = xl.solve_integer(rows, [1] + [0] * len(v))
    if sol is None:
        raise InputError("no completion class exists")
    c = lat.vector(sol)
    c = c + (-(c.norm() // 2)) * C          # normalize Q(c,c) to 0 or 1
    basis = [C, c] + v
    lam = (n - 1) // 2
    g_c = c - sum(v, lat.zero()) + lam * C
    images = [C, g_c] + [C - vk for vk in v]
    # row i of g is the r with w . r = (g w)_i for each basis vector w
    rows = xl.solve_integer_many([w.coords for w in basis],
                                 [[w.coords[i] for w in images] for i in range(lat.rank)])
    if any(row is None for row in rows):
        raise InputError("completion basis is not unimodular")
    g = Isometry(lat, tuple(map(tuple, rows)))
    if not g.is_involution():
        raise InputError("model construction failed to close up")
    return g


@lru_cache(maxsize=None)
def geiser_roots() -> Tuple[LatticeVector, ...]:
    """Seven mutually orthogonal roots whose product negates K-perp (n=7)."""
    n = 7
    return (
        del_pezzo_vector(n, 1, {1: -1, 2: -1, 7: -1}),
        del_pezzo_vector(n, 1, {3: -1, 4: -1, 7: -1}),
        del_pezzo_vector(n, 1, {5: -1, 6: -1, 7: -1}),
        del_pezzo_vector(n, 0, {1: 1, 2: -1}),
        del_pezzo_vector(n, 0, {3: 1, 4: -1}),
        del_pezzo_vector(n, 0, {5: 1, 6: -1}),
        del_pezzo_vector(n, 2, {1: -1, 2: -1, 3: -1, 4: -1, 5: -1, 6: -1}),
    )


@lru_cache(maxsize=None)
def bertini_roots() -> Tuple[LatticeVector, ...]:
    """Eight mutually orthogonal roots whose product negates K-perp (n=8)."""
    n = 8
    lat = del_pezzo_lattice(n)
    lifted = [lat.vector(tuple(r.coords) + (0,)) for r in geiser_roots()]
    comp = orthogonal_complement(span(lat, lifted + [canonical_class(n)]))
    if comp.rank != 1:
        raise InputError("complement of the seven-root span is not a line")
    extra = sign_canonical(comp.basis[0])
    if extra.norm() != -2:
        raise InputError("complement generator is not a root")
    return tuple(lifted + [extra])


def _negation_on_kperp(n: int) -> Isometry:
    """x -> -x + (2 Q(x,K)/Q(K,K)) K; -I on K-perp, +1 on K."""
    lat = del_pezzo_lattice(n)
    k = canonical_class(n)
    kk = k.norm()
    cols = []
    for j in range(lat.rank):
        b = lat.basis_vector(j)
        t = 2 * b.dot(k)
        if t % kk:
            raise InputError("projection is not integral for this index")
        cols.append(tuple(-b.coords[i] + (t // kk) * k.coords[i] for i in range(lat.rank)))
    matrix = tuple(tuple(cols[j][i] for j in range(lat.rank)) for i in range(lat.rank))
    return Isometry(lat, matrix)


@lru_cache(maxsize=None)
def geiser() -> NamedInvolution:
    g = _negation_on_kperp(7)
    # cross-validation against the stored orthogonal root set
    if g.matrix != product_of_reflections(geiser_roots()).matrix:
        raise InputError("projection and reflection constructions disagree")
    return NamedInvolution("geiser", 7, g)


@lru_cache(maxsize=None)
def bertini() -> NamedInvolution:
    g = _negation_on_kperp(8)
    if g.matrix != product_of_reflections(bertini_roots()).matrix:
        raise InputError("projection and reflection constructions disagree")
    return NamedInvolution("bertini", 8, g)


@dataclass(frozen=True)
class BasisChange:
    """Unimodular map intertwining the Gram matrices of two labeled bases."""

    source: Lattice
    target: Lattice
    matrix: Tuple[Tuple[int, ...], ...]   # columns: target coords of source basis

    def __post_init__(self):
        m = [list(r) for r in self.matrix]
        gt = [list(r) for r in self.target.gram]
        back = xl.mat_mul(xl.mat_mul(xl.transpose(m), gt), m)
        if not xl.mat_eq(back, [list(r) for r in self.source.gram]):
            raise InputError("matrix does not intertwine the Gram matrices")
        if abs(xl.det(m)) != 1:
            raise InputError("basis change must be unimodular")

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.lattice != self.source:
            raise InputError("vector is not in the source basis")
        return self.target.vector(xl.mat_vec(self.matrix, list(v.coords)))

    @cached_property
    def inverse(self) -> Tuple[Tuple[int, ...], ...]:
        """The inverse matrix, integral as the matrix is unimodular: target
        coordinates to source ones.  It is inverted once per basis change."""
        return tuple(tuple(int(x) for x in row) for row in xl.inverse(self.matrix))

    def conjugate(self, g: Isometry) -> Isometry:
        """Push an isometry from the source basis to the target basis."""
        if g.lattice != self.source:
            raise InputError("isometry is not in the source basis")
        prod = xl.mat_mul(xl.mat_mul(self.matrix, g.matrix), self.inverse)
        return Isometry(self.target, tuple(map(tuple, prod)))

    def to_json(self) -> dict:
        return {
            "source": list(self.source.basis_labels),
            "target": list(self.target.basis_labels),
            "matrix": [list(r) for r in self.matrix],
        }


@lru_cache(maxsize=None)
def quadric_basis_change(n: int) -> BasisChange:
    """(S1, S2, e_1, ..., e_{n-1}) -> (H-E1, H-E2, H-E1-E2, E3, ..., En)."""
    if not 2 <= n <= 8:
        raise InputError("basis change requires 2 <= n <= 8")
    src = blowup_quadric_lattice(n)
    tgt = del_pezzo_lattice(n)
    images = [del_pezzo_vector(n, 1, {1: -1}), del_pezzo_vector(n, 1, {2: -1}),
              del_pezzo_vector(n, 1, {1: -1, 2: -1})]
    for j in range(2, n):
        images.append(del_pezzo_vector(n, 0, {j + 1: 1}))
    matrix = tuple(tuple(images[j].coords[i] for j in range(n + 1))
                   for i in range(n + 1))
    return BasisChange(src, tgt, matrix)


def quotient_signature(g: Isometry) -> int:
    """p - m of the form restricted to the fixed lattice of the involution;
    fixed_and_antifixed raises InputError("not an involution") unless its
    kernels certify g^2 = 1."""
    plus, _ = fixed_and_antifixed(g)
    if plus.rank == 0:
        return 0
    p, m, _z = signature(plus)
    return p - m


def defect_sum(g: Isometry) -> int:
    """2 * quotient_signature - ambient signature."""
    qs = quotient_signature(g)
    p, m, _z = signature(full_sublattice(g.lattice))
    return 2 * qs - (p - m)
