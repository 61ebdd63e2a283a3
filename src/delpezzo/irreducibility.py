"""Reducibility verdicts, machine-checkable certificates, and splittings.

An involution of M_n is reducible when it admits one of five kinds of
witness (see criteria).  The verdict is Irreducible only when every route
is closed by an exact argument; a bounded search that merely found
nothing leaves the verdict Unknown.

Chamber reduction.  For n <= 9, O+(M_n) is the reflection group of a
simplex with walls H - E1 - E2 - E3, E_i - E_{i+1} and E_n.  The vector
x = H + g(H) (or H - g(H)) is fixed or negated by g and has x^2 > 0;
weyl.chamber_conjugate moves it into the fundamental chamber by a wall
word h, and the involution is decided as g' = h g h^-1.  Witnesses, split
bases and leaf bases of g' are mapped back with h^-1, so what is returned
belongs to g.  A decided verdict is exact, hence the same in every basis;
the reduction is what keeps the bounded searches decided in any basis.
check_reducible keeps an involution that fixes K as it is, with K as its
anchor (the catalog and the invariant flags rest on that); decompose
reduces every input, and anchors with K the same way when K^2 > 0.

decompose starts from the eigen data check_reducible builds and runs routes
c, d and e of the criteria search engine on it, in that order: the first
witness is the split (a fixed class, a swapped pair c1, g(c1), or an
antifixed class).  A split block B is unimodular, so the eigen sides of
what is left are the old sides cut to B^perp, one kernel each; the leaf's
basis and matrix are computed once, at the end.  A leaf is Irreducible
exactly when routes c, d and e are all closed on it, the same exact
closure that check_reducible uses.

An Irreducible verdict names its obstruction by the closing reasons, in
priority order: an even eigenlattice (EvenFixedLatticeObstruction), an
argument on L/2L (Mod2Obstruction: route d's congruence test, and the
mod-4 walks of criteria that close route b and the unit routes a, c, e),
an even antifixed lattice (AntiFixedObstruction), else complete searches
(ExhaustedSearchObstruction).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Tuple

from .errors import InputError, NotAnInvolution, is_json_int
from . import criteria
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    LatticeVector,
    Sublattice,
    del_pezzo_lattice,
    orthogonal_complement,
    span,
)
from .weyl import canonical_class, chamber_conjugate

REDUCIBLE = "Reducible"
IRREDUCIBLE = "Irreducible"
UNKNOWN = "Unknown"

_WITNESS_KINDS = {
    "a": "FixedNormPlus1",
    "b": "FixedHyperbolicPair",
    "c": "FixedNormMinus1",
    "d": "SwappedOrFixedMinus1Pair",
    "e": "AntiFixedNormMinus1",
}

# obstruction kinds by priority
_EVEN_REASONS = {"plus_even_norms", "plus_even_products"}
_MOD2_REASONS = {"mod2_unsolvable", "plus_no_partner_mod4", "plus_no_unit_mod4",
                 "plus_no_minus1_mod4", "minus_no_minus1_mod4"}
_ANTIFIXED_REASONS = {"minus_even_norms"}


@dataclass(frozen=True)
class ReducibilityCertificate:
    """Witness or obstruction backing a reducibility verdict."""

    kind: str
    witnesses: Tuple[Tuple[int, ...], ...]
    narrative: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "witnesses": [list(w) for w in self.witnesses],
            "narrative": self.narrative,
        }

    @staticmethod
    def from_json(data: dict) -> "ReducibilityCertificate":
        """The certificate of a to_json blob.  kind and narrative must be
        strings and witnesses a list of lists of JSON integers; a missing or
        ill-typed field raises InputError."""
        if not isinstance(data, dict):
            raise InputError("certificate must be a JSON object")
        kind, witnesses, narrative = (data.get(f) for f in ("kind", "witnesses", "narrative"))
        if not isinstance(kind, str) or not isinstance(narrative, str):
            raise InputError('certificate "kind" and "narrative" must be strings')
        if not isinstance(witnesses, list) or not all(
                isinstance(w, list) and all(is_json_int(x) for x in w) for w in witnesses):
            raise InputError('certificate "witnesses" must be a list of lists of integers')
        return ReducibilityCertificate(kind, tuple(tuple(w) for w in witnesses), narrative)

    def verify(self, g: Isometry) -> bool:
        """Re-check the certified statement against the involution."""
        lat = g.lattice
        try:
            vs = [lat.vector(w) for w in self.witnesses]
        except InputError:
            return False
        k = self.kind
        if k == "FixedNormPlus1":
            return (len(vs) == 1 and vs[0].norm() == 1 and g.apply(vs[0]) == vs[0])
        if k == "FixedHyperbolicPair":
            return (len(vs) == 2
                    and all(v.norm() == 0 and g.apply(v) == v for v in vs)
                    and vs[0].dot(vs[1]) == 1)
        if k == "FixedNormMinus1":
            return (len(vs) == 1 and vs[0].norm() == -1 and g.apply(vs[0]) == vs[0])
        if k == "SwappedOrFixedMinus1Pair":
            return (len(vs) == 2
                    and all(v.norm() == -1 for v in vs)
                    and vs[0].dot(vs[1]) == 0
                    and g.apply(vs[0]) == vs[1] and g.apply(vs[1]) == vs[0])
        if k == "AntiFixedNormMinus1":
            return (len(vs) == 1 and vs[0].norm() == -1 and g.apply(vs[0]) == -vs[0])
        if k in ("EvenFixedLatticeObstruction", "Mod2Obstruction",
                 "AntiFixedObstruction", "ExhaustedSearchObstruction"):
            verdict = check_reducible(g)
            return (verdict.status == IRREDUCIBLE
                    and verdict.certificate is not None
                    and verdict.certificate.kind == k
                    and verdict.certificate.narrative == self.narrative)
        return False


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: Optional[ReducibilityCertificate]
    height_bound: int

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "height_bound": self.height_bound,
        }


def _narrative(results) -> str:
    return ";".join(f"{name}:{res.reason}" for name, res in results)


def _obstruction_kind(results) -> str:
    reasons = {res.reason for _, res in results}
    if reasons & _EVEN_REASONS:
        return "EvenFixedLatticeObstruction"
    if reasons & _MOD2_REASONS:
        return "Mod2Obstruction"
    if reasons & _ANTIFIXED_REASONS:
        return "AntiFixedObstruction"
    return "ExhaustedSearchObstruction"


def check_reducible(g: Isometry, n: Optional[int] = None,
                    height_bound: Optional[int] = None) -> Verdict:
    """Decide reducibility of any involution of the blowup lattice M_n.

    An involution that fixes K is decided as given, with K as the anchor of
    its fixed side.  Any other one is decided as its chamber conjugate
    g' = h g h^-1, and the witnesses are mapped back with h^-1.  g is not
    squared: the eigen data's two kernels certify g^2 = 1 (_eigen_data),
    and an isometry that fails their rank test raises InputError("not an
    involution").
    """
    if n is None:
        n = g.lattice.rank - 1
    if g.lattice != del_pezzo_lattice(n):
        raise InputError("isometry is not on the rank n+1 blowup lattice")
    if not 2 <= n <= 8:
        raise InputError("reducibility check supports 2 <= n <= 8")
    bound = criteria.resolve_height_bound(height_bound)
    k = canonical_class(n)
    h_inv = None
    if g.apply(k) != k:
        # defined on any isometry; g' is an involution exactly when g is one
        g, h_inv = chamber_conjugate(g)
    data = _eigen_data(g, k)
    results = []
    for name, res in criteria.iter_routes(data, n, bound):
        results.append((name, res))
        if res.status == criteria.WITNESS:
            cert = ReducibilityCertificate(
                kind=_WITNESS_KINDS[name],
                witnesses=tuple(_back(h_inv, w.coords) for w in res.witnesses),
                narrative=_narrative(results),
            )
            return Verdict(REDUCIBLE, cert, bound)
    narrative = _narrative(results)
    if all(res.status == criteria.CLOSED for _, res in results):
        cert = ReducibilityCertificate(
            kind=_obstruction_kind(results),
            witnesses=(),
            narrative=narrative,
        )
        return Verdict(IRREDUCIBLE, cert, bound)
    return Verdict(UNKNOWN, None, bound)


def _eigen_data(g: Isometry, anchor: Optional[LatticeVector]) -> criteria.EigenData:
    """criteria.eigen_data(g, anchor), which is also the involution test:
    fixed_and_antifixed raises NotAnInvolution unless the ranks of
    ker(g - 1) and ker(g + 1) add up to the rank, which holds exactly when
    g^2 = 1.  Here that is the InputError "not an involution"."""
    try:
        return criteria.eigen_data(g, anchor)
    except NotAnInvolution:
        raise InputError("not an involution") from None


def _back(h_inv, coords: Tuple[int, ...]) -> Tuple[int, ...]:
    """Coordinates of h^-1 w for the chamber conjugation h (None: identity)."""
    return coords if h_inv is None else tuple(xl.mat_vec(h_inv, coords))


def negation_twist(g: Isometry) -> Isometry:
    """The involution -g; it shares the reducibility verdict with g."""
    return g.negated()


# ---------------------------------------------------------------------------
# orthogonal splitting into standard pieces


@dataclass(frozen=True)
class SplitStep:
    """One split-off summand: a rank 1 or 2 negative definite block."""

    action: str                       # fix / swap / negate
    basis: Tuple[Tuple[int, ...], ...]  # ambient coordinates

    def to_json(self) -> dict:
        return {"action": self.action, "basis": [list(b) for b in self.basis]}


@dataclass(frozen=True)
class DecompositionLeaf:
    lattice_type: str                 # point / quadric / blowup
    basis: Tuple[Tuple[int, ...], ...]
    matrix: Tuple[Tuple[int, ...], ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "lattice_type": self.lattice_type,
            "basis": [list(b) for b in self.basis],
            "matrix": [list(r) for r in self.matrix],
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class Decomposition:
    steps: Tuple[SplitStep, ...]
    leaf: DecompositionLeaf

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps], "leaf": self.leaf.to_json()}


def _sub_isometry(sub: Sublattice, g: Isometry) -> List[List[int]]:
    """Matrix of g restricted to an invariant sublattice, in its basis.

    The basis matrix is reduced once and every image solved against it.
    """
    cols = xl.solve_integer_many(sub.basis_matrix(),
                                 [g.apply(v).coords for v in sub.basis])
    if any(c is None for c in cols):
        raise InputError("sublattice is not invariant under the involution")
    r = len(sub.basis)
    return [[cols[j][i] for j in range(r)] for i in range(r)]


def _leaf_type(sub: Sublattice) -> str:
    gram = sub.gram()
    pos, neg, zero = xl.sylvester_signature(gram)
    if sub.rank == 1 and pos == 1:
        return "point"
    if all(gram[i][i] % 2 == 0 for i in range(sub.rank)) and (pos, neg) == (1, 1):
        return "quadric"
    return "blowup"


def decompose(g: Isometry, n: Optional[int] = None,
              height_bound: Optional[int] = None) -> Decomposition:
    """Split off fixed, swapped, and antifixed (-1)-classes until none remain.

    Each split peels a unimodular negative definite block, so the ambient
    lattice is an orthogonal sum of the peeled blocks and the leaf.  On M_n
    (2 <= n <= 9) the splitting is computed for the chamber conjugate
    g' = h g h^-1 and its bases are mapped back with h^-1; the leaf matrix
    is the same in both bases.  As in check_reducible, g is not squared:
    the first eigen data certifies g^2 = 1 (_eigen_data), or raises
    InputError("not an involution").
    """
    if n is not None and g.lattice.rank != n + 1:
        raise InputError("index does not match the lattice rank")
    bound = criteria.resolve_height_bound(height_bound)
    rank = g.lattice.rank
    if not 3 <= rank <= 10 or g.lattice != del_pezzo_lattice(rank - 1):
        return _decompose_in_basis(g, bound)
    g_red, h_inv = chamber_conjugate(g)
    # K anchors the fixed side only where K^2 = 9 - n > 0
    d = _decompose_in_basis(g_red, bound, canonical_class(rank - 1) if rank <= 9 else None)
    steps = tuple(SplitStep(s.action, tuple(_back(h_inv, b) for b in s.basis))
                  for s in d.steps)
    leaf = dataclasses.replace(d.leaf, basis=tuple(_back(h_inv, b) for b in d.leaf.basis))
    return Decomposition(steps, leaf)


def _decompose_in_basis(g: Isometry, bound: int,
                        anchor: Optional[LatticeVector] = None) -> Decomposition:
    """decompose for g as written, with no chamber reduction.

    It starts from criteria.eigen_data(g, anchor), as check_reducible does,
    and narrows both sides to B^perp after each split block B.  The leaf is
    the complement of everything peeled, built once.
    """
    data = _eigen_data(g, anchor)
    steps: List[SplitStep] = []
    peeled = []
    while data.plus.sub.rank + data.minus.sub.rank:
        results = []
        # the first witness of routes c, d, e is the split
        for action, route in (("fix", criteria.route_c), ("swap", criteria.route_d),
                              ("negate", criteria.route_e)):
            results.append(route(data, bound))
            if results[-1].status == criteria.WITNESS:
                break
        else:
            # no split left: Irreducible when routes c, d and e are closed
            closed = all(res.status == criteria.CLOSED for res in results)
            leaf = orthogonal_complement(span(g.lattice, peeled))
            return Decomposition(tuple(steps), DecompositionLeaf(
                _leaf_type(leaf), tuple(v.coords for v in leaf.basis),
                tuple(tuple(r) for r in _sub_isometry(leaf, g)),
                IRREDUCIBLE if closed else UNKNOWN))
        block = results[-1].witnesses
        steps.append(SplitStep(action, tuple(v.coords for v in block)))
        peeled.extend(block)
        data = criteria.EigenData(g, _narrow(data.plus, block), _narrow(data.minus, block))
    return Decomposition(tuple(steps), DecompositionLeaf("point", (), (), IRREDUCIBLE))


def _narrow(side: criteria._EigenSide, block) -> criteria._EigenSide:
    """The search data of side & B^perp: one kernel, in side coordinates, of
    the products b.v of the block vectors b with the side basis v.

    B is negative definite, unimodular and g-invariant, so M = B + B^perp
    and the side splits as (side & B) + (side & B^perp) with side & B
    negative definite: side & B^perp keeps the side's positive inertia, and
    its signature is handed to _side, which then runs no
    sylvester_signature.

    When every product is zero (a fix block and the minus side, a negate
    block and the plus side), side & B^perp is the side itself, which is
    kept with its anchor frame.  Rebuilding it would give the same basis
    and anchor: _side would re-run the box anchor search, and the one
    preferred anchor, K, sits on a plus side whose minus side lies in the
    even lattice K^perp, which no negate block splits."""
    sub = side.sub
    jbs = [xl.mat_vec(sub.ambient.gram, b.coords) for b in block]
    rows = [[sum(map(mul, jb, v.coords)) for v in sub.basis] for jb in jbs]
    if not any(map(any, rows)):
        return side
    basis = tuple(sub.from_coords(x) for x in xl.kernel(rows))
    pos = side.positive
    return criteria._side(Sublattice(sub.ambient, basis, saturated=True), None,
                          (pos, len(basis) - pos))
