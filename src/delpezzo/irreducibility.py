"""Reducibility verdicts, machine-checkable certificates, and splittings.

An involution of M_n is reducible when it admits one of five kinds of
witness (see criteria).  The verdict is Irreducible only when every route
is closed by an exact argument; a bounded search that merely found
nothing leaves the verdict Unknown.

Chamber reduction.  For n <= 9, O+(M_n) is the reflection group of a
simplex with walls H - E1 - E2 - E3, E_i - E_{i+1} and E_n.  The vector
x = H + g(H) (or H - g(H)) is fixed or negated by g and has x^2 > 0;
weyl.chamber_conjugate moves it into the fundamental chamber by a wall
word h, and the involution can be decided as g' = h g h^-1.  Witnesses,
split bases and leaf bases of g' are mapped back with h^-1, so what is
returned belongs to g.  A decided verdict is exact, hence the same in every
basis; the reduction is what keeps the bounded searches decided in any
basis.  One rule (_k_fixing_conjugate) picks the basis of check_reducible
and decompose: an involution that fixes K as it is (the catalog and the
invariant flags rest on that), else its chamber conjugate if that fixes K,
else, for g_00 > 0, its normal form h g h^-1 = w_I (weyl.normal_form, from
the chamber data) if w_I fixes K, as it does unless a wall of I is not
orthogonal to K (E_n, or H - E1 - E2 at n = 2).  A K-fixing g' is anchored
at K where K^2 > 0 (n <= 8).  The rest (g_00 < 0, where h g h^-1 = -w_I
never fixes K, a w_I that moves K, no generic draw, n = 9) are decided and
split as their chamber conjugate, on their own eigen data, with box
anchors (criteria._find_anchor).

One verdict path.  _certify turns route results, in order a..e, into the
verdict and its certificate, and criteria.iter_routes gives them: every
route result is kept on the eigen data it ran on, with its bound, and
reused where it holds.  _verdict hands _certify iter_routes on an
involution's own eigen data, and check_reducible hands it every K-fixing
input's route results read off the eigen data its class record keeps
(below).  dpz classify hands _verdict the eigen data each class keeps from
its invariant (the representative fixes K, so it is the data
check_reducible would build), and the routes the invariant flags already
decided are not run again.

The class record.  Every route outcome on a K-fixing involution g is a
class invariant.  Conjugation by an isometry h that fixes K maps both
eigenlattices of g onto those of h g h^-1 and fixes the anchor K.  So the
parity, mod-4 and mod-2 closures, the complete searches and the anchored
slab searches end the same way on every member of g's class.  Only the
witness vector belongs to the basis.  _CLASS_RECORD keeps, by n and class
triple (involutions._root_triple, complete on the K-fixing classes), the
eigen data of the first member of each class that check_reducible meets.
Every member, the first one included, certified an involution by the basis
rule above, takes each route's status and reason from iter_routes on the
stored data, and reads its own witness off its K-slab tables
(criteria.table_witnesses), so no member after the first builds an
eigenlattice.  A bound the class has not met runs the route again on the
stored data, on its anchor frames and glue.  Only a witness beyond the
tables sends a member to _verdict on its own eigen data, which for the
first member are the stored data.  A member may be an input's chamber
conjugate or its normal form w_I, so an input with a K-fixing one of the
two takes its route outcomes, and with them its certificate kind, from
that conjugate's class.

decompose starts, in the basis check_reducible picks, from the eigen data
check_reducible builds there and runs routes c, d and e of the criteria
search engine on it, in that order: the first witness is the split (a fixed
class, a swapped pair c1, g(c1), or an antifixed class).  A split block B
is unimodular, so the eigen sides of what is left are the old sides cut to
B^perp, one kernel each; the leaf's basis, the kernel of the peeled
vectors' products, and its matrix are computed once, at the end.  A leaf is
Irreducible exactly when routes c, d and e are all closed on it, the same
exact closure that check_reducible uses.  On a K-fixing involution, K' = K
+ sum (K.b) b over the peeled b anchors the fixed side of each piece
B^perp.  While every split is an equivariant blow-down (each peeled b an
exceptional class, |K.b| = 1, as on the catalog and the benchmark streams),
B^perp is M_k (U in rank 2) with canonical class K', and routes c and d
read the piece's first witness off the table of exceptional classes of M_n,
under the mask of the entries orthogonal to B (_decompose_in_basis).

Both run on the criteria engine's plain int tuples: eigen bases, route
witnesses, split blocks and leaf bases are ambient coordinate tuples, no
sublattice is built on the way, and the anchor K is the one lattice vector
read (K' is its int tuple, moved by each split).

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
from typing import Dict, List, Optional, Tuple

from .errors import InputError, UnsupportedError, all_json_ints
from . import criteria
from . import weyl
from . import exactlinalg as xl
from .involutions import _root_triple
from .lattice import Isometry, del_pezzo_lattice, gram_of

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
                isinstance(w, list) and all_json_ints(w) for w in witnesses):
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


# The class record: by (n, class triple) of a K-fixing involution, the
# eigen data of the first member of the class that check_reducible met
_CLASS_RECORD: Dict[Tuple[int, Tuple[int, int, int]], criteria.EigenData] = {}


def check_reducible(g: Isometry, n: Optional[int] = None,
                    height_bound: Optional[int] = None) -> Verdict:
    """Decide reducibility of any involution of the blowup lattice M_n.

    It is decided as the g' = h g h^-1 of _k_fixing_conjugate (g itself
    when it fixes K; its witnesses mapped back with h^-1), which tests g^2
    = 1 by Isometry.is_involution, the symmetry of J g, and never squares
    g.  A g' that moves K is decided on its own eigen data.  A K-fixing g'
    is decided on the eigen data of its class's first member, kept in the
    class record, by the route statuses of that data and its own witness
    (_member_routes), and by _verdict on its own eigen data when no table
    holds the witness.
    """
    if n is None:
        n = g.lattice.rank - 1
    if g.lattice != del_pezzo_lattice(n):
        raise InputError("isometry is not on the rank n+1 blowup lattice")
    if not 2 <= n <= 8:
        raise InputError("reducibility check supports 2 <= n <= 8")
    bound = criteria.resolve_height_bound(height_bound)
    g, h_inv, fixes_k = _k_fixing_conjugate(g)
    if not fixes_k:
        return _verdict(criteria.eigen_data(g), n, bound, h_inv)
    key = (n, _root_triple(g, n)[1])
    data = _CLASS_RECORD.get(key)
    if data is None:
        data = _CLASS_RECORD[key] = criteria.eigen_data(g)
    results = _member_routes(data, g, n, bound)
    if results is None:
        own = data if data.g.matrix == g.matrix else criteria.eigen_data(g)
        return _verdict(own, n, bound, h_inv)
    return _certify(results, bound, h_inv)


def _k_fixing_conjugate(g: Isometry):
    """(g', h^-1, fixes_K) for the involution g of M_n, 2 <= n <= 9, with
    g' = h g h^-1: g itself (h^-1 None) when it fixes K, else the chamber
    conjugate when that fixes K, else, for g_00 > 0, the normal form w_I
    from the same chamber data when w_I fixes K, else the chamber
    conjugate.  K is read off g's lattice (criteria._canonical_coords); at
    n = 9, where K^2 = 0 and K anchors nothing, the rule gives the chamber
    conjugate.  g^2 = 1 is tested first (Isometry.is_involution), as a
    normal-form draw may pass on a non-involution; else
    InputError("not an involution")."""
    if not g.is_involution():
        raise InputError("not an involution")
    k = criteria._canonical_coords(g.lattice)
    if k is not None and criteria.fixes(g.matrix, k):
        return g, None, True
    chamber = weyl._chamber(g)
    sign, _, h, conj = chamber
    g_red, h_inv = Isometry._trusted(g.lattice, conj), weyl._inverse(h)
    if k is None or criteria.fixes(conj, k):
        return g_red, h_inv, k is not None
    if sign > 0:
        try:
            _, _, _, w_inv, w = weyl._normal_form(g.lattice, *chamber)
        except UnsupportedError:
            w = None
        if w is not None and criteria.fixes(w.matrix, k):
            return w, w_inv, True
    return g_red, h_inv, False


def _clear_class_record() -> None:
    """Empty the class record, as a fresh process has it."""
    _CLASS_RECORD.clear()


def _member_routes(data: criteria.EigenData, g: Isometry, n: int, bound: int):
    """The (name, RouteResult) of routes a..e at the bound for the K-fixing
    involution g, up to the first witness, from the eigen data of a member
    of g's class, g itself or another (the class record of the module
    docstring), else None.  Each status and reason is that of criteria.iter_routes on data,
    and a witness is g's own, read off its tables
    (criteria.table_witnesses); None, for a witness that no table holds,
    sends g to its own eigen data."""
    results = []
    for name, res in criteria.iter_routes(data, n, bound):
        if res.status == criteria.WITNESS:
            witnesses = criteria.table_witnesses(name, g, n, bound)
            if witnesses is None:
                return None
            results.append((name, criteria.RouteResult(status=res.status, reason=res.reason,
                                                        witnesses=witnesses)))
            break
        results.append((name, res))
    return results


def _verdict(data: criteria.EigenData, n: int, bound: int, h_inv=None) -> Verdict:
    """The verdict and certificate of the involution of data, from routes
    a..e at the bound (_certify).  Route results already on data are reused
    where they hold (criteria.iter_routes), as dpz classify does with the
    eigen data of each class's invariant."""
    return _certify(criteria.iter_routes(data, n, bound), bound, h_inv)


def _certify(routes, bound: int, h_inv=None) -> Verdict:
    """The verdict and certificate of the (name, RouteResult) of routes, in
    order a..e, read lazily: the first witness, mapped back with h_inv,
    makes it Reducible; routes all closed make it Irreducible, with the
    obstruction the closing reasons name; anything else is Unknown."""
    results = []
    for name, res in routes:
        results.append((name, res))
        if res.status == criteria.WITNESS:
            cert = ReducibilityCertificate(
                kind=_WITNESS_KINDS[name],
                witnesses=tuple(_back(h_inv, w) for w in res.witnesses),
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


def _sub_isometry(basis, g: Isometry) -> List[List[int]]:
    """Matrix of g restricted to an invariant sublattice, in its basis of
    ambient int tuples.

    The basis matrix is reduced once and every image solved against it.
    """
    cols = xl.solve_integer_many(xl.transpose(basis), [xl.mat_vec(g.matrix, v) for v in basis])
    if any(c is None for c in cols):
        raise InputError("sublattice is not invariant under the involution")
    r = len(basis)
    return [[cols[j][i] for j in range(r)] for i in range(r)]


def _leaf_type(gram) -> str:
    pos, neg, zero = xl.sylvester_signature(gram)
    if len(gram) == 1 and pos == 1:
        return "point"
    if all(gram[i][i] % 2 == 0 for i in range(len(gram))) and (pos, neg) == (1, 1):
        return "quadric"
    return "blowup"


def decompose(g: Isometry, n: Optional[int] = None,
              height_bound: Optional[int] = None) -> Decomposition:
    """Split off fixed, swapped, and antifixed (-1)-classes until none remain.

    Each split peels a unimodular negative definite block, so the ambient
    lattice is an orthogonal sum of the peeled blocks and the leaf.  On M_n
    (2 <= n <= 9) it is computed for check_reducible's g' = h g h^-1
    (_k_fixing_conjugate), anchored at K and K' when g' fixes K, and its
    bases are mapped back with h^-1; the leaf matrix is the same in both.
    g is not squared: that rule tests it by Isometry.is_involution, and on
    other lattices the first eigen data do (lattice.eigenbases), else
    InputError("not an involution").
    """
    if n is not None and g.lattice.rank != n + 1:
        raise InputError("index does not match the lattice rank")
    bound = criteria.resolve_height_bound(height_bound)
    rank = g.lattice.rank
    if not 3 <= rank <= 10 or g.lattice != del_pezzo_lattice(rank - 1):
        return _decompose_in_basis(g, bound)
    g_red, h_inv, _ = _k_fixing_conjugate(g)
    d = _decompose_in_basis(g_red, bound)
    steps = tuple(SplitStep(s.action, tuple(_back(h_inv, b) for b in s.basis))
                  for s in d.steps)
    leaf = dataclasses.replace(d.leaf, basis=tuple(_back(h_inv, b) for b in d.leaf.basis))
    return Decomposition(steps, leaf)


def _decompose_in_basis(g: Isometry, bound: int) -> Decomposition:
    """decompose for g as written, with no chamber reduction.

    It starts from criteria.eigen_data(g), as check_reducible does,
    and narrows both sides to B^perp after each split block B.  The leaf is
    the complement of everything peeled: one kernel of the products of the
    peeled vectors, built once.

    When g fixes K on M_n (the first eigen data carry the table of
    exceptional classes), every piece B^perp keeps an anchor,
    K' = K + sum (K.b) b over the peeled b: the projection of K to B^perp,
    as each b has b^2 = -1 and the b are orthogonal.  K' is fixed by g,
    since B is g-invariant, and for c in B^perp, c.K' = c.K = c^2 (mod 2),
    so K' is characteristic in the unimodular B^perp, and K'^2 =
    K^2 + sum (K.b)^2 > 0.  While every b is a blow-down, |K.b| = 1 (all of
    them on the catalog and the benchmark streams), K'^2 = 9 - k on the
    piece of rank k + 1: B^perp is M_k (or U, in rank 2) with canonical
    class K', its exceptional classes are the table entries orthogonal to
    B, and the narrowed data keep the table with that mask
    (EigenData.within), one weyl.zero_entries per peeled vector.
    Any other split drops the table, and K' stays the anchor.
    """
    data = criteria.eigen_data(g)
    gram = g.lattice.gram
    k = None if data.exceptional is None else criteria._canonical_coords(g.lattice)
    k_prime = None if k is None else list(k)
    steps: List[SplitStep] = []
    peeled: List[Tuple[int, ...]] = []
    while data.plus.basis or data.minus.basis:
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
            rows = [xl.mat_vec(gram, b) for b in peeled]
            leaf = tuple(map(tuple, xl.kernel(rows) if rows else xl.identity(len(gram))))
            return Decomposition(tuple(steps), DecompositionLeaf(
                _leaf_type(gram_of(gram, leaf)), leaf,
                tuple(tuple(r) for r in _sub_isometry(leaf, g)),
                IRREDUCIBLE if closed else UNKNOWN))
        block = results[-1].witnesses
        steps.append(SplitStep(action, block))
        peeled.extend(block)
        jbs = [xl.mat_vec(gram, b) for b in block]
        table, within = data.exceptional, data.within
        if k_prime is not None:
            ts = [sum(map(mul, jb, k)) for jb in jbs]     # K.b
            for t, b in zip(ts, block):
                k_prime = [x + t * y for x, y in zip(k_prime, b)]
            if table is not None and all(abs(t) == 1 for t in ts):
                if within is None:
                    within = (1 << len(table.vectors)) - 1
                for jb in jbs:
                    # |c . b| <= 3 (weyl._exceptional_products), inside the
                    # table's bound
                    within &= weyl.zero_entries(jb, table.whole)
            else:
                table = within = None
        plus, minus = _narrow(data.plus, jbs, gram, k_prime), _narrow(data.minus, jbs, gram)
        if plus is data.plus and minus is data.minus:
            # a witness lies in a side, so a split always narrows one
            raise RuntimeError("split block is orthogonal to both eigen sides")
        data = criteria.EigenData(g, plus, minus, exceptional=table, within=within,
                                  masks=data.masks)
    return Decomposition(tuple(steps), DecompositionLeaf("point", (), (), IRREDUCIBLE))


def _narrow(side: criteria._EigenSide, jbs, gram,
            anchor: Optional[List[int]] = None) -> criteria._EigenSide:
    """The search data of side & B^perp, for the form gram: one kernel, in
    side coordinates, of the products b.v of the block vectors b, given as
    jbs = J b, with the side basis v.

    B is negative definite, unimodular and g-invariant, so M = B + B^perp
    and the side splits as (side & B) + (side & B^perp) with side & B
    negative definite: side & B^perp keeps the side's positive inertia, and
    its signature is handed to _side, which then runs no
    sylvester_signature.  A kernel basis is saturated in the side, so the
    lifted basis spans a saturated sublattice again.

    anchor is the ambient K' of the piece (_decompose_in_basis) on the plus
    side of a K-fixing input, else None.  It lies in side & B^perp and is
    handed to _side as its anchor, in ambient coordinates, as eigen_data
    hands it K, so the box search of criteria._find_anchor runs only on
    sides with no such anchor.

    When every product is zero (a fix block and the minus side, a negate
    block and the plus side), side & B^perp is the side itself, which is
    kept with its anchor and frame.  Rebuilding it would give the same
    basis and anchor: the box search would find its anchor again, and K'
    has not moved, as K'.b = 0 for every b of a block orthogonal to the
    side that holds K'."""
    rows = [[sum(map(mul, jb, v)) for v in side.basis] for jb in jbs]
    if not any(map(any, rows)):
        return side
    basis = criteria._lift(side.basis, xl.kernel(rows))
    pos = side.positive
    return criteria._side(gram, basis, (pos, len(basis) - pos), anchor)
