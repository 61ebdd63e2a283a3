"""Shared search and obstruction logic for the reducibility routes.

An involution g is probed along five routes:

  a. fixed class c with Q(c, c) = +1            (n <= 7 only)
  b. fixed isotropic pair c1, c2, Q(c1, c2) = 1 (n <= 8)
  c. fixed class c with Q(c, c) = -1
  d. swapped pair of classes of square -1, built from congruent roots
  e. antifixed class c with Q(c, c) = -1

Each route is either closed by a parity / mod-2 / mod-4 / completeness
argument, produces an explicit witness, or stays open after a bounded
search.  The closure order is parity (an even Gram diagonal or even
products), then mod 4 on L/2L, then the search, whose completeness closes
a definite side.
Routes a, c and e are one norm route (_norm_route) for the square +1 or -1
on one eigen side, closed by parity when its Gram has an even diagonal.

The mod-4 closures rest on one fact: for c in an eigen side L with Gram G,
c^2 mod 4 and G c mod 2 depend only on c mod 2L.  _classes_mod4 walks the
nonzero classes of L/2L in Gray-code order at O(1) a class (at most
2^9 - 1 of them) and stops at the first class that allows the target.  A
unit route closes when no class has square +-1 mod 4; route b closes when
no class could hold an isotropic vector with a hyperbolic partner.  On a
definite side the complete search already decides, so the norm routes run
the walk only on indefinite sides.

Searches in definite eigenlattices are complete; in an indefinite
eigenlattice they run slice by slice against an anchor vector of positive
square, which makes the outcome stable under conjugation by
anchor-preserving isometries.

The anchor rule: the canonical class K when the involution fixes it, else
the first vector of positive square in coordinate boxes of growing radius
(_find_anchor).  irreducibility hands in each involution that does not
fix K as its chamber conjugate, so the box search runs in that basis, and
K is the anchor again when the conjugate fixes it.

Route b skips every c1 without a hyperbolic partner, which an exact mod-2
test (has_partner) detects, so only vectors that can pair scan for a c2;
the scan order and the first pair found are those of the full scan.  It
reads each slab lazily: the anchor frame's descent is ordered so that a
slab comes out ascending, and AnchorFrame.ascending merges slabs t and -t
as they are read, so the scan stops at its witness without enumerating the
rest of the slab.

Route d rests on the Z[G] splitting Z^t + Z_-^c + Z[G]^r of M under g: a
swapped pair lives in the Z[G]^r part, and since 1 - g = 1 + g mod 2, the
images of L_plus and L_minus in M/2M meet in a space of dimension exactly
r.  A pair a = b (mod 2M) therefore has a in the congruent sublattice
Lambda(L, L') = {v in L : v = w (mod 2M), w in L'} of its side and b in
that of the other side; each has index 2^(rank L - r) and holds 2L
(_congruent_sublattice, one F2 elimination).  The definite side's roots
are one complete search of its Lambda; the other side searches its own
Lambda, and when that side is indefinite, against the anchor 2p for its
anchor p, so slab s = 2t holds the vectors of slab t against p and the odd
slabs are empty.

The search engine yields ambient int tuples: the exact-norm descent of
enumeration lifts each vector as it finds it, from the side's basis
columns, so _search_batches passes the batches on as they come and no
consumer lifts.  A slab vector's lift is divided by the anchor's square,
which is exact because the descent visits only the complement coset whose
vectors are integral in the frame's own basis; that holds on any
sublattice, saturated or not.  The anchor frame behind it (complement,
residues, scaled Cholesky data) is built once per eigen side and shared by
every route on that side (_frame), and route d's frame of the other
side's Lambda is built once per eigen data.  Route b runs the partner test
only on the c1 it draws and computes J c1 only for the c1 that pass it;
route d pairs the roots of the two Lambdas by parity; lattice vectors are
built only for the witnesses returned.

This is the one search engine of the package: check_reducible runs the
routes on eigen_data, decompose starts from the same eigen_data, splits
with routes c, d and e and narrows both sides (_side) after each split, and
invariant_of builds its eigenlattices with eigen_data and runs the flag
routes a-d on them.  Every anchor search uses one box radius, ANCHOR_RADIUS.
"""
from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import Iterator, List, Optional, Tuple

from .errors import InputError
from . import enumeration as en
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    LatticeVector,
    Sublattice,
    fixed_and_antifixed,
    has_even_products,
    sign_canonical_coords,
)

Coords = Tuple[int, ...]

DEFAULT_HEIGHT_BOUND = 10
FLAG_BOUND = 4
ANCHOR_RADIUS = 4     # coordinate box radius of the anchor search

CLOSED = "closed"
WITNESS = "witness"
OPEN = "open"


def resolve_height_bound(height_bound: Optional[int]) -> int:
    """The given bound, else DPZ_HEIGHT_BOUND, else DEFAULT_HEIGHT_BOUND; a
    bound below 1 raises InputError."""
    source = "height bound"
    if height_bound is None:
        raw = os.environ.get("DPZ_HEIGHT_BOUND")
        if raw is None:
            return DEFAULT_HEIGHT_BOUND
        source = "DPZ_HEIGHT_BOUND"
        try:
            height_bound = int(raw)
        except ValueError:
            raise InputError("DPZ_HEIGHT_BOUND must be an integer")
    if height_bound < 1:
        raise InputError(f"{source} must be positive")
    return height_bound


@dataclass(frozen=True)
class RouteResult:
    status: str           # closed / witness / open
    reason: str           # machine-checkable predicate tag
    witnesses: Tuple[LatticeVector, ...] = ()


@dataclass
class _EigenSide:
    """One eigenlattice with its restricted Gram and search anchor.

    An indefinite side with an anchor builds its enumeration.AnchorFrame
    (the anchor complement, its residue data and, at the first slab that
    needs them, its scaled Cholesky data) at its first slab (_frame), and
    every route on the side reuses it.
    """

    sub: Sublattice
    gram: Tuple[Tuple[int, ...], ...]
    definite: bool        # complete searches available
    anchor: Optional[List[int]]  # coords in sub basis, positive square
    positive: int         # the positive inertia of gram
    frame: Optional[en.AnchorFrame] = field(default=None, repr=False, compare=False)


@dataclass
class EigenData:
    """Both eigen sides of g; glue is the congruent sublattice of route d's
    other side (_congruent_sublattice), built at its first search and kept,
    with its AnchorFrame, for every later route_d call."""

    g: Isometry
    plus: _EigenSide
    minus: _EigenSide
    glue: Optional[_EigenSide] = field(default=None, repr=False, compare=False)


def _find_anchor(gram, preferred: Optional[List[int]]) -> Optional[List[int]]:
    """The preferred coordinates, else the first vector of positive square
    in coordinate boxes of growing radius up to ANCHOR_RADIUS."""
    if preferred is not None:
        return preferred
    n = len(gram)
    for radius in range(1, ANCHOR_RADIUS + 1):
        if (2 * radius + 1) ** n > 5 * 10 ** 6:
            return None
        hit = _box_search(gram, range(-radius, radius + 1), 0, 0, [0] * n, [0] * n)
        if hit is not None:
            return hit
    return None


def _box_search(gram, box, k: int, square: int, lin: List[int],
                x: List[int]) -> Optional[List[int]]:
    """The first x in itertools.product(box, repeat=n) order, with x_0..x_{k-1}
    fixed, of positive square.

    square is Q(x_0..x_{k-1}) and lin[j] = sum_{i<k} G_ji x_i, so setting
    x_k = v adds 2 v lin[k] + G_kk v^2 and each step costs O(n), not O(n^2).
    """
    row, lk = gram[k], lin[k]
    d = row[k]
    last = k == len(gram) - 1
    for v in box:
        s = square + (2 * lk + d * v) * v
        x[k] = v
        if last:
            if s > 0:
                return list(x)
        else:
            hit = _box_search(gram, box, k + 1, s,
                              [a + v * b for a, b in zip(lin, row)], x)
            if hit is not None:
                return hit
    return None


def _side(sub: Sublattice, preferred: Optional[Coords] = None,
          signature: Optional[Tuple[int, int]] = None) -> _EigenSide:
    """The search data of an eigenlattice.  It must be saturated, as every
    kernel basis is: the routes search the whole eigenlattice, and a basis
    of smaller index would miss the classes outside its span.  preferred is
    the preferred anchor, in the sub basis (fixed_and_antifixed gives K's);
    signature is the side's (positive, negative) inertia when the caller
    knows it (_anchored_signatures, irreducibility._narrow), else
    sylvester_signature computes it."""
    if not sub.saturated:
        raise InputError("an eigen side must be a saturated sublattice")
    gram = sub.gram()
    if sub.rank == 0:
        return _EigenSide(sub, gram, True, None, 0)
    if signature is None:
        pos, neg, zero = xl.sylvester_signature(gram)
        if zero:
            raise InputError("degenerate eigenlattice; input is not an isometry")
    else:
        pos, neg = signature
    definite = pos == 0 or neg == 0
    anchor = None
    if not definite:
        anchor = _find_anchor(gram, None if preferred is None else list(preferred))
    return _EigenSide(sub, gram, definite, anchor, pos)


@lru_cache(maxsize=None)
def _lattice_signature(gram: Tuple[Tuple[int, ...], ...]) -> Tuple[int, int, int]:
    return xl.sylvester_signature(gram)


def _anchored_signatures(plus: Sublattice, minus: Sublattice, anchor: LatticeVector,
                         coords: Optional[Coords]) -> Optional[Tuple[Tuple[int, int], ...]]:
    """The (positive, negative) inertia of both eigen sides when g fixes an
    anchor of positive square (coords, its plus coordinates, not None) in a
    lattice of signature (1, n), else None.

    The sides are nondegenerate (they are orthogonal and span a subgroup of
    finite index), so plus, which holds the anchor, has signature (1, r - 1),
    and minus lies in the anchor's orthogonal complement, which is negative
    definite.  For K, with K^2 = 9 - n > 0 on M_n, n <= 8, that is every
    K-fixing involution.
    """
    if coords is None or anchor.norm() <= 0:
        return None
    lat = anchor.lattice
    if _lattice_signature(lat.gram) != (1, lat.rank - 1, 0):
        return None
    return (1, plus.rank - 1), (0, minus.rank)


def eigen_data(g: Isometry, anchor: Optional[LatticeVector] = None) -> EigenData:
    """Eigenlattice data, the one constructor of both eigen sides; the
    anchor is used only when g fixes it.

    When g fixes the anchor, the plus side is anchored at its coordinates,
    and the signatures come from _anchored_signatures where it knows them;
    sylvester_signature runs only where it does not.  g must be an
    involution; fixed_and_antifixed tests that from its kernels, without
    forming g^2.
    """
    if anchor is None:
        plus, minus = fixed_and_antifixed(g)
        return EigenData(g, _side(plus), _side(minus))
    plus, minus, coords = fixed_and_antifixed(g, anchor)
    known = _anchored_signatures(plus, minus, anchor, coords)
    if known is None:
        return EigenData(g, _side(plus, coords), _side(minus))
    return EigenData(g, _side(plus, coords, known[0]), _side(minus, None, known[1]))


def _search_batches(side: _EigenSide, target: int, t_bound: int):
    """Yield complete batches of ambient coordinates of the side's vectors
    of the exact square, cheapest first.

    A definite eigenlattice gives a single exhaustive batch in
    definite_vectors order; an indefinite one is sliced against its anchor
    in order of increasing |<anchor, c>|, each slab as anchored_norm_slices
    yields it, ascending, from the side's AnchorFrame (_frame).  Both
    searches lift with the side's basis rows (the frame holds them), so
    their vectors come out in ambient coordinates.
    """
    sub, gram = side.sub, side.gram
    if sub.rank == 0:
        return
    if side.definite:
        yield en.definite_vectors(gram, target, sub._rows)
        return
    if side.anchor is None:
        return
    for _, batch in en.anchored_norm_slices(_frame(side), target, t_bound):
        yield batch


def _frame(side: _EigenSide) -> en.AnchorFrame:
    """The AnchorFrame of an indefinite side with an anchor, built at its
    first use and kept on the side."""
    if side.frame is None:
        side.frame = en.AnchorFrame(side.gram, side.anchor, side.sub._rows)
    return side.frame


def _classes_mod4(gram):
    """Yield (c^2 mod 4, G c mod 2 packed as in xl.f2_bits) for the nonzero
    classes c of L/2L, in Gray-code order.

    Both depend only on c mod 2L, since (c + 2y)^2 = c^2 + 4 c.y + 4 y^2.
    Flipping bit i of c adds +-e_i, so c^2 moves by 2 (G c)_i + G_ii, which
    mod 4 is 2 w_i + G_ii for w = G c mod 2, and w moves by column i of G:
    O(1) a class, at most 2^rank - 1 classes.
    """
    cols = [xl.f2_bits(row) for row in gram]    # G is symmetric: rows are columns
    q = w = 0
    for k in range(1, 1 << len(gram)):
        i = (k & -k).bit_length() - 1
        q = (q + 2 * ((w >> i) & 1) + gram[i][i]) & 3
        w ^= cols[i]
        yield q, w


def _mod4_allows_square(gram, target: int) -> bool:
    """Whether some class of L/2L has square target mod 4, as any vector of
    square target must."""
    return any(q == target % 4 for q, _ in _classes_mod4(gram))


def _mod4_allows_partner(gram) -> bool:
    """Whether some class of L/2L passes has_partner mod 2L: c^2 = 0 mod 4 and
    G c mod 2 outside {0, diag(G)}, as the class of an isotropic c1 with a
    hyperbolic partner must (gcd(G c1) = 1 rules out G c1 = 0 mod 2)."""
    diag = xl.f2_bits([gram[i][i] for i in range(len(gram))])
    return any(q == 0 and w and w != diag for q, w in _classes_mod4(gram))


def _norm_route(side: _EigenSide, target: int, t_bound: int, even: str,
                mod4: str, found: str, exhausted: str) -> RouteResult:
    """Routes a, c and e, for an odd target: closed with reason even when the
    side's Gram has an even diagonal, as every square is then even; on an
    indefinite side, closed with reason mod4 when no class of L/2L has
    square target mod 4; else a witness, the sign-canonical lex-min vector
    of the first nonempty batch; else closed with reason exhausted on a
    definite side, open otherwise.  A definite side keeps its complete
    search, so its closures stay the exhausted ones."""
    gram = side.gram
    if all(gram[i][i] % 2 == 0 for i in range(len(gram))):
        return RouteResult(CLOSED, even)
    if not side.definite and not _mod4_allows_square(gram, target):
        return RouteResult(CLOSED, mod4)
    for batch in _search_batches(side, target, t_bound):
        if batch:
            best = min(sign_canonical_coords(c) for c in batch)
            return RouteResult(WITNESS, found, (side.sub.ambient.vector(best),))
    if side.definite:
        return RouteResult(CLOSED, exhausted)
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def route_a(data: EigenData, n: int, t_bound: int) -> RouteResult:
    if n > 7:
        return RouteResult(CLOSED, "not_applicable")
    return _norm_route(data.plus, 1, t_bound, "plus_even_norms", "plus_no_unit_mod4",
                       "fixed_norm_plus1", "plus_definite_exhausted")


def has_partner(gram, c1) -> bool:
    """Whether the isotropic c1 lies in a hyperbolic pair of the lattice.

    With v = G c1, the y with v.y = 1 form y0 + ker v, and y^2 = diag(G).y
    mod 2 is constant on that coset exactly when diag(G) is 0 or v mod 2.
    So a partner exists iff gcd(v) = 1 and v != diag(G) mod 2; it is then
    y - (y^2 / 2) c1 for a y of even square.
    """
    return _partner_test(gram, xl.mat_vec(gram, c1))


def _partner_test(gram, v) -> bool:
    """has_partner for the isotropic c1 with v = G c1."""
    return (math.gcd(*v) == 1
            and any((x - gram[i][i]) % 2 for i, x in enumerate(v)))


def _drawn(got: List[Coords], batch) -> Iterator[Coords]:
    """Yield the vectors of got, then those drawn from the iterator batch,
    each appended to got as it is drawn: every scan of one lazy batch reads
    it from the start, and the batch is computed only as far as the
    furthest scan reads."""
    i = 0
    while True:
        if i == len(got):
            c = next(batch, None)
            if c is None:
                return
            got.append(c)
        yield got[i]
        i += 1


def route_b(data: EigenData, t_bound: int) -> RouteResult:
    """A fixed hyperbolic pair: the first c1 of a slab, in ambient order,
    with a c2 of this or an earlier slab such that c1.c2 = 1.

    The scan runs on the ambient int tuples of the slabs, and only the c1
    visited are tested.  ((J b_k).c1)_k over the side basis b_k is G times
    the side coordinates of c1, which the partner test reads to skip a c1
    that can pair with nothing; for a c1 that passes, w = J c1 gives the
    pair products w.c2.  The pool is not filtered: an isotropic c2 with
    c1.c2 = 1 has the partner c1, so the first hit is the one of the
    filtered scan.  Lattice vectors are built only for the two witnesses.

    The batch of |t| is read lazily from the side's AnchorFrame
    (AnchorFrame.ascending), whose ordered descent gives the vectors of
    slabs t and -t already ascending, so the scan stops at its witness
    without computing the rest of the slab: c1 is the first vector, in
    batch order, that passes the partner test, and c2 the first vector of
    the merge of the earlier batches with this one that pairs with it; the
    batch is drawn only as far as either scan reads (_drawn).  The witness
    is the one of the scan over the complete sorted batches.

    Before any slab, the route closes by parity (rank below 2, even
    products, a definite side) and then mod 4 (plus_no_partner_mod4): the
    class of an isotropic c1 with a partner has c1^2 = 0 mod 4 and G c1 mod
    2 outside {0, diag(G)}, so when no class of L/2L does
    (_mod4_allows_partner), the side has no hyperbolic pair at all.
    """
    side = data.plus
    if side.sub.rank < 2:
        return RouteResult(CLOSED, "plus_rank_below_2")
    if has_even_products(side.gram):
        return RouteResult(CLOSED, "plus_even_products")
    if side.definite:
        return RouteResult(CLOSED, "plus_definite_no_isotropic")
    gram, sub = side.gram, side.sub
    if not _mod4_allows_partner(gram):
        return RouteResult(CLOSED, "plus_no_partner_mod4")
    if side.anchor is not None:
        lat = sub.ambient
        frame = _frame(side)
        j_basis = [xl.mat_vec(lat.gram, v.coords) for v in sub.basis]
        seen: List[Coords] = []
        for t in range(t_bound + 1):
            batch, got = frame.ascending(0, t), []
            for c1 in _drawn(got, batch):
                if not _partner_test(gram, [sum(map(mul, jb, c1)) for jb in j_basis]):
                    continue
                w = [sum(map(mul, row, c1)) for row in lat.gram]
                for c2 in heapq.merge(seen, _drawn(got, batch)):
                    if sum(map(mul, w, c2)) == 1:
                        return RouteResult(WITNESS, "fixed_hyperbolic_pair",
                                           tuple(lat.vector(c) for c in sorted((c1, c2))))
            seen = list(heapq.merge(seen, got))
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def route_c(data: EigenData, t_bound: int) -> RouteResult:
    return _norm_route(data.plus, -1, t_bound, "plus_even_norms", "plus_no_minus1_mod4",
                       "fixed_norm_minus1", "plus_definite_exhausted")


def _congruent_sublattice(side: _EigenSide, other: _EigenSide) -> _EigenSide:
    """The search data of the congruent sublattice Lambda(L, L') = {v in L :
    v = w (mod 2M) for some w in L'} of the side L against the other side L'.

    Each basis vector b_i of L, packed as in xl.f2_bits, is reduced against
    one F2 echelon of L', and one more elimination of those residues tracks
    the combinations, as f2_echelon reduces.  x in Z^r lies in Lambda
    exactly when the residues with x_i odd sum to 0, so Lambda has the basis,
    in index order, of 2 e_i at each pivot i and, at every other i, the 0/1
    kernel combination (1 at i, its other entries at pivots): 2L lies in
    Lambda and the index is 2^pivots, with no HNF.  An anchor p of L becomes
    2p, which lies in Lambda because 2L does: 2 p_j at a non-pivot j, and
    p_i - sum_j k_j[i] p_j at a pivot i.  Lambda is not saturated, which the
    search does not need: the slab descent tests integrality in the basis
    of its own frame.
    """
    echelon = xl.f2_echelon(xl.f2_bits(v.coords) for v in other.sub.basis)
    rank = side.sub.rank
    pivots: List[Tuple[int, int]] = []    # (residue, combination mask)
    cols = []
    for i, v in enumerate(side.sub.basis):
        bits, comb = xl.f2_reduce(echelon, xl.f2_bits(v.coords)), 1 << i
        for b, c in pivots:
            if bits ^ b < bits:
                bits, comb = bits ^ b, comb ^ c
        if bits:
            pivots.append((bits, comb))
            cols.append([2 * (j == i) for j in range(rank)])
        else:
            cols.append([(comb >> j) & 1 for j in range(rank)])
    sub = Sublattice(side.sub.ambient, tuple(side.sub.from_coords(c) for c in cols))
    anchor = None
    if side.anchor is not None:
        p, free = side.anchor, [j for j in range(rank) if cols[j][j] == 1]
        anchor = [2 * p[i] if cols[i][i] == 1 else p[i] - sum(cols[j][i] * p[j] for j in free)
                  for i in range(rank)]
    return _EigenSide(sub, sub.gram(), side.definite, anchor, side.positive)


def _has_root(side: _EigenSide) -> bool:
    """Whether a definite side holds a vector of square -2: a -2 on its Gram
    diagonal, else one complete search."""
    gram = side.gram
    return bool(side.sub.rank) and (any(gram[i][i] == -2 for i in range(len(gram)))
                                    or bool(en.definite_vectors(gram, -2)))


def route_d(data: EigenData, t_bound: int) -> RouteResult:
    """Swapped (-1)-pair via roots a in L_minus, b in L_plus, a = b mod 2M.

    One eigenlattice is always definite, so its search is complete and the
    mod-2 congruence argument can close the route outright.  Only vectors of
    the congruent sublattices can pair: the complete side searches
    Lambda(complete, other) for its roots, one definite_vectors call; when
    it has none, the route closes as mod2_unsolvable if the side has a root
    at all (_has_root), else as no_{side}_roots.  The other side searches
    Lambda(other, complete), cached on the eigen data: definite, one batch;
    indefinite, slabs s = 2t against the anchor 2p, so slab s holds the
    vectors of slab t = s / 2 against p, and the odd slabs are empty.  The
    pairs are compared as int tuples by parity; the witnesses are the
    sign-canonical lex-min c1 = (a + b) / 2 of the first slab with a pair,
    and g(c1).
    """
    if data.minus.definite:
        complete_side, complete, other = "minus", data.minus, data.plus
    else:
        complete_side, complete, other = "plus", data.plus, data.minus
    congruent = [a for batch in _search_batches(_congruent_sublattice(complete, other), -2,
                                                t_bound) for a in batch]
    if not congruent:
        if _has_root(complete):
            return RouteResult(CLOSED, "mod2_unsolvable")
        return RouteResult(CLOSED, f"no_{complete_side}_roots")
    if data.glue is None:
        data.glue = _congruent_sublattice(other, complete)
    by_parity: dict = {}
    for a in congruent:
        by_parity.setdefault(xl.f2_bits(a), []).append(a)
    for batch in _search_batches(data.glue, -2, 2 * t_bound):
        best = None
        for b in batch:
            for a in by_parity.get(xl.f2_bits(b), ()):
                c1 = sign_canonical_coords(tuple((x + y) // 2 for x, y in zip(a, b)))
                if best is None or c1 < best:
                    best = c1
        if best is not None:
            c1 = data.g.lattice.vector(best)
            return RouteResult(WITNESS, "swapped_minus1_pair", (c1, data.g.apply(c1)))
    if other.definite:
        return RouteResult(CLOSED, "definite_pairs_exhausted")
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def route_e(data: EigenData, t_bound: int) -> RouteResult:
    return _norm_route(data.minus, -1, t_bound, "minus_even_norms", "minus_no_minus1_mod4",
                       "antifixed_norm_minus1", "minus_definite_exhausted")


def iter_routes(data: EigenData, n: int, t_bound: int):
    """The five routes in priority order a..e, evaluated lazily."""
    yield "a", route_a(data, n, t_bound)
    yield "b", route_b(data, t_bound)
    yield "c", route_c(data, t_bound)
    yield "d", route_d(data, t_bound)
    yield "e", route_e(data, t_bound)


def route_flags(data: EigenData, n: int) -> Tuple[Optional[bool], ...]:
    """Tristate search flags at the small conjugation-stable bound.

    With the canonical class as anchor, the slice search commutes with
    conjugation by isometries fixing it, so these are class invariants.
    A closed route gives False whether a parity, mod-4 or complete search
    closed it; None is left only where a bounded search ended open.
    """
    flags = []
    for _, res in itertools.islice(iter_routes(data, n, FLAG_BOUND), 4):
        if res.status == WITNESS:
            flags.append(True)
        elif res.status == CLOSED:
            flags.append(False)
        else:
            flags.append(None)
    return tuple(flags)
