"""Shared search and obstruction logic for the reducibility routes.

An involution g is probed along five routes:

  a. fixed class c with Q(c, c) = +1            (n <= 7 only)
  b. fixed isotropic pair c1, c2, Q(c1, c2) = 1 (n <= 8)
  c. fixed class c with Q(c, c) = -1
  d. swapped pair of classes of square -1, built from congruent roots
  e. antifixed class c with Q(c, c) = -1

Each route is either closed by a parity / mod-2 / completeness argument,
produces an explicit witness, or stays open after a bounded search.
Searches in definite eigenlattices are complete; in an indefinite
eigenlattice they run slice by slice against an anchor vector of positive
square, which makes the outcome stable under conjugation by
anchor-preserving isometries.

The anchor rule: the canonical class K when the involution fixes it, else
the first vector of positive square in coordinate boxes of growing radius
(_find_anchor).  irreducibility hands in each involution that does not
fix K as its chamber conjugate, so the box search runs in that basis, and
K is the anchor again when the conjugate fixes it.

Route b skips every isotropic vector without a hyperbolic partner, which an
exact mod-2 test (has_partner) detects, so only vectors that can pair are
scanned; the scan order and the first pair found are those of the full scan.

The scans of routes b and d run on int tuples from the slab down to the
witness: side coordinates are lifted to ambient ones once (Sublattice.lift),
route b computes G c once per isotropic vector for both the partner test
and the pair products, route d tests roots mod 2 against one F2 echelon of
the other side and pairs them by parity, and lattice vectors are built only
for the witnesses returned.

This is the one search engine of the package: check_reducible runs the
routes on eigen_data, decompose builds an EigenData for each piece and
splits with routes c, d and e, and the invariant flags run routes a-d on
the eigenlattices the invariant already holds.  Every anchor search uses
one box radius, ANCHOR_RADIUS.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import InputError
from . import enumeration as en
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    LatticeVector,
    Sublattice,
    fixed_and_antifixed,
    has_even_products,
    is_even,
    sign_canonical_coords,
)

Coords = Tuple[int, ...]

DEFAULT_HEIGHT_BOUND = 10
FLAG_BOUND = 4
ANCHOR_RADIUS = 4     # coordinate box radius of the anchor search

CLOSED = "closed"
WITNESS = "witness"
OPEN = "open"


def height_bound_default() -> int:
    raw = os.environ.get("DPZ_HEIGHT_BOUND")
    if raw is None:
        return DEFAULT_HEIGHT_BOUND
    try:
        val = int(raw)
    except ValueError:
        raise InputError("DPZ_HEIGHT_BOUND must be an integer")
    if val < 1:
        raise InputError("DPZ_HEIGHT_BOUND must be positive")
    return val


@dataclass(frozen=True)
class RouteResult:
    status: str           # closed / witness / open
    reason: str           # machine-checkable predicate tag
    witnesses: Tuple[LatticeVector, ...] = ()


@dataclass
class _EigenSide:
    """One eigenlattice with its restricted Gram and search anchor."""

    sub: Sublattice
    gram: Tuple[Tuple[int, ...], ...]
    definite: bool        # complete searches available
    anchor: Optional[List[int]]  # coords in sub basis, positive square


@dataclass
class EigenData:
    g: Isometry
    plus: _EigenSide
    minus: _EigenSide


def _find_anchor(gram, preferred: Optional[List[int]]) -> Optional[List[int]]:
    """The preferred coordinates, else the first vector of positive square
    in coordinate boxes of growing radius up to ANCHOR_RADIUS."""
    if preferred is not None:
        return preferred
    n = len(gram)
    last = n - 1
    col, d = [gram[i][last] for i in range(last)], gram[last][last]
    for radius in range(1, ANCHOR_RADIUS + 1):
        if (2 * radius + 1) ** n > 5 * 10 ** 6:
            return None
        box = range(-radius, radius + 1)
        # product order; the square of (prefix, t) is a + 2 b t + d t^2
        for prefix in itertools.product(box, repeat=last):
            a = sum(prefix[i] * gram[i][j] * prefix[j]
                    for i in range(last) for j in range(last))
            b = sum(p * x for p, x in zip(prefix, col))
            for t in box:
                if a + 2 * b * t + d * t * t > 0:
                    return list(prefix) + [t]
    return None


def _side(sub: Sublattice, anchor_vec: Optional[LatticeVector] = None) -> _EigenSide:
    gram = sub.gram()
    if sub.rank == 0:
        return _EigenSide(sub, gram, True, None)
    pos, neg, zero = xl.sylvester_signature(gram)
    if zero:
        raise InputError("degenerate eigenlattice; input is not an isometry")
    definite = pos == 0 or neg == 0
    anchor = None
    if not definite:
        preferred = None
        if anchor_vec is not None:
            c = sub.coords_of(anchor_vec)
            if c is not None:
                preferred = list(c)
        anchor = _find_anchor(gram, preferred)
    return _EigenSide(sub, gram, definite, anchor)


def eigen_data(g: Isometry, anchor: Optional[LatticeVector] = None) -> EigenData:
    """Eigenlattice data; the anchor is used only when g fixes it.

    fixed_and_antifixed raises InputError when g is not an involution.
    """
    plus, minus = fixed_and_antifixed(g)
    fixed_anchor = anchor if (anchor is not None and g.apply(anchor) == anchor) else None
    return EigenData(g, _side(plus, fixed_anchor), _side(minus))


def _search_batches(side: _EigenSide, target: int, t_bound: int):
    """Yield complete batches of coordinates (in the side's basis) of the
    vectors of the exact square, cheapest first.

    A definite eigenlattice gives a single exhaustive batch in
    definite_vectors order; an indefinite one is sliced against its anchor
    in order of increasing |<anchor, c>|, each slab as anchored_norm_slices
    yields it.
    """
    sub, gram = side.sub, side.gram
    if sub.rank == 0:
        return
    if side.definite:
        if gram[0][0] > 0:  # a definite form has the sign of its diagonal
            yield en.definite_vectors([list(r) for r in gram], target) if target > 0 else []
        else:
            yield en.definite_vectors([[-x for x in r] for r in gram], -target) if target < 0 else []
        return
    if side.anchor is None:
        return
    for _, batch in en.anchored_norm_slices([list(r) for r in gram],
                                            side.anchor, target, t_bound):
        yield batch


def _first_hit(side: _EigenSide, target: int, t_bound: int):
    """(lex-min vector of the first nonempty slab, complete?)."""
    if side.sub.rank == 0:
        return None, True
    lift = side.sub.lift
    for batch in _search_batches(side, target, t_bound):
        if batch:
            best = min(sign_canonical_coords(lift(c)) for c in batch)
            return side.sub.ambient.vector(best), side.definite
    return None, side.definite


def route_a(data: EigenData, n: int, t_bound: int) -> RouteResult:
    if n > 7:
        return RouteResult(CLOSED, "not_applicable")
    if is_even(data.plus.sub):
        return RouteResult(CLOSED, "plus_even_norms")
    hit, complete = _first_hit(data.plus, 1, t_bound)
    if hit is not None:
        return RouteResult(WITNESS, "fixed_norm_plus1", (hit,))
    if complete:
        return RouteResult(CLOSED, "plus_definite_exhausted")
    return RouteResult(OPEN, f"searched(t<={t_bound})")


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


def route_b(data: EigenData, t_bound: int) -> RouteResult:
    """A fixed hyperbolic pair: the first c1 of a slab, in ambient order,
    with a c2 of this or an earlier slab such that c1.c2 = 1.

    The scan runs on int tuples: G c1 is computed once per isotropic vector
    and serves both the partner test and the products, each vector is
    lifted to ambient coordinates once, and lattice vectors are built only
    for the two witnesses.
    """
    if data.plus.sub.rank < 2:
        return RouteResult(CLOSED, "plus_rank_below_2")
    if has_even_products(data.plus.gram):
        return RouteResult(CLOSED, "plus_even_products")
    if data.plus.definite:
        return RouteResult(CLOSED, "plus_definite_no_isotropic")
    gram, sub = data.plus.gram, data.plus.sub
    seen: List[Tuple[Coords, Coords]] = []   # (ambient, side coordinates)
    for coords in _search_batches(data.plus, 0, t_bound):
        # an isotropic vector without a partner can be neither c1 nor c2
        batch = []
        for c in coords:
            v = xl.mat_vec(gram, c)
            if _partner_test(gram, v):
                batch.append((sub.lift(c), v, c))
        batch.sort()
        pool = sorted(seen + [(amb, c) for amb, _, c in batch])
        # first hit in sorted scan order; deterministic since slabs are
        # visited in a fixed order and each batch is complete
        for c1, v, _ in batch:
            for c2, y in pool:
                if sum(map(mul, v, y)) == 1:
                    lat = sub.ambient
                    return RouteResult(WITNESS, "fixed_hyperbolic_pair",
                                       tuple(lat.vector(w) for w in sorted((c1, c2))))
        seen = pool
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def route_c(data: EigenData, t_bound: int) -> RouteResult:
    if is_even(data.plus.sub):
        return RouteResult(CLOSED, "plus_even_norms")
    hit, complete = _first_hit(data.plus, -1, t_bound)
    if hit is not None:
        return RouteResult(WITNESS, "fixed_norm_minus1", (hit,))
    if complete:
        return RouteResult(CLOSED, "plus_definite_exhausted")
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def congruent_roots(roots: Sequence[Coords], other: _EigenSide) -> List[Coords]:
    """The roots (ambient coordinates) congruent mod 2 to some vector of the
    other eigen side, in their given order.

    The other side's basis mod 2 goes into one F2 echelon, and each root is
    reduced against it on packed ints.
    """
    echelon = xl.f2_echelon(xl.f2_bits(v.coords) for v in other.sub.basis)
    return [a for a in roots if not xl.f2_reduce(echelon, xl.f2_bits(a))]


def _roots(side: _EigenSide, t_bound: int) -> List[Coords]:
    """Ambient coordinates of the roots found on a side, in search order."""
    return [side.sub.lift(c) for batch in _search_batches(side, -2, t_bound) for c in batch]


def route_d(data: EigenData, t_bound: int) -> RouteResult:
    """Swapped (-1)-pair via roots a in L_minus, b in L_plus, a = b mod 2L.

    One eigenlattice is always definite, so its root list is complete and
    the mod-2 congruence argument can close the route outright.  The pairs
    are compared as int tuples; the witnesses are the sign-canonical lex-min
    c1 = (a + b) / 2 of the first slab with a pair, and g(c1).
    """
    if data.minus.definite:
        complete_side, other = "minus", data.plus
    else:
        complete_side, other = "plus", data.minus
    complete_list = _roots(getattr(data, complete_side), t_bound)
    if not complete_list:
        return RouteResult(CLOSED, f"no_{complete_side}_roots")
    congruent = congruent_roots(complete_list, other)
    if not congruent:
        return RouteResult(CLOSED, "mod2_unsolvable")
    by_parity: dict = {}
    for a in congruent:
        by_parity.setdefault(xl.f2_bits(a), []).append(a)
    for coords in _search_batches(other, -2, t_bound):
        best = None
        for c in coords:
            b = other.sub.lift(c)
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
    if is_even(data.minus.sub):
        return RouteResult(CLOSED, "minus_even_norms")
    hit, complete = _first_hit(data.minus, -1, t_bound)
    if hit is not None:
        return RouteResult(WITNESS, "antifixed_norm_minus1", (hit,))
    if complete:
        return RouteResult(CLOSED, "minus_definite_exhausted")
    return RouteResult(OPEN, f"searched(t<={t_bound})")


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
