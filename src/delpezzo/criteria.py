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
square (the canonical class when it is fixed), which makes the outcome
stable under conjugation by anchor-preserving isometries.

This is the one search engine of the package: check_reducible runs the
routes on eigen_data, and decompose builds the eigen sides of each piece
with _side and draws its candidates from _search_batches.  When no
preferred anchor applies, the caller chooses the radius of the coordinate
box searched for one (ANCHOR_RADIUS for eigen_data).
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    sign_canonical,
)

DEFAULT_HEIGHT_BOUND = 10
FLAG_BOUND = 4
ANCHOR_RADIUS = 3     # coordinate box radius of the anchor search in eigen_data

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


def _find_anchor(gram, preferred: Optional[List[int]],
                 max_radius: int) -> Optional[List[int]]:
    """The preferred coordinates, else the first vector of positive square
    in coordinate boxes of growing radius up to max_radius."""
    if preferred is not None:
        return preferred
    n = len(gram)
    for radius in range(1, max_radius + 1):
        if (2 * radius + 1) ** n > 5 * 10 ** 6:
            return None
        for c in itertools.product(range(-radius, radius + 1), repeat=n):
            if not any(c):
                continue
            if sum(c[i] * gram[i][j] * c[j] for i in range(n) for j in range(n)) > 0:
                return list(c)
    return None


def _side(sub: Sublattice, anchor_vec: Optional[LatticeVector],
          anchor_radius: int) -> _EigenSide:
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
        anchor = _find_anchor(gram, preferred, anchor_radius)
    return _EigenSide(sub, gram, definite, anchor)


def eigen_data(g: Isometry, anchor: Optional[LatticeVector] = None) -> EigenData:
    """Eigenlattice data; the anchor is used only when g fixes it."""
    if not g.is_involution():
        raise InputError("not an involution")
    plus, minus = fixed_and_antifixed(g)
    fixed_anchor = anchor if (anchor is not None and g.apply(anchor) == anchor) else None
    return EigenData(g, _side(plus, fixed_anchor, ANCHOR_RADIUS),
                     _side(minus, None, ANCHOR_RADIUS))


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


def _vectors(side: _EigenSide, batch) -> List[LatticeVector]:
    """Ambient vectors of a batch of side coordinates, sorted."""
    return sorted(side.sub.from_coords(c) for c in batch)


def _search(side: _EigenSide, target: int, t_bound: int):
    """(vectors of the exact square in the eigenlattice, complete?)."""
    if side.sub.rank == 0:
        return [], True
    out = [side.sub.from_coords(c)
           for batch in _search_batches(side, target, t_bound) for c in batch]
    return sorted(out), side.definite


def _first_hit(side: _EigenSide, target: int, t_bound: int):
    """(lex-min vector of the first nonempty slab, complete?)."""
    if side.sub.rank == 0:
        return None, True
    for batch in _search_batches(side, target, t_bound):
        if batch:
            return min(sign_canonical(side.sub.from_coords(c)) for c in batch), side.definite
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


def route_b(data: EigenData, n: int, t_bound: int) -> RouteResult:
    if data.plus.sub.rank < 2:
        return RouteResult(CLOSED, "plus_rank_below_2")
    if has_even_products(data.plus.sub):
        return RouteResult(CLOSED, "plus_even_products")
    if data.plus.definite:
        return RouteResult(CLOSED, "plus_definite_no_isotropic")
    seen: List[LatticeVector] = []
    for coords in _search_batches(data.plus, 0, t_bound):
        batch = _vectors(data.plus, coords)
        pool = sorted(seen + batch)
        # first hit in sorted scan order; deterministic since slabs are
        # visited in a fixed order and each batch is complete
        for c1 in batch:
            for c2 in pool:
                if c1 != c2 and c1.dot(c2) == 1:
                    return RouteResult(WITNESS, "fixed_hyperbolic_pair",
                                       tuple(sorted((c1, c2))))
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


def route_d(data: EigenData, n: int, t_bound: int) -> RouteResult:
    """Swapped (-1)-pair via roots a in L_minus, b in L_plus, a = b mod 2L.

    One eigenlattice is always definite, so its root list is complete and
    the mod-2 congruence argument can close the route outright.
    """
    if data.minus.definite:
        complete_side, other = "minus", data.plus
    else:
        complete_side, other = "plus", data.minus
    complete_list, _ = _search(getattr(data, complete_side), -2, t_bound)
    if not complete_list:
        return RouteResult(CLOSED, f"no_{complete_side}_roots")
    other_basis = other.sub.basis_matrix()
    congruent = [
        a for a in complete_list
        if xl.f2_solvable([[x % 2 for x in row] for row in other_basis],
                          [x % 2 for x in a.coords])
    ]
    if not congruent:
        return RouteResult(CLOSED, "mod2_unsolvable")

    def _pair(a: LatticeVector, b: LatticeVector):
        if any((x - y) % 2 for x, y in zip(a.coords, b.coords)):
            return None
        lat = data.g.lattice
        c1 = lat.vector(tuple((x + y) // 2 for x, y in zip(a.coords, b.coords)))
        c1 = sign_canonical(c1)
        return (c1, data.g.apply(c1))

    for coords in _search_batches(other, -2, t_bound):
        batch = _vectors(other, coords)
        best = None
        for a in congruent:
            for b in batch:
                cand = _pair(a, b)
                if cand is not None and (best is None or cand < best):
                    best = cand
        if best is not None:
            return RouteResult(WITNESS, "swapped_minus1_pair", best)
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
    yield "b", route_b(data, n, t_bound)
    yield "c", route_c(data, t_bound)
    yield "d", route_d(data, n, t_bound)
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
