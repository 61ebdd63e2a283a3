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
(_find_anchor).  An exact anchor enters one way: _side's along, a vector
in ambient coordinates, whose basis coordinates _anchor alone solves, and
only where a search needs them.  irreducibility picks one basis for
check_reducible and decompose alike (_k_fixing_conjugate): an involution
that fixes K as it is, else its chamber conjugate, or its normal form w_I
where that fixes K and the chamber conjugate does not, so K is the anchor
whenever one of the three fixes it, and the box search runs in the chamber
basis otherwise.  decompose anchors each piece B-perp of a K-fixing
involution at the piece's canonical class K' = K + sum (K.b) b, handed to
_side as K is.  So the box search runs only where no K-fixing basis is
found (g_00 < 0, a w_I that moves K, a normal form with no generic draw),
at n = 9, where K^2 = 0, and on lattices other than M_n.

Route b's search skips every c1 without a hyperbolic partner, which an
exact mod-2 test (has_partner) detects, so only vectors that can pair scan
for a c2; the scan order and the first pair found are those of the full
scan.  It scans the complete batches of _search_batches, as every route
does.  Its first slab, the fixed conics of a K-slab table, is scanned by
the same pair scan (_first_pair) with no partner test, and with no eigen
side read; the table is read from its top chunk down only as far as the
scan reaches (_FixedConics).

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

Routes a to d read their first witness off a K-slab table when K anchors
the plus side (eigen_data puts weyl._slab_table(n, -1, 1) on the data for a
K-fixing g on M_n, 2 <= n <= 8, which marks it), after their closures and
through one reader, table_witnesses, which holds every gate of a read.
decompose's narrowed data of such a g keep it while every split is a
blow-down, with the mask of the entries orthogonal to the peeled blocks
(EigenData.within): the piece is
M_k with canonical class K', its exceptional classes are those entries, and
every argument below holds on it with K' for K, so routes c and d read it
under the mask; routes a and b read no table there.  A table holds the
classes of one square and one |K.c|, one of each +- pair: the +1 classes
with |K.c| = 3 for route a (n <= 7), the conics (square 0, |K.c| = 2) for
route b, the exceptional classes (square -1, |K.c| = 1) for routes c and
d, to which route d adds their coordinate products
(weyl._exceptional_products).  Each is the first slab the search could
fill.  weyl keeps each table's layout and chunks, and every read goes
through its two readers: routes a, c and d read chunks from the bottom up
(_table_entry), route b from the top down (_FixedConics).
Parity: K is characteristic, so K.c = c^2 (mod 2), and K-perp is negative
definite, so an isotropic c != 0 has K.c even and nonzero, and a class of
square -1 has K.c odd.  Reverse Cauchy-Schwarz: a +1 class has
(K.c)^2 >= K^2 = 9 - n >= 2 for n <= 7, so |K.c| >= 3.  Inside the plus
side that slab holds exactly the fixed entries and their negatives.
Route d's pair (a, b) has c1 = (a + b) / 2 with a in K-perp, so K.b =
2 K.c1 is twice an odd number: the first glue slab that can pair is
|K.b| = 2, which the search reaches only at t_bound >= 2.  With no hit,
each route runs its search as it stands.

The search engine runs on plain int tuples.  An eigen side is a basis of
ambient coordinate tuples (lattice.eigenbases, one kernel per side, which
carries no anchor) with its Gram matrix and its anchor in ambient
coordinates, and the exact-norm descent of enumeration lifts each vector as
it finds it, from the side's basis columns, so _search_batches passes the
batches on as they come and no consumer lifts.  A slab vector's lift is
divided by the anchor's square, which is exact because the descent visits
only the complement coset whose vectors are integral in the frame's own
basis; that holds on any sublattice, saturated or not.  The anchor frame
behind it (complement, residues, scaled Cholesky data) is built once per
eigen side and shared by every route on that side (_frame), and route d's
frame of the other side's Lambda is built once per eigen data.  Route b
computes J c1 only for the c1 that pass the partner test; route d pairs
the roots of the two Lambdas by parity.
Witnesses are returned as ambient int tuples too, so no route builds a
lattice vector.

This is the one search engine of the package, and iter_routes is its one
rule of reuse: every route result is kept on the eigen data it ran on, with
its bound, and reused at any bound where it still holds.  check_reducible
keeps the eigen data of the first member of each class of K-fixing
involutions it meets (irreducibility's class record) and runs the routes on
it through iter_routes.  Every other member of the class takes each route's
status and reason from that data and its own witness from table_witnesses,
the routes' own first-slab reader, so it builds no eigen side.  An input
that moves K joins the record as its chamber conjugate or its normal form
w_I when that fixes K (weyl.normal_form), and runs the routes on its own
eigen_data otherwise.  decompose starts from the same eigen_data, in the
same basis, splits with routes c, d and e and narrows both sides
(_side) and the table's mask after each split, and invariant_of builds its
eigenlattices with eigen_data and runs the flag routes a-d on them at
FLAG_BOUND through iter_routes.  classify_involutions builds each
representative's eigen data once and keeps it on the class, and dpz
classify decides the class from that same data, so a route runs again only
where its flag result does not decide it.  Every anchor search uses one
box radius, ANCHOR_RADIUS.
"""
from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import partial
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InputError, is_json_int
from . import enumeration as en
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    _unit_diagonal,
    del_pezzo_lattice,
    eigenbases,
    gram_of,
    has_even_products,
    sign_canonical_coords,
)
from .weyl import (
    _Table,
    _exceptional_products,
    _slab_table,
    canonical_class,
    fixed_entries,
    zero_entries,
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
    bound that is not an int (errors.is_json_int: no bool, float or str) or
    is below 1 raises InputError.  DPZ_HEIGHT_BOUND must be ASCII decimal
    digits, after a minus sign that makes it negative: int() alone would
    also take a plus sign, spaces, underscores and non-ASCII digits."""
    source = "height bound"
    if height_bound is None:
        raw = os.environ.get("DPZ_HEIGHT_BOUND")
        if raw is None:
            return DEFAULT_HEIGHT_BOUND
        source = "DPZ_HEIGHT_BOUND"
        digits = raw[1:] if raw.startswith("-") else raw
        if not (digits.isascii() and digits.isdigit()):
            raise InputError("DPZ_HEIGHT_BOUND must be an integer")
        height_bound = int(raw)
    if not is_json_int(height_bound):
        raise InputError(f"{source} must be an integer")
    if height_bound < 1:
        raise InputError(f"{source} must be positive")
    return height_bound


@dataclass(frozen=True)
class RouteResult:
    status: str           # closed / witness / open
    reason: str           # machine-checkable predicate tag
    witnesses: Tuple[Coords, ...] = ()   # ambient coordinates


@dataclass
class _EigenSide:
    """One eigenlattice, by a basis of ambient int tuples, with its
    restricted Gram and search anchor.

    An indefinite side keeps its anchor, a vector of positive square, in
    ambient coordinates (ambient_anchor); its basis coordinates (anchor)
    are the box search's hit, or else solved at their first use (_anchor).
    A side with an anchor builds its enumeration.AnchorFrame (the anchor
    complement, its residue data and, at the first slab that needs them,
    its scaled Cholesky data) at its first slab (_frame), and every route
    on the side reuses it.
    """

    basis: Tuple[Coords, ...]
    gram: Tuple[Tuple[int, ...], ...]
    definite: bool        # complete searches available
    anchor: Optional[List[int]]  # coords in the basis, positive square
    positive: int         # the positive inertia of gram
    frame: Optional[en.AnchorFrame] = field(default=None, repr=False, compare=False)
    ambient_anchor: Optional[Coords] = field(default=None, repr=False, compare=False)


@dataclass
class EigenData:
    """Both eigen sides of g; glue is the congruent sublattice of route d's
    other side (_congruent_sublattice), built at its first search and kept,
    with its AnchorFrame, for every later route_d call.  results holds, by
    route name, the last RouteResult iter_routes got and the bound it ran
    at, which iter_routes reuses by the rule its docstring states.  On the
    eigen data of a K-fixing involution, every status and reason in results
    is also that of each conjugate of g under the stabilizer of K; only the
    witnesses are g's own (irreducibility's class record).

    exceptional is the table of exceptional classes,
    weyl._slab_table(n, -1, 1), when a canonical class anchors the plus
    side, else None: the one mark of that anchor.  eigen_data sets it for
    a K-fixing g on M_n, 2 <= n <= 8, and decompose keeps it on each
    piece B-perp of such an input, anchored at the piece's canonical class
    K', while every block it peeled is a blow-down
    (irreducibility._decompose_in_basis).  within is then the bitmask of the
    entries orthogonal to B (weyl.zero_entries of J b over the whole table,
    one per peeled b), the piece's exceptional classes; it is None on the
    first eigen data, whose classes are all the entries.  Routes c and d
    read their first slab's witness off the table under within, from the
    masks of the fixed entries and of those with c . g c = 0, read chunk by
    chunk from the bottom up (_table_entry).  masks keeps, by name, the
    state of each such read (route a's too, of the +1 table): the mask of
    the chunks read so far, their count, the table and g's chunk reader,
    with route d's scales (_pair_scales) computed once.  decompose hands it
    on from piece to piece, as none of it depends on the piece: a piece's
    read extends the mask from the chunk where the last read stopped.
    Routes a and b read the +1 and conic tables, weyl._slab_table(n, 1, 3)
    and (n, 0, 2), on the first eigen data only."""

    g: Isometry
    plus: _EigenSide
    minus: _EigenSide
    glue: Optional[_EigenSide] = field(default=None, repr=False, compare=False)
    results: Dict[str, Tuple[RouteResult, int]] = field(
        default_factory=dict, repr=False, compare=False)
    exceptional: Optional[_Table] = field(default=None, repr=False, compare=False)
    within: Optional[int] = field(default=None, repr=False, compare=False)
    masks: Dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)


def _find_anchor(gram) -> Optional[List[int]]:
    """The first vector of positive square in coordinate boxes of growing
    radius up to ANCHOR_RADIUS, else None.

    The box search runs on the indefinite sides of involutions with no
    K-fixing basis in irreducibility's rule: inputs with g_00 < 0, inputs
    whose w_I moves K, inputs with no generic normal-form draw, every input
    at n = 9, and involutions of lattices other than M_n."""
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


def _side(ambient_gram, basis: Tuple[Coords, ...],
          signature: Optional[Tuple[int, int]] = None,
          along: Optional[Sequence[int]] = None) -> _EigenSide:
    """The search data of an eigenlattice, given by a basis of ambient int
    tuples under the form ambient_gram.  The basis must span a saturated
    sublattice, as every xl.kernel basis does: the routes search the whole
    eigenlattice, and a basis of smaller index would miss the classes
    outside its span.

    along is the side's anchor in ambient coordinates, a vector of the side
    of positive square (eigen_data gives K, irreducibility._narrow a
    piece's K'), whose basis coordinates are solved only where a search
    needs them (_anchor).  Without it an indefinite side runs the box
    search (_find_anchor) and keeps the hit with its ambient lift.
    signature is the side's (positive, negative) inertia when the caller
    knows it (eigen_data, irreducibility._narrow), else
    sylvester_signature computes it."""
    gram = gram_of(ambient_gram, basis)
    if not basis:
        return _EigenSide(basis, gram, True, None, 0)
    if signature is None:
        pos, neg, zero = xl.sylvester_signature(gram)
        if zero:
            raise InputError("degenerate eigenlattice; input is not an isometry")
    else:
        pos, neg = signature
    if pos == 0 or neg == 0:
        return _EigenSide(basis, gram, True, None, pos)
    anchor = None
    if along is None:
        anchor = _find_anchor(gram)
        along = None if anchor is None else _lift(basis, [anchor])[0]
    return _EigenSide(basis, gram, False, anchor, pos,
                      ambient_anchor=None if along is None else tuple(along))


def _anchor(side: _EigenSide) -> Optional[List[int]]:
    """The side's anchor in basis coordinates, the one place they are
    formed apart from the box search: side.anchor, solved from
    side.ambient_anchor at the first call and kept there.  The basis is
    independent and holds the ambient anchor (a saturated side holds its
    vectors, and a congruent sublattice Lambda, which is not saturated,
    holds 2p as it holds 2L), so the solution is unique and integral."""
    if side.anchor is None and side.ambient_anchor is not None:
        side.anchor = xl.solve_integer(xl.transpose(side.basis), side.ambient_anchor)
    return side.anchor


def _lift(basis: Tuple[Coords, ...], xs) -> Tuple[Coords, ...]:
    """The ambient coordinates of sum_i x_i basis_i, for each x of xs."""
    rows = list(zip(*basis))
    return tuple(tuple([sum(map(mul, row, x)) for row in rows]) for x in xs)


def fixes(matrix, v: Sequence[int]) -> bool:
    """Whether the matrix fixes the vector of coordinates v: one
    matrix-vector product."""
    return xl.mat_vec(matrix, v) == list(v)


def _canonical_coords(lat) -> Optional[Coords]:
    """The coordinates of the canonical class K when lat is M_n with
    2 <= n <= 8, where K^2 = 9 - n > 0, else None: the one place the engine
    decides whether K can anchor an involution of lat."""
    n = lat.rank - 1
    if 2 <= n <= 8 and lat == del_pezzo_lattice(n):
        return canonical_class(n).coords
    return None


def eigen_data(g: Isometry) -> EigenData:
    """Eigenlattice data, the one constructor of both eigen sides, from the
    bases of lattice.eigenbases, which is also the involution test (no g^2
    is formed).

    One condition, g fixes the K of M_n with 2 <= n <= 8 (_canonical_coords
    and fixes, one matrix-vector product), decides three things.  K anchors
    the plus side, handed to _side in ambient coordinates.  Both signatures
    are known: K^2 = 9 - n > 0 in signature (1, n), and the sides are
    nondegenerate (they are orthogonal and span a subgroup of finite
    index), so plus, which holds K, has signature (1, r - 1), and minus lies
    in K-perp, which is negative definite.  And the data carry the table of
    exceptional classes (weyl._slab_table(n, -1, 1), built once per n),
    which marks the data for the routes that read K-slab tables.  Otherwise
    sylvester_signature gives the signatures, and an indefinite side runs
    the box search.
    """
    lat = g.lattice
    plus, minus = eigenbases(g)
    k = _canonical_coords(lat)
    if k is None or not fixes(g.matrix, k):
        return EigenData(g, _side(lat.gram, plus), _side(lat.gram, minus))
    return EigenData(g, _side(lat.gram, plus, (1, len(plus) - 1), k),
                     _side(lat.gram, minus, (0, len(minus))),
                     exceptional=_slab_table(lat.rank - 1, -1, 1))


def _search_batches(side: _EigenSide, target: int, t_bound: int):
    """Yield complete batches of ambient coordinates of the side's vectors
    of the exact square, cheapest first.

    A definite eigenlattice gives a single exhaustive batch in
    definite_vectors order; an indefinite one is sliced against its anchor
    in order of increasing |<anchor, c>|, each slab as anchored_norm_slices
    yields it, ascending and complete, from the side's AnchorFrame
    (_frame).  Both searches lift with the side's basis rows (the frame
    holds them), so their vectors come out in ambient coordinates.  Against
    K, which is characteristic, an isotropic target has no odd slab and a
    target of square -1 no even one, and slab 0, in the negative definite
    K-perp, holds no isotropic vector: the K-slab tables rest on both.
    """
    if not side.basis:
        return
    if side.definite:
        yield en.definite_vectors(side.gram, target, tuple(zip(*side.basis)))
        return
    if _anchor(side) is None:
        return
    for _, batch in en.anchored_norm_slices(_frame(side), target, t_bound):
        yield batch


def _frame(side: _EigenSide) -> en.AnchorFrame:
    """The AnchorFrame of an indefinite side with an anchor, built at its
    first use and kept on the side."""
    if side.frame is None:
        side.frame = en.AnchorFrame(side.gram, _anchor(side), tuple(zip(*side.basis)))
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


def _pair_scales(g: Isometry) -> List[int]:
    """s_aa = (J g)_aa and s_ab = (J g)_ab + (J g)_ba, a < b, in the order of
    the pairs of weyl._exceptional_products.  J, the form of M_n, is
    diagonal, so J g scales the rows of g."""
    jg = [[d * x for x in row]
          for d, row in zip(_unit_diagonal(g.lattice.gram), g.matrix)]
    return [jg[a][a] if a == b else jg[a][b] + jg[b][a]
            for a, b in _exceptional_products(len(jg) - 1)[0]]


def _table_entry(g: Isometry, n: int, name: str, masks: Dict[str, tuple],
                 within: Optional[int] = None) -> Optional[Coords]:
    """The lowest entry, under within (every entry when None), in the mask
    name of g: the fixed entries (weyl.fixed_entries) of the +1 table
    weyl._slab_table(n, 1, 3) for "plus1", and for "fixed" those of the
    table of exceptional classes, whose entries c with c . g c = 0
    (weyl.zero_entries of _pair_scales on the product table) are "paired".
    The table's chunks are read from the bottom up to the first chunk with
    a bit under within.  masks[name] keeps (mask, read, table, reader), the
    mask of the first read chunks and g's reader of a chunk, so a later
    read, as of decompose's pieces, which hand masks on, goes on where the
    last one stopped.  Routes a, c and d read their first slab with it,
    through table_witnesses."""
    state = masks.get(name)
    if state is None:
        if name == "paired":
            table, reader = _exceptional_products(n)[1], partial(zero_entries, _pair_scales(g))
        else:
            table = _slab_table(n, *((1, 3) if name == "plus1" else (-1, 1)))
            reader = partial(fixed_entries, g.matrix)
        state = 0, 0, table, reader
    mask, read, table, reader = state
    chunks = table.chunks
    under = mask if within is None else mask & within
    while not under and read < len(chunks):
        got = reader(chunks[read])
        mask |= got
        read += 1
        under = got if within is None else got & within
    masks[name] = mask, read, table, reader
    return _lowest(table.vectors, under)


def _lowest(vectors, mask: int) -> Optional[Coords]:
    """The entry of the lowest set bit of mask, else None."""
    return vectors[(mask & -mask).bit_length() - 1] if mask else None


def _norm_route(side: _EigenSide, target: int, t_bound: int, even: str,
                mod4: str, found: str, exhausted: str, first: int = 0,
                read: Optional[Callable[[], Optional[Tuple[Coords, ...]]]] = None
                ) -> RouteResult:
    """Routes a, c and e, for an odd target: closed with reason even when the
    side's Gram has an even diagonal, as every square is then even; on an
    indefinite side, closed with reason mod4 when no class of L/2L has
    square target mod 4; else a witness, the sign-canonical lex-min vector
    of the first nonempty batch; else closed with reason exhausted on a
    definite side, open otherwise.  A definite side keeps its complete
    search, so its closures stay the exhausted ones.

    read is given when K anchors the plus side (_table_reader), and
    |K.c| = first is the first slab that can hold the target.  It holds
    exactly the fixed entries of weyl._slab_table(n, target, first) in the
    lattice and their negatives, so on an indefinite side the route is
    open below bound first with no search, and from there on its witness
    is the lowest of them, which read() returns when it reads the table.
    """
    gram = side.gram
    if all(gram[i][i] % 2 == 0 for i in range(len(gram))):
        return RouteResult(CLOSED, even)
    if not side.definite and not _mod4_allows_square(gram, target):
        return RouteResult(CLOSED, mod4)
    if read is not None and not side.definite:
        if t_bound < first:
            return RouteResult(OPEN, f"searched(t<={t_bound})")
        witnesses = read()
        if witnesses is not None:
            return RouteResult(WITNESS, found, witnesses)
    for batch in _search_batches(side, target, t_bound):
        if batch:
            best = min(sign_canonical_coords(c) for c in batch)
            return RouteResult(WITNESS, found, (best,))
    if side.definite:
        return RouteResult(CLOSED, exhausted)
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def route_a(data: EigenData, n: int, t_bound: int) -> RouteResult:
    """A fixed class of square +1 (_norm_route on the plus side), n <= 7.

    With K anchoring the plus side (data.exceptional is set; K' on a
    piece B-perp) the first slab is |K.c| = 3: K is characteristic, so
    K.c = c^2 = 1 (mod 2), and in signature (1, n) the reverse
    Cauchy-Schwarz inequality gives (K.c)^2 >= c^2 K^2 = 9 - n >= 2.  The
    first eigen data read it off weyl._slab_table(n, 1, 3).
    """
    if n > 7:
        return RouteResult(CLOSED, "not_applicable")
    return _norm_route(data.plus, 1, t_bound, "plus_even_norms", "plus_no_unit_mod4",
                       "fixed_norm_plus1", "plus_definite_exhausted",
                       3, _table_reader("a", data, t_bound))


def _table_reader(name: str, data: EigenData, t_bound: int):
    """table_witnesses for route name on data's g, within and masks, as a
    call, when the canonical class anchors data's plus side (data.exceptional
    is set), else None."""
    if data.exceptional is None:
        return None
    g = data.g
    return lambda: table_witnesses(name, g, len(g.matrix) - 1, t_bound, data.within,
                                   data.masks)


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


class _FixedConics:
    """Route b's first batch on a K-fixing g: its fixed conics, entries of
    the conic table with g c = c, negated in descending order, then as they
    are, ascending, which is ascending for sign-canonical ascending
    entries, as a negated sign-canonical vector precedes every
    sign-canonical one.  The chunks of the table are read from the top down
    as an iteration needs their entries, each once (weyl.fixed_entries),
    and the entries read are kept for every later iteration: the negated
    half reads the chunks down to its last entry read, the positive half
    every chunk."""

    def __init__(self, g: Isometry, n: int):
        self.rows = g.matrix
        self.table = _slab_table(n, 0, 2)
        self.read = 0
        self.fixed: List[Coords] = []      # of the chunks read, descending
        self.negated: List[Coords] = []    # their negations, in that order

    def _read_chunk(self) -> bool:
        """Read the next chunk down; False when every chunk is read."""
        chunks = self.table.chunks
        if self.read == len(chunks):
            return False
        self.read += 1
        mask = fixed_entries(self.rows, chunks[-self.read])
        while mask:
            top = mask.bit_length() - 1
            c = self.table.vectors[top]
            self.fixed.append(c)
            self.negated.append(tuple([-x for x in c]))
            mask ^= 1 << top
        return True

    def __iter__(self):
        negated, i = self.negated, 0
        while True:
            while i < len(negated):
                yield negated[i]
                i += 1
            if not self._read_chunk():
                break
        yield from reversed(self.fixed)


def _first_pair(ambient, batches, passes: Optional[Callable[[Coords], bool]] = None
                ) -> Optional[Tuple[Coords, Coords]]:
    """Route b's pair (c1, c2), sorted, over ascending batches of isotropic
    vectors in ambient coordinates, else None: the first c1 that passes
    (every c1 when passes is None), with the first c2 of the merged batches
    up to its own that has c1.c2 = 1."""
    seen: List[Coords] = []
    for batch in batches:
        for c1 in batch:
            if passes is not None and not passes(c1):
                continue
            w = [sum(map(mul, row, c1)) for row in ambient]
            for c2 in heapq.merge(seen, batch):
                if sum(map(mul, w, c2)) == 1:
                    return tuple(sorted((c1, c2)))
        seen = list(heapq.merge(seen, batch))
    return None


def route_b(data: EigenData, t_bound: int) -> RouteResult:
    """A fixed hyperbolic pair: the first c1 of a slab, in ambient order,
    with a c2 of this or an earlier slab such that c1.c2 = 1 (_first_pair),
    over the complete batches of _search_batches.

    The scan runs on the ambient int tuples of the slabs, and only the c1
    visited are tested.  ((J b_k).c1)_k over the side basis b_k is G times
    the side coordinates of c1, which the partner test reads to skip a c1
    that can pair with nothing; for a c1 that passes, w = J c1 gives the
    pair products w.c2.  The pool is not filtered: an isotropic c2 with
    c1.c2 = 1 has the partner c1, so the first hit is the one of the
    filtered scan.

    Before any slab, the route closes by parity (rank below 2, even
    products, a definite side) and then mod 4 (plus_no_partner_mod4): the
    class of an isotropic c1 with a partner has c1^2 = 0 mod 4 and G c1 mod
    2 outside {0, diag(G)}, so when no class of L/2L does
    (_mod4_allows_partner), the side has no hyperbolic pair at all.

    With K anchoring the plus side of the first eigen data (data.exceptional
    is set, data.within is None; a narrowed piece reads no table) and
    t_bound >= 2, the first batch is read off the conic table,
    weyl._slab_table(n, 0, 2), after the closures, which spare it on the
    sides they close (table_witnesses).  K is characteristic, so
    K.c = c^2 = 0 (mod 2), and K-perp is negative definite, so slabs 0 and
    1 hold no isotropic vector and slab 2 holds the fixed conics and their
    negatives, ascending (_FixedConics), scanned as one batch with no
    partner test: a c1 it would skip has no partner among them, as they lie
    in the plus side.  The batch starts with the highest fixed conics,
    negated, and is read from the top chunk of the table down only as far
    as the scan goes, which on a hit is the top chunk or two at n = 8.
    With no pair in it the search runs as it stands.
    """
    side = data.plus
    if len(side.basis) < 2:
        return RouteResult(CLOSED, "plus_rank_below_2")
    if has_even_products(side.gram):
        return RouteResult(CLOSED, "plus_even_products")
    if side.definite:
        return RouteResult(CLOSED, "plus_definite_no_isotropic")
    if not _mod4_allows_partner(side.gram):
        return RouteResult(CLOSED, "plus_no_partner_mod4")
    read = _table_reader("b", data, t_bound)
    pair = read() if read else None
    if pair is None:
        ambient, gram = data.g.lattice.gram, side.gram
        j_basis = [xl.mat_vec(ambient, v) for v in side.basis]
        pair = _first_pair(ambient, _search_batches(side, 0, t_bound), lambda c1: _partner_test(
            gram, [sum(map(mul, jb, c1)) for jb in j_basis]))
    if pair is None:
        return RouteResult(OPEN, f"searched(t<={t_bound})")
    return RouteResult(WITNESS, "fixed_hyperbolic_pair", pair)


def route_c(data: EigenData, t_bound: int) -> RouteResult:
    """A fixed class of square -1 (_norm_route on the plus side).

    With the canonical class K anchoring the plus side (data.exceptional is
    set) the first slab is |K.c| = 1, read off the table of exceptional
    classes under data.within (_table_entry "fixed"): K is characteristic,
    so K.c = c^2 = 1 (mod 2).  On a piece B-perp, anchored at its canonical
    class K', the same holds with K' for K, and for c in B-perp,
    K'.c = K.c, so the piece's classes in that slab are the entries
    orthogonal to B.
    """
    return _norm_route(data.plus, -1, t_bound, "plus_even_norms", "plus_no_minus1_mod4",
                       "fixed_norm_minus1", "plus_definite_exhausted",
                       1, _table_reader("c", data, t_bound))


def _congruent_sublattice(side: _EigenSide, other: _EigenSide, ambient_gram) -> _EigenSide:
    """The search data of the congruent sublattice Lambda(L, L') = {v in L :
    v = w (mod 2M) for some w in L'} of the side L against the other side L'.

    Each basis vector b_i of L, packed as in xl.f2_bits, is reduced against
    one F2 echelon of L', and one more elimination of those residues tracks
    the combinations, as f2_echelon reduces.  x in Z^r lies in Lambda
    exactly when the residues with x_i odd sum to 0, so Lambda has the basis,
    in index order, of 2 e_i at each pivot i and, at every other i, the 0/1
    kernel combination (1 at i, its other entries at pivots): 2L lies in
    Lambda and the index is 2^pivots, with no HNF.  The anchor p of L
    becomes the ambient 2p, which lies in Lambda because 2L does; _anchor
    solves its coordinates where a search needs them.  Lambda is not
    saturated, which the search does not need: the slab descent tests
    integrality in the basis of its own frame.
    """
    echelon = xl.f2_echelon(map(xl.f2_bits, other.basis))
    rank = len(side.basis)
    pivots: List[Tuple[int, int]] = []    # (residue, combination mask)
    cols = []
    for i, v in enumerate(side.basis):
        bits, comb = xl.f2_reduce(echelon, xl.f2_bits(v)), 1 << i
        for b, c in pivots:
            if bits ^ b < bits:
                bits, comb = bits ^ b, comb ^ c
        if bits:
            pivots.append((bits, comb))
            cols.append([2 * (j == i) for j in range(rank)])
        else:
            cols.append([(comb >> j) & 1 for j in range(rank)])
    basis = _lift(side.basis, cols)
    p = side.ambient_anchor
    return _EigenSide(basis, gram_of(ambient_gram, basis), side.definite, None, side.positive,
                      ambient_anchor=None if p is None else tuple(2 * x for x in p))


def _has_root(side: _EigenSide) -> bool:
    """Whether a definite side holds a vector of square -2: a -2 on its Gram
    diagonal, else one complete search."""
    gram = side.gram
    return bool(gram) and (any(gram[i][i] == -2 for i in range(len(gram)))
                           or bool(en.definite_vectors(gram, -2)))


def _swapped_pair(g: Isometry, c1: Coords) -> Tuple[Coords, Coords]:
    """Route d's witnesses (c1, g c1)."""
    return c1, tuple(xl.mat_vec(g.matrix, c1))


def route_d(data: EigenData, t_bound: int) -> RouteResult:
    """Swapped (-1)-pair via roots a in L_minus, b in L_plus, a = b mod 2M.

    One eigenlattice is always definite, so its search is complete and the
    mod-2 congruence argument can close the route outright.  Only vectors of
    the congruent sublattices can pair: the complete side searches
    Lambda(complete, other) for its roots, one definite_vectors call; when
    it has none, the route closes as mod2_unsolvable if the side has a root
    at all (_has_root), else as no_{side}_roots.  A positive definite other
    side has no vector of square -2, so the route then closes as
    definite_pairs_exhausted with no glue built.  Else the other side searches
    Lambda(other, complete), cached on the eigen data: definite, one batch;
    indefinite, slabs s = 2t against the anchor 2p, so slab s holds the
    vectors of slab t = s / 2 against p, and the odd slabs are empty.  The
    pairs are compared as int tuples by parity, each +- class of pairs once
    (a sign-canonical: definite batches and merged slabs t, -t are
    symmetric); the witnesses are the sign-canonical lex-min
    c1 = (a + b) / 2 of the first slab with a pair, and g(c1).

    With the table of exceptional classes on data (K anchors the plus side,
    and the minus side, in K-perp, is the complete one) and t_bound >= 2,
    the witness is (c, g c) for the lowest table entry c with c . g c = 0
    under data.within (_table_entry "paired"), when there is one.  That is
    the search's witness: a pair has c1^2 = -1 and a in K-perp, so
    K.b = 2 K.c1, and K.c1 is odd (route_c), so the first glue slab that
    can pair is |K.b| = 2, slab s = 4 against the anchor 2p, which
    _search_batches(glue, -2, 2 t_bound) reaches only when t_bound >= 2.
    Its pairs give c1 in {+-c, +-g c} over the entries c with c . g c = 0
    (a = c - g c, b = c + g c), a set closed under c -> g c up to sign, so
    its sign-canonical minimum is the lowest such entry.  On a narrowed
    piece B-perp the same holds with its canonical class K' for K: for c in
    B-perp, K'.c = K.c, and g c lies in B-perp with c.
    With no such entry the route runs the search as it stands.
    """
    read = _table_reader("d", data, t_bound)
    pair = read() if read else None
    if pair is not None:
        return RouteResult(WITNESS, "swapped_minus1_pair", pair)
    if data.minus.definite:
        complete_side, complete, other = "minus", data.minus, data.plus
    else:
        complete_side, complete, other = "plus", data.plus, data.minus
    ambient = data.g.lattice.gram
    congruent = [a for batch in _search_batches(_congruent_sublattice(complete, other, ambient),
                                                -2, t_bound) for a in batch]
    if not congruent:
        if _has_root(complete):
            return RouteResult(CLOSED, "mod2_unsolvable")
        return RouteResult(CLOSED, f"no_{complete_side}_roots")
    if other.positive == len(other.basis):
        # a positive definite side has no b with b^2 = -2 to pair
        return RouteResult(CLOSED, "definite_pairs_exhausted")
    if data.glue is None:
        data.glue = _congruent_sublattice(other, complete, ambient)
    # only the sign-canonical a (first nonzero coordinate positive): the
    # pairs (-a, b) and (-a, -b) give -+ the c1 of (a, -b) and (a, b), and
    # every batch holds -b with b
    by_parity: dict = {}
    for a in congruent:
        if next(x for x in a if x) > 0:
            by_parity.setdefault(xl.f2_bits(a), []).append(a)
    for batch in _search_batches(data.glue, -2, 2 * t_bound):
        best = None
        for b in batch:
            for a in by_parity.get(xl.f2_bits(b), ()):
                c1 = sign_canonical_coords(tuple((x + y) // 2 for x, y in zip(a, b)))
                if best is None or c1 < best:
                    best = c1
        if best is not None:
            return RouteResult(WITNESS, "swapped_minus1_pair", _swapped_pair(data.g, best))
    if other.definite:
        return RouteResult(CLOSED, "definite_pairs_exhausted")
    return RouteResult(OPEN, f"searched(t<={t_bound})")


def route_e(data: EigenData, t_bound: int) -> RouteResult:
    return _norm_route(data.minus, -1, t_bound, "minus_even_norms", "minus_no_minus1_mod4",
                       "antifixed_norm_minus1", "minus_definite_exhausted")


def iter_routes(data: EigenData, n: int, t_bound: int):
    """The five routes in priority order a..e, evaluated lazily, each result
    kept on data with its bound and reused where it holds at t_bound: the
    one rule of reuse of the package, for dpz classify's class data and
    check_reducible's class record alike.

    A closed route stays closed at every bound: parity, mod 4, a complete
    definite search, mod2_unsolvable and definite_pairs_exhausted never read
    the bound.  A witness found at bound b is the witness at every bound
    >= b, since every route returns from the first slab, in ascending order,
    that holds a hit.  An open result at bound b, searched(t<=b), means that
    no closure applies and that the slabs up to b, and the tables read from
    bound 2 or 3 on, hold no witness, so the route is open at every bound
    <= b too: it gives searched(t<=t_bound) there and keeps the result at
    b.  Any other request runs the route again on the same data, so on the
    same anchor frames and glue, and keeps the new result in place of the
    old.
    """
    runs = (("a", lambda: route_a(data, n, t_bound)),
            ("b", lambda: route_b(data, t_bound)),
            ("c", lambda: route_c(data, t_bound)),
            ("d", lambda: route_d(data, t_bound)),
            ("e", lambda: route_e(data, t_bound)))
    for name, run in runs:
        res, bound = data.results.get(name, (None, None))
        if res is not None and res.status == OPEN and t_bound < bound:
            res = RouteResult(OPEN, f"searched(t<={t_bound})")
        elif res is None or not (res.status == CLOSED or bound == t_bound
                                 or (res.status == WITNESS and bound < t_bound)):
            res = run()
            data.results[name] = (res, t_bound)
        yield name, res


def table_witnesses(name: str, g: Isometry, n: int, t_bound: int,
                    within: Optional[int] = None, masks: Optional[Dict[str, tuple]] = None
                    ) -> Optional[Tuple[Coords, ...]]:
    """The witnesses route name returns at t_bound for the K-fixing
    involution g of M_n, 2 <= n <= 8, when it reads them off its first
    K-slab table, else None: the one first-slab reader, called by routes
    a..d after their closures (_table_reader), and the one place of every
    gate.  Route a reads the lowest fixed entry of weyl._slab_table(n, 1, 3)
    (n <= 7, t_bound >= 3) and route b the pair of _first_pair on the fixed
    conics of weyl._slab_table(n, 0, 2) (t_bound >= 2), on the first eigen
    data only (within None); routes c and d (t_bound >= 2) the lowest fixed
    and paired entries of the table of exceptional classes under within,
    with the state of the chunks read kept in masks (_table_entry, as route
    a's).  Each reads a table's chunks only as far as its witness: routes
    a, c and d from the bottom chunk up to the first with a hit, route b
    from the top chunk down (_FixedConics), every chunk only when it finds
    no pair.  No kernel is formed.

    Routes a and c read only on an indefinite plus side (a definite one is
    Z K, which holds no class of square +-1 for n <= 7), so on the first
    eigen data this is the route's witness whenever the route ends in a
    witness at t_bound, and not otherwise: a class invariant, which
    irreducibility's class record reads off iter_routes on another member's
    eigen data; a witness not read here sends g to its own eigen data."""
    masks = {} if masks is None else masks
    if name == "a" and n <= 7 and t_bound >= 3 and within is None:
        c = _table_entry(g, n, "plus1", masks)
    elif name == "b" and t_bound >= 2 and within is None:
        return _first_pair(g.lattice.gram, [_FixedConics(g, n)])
    elif name == "c":
        c = _table_entry(g, n, "fixed", masks, within)
    elif name == "d" and t_bound >= 2:
        c = _table_entry(g, n, "paired", masks, within)
        return None if c is None else _swapped_pair(g, c)
    else:
        return None
    return None if c is None else (c,)


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
