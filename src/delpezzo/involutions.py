"""Classification of order-2 classes in the K-stabilizer of a blowup lattice.

Every involution in the group is a product of reflections in mutually
orthogonal roots (Carter, Compositio Math. 25, 1972).  Its (-1)-eigenlattice
is the saturated span of those roots, and the involution is recovered from
the full root list of that eigenlattice, its key.

The maximal orthogonal root sets form a single orbit for every n = 2..8
(tests/test_involutions.py::test_maximal_orthogonal_sets_form_one_orbit
checks this against every maximal clique), so every class meets the
candidates of one frame F: the maximal orthogonal root set FRAMES[n],
pinned as root ids, whose nonempty subsets S are the candidates.  Their
keys, like the class sizes, come from one table, the orthogonality bitmasks
of the sign-canonical roots (_orthogonality), with no matrix and no lattice
algebra.  A root x != r has |x . r| <= 1 for each r in F, since K-perp is
negative definite and roots have square -2.  So by Bessel's inequality
over F, x lies in span_Q(F) exactly when it is in F or is not orthogonal
to four roots of F, and in span_Q(S) when those roots lie in S.

Classes are told apart by the triple (|S|, |key|, fixed pairs), with fixed
pairs the number of sign-canonical roots the involution fixes.  It is a
conjugation invariant, and it is complete for n = 2..8:
tests/test_involutions.py::test_frame_triples_are_class_orbits walks the
orbit of one key of each triple group of frame candidates and finds the
whole group in it.  _class_triple reads the triple off g for all the
sign-canonical roots at once; _root_triple, its body, reads it with no
root id, as irreducibility's class record does.  minus_root_key,
are_conjugate, find_class and invariant_of all read it after one check,
_check_fixes_k, and classify_involutions compares the frame triples.  The
first key of each group in sorted order represents its class; the
involution and its invariants are built for these representatives only.
Each representative's eigen data, criteria.eigen_data(g, K), is built
once: it gives the invariant, flags included, and stays on the class, from
which dpz classify decides the class (irreducibility._verdict) with the
flag routes' results reused, and names it by comparing class triples.

Both the orthogonality table and _class_triple read every sign-canonical
root at once, in one pass over the root table weyl._slab_table(n, -2, 0)
(weyl.zero_entries and weyl.fixed_entries): bit j of their masks is the
j-th root, whose root id is _canonical_ids(n)[j].

Class sizes are exact for every n = 2..8, with no orbit walked: the pairs
(F', S') of a maximal orthogonal set and a subset whose involution is in a
class C number N a(C) = |C| f(C) e(C), for N maximal orthogonal sets, a(C)
frame subsets in C, and f(C), e(C) the orthogonal |S|- and (|F| - |S|)-sets
among the roots an involution of C negates and fixes (_orthogonal_set_counter).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from . import criteria
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    LatticeVector,
    del_pezzo_lattice,
    eigenbases,
    gram_of,
    has_even_products,
    sign_canonical,
)
from .weyl import (
    _slab_table,
    canonical_class,
    enumerate_roots,
    fixed_entries,
    zero_entries,
)

RootSetKey = Tuple[int, ...]  # sorted canonical pair ids

# The frame of each n: a maximal orthogonal root set, as sorted root ids
# (indices into enumerate_roots(n).roots).  Every maximal orthogonal root set
# lies in its orbit (test_maximal_orthogonal_sets_form_one_orbit).
FRAMES: Dict[int, RootSetKey] = {
    2: (1,),
    3: (4, 7),
    4: (10, 18),
    5: (21, 25, 32, 33),
    6: (36, 39, 61, 66),
    7: (63, 73, 80, 93, 100, 118, 121),
    8: (128, 131, 140, 153, 155, 161, 227, 237),
}


@dataclass(frozen=True)
class OrthogonalRootSet:
    """Mutually orthogonal roots, stored sign-canonically and sorted."""

    n: int
    roots: Tuple[LatticeVector, ...]

    def __post_init__(self):
        for i, r in enumerate(self.roots):
            if r.norm() != -2 or r.dot(canonical_class(self.n)) != 0:
                raise InputError("set contains a non-root vector")
            for s in self.roots[i + 1:]:
                if r.dot(s) != 0:
                    raise InputError("roots are not mutually orthogonal")

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def involution(self) -> Isometry:
        """The product of the reflections in the roots, x -> x + sum_r (x . r) r,
        as the matrix I + sum_r r (J r)^T, one row update per root
        coordinate: the reflection in a root r is x -> x + (x . r) r, and
        reflections in orthogonal roots commute and add.  __post_init__ has
        checked the roots, so the matrix needs no form check."""
        if not self.roots:
            raise InputError("empty reflection product")
        lat = self.roots[0].lattice
        rows = xl.identity(lat.rank)
        for r in self.roots:
            jr = xl.mat_vec(lat.gram, r.coords)
            for i, x in enumerate(r.coords):
                if x:
                    rows[i] = [a + x * b for a, b in zip(rows[i], jr)]
        return Isometry._trusted(lat, tuple(map(tuple, rows)))


def orthogonal_root_set(n: int, roots: Sequence[LatticeVector]) -> OrthogonalRootSet:
    canon = sorted(sign_canonical(r) for r in roots)
    if len(set(canon)) != len(canon):
        raise InputError("duplicate roots in the set")
    return OrthogonalRootSet(n, tuple(canon))


@dataclass(frozen=True)
class ZGInvariant:
    """Mod-2 splitting ranks (t, c, r) of an involution.

    r is the F2-rank of g + 1; t and c are the ranks of the fixed and
    antifixed lattices minus r.
    """

    t: int
    c: int
    r: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.t, self.c, self.r)


def zg_invariant(g: Isometry) -> ZGInvariant:
    """The ranks (t, c, r); eigenbases raises InputError("not an
    involution") unless its kernels certify g^2 = 1."""
    plus, minus = eigenbases(g)
    return _zg(g, len(plus), len(minus))


def _zg(g: Isometry, plus_rank: int, minus_rank: int) -> ZGInvariant:
    """zg_invariant from the ranks of the eigenlattices of g."""
    r = xl.f2_rank(xl.mat_add_scaled_identity(g.matrix, 1))
    return ZGInvariant(plus_rank - r, minus_rank - r, r)


@dataclass(frozen=True)
class InvolutionInvariant:
    """Conjugation invariants of an involution fixing K."""

    n: int
    carter_exponent: int          # rank of the antifixed lattice
    trace: int
    zg: Tuple[int, int, int]
    plus_even: bool
    plus_products_even: bool
    plus_det: int                 # |det| of the fixed lattice form
    minus_det: int
    minus_root_count: int
    kperp_fixed_det: int          # |det| of (fixed lattice) intersect K-perp
    kperp_fixed_roots: int
    # (fixes norm +1, fixes norm -1, fixes hyperbolic pair, swaps (-1)-pair)
    flags: Tuple[Optional[bool], ...] = field(default=(None,) * 4)

    def class_triple(self) -> Tuple[int, int, int]:
        """(|S|, |key|, fixed pairs), the complete class invariant."""
        return (self.carter_exponent, self.minus_root_count // 2, self.kperp_fixed_roots // 2)

    def merge_key(self):
        # everything except the bounded-search flags
        return (self.n, self.carter_exponent, self.trace, self.zg,
                self.plus_even, self.plus_products_even, self.plus_det,
                self.minus_det, self.minus_root_count,
                self.kperp_fixed_det, self.kperp_fixed_roots)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "carter_exponent": self.carter_exponent,
            "trace": self.trace,
            "zg": list(self.zg),
            "plus_even": self.plus_even,
            "plus_products_even": self.plus_products_even,
            "plus_det": self.plus_det,
            "minus_det": self.minus_det,
            "minus_root_count": self.minus_root_count,
            "kperp_fixed_det": self.kperp_fixed_det,
            "kperp_fixed_roots": self.kperp_fixed_roots,
            "flags": list(self.flags),
        }


def _kperp_fixed(plus: criteria._EigenSide, n: int) -> Tuple[Tuple[int, ...], ...]:
    """The Gram matrix of the saturated intersection of the fixed side plus
    with K-perp: one kernel, in plus coordinates, of the products K.v with
    the plus basis v, lifted to the ambient lattice."""
    gram = del_pezzo_lattice(n).gram
    kj = xl.mat_vec(gram, canonical_class(n).coords)
    ker = xl.kernel([[sum(map(mul, kj, v)) for v in plus.basis]])
    return gram_of(gram, criteria._lift(plus.basis, ker))


def invariant_of(g: Isometry, n: int, with_flags: bool = False) -> InvolutionInvariant:
    """The conjugation invariants of a K-fixing involution.

    Both eigen sides come from criteria.eigen_data(g, K), as in
    check_reducible: K anchors the fixed side and fixes the signatures of
    both sides, and the flags run route_flags on that same data.  g is not
    squared (Isometry.is_involution), and _class_triple reads the class
    triple off g before any eigen data is built, so n outside 2..8 is
    refused first; classify_involutions calls _invariant, the one body both
    share, with the triple of its frame table.
    """
    _check_fixes_k(g, n)
    if not g.is_involution():
        raise InputError("not an involution")
    triple = _class_triple(g, n)[1]
    return _invariant(criteria.eigen_data(g, canonical_class(n)), n, with_flags, triple)


def _invariant(data: criteria.EigenData, n: int, with_flags: bool,
               triple: Tuple[int, int, int]) -> InvolutionInvariant:
    """invariant_of, from the eigen data criteria.eigen_data(g, K) of the
    K-fixing involution g and its class triple (|S|, |key|, fixed pairs);
    the flag routes' results stay on data."""
    g = data.g
    plus, minus = data.plus.gram, data.minus.gram
    kf = _kperp_fixed(data.plus, n)
    # the roots g negates are those of the antifixed lattice, and the roots
    # it fixes those of (fixed lattice) & K-perp: each pair counts two roots
    _, minus_pairs, fixed_pairs = triple
    flags: Tuple[Optional[bool], ...] = (None,) * 4
    if with_flags:
        a, b, c, d = criteria.route_flags(data, n)
        flags = (a, c, b, d)
    return InvolutionInvariant(
        n=n,
        carter_exponent=len(minus),
        trace=g.trace(),
        zg=_zg(g, len(plus), len(minus)).as_tuple(),
        plus_even=all(plus[i][i] % 2 == 0 for i in range(len(plus))),
        plus_products_even=has_even_products(plus),
        plus_det=abs(xl.det(plus)) if plus else 1,
        minus_det=abs(xl.det(minus)) if minus else 1,
        minus_root_count=2 * minus_pairs,
        kperp_fixed_det=abs(xl.det(kf)) if kf else 1,
        kperp_fixed_roots=2 * fixed_pairs,
        flags=flags,
    )


@dataclass(frozen=True)
class InvolutionClass:
    """One conjugacy class of involutions fixing K."""

    n: int
    label: str
    roots: OrthogonalRootSet       # defining orthogonal set of the representative
    representative: Isometry
    invariant: InvolutionInvariant
    minus_root_key: RootSetKey     # canonical id of the class
    class_size: Optional[int] = None
    # criteria.eigen_data(representative, K), as the invariant used it, with
    # the flag routes' results on it; dpz classify decides the class from it
    _eigen_data: Optional[criteria.EigenData] = field(default=None, compare=False,
                                                       repr=False)

    @property
    def carter_exponent(self) -> int:
        return len(self.roots)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "label": self.label,
            "carter_exponent": self.carter_exponent,
            "roots": [list(r.coords) for r in self.roots.roots],
            "matrix": [list(row) for row in self.representative.matrix],
            "invariant": self.invariant.to_json(),
            "class_size": self.class_size,
        }


@lru_cache(maxsize=None)
def _roots_and_index(n: int):
    """The sorted root list and the index of each root's coordinates in it."""
    roots = enumerate_roots(n).roots
    return roots, {r.coords: i for i, r in enumerate(roots)}


@lru_cache(maxsize=None)
def _canonical_ids(n: int) -> RootSetKey:
    """The root ids of the vectors of weyl._slab_table(n, -2, 0), the
    sign-canonical roots: entry j of the table is root id
    _canonical_ids(n)[j], and the ids ascend as the vectors do."""
    _, index = _roots_and_index(n)
    return tuple(index[c] for c in _slab_table(n, -2, 0).vectors)


def _ids_of(mask: int, ids: Sequence[int]) -> RootSetKey:
    """The ids[j] for the bits j of mask, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(ids[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _class_triple(g: Isometry, n: int) -> Tuple[RootSetKey, Tuple[int, int, int]]:
    """(key, (|S|, |key|, fixed pairs)) of a K-fixing involution g.

    The key holds the ids of the sign-canonical roots x that g negates,
    which are the roots of the antifixed lattice (_root_triple).  The
    caller has tested that g fixes K and g^2 = 1.
    """
    ids = _canonical_ids(n)    # InputError from enumerate_roots outside 2 <= n <= 8
    negated, triple = _root_triple(g, n)
    return _ids_of(negated, ids), triple


def _root_triple(g: Isometry, n: int) -> Tuple[int, Tuple[int, int, int]]:
    """(negated, (|S|, |key|, fixed pairs)) of a K-fixing involution g, with
    negated the bitmask of the sign-canonical roots x that g negates and no
    root id read: the class triple of _class_triple, which needs only the
    root table, not the sorted root list.

    g acts on every sign-canonical root x at once, in one pass over the
    whole root table (weyl._slab_table(n, -2, 0)) that reads the x it
    fixes and the x it negates (weyl.fixed_entries).  |key| counts the x
    that g negates, and fixed pairs the x that g fixes.  |S| =
    (n + 1 - tr g) / 2 is the antifixed rank.  The caller has tested that g
    fixes K and g^2 = 1, which keeps each field of g x -+ x within the
    bound of the table.
    """
    fixed, negated = fixed_entries(g.matrix, _slab_table(n, -2, 0).whole, negated=True)
    return negated, ((n + 1 - g.trace()) // 2, negated.bit_count(), fixed.bit_count())


def _check_fixes_k(g: Isometry, n: int) -> None:
    """Raise InputError unless g is an isometry of M_n fixing K, read on
    coordinates as check_reducible does."""
    k = canonical_class(n).coords
    if g.lattice != del_pezzo_lattice(n) or not criteria.fixes(g.matrix, k):
        raise InputError("isometry does not fix the canonical class")


def minus_root_key(g: Isometry, n: int) -> RootSetKey:
    """Sorted pair ids of the roots of the antifixed lattice, the roots g negates.

    This determines the involution completely and is permuted equivariantly
    under conjugation.
    """
    _check_fixes_k(g, n)
    if not g.is_involution():
        raise InputError("not an involution")
    return _class_triple(g, n)[0]


def are_conjugate(g: Isometry, h: Isometry, n: int) -> bool:
    """Whether two K-fixing involutions are conjugate in the K-stabilizer:
    whether their class triples agree, for every n = 2..8."""
    for x in (g, h):
        _check_fixes_k(x, n)
        if not x.is_involution():
            raise InputError("not an involution")
    return _class_triple(g, n)[1] == _class_triple(h, n)[1]


def _orthogonality(n: int) -> Tuple[RootSetKey, List[int]]:
    """(ids, orth): the sign-canonical root ids, sorted, and for the i-th one
    the bitmask of the j != i with roots[ids[j]] orthogonal to roots[ids[i]].

    Row i is one read of the whole root table (weyl.zero_entries): the
    combination J roots[ids[i]] sends roots[ids[j]] to their product, and
    the entries it sends to 0 are the bits of orth[i] (a root has square
    -2, so no diagonal).  Two roots have |x . y| <= 2 in the negative
    definite K-perp, inside the field bound of the table.
    """
    table = _slab_table(n, -2, 0)
    gram = del_pezzo_lattice(n).gram
    orth = [zero_entries(xl.mat_vec(gram, x), table.whole) for x in table.vectors]
    return _canonical_ids(n), orth


def _orthogonal_set_counter(orth: Sequence[int]) -> Callable[[int, int], int]:
    """count(mask, j): the orthogonal j-sets among the root pairs of mask
    (bit i for the i-th id of _orthogonality), memoised per (mask, j).

    mask must be a root system closed under its own reflections, such as the
    roots of a sublattice.  Its counts convolve those of the components of
    its non-orthogonality graph.  W(R_i) is transitive on the roots of an
    irreducible component R_i, so count_j(R_i) = |R_i| count_{j-1}(R_i & r-perp) / j
    for any r in R_i, and R_i & r-perp is closed under its reflections again.
    """
    memo: Dict[Tuple[int, int], List[int]] = {}

    def counts(mask: int, j: int) -> List[int]:
        # [count_0, ..., count_j] of mask
        if (mask, j) in memo:
            return memo[mask, j]
        got = [1] + [0] * j
        rest = mask
        while rest:
            # the component of the lowest root left, by non-orthogonality
            comp = front = rest & -rest
            while front:
                low = front & -front
                new = rest & ~orth[low.bit_length() - 1] & ~comp
                comp |= new
                front = (front ^ low) | new
            rest &= ~comp
            size = comp.bit_count()
            sub = counts(comp & orth[(comp & -comp).bit_length() - 1], j - 1) if j else []
            terms = [size * c for c in sub]
            if any(t % i for i, t in enumerate(terms, 1)):
                raise RuntimeError("orthogonal set count is not integral")
            poly = [1] + [t // i for i, t in enumerate(terms, 1)]
            got = [sum(got[a] * poly[i - a] for a in range(i + 1)) for i in range(j + 1)]
        memo[(mask, j)] = got
        return got

    return lambda mask, j: counts(mask, j)[j]


def _frame_candidates(ids: Sequence[int], orth: Sequence[int], frame: RootSetKey):
    """Yield (subset, key, kperp_fixed_pairs) for each nonempty subset of a
    frame, from the table (ids, orth) of _orthogonality.

    Subsets come as sorted root ids, by size and then in combinations order.
    key is minus_root_key of the product of their reflections, and
    kperp_fixed_pairs counts the sign-canonical roots orthogonal to the
    subset, half of that involution's kperp_fixed_roots.  Both come from
    the masks of the sign-canonical roots x, bit i set when x . r_i != 0
    for the i-th frame root r_i (x = r_i included: orth has no diagonal).
    x lies in the span of a subset S exactly when it is a frame root or its
    mask has four bits (the module docstring), and its mask lies in S.

    The roots are grouped by mask once: count[m] of them have mask m, and
    span[m] is the bitmask (as in orth) of those in span_Q(frame).  One
    sum over submasks per frame bit turns count[t] and span[t] into the
    totals over the masks inside t, so S has key span[S] and
    count[complement of S] roots orthogonal to it.
    """
    rows = [orth[ids.index(r)] for r in frame]
    full = (1 << len(frame)) - 1
    count, span = [0] * (full + 1), [0] * (full + 1)
    for i, x in enumerate(ids):
        mask = sum(1 << b for b, row in enumerate(rows) if not row >> i & 1)
        count[mask] += 1
        if x in frame or mask.bit_count() == 4:
            span[mask] |= 1 << i
    for b in range(len(frame)):
        bit = 1 << b
        for t in range(full + 1):
            if t & bit:
                count[t] += count[t ^ bit]
                span[t] |= span[t ^ bit]
    for size in range(1, len(frame) + 1):
        for bits in itertools.combinations(range(len(frame)), size):
            s = sum(1 << b for b in bits)
            yield tuple(frame[b] for b in bits), _ids_of(span[s], ids), count[full ^ s]


@lru_cache(maxsize=None)
def classify_involutions(n: int) -> Tuple[InvolutionClass, ...]:
    """All conjugacy classes of involutions fixing K, for 1 <= n <= 8.

    The candidates are the nonempty root-id subsets of the frame
    FRAMES[n], each known by its key.  The candidates with one
    triple (|S|, |key|, fixed pairs) form one class, and the first key of
    each group in sorted order represents it.  The involution, its eigen
    data and its invariants (flags included) are computed for the
    representatives only, and each class keeps its eigen data; classes are
    ordered by (|S|, merge_key).  class_size is exact, by the double count
    of the module docstring.
    """
    if not 1 <= n <= 8:
        raise InputError("classification supports 1 <= n <= 8")
    if n == 1:
        return ()
    roots, _ = _roots_and_index(n)
    ids, orth = _orthogonality(n)
    frame = FRAMES[n]

    # key -> (root ids of the subset giving it, kperp root pairs), one each
    candidates = {key: (sub, perp) for sub, key, perp in _frame_candidates(ids, orth, frame)}
    groups: Dict[Tuple[int, int, int], List[RootSetKey]] = {}
    for key in sorted(candidates):
        sub, perp = candidates[key]
        groups.setdefault((len(sub), len(key), perp), []).append(key)

    # |C| = N a(C) / (f(C) e(C)) with a(C) = len(keys), as the module says
    count = _orthogonal_set_counter(orth)
    pos = {a: i for i, a in enumerate(ids)}
    everything = (1 << len(ids)) - 1
    maximal = count(everything, len(frame))
    classes = []
    for keys in sorted(groups.values()):
        key = keys[0]
        sub, perp = candidates[key]
        rset = orthogonal_root_set(n, [roots[i] for i in sub])
        g = rset.involution()
        fixed = reduce(and_, (orth[pos[r]] for r in sub), everything)
        size, rest = divmod(maximal * len(keys), count(sum(1 << pos[x] for x in key), len(sub))
                            * count(fixed, len(frame) - len(sub)))
        if rest:
            raise RuntimeError("class size is not integral")
        triple = (len(sub), len(key), perp)
        data = criteria.eigen_data(g, canonical_class(n))
        classes.append((key, rset, data, _invariant(data, n, True, triple), size))
    # a stable sort: ties keep the key order
    classes.sort(key=lambda c: (len(c[1]), c[3].merge_key()))

    counts: Dict[int, int] = {}
    for _key, rset, _data, _inv, _size in classes:
        counts[len(rset)] = counts.get(len(rset), 0) + 1
    out = []
    by_m: Dict[int, int] = {}
    for key, rset, data, inv, size in classes:
        m = len(rset)
        by_m[m] = by_m.get(m, 0) + 1
        suffix = chr(ord("a") + by_m[m] - 1) if counts[m] > 1 else ""
        out.append(InvolutionClass(
            n=n,
            label=f"m{m}{suffix}",
            roots=rset,
            representative=data.g,
            invariant=inv,
            minus_root_key=key,
            class_size=size,
            _eigen_data=data,
        ))
    return tuple(out)


def find_class(g: Isometry, n: int) -> InvolutionClass:
    """The classification entry conjugate to the given involution: the
    class whose invariant has its triple, for every n = 2..8."""
    _check_fixes_k(g, n)
    if not g.is_involution() or g.is_identity():
        raise InputError("expected a nontrivial involution")
    _, triple = _class_triple(g, n)
    for c in classify_involutions(n):
        if c.invariant.class_triple() == triple:
            return c
    raise InputError("involution does not match any class")
