"""Classification of order-2 classes in the K-stabilizer of a blowup lattice.

Every involution in the group is a product of reflections in mutually
orthogonal roots (Carter, Compositio Math. 25, 1972).  Its (-1)-eigenlattice
is the saturated span of those roots, and the involution is recovered from
the full root list of that eigenlattice, its key.

The maximal orthogonal root sets form a single orbit for every n = 2..8
(tests/test_involutions.py::test_maximal_orthogonal_sets_form_one_orbit
checks this against every maximal clique), so every class meets the
candidates of one frame F, the first maximal clique of the root
orthogonality graph: the nonempty subsets S of F, as root ids.  Their keys
come from one table of integer dot products x . r, for the sign-canonical
roots x and the r in F, with no matrix and no lattice algebra: K-perp is
negative definite and r^2 = -2, so x lies in span_Q(S) exactly when
sum_{r in S} (x . r)^2 = 4.

Classes are told apart by the triple (|S|, |key|, fixed pairs), with fixed
pairs the number of sign-canonical roots the involution fixes.  It is a
conjugation invariant, and it is complete for n = 2..8:
tests/test_involutions.py::test_frame_triples_are_class_orbits walks the
orbit of one key of each triple group of frame candidates and finds the
whole group in it.  _class_triple reads the triple off g in one pass over
the sign-canonical roots, and are_conjugate, find_class and
classify_involutions all compare it.  The first key of each group in sorted
order represents its class; the involution and its invariants are built
for these representatives only.

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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InputError
from . import criteria
from . import exactlinalg as xl
from .lattice import (
    Isometry,
    LatticeVector,
    Sublattice,
    del_pezzo_lattice,
    fixed_and_antifixed,
    has_even_products,
    is_even,
    sign_canonical,
)
from .weyl import (
    canonical_class,
    enumerate_roots,
    product_of_reflections,
    stabilizes_canonical_class,
)

RootSetKey = Tuple[int, ...]  # sorted canonical pair ids


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
        return product_of_reflections(self.roots)


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
    if not g.is_involution():
        raise InputError("not an involution")
    plus, minus = fixed_and_antifixed(g)
    return _zg(g, plus, minus)


def _zg(g: Isometry, plus: Sublattice, minus: Sublattice) -> ZGInvariant:
    """zg_invariant from the eigenlattices of g."""
    m = xl.mat_add_scaled_identity(g.matrix, 1)
    r = xl.f2_rank(m)
    return ZGInvariant(plus.rank - r, minus.rank - r, r)


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


def _kperp_fixed(plus: Sublattice, n: int) -> Sublattice:
    """Saturated intersection of the fixed lattice plus with K-perp."""
    k = canonical_class(n)
    rows = [[k.dot(v)] for v in plus.basis]
    ker = xl.kernel(xl.transpose(rows))
    basis = tuple(plus.from_coords(c) for c in ker)
    return Sublattice(plus.ambient, basis, saturated=True)


def invariant_of(g: Isometry, n: int, with_flags: bool = False,
                 triple: Optional[Tuple[int, int, int]] = None) -> InvolutionInvariant:
    """The conjugation invariants of a K-fixing involution.

    Both eigen sides come from criteria.eigen_data(g, K), as in
    check_reducible: K anchors the fixed side and fixes the signatures of
    both sides, and the flags run route_flags on that same data.  triple is
    g's class triple (|S|, |key|, fixed pairs) when the caller knows it
    already, as classify_involutions does from its frame table; else
    _class_triple reads it off g.
    """
    if not stabilizes_canonical_class(g, n):
        raise InputError("isometry does not fix the canonical class")
    # eigen_data raises InputError when g is not an involution
    data = criteria.eigen_data(g, canonical_class(n))
    plus, minus = data.plus.sub, data.minus.sub
    kf = _kperp_fixed(plus, n)
    # the roots g negates are those of the antifixed lattice, and the roots
    # it fixes those of (fixed lattice) & K-perp: each pair counts two roots
    if triple is None:
        _, triple = _class_triple(g, n)
    _, minus_pairs, fixed_pairs = triple
    flags: Tuple[Optional[bool], ...] = (None,) * 4
    if with_flags:
        a, b, c, d = criteria.route_flags(data, n)
        flags = (a, c, b, d)
    return InvolutionInvariant(
        n=n,
        carter_exponent=minus.rank,
        trace=g.trace(),
        zg=_zg(g, plus, minus).as_tuple(),
        plus_even=is_even(plus),
        plus_products_even=has_even_products(data.plus.gram),
        plus_det=abs(xl.det(data.plus.gram)) if plus.rank else 1,
        minus_det=abs(xl.det(data.minus.gram)) if minus.rank else 1,
        minus_root_count=2 * minus_pairs,
        kperp_fixed_det=abs(xl.det(kf.gram())) if kf.rank else 1,
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
def _canon_table(n: int) -> bytes:
    """Maps each root index to the index of its sign-canonical mate."""
    roots, index = _roots_and_index(n)
    out = bytearray(len(roots))
    for i, r in enumerate(roots):
        out[i] = index[sign_canonical(r).coords]
    return bytes(out)


def _class_triple(g: Isometry, n: int) -> Tuple[RootSetKey, Tuple[int, int, int]]:
    """(key, (|S|, |key|, fixed pairs)) of a K-fixing involution g.

    One pass of g over the sign-canonical roots x: the key holds the ids of
    the x that g negates, which are the roots of the antifixed lattice, and
    fixed pairs counts the x that g fixes.  |S| = (n + 1 - tr g) / 2 is the
    antifixed rank.  The caller has tested that g fixes K and g^2 = 1.
    """
    roots, _ = _roots_and_index(n)
    key, fixed = [], 0
    for x in sorted(set(_canon_table(n))):
        v = roots[x].coords
        gv = tuple(sum(map(mul, row, v)) for row in g.matrix)
        if gv == v:
            fixed += 1
        elif all(a == -b for a, b in zip(gv, v)):
            key.append(x)
    return tuple(key), ((n + 1 - g.trace()) // 2, len(key), fixed)


def minus_root_key(g: Isometry, n: int) -> RootSetKey:
    """Sorted pair ids of the roots of the antifixed lattice, the roots g negates.

    This determines the involution completely and is permuted equivariantly
    under conjugation.
    """
    if not stabilizes_canonical_class(g, n):
        raise InputError("isometry does not fix the canonical class")
    if not g.is_involution():
        raise InputError("not an involution")
    return _class_triple(g, n)[0]


def are_conjugate(g: Isometry, h: Isometry, n: int) -> bool:
    """Whether two K-fixing involutions are conjugate in the K-stabilizer:
    whether their class triples agree, for every n = 2..8."""
    for x in (g, h):
        if not stabilizes_canonical_class(x, n):
            raise InputError("isometry does not fix the canonical class")
        if not x.is_involution():
            raise InputError("not an involution")
    return _class_triple(g, n)[1] == _class_triple(h, n)[1]


def _orthogonality(n: int) -> Tuple[List[int], List[int]]:
    """(ids, orth): the sign-canonical root ids, sorted, and for the i-th one
    the bitmask of the j != i with roots[ids[j]] orthogonal to roots[ids[i]],
    from one dot product per pair."""
    roots, _ = _roots_and_index(n)
    gram = del_pezzo_lattice(n).gram
    ids = sorted(set(_canon_table(n)))
    vecs = [roots[a].coords for a in ids]
    orth = [0] * len(ids)
    for i, v in enumerate(vecs):
        row = xl.mat_vec(gram, list(v))
        for j in range(i + 1, len(ids)):
            if not sum(map(mul, row, vecs[j])):
                orth[i] |= 1 << j
                orth[j] |= 1 << i
    return ids, orth


def _maximal_orthogonal_reps(ids: Sequence[int], orth: Sequence[int]) -> List[FrozenSet[int]]:
    """One maximal orthogonal root set per orbit, as sets of pair ids, from
    the table of _orthogonality.

    The maximal orthogonal root sets form one orbit for every n = 2..8
    (test_involutions.py::test_maximal_orthogonal_sets_form_one_orbit checks
    every maximal clique against the orbit of this frame), so the first
    maximal clique of the root orthogonality graph is the only one taken:
    the first branch of networkx's find_cliques pivot descent, on which the
    subgraph and the candidates coincide, so it never backtracks.
    """
    # sets built in ascending order, so the pick is that of the pinned FRAMES
    adj = {a: {b for j, b in enumerate(ids) if orth[i] >> j & 1} for i, a in enumerate(ids)}
    cand, clique = set(ids), []
    while cand:
        u = max(cand, key=lambda u: len(cand & adj[u]))
        q = (cand - adj[u]).pop()
        clique.append(q)
        cand &= adj[q]
    return [frozenset(clique)]


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


def _frame_candidates(n: int, frame: FrozenSet[int]):
    """Yield (subset, key, kperp_fixed_pairs) for each nonempty subset of a frame.

    Subsets come as sorted root ids, by size and then in combinations order.
    key is minus_root_key of the product of their reflections, and
    kperp_fixed_pairs counts the sign-canonical roots orthogonal to the
    subset, half of that involution's kperp_fixed_roots.  Both come from
    the masks of the sign-canonical roots x, bit i set when x . r_i != 0
    for the i-th frame root r_i: x lies in the span of a subset S exactly
    when sum_i (x . r_i)^2 = 4 and its mask lies in S.
    """
    roots, _ = _roots_and_index(n)
    gram = del_pezzo_lattice(n).gram
    members = sorted(frame)
    rows = [xl.mat_vec(gram, list(roots[i].coords)) for i in members]
    spanned: List[Tuple[int, int]] = []   # (id, mask) of the roots in span_Q(frame)
    masks: List[int] = []
    for x in sorted(set(_canon_table(n))):
        dots = [sum(map(mul, roots[x].coords, row)) for row in rows]
        mask = sum(1 << i for i, d in enumerate(dots) if d)
        masks.append(mask)
        if sum(d * d for d in dots) == 4:
            spanned.append((x, mask))
    for size in range(1, len(members) + 1):
        for bits in itertools.combinations(range(len(members)), size):
            s = sum(1 << b for b in bits)
            key = tuple(x for x, mask in spanned if not mask & ~s)
            yield (tuple(members[b] for b in bits), key,
                   sum(1 for mask in masks if not mask & s))


@lru_cache(maxsize=None)
def classify_involutions(n: int) -> Tuple[InvolutionClass, ...]:
    """All conjugacy classes of involutions fixing K, for 1 <= n <= 8.

    The candidates are the nonempty root-id subsets of the one maximal
    orthogonal frame, each known by its key.  The candidates with one
    triple (|S|, |key|, fixed pairs) form one class, and the first key of
    each group in sorted order represents it.  The involution and its
    invariants (flags included) are computed for the representatives only;
    classes are ordered by (|S|, merge_key).  class_size is exact, by the
    double count of the module docstring.
    """
    if not 1 <= n <= 8:
        raise InputError("classification supports 1 <= n <= 8")
    if n == 1:
        return ()
    roots, _ = _roots_and_index(n)
    ids, orth = _orthogonality(n)
    [frame] = _maximal_orthogonal_reps(ids, orth)

    # key -> (root ids of the subset giving it, kperp root pairs), one each
    candidates = {key: (sub, perp) for sub, key, perp in _frame_candidates(n, frame)}
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
        classes.append((key, rset, g, invariant_of(g, n, with_flags=True, triple=triple), size))
    # a stable sort: ties keep the key order
    classes.sort(key=lambda c: (len(c[1]), c[3].merge_key()))

    counts: Dict[int, int] = {}
    for _key, rset, _g, _inv, _size in classes:
        counts[len(rset)] = counts.get(len(rset), 0) + 1
    out = []
    by_m: Dict[int, int] = {}
    for key, rset, g, inv, size in classes:
        m = len(rset)
        by_m[m] = by_m.get(m, 0) + 1
        suffix = chr(ord("a") + by_m[m] - 1) if counts[m] > 1 else ""
        out.append(InvolutionClass(
            n=n,
            label=f"m{m}{suffix}",
            roots=rset,
            representative=g,
            invariant=inv,
            minus_root_key=key,
            class_size=size,
        ))
    return tuple(out)


def find_class(g: Isometry, n: int) -> InvolutionClass:
    """The classification entry conjugate to the given involution: the
    class whose invariant has its triple, for every n = 2..8."""
    if not stabilizes_canonical_class(g, n):
        raise InputError("isometry does not fix the canonical class")
    if not g.is_involution() or g.is_identity():
        raise InputError("expected a nontrivial involution")
    _, triple = _class_triple(g, n)
    for c in classify_involutions(n):
        if c.invariant.class_triple() == triple:
            return c
    raise InputError("involution does not match any class")
