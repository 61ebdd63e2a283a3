"""Shared helpers for the test suite."""
import importlib.util
import itertools
import random
from functools import lru_cache
from operator import mul
from pathlib import Path

import pytest

import delpezzo.permgroup as pg
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.errors import InputError, UnsupportedError, is_json_int
from delpezzo.involutions import _roots_and_index
from delpezzo.lattice import Isometry, del_pezzo_lattice, gram_of
from delpezzo.weyl import canonical_class, closure, enumerate_roots, reflection, weyl_generators


@lru_cache(maxsize=None)
def canonical_generators(n):
    """The reflections in the norm -2 generator vectors (they all fix K),
    built once per n."""
    return tuple(reflection(v) for v in weyl_generators(n).vectors if v.norm() == -2)


def random_group_element(n, rng: random.Random, length: int = 8) -> Isometry:
    """A pseudo-random product of canonical-class-fixing generators."""
    gens = canonical_generators(n)
    lat = del_pezzo_lattice(n)
    g = Isometry(lat, tuple(tuple(1 if i == j else 0 for j in range(lat.rank))
                            for i in range(lat.rank)))
    for _ in range(rng.randrange(1, length + 1)):
        g = g @ rng.choice(gens)
    return g


def assert_slabs_ascend(frame, targets, t_bound):
    """Each slab t and -t of the frame comes out of the descent ascending,
    and so does anchored_norm_slices's merged batch of the two."""
    for target in targets:
        for t, batch in en.anchored_norm_slices(frame, target, t_bound):
            for s in {t, -t}:
                slab = frame.slab(target, s)
                assert all(a < b for a, b in zip(slab, slab[1:]))
            assert all(a < b for a, b in zip(batch, batch[1:]))


@lru_cache(maxsize=None)
def bench_inputs():
    """perfbench/inputs.py as a module: the benchmark's input streams,
    loaded once per session.  Its verify_stream and decompose_stream are
    cached by seed and return tuples, so no test rebuilds a stream or
    changes one that another test reads."""
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ("verify_stream", "decompose_stream"):
        build = getattr(module, name)
        setattr(module, name, lru_cache(maxsize=None)(lambda seed, build=build: tuple(build(seed))))
    return module


def e_reflections(n):
    """The reflections in E_1 and E_n of M_n.  Each has g_00 = 1, and its
    chamber conjugate and its normal form w_I (I = {E_n}) both move K, so
    irreducibility decides and splits it on its chamber conjugate's own
    eigen data, with box anchors."""
    lat = del_pezzo_lattice(n)
    return [reflection(lat.vector(tuple(int(j == i) for j in range(n + 1)))) for i in (1, n)]


def lift(basis, x):
    """Ambient coordinates of sum_i x_i basis_i, for a nonempty basis of
    ambient coordinate tuples."""
    return tuple(sum(c * b[i] for c, b in zip(x, basis)) for i in range(len(basis[0])))


def coords_of(basis, v):
    """Integer coordinates of the ambient vector v in a basis of ambient
    coordinate tuples, or None when v is not in its span over Z."""
    sol = xl.solve_integer(xl.transpose(basis), list(v))
    return None if sol is None else tuple(sol)


def decompose_pieces(g, bound: int = 10):
    """(decomposition, pieces) of irreducibility._decompose_in_basis(g,
    bound, K) for an involution g of M_n, n = 2..8: pieces are the eigen
    data each split loop starts from, in order, so piece i is B-perp for the
    blocks of the first i steps and piece 0 is the first eigen data.  Each
    loop runs route c first, which records its data."""
    from delpezzo import criteria, irreducibility
    pieces = []
    route_c = criteria.route_c

    def recorded(data, t_bound):
        pieces.append(data)
        return route_c(data, t_bound)

    criteria.route_c = recorded
    try:
        d = irreducibility._decompose_in_basis(g, bound, canonical_class(len(g.matrix) - 1))
    finally:
        criteria.route_c = route_c
    return d, pieces


@lru_cache(maxsize=None)
def _full_table_reads(matrix, n):
    """(a, pair, fixed, paired) for the K-fixing involution of M_n with
    these rows, from every entry of its K-slab tables, one g c at a time:
    the lowest fixed entry of weyl._slab_table(n, 1, 3) (n <= 7, else
    None); route b's pair, the first (c1, c2), in a plain double loop over
    the fixed entries of the conic table (n, 0, 2) negated in descending
    order and then as they are, with c1 . c2 = 1, else None; and the
    indices of the entries c of the table of exceptional classes with
    g c = c and with c . g c = 0."""
    from delpezzo.weyl import _slab_table
    gram = del_pezzo_lattice(n).gram

    def fixes(c):
        return all(sum(map(mul, row, c)) == x for row, x in zip(matrix, c))

    a = None if n > 7 else next((c for c in _slab_table(n, 1, 3).vectors if fixes(c)), None)
    conics = [c for c in _slab_table(n, 0, 2).vectors if fixes(c)]
    batch = [tuple(-x for x in c) for c in reversed(conics)] + conics
    pair = next((tuple(sorted((c1, c2))) for c1 in batch for w in [xl.mat_vec(gram, c1)]
                 for c2 in batch if sum(map(mul, w, c2)) == 1), None)
    classes = _slab_table(n, -1, 1).vectors
    fixed = [j for j, c in enumerate(classes) if fixes(c)]
    paired = [j for j, c in enumerate(classes)
              if sum(map(mul, xl.mat_vec(gram, c), xl.mat_vec(matrix, c))) == 0]
    return a, pair, fixed, paired


def full_table_witnesses(name, g, n, t_bound, within=None):
    """The witnesses of criteria.table_witnesses(name, g, n, t_bound,
    within), with its gates, read off the whole K-slab tables entry by entry
    (_full_table_reads): no planes, no chunks, no state."""
    from delpezzo.weyl import _slab_table
    a, pair, fixed, paired = _full_table_reads(g.matrix, n)
    if name == "a":
        return (a,) if n <= 7 and t_bound >= 3 and within is None and a is not None else None
    if name == "b":
        return pair if t_bound >= 2 and within is None else None
    if name == "d" and t_bound < 2:
        return None
    found = [j for j in (fixed if name == "c" else paired)
             if within is None or within >> j & 1]
    if not found:
        return None
    c = _slab_table(n, -1, 1).vectors[found[0]]
    return (c,) if name == "c" else (c, tuple(xl.mat_vec(g.matrix, c)))


def isometry_oracle(lattice, matrix):
    """The message of the InputError that Isometry(lattice, matrix) raises,
    None when it accepts: the size, a per-entry is_json_int test, g^T G g
    = G as the Gram matrix of g's columns (lattice.gram_of) and, on a
    degenerate form, |det g| = 1."""
    size = lattice.rank
    if len(matrix) != size or any(len(row) != size for row in matrix):
        return "matrix size does not match lattice rank"
    if not all(is_json_int(x) for row in matrix for x in row):
        return "matrix entries must be integers"
    if gram_of(lattice.gram, list(zip(*matrix))) != lattice.gram:
        return "matrix does not preserve the intersection form"
    if xl.det(lattice.gram) == 0 and abs(xl.det(matrix)) != 1:
        return "matrix is not unimodular"
    return None


def fixed_entries_oracle(rows, block, negated=False):
    """weyl.fixed_entries(rows, block, negated), one row at a time: entry j
    is kept while byte j of row_k . planes - plane_k + offset is _OFFSET,
    field j = 0, for every row k, and likewise for the negated mask with
    + plane_k."""
    from delpezzo.weyl import _OFFSET
    start, count, planes, offset = block
    masks = []
    for sign in ((-1, 1) if negated else (-1,)):
        kept = range(count)
        for row, plane in zip(rows, planes):
            fields = (sum(map(mul, row, planes)) + sign * plane + offset).to_bytes(count, "little")
            kept = [j for j in kept if fields[j] == _OFFSET]
        masks.append(sum(1 << (start + j) for j in kept))
    return tuple(masks) if negated else masks[0]


# The byte-permutation oracles.  A permutation of the sorted root list
# (pg.root_action_context) is a bytes object, entry i the index of the image
# of root i, so composition is one bytes.translate call.


def _table(q: bytes) -> bytes:
    """Pad a permutation to the 256-byte table bytes.translate expects."""
    return q + bytes(range(len(q), 256))


def perm_compose(p: bytes, q: bytes) -> bytes:
    """The permutation 'first p, then q'."""
    return p.translate(_table(q))


def perm_identity(degree: int) -> bytes:
    return bytes(range(degree))


def perm_inverse(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, j in enumerate(p):
        out[j] = i
    return bytes(out)


@lru_cache(maxsize=None)
def _perm_to_matrix_data(n: int):
    # columns: K followed by the simple roots; invertible over Q
    lat = del_pezzo_lattice(n)
    vecs = [canonical_class(n)] + list(weyl_generators(n).vectors)
    cols = [[v.coords[i] for v in vecs] for i in range(lat.rank)]
    return vecs, cols, xl.inverse(cols)


def perm_to_isometry(p: bytes, n: int) -> Isometry:
    """Reconstruct the isometry from its root permutation (K is fixed)."""
    if n < 3:
        raise UnsupportedError("root permutations determine isometries only for n >= 3")
    roots, index = _roots_and_index(n)
    vecs, cols, inv = _perm_to_matrix_data(n)
    lat = del_pezzo_lattice(n)
    images = [canonical_class(n)]
    for v in vecs[1:]:
        images.append(roots[p[index[v.coords]]])
    img_cols = [[w.coords[i] for w in images] for i in range(lat.rank)]
    prod = xl.mat_mul(img_cols, inv)
    matrix = []
    for row in prod:
        out_row = []
        for x in row:
            if getattr(x, "denominator", 1) != 1:
                raise InputError("permutation does not come from an integral isometry")
            out_row.append(int(x))
        matrix.append(tuple(out_row))
    return Isometry(lat, tuple(matrix))


def bfs_closure(gens, degree: int, limit: int = 10 ** 7):
    """All products of the generators, by breadth-first closure."""
    return closure([perm_identity(degree)], [_table(g) for g in gens], bytes.translate,
                   limit, "group closure")


def conjugacy_orbit(p: bytes, gens, limit: int = 10 ** 7):
    """Orbit of p under conjugation by the generated group."""
    pairs = [(perm_inverse(g), g) for g in gens]
    return closure([p], pairs, lambda q, pair: perm_compose(perm_compose(pair[0], q), pair[1]),
                   limit, "conjugacy orbit")


def all_involutions(n: int):
    """Every involution in the group, by full closure; small n only."""
    if n > 6:
        raise UnsupportedError("full enumeration is limited to n <= 6")
    _, _, gens = pg.root_action_context(n)
    degree = len(enumerate_roots(n))
    ident = perm_identity(degree)
    return [p for p in bfs_closure(gens, degree)
            if p != ident and perm_compose(p, p) == ident]


@lru_cache(maxsize=None)
def canon_table(n: int) -> bytes:
    """Entry i: the id of the sign-canonical mate (first nonzero coordinate
    positive) of root id i, read off the coordinates here, not off the
    library's root planes."""
    roots, index = _roots_and_index(n)
    out = bytearray(len(roots))
    for i, r in enumerate(roots):
        lead = next(x for x in r.coords if x)
        out[i] = index[r.coords if lead > 0 else tuple(-x for x in r.coords)]
    return bytes(out)


def key_orbit(key, n, limit: int = 3 * 10 ** 6):
    """The census oracle: the orbit of a key (sorted sign-canonical root ids)
    under the group, each member as bytes of its sorted ids.

    Root ids fit in a byte (root_action_context checks), so a generator acts
    on a key by one bytes.translate with the table i -> canon[g[i]].  The
    images of distinct pair ids are distinct pairs, so sorting the bytes
    gives the image key.
    """
    _, _, gens = pg.root_action_context(n)
    canon = canon_table(n)
    tables = [_table(bytes(canon[j] for j in g)) for g in gens]
    return closure([bytes(key)], tables, lambda s, t: bytes(sorted(s.translate(t))),
                   limit, "class orbit")


# The class-layer oracles: the per-root loops that the root planes of
# delpezzo.involutions replace, one dot product or one g.v at a time.


def orthogonality_oracle(n):
    """(ids, orth) of involutions._orthogonality, from one dot product per
    pair of sign-canonical roots."""
    roots, _ = _roots_and_index(n)
    gram = del_pezzo_lattice(n).gram
    ids = tuple(sorted(set(canon_table(n))))
    vecs = [roots[a].coords for a in ids]
    orth = [0] * len(ids)
    for i, v in enumerate(vecs):
        row = xl.mat_vec(gram, list(v))
        for j in range(i + 1, len(ids)):
            if not sum(map(mul, row, vecs[j])):
                orth[i] |= 1 << j
                orth[j] |= 1 << i
    return ids, orth


def frame_candidates_oracle(ids, orth, frame):
    """involutions._frame_candidates as a scan over every root per subset:
    each root's frame mask read off its own orth row."""
    at = [ids.index(r) for r in frame]
    spanned, masks = [], []
    for x, row in zip(ids, orth):
        mask = sum(1 << i for i, j in enumerate(at) if not row >> j & 1)
        masks.append(mask)
        if x in frame or mask.bit_count() == 4:
            spanned.append((x, mask))
    out = []
    for size in range(1, len(frame) + 1):
        for bits in itertools.combinations(range(len(frame)), size):
            s = sum(1 << b for b in bits)
            key = tuple(x for x, mask in spanned if not mask & ~s)
            out.append((tuple(frame[b] for b in bits), key,
                        sum(1 for mask in masks if not mask & s)))
    return out


def class_triple_oracle(g, n):
    """involutions._class_triple by one g.v per sign-canonical root."""
    roots, _ = _roots_and_index(n)
    key, fixed = [], 0
    for x in sorted(set(canon_table(n))):
        v = roots[x].coords
        gv = tuple(sum(map(mul, row, v)) for row in g.matrix)
        if gv == v:
            fixed += 1
        elif all(a == -b for a, b in zip(gv, v)):
            key.append(x)
    return tuple(key), ((n + 1 - g.trace()) // 2, len(key), fixed)


def brute_force_root_count(n, coeff_bound: int = 3) -> int:
    """Independent root oracle: vectors of square -2 orthogonal to K.

    Exhaustive over |a_i| <= coeff_bound in the (H, E) basis, with
    branch-and-bound pruning on the two defining equations
    sum a_i^2 = a_0^2 + 2 and sum a_i = -3 a_0.
    """
    count = 0
    for a0 in range(-coeff_bound, coeff_bound + 1):
        norm_budget = a0 * a0 + 2          # remaining sum of squares
        sum_target = -3 * a0               # remaining coordinate sum

        def descend(k, budget, target):
            nonlocal count
            remaining = n - k
            if remaining == 0:
                if budget == 0 and target == 0:
                    count += 1
                return
            if budget < 0 or abs(target) > coeff_bound * remaining:
                return
            if target * target > budget * remaining:
                return
            for a in range(-coeff_bound, coeff_bound + 1):
                descend(k + 1, budget - a * a, target - a)

        descend(0, norm_budget, sum_target)
    return count


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260826)
