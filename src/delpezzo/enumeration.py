"""Exact vector enumeration in integral quadratic forms.

All routines work over Z only; no floating point is used, so results
never suffer rounding drop-outs.

Every search is one exact-norm Fincke-Pohst descent (Math. Comp. 44, 1985)
in scaled integers, _walk.  The rational Cholesky data write the form as
Q(x) = sum_i q_ii (x_i + sum_{j>i} q_ij x_j)^2.  With D the lcm of the
denominators of the q_ij (j >= i), Q_i = D q_ii and C_ij = D q_ij are
integers, and at level i the partial sum S = sum_{j>i} C_ij x_j = D s and
the scaled remainder R = D^3 rem are integers too.  The bound
q_ii (x_i + s)^2 <= rem multiplied by D^3 reads Q_i (D x_i + S)^2 <= R, and
since (D x_i + S)^2 is an integer that is |D x_i + S| <= isqrt(R // Q_i).
Both are equivalences, so the integer bounds admit exactly the x_i the
rational ones admit, in the same order, and the search stays complete.  At
the last level the norm is exact when Q_0 (D x_0 + S)^2 == R, so x_0 is
solved for, not looped over.  The descent takes a modulus and a residue per
coordinate and visits only that coset, stepping each coordinate by the
modulus; definite_vectors uses modulus 1.

The descent also lifts what it finds.  It is given one column per
coordinate and an offset, and carries the partial sum
offset + sum_{j>i} x_j col_j down the levels, so each vector comes out as
that sum, in ambient coordinates, with no product after the search:
definite_vectors takes unit columns, or the basis columns of a sublattice,
and the anchor slabs take the complement columns with the offset t p.

anchored_norm_slices cuts a form of signature (1, k) into slabs <p, c> = t
against an anchor p of square m > 0; the AnchorFrame of G, p and the basis
rows B (the identity when there are none) is its only input.  One column
Hermite reduction of the stacked rows [G p; B] (AnchorFrame) gives
g = gcd(G p), the complement basis in column echelon form with its ambient
columns, and p's coordinates in a unimodular basis extending it.  Slab t is
empty unless g | t; otherwise the complement vectors d = m c - t p of its
integral c are exactly the coset d = -t w (mod m) of the complement at norm
m (t^2 - m target), with w p's complement coordinates, and the descent
visits only them.  Its sums are B m c = h d + t B p over the echelon
columns h, and one exact division by m gives B c.  The coset makes c
integral in the frame's own basis, so B c is an integral class of the
sublattice whether or not it is saturated; nothing is tested on ambient
coordinates.

The descent is ordered: with the first pivot's column outermost, each slab
comes out ascending in ambient coordinates (AnchorFrame), so
anchored_norm_slices merges slab t with the reversed negation that is
slab -t in linear time and sorts nothing.  _walk is the only descent, and
anchored_norm_slices, which yields whole slabs, the only batch API.
"""
from __future__ import annotations

import heapq
from math import gcd, isqrt, lcm
from operator import mul
from typing import List, Sequence, Tuple

from . import exactlinalg as xl
from .errors import InputError

Coords = Tuple[int, ...]


def _scaled_cholesky(gram: Sequence[Sequence[int]]):
    """(diag, upper, scale): the integer Fincke-Pohst data Q_i, C_ij and D.

    Fraction-free (Bareiss) elimination gives the bordered minors b_ij,
    i <= j, of the leading rows, and the rational Cholesky data are
    q_ii = b_ii / b_{i-1,i-1} (b_{-1,-1} = 1) and q_ij = b_ij / b_ii.  The
    form is positive definite exactly when every b_ii is positive
    (Sylvester's criterion), and then every division below is exact.
    """
    n = len(gram)
    b = [list(row) for row in gram]
    prev = 1
    for i in range(n):
        d = b[i][i]
        if d <= 0:
            raise InputError("form is not positive definite")
        row = b[i]
        for r in range(i + 1, n):
            br, f = b[r], b[r][i]
            for c in range(i + 1, n):
                br[c] = (d * br[c] - f * row[c]) // prev
        prev = d
    pivots = [1] + [b[i][i] for i in range(n)]     # pivots[i] = b_{i-1,i-1}
    dens = [pivots[i] // gcd(pivots[i], pivots[i + 1]) for i in range(n)]
    dens += [b[i][i] // gcd(b[i][i], b[i][j]) for i in range(n) for j in range(i + 1, n)]
    scale = lcm(*dens)
    diag = [scale * pivots[i + 1] // pivots[i] for i in range(n)]
    upper = [[scale * b[i][j] // b[i][i] if j > i else 0 for j in range(n)] for i in range(n)]
    return diag, upper, scale


def _level(rem: int, q: int, s: int, scale: int, r: int, mod: int) -> range:
    """The x = r (mod mod) with Q (D x + S)^2 <= R, ascending, for q = Q,
    s = S, scale = D and rem = R."""
    bound = isqrt(rem // q)
    lo = -((bound + s) // scale)
    lo += (r - lo) % mod
    return range(lo, (bound - s) // scale + 1, mod)


def _walk(i: int, rem: int, x: List[int], amb: List[int], diag: List[int],
          upper: List[List[int]], scale: int, cols: Sequence[Coords],
          res: Sequence[int], mod: int, out: List[Coords]) -> None:
    """Append to out amb + sum_{j<=i} x_j cols[j] for each x of the levels
    up to i that reaches the norm of the search exactly and has
    x_j = res[j] (mod mod); rem is the scaled remainder R, x holds the
    coordinates above level i and amb = offset + sum_{j>i} x_j cols[j].

    Coordinate n-1 is outermost and every coordinate runs upwards, from the
    first value of its residue class in steps of mod, so the x come out in
    lexicographic order of (x_{n-1}, ..., x_0).  Levels 1 and 0 run
    inline: x_0 is solved, so there is no call per leaf, and on a rank-1
    form (i == 0) level 1 is a single pass at x_1 = 0.  A module function,
    not a closure, so no reference cycle keeps out alive.
    """
    row = upper[i]
    s = 0
    for j in range(i + 1, len(x)):
        s += row[j] * x[j]
    if i > 1:
        qi, col = diag[i], cols[i]
        for xi in _level(rem, qi, s, scale, res[i], mod):
            x[i] = xi
            y = scale * xi + s
            _walk(i - 1, rem - qi * y * y, x, [a + xi * c for a, c in zip(amb, col)],
                  diag, upper, scale, cols, res, mod, out)
        return
    q0, col0, row0 = diag[0], cols[0], upper[0]
    if i:
        q1, col1, c01 = diag[1], cols[1], row0[1]
        s0 = 0
        for j in range(2, len(x)):
            s0 += row0[j] * x[j]
        level1 = _level(rem, q1, s, scale, res[1], mod)
    else:
        q1 = c01 = s0 = 0
        col1, level1 = col0, (0,)
    for x1 in level1:
        # Q_0 y^2 == R with y = D x_0 + S; y = -r comes first, so x_0 ascends
        y = scale * x1 + s
        q, rest = divmod(rem - q1 * y * y, q0)
        if rest:
            continue
        r = isqrt(q)
        if r * r != q:
            continue
        s1 = s0 + c01 * x1
        for y in ((-r, r) if r else (0,)):
            x0, rest = divmod(y - s1, scale)
            if not rest and (x0 - res[0]) % mod == 0:
                out.append(tuple([a + x1 * c + x0 * d for a, c, d in zip(amb, col1, col0)]))


def _exact_norm(data, norm: int, res: Sequence[int], mod: int,
                cols: Sequence[Coords], offset: Sequence[int]) -> List[Coords]:
    """offset + sum_j x_j cols[j] for each x with Q(x) == norm >= 0 and
    x = res (mod mod) coordinatewise, in the order of the x sorted by
    reversed coordinates; data are those of _scaled_cholesky."""
    diag, upper, scale = data
    n = len(diag)
    out: List[Coords] = []
    _walk(n - 1, norm * scale ** 3, [0] * n, list(offset), diag, upper, scale, cols, res,
          mod, out)
    return out


def definite_vectors(gram: Sequence[Sequence[int]], target: int,
                     basis_rows=None) -> List[Coords]:
    """All nonzero integer vectors x with x^T gram x == target.

    Requires gram definite, and raises InputError otherwise, whatever the
    target; a negative definite gram (first diagonal entry < 0) is searched
    as -gram at -target.  The result is the complete solution set, sorted
    by reversed coordinates (x_{n-1} first, then x_{n-2}, ...), which is
    the order of the exact-norm descent with modulus 1.

    basis_rows, when given, are the rows of a basis matrix B of a
    sublattice with Gram matrix gram, row i the i-th ambient coordinate of
    each basis vector; each x then comes out as B x, in ambient
    coordinates, in the same order.
    """
    if gram and gram[0][0] < 0:
        gram, target = [[-x for x in row] for row in gram], -target
    data = _scaled_cholesky(gram)
    n = len(gram)
    if target <= 0 or not n:
        return []
    if basis_rows is None:
        cols = [tuple([int(i == j) for i in range(n)]) for j in range(n)]
    else:
        cols = list(zip(*basis_rows))
    return _exact_norm(data, target, (0,) * n, 1, cols, (0,) * len(cols[0]))


class AnchorFrame:
    """The slab search data of one anchor p in a form of signature (1, k).

    One column Hermite reduction (exactlinalg.hnf_columns) of the stacked
    rows [G p; B], B the basis rows or the identity when there are none,
    gives h = [G p; B] u with u unimodular: column 0 of h carries
    g = gcd(G p), columns 1.. are a complement basis of p in column echelon
    form with positive pivots, and their rows past the first are its
    ambient columns; u^-1 p gives p's coordinates (m / g, w) in the basis of
    u's columns.  The frame keeps m, g, whether p is characteristic
    (G p = diag G mod 2, so that <p, c> = c^2 mod 2), the residues w mod m,
    the negated complement Gram (one G b per complement vector b) and the
    ambient complement columns and B p as the columns and step of the
    descent, the first pivot's column outermost; the scaled Cholesky data
    of the complement are computed at the first slab that needs them.
    Every slab of every target reads the same frame.  The canonical class
    K of M_n, n <= 8, is a characteristic anchor: an isotropic target has
    no odd slab and a target of square -1 no even one, and with K-perp
    negative definite, slab 0 holds no vector of square 0 or +1.

    That order makes each slab come out ascending.  The descent runs every
    coordinate upwards with the outermost first (_walk), and in the echelon
    columns an ambient row above a column's pivot depends only on the
    coordinates outside it, while the pivot row grows with its own
    coordinate; so the ambient vectors, and their quotients by m > 0,
    ascend in the order the descent finds them.
    """

    __slots__ = ("m", "g", "characteristic", "residues", "cols", "step", "neg", "_cholesky")

    def __init__(self, gram: Sequence[Sequence[int]], p: Sequence[int], basis_rows=None):
        n = len(gram)
        gp = xl.mat_vec(gram, list(p))
        m = sum(map(mul, p, gp))
        if m <= 0:
            raise InputError("anchor vector must have positive self-intersection")
        rows = xl.identity(n) if basis_rows is None else basis_rows
        h, u, _, coords = xl.hnf_columns([gp, *rows], p)
        order = range(n - 1, 0, -1)     # the first pivot's column outermost
        comp = [[u[i][j] for i in range(n)] for j in order]
        self.m, self.g = m, h[0][0]
        # G p = diag G (mod 2): <p, c> = c^2 (mod 2) for every integral c
        self.characteristic = all((a - gram[i][i]) % 2 == 0 for i, a in enumerate(gp))
        self.residues = tuple(coords[j] % m for j in order)
        gcomp = [xl.mat_vec(gram, b) for b in comp]
        self.neg = [[-sum(map(mul, a, gb)) for gb in gcomp] for a in comp]
        self.cols = [tuple([row[j] for row in h[1:]]) for j in order]
        self.step = tuple(xl.mat_vec(rows, p))
        self._cholesky = None

    def slab(self, target: int, t: int) -> List[Coords]:
        """The vectors m c (B m c with basis rows) of the nonzero integral c
        with c^2 = target and <p, c> = t, ascending.

        c = u (a, e) has <p, c> = g a and d = m c - t p = u (m a - t m / g,
        m e - t w), so the slab is empty unless g | t, and, for a
        characteristic p, unless t = target (mod 2); then c is
        integral exactly when d = m e - t w: d runs over the coset -t w
        (mod m) at norm m (t^2 - m target) in the negated complement, and
        the descent sums m c = comp^T d + t p over the frame's columns.
        """
        m = self.m
        cnorm = m * (t * t - m * target)
        if cnorm < 0 or t % self.g or (self.characteristic and (t - target) % 2):
            return []
        offset = [t * x for x in self.step]
        res = [(-t * w) % m for w in self.residues]
        if cnorm == 0 or not res:   # d = 0 is the only vector of norm 0; c = 0 when t = 0
            return [tuple(offset)] if t and not cnorm and not any(res) else []
        if self._cholesky is None:
            self._cholesky = _scaled_cholesky(self.neg)
        return _exact_norm(self._cholesky, cnorm, res, m, self.cols, offset)


def anchored_norm_slices(frame: AnchorFrame, target: int, t_bound: int):
    """Yield (|t|, vectors) with c^2 == target for |t| = 0..t_bound, grouped
    by |<p, c>|, from the frame of a form of signature (1, k), an anchor p of
    square m > 0 and, optionally, basis rows B of a sublattice, saturated or
    not.

    Each slice <p, c> = t is a complete search of one coset in the negative
    definite complement of p, so each batch is complete for its slab, and
    the batches come in order of increasing |t|, each one ascending, as B c
    when the frame has basis rows.  Slab t comes from the frame as m c,
    already ascending, and one exact division by m keeps the order.  The -t
    slab is its negation, so its ascending order is the negation read
    backwards, and one linear merge of the two gives the batch, with no
    sort; since c -> B c is injective and the two slabs are disjoint, no
    vector repeats.
    """
    m = frame.m
    for t in range(t_bound + 1):
        batch = frame.slab(target, t)
        if m > 1:
            batch = [tuple([x // m for x in c]) for c in batch]
        if t:
            batch = list(heapq.merge(batch, [tuple([-x for x in c]) for c in reversed(batch)]))
        yield t, batch
