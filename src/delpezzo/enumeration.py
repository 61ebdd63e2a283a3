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

anchored_norm_slices cuts a form of signature (1, k) into slabs
<p, c> = t against an anchor p of square m > 0.  One Hermite reduction of
the row G p (AnchorFrame) gives g = gcd(G p), the complement basis and p's
coordinates in a unimodular basis extending it.  Slab t is empty unless
g | t; otherwise the complement vectors d = m c - t p of its integral c are
exactly the coset d = -t w (mod m) of the complement at norm m (t^2 - m
target), with w p's complement coordinates, and the descent visits only
them.  A complement vector d gives c = (comp^T d + t p) / m, an exact
division; given the basis rows of a saturated sublattice, the rows are
composed with them first, so each vector comes out in ambient coordinates
in one product per coordinate.
"""
from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import mul
from typing import List, Sequence, Tuple

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


def _walk(i: int, rem: int, x: List[int], diag: List[int], upper: List[List[int]],
          scale: int, res: Sequence[int], mod: int, out: List[Coords]) -> None:
    """Append to out the vectors below level i that reach the norm of the
    search exactly and have x_j = res[j] (mod mod); rem is the scaled
    remainder R.

    Coordinate n-1 is outermost and every coordinate runs upwards, from the
    first value of its residue class in steps of mod.  A module function,
    not a closure, so no reference cycle keeps out alive.
    """
    row = upper[i]
    s = 0
    for j in range(i + 1, len(x)):
        s += row[j] * x[j]
    qi = diag[i]
    if i:
        r = isqrt(rem // qi)
        lo = -((r + s) // scale)
        lo += (res[i] - lo) % mod
        for xi in range(lo, (r - s) // scale + 1, mod):
            x[i] = xi
            y = scale * xi + s
            _walk(i - 1, rem - qi * y * y, x, diag, upper, scale, res, mod, out)
        x[i] = 0
        return
    # Q_0 y^2 == R with y = D x_0 + S; y = -r comes first, so x_0 ascends
    q, rest = divmod(rem, qi)
    r = isqrt(q)
    if rest or r * r != q:
        return
    for y in ((-r, r) if r else (0,)):
        xi, rest = divmod(y - s, scale)
        if not rest and (xi - res[0]) % mod == 0:
            x[0] = xi
            out.append(tuple(x))
    x[0] = 0


def _exact_norm(data, norm: int, res: Sequence[int], mod: int) -> List[Coords]:
    """The x with Q(x) == norm >= 0 and x = res (mod mod) coordinatewise,
    sorted by reversed coordinates; data are those of _scaled_cholesky."""
    diag, upper, scale = data
    n = len(diag)
    out: List[Coords] = []
    _walk(n - 1, norm * scale ** 3, [0] * n, diag, upper, scale, res, mod, out)
    return out


def definite_vectors(gram: Sequence[Sequence[int]], target: int) -> List[Coords]:
    """All nonzero integer vectors x with x^T gram x == target.

    Requires gram definite; a negative definite gram (first diagonal entry
    < 0) is searched as -gram at -target.  The result is the complete
    solution set, sorted by reversed coordinates (x_{n-1} first, then
    x_{n-2}, ...), which is the order of the exact-norm descent with
    modulus 1.
    """
    if gram and gram[0][0] < 0:
        gram, target = [[-x for x in row] for row in gram], -target
    if target <= 0:
        return []
    return _exact_norm(_scaled_cholesky(gram), target, (0,) * len(gram), 1)


class AnchorFrame:
    """The slab search data of one anchor p in a form of signature (1, k).

    One Hermite reduction of the row G p (exactlinalg.row_hermite) gives
    g = gcd(G p), a unimodular u whose columns past the first are the
    complement basis kernel returns, and p's coordinates (m / g, w) in the
    basis of u's columns.  The frame keeps m, g, the residues w mod m and
    the rows that turn a complement vector into c (ambient rows when
    basis_rows is given); the scaled Cholesky data of the complement are
    computed at the first slab that needs them.  Every slab of every
    target reads the same frame.
    """

    __slots__ = ("m", "g", "residues", "rows", "step", "neg", "_cholesky")

    def __init__(self, gram: Sequence[Sequence[int]], p: Sequence[int], basis_rows=None):
        from . import exactlinalg as xl

        n = len(gram)
        gp = xl.mat_vec(gram, list(p))
        m = sum(map(mul, p, gp))
        if m <= 0:
            raise InputError("anchor vector must have positive self-intersection")
        g, u, coords = xl.row_hermite(gp, p)
        comp = [[u[i][j] for i in range(n)] for j in range(1, n)]
        self.m, self.g = m, g
        self.residues = tuple(x % m for x in coords[1:])
        self.neg = [[-sum(map(mul, a, xl.mat_vec(gram, b))) for b in comp] for a in comp]
        if basis_rows is None:
            # c = (comp^T d + t p) / m; row i of comp^T is (comp[j][i])_j
            self.rows = [tuple(v[i] for v in comp) for i in range(n)]
            self.step = list(p)
        else:
            # B c = (B comp^T d + t B p) / m in one product per coordinate
            self.rows = [tuple(sum(map(mul, b, v)) for v in comp) for b in basis_rows]
            self.step = [sum(map(mul, b, p)) for b in basis_rows]
        self._cholesky = None

    def slab(self, target: int, t: int) -> List[Coords]:
        """The complement vectors d = m c - t p of the integral c with
        c^2 = target and <p, c> = t.

        c = u (a, e) has <p, c> = g a and m c - t p = u (m a - t m / g,
        m e - t w), so the slab is empty unless g | t, and then c is
        integral exactly when d = m e - t w: d runs over the coset -t w
        (mod m) at norm m (t^2 - m target) in the negated complement.
        """
        m = self.m
        cnorm = m * (t * t - m * target)
        if cnorm < 0 or t % self.g:
            return []
        res = [(-t * w) % m for w in self.residues]
        if cnorm == 0 or not res:   # d = 0 is the only vector of norm 0
            return [] if cnorm or any(res) else [(0,) * len(res)]
        if self._cholesky is None:
            self._cholesky = _scaled_cholesky(self.neg)
        return _exact_norm(self._cholesky, cnorm, res, m)


def anchored_norm_slices(gram: Sequence[Sequence[int]], p: Sequence[int],
                         target: int, t_bound: int, basis_rows=None, frame=None):
    """Yield (|t|, vectors) with c^T gram c == target, grouped by |<p, c>|.

    Requires gram of signature (1, k) and <p, p> > 0.  Every slice
    <p, c> = t reduces to a complete search of one coset in the negative
    definite complement of p, so each yielded batch is complete for its
    slab and the batches come in order of increasing |t|, each one sorted.

    basis_rows, when given, are the rows of a basis matrix B of a saturated
    sublattice with Gram matrix gram (Sublattice._rows); the vectors are
    then yielded as B c, in ambient coordinates.  frame, when given, is the
    AnchorFrame of (gram, p, basis_rows), so that its data serve several
    calls; otherwise it is built at the first slab.
    """
    if frame is None:
        frame = AnchorFrame(gram, p, basis_rows)
    m, rows, step = frame.m, frame.rows, frame.step
    for t in range(t_bound + 1):
        shift = [t * x for x in step]
        batch = []
        for d in frame.slab(target, t):
            c = tuple([(sum(map(mul, row, d)) + s) // m for row, s in zip(rows, shift)])
            if any(c):
                batch.append(c)
                if t:
                    batch.append(tuple([-x for x in c]))
        yield t, sorted(set(batch))
