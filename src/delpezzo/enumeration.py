"""Exact vector enumeration in integral quadratic forms.

All routines work over Z / Fraction only; no floating point is used, so
results never suffer rounding drop-outs.

definite_vectors_by_norm is a Fincke-Pohst search (Math. Comp. 44, 1985)
in scaled integers.  The rational Cholesky data write the form as
Q(x) = sum_i q_ii (x_i + sum_{j>i} q_ij x_j)^2.  With D the lcm of the
denominators of the q_ij (j >= i), Q_i = D q_ii and C_ij = D q_ij are
integers, and at level i the partial sum S = sum_{j>i} C_ij x_j = D s and
the scaled remainder R = D^3 rem are integers too.  The bound
q_ii (x_i + s)^2 <= rem multiplied by D^3 reads Q_i (D x_i + S)^2 <= R, and
since (D x_i + S)^2 is an integer that is |D x_i + S| <= isqrt(R // Q_i).
Both are equivalences, so the integer bounds admit exactly the x_i the
rational ones admit, in the same order, and the search stays complete.

anchored_norm_slices cuts a form of signature (1, k) into slabs
<p, c> = t against an anchor p of square m > 0.  Each slab is one such
search in the negative definite complement of p, whose scaled Cholesky
data are computed once per call and shared by every slab.  A complement
vector d gives c = (comp^T d + t p) / m; given the basis rows of a
saturated sublattice, the rows are composed with them first, so each
vector comes out in ambient coordinates in one product per coordinate and
the divisibility by m is tested on the ambient numerators.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import List, Sequence, Tuple

from .errors import InputError

Coords = Tuple[int, ...]


def _cholesky(gram: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """Rational Cholesky data for a positive definite symmetric matrix."""
    n = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise InputError("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    return q


def _descend(i: int, rem: int, x: List[int], diag: List[int],
             upper: List[List[int]], scale: int, top: int, out: dict) -> None:
    """Fill out with the vectors below level i; rem is the scaled remainder R.

    Coordinate n-1 is outermost and every coordinate runs upwards.  A module
    function, not a closure, so no reference cycle keeps out alive.
    """
    row = upper[i]
    s = 0
    for j in range(i + 1, len(x)):
        s += row[j] * x[j]
    qi = diag[i]
    r = isqrt(rem // qi)
    lo = -((r + s) // scale)
    hi = (r - s) // scale
    if i:
        for xi in range(lo, hi + 1):
            x[i] = xi
            y = scale * xi + s
            _descend(i - 1, rem - qi * y * y, x, diag, upper, scale, top, out)
        x[i] = 0
        return
    cube = scale ** 3
    for xi in range(lo, hi + 1):
        y = scale * xi + s
        norm = (top - rem + qi * y * y) // cube
        if norm > 0:
            x[0] = xi
            out.setdefault(norm, []).append(tuple(x))
    x[0] = 0


def _scaled_cholesky(gram: Sequence[Sequence[int]]):
    """(diag, upper, scale): the integer Fincke-Pohst data Q_i, C_ij and D."""
    n = len(gram)
    q = _cholesky(gram)
    scale = lcm(*(q[i][j].denominator for i in range(n) for j in range(i, n)))
    diag = [int(q[i][i] * scale) for i in range(n)]
    upper = [[int(q[i][j] * scale) if j > i else 0 for j in range(n)] for i in range(n)]
    return diag, upper, scale


def _by_norm(data, max_norm: int) -> dict:
    """definite_vectors_by_norm from the data of _scaled_cholesky."""
    diag, upper, scale = data
    n = len(diag)
    out: dict = {}
    top = max_norm * scale ** 3
    _descend(n - 1, top, [0] * n, diag, upper, scale, top, out)
    return out


def definite_vectors_by_norm(gram: Sequence[Sequence[int]],
                             max_norm: int) -> dict:
    """Nonzero integer vectors with 0 < x^T gram x <= max_norm, keyed by norm.

    Requires gram positive definite; the enumeration is complete.  Keys come
    in order of first occurrence and each list in the order of
    definite_vectors.
    """
    if max_norm <= 0 or not gram:
        return {}
    return _by_norm(_scaled_cholesky(gram), max_norm)


def definite_vectors(gram: Sequence[Sequence[int]], target: int) -> List[Coords]:
    """All nonzero integer vectors x with x^T gram x == target.

    Requires gram positive definite.  The result is the complete solution
    set, sorted by reversed coordinates (x_{n-1} first, then x_{n-2}, ...),
    which is the order of the search.
    """
    if target <= 0:
        return []
    return definite_vectors_by_norm(gram, target).get(target, [])


def _anchor_complement(gram: Sequence[Sequence[int]], p: Sequence[int]):
    from . import exactlinalg as xl

    n = len(gram)
    row = xl.mat_vec(gram, list(p))
    comp = xl.kernel([row])  # basis of p-orthogonal vectors, saturated
    b = [[comp[j][i] for j in range(len(comp))] for i in range(n)]
    g = xl.mat_mul(xl.mat_mul(xl.transpose(b), gram), b)
    return comp, g


def anchored_norm_slices(gram: Sequence[Sequence[int]], p: Sequence[int],
                         target: int, t_bound: int, basis_rows=None):
    """Yield (|t|, vectors) with c^T gram c == target, grouped by |<p, c>|.

    Requires gram of signature (1, k) and <p, p> > 0.  Every slice
    <p, c> = t reduces to a complete search in the negative definite
    complement of p, so each yielded batch is complete for its slab and
    the batches come in order of increasing |t|, each one sorted.

    basis_rows, when given, are the rows of a basis matrix B of a saturated
    sublattice with Gram matrix gram (Sublattice._rows); the vectors are
    then yielded as B c, in ambient coordinates.
    """
    n = len(gram)
    m = sum(p[i] * gram[i][j] * p[j] for i in range(n) for j in range(n))
    if m <= 0:
        raise InputError("anchor vector must have positive self-intersection")
    comp, g_comp = _anchor_complement(gram, p)
    neg = [[-x for x in row] for row in g_comp]
    # c = (comp^T d + t p) / m for d in the complement; row i of comp^T is
    # (comp[j][i])_j
    rows = [tuple(v[i] for v in comp) for i in range(n)]
    step = list(p)
    if basis_rows is not None:
        # B c = (B comp^T d + t B p) / m in one product per coordinate; B c
        # is integral exactly when c is, because B spans a saturated lattice
        rows = [tuple(sum(map(mul, b, v)) for v in comp) for b in basis_rows]
        step = [sum(map(mul, b, p)) for b in basis_rows]
    cholesky = None   # of the complement, computed once at the first use
    for t in range(t_bound + 1):
        # c' = m*c - t*p lies in the complement and has norm m*(m*target - t*t)
        cnorm = m * (t * t - m * target)
        batch = []
        if cnorm >= 0:
            slice_coords: List[Coords] = []
            if cnorm == 0:
                slice_coords.append((0,) * len(comp))
            elif comp:
                if cholesky is None:
                    cholesky = _scaled_cholesky(neg)
                slice_coords.extend(_by_norm(cholesky, cnorm).get(cnorm, []))
            shift = [t * x for x in step]
            for d in slice_coords:
                c = []
                for row, s in zip(rows, shift):
                    num = sum(map(mul, row, d)) + s
                    if num % m:
                        break
                    c.append(num // m)
                else:
                    if any(c):
                        batch.append(tuple(c))
                        if t:
                            batch.append(tuple(-x for x in c))
        yield t, sorted(set(batch))
