"""Exact integer and rational linear algebra helpers.

Matrices are sequences of row tuples/lists of Python ints (Fractions where
noted).  Everything is exact; no floating point is used anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

IntMatrix = Sequence[Sequence[int]]


def identity(n: int) -> List[List[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def transpose(a: IntMatrix) -> List[List[int]]:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: IntMatrix, b: IntMatrix) -> List[List[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a: IntMatrix, x: Sequence[int]) -> List[int]:
    return [sum(map(mul, row, x)) for row in a]


def mat_add_scaled_identity(a: IntMatrix, s: int) -> List[List[int]]:
    return [
        [a[i][j] + (s if i == j else 0) for j in range(len(a))]
        for i in range(len(a))
    ]


def mat_eq(a: IntMatrix, b: IntMatrix) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def det(a: IntMatrix) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse(a: IntMatrix) -> List[List[Fraction]]:
    """Inverse over the rationals.  Raises InputError on singular input."""
    from .errors import InputError

    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise InputError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def hnf_columns(a: IntMatrix):
    """Column-style Hermite reduction.

    Returns (h, u, pivots) with a @ u == h, u unimodular, the columns of h
    past the last pivot identically zero, and pivots a list of (row, col)
    positions with positive pivot entries, one per row that has one, in
    increasing row and column order; h is in column echelon form, since each
    column past a pivot is zero in that pivot's row and in every earlier row.

    One in-place loop (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4).  At each row, while the row has a nonzero entry in the
    pivot column c or right of it: the column of least |entry| (the first
    on ties, so the scan stops at a unit) is swapped into c and made
    positive, and column c is subtracted, floor(h_rj / h_rc) times, from
    every column j > c with h_rj != 0.  These steps act on columns c..,
    where the rows above are zero already, so they run on the rows from the
    current one on and on those of u.  The subtractions of one step all
    read column c and none writes it, so each row makes them in one pass,
    and a row that is zero in column c is skipped.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h = [list(row) for row in a]
    u = identity(ncols)
    pivots: List[Tuple[int, int]] = []
    col = 0
    for row in range(nrows):
        if col >= ncols:
            break
        hr = h[row]
        rows = None
        while True:
            least = 0
            for j in range(col, ncols):
                v = abs(hr[j])
                if v and (not least or v < least):
                    j0, least = j, v
                    if v == 1:
                        break
            if not least:
                break
            if rows is None:
                rows = h[row:] + u
            if j0 == col:
                if hr[col] < 0:
                    for r in rows:
                        r[col] = -r[col]
            elif hr[j0] < 0:
                for r in rows:
                    r[col], r[j0] = -r[j0], r[col]
            else:
                for r in rows:
                    r[col], r[j0] = r[j0], r[col]
            p = hr[col]
            steps = [(j, hr[j] // p) for j in range(col + 1, ncols) if hr[j]]
            if steps:
                for r in rows:
                    c = r[col]
                    if c:
                        for j, q in steps:
                            r[j] -= q * c
                if any(hr[j] for j, _ in steps):
                    continue
            pivots.append((row, col))
            col += 1
            break
    return h, u, pivots


def kernel(a: IntMatrix):
    """Basis of the integer kernel {x : a @ x == 0}, as a list of vectors:
    the columns of u past the pivots of hnf_columns.

    The returned basis spans a saturated sublattice of Z^ncols.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0 or nrows == 0:
        return identity(ncols)
    _, u, pivots = hnf_columns(a)
    return [[u[i][j] for i in range(ncols)] for j in range(len(pivots), ncols)]


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of a @ x == b, or None when unsolvable."""
    return solve_integer_many(a, [b])[0]


def solve_integer_many(a: IntMatrix, bs: Iterable[Sequence[int]]) -> List[Optional[List[int]]]:
    """solve_integer for each right-hand side, from one Hermite reduction of a."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h, u, pivots = hnf_columns(a)
    out: List[Optional[List[int]]] = []
    for b in bs:
        res = list(b)
        y = [0] * ncols
        for row, col in pivots:
            if res[row] % h[row][col] != 0:
                break
            t = res[row] // h[row][col]
            y[col] = t
            if t:
                for r in range(nrows):
                    res[r] -= t * h[r][col]
        out.append(None if any(res) else mat_vec(u, y))
    return out


def rational_rank(a: IntMatrix) -> int:
    _, _, pivots = hnf_columns(a)
    return len(pivots)


def f2_bits(row: Sequence[int]) -> int:
    """A vector over GF(2) packed into an int, entry i as bit i."""
    return sum(1 << i for i, x in enumerate(row) if x & 1)


def f2_reduce(echelon: Sequence[int], r: int) -> int:
    """r reduced against an echelon of f2_echelon, in its order; 0 iff r
    lies in its span."""
    for b in echelon:
        r = min(r, r ^ b)   # clears the leading bit of b in r
    return r


def f2_echelon(rows: Iterable[int]) -> List[int]:
    """An xor basis of the span of packed GF(2) vectors (f2_bits).

    Each element is reduced against the ones before it, so it is zero at
    their leading bits.  A reduction step in that order therefore never sets
    a leading bit an earlier step cleared, and any nonzero combination keeps
    the leading bit of its first member: f2_reduce is exact.
    """
    basis: List[int] = []
    for r in rows:
        r = f2_reduce(basis, r)
        if r:
            basis.append(r)
    return basis


def f2_rank(a: IntMatrix) -> int:
    return len(f2_echelon(f2_bits(row) for row in a))


def f2_solvable(a: IntMatrix, b: Sequence[int]) -> bool:
    """Whether a @ x == b has a solution over GF(2)."""
    nrows = len(a)
    aug = [[x & 1 for x in row] + [b[i] & 1] for i, row in enumerate(a)]
    return f2_rank([row[:-1] for row in aug]) == f2_rank(aug)


def sylvester_signature(gram: IntMatrix) -> Tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric integer matrix.

    Symmetric elimination in integers: with pivot d of the remaining block
    A and prev the pivot before it (1 at the start), the next block is
    (|d| A' - sgn(d) a a^T) / |prev|, where a is the pivot's column below it
    and A' the block below and right of it.  That is |d| / |prev| times the
    Schur complement, a positive multiple, so the signature is kept; and it
    is |det| of the leading pivot block times the Schur complement, whose
    entries are bordered minors up to sign (Bareiss), so the division is
    exact.  When the pivot is 0 a nonzero diagonal entry is swapped in; when
    every remaining diagonal entry is 0, the classical completion step adds
    row and column c to row and column r for some a_rc != 0, which makes the
    diagonal entry 2 a_rc.  Both are congruences of the remaining block, and
    they leave the leading block alone, so the division stays exact.  A zero
    remaining block counts as the zero part.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = zero = 0
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            k = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if k is None:
                pair = next(((r, c) for r in range(i, n) for c in range(r + 1, n)
                             if a[r][c] != 0), None)
                if pair is None:
                    zero += n - i
                    break
                k, c = pair
                for row in a:
                    row[k] += row[c]
                a[k] = [x + y for x, y in zip(a[k], a[c])]
            if k != i:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        col = [a[r][i] for r in range(n)]
        if d < 0:
            d, col = -d, [-x for x in col]
        for r in range(i + 1, n):
            ar, cr = a[r], col[r]
            for c in range(i + 1, n):
                ar[c] = (d * ar[c] - cr * a[i][c]) // prev
        prev = d
    return pos, neg, zero
