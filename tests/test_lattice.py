"""Lattices, sublattices, isometries, and exact linear algebra."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delpezzo.enumeration as en
import delpezzo.exactlinalg as xl
from delpezzo import (
    InputError,
    Isometry,
    blowup_quadric_lattice,
    classify_involutions,
    del_pezzo_lattice,
    fixed_and_antifixed,
    identity_isometry,
    is_even,
    full_sublattice,
    orthogonal_complement,
    quadric_lattice,
    signature,
    span,
)
from delpezzo.lattice import Lattice, Sublattice
from delpezzo.weyl import canonical_class, reflection, wall_generators


def test_del_pezzo_gram_is_diagonal_one_minus_ones():
    for n in range(0, 10):
        lat = del_pezzo_lattice(n)
        assert lat.rank == n + 1
        for i in range(n + 1):
            for j in range(n + 1):
                expect = (1 if i == 0 else -1) if i == j else 0
                assert lat.gram[i][j] == expect
        assert signature(full_sublattice(lat)) == (1, n, 0)


def test_canonical_class_square_is_nine_minus_n():
    for n in range(0, 9):
        k = canonical_class(n)
        assert k.norm() == 9 - n
        assert k.coords == (-3,) + (1,) * n


def test_quadric_lattice_is_even_hyperbolic():
    lat = quadric_lattice()
    assert lat.gram == ((0, 1), (1, 0))
    assert signature(full_sublattice(lat)) == (1, 1, 0)
    assert is_even(span(lat, (lat.basis_vector(0), lat.basis_vector(1))))


def test_blowup_quadric_lattice_gram():
    lat = blowup_quadric_lattice(4)
    assert lat.rank == 5
    assert lat.gram[0][1] == 1 and lat.gram[0][0] == 0 and lat.gram[1][1] == 0
    for i in range(2, 5):
        assert lat.gram[i][i] == -1


def test_inner_symmetry_and_bilinearity():
    lat = del_pezzo_lattice(4)
    u = lat.vector((1, 2, -1, 0, 3))
    v = lat.vector((0, 1, 1, -2, 1))
    w = lat.vector((2, 0, 0, 1, -1))
    assert u.dot(v) == v.dot(u)
    assert (u + w).dot(v) == u.dot(v) + w.dot(v)
    assert (3 * u).dot(v) == 3 * u.dot(v)


def test_inner_rejects_foreign_vectors():
    u = del_pezzo_lattice(2).vector((1, 0, 0))
    v = del_pezzo_lattice(3).vector((1, 0, 0, 0))
    with pytest.raises(InputError):
        u.dot(v)


def test_isometry_constructor_validates_form_preservation():
    lat = del_pezzo_lattice(2)
    with pytest.raises(InputError):
        Isometry(lat, ((1, 0, 0), (0, 1, 1), (0, 0, 1)))


def _preserves_form(lat, matrix):
    """The generic check g^T G g = G, by two full matrix products."""
    gram = [list(r) for r in lat.gram]
    m = [list(r) for r in matrix]
    return xl.mat_eq(xl.mat_mul(xl.mat_mul(xl.transpose(m), gram), m), gram)


@pytest.mark.parametrize("n", range(2, 9))
def test_isometry_accepts_what_the_generic_product_accepts(n):
    # wall-word products, each also with one entry perturbed by +-1
    rng = random.Random(1800 + n)
    lat = del_pezzo_lattice(n)
    walls = wall_generators(n).isometries()
    verdicts = set()
    for _ in range(30):
        g = identity_isometry(lat)
        for _ in range(rng.randrange(0, 12)):
            g = g @ rng.choice(walls)
        bad = [list(r) for r in g.matrix]
        bad[rng.randrange(n + 1)][rng.randrange(n + 1)] += rng.choice((-1, 1))
        for matrix in (g.matrix, tuple(tuple(r) for r in bad)):
            want = _preserves_form(lat, matrix)
            try:
                Isometry(lat, matrix)
                got = True
            except InputError:
                got = False
            assert got == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_isometry_of_a_degenerate_form_must_be_unimodular():
    # g^T G g = G holds for any g when G = 0, so the determinant decides
    lat = Lattice(((0,),), ("x",))
    assert Isometry(lat, ((-1,),)).matrix == ((-1,),)
    with pytest.raises(InputError, match="matrix is not unimodular"):
        Isometry(lat, ((2,),))


@pytest.mark.parametrize("lat", [del_pezzo_lattice(6), blowup_quadric_lattice(6)],
                         ids=["diagonal", "quadric"])
def test_sublattice_gram_matches_the_generic_product(lat):
    rng = random.Random(1801)
    for _ in range(40):
        k = rng.randrange(0, lat.rank + 2)
        basis = tuple(lat.vector([rng.randrange(-3, 4) for _ in range(lat.rank)])
                      for _ in range(k))
        sub = Sublattice(lat, basis)
        b = [list(r) for r in sub.basis_matrix()]
        want = xl.mat_mul(xl.mat_mul(xl.transpose(b), [list(r) for r in lat.gram]), b)
        assert sub.gram() == tuple(tuple(r) for r in want)


def test_reflection_preserves_form_and_squares_to_identity():
    lat = del_pezzo_lattice(3)
    r = reflection(lat.vector((0, 1, -1, 0)))
    assert r.is_involution()
    assert (r @ r).is_identity()
    k = canonical_class(3)
    assert r.apply(k) == k


def test_orthogonal_complement_of_canonical_class():
    for n in range(2, 7):
        lat = del_pezzo_lattice(n)
        kperp = orthogonal_complement(span(lat, (canonical_class(n),)))
        assert kperp.rank == n
        k = canonical_class(n)
        for b in kperp.basis:
            assert b.dot(k) == 0


def test_fixed_and_antifixed_split_ranks():
    lat = del_pezzo_lattice(4)
    r = reflection(lat.vector((0, 1, -1, 0, 0)))
    plus, minus = fixed_and_antifixed(r)
    assert plus.rank == 4 and minus.rank == 1
    assert minus.gram() == ((-2,),)


def test_fixed_and_antifixed_rejects_non_involutions():
    lat = del_pezzo_lattice(3)
    # two roots at angle 2pi/3: order 3
    order3 = reflection(lat.vector((0, 1, -1, 0))) @ reflection(lat.vector((0, 0, 1, -1)))
    # E1 and H - E1 - E2 span a degenerate plane, (E1 + H - E1 - E2)^2 = 0:
    # the mirrors are parallel and the product has infinite order
    parabolic = reflection(lat.vector((0, 1, 0, 0))) @ reflection(lat.vector((1, -1, -1, 0)))
    for g in (order3, parabolic):
        assert not g.is_involution()
        ranks = [len(xl.kernel(xl.mat_add_scaled_identity(g.matrix, s))) for s in (-1, 1)]
        assert ranks == [2, 0]
        with pytest.raises(InputError, match="^fixed_and_antifixed expects an involution$"):
            fixed_and_antifixed(g)
    power = parabolic.matrix
    for _ in range(12):
        power = xl.mat_mul(power, parabolic.matrix)
        assert power != xl.identity(4)


def test_short_vectors_rejects_indefinite_and_degenerate_sublattices():
    # the sublattice search lifts with the basis rows, as the eigenlattice
    # search does; an indefinite or degenerate form is refused either way
    lat = del_pezzo_lattice(3)
    for basis in (((1, 0, 0, 0), (0, 1, 0, 0)),     # <1> + <-1>
                  ((1, 1, 0, 0),)):                  # isotropic line
        sub = span(lat, tuple(lat.vector(b) for b in basis))
        for target in (-1, 1):
            with pytest.raises(InputError):
                en.definite_vectors(sub.gram(), target, sub._rows)


def test_sublattice_determinant_and_from_coords():
    lat = del_pezzo_lattice(2)
    sub = span(lat, (lat.vector((0, 1, -1)), lat.vector((0, 1, 1))))
    assert abs(sub.determinant()) == 4
    v = sub.from_coords((1, 1))
    assert v.coords == (0, 2, 0)
    assert sub.coords_of(v) == (1, 1)


def test_identity_isometry_fixes_everything():
    lat = del_pezzo_lattice(5)
    g = identity_isometry(lat)
    assert g.is_identity() and g.is_involution()
    plus, minus = fixed_and_antifixed(g)
    assert plus.rank == 6 and minus.rank == 0


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bareiss_determinant_matches_cofactor_expansion(m):
    def cof_det(a):
        if len(a) == 1:
            return a[0][0]
        return sum((-1) ** j * a[0][j] *
                   cof_det([row[:j] + row[j + 1:] for row in a[1:]])
                   for j in range(len(a)))
    assert xl.det(m) == cof_det(m)


@st.composite
def _matrix_and_vector(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return a, draw(st.lists(entry, min_size=cols, max_size=cols))


@given(_matrix_and_vector())
@settings(max_examples=80, deadline=None)
def test_hnf_columns_is_a_column_echelon_form(case):
    # a u = h with u unimodular, positive pivots, every column past a pivot
    # zero in the pivot's row and every row above it, columns past the last
    # pivot zero, and along's coordinates y with u y = along
    a, x = case
    h, u, pivots, y = xl.hnf_columns(a, x)
    assert (h, u, pivots) == xl.hnf_columns(a)
    assert xl.mat_mul(a, u) == h and abs(xl.det(u)) == 1
    assert xl.mat_vec(u, y) == x
    assert [c for _, c in pivots] == list(range(len(pivots)))
    assert [r for r, _ in pivots] == sorted(set(r for r, _ in pivots))
    for r, c in pivots:
        assert h[r][c] > 0
        assert all(h[i][j] == 0 for i in range(r + 1) for j in range(c + 1, len(u)))
    assert all(row[j] == 0 for row in h for j in range(len(pivots), len(u)))


def _reference_hnf(a, x):
    """The column Hermite loop exactlinalg._hnf replaced, kept as its oracle:
    a list of the live columns and a keyed min per Euclid step, then one
    column operation at a time over the rows from the current one on and
    those of u."""
    def axpy(m, dst, src, factor):
        for row in m:
            row[dst] += factor * row[src]

    def swap(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def negate(m, i):
        for row in m:
            row[i] = -row[i]

    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h = [list(row) for row in a]
    u = xl.identity(ncols)
    y = None if x is None else list(x)
    pivots = []
    col = 0
    for row in range(nrows):
        if col >= ncols:
            break
        rows = h[row:] + u
        hr = h[row]
        while True:
            live = [j for j in range(col, ncols) if hr[j] != 0]
            if not live:
                break
            j0 = min(live, key=lambda j: (abs(hr[j]), j))
            if j0 != col:
                swap(rows, col, j0)
                if y is not None:
                    y[col], y[j0] = y[j0], y[col]
            if hr[col] < 0:
                negate(rows, col)
                if y is not None:
                    y[col] = -y[col]
            clean = True
            for j in range(col + 1, ncols):
                if hr[j] != 0:
                    q = hr[j] // hr[col]
                    axpy(rows, j, col, -q)
                    if y is not None:
                        y[col] += q * y[j]
                    if hr[j] != 0:
                        clean = False
            if clean:
                pivots.append((row, col))
                col += 1
                break
    return h, u, pivots, y


@st.composite
def _hnf_inputs(draw):
    """A matrix of 0..11 rows and 0..11 columns with entries in -3..3, a few
    of them replaced by large ones, and a vector of its column count."""
    rows, cols = draw(st.integers(0, 11)), draw(st.integers(0, 11))
    entry = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows and cols:
        big = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                        st.integers(-10 ** 12, 10 ** 12))
        for i, j, v in draw(st.lists(big, max_size=3)):
            a[i][j] = v
    return a, draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=cols, max_size=cols))


@given(_hnf_inputs())
@settings(max_examples=200, deadline=None)
def test_hnf_and_kernel_match_the_reference_loop(case):
    # the in-place loop returns exactly what the old one did: (h, u, pivots)
    # and u^-1 along, and hence the same kernel basis and coordinates
    a, x = case
    h, u, pivots, y = _reference_hnf(a, x)
    assert xl.hnf_columns(a) == (h, u, pivots)
    assert xl.hnf_columns(a, x) == (h, u, pivots, y)
    if a and a[0]:
        rank = len(pivots)
        basis = [[row[j] for row in u] for j in range(rank, len(u))]
        coords = None if any(y[:rank]) else tuple(y[rank:])
        assert xl.kernel(a) == basis
        assert xl.kernel(a, x) == (basis, coords)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for col in xl.kernel(m):
        assert all(sum(m[i][j] * col[j] for j in range(2)) == 0
                   for i in range(2))


@given(st.integers(1, 5), st.integers(0, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_carries_coordinates_along(rows, cols, rnd):
    a = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    basis = xl.kernel(a)
    # a kernel vector, or one pushed off the kernel when there is room
    x = [sum(rnd.randint(-2, 2) * b[i] for b in basis) for i in range(cols)]
    if basis and rnd.random() < 0.3:
        x[rnd.randrange(cols)] += 1
    got, coords = xl.kernel(a, x)
    assert got == basis
    if any(sum(r * y for r, y in zip(row, x)) for row in a):
        assert coords is None
    else:
        assert coords is not None and len(coords) == len(basis)
        assert [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(cols)] == x


def test_fixed_side_coordinates_of_k_match_coords_of():
    # the kernel reduction of g - 1 gives K's fixed-side coordinates, as a
    # fresh Hermite solve in the fixed basis does, on the catalog and on
    # O(M_n) conjugates by 12-wall words, which need not fix K
    rng = random.Random(4040)
    seen = {True: 0, False: 0}
    for n in range(2, 9):
        k = canonical_class(n)
        walls = wall_generators(n).isometries()
        for cls in classify_involutions(n):
            gs = [cls.representative]
            for _ in range(3):
                h = identity_isometry(k.lattice)
                for _ in range(12):
                    h = h @ rng.choice(walls)
                gs.append(h @ cls.representative @ h.inverse())
            for g in gs:
                plus, minus, coords = fixed_and_antifixed(g, k)
                assert (plus, minus) == fixed_and_antifixed(g)
                assert coords == plus.coords_of(k)
                seen[coords is not None] += 1
    assert seen[True] > 33 and seen[False] > 20


def test_sylvester_signature_on_known_forms():
    assert xl.sylvester_signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert xl.sylvester_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert xl.sylvester_signature([[2, 0, 0], [0, -2, 0], [0, 0, 0]]) == (1, 1, 1)
    u_u = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert xl.sylvester_signature(u_u) == (2, 2, 0)
    assert xl.sylvester_signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == (1, 1, 1)
    assert xl.sylvester_signature([[0] * 3 for _ in range(3)]) == (0, 0, 3)
    assert xl.sylvester_signature([]) == (0, 0, 0)


def _fraction_signature(gram):
    """Reference: symmetric Gaussian congruence over Fraction, with the
    off-diagonal completion step when every remaining diagonal entry is 0."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    i = 0
    while i < n:
        if a[i][i] == 0:
            k = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if k is not None:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
            else:
                pair = next(((r, c) for r in range(i, n) for c in range(r + 1, n)
                             if a[r][c] != 0), None)
                if pair is None:
                    zero += n - i
                    break
                r, c = pair
                for j in range(n):
                    a[r][j] += a[c][j]
                for j in range(n):
                    a[j][r] += a[j][c]
                if r != i:
                    a[i], a[r] = a[r], a[i]
                    for row in a:
                        row[i], row[r] = row[r], row[i]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / d
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
        for c in range(i + 1, n):
            a[i][c] = Fraction(0)
            a[c][i] = Fraction(0)
        i += 1
    return pos, neg, zero


def _direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(b)] = row
        k += len(b)
    return out


U = [[0, 1], [1, 0]]


def test_sylvester_signature_matches_fraction_reference_on_zero_diagonal_forms():
    forms = [
        _direct_sum(U, U),
        _direct_sum(U, [[0]]),
        _direct_sum([[0]], U, [[0]]),
        _direct_sum(U, U, U),
        _direct_sum([[0, 2], [2, 0]], [[0, 3], [3, 0]]),
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[0, 2, -1, 0], [2, 0, 0, 3], [-1, 0, 0, 1], [0, 3, 1, 0]],
    ]
    for gram in forms:
        assert all(gram[i][i] == 0 for i in range(len(gram)))
        assert xl.sylvester_signature(gram) == _fraction_signature(gram)
    assert xl.sylvester_signature(forms[0]) == (2, 2, 0)
    assert xl.sylvester_signature(forms[1]) == (1, 1, 1)
    # a zero pivot after a nonzero one, on a degenerate form
    gram = _direct_sum([[-2]], U, [[0]], U)
    assert xl.sylvester_signature(gram) == _fraction_signature(gram) == (2, 3, 1)


def test_sylvester_signature_matches_fraction_reference_on_eigen_sides():
    for n in range(2, 9):
        lat = del_pezzo_lattice(n)
        assert xl.sylvester_signature(lat.gram) == _fraction_signature(lat.gram)
        # products of reflections in the orthogonal roots E1-E2, E3-E4, ...
        g = identity_isometry(lat)
        for k in range(1, n, 2):
            g = g @ reflection(lat.vector([0] * k + [1, -1] + [0] * (n - k - 1)))
            for h in (g, g.negated()):
                for side in fixed_and_antifixed(h):
                    gram = side.gram()
                    assert xl.sylvester_signature(gram) == _fraction_signature(gram)


@st.composite
def _symmetric_forms(draw):
    """Symmetric integer matrices of size 1..7: A^T D A with a square A
    (often singular, so degenerate forms come up) or raw symmetric entries,
    diagonals often 0."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        a = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
        d = draw(st.lists(st.sampled_from((-2, -1, 0, 0, 1, 2)), min_size=n, max_size=n))
        return [[sum(a[r][i] * d[r] * a[r][j] for r in range(n)) for j in range(n)]
                for i in range(n)]
    upper = [draw(st.lists(st.sampled_from((-3, -1, 0, 0, 0, 1, 2)), min_size=n - i,
                           max_size=n - i)) for i in range(n)]
    return [[upper[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]


@given(_symmetric_forms())
@settings(max_examples=200, deadline=None)
def test_sylvester_signature_matches_fraction_reference(gram):
    pos, neg, zero = xl.sylvester_signature(gram)
    assert (pos, neg, zero) == _fraction_signature(gram)
    assert pos + neg + zero == len(gram)
    assert zero == len(gram) - xl.rational_rank(gram)


def test_inverse_roundtrip():
    m = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
    inv = xl.inverse(m)
    prod = xl.mat_mul(m, inv)
    assert all(prod[i][j] == (1 if i == j else 0)
               for i in range(3) for j in range(3))


def test_products_inverses_and_negations_pass_the_full_check():
    # they skip the form and determinant check; rebuilding them must pass it
    quadric = blowup_quadric_lattice(4)
    cases = (
        (del_pezzo_lattice(5), [(1, 1, 1, 1, 0, 0), (0, 1, -1, 0, 0, 0), (0, 0, 0, 0, 0, 1)]),
        (quadric, [(1, -1, 0, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 0, 1), (1, 0, -1, 0, 0)]),
    )
    for lat, vecs in cases:
        g = identity_isometry(lat)
        for v in vecs:
            g = g @ reflection(lat.vector(v))
        assert not g.is_identity()
        for h in (g, g.inverse(), g.negated()):
            assert Isometry(lat, h.matrix) == h
        assert (g @ g.inverse()).is_identity() and (g.inverse() @ g).is_identity()
