"""Named involutions, custom conic-bundle models, and signature defects."""
import pytest

from delpezzo import (
    InputError,
    bertini,
    bertini_roots,
    de_jonquieres,
    de_jonquieres_model,
    defect_sum,
    find_class,
    geiser,
    geiser_roots,
    quadric_basis_change,
    quotient_signature,
    zg_invariant,
)
from delpezzo import exactlinalg as xl
from delpezzo.lattice import blowup_quadric_lattice, del_pezzo_lattice, fixed_and_antifixed
from delpezzo.weyl import canonical_class, product_of_reflections


def test_de_jonquieres_is_a_k_fixing_involution():
    for n in (5, 7):
        nm = de_jonquieres(n)
        g = nm.isometry
        assert g.is_involution()
        assert g.apply(canonical_class(n)) == canonical_class(n)
        assert nm.degree == (n + 1) // 2


def test_de_jonquieres_requires_odd_n():
    with pytest.raises(InputError):
        de_jonquieres(6)


def test_geiser_equals_reflection_product_over_its_roots():
    assert geiser().isometry.matrix == \
        product_of_reflections(geiser_roots()).matrix


def test_bertini_equals_reflection_product_over_its_roots():
    assert bertini().isometry.matrix == \
        product_of_reflections(bertini_roots()).matrix


def test_geiser_acts_as_minus_one_on_k_perp():
    g = geiser().isometry
    k = canonical_class(7)
    assert g.apply(k) == k
    lat = del_pezzo_lattice(7)
    for i in range(8):
        v = lat.basis_vector(i)
        w = (9 - 7) * v - v.dot(k) * k  # projection scaled into K-perp
        assert g.apply(w) == -w


def test_named_models_land_in_the_irreducible_classes():
    assert find_class(de_jonquieres(5).isometry, 5).label == "m4"
    assert find_class(de_jonquieres(7).isometry, 7).label == "m6"
    assert find_class(geiser().isometry, 7).label == "m7"
    assert find_class(bertini().isometry, 8).label == "m8"


def test_de_jonquieres_model_from_explicit_conic_data():
    # C = H - E1 is a conic class; v_k = E_{2k}, E_{2k+1} pairs collapse to
    # the canonical construction on M_5
    lat = del_pezzo_lattice(5)
    C = lat.vector((1, -1, 0, 0, 0, 0))
    vs = (lat.basis_vector(2), lat.basis_vector(3),
          lat.basis_vector(4), lat.basis_vector(5))
    g = de_jonquieres_model(C, vs)
    assert g.is_involution()
    assert g.apply(C) == C
    for v in vs:
        assert g.apply(v) == C - v
    assert g.apply(canonical_class(5)) == canonical_class(5)


def test_de_jonquieres_model_validates_conic_class():
    lat = del_pezzo_lattice(5)
    bad_C = lat.vector((1, 0, 0, 0, 0, 0))  # norm 1, not isotropic
    vs = tuple(lat.basis_vector(i) for i in range(2, 6))
    with pytest.raises(InputError):
        de_jonquieres_model(bad_C, vs)


def _zg(g):
    zg = zg_invariant(g)
    return (zg.t, zg.c, zg.r)


def test_zg_invariants_of_named_models():
    assert _zg(de_jonquieres(5).isometry) == (0, 2, 2)
    assert _zg(de_jonquieres(7).isometry) == (0, 4, 2)
    assert _zg(geiser().isometry) == (0, 6, 1)
    assert _zg(bertini().isometry) == (1, 8, 0)


def test_quotient_signature_and_defect():
    g = geiser().isometry
    assert quotient_signature(g) == 1
    assert defect_sum(g) == 2 * 1 - (1 - 7)


def test_zg_and_quotient_signature_never_square_g(monkeypatch):
    # the eigen kernels certify g^2 = 1, so neither squares g, and an
    # isometry of order 3 fails their rank test with the one involution error
    from delpezzo.lattice import Isometry
    from delpezzo.weyl import reflection

    calls = []
    is_involution = Isometry.is_involution
    monkeypatch.setattr(Isometry, "is_involution",
                        lambda self: calls.append(self) or is_involution(self))
    g = geiser().isometry
    assert _zg(g) == (0, 6, 1) and quotient_signature(g) == 1
    lat = del_pezzo_lattice(3)
    order3 = reflection(lat.vector((0, 1, -1, 0))) @ reflection(lat.vector((0, 0, 1, -1)))
    for run in (zg_invariant, quotient_signature):
        with pytest.raises(InputError, match="^not an involution$"):
            run(order3)
    assert calls == []


def test_quadric_basis_change_intertwines_forms():
    for n in (2, 4, 6):
        change = quadric_basis_change(n)
        src = blowup_quadric_lattice(n)
        dst = del_pezzo_lattice(n)
        for i in range(src.rank):
            for j in range(src.rank):
                u = change.apply(src.basis_vector(i))
                v = change.apply(src.basis_vector(j))
                assert u.dot(v) == src.gram[i][j]
        assert change.source == src and change.target == dst


def test_quadric_basis_change_conjugation_round_trip():
    n = 3
    change = quadric_basis_change(n)
    src = blowup_quadric_lattice(n)
    from delpezzo.lattice import Isometry
    # swap S1 <-> S2, fix the exceptional directions
    m = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    g_q = Isometry(src, m)
    g = change.conjugate(g_q)
    assert g.lattice == del_pezzo_lattice(n)
    assert g.is_involution()


def test_bertini_fixed_lattice_is_spanned_by_k():
    g = bertini().isometry
    plus, minus = fixed_and_antifixed(g)
    assert plus.rank == 1 and minus.rank == 8
    assert plus.gram() == ((1,),)
    # the antifixed part is the even negative definite rank-8 lattice
    gram = minus.gram()
    assert all(gram[i][i] % 2 == 0 for i in range(8))
    assert abs(xl.det(gram)) == 1
