"""Reducibility verdicts, certificates, and orthogonal splittings."""
import json
import random

import pytest

from delpezzo import (
    IRREDUCIBLE,
    REDUCIBLE,
    UNKNOWN,
    InputError,
    ReducibilityCertificate,
    check_reducible,
    classify_involutions,
    decompose,
    identity_isometry,
    negation_twist,
)
from delpezzo import criteria
from delpezzo import irreducibility
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.criteria import DEFAULT_HEIGHT_BOUND
from delpezzo.irreducibility import _decompose_in_basis
from delpezzo.lattice import (
    Sublattice,
    del_pezzo_lattice,
    is_even,
    signature,
)
from delpezzo.weyl import canonical_class, reflection, wall_generators

IRREDUCIBLE_LABELS = {2: [], 3: [], 4: [], 5: ["m4"], 6: [],
                      7: ["m6", "m7"], 8: ["m8"]}


def test_irreducible_labels_small_n():
    for n in (2, 3, 4, 5, 6):
        got = [c.label for c in classify_involutions(n)
               if check_reducible(c.representative, n).status == IRREDUCIBLE]
        assert got == IRREDUCIBLE_LABELS[n]


def test_fixed_norm_plus1_witness_checks_out():
    cls = classify_involutions(3)[0]
    v = check_reducible(cls.representative, 3)
    assert v.status == REDUCIBLE
    cert = v.certificate
    assert cert.kind == "FixedNormPlus1"
    lat = del_pezzo_lattice(3)
    w = lat.vector(cert.witnesses[0])
    assert w.norm() == 1 and cls.representative.apply(w) == w


def test_all_witness_vectors_satisfy_their_defining_equations():
    for n in (3, 5, 7):
        lat = del_pezzo_lattice(n)
        for cls in classify_involutions(n):
            v = check_reducible(cls.representative, n)
            if v.certificate is None or not v.certificate.witnesses:
                continue
            g = cls.representative
            ws = [lat.vector(c) for c in v.certificate.witnesses]
            kind = v.certificate.kind
            if kind == "FixedNormPlus1":
                (w,) = ws
                assert w.norm() == 1 and g.apply(w) == w
            elif kind == "FixedNormMinus1":
                (w,) = ws
                assert w.norm() == -1 and g.apply(w) == w
            elif kind == "FixedHyperbolicPair":
                a, b = ws
                assert a.norm() == 0 and b.norm() == 0 and a.dot(b) == 1
                assert g.apply(a) == a and g.apply(b) == b
            elif kind == "SwappedOrFixedMinus1Pair":
                a, b = ws
                assert a.norm() == -1 and b.norm() == -1 and a.dot(b) == 0
                assert g.apply(a) == b and g.apply(b) == a
            elif kind == "AntiFixedNormMinus1":
                (w,) = ws
                assert w.norm() == -1 and g.apply(w) == -w


def test_certificates_survive_json_round_trip():
    for n in range(2, 8):
        for cls in classify_involutions(n):
            v = check_reducible(cls.representative, n)
            blob = json.dumps(v.to_json())
            cert = ReducibilityCertificate.from_json(
                json.loads(blob)["certificate"])
            assert cert.verify(cls.representative)


def test_tampered_certificate_fails_verification():
    cls = classify_involutions(3)[0]
    v = check_reducible(cls.representative, 3)
    bad = ReducibilityCertificate(
        kind=v.certificate.kind,
        witnesses=((9, 9, 9, 9),),
        narrative=v.certificate.narrative,
    )
    assert not bad.verify(cls.representative)


def test_certificate_from_json_takes_json_integers_only():
    # a float witness used to be truncated: [1.7, 0.7, ...] read as [1, 0, ...]
    # verified as the FixedNormPlus1 witness of 4 m1
    cls = classify_involutions(4)[0]
    blob = check_reducible(cls.representative, 4).certificate.to_json()
    assert blob["kind"] == "FixedNormPlus1"
    assert ReducibilityCertificate.from_json(blob).verify(cls.representative)
    for witnesses in ([[1.7, 0.7, 0.7, 0.7, 0.7]], [[1.0, 0, 0, 0, 0]], [["1", 0, 0, 0, 0]],
                      [[True, 0, 0, 0, 0]], [[1, None, 0, 0, 0]], [(1, 0, 0, 0, 0)],
                      [1, 0, 0, 0, 0], "[[1, 0, 0, 0, 0]]", None):
        with pytest.raises(InputError):
            ReducibilityCertificate.from_json(dict(blob, witnesses=witnesses))
    for field in ("kind", "witnesses", "narrative"):
        with pytest.raises(InputError):
            ReducibilityCertificate.from_json({k: v for k, v in blob.items() if k != field})
        with pytest.raises(InputError):
            ReducibilityCertificate.from_json(dict(blob, **{field: 1}))
    with pytest.raises(InputError):
        ReducibilityCertificate.from_json([blob])


def test_negation_twist_preserves_verdict():
    for n in (3, 5, 7):
        for cls in classify_involutions(n):
            g = cls.representative
            assert (check_reducible(g, n, height_bound=2).status
                    == check_reducible(negation_twist(g), n, height_bound=2).status)


def test_check_reducible_accepts_non_k_fixing_involutions():
    # -g never fixes K, yet the verdict must be computable
    g = negation_twist(classify_involutions(4)[0].representative)
    assert g.apply(canonical_class(4)) != canonical_class(4)
    assert check_reducible(g, 4).status in (REDUCIBLE, IRREDUCIBLE)


def test_check_reducible_rejects_non_involutions():
    lat = del_pezzo_lattice(3)
    r1 = reflection(lat.vector((0, 1, -1, 0)))
    r2 = reflection(lat.vector((0, 0, 1, -1)))
    with pytest.raises(InputError):
        check_reducible(r1 @ r2, 3)  # order 3


@pytest.mark.parametrize("bound", [0, -1])
def test_height_bound_below_one_is_rejected(monkeypatch, bound):
    # an explicit bound is held to the DPZ_HEIGHT_BOUND contract; below 1 no
    # slab is searched, and 6 m4 (Reducible) would end in Unknown
    g = next(c for c in classify_involutions(6) if c.label == "m4").representative
    with pytest.raises(InputError, match="height bound must be positive"):
        check_reducible(g, 6, height_bound=bound)
    with pytest.raises(InputError, match="height bound must be positive"):
        decompose(g, 6, height_bound=bound)
    monkeypatch.setenv("DPZ_HEIGHT_BOUND", str(bound))
    with pytest.raises(InputError, match="DPZ_HEIGHT_BOUND must be positive"):
        check_reducible(g, 6)


def test_check_and_decompose_never_square_g(monkeypatch):
    # the kernels of g - 1 and g + 1 certify g^2 = 1, so neither entry point
    # squares g, on a K-fixing input or on a chamber conjugate
    from delpezzo.lattice import Isometry

    calls = []
    is_involution = Isometry.is_involution

    def counted(self):
        calls.append(self)
        return is_involution(self)

    monkeypatch.setattr(Isometry, "is_involution", counted)
    g = classify_involutions(5)[2].representative
    # the negation twist moves K, so both calls also work on a chamber conjugate
    for h in (g, negation_twist(g)):
        for run in (check_reducible, decompose):
            run(h, 5)
    assert calls == []
    lat = del_pezzo_lattice(3)
    r = reflection(lat.vector((0, 1, -1, 0))) @ reflection(lat.vector((0, 0, 1, -1)))
    # order 4 and moves K: the kernel test runs on its chamber conjugate
    s = reflection(lat.vector((0, 1, 0, 0))) @ reflection(lat.vector((0, 1, -1, 0)))
    for bad in (r, s, s.negated()):
        for run in (check_reducible, decompose):
            with pytest.raises(InputError, match="^not an involution$"):
                run(bad, 3)
    assert calls == []


def test_decompose_identity_peels_to_a_point():
    # n = 1 is decomposed as written, with no chamber reduction; at n = 9
    # K^2 = 0, so K cannot anchor the fixed side
    for n in (1, 2, 3, 4, 9):
        d = decompose(identity_isometry(del_pezzo_lattice(n)))
        assert [s.action for s in d.steps] == ["fix"] * n
        assert d.leaf.lattice_type == "point"
        assert d.leaf.verdict == IRREDUCIBLE


def _peeled_eigen_data(monkeypatch, g, n):
    """The decomposition, and each EigenData decompose splits on with the
    blocks peeled before it."""
    seen = []   # [data, blocks peeled before it]
    peeled = []

    def recording(route):
        def run(data, bound):
            if not seen or seen[-1][0] is not data:
                seen.append([data, list(peeled)])
            res = route(data, bound)
            if res.status == criteria.WITNESS:
                peeled.extend(res.witnesses)
            return res
        return run

    for name in ("route_c", "route_d", "route_e"):
        monkeypatch.setattr(criteria, name, recording(getattr(criteria, name)))
    d = decompose(g, n)
    monkeypatch.undo()
    return d, seen


def test_peeled_sides_are_the_eigenlattices_of_the_complement(monkeypatch):
    # each side is old side & B^perp; the reference solves (g -+ 1) x = 0 and
    # b . x = 0 for every peeled b in one kernel of the stacked rows
    rng = random.Random(1616)
    for n in range(3, 9):
        lat = del_pezzo_lattice(n)
        gens = wall_generators(n).isometries()
        for cls in classify_involutions(n):
            h = identity_isometry(lat)
            for _ in range(12):
                h = h @ rng.choice(gens)
            for g in (cls.representative, h @ cls.representative @ h.inverse()):
                d, seen = _peeled_eigen_data(monkeypatch, g, n)
                assert len(seen) == len(d.steps) + 1
                for data, peeled in seen:
                    jb = [xl.mat_vec(lat.gram, b.coords) for b in peeled]
                    for sign, side in ((1, data.plus), (-1, data.minus)):
                        assert side.sub.saturated
                        rows = xl.mat_add_scaled_identity(data.g.matrix, -sign) + jb
                        ref = xl.kernel(rows)
                        assert side.sub.rank == len(ref), (n, cls.label)
                        mine = [v.coords for v in side.sub.basis]
                        if ref:
                            ref_cols = xl.transpose(ref)
                            mine_cols = xl.transpose(mine)
                            assert all(xl.solve_integer(ref_cols, v) is not None
                                       for v in mine), (n, cls.label)
                            assert all(xl.solve_integer(mine_cols, v) is not None
                                       for v in ref), (n, cls.label)


def test_narrowed_sides_are_handed_their_signature(monkeypatch):
    # a split block B is negative definite and g-invariant, so side & B^perp
    # keeps the side's positive inertia: _narrow hands _side its signature,
    # which must be the one sylvester_signature finds.  Each split narrows
    # both sides; a side orthogonal to B is kept as it is, and every other
    # one is rebuilt and gets a signature
    handed = []
    side = criteria._side

    def checked(sub, preferred=None, signature=None):
        if signature is not None:
            assert xl.sylvester_signature(sub.gram()) == signature + (0,)
            handed.append(signature)
        return side(sub, preferred, signature)

    kept = []   # per narrowed side: whether _narrow kept it
    narrow = irreducibility._narrow

    def recorded(old, block):
        new = narrow(old, block)
        touched = any(b.dot(v) for b in block for v in old.sub.basis)
        assert (new is old) == (not touched)
        kept.append(new is old)
        return new

    monkeypatch.setattr(criteria, "_side", checked)
    monkeypatch.setattr(irreducibility, "_narrow", recorded)
    rng = random.Random(2323)
    splits = 0
    for n in range(3, 9):
        gens = wall_generators(n).isometries()
        for cls in classify_involutions(n):
            h = identity_isometry(del_pezzo_lattice(n))
            for _ in range(12):
                h = h @ rng.choice(gens)
            for g in (cls.representative, h @ cls.representative @ h.inverse()):
                before, narrowed = len(handed), len(kept)
                steps = len(decompose(g, n).steps)
                assert len(kept) - narrowed == 2 * steps
                assert len(handed) - before >= kept[narrowed:].count(False) >= steps
                splits += steps
    assert splits > 100 and 0 < kept.count(True) < len(kept)


def test_decompose_blocks_are_orthogonal_and_norm_minus_one():
    for n in (3, 5, 7):
        lat = del_pezzo_lattice(n)
        for cls in classify_involutions(n):
            g = cls.representative
            d = decompose(g, n)
            peeled = []
            for step in d.steps:
                vs = [lat.vector(c) for c in step.basis]
                for v in vs:
                    assert v.norm() == -1
                    for w in peeled:
                        assert v.dot(w) == 0
                if step.action == "fix":
                    assert g.apply(vs[0]) == vs[0]
                elif step.action == "negate":
                    assert g.apply(vs[0]) == -vs[0]
                else:
                    a, b = vs
                    assert a.dot(b) == 0
                    assert g.apply(a) == b and g.apply(b) == a
                peeled.extend(vs)
            leaf_vs = [lat.vector(c) for c in d.leaf.basis]
            for v in leaf_vs:
                for w in peeled:
                    assert v.dot(w) == 0
            # ranks add up to the ambient rank
            assert len(peeled) + len(leaf_vs) == n + 1


def test_decompose_leaf_restriction_is_an_involution():
    for n in (5, 7):
        lat = del_pezzo_lattice(n)
        cls = classify_involutions(n)[1]
        d = decompose(cls.representative, n)
        r = len(d.leaf.basis)
        if r == 0:
            return
        m = [list(row) for row in d.leaf.matrix]
        sq = [[sum(m[i][k] * m[k][j] for k in range(r)) for j in range(r)]
              for i in range(r)]
        assert sq == [[1 if i == j else 0 for j in range(r)] for i in range(r)]


def test_decompose_irreducible_models_do_not_split():
    from delpezzo.models import bertini, geiser
    for nm in (geiser(), bertini()):
        d = decompose(nm.isometry, nm.n)
        assert d.steps == ()
        assert d.leaf.verdict == IRREDUCIBLE


def test_decomposition_json():
    d = decompose(identity_isometry(del_pezzo_lattice(2)))
    blob = json.dumps(d.to_json())
    loaded = json.loads(blob)
    assert loaded["leaf"]["lattice_type"] == "point"
    assert len(loaded["steps"]) == 2


def _skewed_conjugates():
    """Three O(M_n)-conjugates of every catalog representative, n = 3..6.

    The conjugating words in the wall reflections include odd reflections,
    so K moves and the eigenlattices come in skewed bases.
    """
    rng = random.Random(2202)
    out = []
    for n in range(3, 7):
        lat = del_pezzo_lattice(n)
        gens = wall_generators(n).isometries()
        for cls in classify_involutions(n):
            for _ in range(3):
                h = identity_isometry(lat)
                for _ in range(12):
                    h = h @ rng.choice(gens)
                out.append((n, h @ cls.representative @ h.inverse()))
    return out


def _leaf_eigenparts(d, lat):
    """(+1)- and (-1)-eigenlattices of the leaf involution, as sublattices."""
    leaf = Sublattice(lat, tuple(lat.vector(c) for c in d.leaf.basis))
    m = [list(row) for row in d.leaf.matrix]
    parts = []
    for sign in (1, -1):
        eig = xl.kernel(xl.mat_add_scaled_identity(m, -sign)) if m else []
        parts.append(Sublattice(lat, tuple(leaf.from_coords(e) for e in eig)))
    return parts


def _has_congruent_root(definite, other):
    """Whether a root of the definite part is = a vector of the other mod 2."""
    if definite.rank == 0:
        return False
    gram = definite.gram()
    if gram[0][0] > 0:
        return False
    other_basis = [[v.coords[i] % 2 for v in other.basis]
                   for i in range(definite.ambient.rank)]
    return any(xl.f2_solvable(other_basis, [x % 2 for x in definite.from_coords(c).coords])
               for c in en.definite_vectors([[-x for x in r] for r in gram], 2))


def test_leaf_verdict_on_skewed_bases():
    # decompose reduces every input to its chamber conjugate first, and then
    # no leaf stays Unknown; the leaf rule is checked on the bases as given
    verdicts = set()
    for n, g in _skewed_conjugates():
        d = _decompose_in_basis(g, DEFAULT_HEIGHT_BOUND)
        verdicts.add(d.leaf.verdict)
        parts = _leaf_eigenparts(d, g.lattice)
        kinds = []
        for part in parts:
            pos, neg, _ = signature(part)
            definite = pos == 0 or neg == 0
            kinds.append((part.rank == 0, definite, is_even(part)))
        plus, minus = parts
        if kinds[0][1] and kinds[1][1]:
            swap_closed = True
        elif kinds[1][1]:
            swap_closed = not _has_congruent_root(minus, plus)
        else:
            swap_closed = not _has_congruent_root(plus, minus)
        if d.leaf.verdict == IRREDUCIBLE:
            assert all(empty or definite or even for empty, definite, even in kinds)
            assert swap_closed
        else:
            assert d.leaf.verdict == UNKNOWN
            assert (any(not definite and not even for _, definite, even in kinds)
                    or not swap_closed)
    assert verdicts == {IRREDUCIBLE, UNKNOWN}
