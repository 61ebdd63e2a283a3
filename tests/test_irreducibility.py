"""Reducibility verdicts, certificates, and orthogonal splittings."""
import json
import random
from functools import lru_cache

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
    invariant_of,
    negation_twist,
)
from delpezzo import criteria
from delpezzo import irreducibility
from delpezzo import enumeration as en
from delpezzo import exactlinalg as xl
from delpezzo.criteria import DEFAULT_HEIGHT_BOUND
from delpezzo.irreducibility import _decompose_in_basis
from delpezzo.lattice import (
    Isometry,
    LatticeVector,
    Sublattice,
    del_pezzo_lattice,
    is_even,
    signature,
)
from delpezzo import weyl
from delpezzo.weyl import (canonical_class, chamber_conjugate, normal_form, reflection,
                           wall_generators)

from conftest import (bench_inputs, canonical_generators, coords_of, decompose_pieces,
                      e_reflections, lift)

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


@pytest.mark.parametrize("bound", [True, 2.5, "3"])
def test_height_bound_that_is_not_an_int_is_rejected(bound):
    # a bound is a JSON integer (errors.is_json_int): True is no bound of 1,
    # and a float or a str is no bound at all
    g = next(c for c in classify_involutions(6) if c.label == "m4").representative
    with pytest.raises(InputError, match="height bound must be an integer"):
        check_reducible(g, 6, height_bound=bound)
    with pytest.raises(InputError, match="height bound must be an integer"):
        decompose(g, 6, height_bound=bound)


def test_check_and_decompose_never_square_g(monkeypatch):
    # neither entry point squares g, on a K-fixing input, on one decided as
    # its normal form w_I, or on a K-moving one split on its chamber
    # conjugate with box anchors: both certify g^2 = 1 on M_n by
    # Isometry.is_involution, which reads the symmetry of J g, before any
    # chamber step (irreducibility._k_fixing_conjugate).  A squaring is an
    # xl.mat_mul call of a matrix by itself
    squared = []
    mat_mul = xl.mat_mul

    def counted(a, b):
        if [list(r) for r in a] == [list(r) for r in b]:
            squared.append(a)
        return mat_mul(a, b)

    monkeypatch.setattr(xl, "mat_mul", counted)
    g = classify_involutions(5)[2].representative
    # the negation twist (g_00 < 0) and the reflections in E_1 and E_5 (whose
    # w_I moves K) take the chamber path with box anchors; the wall-word
    # conjugate's chamber conjugate moves K, and both entry points decide
    # it as its normal form w_I, which fixes K.  Both entry points draw the
    # normal form of the last three
    normal = _normal_form_input()
    normal_forms, boxed = [], []
    monkeypatch.setattr(weyl, "_normal_form", _counted(weyl._normal_form, normal_forms))
    find_anchor = criteria._find_anchor
    monkeypatch.setattr(criteria, "_find_anchor", lambda gram: (
        boxed.append(gram) or find_anchor(gram)))
    for h, n in [(g, 5), (negation_twist(g), 5), normal] + [(r, 5) for r in e_reflections(5)]:
        for run in (check_reducible, decompose):
            run(h, n)
    assert squared == [] and len(normal_forms) == 6 and boxed
    lat = del_pezzo_lattice(3)
    r = reflection(lat.vector((0, 1, -1, 0))) @ reflection(lat.vector((0, 0, 1, -1)))
    # order 4 and moves K: the kernel test runs on its chamber conjugate
    s = reflection(lat.vector((0, 1, 0, 0))) @ reflection(lat.vector((0, 1, -1, 0)))
    # not an involution, g_00 > 0, and its chamber conjugate moves K: a draw
    # of the normal form would pass the wall count on it, which
    # weyl._normal_form refuses; is_involution rejects it before any draw
    for bad in (r, s, s.negated(), _non_involution_a_draw_accepts()):
        for run in (check_reducible, decompose):
            with pytest.raises(InputError, match="^not an involution$"):
                run(bad, 3)
    # order 3 and fixes K, met once every n = 8 class is in the record
    for cls in classify_involutions(8):
        check_reducible(cls.representative, 8, 2)
    lat = del_pezzo_lattice(8)
    r = reflection(lat.vector((0, 0, 0, 0, 0, 0, 1, -1, 0))) @ reflection(
        lat.vector((0, 0, 0, 0, 0, 0, 0, 1, -1)))
    assert r.apply(canonical_class(8)) == canonical_class(8)
    for run in (check_reducible, decompose):
        with pytest.raises(InputError, match="^not an involution$"):
            run(r, 8, 2)
    # the test comes before the record is read: given the triple of m8,
    # whose routes all close, r would otherwise be Irreducible
    m8 = irreducibility._root_triple(classify_involutions(8)[-1].representative, 8)
    monkeypatch.setattr(irreducibility, "_root_triple", lambda g, n: m8)
    with pytest.raises(InputError, match="^not an involution$"):
        check_reducible(r, 8, 2)
    assert squared == []


def _non_involution_a_draw_accepts():
    """The n = 3 isometry, not an involution, with g_00 > 0 and a chamber
    conjugate that moves K, on which the first normal-form draw would pass
    the wall count (I = {E1 - E2}) and give a conjugate that moves K:
    weyl._normal_form tests the symmetry of J g' first and raises."""
    lat = del_pezzo_lattice(3)
    t = Isometry(lat, ((2, -1, 1, -1), (1, 0, 1, -1), (1, -1, 0, -1), (-1, 1, -1, 0)))
    with pytest.raises(InputError, match="^not an involution$"):
        weyl._normal_form(lat, *weyl._chamber(t))
    return t


def test_involution_test_runs_before_any_normal_form_draw(monkeypatch):
    # a normal-form draw may pass its acceptance test on a non-involution,
    # so the basis rule tests g^2 = 1 first, once, in both entry points:
    # on such a non-involution both raise with no draw made
    events = []
    is_involution, draw = Isometry.is_involution, weyl._normal_form
    monkeypatch.setattr(Isometry, "is_involution",
                        lambda self: events.append("is_involution") or is_involution(self))
    monkeypatch.setattr(weyl, "_normal_form",
                        lambda *args: events.append("_normal_form") or draw(*args))
    for run in (check_reducible, decompose):
        for h, n in (_normal_form_input(), (e_reflections(4)[1], 4)):
            events.clear()
            run(h, n)
            assert events[:2] == ["is_involution", "_normal_form"], (run, events)
            assert events.count("is_involution") == 1
    bad = _non_involution_a_draw_accepts()
    events.clear()
    for run in (check_reducible, decompose):
        with pytest.raises(InputError, match="^not an involution$"):
            run(bad, 3)
    assert events == ["is_involution"] * 2


@pytest.mark.parametrize("seed", (101, 17))
def test_decompose_streams_take_no_box_anchor(monkeypatch, seed):
    # every input of the decompose streams has a K-fixing conjugate, which
    # decompose splits with K and K' as anchors: no box search runs, and an
    # input that fixes K is split as given, with no chamber reduction
    boxed, chambers = [], []
    find_anchor, chamber = criteria._find_anchor, weyl._chamber
    monkeypatch.setattr(criteria, "_find_anchor", lambda gram: (
        boxed.append(gram) or find_anchor(gram)))
    monkeypatch.setattr(weyl, "_chamber", lambda g: chambers.append(g) or chamber(g))
    k_fixing = 0
    for op in bench_inputs().decompose_stream(seed):
        g, k = Isometry(del_pezzo_lattice(op.n), op.matrix), canonical_class(op.n)
        chambers.clear()
        decompose(g, op.n)
        if g.apply(k) == k:
            k_fixing += 1
            assert not chambers, op
        else:
            assert chambers, op
    assert not boxed and k_fixing >= 32


def _counted(f, calls):
    """f, appending its arguments to calls at each call."""
    def run(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)
    return run


@lru_cache(maxsize=None)
def _normal_form_input():
    """(g, n): the first operation of verify_stream(101) whose chamber
    conjugate moves K and whose normal form w_I fixes it."""
    for op in bench_inputs().verify_stream(101):
        g, k = Isometry(del_pezzo_lattice(op.n), op.matrix), canonical_class(op.n)
        if chamber_conjugate(g)[0].apply(k) != k and normal_form(g)[4].apply(k) == k:
            return g, op.n
    raise AssertionError("no normal-form input in the stream")


def test_inputs_whose_normal_form_moves_k_keep_the_chamber_path():
    # g_00 < 0 (h g h^-1 = -w_I), and a w_I that moves K (E_n in I, or
    # H - E1 - E2 at n = 2), are decided as their chamber conjugate on its
    # own eigen data, with no class record
    g, n = _normal_form_input()
    cases = [(g.negated(), n)]
    for n in range(2, 9):
        lat = del_pezzo_lattice(n)
        cases += [(reflection(lat.vector(tuple(int(j == i) for j in range(n + 1)))), n)
                  for i in (1, n)]
    lat = del_pezzo_lattice(2)
    cases.append((reflection(lat.vector((1, -1, -1))), 2))
    for g, n in cases:
        k = canonical_class(n)
        g_red, h_inv = chamber_conjugate(g)
        s, walls, *_, w = normal_form(g)
        assert g_red.apply(k) != k and (s < 0 or w.apply(k) != k)
        for bound in (1, 2, 10):
            want = irreducibility._verdict(criteria.eigen_data(g_red, k), n, bound, h_inv)
            assert check_reducible(g, n, bound) == want, (n, walls)


RECORD_BOUNDS = (1, 2, 3, 4, 10)


def _record_cases():
    """(n, g, {bound: verdict json}) for the inputs check_reducible decides
    by the class record: the operations of verify_stream(101) that fix K, or
    whose chamber conjugate or normal form w_I (g_00 > 0) does, then the
    catalog representatives and their wall-word conjugates
    (_search_path_cases).  The json is the verdict of _verdict on fresh
    eigen data of g, or of its chamber conjugate or w_I with the witnesses
    mapped back: check_reducible's path with no record."""
    gs = [(op.n, Isometry(del_pezzo_lattice(op.n), op.matrix))
          for op in bench_inputs().verify_stream(101)]
    gs += [(n, g) for n, *pairs in _search_path_cases() for pair in pairs for g in pair]
    cases = []
    for n, g in gs:
        k = canonical_class(n)
        g_red, h_inv = (g, None) if g.apply(k) == k else chamber_conjugate(g)
        if g_red.apply(k) != k and g.matrix[0][0] > 0:
            _, _, _, h_inv, g_red = normal_form(g)
        if g_red.apply(k) == k:
            cases.append((n, g, {b: irreducibility._verdict(criteria.eigen_data(g_red, k), n, b,
                                                            h_inv).to_json()
                                 for b in RECORD_BOUNDS}))
    return cases


def test_class_record_gives_each_input_its_own_verdict(monkeypatch):
    # whatever order fills the record, every input it decides gets the
    # verdict of its own eigen data, witnesses and narrative included:
    # stream order bound by bound, the reverse, and each input at bounds
    # 10, 1, 2, 10 in turn, the record emptied before each
    cases = _record_cases()
    assert len(cases) > 700
    orders = {
        "stream": [(i, b) for b in RECORD_BOUNDS for i in range(len(cases))],
        "reversed": [(i, b) for b in reversed(RECORD_BOUNDS)
                     for i in reversed(range(len(cases)))],
        "interleaved": [(i, b) for i in range(len(cases)) for b in (10, 1, 2, 10)],
    }
    eigen_data, built = criteria.eigen_data, []

    def counted(*args):
        built.append(args)
        return eigen_data(*args)

    monkeypatch.setattr(criteria, "eigen_data", counted)
    for name, order in orders.items():
        monkeypatch.setattr(irreducibility, "_CLASS_RECORD", {})
        built.clear()
        for i, b in order:
            n, g, want = cases[i]
            assert check_reducible(g, n, b).to_json() == want[b], (name, i, b)
        # in every order, each class met builds the eigen data of its first
        # member and no more: a bound the class has not met runs the route
        # again on that data, and every other member's witness is read off
        # its own tables
        assert len(built) == len(irreducibility._CLASS_RECORD), name


def test_warm_record_builds_no_eigen_data(monkeypatch):
    # once its class is in the record, a K-fixing input decided by closures
    # or by a table read calls neither eigen_data nor xl.kernel, route b's
    # conic scan included, which reads no plus side
    monkeypatch.setattr(irreducibility, "_CLASS_RECORD", {})
    rng = random.Random(3535)
    counts = {}

    def counted(name, f):
        def run(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return run

    kinds, stored = set(), 0
    for bound in (2, 3):
        for n in range(2, 9):
            walls = canonical_generators(n)
            for cls in classify_involutions(n):
                check_reducible(cls.representative, n, bound)
                w = identity_isometry(del_pezzo_lattice(n))
                for _ in range(12):
                    w = w @ rng.choice(walls)
                g = w @ cls.representative @ w.inverse()
                counts.update(eigen_data=0, kernel=0)
                with monkeypatch.context() as m:
                    m.setattr(criteria, "eigen_data", counted("eigen_data", criteria.eigen_data))
                    m.setattr(xl, "kernel", counted("kernel", xl.kernel))
                    verdict = check_reducible(g, n, bound)
                kind = verdict.certificate.kind
                kinds.add(kind)
                pair, same = kind == "FixedHyperbolicPair", g.matrix == cls.representative.matrix
                stored += pair and same
                assert counts == {"eigen_data": 0, "kernel": 0}, (n, cls.label)
    assert kinds == {"FixedNormPlus1", "FixedHyperbolicPair", "FixedNormMinus1",
                     "SwappedOrFixedMinus1Pair", "EvenFixedLatticeObstruction",
                     "Mod2Obstruction"}
    # some route-b conjugates are the stored member itself
    assert stored > 0
    # and so does an input decided as its normal form w_I, whose class the
    # representatives above put in the record
    g, n = _normal_form_input()
    counts.update(eigen_data=0, kernel=0)
    with monkeypatch.context() as m:
        m.setattr(criteria, "eigen_data", counted("eigen_data", criteria.eigen_data))
        m.setattr(xl, "kernel", counted("kernel", xl.kernel))
        check_reducible(g, n, 2)
    assert counts == {"eigen_data": 0, "kernel": 0}


def test_verify_stream_kinds_are_the_representatives():
    # the certificate kind is a class invariant on the benchmark's checks:
    # on all 1920 operations of verify seeds 101-103 at its bound 2, the
    # verdict is the pinned one and the kind is the representative's, O(M_n)
    # conjugates whose chamber conjugate moves K included (decided as their
    # normal form w_I)
    inputs = bench_inputs()
    kinds = {(n, cls.label): check_reducible(cls.representative, n, 2).certificate.kind
             for n in range(3, 9) for cls in classify_involutions(n)}
    checks = 0
    for seed in (101, 102, 103):
        for op in inputs.verify_stream(seed):
            verdict = check_reducible(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n, 2)
            assert verdict.status == inputs.PINNED_VERDICT[op.n, op.label], (seed, op)
            assert verdict.certificate.kind == kinds[op.n, op.label], (seed, op)
            checks += 1
    assert checks == 1920


def _search_path_cases():
    """(n, (rep, wall-word conjugate), (rep, K-fixing wall-word conjugate))
    for every catalog representative."""
    rng = random.Random(2626)
    cases = []
    for n in range(2, 9):
        lat = del_pezzo_lattice(n)
        walls, k_walls = wall_generators(n).isometries(), canonical_generators(n)
        for cls in classify_involutions(n):
            g = cls.representative
            h = w = identity_isometry(lat)
            for _ in range(12):
                h, w = h @ rng.choice(walls), w @ rng.choice(k_walls)
            cases.append((n, (g, h @ g @ h.inverse()), (g, w @ g @ w.inverse())))
    return cases


def test_search_path_builds_no_sublattice(monkeypatch):
    # check_reducible, decompose and invariant_of run on plain int tuples:
    # on the catalog representatives and one wall-word conjugate of each (a
    # word in the K-fixing walls for invariant_of), no Sublattice is built,
    # and every route witness is a tuple of ints
    cases = _search_path_cases()
    built, results = [], []
    init = Sublattice.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recording(route):
        def run(*args):
            results.append(route(*args))
            return results[-1]
        return run

    monkeypatch.setattr(Sublattice, "__init__", counted)
    for name in ("route_a", "route_b", "route_c", "route_d", "route_e"):
        monkeypatch.setattr(criteria, name, recording(getattr(criteria, name)))
    for n, checked, k_fixing in cases:
        for g in checked:
            check_reducible(g, n, 2)
            decompose(g, n)
        for g in k_fixing:
            invariant_of(g, n, with_flags=True)
    assert built == []
    found = [w for res in results for w in res.witnesses]
    assert len(found) > 100
    assert all(type(w) is tuple and all(type(x) is int for x in w) for w in found)


def test_search_path_builds_no_lattice_vector(monkeypatch):
    # the anchor K is built once per n (weyl.canonical_class is cached): after
    # one warm-up call per n, check_reducible and decompose on the catalog and
    # on wall-word conjugates construct no LatticeVector at all
    cases = _search_path_cases()
    for n, (g, _), _ in cases:
        check_reducible(g, n, 2)
    built = []
    init = LatticeVector.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LatticeVector, "__init__", counted)
    for n, checked, _ in cases:
        for g in checked:
            check_reducible(g, n, 2)
            decompose(g, n)
    assert built == []


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
                    jb = [xl.mat_vec(lat.gram, b) for b in peeled]
                    for sign, side in ((1, data.plus), (-1, data.minus)):
                        # each basis spans the other: the side is the
                        # saturated reference kernel
                        rows = xl.mat_add_scaled_identity(data.g.matrix, -sign) + jb
                        ref = xl.kernel(rows)
                        assert len(side.basis) == len(ref), (n, cls.label)
                        mine = list(side.basis)
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

    def checked(gram, basis, signature=None, along=None):
        if signature is not None:
            # B^T G B, with the basis vectors as the rows of B^T
            sub_gram = xl.mat_mul(xl.mat_mul(basis, gram), xl.transpose(basis))
            assert xl.sylvester_signature(sub_gram) == signature + (0,)
            handed.append(signature)
        return side(gram, basis, signature, along)

    kept = []   # per narrowed side: whether _narrow kept it
    narrow = irreducibility._narrow

    def recorded(old, jbs, gram, anchor=None):
        new = narrow(old, jbs, gram, anchor)
        touched = any(sum(x * y for x, y in zip(jb, v)) for jb in jbs for v in old.basis)
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


def _k_fixing_chamber_conjugates():
    """(n, g') for the chamber conjugates g' that fix K, as decompose sees
    them, of the catalog representatives, n = 2..8, of two wall-word
    conjugates of each and of the operations of decompose_stream(101)."""
    rng = random.Random(3131)
    gs = []
    for n in range(2, 9):
        gens = wall_generators(n).isometries()
        for cls in classify_involutions(n):
            gs.append((n, cls.representative))
            for _ in range(2):
                h = identity_isometry(del_pezzo_lattice(n))
                for _ in range(12):
                    h = h @ rng.choice(gens)
                gs.append((n, h @ cls.representative @ h.inverse()))
    for op in bench_inputs().decompose_stream(101):
        if 2 <= op.n <= 8:
            gs.append((op.n, Isometry(del_pezzo_lattice(op.n), op.matrix)))
    out = []
    for n, g in gs:
        g, _ = chamber_conjugate(g)
        if g.apply(canonical_class(n)) == canonical_class(n):
            out.append((n, g))
    return out


def test_every_piece_is_anchored_at_its_canonical_class():
    # on a K-fixing input every split is a blow-down (|K.b| = 1), so each
    # piece B-perp is M_k (or U in rank 2) with canonical class
    # K' = K + sum (K.b) b: K' is
    # fixed by g, orthogonal to B, of square 9 - k and characteristic on
    # the piece (c.K' = c^2 mod 2 on a basis of B-perp); it anchors the plus
    # side, and the piece keeps the table of exceptional classes under the
    # mask of the entries orthogonal to B
    inputs = _k_fixing_chamber_conjugates()
    assert len(inputs) > 200
    narrowed = 0
    for n, g in inputs:
        gram = g.lattice.gram
        jk = xl.mat_vec(gram, canonical_class(n).coords)
        d, pieces = decompose_pieces(g)
        assert len(pieces) == len(d.steps) + 1
        table = pieces[0].exceptional
        assert table is not None and pieces[0].within is None
        peeled = []
        for i, data in enumerate(pieces):
            if i:
                peeled.extend(d.steps[i - 1].basis)
            jbs = [xl.mat_vec(gram, b) for b in peeled]
            k_prime = list(canonical_class(n).coords)
            for jb, b in zip(jbs, peeled):
                t = sum(x * y for x, y in zip(jk, b))
                assert abs(t) == 1
                k_prime = [x + t * y for x, y in zip(k_prime, b)]
            rank = n + 1 - len(peeled)
            assert sum(x * y for x, y in zip(xl.mat_vec(gram, k_prime), k_prime)) == 10 - rank
            assert xl.mat_vec(g.matrix, k_prime) == k_prime
            assert not any(sum(x * y for x, y in zip(jb, k_prime)) for jb in jbs)
            piece = xl.kernel(jbs) if jbs else xl.identity(n + 1)
            assert len(piece) == rank
            for c in piece:
                jc = xl.mat_vec(gram, c)
                assert (sum(x * y for x, y in zip(jc, k_prime))
                        - sum(x * y for x, y in zip(jc, c))) % 2 == 0
            plus = data.plus
            if plus.definite:
                # rank 1, spanned by K' or, on U, by K' / 2
                assert coords_of(plus.basis, k_prime) is not None
            else:
                assert list(lift(plus.basis, criteria._anchor(plus))) == k_prime
            # one table per n, and one set of masks per input
            assert data.exceptional is table and data.masks is pieces[0].masks
            if i:
                want = sum(1 << j for j, c in enumerate(table.vectors)
                           if not any(sum(x * y for x, y in zip(jb, c)) for jb in jbs))
                assert data.within == want
                narrowed += 1
    assert narrowed > 500


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
    m = [list(row) for row in d.leaf.matrix]
    parts = []
    for sign in (1, -1):
        eig = xl.kernel(xl.mat_add_scaled_identity(m, -sign)) if m else []
        parts.append(Sublattice(lat, tuple(lat.vector(lift(d.leaf.basis, e)) for e in eig)))
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
    basis = [v.coords for v in definite.basis]
    return any(xl.f2_solvable(other_basis, [x % 2 for x in lift(basis, c)])
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
