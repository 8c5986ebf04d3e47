import itertools
import json
import random
import time

import pytest

from letterbraid import dga
from letterbraid.dga import (
    BadSimplicialSetError,
    FiniteDGA,
    SimplicialSetModel,
    _insert_degeneracy,
    _lin_mul,
    canonical_ref,
    circle_model,
    cochain_algebra,
    interval_model,
    model_from_obj,
    model_to_obj,
    point_model,
    random_two_complex,
    torus_model,
    verify_dga,
    wedge_algebra,
    wedge_model,
    wedge_with_trivial_2cells,
)
from letterbraid.rings import IntMatrix, Ring, matrix_rank

Z = Ring.integers()
Q = Ring.rationals()

V = ((), (0, 0))


def _diff_rows(A, d):
    """The matrix of d out of degree d (rows over basis[d + 1]), read
    column by column off diff_column."""
    rows = [[A.ring.zero()] * A.dim(d) for _ in range(A.dim(d + 1))]
    for i in range(A.dim(d)):
        for j, c in A.diff_column(d, i):
            rows[j][i] = c
    return rows


def test_stock_models_validate():
    for X in (
        point_model(),
        circle_model(),
        wedge_model(3),
        torus_model(),
        wedge_with_trivial_2cells(2),
        interval_model(),
    ):
        assert X.dim >= 0


def test_duplicate_ids_rejected():
    with pytest.raises(BadSimplicialSetError):
        SimplicialSetModel((("v", "v"),), {})


def test_wrong_face_count_rejected():
    with pytest.raises(BadSimplicialSetError):
        SimplicialSetModel((("v",), ("e",)), {(1, 0): (V,)})


def test_wrong_face_dimension_rejected():
    bad = ((0,), (0, 0))  # dimension 1, not 0
    with pytest.raises(BadSimplicialSetError):
        SimplicialSetModel((("v",), ("e",)), {(1, 0): (bad, V)})


def test_simplicial_identity_violation_rejected():
    # two vertices; edge e runs u -> w, loop f sits at u; gluing a triangle
    # with faces (e, f, e) makes d0 d1 != d0 d0
    u, w = ((), (0, 0)), ((), (0, 1))
    e, f = ((), (1, 0)), ((), (1, 1))
    with pytest.raises(BadSimplicialSetError) as ei:
        SimplicialSetModel(
            (("u", "w"), ("e", "f"), ("T",)),
            {(1, 0): (w, u), (1, 1): (u, u), (2, 0): (e, f, e)},
        )
    assert ei.value.code == "bad_simplicial_set"


def test_degeneracy_words_canonicalize():
    # s0 s0 = s1 s0 in canonical strictly-decreasing form
    assert canonical_ref((0, 0), (0, 0)) == ((1, 0), (0, 0))
    assert canonical_ref((2, 0), (0, 0)) == ((2, 0), (0, 0))
    assert canonical_ref((0, 1), (0, 0)) == ((2, 0), (0, 0))


def test_faces_of_degenerate_edge():
    X = circle_model()
    s0v = ((0,), (0, 0))
    assert X.face(s0v, 0) == V
    assert X.face(s0v, 1) == V


def test_torus_front_back_faces():
    X = torus_model()
    P = ((), (2, 0))
    Q2 = ((), (2, 1))
    a, b = ((), (1, 0)), ((), (1, 1))
    assert X.front_face(P, 1) == a  # d2 P
    assert X.back_face(P, 1) == b  # d0 P
    assert X.front_face(Q2, 1) == b
    assert X.back_face(Q2, 1) == a


def _recursive_face(X, ref, i):
    """The face rule applied one degeneracy at a time, re-inserting the
    moved degeneracy into the canonical word at every level."""
    degens, base = ref
    if not degens:
        return X.faces[base][i]
    j, rest = degens[0], (degens[1:], base)
    if i in (j, j + 1):
        return rest
    inner = _recursive_face(X, rest, i if i < j else i - 1)
    return (_insert_degeneracy(inner[0], j - 1 if i < j else j), inner[1])


def _degenerate_refs(X, max_word):
    """Every simplex of X as a canonical word of up to max_word degeneracies
    on a nondegenerate base."""
    refs = {((), (d, i)) for d in range(X.dim + 1) for i in range(X.n_cells(d))}
    layer = set(refs)
    for _ in range(max_word):
        layer = {
            (_insert_degeneracy(word, k), base)
            for word, base in layer
            for k in range(len(word) + base[0] + 1)
        }
        refs |= layer
    return sorted(refs)


def test_face_walk_matches_the_recursive_rule():
    rng = random.Random(31)
    models = [random_two_complex(rng, 3, 3) for _ in range(30)] + [torus_model()]
    checked = 0
    for X in models:
        for ref in _degenerate_refs(X, 3):
            n = len(ref[0]) + ref[1][0]
            for i in range(n + 1 if n else 0):
                assert X.face(ref, i) == _recursive_face(X, ref, i)
                assert X.front_face(ref, i) == _front(X, ref, i, _recursive_face)
                assert X.back_face(ref, i) == _back(X, ref, i, _recursive_face)
                checked += 1
    assert checked == 13659


def test_one_high_dimensional_simplex_loads_and_builds_quickly():
    """A 200-simplex whose faces are all the vertex degenerated 199 times:
    each face is one walk down its word, and the front and back faces of
    each split are one walk each."""
    d = 200
    vertex = {"target": "v", "degeneracies": list(range(d - 2, -1, -1))}
    obj = {"simplices": {"0": ["v"], str(d): ["s"]}, "faces": {"s": [vertex] * (d + 1)}}
    start = time.perf_counter()
    A = cochain_algebra(model_from_obj(obj), Z)
    assert time.perf_counter() - start < 2.0
    assert A.diff == {}
    assert A.mult == {(0, 0, 0, 0): ((0, 1),), (0, 0, d, 0): ((0, 1),), (d, 0, 0, 0): ((0, 1),)}


def test_model_json_round_trip():
    for X in (circle_model(), torus_model(), wedge_with_trivial_2cells(2)):
        obj = model_to_obj(X)
        Y = model_from_obj(obj, name=X.name)
        assert Y.cells == X.cells
        assert Y.faces == X.faces
        # and the object is plain JSON
        json.dumps(obj)


def test_model_from_obj_errors():
    with pytest.raises(BadSimplicialSetError):
        model_from_obj({"simplices": {"0": ["v"], "1": ["e"]}, "faces": {}})
    with pytest.raises(BadSimplicialSetError):
        model_from_obj(
            {
                "simplices": {"0": ["v"], "1": ["e"]},
                "faces": {"e": [{"target": "zz"}, {"target": "v"}]},
            }
        )
    with pytest.raises(BadSimplicialSetError):
        model_from_obj({"dims": 3, "simplices": {"0": ["v"]}, "faces": {}})


def test_a_model_needs_a_vertex():
    for cells, faces in (((), {}), (((),), {}), (((), ("e",)), {(1, 0): (V, V)})):
        with pytest.raises(BadSimplicialSetError, match="needs a vertex"):
            SimplicialSetModel(cells, faces)


def test_empty_dimensions_above_the_last_simplex_are_not_built():
    assert model_from_obj({"simplices": {"0": ["v"], "1000000": []}}).cells == (("v",),)
    # dims is read as n is, so the string of an integer is accepted
    assert model_from_obj(dict(model_to_obj(circle_model()), dims="1")).cells == (("v",), ("e",))


# ---------------------------------------------------------------------------
# cochain algebras
# ---------------------------------------------------------------------------


def test_point_cochains():
    A = cochain_algebra(point_model(), Z)
    assert A.basis == (("v",),)
    assert A.is_connected
    assert verify_dga(A)["ok"]


def test_circle_cochains_square_zero():
    A = cochain_algebra(circle_model(), Z)
    assert [A.dim(d) for d in range(2)] == [1, 1]
    assert A.diff == {}
    assert A.product(1, 0, 1, 0) == ()
    assert verify_dga(A)["ok"]


def test_torus_cochains_structure():
    A = cochain_algebra(torus_model(), Z)
    assert A.dim(1) == 3 and A.dim(2) == 2
    assert _diff_rows(A, 1) == [[1, 1, -1], [1, 1, -1]]
    # cup products of edge duals: a.b = P, b.a = Q, everything else 0
    assert A.product(1, 0, 1, 1) == ((0, Z.one()),)
    assert A.product(1, 1, 1, 0) == ((1, Z.one()),)
    for i, j in ((0, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)):
        assert A.product(1, i, 1, j) == ()
    assert verify_dga(A)["ok"]
    # H^1 has rank 2: the 3 edges minus rank 1 of d
    QA = cochain_algebra(torus_model(), Q)
    assert QA.dim(1) - matrix_rank(IntMatrix.from_rows(Q, _diff_rows(QA, 1))) == 2


def test_torus_cochains_verify_over_modular_ring():
    A = cochain_algebra(torus_model(), Ring.integers_mod(4))
    assert verify_dga(A)["ok"]


def test_trivially_glued_2_cells_do_nothing():
    A = cochain_algebra(wedge_with_trivial_2cells(2), Z)
    assert A.dim(2) == 2
    assert A.diff == {}  # degenerate faces are invisible to normalized cochains
    for i in range(2):
        for j in range(2):
            assert A.product(1, i, 1, j) == ()
    assert verify_dga(A)["ok"]


def test_interval_cochains_not_connected():
    A = cochain_algebra(interval_model(), Z)
    assert not A.is_connected
    assert verify_dga(A)["ok"]
    # d(u*) = u*(d0 e) - u*(d1 e) = -1 since e runs u -> w
    assert _diff_rows(A, 0) == [[-1, 1]]


def test_random_complexes_satisfy_axioms():
    rng = random.Random(60)
    for _ in range(6):
        X = random_two_complex(rng, rng.randint(1, 3), rng.randint(1, 3))
        for ring in (Z, Ring.integers_mod(6)):
            report = verify_dga(cochain_algebra(X, ring))
            assert report["ok"], report["violations"]


def _front(X, ref, p, face=SimplicialSetModel.face):
    n = len(ref[0]) + ref[1][0]
    for i in range(n, p, -1):
        ref = face(X, ref, i)
    return ref


def _back(X, ref, q, face=SimplicialSetModel.face):
    n = len(ref[0]) + ref[1][0]
    for _ in range(n - q):
        ref = face(X, ref, 0)
    return ref


def _pinned_models():
    rng = random.Random(23)
    complexes = [random_two_complex(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(12)]
    s1s0v = ((1, 0), (0, 0))
    return complexes + [SimplicialSetModel((("v",), (), (), ("T3",)), {(3, 0): (s1s0v,) * 4})]


@pytest.mark.parametrize("ring", [Z, Ring.integers_mod(2)])
def test_cochain_tables_are_faces_and_front_back_splits(ring):
    """diff_column is the alternating sum of the nondegenerate faces, and
    product is read off the nondegenerate front and back faces, both
    computed here from SimplicialSetModel.face."""
    for X in _pinned_models():
        A = cochain_algebra(X, ring)
        assert A.basis == X.cells
        coboundary, products = {}, {}
        for n in range(X.dim + 1):
            for r in range(X.n_cells(n)):
                ref = ((), (n, r))
                for i in range(n + 1 if n else 0):
                    degens, (_, f) = X.face(ref, i)
                    if not degens:
                        col = coboundary.setdefault((n - 1, f), {})
                        col[r] = col.get(r, 0) + (-1) ** i
                for p in range(n + 1):
                    (fd, (_, f)), (bd, (_, b)) = _front(X, ref, p), _back(X, ref, n - p)
                    if not fd and not bd:
                        products.setdefault((p, f, n - p, b), []).append((r, 1))
        for d in range(X.dim + 1):
            for i in range(X.n_cells(d)):
                want = {j: ring.from_int(c) for j, c in coboundary.get((d, i), {}).items()}
                assert dict(A.diff_column(d, i)) == {j: c for j, c in want.items() if c}
                for d2 in range(X.dim + 1 - d):
                    for i2 in range(X.n_cells(d2)):
                        got = A.product(d, i, d2, i2)
                        assert got == tuple(products.get((d, i, d2, i2), ()))
        assert verify_dga(A)["ok"]
    # empty dimensions above the top simplex change no table
    tall = SimplicialSetModel((("v",), ("e",)) + ((),) * 6000, {(1, 0): (V, V)})
    A, B = cochain_algebra(tall, ring), cochain_algebra(circle_model(), ring)
    assert (A.diff, A.mult, A.unit, A.aug) == (B.diff, B.mult, B.unit, B.aug)


# ---------------------------------------------------------------------------
# wedge algebras
# ---------------------------------------------------------------------------


def test_wedge_algebra_structure():
    A = wedge_algebra(("x", "y"), Z)
    assert A.basis == (("1",), ("x", "y"))
    assert A.diff == {}
    for i in range(2):
        for j in range(2):
            assert A.product(1, i, 1, j) == ()
        assert A.product(0, 0, 1, i) == ((i, Z.one()),)
    assert verify_dga(A)["ok"]
    assert A.is_connected


def test_wedge_algebra_matches_wedge_cochains():
    # the cochains of the wedge model, up to the degree-0 label ("1" vs
    # the vertex name) and the name
    A = wedge_algebra(("e1", "e2"), Z)
    assert A.name == "wedge_algebra(2)"
    B = cochain_algebra(wedge_model(2), Z)
    assert A.basis[1] == B.basis[1]
    assert [A.dim(d) for d in range(2)] == [B.dim(d) for d in range(2)]
    assert A.diff == B.diff
    assert A.mult == B.mult


def test_verify_reports_corrupted_unit():
    good = wedge_algebra(("x",), Z)
    mult = dict(good.mult)
    del mult[(0, 0, 1, 0)]  # unit no longer acts on x
    bad = FiniteDGA(Z, good.basis, good.diff, mult, good.unit, good.aug)
    report = verify_dga(bad)
    assert not report["ok"]
    assert any("unit fails on x" in v for v in report["violations"])


def test_verify_reports_broken_differential():
    # d(1) = x, d(x) = y: then d^2(1) = y != 0 (and Leibniz breaks too)
    basis = (("1",), ("x",), ("y",))
    mult = {
        (0, 0, 0, 0): ((0, 1),),
        (0, 0, 1, 0): ((0, 1),),
        (1, 0, 0, 0): ((0, 1),),
        (0, 0, 2, 0): ((0, 1),),
        (2, 0, 0, 0): ((0, 1),),
    }
    diff = {(0, 0): ((0, 1),), (1, 0): ((0, 1),)}
    A = FiniteDGA(Z, basis, diff, mult, (1,), (1,))
    report = verify_dga(A)
    assert not report["ok"]
    assert report["violations"].count("d^2 != 0 out of degree 0") == 1
    assert not any("out of degree 1" in v for v in report["violations"])


def _with_unit(basis, mult):
    """mult plus the products with the unit, the one degree-0 element."""
    table = dict(mult)
    for d, labels in enumerate(basis):
        for i in range(len(labels)):
            table[(0, 0, d, i)] = table[(d, i, 0, 0)] = ((i, 1),)
    return table


def _associativity_violations(A):
    """verify_dga's associativity lines from every basis triple."""
    basis = [(d, i) for d in range(len(A.basis)) for i in range(A.dim(d))]
    bad = []
    for b1, b2, b3 in itertools.product(basis, repeat=3):
        x, y, z = ({b: 1} for b in (b1, b2, b3))
        if _lin_mul(A, _lin_mul(A, x, y), z) != _lin_mul(A, x, _lin_mul(A, y, z)):
            labels = ", ".join(A.label(*b) for b in (b1, b2, b3))
            bad.append(f"associativity fails on ({labels})")
    return bad


def test_verify_reports_non_associative_product():
    # y.x = p and x.p = q but x.y = 0: (x.y).x = 0 while x.(y.x) = q, a
    # triple whose first product vanishes and whose second does not
    basis = (("1",), ("x", "y"), ("p",), ("q",))
    mult = _with_unit(basis, {(1, 1, 1, 0): ((0, 1),), (1, 0, 2, 0): ((0, 1),)})
    A = FiniteDGA(Z, basis, {}, mult, (1,), (1,))
    assert verify_dga(A) == {"ok": False, "violations": ["associativity fails on (x, y, x)"]}
    assert _associativity_violations(A) == verify_dga(A)["violations"]
    # with x.y = p and p.x = 2q, both kinds of triple fail, in basis order
    mult[(1, 0, 1, 1)] = ((0, 1),)
    mult[(2, 0, 1, 0)] = ((0, 2),)
    A = FiniteDGA(Z, basis, {}, mult, (1,), (1,))
    want = [f"associativity fails on ({t})" for t in ("x, x, y", "x, y, x", "y, x, x")]
    assert verify_dga(A)["violations"] == want == _associativity_violations(A)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_verify_skips_triples_whose_both_sides_vanish(monkeypatch, k):
    """On the wedge of k circles (B = k + 1 basis elements) the products
    e_i e_j vanish, so associativity runs b3 over the whole basis only for
    b1 = 1 or b2 = 1, and otherwise over b3 = 1 alone: 2 products per
    triple after 2 B unit checks, B^2 basis products and 2 per Leibniz pair."""
    calls = []
    monkeypatch.setattr(dga, "_lin_mul", lambda *args: calls.append(1) or _lin_mul(*args))
    assert verify_dga(wedge_algebra([f"x{i}" for i in range(k)], Z))["ok"]
    B = k + 1
    triples = B * B + k * B + k * k
    assert len(calls) == 2 * B + 3 * B * B + 2 * triples
