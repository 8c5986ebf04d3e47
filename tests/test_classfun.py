import json
import random

import pytest

from letterbraid.barcyc import h0_bar, h0_cyc, bar_element_to_tensor
from letterbraid.classfun import (
    DescendSystem,
    NotSaturatedError,
    Presentation,
    TensorBasis,
    Verdict,
    basis_from_obj,
    basis_to_obj,
    class_function_basis,
    descend_conditions,
    evaluation_table,
    finite_type_basis,
    is_class_function_sampled,
    oracle_group_ring_quotient,
    pairing_tables_agree,
    parse_presentation,
    presentation_to_text,
    weight_graded_monomials,
)
from letterbraid.dga import cochain_algebra, torus_model
from letterbraid.rings import (
    IntMatrix,
    Ring,
    in_column_span,
    matrix_rank,
    row_canonical_form,
)
from letterbraid.tensors import BraidingTensor, cycle, eval_word
from letterbraid.words import (
    GenSet,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    parse_word,
    words_up_to,
)

Z = Ring.integers()
Z2 = Ring.integers_mod(2)
Z3 = Ring.integers_mod(3)

CYCLIC_2 = "gens: s\nrel: s^2\n"
CYCLIC_3 = "gens: s\nrel: s^3\n"
FREE_1 = "gens: s\n"
FREE_2 = "gens: a b\n"
TORUS = "gens: a b\nrel: a b a^-1 b^-1\n"
KLEIN = "gens: a b\nrel: a b a b^-1\n"


def terms_of(T):
    return {seq: c for seq, c in T.sorted_terms()}


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def test_parse_presentation():
    P = parse_presentation("# the torus\n\ngens: a b\nrel: a b a^-1 b^-1\n")
    assert P.gens.names == ("a", "b")
    assert len(P.relators) == 1
    assert P.relators[0].to_text() == "a b a^-1 b^-1"
    assert presentation_to_text(P) == "gens: a b\nrel: a b a^-1 b^-1\n"
    # a free group has no rel: lines
    assert parse_presentation("gens: s\n").relators == ()


def test_parse_presentation_errors_name_lines():
    with pytest.raises(WordSyntaxError, match="missing gens"):
        parse_presentation("rel: a\n")
    with pytest.raises(WordSyntaxError, match="line 2"):
        parse_presentation("gens: a\ngens: b\n")
    with pytest.raises(WordSyntaxError, match="line 1"):
        parse_presentation("generators: a\n")
    with pytest.raises(WordSyntaxError, match="line 1"):
        parse_presentation("gens:\n")
    with pytest.raises(WordSyntaxError, match="line 1"):
        parse_presentation("gens: a a\n")
    with pytest.raises(UnknownGeneratorError, match="line 3"):
        parse_presentation("gens: a\n\nrel: a b\n")
    with pytest.raises(WordSyntaxError, match="line 2"):
        parse_presentation("gens: a\nrel: a^^\n")


def test_trivial_relators_dropped_with_warning():
    with pytest.warns(UserWarning, match="trivial relator"):
        P = parse_presentation("gens: a\nrel: a a^-1\n")
    assert P.relators == ()
    with pytest.warns(UserWarning):
        Q = Presentation(GenSet.of("a"), (Word.identity(GenSet.of("a")),))
    assert Q.relators == ()


def test_presentation_rejects_foreign_words():
    other = Word.generator(GenSet.of("x"), "x")
    with pytest.raises(Exception, match="generator"):
        Presentation(GenSet.of("a"), (other,))


# ---------------------------------------------------------------------------
# descend conditions
# ---------------------------------------------------------------------------


def test_descend_system_cyclic_two():
    """(s^2 - 1) = 2(s-1) + (s-1)^2, so n = 1 gives the single row 2c([s]) = 0."""
    P = parse_presentation(CYCLIC_2)
    sys = descend_conditions(P, Z, 1)
    assert sys.columns == ((), (0,))
    assert sys.row_labels == (((), 0, ()),)
    assert sys.matrix.to_rows() == [[0, 2]]
    # over Z/2 the same row reduces to nothing
    sys2 = descend_conditions(P, Z2, 1)
    assert sys2.matrix.to_rows() == [[0, 0]]


def test_descend_system_free_group_has_no_rows():
    P = parse_presentation(FREE_2)
    for n in range(4):
        sys = descend_conditions(P, Z, n)
        assert sys.matrix.rows == 0
        assert sys.row_labels == ()


def test_descend_row_count_matches_label_enumeration():
    # rows = relators x (prefix, suffix) pairs of total degree <= n - 1
    P = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\n")
    n = 3
    sys = descend_conditions(P, Z, n)
    k = 2
    per_relator = sum((t + 1) * k**t for t in range(n))
    assert sys.matrix.rows == 2 * per_relator
    assert len(sys.row_labels) == sys.matrix.rows
    # labels are (prefix, relator index, suffix) and group by relator
    assert [lab[1] for lab in sys.row_labels] == [0] * per_relator + [1] * per_relator


def test_klein_relator_expansion_frozen():
    """fox(abab^-1 - 1) = 2A + A^2 + BA - AB up to degree 2."""
    P = parse_presentation(KLEIN)
    sys = descend_conditions(P, Z, 2)
    row = sys.matrix.row(0)
    by_col = dict(zip(sys.columns, row))
    assert by_col[(0,)] == 2
    assert by_col[(1,)] == 0
    assert by_col[(0, 0)] == 1
    assert by_col[(1, 0)] == 1
    assert by_col[(0, 1)] == -1
    assert by_col[(1, 1)] == 0


def test_descend_satisfied_by():
    P = parse_presentation(CYCLIC_2)
    sys = descend_conditions(P, Z, 2)
    for T in finite_type_basis(P, Z, 2):
        assert sys.satisfied_by(T)
    s = BraidingTensor(Z, P.gens, {(0,): 1})
    assert not sys.satisfied_by(s)
    too_heavy = BraidingTensor(Z, P.gens, {(0, 0, 0): 1})
    with pytest.raises(ValueError, match="weight"):
        sys.tensor_coordinates(too_heavy)


def test_weight_graded_monomials_order():
    assert weight_graded_monomials(2, 2) == [
        (), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)
    ]


# ---------------------------------------------------------------------------
# finite-type and class-function bases
# ---------------------------------------------------------------------------


def test_finite_type_ranks_frozen():
    cases = [
        (CYCLIC_2, Z, 1, 1),
        (CYCLIC_2, Z2, 1, 2),
        (CYCLIC_2, Z, 2, 1),
        (CYCLIC_2, Z, 3, 1),
        (CYCLIC_3, Z, 2, 1),
        (FREE_1, Z, 3, 4),
        (TORUS, Z, 2, 6),
        (KLEIN, Z, 2, 3),
    ]
    for text, ring, n, want in cases:
        P = parse_presentation(text)
        basis = finite_type_basis(P, ring, n)
        assert len(basis) == want, (text, ring.spec, n)


def test_finite_type_torus_cumulative_ranks():
    P = parse_presentation(TORUS)
    assert [len(finite_type_basis(P, Z, n)) for n in range(4)] == [1, 3, 6, 10]
    assert finite_type_basis(P, Z, 3).ranks_per_weight == [1, 2, 3, 4]


def test_finite_type_cyclic_three_mod_three():
    P = parse_presentation(CYCLIC_3)
    assert [len(finite_type_basis(P, Z3, n)) for n in range(4)] == [1, 2, 3, 3]


def test_free_group_basis_is_all_monomials():
    P = parse_presentation(FREE_1)
    basis = finite_type_basis(P, Z, 3)
    assert [terms_of(T) for T in basis] == [
        {(): 1},
        {(0,): 1},
        {(0, 0): 1},
        {(0, 0, 0): 1},
    ]


def test_klein_finite_type_members_frozen():
    # a-direction is killed (2c_a = 0 over Z), b-exponent survives
    P = parse_presentation(KLEIN)
    basis = finite_type_basis(P, Z, 2)
    assert [terms_of(T) for T in basis] == [{(): 1}, {(1,): 1}, {(1, 1): 1}]


def test_class_function_ranks_frozen():
    cases = [
        (FREE_2, Z, 2, 6),   # necklaces: 1 + 2 + 3
        (FREE_1, Z, 4, 5),
        (TORUS, Z, 2, 6),
        (TORUS, Z, 3, 10),
        (KLEIN, Z, 2, 3),
    ]
    for text, ring, n, want in cases:
        P = parse_presentation(text)
        assert len(class_function_basis(P, ring, n)) == want, (text, n)


def test_class_basis_members_are_cycle_invariant_and_descend():
    for text, ring in [(TORUS, Z), (KLEIN, Z), (CYCLIC_2, Z2), (FREE_2, Z)]:
        P = parse_presentation(text)
        sys = descend_conditions(P, ring, 3)
        for T in class_function_basis(P, ring, 3):
            assert cycle(T) == T
            assert sys.satisfied_by(T)


def test_class_basis_contained_in_finite_type_span():
    for text in (TORUS, KLEIN, CYCLIC_2):
        P = parse_presentation(text)
        ft = finite_type_basis(P, Z, 3)
        columns = weight_graded_monomials(len(P.gens), 3)
        M = IntMatrix.from_columns(
            Z, [[T.coefficient(m) for m in columns] for T in ft], len(columns)
        )
        for T in class_function_basis(P, Z, 3):
            assert in_column_span(M, [T.coefficient(m) for m in columns])


def test_bases_are_monotone_in_n():
    cases = [
        (TORUS, Z),
        ("gens: a b\nrel: a^2\nrel: b^3\n", Z),
        (CYCLIC_2, Z2),
        (KLEIN, Z),
    ]
    for text, ring in cases:
        P = parse_presentation(text)
        for maker in (finite_type_basis, class_function_basis):
            prev = None
            for n in range(4):
                cur = maker(P, ring, n)
                assert list(cur.added_at_weight) == sorted(cur.added_at_weight)
                assert sum(cur.ranks_per_weight) == len(cur)
                if prev is not None:
                    assert len(cur) >= len(prev)
                    for a, b in zip(prev.elements, cur.elements):
                        assert terms_of(a) == terms_of(b)
                prev = cur


def test_entry_weights_match_support():
    P = parse_presentation(TORUS)
    basis = finite_type_basis(P, Z, 3)
    for T, p in zip(basis.elements, basis.added_at_weight):
        assert T.max_weight() == p


def test_mod_two_cyclic_basis_has_torsion_annihilator():
    # over Z/2 the extra generator [s] has full additive order
    P = parse_presentation(CYCLIC_2)
    basis = finite_type_basis(P, Z2, 1)
    assert len(basis) == 2
    assert basis.annihilators == (0, 0)
    assert terms_of(basis[1]) == {(0,): 1}


# ---------------------------------------------------------------------------
# sampled class-function check
# ---------------------------------------------------------------------------


def test_sampled_check_homomorphism_plus_constant_passes():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, P.gens, {(0,): 1, (): 5})
    assert is_class_function_sampled(T, P).ok


def test_sampled_check_pure_pair_fails_with_witness():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, P.gens, {(0, 1): 1})
    verdict = is_class_function_sampled(T, P)
    assert not verdict.ok
    assert verdict.witness is not None and "conjugation" in verdict.witness
    assert not bool(verdict)


def test_sampled_check_symmetrization_passes():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, P.gens, {(0, 1): 1, (1, 0): 1})
    verdict = is_class_function_sampled(T, P, max_len=6, samples=300)
    assert verdict.ok and bool(verdict)


def test_sampled_check_catches_relator_insertion():
    P = parse_presentation(CYCLIC_2)
    T = BraidingTensor(Z, P.gens, {(0,): 1})
    verdict = is_class_function_sampled(T, P)
    assert not verdict.ok
    assert "relator insertion" in verdict.witness


def test_sampled_check_respects_generator_sets():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, GenSet.of("x"), {(0,): 1})
    with pytest.raises(Exception):
        is_class_function_sampled(T, P)


def test_sampled_check_deterministic():
    P = parse_presentation(FREE_2)
    rng = random.Random(5)
    terms = {}
    for _ in range(4):
        seq = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        terms[seq] = terms.get(seq, 0) + rng.randrange(-2, 3)
    T = BraidingTensor(Z, P.gens, terms)
    a = is_class_function_sampled(T, P, samples=50)
    b = is_class_function_sampled(T, P, samples=50)
    assert a == b


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_cyclic_two_ranks():
    P = parse_presentation(CYCLIC_2)
    rep = oracle_group_ring_quotient(P, Z, 2, 3)
    assert rep.ranks == (1, 1, 1)
    assert rep.class_count == 2
    rep2 = oracle_group_ring_quotient(P, Z2, 2, 3)
    assert rep2.ranks == (1, 2, 2)


def test_oracle_cyclic_three_ranks():
    P = parse_presentation(CYCLIC_3)
    assert oracle_group_ring_quotient(P, Z3, 3, 4).ranks == (1, 2, 3, 3)
    assert oracle_group_ring_quotient(P, Z, 3, 4).ranks == (1, 1, 1, 1)


def test_oracle_free_rank_one():
    # Z: numerical polynomials of degree <= d
    P = parse_presentation(FREE_1)
    rep = oracle_group_ring_quotient(P, Z, 3, 4)
    assert rep.ranks == (1, 2, 3, 4)


def test_oracle_torus_ranks():
    P = parse_presentation(TORUS)
    rep = oracle_group_ring_quotient(P, Z, 2, 3)
    assert rep.ranks == (1, 3, 6)
    assert rep.class_count == 85  # |x| + |y| <= 6 in Z^2


def test_oracle_trivial_group():
    P = parse_presentation("gens: s\nrel: s\n")
    rep = oracle_group_ring_quotient(P, Z, 2, 2)
    assert rep.ranks == (1, 1, 1)
    assert rep.class_count == 1


def test_oracle_not_saturated():
    P = parse_presentation(TORUS)
    for ring in (Z, Ring.integers_mod(4), Ring.rationals()):
        with pytest.raises(NotSaturatedError) as info:
            oracle_group_ring_quotient(P, ring, 1, 1)
        assert info.value.code == "not_saturated"
        assert "length 1" in str(info.value)
        # the first base class outside the span, the same on every ring
        assert "(class of a^-1 is new)" in str(info.value)


def test_oracle_rejects_bad_bounds():
    P = parse_presentation(FREE_1)
    with pytest.raises(ValueError):
        oracle_group_ring_quotient(P, Z, -1, 3)
    with pytest.raises(ValueError):
        oracle_group_ring_quotient(P, Z, 1, 0)


def test_pipeline_matches_oracle():
    """Ranks and canonical pairing tables agree between the descend-condition
    pipeline and the brute-force group-ring oracle."""
    cases = [
        (CYCLIC_2, Z, 3),
        (CYCLIC_2, Z2, 3),
        (CYCLIC_3, Z3, 4),
        (TORUS, Z, 3),
    ]
    for text, ring, L in cases:
        P = parse_presentation(text)
        for n in range(4):
            rep = oracle_group_ring_quotient(P, ring, n, L)
            ft = finite_type_basis(P, ring, n)
            cf = class_function_basis(P, ring, n)
            assert len(ft) == rep.ranks[n], (text, ring.spec, n)
            assert len(cf) == rep.ranks[n], (text, ring.spec, n)
            assert pairing_tables_agree(ft.elements, rep)
            assert pairing_tables_agree(cf.elements, rep)
    # Over Z/4 a filtered generating sequence can outnumber the oracle's
    # minimal generators; the rank of its coefficient matrix cannot.  The
    # Klein bottle group is not abelian, so only its finite-type functions
    # are all of the oracle's.
    Z4 = Ring.integers_mod(4)
    for text, makers in [
        (KLEIN, (finite_type_basis,)),
        (CYCLIC_2, (finite_type_basis, class_function_basis)),
    ]:
        P = parse_presentation(text)
        for n in range(3):
            rep = oracle_group_ring_quotient(P, Z4, n, 3)
            columns = weight_graded_monomials(len(P.gens), n)
            for basis in (maker(P, Z4, n) for maker in makers):
                coeffs = [[T.coefficient(m) for m in columns] for T in basis]
                assert matrix_rank(IntMatrix.from_rows(Z4, coeffs)) == rep.ranks[n]
                assert pairing_tables_agree(basis.elements, rep)


def test_pairing_disagreement_detected():
    P = parse_presentation(CYCLIC_2)
    rep = oracle_group_ring_quotient(P, Z2, 2, 3)
    partial = finite_type_basis(P, Z2, 2).elements[:1]
    assert not pairing_tables_agree(partial, rep)
    wrong = (BraidingTensor(Z2, P.gens, {(0,): 1}),)
    assert not pairing_tables_agree(wrong, rep)


def test_evaluation_table_shape():
    P = parse_presentation(FREE_1)
    basis = finite_type_basis(P, Z, 2)
    words = list(words_up_to(P.gens, 2))
    M = evaluation_table(basis.elements, words, Z)
    assert (M.rows, M.cols) == (3, len(words))
    s = Word.generator(P.gens, "s")
    j = words.index(s * s)
    # column at s^2: constants 1, exponent 2, binomial(2,2) = 1
    assert M.column(j) == (1, 2, 1)


# ---------------------------------------------------------------------------
# presentation vs 2-complex routes
# ---------------------------------------------------------------------------


def test_torus_presentation_matches_two_complex():
    """The torus cochain-algebra H^0 and the presentation pipeline span the
    same functions once tensors over the three edges are evaluated on words
    in the two generating edge loops."""
    A = cochain_algebra(torus_model(), Z)
    P = parse_presentation(TORUS)
    three = GenSet.of("a", "b", "c")
    two = GenSet.of("a", "b")
    words_two = list(words_up_to(two, 4))
    words_three = [parse_word(w.to_text(), three) for w in words_two]
    pairs = [
        (h0_cyc, class_function_basis),
        (h0_bar, finite_type_basis),
    ]
    for h0, maker in pairs:
        complex_rows = [
            [eval_word(bar_element_to_tensor(x), w) for w in words_three]
            for x in h0(A, 2)
        ]
        pres_rows = [
            [eval_word(T, w) for w in words_two] for T in maker(P, Z, 2)
        ]
        ca = row_canonical_form(IntMatrix.from_rows(Z, complex_rows))
        cb = row_canonical_form(IntMatrix.from_rows(Z, pres_rows))
        assert ca.rows == cb.rows == 6
        assert ca.entries == cb.entries


# ---------------------------------------------------------------------------
# basis files
# ---------------------------------------------------------------------------


def test_basis_file_round_trip():
    P = parse_presentation(TORUS)
    basis = class_function_basis(P, Z, 2)
    obj = basis_to_obj(basis)
    assert obj["n"] == 2
    assert obj["ring"] == "Z"
    assert obj["ranks_per_weight"] == [1, 2, 3]
    assert "annihilators" not in obj
    back = basis_from_obj(json.loads(json.dumps(obj)))
    assert len(back) == len(basis)
    assert back.added_at_weight == basis.added_at_weight
    for a, b in zip(basis, back):
        assert terms_of(a) == terms_of(b)
    # serialization is deterministic byte-for-byte
    assert json.dumps(obj, sort_keys=True) == json.dumps(basis_to_obj(basis), sort_keys=True)


def test_basis_file_keeps_torsion_annihilators():
    P = parse_presentation(CYCLIC_2)
    basis = finite_type_basis(P, Ring.integers_mod(4), 1)
    obj = basis_to_obj(basis)
    if any(a != 0 for a in basis.annihilators):
        assert obj["annihilators"] == list(basis.annihilators)
    back = basis_from_obj(obj)
    assert back.annihilators == basis.annihilators


def test_basis_file_rejects_corruption():
    P = parse_presentation(FREE_1)
    obj = basis_to_obj(finite_type_basis(P, Z, 2))
    bad = dict(obj)
    bad["ranks_per_weight"] = [1, 1]
    with pytest.raises(ValueError, match="n\\+1"):
        basis_from_obj(bad)
    bad = dict(obj)
    bad["ranks_per_weight"] = [1, 1, 0]
    with pytest.raises(ValueError, match="sum"):
        basis_from_obj(bad)
    bad = dict(obj)
    del bad["tensors"]
    with pytest.raises(ValueError, match="missing key"):
        basis_from_obj(bad)
    with pytest.raises(ValueError, match="object"):
        basis_from_obj([1, 2])
