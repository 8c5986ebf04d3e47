import json
import random
import re
from fractions import Fraction

import pytest

from letterbraid import classfun, tensors
from letterbraid.barcyc import h0_bar, h0_cyc, bar_element_to_tensor
from letterbraid.classfun import (
    DescendSystem,
    NotSaturatedError,
    Presentation,
    TensorBasis,
    MAX_ORACLE_WORDS,
    _enumerate_classes,
    basis_from_obj,
    basis_to_obj,
    class_function_basis,
    descend_conditions,
    evaluation_table,
    finite_type_basis,
    is_class_function,
    oracle_group_ring_quotient,
    pairing_tables_agree,
    pairing_tables_contained,
    parse_presentation,
    presentation_to_text,
    weight_graded_monomials,
)
from letterbraid.dga import cochain_algebra, torus_model
from letterbraid.rings import (
    IntMatrix,
    Ring,
    canon_terms,
    matrix_rank,
    row_canonical_form,
)
from letterbraid.tensors import BraidingTensor, cycle, eval_word
from letterbraid.words import (
    GenSet,
    random_reduced_word,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    parse_word,
    words_up_to,
    _join,
    _reduced_spellings,
)
from linalg_reference import in_column_span
from magnus_reference import magnus_oracle

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
    # labels are (prefix, relator index, suffix), the relator innermost
    assert [lab[1] for lab in sys.row_labels] == [0, 1] * per_relator
    pairs = [(pre, suf) for pre, _, suf in sys.row_labels[::2]]
    assert pairs == sorted(pairs, key=lambda ps: (len(ps[0]) + len(ps[1]), len(ps[0]), ps))
    assert len(set(pairs)) == per_relator


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


def _three_generator_relator():
    """A seeded relator on a, b, c that uses every generator and inverse letters."""
    gens = GenSet.of("a", "b", "c")
    r = random_reduced_word(random.Random(2024), gens, 0, exact_len=7)
    assert {g for g, _ in r.letters} == {0, 1, 2}
    assert any(s < 0 for _, s in r.letters)
    return Presentation(gens, (r,))


def _power_relator(root: str, k: int):
    """The one-relator presentation on a, b of root^k, built by Word.__pow__."""
    gens = GenSet.of("a", "b")
    return lambda: Presentation(gens, (parse_word(root, gens) ** k,))


@pytest.mark.parametrize(
    "ring", [Z, Ring.integers_mod(4), Ring.integers_mod(6), Ring.rationals()], ids=str
)
@pytest.mark.parametrize(
    "text",
    [TORUS, "gens: a b\nrel: a b a^-1 b\n", KLEIN, "gens: a b\nrel: a^2\nrel: b^3\n",
     _three_generator_relator,
     # runs longer than every weight bound: one closed-form step each
     "gens: a b\nrel: a^7 b^-6\n", "gens: a b\nrel: a^-5 b a^9\n",
     # powers u^k with k > 2n + 1 for n <= 2: one interpolation step each
     _power_relator("a b", 7), _power_relator("a b a^-1 b^-1", 6)],
    ids=["torus", "klein-a-b-a^-1-b", "klein-a-b-a-b^-1", "a2-b3", "three-generators",
         "a7-b-6", "a-5-b-a9", "(ab)^7", "[a,b]^6"],
)
def test_relator_products_match_the_monomial_product_route(text, ring):
    """Each descend row, the ideal row of the relator series read from
    the integer Magnus sweep, equals pre . (E(r) - 1) . suf truncated at
    n, with E(r) from the independent series (magnus_reference); the rows
    come in the documented label order, and the one-sided rows are those
    with no prefix."""
    P = parse_presentation(text) if isinstance(text, str) else text()
    k = len(P.gens)
    for n in range(5):
        monomials = weight_graded_monomials(k, n)
        labels = sorted(
            ((pre, ri, suf) for ri in range(len(P.relators))
             for pre in monomials for suf in monomials if len(pre) + len(suf) < n),
            key=lambda lab: (len(lab[0]) + len(lab[2]), len(lab[0]), lab[0], lab[2], lab[1]),
        )
        series = classfun._relator_series(P, n)
        for one_sided in (False, True):
            want = [lab for lab in labels if not (one_sided and lab[0])]
            rows = list(tensors._ideal_rows(k, n, series, one_sided))
            assert [label for label, _ in rows] == want
            for (pre, ri, suf), row in rows:
                terms = dict(row)
                assert len(terms) == len(row)
                # E(r) has constant term 1, so E(r) - 1 is its other terms
                expansion = magnus_oracle(P.relators[ri], ring, n)
                product = {pre + m + suf: c for m, c in expansion.items()
                           if m and len(pre) + len(m) + len(suf) <= n}
                assert canon_terms(ring, terms) == product


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


def test_weight_graded_monomials_refuses_past_the_cap(monkeypatch):
    monkeypatch.setattr(tensors, "MAX_MONOMIALS", 15)
    assert len(weight_graded_monomials(2, 3)) == 15  # 1 + 2 + 4 + 8
    with pytest.raises(ValueError, match="more than 15 words of length <= 4 on 2 letters"):
        weight_graded_monomials(2, 4)
    monkeypatch.undo()
    # the wedge of three circles at n = 12 stays within the cap
    assert sum(3**p for p in range(13)) == 797_161 <= tensors.MAX_MONOMIALS


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


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_surface_group_ranks_are_labutes_series(genus):
    """The graded group ring of the genus-g surface group is torsion-free
    with Hilbert series 1/(1 - 2g t + t^2) (Labute, 1970), so the ranks
    per weight are its coefficients c_p = 2g c_(p-1) - c_(p-2) on every
    ring."""
    gens = [f"{x}{i}" for i in range(1, genus + 1) for x in "ab"]
    relator = " ".join(f"a{i} b{i} a{i}^-1 b{i}^-1" for i in range(1, genus + 1))
    P = parse_presentation(f"gens: {' '.join(gens)}\nrel: {relator}\n")
    series = [1, 2 * genus]
    while len(series) < 5:
        series.append(2 * genus * series[-1] - series[-2])
    for ring in (Z, Ring.rationals(), Z2, Ring.integers_mod(4)):
        for n in range(5):
            assert finite_type_basis(P, ring, n).ranks_per_weight == series[: n + 1], ring.spec


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
# class-function check
# ---------------------------------------------------------------------------


def test_is_class_function_homomorphism_plus_constant_passes():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, P.gens, {(0,): 1, (): 5})
    assert is_class_function(T, P).ok


def test_is_class_function_pure_pair_fails_with_witness():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, P.gens, {(0, 1): 1})
    verdict = is_class_function(T, P)
    assert not verdict.ok
    assert verdict.witness is not None and "conjugation" in verdict.witness
    assert not bool(verdict)


def test_is_class_function_symmetrization_passes():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, P.gens, {(0, 1): 1, (1, 0): 1})
    verdict = is_class_function(T, P)
    assert verdict.ok and bool(verdict)


def test_is_class_function_catches_relator_insertion():
    P = parse_presentation(CYCLIC_2)
    T = BraidingTensor(Z, P.gens, {(0,): 1})
    verdict = is_class_function(T, P)
    assert not verdict.ok
    assert "relator insertion" in verdict.witness


def test_is_class_function_respects_generator_sets():
    P = parse_presentation(FREE_2)
    T = BraidingTensor(Z, GenSet.of("x"), {(0,): 1})
    with pytest.raises(Exception):
        is_class_function(T, P)


def _random_tensor(rng, ring, gens, weight):
    terms = {}
    for _ in range(3):
        seq = tuple(rng.randrange(len(gens)) for _ in range(rng.randrange(weight + 1)))
        c = rng.randrange(-3, 4)
        terms[seq] = Fraction(c, rng.randrange(1, 4)) if ring.kind == "Q" else c
    return BraidingTensor(ring, gens, terms)


def _checked_tensors(text, ring):
    """A presentation, tensors of weights 0 to 3 and their is_class_function
    verdicts: the class-function basis passes, and finite-type members and
    random tensors mostly fail."""
    P = parse_presentation(text)
    rng = random.Random(f"{text}{ring.spec}")
    tensors = list(classfun._descending_basis(P, ring, 2, cyclic=True))
    members = len(tensors)
    tensors += list(finite_type_basis(P, ring, 2))[1:]
    tensors += [_random_tensor(rng, ring, P.gens, p) for p in (1, 2, 3)]
    # fails on every group but the free one: a relator has nonzero exponent
    # sum in the first generator, or a conjugation moves the pair count
    last = (0, len(P.gens) - 1) if len(P.gens) > 1 and P.relators else (0,)
    tensors.append(BraidingTensor(ring, P.gens, {last: 1}))
    tensors.append(BraidingTensor.zero(ring, P.gens))
    verdicts = [is_class_function(T, P) for T in tensors]
    assert all(v.ok for v in verdicts[:members]) and verdicts[-1].ok
    assert not all(v.ok for v in verdicts)
    return P, tensors, verdicts


WITNESS = re.compile(
    r"conjugation: w = (?P<w>.+), g = (?P<g>.+), g w g\^-1 = (?P<moved>.+)"
    r"|relator insertion: w = (?P<iw>.+) vs (?P<inserted>.+)"
)


@pytest.mark.parametrize("text", [FREE_2, CYCLIC_2, TORUS, KLEIN])
@pytest.mark.parametrize("ring", [Z, Ring.integers_mod(4), Ring.rationals()], ids=str)
def test_is_class_function_witnesses_hold_on_the_group(text, ring):
    """Each failing witness names two words that are equal in G, one a
    conjugate g w g^-1 or a relator insertion r w of the other, on which
    eval_word of the tensor differs."""
    P, tensors, verdicts = _checked_tensors(text, ring)
    for T, v in zip(tensors, verdicts):
        if v.ok:
            continue
        match = WITNESS.fullmatch(v.witness)
        assert match, v.witness
        if match["w"] is not None:
            w, g = parse_word(match["w"], P.gens), parse_word(match["g"], P.gens)
            moved = parse_word(match["moved"], P.gens)
            assert moved == g * w * g.inverse()
        else:
            w, moved = parse_word(match["iw"], P.gens), parse_word(match["inserted"], P.gens)
            assert any(moved == r * w for r in P.relators)
        assert eval_word(T, moved) != eval_word(T, w)


@pytest.mark.parametrize("text", [FREE_2, CYCLIC_2, TORUS, KLEIN])
@pytest.mark.parametrize("ring", [Z, Ring.integers_mod(4), Ring.rationals()], ids=str)
def test_is_class_function_passing_tensors_are_invariant_on_the_group(text, ring):
    """Every passing tensor keeps its value, by eval_word on Word products,
    under seeded conjugations g w g^-1 and under inserting a relator or its
    inverse at each position of w, with |g|, |w| <= 6."""
    P, tensors, verdicts = _checked_tensors(text, ring)
    gens = P.gens
    rng = random.Random(1789)
    pairs = [
        (random_reduced_word(rng, gens, 6), random_reduced_word(rng, gens, 6))
        for _ in range(25)
    ]
    for T in (T for T, v in zip(tensors, verdicts) if v.ok):
        for g, w in pairs:
            base = eval_word(T, w)
            assert eval_word(T, g * w * g.inverse()) == base
            for r in P.relators:
                for i in range(len(w) + 1):
                    head, tail = Word(gens, w.letters[:i]), Word(gens, w.letters[i:])
                    for x in (r, r.inverse()):
                        assert eval_word(T, head * x * tail) == base


def test_class_function_basis_certification_catches_missing_cycle_rows(monkeypatch):
    """With every monomial its own rotation orbit the basis is no longer
    cut down to cycle-invariant tensors (and its one-sided rows no longer
    imply the two-sided ones), and over Z/4 on the Klein bottle
    certification finds a conjugation that changes a value."""
    P = parse_presentation(KLEIN)
    Z4 = Ring.integers_mod(4)
    class_function_basis(P, Z4, 2)  # certified

    def singletons(seqs):
        return [[s] for s in seqs]

    monkeypatch.setattr(tensors, "rotation_orbits", singletons)
    with pytest.raises(AssertionError, match="class-function certification failed: conjugation"):
        class_function_basis(P, Z4, 2)


A2_B3 = "gens: a b\nrel: a^2\nrel: b^3\n"


@pytest.mark.parametrize("text", [TORUS, KLEIN, A2_B3, FREE_2, CYCLIC_2])
@pytest.mark.parametrize(
    "ring", [Z, Ring.integers_mod(4), Ring.integers_mod(6), Ring.rationals()], ids=str
)
def test_complete_check_is_the_descend_and_cycle_conditions(text, ring):
    """The complete check passes T exactly when T kills the two-sided
    descend rows and is cycle-invariant (HH_0 = A/[A, A]); and
    is_class_function, the check at each tensor's own weight, passes the
    same tensors."""
    P = parse_presentation(text)
    rng = random.Random(f"complete{text}{ring.spec}")
    for n in range(4):
        members = list(classfun._descending_basis(P, ring, n, cyclic=True))
        tensors = members + list(finite_type_basis(P, ring, n))
        for T in members:
            seq = tuple(rng.randrange(len(P.gens)) for _ in range(rng.randrange(n + 1)))
            c = rng.randrange(1, 4)
            tensors.append(T + BraidingTensor(ring, P.gens, {seq: c}))
        system = descend_conditions(P, ring, n)
        got = classfun._complete_verdicts(tensors, P, n)
        want = [system.satisfied_by(T) and cycle(T) == T for T in tensors]
        assert [v.ok for v in got] == want
        assert all(want[: len(members)])
        for v in got:
            assert v.ok or v.witness.startswith(("conjugation: w = ", "relator insertion: w = "))
        assert [is_class_function(T, P).ok for T in tensors] == want


@pytest.mark.parametrize("ring", [Z, Ring.integers_mod(4), Ring.rationals()], ids=str)
def test_class_function_basis_certification_catches_missing_relator_rows(monkeypatch, ring):
    """Without its one-sided relator rows the basis holds cycle-invariant
    tensors that do not descend; certification does not go through those
    rows, so it finds a relator insertion that changes a value."""
    P = parse_presentation(KLEIN)
    class_function_basis(P, ring, 2)  # certified
    ideal_rows = tensors._ideal_rows

    def two_sided_only(k, n, series, one_sided):
        if not one_sided:
            yield from ideal_rows(k, n, series, one_sided)

    monkeypatch.setattr(tensors, "_ideal_rows", two_sided_only)
    with pytest.raises(
        AssertionError, match="class-function certification failed: relator insertion"
    ):
        class_function_basis(P, ring, 2)


@pytest.mark.parametrize("text", [TORUS, KLEIN, A2_B3, FREE_2, CYCLIC_2])
@pytest.mark.parametrize(
    "ring", [Z, Ring.integers_mod(4), Ring.integers_mod(6), Ring.rationals()], ids=str
)
def test_complete_check_without_cyclic_is_the_descend_conditions(text, ring):
    """Without cyclic the complete check passes T exactly when T kills the
    two-sided descend rows, and each witness names a positive word w =
    u v and u r v, equal in G, on which eval_word of the tensor differs."""
    P = parse_presentation(text)
    rng = random.Random(f"two-sided{text}{ring.spec}")
    failures = 0
    for n in range(4):
        members = list(finite_type_basis(P, ring, n))
        tensors = members + list(classfun._descending_basis(P, ring, n, cyclic=True))
        for T in members:
            seq = tuple(rng.randrange(len(P.gens)) for _ in range(rng.randrange(n + 1)))
            tensors.append(T + BraidingTensor(ring, P.gens, {seq: rng.randrange(1, 4)}))
        system = descend_conditions(P, ring, n)
        got = classfun._complete_verdicts(tensors, P, n, cyclic=False)
        assert [v.ok for v in got] == [system.satisfied_by(T) for T in tensors]
        assert all(v.ok for v in got[: len(members)])
        for T, verdict in zip(tensors, got):
            if verdict.ok:
                continue
            failures += 1
            match = WITNESS.fullmatch(verdict.witness)
            assert verdict.witness.startswith("relator insertion: w = ") and match, verdict.witness
            w, moved = parse_word(match["iw"], P.gens), parse_word(match["inserted"], P.gens)
            splits = [(Word(P.gens, w.letters[:i]), Word(P.gens, w.letters[i:]))
                      for i in range(len(w.letters) + 1)]
            assert any(moved == u * r * v for u, v in splits for r in P.relators)
            assert eval_word(T, moved) != eval_word(T, w)
    assert failures or not P.relators


@pytest.mark.parametrize(
    "text, n",
    [(TORUS, 3), (TORUS, 0), (KLEIN, 4), (A2_B3, 3), (FREE_2, 2), (CYCLIC_2, 5)],
)
def test_complete_check_cost(monkeypatch, text, n):
    """Certification makes sum_(p=1..n) k^p rotation checks and
    |R| sum_(p<n) k^p front insertions; without cyclic there are
    |R| sum_(p<n) (p+1) k^p two-sided insertions and no rotations.  Each
    spelling is expanded once, as one letter step on from its prefix, and
    each E(u r) as r's letters stepped on from E(u): only E(1) is fresh."""
    P = parse_presentation(text)
    k, relators = len(P.gens), len(P.relators)
    checks = list(classfun._complete_checks(P, n))
    rotations = sum(k**p for p in range(1, n + 1))
    insertions = relators * sum(k**p for p in range(n))
    assert len(checks) == rotations + insertions
    assert all(g is not None for _, _, g in checks[:rotations])
    assert all(g is None for _, _, g in checks[rotations:])
    if text == TORUS and n == 3:
        assert len(checks) == 21
    two_sided = list(classfun._complete_checks(P, n, cyclic=False))
    assert len(two_sided) == relators * sum((p + 1) * k**p for p in range(n))
    assert all(g is None for _, _, g in two_sided)
    basis = class_function_basis(P, Z, n)
    expand = classfun.MagnusPlan.expand

    def letter_steps(cyclic):
        expanded = []

        def counting(plan, letters, start=None):
            expanded.append(tuple(letters) if start is None else len(letters))
            return expand(plan, letters, start)

        monkeypatch.setattr(classfun.MagnusPlan, "expand", counting)
        assert all(classfun._complete_verdicts(basis.elements, P, n, cyclic=cyclic))
        monkeypatch.setattr(classfun.MagnusPlan, "expand", expand)
        assert expanded[0] == ()
        assert not any(isinstance(x, tuple) for x in expanded[1:])
        return expanded[1:]

    def sweep(depth):
        return [1] * sum(k**p for p in range(1, depth + 1))

    want = sweep(n)
    for r in P.relators if n else ():
        want += [len(r.letters)] + sweep(n - 1)
    assert letter_steps(True) == want
    want = sweep(n)
    for r in P.relators:
        for u in range(n):
            want += ([len(r.letters)] + sweep(n - 1 - u)) * k**u
    assert letter_steps(False) == want


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


@pytest.mark.parametrize("text", [TORUS, FREE_2], ids=["torus", "free2"])
def test_oracle_echelons_only_saturation_and_final_kernel(monkeypatch, text):
    """The stage rows are never echelonned over classes: a saturated run
    makes two echelon calls for the saturation check and one for the
    final Hom kernel, whatever n."""
    P = parse_presentation(text)
    echelon = classfun._echelon
    calls = []

    def counting(ring, rows, start=0):
        calls.append(len(rows))
        return echelon(ring, rows, start)

    monkeypatch.setattr(classfun, "_echelon", counting)
    for n in range(4):
        calls.clear()
        oracle_group_ring_quotient(P, Z, n, n + 1)
        assert len(calls) == 3, (n, calls)


def test_oracle_expands_only_the_classes_it_reads(monkeypatch):
    """The Hom span is read on the base classes, a prefix of the class
    order, and each class's Magnus expansion is built when first read:
    on the free group at n = 3 most of the ball is never expanded."""
    P = parse_presentation(FREE_2)
    expand = classfun.MagnusPlan.expand
    expanded = []

    def counting(plan, letters, start=None):
        expanded.append(tuple(letters))
        return expand(plan, letters, start)

    monkeypatch.setattr(classfun.MagnusPlan, "expand", counting)
    rep = oracle_group_ring_quotient(P, Z, 3, 4)
    assert len(set(expanded)) == len(expanded)
    assert len(rep.table.words) <= len(expanded) < rep.class_count
    assert set(expanded) >= {w.letters for w in rep.table.words}


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6"])
@pytest.mark.parametrize("gens, n", [("a b", n) for n in range(4)] + [("a b c", n) for n in range(2)])
def test_oracle_free_group_closed_forms(gens, n, spec):
    """On the free group of rank k, Hom(R[F]/I^(d+1), R) is free of rank
    sum_(p<=d) k^p, every reduced word is its own class, and the oracle's
    pairing table is the finite-type basis's."""
    P, ring = parse_presentation(f"gens: {gens}\n"), Ring.from_spec(spec)
    k, L = len(P.gens), n + 1
    rep = oracle_group_ring_quotient(P, ring, n, L)
    assert rep.ranks == tuple(sum(k**p for p in range(d + 1)) for d in range(n + 1))
    assert rep.class_count == classfun._ball_size(k, L + n + 1, MAX_ORACLE_WORDS)
    assert pairing_tables_agree(finite_type_basis(P, ring, n).elements, rep)


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


@pytest.mark.parametrize("m", [5, 6, 7])
def test_oracle_refuses_a_relator_longer_than_its_ball(m):
    """No word of the ball of radius L + n + 1 takes a relator of more than
    2 (L + n + 1) letters.  a^m b^-(m-1) has 2m - 1 letters and a nonzero
    degree-1 term, so at n = 1 the oracle refuses L = m - 3 and names
    L = m - 2, where it agrees with the pipeline: the group is Z, with one
    function of each degree up to 1."""
    P = parse_presentation(f"gens: a b\nrel: a^{m} b^-{m - 1}\n")
    for ring in (Z, Ring.integers_mod(4), Ring.rationals()):
        with pytest.raises(NotSaturatedError) as info:
            oracle_group_ring_quotient(P, ring, 1, m - 3)
        assert info.value.code == "not_saturated"
        assert str(info.value) == (
            f"no word of length <= {m - 1} takes the relator a^{m} b^-{m - 1} of "
            f"{2 * m - 1} letters; raise the length bound to at least {m - 2}")
        report = oracle_group_ring_quotient(P, ring, 1, m - 2)
        assert report.ranks == (1, 2)
        assert pairing_tables_agree(finite_type_basis(P, ring, 1).elements, report)
        # at n = 0 every relator is 1 modulo I, and the oracle never refuses
        assert oracle_group_ring_quotient(P, ring, 0, 1).ranks == (1,)


def test_oracle_takes_a_long_relator_that_vanishes_below_its_type_bound():
    """[a, b]^3 has 12 letters, more than any word of the ball of radius 4
    takes, but E([a, b]^3) - 1 starts in degree 2: at n = 1 it is 0 in the
    quotient, so the oracle runs, and gives the free group's ranks."""
    gens = GenSet.of("a", "b")
    P = Presentation(gens, (parse_word("a b a^-1 b^-1", gens) ** 3,))
    report = oracle_group_ring_quotient(P, Z, 1, 2)
    assert report.ranks == (1, 3)
    assert pairing_tables_agree(finite_type_basis(P, Z, 1).elements, report)


def _reference_partition(P, full_len):
    """Classes of the word ball from Words: every relator insertion is a
    Word product, merged in a plain union-find."""
    ball = [w.letters for w in words_up_to(P.gens, full_len)]
    parent = {w: w for w in ball}

    def find(w):
        while parent[w] != w:
            w = parent[w]
        return w

    for letters in ball:
        for r in P.relators:
            for x in (r, r.inverse()):
                for cut in range(len(letters) + 1):
                    moved = (Word(P.gens, letters[:cut]) * x * Word(P.gens, letters[cut:])).letters
                    if len(moved) <= full_len:
                        parent[find(letters)] = find(moved)
    classes = {}
    for w in ball:
        classes.setdefault(find(w), set()).add(w)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize(
    "text, full_len",
    [
        (TORUS, 5),
        (KLEIN, 5),
        ("gens: a b\nrel: a^2\nrel: b^3\n", 5),
        (CYCLIC_2, 6),
        (FREE_2, 4),
        ("gens: a b c\nrel: a b c a^-1 b^-1 c^-1\n", 5),
        ("gens: a b\nrel: a b a^-1 b^-1\nrel: a^3\n", 6),
        ("gens: a b\nrel: a b a^-1\n", 6),  # not cyclically reduced
    ],
)
def test_enumerate_classes_matches_word_reference(text, full_len):
    P = parse_presentation(text)
    reps, index = _enumerate_classes(P, full_len)
    # the whole ball, keyed by letter tuples in (length, letters) order
    ball = [w.letters for w in words_up_to(P.gens, full_len)]
    assert list(index) == sorted(ball, key=lambda w: (len(w), w))
    assert all(isinstance(w, tuple) and all(isinstance(x, tuple) for x in w) for w in reps)
    ours = {}
    for letters, cls in index.items():
        ours.setdefault(cls, set()).add(letters)
    assert {frozenset(c) for c in ours.values()} == _reference_partition(P, full_len)
    # each representative is its class's first member in (length, letters) order
    assert reps == sorted(reps, key=lambda w: (len(w), w))
    for cls, members in ours.items():
        assert reps[cls] == min(members, key=lambda w: (len(w), w))


def test_enumerate_classes_counts():
    for N in range(5):
        reps, index = _enumerate_classes(parse_presentation(FREE_2), N)
        assert len(reps) == len(index) == 1 + 2 * (3 ** N - 1)
    # <s | s^2>: s = s^-1, represented by s^-1, first in letter-tuple order
    reps, _ = _enumerate_classes(parse_presentation(CYCLIC_2), 6)
    assert reps == [(), ((0, -1),)]


def _unpruned_enumeration(P, full_len):
    """_enumerate_classes building every insertion, with no length prefilter."""
    words = sorted(_reduced_spellings(P.gens, full_len), key=lambda w: (len(w), w))
    position = {w: i for i, w in enumerate(words)}
    inserted = [x for r in P.relators for x in (r.letters, r.inverse().letters)]
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, w in enumerate(words):
        for cut in range(len(w) + 1):
            for r in inserted:
                w2 = _join(_join(w[:cut], r), w[cut:])
                if len(w2) <= full_len:
                    a, b = find(i), find(position[w2])
                    parent[max(a, b)] = min(a, b)
    reps, index, class_of_root = [], {}, {}
    for i, w in enumerate(words):
        root = find(i)
        if root == i:
            class_of_root[i] = len(reps)
            reps.append(w)
        index[w] = class_of_root[root]
    return reps, index


@pytest.mark.parametrize(
    "text, radii",
    [
        (TORUS, 7),
        (KLEIN, 6),
        ("gens: a b\nrel: a^2\nrel: b^3\n", 6),
        ("gens: a b\nrel: a b a^-1 b^-2\n", 6),
        (FREE_2, 6),
        ("gens: a b c\nrel: a b c a^-1 b^-1 c^-1\n", 5),
        (CYCLIC_2, 7),
        (FREE_1, 7),
    ],
)
def test_enumerate_classes_prefilter_matches_unpruned_loop(text, radii):
    P = parse_presentation(text)
    for full_len in range(radii + 1):
        assert _enumerate_classes(P, full_len) == _unpruned_enumeration(P, full_len)


@pytest.mark.parametrize(
    "text",
    [
        "gens: a b\nrel: a b a^-1\n",  # not cyclically reduced
        "gens: a b\nrel: a b a^-1 b^-1\nrel: a^3\n",  # two relator lengths
        "gens: a b\nrel: a b a b^-1 a\n",  # odd length
    ],
)
def test_enumerate_classes_cancellation_splits_match_unpruned_loop(text):
    """The insertions that must cancel to stay in the ball are built from
    splits x = a v b; relators whose splits are uneven, of two lengths, or
    whose middle (b a)^-1 is not reduced give the same classes as building
    every insertion."""
    P = parse_presentation(text)
    for full_len in range(7):
        assert _enumerate_classes(P, full_len) == _unpruned_enumeration(P, full_len)


def test_oracle_klein_over_z_without_coefficient_swell():
    """Over Z the relation stages of the Klein bottle at n=3, L=4 once
    swelled to entries of half a million bits and did not finish."""
    P = parse_presentation(KLEIN)
    rep = oracle_group_ring_quotient(P, Z, 3, 4)
    assert rep.ranks == (1, 2, 3, 4)
    assert pairing_tables_agree(finite_type_basis(P, Z, 3).elements, rep)


def test_oracle_refuses_oversized_ball_before_enumerating():
    # 1 + 2k ((2k-1)^N - 1) / (2k-2) words of length <= N = L + n + 1
    assert classfun._ball_size(2, 8, 10**9) == 13121
    assert classfun._ball_size(1, 7, 10**9) == 15
    assert classfun._ball_size(3, 0, 10**9) == 1
    assert classfun._ball_size(2, 10**9, 100) <= 100 + 4 * 3**5
    P = parse_presentation(TORUS)
    with pytest.raises(ValueError, match=f"more than {MAX_ORACLE_WORDS} words"):
        oracle_group_ring_quotient(P, Z, 1, 40)
    with pytest.raises(ValueError, match="more than"):
        oracle_group_ring_quotient(parse_presentation(FREE_1), Z, 0, 10**9)


def test_pairing_tables_contained():
    P = parse_presentation(KLEIN)
    Z4 = Ring.integers_mod(4)
    rep = oracle_group_ring_quotient(P, Z4, 2, 3)
    cf = class_function_basis(P, Z4, 2)
    assert not pairing_tables_agree(cf.elements, rep)
    assert pairing_tables_contained(cf.elements, rep)
    assert pairing_tables_contained(finite_type_basis(P, Z4, 2).elements, rep)
    # binomial(exponent sum of a, 2) has type 2 on the torus, not type 1
    P = parse_presentation(TORUS)
    rep = oracle_group_ring_quotient(P, Z, 1, 3)
    square = BraidingTensor(Z, P.gens, {(0, 0): 1})
    assert pairing_tables_contained(class_function_basis(P, Z, 1).elements, rep)
    assert not pairing_tables_contained((square,), rep)


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


def test_basis_file_rejects_negative_rank():
    """ranks [2, -1] sum to one tensor but would record two entry weights."""
    obj = basis_to_obj(finite_type_basis(parse_presentation(FREE_2), Z, 1))
    bad = dict(obj, ranks_per_weight=[2, -1], tensors=obj["tensors"][:1])
    with pytest.raises(ValueError, match="ranks_per_weight entries must be >= 0"):
        basis_from_obj(bad)


def test_basis_file_rejects_negative_weight_bound():
    obj = basis_to_obj(finite_type_basis(parse_presentation(FREE_2), Z, 1))
    bad = dict(obj, n=-1, ranks_per_weight=[], tensors=[])
    with pytest.raises(ValueError, match="weight bound must be >= 0, got -1"):
        basis_from_obj(bad)
