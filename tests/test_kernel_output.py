"""Kernel output through the one trusted constructor.

h0_bar, h0_cyc, finite_type_basis and class_function_basis build their
members with Combination._canonical, which checks nothing.  Each member
must be exactly what the public constructor makes of the same terms:
equal, with the same terms in the same order, coefficients of the same
types, and the same instance fields in the same order.  The public
constructors keep every check, including the refusal of indices that
are not ints.
"""

import random

import pytest

from letterbraid import barcyc, classfun, rings, tensors
from letterbraid.barcyc import BarElement, CycElement, _d_bar_series, h0_bar, h0_cyc
from letterbraid.classfun import class_function_basis, finite_type_basis, parse_presentation
from letterbraid.dga import cochain_algebra, random_two_complex, torus_model, wedge_model
from letterbraid.rings import Ring
from letterbraid.tensors import BraidingTensor, _orbit_kernel, eval_letters, rotation_orbits
from letterbraid.words import GenSet, UnknownGeneratorError, Word, WordSyntaxError

RINGS = ["Z", "Z/4", "Z/6", "Q"]

PRESENTATIONS = {
    "torus": "gens: a b\nrel: a b a^-1 b^-1\n",
    "klein": "gens: a b\nrel: a b a b^-1\n",
    "genus2": "gens: a b c d\nrel: a b a^-1 b^-1 c d c^-1 d^-1\n",
}


def _models():
    models = [torus_model(), wedge_model(2), wedge_model(3)]
    for seed in range(3):
        rng = random.Random(f"trusted-output-{seed}")
        models.append(random_two_complex(rng, rng.randint(2, 3), rng.randint(1, 3)))
    return models


def _length_lex(keys) -> bool:
    keys = list(keys)
    return keys == sorted(keys, key=lambda s: (len(s), s))


def assert_same_as_public(x, public):
    assert type(x) is type(public)
    assert x == public
    assert list(x.terms.items()) == list(public.terms.items())
    assert [type(c) for c in x.terms.values()] == [type(c) for c in public.terms.values()]
    assert list(vars(x)) == list(vars(public))


@pytest.mark.parametrize("spec", RINGS)
def test_h0_members_equal_the_validated_elements(spec):
    ring = Ring.from_spec(spec)
    for model in _models():
        A = cochain_algebra(model, ring)
        for h0 in (h0_bar, h0_cyc):
            for n in range(5):
                for x in h0(A, n):
                    assert_same_as_public(x, BarElement(A, dict(x.terms)))
                    assert _length_lex(x.terms), (model.name, h0.__name__, n)


@pytest.mark.parametrize("spec", RINGS)
def test_basis_members_equal_the_validated_tensors(spec):
    ring = Ring.from_spec(spec)
    for name, text in PRESENTATIONS.items():
        P = parse_presentation(text)
        for basis in (finite_type_basis, class_function_basis):
            for n in range(5):
                for T in basis(P, ring, n):
                    assert_same_as_public(T, BraidingTensor(ring, P.gens, dict(T.terms)))
                    assert _length_lex(T.terms), (name, basis.__name__, n)


@pytest.mark.parametrize("spec", RINGS)
def test_orbit_kernel_members_come_in_length_lex_order(spec):
    """Each member lists its words shorter first, lex within a length; with
    cyclic it holds whole rotation orbits, one coefficient per orbit."""
    ring = Ring.from_spec(spec)
    cases = [(cochain_algebra(m, ring), None) for m in _models()]
    cases += [(None, parse_presentation(text)) for text in PRESENTATIONS.values()]
    for A, P in cases:
        for n in range(5):
            if A is not None:
                k, series = A.dim(1), _d_bar_series(A)
            else:
                k, series = len(P.gens), classfun._relator_series(P, n)
            for cyclic in (False, True):
                for member in _orbit_kernel(ring, k, series, n, cyclic)[0]:
                    assert _length_lex(member)
                    assert all(c and ring.canon(c) == c for c in member.values())
                    if cyclic:
                        for orbit in rotation_orbits(list(member)):
                            assert {member.get(s) for s in orbit} == {member[orbit[0]]}


def test_no_check_runs_while_the_output_is_built(monkeypatch):
    """After the kernel returns, building the members calls neither _key
    nor canon_terms, for the H^0 elements and the tensors alike."""
    counts = {"key": 0, "canon_terms": 0}
    real_kernel, real_canon_terms = tensors._orbit_kernel, rings.canon_terms

    def kernel(*args):
        out = real_kernel(*args)
        counts.update(key=0, canon_terms=0)  # count only what the output costs
        return out

    def canon_terms(*args):
        counts["canon_terms"] += 1
        return real_canon_terms(*args)

    for cls in (BarElement, BraidingTensor):
        real_key = cls._key

        def key(self, seq, real_key=real_key):
            counts["key"] += 1
            return real_key(self, seq)

        monkeypatch.setattr(cls, "_key", key)
    monkeypatch.setattr(rings, "canon_terms", canon_terms)
    monkeypatch.setattr(tensors, "canon_terms", canon_terms)
    for module in (barcyc, classfun):
        monkeypatch.setattr(module, "_orbit_kernel", kernel)
    ring = Ring.from_spec("Z/4")
    A = cochain_algebra(torus_model(), ring)
    P = parse_presentation(PRESENTATIONS["klein"])
    for build in (
        lambda: h0_bar(A, 3),
        lambda: h0_cyc(A, 3),
        lambda: finite_type_basis(P, ring, 3),
        lambda: classfun._descending_basis(P, ring, 3, cyclic=True),
    ):
        assert len(build()) > 1
        assert counts == {"key": 0, "canon_terms": 0}


# ---------------------------------------------------------------------------
# the public constructors refuse indices that are not ints
# ---------------------------------------------------------------------------

AB = GenSet.of("a", "b")
Z = Ring.from_spec("Z")


@pytest.mark.parametrize("letter", [(0.0, 1), (True, 1), (1.0, -1), (False, -1)])
def test_word_refuses_an_index_that_is_not_an_int(letter):
    with pytest.raises(UnknownGeneratorError):
        Word(AB, (letter,))
    with pytest.raises(UnknownGeneratorError):
        eval_letters(BraidingTensor.pure(Z, AB, ("a",)), [letter])


@pytest.mark.parametrize("letter", [(0, 1.0), (0, True), (1, -1.0)])
def test_word_refuses_a_sign_that_is_not_an_int(letter):
    with pytest.raises(WordSyntaxError):
        Word(AB, (letter,))
    with pytest.raises(WordSyntaxError):
        eval_letters(BraidingTensor.pure(Z, AB, ("a",)), [letter])


@pytest.mark.parametrize("seq", [(0.5,), (0.0,), (True,), (0, False)])
def test_tensor_refuses_an_index_that_is_not_an_int(seq):
    with pytest.raises(UnknownGeneratorError):
        BraidingTensor(Z, AB, {seq: 1})


@pytest.mark.parametrize("slot", [(1, 0.0), (1.0, 0), (True, 0), (1, False)])
def test_bar_element_refuses_a_slot_that_is_not_ints(slot):
    A = cochain_algebra(torus_model(), Z)
    with pytest.raises(ValueError, match="invalid tensor slot"):
        BarElement(A, {(slot,): 1})
    with pytest.raises(ValueError, match="invalid tensor slot"):
        CycElement(A, "A", {((0, 0), (slot,)): 1})
    with pytest.raises(ValueError, match="invalid m0 slot"):
        CycElement(A, "A", {(slot, ()): 1})


def test_int_letters_and_slots_are_still_accepted():
    A = cochain_algebra(torus_model(), Z)
    assert Word(AB, ((0, 1), (1, -1))).to_text() == "a b^-1"
    assert BraidingTensor(Z, AB, {(0, 1): 1}).terms == {(0, 1): 1}
    assert BarElement(A, {((1, 0),): 1}).terms == {((1, 0),): 1}
    assert eval_letters(BraidingTensor.pure(Z, AB, ("a",)), [(0, 1), (0, 1)]) == 2
