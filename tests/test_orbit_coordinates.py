"""Second route for the H^0 and class-function pipelines.

The pipelines solve in rotation-orbit coordinates: cycle-invariant
vectors are free on the necklace sums, and class functions need only the
one-sided descend rows.  Here the kernel is computed the long way, on
word coordinates, from the stacked dense system [M; sigma - 1] with the
two-sided descend matrix, and the results must agree exactly: the same
elements with their terms in the same order, entry weights and
annihilators.
"""

import pytest

from letterbraid import classfun
from letterbraid.barcyc import BarElement, bar_differential, h0_cyc
from letterbraid.classfun import descend_conditions, parse_presentation
from letterbraid.dga import cochain_algebra, torus_model, wedge_model
from letterbraid.rings import IntMatrix, Ring, filtered_kernel
from letterbraid.tensors import weight_graded_monomials

RINGS = ["Z", "Q", "Z/4", "Z/6"]

PRESENTATIONS = {
    "torus": "gens: a b\nrel: a b a^-1 b^-1\n",
    "free1": "gens: a\n",
    "free2": "gens: a b\n",
    "free3": "gens: a b c\n",
    "klein": "gens: a b\nrel: a b a b^-1\n",
    "a2b3": "gens: a b\nrel: a a\nrel: b b b\n",
    "abc": "gens: a b c\nrel: a b c a^-1 b^-1 c^-1\n",
}


def sigma_minus_one_rows(ring, seqs):
    """Row t reads x(t rotated by one) - x(t), zero for t of length <= 1."""
    index = {s: j for j, s in enumerate(seqs)}
    rows = []
    for t in seqs:
        row = [0] * len(seqs)
        if len(t) > 1:
            row[index[t[1:] + t[:1]]] += 1
            row[index[t]] -= 1
        rows.append(row)
    return rows


def stacked_kernel(ring, rows, seqs, n):
    """filtered_kernel of the dense stack [rows; sigma - 1], each vector
    as its (sequence, coefficient) terms in the order of seqs."""
    M = IntMatrix.from_rows(ring, rows + sigma_minus_one_rows(ring, seqs))
    vectors, added, anns = filtered_kernel(M, [len(s) for s in seqs], n)
    terms = [[(s, c) for s, c in zip(seqs, v) if c] for v in vectors]
    return terms, added, anns


@pytest.mark.parametrize("spec", RINGS)
def test_h0_cyc_matches_the_stacked_sigma_system(spec):
    ring = Ring.from_spec(spec)
    for model in (torus_model(), wedge_model(1), wedge_model(2), wedge_model(3)):
        A = cochain_algebra(model, ring)
        for n in range(4):
            seqs = weight_graded_monomials(A.dim(1), n)
            images = [
                bar_differential(BarElement.word(A, tuple((1, i) for i in s))).terms
                for s in seqs
            ]
            keys = list(dict.fromkeys(key for image in images for key in image))
            rows = [[image.get(key, 0) for image in images] for key in keys]
            terms, added, anns = stacked_kernel(ring, rows, seqs, n)
            H = h0_cyc(A, n)
            got = [[(tuple(i for _, i in word), c) for word, c in x.terms.items()] for x in H]
            assert got == terms, (model.name, n)
            assert H.added_at_weight == added
            assert H.annihilators == anns


@pytest.mark.parametrize("spec", RINGS)
def test_class_function_basis_matches_the_stacked_two_sided_system(spec):
    ring = Ring.from_spec(spec)
    for name, text in PRESENTATIONS.items():
        P = parse_presentation(text)
        for n in range(4):
            system = descend_conditions(P, ring, n)
            terms, added, anns = stacked_kernel(
                ring, system.matrix.to_rows(), list(system.columns), n
            )
            B = classfun._descending_basis(P, ring, n, cyclic=True)
            assert [list(T.terms.items()) for T in B] == terms, (name, n)
            assert B.added_at_weight == added
            assert B.annihilators == anns
