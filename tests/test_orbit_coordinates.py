"""Second route for the H^0 and class-function pipelines.

The pipelines solve in rotation-orbit coordinates: cycle-invariant
vectors are free on the necklace sums, and on them the one-sided rows
(of d_Bar, or of the descend system) suffice.  Here the kernel is
computed the long way, on word coordinates, from the stacked dense
system [M; sigma - 1] with all of d_Bar or the two-sided descend
matrix, and the results must agree exactly: the same
elements with their terms in the same order, entry weights and
annihilators.
"""

import random

import pytest

from letterbraid import classfun, tensors
from letterbraid.barcyc import BarElement, bar_differential, h0_bar, h0_cyc
from letterbraid.classfun import (
    class_function_basis,
    descend_conditions,
    finite_type_basis,
    parse_presentation,
)
from letterbraid.dga import (
    cochain_algebra,
    random_two_complex,
    torus_model,
    wedge_model,
    wedge_with_trivial_2cells,
)
from letterbraid.rings import (
    IntMatrix,
    Ring,
    _sparse_rows,
    _vector_annihilator,
    filtered_kernel,
)
from letterbraid.tensors import _orbit_kernel, weight_graded_monomials

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
    weights = {j: len(s) for j, s in enumerate(seqs) if len(s) <= n}
    found = filtered_kernel(ring, _sparse_rows(M), weights)
    terms = [[(seqs[j], c) for j, c in sorted(v.items())] for _, v in found]
    anns = tuple(_vector_annihilator(ring, v.values()) for _, v in found)
    return terms, tuple(w for w, _ in found), anns


def _h0_spaces():
    spaces = [torus_model(), wedge_model(1), wedge_model(2), wedge_model(3)]
    spaces.append(wedge_with_trivial_2cells(2))
    for seed in range(3):
        rng = random.Random(f"stacked-sigma-{seed}")
        spaces.append(random_two_complex(rng, rng.randint(2, 3), rng.randint(1, 3)))
    return spaces


@pytest.mark.parametrize("spec", RINGS)
def test_h0_cyc_matches_the_stacked_sigma_system(spec):
    """h0_cyc takes the one-sided d_Bar rows on necklace sums; the stack
    holds d_Bar of every degree-0 word, all of its rows two-sided."""
    ring = Ring.from_spec(spec)
    for model in _h0_spaces():
        A = cochain_algebra(model, ring)
        for n in range(5):
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


def _random_series(rng, k, n, modulus):
    """Random series on k letters, words of length 1..n: repeated words,
    a word against its rotation, and entries that are multiples of the
    modulus, so that projected rows merge entries and vanish."""
    words = [s for s in weight_graded_monomials(k, n) if s]
    series = []
    for _ in range(rng.randint(0, 3) if words else 0):
        terms = []
        for _ in range(rng.randint(0, 3)):
            s = rng.choice(words)
            c = rng.choice([-3, -1, 1, 2])
            kind = rng.randrange(4)
            if kind == 0:
                terms += [(s, c), (s[1:] + s[:1], -c)]
            elif kind == 1:
                terms += [(s, c), (s, rng.choice([c, -c]))]
            elif kind == 2 and modulus:
                terms.append((s, modulus * rng.randint(-2, 2)))
            else:
                terms.append((s, rng.randint(-5, 5)))
        series.append(terms)
    return series


def _kernel_projected_by_hand(ring, k, series, n, cyclic):
    """filtered_kernel on every two-sided row pre·x·suf, summed onto each
    word's least rotation (or the word itself), every row kept, the
    kernel vectors spread back onto the words."""

    def key(s):
        return min((s[i:] + s[:i] for i in range(len(s))), default=s) if cyclic else s

    words = weight_graded_monomials(k, n)
    columns = sorted({key(s) for s in words}, key=lambda s: (len(s), s))
    col = {s: j for j, s in enumerate(columns)}
    projected = []
    for pre in words:
        for suf in words:
            for terms in series if len(pre) + len(suf) < n else ():
                acc = {}
                for m, c in terms:
                    if len(pre) + len(m) + len(suf) <= n:
                        j = col[key(pre + m + suf)]
                        acc[j] = acc.get(j, 0) + c
                projected.append({j: ring.canon(c) for j, c in acc.items() if ring.canon(c)})
    found = filtered_kernel(ring, projected, {j: len(s) for j, s in enumerate(columns)})
    terms = [{s: v[col[key(s)]] for s in words if col[key(s)] in v} for _, v in found]
    anns = tuple(_vector_annihilator(ring, v.values()) for _, v in found)
    return terms, tuple(w for w, _ in found), anns


@pytest.mark.parametrize("spec", RINGS)
def test_orbit_kernel_is_the_filtered_kernel_of_the_projected_rows(spec):
    ring = Ring.from_spec(spec)
    rng = random.Random(f"orbit-kernel-{spec}")
    for trial in range(60):
        k, n = rng.randint(1, 3), rng.randint(0, 3)
        series = _random_series(rng, k, n, ring.modulus or 0)
        for cyclic in (False, True):
            got = _orbit_kernel(ring, k, series, n, cyclic)
            want = _kernel_projected_by_hand(ring, k, series, n, cyclic)
            assert [list(t.items()) for t in got[0]] == [list(t.items()) for t in want[0]]
            assert got[1:] == want[1:], (spec, trial, cyclic)


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6"])
def test_row_order_changes_no_output(monkeypatch, spec):
    """The builder's rows, shuffled, give the same H^0 and the same bases:
    the order of the rows sets the elimination's cost, not its output."""
    ring = Ring.from_spec(spec)
    A = cochain_algebra(torus_model(), ring)
    presentations = [parse_presentation(PRESENTATIONS[name]) for name in ("torus", "klein", "a2b3")]

    def outputs():
        results = [h0(A, 4) for h0 in (h0_bar, h0_cyc)]
        results += [
            basis(P, ring, 4)
            for P in presentations
            for basis in (finite_type_basis, class_function_basis)
        ]
        return [([list(x.terms.items()) for x in B], B.added_at_weight, B.annihilators)
                for B in results]

    want = outputs()
    ideal_rows = tensors._ideal_rows
    rng = random.Random(f"shuffled-rows-{spec}")

    def shuffled(*args):
        rows = list(ideal_rows(*args))
        rng.shuffle(rows)
        return iter(rows)

    monkeypatch.setattr(tensors, "_ideal_rows", shuffled)
    assert outputs() == want
