"""The oracle in short-class coordinates against the oracle on all classes.

`oracle_group_ring_quotient` runs its linear algebra on the classes S_d of
positive words of length <= d.  The reference below is the same oracle on
all c class columns: per-stage echelon forms of the product rows together
with one Fox-expansion rewrite row per class, kernels over range(c), and
saturation by unit vectors.  Reports and NotSaturatedError texts must be
identical, types of entries included.
"""

import itertools
import random

import pytest

from letterbraid.classfun import (
    NotSaturatedError,
    OracleReport,
    PairingTable,
    _enumerate_classes,
    oracle_group_ring_quotient,
    parse_presentation,
)
from letterbraid.rings import (
    IntMatrix,
    Ring,
    _echelon,
    _rank,
    _vector_annihilator,
    canon_terms,
    filtered_kernel,
    row_canonical_form,
)
from letterbraid.words import MagnusPlan, Word, _join, _reduced_spellings

PRESENTATIONS = {
    "torus": "gens: a b\nrel: a b a^-1 b^-1\n",
    "klein": "gens: a b\nrel: a b a b^-1\n",
    "a2_b3": "gens: a b\nrel: a^2\nrel: b^3\n",
    "s2": "gens: s\nrel: s^2\n",
    "free2": "gens: a b\n",
    "aba": "gens: a b\nrel: a b a^-1\n",
    "comm_a3": "gens: a b\nrel: a b a^-1 b^-1\nrel: a^3\n",
}
RINGS = ("Z", "Q", "Z/2", "Z/4", "Z/6")
# n <= 3 and L <= 3 with a ball of radius L + n + 1 <= 7
CORPUS = [
    (name, spec, n, L)
    for name in PRESENTATIONS
    for spec in RINGS
    for n in range(4)
    for L in range(1, 4)
    if L + n + 1 <= 7
]


def _rewrite_rows(ring, k, reps, index, d):
    """One relation row per class: [v] minus its Fox expansion through
    classes of positive words of length <= d."""
    monos = [m for p in range(1, d + 1) for m in itertools.product(range(k), repeat=p)]
    plan = MagnusPlan(monos)
    mono_vectors = []
    for mono in monos:
        acc = {}
        for size in range(len(mono) + 1):
            sign = 1 if (len(mono) - size) % 2 == 0 else -1
            for chosen in itertools.combinations(mono, size):
                cls = index[tuple((g, 1) for g in chosen)]
                acc[cls] = acc.get(cls, 0) + sign
        mono_vectors.append((plan.index[mono], tuple(acc.items())))
    rows = []
    for cls, letters in enumerate(reps):
        values = plan.expand(letters)
        row = {cls: 1}
        row[index[()]] = row.get(index[()], 0) - 1
        for node, vector in mono_vectors:
            for tgt, mult in vector:
                row[tgt] = row.get(tgt, 0) - values[node] * mult
        row = canon_terms(ring, row)
        if row:
            rows.append(row)
    return rows


def reference_oracle(P, ring, n, length_bound):
    """oracle_group_ring_quotient with every relation row over all classes."""
    k = len(P.gens)
    reps, index = _enumerate_classes(P, length_bound + n + 1)
    c = len(reps)
    o = ring.one()
    base_classes = sorted({index[w] for w in _reduced_spellings(P.gens, length_bound)})
    current = [{cls: o} for cls in base_classes]
    stages = []
    for d in range(n + 1):
        nxt = []
        for row in current:
            for g in range(k):
                shifted = {}
                for j, x in row.items():
                    tgt = index[_join(((g, 1),), reps[j])]
                    shifted[tgt] = shifted.get(tgt, 0) + x
                    shifted[j] = shifted.get(j, 0) - x
                nxt.append(canon_terms(ring, shifted))
        current = _echelon(ring, nxt)
        stages.append(_echelon(ring, current + _rewrite_rows(ring, k, reps, index, d)))

    def with_units(rows, classes):
        return _echelon(ring, rows + [{cls: o} for cls in classes])

    shorter = sorted({index[w] for w in _reduced_spellings(P.gens, length_bound - 1)})
    spanned = with_units(stages[n], shorter)
    if with_units(spanned, base_classes) != spanned:
        cls = next(cls for cls in base_classes if with_units(spanned, [cls]) != spanned)
        raise NotSaturatedError(
            f"words up to length {length_bound} do not saturate the quotient "
            f"(class of {Word(P.gens, reps[cls]).to_text()} is new); raise the bound"
        )
    ranks = []
    for stage in stages:
        kernel = [v for _, v in filtered_kernel(ring, stage, dict.fromkeys(range(c), 0))]
        ranks.append(_rank(ring, kernel, c))
    z = ring.zero()
    words = tuple(Word(P.gens, reps[cls]) for cls in base_classes)
    hom = tuple(v.get(cls, z) for v in kernel for cls in base_classes)
    table = PairingTable(
        words,
        IntMatrix(ring, len(kernel), len(words), hom),
        tuple(_vector_annihilator(ring, v.values()) for v in kernel),
    )
    return OracleReport(ring, n, length_bound, c, tuple(ranks), table)


def _outcome(route, name, spec, n, L):
    P = parse_presentation(PRESENTATIONS[name])
    try:
        return repr(route(P, Ring.from_spec(spec), n, L))
    except NotSaturatedError as exc:
        return f"NotSaturatedError: {exc}"


# The reference takes minutes on the free group's balls of radius 6 and 7
# (1,457 and 4,373 classes); the rest of the corpus takes seconds.
FAST = [case for case in CORPUS if case[0] != "free2" or case[2] + case[3] <= 4]
SAMPLE = random.Random(14).sample(FAST, 80)


@pytest.mark.parametrize("name, spec, n, L", SAMPLE)
def test_short_class_oracle_matches_all_class_reference(name, spec, n, L):
    assert _outcome(oracle_group_ring_quotient, name, spec, n, L) == _outcome(
        reference_oracle, name, spec, n, L
    )


def test_sample_covers_both_outcomes():
    outcomes = [_outcome(oracle_group_ring_quotient, *case) for case in SAMPLE]
    assert any(o.startswith("NotSaturatedError") for o in outcomes)
    assert any(o.startswith("OracleReport") for o in outcomes)


def test_not_saturated_only_when_length_bound_at_most_n():
    """When L > n the classes S_n of positive words of length <= n lie
    among the classes of words shorter than L, so the rewriting rows alone
    saturate: NotSaturatedError comes only with L <= n, where it does
    arise.  (A relator longer than 2 (L + n + 1) is refused at any L; the
    corpus relators have at most 4 letters, which every ball takes.)"""
    raised = {True: 0, False: 0}
    for name, spec, n, L in FAST:
        outcome = _outcome(oracle_group_ring_quotient, name, spec, n, L)
        raised[L > n] += outcome.startswith("NotSaturatedError")
    assert raised[True] == 0
    assert raised[False] > 0


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_base_and_shorter_classes_are_prefixes_of_the_class_order(name):
    """Classes are numbered by their first words, sorted by length, so the
    classes of words of length <= L, and of length < L, are prefixes."""
    P = parse_presentation(PRESENTATIONS[name])
    reps, index = _enumerate_classes(P, 6)
    for L in range(6):
        classes = {index[w] for w in _reduced_spellings(P.gens, L)}
        assert classes == set(range(sum(len(w) <= L for w in reps)))


# Fixed cases next to the sample, so the stage rows, the Q-only clearing of
# denominators and the saturation failure run whatever the sample draws,
# with one NotSaturatedError case per ring in RINGS.  The free group at
# (n, L) = (2, 2) is not saturated (L <= n); at (1, 2) over Q it reaches
# the final kernel.
FIXED = [
    ("free2", "Q", 2, 2),
    ("free2", "Z/6", 2, 2),
    ("free2", "Q", 1, 2),
    ("klein", "Z/4", 2, 3),
    ("klein", "Q", 2, 3),
]
NOT_SATURATED = [
    ("torus", "Z", 2, 2),
    ("klein", "Q", 2, 1),
    ("a2_b3", "Z/2", 2, 1),
    ("comm_a3", "Z/4", 2, 1),
    ("aba", "Z/6", 3, 2),
]


@pytest.mark.parametrize("name, spec, n, L", FIXED + NOT_SATURATED)
def test_fixed_cases_match_all_class_reference(name, spec, n, L):
    outcome = _outcome(oracle_group_ring_quotient, name, spec, n, L)
    assert outcome == _outcome(reference_oracle, name, spec, n, L)
    if (name, spec, n, L) in NOT_SATURATED:
        assert outcome.startswith("NotSaturatedError")


@pytest.mark.parametrize("name", list(PRESENTATIONS)[:6])
def test_pairing_table_is_its_own_row_canonical_form(name):
    """The oracle builds the table's rows with _echelon, so the pairing
    comparisons read the table as it is, without echelonning it again."""
    P = parse_presentation(PRESENTATIONS[name])
    saturated = 0
    for spec in RINGS:
        for n in range(4):
            for L in range(1, min(4, 6 - n) + 1):
                try:
                    table = oracle_group_ring_quotient(P, Ring.from_spec(spec), n, L).table
                except NotSaturatedError:
                    continue
                saturated += 1
                assert row_canonical_form(table.matrix) == table.matrix, (spec, n, L)
    assert saturated
