"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single summary line
(visible with ``pytest -s``; under plain ``pytest -v`` the per-test
PASSED/FAILED line carries the same information).  Criterion 10's
external target had the wrong sign for the reversed commutator: it
asked for -1 on a^-1 b^-1 a b, but that word is conjugate to
a b a^-1 b^-1 (by a b), and a weight-2 invariant takes one value on
conjugate words of zero exponent sums.  The target is corrected to +1,
and the test now also asserts the conjugacy that forces it (see
tests/test_tensors.py::test_pair_tensor_on_inverted_commutator for the
same value checked against a brute-force oracle).
"""

import itertools
import random

from letterbraid.barcyc import (
    BarElement,
    CycElement,
    bar_differential,
    cyc_differential,
    h0_bar,
    h0_cyc,
    include_in_A,
    iota,
    sigma,
    tau,
)
from letterbraid.classfun import (
    class_function_basis,
    finite_type_basis,
    is_class_function,
    oracle_group_ring_quotient,
    pairing_tables_agree,
    parse_presentation,
    weight_graded_monomials,
)
from letterbraid.dga import circle_model, cochain_algebra, torus_model, wedge_algebra
from letterbraid.rings import IntMatrix, Ring
from letterbraid.tensors import BraidingTensor, cycle, eval_word
from letterbraid.words import (
    GenSet,
    conjugate,
    parse_word,
    random_reduced_word,
    words_up_to,
)
from linalg_reference import in_column_span
from magnus_reference import minus_one_product
from necklace_reference import coinvariant_rank, cycle_invariant_basis

Z = Ring.integers()


def _report(num, label, ok, detail=""):
    line = f"criterion {num:02d} {label}: {'pass' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_circle_cyclic_ranks():
    basis = h0_cyc(cochain_algebra(circle_model(), Z), 5)
    ok = basis.ranks_per_weight == [1, 1, 1, 1, 1, 1] and basis.total_rank == 6
    _report(1, "circle cyc-h0 ranks", ok, f"got {basis.ranks_per_weight}")


def _necklace_count(k, p):
    seen = set()
    for t in itertools.product(range(k), repeat=p):
        seen.add(min(t[i:] + t[:i] for i in range(p)) if p else t)
    return len(seen)


def test_criterion_02_wedge_necklaces():
    A = wedge_algebra(("a", "b"), Z)
    cyc = h0_cyc(A, 4)
    bar = h0_bar(A, 4)
    orbit_counts = [_necklace_count(2, p) for p in range(5)]
    ok = (
        cyc.ranks_per_weight == [1, 2, 3, 4, 6]
        and bar.ranks_per_weight == [1, 2, 4, 8, 16]
        and cyc.ranks_per_weight == orbit_counts
    )
    _report(
        2,
        "wedge necklace ranks",
        ok,
        f"cyc {cyc.ranks_per_weight}, bar {bar.ranks_per_weight}, orbits {orbit_counts}",
    )


def test_criterion_03_wedge_coinvariants():
    got = [coinvariant_rank(("a", "b"), p) for p in range(1, 5)]
    _report(3, "wedge coinvariant ranks", got == [2, 3, 4, 6], f"got {got}")


def test_criterion_04_monomial_identity():
    checked = 0
    ok = True
    for k in range(1, 4):
        gens = GenSet(tuple("abc"[:k]))
        letters = [parse_word(name, gens) for name in gens.names]
        # (s_{i_1} - 1)...(s_{i_m} - 1) as signed words
        monomials = [
            (mono, list(minus_one_product(gens, [letters[i] for i in mono])))
            for m in range(5)
            for mono in itertools.product(range(k), repeat=m)
        ]
        for p in range(4):
            for seq in itertools.product(range(k), repeat=p):
                T = BraidingTensor(Z, gens, {seq: 1})
                for mono, x in monomials:
                    want = 1 if seq == mono else 0
                    if sum(sign * eval_word(T, w) for w, sign in x) != want:
                        ok = False
                    checked += 1
    _report(4, "monomial pairing identity", ok, f"after {checked} pairings")


def _random_cycle_invariant(rng, gens, max_weight):
    terms = {(): rng.randint(-3, 3)}
    for p in range(1, max_weight + 1):
        for B in cycle_invariant_basis(gens, p, Z):
            c = rng.randint(-3, 3)
            if c:
                for seq, base in B.terms.items():
                    terms[seq] = terms.get(seq, 0) + c * base
    return BraidingTensor(Z, gens, terms)


def _find_conjugation_witness(T, gens, cap=6):
    for max_w, max_g in ((3, 2), (4, 3), (cap, cap)):
        for w in words_up_to(gens, max_w):
            for g in words_up_to(gens, max_g):
                if g.is_identity():
                    continue
                if eval_word(T, conjugate(g, w)) != eval_word(T, w):
                    return g, w
    return None


def test_criterion_05_cycle_vs_conjugation():
    gens = GenSet.of("a", "b")
    rng = random.Random(1789)

    invariant_ok = True
    for _ in range(1000):
        T = _random_cycle_invariant(rng, gens, 4)
        assert cycle(T) == T
        g = random_reduced_word(rng, gens, 6)
        w = random_reduced_word(rng, gens, 6)
        if eval_word(T, conjugate(g, w)) != eval_word(T, w):
            invariant_ok = False
            break

    witnesses_ok = True
    for _ in range(100):
        while True:
            terms = {}
            for _ in range(rng.randint(1, 4)):
                p = rng.randint(2, 3)
                seq = tuple(rng.randrange(2) for _ in range(p))
                terms[seq] = terms.get(seq, 0) + rng.randint(-3, 3)
            T = BraidingTensor(Z, gens, terms)
            if cycle(T) != T:
                break
        if _find_conjugation_witness(T, gens) is None:
            witnesses_ok = False
            break

    ok = invariant_ok and witnesses_ok
    _report(
        5,
        "cycle-invariance vs conjugation",
        ok,
        "invariant tensor violated conjugation"
        if not invariant_ok
        else "no witness within length 6",
    )


def test_criterion_06_chain_identity():
    algebras = (
        cochain_algebra(torus_model(), Z),
        wedge_algebra(("a", "b"), Z),
    )
    ok = True
    for A in algebras:
        k = A.dim(1)
        for p in range(4):
            for s in itertools.product(range(k), repeat=p):
                x = BarElement.word(A, tuple((1, i) for i in s))
                lhs = cyc_differential(tau(x))
                rhs = include_in_A(iota(sigma(x) - x)) + tau(bar_differential(x))
                if lhs != rhs:
                    ok = False
    _report(6, "connecting chain identity", ok)


def test_criterion_07_cyclic_differential_squares_to_zero():
    A = cochain_algebra(torus_model(), Z)
    pool = A.augmentation_ideal_basis()
    m0_pool = [(d, i) for d in range(len(A.basis)) for i in range(A.dim(d))]
    rng = random.Random(1789)
    ok = True
    for _ in range(500):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            while True:
                p = rng.randint(0, 3)
                seq = tuple(rng.choice(pool) for _ in range(p))
                m0 = rng.choice(m0_pool)
                degree = m0[0] + sum(d - 1 for d, _ in seq)
                if degree <= 2:
                    break
            terms[(m0, seq)] = Z.from_int(rng.randint(-3, 3))
        x = CycElement(A, "A", terms)
        if not cyc_differential(cyc_differential(x)).is_zero():
            ok = False
            break
    _report(7, "cyclic differential squares to zero", ok)


def test_criterion_08_oracle_agreement():
    cases = [
        ("gens: s\nrel: s^2\n", Z, 3),
        ("gens: s\nrel: s^2\n", Ring.integers_mod(2), 3),
        ("gens: s\nrel: s^3\n", Ring.integers_mod(3), 4),
        ("gens: a b\nrel: a b a^-1 b^-1\n", Z, 3),
    ]
    ok = True
    fail = ""
    for text, ring, L in cases:
        P = parse_presentation(text)
        for n in range(4):
            report = oracle_group_ring_quotient(P, ring, n, L)
            ft = finite_type_basis(P, ring, n)
            cf = class_function_basis(P, ring, n)
            if len(ft) != report.ranks[n] or len(cf) != report.ranks[n]:
                ok = False
                fail = f"{P!r} over {ring.spec} at n={n}: ranks differ"
            elif not (
                pairing_tables_agree(ft.elements, report)
                and pairing_tables_agree(cf.elements, report)
            ):
                ok = False
                fail = f"{P!r} over {ring.spec} at n={n}: pairings differ"
    _report(8, "group-ring oracle agreement", ok, fail)


def test_criterion_09_klein_bottle_pullback():
    P = parse_presentation("gens: a b\nrel: a b a b^-1\n")
    ft = finite_type_basis(P, Z, 2)
    cf = class_function_basis(P, Z, 2)
    columns = weight_graded_monomials(2, 2)

    def coords(T):
        return [T.coefficient(m) for m in columns]

    passing = [T for T in ft if is_class_function(T, P).ok]
    cf_span = IntMatrix.from_columns(Z, [coords(T) for T in cf], len(columns))
    ok = all(in_column_span(cf_span, coords(T)) for T in passing)
    if passing:
        pass_span = IntMatrix.from_columns(
            Z, [coords(T) for T in passing], len(columns)
        )
        ok = ok and all(in_column_span(pass_span, coords(T)) for T in cf)
    else:
        ok = ok and len(cf) == 0
    _report(
        9,
        "Klein bottle class-check/basis span equality",
        ok,
        f"{len(passing)} members pass is_class_function vs {len(cf)} basis members",
    )


def test_criterion_10_commutator_linking_values():
    gens = GenSet.of("a", "b")
    T = BraidingTensor(Z, gens, {(0, 1): 1})
    sym = BraidingTensor(Z, gens, {(0, 1): 1, (1, 0): 1})
    comm = parse_word("a b a^-1 b^-1", gens)
    rev = parse_word("a^-1 b^-1 a b", gens)
    # rev = (a b)^-1 . comm . (a b), so the two words are conjugate.
    # For w with zero exponent sums, <a|b>(g w g^-1) = <a|b>(w): every
    # cross term carries a factor a(w) or b(w), which is 0, and what
    # remains besides <a|b>(w), <a|b>(g) + <a|b>(g^-1) + a(g) b(g^-1),
    # is <a|b>(g g^-1) = 0.
    # The same holds for <b|a>, so T and sym take equal values on comm
    # and rev.  The original external target was (1, -1, 0, 0); -1 is
    # the value of T on the inverse commutator b a b^-1 a^-1 instead.
    assert conjugate(parse_word("a b", gens).inverse(), comm) == rev
    got = (
        eval_word(T, comm),
        eval_word(T, rev),
        eval_word(sym, comm),
        eval_word(sym, rev),
    )
    required = (1, 1, 0, 0)
    _report(
        10,
        "commutator linking values",
        got == required,
        f"got {got}, required {required}",
    )
