"""Tensor evaluation tests.

The key oracles here are `braid_oracle`, a direct enumeration of placement
tuples, and `magnus_oracle`, the word's series by polynomial products;
neither shares code with the Magnus sweep in the library.
"""

import json
import random

import pytest

from letterbraid.rings import Ring, ShapeError
from letterbraid.tensors import (
    BraidingTensor,
    cycle,
    cycle_invariant_basis,
    eval_letters,
    eval_word,
    tensor_from_obj,
    tensor_to_obj,
)
from letterbraid.words import (
    GenSet,
    GeneratorMismatchError,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    parse_word,
    random_reduced_word,
)
from magnus_reference import magnus_oracle, minus_one_product

Z = Ring.integers()
Q = Ring.rationals()

AB = GenSet.of("a", "b")
S = GenSet.of("s")


def braid_oracle(seq, letters, ring):
    """Sum over all placements of the slots on the letters.

    Slot j must match its letter's generator, contributes the letter's
    sign, and must sit strictly after the previous slot when that slot's
    letter is positive, weakly after when it is an inverse.
    """
    total = ring.zero()
    p = len(seq)

    def rec(slot, start, prod):
        nonlocal total
        if slot == p:
            total = ring.add(total, prod)
            return
        for i in range(start, len(letters)):
            g, s = letters[i]
            if g != seq[slot]:
                continue
            nxt = i + 1 if s == 1 else i
            rec(slot + 1, nxt, ring.mul(prod, ring.from_int(s)))

    rec(0, 0, ring.one())
    return total


def oracle_eval(T, letters):
    acc = T.ring.zero()
    for seq, c in T.terms.items():
        acc = T.ring.add(acc, T.ring.mul(c, braid_oracle(seq, letters, T.ring)))
    return acc


def random_tensor(rng, ring, gens, max_weight=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        p = rng.randint(0, max_weight)
        seq = tuple(rng.randrange(len(gens)) for _ in range(p))
        terms[seq] = ring.from_int(rng.randint(-4, 4))
    return BraidingTensor(ring, gens, terms)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_single_dual_counts_signed_occurrences():
    T = BraidingTensor.pure(Z, AB, ("a",))
    assert eval_word(T, parse_word("a b a", AB)) == 2
    assert eval_word(T, parse_word("a^-3 b a", AB)) == -2
    assert eval_word(T, parse_word("b", AB)) == 0


def test_pair_tensor_on_commutator():
    T = BraidingTensor.pure(Z, AB, ("a", "b"))
    comm = parse_word("a b a^-1 b^-1", AB)
    assert eval_word(T, comm) == 1
    Trev = BraidingTensor.pure(Z, AB, ("b", "a"))
    assert eval_word(Trev, comm) == -1
    # the symmetric combination vanishes on the commutator
    assert eval_word(T + Trev, comm) == 0


def test_pair_tensor_on_inverted_commutator():
    # conjugation-inverted spelling of the commutator: value stays +1
    # (it is the commutator of a^-1, b^-1 up to conjugation, and the
    # weight-2 value only sees the degree-2 series coefficient)
    T = BraidingTensor.pure(Z, AB, ("a", "b"))
    w = parse_word("a^-1 b^-1 a b", AB)
    assert eval_word(T, w) == 1
    assert braid_oracle((0, 1), w.letters, Z) == 1


def test_repeated_dual_counts_pairs():
    T = BraidingTensor.pure(Z, S, ("s", "s"))
    for k in range(9):
        w = Word(S, ((0, 1),) * k)
        assert eval_word(T, w) == k * (k - 1) // 2
    # on s^-k the series (1+X)^-k has X^2 coefficient k(k+1)/2
    for k in range(1, 5):
        w = Word(S, ((0, -1),) * k)
        assert eval_word(T, w) == k * (k + 1) // 2


def test_weight_zero_is_constant():
    T = BraidingTensor.scalar(Z, AB, 7)
    assert eval_word(T, Word.identity(AB)) == 7
    assert eval_word(T, parse_word("a b^-2", AB)) == 7


def test_identity_word_kills_positive_weight():
    T = BraidingTensor.pure(Z, AB, ("a", "b", "a"))
    assert eval_word(T, Word.identity(AB)) == 0


# ---------------------------------------------------------------------------
# oracle cross-checks and invariance properties
# ---------------------------------------------------------------------------


def test_dp_matches_enumeration_oracle():
    rng = random.Random(20260823)
    rings = [Z, Q, Ring.integers_mod(6)]
    for trial in range(120):
        ring = rings[trial % 3]
        T = random_tensor(rng, ring, AB)
        w = random_reduced_word(rng, AB, max_len=7)
        assert eval_word(T, w) == oracle_eval(T, w.letters)


def test_unreduced_spellings_give_same_value():
    rng = random.Random(11)
    # (word length, cancelling pairs inserted): short words, then long ones
    cases = [(6, None)] * 80 + [(2500, 300)] * 4
    for max_len, pairs in cases:
        T = random_tensor(rng, Z, AB)
        exact = max_len if pairs else None
        w = random_reduced_word(rng, AB, max_len=max_len, exact_len=exact)
        letters = list(w.letters)
        for _ in range(pairs or rng.randint(1, 4)):
            i = rng.randint(0, len(letters))
            g = rng.randrange(len(AB))
            s = rng.choice((1, -1))
            letters[i:i] = [(g, s), (g, -s)]
        assert eval_letters(T, tuple(letters)) == eval_word(T, w)
        if pairs:
            # a long cancelling block u u^-1 inserted in the middle
            u = random_reduced_word(rng, AB, max_len=500, exact_len=500)
            i = len(letters) // 2
            letters[i:i] = list(u.letters) + list(u.inverse().letters)
            assert eval_letters(T, tuple(letters)) == eval_word(T, w)


@pytest.mark.parametrize(
    "letters, error",
    [
        ([(0, 1), (5, 1)], UnknownGeneratorError),  # no generator 5
        ([(-1, 1)], UnknownGeneratorError),
        ([(0, 2)], WordSyntaxError),  # not read as a
        ([(0, 0)], WordSyntaxError),  # not read as a^-1
    ],
    ids=["index-5", "index--1", "sign-2", "sign-0"],
)
def test_eval_letters_refuses_what_word_refuses(letters, error):
    T = BraidingTensor(Z, AB, {(0,): 1, (1, 1): 1})
    with pytest.raises(error):
        Word(AB, tuple(letters))
    with pytest.raises(error):
        eval_letters(T, letters)


def test_value_matches_series_coefficients():
    # independent route: the word's truncated series, by polynomial
    # products, paired against the tensor coefficients
    rng = random.Random(99)
    # (ring, word length): short words over Z, then words of 2000+ letters
    cases = [(Z, None)] * 60 + [(ring, 2000) for ring in (Z, Ring.integers_mod(4), Q)] * 3
    for ring, long_len in cases:
        T = random_tensor(rng, ring, AB, max_weight=3)
        if long_len is None:
            w = random_reduced_word(rng, AB, max_len=6)
        else:
            w = random_reduced_word(rng, AB, 0, exact_len=long_len + rng.randrange(500))
        series = magnus_oracle(w, ring, 3)
        expect = ring.zero()
        for seq, c in T.terms.items():
            expect = ring.add(expect, ring.mul(c, series.get(seq, ring.zero())))
        assert eval_word(T, w) == expect


def eval_minus_one_product(T, factors):
    """The linear extension of eval_word to (w_1 - 1)...(w_k - 1)."""
    return sum(sign * eval_word(T, w) for w, sign in minus_one_product(T.gens, factors))


def test_monomial_evaluation_reads_off_coefficients():
    # on (s_{i_1} - 1)...(s_{i_k} - 1) a tensor reads off its coefficient
    # at (i_1, ..., i_k), in every weight
    rng = random.Random(7)
    for _ in range(60):
        T = random_tensor(rng, Z, AB, max_weight=3)
        k = rng.randint(0, 4)
        mono = tuple(rng.randrange(len(AB)) for _ in range(k))
        factors = [Word.generator(AB, AB.names[g]) for g in mono]
        assert eval_minus_one_product(T, factors) == T.terms.get(mono, 0)


def test_products_beyond_weight_evaluate_to_zero():
    # a tensor of weight <= p kills any product of p+1 augmentation-zero
    # factors: that is what finite type means
    rng = random.Random(2024)
    for _ in range(25):
        p = rng.randint(1, 3)
        T = random_tensor(rng, Z, AB, max_weight=p)
        factors = [random_reduced_word(rng, AB, max_len=3) for _ in range(p + 1)]
        assert eval_minus_one_product(T, factors) == 0


def test_nonexample_within_weight():
    T = BraidingTensor.pure(Z, S, ("s", "s"))
    s = Word.generator(S, "s")
    assert eval_minus_one_product(T, [s, s]) == 1


# ---------------------------------------------------------------------------
# cycle operator
# ---------------------------------------------------------------------------


def test_cycle_rotates_pure_tensors():
    T = BraidingTensor.pure(Z, AB, ("a", "b"))
    assert cycle(T) == BraidingTensor.pure(Z, AB, ("b", "a"))
    T3 = BraidingTensor.pure(Z, AB, ("a", "a", "b"))
    assert cycle(T3) == BraidingTensor.pure(Z, AB, ("b", "a", "a"))


def test_cycle_order_divides_weight():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.randint(1, 4)
        T = random_tensor(rng, Z, AB, max_weight=p)
        U = T
        for _ in range(60):  # 60 = lcm(1..4) * 5, a common multiple of all weights
            U = cycle(U)
        assert U == T


def test_cycle_fixes_scalars():
    T = BraidingTensor.scalar(Z, AB, 5)
    assert cycle(T) == T


def necklace_count(k, p):
    # Burnside: (1/p) sum over d | p of phi(d) * k^(p/d)
    def phi(n):
        return sum(1 for i in range(1, n + 1) if _gcd(i, n) == 1)

    def _gcd(a, b):
        while b:
            a, b = b, a % b
        return a

    return sum(phi(d) * k ** (p // d) for d in range(1, p + 1) if p % d == 0) // p


def test_invariant_basis_is_necklace_orbit_sums():
    for k in (1, 2, 3):
        gens = GenSet(tuple(f"g{i}" for i in range(k)))
        for p in (1, 2, 3, 4):
            basis = cycle_invariant_basis(gens, p, Z)
            assert len(basis) == necklace_count(k, p)
            seen = set()
            for T in basis:
                assert cycle(T) == T
                assert all(len(seq) == p for seq in T.terms)
                assert all(c == 1 for c in T.terms.values())
                seen |= set(T.terms)
            # the orbits partition all k^p sequences
            assert len(seen) == k**p


def test_invariant_basis_rejects_weight_zero():
    with pytest.raises(ValueError):
        cycle_invariant_basis(AB, 0, Z)


# ---------------------------------------------------------------------------
# structure and serialization
# ---------------------------------------------------------------------------


def test_component_and_weights():
    T = BraidingTensor(Z, AB, {(): 2, (0,): 1, (0, 1): 3, (1, 0): -1})
    assert T.max_weight() == 2
    assert T.weights() == [0, 1, 2]
    assert T.component(2).terms == {(0, 1): 3, (1, 0): -1}
    assert T.component(5).terms == {}


def test_addition_cancels():
    T = BraidingTensor.pure(Z, AB, ("a", "b"))
    assert (T - T).terms == {}
    assert (T + T).terms == {(0, 1): 2}
    assert T.scale(0).terms == {}


def test_serialization_round_trip():
    rng = random.Random(41)
    for ring in (Z, Q, Ring.integers_mod(5)):
        for _ in range(20):
            T = random_tensor(rng, ring, AB)
            back = tensor_from_obj(tensor_to_obj(T))
            assert back == T


def test_serialization_is_deterministic():
    T = BraidingTensor(Q, AB, {(1, 0): Q.parse("3/2"), (0, 1): -1, (0,): 2})
    s1 = json.dumps(tensor_to_obj(T), sort_keys=True)
    T2 = BraidingTensor(Q, AB, {(0,): 2, (0, 1): -1, (1, 0): Q.parse("3/2")})
    assert json.dumps(tensor_to_obj(T2), sort_keys=True) == s1
    obj = tensor_to_obj(T)
    assert [t["seq"] for t in obj["terms"]] == [["a"], ["a", "b"], ["b", "a"]]


def test_duplicate_terms_accumulate_on_load():
    obj = {
        "ring": "Z",
        "gens": ["a", "b"],
        "terms": [
            {"seq": ["a", "b"], "coeff": "2"},
            {"seq": ["a", "b"], "coeff": "-2"},
            {"seq": ["b"], "coeff": "1"},
        ],
    }
    T = tensor_from_obj(obj)
    assert T.terms == {(1,): 1}


def test_load_rejects_unknown_generator():
    obj = {"ring": "Z", "gens": ["a"], "terms": [{"seq": ["z"], "coeff": "1"}]}
    with pytest.raises(UnknownGeneratorError):
        tensor_from_obj(obj)


def test_eval_rejects_mismatched_generators():
    T = BraidingTensor.pure(Z, AB, ("a",))
    w = Word.generator(S, "s")
    with pytest.raises(GeneratorMismatchError):
        eval_word(T, w)


def test_tensor_sum_rejects_mismatched_rings():
    T = BraidingTensor.pure(Z, AB, ("a",))
    with pytest.raises(ShapeError, match="coefficient rings differ: Z vs Q"):
        T + BraidingTensor.pure(Q, AB, ("a",))
