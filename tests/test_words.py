import random
from math import comb

import pytest

from letterbraid.rings import Ring
from letterbraid.words import (
    GenSet,
    GroupRingElement,
    MagnusPlan,
    MonomialCombination,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    augmentation,
    conjugate,
    fox_expand,
    parse_word,
    random_reduced_word,
    word_minus_one,
    words_up_to,
    _join,
)

Z = Ring.integers()
AB = GenSet.of("a", "b")
S1 = GenSet.of("s")


# ---------------------------------------------------------------------------
# Words and parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    w = parse_word("a b^-1 a^2", AB)
    assert w.letters == ((0, 1), (1, -1), (0, 1), (0, 1))
    assert parse_word("", AB).is_identity()
    assert parse_word("1", AB).is_identity()
    assert parse_word("a a^-1", AB).is_identity()


# the last two are refused by the letter cap, before any letter list is
# built; the very last before int() sees its 5000 digits
@pytest.mark.parametrize(
    "bad", ["a^", "^2", "2a", "a^1.5", "a b^", "a^1000000000000", "a^" + "9" * 5000]
)
def test_parse_syntax_errors(bad):
    with pytest.raises(WordSyntaxError):
        parse_word(bad, AB)


def test_parse_zero_exponent():
    with pytest.raises(WordSyntaxError):
        parse_word("a^0", AB)


def test_parse_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        parse_word("a x", AB)


def test_reduction_is_canonical():
    # a b a^-1 * a b^-1 reduces all the way down to a
    w1 = parse_word("a b a^-1", AB)
    w2 = parse_word("a b^-1", AB)
    assert (w1 * w2).to_text() == "a"
    assert (w1 * w1.inverse()).is_identity()


def test_reduction_random_insertions():
    # inserting a cancelling pair anywhere leaves the reduced word unchanged
    rng = random.Random(20260823)
    for _ in range(200):
        w = random_reduced_word(rng, AB, 8)
        pos = rng.randrange(0, len(w.letters) + 1)
        g = rng.randrange(len(AB))
        s = rng.choice((1, -1))
        spelled = w.letters[:pos] + ((g, s), (g, -s)) + w.letters[pos:]
        assert Word(AB, spelled) == w


def test_to_text_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        w = random_reduced_word(rng, AB, 10)
        assert parse_word(w.to_text(), AB) == w
    assert Word.identity(AB).to_text() == "1"
    assert parse_word("a^-3 b", AB).to_text() == "a^-3 b"


def test_conjugate():
    g = parse_word("a", AB)
    w = parse_word("b", AB)
    assert conjugate(g, w).to_text() == "a b a^-1"
    assert conjugate(Word.identity(AB), w) == w


def test_pow():
    s = parse_word("s", S1)
    assert (s**3).to_text() == "s^3"
    assert (s**-2).to_text() == "s^-2"
    assert (s**0).is_identity()


def test_words_up_to_order_and_count():
    ws = list(words_up_to(AB, 2))
    # 1 + 4 + 12 reduced words
    assert len(ws) == 17
    assert ws[0].is_identity()
    assert [w.to_text() for w in ws[1:5]] == ["a", "a^-1", "b", "b^-1"]
    lengths = [len(w) for w in ws]
    assert lengths == sorted(lengths)
    assert len(set(ws)) == len(ws)


# ---------------------------------------------------------------------------
# Group ring
# ---------------------------------------------------------------------------


def test_group_ring_product_expands_binomially():
    a = word_minus_one(Z, parse_word("a", AB))
    b = word_minus_one(Z, parse_word("b", AB))
    prod = a * b
    expected = {
        parse_word("a b", AB): 1,
        parse_word("a", AB): -1,
        parse_word("b", AB): -1,
        Word.identity(AB): 1,
    }
    assert prod.terms == expected
    assert augmentation(prod) == 0
    assert augmentation(GroupRingElement.from_word(Z, parse_word("a", AB), 5)) == 5


def test_group_ring_zero_cleanup():
    x = GroupRingElement.from_word(Z, parse_word("a", AB))
    y = x - x
    assert y.terms == {}


# ---------------------------------------------------------------------------
# Truncated expansion: frozen values and the independent series oracle
# ---------------------------------------------------------------------------


def magnus_oracle(w: Word, ring: Ring, n: int) -> dict:
    """Independent route: substitute s -> 1 + X_s, s^-1 -> 1 - X_s + X_s^2 - ...

    Plain polynomial multiplication in the truncated free algebra; no use
    of the Magnus sweep the library implements.
    """
    poly = {(): ring.one()}
    for g, s in w.letters:
        if s == 1:
            factor = {(): ring.one(), (g,): ring.one()}
        else:
            factor = {(g,) * k: ring.from_int((-1) ** k) for k in range(0, n + 1)}
        out = {}
        for m1, c1 in poly.items():
            for m2, c2 in factor.items():
                if len(m1) + len(m2) <= n:
                    key = m1 + m2
                    out[key] = ring.add(out.get(key, ring.zero()), ring.mul(c1, c2))
        poly = {m: c for m, c in out.items() if c != ring.zero()}
    return poly


def test_fox_expand_commutator_frozen():
    r = parse_word("a b a^-1 b^-1", AB)
    e = fox_expand(GroupRingElement.from_word(Z, r), 2)
    # expansion of the commutator: 1 + (a-1)(b-1) - (b-1)(a-1) up to degree 2
    assert e.terms == {(): 1, (0, 1): 1, (1, 0): -1}


def test_fox_expand_square_and_inverse_frozen():
    s2 = fox_expand(GroupRingElement.from_word(Z, parse_word("s^2", S1)), 2)
    assert s2.terms == {(): 1, (0,): 2, (0, 0): 1}
    sinv = fox_expand(GroupRingElement.from_word(Z, parse_word("s^-1", S1)), 3)
    assert sinv.terms == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}


def test_fox_expand_matches_series_oracle():
    rng = random.Random(31)
    for ring in (Z, Ring.rationals(), Ring.integers_mod(6)):
        for _ in range(60):
            w = random_reduced_word(rng, AB, 6)
            n = rng.randrange(0, 5)
            got = fox_expand(GroupRingElement.from_word(ring, w), n).terms
            assert got == magnus_oracle(w, ring, n), (w.to_text(), n)


def test_fox_expand_is_multiplicative():
    rng = random.Random(37)
    # Chen's identity E(uv) = E(u) E(v): short words, then long ones
    for max_len in [5] * 40 + [3000] * 6:
        exact = rng.randrange(1000, max_len + 1) if max_len > 5 else None
        u = random_reduced_word(rng, AB, max_len, exact_len=exact)
        v = random_reduced_word(rng, AB, max_len, exact_len=exact)
        n = rng.randrange(0, 5)
        eu = fox_expand(GroupRingElement.from_word(Z, u), n)
        ev = fox_expand(GroupRingElement.from_word(Z, v), n)
        euv = fox_expand(GroupRingElement.from_word(Z, u * v), n)
        assert eu.multiply(ev).terms == euv.terms


def test_fox_expand_of_long_powers_is_binomial():
    # (1 + x)^k - 1 and (1 + x)^-k - 1, far past any recursion depth
    k, n = 5000, 4
    for sign, coeff in ((1, lambda p: comb(k, p)),
                        (-1, lambda p: (-1) ** p * comb(k + p - 1, p))):
        w = Word(S1, ((0, sign),) * k)
        e = fox_expand(word_minus_one(Z, w), n)
        assert e.terms == {(0,) * p: coeff(p) for p in range(1, n + 1)}


def test_fox_expand_kills_deep_filtration():
    # products of n+1 augmentation-zero factors expand to zero up to degree n
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(1, 4)
        prod = GroupRingElement.one(Z, AB)
        for _ in range(n + 1):
            w = random_reduced_word(rng, AB, 3, exact_len=rng.randrange(1, 4))
            prod = prod * word_minus_one(Z, w)
        e = fox_expand(prod, n)
        assert e.terms == {}, (n, prod.terms)


def test_fox_expand_linear():
    x = GroupRingElement.from_word(Z, parse_word("a b", AB), 2)
    y = GroupRingElement.from_word(Z, parse_word("b a", AB), -3)
    n = 3
    lhs = fox_expand(x + y, n).terms
    rhs = (fox_expand(x, n) + fox_expand(y, n)).terms
    assert lhs == rhs


def test_fox_expand_mod2_drops_even_terms():
    ring = Ring.integers_mod(2)
    e = fox_expand(GroupRingElement.from_word(ring, parse_word("s^2", S1)), 2)
    assert e.terms == {(): 1, (0, 0): 1}


def test_monomial_combination_truncates():
    m = MonomialCombination.monomial(Z, AB, (0, 1), 2)
    m2 = m.multiply(m)
    assert m2.terms == {}  # degree 4 > bound 2
    assert m.multiply(MonomialCombination.monomial(Z, AB, (), 2)).terms == m.terms


def test_power_adds_exponents():
    rng = random.Random(41)
    for _ in range(40):
        w = random_reduced_word(rng, AB, 6)
        j, k = rng.randint(-5, 5), rng.randint(-5, 5)
        assert w ** j * w ** k == w ** (j + k)
    assert (parse_word("a b a^-1", AB) ** 3).to_text() == "a b^3 a^-1"


def test_power_of_commutator_is_one_reduction_pass():
    comm = parse_word("a b a^-1 b^-1", AB)
    assert len((comm ** 4000).letters) == 16000
    assert (comm ** -4000) == (comm ** 4000).inverse()


def test_junction_reduction_is_free_reduction():
    rng = random.Random(20261018)
    for _ in range(400):
        x = random_reduced_word(rng, AB, 7)
        # a suffix of x inverted makes long cancellations likely
        y = random_reduced_word(rng, AB, 5) if rng.random() < 0.5 else (
            Word(AB, x.letters[rng.randint(0, len(x)):]).inverse()
            * random_reduced_word(rng, AB, 3))
        assert _join(x.letters, y.letters) == Word(AB, x.letters + y.letters).letters


def test_magnus_expand_continues_from_start():
    """Sweeping v from the values of E(u) gives E(u v), and leaves them as
    they were."""
    rng = random.Random(11)
    plan = MagnusPlan((0, 1, 1, 0) + m for m in [(), (1,), (0, 0)])
    for _ in range(50):
        u = random_reduced_word(rng, AB, 6).letters
        v = random_reduced_word(rng, AB, 6).letters
        start = plan.expand(u)
        kept = list(start)
        assert plan.expand(v, start) == plan.expand(u + v)
        assert start == kept
