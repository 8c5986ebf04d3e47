import random
from math import comb

import pytest

from letterbraid.rings import Ring, canon_terms
from letterbraid.tensors import weight_graded_monomials
from letterbraid.words import (
    GenSet,
    MagnusPlan,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    conjugate,
    parse_word,
    random_reduced_word,
    words_up_to,
    _join,
)
from magnus_reference import magnus_oracle, minus_one_product, truncated_product

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
# Truncated expansion: MagnusPlan on every monomial against frozen values and
# the independent series of magnus_reference
# ---------------------------------------------------------------------------


def plan_series(ring, k: int, n: int, combination) -> dict:
    """sum c E(w) over the (word, c) pairs, truncated at degree n, from one
    MagnusPlan of every monomial of degree <= n in k letters."""
    plan = MagnusPlan(weight_graded_monomials(k, n))
    acc = {}
    for w, c in combination:
        values = plan.expand(w.letters)
        for mono, node in plan.index.items():
            acc[mono] = acc.get(mono, 0) + c * values[node]
    return canon_terms(ring, acc)


def test_magnus_commutator_frozen():
    r = parse_word("a b a^-1 b^-1", AB)
    # expansion of the commutator: 1 + (a-1)(b-1) - (b-1)(a-1) up to degree 2
    assert plan_series(Z, 2, 2, [(r, 1)]) == {(): 1, (0, 1): 1, (1, 0): -1}


def test_magnus_square_and_inverse_frozen():
    s2 = plan_series(Z, 1, 2, [(parse_word("s^2", S1), 1)])
    assert s2 == {(): 1, (0,): 2, (0, 0): 1}
    sinv = plan_series(Z, 1, 3, [(parse_word("s^-1", S1), 1)])
    assert sinv == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}


def test_magnus_plan_matches_series_oracle():
    rng = random.Random(31)
    for ring in (Z, Ring.rationals(), Ring.integers_mod(6)):
        for _ in range(60):
            w = random_reduced_word(rng, AB, 6)
            n = rng.randrange(0, 5)
            got = plan_series(ring, 2, n, [(w, 1)])
            assert got == magnus_oracle(w, ring, n), (w.to_text(), n)


def test_magnus_plan_is_multiplicative():
    rng = random.Random(37)
    # Chen's identity E(uv) = E(u) E(v): short words, then long ones
    for max_len in [5] * 40 + [3000] * 6:
        exact = rng.randrange(1000, max_len + 1) if max_len > 5 else None
        u = random_reduced_word(rng, AB, max_len, exact_len=exact)
        v = random_reduced_word(rng, AB, max_len, exact_len=exact)
        n = rng.randrange(0, 5)
        eu = plan_series(Z, 2, n, [(u, 1)])
        ev = plan_series(Z, 2, n, [(v, 1)])
        euv = plan_series(Z, 2, n, [(u * v, 1)])
        assert truncated_product(Z, eu, ev, n) == euv


def test_magnus_plan_of_long_powers_is_binomial():
    # (1 + x)^k - 1 and (1 + x)^-k - 1, far past any recursion depth
    k, n = 5000, 4
    for sign, coeff in ((1, lambda p: comb(k, p)),
                        (-1, lambda p: (-1) ** p * comb(k + p - 1, p))):
        w = Word(S1, ((0, sign),) * k)
        e = plan_series(Z, 1, n, [(w, 1), (Word.identity(S1), -1)])
        assert e == {(0,) * p: coeff(p) for p in range(1, n + 1)}
    # a pure weight-p tensor's monomial on a^k and a^-k at the letter cap
    k = 100_000
    for p in range(1, 6):
        plan = MagnusPlan([(0,) * p, (1, 0)])
        node = plan.index[(0,) * p]
        assert plan.expand(((0, 1),) * k)[node] == comb(k, p)
        assert plan.expand(((0, -1),) * k)[node] == (-1) ** p * comb(k + p - 1, p)


def sparse_plan(rng, depth: int) -> MagnusPlan:
    """The trie of a few monomials on a, b, one of them of length depth."""
    terms = [tuple(rng.randrange(2) for _ in range(rng.randint(0, depth))) for _ in range(2)]
    return MagnusPlan(terms + [tuple(rng.randrange(2) for _ in range(depth))])


def plan_values_of(plan: MagnusPlan, w: Word) -> list:
    """The values a plan should give for w, read off the independent series."""
    series = magnus_oracle(w, Z, max(map(len, plan.index)))
    return [series.get(mono, 0) for mono in sorted(plan.index, key=plan.index.get)]


def test_magnus_runs_match_the_series_oracle():
    """A run of k equal letters is one closed-form step when k exceeds the
    plan's depth D.  Runs of 1, D, D + 1 and 40 letters of either sign,
    between other letters and in unreduced spellings, on tries that hold
    few of the monomials, give the independent series."""
    rng = random.Random(20261021)
    sparse = 0
    for depth in range(1, 5):
        for k in (1, depth, depth + 1, 40):
            for sign in (1, -1):
                for _ in range(3):
                    plan = sparse_plan(rng, depth)
                    sparse += len(plan.index) < len(weight_graded_monomials(2, depth))
                    g = rng.randrange(2)
                    before = random_reduced_word(rng, AB, 3).letters
                    after = random_reduced_word(rng, AB, 3).letters
                    spelling = before + ((g, sign),) * k + after
                    want = plan_values_of(plan, Word(AB, spelling))
                    assert plan.expand(spelling) == want, (depth, k, sign, spelling)
    assert sparse > 60
    # unreduced spellings: runs that cancel in part, several runs in a row
    for text in ["a^5 a^-3", "a^-5 a^3", "a^6 a^-6 b^7", "a^2 a^3 b^-9 b^4 a", "b a^40 a^-41"]:
        runs = [parse_word(token, AB).letters for token in text.split()]
        spelling = sum(runs, ())
        for depth in range(1, 5):
            plan = sparse_plan(rng, depth)
            assert plan.expand(spelling) == plan_values_of(plan, Word(AB, spelling)), text


def test_magnus_run_split_by_start_is_chens_identity():
    """Cutting a spelling inside a long run and continuing from start= gives
    E(u v), which is E(u) E(v) (Chen's identity)."""
    rng = random.Random(20261022)
    for depth in range(1, 5):
        for sign in (1, -1):
            u = random_reduced_word(rng, AB, 4).letters + ((0, sign),) * 9
            v = ((0, sign),) * 8 + random_reduced_word(rng, AB, 4).letters
            uv = Word(AB, u + v)
            plan = sparse_plan(rng, depth)
            for cut in range(len(u) - 9, len(u) + 9):  # every cut in the run
                head, tail = (u + v)[:cut], (u + v)[cut:]
                start = plan.expand(head)
                assert plan.expand(tail, start) == plan_values_of(plan, uv)
            eu = plan_series(Z, 2, depth, [(Word(AB, u), 1)])
            ev = plan_series(Z, 2, depth, [(Word(AB, v), 1)])
            assert truncated_product(Z, eu, ev, depth) == plan_series(Z, 2, depth, [(uv, 1)])


def test_magnus_plan_kills_deep_filtration():
    # products of n+1 augmentation-zero factors expand to zero up to degree n
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(1, 4)
        factors = [random_reduced_word(rng, AB, 3, exact_len=rng.randrange(1, 4))
                   for _ in range(n + 1)]
        e = plan_series(Z, 2, n, minus_one_product(AB, factors))
        assert e == {}, (n, [w.to_text() for w in factors])


def test_magnus_plan_linear():
    x = [(parse_word("a b", AB), 2), (parse_word("b a", AB), -3)]
    n = 3
    lhs = plan_series(Z, 2, n, x)
    rhs = {}
    for w, c in x:
        for mono, e in magnus_oracle(w, Z, n).items():
            rhs[mono] = rhs.get(mono, 0) + c * e
    assert lhs == canon_terms(Z, rhs)
    # 2 (1 + x_a + x_b + x_a x_b) - 3 (1 + x_a + x_b + x_b x_a)
    assert lhs == {(): -1, (0,): -1, (1,): -1, (0, 1): 2, (1, 0): -3}


def test_magnus_plan_mod2_drops_even_terms():
    ring = Ring.integers_mod(2)
    e = plan_series(ring, 1, 2, [(parse_word("s^2", S1), 1)])
    assert e == {(): 1, (0, 0): 1}


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


def test_magnus_plan_on_a_tensor_trie_is_the_restricted_series():
    """What eval_word and certification assume of a plan built from a
    tensor's terms, a prefix-closed set smaller than all monomials: its
    values are the series at its nodes, a sweep continues from given
    values without changing them, and any spelling of a word gives the
    same values."""
    rng = random.Random(20261020)
    # short words, then words of about a thousand letters
    for length in [None] * 40 + [1000] * 3:
        # one term of weight 4: at most 25 nodes, of 31 monomials
        terms = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))) for _ in range(5)]
        plan = MagnusPlan(terms + [tuple(rng.randrange(2) for _ in range(4))])
        n = 4
        assert len(plan.index) < len(weight_graded_monomials(2, n))
        exact = None if length is None else length + rng.randrange(100)
        u = random_reduced_word(rng, AB, 8, exact_len=exact)
        v = random_reduced_word(rng, AB, 8, exact_len=exact)
        if rng.random() < 0.5:  # u + v then cancels across the junction
            v = Word(AB, u.letters[rng.randint(0, len(u)):]).inverse() * v
        series = magnus_oracle(u * v, Z, n)
        want = [series.get(mono, 0) for mono in sorted(plan.index, key=plan.index.get)]
        s = plan.expand(u.letters)
        kept = list(s)
        assert plan.expand(u.letters + v.letters) == want
        assert plan.expand(v.letters, start=s) == want
        assert s == kept
        assert plan.expand((u * v).letters) == want


# ---------------------------------------------------------------------------
# Powers u^k: one interpolation step when |u| >= 2 and k > 2D + 1
# ---------------------------------------------------------------------------

# roots of 2 to 8 letters, as spellings: inverse letters, an internal run
# longer than every depth below, and unreduced roots
POWER_ROOTS = ["a b", "a b^-1", "a^-1 b^-1 a", "a^5 b", "a b a^-1 b^-1", "a a^-1 b",
               "b a^-2 b^3 a^-1", "a b^-1 b a a^-1 b^2 a"]


def spelled(text: str) -> tuple:
    """The letters of a spelling token by token, with no reduction across tokens."""
    return sum((parse_word(token, AB).letters for token in text.split()), ())


def series_power(series: dict, k: int, n: int) -> dict:
    """series^k truncated at degree n, by repeated squaring of the
    independent series."""
    out, square = {(): 1}, series
    while k:
        if k & 1:
            out = truncated_product(Z, out, square, n)
        square, k = truncated_product(Z, square, square, n), k >> 1
    return out


def reference_values(plan: MagnusPlan, series: dict) -> list:
    return [series.get(mono, 0) for mono in sorted(plan.index, key=plan.index.get)]


def primitive(root: tuple) -> bool:
    """Whether a spelling is no power of a shorter one (so no run either)."""
    return not any(len(root) % p == 0 and root[p:] == root[:-p] for p in range(1, len(root)))


def power_cases(rng):
    """(depth, root, plan) over depths 1..4, the fixed roots and random
    primitive spellings of 2..8 letters, each on a sparse and a full trie."""
    for depth in range(1, 5):
        roots = [spelled(text) for text in POWER_ROOTS]
        while len(roots) < len(POWER_ROOTS) + 4:
            root = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(2, 8)))
            roots += [root] if primitive(root) else []
        for root in roots:
            for plan in (sparse_plan(rng, depth), MagnusPlan(weight_graded_monomials(2, depth))):
                yield depth, root, plan


@pytest.fixture
def power_steps(monkeypatch):
    """The (root, k) of every interpolation step taken while the test runs."""
    steps = []
    step = MagnusPlan._power

    def counted(self, values, root, k):
        steps.append((root, k))
        return step(self, values, root, k)

    monkeypatch.setattr(MagnusPlan, "_power", counted)
    return steps


def test_magnus_powers_match_the_series_oracle(power_steps):
    """u^k for k = 2D + 1, which is swept, and 2D + 2, 2D + 3 and 100,
    which are one step each, give the independent series, on sparse and
    full tries; the step runs exactly when k > 2D + 1."""
    rng = random.Random(20261023)
    sparse = 0
    for depth, root, plan in power_cases(rng):
        sparse += len(plan.index) < len(weight_graded_monomials(2, depth))
        series = magnus_oracle(Word(AB, root), Z, depth)
        for k in (2 * depth + 1, 2 * depth + 2, 2 * depth + 3, 100):
            del power_steps[:]
            got = plan.expand(root * k)
            assert got == reference_values(plan, series_power(series, k, depth)), (root, k)
            assert power_steps == ([(root, k)] if k > 2 * depth + 1 else []), (root, k)
    assert sparse > 30


def test_magnus_power_continues_from_start_and_splits_by_chens_identity(power_steps):
    """u^k expanded from start = E(v) gives E(v u^k) and leaves start as it
    was; expanding u^a and then u^b from it gives E(u^(a+b))."""
    rng = random.Random(20261024)
    for depth, root, plan in power_cases(rng):
        series = magnus_oracle(Word(AB, root), Z, depth)
        v = random_reduced_word(rng, AB, 6)
        start = plan.expand(v.letters)
        kept = list(start)
        k = rng.choice((2 * depth + 2, 37))
        want = truncated_product(Z, magnus_oracle(v, Z, depth), series_power(series, k, depth), depth)
        assert plan.expand(root * k, start) == reference_values(plan, want)
        assert start == kept
        for a, b in ((2 * depth + 2, 100), (1, 2 * depth + 2), (50, 3)):
            head = plan.expand(root * a)
            assert plan.expand(root * b, head) == plan.expand(root * (a + b)) == reference_values(
                plan, series_power(series, a + b, depth)), (root, a, b)
    assert power_steps


def test_magnus_power_values_are_polynomials_of_degree_at_most_depth():
    """E(u^k) = (1 + X)^k with X = E(u) - 1 without constant term, so every
    value is a polynomial of degree <= D in k: the (D + 1)-th finite
    difference over k = 1000 ... 1001 + D vanishes at every node."""
    rng = random.Random(20261025)
    for depth, root, plan in power_cases(rng):
        values = [plan.expand(root * k) for k in range(1000, 1002 + depth)]
        diff = [sum((-1) ** i * comb(depth + 1, i) * v[node] for i, v in enumerate(values))
                for node in range(len(plan.index))]
        assert diff == [0] * len(plan.index), root


def test_magnus_near_powers_are_not_taken_for_powers(power_steps):
    """u^k with its last letter inverted, or with one letter of the middle
    copy changed, is no power of u, and gives the independent series.
    Where no two neighbouring letters agree, its same-letter pattern still
    repeats with period |u|, so only the letter comparison tells."""
    rng = random.Random(20261026)
    for depth, root, plan in power_cases(rng):
        spelling = root * (2 * depth + 3)
        g, s = spelling[-1]
        middle = len(spelling) // 2
        h, t = spelling[middle]
        for near in (spelling[:-1] + ((g, -s),),
                     spelling[:middle] + ((1 - h, t),) + spelling[middle + 1:]):
            del power_steps[:]
            want = magnus_oracle(Word(AB, near), Z, depth)
            assert plan.expand(near) == reference_values(plan, want), (root, near)
            assert all(len(r) * k == len(near) and r * k == near for r, k in power_steps)
