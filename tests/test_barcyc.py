import itertools
import random

import pytest

from letterbraid.barcyc import (
    BarElement,
    CycElement,
    H0Basis,
    NotACocycleError,
    NotConnectedAlgebraError,
    bar_differential,
    bar_element_to_tensor,
    coinvariant_rank,
    connecting_map,
    cyc_differential,
    filtered_kernel,
    h0_bar,
    h0_cyc,
    include_in_A,
    iota,
    sigma,
    tau,
)
from letterbraid.dga import (
    circle_model,
    cochain_algebra,
    interval_model,
    random_two_complex,
    torus_model,
    wedge_algebra,
    wedge_with_trivial_2cells,
    wedge_model,
)
from letterbraid.rings import IntMatrix, Ring, matrix_rank, smith_normal_form, solve
from letterbraid.tensors import cycle, eval_word
from letterbraid.words import GenSet, parse_word

Z = Ring.integers()
Q = Ring.rationals()

TORUS = cochain_algebra(torus_model(), Z)
WEDGE2 = wedge_algebra(("a", "b"), Z)
CIRCLE = cochain_algebra(circle_model(), Z)

# torus slots
A_ = (1, 0)
B_ = (1, 1)
C_ = (1, 2)
P_ = (2, 0)
Q_ = (2, 1)


def random_bar_element(rng, A, max_weight=3, n_terms=3):
    pool = A.augmentation_ideal_basis()
    terms = {}
    for _ in range(n_terms):
        p = rng.randint(0, max_weight)
        terms[tuple(rng.choice(pool) for _ in range(p))] = A.ring.from_int(
            rng.randint(-3, 3)
        )
    return BarElement(A, terms)


def random_cyc_element(rng, A, module, max_weight=3, n_terms=3):
    pool = A.augmentation_ideal_basis()
    m0_pool = {
        "A": [(d, i) for d in range(len(A.basis)) for i in range(A.dim(d))],
        "Abar": list(pool),
        "R": [None],
    }[module]
    terms = {}
    for _ in range(n_terms):
        p = rng.randint(0, max_weight)
        seq = tuple(rng.choice(pool) for _ in range(p))
        terms[(rng.choice(m0_pool), seq)] = A.ring.from_int(rng.randint(-3, 3))
    return CycElement(A, module, terms)


# ---------------------------------------------------------------------------
# differentials: frozen cases
# ---------------------------------------------------------------------------


def test_bar_differential_on_circle_letter():
    x = BarElement.word(CIRCLE, ((1, 0),))
    assert bar_differential(x).is_zero()


def test_bar_differential_square_zero_algebra():
    x = BarElement.word(WEDGE2, ((1, 0), (1, 1)))
    assert bar_differential(x).is_zero()


def test_bar_differential_on_torus_pair():
    # d[a|b] = -[da|b] - [a|db] - [a.b] with da = db = P + Q and a.b = P
    x = BarElement.word(TORUS, (A_, B_))
    expect = BarElement(
        TORUS,
        {
            (P_, B_): -1,
            (Q_, B_): -1,
            (A_, P_): -1,
            (A_, Q_): -1,
            (P_,): -1,
        },
    )
    assert bar_differential(x) == expect


def test_bar_differential_single_torus_letter():
    assert bar_differential(BarElement.word(TORUS, (A_,))) == BarElement(
        TORUS, {(P_,): -1, (Q_,): -1}
    )
    assert bar_differential(BarElement.word(TORUS, (C_,))) == BarElement(
        TORUS, {(P_,): 1, (Q_,): 1}
    )


def test_cyc_differential_unit_module_slot():
    # d(1[a]) = -(1.a)[] + (a.1)[] = 0 in the wedge algebra
    x = CycElement(WEDGE2, "A", {((0, 0), ((1, 0),)): 1})
    assert cyc_differential(x).is_zero()


def test_cyc_differential_empty_tensor_part():
    # m0[] only feels the module differential: a[] -> (P+Q)[]
    x = CycElement(TORUS, "A", {(A_, ()): 1})
    assert cyc_differential(x) == CycElement(TORUS, "A", {(P_, ()): 1, (Q_, ()): 1})


def test_cyc_differential_scalar_module_drops_action_terms():
    x = CycElement(TORUS, "R", {(None, (A_, B_)): 1})
    expect = CycElement(
        TORUS,
        "R",
        {
            (None, (P_, B_)): -1,
            (None, (Q_, B_)): -1,
            (None, (A_, P_)): -1,
            (None, (A_, Q_)): -1,
            (None, (P_,)): -1,
        },
    )
    assert cyc_differential(x) == expect


def test_differentials_square_to_zero():
    rng = random.Random(77)
    algebras = [
        TORUS,
        WEDGE2,
        cochain_algebra(torus_model(), Ring.integers_mod(6)),
        cochain_algebra(random_two_complex(rng, 2, 2), Z),
        cochain_algebra(random_two_complex(rng, 3, 2), Ring.integers_mod(4)),
    ]
    for A in algebras:
        for _ in range(6):
            x = random_bar_element(rng, A)
            assert bar_differential(bar_differential(x)).is_zero()
        for module in ("A", "Abar", "R"):
            for _ in range(6):
                y = random_cyc_element(rng, A, module)
                assert cyc_differential(cyc_differential(y)).is_zero()


# ---------------------------------------------------------------------------
# cycle operator and the connecting chain identity
# ---------------------------------------------------------------------------


def test_sigma_on_degree_one_slots_is_plain_rotation():
    x = BarElement.word(WEDGE2, ((1, 0), (1, 1)))
    assert sigma(x) == BarElement.word(WEDGE2, ((1, 1), (1, 0)))


def test_sigma_signs_with_degree_two_slots():
    # shifted degrees: |a|-1 = 0, |P|-1 = 1
    assert sigma(BarElement.word(TORUS, (A_, P_))) == BarElement.word(TORUS, (P_, A_))
    assert sigma(BarElement.word(TORUS, (P_, Q_))) == BarElement(TORUS, {(Q_, P_): -1})
    # weight <= 1 is fixed
    one = BarElement.word(TORUS, (P_,))
    assert sigma(one) == one
    empty = BarElement.word(TORUS, ())
    assert sigma(empty) == empty


def test_sigma_power_is_identity():
    rng = random.Random(13)
    pool = TORUS.augmentation_ideal_basis()
    for _ in range(40):
        p = rng.randint(1, 4)
        seq = tuple(rng.choice(pool) for _ in range(p))
        x = BarElement.word(TORUS, seq)
        y = x
        for _ in range(p):
            y = sigma(y)
        assert y == x, seq


def test_chain_identity_on_degree_zero_words():
    # d_Cyc(tau x) = iota((sigma - 1) x) + tau(d_Bar x)
    from itertools import product as iproduct

    for A in (WEDGE2, TORUS):
        k = A.dim(1)
        for p in range(4):
            for s in iproduct(range(k), repeat=p):
                x = BarElement.word(A, tuple((1, i) for i in s))
                lhs = cyc_differential(tau(x))
                rhs = include_in_A(iota(sigma(x) - x)) + tau(bar_differential(x))
                assert lhs == rhs, (A.name, s)


def test_connecting_map_frozen_values():
    x = BarElement.word(WEDGE2, ((1, 0), (1, 1)))
    out = connecting_map(x)
    assert out == CycElement(
        WEDGE2, "Abar", {((1, 1), ((1, 0),)): 1, ((1, 0), ((1, 1),)): -1}
    )
    sym = x + BarElement.word(WEDGE2, ((1, 1), (1, 0)))
    assert connecting_map(sym).is_zero()
    assert connecting_map(BarElement.word(WEDGE2, ((1, 0),))).is_zero()


def test_connecting_map_rejects_non_cocycles():
    with pytest.raises(NotACocycleError):
        connecting_map(BarElement.word(TORUS, (A_,)))
    with pytest.raises(NotACocycleError):
        connecting_map(BarElement.word(TORUS, (P_,)))


# ---------------------------------------------------------------------------
# filtered kernels
# ---------------------------------------------------------------------------


def test_filtered_kernel_simple():
    M = IntMatrix.from_rows(Z, [[2, -3]])
    vectors, added, anns = filtered_kernel(M, [1, 2], 2)
    assert vectors == [[3, 2]]
    assert added == (2,)
    assert anns == (0,)


def test_filtered_kernel_extends_previous_basis():
    M = IntMatrix.from_rows(Z, [[1, -2, 0]])
    vectors, added, _ = filtered_kernel(M, [1, 1, 2], 2)
    assert vectors[0] == [2, 1, 0]  # the weight-1 kernel, kept verbatim
    assert added == (1, 2)


def zmod_span(ring, vectors, cols):
    """Every element of the submodule of (Z/m)^cols the vectors generate."""
    span = {(0,) * cols}
    for v in vectors:
        span = {tuple((x + k * y) % ring.modulus for x, y in zip(s, v))
                for s in span for k in range(ring.modulus)}
    return span


def test_filtered_kernel_random_matrices_give_bases():
    rng = random.Random(4242)
    for trial in range(60):
        ring = (Z, Q, Ring.integers_mod(4), Ring.integers_mod(6))[trial % 4]
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        M = IntMatrix.from_rows(
            ring,
            [[ring.from_int(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)],
        )
        weights = [rng.randint(0, 3) for _ in range(cols)]
        up_to = 3
        vectors, added, anns = filtered_kernel(M, weights, up_to)
        # every vector is in the kernel and respects its weight step
        for v, a in zip(vectors, added):
            assert all(c == ring.zero() for c in M.apply(v))
            assert all(weights[j] <= a for j, c in enumerate(v) if c != ring.zero())
        # the full kernel is contained in the span of the output; over Z
        # and Q the reference kernel is the columns of the Smith transform
        # V past the rank, over Z/m it is enumerated below
        if ring.kind in ("Z", "Q"):
            _, _, V = smith_normal_form(M)
            reference = [list(V.column(j)) for j in range(matrix_rank(M), cols)]
            if vectors:
                span = IntMatrix.from_columns(ring, vectors, cols)
                for kv in reference:
                    assert solve(span, kv) is not None
            else:
                assert reference == []
        # over a field / the integers the output is a basis: count = nullity
        if ring.kind in ("Z", "Q"):
            rankM = matrix_rank(
                M if ring.kind == "Q" else IntMatrix(Q, M.rows, M.cols, tuple(map(int, M.entries)))
            )
            assert len(vectors) == cols - rankM
        # re-running with a smaller bound gives a prefix of the same list
        cut = rng.randint(0, up_to - 1)
        v2, a2, _ = filtered_kernel(M, weights, cut)
        keep = [v for v, a in zip(vectors, added) if a <= cut]
        assert v2 == keep
        # the output depends only on the row span: shuffle the rows and add
        # a multiple of one row to another
        shuffled = M.to_rows()
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            c = ring.from_int(rng.randrange(-2, 3))
            shuffled[0] = [ring.add(x, ring.mul(c, y)) for x, y in zip(*shuffled[:2])]
        assert filtered_kernel(IntMatrix.from_rows(ring, shuffled), weights, up_to) == (
            vectors, added, anns
        )
        # over Z/m the members entering at weight <= p span exactly the
        # kernel vectors supported on columns of weight <= p
        if ring.kind == "Zmod":
            everything = itertools.product(range(ring.modulus), repeat=cols)
            kernel = [x for x in everything if not any(M.apply(list(x)))]
            for p in range(up_to + 1):
                want = {x for x in kernel
                        if all(weights[j] <= p for j, c in enumerate(x) if c)}
                got = zmod_span(ring, [v for v, a in zip(vectors, added) if a <= p], cols)
                assert got == want


# ---------------------------------------------------------------------------
# H^0 ranks
# ---------------------------------------------------------------------------


def test_h0_bar_wedge_counts_all_words():
    basis = h0_bar(WEDGE2, 3)
    assert basis.total_rank == 15
    assert basis.ranks_per_weight == [1, 2, 4, 8]
    assert all(a == 0 for a in basis.annihilators)


def test_h0_cyc_wedge_counts_necklaces():
    basis = h0_cyc(WEDGE2, 3)
    assert basis.total_rank == 10
    assert basis.ranks_per_weight == [1, 2, 3, 4]


def test_h0_circle_polynomial_algebra():
    assert h0_bar(CIRCLE, 5).ranks_per_weight == [1] * 6
    basis = h0_cyc(CIRCLE, 5)
    assert basis.total_rank == 6
    assert basis.ranks_per_weight == [1] * 6


def test_h0_torus_ranks():
    assert h0_bar(TORUS, 2).ranks_per_weight == [1, 2, 3]
    assert h0_cyc(TORUS, 2).total_rank == 6
    assert h0_bar(TORUS, 3).ranks_per_weight == [1, 2, 3, 4]
    assert h0_cyc(TORUS, 3).total_rank == 10


def test_h0_elements_are_cocycles_and_invariants():
    for basis, cyclic in ((h0_bar(TORUS, 2), False), (h0_cyc(TORUS, 2), True)):
        for x in basis:
            assert bar_differential(x).is_zero()
            if cyclic:
                assert sigma(x) == x


def test_h0_bases_are_monotone_in_the_weight_bound():
    for A in (TORUS, WEDGE2):
        prev = h0_bar(A, 2)
        full = h0_bar(A, 3)
        assert [x.terms for x in prev] == [x.terms for x in full][: len(prev)]
        prev_c = h0_cyc(A, 2)
        full_c = h0_cyc(A, 3)
        assert [x.terms for x in prev_c] == [x.terms for x in full_c][: len(prev_c)]


def test_h0_requires_connected_algebra():
    A = cochain_algebra(interval_model(), Z)
    with pytest.raises(NotConnectedAlgebraError) as ei:
        h0_bar(A, 2)
    assert ei.value.code == "not_connected_algebra"
    with pytest.raises(NotConnectedAlgebraError):
        h0_cyc(A, 2)


def test_h0_model_independence():
    plain = cochain_algebra(wedge_model(2), Z)
    glued = cochain_algebra(wedge_with_trivial_2cells(2), Z)
    for n in range(4):
        assert h0_bar(plain, n).ranks_per_weight == h0_bar(glued, n).ranks_per_weight
        assert h0_cyc(plain, n).ranks_per_weight == h0_cyc(glued, n).ranks_per_weight


def test_h0_over_modular_ring():
    A = cochain_algebra(wedge_model(2), Ring.integers_mod(4))
    basis = h0_cyc(A, 2)
    assert basis.ranks_per_weight == [1, 2, 3]
    assert all(a == 0 for a in basis.annihilators)


def test_h0_weight_zero():
    basis = h0_bar(TORUS, 0)
    assert basis.total_rank == 1
    assert basis[0].terms == {(): 1}


# ---------------------------------------------------------------------------
# coinvariants and tensor export
# ---------------------------------------------------------------------------


def test_coinvariant_ranks():
    two = GenSet.of("a", "b")
    assert coinvariant_rank(two, 2) == 3
    assert coinvariant_rank(two, 3) == 4
    assert coinvariant_rank(two, 4) == 6
    assert coinvariant_rank(two, 1) == 2
    one = GenSet.of("t")
    for p in (1, 2, 3):
        assert coinvariant_rank(one, p) == 1
    assert coinvariant_rank(two, 2, Q) == 3


def test_invariant_and_coinvariant_ranks_agree_for_wedges():
    # permutation actions on free lattices: fixed and cofixed ranks match
    for k in (1, 2, 3):
        names = GenSet(tuple(f"g{i}" for i in range(k)))
        A = wedge_algebra(names.names, Z)
        for p in (1, 2, 3):
            per_weight = h0_cyc(A, p).ranks_per_weight
            assert per_weight[p] == coinvariant_rank(names, p)


def test_h0_elements_export_as_cycle_invariant_tensors():
    basis = h0_cyc(WEDGE2, 3)
    for x in basis:
        T = bar_element_to_tensor(x)
        assert cycle(T) == T


def test_circle_h0_tensors_evaluate_to_binomials():
    basis = h0_cyc(CIRCLE, 3)
    gens = GenSet.of("e")
    w = parse_word("e^3", gens)
    values = [eval_word(bar_element_to_tensor(x, gens), w) for x in basis]
    assert values == [1, 3, 3, 1]


def test_cyc_element_validation():
    with pytest.raises(ValueError):
        CycElement(TORUS, "R", {(A_, ()): 1})  # scalar module takes no m0
    with pytest.raises(ValueError):
        CycElement(TORUS, "Abar", {((0, 0), ()): 1})  # unit direction not in Abar
    with pytest.raises(ValueError):
        CycElement(TORUS, "M", {})
    x = CycElement(TORUS, "A", {(A_, ()): 1})
    y = CycElement(TORUS, "R", {(None, ()): 1})
    with pytest.raises(ValueError):
        x + y
