import random
from fractions import Fraction

import pytest

from letterbraid.rings import (
    IntMatrix,
    Ring,
    ShapeError,
    cokernel_free_rank,
    in_column_span,
    is_invertible,
    kernel_basis,
    matrix_rank,
    row_canonical_form,
    smith_normal_form,
    solve,
)

Z = Ring.integers()
Q = Ring.rationals()


def mat(rows, ring=Z):
    return IntMatrix.from_rows(ring, rows)


def diag_of(D):
    return [D.get(i, i) for i in range(min(D.rows, D.cols))]


def check_snf_contract(M):
    U, D, V = smith_normal_form(M)
    assert U.mul(M).mul(V).entries == D.entries
    ring = M.ring
    # D diagonal
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.get(i, j) == ring.zero()
    # divisibility chain on canonical lifts, zeros at the tail
    diag = diag_of(D)
    lifts = [int(d) if ring.kind != "Q" else d for d in diag]
    seen_zero = False
    for prev, cur in zip(lifts, lifts[1:]):
        if prev == 0:
            seen_zero = True
        if seen_zero:
            assert cur == 0
        elif cur != 0 and ring.kind != "Q":
            assert cur % prev == 0
    assert is_invertible(U)
    assert is_invertible(V)
    return U, D, V


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


def test_snf_of_diag_2_3():
    M = mat([[2, 0], [0, 3]])
    U, D, V = check_snf_contract(M)
    assert D.to_rows() == [[1, 0], [0, 6]]


def test_snf_identity_and_zero():
    I3 = IntMatrix.identity(Z, 3)
    U, D, V = smith_normal_form(I3)
    assert (U.to_rows(), D.to_rows(), V.to_rows()) == (
        I3.to_rows(),
        I3.to_rows(),
        I3.to_rows(),
    )
    Z22 = IntMatrix.zeros(Z, 2, 2)
    U, D, V = smith_normal_form(Z22)
    assert D.to_rows() == [[0, 0], [0, 0]]
    assert U.to_rows() == IntMatrix.identity(Z, 2).to_rows()
    assert V.to_rows() == IntMatrix.identity(Z, 2).to_rows()


def test_kernel_of_sum_functional():
    K = kernel_basis(mat([[1, 1]]))
    assert K.generators() == [[1, -1]]
    assert K.annihilators == (0,)


def test_kernel_mod4_example():
    ring = Ring.integers_mod(4)
    K = kernel_basis(mat([[2]], ring))
    assert K.generators() == [[2]]
    assert K.annihilators == (2,)
    # exhaustively: solutions of 2x = 0 mod 4 are exactly multiples of 2
    sols = {x for x in range(4) if (2 * x) % 4 == 0}
    spanned = {(2 * c) % 4 for c in range(4)}
    assert sols == spanned


def test_empty_shapes():
    M = IntMatrix.zeros(Z, 0, 3)
    K = kernel_basis(M)
    assert K.matrix.cols == 3  # no constraints at all
    for col in K.generators():
        assert len(col) == 3
    M2 = IntMatrix.zeros(Z, 3, 0)
    assert kernel_basis(M2).matrix.cols == 0


def test_shape_errors():
    with pytest.raises(ShapeError):
        mat([[1, 2], [3]])
    with pytest.raises(ShapeError):
        mat([[1, 2]]).mul(mat([[1, 2]]))
    with pytest.raises(ShapeError):
        mat([[1, 2]]).apply([1, 2, 3])


def test_ring_specs_and_parsing():
    assert Ring.from_spec("Z") == Z
    assert Ring.from_spec("Q") == Q
    assert Ring.from_spec("Z/6") == Ring.integers_mod(6)
    with pytest.raises(ValueError):
        Ring.from_spec("Z/1")
    with pytest.raises(ValueError):
        Ring.from_spec("GF(4)")
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.show(Fraction(-3, 4)) == "-3/4"
    assert Ring.integers_mod(5).parse("-1") == 4
    with pytest.raises(ValueError):
        Z.parse("1.5")


# ---------------------------------------------------------------------------
# Randomised contracts (seeded)
# ---------------------------------------------------------------------------


def random_matrix(rng, ring, max_dim=4, span=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntMatrix.from_rows(
        ring,
        [
            [ring.from_int(rng.randrange(-span, span + 1)) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


def test_snf_random_integer_matrices():
    rng = random.Random(20260823)
    for _ in range(60):
        M = random_matrix(rng, Z)
        U, D, V = check_snf_contract(M)
        assert all(d >= 0 for d in diag_of(D))


def test_snf_random_rational_matrices():
    rng = random.Random(4)
    for _ in range(30):
        M = random_matrix(rng, Q)
        U, D, V = check_snf_contract(M)
        assert all(d in (Fraction(0), Fraction(1)) for d in diag_of(D))


def test_snf_random_zmod_matrices():
    rng = random.Random(11)
    for m in (2, 3, 4, 6, 12):
        ring = Ring.integers_mod(m)
        for _ in range(25):
            M = random_matrix(rng, ring)
            U, D, V = check_snf_contract(M)
            for d in diag_of(D):
                if d != 0:
                    assert m % int(d) == 0  # canonical divisor of m


def test_kernel_random_integer_matrices():
    rng = random.Random(7)
    for _ in range(50):
        M = random_matrix(rng, Z)
        K = kernel_basis(M)
        for col in K.generators():
            assert all(x == 0 for x in M.apply(col))
        assert matrix_rank(M) + K.matrix.cols == M.cols
        if K.matrix.cols:
            assert matrix_rank(K.matrix) == K.matrix.cols  # independent columns


def test_kernel_saturation_against_bruteforce():
    # Independent oracle: enumerate small integer vectors, keep actual
    # kernel members, and require each to be an integer combination of
    # the reported basis.
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randrange(1, 3)
        cols = rng.randrange(1, 4)
        M = IntMatrix.from_rows(
            Z, [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        )
        K = kernel_basis(M)

        def vectors(k):
            if k == 0:
                yield []
                return
            for rest in vectors(k - 1):
                for x in range(-3, 4):
                    yield [x] + rest

        for v in vectors(cols):
            if all(x == 0 for x in M.apply(v)):
                assert solve(K.matrix, v) is not None, (M.to_rows(), v)


def test_kernel_zmod_exhaustive():
    rng = random.Random(17)
    for m in (4, 6):
        ring = Ring.integers_mod(m)
        for _ in range(20):
            rows = rng.randrange(1, 3)
            cols = rng.randrange(1, 3)
            M = IntMatrix.from_rows(
                ring, [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
            )
            K = kernel_basis(M)
            for col in K.generators():
                assert all(x == 0 for x in M.apply(col))

            def all_vectors(k):
                if k == 0:
                    yield []
                    return
                for rest in all_vectors(k - 1):
                    for x in range(m):
                        yield [x] + rest

            # soundness + completeness of the generating set
            for v in all_vectors(cols):
                in_kernel = all(x == 0 for x in M.apply(v))
                assert in_kernel == in_column_span(K.matrix, v), (m, M.to_rows(), v)


def test_kernel_zmod_annihilators():
    # annihilator a of a generator g: a*g must be spanned by m*Z^cols,
    # i.e. a*g = 0 in (Z/m)^cols only when a is the full order; check the
    # cyclic order of each generator individually matches.
    ring = Ring.integers_mod(12)
    M = IntMatrix.from_rows(ring, [[6, 0], [0, 4]])
    K = kernel_basis(M)
    for col, ann in zip(K.generators(), K.annihilators):
        order = min(
            k for k in range(1, 13) if all((k * x) % 12 == 0 for x in col)
        )
        expected = order if order != 12 else 0
        # 0 marks a free generator (full order m)
        assert (ann == 0 and order == 12) or ann == expected


def test_solve_random():
    rng = random.Random(23)
    for ring in (Z, Q, Ring.integers_mod(6)):
        for _ in range(30):
            M = random_matrix(rng, ring, max_dim=3, span=5)
            c = [ring.from_int(rng.randrange(-4, 5)) for _ in range(M.cols)]
            b = M.apply(c)
            x = solve(M, b)
            assert x is not None
            assert M.apply(x) == b


def test_solve_unsolvable_over_z():
    M = mat([[2]])
    assert solve(M, [1]) is None
    assert solve(M, [4]) == [2]
    assert in_column_span(mat([[2, 4]]), [3]) is False


def test_cokernel_free_rank():
    # coker([[2]]) over Z is Z/2: free rank 0; coker(0: Z -> Z^2) is Z^2.
    assert cokernel_free_rank(mat([[2]])) == 0
    assert cokernel_free_rank(IntMatrix.zeros(Z, 2, 1)) == 2


def test_determinism():
    rng = random.Random(99)
    M = random_matrix(rng, Z, max_dim=5)
    first = smith_normal_form(M)
    second = smith_normal_form(M)
    assert [x.entries for x in first] == [x.entries for x in second]
    assert kernel_basis(M).matrix.entries == kernel_basis(M).matrix.entries
    # kernel_basis depends only on the row span: shuffling the rows and
    # adding a multiple of one row to another leave its output unchanged
    for ring in (Z, Q, Ring.integers_mod(4), Ring.integers_mod(6)):
        for _ in range(20):
            M = random_matrix(rng, ring, max_dim=5, span=5)
            rows = M.to_rows()
            rng.shuffle(rows)
            if len(rows) >= 2:
                c = ring.from_int(rng.randrange(-3, 4))
                rows[0] = [ring.add(x, ring.mul(c, y)) for x, y in zip(rows[0], rows[1])]
            assert kernel_basis(IntMatrix.from_rows(ring, rows)) == kernel_basis(M)


def test_row_canonical_form_frozen():
    # Hermite form over Z: positive pivots, entries above reduced.
    assert row_canonical_form(mat([[4, 6], [2, 5]])).to_rows() == [[2, 1], [0, 4]]
    # zero rows dropped, including an all-zero input
    assert row_canonical_form(mat([[0, 0], [3, 0]])).to_rows() == [[3, 0]]
    empty = row_canonical_form(IntMatrix.zeros(Z, 2, 3))
    assert (empty.rows, empty.cols) == (0, 3)
    # Q: reduced row echelon form
    assert row_canonical_form(mat([[2, 4], [1, 3]], Q)).to_rows() == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def zmod_span(ring, vectors, cols):
    """Every element of the submodule of (Z/m)^cols the vectors generate."""
    span = {(0,) * cols}
    for v in vectors:
        span = {tuple((x + k * y) % ring.modulus for x, y in zip(s, v))
                for s in span for k in range(ring.modulus)}
    return span


def test_row_canonical_form_is_span_invariant():
    rng = random.Random(7)
    for ring in (Z, Q, Ring.integers_mod(6), Ring.integers_mod(4)):
        for _ in range(25):
            M = random_matrix(rng, ring, max_dim=4, span=4)
            A = row_canonical_form(M)
            # shuffling rows and adding multiples of other rows leaves it fixed
            rows = [list(M.row(i)) for i in range(M.rows)]
            rng.shuffle(rows)
            if len(rows) >= 2:
                c = ring.from_int(rng.randrange(-2, 3))
                rows[0] = [ring.add(x, ring.mul(c, y)) for x, y in zip(rows[0], rows[1])]
            B = row_canonical_form(IntMatrix(ring, len(rows), M.cols,
                                             tuple(x for r in rows for x in r)))
            assert A.entries == B.entries and A.rows == B.rows
            # over Z/m the form's rows generate exactly the rows' span
            if ring.kind == "Zmod":
                assert zmod_span(ring, A.to_rows(), M.cols) == zmod_span(
                    ring, M.to_rows(), M.cols
                )


def test_row_canonical_form_separates_lattices():
    # same Q-span, different sublattices of Z^2
    A = row_canonical_form(mat([[1, 0], [0, 1]]))
    B = row_canonical_form(mat([[2, 0], [0, 1]]))
    assert A.entries != B.entries
    # over Z/4, span of 2 differs from the whole ring
    R4 = Ring.integers_mod(4)
    C = row_canonical_form(mat([[2]], R4))
    D = row_canonical_form(mat([[3]], R4))
    assert C.to_rows() == [[2]]
    assert D.to_rows() == [[1]]
