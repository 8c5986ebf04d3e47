import copy
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from letterbraid.rings import (
    IntMatrix,
    Ring,
    ShapeError,
    _axpy,
    _echelon,
    _pivot_rows,
    _rank,
    _sparse_rows,
    _vector_annihilator,
    canon_terms,
    filtered_kernel,
    matrix_rank,
    row_canonical_form,
    smith_normal_form,
)
from linalg_reference import in_column_span, solve

Z = Ring.integers()
Q = Ring.rationals()


def mat(rows, ring=Z):
    return IntMatrix.from_rows(ring, rows)


def dense_kernel(M, weights=None, up_to=0):
    """filtered_kernel of M on its columns of weight <= up_to (every column
    at weight 0 by default): (column lists, entry weights, annihilators)."""
    weights = weights or [0] * M.cols
    kept = {j: w for j, w in enumerate(weights) if w <= up_to}
    found = filtered_kernel(M.ring, _sparse_rows(M), kept)
    vectors = [[v.get(j, M.ring.zero()) for j in range(M.cols)] for _, v in found]
    anns = tuple(_vector_annihilator(M.ring, v) for v in vectors)
    return vectors, tuple(w for w, _ in found), anns


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
    # a square matrix is invertible iff its canonical form (Hermite over
    # Z, reduced echelon over Q, Howell over Z/m) is the identity
    assert row_canonical_form(U) == IntMatrix.identity(ring, U.rows)
    assert row_canonical_form(V) == IntMatrix.identity(ring, V.rows)
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
    gens, _, anns = dense_kernel(mat([[1, 1]]))
    assert gens == [[1, -1]]
    assert anns == (0,)


def test_kernel_mod4_example():
    ring = Ring.integers_mod(4)
    gens, _, anns = dense_kernel(mat([[2]], ring))
    assert gens == [[2]]
    assert anns == (2,)
    # exhaustively: solutions of 2x = 0 mod 4 are exactly multiples of 2
    sols = {x for x in range(4) if (2 * x) % 4 == 0}
    spanned = {(2 * c) % 4 for c in range(4)}
    assert sols == spanned


def test_empty_shapes():
    M = IntMatrix.zeros(Z, 0, 3)
    gens, _, _ = dense_kernel(M)
    assert len(gens) == 3  # no constraints at all
    for col in gens:
        assert len(col) == 3
    M2 = IntMatrix.zeros(Z, 3, 0)
    assert len(dense_kernel(M2)[0]) == 0


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


def test_rational_parse_takes_only_p_or_p_over_q():
    """Q reads "p" and "p/q" only: Fraction alone would also read decimals
    and exponents, and "1e999999999" would build a number of 10^9 digits."""
    assert [Q.parse(t) for t in ("7", " -3/6 ", "+2/1", "0/5")] == [
        Fraction(7), Fraction(-1, 2), Fraction(2), Fraction(0)
    ]
    for text in ("1e999999999", "1e3", "1.5", "1_000", "3/-4", "3 / 4", "1/0", "", "/2"):
        with pytest.raises(ValueError, match="bad rational coefficient"):
            Q.parse(text)


def test_show_refuses_values_past_the_integer_text_cap():
    """show writes only what parse can read back: past Python's cap on
    integer text it raises a ValueError naming the cap, over Z and Q."""
    cap = sys.get_int_max_str_digits()
    if not cap:
        pytest.skip("integer text conversion is not capped in this interpreter")
    big = 10**cap
    assert Z.parse(Z.show(big - 1)) == big - 1
    for ring, x in ((Z, big), (Q, Fraction(1, big)), (Ring.integers_mod(big + 1), big)):
        with pytest.raises(ValueError, match=f"more than {cap} digits"):
            ring.show(x)


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
        gens, _, _ = dense_kernel(M)
        for col in gens:
            assert all(x == 0 for x in M.apply(col))
        assert matrix_rank(M) + len(gens) == M.cols
        if gens:  # independent columns
            assert matrix_rank(IntMatrix.from_columns(Z, gens, M.cols)) == len(gens)


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
        K = IntMatrix.from_columns(Z, dense_kernel(M)[0], cols)

        def vectors(k):
            if k == 0:
                yield []
                return
            for rest in vectors(k - 1):
                for x in range(-3, 4):
                    yield [x] + rest

        for v in vectors(cols):
            if all(x == 0 for x in M.apply(v)):
                assert solve(K, v) is not None, (M.to_rows(), v)


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
            gens, _, _ = dense_kernel(M)
            K = IntMatrix.from_columns(ring, gens, cols)
            for col in gens:
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
                assert in_kernel == in_column_span(K, v), (m, M.to_rows(), v)


def test_kernel_zmod_annihilators():
    # annihilator a of a generator g: a*g must be spanned by m*Z^cols,
    # i.e. a*g = 0 in (Z/m)^cols only when a is the full order; check the
    # cyclic order of each generator individually matches.
    ring = Ring.integers_mod(12)
    M = IntMatrix.from_rows(ring, [[6, 0], [0, 4]])
    gens, _, anns = dense_kernel(M)
    for col, ann in zip(gens, anns):
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


def test_solve_over_q_on_a_sparse_40_by_40_matrix():
    """The Q Smith form is the integer one of the matrix scaled by the lcm
    of its denominators: U M V = D with a 0/1 diagonal, and solve finds x
    with M x = b, also after dividing entries by small denominators."""
    rng = random.Random(0)
    rows = [[rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(40)] for _ in range(40)]
    scaled = [[Fraction(x, rng.choice([1, 2, 3, 5])) for x in r] for r in rows]
    for M in (mat(rows, Q), mat(scaled, Q)):
        U, D, V = check_snf_contract(M)
        assert all(d in (0, 1) for d in diag_of(D))
        assert sum(diag_of(D)) == matrix_rank(M)
        b = M.apply([Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in range(40)])
        x = solve(M, b)
        assert x is not None and M.apply(x) == b
    # a rank-deficient matrix with denominators: b outside the span has no solution
    M = mat([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]], Q)
    U, D, V = check_snf_contract(M)
    assert diag_of(D) == [1, 0]
    assert solve(M, [Fraction(1, 6), Fraction(1, 3)]) is not None
    assert solve(M, [1, 1]) is None


def test_determinism():
    rng = random.Random(99)
    M = random_matrix(rng, Z, max_dim=5)
    first = smith_normal_form(M)
    second = smith_normal_form(M)
    assert [x.entries for x in first] == [x.entries for x in second]
    assert dense_kernel(M)[0] == dense_kernel(M)[0]
    # the kernel depends only on the row span: shuffling the rows and
    # adding a multiple of one row to another leave its output unchanged
    for ring in (Z, Q, Ring.integers_mod(4), Ring.integers_mod(6)):
        for _ in range(20):
            M = random_matrix(rng, ring, max_dim=5, span=5)
            rows = M.to_rows()
            rng.shuffle(rows)
            if len(rows) >= 2:
                c = ring.from_int(rng.randrange(-3, 4))
                rows[0] = [ring.add(x, ring.mul(c, y)) for x, y in zip(rows[0], rows[1])]
            assert dense_kernel(IntMatrix.from_rows(ring, rows)) == dense_kernel(M)


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


def _random_matrix(rng, ring, rows, cols):
    return mat([[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(cols)]
                for _ in range(rows)], ring) if rows else IntMatrix.zeros(ring, 0, cols)


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6"])
def test_matrix_rank_is_smith_diagonal_count(spec):
    # over Z and Q the rank counts echelon pivot rows; it must agree with
    # the nonzero Smith diagonal entries, as over Z/m by definition
    ring = Ring.from_spec(spec)
    rng = random.Random(20261018)
    for _ in range(150):
        M = _random_matrix(rng, ring, rng.randint(0, 6), rng.randint(0, 6))
        _, D, _ = smith_normal_form(M)
        assert matrix_rank(M) == sum(1 for d in diag_of(D) if d != ring.zero())


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6"])
def test_filtered_kernel_is_identity_block_of_full_echelon(spec):
    # the kernel pass back-reduces only the rows pivoting in the identity
    # block; they must equal those rows of the fully reduced [M^T | I]
    ring = Ring.from_spec(spec)
    rng = random.Random(7 + len(spec))
    z, o = ring.zero(), ring.one()
    for _ in range(120):
        M = _random_matrix(rng, ring, rng.randint(0, 5), rng.randint(0, 6))
        weights = [rng.randint(0, 3) for _ in range(M.cols)]
        up_to = rng.randint(0, 3)
        keep = sorted((j for j in range(M.cols) if weights[j] <= up_to),
                      key=lambda j: (-weights[j], j))
        stacked = [list(M.column(j)) + [o if t == s else z for s in range(len(keep))]
                   for t, j in enumerate(keep)]
        full = row_canonical_form(mat(stacked, ring)) if keep else mat([], ring)
        expected = []
        for row in full.to_rows():
            if any(x != z for x in row[: M.rows]):
                continue
            v = [z] * M.cols
            for t, x in enumerate(row[M.rows:]):
                v[keep[t]] = x
            lead = next(t for t, x in enumerate(row[M.rows:]) if x != z)
            expected.append((weights[keep[lead]], v))
        expected.sort(key=lambda wv: wv[0])
        vectors, added, _ = dense_kernel(M, weights, up_to)
        assert vectors == [v for _, v in expected]
        assert list(added) == [w for w, _ in expected]


def test_pivot_rows_stay_small_over_z():
    """Gcd merges install tail-reduced rows, so the forward pass's entries
    stay small.  Without that, on this seeded 60 x 40 sparse relation
    matrix with entries in -2..3, they reach about 125,000 bits."""
    rng = random.Random(0)
    rows = []
    for _ in range(60):
        row = {j: rng.choice([-2, -1, 1, 2, 3]) for j in range(40) if rng.random() < 0.15}
        if row:
            rows.append(row)
    pivots = _pivot_rows(Z, rows)
    assert len(pivots) == 40
    assert max(abs(x).bit_length() for r in pivots.values() for x in r.values()) <= 64
    M = IntMatrix.from_rows(Z, [[r.get(j, 0) for j in range(40)] for r in rows])
    flipped = IntMatrix.from_rows(Z, M.to_rows()[::-1])
    assert row_canonical_form(M) == row_canonical_form(flipped)


def test_pivot_rows_stay_integer_and_small_over_q():
    """Over Q the forward pass runs on primitive integer rows: each row is
    read in with its denominators cleared and every eliminated row has its
    content divided out.  Without that removal, on this seeded 60 x 40
    sparse matrix with denominators 1, 2, 3, the entries reach about 750
    bits."""
    rng = random.Random(0)
    rows = []
    for _ in range(60):
        row = {j: Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
               for j in range(40) if rng.random() < 0.15}
        if row:
            rows.append(row)
    pivots = _pivot_rows(Q, rows)
    assert len(pivots) == 40
    assert all(type(x) is int for r in pivots.values() for x in r.values())
    assert max(abs(x).bit_length() for r in pivots.values() for x in r.values()) <= 128


def _gauss_jordan(rows, cols):
    """Reduced row echelon form by textbook Gauss-Jordan on Fractions:
    pivots in column order, each scaled to 1 and cleared from every
    other row."""
    rows = [[Fraction(x) for x in r] for r in rows]
    done = []
    for j in range(cols):
        pivot = next((r for r in rows if r[j] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[j] for x in pivot]
        rows = [[x - r[j] * y for x, y in zip(r, pivot)] for r in rows]
        done = [[x - r[j] * y for x, y in zip(r, pivot)] for r in done] + [pivot]
    return done


def _random_q_matrix(rng, rows, cols):
    """Entries with denominators 1, 2, 3, 5 and 7, and some zero and
    repeated rows."""
    out = []
    for _ in range(rows):
        kind = rng.random()
        if out and kind < 0.15:
            out.append(list(rng.choice(out)))
        elif kind < 0.25:
            out.append([0] * cols)
        else:
            out.append([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7]))
                        if rng.random() < 0.6 else 0 for _ in range(cols)])
    return mat(out, Q) if rows else IntMatrix.zeros(Q, 0, cols)


def test_q_elimination_matches_gauss_jordan():
    rng = random.Random(20261019)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1)] + [
        (rng.randint(0, 7), rng.randint(0, 7)) for _ in range(300)
    ]
    for r, c in shapes:
        M = _random_q_matrix(rng, r, c)
        assert row_canonical_form(M).to_rows() == _gauss_jordan(M.to_rows(), c)
        rank = matrix_rank(M)
        gens, _, _ = dense_kernel(M)
        assert rank + len(gens) == c
        weights = [rng.randint(0, 3) for _ in range(c)]
        previous = []
        for up_to in range(4):
            vectors, added, anns = dense_kernel(M, weights, up_to)
            assert vectors[: len(previous)] == previous  # prefix property
            previous = vectors
            low = [j for j in range(c) if weights[j] <= up_to]
            columns = IntMatrix.from_columns(M.ring, [M.column(j) for j in low], r)
            assert len(vectors) == len(low) - matrix_rank(columns)
            assert set(anns) <= {0} and all(w <= up_to for w in added)
        for v in gens + previous:
            assert all(x == 0 for x in M.apply(v))


def test_q_forms_of_integer_matrices_agree_with_z():
    rng = random.Random(4)
    for _ in range(150):
        M = _random_matrix(rng, Z, rng.randint(0, 6), rng.randint(0, 6))
        MQ = mat(M.to_rows(), Q) if M.rows else IntMatrix.zeros(Q, 0, M.cols)
        assert matrix_rank(MQ) == matrix_rank(M)
        H = row_canonical_form(M)
        HQ = mat(H.to_rows(), Q) if H.rows else IntMatrix.zeros(Q, 0, M.cols)
        assert row_canonical_form(MQ) == row_canonical_form(HQ)


def _added(ring, c1, r1, c2, r2):
    """c1 * r1 + c2 * r2 for sparse rows, out of place: a fresh scaled copy
    of r1, r2 added, then one pass that reduces mod m and drops zeros."""
    out = {j: c1 * x for j, x in r1.items()}
    for j, x in r2.items():
        out[j] = out.get(j, 0) + c2 * x
    m = ring.modulus
    if m:
        return {j: x % m for j, x in out.items() if x % m}
    return {j: x for j, x in out.items() if x}


def _top_down_echelon(ring, rows, start=0):
    """The back-reduction _echelon used to run, kept as a reference: every
    pivot row clears its pivot column in all the rows above it, top-down,
    each step a fresh row (_added), never an update in place."""
    out = [r for j, r in sorted(_pivot_rows(ring, rows).items()) if j >= start]
    for i, r in enumerate(out):
        j = min(r)
        for k in range(i):
            x = out[k].get(j)
            if x is None:
                continue
            if ring.kind == "Q":  # cross-multiply, then divide out the content
                g = math.gcd(r[j], x)
                row = _added(ring, r[j] // g, out[k], -(x // g), r)
                content = math.gcd(*row.values())
                out[k] = {c: y // content for c, y in row.items()}
            elif x // r[j]:
                out[k] = _added(ring, 1, out[k], -(x // r[j]), r)
    if ring.kind == "Q":
        out = [{k: Fraction(x, r[min(r)]) for k, x in r.items()} for r in out]
    return out


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6", "Z/12"])
def test_echelon_matches_top_down_back_reduction(spec):
    ring = Ring.from_spec(spec)
    rng = random.Random(20261020)
    shapes = [(0, 0), (0, 5), (5, 0)] + [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(300)]
    for r, c in shapes:
        rows = []
        for _ in range(r):
            kind = rng.random()
            if rows and kind < 0.15:
                rows.append(dict(rng.choice(rows)))  # a repeated row
            elif kind < 0.25:
                rows.append({})  # a zero row
            else:
                row = {j: rng.randint(-6, 6) for j in range(c) if rng.random() < 0.5}
                if ring.kind == "Q":
                    row = {j: Fraction(x, rng.choice([1, 2, 3])) for j, x in row.items()}
                rows.append(canon_terms(ring, row))
        for start in {0, rng.randint(0, c)}:
            expected = _top_down_echelon(ring, rows, start)
            assert _echelon(ring, rows, start) == expected, (rows, start)


def _det(rows):
    """Determinant by the Leibniz formula (for matrices up to 4 x 4)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += sign * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def _invariant_factors(rows, cols):
    """The integer invariant factors from the determinantal divisors: d_1 ... d_k
    is the gcd of the k x k minors."""
    divisors = [1]
    for k in range(1, min(len(rows), cols) + 1):
        divisors.append(math.gcd(*(
            _det([[rows[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(range(len(rows)), k)
            for cs in itertools.combinations(range(cols), k)
        )))
    return [b // a if a else 0 for a, b in zip(divisors, divisors[1:])]


@pytest.mark.parametrize("spec", ["Z", "Z/4", "Z/6", "Z/12"])
def test_smith_diagonal_is_the_determinantal_one(spec):
    """Over Z, d_1 ... d_k equals the gcd of the k x k minors; over Z/m each
    d_i is gcd(integer invariant factor of the lifts, m)."""
    ring = Ring.from_spec(spec)
    rng = random.Random(20261021)
    for _ in range(80):
        M = _random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
        U, D, V = check_snf_contract(M)
        expected = _invariant_factors([[int(x) for x in r] for r in M.to_rows()], M.cols)
        if ring.kind == "Zmod":
            expected = [math.gcd(e, ring.modulus) % ring.modulus for e in expected]
        assert diag_of(D) == expected, M.to_rows()


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6"])
def test_snf_contract_on_diagonal_zero_and_one_by_one_inputs(spec):
    """U M V = D with U and V invertible on 1 x 1 and zero matrices and on
    diagonals with and without a divisibility chain, negative entries and
    zero rows among them.  A diagonal chain of divisors of m with its
    zeros last is its own Smith form: U and V come back as identities."""
    ring = Ring.from_spec(spec)
    cases = [[[x]] for x in (0, 1, 2, 3, -2, 5)]
    cases += [[[0] * c for _ in range(r)] for r in (1, 2, 3) for c in (1, 2, 3)]
    cases += [
        [[1, 0, 0], [0, 2, 0], [0, 0, 6]],
        [[1, 0, 0], [0, 2, 0], [0, 0, 0]],
        [[2, 0], [0, 3]],
        [[3, 0], [0, 2]],
        [[-2, 0], [0, 4]],
        [[0, 0], [0, 2]],
        [[2, 0, 0], [0, 0, 0], [0, 0, 4]],
        [[1, 0], [0, 2], [0, 0]],
        [[2, 0, 0], [0, 4, 0]],
    ]
    for rows in cases:
        check_snf_contract(mat(rows, ring))
    if ring.kind != "Q":  # over Q, U scales the chain to 0/1
        M = mat([[1, 0, 0], [0, 2, 0], [0, 0, 0]], ring)
        U, D, V = smith_normal_form(M)
        assert D == M
        assert U == IntMatrix.identity(ring, 3) and V == IntMatrix.identity(ring, 3)


def _all_vectors(m, k):
    return [list(v) for v in itertools.product(range(m), repeat=k)]


@pytest.mark.parametrize("m", [4, 6])
def test_solve_against_exhaustive_search(m):
    """solve returns None iff no x in (Z/m)^c has M x = b, and a solution
    whenever one exists."""
    ring = Ring.integers_mod(m)
    rng = random.Random(m)
    for _ in range(12):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        M = mat([[rng.randrange(m) for _ in range(c)] for _ in range(r)], ring)
        image = {tuple(M.apply(x)) for x in _all_vectors(m, c)}
        for b in _all_vectors(m, r):
            x = solve(M, b)
            assert (x is not None) == (tuple(b) in image), (M.to_rows(), b)
            if x is not None:
                assert M.apply(x) == b


def test_solve_over_z_images_and_parity():
    rng = random.Random(5)
    for _ in range(60):
        M = _random_matrix(rng, Z, rng.randint(1, 5), rng.randint(1, 5))
        b = M.apply([rng.randint(-5, 5) for _ in range(M.cols)])
        x = solve(M, b)
        assert x is not None and M.apply(x) == b
        even = mat([[2 * y for y in row] for row in M.to_rows()])
        odd = [2 * rng.randint(-5, 5) for _ in range(M.rows)]
        odd[rng.randrange(M.rows)] += 1
        assert solve(even, odd) is None


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6", "Z/12"])
def test_axpy_matches_the_out_of_place_sum(spec):
    """row += c * piv in place gives the fresh sum's entries in the fresh
    sum's key order, over rows whose entries cancel and, over Z/m, over
    multipliers c with c * x = 0 mod m."""
    ring = Ring.from_spec(spec)
    rng = random.Random(20261019)
    m = ring.modulus or 7
    cancelled = killed = 0
    for _ in range(2000):
        cols = rng.sample(range(12), rng.randint(0, 12))
        row = canon_terms(ring, {j: rng.randint(-m, m) for j in cols[: rng.randint(0, 8)]})
        piv = canon_terms(ring, {j: rng.randint(-m, m) for j in cols[rng.randint(0, 4):]})
        if ring.kind == "Q":  # the elimination runs over Q on integer rows
            row = {j: int(x * 6) for j, x in row.items()}
            piv = {j: int(x * 6) for j, x in piv.items()}
        if piv and rng.random() < 0.3:  # c = -row[j] / piv[j] cancels column j
            j = rng.choice(list(piv))
            row[j] = piv[j]
            c = -1
        else:
            c = rng.choice([-3, -2, -1, 1, 2, 3, m // 2, m])
        expected = _added(ring, 1, row, c, piv)
        cancelled += len(set(row) & set(piv)) > len(set(expected) & set(row) & set(piv))
        killed += ring.kind == "Zmod" and any(c * x % m == 0 for x in piv.values())
        _axpy(ring, row, c, piv)
        assert list(row.items()) == list(expected.items())
    assert cancelled > 100
    assert killed > 100 or ring.kind != "Zmod"


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/4", "Z/6"])
def test_elimination_leaves_its_inputs_alone(spec):
    """Rows are reduced in place on private copies: no routine modifies an
    input row, even one listed twice, and no output row is an input row."""
    ring = Ring.from_spec(spec)
    rng = random.Random(20261022)
    for _ in range(60):
        cols = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, 8)):
            row = {j: rng.randint(-5, 5) for j in range(cols) if rng.random() < 0.5}
            if ring.kind == "Q":
                row = {j: Fraction(x, rng.choice([1, 2, 3])) for j, x in row.items()}
            rows.append(canon_terms(ring, row))
        rows.append(rows[rng.randrange(len(rows))])  # one dict object, twice
        before = copy.deepcopy(rows)
        inputs = {id(r) for r in rows}
        keep = rng.sample(range(cols), rng.randint(0, cols))
        weights = {j: w for j in range(cols) if (w := rng.randint(0, 2)) <= 1}
        outputs = [
            *_echelon(ring, rows),
            *_echelon(ring, rows, rng.randint(0, cols)),
            *_pivot_rows(ring, rows).values(),
            *(v for _, v in filtered_kernel(ring, rows, dict.fromkeys(keep, 0))),
            *(v for _, v in filtered_kernel(ring, rows, weights)),
        ]
        _rank(ring, rows, cols)
        assert rows == before
        assert not any(id(r) in inputs for r in outputs)
        M = IntMatrix.from_rows(ring, [[r.get(j, ring.zero()) for j in range(cols)] for r in rows])
        b = [ring.from_int(rng.randint(-3, 3)) for _ in range(M.rows)]
        M_before, b_before = copy.deepcopy(M), list(b)
        row_canonical_form(M)
        x = solve(M, b)
        assert M == M_before and b == b_before and x is not b


def test_numbers_past_the_integer_text_cap_name_the_cap():
    """A modulus or a coefficient past Python's cap on integer text raises
    the cap message show uses, not int()'s own."""
    cap = sys.get_int_max_str_digits()
    if not cap:
        pytest.skip("integer text conversion is not capped in this interpreter")
    digits = "9" * (cap + 700)
    message = f"value has more than {cap} digits, the cap on integer text"
    attempts = [
        lambda: Ring.from_spec("Z/" + digits),
        lambda: Z.parse(digits),
        lambda: Z.parse("-" + digits),
        lambda: Ring.integers_mod(6).parse(digits),
        lambda: Q.parse(digits),
        lambda: Q.parse("1/" + digits),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError) as info:
            attempt()
        assert str(info.value) == message
    assert Ring.from_spec("Z/" + "9" * cap).modulus == 10**cap - 1
