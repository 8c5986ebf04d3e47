"""Dense linear algebra that only the tests use: solving M x = b and
column-span membership, over M's ring.  Both read the answer off one
rings.filtered_kernel call, the kernel every pipeline runs, so the tests
that use them check that kernel too.
"""

from letterbraid.rings import IntMatrix, ShapeError, _sparse_rows, canon_terms, filtered_kernel


def solve(M: IntMatrix, b) -> list | None:
    """One solution x of M x = b over M's ring, or None when there is none.

    The first coordinates t of the kernel vectors (t, x) of [-b | M], the
    solutions of M x = t b, form an ideal.  Its generator leads the echelon
    kernel row that pivots at coordinate 0 (Hermite, reduced echelon and
    Howell forms alike), so M x = b is solvable iff that entry is 1, and x
    is the rest of the row.
    """
    ring = M.ring
    if len(b) != M.rows:
        raise ShapeError("right-hand side of wrong length")
    rows = [
        canon_terms(ring, {0: -x, **{j + 1: y for j, y in r.items()}})
        for x, r in zip(b, _sparse_rows(M))
    ]
    kernel = filtered_kernel(ring, rows, dict.fromkeys(range(M.cols + 1), 0))
    if not kernel or kernel[0][1].get(0) != 1:
        return None
    return [kernel[0][1].get(j + 1, ring.zero()) for j in range(M.cols)]


def in_column_span(M: IntMatrix, x) -> bool:
    """Whether x is a combination of M's columns over M's ring."""
    return solve(M, x) is not None
