"""Exact linear algebra over Z, Z/m, and Q.

Everything else in this package reduces, sooner or later, to linear
algebra over one of these rings: echelon forms, kernels (saturated over
Z, so quotients stay torsion-free), Smith normal form with invertible
transforms, and exact solvability of linear systems.  Coefficients are
Python ints and ``fractions.Fraction`` -- never floats, never
fixed-width.

Conventions that keep runs byte-for-byte reproducible:

* Smith pivot selection: the nonzero entry of smallest absolute value in
  the working submatrix, ties broken in row-major order.  The pivot sign
  is normalised to positive as soon as it reaches the diagonal.
* Z/m matrices are lifted to Z.  The integer Smith form reduces mod m,
  after which each diagonal entry d is rescaled by a unit to gcd(d, m),
  the canonical divisor-of-m representative, so the divisibility chain
  survives on canonical lifts.  The number of nonzero diagonal entries
  (matrix_rank) is then the minimal number of generators of the span.
* Echelon forms (row_canonical_form) are computed with every entry kept
  mod m: the Howell form, whose pivots are divisors of m.  Its rows
  generate the span but need not be a minimal generating set, so
  counting them can exceed the minimal generator count.
* Kernels (filtered_kernel, and kernel_basis as its one-weight case) are
  read off one echelon form of [M^T | I]: the rows whose pivot lies in
  the identity block.  Over Z/m each generator carries its additive
  order as annihilator (0 = free).
* Over Q the same elimination is ordinary Gaussian elimination and the
  pivots are normalised to 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class ShapeError(ValueError):
    """Matrix/vector shapes do not line up ("shape")."""

    code = "shape"


_ZMOD_RE = re.compile(r"^Z/(\d+)$")


@dataclass(frozen=True)
class Ring:
    """One of Z, Z/m (m >= 2, composite allowed), or Q.

    Elements are plain ints for Z and Z/m (canonical residues 0..m-1)
    and ``Fraction`` for Q.  All arithmetic goes through the methods
    below so callers never need to branch on the kind.
    """

    kind: str  # "Z" | "Zmod" | "Q"
    modulus: int | None = None

    @staticmethod
    def integers() -> "Ring":
        return Ring("Z")

    @staticmethod
    def rationals() -> "Ring":
        return Ring("Q")

    @staticmethod
    def integers_mod(m: int) -> "Ring":
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
        return Ring("Zmod", m)

    @staticmethod
    def from_spec(spec: str) -> "Ring":
        """Parse "Z", "Q", or "Z/m"."""
        if spec == "Z":
            return Ring.integers()
        if spec == "Q":
            return Ring.rationals()
        m = _ZMOD_RE.match(spec)
        if m:
            return Ring.integers_mod(int(m.group(1)))
        raise ValueError(f"unrecognised ring spec {spec!r} (expected Z, Q, or Z/m)")

    @property
    def spec(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        return f"Z/{self.modulus}"

    # -- element arithmetic ---------------------------------------------

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def canon(self, x):
        """Normalise x into the canonical representative; validates type."""
        if self.kind == "Q":
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, Fraction):
                return x
            raise TypeError(f"not a rational: {x!r}")
        if not isinstance(x, int):
            raise TypeError(f"not an integer: {x!r}")
        return x % self.modulus if self.kind == "Zmod" else x

    def from_int(self, k: int):
        return self.canon(Fraction(k) if self.kind == "Q" else k)

    def add(self, x, y):
        return self.canon(x + y)

    def sub(self, x, y):
        return self.canon(x - y)

    def mul(self, x, y):
        return self.canon(x * y)

    def neg(self, x):
        return self.canon(-x)

    def is_zero(self, x) -> bool:
        return self.canon(x) == self.zero()

    def is_unit(self, x) -> bool:
        x = self.canon(x)
        if self.kind == "Q":
            return x != 0
        if self.kind == "Z":
            return x in (1, -1)
        return gcd(x, self.modulus) == 1

    def inv(self, x):
        """Multiplicative inverse of a unit."""
        x = self.canon(x)
        if not self.is_unit(x):
            raise ValueError(f"{x!r} is not a unit in {self.spec}")
        if self.kind == "Q":
            return self.canon(1 / x)
        if self.kind == "Z":
            return x
        return pow(x, -1, self.modulus)

    def parse(self, text: str):
        """Parse a coefficient string: integer for Z and Z/m, "p" or "p/q" for Q."""
        text = text.strip()
        if self.kind == "Q":
            try:
                return self.canon(Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational coefficient {text!r}") from exc
        if not re.fullmatch(r"[+-]?\d+", text):
            raise ValueError(f"bad integer coefficient {text!r}")
        return self.canon(int(text))

    def show(self, x) -> str:
        x = self.canon(x)
        if self.kind == "Q" and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return str(int(x))


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix over a :class:`Ring`, stored row-major.

    Treated as immutable; all operations return new matrices.  Zero-row
    and zero-column shapes are legal (they show up as empty boundary
    conditions all over the bar-construction code).
    """

    ring: Ring
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(ring: Ring, rows_list) -> "IntMatrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        flat = []
        for row in rows_list:
            if len(row) != cols:
                raise ShapeError("ragged rows")
            flat.extend(ring.canon(x) for x in row)
        return IntMatrix(ring, rows, cols, tuple(flat))

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(ring, rows, cols, (ring.zero(),) * (rows * cols))

    @staticmethod
    def identity(ring: Ring, n: int) -> "IntMatrix":
        z, o = ring.zero(), ring.one()
        flat = [z] * (n * n)
        for i in range(n):
            flat[i * n + i] = o
        return IntMatrix(ring, n, n, tuple(flat))

    @staticmethod
    def from_columns(ring: Ring, columns, rows: int) -> "IntMatrix":
        cols = len(columns)
        flat = [ring.zero()] * (rows * cols)
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ShapeError("column of wrong length")
            for i, x in enumerate(col):
                flat[i * cols + j] = ring.canon(x)
        return IntMatrix(ring, rows, cols, tuple(flat))

    # -- access ---------------------------------------------------------

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def columns(self) -> list:
        return [list(self.column(j)) for j in range(self.cols)]

    # -- algebra --------------------------------------------------------

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ring != other.ring:
            raise ShapeError("ring mismatch in matrix product")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ring = self.ring
        flat = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ring.zero()
                for k in range(self.cols):
                    acc += ri[k] * other.entries[k * other.cols + j]
                flat.append(ring.canon(acc))
        return IntMatrix(ring, self.rows, other.cols, tuple(flat))

    def apply(self, vec) -> list:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        ring = self.ring
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            acc = ring.zero()
            for k in range(self.cols):
                acc += ri[k] * vec[k]
            out.append(ring.canon(acc))
        return out

    def transpose(self) -> "IntMatrix":
        flat = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return IntMatrix(self.ring, self.cols, self.rows, flat)

    def stack_below(self, other: "IntMatrix") -> "IntMatrix":
        if self.ring != other.ring or self.cols != other.cols:
            raise ShapeError("row stack needs equal column counts and rings")
        return IntMatrix(
            self.ring, self.rows + other.rows, self.cols, self.entries + other.entries
        )

    def submatrix_columns(self, col_indices) -> "IntMatrix":
        cols = list(col_indices)
        flat = tuple(
            self.entries[i * self.cols + j] for i in range(self.rows) for j in cols
        )
        return IntMatrix(self.ring, self.rows, len(cols), flat)

    def is_zero(self) -> bool:
        z = self.ring.zero()
        return all(x == z for x in self.entries)


@dataclass(frozen=True)
class KernelBasis:
    """Kernel of a matrix: generators as columns plus their annihilators.

    Over Z the columns are a saturated lattice basis (every integer
    kernel vector is an integer combination of them) and over Q a basis;
    every annihilator is 0.  Over Z/m the columns are a Howell generating
    set of the kernel and annihilators[i] is the additive order of
    column i (0 when the order is m, i.e. the generator is free).  That
    set need not be minimal: matrix_rank(matrix) is the minimal number
    of generators.
    """

    matrix: IntMatrix
    annihilators: tuple

    @property
    def generator_count(self) -> int:
        return self.matrix.cols

    def generators(self) -> list:
        return self.matrix.columns()


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(M: IntMatrix):
    """Return (U, D, V) with U * M * V = D over M's ring.

    D is diagonal with the divisibility chain d1 | d2 | ... on canonical
    lifts (zeros at the tail); U and V are invertible over the ring.
    Over Z the diagonal is nonnegative; over Q it is 0/1; over Z/m every
    diagonal entry is the canonical divisor gcd(lift, m) of m.
    """
    if M.ring.kind == "Z":
        u, d, v = _snf_int(M.to_rows(), M.rows, M.cols)
        return (
            IntMatrix.from_rows(M.ring, u) if M.rows else IntMatrix.zeros(M.ring, 0, 0),
            IntMatrix.from_rows(M.ring, d) if M.rows else IntMatrix.zeros(M.ring, 0, M.cols),
            IntMatrix.from_rows(M.ring, v) if M.cols else IntMatrix.zeros(M.ring, 0, 0),
        )
    if M.ring.kind == "Q":
        u, d, v = _snf_field(M.to_rows(), M.rows, M.cols)
        return (
            IntMatrix.from_rows(M.ring, u) if M.rows else IntMatrix.zeros(M.ring, 0, 0),
            IntMatrix.from_rows(M.ring, d) if M.rows else IntMatrix.zeros(M.ring, 0, M.cols),
            IntMatrix.from_rows(M.ring, v) if M.cols else IntMatrix.zeros(M.ring, 0, 0),
        )
    return _snf_zmod(M)


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_int(a, rows, cols):
    """In-place integer Smith reduction; returns (u, d, v) as row lists."""
    u = _identity_rows(rows)
    v = _identity_rows(cols)
    limit = min(rows, cols)
    for t in range(limit):
        # Pivot: smallest absolute value among nonzero entries of the
        # working submatrix, ties broken row-major.
        best = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            d = a[t][t]
            # Clear column t below the pivot.
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    q = x // d
                    if q:
                        ai, at = a[i], a[t]
                        a[i] = [ai[k] - q * at[k] for k in range(cols)]
                        ui, ut = u[i], u[t]
                        u[i] = [ui[k] - q * ut[k] for k in range(rows)]
            smaller = None
            for i in range(t + 1, rows):
                x = a[i][t]
                if x and abs(x) < d and (smaller is None or abs(x) < abs(a[smaller][t])):
                    smaller = i
            if smaller is not None:
                a[t], a[smaller] = a[smaller], a[t]
                u[t], u[smaller] = u[smaller], u[t]
                continue
            if any(a[i][t] for i in range(t + 1, rows)):
                continue  # remainders of magnitude >= d cannot occur, but stay safe
            # Clear row t to the right of the pivot.
            for j in range(t + 1, cols):
                x = a[t][j]
                if x:
                    q = x // d
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
            smaller = None
            for j in range(t + 1, cols):
                x = a[t][j]
                if x and abs(x) < d and (smaller is None or abs(x) < abs(a[t][smaller])):
                    smaller = j
            if smaller is not None:
                j = smaller
                for row in a:
                    row[t], row[j] = row[j], row[t]
                for row in v:
                    row[t], row[j] = row[j], row[t]
                continue
            if any(a[t][j] for j in range(t + 1, cols)):
                continue
            # Row and column clear; enforce d | (everything below-right)
            # so the diagonal comes out in divisibility order.
            viol = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % d:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            at, av = a[t], a[viol]
            a[t] = [at[k] + av[k] for k in range(cols)]
            ut, uv = u[t], u[viol]
            u[t] = [ut[k] + uv[k] for k in range(rows)]
    return u, a, v


def _snf_field(a, rows, cols):
    """Gaussian-elimination Smith form over Q: diagonal normalised to 1."""
    a = [[Fraction(x) for x in row] for row in a]
    u = [[Fraction(int(i == j)) for j in range(rows)] for i in range(rows)]
    v = [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    limit = min(rows, cols)
    for t in range(limit):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        scale = a[t][t]
        a[t] = [x / scale for x in a[t]]
        u[t] = [x / scale for x in u[t]]
        for i in range(rows):
            if i != t and a[i][t]:
                f = a[i][t]
                a[i] = [a[i][k] - f * a[t][k] for k in range(cols)]
                u[i] = [u[i][k] - f * u[t][k] for k in range(rows)]
        for j in range(cols):
            if j != t and a[t][j]:
                f = a[t][j]
                for row in a:
                    row[j] -= f * row[t]
                for row in v:
                    row[j] -= f * row[t]
    return u, a, v


def _unit_scaling_to_gcd(d0: int, m: int):
    """Return (g, u) with u a unit mod m and u * d0 = g = gcd(d0, m) mod m."""
    g = gcd(d0, m)
    if g == 0:  # d0 == 0 (and gcd(0, m) == m handled below)
        return 0, 1
    dprime, mprime = d0 // g, m // g
    w = None
    for t in range(m):
        cand = dprime + mprime * t
        if gcd(cand, m) == 1:
            w = cand % m
            break
    assert w is not None, "unit representative must exist"
    return g, pow(w, -1, m)


def _snf_zmod(M: IntMatrix):
    ring = M.ring
    m = ring.modulus
    u0, d0, v0 = _snf_int(M.to_rows(), M.rows, M.cols)
    u = [[x % m for x in row] for row in u0]
    v = [[x % m for x in row] for row in v0]
    d = [[0] * M.cols for _ in range(M.rows)]
    for t in range(min(M.rows, M.cols)):
        entry = d0[t][t]
        if entry == 0:
            continue
        g, unit = _unit_scaling_to_gcd(entry, m)
        if unit != 1:
            u[t] = [(unit * x) % m for x in u[t]]
        d[t][t] = g % m
    U = IntMatrix.from_rows(ring, u) if M.rows else IntMatrix.zeros(ring, 0, 0)
    D = IntMatrix.from_rows(ring, d) if M.rows else IntMatrix.zeros(ring, 0, M.cols)
    V = IntMatrix.from_rows(ring, v) if M.cols else IntMatrix.zeros(ring, 0, 0)
    return U, D, V


def _diagonal(D: IntMatrix) -> list:
    return [D.get(i, i) for i in range(min(D.rows, D.cols))]


def matrix_rank(M: IntMatrix) -> int:
    """Count of nonzero Smith diagonal entries: the rank over Z or Q, and
    over Z/m the minimal number of generators of the column span."""
    _, D, _ = smith_normal_form(M)
    z = M.ring.zero()
    return sum(1 for d in _diagonal(D) if d != z)


def cokernel_free_rank(M: IntMatrix) -> int:
    """Free rank of coker(M) = R^rows / column span, over any of the rings."""
    _, D, _ = smith_normal_form(M)
    z = M.ring.zero()
    nonzero = sum(1 for d in _diagonal(D) if d != z)
    return M.rows - nonzero


# ---------------------------------------------------------------------------
# Solving and span membership
# ---------------------------------------------------------------------------


def solve(M: IntMatrix, b) -> list | None:
    """One solution x of M x = b over M's ring, or None when there is none."""
    ring = M.ring
    if len(b) != M.rows:
        raise ShapeError("right-hand side of wrong length")
    U, D, V = smith_normal_form(M)
    rhs = U.apply([ring.canon(x) for x in b])
    diag = _diagonal(D)
    z = ring.zero()
    zvec = [z] * M.cols
    for i in range(M.rows):
        c = rhs[i]
        d = diag[i] if i < len(diag) else z
        if d == z:
            if c != z:
                return None
            continue
        if ring.kind == "Q":
            zvec[i] = c / d
        elif ring.kind == "Z":
            if c % d:
                return None
            zvec[i] = c // d
        else:
            m = ring.modulus
            g = gcd(int(d), m)
            if int(c) % g:
                return None
            zvec[i] = (int(c) // g) * pow(int(d) // g, -1, m // g) % m
    return V.apply(zvec)


def in_column_span(M: IntMatrix, x) -> bool:
    """Whether x is a combination of M's columns over M's ring."""
    return solve(M, x) is not None


def is_invertible(M: IntMatrix) -> bool:
    """Whether the square matrix is invertible over its ring."""
    if M.rows != M.cols:
        return False
    _, D, _ = smith_normal_form(M)
    return all(M.ring.is_unit(d) for d in _diagonal(D)) and min(M.rows, M.cols) == M.rows


# ---------------------------------------------------------------------------
# Echelon forms
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (-a, -s0, -t0) if a < 0 else (a, s0, t0)


def _combine(ring: Ring, c1, r1: dict, c2, r2: dict) -> dict:
    """c1 * r1 + c2 * r2 for sparse rows (column -> nonzero entry)."""
    out = {j: c1 * x for j, x in r1.items()}
    for j, x in r2.items():
        out[j] = out.get(j, 0) + c2 * x
    m = ring.modulus
    if m:
        return {j: x % m for j, x in out.items() if x % m}
    return {j: x for j, x in out.items() if x}


def _install_pivot(ring: Ring, row: dict, j: int, pending: list) -> dict:
    """Scale row by a unit so its entry at column j is canonical.

    Over Z/m the entry becomes g = gcd(entry, m), and (m/g) * row, which
    vanishes at j, is queued: the rows pivoting right of j must span it
    for the Howell property to hold.
    """
    x = row[j]
    if ring.kind == "Z":
        return _combine(ring, -1, row, 0, {}) if x < 0 else row
    if ring.kind == "Q":
        return _combine(ring, 1 / x, row, 0, {}) if x != 1 else row
    m = ring.modulus
    g, unit = _unit_scaling_to_gcd(x, m)
    if unit != 1:
        row = _combine(ring, unit, row, 0, {})
    multiple = _combine(ring, m // g, row, 0, {})
    if multiple:
        pending.append(multiple)
    return row


def _echelon(ring: Ring, rows, cols: int) -> list:
    """Canonical echelon form of the row span of `rows` (length-cols sequences).

    Over Q the reduced row echelon form; over Z the Hermite form
    (positive pivots, entries above each pivot in [0, pivot)); over Z/m
    the Howell form, i.e. the Hermite form of the lifts together with
    m * Z^cols, computed with every entry kept in [0, m): pivots are
    divisors of m and entries above a pivot g lie in [0, g).  Rows come
    out in pivot order, zero rows dropped, and depend only on the span.
    For every column j the rows pivoting at or right of j span the
    vectors of the row span that vanish left of j.

    Rows are reduced one at a time against the pivot rows found so far
    (kept sparse); a gcd step merges a row into a pivot row it cannot
    clear.  Entries above the pivots are reduced at the end.
    """
    z = ring.zero()
    pending = [{j: x for j, x in enumerate(r) if x != z} for r in reversed(rows)]
    pivots = {}
    while pending:
        row = pending.pop()
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                pivots[j] = _install_pivot(ring, row, j, pending)
                break
            a, b = piv[j], row[j]
            if ring.kind == "Q" or b % a == 0:
                row = _combine(ring, 1, row, -(b / a if ring.kind == "Q" else b // a), piv)
            else:
                g, s, t = _xgcd(a, b)
                merged = _combine(ring, s, piv, t, row)
                row = _combine(ring, a // g, row, -(b // g), piv)
                pivots[j] = _install_pivot(ring, merged, j, pending)
    out = [pivots[j] for j in sorted(pivots)]
    for i, r in enumerate(out):
        j = min(r)
        p = r[j]
        for k in range(i):
            x = out[k].get(j)
            if x is not None:
                q = x / p if ring.kind == "Q" else x // p
                if q:
                    out[k] = _combine(ring, 1, out[k], -q, r)
    return [[r.get(j, z) for j in range(cols)] for r in out]


def row_canonical_form(M: IntMatrix) -> IntMatrix:
    """Canonical matrix with the same row span as M; zero rows dropped.

    Two matrices over the same ring have equal row_canonical_form iff
    their rows generate the same submodule of R^cols, so basis-level
    comparisons reduce to entrywise equality of these forms.  Over Q
    this is the reduced row echelon form; over Z the row Hermite form;
    over Z/m the Howell form, whose pivots divide m and whose entries
    above a pivot g lie in [0, g).
    """
    reduced = _echelon(M.ring, M.to_rows(), M.cols)
    return IntMatrix(M.ring, len(reduced), M.cols, tuple(x for r in reduced for x in r))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _vector_annihilator(ring: Ring, v) -> int:
    """Additive order of v over Z/m (0 when it is m, i.e. v is free); 0 over Z and Q."""
    if ring.kind != "Zmod":
        return 0
    m = ring.modulus
    g = 0
    for c in v:
        g = gcd(g, int(c))
    d = m // gcd(m, g)
    return 0 if d == m else d % m


def filtered_kernel(M: IntMatrix, col_weights, up_to: int):
    """Kernel generators of M, filtered by column weight.

    Returns (vectors, added_at_weight, annihilators), ordered by the
    weight at which each vector enters.  Columns of weight > up_to are
    left out.  The vectors entering at weight <= p span ker M restricted
    to the columns of weight <= p, so the result for up_to = p is a
    prefix of the result for any larger bound.  Over Z and Q they form a
    basis; over Z/m a generating sequence with per-vector annihilators,
    which can be longer than the minimal number of generators.

    One echelon form of [M^T | I] gives all of it (the left-to-right
    reduction of persistent homology): the identity columns are ordered
    by weight, highest first, so the echelon rows whose pivot lies in the
    identity block are a canonical echelon basis of the kernel, and the
    rows pivoting at weight <= p span its part of weight <= p.  Those
    rows depend only on the kernel, hence only on the row span of M.
    """
    ring = M.ring
    z, o = ring.zero(), ring.one()
    keep = sorted(
        (j for j, w in enumerate(col_weights) if w <= up_to),
        key=lambda j: (-col_weights[j], j),
    )
    rows = [
        list(M.column(j)) + [o if t == s else z for s in range(len(keep))]
        for t, j in enumerate(keep)
    ]
    found = []
    for row in _echelon(ring, rows, M.rows + len(keep)):
        if any(x != z for x in row[: M.rows]):
            continue
        v = [z] * M.cols
        for t, x in enumerate(row[M.rows :]):
            v[keep[t]] = x
        lead = next(t for t, x in enumerate(row[M.rows :]) if x != z)
        found.append((col_weights[keep[lead]], v))
    found.sort(key=lambda wv: wv[0])  # stable: pivot order within a weight
    vectors = [v for _, v in found]
    anns = tuple(_vector_annihilator(ring, v) for v in vectors)
    return vectors, tuple(w for w, _ in found), anns


def kernel_basis(M: IntMatrix) -> KernelBasis:
    """Solutions of M x = 0 as a :class:`KernelBasis`: filtered_kernel
    with every column at weight 0, so the generators are the echelon
    basis of the kernel (Hermite over Z, reduced echelon over Q, Howell
    over Z/m) and depend only on the row span of M."""
    vectors, _, anns = filtered_kernel(M, [0] * M.cols, 0)
    return KernelBasis(IntMatrix.from_columns(M.ring, vectors, M.cols), anns)
