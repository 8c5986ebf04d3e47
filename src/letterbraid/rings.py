"""Exact linear algebra over Z, Z/m, and Q.

Everything else in this package reduces, sooner or later, to linear
algebra over one of these rings: echelon forms, kernels (saturated over
Z, so quotients stay torsion-free), and Smith normal form with
invertible transforms.  Coefficients are Python ints and
``fractions.Fraction`` -- never floats, never fixed-width.

There is one elimination, _echelon, with one step that reduces a row
above the pivots, _reduce_tail.  It copies each input row once, on entry,
and reduces the copies in place with one row update, _axpy (row += c *
pivot, touching only the pivot's columns), so callers' rows are never
modified.  Conventions that keep runs byte-for-byte reproducible:

* Smith forms come from Hermite forms alone (Kannan and Bachem): the
  row Hermite forms of [D | U] and of [D^T | V^T] alternate until D is
  diagonal, and a column sum repairs each break in the divisibility
  chain.  The diagonal is unique; U and V are not.
* Every Smith form is the integer one.  Z/m matrices are lifted to Z;
  the integer Smith form reduces mod m, after which each diagonal entry
  d is rescaled by a unit to gcd(d, m), the canonical divisor-of-m
  representative, so the divisibility chain survives on canonical lifts.
  The number of nonzero diagonal entries is then the minimal number of
  generators of the span; matrix_rank over Z/m counts it on the few
  pivot rows of one echelon pass, and over Z and Q counts those pivot
  rows themselves.  A Q matrix is scaled by the lcm c of its
  denominators, and row t of the integer U by c / d_t, so the diagonal
  reads 1s, then 0s.
* Echelon forms (row_canonical_form) are _echelon's, on sparse rows
  (column -> nonzero entry), with every entry kept mod m:
  the Howell form, whose pivots are divisors of m.  Its rows generate
  the span but need not be a minimal generating set, so counting them
  can exceed the minimal generator count.
* Every kernel is one filtered_kernel call on sparse rows: H^0 of the
  bar and cyclic-bar complexes and both tensor bases (through
  tensors._orbit_kernel), and the group-ring oracle's stages.  It
  is read off one echelon form of [M^T | I]: the rows whose pivot lies
  in the identity block.  Only those rows are back-reduced; the others
  are dropped.  Over Z/m each generator's additive order is its
  annihilator (0 = free).
* Over Q the same elimination is fraction-free, on primitive integer
  rows; Fractions appear only in the output, each row over its pivot.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class ShapeError(ValueError):
    """Matrix/vector shapes do not line up ("shape")."""

    code = "shape"


_ZMOD_RE = re.compile(r"Z/(0|[1-9][0-9]*)")  # canonical ASCII decimal only


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
        """Parse "Z", "Q", or "Z/m"; an m past Python's cap on integer text
        raises a ValueError naming the cap."""
        if spec == "Z":
            return Ring.integers()
        if spec == "Q":
            return Ring.rationals()
        m = _ZMOD_RE.fullmatch(spec) if isinstance(spec, str) else None
        if m:
            try:
                modulus = int(m.group(1))
            except ValueError:  # the digits matched, so only their number fails
                raise _text_cap_error() from None
            return Ring.integers_mod(modulus)
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

    def mul(self, x, y):
        return self.canon(x * y)

    def parse(self, text: str):
        """Parse a coefficient string: integer for Z and Z/m, "p" or "p/q" for
        Q (Fraction alone would also take "1e999999999", of 10^9 digits).
        A number past Python's cap on integer text raises a ValueError
        naming the cap, as show does."""
        text = text.strip()
        q = self.kind == "Q"
        if re.fullmatch(r"[+-]?\d+(/\d+)?" if q else r"[+-]?\d+", text):
            try:
                return self.canon(Fraction(text) if q else int(text))
            except ZeroDivisionError:
                pass
            except ValueError:  # the text matched, so only its length fails
                raise _text_cap_error() from None
        raise ValueError(f"bad {'rational' if q else 'integer'} coefficient {text!r}")

    def from_json(self, value, field: str):
        """Parse a JSON integer or string.  A float, bool or null is refused,
        so no number is read through a double."""
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(f"{field} must be a JSON integer or string, got {value!r}")
        return self.parse(str(value))

    def show(self, x) -> str:
        """x as text that parse reads back: a value past Python's cap on
        integer text, which parse also has, raises a ValueError naming it."""
        x = self.canon(x)
        try:
            return str(x if self.kind == "Q" else int(x))
        except ValueError:
            raise _text_cap_error() from None


def _json_list(value, field: str) -> list:
    """value, if it is a JSON array.  Anything else is refused, since a
    string would otherwise be read as a list of its characters."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON list, got {value!r}")
    return value


def _text_cap_error() -> ValueError:
    """The error for a number past Python's cap on integer text, which
    int() and str() refuse with a message about sys.set_int_max_str_digits."""
    cap = sys.get_int_max_str_digits()
    return ValueError(f"value has more than {cap} digits, the cap on integer text")


_Z = Ring.integers()


def canon_terms(ring: Ring, terms: dict) -> dict:
    """The terms with canonical nonzero coefficients, in their order.

    Each coefficient goes through ring.canon once, which raises a
    TypeError on a float or any other non-ring value, and zeros are
    dropped.  So a loop may accumulate plain ints and Fractions and
    apply the ring once, to the final sums.
    """
    out = {}
    for key, c in terms.items():
        c = ring.canon(c)
        if c:
            out[key] = c
    return out


def _same(a, b) -> bool:
    return a is b or a == b


class Combination:
    """Finite formal sum: one nonzero ring element per key.

    The base of every formal sum in the package: bar and cyclic-bar
    elements and braiding tensors.  A subclass is a dataclass with
    ``eq=False``, a ``terms`` field and a ``ring``.  It checks and
    normalises each key in ``_key``, and lists in ``_SPACE`` the other
    fields that fix the space it lives in, each with the error raised
    when two operands differ in it.  The constructor cleans the terms (canon_terms), so operations
    accumulate plain sums and the ring is applied once, to the result.
    Kernel output, canonical already, takes the one trusted constructor
    _canonical instead; every public constructor keeps all its checks.
    """

    _SPACE = ()  # (field name, error class) pairs

    def __post_init__(self):
        self.terms = canon_terms(self.ring, {self._key(k): c for k, c in self.terms.items()})

    @classmethod
    def _canonical(cls, terms: dict, **space):
        """The element with the other fields, given in field order, and terms
        already canonical: valid keys, nonzero canonical coefficients, final order."""
        self = object.__new__(cls)
        for name, value in space.items():  # field order keeps instance dicts shared
            setattr(self, name, value)
        self.terms = terms
        return self

    def _key(self, key):
        """The key in canonical form; raises if it lies outside the space."""
        return tuple(key)

    def _like(self, terms: dict):
        """An element of the same space with the given (uncleaned) terms."""
        return replace(self, terms=terms)

    def _require_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ring != other.ring:
            raise ShapeError(f"coefficient rings differ: {self.ring.spec} vs {other.ring.spec}")
        for name, error in self._SPACE:
            if not _same(getattr(self, name), getattr(other, name)):
                raise error(f"{type(self).__name__} operands differ in {name}")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(self._key(key), self.ring.zero())

    def __add__(self, other):
        self._require_compatible(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return self._like(acc)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        return self._like({key: c * coeff for key, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ring == other.ring
            and all(_same(getattr(self, name), getattr(other, name)) for name, _ in self._SPACE)
            and self.terms == other.terms
        )


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

    def stack_below(self, other: "IntMatrix") -> "IntMatrix":
        if self.ring != other.ring or self.cols != other.cols:
            raise ShapeError("row stack needs equal column counts and rings")
        return IntMatrix(
            self.ring, self.rows + other.rows, self.cols, self.entries + other.entries
        )


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
    ring, m = M.ring, M.ring.modulus
    c = lcm(*(x.denominator for x in M.entries)) if ring.kind == "Q" else 1
    u, d, v = _snf_int([{j: int(x * c) for j, x in r.items()} for r in _sparse_rows(M)], M.cols)
    for t, row in enumerate(d):
        x = row.get(t)
        if x and ring.kind == "Q":  # U'(cM)V = D' over Z: row t of U' times c / d_t
            u[t], row[t] = {k: Fraction(c * y, x) for k, y in u[t].items()}, 1
        elif x and m:  # a unit times d_t is the canonical divisor gcd(d_t, m)
            g, unit = _unit_scaling_to_gcd(x, m)
            u[t], row[t] = {k: unit * y for k, y in u[t].items()}, g
    return tuple(
        _dense(ring, [canon_terms(ring, r) for r in rows], width)
        for rows, width in ((u, M.rows), (d, M.cols), (v, M.cols))
    )


def _hermite_pair(a: list, b: list, width: int):
    """The row Hermite form of the sparse rows [a | b], with a `width`
    columns wide, split back into its two blocks."""
    h = _echelon(_Z, [{**r, **{width + k: x for k, x in s.items()}} for r, s in zip(a, b)])
    return (
        [{k: x for k, x in r.items() if k < width} for r in h],
        [{k - width: x for k, x in r.items() if k >= width} for r in h],
    )


def _transpose(rows: list, cols: int) -> list:
    out = [{} for _ in range(cols)]
    for i, r in enumerate(rows):
        for j, x in r.items():
            out[j][i] = x
    return out


def _snf_int(a: list, cols: int):
    """Integer Smith form of the sparse rows `a` (`cols` columns wide) from
    Hermite forms alone, as Kannan and Bachem build it: (u, d, v) as sparse
    rows with u a v = d.

    The row Hermite form of [D | U] and that of [D^T | V^T] alternate until
    D is diagonal; both blocks U and V are invertible, so each form keeps
    every row, and its pivot order sinks the zero rows of D.  Then, while
    some d_i does not divide d_(i+1), column i+1 is added to column i, in
    D and in V, and the alternation resumes: it brings d_i down to
    gcd(d_i, d_(i+1)).  The alternation leaves a D that is already
    diagonal, with positive entries leading its zero rows, as it is, with
    identity blocks; so that test comes first, and a diagonal input with a
    divisibility chain returns at once.
    """
    rows = len(a)
    d, u, v = a, [{i: 1} for i in range(rows)], [{j: 1} for j in range(cols)]
    while True:
        diag = [r.get(i, 0) for i, r in enumerate(d[: sum(1 for r in d if r)])]
        if all(x > 0 and len(r) == 1 for x, r in zip(diag, d)):
            i = next((i for i in range(len(diag) - 1) if diag[i + 1] % diag[i]), None)
            if i is None:
                return u, d, v
            d[i + 1][i] = diag[i + 1]
            v = [canon_terms(_Z, {**r, i: r.get(i, 0) + r.get(i + 1, 0)}) for r in v]
        d, u = _hermite_pair(d, u, cols)
        dt, vt = _hermite_pair(_transpose(d, cols), _transpose(v, cols), rows)
        d, v = _transpose(dt, rows), _transpose(vt, cols)


def _unit_scaling_to_gcd(d0: int, m: int):
    """Return (g, u) with u a unit mod m and u * d0 = g = gcd(d0, m) mod m."""
    g = gcd(d0, m)
    # lifts of d0/g, a unit mod m/g; one of them is a unit mod m
    lifts = (d0 // g + m // g * t for t in range(m))
    return g, pow(next(w for w in lifts if gcd(w, m) == 1), -1, m)


def matrix_rank(M: IntMatrix) -> int:
    """The rank over Z or Q, and over Z/m the minimal number of generators
    of the span."""
    return _rank(M.ring, _sparse_rows(M), M.cols)


def _rank(ring: Ring, rows: list, cols: int) -> int:
    """matrix_rank of the sparse rows, `cols` columns wide.

    One echelon pass (no back-reduction) gives pivot rows that generate
    the same module; over Z and Q their number is the rank.  Over Z/m it
    is the number of integer Smith diagonal entries of their lifts that m
    does not divide: for any lifts B of generators of a submodule N,
    B = U D V gives N = (+) Z/(m / gcd(d_i, m)), an invariant-factor
    decomposition.  The k lifts are independent over Z (distinct pivots),
    so a basis of the lattice their columns span is k x k with B's Smith
    diagonal: the Smith form stays k x k whatever the shape.  The count
    is the same for the transpose, hence for the column span.
    """
    pivots = _pivot_rows(ring, rows)
    if ring.kind != "Zmod":
        return len(pivots)
    square = _pivot_rows(_Z, _transpose(list(pivots.values()), cols))
    _, d, _ = _snf_int(list(square.values()), len(pivots))
    return sum(1 for t, r in enumerate(d) if r.get(t, 0) % ring.modulus)


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


def _axpy(ring: Ring, row: dict, c, piv: dict) -> None:
    """row += c * piv in place, for sparse rows (column -> nonzero entry):
    each sum reduced mod m over Z/m, and entries that become 0 deleted.

    It costs O(|piv|), not O(|row| + |piv|).  A column new to row goes
    after row's own, in piv's order, so keys come in the order of the
    fresh sum {**row, **piv} with its zeros dropped.
    """
    m = ring.modulus
    for j, x in piv.items():
        y = row.get(j, 0) + c * x
        if m:
            y %= m
        if y:
            row[j] = y
        elif j in row:
            del row[j]


def _combine(ring: Ring, c1, r1: dict, c2, r2: dict) -> dict:
    """c1 * r1 + c2 * r2 as a fresh sparse row: a scaled copy of r1, then
    _axpy.  Keys come in r1's order, then r2's new ones; an entry of r1
    that c1 kills (mod m) is dropped only after the sum, so a column r2
    revives keeps r1's place."""
    out = {j: c1 * x for j, x in r1.items()}
    _axpy(ring, out, c2, r2)
    m = ring.modulus
    if m:
        return {j: x % m for j, x in out.items() if x % m}
    return {j: x for j, x in out.items() if x}


def _scale(ring: Ring, row: dict, c) -> None:
    """row *= c in place, mod m over Z/m.  c is a unit, or a nonzero
    integer on an integer row, so no entry becomes 0."""
    m = ring.modulus
    for j, x in row.items():
        row[j] = c * x % m if m else c * x


def _install_pivot(ring: Ring, row: dict, j: int, pending: list) -> dict:
    """Scale row in place by a unit so its entry at column j is canonical
    (positive over Z, and over Q, whose rows here are primitive integer
    rows).

    Over Z/m the entry becomes g = gcd(entry, m), and (m/g) * row, which
    vanishes at j, is queued: the rows pivoting right of j must span it
    for the Howell property to hold.  For a unit pivot (g = 1) that
    multiple is m * row = 0, and is not built.
    """
    x = row[j]
    if ring.kind != "Zmod":
        if x < 0:
            _scale(ring, row, -1)
        return row
    m = ring.modulus
    g, unit = _unit_scaling_to_gcd(x, m)
    if unit != 1:
        _scale(ring, row, unit)
    multiple = _combine(ring, m // g, row, 0, {}) if g > 1 else None
    if multiple:
        pending.append(multiple)
    return row


def _reduce_tail(ring: Ring, row: dict, j: int, pivots: dict) -> dict:
    """Reduce row at the pivot columns right of j modulo those pivots, left
    to right, including the entries the reduction creates: over Q each
    entry is cleared (_cross), over Z and Z/m brought into [0, pivot) by
    the floor quotient (_axpy, in place).  A heap holds the pivot columns
    still to visit."""
    heap = [k for k in row if k > j and k in pivots]
    heapify(heap)
    queued = set(heap)
    while heap:
        k = heappop(heap)
        x = row.get(k)
        if x is None:
            continue
        piv = pivots[k]
        if ring.kind == "Q":
            row = _cross(ring, row, piv, k)
        elif x // piv[k]:
            _axpy(ring, row, -(x // piv[k]), piv)
        else:
            continue
        for c in piv:
            if c > k and c in pivots and c not in queued:
                queued.add(c)
                heappush(heap, c)
    return row


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _integral(row: dict) -> dict:
    """The primitive integer row with the same Q span as a row of
    Fractions: denominators cleared by their lcm, then made primitive."""
    d = lcm(*(x.denominator for x in row.values()))
    return _primitive({j: x.numerator * (d // x.denominator) for j, x in row.items()})


def _cross(ring: Ring, row: dict, piv: dict, j: int) -> dict:
    """Over Q, the primitive row (a/g)*row - (b/g)*piv, which vanishes at
    column j, for a = piv[j], b = row[j] and g = gcd(a, b).

    It consumes row: row is scaled and reduced in place, and the result
    is row itself or, when it has a content to divide out, a fresh row.
    """
    a, b = piv[j], row[j]
    g = gcd(a, b)
    if a != g:
        _scale(ring, row, a // g)
    _axpy(ring, row, -(b // g), piv)
    return _primitive(row)


def _pivot_rows(ring: Ring, rows) -> dict:
    """The forward pass of _echelon: pivot column -> pivot row, unreduced
    above the pivots.  Its size is the rank over Z and Q.

    Each input row is copied once, on entry; the copies are then reduced
    in place (_axpy), so no input row is modified and none is returned.

    Over Z the row a gcd merge installs is tail-reduced (_reduce_tail), as
    in Kannan and Bachem's Hermite algorithm: the Bezout combination of
    two rows can carry large trailing entries, and merging such rows again
    lets them grow without bound.

    Over Q each row is read in as a primitive integer row (_integral) and
    cleared by cross-multiplication (_cross), so the pivot rows hold ints.
    """
    rational = ring.kind == "Q"
    pending = [_integral(r) if rational else dict(r) for r in reversed(rows)]
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
            if rational:
                row = _cross(ring, row, piv, j)
            elif b % a == 0:
                _axpy(ring, row, -(b // a), piv)
            else:
                g, s, t = _xgcd(a, b)
                merged = _combine(ring, s, piv, t, row)
                row = _combine(ring, a // g, row, -(b // g), piv)
                merged = _install_pivot(ring, merged, j, pending)
                if ring.kind == "Z":
                    merged = _reduce_tail(ring, merged, j, pivots)
                pivots[j] = merged
    return pivots


def _echelon(ring: Ring, rows, start: int = 0) -> list:
    """Canonical echelon form of the row span of `rows`, sparse rows
    (column -> nonzero canonical entry) in and out.

    Over Q the reduced row echelon form; over Z the Hermite form
    (positive pivots, entries above each pivot in [0, pivot)); over Z/m
    the Howell form, i.e. the Hermite form of the lifts together with
    m * Z^cols, computed with every entry kept in [0, m): pivots are
    divisors of m and entries above a pivot g lie in [0, g).  Rows come
    out in pivot order and depend only on the span.  For every column j
    the rows pivoting at or right of j span the vectors of the row span
    that vanish left of j.

    Rows are reduced one at a time against the pivot rows found so far;
    a gcd step merges a row into a pivot row it cannot clear.  Entries
    above the pivots are reduced at the end, bottom-up, and only in the
    rows pivoting at or right of `start`: the others are dropped
    unreduced (the "clearing" of persistent homology).  Each row is
    reduced by _reduce_tail against the rows below it, which are final
    by then.  Over Q each row is divided by its pivot only at the end.
    """
    pivots = _pivot_rows(ring, rows)
    final = {}
    for j in sorted((j for j in pivots if j >= start), reverse=True):
        final[j] = _reduce_tail(ring, pivots[j], j, final)
    out = [final[j] for j in reversed(final)]
    if ring.kind == "Q":
        for i, r in enumerate(out):
            p = r[min(r)]
            out[i] = {k: Fraction(x, p) for k, x in r.items()}
    return out


def _sparse_rows(M: IntMatrix) -> list:
    c = M.cols
    return [
        {j: x for j, x in enumerate(M.entries[i * c : (i + 1) * c]) if x}
        for i in range(M.rows)
    ]


def row_canonical_form(M: IntMatrix) -> IntMatrix:
    """Canonical matrix with the same row span as M; zero rows dropped.

    Two matrices over the same ring have equal row_canonical_form iff
    their rows generate the same submodule of R^cols, so basis-level
    comparisons reduce to entrywise equality of these forms.  Over Q
    this is the reduced row echelon form; over Z the row Hermite form;
    over Z/m the Howell form, whose pivots divide m and whose entries
    above a pivot g lie in [0, g).
    """
    return _dense(M.ring, _echelon(M.ring, _sparse_rows(M)), M.cols)


def _dense(ring: Ring, rows: list, cols: int) -> IntMatrix:
    """The matrix with the given sparse rows of canonical entries."""
    z = ring.zero()
    return IntMatrix(ring, len(rows), cols, tuple(r.get(j, z) for r in rows for j in range(cols)))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _vector_annihilator(ring: Ring, v) -> int:
    """Additive order of v over Z/m (0 when it is m, i.e. v is free); 0 over Z and Q."""
    if ring.kind != "Zmod":
        return 0
    d = ring.modulus // gcd(ring.modulus, *map(int, v))
    return 0 if d == ring.modulus else d


def filtered_kernel(ring: Ring, rows, weights: dict) -> list:
    """Kernel generators of the matrix with sparse `rows` (column ->
    entry), filtered by column weight: (weight, sparse vector) pairs in
    the order of the weight at which each vector enters, and in pivot
    order within a weight.

    Only the columns in `weights` (column -> weight) are kept, so passing
    those of weight <= p gives the kernel on them, a prefix of the result
    for any larger set.  Over Z and Q the vectors form a basis; over Z/m
    a generating sequence, which can be longer than the minimal number of
    generators, each of additive order _vector_annihilator.

    One echelon form of the sparse rows [M^T | I] gives all of it: the
    left-to-right reduction of persistent homology, with clearing
    (Zomorodian and Carlsson 2005; Chen and Kerber 2011).  The identity
    columns are ordered by weight, highest first, so the rows pivoting in
    the identity block, which have zero M-part, are a canonical echelon
    basis of the kernel, and those pivoting at weight <= p span its part
    of weight <= p.  They depend only on the row span of M, and only they
    are back-reduced; the rows pivoting in the M block are dropped.
    """
    keep = sorted(weights, key=lambda j: (-weights[j], j))
    height = len(rows)
    columns = {j: {} for j in keep}
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j in columns:
                columns[j][i] = x
    stacked = [{**columns[j], height + t: ring.one()} for t, j in enumerate(keep)]
    found = [
        (weights[keep[min(r) - height]], {keep[t - height]: x for t, x in r.items()})
        for r in _echelon(ring, stacked, height)
    ]
    found.sort(key=lambda wv: wv[0])  # stable: pivot order within a weight
    return found
