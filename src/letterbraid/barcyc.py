"""Bar and cyclic-bar complexes of a finite dg-algebra, and their H^0.

Elements are tensor words [a_1|...|a_p] of positive-degree basis
directions (the shift makes slot a_i contribute |a_i| - 1 to the total
degree); cyclic elements carry an extra module slot m_0 in front.  The
differential has five groups of terms (module differential, internal
differentials, left action, internal products, wrap-around action); the
signs use the exponents eps_i = |m_0| + sum_{j<=i} (|a_j| - 1).

H^0 at tensor weight <= n is computed from the degree-0 part: for a
connected algebra that part is spanned by words in the degree-1 basis,
the bar differential maps it into degree 1, and the cycle-invariant
subcomplex is cut out by one more linear condition (sigma - 1).  Kernels
are weight-filtered (rings.filtered_kernel): one echelon form, with
coordinates ordered highest weight first, gives a basis whose members of
weight <= p span the kernel at weight <= p, so the basis at weight bound
n extends the basis at n-1.  Over Z/m the echelon form is the Howell
form and the kernel comes as a generating sequence; ranks_per_weight
counts its members, which can exceed the minimal number of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .dga import FiniteDGA
from .rings import IntMatrix, Ring, filtered_kernel, smith_normal_form
from .tensors import BraidingTensor
from .words import GenSet


class NotConnectedAlgebraError(ValueError):
    code = "not_connected_algebra"


class NotACocycleError(ValueError):
    code = "not_a_cocycle"


def _shift(slot) -> int:
    return slot[0] - 1


def _check_slot(A: FiniteDGA, slot):
    d, i = slot
    if d < 1 or not 0 <= i < A.dim(d):
        raise ValueError(f"invalid tensor slot {slot}: need a positive-degree basis direction")


@dataclass
class BarElement:
    """Combination of tensor words; keys are tuples of (degree, index) slots."""

    algebra: FiniteDGA
    terms: dict

    def __post_init__(self):
        ring = self.algebra.ring
        clean = {}
        for seq, c in self.terms.items():
            seq = tuple(seq)
            for slot in seq:
                _check_slot(self.algebra, slot)
            c = ring.canon(c)
            if c != ring.zero():
                clean[seq] = c
        self.terms = clean

    @staticmethod
    def zero(A: FiniteDGA) -> "BarElement":
        return BarElement(A, {})

    @staticmethod
    def word(A: FiniteDGA, seq, coeff=1) -> "BarElement":
        return BarElement(A, {tuple(seq): A.ring.from_int(coeff) if isinstance(coeff, int) else coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({sum(_shift(s) for s in seq) for seq in self.terms})

    def weights(self):
        return sorted({len(seq) for seq in self.terms})

    def __add__(self, other: "BarElement") -> "BarElement":
        ring = self.algebra.ring
        acc = dict(self.terms)
        for seq, c in other.terms.items():
            acc[seq] = ring.add(acc.get(seq, ring.zero()), c)
        return BarElement(self.algebra, acc)

    def __neg__(self) -> "BarElement":
        ring = self.algebra.ring
        return BarElement(self.algebra, {s: ring.neg(c) for s, c in self.terms.items()})

    def __sub__(self, other: "BarElement") -> "BarElement":
        return self + (-other)

    def scale(self, coeff) -> "BarElement":
        ring = self.algebra.ring
        return BarElement(self.algebra, {s: ring.mul(c, coeff) for s, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BarElement)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def show(self) -> str:
        if not self.terms:
            return "0"
        ring = self.algebra.ring
        bits = []
        for seq, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            word = "[" + "|".join(self.algebra.label(*s) for s in seq) + "]"
            coeff = ring.show(c)
            bits.append(word if coeff == "1" else f"{coeff}*{word}")
        return " + ".join(bits)


@dataclass
class CycElement:
    """Module slot in front of a tensor word: m0[a_1|...|a_p].

    ``module`` is "A" (all of the algebra), "Abar" (positive degrees) or
    "R" (scalars; the m0 key is then None).
    """

    algebra: FiniteDGA
    module: str
    terms: dict  # (m0, seq) -> coeff

    def __post_init__(self):
        if self.module not in ("A", "Abar", "R"):
            raise ValueError(f"unknown module tag {self.module!r}")
        ring = self.algebra.ring
        clean = {}
        for (m0, seq), c in self.terms.items():
            seq = tuple(seq)
            for slot in seq:
                _check_slot(self.algebra, slot)
            if self.module == "R":
                if m0 is not None:
                    raise ValueError("scalar-module elements have no m0 slot")
            else:
                d, i = m0
                if not 0 <= i < self.algebra.dim(d):
                    raise ValueError(f"invalid m0 slot {m0}")
                if self.module == "Abar" and d < 1:
                    raise ValueError("m0 must have positive degree in the Abar module")
            c = ring.canon(c)
            if c != ring.zero():
                clean[(m0, seq)] = c
        self.terms = clean

    @staticmethod
    def zero(A: FiniteDGA, module: str) -> "CycElement":
        return CycElement(A, module, {})

    def __add__(self, other: "CycElement") -> "CycElement":
        if self.module != other.module:
            raise ValueError(f"module mismatch: {self.module} vs {other.module}")
        ring = self.algebra.ring
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = ring.add(acc.get(k, ring.zero()), c)
        return CycElement(self.algebra, self.module, acc)

    def __neg__(self) -> "CycElement":
        ring = self.algebra.ring
        return CycElement(
            self.algebra, self.module, {k: ring.neg(c) for k, c in self.terms.items()}
        )

    def __sub__(self, other: "CycElement") -> "CycElement":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycElement)
            and self.algebra is other.algebra
            and self.module == other.module
            and self.terms == other.terms
        )


# ---------------------------------------------------------------------------
# Differentials and the cycle operator
# ---------------------------------------------------------------------------


def _eps_prefix(m0_degree: int, seq):
    """eps[i] = |m0| + (|a_1| - 1) + ... + (|a_i| - 1), index 0..p."""
    eps = [m0_degree]
    for slot in seq:
        eps.append(eps[-1] + _shift(slot))
    return eps


def _add_term(ring, acc, key, coeff):
    if coeff == ring.zero():
        return
    acc[key] = ring.add(acc.get(key, ring.zero()), coeff)


def bar_differential(x: BarElement) -> BarElement:
    """Internal-differential and neighbor-product terms, with signs
    -(-1)^{eps_{i-1}} and -(-1)^{eps_i} respectively."""
    A = x.algebra
    ring = A.ring
    acc = {}
    for seq, c in x.terms.items():
        eps = _eps_prefix(0, seq)
        for i, (d, idx) in enumerate(seq):
            sign = ring.from_int(-1 if eps[i] % 2 == 0 else 1)
            for j, e in A.diff_column(d, idx):
                key = seq[:i] + ((d + 1, j),) + seq[i + 1 :]
                _add_term(ring, acc, key, ring.mul(ring.mul(c, sign), e))
        for i in range(len(seq) - 1):
            d1, i1 = seq[i]
            d2, i2 = seq[i + 1]
            sign = ring.from_int(-1 if eps[i + 1] % 2 == 0 else 1)
            for j, e in A.product(d1, i1, d2, i2):
                key = seq[:i] + ((d1 + d2, j),) + seq[i + 2 :]
                _add_term(ring, acc, key, ring.mul(ring.mul(c, sign), e))
    return BarElement(A, acc)


def cyc_differential(x: CycElement) -> CycElement:
    """All five groups of terms; for the scalar module the two action
    terms vanish through the augmentation (the tensor slots have
    positive degree, hence augmentation zero)."""
    A = x.algebra
    ring = A.ring
    acc = {}
    for (m0, seq), c in x.terms.items():
        m0_deg = 0 if m0 is None else m0[0]
        eps = _eps_prefix(m0_deg, seq)
        p = len(seq)

        if m0 is not None:  # module differential d_M(m0)
            for j, e in A.diff_column(m0[0], m0[1]):
                _add_term(ring, acc, ((m0[0] + 1, j), seq), ring.mul(c, e))

        for i, (d, idx) in enumerate(seq):  # internal differentials
            sign = ring.from_int(-1 if eps[i] % 2 == 0 else 1)
            for j, e in A.diff_column(d, idx):
                key = (m0, seq[:i] + ((d + 1, j),) + seq[i + 1 :])
                _add_term(ring, acc, key, ring.mul(ring.mul(c, sign), e))

        if p >= 1 and m0 is not None:  # left action m0 * a1
            sign = ring.from_int(-1 if m0_deg % 2 == 0 else 1)
            d1, i1 = seq[0]
            for j, e in A.product(m0[0], m0[1], d1, i1):
                key = ((m0[0] + d1, j), seq[1:])
                _add_term(ring, acc, key, ring.mul(ring.mul(c, sign), e))

        for i in range(p - 1):  # internal products
            d1, i1 = seq[i]
            d2, i2 = seq[i + 1]
            sign = ring.from_int(-1 if eps[i + 1] % 2 == 0 else 1)
            for j, e in A.product(d1, i1, d2, i2):
                key = (m0, seq[:i] + ((d1 + d2, j),) + seq[i + 2 :])
                _add_term(ring, acc, key, ring.mul(ring.mul(c, sign), e))

        if p >= 1 and m0 is not None:  # wrap-around action a_p * m0
            dp, ip = seq[-1]
            exp = eps[p - 1] * (dp - 1)
            sign = ring.from_int(-1 if exp % 2 else 1)
            for j, e in A.product(dp, ip, m0[0], m0[1]):
                key = ((dp + m0[0], j), seq[:-1])
                _add_term(ring, acc, key, ring.mul(ring.mul(c, sign), e))

    return CycElement(A, x.module, acc)


def sigma(x: BarElement) -> BarElement:
    """Rotate the last slot to the front with the Koszul sign
    (-1)^{(shifted degree of a_1..a_{p-1}) * (shifted degree of a_p)}."""
    A = x.algebra
    ring = A.ring
    acc = {}
    for seq, c in x.terms.items():
        if len(seq) <= 1:
            _add_term(ring, acc, seq, c)
            continue
        head, last = seq[:-1], seq[-1]
        exp = sum(_shift(s) for s in head) * _shift(last)
        coeff = ring.neg(c) if exp % 2 else c
        _add_term(ring, acc, (last,) + head, coeff)
    return BarElement(A, acc)


def tau(x: BarElement) -> CycElement:
    """Place the algebra unit in the module slot: x goes to 1*x in Cyc(A; A)."""
    A = x.algebra
    ring = A.ring
    acc = {}
    for seq, c in x.terms.items():
        for i, u in enumerate(A.unit):
            if u != ring.zero():
                _add_term(ring, acc, ((0, i), seq), ring.mul(c, u))
    return CycElement(A, "A", acc)


def iota(x: BarElement) -> CycElement:
    """Degree +1 relabeling [a_1|a_2|...] -> a_1[a_2|...] into Cyc(A; Abar);
    the weight-0 part has nowhere to go and maps to zero."""
    A = x.algebra
    acc = {}
    for seq, c in x.terms.items():
        if not seq:
            continue
        _add_term(A.ring, acc, (seq[0], seq[1:]), c)
    return CycElement(A, "Abar", acc)


def include_in_A(x: CycElement) -> CycElement:
    """View a scalar- or Abar-module element inside Cyc(A; A): scalars go
    to multiples of the unit, positive-degree module slots are unchanged."""
    A = x.algebra
    ring = A.ring
    acc = {}
    for (m0, seq), c in x.terms.items():
        if m0 is None:
            for i, u in enumerate(A.unit):
                if u != ring.zero():
                    _add_term(ring, acc, ((0, i), seq), ring.mul(c, u))
        else:
            _add_term(ring, acc, (m0, seq), c)
    return CycElement(A, "A", acc)


def connecting_map(x: BarElement) -> CycElement:
    """iota((sigma - 1) x) for a degree-0 bar cocycle; vanishes exactly on
    the cycle-invariant ones."""
    if any(any(_shift(s) != 0 for s in seq) for seq in x.terms):
        raise NotACocycleError("connecting map expects a degree-0 element")
    if not bar_differential(x).is_zero():
        raise NotACocycleError("element is not a bar cocycle")
    return iota(sigma(x) - x)


# ---------------------------------------------------------------------------
# H^0 of the bar and cyclic-bar complexes
# ---------------------------------------------------------------------------


@dataclass
class H0Basis:
    """Basis (generating sequence over Z/m) of the degree-0 cohomology at
    a tensor-weight bound, remembering at which weight each vector entered."""

    algebra: FiniteDGA
    weight_bound: int
    elements: tuple  # BarElement
    added_at_weight: tuple
    annihilators: tuple  # 0 = free

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @property
    def ranks_per_weight(self):
        counts = [0] * (self.weight_bound + 1)
        for p in self.added_at_weight:
            counts[p] += 1
        return counts

    @property
    def total_rank(self) -> int:
        return len(self.elements)


def _degree_zero_sequences(A: FiniteDGA, n: int):
    k = A.dim(1)
    seqs = []
    for p in range(n + 1):
        seqs.extend(iproduct(range(k), repeat=p))
    return seqs


def _bar_matrix(A: FiniteDGA, seqs):
    """Matrix of d_Bar on the span of the given degree-0 words; rows are
    indexed by the degree-1 words that actually appear."""
    ring = A.ring
    rows = {}
    cols = []
    for s in seqs:
        x = BarElement.word(A, tuple((1, i) for i in s))
        col = {}
        for key, c in bar_differential(x).terms.items():
            r = rows.setdefault(key, len(rows))
            col[r] = c
        cols.append(col)
    n_rows = len(rows)
    columns = []
    for col in cols:
        v = [ring.zero()] * n_rows
        for r, c in col.items():
            v[r] = c
        columns.append(v)
    return IntMatrix.from_columns(ring, columns, n_rows)


def _sigma_minus_one_matrix(ring: Ring, seqs):
    """Square matrix on the coordinates of `seqs` whose row t reads
    x(t[1:] + t[:1]) - x(t), zero for t of length <= 1: its kernel is the
    cycle-invariant vectors, its cokernel the rotation coinvariants."""
    index = {s: j for j, s in enumerate(seqs)}
    z, o = ring.zero(), ring.one()
    flat = []
    for t in seqs:
        row = [z] * len(seqs)
        if len(t) > 1:
            row[index[t[1:] + t[:1]]] = o
            row[index[t]] = ring.sub(row[index[t]], o)
        flat.extend(row)
    return IntMatrix(ring, len(seqs), len(seqs), tuple(flat))


def _kernel_to_h0(A: FiniteDGA, n: int, seqs, vectors, added_at, anns) -> H0Basis:
    ring = A.ring
    elements = []
    for v in vectors:
        terms = {}
        for s, c in zip(seqs, v):
            if c != ring.zero():
                terms[tuple((1, i) for i in s)] = c
        elements.append(BarElement(A, terms))
    return H0Basis(A, n, tuple(elements), tuple(added_at), tuple(anns))


def _require_connected(A: FiniteDGA):
    if not A.is_connected:
        raise NotConnectedAlgebraError(
            f"{A.name}: degree 0 has dimension {A.dim(0)}, need a single vertex"
        )


def h0_bar(A: FiniteDGA, n: int) -> H0Basis:
    """Kernel of d_Bar on degree-0 words of tensor weight <= n."""
    _require_connected(A)
    if n < 0:
        raise ValueError("weight bound must be >= 0")
    seqs = _degree_zero_sequences(A, n)
    M = _bar_matrix(A, seqs)
    vectors, added_at, anns = filtered_kernel(M, [len(s) for s in seqs], n)
    return _kernel_to_h0(A, n, seqs, vectors, added_at, anns)


def h0_cyc(A: FiniteDGA, n: int) -> H0Basis:
    """Joint kernel of d_Bar and sigma - 1: the cycle-invariant cocycles,
    which compute the degree-0 cyclic cohomology for a connected algebra."""
    _require_connected(A)
    if n < 0:
        raise ValueError("weight bound must be >= 0")
    seqs = _degree_zero_sequences(A, n)
    M = _bar_matrix(A, seqs).stack_below(_sigma_minus_one_matrix(A.ring, seqs))
    vectors, added_at, anns = filtered_kernel(M, [len(s) for s in seqs], n)
    return _kernel_to_h0(A, n, seqs, vectors, added_at, anns)


def coinvariant_rank(names, p: int, ring: Ring | None = None) -> int:
    """Number of cyclic summands of the weight-p rotation coinvariants
    (cokernel of sigma - 1 on words in degree-1 letters)."""
    if p < 1:
        raise ValueError("weight must be >= 1")
    ring = ring or Ring.integers()
    k = len(names)
    M = _sigma_minus_one_matrix(ring, list(iproduct(range(k), repeat=p)))
    _, D, _ = smith_normal_form(M)
    diag = [D.get(i, i) for i in range(min(D.rows, D.cols))]
    nontrivial = sum(1 for d in diag if not ring.is_unit(d))
    return nontrivial + (M.rows - len(diag))


def bar_element_to_tensor(x: BarElement, gens: GenSet | None = None) -> BraidingTensor:
    """Reinterpret a degree-0 bar element as a braiding tensor over the
    degree-1 basis labels (so h0 output can be fed to the evaluator)."""
    A = x.algebra
    if gens is None:
        gens = GenSet(tuple(A.basis[1]))
    if len(gens) != A.dim(1):
        raise ValueError("generator set does not match the degree-1 basis")
    terms = {}
    for seq, c in x.terms.items():
        if any(_shift(s) != 0 for s in seq):
            raise ValueError("only degree-0 elements translate to tensors")
        terms[tuple(i for _, i in seq)] = c
    return BraidingTensor(A.ring, gens, terms)
