"""Bar and cyclic-bar complexes of a finite dg-algebra, and their H^0.

Elements are tensor words [a_1|...|a_p] of positive-degree basis
directions (the shift makes slot a_i contribute |a_i| - 1 to the total
degree); cyclic elements carry an extra module slot m_0 in front.  The
differential has five groups of terms (module differential, internal
differentials, left action, internal products, wrap-around action); the
signs use the exponents eps_i = |m_0| + sum_{j<=i} (|a_j| - 1).  The
bar complex is the case of scalar coefficients R, m_0 empty (Loday,
Cyclic Homology, 1992, 1.1): bar_differential and tau are
cyc_differential and include_in_A on that copy.

H^0 at tensor weight <= n is computed from the degree-0 part: for a
connected algebra that part is spanned by words in the degree-1 basis,
and the bar differential maps it into degree 1.  sigma permutes those
words (with no sign), so the cycle-invariant ones are free on the orbit
sums (necklaces), and the cyclic H^0 is the kernel of d_Bar on them:
HH_0, with the bar H^0 the same kernel on single words.  Both are
tensors._orbit_kernel of the d_Bar series (_d_bar_series).  Kernels are
weight-filtered: the basis at weight bound n extends the basis at n-1.
Over Z/m the kernel comes as a generating sequence; ranks_per_weight
counts its members, which can exceed the minimal number of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product as iproduct

from .dga import FiniteDGA
from .rings import Combination, Ring
from .tensors import (
    BraidingTensor,
    FilteredBasis,
    _orbit_kernel,
    rotation_orbits,
)
from .words import GenSet


class NotConnectedAlgebraError(ValueError):
    code = "not_connected_algebra"


class NotACocycleError(ValueError):
    code = "not_a_cocycle"


def _shift(slot) -> int:
    return slot[0] - 1


def _check_word(A: FiniteDGA, seq) -> tuple:
    """The tensor word as a tuple of slots, each a positive-degree basis direction."""
    seq = tuple(seq)
    basis = A.basis
    for d, i in seq:
        if not (0 < d < len(basis) and 0 <= i < len(basis[d])):
            raise ValueError(f"invalid tensor slot {(d, i)}: need a positive-degree basis direction")
    return seq


@dataclass(eq=False)
class BarElement(Combination):
    """Combination of tensor words; keys are tuples of (degree, index) slots."""

    algebra: FiniteDGA
    terms: dict

    _SPACE = (("algebra", ValueError),)

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    def _key(self, seq) -> tuple:
        return _check_word(self.algebra, seq)

    @staticmethod
    def word(A: FiniteDGA, seq, coeff=1) -> "BarElement":
        return BarElement(A, {tuple(seq): coeff})


@dataclass(eq=False)
class CycElement(Combination):
    """Module slot in front of a tensor word: m0[a_1|...|a_p].

    ``module`` is "A" (all of the algebra), "Abar" (positive degrees) or
    "R" (scalars; the m0 key is then None).
    """

    algebra: FiniteDGA
    module: str
    terms: dict  # (m0, seq) -> coeff

    _SPACE = (("algebra", ValueError), ("module", ValueError))

    def __post_init__(self):
        if self.module not in ("A", "Abar", "R"):
            raise ValueError(f"unknown module tag {self.module!r}")
        super().__post_init__()

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    def _key(self, key) -> tuple:
        m0, seq = key
        seq = _check_word(self.algebra, seq)
        if self.module == "R":
            if m0 is not None:
                raise ValueError("scalar-module elements have no m0 slot")
        else:
            d, i = m0
            if not 0 <= i < self.algebra.dim(d):
                raise ValueError(f"invalid m0 slot {m0}")
            if self.module == "Abar" and d < 1:
                raise ValueError("m0 must have positive degree in the Abar module")
        return (m0, seq)


# ---------------------------------------------------------------------------
# Differentials and the cycle operator
# ---------------------------------------------------------------------------


def _scalar(x: BarElement) -> CycElement:
    """x in the cyclic bar complex with scalar coefficients, Cyc(A; R),
    which is the bar complex: each word gets the empty module slot."""
    return CycElement(x.algebra, "R", {(None, seq): c for seq, c in x.terms.items()})


def bar_differential(x: BarElement) -> BarElement:
    """cyc_differential in the scalar module, where only the internal
    differentials and neighbour products survive."""
    return x._like({seq: c for (_, seq), c in cyc_differential(_scalar(x)).terms.items()})


def cyc_differential(x: CycElement) -> CycElement:
    """All five groups of terms; for the scalar module the two action
    terms vanish through the augmentation (the tensor slots have
    positive degree, hence augmentation zero)."""
    A = x.algebra
    acc = {}
    for (m0, seq), c in x.terms.items():
        m0_deg = 0 if m0 is None else m0[0]
        eps = list(accumulate(map(_shift, seq), initial=m0_deg))  # eps_0..eps_p
        p = len(seq)

        if m0 is not None:  # module differential d_M(m0)
            for j, e in A.diff_column(m0[0], m0[1]):
                key = ((m0[0] + 1, j), seq)
                acc[key] = acc.get(key, 0) + c * e

        for i, (d, idx) in enumerate(seq):  # internal differentials
            sign = -1 if eps[i] % 2 == 0 else 1
            for j, e in A.diff_column(d, idx):
                key = (m0, seq[:i] + ((d + 1, j),) + seq[i + 1 :])
                acc[key] = acc.get(key, 0) + sign * c * e

        if p >= 1 and m0 is not None:  # left action m0 * a1
            sign = -1 if m0_deg % 2 == 0 else 1
            d1, i1 = seq[0]
            for j, e in A.product(m0[0], m0[1], d1, i1):
                key = ((m0[0] + d1, j), seq[1:])
                acc[key] = acc.get(key, 0) + sign * c * e

        for i in range(p - 1):  # internal products
            d1, i1 = seq[i]
            d2, i2 = seq[i + 1]
            sign = -1 if eps[i + 1] % 2 == 0 else 1
            for j, e in A.product(d1, i1, d2, i2):
                key = (m0, seq[:i] + ((d1 + d2, j),) + seq[i + 2 :])
                acc[key] = acc.get(key, 0) + sign * c * e

        if p >= 1 and m0 is not None:  # wrap-around action a_p * m0
            dp, ip = seq[-1]
            exp = eps[p - 1] * (dp - 1)
            sign = -1 if exp % 2 else 1
            for j, e in A.product(dp, ip, m0[0], m0[1]):
                key = ((dp + m0[0], j), seq[:-1])
                acc[key] = acc.get(key, 0) + sign * c * e

    return CycElement(A, x.module, acc)


def sigma(x: BarElement) -> BarElement:
    """Rotate the last slot to the front with the Koszul sign
    (-1)^{(shifted degree of a_1..a_{p-1}) * (shifted degree of a_p)}."""
    acc = {}
    for seq, c in x.terms.items():
        if len(seq) > 1:
            head, last = seq[:-1], seq[-1]
            if sum(_shift(s) for s in head) * _shift(last) % 2:
                c = -c
            seq = (last,) + head
        acc[seq] = acc.get(seq, 0) + c
    return x._like(acc)


def tau(x: BarElement) -> CycElement:
    """Place the algebra unit in the module slot: x goes to 1*x in Cyc(A; A)."""
    return include_in_A(_scalar(x))


def iota(x: BarElement) -> CycElement:
    """Degree +1 relabeling [a_1|a_2|...] -> a_1[a_2|...] into Cyc(A; Abar);
    the weight-0 part has nowhere to go and maps to zero."""
    acc = {(seq[0], seq[1:]): c for seq, c in x.terms.items() if seq}
    return CycElement(x.algebra, "Abar", acc)


def include_in_A(x: CycElement) -> CycElement:
    """View a scalar- or Abar-module element inside Cyc(A; A): scalars go
    to multiples of the unit, positive-degree module slots are unchanged.
    The two kinds of key cannot meet: an element has one module."""
    A = x.algebra
    acc = {}
    for (m0, seq), c in x.terms.items():
        if m0 is None:
            for i, u in enumerate(A.unit):
                acc[((0, i), seq)] = c * u
        else:
            acc[(m0, seq)] = c
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


class H0Basis(FilteredBasis):
    """Basis (generating sequence over Z/m) of the degree-0 cohomology at
    the tensor-weight bound n: BarElements, with the weight at which each
    entered."""


def _d_bar_series(A: FiniteDGA) -> list:
    """d_Bar on the degree-0 words, per 2-cell t: the row of the degree-1
    word [u|t|v] is u·x_t·v (tensors._ideal_rows), and x_t lists the
    terms (index sequence, int entry) read off two small tables.

    Every slot of a degree-0 word has shifted degree 0, so both sign
    families of bar_differential (internal differentials and neighbour
    products) are -1: x_t has -e at g for each letter g whose
    differential has entry e at t, and -e at g·h for each pair of letters
    whose product has entry e at t.
    """
    k = A.dim(1)
    series = [[] for _ in range(A.dim(2))]
    for g in range(k):
        for t, e in A.diff_column(1, g):
            series[t].append(((g,), -e))
    for g, h in iproduct(range(k), repeat=2):
        for t, e in A.product(1, g, 1, h):
            series[t].append(((g, h), -e))
    return series


def _h0(A: FiniteDGA, n: int, *, cyclic: bool) -> H0Basis:
    """Kernel of d_Bar on the degree-0 words of weight <= n, the words in
    the degree-1 basis of a connected algebra, or with cyclic on their
    necklace sums (tensors._orbit_kernel); no BarElement is built before
    the output."""
    if not A.is_connected:
        raise NotConnectedAlgebraError(
            f"{A.name}: degree 0 has dimension {A.dim(0)}, need a single vertex"
        )
    if n < 0:
        raise ValueError("weight bound must be >= 0")
    terms, added_at, anns = _orbit_kernel(A.ring, A.dim(1), _d_bar_series(A), n, cyclic)
    elements = tuple(
        BarElement(A, {tuple((1, i) for i in s): c for s, c in t.items()}) for t in terms
    )
    return H0Basis(n, elements, added_at, anns)


def h0_bar(A: FiniteDGA, n: int) -> H0Basis:
    """Kernel of d_Bar on degree-0 words of tensor weight <= n."""
    return _h0(A, n, cyclic=False)


def h0_cyc(A: FiniteDGA, n: int) -> H0Basis:
    """The cycle-invariant cocycles, which compute the degree-0 cyclic
    cohomology for a connected algebra: sigma permutes the degree-0 words
    (their shifted degrees are 0, so no sign), and its fixed vectors are
    free on the necklace sums, so this is the kernel of d_Bar on those."""
    return _h0(A, n, cyclic=True)


def coinvariant_rank(names, p: int) -> int:
    """Number of cyclic summands of the weight-p rotation coinvariants
    (cokernel of sigma - 1 on words in degree-1 letters).

    sigma permutes the words, so the cokernel is free on the rotation
    orbits, over every ring: the count is the number of necklaces.
    """
    if p < 1:
        raise ValueError("weight must be >= 1")
    return len(rotation_orbits(list(iproduct(range(len(names)), repeat=p))))


def bar_element_to_tensor(x: BarElement, gens: GenSet | None = None) -> BraidingTensor:
    """Reinterpret a degree-0 bar element as a braiding tensor over the
    degree-1 basis labels (so h0 output can be fed to the evaluator)."""
    A = x.algebra
    if gens is None:
        gens = GenSet(tuple(A.label(1, i) for i in range(A.dim(1))))
    if len(gens) != A.dim(1):
        raise ValueError("generator set does not match the degree-1 basis")
    terms = {}
    for seq, c in x.terms.items():
        if any(_shift(s) != 0 for s in seq):
            raise ValueError("only degree-0 elements translate to tensors")
        terms[tuple(i for _, i in seq)] = c
    return BraidingTensor(A.ring, gens, terms)
