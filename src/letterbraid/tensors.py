"""Braided letter-counting tensors and their evaluation on words.

A :class:`BraidingTensor` of weight p assigns a coefficient to each
length-p sequence of positive generators; it is a finite combination of
pure tensors of duals of the generators.  Evaluating it on a word w sums,
over weakly increasing tuples of letter positions, the products of the
slot values at those positions:

* slot value of generator-dual t at letter s is +1, at letter s^-1 is -1,
  and 0 unless s = t;
* consecutive chosen positions must increase strictly after a positive
  letter and weakly after an inverse letter (so several consecutive
  slots may sit on one inverse letter, which is what makes the value
  invariant under free reduction).

Equivalently, the value is the pairing sum_m T[m] E(w)[m] of the tensor
with the word's truncated Magnus series.  Evaluation computes it that
way: one integer sweep over the letters (:class:`~letterbraid.words.MagnusPlan`)
on the prefix trie of the tensor's index sequences, then one sum in the
coefficient ring.  The cost is linear in word length times the number of
trie nodes per generator, so long words are cheap; a run of more than p
equal letters, p the tensor's top weight, costs what p letters cost, and
a power u^k of a longer word with k > 2p + 1 what p copies of u cost.
Extended linearly to the group ring, a tensor takes the product
(s_{i_1} - 1)...(s_{i_k} - 1) to its coefficient at (i_1, ..., i_k): the
coordinates are dual to the monomials.

The cycle operator rotates coordinate sequences; its invariants are
spanned by necklace orbit sums, and those are the tensors that have a
chance of being conjugation-invariant functions.  rotation_orbits
enumerates the necklaces.  H^0 and the tensor bases are kernels of
ideal rows, all built and projected by _orbit_kernel, and both return a
FilteredBasis, the one weight-filtered basis type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .rings import (
    Combination,
    Ring,
    _json_list,
    _vector_annihilator,
    canon_terms,
    filtered_kernel,
)
from .words import (
    GenSet,
    GeneratorMismatchError,
    MagnusPlan,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    _require_same_gens,
)


@dataclass(eq=False)
class BraidingTensor(Combination):
    """Finite combination of generator-dual pure tensors, any mix of weights.

    ``terms`` maps a tuple of generator indices (the sequence of duals,
    outermost first) to a nonzero ring coefficient; the empty tuple is
    the weight-0 scalar component.
    """

    ring: Ring
    gens: GenSet
    terms: dict  # tuple[int, ...] -> coefficient

    _SPACE = (("gens", GeneratorMismatchError),)

    def _key(self, seq) -> tuple:
        seq = tuple(seq)
        for g in seq:
            if not 0 <= g < len(self.gens):
                raise UnknownGeneratorError(f"generator index {g} out of range")
        return seq

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ring: Ring, gens: GenSet) -> "BraidingTensor":
        return BraidingTensor(ring, gens, {})

    @staticmethod
    def pure(ring: Ring, gens: GenSet, names, coeff=1) -> "BraidingTensor":
        """Pure tensor of generator duals given by name, e.g. ("a", "b")."""
        seq = tuple(gens.index(n) for n in names)
        return BraidingTensor(ring, gens, {seq: coeff})

    @staticmethod
    def scalar(ring: Ring, gens: GenSet, coeff) -> "BraidingTensor":
        return BraidingTensor(ring, gens, {(): coeff})

    # -- structure ------------------------------------------------------

    def max_weight(self) -> int:
        return max((len(s) for s in self.terms), default=0)

    def weights(self):
        return sorted({len(s) for s in self.terms})

    def component(self, p: int) -> "BraidingTensor":
        return self._like({s: c for s, c in self.terms.items() if len(s) == p})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def pair_with_expansion(T: BraidingTensor, plan: MagnusPlan, values):
    """sum_m T[m] * E[m], for an expansion E made by a plan covering T.

    ``values`` is ``plan.expand(letters)``; the ring is applied once, to
    the exact sum.
    """
    index = plan.index
    return T.ring.canon(sum(c * values[index[seq]] for seq, c in T.terms.items()))


def _evaluate(T: BraidingTensor, letters):
    plan = MagnusPlan(T.terms)
    return pair_with_expansion(T, plan, plan.expand(letters))


def eval_letters(T: BraidingTensor, letters):
    """Evaluate on an arbitrary spelling (not necessarily reduced).

    The letters are (generator index, +1 or -1) over T's generators, as
    in a :class:`~letterbraid.words.Word`, and are refused as Word
    refuses them: an index out of range with UnknownGeneratorError, any
    other sign with WordSyntaxError.  The result agrees with
    :func:`eval_word` on the reduction of the spelling; tests exercise
    exactly that invariance.
    """
    letters = tuple(letters)
    for g, s in set(letters):  # each distinct letter once
        if not 0 <= g < len(T.gens):
            raise UnknownGeneratorError(f"generator index {g} out of range")
        if s not in (1, -1):
            raise WordSyntaxError(f"letter sign must be +-1, got {s}")
    return _evaluate(T, letters)


def eval_word(T: BraidingTensor, w: Word):
    """Value of the tensor's invariant on a reduced word."""
    _require_same_gens(T.gens, w.gens)
    return _evaluate(T, w.letters)


# ---------------------------------------------------------------------------
# Cycle rotation and its invariants
# ---------------------------------------------------------------------------


def cycle(T: BraidingTensor) -> BraidingTensor:
    """Rotate each coordinate sequence: the weight-p component transforms
    by sending the coefficient at (s_1,...,s_p) to (s_p, s_1,...,s_{p-1})."""
    out = {}
    for seq, c in T.terms.items():
        key = seq[-1:] + seq[:-1]
        out[key] = out.get(key, 0) + c
    return T._like(out)


# weight_graded_monomials refuses to build more tuples than this, counted
# first: its callers hold all of them, and rows or columns over them, in
# memory at once.
MAX_MONOMIALS = 1_000_000


def weight_graded_monomials(k: int, n: int):
    """Generator-index tuples of length <= n, shorter first, lex within.

    More than MAX_MONOMIALS of them are refused with a ValueError, counted
    before any tuple is built.
    """
    count = 0
    for p in range(n + 1):
        count += k**p
        if count > MAX_MONOMIALS:
            raise ValueError(
                f"there are more than {MAX_MONOMIALS} words of length <= {n} on "
                f"{k} letters; lower the weight bound"
            )
    out = []
    for p in range(n + 1):
        out.extend(product(range(k), repeat=p))
    return out


def rotation_orbits(seqs):
    """The rotation orbits (necklaces) of a list of index sequences that
    is closed under rotation and in (length, lex) order.

    Each orbit lists its members in that order, so its first member is
    its least rotation, and the orbits come in the order of their first
    members.  A sequence not yet in an orbit is therefore the least
    rotation of its own, and its orbit is the set of its rotations.
    """
    orbits, seen = [], set()
    for seq in seqs:
        if seq not in seen:
            orbit = sorted({seq[i:] + seq[:i] for i in range(len(seq))} or [seq])
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class FilteredBasis:
    """Weight-filtered basis (generating sequence over Z/m) at weight bound n.

    Elements are ordered by the weight at which they enter; the basis
    for a smaller weight bound is always a prefix.  annihilators[i] is
    the additive order of elements[i] over Z/m (0 = free), and is always
    0 over Z and Q.
    """

    n: int
    elements: tuple
    added_at_weight: tuple
    annihilators: tuple

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @property
    def ranks_per_weight(self):
        counts = [0] * (self.n + 1)
        for p in self.added_at_weight:
            counts[p] += 1
        return counts

    @property
    def total_rank(self) -> int:
        return len(self.elements)


def _ideal_rows(k: int, n: int, series, one_sided: bool):
    """The rows pre·x_i·suf, |pre| + |suf| < n, of the two-sided ideal
    that the series generate in the free algebra on k letters truncated
    at weight n; with one_sided, only those with pre empty.

    series[i] lists the terms (word, int) of x_i, each word nonempty.
    Yields ((pre, i, suf), row) with row = [(pre + m + suf, c) for (m, c)
    in series[i] if |m| <= n - |pre| - |suf|], ordered by |pre| + |suf|,
    then |pre|, then pre and suf lexicographically, then i.
    """
    for total in range(n):
        for dpre in range(1 if one_sided else total + 1):
            for pre in product(range(k), repeat=dpre):
                for suf in product(range(k), repeat=total - dpre):
                    for i, terms in enumerate(series):
                        row = [(pre + m + suf, c) for m, c in terms if len(m) <= n - total]
                        yield (pre, i, suf), row


def _orbit_kernel(ring: Ring, k: int, series, n: int, cyclic: bool):
    """Weight-filtered kernel of the rows of _ideal_rows on the words of
    length <= n in k letters, or with cyclic on their necklace sums
    (rotation_orbits), which span the cycle-invariant vectors.

    H^0 passes d_Bar, whose row at [u|t|v] is u·x_t·v, and the bases the
    descend rows pre·(E(r) - 1)·suf.  Each row is projected onto the
    coordinates (single words, or necklaces), its entries summed per
    orbit and put in the ring once; rows that vanish are dropped.  An
    orbit's weight is the length of its members.

    With cyclic the rows are one-sided: pre·m·suf and m·suf·pre lie in
    one necklace and are truncated alike, so the row pre·x·suf projects
    to the row x·(suf·pre).  On necklace sums the ideal is spanned by its
    one-sided rows, as HH_0 = A/[A, A] (Loday, Cyclic Homology, 1992, §1.1).

    The rows go to filtered_kernel longest words first, the reverse of
    _ideal_rows' order.  The echelon basis does not depend on the row
    order, but the elimination's cost does: in one process each on a
    2-vCPU machine, finite_type_basis of the torus over Z at n = 9 took
    0.05 s in this order and 5.5 s in the forward one, h0_bar of the
    torus over Q at n = 7 1.0 s and 2.7 s.

    Returns (terms, added_at_weight, annihilators) in the order of
    rings.filtered_kernel, each member a dict of index sequence ->
    coefficient in (length, lex) order.  Each orbit stands in the column
    order at its least rotation, where its members' leading column would
    be, so the echelon basis (Hermite, reduced echelon or Howell) expands
    to the echelon basis of the orbit-constant kernel vectors in word
    coordinates.
    """
    words = weight_graded_monomials(k, n)
    orbits = rotation_orbits(words) if cyclic else [[s] for s in words]
    orbit_of = {s: j for j, orbit in enumerate(orbits) for s in orbit}
    projected = []
    for _, row in _ideal_rows(k, n, series, cyclic):
        acc = {}
        for s, c in row:
            j = orbit_of[s]
            acc[j] = acc.get(j, 0) + c
        acc = canon_terms(ring, acc)
        if acc:
            projected.append(acc)
    projected.reverse()
    found = filtered_kernel(ring, projected, {j: len(o[0]) for j, o in enumerate(orbits)})
    terms = []
    for _, v in found:
        members = ((s, c) for j, c in v.items() for s in orbits[j])
        terms.append(dict(sorted(members, key=lambda sc: (len(sc[0]), sc[0]))))
    anns = tuple(_vector_annihilator(ring, v.values()) for _, v in found)
    return terms, tuple(w for w, _ in found), anns


def cycle_invariant_basis(gens: GenSet, p: int, ring: Ring):
    """Orbit-sum basis of the cycle-invariant weight-p tensors.

    One tensor per rotation orbit (necklace) of length-p generator
    sequences, each the sum of the distinct rotations of its
    representative, listed by lexicographically smallest representative.
    """
    if p < 1:
        raise ValueError(f"weight must be >= 1, got {p}")
    orbits = rotation_orbits(list(product(range(len(gens)), repeat=p)))
    return [BraidingTensor(ring, gens, dict.fromkeys(orbit, ring.one())) for orbit in orbits]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def tensor_to_obj(T: BraidingTensor) -> dict:
    return {
        "ring": T.ring.spec,
        "gens": list(T.gens.names),
        "terms": [
            {"seq": [T.gens.names[g] for g in seq], "coeff": T.ring.show(c)}
            for seq, c in T.sorted_terms()
        ],
    }


def tensor_from_obj(obj: dict) -> BraidingTensor:
    if not isinstance(obj, dict):
        raise ValueError("tensor file must contain a JSON object")
    try:
        ring = Ring.from_spec(obj["ring"])
        gens = GenSet(tuple(_json_list(obj["gens"], "gens")))
        raw_terms = _json_list(obj["terms"], "terms")
    except KeyError as exc:
        raise ValueError(f"tensor object missing key {exc}") from None
    terms: dict = {}
    for i, item in enumerate(raw_terms):
        if not isinstance(item, dict):
            raise ValueError(f"terms[{i}] must be a JSON object, got {item!r}")
        seq = tuple(gens.index(name) for name in _json_list(item["seq"], "seq"))
        coeff = ring.from_json(item["coeff"], "coeff")
        terms[seq] = terms.get(seq, 0) + coeff
    return BraidingTensor(ring, gens, terms)
