"""Finite-type functions and class functions on finitely presented groups.

A weight <= n tensor evaluates to a function on the free group F_S that
kills the (n+1)-st power of the augmentation ideal.  Given relators, the
function descends to G = F_S / <<r_1, ..., r_k>> exactly when it also
kills every m_pre (r_i - 1) m_suf with m_pre, m_suf monomials in the
positive-generator differences (s - 1), of total degree <= n - 1.  That
is a finite linear system on tensor coefficients; its kernel is the
finite-type function space, and intersecting with the cycle-invariant
tensors cuts out the class functions.

An independent oracle goes the other way round: enumerate group
elements as reduced words identified by relator insertions, present
R[G]/I^(d+1) by those classes and the ideal-power relations, and read
off Hom(-, R) by an exact kernel computation.  The two routes are
compared through evaluation pairing tables in canonical row form.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass, field

from .barcyc import _sigma_minus_one_matrix
from .rings import (
    IntMatrix,
    Ring,
    filtered_kernel,
    kernel_basis,
    matrix_rank,
    row_canonical_form,
)
from .tensors import BraidingTensor, cycle, eval_word, tensor_from_obj, tensor_to_obj
from .words import (
    GenSet,
    MonomialCombination,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    conjugate,
    fox_expand,
    parse_word,
    random_reduced_word,
    word_minus_one,
    words_up_to,
    _require_same_gens,
)

# Documented default seed for every sampled check in this module; pass an
# explicit seed to vary it.
DEFAULT_SEED = 1789


class NotSaturatedError(ValueError):
    """Oracle word enumeration too short to present R[G]/I^n ("not_saturated")."""

    code = "not_saturated"


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Group presentation <gens | relators>; trivial relators are dropped."""

    gens: GenSet
    relators: tuple = ()

    def __post_init__(self):
        kept = []
        for r in self.relators:
            _require_same_gens(self.gens, r.gens)
            if r.is_identity():
                warnings.warn("dropping trivial relator", stacklevel=2)
                continue
            kept.append(r)
        object.__setattr__(self, "relators", tuple(kept))

    def __repr__(self) -> str:
        rels = ", ".join(r.to_text() for r in self.relators)
        return f"<{' '.join(self.gens.names)} | {rels}>"


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    One line ``gens: a b c`` names the generators; each ``rel: <word>``
    line adds a relator in the word syntax of parse_word.  Blank lines
    and ``#`` comments are ignored.  Errors carry the 1-based line
    number.
    """
    gens = None
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens is not None:
                raise WordSyntaxError(f"line {lineno}: repeated gens: line")
            names = line[len("gens:"):].split()
            if not names:
                raise WordSyntaxError(f"line {lineno}: empty generator list")
            try:
                gens = GenSet.of(*names)
            except ValueError as exc:
                raise WordSyntaxError(f"line {lineno}: {exc}") from None
        elif line.startswith("rel:"):
            pending.append((lineno, line[len("rel:"):].strip()))
        else:
            raise WordSyntaxError(f"line {lineno}: expected 'gens:' or 'rel:'")
    if gens is None:
        raise WordSyntaxError("missing gens: line")
    relators = []
    for lineno, body in pending:
        try:
            relators.append(parse_word(body, gens))
        except (WordSyntaxError, UnknownGeneratorError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return Presentation(gens, tuple(relators))


def presentation_to_text(P: Presentation) -> str:
    lines = ["gens: " + " ".join(P.gens.names)]
    lines.extend("rel: " + r.to_text() for r in P.relators)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Descend conditions
# ---------------------------------------------------------------------------


def weight_graded_monomials(k: int, n: int):
    """Generator-index tuples of length <= n, shorter first, lex within."""
    out = []
    for p in range(n + 1):
        out.extend(itertools.product(range(k), repeat=p))
    return out


@dataclass(frozen=True)
class DescendSystem:
    """Linear conditions for weight <= n tensors to descend to the group.

    Rows are labelled (prefix monomial, relator index, suffix monomial)
    and ordered by relator, then total prefix+suffix degree, then prefix
    degree, then lexicographically; columns follow the weight-graded
    monomial order of the tensor coordinates.  A tensor T descends iff
    matrix . coefficients(T) = 0.
    """

    ring: Ring
    gens: GenSet
    n: int
    columns: tuple
    row_labels: tuple
    matrix: IntMatrix

    def tensor_coordinates(self, T: BraidingTensor):
        if T.max_weight() > self.n:
            raise ValueError(f"tensor weight {T.max_weight()} exceeds bound {self.n}")
        return [T.coefficient(m) for m in self.columns]

    def satisfied_by(self, T: BraidingTensor) -> bool:
        z = self.ring.zero()
        return all(x == z for x in self.matrix.apply(self.tensor_coordinates(T)))


def descend_conditions(P: Presentation, ring: Ring, n: int) -> DescendSystem:
    """The full descend system at weight bound n (n = 0 gives no rows)."""
    if n < 0:
        raise ValueError(f"weight bound must be >= 0, got {n}")
    k = len(P.gens)
    columns = tuple(weight_graded_monomials(k, n))
    labels = []
    rows = []
    for ri, r in enumerate(P.relators):
        expansion = fox_expand(word_minus_one(ring, r), n)
        for total in range(n):
            for dpre in range(total + 1):
                dsuf = total - dpre
                for pre in itertools.product(range(k), repeat=dpre):
                    left = MonomialCombination.monomial(ring, P.gens, pre, n).multiply(expansion)
                    for suf in itertools.product(range(k), repeat=dsuf):
                        prod = left.multiply(MonomialCombination.monomial(ring, P.gens, suf, n))
                        labels.append((pre, ri, suf))
                        rows.append([prod.coefficient(m) for m in columns])
    flat = tuple(x for row in rows for x in row)
    matrix = IntMatrix(ring, len(rows), len(columns), flat)
    return DescendSystem(ring, P.gens, n, columns, tuple(labels), matrix)


# ---------------------------------------------------------------------------
# Bases of finite-type functions and class functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorBasis:
    """Weight-filtered basis (generating sequence over Z/m) of tensors.

    Elements are ordered by the weight at which they enter; the basis
    for a smaller weight bound is always a prefix.  annihilators[i] is
    the additive order of elements[i] over Z/m (0 = free), and is always
    0 over Z and Q.
    """

    ring: Ring
    gens: GenSet
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


def _kernel_to_tensors(ring: Ring, gens: GenSet, columns, matrix: IntMatrix, n: int):
    col_weights = [len(m) for m in columns]
    vectors, added_at, anns = filtered_kernel(matrix, col_weights, n)
    z = ring.zero()
    elements = tuple(
        BraidingTensor(ring, gens, {m: v[j] for j, m in enumerate(columns) if v[j] != z})
        for v in vectors
    )
    return elements, added_at, anns


def finite_type_basis(P: Presentation, ring: Ring, n: int) -> TensorBasis:
    """Basis of the weight <= n tensors that descend to functions on G."""
    system = descend_conditions(P, ring, n)
    elements, added_at, anns = _kernel_to_tensors(
        ring, P.gens, system.columns, system.matrix, n
    )
    return TensorBasis(ring, P.gens, n, elements, added_at, anns)


def class_function_basis(
    P: Presentation, ring: Ring, n: int, *, certify: bool = True
) -> TensorBasis:
    """Basis of the descending *and* cycle-invariant weight <= n tensors.

    Every element is additionally certified by is_class_function_sampled
    (with small deterministic bounds) before being returned; certify=False
    skips that when the caller re-checks with stronger bounds anyway.
    """
    system = descend_conditions(P, ring, n)
    stacked = system.matrix.stack_below(_sigma_minus_one_matrix(ring, system.columns))
    elements, added_at, anns = _kernel_to_tensors(ring, P.gens, system.columns, stacked, n)
    if certify:
        for T in elements:
            verdict = is_class_function_sampled(T, P, max_len=4, samples=25)
            if not verdict.ok:
                raise AssertionError(
                    f"class-function certification failed: {verdict.witness}"
                )
    return TensorBasis(ring, P.gens, n, elements, added_at, anns)


# ---------------------------------------------------------------------------
# Sampled conjugation / relator-insertion check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _insertions(w: Word, r: Word):
    for i in range(len(w.letters) + 1):
        head = Word(w.gens, w.letters[:i])
        tail = Word(w.gens, w.letters[i:])
        yield head * r * tail
        yield head * r.inverse() * tail


def is_class_function_sampled(
    T: BraidingTensor,
    P: Presentation,
    *,
    max_len: int = 6,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Sampled check that T induces a class function on the presented group.

    Tests eval(T, g w g^-1) = eval(T, w) and invariance of eval under
    inserting any relator or inverse relator at any position.  A short
    deterministic enumeration runs first (g up to length 2, w up to the
    tensor weight, capped by max_len), then `samples` seeded random pairs
    with |g|, |w| <= max_len.  Returns a pass verdict or the first
    violating witness.
    """
    _require_same_gens(T.gens, P.gens)
    gens = P.gens

    def conj_fail(g: Word, w: Word):
        if eval_word(T, conjugate(g, w)) != eval_word(T, w):
            return Verdict(
                False,
                f"conjugation: w = {w.to_text()}, g = {g.to_text()}, "
                f"g w g^-1 = {conjugate(g, w).to_text()}",
            )
        return None

    def insert_fail(w: Word):
        base = eval_word(T, w)
        for r in P.relators:
            for w2 in _insertions(w, r):
                if eval_word(T, w2) != base:
                    return Verdict(
                        False,
                        f"relator insertion: w = {w.to_text()} vs {w2.to_text()}",
                    )
        return None

    short_w = min(max(2, T.max_weight()), max_len)
    small = list(words_up_to(gens, min(2, max_len)))
    for w in words_up_to(gens, short_w):
        for g in small:
            if g.is_identity():
                continue
            bad = conj_fail(g, w)
            if bad is not None:
                return bad
        bad = insert_fail(w)
        if bad is not None:
            return bad

    rng = random.Random(seed)
    for _ in range(samples):
        g = random_reduced_word(rng, gens, max_len)
        w = random_reduced_word(rng, gens, max_len)
        bad = conj_fail(g, w) if not g.is_identity() else None
        if bad is not None:
            return bad
        bad = insert_fail(w)
        if bad is not None:
            return bad
    return Verdict(True)


# ---------------------------------------------------------------------------
# Independent oracle: Hom(R[G]/I^(d+1), R) from word enumeration
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


@dataclass(frozen=True)
class PairingTable:
    """Values of the oracle's Hom generators on the enumerated words.

    Row i gives the i-th Hom generator evaluated on each word of
    `words` (class representatives in (length, lex) order).  Tensor
    bases are compared against it through row_canonical_form.
    """

    words: tuple
    matrix: IntMatrix
    annihilators: tuple


@dataclass(frozen=True)
class OracleReport:
    ring: Ring
    n: int
    length_bound: int
    class_count: int
    ranks: tuple  # Hom rank (minimal generator count over Z/m) per type degree 0..n
    table: PairingTable


def _enumerate_classes(P: Presentation, full_len: int):
    """Union-find over reduced words of length <= full_len, merging words
    that differ by one relator (or inverse) insertion inside the ball."""
    uf = _UnionFind()
    all_words = list(words_up_to(P.gens, full_len))
    for w in all_words:
        uf.add(w.letters)
    for w in all_words:
        for r in P.relators:
            for w2 in _insertions(w, r):
                if len(w2.letters) <= full_len:
                    uf.union(w.letters, w2.letters)
    # class id -> minimal representative, deterministic (length, letters) order
    members: dict = {}
    for w in all_words:
        root = uf.find(w.letters)
        best = members.get(root)
        if best is None or (len(w.letters), w.letters) < (len(best), best):
            members[root] = w.letters
    reps = sorted(members.values(), key=lambda ls: (len(ls), ls))
    position = {letters: i for i, letters in enumerate(reps)}
    class_of_root = {root: position[best] for root, best in members.items()}
    index = {}
    for w in all_words:
        index[w.letters] = class_of_root[uf.find(w.letters)]
    return reps, index


def _left_action(P: Presentation, reps, index, cache, g: int, cls: int):
    key = (g, cls)
    hit = cache.get(key)
    if hit is None:
        moved = Word(P.gens, ((g, 1),) + reps[cls])
        hit = index.get(moved.letters)
        if hit is None:
            raise NotSaturatedError(
                "internal enumeration ball too small for generator action"
            )
        cache[key] = hit
    return hit


def _rewrite_rows(P: Presentation, ring: Ring, reps, index, d: int):
    """One relation row per class: [v] minus its Fox expansion.

    In the free group [v] = 1 + sum_mono c_mono(v) mono modulo I^(d+1),
    and each monomial (s_1 - 1)...(s_m - 1) expands by inclusion-
    exclusion into classes of positive words of length <= d.  The image
    of that identity in R[G] ties every enumerated class to the short
    positive classes, so functionals cannot float free on the deep part
    of the enumeration ball.
    """
    z, o = ring.zero(), ring.one()
    c = len(reps)
    one_class = index[()]
    mono_cache: dict = {}

    def mono_vector(mono):
        hit = mono_cache.get(mono)
        if hit is None:
            acc: dict = {}
            m = len(mono)
            for size in range(m + 1):
                for chosen in itertools.combinations(range(m), size):
                    letters = tuple((mono[i], 1) for i in chosen)
                    cls = index[Word(P.gens, letters).letters]
                    sign = 1 if (m - size) % 2 == 0 else -1
                    acc[cls] = acc.get(cls, 0) + sign
            hit = tuple(acc.items())
            mono_cache[mono] = hit
        return hit

    rows = []
    for cls, letters in enumerate(reps):
        row = [z] * c
        row[cls] = o
        row[one_class] = ring.sub(row[one_class], o)
        expansion = fox_expand(word_minus_one(ring, Word(P.gens, letters)), d)
        for mono, coeff in expansion.terms.items():
            for tgt, mult in mono_vector(mono):
                row[tgt] = ring.sub(row[tgt], ring.mul(coeff, ring.from_int(mult)))
        if any(x != z for x in row):
            rows.append(row)
    return rows


def oracle_group_ring_quotient(
    P: Presentation, ring: Ring, n: int, length_bound: int
) -> OracleReport:
    """Brute-force Hom(R[G]/I^(d+1), R) for d = 0..n, from first principles.

    Group elements are reduced words of length <= length_bound + n + 1
    identified by relator insertions.  For each type degree d the
    relation span has two parts: left products
    (s_1 - 1)...(s_(d+1) - 1) w over positive generators and words
    w <= length_bound, built by repeatedly applying (s - 1); and the
    Fox-expansion rewriting rows of _rewrite_rows, which express every
    class through positive words of length <= d.  Hom generators are
    the kernel of those rows.  Saturation is detected by checking that
    every class seen at the length bound is, modulo the relations, a
    combination of strictly shorter words; failing that raises
    NotSaturatedError ("not_saturated").
    """
    if n < 0:
        raise ValueError(f"type bound must be >= 0, got {n}")
    if length_bound < 1:
        raise ValueError(f"length bound must be >= 1, got {length_bound}")
    k = len(P.gens)
    full_len = length_bound + n + 1
    reps, index = _enumerate_classes(P, full_len)
    c = len(reps)
    z, o = ring.zero(), ring.one()
    action_cache: dict = {}

    base_classes = sorted({index[w.letters] for w in words_up_to(P.gens, length_bound)})
    current = []
    for cls in base_classes:
        row = [z] * c
        row[cls] = o
        current.append(row)
    relation_stages = []  # stage d: canonical span of the I^(d+1) relations
    for d in range(n + 1):
        nxt = []
        for row in current:
            for g in range(k):
                shifted = [z] * c
                for j, x in enumerate(row):
                    if x == z:
                        continue
                    tgt = _left_action(P, reps, index, action_cache, g, j)
                    shifted[tgt] = ring.add(shifted[tgt], x)
                    shifted[j] = ring.sub(shifted[j], x)
                nxt.append(shifted)
        products = row_canonical_form(
            IntMatrix(ring, len(nxt), c, tuple(x for r in nxt for x in r))
        )
        current = products.to_rows()
        combined = current + _rewrite_rows(P, ring, reps, index, d)
        relation_stages.append(
            row_canonical_form(
                IntMatrix(ring, len(combined), c, tuple(x for r in combined for x in r))
            )
        )

    # saturation: every class reached at length_bound must already be a
    # combination of strictly shorter words modulo the top relations, so
    # adding the unit vectors of the base classes leaves the span unchanged
    def with_units(M: IntMatrix, classes) -> IntMatrix:
        flat = [z] * (len(classes) * c)
        for i, cls in enumerate(classes):
            flat[i * c + cls] = o
        return row_canonical_form(M.stack_below(IntMatrix(ring, len(classes), c, tuple(flat))))

    shorter = sorted(
        {index[w.letters] for w in words_up_to(P.gens, length_bound - 1)}
    )
    spanned = with_units(relation_stages[n], shorter)
    if with_units(spanned, base_classes) != spanned:
        cls = next(cls for cls in base_classes if with_units(spanned, [cls]) != spanned)
        raise NotSaturatedError(
            f"words up to length {length_bound} do not saturate the quotient "
            f"(class of {Word(P.gens, reps[cls]).to_text()} is new); raise the bound"
        )

    kernels = [kernel_basis(stage) for stage in relation_stages]
    ranks = [matrix_rank(kb.matrix) for kb in kernels]
    top_kernel = kernels[-1]
    words = tuple(Word(P.gens, reps[cls]) for cls in base_classes)
    hom_rows = []
    for vec in top_kernel.generators():
        hom_rows.append([vec[cls] for cls in base_classes])
    table = PairingTable(
        words,
        IntMatrix(ring, len(hom_rows), len(words), tuple(x for r in hom_rows for x in r)),
        top_kernel.annihilators,
    )
    return OracleReport(ring, n, length_bound, c, tuple(ranks), table)


def evaluation_table(tensors, words, ring: Ring) -> IntMatrix:
    """Rows = tensors evaluated across the given words."""
    rows = [[eval_word(T, w) for w in words] for T in tensors]
    return IntMatrix(ring, len(rows), len(words), tuple(x for r in rows for x in r))


def pairing_tables_agree(tensors, report: OracleReport) -> bool:
    """Entrywise equality of canonicalized pairing tables.

    Both the tensor basis (evaluated on the oracle's enumerated words)
    and the oracle's Hom generators are reduced to row canonical form;
    agreement of those matrices says the two computations produce the
    same submodule of functions, entry by entry.
    """
    ours = row_canonical_form(evaluation_table(tensors, report.table.words, report.ring))
    theirs = row_canonical_form(report.table.matrix)
    return ours.rows == theirs.rows and ours.entries == theirs.entries


# ---------------------------------------------------------------------------
# Basis files
# ---------------------------------------------------------------------------


def basis_to_obj(B: TensorBasis) -> dict:
    obj = {
        "n": B.n,
        "ring": B.ring.spec,
        "gens": list(B.gens.names),
        "ranks_per_weight": list(B.ranks_per_weight),
        "tensors": [tensor_to_obj(T) for T in B.elements],
    }
    if any(a != 0 for a in B.annihilators):
        obj["annihilators"] = list(B.annihilators)
    return obj


def basis_from_obj(obj: dict) -> TensorBasis:
    if not isinstance(obj, dict):
        raise ValueError("basis file must contain a JSON object")
    try:
        n = int(obj["n"])
        ring = Ring.from_spec(obj["ring"])
        gens = GenSet(tuple(obj["gens"]))
        ranks = [int(x) for x in obj["ranks_per_weight"]]
        tensors = [tensor_from_obj(t) for t in obj["tensors"]]
    except KeyError as exc:
        raise ValueError(f"basis object missing key {exc}") from None
    if len(ranks) != n + 1:
        raise ValueError("ranks_per_weight must have n+1 entries")
    if sum(ranks) != len(tensors):
        raise ValueError("ranks_per_weight does not sum to the tensor count")
    added = []
    for p, count in enumerate(ranks):
        added.extend([p] * count)
    for T, p in zip(tensors, added):
        if T.ring.spec != ring.spec or T.gens.names != gens.names:
            raise ValueError("tensor ring/generators disagree with basis metadata")
        if T.max_weight() > p:
            raise ValueError("tensor exceeds its recorded entry weight")
    anns = tuple(int(a) for a in obj.get("annihilators", [0] * len(tensors)))
    if len(anns) != len(tensors):
        raise ValueError("annihilators must match the tensor count")
    return TensorBasis(ring, gens, n, tuple(tensors), tuple(added), anns)
