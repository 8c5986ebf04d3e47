"""Finite-type functions and class functions on finitely presented groups.

A weight <= n tensor evaluates to a function on the free group F_S that
kills the (n+1)-st power of the augmentation ideal.  Given relators, the
function descends to G = F_S / <<r_1, ..., r_k>> exactly when it also
kills every m_pre (r_i - 1) m_suf with m_pre, m_suf monomials in the
positive-generator differences (s - 1), of total degree <= n - 1.  That
is a finite linear system on tensor coefficients; its kernel is the
finite-type function space.  The class functions are the cycle-invariant
part, HH_0 = A/[A, A]: the same kernel on necklace sums.  Both are
tensors._orbit_kernel of the relator series (_relator_series).

An independent oracle goes the other way round: enumerate group
elements as reduced words identified by relator insertions, present
R[G]/I^(d+1) by those classes and the ideal-power relations, and read
off Hom(-, R) by an exact kernel computation.  The two routes are
compared through evaluation pairing tables in canonical row form.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cache
from math import lcm
from operator import mul

from .rings import (
    IntMatrix,
    Ring,
    _combine,
    _echelon,
    _integral,
    _json_list,
    _rank,
    _vector_annihilator,
    canon_terms,
    filtered_kernel,
    row_canonical_form,
)
from .tensors import (
    BraidingTensor,
    FilteredBasis,
    _ideal_rows,
    _orbit_kernel,
    pair_with_expansion,
    tensor_from_obj,
    tensor_to_obj,
    weight_graded_monomials,
)
from .words import (
    GenSet,
    MagnusPlan,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    parse_word,
    _join,
    _require_same_gens,
)

# oracle_group_ring_quotient refuses a word ball of more reduced words than
# this, counted before any word is built: the oracle holds every word of the
# ball, with its class, in memory at once.
MAX_ORACLE_WORDS = 500_000


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


@dataclass(frozen=True)
class DescendSystem:
    """Linear conditions for weight <= n tensors to descend to the group.

    Rows are labelled (prefix monomial, relator index, suffix monomial)
    and ordered as tensors._ideal_rows yields them: by total prefix+suffix
    degree, then prefix degree, then prefix and suffix lexicographically,
    then relator; columns follow the weight-graded monomial order of the
    tensor coordinates.  A tensor T descends iff
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


def _relator_series(P: Presentation, n: int) -> list:
    """E(r) - 1 per relator, truncated at weight n, as (monomial, int)
    terms: the Magnus series is multiplicative, so the descend row
    pre (r - 1) suf is pre·(E(r) - 1)·suf (tensors._ideal_rows).  Each
    relator is expanded once, by one integer Magnus sweep."""
    plan = MagnusPlan(weight_graded_monomials(len(P.gens), n))
    series = []
    for r in P.relators:
        values = plan.expand(r.letters)
        series.append([(m, values[i]) for m, i in plan.index.items() if m and values[i]])
    return series


def descend_conditions(P: Presentation, ring: Ring, n: int) -> DescendSystem:
    """The full descend system at weight bound n (n = 0 gives no rows),
    its rows the two-sided _ideal_rows of _relator_series."""
    if n < 0:
        raise ValueError(f"weight bound must be >= 0, got {n}")
    k = len(P.gens)
    columns = tuple(weight_graded_monomials(k, n))
    zero = ring.zero()
    labels = []
    flat = []
    for label, row in _ideal_rows(k, n, _relator_series(P, n), False):
        terms = canon_terms(ring, dict(row))
        labels.append(label)
        flat.extend(terms.get(m, zero) for m in columns)
    matrix = IntMatrix(ring, len(labels), len(columns), tuple(flat))
    return DescendSystem(ring, P.gens, n, columns, tuple(labels), matrix)


# ---------------------------------------------------------------------------
# Bases of finite-type functions and class functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorBasis(FilteredBasis):
    """Weight-filtered basis (generating sequence over Z/m) of tensors on gens."""

    ring: Ring
    gens: GenSet


def _descending_basis(P: Presentation, ring: Ring, n: int, *, cyclic: bool) -> TensorBasis:
    """The weight-filtered kernel of the descend rows (_relator_series) on
    the weight <= n monomials, or with cyclic on their necklace sums
    (tensors._orbit_kernel), as tensors."""
    if n < 0:
        raise ValueError(f"weight bound must be >= 0, got {n}")
    terms, added_at, anns = _orbit_kernel(ring, len(P.gens), _relator_series(P, n), n, cyclic)
    elements = tuple(BraidingTensor(ring, P.gens, t) for t in terms)
    return TensorBasis(n, elements, added_at, anns, ring, P.gens)


def finite_type_basis(P: Presentation, ring: Ring, n: int) -> TensorBasis:
    """Basis of the weight <= n tensors that descend to functions on G."""
    return _descending_basis(P, ring, n, cyclic=False)


def class_function_basis(P: Presentation, ring: Ring, n: int) -> TensorBasis:
    """Basis of the descending *and* cycle-invariant weight <= n tensors:
    the kernel of the descend rows on necklace sums (tensors._orbit_kernel).

    Every element is then certified on the group side, in one sweep, by
    the complete finite check of _complete_verdicts, which shares no rows
    with the kernel above; the first failing element raises
    AssertionError with its witness.
    """
    basis = _descending_basis(P, ring, n, cyclic=True)
    for verdict in _complete_verdicts(basis.elements, P, n):
        if not verdict.ok:
            raise AssertionError(f"class-function certification failed: {verdict.witness}")
    return basis


# ---------------------------------------------------------------------------
# Class-function check: conjugation and relator insertion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _witness(gens: GenSet, w: tuple, spelling: tuple, g) -> str:
    text = Word(gens, w).to_text()
    if g is None:
        return f"relator insertion: w = {text} vs {Word(gens, spelling).to_text()}"
    return (
        f"conjugation: w = {text}, g = {Word(gens, g).to_text()}, "
        f"g w g^-1 = {Word(gens, spelling).to_text()}"
    )


def _integer_terms(T: BraidingTensor):
    """T's terms with int coefficients, and the modulus of the zero test
    (0 for none): over Q scaled by the lcm of their denominators, over
    Z/m their lifts, reduced mod m once."""
    scale = 1
    if T.ring.kind == "Q":
        scale = lcm(*(c.denominator for c in T.terms.values()))
    return {seq: int(c * scale) for seq, c in T.terms.items()}, T.ring.modulus or 0


def _positive_words(k: int, n: int) -> list:
    """Letter tuples of the positive words of length <= n on k generators,
    in (length, lex) order, the empty word first."""
    return [tuple((g, 1) for g in m) for m in weight_graded_monomials(k, n)]


def _complete_checks(P: Presentation, n: int, *, cyclic: bool = True):
    """The checks of the complete test at weight bound n, in order.

    Yields (w, spelling, g) with letter tuples: the spelling must take
    the value of w, and g is the conjugator, None for an insertion.  With
    cyclic, the rotations, every positive word w = w_1 ... w_p with
    1 <= p <= n against g w g^-1 = w_2 ... w_p w_1, g = w_1^-1, then the
    front insertions, r w for each relator r and positive w with |w| < n.
    Without, the two-sided insertions u r v against u v for positive u, v
    with |u| + |v| < n, by relator, then |u| + |v|, then |u|, then lex.
    """
    positive = _positive_words(len(P.gens), n)
    of_length = [[w for w in positive if len(w) == p] for p in range(n + 1)]
    if cyclic:
        for w in positive[1:]:
            yield w, w[1:] + w[:1], ((w[0][0], -1),)
    for r in P.relators:
        for total in range(n):
            for du in range(1 if cyclic else total + 1):
                for u, v in itertools.product(of_length[du], of_length[total - du]):
                    yield u + v, u + r.letters + v, None


def _complete_verdicts(tensors, P: Presentation, n: int, *, cyclic: bool = True) -> list:
    """One Verdict per tensor of weight <= n, from the finite list of
    _complete_checks: whether it is a class function on the presented
    group, or without cyclic whether it is a function on it at all.

    Why those checks suffice, over any commutative ring: T is a
    functional on A_n = R<x>/(deg > n), read through the truncated Magnus
    series E, and the E(w) of the positive words of length <= n span A_n
    unitriangularly.  T is a function on G exactly when it kills every
    E(u r v) - E(u v) = E(u) (E(r) - 1) E(v), which is the two-sided
    insertions.  E(w_1 u) - E(u w_1) = [x_(w_1), E(u)]; since
    [ab, c] = [a, bc] + [b, ca], these span [A_n, A_n], so the rotations
    make T a trace, constant on conjugacy classes.  For a trace,
    T(E(u) (E(r) - 1) E(v)) = T((E(r) - 1) E(v u)), and E(r) - 1 has no
    constant term, so the front insertions give every two-sided
    insertion: this is HH_0(A_n) = A_n/[A_n, A_n] cut down by the
    relators.

    Each spelling is expanded once against one Magnus plan of all the
    tensors' terms, as one letter step from its prefix: the positive
    words are swept once from 1 and once from each E(u r), which is r
    stepped on from E(u).  Each tensor's value on a spelling is computed
    once, in integers.  A tensor's first failing check is its witness.
    """
    tensors = list(tensors)
    for T in tensors:
        _require_same_gens(T.gens, P.gens)
        if T.max_weight() > n:
            raise ValueError(f"tensor weight {T.max_weight()} exceeds bound {n}")
    plan = MagnusPlan(seq for T in tensors for seq in T.terms)
    members, moduli = [], []
    for T in tensors:
        terms, m = _integer_terms(T)
        members.append((tuple(plan.index[seq] for seq in terms), tuple(terms.values())))
        moduli.append(m)
    positive = _positive_words(len(P.gens), n)
    values = {}  # spelling -> each tensor's value on it
    ones = {}  # positive word w -> E(w), once the first sweep is done
    fronts = [u for u in positive[: 1 if cyclic else None] if len(u) < n]  # u of u r v
    sweeps = [((), (), n)] + [(u, r.letters, n - 1 - len(u)) for r in P.relators for u in fronts]
    for u, x, depth in sweeps:
        expansions = {}  # w -> E(u x w), E(u x) stepped on from E(u)
        for w in positive:
            if len(w) > depth:
                break
            e = plan.expand(w[-1:], expansions[w[:-1]]) if w else plan.expand(x, ones.get(u))
            expansions[w] = e
            get = e.__getitem__
            values[u + x + w] = tuple(
                sum(map(mul, coefficients, map(get, nodes))) for nodes, coefficients in members
            )
        ones = ones or expansions
    verdicts = [Verdict(True)] * len(tensors)
    passing = range(len(tensors))
    for w, spelling, g in _complete_checks(P, n, cyclic=cyclic):
        if not passing:
            break
        before, after = values[w], values[spelling]
        if before == after:
            continue
        failed = []
        for t in passing:
            d, m = after[t] - before[t], moduli[t]
            if d % m if m else d:
                verdicts[t] = Verdict(False, _witness(P.gens, w, spelling, g))
                failed.append(t)
        if failed:
            passing = [t for t in passing if t not in failed]
    return verdicts


def is_class_function(T: BraidingTensor, P: Presentation) -> Verdict:
    """Whether T induces a class function on the presented group: the
    exact check of _complete_verdicts at T's own weight, with the first
    failing check as witness."""
    return _complete_verdicts([T], P, T.max_weight())[0]


# ---------------------------------------------------------------------------
# Independent oracle: Hom(R[G]/I^(d+1), R) from word enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingTable:
    """Values of the oracle's Hom generators on the enumerated words.

    Row i gives the i-th Hom generator evaluated on each word of
    `words`: class representatives sorted by length, then as letter
    tuples, so a^-1 < a < b^-1 < b (not the order of words_up_to).  The
    oracle builds the rows with _echelon, so the matrix is its own
    row_canonical_form, and tensor bases are compared against it as it is.
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
    table: PairingTable  # words: class reps in letter-tuple order, a^-1 < a < b^-1 < b


def _enumerate_classes(P: Presentation, full_len: int):
    """Classes of the reduced words of length <= full_len, merging words
    that differ by one relator (or inverse) insertion inside the ball.
    Returns the class representatives, each its class's first word, and
    every word's class index; words are letter tuples sorted by length,
    then as tuples, so a^-1 < a < b^-1 < b.

    The work runs on letter codes, 2g for g^-1 and 2g + 1 for g: a word is
    a tuple of codes, tuple order is then letter-tuple order, and c ^ 1 is
    the inverse of c.  Each length of the ball is built, in that order,
    from the one before; the letter tuples are built beside it.

    Inserting x into a word of length l stays in the ball only if at least
    need = max(0, ceil((l + |x| - full_len) / 2)) letters cancel.  For a
    split x = a v b with |a| + |b| = need, the words where a and b cancel
    are h (b a)^-1 t, taken to red(h v t): only those pairs are built, a
    block of tails with one first letter at a time, and merged in a
    union-find with path halving whose roots are the earliest words.
    """
    k = len(P.gens)
    after = [[d for d in range(2 * k) if d != c ^ 1] for c in range(2 * k)] + [range(2 * k)]
    letter = [(c >> 1, 1 if c & 1 else -1) for c in range(2 * k)]
    layer, spelled_layer = [()], [()]
    words, spelled, starts = [()], [()], [0, 1]  # length l: words[starts[l]:starts[l + 1]]
    for _ in range(full_len):
        nexts = [after[w[-1] if w else -1] for w in layer]
        spelled_layer = [s + (letter[c],) for s, cs in zip(spelled_layer, nexts) for c in cs]
        layer = [w + (c,) for w, cs in zip(layer, nexts) for c in cs]
        words += layer
        spelled += spelled_layer
        starts.append(len(words))
    position = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def join(x, y):  # the free reduction of x y, for reduced code tuples x and y
        i = len(x)
        for c in y:
            if not i or x[i - 1] != c ^ 1:
                break
            i -= 1
        return x[:i] + y[len(x) - i :]

    for letters in (y for r in P.relators for y in (r.letters, r.inverse().letters) if y):
        x, m = tuple(2 * g + (e > 0) for g, e in letters), len(letters)
        for length in range(full_len + 1):
            need = max(0, (length + m - full_len + 1) // 2)
            rest = length - need
            splits = {  # (middle (b a)^-1, v); no word holds an unreduced middle
                (tuple(c ^ 1 for c in reversed(x[m - need + left :] + x[:left])),
                 x[left : m - need + left])
                for left in range(need + 1)
                if rest >= 0 and not (0 < left < need and x[-1] == x[0] ^ 1)
            }
            for (middle, v), head_len in itertools.product(splits, range(rest + 1)):
                lo, hi = starts[rest - head_len], starts[rest - head_len + 1]
                size = (hi - lo) // (2 * k) if rest > head_len else 1
                stop = middle[0] ^ 1 if middle else -1
                for h in words[starts[head_len] : starts[head_len + 1]]:
                    if h and h[-1] == stop:
                        continue
                    hm = h + middle
                    hv = join(h, v) if h and v and h[-1] == v[0] ^ 1 else h + v
                    stop_hm = hm[-1] ^ 1 if hm else -1
                    stop_hv = hv[-1] ^ 1 if hv else -1
                    for s in range(lo, hi, size):  # the blocks of tails, by first letter
                        t = words[s]
                        if t and t[0] == stop_hm:
                            continue
                        i = position[hm + t]
                        if t and t[0] == stop_hv:  # the tails cancel into h v
                            targets = [position[join(hv, u)] for u in words[s : s + size]]
                        else:
                            j = position[hv + t]
                            targets = range(j, j + size)
                        for a, b in zip(range(i, i + size), targets):
                            while parent[a] != a:
                                parent[a] = a = parent[parent[a]]
                            while parent[b] != b:
                                parent[b] = b = parent[parent[b]]
                            if a < b:  # the earlier word stays the root
                                parent[b] = a
                            elif b < a:
                                parent[a] = b
    del words, layer, position  # the code tuples, before the letter-keyed index
    for i, p in enumerate(parent):  # p <= i, so parent[p] is already p's root
        parent[i] = parent[p]
    roots = [i for i, p in enumerate(parent) if p == i]
    number = dict(zip(roots, itertools.count()))
    return [spelled[i] for i in roots], dict(zip(spelled, map(number.__getitem__, parent)))


def _ball_size(k: int, radius: int, cap: int) -> int:
    """The number 1 + sum_(i=1..radius) 2k (2k-1)^(i-1) of reduced words of
    length <= radius on k generators, counted only until it passes cap."""
    size, layer = 1, 2 * k
    for _ in range(radius):
        if size > cap or not layer:
            break
        size += layer
        layer *= 2 * k - 1
    return size


def _fox_map(ring: Ring, plan: MagnusPlan, k: int, reps, index, n: int):
    """The oracle's rewriting map E and its dual, on sparse rows over classes.

    In the free group v = sum_mono c_mono(v) mono modulo I^(d+1), over the
    monomials (s_1 - 1)...(s_m - 1) with m <= d, and each monomial expands
    by inclusion-exclusion into classes of positive words of length <= m.
    So in R[G]/I^(d+1) a class v is E_d[v], a combination of the classes
    S_d of positive words of length <= d.  Returns fox(row, d) =
    sum_v row_v E_d[v] for an integer row, canonical over the ring, and
    dual(g, b) = (v -> <E_n[v], g>) on the first b classes.  Each E_d[v]
    is built once, when a row first holds v, as a dense list over S_d in
    the order of the classes' first positive spellings.  plan holds
    every monomial of degree <= n in k letters.
    """
    positive = _positive_words(k, n)
    order = list(dict.fromkeys(index[w] for w in positive))  # each S_d is a prefix
    at = {cls: t for t, cls in enumerate(order)}
    subsets = []  # per monomial: (position in order, sign) of its classes
    for mono in sorted(plan.index, key=plan.index.get):
        acc: dict = {}
        for size in range(len(mono) + 1):
            for chosen in itertools.combinations(mono, size):
                t = at[index[tuple((g, 1) for g in chosen)]]
                acc[t] = acc.get(t, 0) + (-1) ** (len(mono) - size)
        subsets.append(tuple(acc.items()))
    expansion = cache(lambda v: plan.expand(reps[v]))  # built when first read
    # the monomials of degree <= d come first in the plan, as do the
    # positive words of length <= d in `positive`
    widths = list(itertools.accumulate(k**p for p in range(n + 1)))
    sizes = [len({index[w] for w in positive[:w]}) for w in widths]
    images = [{} for _ in widths]  # images[d][v] = E_d[v]

    def image(v: int, d: int) -> list:
        acc = [0] * sizes[d]
        for x, sub in zip(expansion(v)[: widths[d]], subsets):
            for t, sign in sub if x else ():
                acc[t] += sign * x
        return acc

    def fox(row: dict, d: int) -> dict:
        cache = images[d]
        for v in row:
            if v not in cache:
                cache[v] = image(v, d)
        xs = tuple(row.values())
        values = (sum(map(mul, xs, col)) for col in zip(*map(cache.__getitem__, row)))
        return canon_terms(ring, {cls: x for cls, x in zip(order, values) if x})

    def dual(g: dict, b: int) -> dict:
        g = {at[cls]: x for cls, x in g.items()}
        psi = [sum(sign * g.get(t, 0) for t, sign in sub) for sub in subsets]
        return canon_terms(ring, {v: sum(map(mul, expansion(v), psi)) for v in range(b)})

    return fox, dual


def oracle_group_ring_quotient(
    P: Presentation, ring: Ring, n: int, length_bound: int
) -> OracleReport:
    """Brute-force Hom(R[G]/I^(d+1), R) for d = 0..n, from first principles.

    Group elements are reduced words of length <= length_bound + n + 1
    identified by relator insertions (_enumerate_classes, on letter
    codes).  For each type degree d the relation span has two parts:
    left products (s_1 - 1)...(s_(d+1) - 1) w over positive generators
    and words w <= length_bound, built by repeatedly applying (s - 1),
    where s acts on a class representative by prepending s or cancelling
    its first letter; and the Fox-expansion rewriting rows [v] - E_d[v]
    (_fox_map), which express every class through the classes S_d of
    positive words of length <= d.  Hom generators are the kernel of
    those rows.  Saturation is detected by checking that every class seen
    at the length bound is, modulo the relations, a combination of
    strictly shorter words; failing that raises NotSaturatedError
    ("not_saturated").

    [v] -> E_d[v] identifies R^c / <[v] - E_d[v]> with R^(S_d) / <E_d[t] - [t]>,
    so kernels, ranks and saturation run on the |S_d| <= sum_(p<=d) k^p
    columns of S_d, with E_d[v] for [v]; the dual of E_n carries the top
    kernel to the reported base classes, of words of length <= length_bound.
    When length_bound >= n, S_n lies among them and E_n[t] = [t], so that
    restriction is injective on the Hom span (tests/test_oracle_reference.py
    checks L < n against all c classes).  When length_bound > n the rewriting
    rows alone saturate, so that check fails only when length_bound <= n.
    A relator r of more than 2 (length_bound + n + 1) letters, which no word
    of the ball takes, raises it at any bound when E(r) - 1 has a nonzero
    term of degree <= n (never at n = 0).

    A ball of more than MAX_ORACLE_WORDS reduced words is refused with a
    ValueError, counted (_ball_size) before any word is built.  The stage
    rows are sparse integer combinations of classes (class -> int), never
    echelonned: fox, the kernels and the ranks read only their span, and
    fox is Z-linear, so over Z/m the integer lifts span the same rows mod m.
    Only the saturation check and the final Hom kernel are echelonned over
    classes; over Q the top kernel rows are cleared of denominators first,
    which keeps Fractions out of dual.  Words are built only for the
    reported representatives and messages.
    """
    if n < 0:
        raise ValueError(f"type bound must be >= 0, got {n}")
    if length_bound < 1:
        raise ValueError(f"length bound must be >= 1, got {length_bound}")
    k = len(P.gens)
    full_len = length_bound + n + 1
    if _ball_size(k, full_len, MAX_ORACLE_WORDS) > MAX_ORACLE_WORDS:
        raise ValueError(
            f"the oracle's ball of reduced words of length <= {full_len} on {k} "
            f"generators has more than {MAX_ORACLE_WORDS} words; lower the "
            "length or type bound"
        )
    plan = MagnusPlan(itertools.product(range(k), repeat=n))
    for r in P.relators:  # a relator that no word takes, and that matters below I^(n+1)
        low = plan.expand(r.letters)[1:] if len(r) > 2 * full_len else ()
        if canon_terms(ring, dict(enumerate(low))):
            raise NotSaturatedError(
                f"no word of length <= {full_len} takes the relator {r.to_text()} of "
                f"{len(r)} letters; raise the length bound to at least {-(-len(r) // 2) - n - 1}"
            )
    reps, index = _enumerate_classes(P, full_len)
    # s [v] for each generator s; stage d acts on reps of length <= length_bound + d
    act = [[index.get(_join(((g, 1),), w)) for g in range(k)] for w in reps]
    fox, dual = _fox_map(ring, plan, k, reps, index, n)
    # classes are numbered by their first words, which are sorted by length
    base_classes = range(sum(len(w) <= length_bound for w in reps))
    current = [{cls: 1} for cls in base_classes]
    stages = []  # stage d: S_d, and the I^(d+1) relations on it
    for d in range(n + 1):
        nxt = []
        for row in current:
            for g in range(k):
                shifted: dict = {}
                for j, x in row.items():
                    tgt = act[j][g]
                    shifted[tgt] = shifted.get(tgt, 0) + x
                    shifted[j] = shifted.get(j, 0) - x
                nxt.append({j: x for j, x in shifted.items() if x})
        # a repeated row adds nothing to the span; first occurrences keep
        # their order, so `unique` below, the ranks and the table do not change
        current = list({frozenset(row.items()): row for row in nxt if row}.values())
        short = sorted({index[w] for w in _positive_words(k, d)})
        # only the span is read, and most fox rows are zero or repeat
        unique = {frozenset(r.items()): r for r in (fox(rho, d) for rho in current) if r}
        rows = list(unique.values())
        rows += [_combine(ring, 1, fox({t: 1}, d), -1, {t: ring.one()}) for t in short]
        stages.append((short, rows))

    # saturation: every class reached at length_bound must already be a
    # combination of strictly shorter words modulo the top relations, so
    # adding the E_n of the base classes leaves the span unchanged
    def with_units(rows, classes):
        return _echelon(ring, rows + [fox({cls: 1}, n) for cls in classes])

    shorter = range(sum(len(w) < length_bound for w in reps))
    spanned = with_units(stages[n][1], shorter)
    if with_units(spanned, base_classes) != spanned:
        cls = next(cls for cls in base_classes if with_units(spanned, [cls]) != spanned)
        raise NotSaturatedError(
            f"words up to length {length_bound} do not saturate the quotient "
            f"(class of {Word(P.gens, reps[cls]).to_text()} is new); raise the bound"
        )

    ranks = []
    for short, rows in stages:
        kernel = [v for _, v in filtered_kernel(ring, rows, dict.fromkeys(short, 0))]
        ranks.append(_rank(ring, kernel, short[-1] + 1))
    if ring.kind == "Q":  # the echelon below reads only the Q-span
        kernel = [_integral(g) for g in kernel]
    kernel = [dual(g, len(base_classes)) for g in kernel]
    kernel = _echelon(ring, kernel)
    z = ring.zero()
    words = tuple(Word(P.gens, reps[cls]) for cls in base_classes)
    hom = tuple(v.get(cls, z) for v in kernel for cls in base_classes)
    table = PairingTable(
        words,
        IntMatrix(ring, len(kernel), len(words), hom),
        tuple(_vector_annihilator(ring, v.values()) for v in kernel),
    )
    return OracleReport(ring, n, length_bound, len(reps), tuple(ranks), table)


def evaluation_table(tensors, words, ring: Ring) -> IntMatrix:
    """Rows = tensors evaluated across the given words.

    Each word is expanded once, against one Magnus plan covering every
    tensor's index sequences.
    """
    tensors = list(tensors)
    for T in tensors:
        for w in words:
            _require_same_gens(T.gens, w.gens)
    plan = MagnusPlan(seq for T in tensors for seq in T.terms)
    expansions = [plan.expand(w.letters) for w in words]
    rows = [[pair_with_expansion(T, plan, values) for values in expansions] for T in tensors]
    return IntMatrix(ring, len(rows), len(words), tuple(x for r in rows for x in r))


def pairing_tables_agree(tensors, report: OracleReport) -> bool:
    """Entrywise equality of canonicalized pairing tables.

    The tensor basis, evaluated on the oracle's enumerated words, is
    reduced to row canonical form, which the oracle's table already is;
    agreement of those matrices says the two computations produce the
    same submodule of functions, entry by entry.
    """
    ours = row_canonical_form(evaluation_table(tensors, report.table.words, report.ring))
    return ours == report.table.matrix


def pairing_tables_contained(tensors, report: OracleReport) -> bool:
    """Whether the tensors' functions lie in the span of the oracle's.

    The tensor basis is evaluated on the oracle's enumerated words and
    stacked under the oracle's table; the span is contained iff that
    leaves the table's row canonical form unchanged.  A class-function
    basis is compared this way, since the oracle's Hom holds every
    finite-type function.
    """
    ours = evaluation_table(tensors, report.table.words, report.ring)
    return row_canonical_form(report.table.matrix.stack_below(ours)) == report.table.matrix


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
    Z = Ring.integers()
    try:
        n = Z.from_json(obj["n"], "n")
        ring = Ring.from_spec(obj["ring"])
        gens = GenSet(tuple(_json_list(obj["gens"], "gens")))
        raw_ranks = _json_list(obj["ranks_per_weight"], "ranks_per_weight")
        ranks = [Z.from_json(x, "ranks_per_weight") for x in raw_ranks]
        tensors = [tensor_from_obj(t) for t in _json_list(obj["tensors"], "tensors")]
    except KeyError as exc:
        raise ValueError(f"basis object missing key {exc}") from None
    if n < 0:
        raise ValueError(f"weight bound must be >= 0, got {n}")
    if min(ranks, default=0) < 0:
        raise ValueError("ranks_per_weight entries must be >= 0")
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
    raw_anns = _json_list(obj.get("annihilators", [0] * len(tensors)), "annihilators")
    anns = tuple(Z.from_json(a, "annihilators") for a in raw_anns)
    if len(anns) != len(tensors):
        raise ValueError("annihilators must match the tensor count")
    for i, (T, a) in enumerate(zip(tensors, anns)):
        order = _vector_annihilator(ring, T.terms.values())
        if a != order:
            raise ValueError(
                f"annihilators[{i}] is {a}, but tensor {i} has additive order {order}"
            )
    return TensorBasis(n, tuple(tensors), tuple(added), anns, ring, gens)
