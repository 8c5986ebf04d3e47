"""Free-group words and their truncated Magnus expansion.

A :class:`Word` is a freely reduced sequence of (generator index, sign)
letters over a fixed ordered :class:`GenSet`.  Reduction happens on
construction, so every Word in circulation is canonical and equality is
literal tuple equality.

:class:`MagnusPlan` is the package's one Magnus expansion: the truncated
series E(w) of a word, with s -> 1 + x_s and s^-1 -> 1 - x_s + x_s^2 - ...
(Chen, Fox and Lyndon, *Free differential calculus IV*, 1958), restricted
to a prefix-closed set of monomials and computed in one iterative sweep
over the letters with plain Python ints.  A monomial is the tuple of its
generator indices; the empty tuple is the unit.  Tensor evaluation, the
descend rows and certification of classfun, and the oracle all run on
it.  A prefix-closed set is closed under right multiplication by a
letter, so the restriction is exact; the series is multiplicative, so
unreduced spellings give the same values.  A run g^k of more than D equal
letters, D the length of the longest monomial, is one closed-form step by
E(g^k) = (1 + x_g)^k, and costs what D letters cost; a power u^k with
k > 2D + 1 is interpolated from D + 1 powers of u, and costs what D
copies of u cost.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from math import comb


class WordSyntaxError(ValueError):
    """Malformed word/token ("syntax")."""

    code = "syntax"


class UnknownGeneratorError(ValueError):
    """Word uses a generator outside the generator set ("unknown_generator")."""

    code = "unknown_generator"


class GeneratorMismatchError(ValueError):
    """Operands built over different generator sets ("gen_mismatch")."""

    code = "gen_mismatch"


# parse_word refuses words with more letters than this, counted from the
# token exponents before any letter list is built: "a^1000000000000" would
# otherwise try to allocate 10^12 letters.
MAX_WORD_LETTERS = 100_000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class GenSet:
    """Ordered set of distinct generator names."""

    names: tuple

    def __post_init__(self):
        if not isinstance(self.names, tuple):
            object.__setattr__(self, "names", tuple(self.names))
        for name in self.names:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise WordSyntaxError(f"bad generator name {name!r}")
        if len(set(self.names)) != len(self.names):
            raise WordSyntaxError(f"duplicate generator names in {self.names}")

    @staticmethod
    def of(*names: str) -> "GenSet":
        return GenSet(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownGeneratorError(
                f"unknown generator {name!r} (have {', '.join(self.names)})"
            ) from None


def _require_same_gens(a: GenSet, b: GenSet):
    if a.names != b.names:
        raise GeneratorMismatchError(f"generator sets differ: {a.names} vs {b.names}")


def _check_generator(g, k: int) -> None:
    """Refuse g unless it is an int (not a bool) in range(k)."""
    if type(g) is not int or not 0 <= g < k:
        raise UnknownGeneratorError(f"generator index {g!r} is not an int in range({k})")


def _check_letter(g, s, k: int) -> None:
    """Refuse the letter (g, s) unless g is a generator index in range(k)
    and s the int +1 or -1."""
    _check_generator(g, k)
    if type(s) is not int or s not in (1, -1):
        raise WordSyntaxError(f"letter sign must be +-1, got {s!r}")


@dataclass(frozen=True, order=True)
class Word:
    """Freely reduced word; letters are (generator index, +1 or -1)."""

    gens: GenSet = field(compare=False)
    letters: tuple = ()

    def __post_init__(self):
        stack = []
        k = len(self.gens)
        for letter in self.letters:
            g, s = letter
            _check_letter(g, s, k)
            if stack and stack[-1][0] == g and stack[-1][1] == -s:
                stack.pop()
            else:
                stack.append((g, s))
        object.__setattr__(self, "letters", tuple(stack))

    @staticmethod
    def identity(gens: GenSet) -> "Word":
        return Word(gens, ())

    @staticmethod
    def generator(gens: GenSet, name: str, power: int = 1) -> "Word":
        g = gens.index(name)
        sign = 1 if power > 0 else -1
        return Word(gens, ((g, sign),) * abs(power))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        _require_same_gens(self.gens, other.gens)
        return Word(self.gens, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.gens, tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word(self.gens, base.letters * abs(k))

    def is_identity(self) -> bool:
        return not self.letters

    def to_text(self) -> str:
        """Round-trippable text: runs compressed, identity shown as "1"."""
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            g, s = self.letters[i]
            j = i
            while j < len(self.letters) and self.letters[j] == (g, s):
                j += 1
            k = (j - i) * s
            parts.append(self.gens.names[g] if k == 1 else f"{self.gens.names[g]}^{k}")
            i = j
        return " ".join(parts)


def parse_word(text: str, gens: GenSet) -> Word:
    """Parse whitespace-separated tokens ``g``, ``g^-1``, ``g^k`` (k nonzero).

    The empty string and the bare token "1" denote the identity.  A word
    of more than MAX_WORD_LETTERS letters, summed over the exponents, is
    refused with a WordSyntaxError.
    """
    tokens = text.split()
    if tokens == ["1"]:
        return Word.identity(gens)
    runs = []
    for token in tokens:
        m = _TOKEN_RE.fullmatch(token)
        if not m:
            raise WordSyntaxError(f"bad token {token!r}")
        name, exp = m.group(1), m.group(2)
        g = gens.index(name)
        # an exponent longer than the cap itself is over the cap; int()
        # would refuse one of more than 4300 digits with its own message
        digits = 0 if exp is None else len(exp.lstrip("-0"))
        if digits > len(str(MAX_WORD_LETTERS)):
            raise WordSyntaxError(
                f"word has an exponent of {digits} digits, more letters "
                f"than the cap of {MAX_WORD_LETTERS}"
            )
        k = 1 if exp is None else int(exp)
        if k == 0:
            raise WordSyntaxError(f"zero exponent in token {token!r}")
        runs.append((g, k))
    total = sum(abs(k) for _, k in runs)
    if total > MAX_WORD_LETTERS:
        raise WordSyntaxError(
            f"word has {total} letters, more than the cap of {MAX_WORD_LETTERS}"
        )
    letters = []
    for g, k in runs:
        letters.extend([(g, 1 if k > 0 else -1)] * abs(k))
    return Word(gens, tuple(letters))


def conjugate(g: Word, w: Word) -> Word:
    """g * w * g^-1."""
    return g * w * g.inverse()


# Letters in enumeration order: a before a^-1 before b ...
def _letter_order(gens: GenSet):
    out = []
    for g in range(len(gens)):
        out.append((g, 1))
        out.append((g, -1))
    return out


def _reduced_spellings(gens: GenSet, max_len: int):
    """Letter tuples of all reduced words of length <= max_len, by
    (length, lexicographic) order in the letter order of _letter_order,
    a < a^-1 < b < b^-1 < ...  This is not the order of the tuples
    themselves: a letter is (generator, exponent), so sorting the tuples
    puts a^-1 = (0, -1) before a = (0, 1)."""
    order = _letter_order(gens)
    current = [()]
    yield ()
    for _ in range(max_len):
        current = [
            w + (letter,)
            for w in current
            for letter in order
            if not w or w[-1] != (letter[0], -letter[1])
        ]
        yield from current


def _join(x: tuple, y: tuple) -> tuple:
    """Free reduction of the spelling x + y of two reduced letter tuples:
    letters cancel only across the junction."""
    i, most = 0, min(len(x), len(y))
    while i < most and x[-1 - i] == (y[i][0], -y[i][1]):
        i += 1
    return x[: len(x) - i] + y[i:]


def words_up_to(gens: GenSet, max_len: int):
    """All reduced words of length <= max_len, in the order of
    _reduced_spellings: by length, then lexicographic with a < a^-1 < b."""
    for letters in _reduced_spellings(gens, max_len):
        yield Word(gens, letters)


def random_reduced_word(rng, gens: GenSet, max_len: int, exact_len: int | None = None) -> Word:
    """Uniform-ish reduced word with the given length bound; deterministic in rng."""
    length = exact_len if exact_len is not None else rng.randrange(0, max_len + 1)
    letters = []
    order = _letter_order(gens)
    for _ in range(length):
        options = [
            (g, s)
            for g, s in order
            if not letters or not (letters[-1][0] == g and letters[-1][1] == -s)
        ]
        if not options:
            break
        letters.append(rng.choice(options))
    return Word(gens, tuple(letters))


class MagnusPlan:
    """Integer Magnus expansion of words, restricted to a set of monomials.

    The plan is the prefix trie of the given monomials (index sequences):
    node 0 is the empty monomial and every other node is a nonempty
    prefix.  ``index`` maps each prefix to its node.  The trie nodes are
    grouped by their last generator, so a letter touches only the nodes
    that end in its generator, and a run of more than D letters, D the
    longest monomial's length, touches each of them at most D times; a
    power u^k with k > 2D + 1 costs D sweeps of u.
    """

    __slots__ = ("index", "_depth", "_up", "_down", "_runs")

    def __init__(self, monomials):
        nodes = {()}
        for mono in monomials:
            m = tuple(mono)
            while m not in nodes:
                nodes.add(m)
                m = m[:-1]
        order = sorted(sorted(nodes), key=len)
        self.index = {m: i for i, m in enumerate(order)}
        self._depth = len(order[-1])
        shortest_first: dict = {}
        for m in order[1:]:
            shortest_first.setdefault(m[-1], []).append((self.index[m], self.index[m[:-1]]))
        # (node, parent) pairs: longest first for s, shortest first for s^-1
        self._up = {g: tuple(reversed(pairs)) for g, pairs in shortest_first.items()}
        self._down = {g: tuple(pairs) for g, pairs in shortest_first.items()}
        self._runs: dict = {}  # built on the first long run of each generator

    def _run_passes(self, g) -> list:
        """The run step for generator g as passes (t, pairs), by ascending
        r: pairs holds (m, a_t) for each node m ending in g whose trailing
        run of g has length r >= t, and a_t is m with t trailing g's cut."""
        passes = self._runs.get(g)
        if passes is None:
            cuts, by_run = {}, {}
            for node, parent in self._down.get(g, ()):
                cuts[node] = (parent,) + cuts.get(parent, ())
                by_run.setdefault(len(cuts[node]), []).append(node)
            passes = self._runs[g] = [(t, tuple((m, cuts[m][t - 1]) for m in by_run[r]))
                                      for r in sorted(by_run) for t in range(1, r + 1)]
        return passes

    def expand(self, letters, start=None) -> list:
        """Coefficients of E(letters) at every node, as a list of ints.

        E is multiplied on the right by each letter in turn.  A letter s
        multiplies by 1 + x_s: each node ending in s adds its parent's old
        value, so the longest nodes go first.  A letter s^-1 multiplies by
        sum_k (-x_s)^k: each node ending in s subtracts its parent's new
        value, so the shortest nodes go first.  A run of k > D equal
        letters, found in one scan of the spelling, is one step: s^k sets
        new[m] = old[m] + sum_t C(k, t) old[a_t], longest runs first, and
        s^-k, as old = new (1 + x_s)^k, new[m] = old[m] - sum_t C(k, t)
        new[a_t], shortest first (a_t as in _run_passes).  A whole spelling
        u^k, |u| >= 2 and k > 2D + 1, is one step too (_power).  Any
        spelling works, reduced or not.  Given ``start``, the values of E(v)
        from this plan, the sweep continues from them and returns
        E(v letters); ``start`` itself is left unchanged.
        """
        if start is None:
            values = [0] * len(self.index)
            values[0] = 1
        else:
            values = list(start)
        letters = tuple(letters)
        depth, done, n = self._depth, 0, len(letters)
        if 0 < depth < n:
            # same[i] is 1 where letters i and i + 1 agree: a period of the
            # letters is one of same, with no 0 the spelling is one run, and
            # a run of more than depth letters starts where depth 1s do
            same = bytes(map(operator.eq, letters, letters[1:]))
            for p in range(2, n // (2 * depth + 2) + 1) if 0 in same else ():
                if n % p == 0 and same[p:] == same[:-p] and letters[p:] == letters[:-p]:
                    return self._power(values, letters[:p], n // p)
            long_run = b"\x01" * depth
            i = same.find(long_run)
            while i >= 0:
                self._sweep(values, letters[done:i])
                end = same.find(b"\x00", i + depth)
                done = n if end < 0 else end + 1
                (g, s), k = letters[i], done - i
                passes = self._run_passes(g)
                for t, pairs in reversed(passes) if s > 0 else passes:
                    c = s * comb(k, t)
                    for node, cut in pairs:
                        values[node] += c * values[cut]
                i = same.find(long_run, done)
        self._sweep(values, letters[done:])
        return values

    def _power(self, values, root, k) -> list:
        """E(root^k) from the values, E(v), of v: E(v root^k) = E(v) (1 + X)^k
        = sum_(j <= D) C(k, j) E(v) X^j, X = E(root) - 1, is a polynomial of
        degree <= D in k.  From V_i = E(v root^i), i = 0 ... D, Newton
        interpolation gives sum_i c_i V_i with c_i = sum_(j=i..D) (-1)^(j-i)
        C(k, j) C(j, i), on the nodes ending in a generator of root, the only
        ones that change."""
        touched = [m for g in {g for g, _ in root} for m, _ in self._down.get(g, ())]
        coeffs = [sum((-1) ** (j - i) * comb(k, j) * comb(j, i) for j in range(i, self._depth + 1))
                  for i in range(self._depth + 1)]
        total = [coeffs[0] * values[m] for m in touched]
        for c in coeffs[1:]:
            values = self.expand(root, values)
            total = [t + c * values[m] for t, m in zip(total, touched)]
        for m, t in zip(touched, total):
            values[m] = t
        return values

    def _sweep(self, values, letters):
        """Multiply the values in place by the letters, one at a time."""
        up, down = self._up, self._down
        for g, s in letters:
            if s > 0:
                for node, parent in up.get(g, ()):
                    values[node] += values[parent]
            else:
                for node, parent in down.get(g, ()):
                    values[node] -= values[parent]
