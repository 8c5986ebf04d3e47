"""Independent references for the truncated Magnus expansion.

The series E(w) of a word, with s -> 1 + X_s and s^-1 -> 1 - X_s + X_s^2
- ... (Chen, Fox and Lyndon, *Free differential calculus IV*, 1958), by
plain polynomial multiplication in the free algebra truncated at degree
n, and group-ring products of (w - 1) factors as signed words.  Nothing
here calls the Magnus sweep the library implements (words.MagnusPlan),
so tests can check that sweep, and everything built on it, against
these.  A series is a dict from monomials (tuples of generator indices)
to nonzero ring coefficients.
"""

import itertools

from letterbraid.words import Word


def truncated_product(ring, p: dict, q: dict, n: int) -> dict:
    """The product of two series, truncated at degree n."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if len(m1) + len(m2) <= n:
                key = m1 + m2
                out[key] = ring.add(out.get(key, ring.zero()), ring.mul(c1, c2))
    return {m: c for m, c in out.items() if c != ring.zero()}


def magnus_oracle(w: Word, ring, n: int) -> dict:
    """E(w) truncated at degree n, one letter's factor at a time."""
    poly = {(): ring.one()}
    for g, s in w.letters:
        if s == 1:
            factor = {(): ring.one(), (g,): ring.one()}
        else:
            factor = {(g,) * k: ring.from_int((-1) ** k) for k in range(0, n + 1)}
        poly = truncated_product(ring, poly, factor, n)
    return poly


def minus_one_product(gens, factors):
    """(w_1 - 1)...(w_k - 1) in the group ring, as (word, sign) pairs: per
    subset of the factors, the product of its words in order, with sign
    (-1)^(k - size).  Equal words are not collected."""
    for keep in itertools.product((False, True), repeat=len(factors)):
        word = Word.identity(gens)
        for w, kept in zip(factors, keep):
            if kept:
                word = word * w
        yield word, (-1) ** keep.count(False)
