"""Necklace counts and orbit-sum bases that only the tests use.

Both are built from tensors.rotation_orbits, the orbits every cyclic
kernel runs on, so the tests that use them check that enumeration too.
"""

from itertools import product

from letterbraid.tensors import BraidingTensor, rotation_orbits


def coinvariant_rank(names, p: int) -> int:
    """Number of cyclic summands of the weight-p rotation coinvariants
    (cokernel of sigma - 1 on words in degree-1 letters).

    sigma permutes the words, so the cokernel is free on the rotation
    orbits, over every ring: the count is the number of necklaces.
    """
    if p < 1:
        raise ValueError("weight must be >= 1")
    return len(rotation_orbits(list(product(range(len(names)), repeat=p))))


def cycle_invariant_basis(gens, p: int, ring):
    """Orbit-sum basis of the cycle-invariant weight-p tensors.

    One tensor per rotation orbit (necklace) of length-p generator
    sequences, each the sum of the distinct rotations of its
    representative, listed by lexicographically smallest representative.
    """
    if p < 1:
        raise ValueError(f"weight must be >= 1, got {p}")
    orbits = rotation_orbits(list(product(range(len(gens)), repeat=p)))
    return [BraidingTensor(ring, gens, dict.fromkeys(orbit, ring.one())) for orbit in orbits]
