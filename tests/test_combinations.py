"""Laws shared by every formal-sum type (rings.Combination subclasses)."""

import dataclasses
import random
from fractions import Fraction

import pytest

from letterbraid.barcyc import BarElement, CycElement
from letterbraid.dga import cochain_algebra, torus_model, wedge_model
from letterbraid.rings import Combination, Ring, ShapeError
from letterbraid.tensors import BraidingTensor
from letterbraid.words import GenSet, GeneratorMismatchError, UnknownGeneratorError

Z = Ring.integers()
Z4 = Ring.integers_mod(4)
Q = Ring.rationals()
AB = GenSet.of("a", "b")
TORUS = {R.spec: cochain_algebra(torus_model(), R) for R in (Z, Z4, Q)}


def _coeff(rng, R):
    if R.kind == "Q":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randint(-5, 5)


def _seq(rng, pool, max_len=3):
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def _bar(rng, R):
    A = TORUS[R.spec]
    pool = A.augmentation_ideal_basis()
    return BarElement(A, {_seq(rng, pool): _coeff(rng, R) for _ in range(4)})


def _cyc(rng, R):
    A = TORUS[R.spec]
    pool = A.augmentation_ideal_basis()
    m0s = [(d, i) for d in range(len(A.basis)) for i in range(A.dim(d))]
    terms = {(rng.choice(m0s), _seq(rng, pool)): _coeff(rng, R) for _ in range(4)}
    return CycElement(A, "A", terms)


def _tensor(rng, R):
    return BraidingTensor(R, AB, {_seq(rng, (0, 1)): _coeff(rng, R) for _ in range(4)})


MAKERS = {"bar": _bar, "cyc": _cyc, "tensor": _tensor}
RINGS = {"Z": Z, "Z/4": Z4, "Q": Q}


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_combination_laws(make, ring):
    rng = random.Random(11)
    for _ in range(25):
        x, y, z = make(rng, ring), make(rng, ring), make(rng, ring)
        assert isinstance(x, Combination)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert (x - x).is_zero()
        assert x - y == x + (-y)
        a, b = _coeff(rng, ring), _coeff(rng, ring)
        assert x.scale(a) + x.scale(b) == x.scale(a + b)
        assert x.scale(0).is_zero()
        assert x.scale(1) == x
        shuffled = list(x.terms.items())
        rng.shuffle(shuffled)
        assert dataclasses.replace(x, terms=dict(shuffled)) == x
        assert all(c != ring.zero() for c in x.terms.values())
        for key, c in x.terms.items():
            assert x.coefficient(key) == c


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_constructors_refuse_float_coefficients(ring):
    A = TORUS[ring.spec]
    a = (1, 0)
    builders = [
        lambda: BarElement(A, {(a,): 0.5}),
        lambda: BarElement.word(A, (a,), 0.5),
        lambda: CycElement(A, "A", {((0, 0), (a,)): 0.5}),
        lambda: BraidingTensor(ring, AB, {(0,): 0.5}),
        lambda: BraidingTensor.pure(ring, AB, ("a",), 0.5),
        lambda: BraidingTensor.scalar(ring, AB, 0.5),
    ]
    for build in builders:
        with pytest.raises(TypeError):
            build()


def test_constructors_refuse_bad_keys():
    A = TORUS["Z"]
    with pytest.raises(UnknownGeneratorError):
        BraidingTensor(Z, AB, {(0, 2): 1})
    with pytest.raises(ValueError):
        BarElement(A, {((0, 0),): 1})  # degree-0 slot
    with pytest.raises(ValueError):
        BarElement(A, {((1, 3),): 1})  # no fourth edge
    with pytest.raises(ValueError):
        CycElement(A, "A", {((0, 0), ((3, 0),)): 1})  # bad slot
    with pytest.raises(ValueError):
        CycElement(A, "A", {((0, 1), ()): 1})  # bad m0
    with pytest.raises(ValueError):
        CycElement(A, "M", {})  # bad module tag


def _raises_exactly(error, fn):
    with pytest.raises(error) as info:
        fn()
    assert info.type is error


def test_mixed_rings_are_refused():
    for make in (
        lambda R: BraidingTensor.pure(R, AB, ("a",), 3),
        lambda R: BarElement.word(TORUS[R.spec], ((1, 0),), 3),
    ):
        x, y = make(Z), make(Z4)
        _raises_exactly(ShapeError, lambda: x + y)
        _raises_exactly(ShapeError, lambda: y + x)
        _raises_exactly(ShapeError, lambda: x - y)


def test_mixed_algebras_modules_and_generators_are_refused():
    torus = BarElement.word(TORUS["Z"], ((1, 0),))
    wedge = BarElement.word(cochain_algebra(wedge_model(3), Z), ((1, 0),))
    _raises_exactly(ValueError, lambda: torus + wedge)
    _raises_exactly(ValueError, lambda: torus - wedge)
    # an equal algebra built twice is the same space
    again = BarElement.word(cochain_algebra(torus_model(), Z), ((1, 0),))
    assert (torus + again).terms == {((1, 0),): 2}
    assert torus == again

    x = CycElement(TORUS["Z"], "A", {((1, 0), ()): 1})
    y = CycElement(TORUS["Z"], "Abar", {((1, 0), ()): 1})
    _raises_exactly(ValueError, lambda: x + y)
    assert x != y

    S = GenSet.of("s")
    _raises_exactly(
        GeneratorMismatchError, lambda: BraidingTensor.pure(Z, AB, ("a",)) + BraidingTensor.pure(Z, S, ("s",))
    )

