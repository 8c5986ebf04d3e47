"""The four workloads: inputs made from a seed, timed operations, and checks.

A workload is a fixed batch of operations, each run over Z, over Z/4 and
over Q.  ``build`` makes the inputs (this is the set-up the benchmark
times); ``prepare`` computes the references the checks need, untimed, and
returns the operations.  An operation pairs one computation (``run``, the
part that is timed) with a check of its output (``check``, untimed), which
returns None when the output is right and otherwise says what is wrong.

Every check compares against a closed form, a computation made here apart
from the program, or a property the method must have; none compares
against a stored copy of earlier output.

The workloads call the library through the ``lb`` package object they are
given, looking each function up at call time, so a traced run sees every
call through its wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MODULUS = 4
RING_SPECS = {"Z": "Z", "Zm": f"Z/{MODULUS}", "Q": "Q"}
WORK_DIR = Path(__file__).resolve().parent / "results" / "work"


@dataclass
class Op:
    name: str
    ring: str  # "Z", "Zm" or "Q"
    run: object  # () -> output; the timed computation
    check: object  # output -> None when right, else a message


class ProgramReportedFailure(Exception):
    """The program itself reported failure (for a CLI verb: a non-zero exit)."""


class KnownFault(Exception):
    """Raised by a check whose output is wrong in the one way a known fault
    of the program makes it wrong on every run (README.md names it).  The
    operation counts as failed; the run's results stay correct."""


# Weight bounds per problem and ring.  A ring runs at a smaller bound than
# Z where it is far slower on the same problem; README.md gives the times
# of the sizes left out.  "smoke" holds the smallest sizes, used by the
# smoke test.
SIZES = {
    "full": {
        "cochain_h0": {
            ("h0_cyc", "torus"): {"Z": 4, "Zm": 3, "Q": 3},
            ("h0_bar", "wedge3"): {"Z": 3, "Zm": 3, "Q": 3},
            ("h0_cyc", "wedge2"): {"Z": 5, "Zm": 5, "Q": 4},
        },
        "class_basis": {
            ("finite_type_basis", "torus"): {"Z": 5, "Zm": 5, "Q": 4},
            ("finite_type_basis", "klein"): {"Z": 5, "Zm": 4, "Q": 4},
            ("class_function_basis", "torus"): {"Z": 3, "Zm": 3, "Q": 2},
            ("class_function_basis", "klein"): {"Z": 4, "Zm": 3, "Q": 3},
        },
        # (n, L) of the oracle-compare verb
        "oracle_compare": {
            "torus": {"Z": (2, 3), "Zm": (1, 3), "Q": (1, 2)},
            "klein": {"Z": (2, 3), "Zm": (2, 3), "Q": (1, 2)},
        },
        # tensor weight bound per ring, and word lengths
        "long_words": {
            "weight": {"Z": 4, "Zm": 4, "Q": 3},
            "random_len": 1000,
            "comm3_power": 100,  # [[x,y],z] has 10 letters
            "comm4_power": 46,  # [[[x,y],x],y] has 22 letters
            "gen_power": 1000,
        },
        # weight bound of the untimed oracle the Klein-bottle checks use
        "klein_oracle": (2, 3),
    },
    "smoke": {
        "cochain_h0": {
            ("h0_cyc", "torus"): {"Z": 2, "Zm": 2, "Q": 2},
            ("h0_bar", "wedge3"): {"Z": 2, "Zm": 2, "Q": 2},
            ("h0_cyc", "wedge2"): {"Z": 3, "Zm": 3, "Q": 3},
        },
        "class_basis": {
            ("finite_type_basis", "torus"): {"Z": 2, "Zm": 2, "Q": 2},
            ("finite_type_basis", "klein"): {"Z": 2, "Zm": 2, "Q": 2},
            ("class_function_basis", "torus"): {"Z": 2, "Zm": 2, "Q": 2},
            ("class_function_basis", "klein"): {"Z": 2, "Zm": 2, "Q": 2},
        },
        "oracle_compare": {
            "torus": {"Z": (1, 2), "Zm": (1, 2), "Q": (0, 2)},
            "klein": {"Z": (1, 2), "Zm": (1, 2), "Q": (0, 2)},
        },
        "long_words": {
            "weight": {"Z": 3, "Zm": 3, "Q": 2},
            "random_len": 60,
            "comm3_power": 3,
            "comm4_power": 2,
            "gen_power": 40,
        },
        "klein_oracle": (1, 2),
    },
}

_LETTERS = "abcdefghijkmnpqrstuwxyz"  # no "v": the models name their vertex v


def _gen_names(rng: random.Random, k: int) -> tuple:
    return tuple(rng.sample(_LETTERS, k))


def _rings(lb) -> dict:
    return {key: lb.Ring.from_spec(spec) for key, spec in RING_SPECS.items()}


def _presentations(names) -> dict:
    x, y = names
    return {
        "torus": f"gens: {x} {y}\nrel: {x} {y} {x}^-1 {y}^-1\n",
        "klein": f"gens: {x} {y}\nrel: {x} {y} {x} {y}^-1\n",
    }


def _expect(label: str, got, want):
    return None if got == want else f"{label}: got {got}, expected {want}"


# ---------------------------------------------------------------------------
# cochain_h0: H^0 of the bar and cyclic-bar complexes of simplicial models
# ---------------------------------------------------------------------------


def _loop_faces(vertex: str) -> list:
    return [{"target": vertex, "degeneracies": []}] * 2


def _torus_obj(rng: random.Random) -> dict:
    """One vertex, edges a, b and the diagonal c, triangles P and Q."""
    a, b, c = _gen_names(rng, 3)
    p, q = (s.upper() for s in _gen_names(rng, 2))
    edge = {"a": a, "b": b, "c": c}

    def tri(d0, d1, d2):
        return [{"target": edge[e], "degeneracies": []} for e in (d0, d1, d2)]

    return {
        "dims": 2,
        "simplices": {"0": ["v"], "1": [a, b, c], "2": [p, q]},
        "faces": {
            a: _loop_faces("v"),
            b: _loop_faces("v"),
            c: _loop_faces("v"),
            p: tri("b", "c", "a"),
            q: tri("a", "c", "b"),
        },
    }


def _wedge_obj(rng: random.Random, k: int) -> dict:
    names = list(_gen_names(rng, k))
    return {
        "dims": 1,
        "simplices": {"0": ["v"], "1": names},
        "faces": {e: _loop_faces("v") for e in names},
    }


def cochain_h0_build(lb, seed: int, size: str):
    rng = random.Random(seed)
    texts = {
        "torus": json.dumps(_torus_obj(rng)),
        "wedge3": json.dumps(_wedge_obj(rng, 3)),
        "wedge2": json.dumps(_wedge_obj(rng, 2)),
    }
    rings = _rings(lb)
    algebras = {}
    for space, text in texts.items():
        X = lb.model_from_obj(json.loads(text), name=space)
        for key, R in rings.items():
            algebras[space, key] = lb.cochain_algebra(X, R)
    return algebras


def _necklaces(k: int, p: int) -> int:
    if p == 0:
        return 1
    total = sum(
        _totient(d) * k ** (p // d) for d in range(1, p + 1) if p % d == 0
    )
    return total // p


def _totient(d: int) -> int:
    return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)


def _h0_ranks(verb: str, space: str, n: int) -> list:
    if space == "torus":
        return [p + 1 for p in range(n + 1)]
    k = int(space[len("wedge"):])
    if verb == "h0_bar":
        return [k**p for p in range(n + 1)]
    return [_necklaces(k, p) for p in range(n + 1)]


def cochain_h0_prepare(lb, algebras, size: str) -> list:
    ops = []
    for (verb, space), per_ring in SIZES[size]["cochain_h0"].items():
        for key, n in per_ring.items():
            A = algebras[space, key]
            want = _h0_ranks(verb, space, n)

            def run(verb=verb, A=A, n=n):
                return getattr(lb, verb)(A, n)

            def check(H, verb=verb, want=want):
                bad = _expect("ranks per weight", list(H.ranks_per_weight), want)
                if bad:
                    return bad
                for i, x in enumerate(H):
                    if not lb.bar_differential(x).is_zero():
                        return f"element {i} is not a bar cocycle"
                    if verb == "h0_cyc" and lb.sigma(x) != x:
                        return f"element {i} is not fixed by sigma"
                return None

            ops.append(Op(f"{verb} {space} n={n}", key, run, check))
    return ops


# ---------------------------------------------------------------------------
# class_basis: finite-type and class-function bases of presented groups
# ---------------------------------------------------------------------------


def class_basis_build(lb, seed: int, size: str):
    # The seed draws the torus's generator names.  The Klein bottle's are
    # fixed: one of its operations fails on today's code (README.md) and
    # must fail the same way under every seed.
    rng = random.Random(seed)
    texts = {
        "torus": _presentations(_gen_names(rng, 2))["torus"],
        "klein": _presentations(("a", "b"))["klein"],
    }
    return {group: lb.parse_presentation(text) for group, text in texts.items()}


def class_basis_prepare(lb, groups, size: str) -> list:
    sizes = SIZES[size]
    rings = _rings(lb)
    # Over Z/4 the Klein bottle has torsion, so no closed form gives its
    # ranks; the group-ring oracle, run here untimed, stands in for one.
    on, oL = sizes["klein_oracle"]
    klein_oracle = lb.oracle_group_ring_quotient(groups["klein"], rings["Zm"], on, oL)
    ops = []
    for (maker, group), per_ring in sizes["class_basis"].items():
        for key, n in per_ring.items():
            P, R = groups[group], rings[key]
            system = lb.descend_conditions(P, R, n)

            def run(maker=maker, P=P, R=R, n=n):
                return getattr(lb, maker)(P, R, n)

            def check(B, maker=maker, group=group, key=key, n=n, system=system):
                for i, T in enumerate(B):
                    if not system.satisfied_by(T):
                        return f"member {i} fails the descend conditions"
                    if maker == "class_function_basis" and lb.cycle(T) != T:
                        return f"member {i} is not cycle-invariant"
                ranks = list(B.ranks_per_weight)
                if group == "torus":
                    return _expect("torus ranks", ranks, [p + 1 for p in range(n + 1)])
                if key != "Zm":
                    return _expect("Klein-bottle ranks", ranks, [1] * (n + 1))
                if maker == "finite_type_basis":
                    prefix = [T for T, p in zip(B, B.added_at_weight) if p <= on]
                    if not lb.pairing_tables_agree(prefix, klein_oracle):
                        return f"span to weight {on} differs from the oracle's"
                bad = _expect(
                    f"cumulative Klein-bottle ranks to weight {on} against the oracle",
                    list(itertools.accumulate(ranks[: on + 1])),
                    list(klein_oracle.ranks),
                )
                if bad and maker == "finite_type_basis":
                    # Z/m finite-type generating sequences are not minimal
                    # (README.md): the span agrees, the count does not.
                    raise KnownFault(bad)
                return bad

            ops.append(Op(f"{maker} {group} n={n}", key, run, check))
    return ops


# ---------------------------------------------------------------------------
# oracle_compare: the oracle-compare verb of the command line
# ---------------------------------------------------------------------------


def oracle_compare_build(lb, seed: int, size: str):
    # The presentations are fixed: the one operation that fails on today's
    # code (README.md) must fail the same way under every seed.
    importlib.import_module("letterbraid.cli")  # part of the set-up a CLI run pays
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    paths = {}
    for group, text in _presentations(("a", "b")).items():
        path = WORK_DIR / f"{group}.grp"
        path.write_text(text)
        paths[group] = path
    return paths


def _parse_verb_output(text: str):
    """Cumulative (pipeline, oracle) ranks per degree, and the pairing line."""
    pipeline, oracle, pairing = [], [], None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0].isdigit():
            pipeline.append(int(parts[1]))
            oracle.append(int(parts[2]))
        elif parts[:1] == ["pairing"]:
            pairing = line
    return pipeline, oracle, pairing


def oracle_compare_prepare(lb, paths, size: str) -> list:
    ops = []
    for group, per_ring in SIZES[size]["oracle_compare"].items():
        for key, (n, L) in per_ring.items():
            argv = [
                "oracle-compare", "--ring", RING_SPECS[key],
                "--presentation", str(paths[group]), "-n", str(n), "-L", str(L),
            ]

            def run(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = lb.cli.main(argv)
                if code != 0:
                    raise ProgramReportedFailure(f"oracle-compare exited {code}")
                return out.getvalue()

            def check(text, group=group, key=key, n=n):
                pipeline, oracle, pairing = _parse_verb_output(text)
                if pairing != "pairing agree":
                    return f"verb printed {pairing!r}"
                if len(pipeline) != n + 1:
                    return f"expected {n + 1} rows of ranks, got {len(pipeline)}"
                bad = _expect("pipeline vs oracle ranks", pipeline, oracle)
                if bad:
                    return bad
                if group == "torus":
                    return _expect(
                        "torus cumulative ranks",
                        pipeline,
                        [math.comb(d + 2, 2) for d in range(n + 1)],
                    )
                if key != "Zm":
                    return _expect(
                        "Klein-bottle cumulative ranks", pipeline, list(range(1, n + 2))
                    )
                return None

            ops.append(Op(f"oracle-compare {group} n={n} L={L}", key, run, check))
    return ops


# ---------------------------------------------------------------------------
# long_words: evaluation of full tensors on words about a thousand letters long
# ---------------------------------------------------------------------------


def _random_reduced(rng: random.Random, k: int, length: int) -> list:
    letters = []
    while len(letters) < length:
        g, s = rng.randrange(k), rng.choice((1, -1))
        if letters and letters[-1] == (g, -s):
            continue
        letters.append((g, s))
    return letters


def _inv(letters) -> list:
    return [(g, -s) for g, s in reversed(letters)]


def _comm(u, v) -> list:
    return u + v + _inv(u) + _inv(v)


def _text(letters, names) -> str:
    return " ".join(names[g] if s == 1 else f"{names[g]}^-1" for g, s in letters)


def long_words_build(lb, seed: int, size: str):
    sizes = SIZES[size]["long_words"]
    rng = random.Random(seed)
    names = _gen_names(rng, 3)
    x, y, z = ([(g, 1)] for g in rng.sample(range(3), 3))
    power = rng.randrange(3)
    words = {
        "random": _text(_random_reduced(rng, 3, sizes["random_len"]), names),
        "[[x,y],z]^k": _text(_comm(_comm(x, y), z) * sizes["comm3_power"], names),
        "[[[x,y],x],y]^k": _text(_comm(_comm(_comm(x, y), x), y) * sizes["comm4_power"], names),
        "x^k": f"{names[power]}^{sizes['gen_power']}",
    }
    gens = lb.GenSet.of(*names)
    parsed = {label: lb.parse_word(text, gens) for label, text in words.items()}
    # Coefficients are nonzero mod 4, so every tensor is full in every ring.
    top = max(sizes["weight"].values())
    monos = [m for p in range(top + 1) for m in itertools.product(range(3), repeat=p)]
    coeffs = {m: rng.choice((-7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7)) for m in monos}
    tensors = {}
    for key, R in _rings(lb).items():
        w = sizes["weight"][key]
        terms = {m: R.from_int(c) for m, c in coeffs.items() if len(m) <= w}
        tensors[key] = lb.BraidingTensor(R, gens, terms)
        for p in range(1, w + 1):
            tensors[key, p] = lb.BraidingTensor(R, gens, {(power,) * p: R.one()})
    return {"words": parsed, "tensors": tensors, "coeffs": coeffs, "power": power,
            "gen_power": sizes["gen_power"], "weights": sizes["weight"]}


def magnus(letters, n: int) -> dict:
    """Integer Magnus expansion of a word, cut at weight n.

    The product over letters of 1 + x_s for s and sum_k (-x_s)^k for s^-1,
    as a map from index sequences (monomials x_{i_1} ... x_{i_p}) to
    integers.  A weight-p tensor's value on the word is the sum of its
    coefficients times these.
    """
    E = {(): 1}
    for g, s in letters:
        new = dict(E)
        for m, c in E.items():
            key, coeff = m, c
            for _ in range(n - len(m) if s == -1 else min(1, n - len(m))):
                key, coeff = key + (g,), coeff * s
                new[key] = new.get(key, 0) + coeff
        E = new
    return {m: c for m, c in E.items() if c}


def long_words_prepare(lb, inp, size: str) -> list:
    top = max(inp["weights"].values())
    expansions = {label: magnus(w.letters, top) for label, w in inp["words"].items()}
    rings = _rings(lb)
    k, g = inp["gen_power"], inp["power"]
    ops = []
    for key, R in rings.items():
        weight = inp["weights"][key]
        T = inp["tensors"][key]
        for label, w in inp["words"].items():
            E = expansions[label]
            want = R.from_int(
                sum(c * E.get(m, 0) for m, c in inp["coeffs"].items() if len(m) <= weight)
            )

            def run(T=T, w=w):
                return lb.eval_word(T, w)

            def check(v, want=want, label=label):
                return _expect(f"value on {label}", v, want)

            ops.append(Op(f"eval_word weight<={weight} {label} ({len(w)} letters)", key, run, check))
        w = inp["words"]["x^k"]
        for p in range(1, weight + 1):
            want = R.from_int(math.comb(k, p))
            if expansions["x^k"].get((g,) * p) != math.comb(k, p):
                raise AssertionError("Magnus reference disagrees with C(k, p)")

            def run(T=inp["tensors"][key, p], w=w):
                return lb.eval_word(T, w)

            def check(v, want=want, p=p):
                return _expect(f"pure weight-{p} tensor on x^{k}", v, want)

            ops.append(Op(f"eval_word pure p={p} x^{k}", key, run, check))
    return ops


WORKLOADS = {
    "cochain_h0": (cochain_h0_build, cochain_h0_prepare),
    "class_basis": (class_basis_build, class_basis_prepare),
    "oracle_compare": (oracle_compare_build, oracle_compare_prepare),
    "long_words": (long_words_build, long_words_prepare),
}
