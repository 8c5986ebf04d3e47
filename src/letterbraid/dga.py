"""Finite differential graded algebras and simplicial-set cochain models.

Two constructors matter in practice:

* :func:`cochain_algebra` — normalized cochains of a finite simplicial set
  with the Alexander-Whitney cup product (front face times back face),
  built in one pass over the nondegenerate simplices;
* :func:`wedge_algebra` — the cochains of the one-vertex wedge of circles
  on a set of degree-1 letters, a square-zero algebra.

A :class:`FiniteDGA` stores its differential and its product in one
format: sparse tables from basis elements to (index, coeff) pairs.

Simplicial sets are given by their nondegenerate simplices; faces may hit
degenerate simplices, which we store in Eilenberg-Zilber canonical form
(a strictly decreasing word of degeneracy operators applied to a
nondegenerate base).  The simplicial identity d_i d_j = d_{j-1} d_i
(i < j) is checked on load.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import product as iproduct

from .rings import Ring, _json_list, canon_terms


class BadSimplicialSetError(ValueError):
    code = "bad_simplicial_set"


# ---------------------------------------------------------------------------
# Simplicial sets
# ---------------------------------------------------------------------------

# A simplex reference is (degeneracies, (dim, index)): the strictly
# decreasing word of s_j operators applied to a nondegenerate simplex.


def _insert_degeneracy(word, k):
    """Canonical form of s_k applied to the canonical word (s_i s_j =
    s_{j+1} s_i for i <= j keeps words strictly decreasing)."""
    out = []
    i = 0
    while i < len(word) and k <= word[i]:
        out.append(word[i] + 1)
        i += 1
    out.append(k)
    out.extend(word[i:])
    return tuple(out)


def canonical_ref(degeneracies, base):
    ref = ((), base)
    for k in reversed(tuple(degeneracies)):
        ref = (_insert_degeneracy(ref[0], k), ref[1])
    return ref


@dataclass(frozen=True)
class SimplicialSetModel:
    """Nondegenerate simplices per dimension plus their face references."""

    cells: tuple  # cells[d] = tuple of names of nondegenerate d-simplices
    faces: dict  # (d, i) -> tuple of d+1 simplex references
    name: str = "space"

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise BadSimplicialSetError("a simplicial set needs a vertex")
        seen = {}
        for d, names in enumerate(self.cells):
            for name in names:
                if name in seen:
                    raise BadSimplicialSetError(f"duplicate simplex id {name!r}")
                seen[name] = d
        for d, names in enumerate(self.cells):
            if d == 0:
                continue
            for i in range(len(names)):
                fs = self.faces.get((d, i))
                if fs is None or len(fs) != d + 1:
                    raise BadSimplicialSetError(
                        f"simplex {names[i]!r} needs {d + 1} faces"
                    )
                for ref in fs:
                    degens, (bd, bi) = ref
                    if bd >= len(self.cells) or not 0 <= bi < len(self.cells[bd]):
                        raise BadSimplicialSetError(
                            f"face of {names[i]!r} references a missing simplex"
                        )
                    if len(degens) + bd != d - 1:
                        raise BadSimplicialSetError(
                            f"face of {names[i]!r} has wrong dimension"
                        )
                    if any(degens[j] <= degens[j + 1] for j in range(len(degens) - 1)):
                        raise BadSimplicialSetError(
                            f"face of {names[i]!r}: degeneracy word not canonical"
                        )
        _check_simplicial_identities(self)

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, d: int) -> int:
        return len(self.cells[d]) if 0 <= d <= self.dim else 0

    def face(self, ref, i):
        """The i-th face of an arbitrary (possibly degenerate) simplex, in
        one walk down the word, outermost first: d_i s_j is s_(j-1) d_i if
        i < j, the identity if i = j or j + 1 (the rest is canonical), and
        s_j d_(i-1) if i > j + 1.  Only a walk to the base reads the table."""
        degens, base = ref
        out = []
        for t, j in enumerate(degens):
            if i < j:
                out.append(j - 1)
            elif i <= j + 1:
                return (tuple(out) + degens[t + 1 :], base)
            else:
                out.append(j)
                i -= 1
        word, base = self.faces[base][i]
        for k in reversed(out):
            word = _insert_degeneracy(word, k)
        return (word, base)

    def front_face(self, ref, p):
        """Restriction to the first p+1 vertices: d_{p+1} ... d_n, last first."""
        n = len(ref[0]) + ref[1][0]
        for i in range(n, p, -1):
            ref = self.face(ref, i)
        return ref

    def back_face(self, ref, q):
        """Restriction to the last q+1 vertices: (d_0)^{n-q}."""
        n = len(ref[0]) + ref[1][0]
        for _ in range(n - q):
            ref = self.face(ref, 0)
        return ref


def _check_simplicial_identities(X: SimplicialSetModel):
    for d in range(2, len(X.cells)):
        for idx in range(len(X.cells[d])):
            ref = ((), (d, idx))
            for j in range(1, d + 1):
                for i in range(j):
                    lhs = X.face(X.face(ref, j), i)
                    rhs = X.face(X.face(ref, i), j - 1)
                    if lhs != rhs:
                        raise BadSimplicialSetError(
                            f"simplicial identity fails on {X.cells[d][idx]!r}: "
                            f"d_{i} d_{j} != d_{j - 1} d_{i}"
                        )


def model_to_obj(X: SimplicialSetModel) -> dict:
    simplices = {str(d): list(X.cells[d]) for d in range(len(X.cells))}
    faces = {}
    for d in range(1, len(X.cells)):
        for i, name in enumerate(X.cells[d]):
            entries = []
            for degens, (bd, bi) in X.faces[(d, i)]:
                entries.append(
                    {"target": X.cells[bd][bi], "degeneracies": list(degens)}
                )
            faces[name] = entries
    return {"dims": X.dim, "simplices": simplices, "faces": faces}


_DIM_KEY = re.compile(r"0|[1-9][0-9]*")


def model_from_obj(obj: dict, name: str = "space") -> SimplicialSetModel:
    """The model of a space file.  Each key of 'simplices' must be a
    dimension in canonical decimal, each simplex name a string, and each
    listed simplex of dimension d >= 1 must have a list of d + 1 faces,
    objects with a string 'target'; these are checked before any
    per-dimension list is built, so the dimensions are bounded by the
    file's size.  Empty dimensions above the highest one that lists a
    simplex are not built.  A face's degeneracies are JSON integers that
    take its target to dimension d - 1, each valid where it applies."""
    if not isinstance(obj, dict) or not isinstance(obj.get("simplices"), dict):
        raise BadSimplicialSetError("simplicial set file needs a 'simplices' object")
    raw = {}
    for key, names in obj["simplices"].items():
        if not _DIM_KEY.fullmatch(key):
            raise BadSimplicialSetError(f"simplex dimension {key!r} is not a decimal number")
        raw[int(key)] = names
    top = max(raw, default=-1)
    declared = obj.get("dims")
    if declared is not None and Ring.integers().from_json(declared, "dims") != top:
        raise BadSimplicialSetError(f"'dims' is {declared} but top simplices have dimension {top}")
    lists = {d: _json_list(raw[d], f"simplices['{d}']") for d in sorted(raw)}
    raw_faces = obj.get("faces", {})
    if not isinstance(raw_faces, dict):
        raise BadSimplicialSetError(f"faces must be a JSON object, got {raw_faces!r}")
    for d, names in lists.items():
        for i, n in enumerate(names):
            if not isinstance(n, str):
                raise BadSimplicialSetError(
                    f"simplices['{d}'][{i}] must be a JSON string, got {n!r}"
                )
        if d == 0:
            continue
        for n in names:
            if n not in raw_faces:
                raise BadSimplicialSetError(f"no faces given for simplex {n!r}")
            field = f"faces[{n!r}]"
            if len(_json_list(raw_faces[n], field)) != d + 1:
                raise BadSimplicialSetError(f"simplex {n!r} needs {d + 1} faces")
            for t, item in enumerate(raw_faces[n]):
                if not isinstance(item, dict) or "target" not in item:
                    raise BadSimplicialSetError(
                        f"{field}[{t}] must be a JSON object with a 'target', got {item!r}"
                    )
                if not isinstance(item["target"], str):
                    raise BadSimplicialSetError(
                        f"{field}[{t}].target must be a JSON string, got {item['target']!r}"
                    )
    dim = max((d for d, names in lists.items() if names), default=-1)
    cells = tuple(tuple(lists.get(d, ())) for d in range(dim + 1))
    where = {n: (d, i) for d, names in enumerate(cells) for i, n in enumerate(names)}
    faces = {}
    for d in range(1, dim + 1):
        for i, n in enumerate(cells[d]):
            entries = []
            for t, item in enumerate(raw_faces[n]):
                target = item["target"]
                if target not in where:
                    raise BadSimplicialSetError(
                        f"face of {n!r} references unknown simplex {target!r}"
                    )
                field = f"faces[{n!r}][{t}].degeneracies"
                degens = tuple(_json_list(item.get("degeneracies", []), field))
                q = where[target][0]
                if q + len(degens) != d - 1:
                    raise BadSimplicialSetError(f"face of {n!r} has wrong dimension")
                # read right to left, s_j applies to a q-simplex for 0 <= j <= q
                for j in reversed(degens):
                    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j <= q:
                        raise BadSimplicialSetError(
                            f"{field} entry {j!r} must be an integer j with 0 <= j <= {q}, "
                            f"for s_j of a {q}-simplex"
                        )
                    q += 1
                entries.append(canonical_ref(degens, where[target]))
            faces[(d, i)] = tuple(entries)
    return SimplicialSetModel(cells, faces, name=name)


# -- stock models -----------------------------------------------------------


def point_model() -> SimplicialSetModel:
    return SimplicialSetModel((("v",),), {}, name="point")


def circle_model() -> SimplicialSetModel:
    v = ((), (0, 0))
    return SimplicialSetModel((("v",), ("e",)), {(1, 0): (v, v)}, name="circle")


def wedge_model(k: int) -> SimplicialSetModel:
    """Wedge of k circles: one vertex, k loops."""
    v = ((), (0, 0))
    names = tuple(f"e{i + 1}" for i in range(k)) if k != 1 else ("e",)
    faces = {(1, i): (v, v) for i in range(k)}
    return SimplicialSetModel((("v",), names), faces, name=f"wedge{k}")


def torus_model() -> SimplicialSetModel:
    """Minimal torus: one vertex, edges a, b, c = diagonal, two triangles."""
    e = {n: ((), (1, i)) for i, n in enumerate(("a", "b", "c"))}
    faces = {
        (1, 0): (((), (0, 0)), ((), (0, 0))),
        (1, 1): (((), (0, 0)), ((), (0, 0))),
        (1, 2): (((), (0, 0)), ((), (0, 0))),
        (2, 0): (e["b"], e["c"], e["a"]),  # P: d0=b, d1=c, d2=a
        (2, 1): (e["a"], e["c"], e["b"]),  # Q: d0=a, d1=c, d2=b
    }
    return SimplicialSetModel((("v",), ("a", "b", "c"), ("P", "Q")), faces, name="torus")


def wedge_with_trivial_2cells(k: int, extra: int = 2) -> SimplicialSetModel:
    """Wedge of k circles with extra 2-simplices all of whose faces are the
    degenerate edge on the vertex: adds 2-spheres, leaves loops alone."""
    base = wedge_model(k)
    degenerate_edge = ((0,), (0, 0))
    cells = (base.cells[0], base.cells[1], tuple(f"T{i + 1}" for i in range(extra)))
    faces = dict(base.faces)
    for i in range(extra):
        faces[(2, i)] = (degenerate_edge,) * 3
    return SimplicialSetModel(cells, faces, name=f"wedge{k}+spheres")


def interval_model() -> SimplicialSetModel:
    """Two vertices joined by an edge: a legal model that is not reduced
    to one vertex (used to exercise connectedness rejection)."""
    return SimplicialSetModel(
        (("u", "w"), ("e",)), {(1, 0): (((), (0, 1)), ((), (0, 0)))}, name="interval"
    )


def random_two_complex(rng, n_edges: int, n_triangles: int) -> SimplicialSetModel:
    """Random single-vertex 2-complex; any face assignment is simplicial
    because every edge endpoint is the unique vertex."""
    edge_refs = [((), (1, i)) for i in range(n_edges)] + [((0,), (0, 0))]
    cells = (
        ("v",),
        tuple(f"e{i + 1}" for i in range(n_edges)),
        tuple(f"t{i + 1}" for i in range(n_triangles)),
    )
    v = ((), (0, 0))
    faces = {(1, i): (v, v) for i in range(n_edges)}
    for i in range(n_triangles):
        faces[(2, i)] = tuple(rng.choice(edge_refs) for _ in range(3))
    return SimplicialSetModel(cells, faces, name="random2complex")


# ---------------------------------------------------------------------------
# Finite dg-algebras
# ---------------------------------------------------------------------------


@dataclass
class FiniteDGA:
    """Explicit finite dg-algebra: basis labels per degree, unit and
    augmentation in degree 0, and the differential and the product as
    sparse tables of one format.  Each maps a basis element, or a pair of
    them, to its image as (index, coeff) pairs over the target degree's
    basis; an absent key means zero."""

    ring: Ring
    basis: tuple  # basis[d] = tuple of labels
    diff: dict  # (d, i) -> tuple of (j, coeff) over basis[d + 1]
    mult: dict  # (d1, i1, d2, i2) -> tuple of (j, coeff) over basis[d1 + d2]
    unit: tuple  # coefficients over basis[0]
    aug: tuple  # row vector over basis[0]
    name: str = "algebra"

    def dim(self, d: int) -> int:
        return len(self.basis[d]) if 0 <= d < len(self.basis) else 0

    @property
    def is_connected(self) -> bool:
        return self.dim(0) == 1

    def label(self, d: int, i: int) -> str:
        return self.basis[d][i]

    def diff_column(self, d: int, i: int):
        """Differential of a basis element as (index, coeff) pairs in degree d+1."""
        return self.diff.get((d, i), ())

    def product(self, d1: int, i1: int, d2: int, i2: int):
        """Product of two basis elements as (index, coeff) pairs in degree d1+d2."""
        return self.mult.get((d1, i1, d2, i2), ())

    def augmentation_ideal_basis(self):
        """(degree, index) pairs of the positive-degree basis directions."""
        return tuple(
            (d, i) for d in range(1, len(self.basis)) for i in range(self.dim(d))
        )


def cochain_algebra(X: SimplicialSetModel, ring: Ring) -> FiniteDGA:
    """Normalized cochains of X with the front-face/back-face cup product.

    One pass over the nondegenerate simplices builds both tables: for an
    n-simplex r, each nondegenerate face d_i adds (-1)^i times r to the
    coboundary of that face, and each split p + q = n whose front p-face
    and back q-face are both nondegenerate adds r to their product.
    """
    coboundary, mult = {}, {}
    for n, names in enumerate(X.cells):
        for r in range(len(names)):
            ref = ((), (n, r))
            for i in range(n + 1 if n else 0):
                degens, (_, f) = X.face(ref, i)
                if not degens:  # normalized cochains ignore degenerate faces
                    col = coboundary.setdefault((n - 1, f), {})
                    col[r] = col.get(r, 0) + (-1 if i % 2 else 1)
            # the front p-face is fronts[n - p], the back q-face backs[n - q]
            fronts, backs = [ref], [ref]
            for p in range(n, 0, -1):
                fronts.append(X.face(fronts[-1], p))
                backs.append(X.face(backs[-1], 0))
            for p in range(n + 1):
                fdeg, (_, f) = fronts[n - p]
                bdeg, (_, b) = backs[p]
                if not fdeg and not bdeg:
                    mult.setdefault((p, f, n - p, b), []).append((r, ring.one()))
    diff = {}
    for key, col in coboundary.items():
        if col := canon_terms(ring, col):
            diff[key] = tuple(col.items())
    n0 = X.n_cells(0)
    return FiniteDGA(
        ring=ring,
        basis=X.cells,
        diff=diff,
        mult={key: tuple(v) for key, v in mult.items()},
        unit=(ring.one(),) * n0,
        aug=(ring.one(),) + (ring.zero(),) * (n0 - 1),
        name=f"cochains({X.name})",
    )


def wedge_algebra(names, ring: Ring) -> FiniteDGA:
    """Square-zero algebra on degree-1 letters: the cochains of the
    one-vertex wedge of circles, its vertex labelled "1"."""
    names = tuple(names)
    v = ((), (0, 0))
    X = SimplicialSetModel((("1",), names), {(1, i): (v, v) for i in range(len(names))})
    return replace(cochain_algebra(X, ring), name=f"wedge_algebra({len(names)})")


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


def _lin_mul(A: FiniteDGA, x: dict, y: dict) -> dict:
    acc = {}
    for (d1, i1), c1 in x.items():
        for (d2, i2), c2 in y.items():
            for j, c in A.product(d1, i1, d2, i2):
                key = (d1 + d2, j)
                acc[key] = acc.get(key, 0) + c1 * c2 * c
    return canon_terms(A.ring, acc)


def _lin_diff(A: FiniteDGA, x: dict) -> dict:
    acc = {}
    for (d, i), c in x.items():
        for j, e in A.diff_column(d, i):
            key = (d + 1, j)
            acc[key] = acc.get(key, 0) + c * e
    return canon_terms(A.ring, acc)


def verify_dga(A: FiniteDGA) -> dict:
    """Check d^2 = 0, Leibniz, associativity, unit and augmentation axioms
    exhaustively over basis elements; returns {"ok": bool, "violations": [...]}.
    """
    ring = A.ring
    bad = []
    all_basis = [(d, i) for d in range(len(A.basis)) for i in range(A.dim(d))]

    for d in range(len(A.basis) - 1):
        if any(_lin_diff(A, _lin_diff(A, {(d, i): ring.one()})) for i in range(A.dim(d))):
            bad.append(f"d^2 != 0 out of degree {d}")

    one = {b: {b: ring.one()} for b in all_basis}
    unit_el = {(0, i): c for i, c in enumerate(A.unit) if c != ring.zero()}
    for b in all_basis:
        x = one[b]
        if _lin_mul(A, unit_el, x) != x or _lin_mul(A, x, unit_el) != x:
            bad.append(f"unit fails on {A.label(*b)}")

    pairs = ((b1, b2, _lin_mul(A, one[b1], one[b2])) for b1, b2 in iproduct(all_basis, repeat=2))
    prod = {(b1, b2): xy for b1, b2, xy in pairs if xy}  # the nonzero basis products
    for b1, b2 in iproduct(all_basis, repeat=2):
        x, y = one[b1], one[b2]
        lhs = _lin_diff(A, prod.get((b1, b2), {}))
        sign = -1 if b1[0] % 2 else 1
        rhs = _lin_mul(A, _lin_diff(A, x), y)
        for k, v in _lin_mul(A, x, _lin_diff(A, y)).items():
            rhs[k] = rhs.get(k, 0) + sign * v
        rhs = canon_terms(ring, rhs)
        if lhs != rhs:
            bad.append(f"Leibniz fails on ({A.label(*b1)}, {A.label(*b2)})")

    # with b1 b2 = 0 both sides vanish unless b2 b3 != 0
    right = {b: [] for b in all_basis}
    for b2, b3 in prod:
        right[b2].append(b3)
    for b1, b2 in iproduct(all_basis, repeat=2):
        xy = prod.get((b1, b2), {})
        for b3 in all_basis if xy else right[b2]:
            if _lin_mul(A, xy, one[b3]) != _lin_mul(A, one[b1], prod.get((b2, b3), {})):
                bad.append(
                    f"associativity fails on ({A.label(*b1)}, {A.label(*b2)}, {A.label(*b3)})"
                )

    aug_of_unit = ring.zero()
    for i, c in enumerate(A.unit):
        aug_of_unit = ring.add(aug_of_unit, ring.mul(A.aug[i], c))
    if aug_of_unit != ring.one():
        bad.append("augmentation of the unit is not 1")
    n0 = A.dim(0)
    for i1 in range(n0):
        for i2 in range(n0):
            val = ring.zero()
            for j, c in A.product(0, i1, 0, i2):
                val = ring.add(val, ring.mul(A.aug[j], c))
            if val != ring.mul(A.aug[i1], A.aug[i2]):
                bad.append(
                    f"augmentation not multiplicative on ({A.label(0, i1)}, {A.label(0, i2)})"
                )

    return {"ok": not bad, "violations": bad}
