"""Command-line front end.

Verbs:
  eval            evaluate a tensor file on a word
  basis           finite-type (or, with --class, class-function) basis of a
                  presented group, printed as ranks and optionally written
                  to a basis file
  cyc-h0          degree-0 cyclic-bar cohomology of a simplicial-set file
  bar-h0          degree-0 bar cohomology of a simplicial-set file
  verify          check a simplicial-set file's cochain algebra axioms, or
                  re-check an emitted basis file against its presentation
                  by the exact group-side check on all members in one
                  sweep: two-sided relator insertions, or with --class the
                  conjugations and front insertions; one violation line,
                  with its witness, per failing member
  oracle-compare  compare pipeline ranks and pairings against the
                  group-ring quotient oracle; with --class the class-function
                  span must lie inside the oracle's (every finite-type
                  function), with no more generators in any degree

Exit status: 0 on success, 1 on input errors (message names the offending
file and line where known), 2 when a verification or comparison fails.
An oracle word ball of more than classfun.MAX_ORACLE_WORDS reduced words
(length <= L + n + 1) is an input error, refused before any word is built;
so is a weight bound with more than tensors.MAX_MONOMIALS positive words
of length <= n on the generators (basis) or the edges (cyc-h0, bar-h0),
counted before any is built.

The environment variable LB_MAX_WEIGHT caps the -n weight bound, and the
n of a basis file given to verify (default cap 6); computations grow
exponentially in n, so raise it deliberately.  Every verb is
deterministic: the same command writes byte-identical output.
"""

import argparse
import functools
import json
import os
import sys

from .barcyc import bar_element_to_tensor, h0_bar, h0_cyc
from .classfun import (
    NotSaturatedError,
    TensorBasis,
    _complete_verdicts,
    basis_from_obj,
    basis_to_obj,
    class_function_basis,
    finite_type_basis,
    oracle_group_ring_quotient,
    pairing_tables_agree,
    pairing_tables_contained,
    parse_presentation,
    weight_graded_monomials,
)
from .dga import cochain_algebra, model_from_obj, verify_dga
from .rings import IntMatrix, Ring, matrix_rank
from .tensors import eval_word, tensor_from_obj
from .words import GenSet, parse_word

WEIGHT_CAP_DEFAULT = 6


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract reserves 2
    for verification failures, so route usage errors through _InputError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _InputError(message)


# -- input plumbing ---------------------------------------------------------


def _ring_of(spec: str) -> Ring:
    try:
        return Ring.from_spec(spec)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _weight_cap() -> int:
    raw = os.environ.get("LB_MAX_WEIGHT")
    if raw is None:
        return WEIGHT_CAP_DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise _InputError(f"LB_MAX_WEIGHT must be an integer, got {raw!r}") from None


def _checked_weight(n: int) -> int:
    if n < 0:
        raise _InputError(f"weight bound must be >= 0, got {n}")
    cap = _weight_cap()
    if n > cap:
        raise _InputError(
            f"weight bound {n} exceeds the LB_MAX_WEIGHT cap of {cap}; "
            "set LB_MAX_WEIGHT higher to allow this"
        )
    return n


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: line {exc.lineno}: {exc.msg}") from None


def _load_presentation(path: str):
    try:
        return parse_presentation(_read_text(path))
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _load_file(path: str, parse, **kwargs):
    """parse(JSON object of path): a missing or wrong-typed field exits 1
    with a message naming the file, not a traceback."""
    obj = _load_json(path)
    try:
        return parse(obj, **kwargs)
    except KeyError as exc:
        raise _InputError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise _InputError(f"{path}: {exc}") from None


def _write_json(path: str, obj) -> None:
    data = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None


def _fmt(xs) -> str:
    return json.dumps(list(xs), separators=(",", ":"))


# -- verbs ------------------------------------------------------------------


def _cmd_eval(args) -> int:
    T = _load_file(args.tensor, tensor_from_obj)
    if args.ring is not None and _ring_of(args.ring).spec != T.ring.spec:
        raise _InputError(
            f"{args.tensor}: tensor is over {T.ring.spec}, not {args.ring}"
        )
    try:
        w = parse_word(args.word, T.gens)
    except ValueError as exc:
        raise _InputError(f"--word: {exc}") from None
    value = eval_word(T, w)
    try:
        print(T.ring.show(value))
    except ValueError as exc:  # a value too long to write as text
        raise _InputError(f"--word: {exc}") from None
    return 0


def _cmd_basis(args) -> int:
    ring = _ring_of(args.ring)
    n = _checked_weight(args.n)
    P = _load_presentation(args.presentation)
    maker = class_function_basis if args.class_functions else finite_type_basis
    try:
        basis = maker(P, ring, n)
    except ValueError as exc:
        raise _InputError(f"{args.presentation}: {exc}") from None
    print(f"ranks_per_weight {_fmt(basis.ranks_per_weight)}")
    print(f"total {len(basis)}")
    if args.output:
        _write_json(args.output, basis_to_obj(basis))
    return 0


def _cmd_h0(args, *, cyclic: bool) -> int:
    ring = _ring_of(args.ring)
    n = _checked_weight(args.n)
    X = _load_file(args.space, model_from_obj, name=os.path.basename(args.space))
    try:
        A = cochain_algebra(X, ring)
        if args.output:  # the edge labels name the basis file's generators
            gens = GenSet(tuple(A.label(1, i) for i in range(A.dim(1))))
        basis = (h0_cyc if cyclic else h0_bar)(A, n)
    except ValueError as exc:
        raise _InputError(f"{args.space}: {exc}") from None
    print(f"ranks_per_weight {_fmt(basis.ranks_per_weight)}")
    print(f"rank {basis.total_rank}")
    if args.output:
        tensors = tuple(bar_element_to_tensor(x, gens) for x in basis)
        out = TensorBasis(n, tensors, basis.added_at_weight, basis.annihilators, ring, gens)
        _write_json(args.output, basis_to_obj(out))
    return 0


def _verify_space(args) -> int:
    if args.ring is None:
        raise _InputError("--ring is required with --space")
    X = _load_file(args.space, model_from_obj, name=os.path.basename(args.space))
    report = verify_dga(cochain_algebra(X, _ring_of(args.ring)))
    return _report(report["violations"])


def _verify_basis(args) -> int:
    if args.presentation is None:
        raise _InputError("--presentation is required with --basis")
    B = _load_file(args.basis, basis_from_obj)
    try:
        _checked_weight(B.n)
    except _InputError as exc:
        raise _InputError(f"{args.basis}: {exc}") from None
    P = _load_presentation(args.presentation)
    if B.gens.names != P.gens.names:
        raise _InputError(
            f"{args.basis}: generators {B.gens.names} do not match "
            f"the presentation's {P.gens.names}"
        )
    if args.ring is not None and _ring_of(args.ring).spec != B.ring.spec:
        raise _InputError(f"{args.basis}: basis is over {B.ring.spec}, not {args.ring}")
    verdicts = _complete_verdicts(B.elements, P, B.n, cyclic=args.class_functions)
    return _report([f"tensor {i}: {v.witness}" for i, v in enumerate(verdicts) if not v.ok])


def _report(violations) -> int:
    """Print "ok", or one line per violation and exit status 2."""
    for line in violations:
        print(f"violation: {line}")
    if not violations:
        print("ok")
    return 2 if violations else 0


def _cmd_verify(args) -> int:
    if (args.space is None) == (args.basis is None):
        raise _InputError("give exactly one of --space or --basis")
    if args.space is not None:
        return _verify_space(args)
    return _verify_basis(args)


def _cmd_oracle(args) -> int:
    ring = _ring_of(args.ring)
    n = _checked_weight(args.n)
    length_bound = args.length_bound if args.length_bound is not None else max(2, n + 1)
    if length_bound < 1:
        raise _InputError(f"length bound must be >= 1, got {length_bound}")
    P = _load_presentation(args.presentation)
    try:
        report = oracle_group_ring_quotient(P, ring, n, length_bound)
    except NotSaturatedError as exc:
        print(f"verification failure: {exc} (rerun with a larger -L)", file=sys.stderr)
        return 2
    except ValueError as exc:  # a word ball over MAX_ORACLE_WORDS
        raise _InputError(str(exc)) from None
    maker = class_function_basis if args.class_functions else finite_type_basis
    basis = maker(P, ring, n)
    # Minimal generator count of the span entering at weight <= d; over Z/m
    # a filtered generating sequence can be longer than that.
    columns = weight_graded_monomials(len(P.gens), n)
    cumulative = []
    for d in range(n + 1):
        rows = [
            [T.coefficient(m) for m in columns]
            for T, p in zip(basis.elements, basis.added_at_weight)
            if p <= d
        ]
        cumulative.append(matrix_rank(IntMatrix.from_rows(ring, rows)))
    # The oracle's Hom is every finite-type function, so the class-function
    # span need only lie inside it, with no more generators.
    ok = True
    print("degree pipeline oracle")
    for d in range(n + 1):
        if args.class_functions:
            differ = cumulative[d] > report.ranks[d]
        else:
            differ = cumulative[d] != report.ranks[d]
        ok = ok and not differ
        mark = "   <-- differ" if differ else ""
        print(f"{d:6d} {cumulative[d]:8d} {report.ranks[d]:6d}{mark}")
    agree = pairing_tables_agree(basis.elements, report)
    if not args.class_functions:
        print(f"pairing {'agree' if agree else 'DIFFER'}")
        return 0 if ok and agree else 2
    contained = agree or pairing_tables_contained(basis.elements, report)
    print(f"pairing {'agree' if agree else 'contained' if contained else 'NOT contained'}")
    return 0 if ok and contained else 2


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="letterbraid",
        description="Letter-braiding invariants of words in presented groups.",
        epilog="LB_MAX_WEIGHT caps -n and a verified basis file's n (default 6).",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("eval", help="evaluate a tensor file on a word")
    p.add_argument("--ring", help="check the tensor file is over this ring")
    p.add_argument("--tensor", required=True, help="tensor JSON file")
    p.add_argument("--word", required=True, help='word, e.g. "a b a^-1 b^-1"')
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("basis", help="basis of functions on a presented group")
    p.add_argument("--ring", required=True, help="Z, Q, or Z/m")
    p.add_argument("--presentation", required=True, help="presentation file")
    p.add_argument("-n", type=int, required=True, help="tensor weight bound")
    p.add_argument(
        "--class",
        dest="class_functions",
        action="store_true",
        help="basis of class functions instead of all finite-type functions",
    )
    p.add_argument("-o", "--output", help="write the basis file here")
    p.set_defaults(handler=_cmd_basis)

    for verb, cyclic in (("cyc-h0", True), ("bar-h0", False)):
        p = sub.add_parser(
            verb, help=f"degree-0 {'cyclic-' if cyclic else ''}bar cohomology"
        )
        p.add_argument("--ring", required=True, help="Z, Q, or Z/m")
        p.add_argument("--space", required=True, help="simplicial-set JSON file")
        p.add_argument("-n", type=int, required=True, help="tensor weight bound")
        p.add_argument("-o", "--output", help="write the tensors as a basis file")
        p.set_defaults(handler=functools.partial(_cmd_h0, cyclic=cyclic))

    p = sub.add_parser("verify", help="re-check a space or an emitted basis file")
    p.add_argument("--ring", help="ring for --space; consistency check for --basis")
    p.add_argument("--space", help="simplicial-set JSON file: check algebra axioms")
    p.add_argument("--basis", help="basis file: re-check members against --presentation")
    p.add_argument("--presentation", help="presentation file (with --basis)")
    p.add_argument(
        "--class",
        dest="class_functions",
        action="store_true",
        help="require class functions: the exact conjugation and front "
        "relator-insertion checks",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "oracle-compare", help="compare against the group-ring quotient oracle"
    )
    p.add_argument("--ring", required=True, help="Z, Q, or Z/m")
    p.add_argument("--presentation", required=True, help="presentation file")
    p.add_argument("-n", type=int, required=True, help="tensor weight bound")
    p.add_argument(
        "-L",
        "--length-bound",
        type=int,
        default=None,
        help="oracle word-length bound (default max(2, n+1))",
    )
    p.add_argument(
        "--class",
        dest="class_functions",
        action="store_true",
        help="compare the class-function basis instead of the finite-type basis",
    )
    p.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
