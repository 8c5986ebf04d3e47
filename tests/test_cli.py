import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import letterbraid
from letterbraid.classfun import basis_from_obj
from letterbraid.cli import main
from letterbraid.dga import SimplicialSetModel, circle_model, model_to_obj, wedge_model
from letterbraid.tensors import MAX_MONOMIALS
from letterbraid.rings import Ring
from letterbraid.words import MAX_WORD_LETTERS, GenSet, parse_word
from magnus_reference import magnus_oracle

TORUS_GRP = "gens: a b\nrel: a b a^-1 b^-1\n"
CYCLIC2_GRP = "gens: s\nrel: s^2\n"
KLEIN_GRP = "gens: a b\nrel: a b a b^-1\n"
LK = {
    "ring": "Z",
    "gens": ["a", "b"],
    "terms": [{"seq": ["a", "b"], "coeff": "1"}],
}


@pytest.fixture
def work(tmp_path):
    (tmp_path / "torus.grp").write_text(TORUS_GRP)
    (tmp_path / "cyclic2.grp").write_text(CYCLIC2_GRP)
    (tmp_path / "klein.grp").write_text(KLEIN_GRP)
    (tmp_path / "lk.json").write_text(json.dumps(LK))
    (tmp_path / "circle.json").write_text(json.dumps(model_to_obj(circle_model())))
    (tmp_path / "wedge2.json").write_text(json.dumps(model_to_obj(wedge_model(2))))
    return tmp_path


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_commutator(work, capsys):
    rc, out, _ = run(capsys, "eval", "--ring", "Z",
                     "--tensor", work / "lk.json", "--word", "a b a^-1 b^-1")
    assert rc == 0
    assert out == "1\n"


def test_eval_long_power_is_binomial(work, capsys):
    # a^k expands to (1 + x_a)^k, so aaaa pairs to C(k, 4)
    tensor = work / "aaaa.json"
    tensor.write_text(json.dumps(
        {"ring": "Z", "gens": ["a", "b"],
         "terms": [{"seq": ["a"] * 4, "coeff": "1"}, {"seq": ["a", "b"], "coeff": "3"}]}))
    rc, out, _ = run(capsys, "eval", "--tensor", tensor, "--word", f"a^{MAX_WORD_LETTERS}")
    assert rc == 0
    assert out == f"{comb(MAX_WORD_LETTERS, 4)}\n"


def test_eval_written_out_power_is_the_reference_value(work, capsys):
    """[[a,b],c]^50, spelled letter by letter, is one interpolation step
    of the Magnus sweep; the value is the independent series' pairing."""
    gens = GenSet.of("a", "b", "c")
    text = " ".join(["a b a^-1 b^-1 c b a b^-1 a^-1 c^-1"] * 50)
    terms = {(0,): 2, (2, 1): -3, (0, 1): 5, (1, 0, 2): 7, (2, 2, 0): -1, (0, 1, 0): 4}
    tensor = work / "abc.json"
    tensor.write_text(json.dumps({"ring": "Z", "gens": list(gens.names), "terms": [
        {"seq": [gens.names[g] for g in seq], "coeff": str(c)} for seq, c in terms.items()]}))
    series = magnus_oracle(parse_word(text, gens), Ring.integers(), 3)
    want = sum(c * series.get(seq, 0) for seq, c in terms.items())
    assert want != 0
    rc, out, err = run(capsys, "eval", "--tensor", tensor, "--word", text)
    assert (rc, out, err) == (0, f"{want}\n", "")


def test_eval_ring_mismatch(work, capsys):
    rc, _, err = run(capsys, "eval", "--ring", "Q",
                     "--tensor", work / "lk.json", "--word", "a")
    assert rc == 1
    assert "lk.json" in err


def test_eval_bad_word(work, capsys):
    rc, _, err = run(capsys, "eval", "--tensor", work / "lk.json", "--word", "a c")
    assert rc == 1
    assert "--word" in err


def test_eval_missing_file(work, capsys):
    rc, _, err = run(capsys, "eval", "--tensor", work / "nope.json", "--word", "a")
    assert rc == 1
    assert "nope.json" in err


def test_eval_broken_json_names_line(work, capsys):
    bad = work / "broken.json"
    bad.write_text("{\n  bad\n")
    rc, _, err = run(capsys, "eval", "--tensor", bad, "--word", "a")
    assert rc == 1
    assert "broken.json" in err and "line 2" in err


def test_basis_prints_ranks_and_writes_file(work, capsys):
    out_file = work / "torus_cf.json"
    rc, out, _ = run(capsys, "basis", "--ring", "Z", "--presentation",
                     work / "torus.grp", "-n", 2, "--class", "-o", out_file)
    assert rc == 0
    assert "ranks_per_weight [1,2,3]" in out
    assert "total 6" in out
    basis = basis_from_obj(json.loads(out_file.read_text()))
    assert len(basis) == 6
    # reruns are byte-identical
    first = out_file.read_bytes()
    run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
        "-n", 2, "--class", "-o", out_file)
    assert out_file.read_bytes() == first


def test_basis_finite_type_differs_from_class(work, capsys):
    free = work / "free2.grp"
    free.write_text("gens: a b\n")
    rc, out, _ = run(capsys, "basis", "--ring", "Z",
                     "--presentation", free, "-n", 2)
    assert rc == 0 and "total 7" in out
    rc, out, _ = run(capsys, "basis", "--ring", "Z",
                     "--presentation", free, "-n", 2, "--class")
    assert rc == 0 and "total 6" in out


def test_basis_on_relator_of_1200_letters(work, capsys):
    # <a, b | a^1200 b> is infinite cyclic, generated by a
    grp = work / "long.grp"
    grp.write_text("gens: a b\nrel: a^1200 b\n")
    rc, out, err = run(capsys, "basis", "--ring", "Z", "--presentation", grp, "-n", 2)
    assert rc == 0, err
    assert out == "ranks_per_weight [1,1,1]\ntotal 3\n"


def test_eval_rejects_oversized_word(work, capsys):
    # the last exponent is too long for int() itself (over 4300 digits)
    for word in ("a^1000000000000", f"a^{MAX_WORD_LETTERS} b^-1", "a^" + "9" * 5000):
        rc, out, err = run(capsys, "eval", "--tensor", work / "lk.json", "--word", word)
        assert rc == 1
        assert out == ""
        assert "--word" in err and f"cap of {MAX_WORD_LETTERS}" in err


def test_basis_rejects_oversized_relator(work, capsys):
    grp = work / "huge.grp"
    grp.write_text("gens: a b\nrel: a b\nrel: a^1000000000000 b\n")
    rc, out, err = run(capsys, "basis", "--ring", "Z", "--presentation", grp, "-n", 1)
    assert rc == 1
    assert out == ""
    assert "huge.grp" in err and "line 3" in err and str(MAX_WORD_LETTERS) in err


def test_basis_bad_presentation_names_line(work, capsys):
    bad = work / "bad.grp"
    bad.write_text("gens: a\nrel: a^^\n")
    rc, _, err = run(capsys, "basis", "--ring", "Z", "--presentation", bad, "-n", 1)
    assert rc == 1
    assert "bad.grp" in err and "line 2" in err


def test_basis_unknown_ring(work, capsys):
    rc, _, err = run(capsys, "basis", "--ring", "GF(4)",
                     "--presentation", work / "torus.grp", "-n", 1)
    assert rc == 1
    assert "ring" in err
    rc, _, err = run(capsys, "basis", "--ring", "Z/0",
                     "--presentation", work / "torus.grp", "-n", 1)
    assert rc == 1
    assert "modulus" in err


@pytest.mark.parametrize("spec", ["Z/4\n", "Z/04", "Z/٤"])
def test_non_canonical_modulus_is_refused(work, capsys, spec):
    """Only ASCII digits without a leading zero name a modulus: a final
    newline, a leading zero or an Arabic-Indic four would all be read as 4."""
    rc, out, err = run(capsys, "basis", "--ring", spec,
                       "--presentation", work / "torus.grp", "-n", 1)
    assert (rc, out) == (1, "")
    assert f"unrecognised ring spec {spec!r}" in err


def test_files_with_a_non_canonical_modulus_are_refused(work, capsys):
    basis_file = work / "z4.json"
    assert run(capsys, "basis", "--ring", "Z/4", "--presentation", work / "torus.grp",
               "-n", 1, "-o", basis_file)[0] == 0
    basis = json.loads(basis_file.read_text())
    tensor = basis["tensors"][-1]
    assert basis["ring"] == tensor["ring"] == "Z/4"
    basis["ring"] = tensor["ring"] = "Z/04"
    basis_file.write_text(json.dumps(basis))
    tensor_file = work / "z04.json"
    tensor_file.write_text(json.dumps(tensor))
    for argv in (["verify", "--basis", basis_file, "--presentation", work / "torus.grp"],
                 ["eval", "--tensor", tensor_file, "--word", "a b"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert "unrecognised ring spec 'Z/04'" in err


def test_weight_cap_default(work, capsys, monkeypatch):
    monkeypatch.delenv("LB_MAX_WEIGHT", raising=False)
    rc, _, err = run(capsys, "basis", "--ring", "Z",
                     "--presentation", work / "torus.grp", "-n", 7)
    assert rc == 1
    assert "LB_MAX_WEIGHT" in err


def test_weight_cap_env_override(work, capsys, monkeypatch):
    monkeypatch.setenv("LB_MAX_WEIGHT", "2")
    rc, _, err = run(capsys, "basis", "--ring", "Z",
                     "--presentation", work / "torus.grp", "-n", 3)
    assert rc == 1 and "LB_MAX_WEIGHT" in err
    monkeypatch.setenv("LB_MAX_WEIGHT", "3")
    rc, out, _ = run(capsys, "basis", "--ring", "Z",
                     "--presentation", work / "torus.grp", "-n", 3)
    assert rc == 0 and "total 10" in out


def test_cyc_h0_circle(work, capsys):
    rc, out, _ = run(capsys, "cyc-h0", "--ring", "Z",
                     "--space", work / "circle.json", "-n", 5)
    assert rc == 0
    assert "ranks_per_weight [1,1,1,1,1,1]" in out
    assert "rank 6" in out


def test_bar_h0_wedge(work, capsys):
    rc, out, _ = run(capsys, "bar-h0", "--ring", "Z",
                     "--space", work / "wedge2.json", "-n", 3)
    assert rc == 0
    assert "rank 15" in out


def test_h0_output_file_round_trips(work, capsys):
    out_file = work / "wedge_cyc.json"
    rc, _, _ = run(capsys, "cyc-h0", "--ring", "Z",
                   "--space", work / "wedge2.json", "-n", 2, "-o", out_file)
    assert rc == 0
    basis = basis_from_obj(json.loads(out_file.read_text()))
    assert basis.ranks_per_weight == [1, 2, 3]
    assert basis.gens.names == ("e1", "e2")


@pytest.mark.parametrize("verb", ["cyc-h0", "bar-h0"])
def test_h0_output_refuses_an_edge_label_that_is_no_generator_name(work, capsys, verb):
    obj = model_to_obj(circle_model())
    obj["simplices"]["1"] = ["e-1"]
    obj["faces"] = {"e-1": obj["faces"]["e"]}
    space = work / "dashed.json"
    space.write_text(json.dumps(obj))
    out_file = work / "dashed_basis.json"
    rc, out, err = run(capsys, verb, "--ring", "Z", "--space", space, "-n", 2, "-o", out_file)
    assert rc == 1
    assert out == ""
    assert "dashed.json" in err and "e-1" in err
    assert not out_file.exists()


@pytest.mark.parametrize("verb", ["cyc-h0", "bar-h0"])
def test_h0_output_of_a_space_with_no_edges(work, capsys, verb):
    space = work / "point.json"
    space.write_text(json.dumps({"dims": 0, "simplices": {"0": ["v"]}}))
    out_file = work / "point_basis.json"
    rc, out, _ = run(capsys, verb, "--ring", "Z", "--space", space, "-n", 2, "-o", out_file)
    assert rc == 0
    assert out == "ranks_per_weight [1,0,0]\nrank 1\n"
    basis = basis_from_obj(json.loads(out_file.read_text()))
    assert basis.gens.names == ()
    assert basis.ranks_per_weight == [1, 0, 0]
    assert [T.terms for T in basis] == [{(): 1}]


def test_verify_space_ok(work, capsys):
    rc, out, _ = run(capsys, "verify", "--ring", "Z", "--space", work / "circle.json")
    assert rc == 0
    assert out == "ok\n"


# a dimension key that is not a canonical decimal, each once read as 1
# with the edge dropped, or ignored
@pytest.mark.parametrize("key", ["01", " 1", "+1", "-1", "\u0661"])
def test_space_dimension_key_that_is_no_canonical_decimal_exits_one(work, capsys, key):
    obj = model_to_obj(circle_model())
    del obj["dims"]
    obj["simplices"][key] = obj["simplices"].pop("1")
    (work / "bad.json").write_text(json.dumps(obj))
    rc, out, err = run(capsys, "cyc-h0", "--ring", "Z", "--space", work / "bad.json", "-n", 2)
    assert (rc, out) == (1, "")
    assert "bad.json" in err and repr(key) in err


@pytest.mark.parametrize("argv", [["cyc-h0", "-n", 2], ["bar-h0", "-n", 2], ["verify"]])
def test_space_with_no_vertex_exits_one(work, capsys, argv):
    (work / "empty.json").write_text(json.dumps({"simplices": {}}))
    rc, out, err = run(capsys, *argv, "--ring", "Z", "--space", work / "empty.json")
    assert (rc, out) == (1, "")
    assert err == f"error: {work / 'empty.json'}: a simplicial set needs a vertex\n"


def test_space_with_a_high_empty_dimension_loads_at_once(work, capsys):
    # the key names 6,000 empty dimensions, which take seconds to build
    (work / "tall.json").write_text('{"simplices": {"0": ["v"], "6000": []}}')
    start = time.perf_counter()
    rc, out, _ = run(capsys, "cyc-h0", "--ring", "Z", "--space", work / "tall.json", "-n", 2)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (0, "ranks_per_weight [1,0,0]\nrank 1\n")


def test_verify_space_requires_ring(work, capsys):
    rc, _, err = run(capsys, "verify", "--space", work / "circle.json")
    assert rc == 1
    assert "--ring" in err


def test_verify_basis_ok_and_tampered(work, capsys):
    out_file = work / "cf.json"
    run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
        "-n", 2, "--class", "-o", out_file)
    rc, out, _ = run(capsys, "verify", "--basis", out_file,
                     "--presentation", work / "torus.grp", "--class")
    assert rc == 0 and out == "ok\n"

    obj = json.loads(out_file.read_text())
    obj["tensors"][-1] = LK  # right weight, but not a class function
    tampered = work / "tampered.json"
    tampered.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "verify", "--basis", tampered,
                     "--presentation", work / "torus.grp", "--class")
    assert rc == 2
    # one line per failing member, with the group-side witness
    last = len(obj["tensors"]) - 1
    assert len(out.splitlines()) == 1
    assert (out.startswith(f"violation: tensor {last}: conjugation: w = ")
            or out.startswith(f"violation: tensor {last}: relator insertion: w = "))


def test_verify_finite_type_basis_ok_and_tampered(work, capsys):
    """Without --class, verify runs the two-sided relator insertions: an
    emitted finite-type basis prints "ok", and each member that is no
    function on the group prints one relator-insertion line."""
    out_file = work / "ft.json"
    run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
        "-n", 2, "-o", out_file)
    argv = ["verify", "--basis", out_file, "--presentation", work / "torus.grp"]
    assert run(capsys, *argv)[:2] == (0, "ok\n")

    obj = json.loads(out_file.read_text())
    assert obj["ranks_per_weight"] == [1, 2, 3]
    obj["tensors"][3] = obj["tensors"][5] = LK  # T(a b a^-1 b^-1) = 1 = T(1) + 1
    (work / "ft.json").write_text(json.dumps(obj))
    rc, out, _ = run(capsys, *argv)
    assert rc == 2
    assert out.splitlines() == [
        f"violation: tensor {i}: relator insertion: w = 1 vs a b a^-1 b^-1" for i in (3, 5)
    ]


@pytest.mark.parametrize("verb_flags", [(), ("--class",)])
def test_verify_basis_refuses_n_above_weight_cap(work, capsys, monkeypatch, verb_flags):
    """A basis file's n is capped like -n, before any condition is built:
    an empty basis at cap + 1 exits 1 with the cap message, and so does
    one at n = 14, whose descend system would take minutes to build."""
    monkeypatch.delenv("LB_MAX_WEIGHT", raising=False)
    for n in (7, 14):
        empty = work / f"empty{n}.json"
        empty.write_text(json.dumps({"n": n, "ring": "Z", "gens": ["a", "b"],
                                     "ranks_per_weight": [0] * (n + 1), "tensors": []}))
        rc, out, err = run(capsys, "verify", "--basis", empty,
                           "--presentation", work / "torus.grp", *verb_flags)
        assert rc == 1 and out == ""
        assert str(empty) in err and "LB_MAX_WEIGHT" in err
        assert f"weight bound {n} exceeds" in err


def test_verify_basis_refuses_negative_rank(work, capsys):
    """ranks [2, -1] sum to the one tensor given, but are no weight filtration."""
    bad = work / "negative.json"
    bad.write_text(json.dumps({"n": 1, "ring": "Z", "gens": ["a", "b"],
                               "ranks_per_weight": [2, -1],
                               "tensors": [{"ring": "Z", "gens": ["a", "b"], "terms": []}]}))
    rc, out, err = run(capsys, "verify", "--basis", bad, "--presentation", work / "torus.grp")
    assert rc == 1 and out == ""
    assert "ranks_per_weight entries must be >= 0" in err


def test_verify_needs_exactly_one_mode(work, capsys):
    rc, _, err = run(capsys, "verify", "--ring", "Z",
                     "--space", work / "circle.json", "--basis", work / "lk.json")
    assert rc == 1 and "exactly one" in err
    rc, _, err = run(capsys, "verify", "--ring", "Z")
    assert rc == 1 and "exactly one" in err


def test_verify_basis_generator_mismatch(work, capsys):
    out_file = work / "cf.json"
    run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
        "-n", 1, "--class", "-o", out_file)
    rc, _, err = run(capsys, "verify", "--basis", out_file,
                     "--presentation", work / "cyclic2.grp")
    assert rc == 1
    assert "generators" in err


def test_oracle_compare_agreement(work, capsys):
    rc, out, _ = run(capsys, "oracle-compare", "--ring", "Z/2",
                     "--presentation", work / "cyclic2.grp", "-n", 2)
    assert rc == 0
    assert "pairing agree" in out
    rc, out, _ = run(capsys, "oracle-compare", "--ring", "Z/2",
                     "--presentation", work / "cyclic2.grp", "-n", 2, "--class")
    assert rc == 0
    assert out.splitlines()[0].split() == ["degree", "pipeline", "oracle"]
    # the pipeline column counts minimal generators, which over Z/4 can be
    # fewer than the members of the filtered basis (7 to weight 2 here)
    rc, out, _ = run(capsys, "oracle-compare", "--ring", "Z/4",
                     "--presentation", work / "klein.grp", "-n", 2)
    assert rc == 0
    assert [line.split()[1] for line in out.splitlines()[1:4]] == ["1", "3", "6"]
    assert "pairing agree" in out


def test_oracle_compare_class_span_is_contained(work, capsys):
    """The oracle's Hom is every finite-type function; on the Klein bottle
    over Z/4 the class functions are a proper part of it, so --class
    checks containment and a smaller count is no failure."""
    rc, out, _ = run(capsys, "oracle-compare", "--ring", "Z/4",
                     "--presentation", work / "klein.grp", "-n", 2, "-L", 3, "--class")
    assert rc == 0
    assert out == (
        "degree pipeline oracle\n"
        "     0        1      1\n"
        "     1        3      3\n"
        "     2        5      6\n"
        "pairing contained\n"
    )
    # without --class the same basis is compared for equality, as before
    rc, out, _ = run(capsys, "oracle-compare", "--ring", "Z/4",
                     "--presentation", work / "klein.grp", "-n", 2, "-L", 3)
    assert rc == 0 and out.endswith("pairing agree\n")


def test_oracle_compare_refuses_oversized_ball(work, capsys):
    # the ball of words of length <= 42 has about 10^20 words: refused
    # before the basis or any word is built
    rc, out, err = run(capsys, "oracle-compare", "--ring", "Z",
                       "--presentation", work / "torus.grp", "-n", 1, "-L", 40)
    assert rc == 1
    assert out == ""
    assert "more than 500000 words" in err


@pytest.mark.parametrize("verb", [["basis"], ["basis", "--class"], ["cyc-h0"], ["bar-h0"]])
def test_weight_bound_past_the_monomial_cap_is_refused(work, capsys, monkeypatch, verb):
    # 200 letters at n = 6, under the default weight cap, give about
    # 6.4e13 positive words: counted and refused before any is built
    monkeypatch.delenv("LB_MAX_WEIGHT", raising=False)
    names = [f"e{i}" for i in range(200)]
    (work / "wide.grp").write_text("gens: " + " ".join(names) + "\n")
    v = ((), (0, 0))
    wide = SimplicialSetModel((("v",), tuple(names)), {(1, i): (v, v) for i in range(200)})
    (work / "wide.json").write_text(json.dumps(model_to_obj(wide)))
    source = ["--space", work / "wide.json"] if verb[0].endswith("h0") else [
        "--presentation", work / "wide.grp"]
    rc, out, err = run(capsys, *verb, "--ring", "Z", *source, "-n", 6)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"more than {MAX_MONOMIALS} words of length <= 6 on 200 letters" in err


def test_oracle_compare_not_saturated(work, capsys):
    rc, _, err = run(capsys, "oracle-compare", "--ring", "Z",
                     "--presentation", work / "torus.grp", "-n", 1, "-L", 1)
    assert rc == 2
    assert "-L" in err


@pytest.mark.parametrize("m", [5, 6, 7])
def test_oracle_compare_refuses_a_relator_longer_than_its_ball(work, capsys, m):
    """a^m b^-(m-1) at -n 1: refused with exit 2 at -L m-3, which no word
    of the ball can take, and agreeing at -L m-2."""
    (work / "long.grp").write_text(f"gens: a b\nrel: a^{m} b^-{m - 1}\n")
    argv = ["oracle-compare", "--ring", "Z", "--presentation", work / "long.grp", "-n", 1]
    rc, out, err = run(capsys, *argv, "-L", m - 3)
    assert (rc, out) == (2, "")
    assert err == (f"verification failure: no word of length <= {m - 1} takes the relator "
                   f"a^{m} b^-{m - 1} of {2 * m - 1} letters; raise the length bound to "
                   f"at least {m - 2} (rerun with a larger -L)\n")
    rc, out, err = run(capsys, *argv, "-L", m - 2)
    assert (rc, err) == (0, "")
    assert out == "degree pipeline oracle\n     0        1      1\n     1        2      2\npairing agree\n"


@pytest.mark.parametrize("bound", [0, -3])
def test_oracle_compare_rejects_length_bound_below_one(work, capsys, bound):
    rc, out, err = run(capsys, "oracle-compare", "--ring", "Z",
                       "--presentation", work / "torus.grp", "-n", 1, "-L", bound)
    assert rc == 1
    assert out == ""
    assert "length bound must be >= 1" in err


# (verb, field, value): a JSON field of the wrong type in the verb's input file
WRONG_TYPED_FIELDS = [
    ("eval", "gens", 5),
    ("eval", "ring", 3),
    ("eval", "seq", 5),
    ("verify", "annihilators", 5),
    ("verify", "ranks_per_weight", 5),
    ("verify", "tensors", 5),
    ("verify", "gens", 5),
    ("verify", "ring", 4),
    ("verify", "n", [1]),
    ("cyc-h0", "simplices", 5),
    ("cyc-h0", "dims", 1.0),
    ("cyc-h0", "dims", True),
]


@pytest.mark.parametrize("verb, field, value", WRONG_TYPED_FIELDS)
def test_wrong_typed_json_field_exits_one(work, capsys, verb, field, value):
    bad = work / "bad.json"
    if verb == "eval":
        obj = json.loads(json.dumps(LK))
        if field == "seq":
            obj["terms"][0]["seq"] = value
        else:
            obj[field] = value
        argv = ["eval", "--tensor", bad, "--word", "a"]
    elif verb == "verify":
        good = work / "good.json"
        assert run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
                   "-n", 1, "-o", good)[0] == 0
        obj = json.loads(good.read_text())
        obj[field] = value
        argv = ["verify", "--basis", bad, "--presentation", work / "torus.grp"]
    else:
        obj = model_to_obj(circle_model())
        obj[field] = value
        argv = ["cyc-h0", "--ring", "Z", "--space", bad, "-n", 1]
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert "bad.json" in err


def test_eval_refuses_float_coefficient(work, capsys):
    # a JSON number with a fraction part is a double, not the decimal text
    # it was written as, so it is refused rather than read as 3/2
    obj = {"ring": "Q", "gens": ["a", "b"], "terms": [{"seq": ["a"], "coeff": 1.5}]}
    bad = work / "float.json"
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "eval", "--tensor", bad, "--word", "a")
    assert (rc, out) == (1, "")
    assert "float.json" in err and "coeff" in err
    for coeff, value in (("3/2", "3/2"), (2, "2")):
        obj["terms"][0]["coeff"] = coeff
        bad.write_text(json.dumps(obj))
        assert run(capsys, "eval", "--tensor", bad, "--word", "a")[:2] == (0, value + "\n")


@pytest.mark.parametrize("field, value", [("n", 2.5), ("n", True), ("ranks_per_weight", None),
                                          ("annihilators", None)])
def test_verify_refuses_non_integer_basis_fields(work, capsys, field, value):
    # int() would truncate 2.5 to the valid bound 2; a list field (value
    # None) gets its right values as JSON floats
    good = work / "good.json"
    assert run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
               "-n", 2, "-o", good)[0] == 0
    obj = json.loads(good.read_text())
    argv = ["verify", "--basis", work / "bad.json", "--presentation", work / "torus.grp"]
    obj["n"] = "2"  # a string of an integer is accepted
    (work / "bad.json").write_text(json.dumps(obj))
    assert run(capsys, *argv)[:2] == (0, "ok\n")
    if value is None:
        obj[field] = [float(x) for x in obj.get(field, [0] * len(obj["tensors"]))]
    else:
        obj[field] = value
    (work / "bad.json").write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert "bad.json" in err and field in err


# A JSON string where a list belongs, each once read as the list of its
# characters: (verb, path to the field in the input file, value, the name
# the error gives it)
STRING_FOR_LIST_FIELDS = [
    ("eval", ("gens",), "ab", "gens"),
    ("eval", ("terms", 0, "seq"), "ab", "seq"),
    ("verify", ("gens",), "ab", "gens"),
    ("verify", ("ranks_per_weight",), "12", "ranks_per_weight"),
    ("verify", ("annihilators",), "000", "annihilators"),
    ("verify", ("tensors",), "abc", "tensors"),
    ("cyc-h0", ("simplices", "1"), "e", "simplices['1']"),
    ("cyc-h0", ("faces", "e", 0, "degeneracies"), "", "degeneracies"),
]


@pytest.mark.parametrize("verb, path, value, name", STRING_FOR_LIST_FIELDS)
def test_string_for_a_list_field_exits_one_naming_it(work, capsys, verb, path, value, name):
    bad = work / "bad.json"
    if verb == "eval":
        obj = json.loads(json.dumps(LK))
        argv = ["eval", "--tensor", bad, "--word", "a b a^-1 b^-1"]
    elif verb == "verify":
        good = work / "good.json"
        assert run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
                   "-n", 1, "-o", good)[0] == 0
        obj = json.loads(good.read_text())
        argv = ["verify", "--basis", bad, "--presentation", work / "torus.grp"]
    else:
        obj = model_to_obj(circle_model())
        argv = ["cyc-h0", "--ring", "Z", "--space", bad, "-n", 2]
    bad.write_text(json.dumps(obj))
    assert run(capsys, *argv)[0] == 0
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad.write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert "bad.json" in err and f"{name} must be a JSON list" in err


# A malformed 'faces' field of a space file, once refused with Python's own
# message: (the field's value, the error it gives)
MALFORMED_FACES = [
    ({"e": 5}, "faces['e'] must be a JSON list, got 5"),
    ({"e": "vv"}, "faces['e'] must be a JSON list, got 'vv'"),
    ({"e": ["v", "v"]}, "faces['e'][0] must be a JSON object with a 'target', got 'v'"),
    ("e!", "faces must be a JSON object, got 'e!'"),
]


@pytest.mark.parametrize("faces, message", MALFORMED_FACES)
def test_malformed_faces_exit_one_naming_the_field(work, capsys, faces, message):
    obj = model_to_obj(circle_model())
    obj["faces"] = faces
    (work / "bad.json").write_text(json.dumps(obj))
    rc, out, err = run(capsys, "cyc-h0", "--ring", "Z", "--space", work / "bad.json", "-n", 2)
    assert (rc, out) == (1, "")
    assert err == f"error: {work / 'bad.json'}: {message}\n"


def _triangle_space():
    """A loop e and a 2-simplex t whose first face is the degenerate edge
    s_0 v."""
    return {
        "simplices": {"0": ["v"], "1": ["e"], "2": ["t"]},
        "faces": {
            "e": [{"target": "v"}, {"target": "v"}],
            "t": [{"target": "v", "degeneracies": [0]}, {"target": "e"}, {"target": "e"}],
        },
    }


_DEGENERACIES = ("faces", "t", 0, "degeneracies")
_TARGET = ("faces", "t", 0, "target")


def _not_s0_of_a_vertex(j):
    return (f"faces['t'][0].degeneracies entry {j} must be an integer j with 0 <= j <= 0, "
            "for s_j of a 0-simplex")


# A name, target or degeneracy of a space file that was once loaded, read
# as another simplex, or refused with Python's own message: (path to the
# field, its value, the error it gives)
MALFORMED_SPACE_FIELDS = [
    (_DEGENERACIES, [0.0], _not_s0_of_a_vertex("0.0")),
    (_DEGENERACIES, [7], _not_s0_of_a_vertex("7")),
    (_DEGENERACIES, [-1], _not_s0_of_a_vertex("-1")),
    (_DEGENERACIES, [True], _not_s0_of_a_vertex("True")),
    (_DEGENERACIES, ["x"], _not_s0_of_a_vertex("'x'")),
    (("simplices", "2"), [["t"]], "simplices['2'][0] must be a JSON string, got ['t']"),
    (_TARGET, ["v"], "faces['t'][0].target must be a JSON string, got ['v']"),
    (_TARGET, True, "faces['t'][0].target must be a JSON string, got True"),
    (_TARGET, 1.0, "faces['t'][0].target must be a JSON string, got 1.0"),
    (("simplices", "0"), [1, True], "simplices['0'][0] must be a JSON string, got 1"),
]


@pytest.mark.parametrize("path, value, message", MALFORMED_SPACE_FIELDS)
def test_malformed_space_names_targets_and_degeneracies_exit_one(
    work, capsys, path, value, message
):
    obj = _triangle_space()
    argv = ["cyc-h0", "--ring", "Z", "--space", work / "bad.json", "-n", 2]
    (work / "bad.json").write_text(json.dumps(obj))
    assert run(capsys, *argv)[:2] == (0, "ranks_per_weight [1,1,1]\nrank 3\n")
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    (work / "bad.json").write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {work / 'bad.json'}: {message}\n"


def test_a_long_degeneracy_word_of_the_wrong_length_is_refused_at_once(work, capsys):
    # putting 20,001 degeneracies in canonical form took over a second
    obj = _triangle_space()
    obj["faces"]["t"][0]["degeneracies"] = list(range(20000, -1, -1))
    (work / "bad.json").write_text(json.dumps(obj))
    start = time.perf_counter()
    rc, _, err = run(capsys, "cyc-h0", "--ring", "Z", "--space", work / "bad.json", "-n", 2)
    assert time.perf_counter() - start < 0.5
    assert rc == 1 and err.endswith("face of 't' has wrong dimension\n")


# A tensor or basis file with a malformed 'terms' item or 'ring', once
# refused with Python's own message: (verb, where the value goes, the
# value, the error it gives)
MALFORMED_TENSOR_FIELDS = [
    ("eval", "terms", ["x"], "terms[0] must be a JSON object, got 'x'"),
    ("eval", "terms", [5], "terms[0] must be a JSON object, got 5"),
    ("verify", "terms", [5], "terms[0] must be a JSON object, got 5"),
    ("eval", "ring", 5, "unrecognised ring spec 5 (expected Z, Q, or Z/m)"),
    ("verify", "ring", 5, "unrecognised ring spec 5 (expected Z, Q, or Z/m)"),
]


@pytest.mark.parametrize("verb, field, value, message", MALFORMED_TENSOR_FIELDS)
def test_malformed_tensor_terms_and_rings_exit_one_naming_them(
    work, capsys, verb, field, value, message
):
    if verb == "eval":
        obj = json.loads(json.dumps(LK))
        obj[field] = value
        argv = ["eval", "--tensor", work / "bad.json", "--word", "a"]
    else:
        assert run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
                   "-n", 1, "-o", work / "good.json")[0] == 0
        obj = json.loads((work / "good.json").read_text())
        if field == "terms":  # a member tensor's terms
            obj["tensors"][0]["terms"] = value
        else:
            obj[field] = value
        argv = ["verify", "--basis", work / "bad.json", "--presentation", work / "torus.grp"]
    (work / "bad.json").write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {work / 'bad.json'}: {message}\n"


def test_verify_refuses_annihilators_that_are_not_the_additive_orders(work, capsys):
    """Each annihilator must be its tensor's additive order, as basis files
    are written; a file without the list says every order is 0."""

    def verify(obj, grp):
        (work / "bad.json").write_text(json.dumps(obj))
        return run(capsys, "verify", "--basis", work / "bad.json", "--presentation", work / grp)

    def emitted(ring, grp, n):
        out = work / "good.json"
        assert run(capsys, "basis", "--ring", ring, "--presentation", work / grp,
                   "-n", n, "-o", out)[0] == 0
        return json.loads(out.read_text())

    torus = emitted("Z", "torus.grp", 1)
    assert "annihilators" not in torus and verify(torus, "torus.grp")[:2] == (0, "ok\n")
    klein = emitted("Z/4", "klein.grp", 2)
    assert klein["annihilators"][:2] == [0, 2] and verify(klein, "klein.grp")[:2] == (0, "ok\n")
    wrong = [
        (dict(torus, annihilators=[3, 3, 3]), "torus.grp"),
        (dict(klein, annihilators=[0, 0] + klein["annihilators"][2:]), "klein.grp"),
        (dict(klein, annihilators=[2, 2] + klein["annihilators"][2:]), "klein.grp"),
        ({key: x for key, x in klein.items() if key != "annihilators"}, "klein.grp"),
    ]
    for obj, grp in wrong:
        rc, out, err = verify(obj, grp)
        assert (rc, out) == (1, "")
        assert "bad.json" in err and "has additive order" in err


def test_usage_errors_exit_one(work, capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys)[0] == 1
    # missing required option
    assert run(capsys, "basis", "--ring", "Z", "-n", 1)[0] == 1


def test_module_entry_point(work):
    # the child imports the package from where this process found it
    src = str(Path(letterbraid.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "letterbraid.cli", "eval", "--ring", "Z",
         "--tensor", str(work / "lk.json"), "--word", "a b a^-1 b^-1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def _q_tensor_with_exponent(work):
    obj = {"ring": "Q", "gens": ["a"], "terms": [{"seq": ["a"], "coeff": "1e999999999"}]}
    (work / "exp.json").write_text(json.dumps(obj))
    return ["eval", "--tensor", work / "exp.json", "--word", "a"]


def _value_past_the_text_cap(work):
    # 4290 nines times C(100000, 3), about 1.7e14, has more than 4300 digits
    obj = {"ring": "Z", "gens": ["a"], "terms": [{"seq": ["a"] * 3, "coeff": "9" * 4290}]}
    (work / "big.json").write_text(json.dumps(obj))
    return ["eval", "--tensor", work / "big.json", "--word", "a^100000"]


def _basis_past_the_weight_cap(work):
    obj = {"n": 7, "ring": "Z", "gens": ["a", "b"], "ranks_per_weight": [0] * 8, "tensors": []}
    (work / "n7.json").write_text(json.dumps(obj))
    return ["verify", "--basis", work / "n7.json", "--presentation", work / "torus.grp"]


def _modulus_one(work):
    return ["basis", "--ring", "Z/1", "--presentation", work / "torus.grp", "-n", 1]


def _modulus_past_the_text_cap(work):
    return ["basis", "--ring", "Z/" + "9" * 5000, "--presentation", work / "torus.grp", "-n", 1]


def _simplex_of_huge_dimension(work):
    obj = {"simplices": {"0": ["v"], "1000000": ["x"]}, "faces": {"x": []}}
    (work / "huge.json").write_text(json.dumps(obj))
    return ["cyc-h0", "--ring", "Z", "--space", work / "huge.json", "-n", 1]


@pytest.mark.parametrize("make_argv", [_q_tensor_with_exponent, _value_past_the_text_cap,
                                       _basis_past_the_weight_cap, _modulus_one,
                                       _modulus_past_the_text_cap, _simplex_of_huge_dimension])
def test_hostile_inputs_exit_one_with_an_error_line(work, capsys, monkeypatch, make_argv):
    """Each input is refused with exit 1 and an "error:" message, never a
    traceback."""
    monkeypatch.delenv("LB_MAX_WEIGHT", raising=False)
    rc, out, err = run(capsys, *make_argv(work))
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_refuses_an_exponent_coefficient_at_once(work, capsys):
    """"1e999999999" is not read as a number of 10^9 digits."""
    start = time.perf_counter()
    rc, _, err = run(capsys, *_q_tensor_with_exponent(work))
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and "bad rational coefficient '1e999999999'" in err


def test_eval_value_past_the_text_cap_names_the_cap(work, capsys):
    rc, _, err = run(capsys, *_value_past_the_text_cap(work))
    assert rc == 1 and f"more than {sys.get_int_max_str_digits()} digits" in err


def test_modulus_past_the_text_cap_names_the_cap(work, capsys):
    rc, _, err = run(capsys, *_modulus_past_the_text_cap(work))
    cap = sys.get_int_max_str_digits()
    assert rc == 1
    assert err == f"error: value has more than {cap} digits, the cap on integer text\n"
