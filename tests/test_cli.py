import json
import subprocess
import sys

import pytest

from letterbraid.classfun import basis_from_obj
from letterbraid.cli import main
from letterbraid.dga import circle_model, model_to_obj, wedge_model

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


def test_verify_space_ok(work, capsys):
    rc, out, _ = run(capsys, "verify", "--ring", "Z", "--space", work / "circle.json")
    assert rc == 0
    assert out == "ok\n"


def test_verify_space_requires_ring(work, capsys):
    rc, _, err = run(capsys, "verify", "--space", work / "circle.json")
    assert rc == 1
    assert "--ring" in err


def test_verify_basis_ok_and_tampered(work, capsys):
    out_file = work / "cf.json"
    run(capsys, "basis", "--ring", "Z", "--presentation", work / "torus.grp",
        "-n", 2, "--class", "-o", out_file)
    rc, out, _ = run(capsys, "verify", "--basis", out_file,
                     "--presentation", work / "torus.grp", "--class",
                     "--samples", 10)
    assert rc == 0 and out == "ok\n"

    obj = json.loads(out_file.read_text())
    obj["tensors"][-1] = LK  # right weight, but not a class function
    tampered = work / "tampered.json"
    tampered.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "verify", "--basis", tampered,
                     "--presentation", work / "torus.grp", "--class",
                     "--samples", 10)
    assert rc == 2
    assert "descend" in out
    assert "cycle-invariant" in out


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


def test_oracle_compare_not_saturated(work, capsys):
    rc, _, err = run(capsys, "oracle-compare", "--ring", "Z",
                     "--presentation", work / "torus.grp", "-n", 1, "-L", 1)
    assert rc == 2
    assert "-L" in err


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


def test_usage_errors_exit_one(work, capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys)[0] == 1
    # missing required option
    assert run(capsys, "basis", "--ring", "Z", "-n", 1)[0] == 1


def test_module_entry_point(work):
    proc = subprocess.run(
        [sys.executable, "-m", "letterbraid.cli", "eval", "--ring", "Z",
         "--tensor", str(work / "lk.json"), "--word", "a b a^-1 b^-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
