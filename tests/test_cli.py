import json

import pytest

from cluster_twist.cli import main
from cluster_twist.seeds import seed_to_json


A1 = {"n": 2, "frozen": [2], "B": [[0, 1], [-1, 0]], "d": [1, 1]}
DIGON = {
    "n": 4,
    "frozen": [1, 3],
    "B": [[0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0]],
    "d": [1, 1, 1, 1],
}


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(A1))
    return str(path)


@pytest.fixture
def digon_file(tmp_path):
    path = tmp_path / "digon.json"
    path.write_text(json.dumps(DIGON))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seed_check(a1_file, capsys):
    code, out, _ = run(capsys, "seed-check", "--seed", a1_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["full_rank"] and payload["unimodular_minor"]
    assert payload["witness_rows"] == [2]
    assert payload["omega"] == [["0", "-1"], ["1", "0"]]
    assert payload["lambda"] == [["0", "1"], ["-1", "0"]]
    assert payload["alpha"] == 1 and payload["delta"] == ["1"]


def test_seed_check_invalid(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "frozen": [], "B": [[0, 1], [1, 0]], "d": [1, 1]}))
    code, out, err = run(capsys, "seed-check", "--seed", str(path))
    assert code == 2
    # seed-check reports the violations the other subcommands refuse
    path.write_text(json.dumps(BAD_SEEDS["d-not-symmetrizing"]))
    code, out, err = run(capsys, "seed-check", "--seed", str(path), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert not payload["valid"] and payload["violations"][0]["kind"] == "skew-symmetry"


BAD_SEEDS = {
    "float-entry": {"n": 2, "frozen": [2], "B": [[0, 1.5], [-1, 0]], "d": [1, 1]},
    "string-entry": {"n": 2, "frozen": [2], "B": [[0, "1"], [-1, 0]], "d": [1, 1]},
    "short-labels": {"n": 2, "frozen": [2], "B": [[0, 1], [-1, 0]], "d": [1, 1], "labels": ["a"]},
    "d-not-symmetrizing": {"n": 2, "frozen": [], "B": [[0, 1], [-2, 0]], "d": [1, 1]},
    "float-d": {"n": 2, "B": [[0, 1], [-1, 0]], "d": [1.5, 1]},
    "float-n": {"n": 2.7, "B": [[0, 1], [-1, 0]], "d": [1, 1]},
    "float-frozen": {"n": 2, "frozen": [2.0], "B": [[0, 1], [-1, 0]], "d": [1, 1]},
}


@pytest.mark.parametrize("name", sorted(BAD_SEEDS))
def test_bad_seed_file_exits_2(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_SEEDS[name]))
    for argv in (
        ["mutate", "--seq", "1"],
        ["cgmat", "--seq", "1"],
        ["expand", "--seq", "1", "--i", "1"],
        ["var-solve", "--seq", "1,1"],
        ["twist", "--kind", "dt"],
    ):
        code, out, err = run(capsys, *argv, "--seed", str(path), "--format", "json")
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: seeds:"), (argv, err)


def test_seed_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "seed-check", "--seed", missing)
    assert code == 2 and "cannot read" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(capsys, "seed-check", "--seed", str(garbled))
    assert code == 2


def test_mutate_roundtrip(a1_file, capsys):
    code, out, _ = run(capsys, "mutate", "--seed", a1_file, "--seq", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["B"] == A1["B"]
    code, out, _ = run(capsys, "mutate", "--seed", a1_file, "--seq", "1", "--format", "json")
    assert json.loads(out)["B"] == [[0, -1], [1, 0]]


def test_cgmat_golden(a1_file, capsys):
    code, out, _ = run(capsys, "cgmat", "--seed", a1_file, "--seq", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["E"] == [["-1", "1"], ["0", "1"]]
    assert payload["F"] == [["-1", "0"], ["1", "1"]]
    assert payload["signs"] == [1]


def test_expand(a1_file, capsys):
    code, out, _ = run(capsys, "expand", "--seed", a1_file, "--seq", "1", "--i", "1", "--side", "A", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expression"] == "A1^-1*A2 + A1^-1"
    assert payload["degree"] == ["-1", "1"]
    assert payload["f_polynomial"] == "1 + Z1"


def test_var_solve_digon(digon_file, capsys):
    code, out, _ = run(
        capsys,
        "var-solve", "--seed", digon_file, "--seq", "4,2", "--side", "X", "--poisson",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 5
    assert payload["integral_denominator"] == 1


def test_var_solve_member(digon_file, capsys):
    code, out, _ = run(
        capsys,
        "var-solve", "--seed", digon_file, "--seq", "4,2", "--side", "X",
        "--params", "lambda=1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member_is_variation"] is True


def test_var_solve_zero_denominator(digon_file, capsys):
    code, out, err = run(
        capsys,
        "var-solve", "--seed", digon_file, "--seq", "4,2", "--side", "X",
        "--params", "lambda=1/0", "--format", "json",
    )
    assert (code, out) == (2, "")
    assert "not a rational value" in err


def test_twist_dt(a1_file, capsys):
    code, out, _ = run(
        capsys,
        "twist", "--seed", a1_file, "--kind", "dt", "--checks", "poisson,p-comm,hom",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variation"] == [["1", "0"], ["-1", "-1"]]
    assert payload["verification"]["poisson"] is True
    assert payload["verification"]["p_commutation"] is True


@pytest.mark.parametrize("alpha", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["seed-check"], ["twist", "--kind", "dt", "--checks", "poisson"]],
    ids=["seed-check", "twist"],
)
def test_non_positive_alpha_exits_2(argv, alpha, a1_file, capsys):
    # a zero scale makes every bracket vanish and a negative one flips
    # delta; both are refused instead of reported
    code, out, err = run(capsys, *argv, "--seed", a1_file, "--alpha", alpha, "--format", "json")
    assert (code, out) == (2, "")
    assert "alpha must be a positive integer" in err


@pytest.mark.parametrize(
    "argv",
    [["seed-check", "--alpha", "0"], ["twist", "--kind", "dt", "--alpha", "-3"]],
    ids=["seed-check", "twist"],
)
def test_non_positive_alpha_exits_2_without_compatible_form(argv, digon_file, capsys):
    # the digon's exchange columns are rank-deficient, so no compatible form
    # is solved for and the bad scale is refused up front
    code, out, err = run(capsys, *argv, "--seed", digon_file, "--format", "json")
    assert (code, out) == (2, "")
    assert "alpha must be a positive integer" in err


def test_twist_not_found(tmp_path, capsys):
    path = tmp_path / "markov.json"
    path.write_text(
        json.dumps({"n": 3, "frozen": [], "B": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]], "d": [1, 1, 1]})
    )
    code, _, err = run(capsys, "twist", "--seed", str(path), "--kind", "dt", "--depth", "4")
    assert code == 3
    assert "nodes expanded" in err and "dedup hits" in err and "peak frontier" in err


def test_twist_negative_depth(a1_file, capsys):
    code, _, err = run(capsys, "twist", "--seed", a1_file, "--kind", "dt", "--depth", "-1")
    assert code == 2
    assert "max_depth" in err


def test_examples_all(capsys):
    for name in ("a1", "sl3", "digon"):
        code, out, _ = run(capsys, "examples", name)
        assert code == 0, out
        assert "FAIL" not in out


def test_json_output_is_deterministic(a1_file, capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "cgmat", "--seed", a1_file, "--seq", "1,1", "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_seed_json_renders_back(a1_file, capsys):
    code, out, _ = run(capsys, "mutate", "--seed", a1_file, "--seq", "", "--format", "json")
    payload = json.loads(out)
    from cluster_twist.seeds import seed_from_json

    assert seed_to_json(seed_from_json(payload)) == payload


def test_var_solve_target_and_sigma(tmp_path, capsys):
    import json as _json

    a2 = {"n": 3, "frozen": [3], "B": [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]], "d": [1, 1, 1]}
    src = tmp_path / "src.json"
    src.write_text(_json.dumps(a2))
    # target: the same seed with the two unfrozen vertices exchanged
    from cluster_twist.seeds import make_seed, seed_to_json

    base = make_seed(a2["B"], frozen=[2])
    rows = [[0] * 3 for _ in range(3)]
    perm = [1, 0, 2]
    for i in range(3):
        for j in range(3):
            rows[perm[i]][perm[j]] = base.b[i, j]
    tgt_seed = make_seed(rows, frozen=[2])
    tgt = tmp_path / "tgt.json"
    tgt.write_text(_json.dumps(seed_to_json(tgt_seed)))
    code, out, err = run(
        capsys,
        "var-solve", "--seed", str(src), "--target", str(tgt), "--side", "A",
        "--sigma", "2,1", "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["sigma"] == [[1, 2], [2, 1]]


def test_rational_rendering_roundtrip():
    from fractions import Fraction

    from cluster_twist.cli import rat_parse, rat_str

    for value in (0, 3, -7, Fraction(1, 2), Fraction(-9, 4)):
        assert rat_parse(rat_str(value)) == value
