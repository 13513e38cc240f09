"""CLI surface: output formats, determinism, exit codes."""

import json

from acbounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_elo(capsys):
    code, out, _ = run_cli(capsys, "bound", "elo", "--n", "10")
    assert code == 0
    assert json.loads(out)["bound"] == "252/1024"


def test_bound_odlyzko(capsys):
    code, out, _ = run_cli(capsys, "bound", "odlyzko", "--d", "3")
    assert json.loads(out)["bound"] == "8"


def test_bound_halasz_atom_inline(capsys):
    code, out, _ = run_cli(capsys, "bound", "halasz-atom", "--ranks", "3,3", "--ell", "2")
    body = json.loads(out)
    assert body["bound"] == "1/8"
    assert body["exact"] is True


def test_hadamard_census_pinned_value(capsys):
    code, out, _ = run_cli(capsys, "hadamard", "census", "--k", "2", "--n", "4")
    assert code == 0
    assert json.loads(out)["count"] == "96"


def test_census_workers_agree_with_serial(capsys):
    _, out1, _ = run_cli(capsys, "hadamard", "census", "--k", "2", "--n", "8")
    _, out2, _ = run_cli(capsys, "--workers", "2", "hadamard", "census", "--k", "2", "--n", "8")
    assert json.loads(out1)["count"] == json.loads(out2)["count"] == "17920"


def test_identical_config_gives_identical_bytes(capsys):
    args = ("verify", "halasz-sweep", "--instances", "15", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    body = json.loads(out1)
    assert body["seed"] == 11
    assert body["version"]


def test_oracle_atoms_and_levy(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(
        json.dumps({"d": 1, "vectors": [[1], [1]], "partition": [[0], [1]]})
    )
    code, out, _ = run_cli(capsys, "oracle", "atoms", "--system", str(path))
    body = json.loads(out)
    assert body["max_atom"] == "1/2"
    assert body["support"] == 3
    code, out, _ = run_cli(capsys, "oracle", "levy", "--system", str(path), "--radius", "2")
    assert json.loads(out)["levy_lower_bound"] == "1/1"


def test_oracle_count_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("2 4\n1 1 1 1\n1 1 -1 -1\n")
    code, out, _ = run_cli(capsys, "oracle", "count", "--matrix", str(path))
    assert json.loads(out)["count"] == "4"


def test_oracle_count_sign_tokens(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("2 4\n+ + + +\n+ + - -\n")
    code, out, _ = run_cli(capsys, "oracle", "count", "--matrix", str(path))
    assert json.loads(out)["count"] == "4"


def test_rank_partition_roundtrip(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("2 4\n1 0 1 0\n0 1 0 1\n")
    code, out, _ = run_cli(
        capsys, "rank-partition", "--matrix", str(path), "--r", "2", "--ell", "2"
    )
    assert code == 0
    assert json.loads(out)["blocks"] == [[0, 1], [2, 3]]


def test_normal_check_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("2 2\n1 1\n-1 1\n")
    code, out, _ = run_cli(capsys, "normal", "check", "--matrix", str(good))
    assert code == 0
    assert json.loads(out)["normal"] is True
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 -1\n1 -1\n")
    code, out, _ = run_cli(capsys, "normal", "check", "--matrix", str(bad))
    assert code == 1


def test_normal_constants_shape(capsys):
    code, out, _ = run_cli(capsys, "normal", "constants", "--beta-small", "0.0009765625")
    body = json.loads(out)
    assert code == 0
    assert len(body["cases"]) == 6
    assert body["c_dv"] < 0.698
    assert body["improved"]["delta"] > 0


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "hadamard", "census", "--k", "3", "--n", "12", "--budget", "100"
    )
    assert code == 3
    assert "Budget" in err or "budget" in err


def test_usage_exit_code(capsys):
    code, _, _ = run_cli(capsys, "bound", "nonsense")
    assert code == 2


def test_verification_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("1 3\n1 2 3\n")
    code, out, _ = run_cli(
        capsys, "rank-partition", "--matrix", str(path), "--r", "1", "--ell", "4"
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_text_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "bound", "odlyzko", "--d", "2")
    assert "bound: 4" in out
    code, out, _ = run_cli(capsys, "--format", "csv", "bound", "odlyzko", "--d", "2")
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "bound" in lines[0]


def test_oracle_count_uses_the_solution_cap(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    path.write_text("1 28\n" + " ".join(["1"] * 28) + "\n")
    code, out, _ = run_cli(capsys, "oracle", "count", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["count"] == "40116600"


def test_oracle_atoms_keeps_the_atom_cap(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"d": 1, "vectors": [[1]] * 27, "partition": [list(range(27))]}))
    code, _, err = run_cli(capsys, "oracle", "atoms", "--system", str(path))
    assert code == 3
    assert "cap 26" in err
