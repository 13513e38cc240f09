"""CLI surface: output formats, determinism, exit codes."""

import json

from acbounds import cli, normal
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
    code, out, err = run_cli(capsys, "oracle", "levy", "--system", str(path), "--radius", "-1")
    assert code == 2
    assert out == ""
    assert "radius" in json.loads(err)["error"]


def test_oracle_count_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("2 4\n1 1 1 1\n1 1 -1 -1\n")
    code, out, _ = run_cli(capsys, "oracle", "count", "--matrix", str(path))
    assert json.loads(out)["count"] == "4"


def test_oracle_count_sign_tokens(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    for body in ("+ + + +\n+ + - -\n", "+ 1 + +1\n1 + - -1\n"):
        path.write_text("2 4\n" + body)
        code, out, _ = run_cli(capsys, "oracle", "count", "--matrix", str(path))
        assert code == 0 and json.loads(out)["count"] == "4"


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


def test_normal_matrix_files_with_extra_rows_are_usage_errors(tmp_path, capsys):
    extra = tmp_path / "extra.txt"
    extra.write_text("2 2\n0 2\n2 0\n5 5\n")
    code, out, err = run_cli(capsys, "normal", "census", "--n", "2", "--target", str(extra))
    assert code == 2 and out == ""
    assert "header does not match matrix body" in err
    signs = tmp_path / "signs.txt"
    signs.write_text("2 2\n1 1\n-1 1\n1 1\n")
    code, out, _ = run_cli(capsys, "normal", "check", "--matrix", str(signs))
    assert code == 2 and out == ""


def test_matrix_file_errors_name_their_cause(tmp_path, capsys):
    # An integer file with a bad token reports the integer parser's error,
    # not the sign parser's complaint about its first token.
    typo = tmp_path / "typo.txt"
    typo.write_text("2 2\n0 x\n2 0\n")
    code, out, err = run_cli(capsys, "normal", "census", "--n", "2", "--target", str(typo))
    assert code == 2 and out == ""
    assert "'x'" in json.loads(err)["error"]
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    for argv in (
        ("oracle", "count", "--matrix", str(empty)),
        ("normal", "census", "--n", "2", "--target", str(empty)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "empty matrix text"


def test_ragged_sign_file_is_a_usage_error(tmp_path, capsys):
    # The short second row must not read as (+1, -1).
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("2 2\n+ +\n+\n")
    code, out, err = run_cli(capsys, "normal", "check", "--matrix", str(ragged))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ragged rows"


def test_json_matrix_without_a_header_key_is_a_usage_error(tmp_path, capsys):
    for key in ("rows", "cols"):
        body = {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 0]]}
        del body[key]
        target = tmp_path / f"no_{key}.json"
        target.write_text(json.dumps(body))
        code, out, err = run_cli(capsys, "normal", "census", "--n", "2", "--target", str(target))
        assert code == 2 and out == ""
        assert repr(key) in json.loads(err)["error"]



def test_non_integer_entries_are_usage_errors(tmp_path, capsys):
    # 1.5 must not be read as 1, nor a partition index 1.9 as 1, nor true as 1.
    cases = [
        ("oracle", "atoms", "--system", {"d": 1, "vectors": [[1.5], [2]]}, "1.5"),
        ("oracle", "atoms", "--system",
         {"d": 1, "vectors": [[1], [2]], "partition": [[0], [1.9]]}, "1.9"),
        ("oracle", "count", "--matrix", {"rows": 1, "cols": 2, "entries": [[1.5, 2]]}, "1.5"),
        ("oracle", "count", "--matrix", {"rows": 1, "cols": 2, "entries": [[True, 1]]}, "True"),
    ]
    for group, kind, flag, body, bad in cases:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(body))
        code, out, err = run_cli(capsys, group, kind, flag, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == f"{bad} is not an integer"


def test_system_json_without_a_key_is_a_usage_error(tmp_path, capsys):
    for key in ("d", "vectors"):
        body = {"d": 1, "vectors": [[1], [2]]}
        del body[key]
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps(body))
        for argv in (("oracle", "atoms"), ("bound", "halasz-atom")):
            code, out, err = run_cli(capsys, *argv, "--system", str(path))
            assert code == 2 and out == ""
            assert repr(key) in json.loads(err)["error"]

def test_normal_census_of_a_target_without_normals(tmp_path, capsys):
    # Plausible (even, symmetric, zero diagonal) but no 2 x 2 commutator has
    # an entry 2, so the step tree prunes to empty levels.
    target = tmp_path / "target.txt"
    target.write_text("2 2\n0 2\n2 0\n")
    code, out, _ = run_cli(capsys, "normal", "census", "--n", "2", "--target", str(target))
    assert code == 0
    result = json.loads(out)
    assert result["normal_count"] == 0 and result["partial_counts"] == {"1": 0, "2": 0}
    assert result["roundtrip_ok"] is True and result["extension_bound_ok"] is True


def test_normal_census_fails_a_shifted_step_system(monkeypatch, capsys):
    systems = normal._step_systems

    def shifted(nodes, k, target):
        t_k, nprime = systems(nodes, k, target)
        nprime[:, 0] += 2
        return t_k, nprime

    monkeypatch.setattr(normal, "_step_systems", shifted)
    code, out, _ = run_cli(capsys, "normal", "census", "--n", "3")
    assert code == 1
    assert json.loads(out)["roundtrip_ok"] is False


def test_normal_constants_shape(capsys):
    code, out, _ = run_cli(capsys, "normal", "constants", "--beta-small", "0.0009765625")
    body = json.loads(out)
    assert code == 0
    assert len(body["cases"]) == 6
    assert body["c_dv"] < 0.698
    assert body["improved"]["delta"] > 0


def test_normal_constants_solve_the_baseline_once(monkeypatch, capsys):
    # With --beta-small the cases come from the improved solve's baseline:
    # the same bytes as a plain solve's report, and one baseline solve.
    eps = "0.0001"
    _, plain, _ = run_cli(capsys, "normal", "constants", "--eps", eps)
    improved = normal.improved_case_constants(2**-11, eps=1e-4)
    solves = []
    solve = normal.solve_case_constants

    def counted(*args, **kwargs):
        solves.append(args or kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(normal, "solve_case_constants", counted)
    monkeypatch.setattr(cli, "solve_case_constants", counted)
    code, out, _ = run_cli(
        capsys, "normal", "constants", "--eps", eps, "--beta-small", str(2**-11)
    )
    assert code == 0 and len(solves) == 1
    body = json.loads(plain)
    body["improved"] = {
        "beta_small": 2**-11,
        "delta": improved.delta_improve,
        "worst_beta": improved.new_worst_beta,
        "c_dv": improved.new_c_dv,
    }
    assert out == json.dumps(body, sort_keys=True) + "\n"


def test_normal_constants_reject_bad_eps(capsys):
    for eps in ("nan", "-0.5", "5"):
        code, out, err = run_cli(capsys, "normal", "constants", f"--eps={eps}")
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "ValueError"


def test_hadamard_verify_names_a_bad_shape(capsys):
    code, out, err = run_cli(capsys, "hadamard", "verify", "--k", "5", "--n", "4")
    assert code == 2 and out == ""
    assert "need 1 <= k <= n, got k=5, n=4" in json.loads(err)["error"]
    # a census of that shape is well defined and empty
    code, out, _ = run_cli(capsys, "hadamard", "census", "--k", "5", "--n", "4")
    assert code == 0 and json.loads(out)["count"] == "0"


def test_budget_exit_code(capsys):
    for kind, budget in (("census", "100"), ("census", "1000"), ("verify", "100")):
        code, _, err = run_cli(
            capsys, "hadamard", kind, "--k", "3", "--n", "12", "--budget", budget
        )
        assert code == 3
        assert "Budget" in err or "budget" in err


def test_census_order_eight(capsys):
    code, out, _ = run_cli(capsys, "hadamard", "census", "--k", "8", "--n", "8")
    assert code == 0
    assert json.loads(out)["count"] == "4954521600"


def test_usage_exit_code(capsys):
    code, _, _ = run_cli(capsys, "bound", "nonsense")
    assert code == 2
    # The census runs serially and verify checks one matrix per class-DP
    # state, so neither a worker count nor a sample rate is an option.
    code, _, _ = run_cli(capsys, "--workers", "2", "hadamard", "census")
    assert code == 2
    code, _, _ = run_cli(capsys, "hadamard", "verify", "--sample", "3")
    assert code == 2
    # The census budget counted 2^(n^2) matrices, which no longer measures its work.
    code, _, _ = run_cli(capsys, "normal", "census", "--n", "2", "--budget", "5")
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


def test_oracle_count_zero_rows_rejects_a_target(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 5\n")
    code, out, _ = run_cli(capsys, "oracle", "count", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["count"] == "32"
    for target in ("1", "7,7"):
        code, out, err = run_cli(capsys, "oracle", "count", "--matrix", str(path),
                                 "--target", target)
        assert code == 2
        assert out == ""
        assert "target vector length mismatch" in json.loads(err)["error"]


def test_oracle_combdim_honours_the_cap(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("2 4\n1 1 1 1\n1 1 -1 -1\n")
    code, out, _ = run_cli(capsys, "oracle", "combdim", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["count"] == "4"
    code, out, err = run_cli(capsys, "oracle", "combdim", "--matrix", str(path), "--cap", "1")
    assert code == 3
    assert out == ""
    assert "rank 2 exceeds enumeration cap 1" in json.loads(err)["error"]
    code, out, _ = run_cli(capsys, "oracle", "combdim", "--matrix", str(path), "--cap", "2")
    assert code == 0
    assert json.loads(out)["count"] == "4"
