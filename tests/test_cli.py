"""Command-line front end: parsing, exit codes, JSON round-trips."""

import json

import pytest

from sasano import rat, rat_str
from sasano.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_classify_exists(capsys):
    code, data = run_json(
        capsys, "classify", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,1/4"
    )
    assert code == 0
    assert data == {"verdict": "exists", "condition": 1}


def test_construct_not_exists_is_success(capsys):
    code, data = run_json(capsys, "construct", "--system", "b4", "--alphas", "0,0,0,0,1/2")
    assert code == 0
    assert data == {"verdict": "not_exists"}


def test_alphas_auto_completion(capsys):
    code, data = run_json(
        capsys, "classify", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,auto"
    )
    assert code == 0 and data["verdict"] == "exists"


def test_construct_roundtrips_through_own_decoders(capsys):
    code, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "5/4,1/4,1/4,-1/4,-1/4"
    )
    assert code == 0 and data["verdict"] == "exists"
    from sasano import SolutionTuple

    sol = SolutionTuple.from_json(data["solution"])
    assert sol.chart.value == data["chart"]


def test_transform_and_inverse_roundtrip(capsys):
    args = ("--system", "b4", "--alphas", "3/8,1/8,1/8,-1/4,3/8")
    code, first = run(capsys, "transform", *args, "--word", "s3 T1 pi2")
    assert code == 0
    code, back = run(
        capsys,
        "transform",
        "--system",
        "b4",
        "--alphas",
        ",".join(json.loads(first)["alphas"]),
        "--word",
        "inv(s3 T1 pi2)",
    )
    assert code == 0
    assert json.loads(back)["alphas"] == ["3/8", "1/8", "1/8", "-1/4", "3/8"]


def test_transform_word_on_solution(capsys, tmp_path):
    code, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,1/4"
    )
    sol_file = tmp_path / "seed.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run_json(
        capsys,
        "transform",
        "--system", "b4",
        "--alphas", "1/4,1/4,1/4,-1/4,1/4",
        "--word", "s3",
        "--solution", str(sol_file),
    )
    assert code == 0
    assert out["chart"] == "m3"


def test_verify_command_passes_on_seed(capsys, tmp_path):
    _, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,1/4"
    )
    sol_file = tmp_path / "seed.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run(
        capsys,
        "verify",
        "--system", "b4",
        "--alphas", "1/4,1/4,1/4,-1/4,1/4",
        "--solution", str(sol_file),
    )
    assert code == 0
    assert "PASS residual" in out
    assert "FAIL" not in out


def test_verify_command_fails_on_wrong_solution(capsys, tmp_path):
    _, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,1/4"
    )
    sol_file = tmp_path / "seed.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run(
        capsys,
        "verify",
        "--system", "b4",
        "--alphas", "0,0,1/2,-1/2,1/2",   # different a4: different seed
        "--solution", str(sol_file),
    )
    assert code == 1
    assert "FAIL residual" in out


def test_expand_command(capsys, tmp_path):
    _, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,1/4"
    )
    sol_file = tmp_path / "seed.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run_json(
        capsys, "expand", "--solution", str(sol_file), "--at", "inf", "--order", "3"
    )
    assert code == 0
    assert out["z"]["lead"] == 1
    assert out["z"]["coeffs"][0] == "2"
    code, out = run_json(
        capsys, "expand", "--solution", str(sol_file), "--at", "c=1/2", "--order", "2"
    )
    assert code == 0
    assert out["y"]["coeffs"][0] == "1/2"


def test_report_command(capsys, tmp_path):
    _, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "1/4,1/4,1/4,-1/4,1/4"
    )
    sol_file = tmp_path / "seed.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run_json(
        capsys,
        "report",
        "--system", "b4",
        "--alphas", "1/4,1/4,1/4,-1/4,1/4",
        "--solution", str(sol_file),
    )
    assert code == 0
    assert out["integrality_a"] is True and out["integrality_h"] is True


def test_verify_infinite_chart_solution(capsys, tmp_path):
    # a construction that ends at z == infinity still verifies (residual
    # check only; invariants and the numeric run need the affine chart)
    code, data = run_json(
        capsys, "construct", "--system", "b4", "--alphas", "1/7,1/5,-6/35,1/2,0"
    )
    assert code == 0 and data["chart"] == "m3"
    sol_file = tmp_path / "m3.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run(
        capsys,
        "verify",
        "--system", "b4",
        "--alphas", "1/7,1/5,-6/35,1/2,0",
        "--solution", str(sol_file),
    )
    assert code == 0
    assert out.strip() == "PASS residual"


def test_transform_undefined_action_exit_code(capsys, tmp_path):
    # y == 0 with a1 != 0 is outside every convention: exit 3
    bad = {
        "chart": "affine",
        "x": {"num": ["0", "1"], "den": ["1"]},
        "y": {"num": [], "den": ["1"]},
        "z": {"num": ["0", "1"], "den": ["1"]},
        "w": {"num": ["1"], "den": ["1"]},
    }
    sol_file = tmp_path / "bad.json"
    sol_file.write_text(json.dumps(bad))
    code, out = run(
        capsys,
        "transform",
        "--system", "b4",
        "--alphas", "0,1/2,1/8,-1/4,3/8",
        "--word", "s1",
        "--solution", str(sol_file),
    )
    assert code == 3
    assert "error" in json.loads(out)


def test_usage_error_exit_code(capsys):
    code, out = run(capsys, "classify", "--system", "b4", "--alphas", "1,2,3")
    assert code == 2
    assert "error" in json.loads(out)


def test_unknown_system_exit_code(capsys):
    code = main(["classify", "--system", "e8", "--alphas", "0,0,0,0,0"])
    assert code == 2


def test_batch_mode(capsys, tmp_path):
    lines = [
        {"subcommand": "classify", "system": "b4", "alphas": ["1/4", "1/4", "1/4", "-1/4", "1/4"]},
        {"subcommand": "classify", "system": "b4", "alphas": ["0", "0", "0", "0", "1/2"]},
        {"subcommand": "construct", "system": "d5", "alphas": ["0", "1/4", "1/4", "-1/4", "1/4"]},
    ]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"verdict": "exists", "condition": 1}
    assert rows[1] == {"verdict": "not_exists"}
    assert rows[2]["verdict"] == "exists" and rows[2]["chart"] == "r1"


def test_batch_mode_negative_first_alpha(capsys, tmp_path):
    # a value starting with "-" must reach --alphas, not be read as an option
    lines = [
        {"subcommand": "classify", "system": "b4", "alphas": "-3/4,-3/4,5/4,-2/3,2/3"},
        {"subcommand": "construct", "system": "b4", "alphas": ["-3/4", "-3/4", "5/4", "-2/3", "2/3"]},
        {"subcommand": "classify", "system": "b4", "alphas": ["0", "0", "0", "0", "1/2"]},
    ]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == len(lines)
    assert rows[0]["verdict"] == "exists"
    assert rows[1]["verdict"] == "exists" and "solution" in rows[1]
    assert rows[2] == {"verdict": "not_exists"}


def test_verify_reports_integrator_failure(capsys, tmp_path):
    # one off in a constant term: the flow through the corrupted initial
    # value blows up and the integrator stops short of the interval's end
    alphas = "--alphas=-3/4,-3/4,5/4,-2/3,2/3"
    _, data = run_json(capsys, "construct", "--system", "b4", alphas)
    sol = data["solution"]
    name = next(k for k in "xyzw" if sol[k]["num"])
    sol[name]["num"][0] = rat_str(rat(sol[name]["num"][0]) + 1)
    sol_file = tmp_path / "corrupt.json"
    sol_file.write_text(json.dumps(sol))
    args = ("verify", "--system", "b4", alphas, "--solution", str(sol_file))
    code, out = run(capsys, *args)
    assert code == 1
    assert "FAIL numeric_crosscheck" in out.splitlines()
    code, report = run_json(capsys, *args, "--json")
    assert code == 1
    assert report["checks"]["numeric_crosscheck"] is False and report["pass"] is False


def _verify_text(capsys, tmp_path, system, alphas, solution):
    """Text-mode `verify`: (exit code, stdout lines, stderr lines)."""
    sol_file = tmp_path / "solution.json"
    sol_file.write_text(json.dumps(solution))
    code = main(["verify", "--system", system, f"--alphas={alphas}", "--solution", str(sol_file)])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


def test_verify_names_the_invariants_it_skips_for_d4(capsys, tmp_path):
    alphas = "5/3,5/3,-7/6,-1,1"
    _, data = run_json(capsys, "construct", "--system", "d4", "--alphas", alphas)
    code, out, err = _verify_text(capsys, tmp_path, "d4", alphas, data["solution"])
    assert code == 0
    assert out == ["PASS residual", "PASS numeric_crosscheck"]
    assert err == ["SKIP invariants (D4 has no invariant report)"]


def test_verify_names_the_invariants_it_skips_for_d5(capsys, tmp_path):
    # the y == 0 family at a0 + a1 = a3 + a4 = 0, in the affine chart
    solution = {
        "chart": "affine",
        "x": {"num": ["-3/2"], "den": ["1"]},
        "y": {"num": [], "den": ["1"]},
        "z": {"num": ["0", "5/2"], "den": ["1"]},
        "w": {"num": [], "den": ["1"]},
    }
    code, out, err = _verify_text(capsys, tmp_path, "d5", "-1/3,1/3,1/2,-1/5,1/5", solution)
    assert code == 0
    assert out == ["PASS residual", "PASS numeric_crosscheck"]
    assert err == ["SKIP invariants (D5 has no invariant report)"]


def test_verify_names_the_checks_it_skips_off_the_affine_chart(capsys, tmp_path):
    alphas = "1/7,1/5,-6/35,1/2,0"
    _, data = run_json(capsys, "construct", "--system", "b4", "--alphas", alphas)
    assert data["chart"] == "m3"
    code, out, err = _verify_text(capsys, tmp_path, "b4", alphas, data["solution"])
    assert code == 0
    assert out == ["PASS residual"]
    assert err == ["SKIP invariants (B4 in chart m3 has no invariant report)",
                   "SKIP numeric_crosscheck (chart m3 is not affine)"]


def test_verify_names_a_crosscheck_skipped_for_a_pole_on_path(capsys, tmp_path, monkeypatch):
    # y has a pole at t = 3/2; an interval across it makes the cross-check refuse
    import sasano.cli

    monkeypatch.setattr(sasano.cli, "pole_free_interval", lambda sol: (1, 2))
    alphas = "1/4,1/4,1/4,-1/4,1/4"
    _, data = run_json(capsys, "construct", "--system", "b4", "--alphas", alphas)
    solution = dict(data["solution"], y={"num": ["-1/4", "1/2"], "den": ["-3/2", "1"]})
    code, out, err = _verify_text(capsys, tmp_path, "b4", alphas, solution)
    assert "PASS numeric_crosscheck" not in out and "FAIL numeric_crosscheck" not in out
    assert err == ["SKIP numeric_crosscheck (pole on path)"]
    # --json carries the checks that ran and nothing on skips
    code_json, report = run_json(capsys, "verify", "--system", "b4", "--alphas", alphas,
                                 "--solution", str(tmp_path / "solution.json"), "--json")
    assert code_json == code
    assert "numeric_crosscheck" not in report["checks"]
    assert capsys.readouterr().err == ""


def test_verify_names_the_residues_it_cannot_check_at_irrational_poles(capsys, tmp_path):
    # x = 1/(t**2 - 2) has its poles at +-sqrt(2), where the residue
    # condition is not decidable in rational arithmetic
    alphas = "1/4,1/4,1/4,-1/4,1/4"
    _, data = run_json(capsys, "construct", "--system", "b4", "--alphas", alphas)
    solution = dict(data["solution"], x={"num": ["1"], "den": ["-2", "0", "1"]})
    code, out, err = _verify_text(capsys, tmp_path, "b4", alphas, solution)
    assert code == 1 and "FAIL residual" in out
    assert err == ["SKIP finite_pole_residues at irrational poles "
                   "(not decidable in rational arithmetic)"]
    # --json is unchanged: the flag sits in the invariants, skips are not listed
    code_json, report = run_json(capsys, "verify", "--system", "b4", "--alphas", alphas,
                                 "--solution", str(tmp_path / "solution.json"), "--json")
    assert code_json == code
    assert report["invariants"]["unchecked_irrational_poles"] is True
    assert report["invariants"]["finite_pole_residues"] == []
    assert capsys.readouterr().err == ""


def test_batch_answers_every_line_argparse_rejects(capsys, tmp_path):
    lines = [
        {"subcommand": "classify", "system": "b4", "alphas": ["1/4", "1/4", "1/4", "-1/4", "1/4"]},
        {"subcommand": "classify", "system": "b4"},
        {"subcommand": "frobnicate", "system": "b4", "alphas": "0,0,0,0,1/2"},
        {"subcommand": "classify", "system": "q7", "alphas": "0,0,0,0,1/2"},
        {"subcommand": "classify", "system": "b4", "alphas": ["0", "0", "0", "0", "1/2"]},
    ]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code = main(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    rows = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert len(rows) == len(lines)
    assert rows[0] == {"verdict": "exists", "condition": 1}
    assert "--alphas" in rows[1]["error"]
    assert "frobnicate" in rows[2]["error"]
    assert "q7" in rows[3]["error"]
    assert rows[4] == {"verdict": "not_exists"}
    assert captured.err == ""


def test_single_request_rejected_by_argparse_prints_usage_only(capsys):
    assert main(["classify", "--system", "b4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sasano classify")
    assert "sasano classify: error: the following arguments are required: --alphas" in captured.err


def test_classify_help_shows_the_system_spellings(capsys):
    assert main(["classify", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--system {b4,d4,d5}" in out
    assert "System.B4" not in out


def test_unknown_system_is_named_with_the_spellings(capsys, tmp_path):
    expected = "unknown system 'q7'; expected b4, d4 or d5"
    assert main(["classify", "--system", "q7", "--alphas", "0,0,0,0,1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --system: {expected}" in captured.err

    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "classify", "system": "q7",
                                 "alphas": "0,0,0,0,1/2"}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2
    assert expected in json.loads(out)["error"]


def test_batch_help_line_gets_one_error_line(capsys, tmp_path):
    lines = [
        {"subcommand": "-h"},
        {"subcommand": "classify", "system": "b4", "alphas": ["0", "0", "0", "0", "1/2"]},
    ]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    assert "'-h'" in rows[0]["error"]
    assert rows[1] == {"verdict": "not_exists"}


# the B4 seed solution at the parameters below, and malformed copies of it
_ALPHAS = "1/4,1/4,1/4,-1/4,1/4"
_SEED = {"chart": "affine", "x": {"num": [], "den": ["1"]}, "y": {"num": ["1/2"], "den": ["1"]},
         "z": {"num": ["0", "2"], "den": ["1"]}, "w": {"num": [], "den": ["1"]}}
_MALFORMED = {
    "missing component": ({k: v for k, v in _SEED.items() if k != "w"}, "'w'"),
    "number coefficient": ({**_SEED, "y": {"num": [0.5], "den": ["1"]}}, "'y': field 'num'"),
    "zero denominator": ({**_SEED, "z": {"num": ["1"], "den": ["0"]}}, "'z': field 'den'"),
}


@pytest.mark.parametrize("case", [*_MALFORMED, "text 1/0"])
@pytest.mark.parametrize("command", ["verify", "transform", "expand"])
def test_malformed_input_is_one_json_error_line(capsys, tmp_path, command, case):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(_MALFORMED[case][0] if case in _MALFORMED else _SEED))
    alphas = "1/0,1/4,1/4,-1/4,auto" if case == "text 1/0" else _ALPHAS
    request = {"verify": {"system": "b4", "alphas": alphas},
               "transform": {"system": "b4", "alphas": alphas, "word": "s1"},
               "expand": {"at": "c=1/0" if case == "text 1/0" else "0"}}[command]
    request["solution"] = str(solution)
    expected = _MALFORMED[case][1] if case in _MALFORMED else "'1/0'"

    code = main([command, *(f"--{key}={value}" for key, value in request.items())])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1 and expected in json.loads(lines[0])["error"]
    assert "Traceback" not in captured.err

    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": command, **request}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2 and json.loads(out) == json.loads(lines[0])
