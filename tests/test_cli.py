"""Command-line front end: parsing, exit codes, JSON round-trips."""

import io
import json
from fractions import Fraction as F

import pytest

from conftest import from_lattice
from sasano import System, finite_point, laurent_expand, rat, rat_str
from sasano.classify import construct_rational_solution, seed_solution
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


@pytest.mark.parametrize("system", list(System))
def test_construct_then_verify_at_lattice_distance_six(capsys, tmp_path, system):
    # at (1/2 + 6, 1/3, 6, 2/5) the components reach degree 300 and
    # coefficients of 1,600 bits, where Horner's scheme on float
    # coefficients overflowed and failed true solutions in B4 and D5
    p = from_lattice(system, F(13, 2), F(1, 3), 6, F(2, 5))
    args = ("--system", system.value, "--alphas=" + ",".join(rat_str(a) for a in p.alphas))
    code, data = run_json(capsys, "construct", *args)
    assert code == 0 and data["verdict"] == "exists" and data["chart"] == "affine"
    sol_file = tmp_path / "solution.json"
    sol_file.write_text(json.dumps(data["solution"]))
    code, out = run(capsys, "verify", *args, "--solution", str(sol_file))
    assert code == 0 and "PASS numeric_crosscheck" in out.splitlines()
    assert "FAIL" not in out


# str and int refuse more than 4,300 digits by default (sys.get_int_max_str_digits())

@pytest.fixture(scope="module")
def d4_distance_six(tmp_path_factory):
    sol = construct_rational_solution(from_lattice(System.D4, F(13, 2), F(1, 3), 6, F(2, 5))).solution
    path = tmp_path_factory.mktemp("d4") / "solution.json"
    path.write_text(json.dumps(sol.to_json()))
    return sol, path


@pytest.mark.parametrize("order", [30, 60])
def test_expand_writes_coefficients_of_any_length(capsys, d4_distance_six, order):
    sol, path = d4_distance_six
    code, out = run_json(capsys, "expand", "--solution", str(path), "--at", "c=1/3",
                         "--order", str(order), "--json")
    assert code == 0
    for name, comp in zip("xyzw", sol.components()):
        series = laurent_expand(comp, finite_point(F(1, 3)), order)
        assert (out[name]["lead"], out[name]["order"]) == (series.lead, series.order)
        assert [rat(c) for c in out[name]["coeffs"]] == list(series.coeffs)
    assert max(len(c) for series in out.values() for c in series["coeffs"]) > 4300


def test_batch_verify_reads_and_writes_alphas_of_any_length(capsys, tmp_path):
    # lattice coordinates (1/2, 1/3, 0, 1 + 10**-5000): standard form, so
    # the seed solution itself, with coefficients of 5,001 digits
    params = from_lattice(System.B4, F(1, 2), F(1, 3), 0, 1 + F(1, 10 ** 5000))
    sol = seed_solution(params)
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(sol.to_json()))
    alphas = [rat_str(a) for a in params.alphas]
    assert max(len(a) for a in alphas) > 10_000
    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "verify", "system": "b4", "alphas": ",".join(alphas),
                                 "solution": str(solution), "json": True}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    data = json.loads(out)
    assert code == 0 and data["pass"] and all(data["checks"].values())
    assert set(data["checks"]) >= {"residual", "numeric_crosscheck", "hamiltonian_integrality"}


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


def test_transform_folds_the_word_as_written(capsys, tmp_path):
    # s1 s1 is the identity in the group, but its first s1 divides by y == 0
    # with a1 != 0: transform does not reduce the word, and exits 3
    bad = {"chart": "affine", "x": {"num": ["0", "1"], "den": ["1"]}, "y": {"num": [], "den": ["1"]},
           "z": {"num": ["0", "1"], "den": ["1"]}, "w": {"num": ["1"], "den": ["1"]}}
    sol_file = tmp_path / "bad.json"
    sol_file.write_text(json.dumps(bad))
    code, out = run(capsys, "transform", "--system", "b4", "--alphas", "0,1/2,1/8,-1/4,3/8",
                    "--word", "s1 s1", "--solution", str(sol_file))
    assert code == 3
    assert "error" in json.loads(out)


def test_a_solution_that_is_not_json_is_named(capsys, tmp_path, monkeypatch):
    sol_file = tmp_path / "broken.json"
    sol_file.write_text("not json")
    code, out = run_json(capsys, "verify", "--system", "d4", "--alphas", "1,1,1,1,auto",
                         "--solution", str(sol_file))
    assert code == 2
    assert out["error"].startswith(f"solution {str(sol_file)!r} is not JSON: Expecting value")
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, out = run_json(capsys, "expand", "--solution", "-", "--at", "0")
    assert code == 2
    assert out["error"].startswith("solution on stdin is not JSON: Expecting value")
    # a --batch line reports it on its own line, exit code 2
    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "expand", "solution": str(sol_file), "at": "0"}) + "\n"
                     + json.dumps({"subcommand": "classify", "system": "b4",
                                   "alphas": ["0", "0", "0", "0", "1/2"]}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 2
    assert rows[0]["error"].startswith(f"solution {str(sol_file)!r} is not JSON")
    assert rows[1] == {"verdict": "not_exists"}


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
        # JSON integers, as solution files take them
        {"subcommand": "classify", "system": "b4", "alphas": [0, 0, 0, 0, "1/2"]},
    ]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"verdict": "exists", "condition": 1}
    assert rows[1] == {"verdict": "not_exists"}
    assert rows[2]["verdict"] == "exists" and rows[2]["chart"] == "r1"
    assert rows[3] == {"verdict": "not_exists"}



def test_batch_reads_json_integer_alphas_of_any_length(capsys, tmp_path):
    # 5,000 digits, past int()'s default limit of 4,300; json.dumps would
    # refuse to write them, so the lines are written by hand
    digits = "7" * 4999 + "1"
    lines = [f'{{"subcommand": "transform", "system": "b4", "word": "s1 pi1", '
             f'"alphas": [{alphas}, 0, 0, "auto"]}}'
             for alphas in (f"{digits}, -{digits}", f'"{digits}", "-{digits}"')]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    as_integers, as_strings = out.splitlines()
    assert code == 0 and as_integers == as_strings
    assert json.loads(as_integers)["alphas"][0].lstrip("-").startswith(digits[:-1])


@pytest.mark.parametrize("value", [0.5, True, None, [1]])
def test_batch_alphas_that_are_no_integer_or_string_are_named(capsys, tmp_path, value):
    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "classify", "system": "b4",
                                 "alphas": [0, 0, 0, value, "1/2"]}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2
    assert json.loads(out) == {"error": f"alphas: {value!r} is neither an integer nor a string"}


@pytest.mark.parametrize("alphas", [["-11/6,13/6", "-5/3", "8/5", "auto"],
                                    ["-11/6", "13/6", "-5/3,8/5", "0", "auto"]])
def test_batch_alphas_entry_with_a_comma_is_named(capsys, tmp_path, alphas):
    # each list entry is one value: joined with commas, an entry holding one
    # would count as two, so four entries would pass for five
    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "classify", "system": "b4", "alphas": alphas}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    entry = next(a for a in alphas if "," in a)
    assert code == 2
    assert json.loads(out) == {"error": f"alphas: {entry!r} holds a comma; a list entry is one value"}


@pytest.fixture(scope="module")
def d4_verify_request(tmp_path_factory):
    p = from_lattice(System.D4, F(5, 2), F(1, 3), 1, F(2, 5))
    path = tmp_path_factory.mktemp("d4") / "solution.json"
    path.write_text(json.dumps(construct_rational_solution(p).solution.to_json()))
    return {"subcommand": "verify", "system": "d4", "alphas": [rat_str(a) for a in p.alphas],
            "solution": str(path)}


@pytest.mark.parametrize("value", ["false", "no", 1, 0, None])
def test_batch_json_that_is_no_boolean_is_named(capsys, tmp_path, d4_verify_request, value):
    # only a JSON boolean picks the output: "false" and "no" are truthy strings
    batch = tmp_path / "requests.jsonl"
    lines = [{**d4_verify_request, "json": flag} for flag in (value, False, True)]
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    refused, *text, report = out.splitlines()
    assert code == 2 and json.loads(refused) == {"error": f"json: {value!r} is neither true nor false"}
    assert text and all(line.startswith("PASS ") for line in text) and json.loads(report)["pass"]


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
    import sasano.verify

    monkeypatch.setattr(sasano.verify, "pole_free_interval", lambda sol: (1, 2))
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


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_batch_file_is_one_json_error_line(capsys, tmp_path, kind):
    path = tmp_path / "requests.jsonl"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b'{"subcommand": "classify"}\n\xff\xfe\n')
    code = main(["--batch", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(f"cannot read --batch file {str(path)!r}: ")
    assert captured.err == ""


def test_batch_line_that_is_no_request_object_is_named(capsys, tmp_path):
    lines = ["[1, 2]", '"x"', "null", "{}", '{"subcommand": 5}', '{"system": "b4"}',
             json.dumps({"subcommand": "classify", "system": "b4", "alphas": "0,0,0,0,1/2"})]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == len(lines)
    for row in rows[:-1]:
        assert row == {"error": 'batch line is not a JSON object with a "subcommand" string'}
    assert rows[-1] == {"verdict": "not_exists"}


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


@pytest.mark.parametrize("subcommand", ["classify", "construct", "transform", "verify", "expand",
                                        "report"])
def test_json_help_says_only_verify_changes_its_output(capsys, subcommand):
    assert main([subcommand, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert ("output is always JSON" in out) is (subcommand != "verify")
    assert ("JSON instead of PASS/FAIL lines" in out) is (subcommand == "verify")


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
    "string for a list": ({**_SEED, "z": {"num": "12", "den": ["1"]}},
                          "'z': field 'num': '12' is not a list"),
    "bool coefficient": ({**_SEED, "x": {"num": [True], "den": ["1"]}},
                         "'x': field 'num': not an exact rational: True"),
    "unknown chart": ({**_SEED, "chart": "q7"},
                      "field 'chart': 'q7' is not one of affine, m3, r1, r3, r5"),
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


@pytest.mark.parametrize("system, alphas, chart", [
    ("b4", _ALPHAS, "r1"), ("d4", "1/4,1/4,1/8,1/4,0", "m3"), ("d5", "0,1/4,1/4,-1/4,1/4", "m3"),
])
def test_verify_names_a_chart_of_another_system(capsys, tmp_path, system, alphas, chart):
    # the chart is checked before the residual looks up its inverted sides
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({**_SEED, "chart": chart}))
    request = {"system": system, "alphas": alphas, "solution": str(solution)}
    expected = {"error": f"chart {chart} is not a {system} chart"}

    code = main(["verify", *(f"--{key}={value}" for key, value in request.items())])
    captured = capsys.readouterr()
    assert code == 2 and json.loads(captured.out) == expected
    assert "Traceback" not in captured.err

    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "verify", **request}) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2 and json.loads(out) == expected


def test_verify_fails_the_crosscheck_for_values_outside_the_float_range(capsys, tmp_path):
    # x = 10**400 has no float: the check fails, in a single request and in a batch
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({**_SEED, "x": {"num": [str(10 ** 400)], "den": ["1"]}}))
    args = ["verify", "--system=b4", f"--alphas={_ALPHAS}", f"--solution={solution}"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1 and "FAIL numeric_crosscheck" in captured.out.splitlines()
    assert "Traceback" not in captured.err
    code, report = run_json(capsys, *args, "--json")
    assert code == 1 and report["checks"]["numeric_crosscheck"] is False

    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"subcommand": "verify", "system": "b4", "alphas": _ALPHAS,
                                 "solution": str(solution), "json": True}) + "\n")
    code, report = run_json(capsys, "--batch", str(batch))
    assert code == 1 and report["checks"]["numeric_crosscheck"] is False


def test_batch_names_a_request_key_no_subcommand_takes(capsys, tmp_path):
    # "ordre" for "order" is a usage error as an option, and so in a batch
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(_SEED))
    request = {"solution": str(solution), "at": "inf"}
    assert main(["expand", *(f"--{key}={value}" for key, value in request.items()),
                 "--ordre=1", "--json"]) == 2
    capsys.readouterr()

    lines = [{"subcommand": "expand", **request, "ordre": 1, "json": True},
             {"subcommand": "expand", **request, "order": 1, "json": True}]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run(capsys, "--batch", str(batch))
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"error": "unknown request key 'ordre'; expected subcommand, json, "
                                "system, alphas, word, solution, at, order"}
    assert rows[1]["x"]["order"] == -1 and set(rows[1]) == set("xyzw")


def test_alphas_starting_with_minus_may_follow_as_their_own_token(capsys, tmp_path):
    # (1/2 + 1, 1/3, 1, 2/5) in B4's lattice coordinates: a0 = -5/6
    alphas = "-5/6,7/6,-2/3,3/5,2/5"
    code, data = run_json(capsys, "construct", "--system", "b4", f"--alphas={alphas}")
    assert code == 0 and data["verdict"] == "exists"
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(data["solution"]))
    extra = {"classify": (), "construct": (), "transform": ("--word", "s1 T2"),
             "verify": ("--solution", str(solution)), "report": ("--solution", str(solution))}
    for sub, rest in extra.items():
        joined = run(capsys, sub, "--system", "b4", f"--alphas={alphas}", *rest)
        separate = run(capsys, sub, "--system", "b4", "--alphas", alphas, *rest)
        assert separate == joined and joined[0] == 0, sub
        # an abbreviation that argparse accepts takes the value the same way
        assert run(capsys, sub, "--system", "b4", "--alph", alphas, *rest) == joined, sub
    # an option after --alphas is still no value for it
    assert main(["classify", "--system", "b4", "--alphas", "--json"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_expand_at_zero(capsys, tmp_path):
    solution = tmp_path / "seed.json"
    solution.write_text(json.dumps(_SEED))
    code, out = run_json(capsys, "expand", "--solution", str(solution), "--at", "0", "--order", "2")
    assert code == 0
    assert out["y"] == {"point": "0", "lead": 0, "coeffs": ["1/2", "0", "0"], "order": 2}
    assert out["z"] == {"point": "0", "lead": 1, "coeffs": ["2", "0"], "order": 2}
    assert out["x"]["coeffs"] == out["w"]["coeffs"] == []


def test_expand_names_an_unknown_point(capsys, tmp_path):
    solution = tmp_path / "seed.json"
    solution.write_text(json.dumps(_SEED))
    code, out = run_json(capsys, "expand", "--solution", str(solution), "--at", "1/2")
    assert code == 2
    assert out == {"error": "--at must be one of: 0, inf, c=VALUE"}


def test_solution_dash_reads_stdin(capsys, tmp_path, monkeypatch):
    solution = tmp_path / "seed.json"
    solution.write_text(json.dumps(_SEED))
    from_file = run(capsys, "expand", "--solution", str(solution), "--at", "inf")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_SEED)))
    assert run(capsys, "expand", "--solution", "-", "--at", "inf") == from_file
    assert from_file[0] == 0


def test_no_subcommand_prints_usage_and_exits_two(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sasano")


def test_transform_reads_its_solution_file_before_its_word(capsys, tmp_path):
    # the alphas are read first, then the solution, then the word
    missing = str(tmp_path / "missing.json")
    code, out = run_json(capsys, "transform", "--system", "b4", "--alphas", _ALPHAS,
                         "--word", "q9", "--solution", missing)
    assert code == 2 and "missing.json" in out["error"]
    code, out = run_json(capsys, "transform", "--system", "b4", "--alphas", "1,2,3",
                         "--word", "q9", "--solution", missing)
    assert code == 2 and "--alphas needs five" in out["error"]


@pytest.mark.parametrize("command", ["transform", "verify"])
def test_an_empty_solution_path_is_a_missing_file(capsys, command):
    extra = ("--word", "s1") if command == "transform" else ()
    code, out = run_json(capsys, command, "--system", "b4", "--alphas", _ALPHAS, *extra,
                         "--solution=")
    assert code == 2
    assert out == {"error": "[Errno 2] No such file or directory: ''"}
