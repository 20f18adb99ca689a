"""Import hygiene: no subcommand loads numpy or scipy, not even `verify`
on an affine solution, whose numeric cross-check runs in plain floats, nor
`report` and `verify` on a solution whose pole search meets extreme
coefficients past 10**12.  The compiled vector fields are built lazily:
importing the package, `classify` and `expand` build none.  No module
imports `typing`.

Each check runs in a fresh interpreter, because the test process itself
may already hold both modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from sasano import ParameterTuple, System, seed_solution

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

import sasano
from sasano import systems
from sasano.cli import main
from sasano.exactmath import rf_from_json

workdir = Path(sys.argv[1])
alphas = "--alphas=1/4,1/4,1/4,-1/4,1/4"


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code, out.getvalue())
    return out.getvalue()


def heavy():
    return sorted(name for name in ("numpy", "scipy") if name in sys.modules)


def programs():
    return sorted("/".join(part.value if hasattr(part, "value") else part for part in key)
                  for key in systems._PROGRAMS)


report = {"import": heavy(), "import_programs": programs()}
run("classify", "--system", "b4", alphas)
report["classify_programs"] = programs()
data = json.loads(run("construct", "--system", "b4", alphas, "--json"))
seed = workdir / "seed.json"
seed.write_text(json.dumps(data["solution"]))
run("classify", "--system", "d5", "--alphas=0,1/4,1/4,-1/4,auto")
run("transform", "--system", "b4", alphas, "--word", "s3", "--solution", str(seed))
before_expand = programs()
run("expand", "--solution", str(seed), "--at", "c=1/2", "--order", "2")
report["expand_built"] = sorted(set(programs()) - set(before_expand))
run("report", "--system", "b4", alphas, "--solution", str(seed))
report["exact_subcommands"] = heavy()
report["verify_output"] = run("verify", "--system", "b4", alphas, "--solution", str(seed))
report["verify"] = heavy()
report["verify_programs"] = programs()

# the ROADMAP point (1/2 + 2, 1/3, 2, 2/5): the square-free part of x's
# denominator has both extreme coefficients past 10**12
far = "--alphas=-11/6,13/6,-5/3,8/5,2/5"
data = json.loads(run("construct", "--system", "b4", far, "--json"))
(workdir / "far.json").write_text(json.dumps(data["solution"]))
den = rf_from_json(data["solution"]["x"]).den
ints = den.gcd(den.derivative(), cofactors=True)[1]._ints[0]
report["far_extremes"] = [abs(ints[0]), abs(ints[-1])]
run("report", "--system", "b4", far, "--solution", str(workdir / "far.json"))
report["far_verify_output"] = run("verify", "--system", "b4", far, "--solution", str(workdir / "far.json"))
report["far"] = heavy()
print(json.dumps(report))
"""


def test_no_subcommand_loads_numpy_or_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["import_programs"] == report["classify_programs"] == []
    assert report["expand_built"] == []
    # construct checks its B4 result (pair programs), verify adds the float one
    assert "b4/affine/float" in report["verify_programs"]
    assert len(report["verify_programs"]) <= 14
    assert report["exact_subcommands"] == []
    assert "PASS numeric_crosscheck" in report["verify_output"].splitlines()
    assert report["verify"] == []
    assert min(report["far_extremes"]) > 10 ** 12
    assert "PASS finite_pole_residues" in report["far_verify_output"].splitlines()
    assert report["far"] == []


# the public names of the package, each of which must resolve
PUBLIC = sorted("""
    Chart ChartMismatch ClassificationResult Generator GeneratorWord INFINITY IntegratorFailed
    InvariantReport LaurentSeries NormalizationFailed NotStandardForm ParameterTuple PoleOnPath
    Polynomial RF RationalFunction SolutionTuple System UndefinedAction ZERO_POINT act_params
    act_solution act_word backlund classify condition_holds construct_rational_solution
    equivalence_map exactmath finite_point invariant_report invert_word is_solution
    lattice_coordinates laurent_expand normalize_to_standard numeric_crosscheck parse_word
    pole_free_interval rat rat_str rational_roots residue seed_solution shift_word
    solve_last_alpha systems verify verify_solution word
""".split())

GRAPH_CHILD = r"""
import contextlib, io, json, sys, types

def loaded():
    return sorted(name for name in sys.modules
                  if name.startswith("sasano.") or name in ("dataclasses", "inspect"))

mode = sys.argv[1]
if mode == "import":
    import sasano
    print(json.dumps(loaded()))
elif mode == "names":
    import sasano
    # the submodule names first, before resolving another name imports them
    kinds = [type(getattr(sasano, name, None)).__name__
             for name in ("backlund", "exactmath", "systems", "verify")]
    names = sorted(sasano.__all__)
    listed = sorted(name for name in dir(sasano) if not name.startswith("_"))
    missing = [name for name in names if getattr(sasano, name, None) is None]
    print(json.dumps({"kinds": kinds, "all": names, "dir": listed, "missing": missing}))
elif mode == "classify-first":
    import sasano.classify
    from sasano import classify
    import sasano.systems
    print(json.dumps([isinstance(obj, types.FunctionType)
                      for obj in (sasano.classify, classify, sasano.__dict__["classify"])]))
else:
    from sasano.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[2:])
    print(json.dumps({"code": code, "loaded": loaded()}))
"""


def _graph_child(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GRAPH_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_child_imports_only_what_it_runs(tmp_path):
    """`import sasano` loads no submodule and no `dataclasses`; `expand`,
    `verify` and `report` load neither `backlund` nor `classify`; the
    package lists and resolves its public names; and `sasano.classify` is
    the function whichever import came first."""
    assert _graph_child("import") == []

    names = _graph_child("names")
    assert names["kinds"] == ["module"] * 4
    assert names["all"] == names["dir"] == PUBLIC
    assert names["missing"] == []

    assert _graph_child("classify-first") == [True, True, True]

    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"chart": "affine", "x": {"num": [], "den": ["1"]},
                                "y": {"num": ["1/2"], "den": ["1"]},
                                "z": {"num": ["0", "2"], "den": ["1"]},
                                "w": {"num": [], "den": ["1"]}}))
    alphas = "--alphas=1/4,1/4,1/4,-1/4,1/4"
    for argv in (["expand", f"--solution={seed}", "--at=c=1/2"],
                 ["verify", "--system=b4", alphas, f"--solution={seed}"],
                 ["report", "--system=b4", alphas, f"--solution={seed}"]):
        child = _graph_child("cli", *argv)
        assert child["code"] == 0, argv
        assert "sasano.backlund" not in child["loaded"], argv
        assert "sasano.classify" not in child["loaded"], argv
        assert "dataclasses" not in child["loaded"] and "inspect" not in child["loaded"], argv


def test_only_verify_and_report_import_verify(tmp_path):
    """`classify`, `construct`, `transform` and `expand` children leave
    `sasano.verify` unimported, so they never compile it."""
    seed = tmp_path / "seed.json"
    p = ParameterTuple(System.B4, ("1/4", "1/4", "1/4", "-1/4", "1/4"))
    seed.write_text(json.dumps(seed_solution(p).to_json()))
    alphas = "--alphas=1/4,1/4,1/4,-1/4,1/4"
    for argv, imported in ((["classify", "--system=b4", alphas], False),
                           (["construct", "--system=b4", alphas], False),
                           (["transform", "--system=b4", alphas, "--word=s3 T1",
                             f"--solution={seed}"], False),
                           (["expand", f"--solution={seed}", "--at=inf"], False),
                           (["report", "--system=b4", alphas, f"--solution={seed}"], True)):
        child = _graph_child("cli", *argv)
        assert child["code"] == 0, argv
        assert ("sasano.verify" in child["loaded"]) == imported, argv


TYPING_CHILD = r"""
import contextlib, io, json, sys
from sasano.cli import main

alphas = "--alphas=1/4,1/4,1/4,-1/4,1/4"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["classify", "--system=b4", alphas]),
             main(["verify", "--system=b4", alphas, f"--solution={sys.argv[1]}"])]
print(json.dumps({"codes": codes, "typing": "typing" in sys.modules}))
"""


def test_classify_and_verify_do_not_import_typing(tmp_path):
    """`import typing` costs tens of milliseconds; the annotations are
    postponed and need none of it.  `python -S` keeps site hooks, which
    may import `typing` themselves, out of the child."""
    seed = tmp_path / "seed.json"
    p = ParameterTuple(System.B4, ("1/4", "1/4", "1/4", "-1/4", "1/4"))
    seed.write_text(json.dumps(seed_solution(p).to_json()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", TYPING_CHILD, str(seed)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "typing": False}
