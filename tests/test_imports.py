"""Import hygiene: no subcommand loads numpy or scipy, not even `verify`
on an affine solution, whose numeric cross-check runs in plain floats, nor
`report` and `verify` on a solution whose pole search meets extreme
coefficients past 10**12.  The compiled vector fields are built lazily:
importing the package, `classify` and `expand` build none.

Each check runs in a fresh interpreter, because the test process itself
may already hold both modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
ints = den.gcd(den.derivative(), cofactors=True)[1]._int_form()[0]
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
