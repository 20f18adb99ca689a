"""The three workloads: their seeded inputs, one operation, and its check.

Each workload builds `min_cycles` cycles of operations from the seed.
Every cycle holds the same mix; the timed loop runs whole cycles, one
operation at a time, and starts over at the first cycle if time remains.
`run` is the operation as a user calls it, `run_traced` the same work
split into public calls with spans around them, and `check` the
correctness gate, which runs outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from sasano import (
    Chart,
    ClassificationResult,
    GeneratorWord,
    INFINITY,
    ParameterTuple,
    PoleOnPath,
    SolutionTuple,
    System,
    ZERO_POINT,
    act_word,
    classify,
    construct_rational_solution,
    finite_point,
    invariant_report,
    invert_word,
    is_solution,
    laurent_expand,
    normalize_to_standard,
    numeric_crosscheck,
    parse_word,
    pole_free_interval,
    rat,
    rat_str,
    seed_solution,
    verify_solution,
)
from sasano.classify import is_standard_form
from sasano.exactmath import series_to_json
from sasano.systems import parse_system

import points

NUMERIC_TOLERANCE = 1e-6  # the threshold `sasano verify` applies


@dataclass
class Item:
    """One operation of a cycle: a label for its stratum plus its input."""

    kind: str
    params: object = None
    solution: object = None
    expect: object = None
    extra: dict = field(default_factory=dict)


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


# -- construct ------------------------------------------------------------------

class Construct:
    """In-process `construct_rational_solution` on seeded lattice points.

    Per system each cycle holds DISTANCES[n] fresh points at lattice
    distance n, all of the ROADMAP table's shape (1/2 + n, g, n, g') with
    seeded generic g, g', plus NO_SOLUTION points without an
    integer/half-odd split.  The shape fixes the witness word for each n,
    so the cost of a cycle depends little on the seed.  The traced run
    adds the ROADMAP table itself (`sweep`), n = 1..4.
    """

    name = "construct"
    min_cycles = 3
    tail_percentile = 80
    DISTANCES = {1: 3, 2: 2, 3: 1}
    NO_SOLUTION = 1
    SWEEP = (1, 2, 3, 4)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # Cost grows with the coefficient size that the denominators of g
        # and g' set: one n = 3 construction takes 0.9-1.8 s as they vary.
        # So that the cost of a run depends little on the seed, a run
        # draws each denominator equally often per system, n and
        # coordinate (every DISTANCES count times min_cycles is a multiple
        # of three), and the seed picks their order, numerators and offsets.
        self._denominators = {(system, n): self._denominator_pairs(rng, count * self.min_cycles)
                              for system in points.SYSTEMS
                              for n, count in self.DISTANCES.items()}
        self.cycles = [self._cycle(rng) for _ in range(self.min_cycles)]

    @staticmethod
    def _denominator_pairs(rng, count: int) -> list:
        pair = []
        for _ in range(2):
            column = list(points.GENERIC_DENOMINATORS) * (count // len(points.GENERIC_DENOMINATORS))
            rng.shuffle(column)
            pair.append(column)
        return list(zip(*pair))

    def _cycle(self, rng) -> list:
        items = []
        for system in points.SYSTEMS:
            for n, count in self.DISTANCES.items():
                items += [self._item(system, n, points.scaling_point(
                              rng, system, n, self._denominators[system, n].pop()))
                          for _ in range(count)]
            items += [Item(f"{system.name}.none", points.no_solution_point(rng, system),
                           expect=False) for _ in range(self.NO_SOLUTION)]
        rng.shuffle(items)
        return items

    @staticmethod
    def _item(system, n, p) -> Item:
        return Item(f"{system.name}.n{n}", p, expect=True, extra={"n": n})

    def sweep(self):
        return [self._item(system, n, points.reference_point(system, n))
                for n in self.SWEEP for system in points.SYSTEMS]

    def run(self, item: Item):
        return construct_rational_solution(item.params)

    def run_traced(self, item: Item, tracer):
        p = item.params
        with tracer.span("classify.classify"):
            verdict = classify(p)
        if not verdict.exists:
            return verdict
        with tracer.span("classify.normalize"):
            to_standard, q = normalize_to_standard(p)
        tracer.count("classify.witness_tokens", len(to_standard))
        with tracer.span("classify.seed_solution"):
            sol = seed_solution(q)
        params = q
        peak_degree = 0
        for token in invert_word(to_standard).tokens:
            degree = max(c.den.degree for c in sol.components())
            with tracer.span("backlund.act_word", degree=degree):
                params, sol = act_word(GeneratorWord(p.system, (token,)), params, sol)
            tracer.count("backlund.tokens")
            peak_degree = max(peak_degree, max(c.den.degree for c in sol.components()))
            tracer.peak("backlund.peak_coeff_bits", _coeff_bits(sol))
        tracer.peak("backlund.peak_den_degree", peak_degree)
        tracer.peak(f"backlund.{p.system.name}.n{item.extra['n']}.peak_den_degree", peak_degree)
        with tracer.span("systems.is_solution"):
            ok = is_solution(p, sol)
        if params != p or not ok:
            raise RuntimeError("pulled-back seed does not solve the system")
        return ClassificationResult(p, True, verdict.matched_condition, to_standard, sol)

    def check(self, item: Item, result) -> bool:
        if result.exists != item.expect:
            return False
        if not result.exists:
            return result.solution is None
        p, sol = item.params, result.solution
        q, _ = act_word(result.witness_word, p)
        return is_standard_form(q) and verify_solution(p, sol)


def _coeff_bits(sol) -> int:
    bits = 0
    for comp in sol.components():
        for poly in (comp.num, comp.den):
            for c in poly.coeffs:
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


# -- verify ---------------------------------------------------------------------

def verify_checks(params, sol, tracer=None):
    """The check sequence of `sasano verify --json`: (checks, invariants, skipped)."""
    with _span(tracer, "verify.verify_solution"):
        checks = {"residual": verify_solution(params, sol)}
    invariants = None
    if params.system is System.B4 and sol.chart is Chart.AFFINE:
        with _span(tracer, "verify.invariant_report"):
            report = invariant_report(params, sol)
        invariants = report.to_json()
        checks["laurent_integrality_x"] = report.integrality_a
        checks["series_residue_sum_yw"] = report.b_inf_m1_plus_d_inf_m1 == 0
        checks["hamiltonian_integrality"] = report.integrality_h
        checks["finite_pole_residues"] = all(f for _, _, f in report.finite_pole_residues)
    skipped = False
    if sol.chart is Chart.AFFINE:
        try:
            with _span(tracer, "verify.pole_free_interval"):
                t0, t1 = pole_free_interval(sol)
            with _span(tracer, "verify.numeric_crosscheck"):
                deviation = numeric_crosscheck(params, sol, t0, t1)
            checks["numeric_crosscheck"] = deviation <= NUMERIC_TOLERANCE
        except PoleOnPath:
            skipped = True
        except RuntimeError:
            # the integrator gives up when the ODE through a non-solution's
            # initial value blows up inside the interval; `sasano verify`
            # lets this error escape, here it fails the numeric check
            checks["numeric_crosscheck"] = False
    return checks, invariants, skipped


class Verify:
    """The `sasano verify` check sequence, in process, on prebuilt solutions.

    Solutions are built in set-up, in every system, at the ROADMAP
    reference points (1/2 + n, 1/3, n, 2/5):
    - n = 1, whose denominators have extreme coefficients under 10^12, so
      `rational_roots` searches divisors by trial division;
    - n = 3, whose extreme coefficients exceed 10^12, so `rational_roots`
      takes the numeric path.
    Seeded points add one solution in each non-affine chart.  Each of
    these inputs also appears as a corrupted copy, one coefficient off,
    which must FAIL.  The n = 3 solutions decide most of the cost, and
    their pole search costs whatever the pole positions make it; seeded
    ones moved ops_per_s by a sixth from seed to seed, so these stay fixed.
    Last come the seed solutions themselves (n = 0) at seeded standard-form
    points, without corrupted copies.  They cost a tenth of an n = 1
    check, so with them the median of the 23 inputs is the D4 n = 1 pair
    rather than the gap between the D4 and B4 n = 1 solutions, whose costs
    differ by half; in that gap it spread by up to 0.15 over ten seeds.
    """

    name = "verify"
    min_cycles = 3
    tail_percentile = 80

    def __init__(self, seed: int):
        rng = random.Random(seed)
        genuine = []
        for system in points.SYSTEMS:
            for n in (1, 3):
                p = points.reference_point(system, n)
                sol = construct_rational_solution(p).solution
                genuine.append(Item(f"{system.name}.n{n}", p, sol))
        for system, chart in points.CHARTS:
            p, sol = points.chart_point(rng, system, chart)
            genuine.append(Item(f"{system.name}.{chart.value}", p, sol))
        items = []
        for item in genuine:
            item.expect = True
            items.append(item)
            items.append(Item(item.kind + ".corrupt", item.params,
                              points.corrupt(item.solution), expect=False))
        for system in points.SYSTEMS:
            p = points.standard_point(rng, system)
            items.append(Item(f"{system.name}.n0", p, seed_solution(p), expect=True))
        rng.shuffle(items)
        self.cycles = [items]

    def sweep(self):
        return []

    def run(self, item: Item):
        return verify_checks(item.params, item.solution)

    def run_traced(self, item: Item, tracer):
        out = verify_checks(item.params, item.solution, tracer)
        tracer.count("verify.skipped", out[2])
        tracer.count("verify.rejects", not all(out[0].values()))
        return out

    def check(self, item: Item, out) -> bool:
        return all(out[0].values()) == item.expect


# -- cli ------------------------------------------------------------------------

CHILD_STUB = (
    "import sys, runpy, sasano; "
    "sys.stderr.write('sasano-file=' + sasano.__file__ + '\\n'); "
    "runpy.run_module('sasano.cli', run_name='__main__', alter_sys=True)"
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """Fresh `python -m sasano.cli` processes, one request each, plus one
    `--batch` process carrying the same requests.

    Children start through CHILD_STUB, which imports the package, reports
    where it was found, and runs `sasano.cli` as `__main__` exactly as
    `python -m sasano.cli` does.
    """

    name = "cli"
    min_cycles = 4
    tail_percentile = 60
    SUBCOMMANDS = ("classify", "construct", "transform", "verify", "expand", "report")

    def __init__(self, seed: int, src: Path, workdir: Path):
        rng = random.Random(seed)
        self.src = src
        self.env = child_env(src)
        self.workdir = workdir
        self._files = {}
        self._expected = {}
        requests = [getattr(self, "_request_" + sub)(rng) for sub in self.SUBCOMMANDS]
        rng.shuffle(requests)
        # `sasano --batch` turns each request back into `--alphas VALUE`
        # arguments, and argparse takes a VALUE starting with "-" for an
        # option, so at this commit such requests fail in batch mode (exit
        # 2, no output line).  They run as single requests, which pass
        # `--alphas=VALUE`, and stay out of the batch.
        batch = [r for r in requests if not r.get("alphas", "").startswith("-")]
        batch_file = workdir / "batch.jsonl"
        batch_file.write_text("".join(json.dumps(r) + "\n" for r in batch))
        items = [Item("cli." + r["subcommand"], extra={"requests": [r]}) for r in requests]
        items.append(Item("cli.batch", extra={"requests": batch, "file": str(batch_file)}))
        self.cycles = [items]

    def sweep(self):
        return []

    # request builders: each returns a batch-format request dict
    def _solution_file(self, sol) -> str:
        text = json.dumps(sol.to_json())
        if text not in self._files:
            path = self.workdir / f"solution{len(self._files)}.json"
            path.write_text(text)
            self._files[text] = str(path)
        return self._files[text]

    @staticmethod
    def _base(sub, p) -> dict:
        return {"subcommand": sub, "system": p.system.value, "alphas": points.alphas_arg(p),
                "json": True}

    def _request_classify(self, rng):
        system = rng.choice(points.SYSTEMS)
        p = (points.lattice_point(rng, system, rng.randint(0, 2)) if rng.random() < 0.5
             else points.no_solution_point(rng, system))
        return self._base("classify", p)

    def _request_construct(self, rng):
        return self._base("construct", points.lattice_point(rng, rng.choice(points.SYSTEMS),
                                                          rng.randint(0, 1)))

    def _seed(self, rng, system=None):
        p = points.standard_point(rng, system or rng.choice(points.SYSTEMS))
        return p, seed_solution(p)

    def _request_transform(self, rng):
        p, sol = self._seed(rng)
        request = self._base("transform", p)
        request["word"] = points.random_word(rng, p, sol)
        request["solution"] = self._solution_file(sol)
        return request

    def _request_verify(self, rng):
        p, sol = self._seed(rng)
        request = self._base("verify", p)
        request["solution"] = self._solution_file(sol)
        return request

    def _request_report(self, rng):
        p, sol = self._seed(rng, System.B4)
        request = self._base("report", p)
        request["solution"] = self._solution_file(sol)
        return request

    def _request_expand(self, rng):
        _, sol = self._seed(rng)
        at = rng.choice(("0", "inf", "c=1/2", "c=2", "c=-1"))
        return {"subcommand": "expand", "solution": self._solution_file(sol), "at": at,
                "order": rng.randint(2, 4), "json": True}

    @staticmethod
    def argv(request) -> list:
        args = [request["subcommand"]]
        for key in ("system", "alphas", "word", "solution", "at", "order"):
            if key in request:
                args.append(f"--{key}={request[key]}")
        if request.get("json"):
            args.append("--json")
        return args

    def run(self, item: Item):
        if item.kind == "cli.batch":
            args = ["--batch", item.extra["file"]]
        else:
            args = self.argv(item.extra["requests"][0])
        proc = subprocess.run([sys.executable, "-c", CHILD_STUB, *args], env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, item: Item, tracer):
        with tracer.span(item.kind, requests=len(item.extra["requests"])):
            return self.run(item)

    def check(self, item: Item, out) -> bool:
        code, stdout, stderr = out
        located = [line.split("=", 1)[1] for line in stderr.splitlines()
                   if line.startswith("sasano-file=")]
        if code != 0 or len(located) != 1 or not _under(Path(located[0]), self.src):
            return False
        lines = stdout.splitlines()
        requests = item.extra["requests"]
        if len(lines) != len(requests):
            return False
        return all(json.loads(line) == self.expected(r) for line, r in zip(lines, requests))

    def expected(self, request) -> dict:
        """The in-process result of one request, in its JSON wire form."""
        key = json.dumps(request, sort_keys=True)
        if key not in self._expected:
            self._expected[key] = json.loads(json.dumps(self._compute(request)))
        return self._expected[key]

    def _compute(self, request) -> dict:
        sub = request["subcommand"]
        sol = None
        if "solution" in request:
            sol = SolutionTuple.from_json(json.loads(Path(request["solution"]).read_text()))
        if sub == "expand":
            at = request["at"]
            point = {"0": ZERO_POINT, "inf": INFINITY}.get(at) or finite_point(rat(at[2:]))
            return {name: series_to_json(laurent_expand(comp, point, request["order"]))
                    for name, comp in zip("xyzw", sol.components())}
        p = ParameterTuple(parse_system(request["system"]),
                           tuple(rat(a) for a in request["alphas"].split(",")))
        if sub == "classify":
            verdict = classify(p)
            out = {"verdict": "exists" if verdict.exists else "not_exists"}
            if verdict.exists:
                out["condition"] = verdict.matched_condition
            return out
        if sub == "construct":
            return construct_rational_solution(p).to_json()
        if sub == "transform":
            q, image = act_word(parse_word(p.system, request["word"]), p, sol)
            return {"system": q.system.name, "alphas": [rat_str(a) for a in q.alphas],
                    "solution": image.to_json(), "chart": image.chart.value}
        if sub == "report":
            return invariant_report(p, sol).to_json()
        checks, invariants, _ = verify_checks(p, sol)
        out = {"checks": checks, "pass": all(checks.values())}
        if invariants is not None:
            out["invariants"] = invariants
        return out


def _under(path: Path, root: Path) -> bool:
    return path.resolve().is_relative_to(root.resolve())


def make(name: str, seed: int, src: Path, workdir: Path):
    if name == "cli":
        return Cli(seed, src, workdir)
    return {"construct": Construct, "verify": Verify}[name](seed)
