"""Benchmark of the sasano package: construct, verify and cli workloads.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One caller runs one operation at a time (a closed loop).  Set-up builds
the workload's cycles of operations from the seed; the loop runs whole
cycles until `--seconds` have passed and the workload's `min_cycles` are
done.  Every output is checked after the timed loop.  The last line of
standard output is one JSON object: with `--trace 0` it holds the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
replay.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_WINDOW = 1  # probes on each side of an operation that scale its time

Sample = namedtuple("Sample", "cycle item seconds probe output error")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout_package() -> None:
    """Import sasano from this checkout's src/ and nowhere else."""
    if not (SRC / "sasano" / "__init__.py").is_file():
        fail(f"no sasano package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sasano

    if not Path(sasano.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"sasano was imported from {sasano.__file__}, not from {SRC}")


class Probe(NamedTuple):
    """A fixed task that never touches sasano, timed to follow the speed of
    the shared machine, which runs up to a fifth faster or slower for tens
    of seconds at a time.  `reference_s` is its median time on the machine
    the benchmark was defined on (2-vCPU Xeon at 2.1 GHz, Python 3.11.7);
    times are reported at that speed."""

    measure: Callable[[], float]
    reference_s: float

    def scale(self, seconds: float, probes) -> float:
        return seconds * self.reference_s / statistics.median(probes)


def speed_probe() -> float:
    """Seconds of a fixed pure-Python workload, Fraction and bigint
    arithmetic, which slows with the machine and with nothing that a
    change to the package can do."""
    start = time.perf_counter()
    acc, x = Fraction(1, 3), 3 ** 60
    for i in range(1, 1500):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        x = (x * x + i) % (2 ** 521 - 1)
        if i % 64 == 0:
            acc = Fraction(acc.numerator % 10 ** 40, acc.denominator % 10 ** 40 + 1)
    return time.perf_counter() - start


def reference_latencies(samples, probe: Probe) -> list:
    """Each sample's time at the reference speed, scaled by the median of
    its own probe and those of its neighbours."""
    probes = [s.probe for s in samples]
    return [probe.scale(s.seconds, probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
            for i, s in enumerate(samples)]


def child_seconds(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running `code`."""
    # Output goes to a pipe, whose end marks the exit.  With a timeout and
    # no pipe, subprocess polls for the exit at intervals that grow to
    # 50 ms, which rounds every time up to that grid.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - start


def nearest_rank(values, q: float):
    """(value at percentile q by nearest rank, number of samples above it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_cycles(workload, run, seconds: float, probe: Probe, cycles: int | None = None,
               tracer=None):
    """Closed loop over whole cycles, with a probe before each
    operation.  Runs exactly `cycles` cycles when given.  Returns the
    samples and the elapsed wall time."""
    samples = []
    start = time.perf_counter()
    cycle = 0
    while True:
        for index, item in enumerate(workload.cycles[cycle % len(workload.cycles)]):
            if tracer is not None:
                tracer.op = f"{cycle}.{index}"
            probe_s = probe.measure()
            t0 = time.perf_counter()
            try:
                output, error = run(item), None
            except Exception:  # a failed operation is counted, not fatal
                output, error = None, traceback.format_exc()
            samples.append(Sample(cycle, item, time.perf_counter() - t0, probe_s, output, error))
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if cycle >= cycles:
                return samples, elapsed
        elif cycle >= workload.min_cycles and elapsed >= seconds:
            return samples, elapsed


def throughput(samples, probe: Probe) -> float:
    """Operations per second over whole cycles, at the reference speed."""
    return len(samples) / sum(reference_latencies(samples, probe))


def check_samples(workload, samples) -> int:
    """Number of samples that raised or gave a wrong output."""
    failed, verdicts = 0, {}
    for s in samples:
        if s.error is not None:
            print(f"perfbench: {s.item.kind} raised\n{s.error}", file=sys.stderr)
            failed += 1
            continue
        known = verdicts.setdefault(id(s.item), [])
        ok = next((v for o, v in known if o == s.output), None)
        if ok is None:
            ok = workload.check(s.item, s.output)
            known.append((s.output, ok))
        if not ok:
            print(f"perfbench: wrong output for {s.item.kind}", file=sys.stderr)
            failed += 1
    return failed


def end_to_end_metrics(workload, samples, setup_s: float, probe: Probe) -> dict:
    latencies = reference_latencies(samples, probe)
    tail, above = nearest_rank(latencies, workload.tail_percentile)
    print(f"latency_tail_s is p{workload.tail_percentile} of {len(latencies)} samples, "
          f"{above} above it")
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(samples, probe), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        # ru_maxrss is in KiB on Linux; for cli it is the largest child
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, samples, probe: Probe, env: dict, imports: list, path: Path):
    """Replay the first cycle with spans and exactmath counters, then run
    the workload's sweep with spans only.  Returns the per-layer metrics
    and the replay's samples, whose outputs are checked like the others."""
    import tracing

    interpreter_s = statistics.median(child_seconds("pass", env) for _ in range(SETUP_REPEATS))
    tracer = tracing.Tracer()

    def run_traced(item):
        with tracer.span("op", kind=item.kind):
            return workload.run_traced(item, tracer)

    tracer.install()
    try:
        traced, _ = run_cycles(workload, run_traced, 0, probe, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()

    sweep_tracer, sweep = tracing.Tracer(), []
    for item in workload.sweep():
        start = time.perf_counter()
        result = workload.run_traced(item, sweep_tracer)
        sweep.append((item, time.perf_counter() - start))
        if not workload.check(item, result):
            fail(f"wrong output for sweep point {item.kind}")

    untraced_first_cycle = [s for s in samples if s.cycle == 0]
    metrics = tracing.layer_metrics(
        tracer, sweep_tracer, sweep, traced, interpreter_s,
        statistics.median(imports) - interpreter_s,
        throughput(traced, probe) / throughput(untraced_first_cycle, probe))
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(path, {name: value for name, (value, _) in metrics.items()})
    return metrics, traced


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("construct", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_checkout_package()
    import workloads

    env = workloads.child_env(SRC)
    python_probe = Probe(speed_probe, 0.0145)
    # A fresh interpreter's start follows the import time of a child
    # process more closely than in-process arithmetic does: over 150 s,
    # medians of 28 successive `import sasano` children moved by 0.06 of
    # their size scaled by it, by 0.17 scaled by speed_probe, and by 0.36
    # unscaled.
    interpreter_probe = Probe(functools.partial(child_seconds, "pass", env), 0.057)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        # set-up: a fresh interpreter importing the package, plus input
        # generation, repeated; the last inputs are the ones measured.  Each
        # part is scaled by the probes of its kind just before and after it.
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            probes = [(python_probe.measure(), interpreter_probe.measure())
                      for _ in range(PROBE_WINDOW + 1)]
            imports.append(child_seconds("import sasano", env))
            start = time.perf_counter()
            workload = workloads.make(args.workload, args.seed, SRC, workdir)
            generate_s = time.perf_counter() - start
            probes += [(python_probe.measure(), interpreter_probe.measure())
                       for _ in range(PROBE_WINDOW + 1)]
            python_probes, interpreter_probes = zip(*probes)
            setups.append(interpreter_probe.scale(imports[-1], interpreter_probes)
                          + python_probe.scale(generate_s, python_probes))
        setup_s = statistics.median(setups)

        # cli operations are child processes, the others in-process work
        probe = interpreter_probe if workload.name == "cli" else python_probe
        samples, elapsed = run_cycles(workload, workload.run, args.seconds, probe)
        (OUT / f"samples-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            [(s.item.kind, s.cycle, s.seconds, s.probe) for s in samples]))
        print(f"{args.workload}: {len(samples)} operations in {samples[-1].cycle + 1} cycles, "
              f"{elapsed:.3f} s on the wall clock, {len(samples) / elapsed:.4f} ops/s there, "
              f"median probe {statistics.median(s.probe for s in samples):.5f} s")

        if args.trace:
            metrics, traced = traced_run(workload, samples, probe, env, imports,
                                         OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
            samples += traced
        else:
            metrics = end_to_end_metrics(workload, samples, setup_s, probe)

        failed = check_samples(workload, samples)
        print(f"failed_ratio {failed / len(samples):.4f} ({failed} of {len(samples)} operations)")
        for name, (value, unit) in metrics.items():
            print(f"{name:48s} {value:14.6f} {unit}")
        print(json.dumps({
            "correct": not failed,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
