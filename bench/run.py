"""einvex benchmark: closed-loop CLI workloads, timed end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sampling --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One caller drives ``einvex.cli.run(argv)`` in this process and issues the
next command only after the previous one returned.  A workload is a fixed
list of commands (a pass, see workloads.py); the run repeats whole passes
until --seconds have passed and the workload's minimum sample count is
reached, after one untimed warm-up pass.  Every command's output goes
through the correctness gate in checks.py after the loop.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(spans.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md for every
metric and workload.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in the
# set-up interpreters this process starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Gate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 11
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import einvex.cli
from einvex.problem import load_problem
for path in sys.argv[1:]:
    load_problem(path)
print(repr(time.perf_counter() - t0))
"""
# Tail percentile: the highest rung with at least ten samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("cli", "problem", "expr", "rng", "invexity", "kkt", "pareto")


def load_einvex():
    """The einvex modules from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import importlib
    mods = {m: importlib.import_module(f"einvex.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent.parent != SRC:
        raise ImportError(f"einvex imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


class Runner:
    """Issues the commands of a workload one at a time and keeps the outputs."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.workload = workload
        self.workdir = Path(workdir)
        self.invocations = 0

    def argv(self, cmd):
        self.invocations += 1
        fresh = str(self.workdir / f"grid-{self.invocations}.csv")
        return [fresh if a == workloads.CSV_PATH else a for a in cmd.argv]

    def one_pass(self):
        """[(command, argv, exit code, output, seconds)] for one pass."""
        out = []
        for cmd in self.workload.commands:
            argv = self.argv(cmd)
            start = time.perf_counter()
            try:
                code, text = self.cli.run(argv)
            except Exception as e:  # a crash is a failed command, not a failed run
                code, text = None, f"crash: {e!r}"
            out.append((cmd, argv, code, text, time.perf_counter() - start))
        return out


def gate_all(gate, records):
    """Number of failed commands; prints each failure to stderr."""
    failed = 0
    for cmd, argv, code, text, _ in records:
        errors = [f"crashed: {text}"] if code is None else gate.check(cmd, argv, code, text)
        if errors:
            failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(errors)}", file=sys.stderr)
    return failed


def tail_percentile(samples):
    n = len(samples)
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= 1000.0 - 1e-9:
            return q
    raise ValueError(f"{n} samples leave no percentile with ten samples beyond it")


def measure_setup(files):
    """Median seconds for a fresh interpreter to import einvex.cli and load every file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *files], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(mods, workload, runner, seconds):
    setup_s = measure_setup(workload.problem_files)
    warm = runner.one_pass()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    records, passes = [], 0
    start = time.perf_counter()
    while True:
        records += runner.one_pass()
        passes += 1
        wall = time.perf_counter() - start
        if wall >= seconds and len(records) >= workload.min_samples:
            break

    gate = Gate(mods)
    failed = gate_all(gate, warm + records)
    latencies = [r[4] for r in records]
    q = tail_percentile(latencies)
    pass_work = sum(c.work for c in workload.commands)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_tail_s": (float(np.percentile(latencies, q)), "s"),
        "work_per_s": (pass_work * passes / wall, "work/s"),
        "peak_mem_mb": (peak_mb, "MB"),
    }
    attempted = len(warm) + len(records)
    notes = [f"timed {len(records)} commands ({passes} passes) "
             f"in {wall:.3f} s; cmd_tail_s is p{q:g} ({len(latencies)} samples)",
             f"work unit: {workload.work_unit}; {pass_work} per pass",
             f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}",
             f"solved multipliers whose own report says residual passes=false: "
             f"{gate.boundary_residuals}"]
    return metrics, attempted, failed, notes


def traced(mods, workload, runner, seconds):
    spans.self_check()
    warm = runner.one_pass()
    tracer = spans.Tracer()
    plain_walls, traced_walls, snapshots = [], [], []
    records = list(warm)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records += runner.one_pass()
        plain_walls.append(time.perf_counter() - t0)

        tracer.reset()
        undo = spans.install(tracer, mods)
        try:
            t0 = time.perf_counter()
            records += runner.one_pass()
            traced_walls.append(time.perf_counter() - t0)
        finally:
            spans.uninstall(undo)
        snapshots.append((dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts)))
        if time.perf_counter() - start >= seconds:
            break

    failed = gate_all(Gate(mods), records)
    counts = snapshots[0][2]
    calls = snapshots[0][1]
    if any(s[2] != counts or s[1] != calls for s in snapshots):
        failed += 1
        print("FAILED deterministic span counts differ between traced passes", file=sys.stderr)

    names = sorted({n for s in snapshots for n in s[0]})
    self_s = {n: statistics.median(s[0].get(n, 0.0) for s in snapshots) for n in names}
    traced_wall = sum(traced_walls)
    total_self = {n: sum(s[0].get(n, 0.0) for s in snapshots) for n in names}
    pairs = sum(c.work for c in workload.commands if c.argv[0] in ("check", "certify"))

    def per_row(span):
        rows = counts.get((span, "rows"), 0)
        return self_s.get(span, 0.0) / rows * 1e9 if rows else 0.0

    proposals = counts.get(("problem.sample_region", "proposals"), 0)
    accepted = counts.get(("problem.sample_region", "accepted"), 0)
    metrics = {}
    for span in sorted({t[0] for t in spans.targets(mods)}):
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for span in ("expr.eval_many", "expr.grad_many", "problem.e_map", "problem.eta_map", "rng.box"):
        metrics[f"{span}.rows"] = (counts.get((span, "rows"), 0), "count")
    metrics["expr.eval_many.ns_per_row"] = (per_row("expr.eval_many"), "ns")
    metrics["expr.grad_many.ns_per_row"] = (per_row("expr.grad_many"), "ns")
    metrics["problem.e_map.rows_per_pair"] = (
        counts.get(("problem.e_map", "rows"), 0) / pairs if pairs else 0.0, "rows/pair")
    metrics["problem.sample_region.proposals"] = (proposals, "count")
    metrics["problem.sample_region.accepted"] = (accepted, "count")
    metrics["problem.sample_region.accept_ratio"] = (
        accepted / proposals if proposals else 0.0, "ratio")
    metrics["kkt.lstsq.calls"] = (calls.get("kkt.lstsq", 0), "count")
    for module in MODULES:
        share = sum(v for n, v in total_self.items() if n.split(".")[0] == module)
        metrics[f"layer.{module}.self_frac"] = (share / traced_wall, "fraction")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "fraction")
    metrics["trace.unattributed_frac"] = (1.0 - sum(total_self.values()) / traced_wall, "fraction")
    notes = [f"{len(traced_walls)} traced and {len(plain_walls)} untraced passes; "
             f"self times are medians per traced pass, counts are per pass",
             f"fail_frac = {failed}/{len(records)} = {failed / len(records):.6g}"]
    return metrics, len(records), failed, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment():
    import scipy
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))


def run_one(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    mods = load_einvex()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        runner = Runner(mods["cli"], workload, workdir)
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, notes = measure(mods, workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"env: {environment()}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    result = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
        print(f"  {m['name']:<38} {value:>16.9g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))


def run_all(args):
    """Every workload, untraced then traced, each in a fresh interpreter."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace {trace} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
