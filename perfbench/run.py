#!/usr/bin/env python3
"""Benchmark of the bsdof command-line runs, end to end and layer by layer.

Run from the root of a bsdof checkout:

    python3 perfbench/run.py --workload mc-model-ns64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 1

A run makes its inputs from --seed, times fresh-process set-up, then calls
the CLI's main() in process, again and again for --seconds, and checks the
artifacts of every call.  --trace 0 reports the end-to-end metrics named in
BENCHMARK.json; --trace 1 alternates untraced and traced calls and reports
the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
nonzero when any output check fails.  --workload all runs every workload
in its own process.  --smoke shrinks every input to a token size.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
WORKLOADS = ("mc-model-ns64", "mc-toggle-ns16", "opt-uni-ns16", "validate-sweep")

# Fresh processes timed for setup_s, after one untimed process that fills
# the bytecode caches.
SETUP_REPEATS = 5

# Spans that make up the draw layer and the distribution writes.
DRAW_SPANS = ("streams.substream", "loads.sample_loads", "sampling.sample_random_illumination")
WRITE_SPANS = (
    "sampling.write_samples_csv",
    "sampling.write_summary_json",
    "sampling.write_histogram_csv",
)


def configure_threads() -> int:
    """Pin the thread settings before numpy loads OpenBLAS; returns nproc."""
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count() or 1
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["BSDOF_THREADS"] = str(nproc)
    return nproc


def import_program():
    """Import bsdof from this checkout's src/ and return its cli module."""
    package = ROOT / "src" / "bsdof"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a bsdof checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import bsdof
    import bsdof.cli

    if Path(bsdof.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported bsdof from {bsdof.__file__}, not from {package}")
    return bsdof.cli


def fingerprint(workload: str, seed: int, args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "BSDOF_THREADS": os.environ.get("BSDOF_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


@dataclass
class Invocation:
    """One call of the CLI's main() and what its checks found."""

    key: int
    seed: int
    system: object
    out_dir: Path
    rc: int | None = None
    wall_s: float = 0.0
    core_s: float | None = None
    stdout: str = ""
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    table: object = None


def _time_core(module, name, sink):
    """Time every call of module.name into sink; returns the undo."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - started)

    setattr(module, name, timed)
    return lambda: setattr(module, name, fn)


class Bench:
    """Invokes one workload's CLI run and checks what it wrote.

    refs maps the workload's reference keys to recorded values.
    """

    def __init__(self, cli, workload, seed, refs, work):
        self.cli, self.workload, self.seed, self.refs, self.work = cli, workload, seed, refs, work
        self.systems = {}
        self.digests = {}
        self.attempted = 0
        self.problems = []

    @property
    def failed(self) -> int:
        return len({k for k, _ in self.problems})

    def system(self, key):
        if key not in self.systems:
            path = self.work / f"system-{key}.json"
            self.systems[key] = (path, self.workload.write_system(self.seed, key, path))
        return self.systems[key]

    def invoke(self, k, tracer=None) -> Invocation:
        key = k % self.workload.panel
        path, system = self.system(key)
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        inv = Invocation(key, self.seed, system, out_dir)
        argv = self.workload.argv(self.seed, key, path, out_dir)
        stdout, stderr, core = io.StringIO(), io.StringIO(), []
        if tracer is not None:
            tracer.install()
            undo = tracer.uninstall
        else:
            undo = _time_core(self.cli, self.workload.core, core)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                inv.rc = self.cli.main(argv)
        except Exception:  # an operation that raised counts as failed
            inv.problems.append("raised: " + traceback.format_exc())
        finally:
            inv.wall_s = time.perf_counter() - started
            undo()
        inv.stdout = stdout.getvalue()
        if tracer is None:
            if len(core) == 1:
                inv.core_s = core[0]
            elif not inv.problems:
                inv.problems.append(f"{self.workload.core} ran {len(core)} times, expected once")
        else:
            from tracing import SpanTable

            inv.table = SpanTable(tracer.spans)
            inv.problems += inv.table.violations
        self._check(inv, stderr.getvalue())
        return inv

    def _check(self, inv, stderr):
        self.attempted += 1
        if not inv.problems:
            workload = self.workload
            first = inv.key not in self.digests
            ref = self.refs.get(workload.reference_key(self.seed, inv.key))
            try:
                inv.problems += workload.check(inv, ref, first)
                if not inv.problems:
                    from workloads import digest

                    d = digest(inv.out_dir, workload.artifacts)
                    if first:
                        self.digests[inv.key] = d
                    elif d != self.digests[inv.key]:
                        inv.problems.append("artifacts differ from an earlier call on this input")
            except Exception:  # a check that cannot read the artifacts fails them
                inv.problems.append("check raised: " + traceback.format_exc())
        if inv.problems and stderr:
            inv.problems.append("stderr: " + stderr.strip())
        self.problems += [(self.attempted, p) for p in inv.problems]


def measure_setup(workload, seed, smoke, work, repeats) -> list:
    """Seconds of fresh processes that import bsdof and read the workload's system."""
    cmd = [
        sys.executable, str(HERE / "probe.py"), "setup", workload.name, str(seed),
        "1" if smoke else "0", str(work / "probe-system.json"),
    ]
    times = []
    for i in range(repeats + 1):
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def run_rounds(seconds, panel, step) -> list:
    """Call step(k) for k = 0, 1, ... in whole rounds of panel calls until seconds pass."""
    out = []
    started = time.perf_counter()
    while True:
        for _ in range(panel):
            out.append(step(len(out)))
        if time.perf_counter() - started >= seconds:
            return out


def round_medians(values, panel) -> float:
    """Median over rounds of the mean over each round's calls."""
    means = [statistics.fmean(values[i:i + panel]) for i in range(0, len(values), panel)]
    return statistics.median(means) if means else 0.0


def layer_metrics(inv) -> dict:
    """Per-layer metrics of one traced invocation."""
    from workloads import DIST_FILES

    t, v = inv.table, inv.values
    dist = "sampling.sample_distribution"
    dist_s = t.total_s(dist)
    draw_s = sum(t.total_s(name, dist) for name in DRAW_SPANS)
    n, redraws = v.get("n_samples", 0), v.get("redraws", 0)
    return {
        "streams.substream.calls": t.calls("streams.substream"),
        "streams.substream.s": t.total_s("streams.substream"),
        "loads.sample_loads.calls": t.calls("loads.sample_loads"),
        "loads.sample_loads.s": t.total_s("loads.sample_loads"),
        "sampling.illum.calls": t.calls("sampling.sample_random_illumination"),
        "sampling.illum.s": t.total_s("sampling.sample_random_illumination"),
        "sampling.draw_share": draw_s / dist_s if dist_s else 0.0,
        "sampling.kernel.self_s": t.self_s(dist),
        "sampling.draws": t.calls("loads.sample_loads", dist),
        "sampling.redraws": redraws,
        "sampling.useful_ratio": n / (n + redraws) if n else 0.0,
        "sampling.write.s": sum(t.total_s(name) for name in WRITE_SPANS),
        "sampling.write.bytes": sum(
            (inv.out_dir / f).stat().st_size for f in DIST_FILES if (inv.out_dir / f).is_file()
        ),
        "network.load_system.s": t.total_s("network.load_system"),
        "network.coupling_resolvent.calls": t.calls("network.coupling_resolvent"),
        "network.coupling_resolvent.s": t.total_s("network.coupling_resolvent"),
        "network.end_to_end_channel.calls": t.calls("network.end_to_end_channel"),
        "network.end_to_end_channel.s": t.total_s("network.end_to_end_channel"),
        "network.closed_form_jacobian.calls": t.calls("network.closed_form_jacobian"),
        "network.closed_form_jacobian.s": t.total_s("network.closed_form_jacobian"),
        "fd.complex_step_jacobian.calls": t.calls("fd.complex_step_jacobian"),
        "fd.complex_step_jacobian.self_s": t.self_s("fd.complex_step_jacobian"),
        "metrics.column_space_residual.calls": t.calls("metrics.column_space_residual"),
        "metrics.column_space_residual.s": t.total_s("metrics.column_space_residual"),
        "environment.synth_environment.calls": t.calls("environment.synth_environment"),
        "environment.synth_environment.s": t.total_s("environment.synth_environment"),
        "optimize.sample_load_set.s": t.total_s("optimize.sample_load_set"),
        "optimize.search.self_s": t.self_s("optimize.optimize_illumination"),
        "optimize.objective_evals": v.get("objective_evaluations", 0),
        "optimize.iterations": v.get("iterations", 0),
        "optimize.final_dist.s": t.total_s(dist, "cli.run_optimize_x"),
        "optimize.best_objective": v.get("best_objective", 0.0),
        "cli.self_s": t.layer_self_s("cli"),
    }


def sampler_probes(bench, plain, nproc, smoke) -> dict:
    """Worker-pool efficiency and OpenBLAS oversubscription of the sampler.

    Both compare against the median sample_distribution time of the
    untraced calls, made at nproc workers with OPENBLAS_NUM_THREADS=1.
    Workloads that call no Monte-Carlo run directly report 0.
    """
    workload = bench.workload
    if not hasattr(workload, "sample"):
        return {"sampling.parallel_eff": 0.0, "sampling.blas_oversub": 0.0}
    from bsdof.sampling import CHUNK

    t_n = statistics.median(i.core_s for i in plain if i.core_s)
    path, system = bench.system(0)
    workers = min(nproc, math.ceil(workload.n / CHUNK))
    os.environ["BSDOF_THREADS"] = "1"
    try:
        started = time.perf_counter()
        workload.sample(system, bench.seed)
        t_1 = time.perf_counter() - started
    finally:
        os.environ["BSDOF_THREADS"] = str(nproc)
    env = dict(os.environ)
    del env["OPENBLAS_NUM_THREADS"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "sampler", workload.name, str(bench.seed),
         "1" if smoke else "0", str(path)],
        capture_output=True, text=True, env=env, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: sampler probe failed:\n{proc.stderr}")
    t_blas = float(proc.stdout.split()[-1])
    return {
        "sampling.parallel_eff": t_1 / (workers * t_n),
        "sampling.blas_oversub": t_blas / t_n,
    }


def _fmt(value, unit) -> str:
    return "n/a" if value is None else f"{value:.6g} {unit}"


def report_end_to_end(workload, invs, setup, bench) -> dict:
    """Print the eight end-to-end figures by name and return the declared metrics.

    Times and rates are means over a round of the panel, medians over rounds.
    Figures that only some workloads have print as n/a on the others.
    """
    panel, op = workload.panel, workload.op
    cores = [i.core_s for i in invs]
    timed = all(cores)
    rates = [
        workload.ops * panel / sum(cores[i:i + panel]) for i in range(0, len(invs), panel)
    ] if timed else []
    rate = statistics.median(rates) if rates else 0.0
    solve = round_medians(cores, panel) if timed and op == "solves" else None
    best = [i.values.get("best_objective", 0.0) for i in invs]
    named = [
        ("setup_s", statistics.median(setup), "s"),
        ("wall_s", round_medians([i.wall_s for i in invs], panel), "s"),
        ("samples_per_s", rate if op == "samples" else None, "samples/s"),
        ("solve_s", solve, "s"),
        ("best_objective", round_medians(best, panel) if op == "solves" else None, "M"),
        ("trials_per_s", rate if op == "trials" else None, "trials/s"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        ("fail_frac", bench.failed / bench.attempted, "ratio"),
    ]
    for name, value, unit in named:
        print(f"  {name:<16}{_fmt(value, unit)}")
    verdicts = sorted({i.values["verdict"] for i in invs if "verdict" in i.values})
    for verdict in verdicts:
        print(f"  verdict         {verdict}")
    values = {name: value for name, value, _ in named}
    return {
        "setup_s": values["setup_s"],
        "wall_s": values["wall_s"],
        "ops_per_s": rate,
        "peak_rss_mb": values["peak_rss_mb"],
    }


def run_workload(args) -> int:
    nproc = configure_threads()
    cli = import_program()
    from tracing import Tracer
    from workloads import make_workloads

    workload = make_workloads(args.smoke)[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    references = json.loads((HERE / "references.json").read_text())
    refs = references["smoke" if args.smoke else "full"].get(workload.name, {})
    keys = {workload.reference_key(args.seed, key) for key in range(workload.panel)}
    recorded = keys <= set(refs)

    work = WORK / (workload.name + ("-smoke" if args.smoke else ""))
    work.mkdir(parents=True, exist_ok=True)
    setup = measure_setup(workload, args.seed, args.smoke, work, 1 if args.smoke else SETUP_REPEATS)
    bench = Bench(cli, workload, args.seed, refs, work)
    panel = workload.panel

    if args.trace:
        plain, traced, rows, summaries = [], [], [], []

        def pair(k):
            plain.append(bench.invoke(k))
            inv = bench.invoke(k, Tracer())
            traced.append(inv)
            rows.append(layer_metrics(inv))
            summaries.append(inv.table.summary())
            inv.table = None

        run_rounds(args.seconds, panel, pair)
        invs = plain
        metrics = {name: round_medians([row[name] for row in rows], panel) for name in rows[0]}
        metrics["trace.overhead_pct"] = statistics.median(
            (t.wall_s / p.wall_s - 1.0) * 100.0 for p, t in zip(plain, traced)
        )
        metrics.update(sampler_probes(bench, plain, nproc, args.smoke))
        (work / "trace.json").write_text(json.dumps(summaries, indent=1) + "\n")
    else:
        invs = run_rounds(args.seconds, panel, bench.invoke)

    print(
        f"{workload.name} seed {args.seed}: {bench.attempted} invocations, "
        f"{bench.failed} failed; reference values "
        + ("recorded for these inputs" if recorded else "not recorded for these inputs")
    )
    end_to_end = report_end_to_end(workload, invs, setup, bench)
    if not args.trace:
        metrics = end_to_end
    for _, problem in bench.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {section}")
    fp = fingerprint(workload.name, args.seed, args)
    print("fingerprint " + json.dumps(fp))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (work / "result.json").write_text(json.dumps({"fingerprint": fp, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; nonzero when any check fails."""
    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        ok = ok and proc.returncode == 0 and result is not None and result["correct"]
        rows.append((name, proc.returncode, result))
    print("summary:")
    for name, rc, result in rows:
        if result is None:
            print(f"  {name}: exit {rc}, no result")
            continue
        shown = ", ".join(
            f"{m}={v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()
        )
        print(f"  {name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="token-sized inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
