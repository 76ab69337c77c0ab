#!/usr/bin/env python3
"""Run alternated perfbench pairs from two checkouts; write BENCH_<tag>.json to the change.

    python3 tools/ab_pairs.py --parent ../bsdof-parent --change . --tag lbfgs_search \\
        --workloads opt-uni-ns16 --seeds 0 --pairs 10 --seconds 20 \\
        --describe "what the change does" --claim "what it should move"

Each pair runs `perfbench/run.py --trace 0` once from each checkout, one after
the other.  Odd pairs run the parent first and even pairs the change first,
so drift of the host's speed falls on both sides alike.  The last line of
perfbench's standard output (its JSON result) is kept for every run.  Both
checkouts must hold the same perfbench/.  The runner stops at the first run
that exits nonzero, reports correct=false or counts a failed operation, so a
summary never rests on runs whose checks failed.  With --trace-seconds S,
each side then runs every workload once more with --trace 1 for S seconds
on the first seed, and its per-layer metrics go into "trace_check".
--dry-run prints the run order and runs nothing.  The host is recorded as
shared and its frequency as unpinned, since the runner controls neither.

The file's "summary" is a pure function of its "runs" (summarize()): per
workload, seed and code, each side's quartiles of every end-to-end metric
(statistics.quantiles, inclusive method, which is linear interpolation) and
the number of pairs the change wins, ties counting for neither.  Metric
names, directions and bounds come from the change checkout's BENCHMARK.json.
Its "regressions" (regressions()) flag every metric whose change median is
worse than the parent median by more than the metric's bound, with the
parent's interquartile range relative to its median, and each flag is
printed: a flagged metric breaks the benchmark's no-regression bound.  A flag
is "unresolved" when that range is wider than the bound: the metric spreads
past its bound on unchanged code, so the pairs cannot tell a regression from
the spread.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace 0"
METHOD = (
    "alternated parent/change pairs from two checkouts with identical perfbench/; odd pairs "
    "run the parent first, even pairs the change first; each entry of runs holds the last "
    "line of perfbench's standard output"
)
SOFTWARE = (
    "python", "numpy", "scipy", "blas", "cpu_count", "affinity",
    "BSDOF_THREADS", "OPENBLAS_NUM_THREADS",
)


def declared(checkout: Path, key: str) -> dict:
    """End-to-end metric name -> its BENCHMARK.json entry's key ("better" gives "lower" or
    "higher", "bound" the allowed relative worsening), in BENCHMARK.json order."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m[key] for m in benchmark["end_to_end"]}


def summarize(runs: list, better: dict) -> list:
    """Per (workload, seed, code), in order of first appearance in runs."""
    groups = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["code"])
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
    summary = []
    for (workload, seed, code), by_pair in groups.items():
        pairs = [by_pair[p] for p in sorted(by_pair) if len(by_pair[p]) == len(SIDES)]
        metrics = {}
        for name, direction in better.items():
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            entry = {}
            for side in SIDES:
                q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
                entry[side] = {"q1": q1, "median": median, "q3": q3}
            wins = [
                (new > old) if direction == "higher" else (new < old)
                for old, new in zip(values["parent"], values["change"])
            ]
            entry["change_wins"] = sum(wins)
            entry["pairs"] = len(pairs)
            metrics[name] = entry
        summary.append(
            {"workload": workload, "seed": seed, "code": code, "pairs": len(pairs), "metrics": metrics}
        )
    return summary


def regressions(summary: list, better: dict, bounds: dict) -> list:
    """Each summarized metric whose change median is worse than the parent median by
    more than its bound, the worsening taken relative to the parent median; a flag is
    unresolved where the parent's interquartile range, relative to its median, exceeds
    the bound."""
    flags = []
    for entry in summary:
        for name, metric in entry["metrics"].items():
            parent, change = metric["parent"], metric["change"]
            if parent["median"] == 0:  # no relative change to take
                continue
            worse = (change["median"] - parent["median"]) / abs(parent["median"])
            if better[name] == "higher":
                worse = -worse
            if worse > bounds[name]:
                iqr = (parent["q3"] - parent["q1"]) / abs(parent["median"])
                flags.append({
                    "workload": entry["workload"], "seed": entry["seed"], "code": entry["code"],
                    "metric": name, "worsening": worse, "bound": bounds[name],
                    "parent_iqr": iqr, "unresolved": iqr > bounds[name],
                })
    return flags


def regression_line(flag: dict) -> str:
    """The printed line of one regressions() flag."""
    return (
        f"regression: {flag['workload']} seed {flag['seed']} {flag['metric']} is "
        f"{flag['worsening']:+.1%} worse than the parent median (bound {flag['bound']:.0%}; "
        f"parent IQR {flag['parent_iqr']:.1%} of its median"
        + (", unresolved)" if flag["unresolved"] else ")")
    )


def run_order(workloads, seeds, pairs):
    """(workload, seed, pair, side, ran_first) in the order the runs happen."""
    for workload in workloads:
        for seed in seeds:
            for pair in range(1, pairs + 1):
                sides = SIDES if pair % 2 == 1 else SIDES[::-1]
                for position, side in enumerate(sides):
                    yield workload, seed, pair, side, position == 0


def perfbench_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    files = (checkout / "perfbench").rglob("*")
    for path in sorted(f for f in files if f.is_file() and "__pycache__" not in f.parts):
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One perfbench run; returns (result, fingerprint) parsed from its output."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        fingerprint = next(
            json.loads(line.removeprefix("fingerprint ")) for line in lines
            if line.startswith("fingerprint ")
        )
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise SystemExit(
            f"error: {checkout}: perfbench exited {proc.returncode} without a result\n"
            + proc.stderr[-2000:]
        ) from None
    if proc.returncode != 0 or result.get("correct") is not True or result.get("failed", 0) != 0:
        # a run whose checks or operations failed must not count towards either side
        raise SystemExit(
            f"error: {checkout}: perfbench exited {proc.returncode} on {workload} seed {seed} "
            f"with correct={result.get('correct')!r}, failed={result.get('failed')!r} of "
            f"{result.get('attempted')!r}\n" + proc.stderr[-2000:]
        )
    return result, {key: fingerprint.get(key) for key in SOFTWARE}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="which metric should move on which workload")
    parser.add_argument("--trace-seconds", type=float, default=0.0)
    parser.add_argument("--dry-run", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("error: --pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    order = list(run_order(args.workloads, args.seeds, args.pairs))
    if args.dry_run:
        for workload, seed, pair, side, _ in order:
            print(f"pair {pair} {side:<6} {workload} seed {seed}  ({checkouts[side]})")
        return 0
    if perfbench_digest(checkouts["parent"]) != perfbench_digest(checkouts["change"]):
        raise SystemExit("error: the two checkouts hold different perfbench/ files")

    software, runs = None, []
    for workload, seed, pair, side, ran_first in order:
        result, seen = perfbench(checkouts[side], workload, seed, args.seconds, trace=0)
        if software not in (None, seen):
            raise SystemExit(f"error: {side} ran with {seen}, not {software}")
        software = seen
        print(f"pair {pair} {side:<6} {workload} seed {seed}: {json.dumps(result)}", flush=True)
        runs.append({
            "workload": workload, "seed": seed, "pair": pair, "side": side,
            "result": result, "ran_first": ran_first, "code": "final",
        })

    trace_check = None
    if args.trace_seconds > 0:
        command = COMMAND.format(seconds=f"{args.trace_seconds:g}").replace("--trace 0", "--trace 1")
        trace_check = {"command": command.replace("<seed>", str(args.seeds[0])), "runs": {}}
        for workload in args.workloads:
            trace_check["runs"][workload] = {}
            for side in SIDES:
                result, _ = perfbench(
                    checkouts[side], workload, args.seeds[0], args.trace_seconds, trace=1
                )
                trace_check["runs"][workload][side] = {
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    **{name: m["value"] for name, m in result["metrics"].items()},
                }

    better = declared(checkouts["change"], "better")
    summary = summarize(runs, better)
    flags = regressions(summary, better, declared(checkouts["change"], "bound"))
    for flag in flags:
        print(regression_line(flag))
    record = {
        "tag": args.tag,
        "change": args.describe,
        "claim": args.claim,
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "method": METHOD,
        "host": {"vcpus": os.cpu_count(), "shared": True, "frequency_pinned": False},
        "software": software,
        "summary": summary,
        "regressions": flags,
        "trace_check": trace_check,
        "runs": runs,
    }
    out = checkouts["change"] / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
