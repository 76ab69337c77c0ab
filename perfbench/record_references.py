#!/usr/bin/env python3
"""Record the reference values that the benchmark's output checks compare against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_references.py --seeds 0-63
    python3 perfbench/record_references.py --smoke --seeds 0-9

Each seed runs one invocation of every workload that records values (the
Monte-Carlo mean and std, the sweep's max FD error), checks it against the
oracles, and merges the values into perfbench/references.json.
"""

import argparse
import json
import sys
from pathlib import Path

import run

PATH = Path(__file__).resolve().parent / "references.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))

    run.configure_threads()
    cli = run.import_program()
    from workloads import make_workloads

    references = json.loads(PATH.read_text())
    section = references.setdefault("smoke" if args.smoke else "full", {})
    for workload in make_workloads(args.smoke).values():
        values, done = section.setdefault(workload.name, {}), set()
        work = run.WORK / f"references-{workload.name}"
        work.mkdir(parents=True, exist_ok=True)
        for seed in range(first, last + 1):
            bench = run.Bench(cli, workload, seed, {}, work)
            for key in range(workload.panel):
                ref_key = workload.reference_key(seed, key)
                if ref_key in done:
                    continue
                inv = bench.invoke(key)
                if inv.problems:
                    print(f"{workload.name} {ref_key}: " + "; ".join(inv.problems), file=sys.stderr)
                    return 1
                value = workload.reference(inv.out_dir)
                if value is None:
                    break
                values[ref_key] = value
                done.add(ref_key)
                print(workload.name, ref_key, value, flush=True)
        ordered = sorted(values.items(), key=lambda item: (len(item[0]), item[0]))
        section[workload.name] = dict(ordered)
    PATH.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
