"""Fresh-process probes started by run.py; not meant to be run by hand.

    probe.py setup WORKLOAD SEED SMOKE SYSTEM_PATH
        import bsdof and its CLI, then synthesize, save and read back the
        workload's first system.  run.py times the whole process.
    probe.py sampler WORKLOAD SEED SMOKE SYSTEM_PATH
        print the seconds of one sample_distribution call of the workload,
        under whatever thread settings the environment gives.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    mode, name, seed, smoke, system_path = argv
    import bsdof  # noqa: F401
    import bsdof.cli  # noqa: F401
    from bsdof.network import load_system

    from workloads import make_workloads

    workload = make_workloads(smoke == "1")[name]
    seed = int(seed)
    if mode == "setup":
        if workload.write_system(seed, 0, Path(system_path)) is not None:
            load_system(system_path)
        return 0
    if mode == "sampler":
        system = load_system(system_path)
        started = time.perf_counter()
        workload.sample(system, seed)
        print(time.perf_counter() - started)
        return 0
    print(f"unknown probe {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
