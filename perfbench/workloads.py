"""The benchmark's workloads: inputs made from the seed, CLI argv, output checks.

Every workload drives one bsdof CLI subcommand on systems synthesized from
the workload seed (the optimizer workload reads a fixed panel instead), and
the checks read back the artifacts the CLI wrote.  A check returns a list
of problems; an empty list passes.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from bsdof.environment import EnvironmentSpec, synth_environment
from bsdof.fd import ChannelMap, discrete_toggle_jacobian
from bsdof.loads import LoadConstraint, sample_loads
from bsdof.metrics import bs_eemdof_point, participation_from_singular_values
from bsdof.network import extract_blocks, save_system
from bsdof.optimize import mean_dof_objective, sample_load_set
from bsdof.sampling import IlluminationPolicy, sample_distribution, sample_random_illumination
from bsdof.streams import substream

# Every workload uses eta 0.9 environments with full load coupling.
N_T, N_R, ETA = 3, 4, 0.9

# Reference mean and std may move by this share: enough for last-ulp changes
# in the kernel (a solve-based prototype moved M by 3.6e-15), far below any
# real change.
MC_REL_TOL = 1e-9

# Share by which the sweep's max FD error may move against its recorded value.
# The forward difference divides rounding noise of about 1e-16 by a step of
# 1e-6, so a last-ulp change in the channel moves an error of about 1e-6 by
# roughly 1e-4 of itself.
FD_REL_TOL = 1e-2

# A search may end a little elsewhere after last-ulp changes, but a faster
# optimizer must not buy its speed with a lower optimum.
OPT_REL_TOL = 1e-6

# The closed form must agree with the independent oracle to this share.
ORACLE_REL_TOL = 1e-9

# A Jacobian inside the column space of S_RS leaves a residual below this.
RESIDUAL_TOL = 1e-10

# Samples per Monte-Carlo run recomputed by the oracle, spread over the run.
ORACLE_SAMPLES = 16

# What the CLI writes for every Monte-Carlo distribution.
DIST_FILES = ("samples.csv", "summary.json", "histogram.csv")


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_samples(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "sample_index,m_value":
        raise ValueError(f"{path.name} has no sample_index,m_value header")
    values = np.empty(len(lines) - 1)
    for i, line in enumerate(lines[1:]):
        index, value = line.split(",")
        if int(index) != i:
            raise ValueError(f"{path.name} row {i} has index {index}")
        values[i] = float(value)
    return values


def _pairs_to_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def check_distribution(out_dir: Path, n: int, n_tilde: int, policy: str, problems: list):
    """Checks every bs-dist style artifact set shares; returns (summary, samples)."""
    summary = _read_json(out_dir / "summary.json")
    samples = _read_samples(out_dir / "samples.csv")
    if summary["n_samples"] != n or samples.size != n:
        problems.append(f"expected {n} samples, got {summary['n_samples']} / {samples.size}")
    if summary["n_tilde"] != n_tilde:
        problems.append(f"n_tilde {summary['n_tilde']} != {n_tilde}")
    if summary["policy"] != policy:
        problems.append(f"policy {summary['policy']} != {policy}")
    if samples.size and (samples.min() < 1.0 - 1e-9 or samples.max() > n_tilde + 1e-9):
        problems.append(f"M outside [1, {n_tilde}]: {samples.min()}..{samples.max()}")
    if samples.size == n and not (
        _rel_close(float(samples.mean()), summary["mean"], 1e-12)
        and _rel_close(float(samples.std()), summary["std"], 1e-12)
    ):
        problems.append("summary mean/std disagree with samples.csv")
    if not (out_dir / "histogram.csv").is_file():
        problems.append("histogram.csv missing")
    return summary, samples


class Workload:
    """One CLI workload.  Subclasses define the inputs and the checks.

    Invocation k of a run reads input k % panel; a round is one pass over
    the panel, and runs stop only at the end of a round.  core names the
    library function the CLI calls for the workload's work, looked up in
    bsdof.cli; ops is the number of operations one core call completes and
    op names them.  The artifacts listed must repeat byte for byte whenever
    an input repeats.
    """

    name = ""
    core = ""
    op = ""
    panel = 1
    artifacts = ()

    def system_spec(self, seed: int, key: int):
        return None

    def write_system(self, seed: int, key: int, path: Path):
        """Synthesize the input system of panel entry key and save it; None if unused."""
        spec = self.system_spec(seed, key)
        if spec is None:
            return None
        system = synth_environment(spec)
        save_system(system, path)
        return system

    def argv(self, seed: int, key: int, system_path: Path, out_dir: Path) -> list:
        raise NotImplementedError

    @property
    def ops(self) -> int:
        return 1

    def reference_key(self, seed: int, key: int) -> str:
        """Where the recorded values of this input sit in references.json."""
        return str(seed)

    def check(self, inv, ref, first: bool) -> list:
        raise NotImplementedError

    def reference(self, out_dir: Path):
        """Values recorded at a known-good commit and compared by check(); None if none."""
        return None


class MonteCarlo(Workload):
    """bs-dist with PIN loads and the RAND policy."""

    core = "sample_distribution"
    op = "samples"
    artifacts = DIST_FILES

    def __init__(self, name, n_s, n, mode):
        self.name = name
        self.n_s, self.n, self.mode = n_s, n, mode
        self.constraint = LoadConstraint.pin()

    @property
    def ops(self) -> int:
        return self.n

    def system_spec(self, seed, key):
        return EnvironmentSpec(N_T, N_R, self.n_s, ETA, 1.0, seed=seed)

    def argv(self, seed, key, system_path, out_dir):
        return [
            "bs-dist", "--system", str(system_path), "--constraint", "pin",
            "--policy", "rand", "--mode", self.mode, "--n", str(self.n),
            "--seed", str(seed), "--out-dir", str(out_dir),
        ]

    def sample(self, system, seed):
        """The distribution the CLI computes, called directly."""
        return sample_distribution(
            system, IlluminationPolicy.rand(), self.constraint, self.n, seed, mode=self.mode
        )

    def oracle_m(self, blocks, seed, i) -> float:
        """M of sample i from the scalar closed form (model) or toggle secants."""
        gen = substream(seed, i)
        r = sample_loads(self.constraint, self.n_s, gen)
        x = sample_random_illumination(N_T, gen)
        if self.mode == "model":
            return bs_eemdof_point(blocks, r, x).m
        jac = discrete_toggle_jacobian(ChannelMap.from_blocks(blocks), r, x, self.constraint)
        return participation_from_singular_values(jac.singular_values).m

    def check(self, inv, ref, first):
        problems = []
        if inv.rc != 0:
            return [f"bs-dist exited {inv.rc}"]
        n_tilde = min(N_R, self.n_s)
        summary, samples = check_distribution(inv.out_dir, self.n, n_tilde, "RAND", problems)
        inv.values.update(n_samples=summary["n_samples"], redraws=summary["redraw_count"])
        if summary["mode"] != self.mode:
            problems.append(f"mode {summary['mode']} != {self.mode}")
        if ref is not None:
            for key in ("mean", "std"):
                if not _rel_close(summary[key], ref[key], MC_REL_TOL):
                    problems.append(f"{key} {summary[key]!r} != recorded {ref[key]!r}")
        if first and summary["redraw_count"] == 0 and samples.size == self.n:
            blocks = extract_blocks(inv.system)
            picks = np.linspace(0, self.n - 1, min(ORACLE_SAMPLES, self.n)).astype(int)
            for i in sorted(set(int(p) for p in picks)):
                m = self.oracle_m(blocks, inv.seed, i)
                if not _rel_close(m, float(samples[i]), ORACLE_REL_TOL):
                    problems.append(f"sample {i}: M {samples[i]!r} but the oracle gives {m!r}")
        return problems

    def reference(self, out_dir):
        summary = _read_json(out_dir / "summary.json")
        return {"mean": summary["mean"], "std": summary["std"]}


class Optimize(Workload):
    """optimize-x MAX search with UNI loads over the criterion-7 panel.

    The panel is the criterion-7 environments with the optimizer seed of
    that acceptance test, and does not depend on the workload seed.
    Nelder-Mead's work differs between inputs by up to twelve times (930 to
    2,300 objective evaluations, and 11,493 when a start runs into
    max_iterations), so seed-drawn inputs spread the time to a solution by
    13% or more across seeds, even as a median over ten environments.
    """

    core = "optimize_illumination"
    op = "solves"
    artifacts = ("optimization.json",) + DIST_FILES
    optimizer_seed = 11

    def __init__(self, name, n_s, panel, objective_samples, starts, final_n):
        self.name = name
        self.n_s, self.panel = n_s, panel
        self.objective_samples, self.starts, self.final_n = objective_samples, starts, final_n
        self.constraint = LoadConstraint.uni()

    def system_spec(self, seed, key):
        return EnvironmentSpec(N_T, N_R, self.n_s, ETA, 1.0, seed=key)

    def argv(self, seed, key, system_path, out_dir):
        return [
            "optimize-x", "--system", str(system_path), "--constraint", "uni",
            "--direction", "max", "--seed", str(self.optimizer_seed),
            "--objective-samples", str(self.objective_samples), "--starts", str(self.starts),
            "--final-n", str(self.final_n), "--out-dir", str(out_dir),
        ]

    def reference_key(self, seed, key):
        return f"env{key}"

    def check(self, inv, ref, first):
        if inv.rc != 0:
            return [f"optimize-x exited {inv.rc}"]
        problems = []
        result = _read_json(inv.out_dir / "optimization.json")
        best_x = _pairs_to_vector(result["best_x"])
        best = result["best_objective"]
        inv.values.update(
            best_objective=best,
            objective_evaluations=result["objective_evaluations"],
            iterations=sum(t["iterations"] for t in result["per_start_trace"]),
        )
        if abs(np.linalg.norm(best_x) - 1.0) > 1e-12:
            problems.append(f"best_x norm {np.linalg.norm(best_x)!r} is not 1")
        blocks = extract_blocks(inv.system)
        load_set = sample_load_set(
            self.constraint, self.n_s, self.objective_samples, self.optimizer_seed,
            s_ss=blocks.s_ss,
        )
        again = mean_dof_objective(blocks, best_x, self.constraint, load_set)
        if not _rel_close(again, best, ORACLE_REL_TOL):
            problems.append(f"best_objective {best!r} but mean_dof_objective gives {again!r}")
        if ref is not None and best < ref["best_objective"] * (1.0 - OPT_REL_TOL):
            problems.append(
                f"best_objective {best!r} below the recorded {ref['best_objective']!r}"
            )
        summary, _ = check_distribution(
            inv.out_dir, self.final_n, min(N_R, self.n_s), "FIXED", problems
        )
        inv.values.update(n_samples=summary["n_samples"], redraws=summary["redraw_count"])
        return problems

    def reference(self, out_dir):
        return {"best_objective": _read_json(out_dir / "optimization.json")["best_objective"]}


class ValidateSweep(Workload):
    """validate-jacobian with the trial count raised until a pass takes seconds."""

    core = "jacobian_validation_sweep"
    op = "trials"
    artifacts = ("validation.json",)

    def __init__(self, name, trials):
        self.name = name
        self.trials = trials

    @property
    def ops(self) -> int:
        return self.trials

    def argv(self, seed, key, system_path, out_dir):
        return [
            "validate-jacobian", "--trials", str(self.trials), "--seed", str(seed),
            "--out-dir", str(out_dir),
        ]

    @staticmethod
    def verdict(report) -> bool:
        return (
            report["max_fd_relative_error"] < report["fd_tolerance"]
            and report["max_column_space_residual"] < report["residual_tolerance"]
        )

    def check(self, inv, ref, first):
        # The sweep's pass/fail verdict is its output: exit 1 with
        # "validation FAILED" is a result, not a failed operation.
        if inv.rc not in (0, 1):
            return [f"validate-jacobian exited {inv.rc}"]
        path = inv.out_dir / "validation.json"
        if not path.is_file():
            return ["validation.json missing"]
        report = _read_json(path)
        problems = []
        passed = self.verdict(report)
        expected = "validation PASSED" if passed else "validation FAILED"
        if inv.rc != (0 if passed else 1) or expected not in inv.stdout:
            problems.append(f"exit {inv.rc} and output disagree with the verdict {expected!r}")
        if report["trials"] != self.trials:
            problems.append(f"{report['trials']} trials, expected {self.trials}")
        residual = report["max_column_space_residual"]
        if not residual < RESIDUAL_TOL:
            problems.append(f"column-space residual {residual!r} not below {RESIDUAL_TOL}")
        fd = report["max_fd_relative_error"]
        inv.values["verdict"] = (
            f"{expected}: max FD relative error {fd:.4g} (tolerance {report['fd_tolerance']:.0e}), "
            f"max column-space residual {residual:.3g}"
        )
        if not math.isfinite(fd):
            problems.append(f"FD error {fd!r} is not finite")
        elif ref is not None and not _rel_close(fd, ref["max_fd_relative_error"], FD_REL_TOL):
            problems.append(f"FD error {fd!r} != recorded {ref['max_fd_relative_error']!r}")
        return problems

    def reference(self, out_dir):
        report = _read_json(out_dir / "validation.json")
        return {"max_fd_relative_error": report["max_fd_relative_error"]}


def make_workloads(smoke: bool = False) -> dict:
    """The four workloads by name (BENCHMARK.json says why each); smoke shrinks the inputs."""
    if smoke:
        workloads = [
            MonteCarlo("mc-model-ns64", 8, 300, "model"),
            MonteCarlo("mc-toggle-ns16", 4, 600, "toggle"),
            Optimize("opt-uni-ns16", 4, 2, objective_samples=40, starts=1, final_n=200),
            ValidateSweep("validate-sweep", 20),
        ]
    else:
        workloads = [
            MonteCarlo("mc-model-ns64", 64, 10_000, "model"),
            MonteCarlo("mc-toggle-ns16", 16, 40_000, "toggle"),
            # the CLI defaults, at the criterion-7 shape and panel
            Optimize("opt-uni-ns16", 16, 5, objective_samples=1500, starts=3, final_n=10_000),
            ValidateSweep("validate-sweep", 4000),
        ]
    return {w.name: w for w in workloads}
