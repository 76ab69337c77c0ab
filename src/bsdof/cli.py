"""Command-line front end.

Run subcommands: synth-env, benchmark, bs-dist, optimize-x, validate-jacobian.
Each run_* function returns its exit code and its artifacts as texts, and
main alone writes them, once the run has returned, into the output
directory next to the run's effective configuration (defaults included) as
config.json.  So a run that fails writes nothing; a validate-jacobian
tolerance miss exits 1 and still writes its report.  `bsdof replay FILE
[--out-dir DIR]` re-runs the subcommand that a config.json names and
reproduces all its artifacts, config.json included, bit-identically; any
other option beside FILE is argparse's error (exit 2), as is a missing
--system, and a file naming no run subcommand exits 1.  Without --out-dir a
replay writes nothing; it opens a relative system path from its own working
directory, not the first run's.  All randomness derives from the single
--seed; BSDOF_THREADS only caps the sampler's and the optimizer's worker
threads and never changes results.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .environment import EnvironmentSpec, synth_environment, synth_matrices
from .errors import BsdofError
from .fd import DEFAULT_STEP, ChannelMap, complex_step_jacobian
from .loads import LOAD_MAG_TOL, LoadConstraint, loads_from_uniforms
from .metrics import benchmark_eemdof, column_space_residual
from .network import (
    RCOND_MIN,
    ScatteringSystem,
    closed_form_jacobian,
    complex_to_pairs,
    extract_blocks,
    frobenius_norm,
    load_system,
    norm_floor,
    pairs_to_complex,
    partition,
    require_passive,
    spectral_norm,
    system_to_dict,
)
from .optimize import OptimizationConfig, optimize_illumination
from .sampling import (
    CHUNK,
    HISTOGRAM_BINS,
    IlluminationPolicy,
    histogram,
    illuminations_from_uniforms,
    sample_distribution,
)
from .streams import FIXED_X, SWEEP, substream_uniforms


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# Parser dests that are not part of a run's configuration.
_NOT_CONFIG = ("help", "out_dir", "func", "on", "off")

# Config keys whose replayed values are checked by their own validators.
_OWN_VALIDATORS = ("constraint", "tx_ports", "rx_ports", "bs_ports", "fixed_x")


def _load_config(path: Path, runs: dict) -> tuple:
    """The config.json at path and the run_* of the subcommand it names, its keys and
    values checked against that subcommand's argparse actions."""
    config = json.loads(path.read_text())
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    command = config.get("command")
    if not isinstance(command, str) or command not in runs:
        raise ValueError(f"config file {path} names no run subcommand: command={command!r}")
    actions = [a for a in runs[command]._actions if a.dest not in _NOT_CONFIG]
    expected = {"command"} | {a.dest for a in actions}
    if set(config) != expected:
        raise ValueError(
            f"config file {path} is missing {sorted(expected - set(config))} "
            f"and has unexpected {sorted(set(config) - expected)}"
        )
    _check_values(config, actions)
    return config, runs[command].get_default("func")


def _check_values(config: dict, actions: list) -> None:
    """Reject replayed values that the subcommand's argparse actions could not parse to."""
    for action in actions:
        if action.dest in _OWN_VALIDATORS:
            continue
        value, kind = config[action.dest], bool if action.nargs == 0 else action.type or str
        number = kind is float and isinstance(value, int)
        if isinstance(value, bool) != (kind is bool) or not (isinstance(value, kind) or number):
            raise ValueError(f"config {action.dest}={value!r} is not a {kind.__name__}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {action.dest}={value!r} is not in {list(action.choices)}")


def _config_from_args(args) -> dict:
    """The run's configuration from its command line: its argparse dests, in parser order."""
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    if "constraint" in config:
        config["constraint"] = _constraint_from_args(args)
    for key in ("tx_ports", "rx_ports", "bs_ports"):
        if key in config:
            config[key] = _ports_arg(config[key])
    if "fixed_x" in config:
        path = config["fixed_x"]
        config["fixed_x"] = json.loads(Path(path).read_text()) if path else None
    return config


def _constraint_from_args(args) -> dict:
    payload = {"kind": args.constraint.upper()}
    for key in ("on", "off"):
        if getattr(args, key) is not None:
            payload[key] = [float(p) for p in getattr(args, key).split(",")]
    LoadConstraint.from_dict(payload)  # validate early
    return payload


def _ports_arg(raw: str | None) -> list | None:
    if raw is None:
        return None
    return [int(p) for p in raw.split(",")]


# ---------------------------------------------------------------- synth-env


def run_synth_env(config: dict) -> tuple[int, dict]:
    spec = EnvironmentSpec(
        n_t=config["nt"],
        n_r=config["nr"],
        n_s=config["ns"],
        scattering_strength=config["eta"],
        mc_strength=config["mc"],
        reciprocal=config["reciprocal"],
        seed=config["seed"],
    )
    system = synth_environment(spec)
    norm = spectral_norm(system.matrix)
    print(
        f"system: N={system.n_total} "
        f"(tx={spec.n_t}, rx={spec.n_r}, bs={spec.n_s}), spectral norm {norm:.6f}"
    )
    return 0, {"system.json": json.dumps(system_to_dict(system))}


# ---------------------------------------------------------------- benchmark


def run_benchmark(config: dict) -> tuple[int, dict]:
    ports = ("tx_ports", "rx_ports", "bs_ports")
    overrides = {k: config[k] for k in ports if config[k] is not None}
    system = replace(load_system(config["system"]), **overrides)
    result = benchmark_eemdof(extract_blocks(system))
    report = {
        "m": result.m,
        "n_tilde": result.n_tilde,
        "singular_values": [float(s) for s in result.singular_values],
    }
    print(f"benchmark EEMDOF: {result.m:.6f} (cap {result.n_tilde})")
    return 0, {"benchmark.json": _json_text(report)}


# ------------------------------------------------------------------ bs-dist


def _policy_from_config(config: dict, system: ScatteringSystem) -> IlluminationPolicy:
    pairs = config.get("fixed_x")
    if config["policy"] == "rand":
        if pairs is not None:
            raise ValueError("fixed_x is read only under the fixed policy, not rand")
        return IlluminationPolicy.rand()
    if pairs is None:
        # deterministic default: one illumination drawn from the run seed
        u = substream_uniforms(config["seed"], (FIXED_X,), [0], 2 * len(system.tx_ports))
        x = illuminations_from_uniforms(u)[0]
        config["fixed_x"] = complex_to_pairs(x)
        return IlluminationPolicy.fixed(x)
    return IlluminationPolicy.fixed(pairs_to_complex(pairs))


def _check_counts(config: dict, *keys: str) -> None:
    """Reject a count below 1 before the run draws or writes anything."""
    for key in keys:
        if config[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {config[key]}")


def _distribution_files(dist, bins: int) -> dict:
    """samples.csv, summary.json and histogram.csv of a distribution; floats as their repr."""
    samples = ["sample_index,m_value"]
    samples += [f"{i},{float(v)!r}" for i, v in enumerate(dist.samples)]
    densities = ["bin_center,density"]
    densities += [f"{float(c)!r},{float(d)!r}" for c, d in zip(*histogram(dist, bins))]
    return {
        "samples.csv": "\n".join(samples) + "\n",
        "summary.json": _json_text({f.name: getattr(dist, f.name) for f in fields(dist)[1:]}),
        "histogram.csv": "\n".join(densities) + "\n",
    }


def run_bs_dist(config: dict) -> tuple[int, dict]:
    _check_counts(config, "bins")
    system = load_system(config["system"])
    constraint = LoadConstraint.from_dict(config["constraint"])
    policy = _policy_from_config(config, system)
    started = time.perf_counter()
    dist = sample_distribution(
        system,
        policy,
        constraint,
        n_samples=config["n"],
        seed=config["seed"],
        mode=config["mode"],
        system_label=str(config["system"]),
    )
    elapsed = time.perf_counter() - started
    print(
        f"{dist.n_samples} samples in {elapsed:.2f}s: M = {dist.mean:.4f} "
        f"+/- {dist.std:.4f} (cap {dist.n_tilde}, {dist.redraw_count} redraws)"
    )
    return 0, _distribution_files(dist, config["bins"])


# --------------------------------------------------------------- optimize-x


def run_optimize_x(config: dict) -> tuple[int, dict]:
    _check_counts(config, "final_n", "bins")
    system = load_system(config["system"])
    constraint = LoadConstraint.from_dict(config["constraint"])
    search = {f.name: config[f.name] for f in fields(OptimizationConfig)}
    opt_config = OptimizationConfig(**search | {"direction": search["direction"].upper()})
    started = time.perf_counter()
    result = optimize_illumination(system, constraint, opt_config)
    elapsed = time.perf_counter() - started
    report = {
        "best_x": complex_to_pairs(result.best_x),
        "best_objective": result.best_objective,
        "direction": opt_config.direction,
        "seed": opt_config.seed,
        "per_start_trace": [
            {"start": s, "objective": f, "iterations": n} for s, f, n in result.per_start_trace
        ],
        "objective_evaluations": result.objective_evaluations,
        "load_set_redraws": result.load_set_redraws,
        "hyperparameters": {
            k: v for k, v in asdict(opt_config).items() if k not in ("direction", "seed")
        },
    }
    # final distribution at the optimum, on a fresh seed
    final_seed = config["seed"] + 1
    dist = sample_distribution(
        system,
        IlluminationPolicy.fixed(result.best_x),
        constraint,
        n_samples=config["final_n"],
        seed=final_seed,
        mode="model",
        system_label=str(config["system"]),
    )
    print(
        f"{opt_config.direction} objective {result.best_objective:.4f} "
        f"({result.objective_evaluations} evaluations, {result.load_set_redraws} load-set "
        f"redraws, {elapsed:.1f}s); "
        f"final distribution (seed {final_seed}): {dist.mean:.4f} +/- {dist.std:.4f}"
    )
    files = {"optimization.json": _json_text(report), "best_x.json": _json_text(report["best_x"])}
    return 0, files | _distribution_files(dist, config["bins"])


# --------------------------------------------------------- validate-jacobian


def jacobian_validation_sweep(trials: int, seed: int, step: float = DEFAULT_STEP) -> dict:
    """Cross-validate the closed-form Jacobian on random passive systems.

    Each trial draws port counts in {1..4}x{1..4}, a load count in {1..16},
    a scattering strength in {0.3, 0.6, 0.9}, continuous loads and a random
    illumination, then compares the closed form against the forward-difference
    probe (fd.complex_step_jacobian) and measures the column-space residual.

    Trial t reads at most 4 + 2 * 16 + 2 * 4 = 44 words of substream(seed, SWEEP, t):
    4 shape words, 2 n_s load words, then 2 n_t illumination words, turned into loads
    and an illumination by the sampler's own formulas.  No trial is ever redrawn, so
    the sweep reads the words of the largest shape for every trial itself, over
    windows of CHUNK trials, and the trials are grouped by their port counts
    (n_t, n_r, n_s); each group then runs in slices of at most CHUNK // (n_s + 1)
    trials, so that a slice's oracle stack holds at most CHUNK load rows.  A slice
    takes its trials' word rows, draws their environments and runs every formula
    once, batched over its trials.  A step outside (0, LOAD_MAG_TOL / 4] is refused
    before any draw: inside it, each probe of a UNI load |r0| < 1 has
    |r0 + h| < 1 + LOAD_MAG_TOL / 2, inside the certified disk, so no slice fails.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 < step <= LOAD_MAG_TOL / 4:
        bound = f"(0, LOAD_MAG_TOL / 4 = {LOAD_MAG_TOL / 4!r}]"
        raise ValueError(f"step must lie in {bound}, got {step!r}")
    windows = np.split(np.arange(trials), range(CHUNK, trials, CHUNK))
    maxima = (4, 4, 16)  # the largest (n_t, n_r, n_s)
    width = 4 + 2 * maxima[2] + 2 * maxima[0]
    words = np.concatenate([substream_uniforms(seed, (SWEEP,), w, width) for w in windows])
    shapes, group = np.unique(1 + (words[:, :3] * maxima).astype(int), axis=0, return_inverse=True)
    fd_errors = np.empty(trials)
    residuals = np.empty(trials)
    for g in range(len(shapes)):
        shape, members = tuple(shapes[g].tolist()), np.flatnonzero(group == g)
        size = CHUNK // (shape[2] + 1)
        for index in np.split(members, range(size, members.size, size)):
            u = words[index]
            fd_errors[index], residuals[index] = _validation_slice(seed, index, u, shape, step)
    return {
        "trials": trials,
        "max_fd_relative_error": float(fd_errors.max()),
        "max_column_space_residual": float(residuals.max()),
        "fd_tolerance": 1e-6,
        "residual_tolerance": 1e-10,
    }


def _validation_slice(seed: int, index: np.ndarray, u: np.ndarray, shape: tuple, step: float):
    """Forward-difference errors and column-space residuals of same-shape trials' word rows u."""
    n_t, n_r, n_s = shape
    etas = np.array((0.3, 0.6, 0.9))[(u[:, 3] * 3).astype(int)]
    specs = [
        EnvironmentSpec(n_t, n_r, n_s, eta, 1.0, seed=seed * 100003 + t)
        for t, eta in zip(index.tolist(), etas.tolist())
    ]
    matrices, norms = synth_matrices(specs)
    require_passive(norms)
    blocks = partition(matrices, *specs[0].ports)
    blocks.certified = bool(np.all(norm_floor(norms, n_s) >= RCOND_MIN))
    r0 = loads_from_uniforms(LoadConstraint.uni(), u[:, 4 : 4 + 2 * n_s])
    x = illuminations_from_uniforms(u[:, 4 + 2 * n_s : 4 + 2 * n_s + 2 * n_t])
    closed = closed_form_jacobian(blocks, r0, x).matrix
    probe = complex_step_jacobian(ChannelMap.from_blocks(blocks), r0, x, step).matrix
    errors = frobenius_norm(closed - probe) / frobenius_norm(closed)
    return errors, column_space_residual(closed, blocks.s_rs)


def run_validate_jacobian(config: dict) -> tuple[int, dict]:
    report = jacobian_validation_sweep(config["trials"], config["seed"], config["step"])
    print(
        f"max closed-form vs forward-difference relative error: "
        f"{report['max_fd_relative_error']:.3e} (tolerance {report['fd_tolerance']:.0e})"
    )
    print(
        f"max column-space residual: "
        f"{report['max_column_space_residual']:.3e} (tolerance {report['residual_tolerance']:.0e})"
    )
    passed = (
        report["max_fd_relative_error"] < report["fd_tolerance"]
        and report["max_column_space_residual"] < report["residual_tolerance"]
    )
    print("validation PASSED" if passed else "validation FAILED")
    # a tolerance miss exits 1, but its report is still the run's result
    return 0 if passed else 1, {"validation.json": _json_text(report)}


# ------------------------------------------------------------------- parser


def _add_constraint_args(sub) -> None:
    sub.add_argument("--constraint", choices=("pin", "pm", "uni"), default="pin")
    sub.add_argument("--on", help="custom on value as re,im; write --on=re,im if re < 0")
    sub.add_argument("--off", help="custom off value as re,im; write --off=re,im if re < 0")


def build_parser() -> argparse.ArgumentParser:
    """The bsdof parser; each option's dest is its key in config.json."""
    parser = argparse.ArgumentParser(
        prog="bsdof",
        description="Degrees-of-freedom analysis of load-modulated backscatter channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-env", help="generate a synthetic passive environment")
    p.add_argument("--nt", type=int, default=3)
    p.add_argument("--nr", type=int, default=4)
    p.add_argument("--ns", type=int, default=64)
    p.add_argument("--eta", type=float, default=0.9)
    p.add_argument("--mc", type=float, default=1.0)
    p.add_argument("--reciprocal", action="store_true", default=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=run_synth_env)

    p = sub.add_parser("benchmark", help="conventional EEMDOF benchmark of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--tx-ports", default=None, help="comma-separated override")
    p.add_argument("--rx-ports", default=None, help="comma-separated override")
    p.add_argument("--bs-ports", default=None, help="comma-separated override")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=run_benchmark)

    p = sub.add_parser("bs-dist", help="Monte-Carlo distribution of the DOF metric")
    p.add_argument("--system", required=True)
    _add_constraint_args(p)
    p.add_argument("--policy", choices=("rand", "fixed"), default="rand")
    p.add_argument("--fixed-x", default=None, help="JSON file of [re,im] pairs")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("model", "toggle"), default="model")
    p.add_argument("--bins", type=int, default=HISTOGRAM_BINS)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=run_bs_dist)

    search = OptimizationConfig()
    p = sub.add_parser("optimize-x", help="optimize the illumination for mean DOF")
    p.add_argument("--system", required=True)
    _add_constraint_args(p)
    p.add_argument("--direction", choices=("max", "min"), default=search.direction.lower())
    p.add_argument(
        "--objective-samples", dest="n_objective_samples", type=int,
        default=search.n_objective_samples,
    )
    p.add_argument("--starts", dest="n_starts", type=int, default=search.n_starts)
    p.add_argument("--max-iterations", type=int, default=search.max_iterations)
    p.add_argument("--f-tol", dest="f_tolerance", type=float, default=search.f_tolerance)
    p.add_argument("--seed", type=int, default=search.seed)
    p.add_argument("--final-n", type=int, default=10000)
    p.add_argument("--bins", type=int, default=HISTOGRAM_BINS)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=run_optimize_x)

    p = sub.add_parser("validate-jacobian", help="cross-check Jacobian oracles")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=run_validate_jacobian)

    runs = dict(sub.choices)
    p = sub.add_parser("replay", help="re-run the subcommand a config.json names")
    p.add_argument("config", type=Path, help="a config.json written by a run")
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(runs=runs)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            config, run = _load_config(args.config, args.runs)
        else:
            config, run = _config_from_args(args), args.func
        code, files = run(config)
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in ({"config.json": _json_text(config)} | files).items():
                (args.out_dir / name).write_text(text)
        return code
    except (BsdofError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
