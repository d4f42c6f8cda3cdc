"""Command-line interface: run ensembles, self-check, export figure data.

Exit codes: 0 success, 1 configuration or usage error, 2 failed checks,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .experiment import (
    EnsembleConfig,
    run_ensemble,
    write_figure_csvs,
    write_summaries_csv,
    write_summary_json,
)
from .params import PROFILES, PhysicalParams


class ConfigError(Exception):
    pass


CONFIG_KEYS = {
    "profile",
    "backend",
    "trajectories",
    "seed",
    "max_repetitions",
    "detect_lifetimes",
    "input",
    "params_mhz",
    "atom_decay_convention",
    "output_dir",
    "trace",
}

PARAM_KEYS = {f.name for f in fields(PhysicalParams)}

BACKENDS = ("ideal", "effective", "full")


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _parse_input(raw):
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 4):
        raise ConfigError("input must be [re_a, im_a, re_b, im_b] or [a, b]")
    vals = [float(v) for v in raw]
    if len(vals) == 2:
        return complex(vals[0]), complex(vals[1])
    return complex(vals[0], vals[1]), complex(vals[2], vals[3])


def _build_params(data) -> PhysicalParams | None:
    raw = data.get("params_mhz")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("params_mhz must be an object")
    unknown = set(raw) - PARAM_KEYS
    if unknown:
        raise ConfigError(f"unknown params_mhz keys: {', '.join(sorted(unknown))}")
    missing = PARAM_KEYS - set(raw)
    if missing:
        raise ConfigError(f"params_mhz missing keys: {', '.join(sorted(missing))}")
    convention = data.get("atom_decay_convention", "amplitude")
    print("note: params_mhz values are plain frequencies in MHz, converted to rad/us by 2*pi", file=sys.stderr)
    try:
        return PhysicalParams.from_mhz(
            atom_decay_convention=convention, **{k: float(raw[k]) for k in PARAM_KEYS}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(args) -> tuple[EnsembleConfig, dict]:
    data = _load_config_file(args.config) if args.config else {}
    for key in ("profile", "backend", "trajectories", "seed", "max_repetitions",
                "detect_lifetimes", "output_dir", "trace"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    backend = data.get("backend", "ideal")
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {', '.join(BACKENDS)}")
    profile = data.get("profile", "reference")
    params = _build_params(data)
    if params is None and profile not in PROFILES:
        raise ConfigError(f"profile must be one of {', '.join(sorted(PROFILES))}")
    trajectories = int(data.get("trajectories", 100))
    if trajectories < 1:
        raise ConfigError("trajectories must be positive")
    max_repetitions = int(data.get("max_repetitions", 6))
    if max_repetitions < 0:
        raise ConfigError("max_repetitions must be >= 0")
    detect_lifetimes = float(data.get("detect_lifetimes", 10.0))
    if detect_lifetimes <= 0:
        raise ConfigError("detect_lifetimes must be positive")
    config = EnsembleConfig(
        backend=backend,
        profile=profile,
        trajectories=trajectories,
        max_repetitions=max_repetitions,
        seed=int(data.get("seed", 20240816)),
        detect_lifetimes=detect_lifetimes,
        amp_in=_parse_input(data.get("input")),
        params=params,
    )
    extras = {
        "output_dir": data.get("output_dir", "."),
        "trace": data.get("trace"),
    }
    return config, extras


def _run_with_optional_trace(config, trace_path):
    if not trace_path:
        return run_ensemble(config)
    with open(trace_path, "w") as fh:
        def sink(event):
            fh.write(json.dumps(event) + "\n")

        return run_ensemble(config, trace=sink)


def cmd_run(args) -> int:
    config, extras = _resolve(args)
    outdir = extras["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    result = _run_with_optional_trace(config, extras["trace"])
    write_summaries_csv(os.path.join(outdir, "results.csv"), result.summaries)
    write_summary_json(os.path.join(outdir, "summary.json"), result)
    stats = result.stats
    print(f"backend={config.backend} profile={config.profile} trajectories={stats['trajectories']}")
    for outcome, count in sorted(stats["outcomes"].items()):
        print(f"  {outcome}: {count}")
    top = config.max_repetitions
    print(f"success probability with full budget: {stats['success_probability'][top]:.4f}")
    fid = stats["overall_success_fidelity"]
    print(f"mean success fidelity: {fid:.6f}" if fid == fid else "mean success fidelity: n/a")
    print(f"wrote {outdir}/results.csv, {outdir}/summary.json"
          + (f", {extras['trace']}" if extras["trace"] else ""))
    return 0


def cmd_check(args) -> int:
    from .checks import run_all_checks

    profile = args.profile or "reference"
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {', '.join(sorted(PROFILES))}")
    outcomes = run_all_checks(PROFILES[profile]())
    hard_fail = False
    warned = False
    for oc in outcomes:
        if oc.passed:
            status = "PASS"
        elif oc.warn_only:
            status = "WARN"
            warned = True
        else:
            status = "FAIL"
            hard_fail = True
        print(f"{status:4s} {oc.name}: {oc.detail}")
    if hard_fail or (warned and args.strict):
        return 2
    return 0


def cmd_figures(args) -> int:
    config, extras = _resolve(args)
    outdir = extras["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    result = _run_with_optional_trace(config, extras["trace"])
    write_figure_csvs(outdir, result.stats)
    print(f"wrote {outdir}/fig3.csv, {outdir}/fig4.csv, {outdir}/fig5.csv")
    return 0


def _add_run_options(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--profile", choices=sorted(PROFILES))
    sub.add_argument("--backend", choices=BACKENDS)
    sub.add_argument("--trajectories", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--max-repetitions", dest="max_repetitions", type=int)
    sub.add_argument("--detect-lifetimes", dest="detect_lifetimes", type=float)
    sub.add_argument("--output-dir", dest="output_dir")
    sub.add_argument("--trace", help="write a JSON-lines event trace to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavtel",
        description="Trajectory simulator for cavity-decay teleportation with retry insurance",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="run a trajectory ensemble, write results.csv/summary.json")
    _add_run_options(run_p)
    run_p.set_defaults(func=cmd_run)
    check_p = subs.add_parser("check", help="run built-in physics self-checks")
    check_p.add_argument("--profile", choices=sorted(PROFILES))
    check_p.add_argument("--strict", action="store_true", help="treat regime warnings as failures")
    check_p.set_defaults(func=cmd_check)
    fig_p = subs.add_parser("figures", help="run an ensemble and export the trade-off curves")
    _add_run_options(fig_p)
    fig_p.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
