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

from . import checks
from .experiment import (
    RUN_SETTINGS,
    EnsembleConfig,
    run_ensemble,
    write_figure_csvs,
    write_summaries_csv,
    write_summary_json,
)
from .params import PROFILES, PhysicalParams
from .protocol import BACKENDS
from .pulses import solve_pulse_times


class ConfigError(Exception):
    pass


CONFIG_KEYS = {*RUN_SETTINGS, "input", "params_mhz", "atom_decay_convention", "output_dir", "trace"}

PARAM_KEYS = {f.name for f in fields(PhysicalParams)}


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
    # Paths: the flags are strings already, a file could hold any JSON value.
    for key in ("output_dir", "trace"):
        if key in data and not isinstance(data[key], str):
            raise ConfigError(f"{key}: {data[key]!r} is not a string")
    return data


def _number(key, raw) -> float:
    """A config file's number: a JSON int or float, not a boolean or a string."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigError(f"{key}: {raw!r} is not a number")


def _parse_input(raw):
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 4):
        raise ConfigError("input must be [re_a, im_a, re_b, im_b] or [a, b]")
    vals = [_number("input", v) for v in raw]
    if len(vals) == 2:
        return complex(vals[0]), complex(vals[1])
    return complex(vals[0], vals[1]), complex(vals[2], vals[3])


def _build_params(data) -> PhysicalParams | None:
    raw = data.get("params_mhz")
    if raw is None:
        if "atom_decay_convention" in data:
            raise ConfigError("atom_decay_convention applies only to params_mhz, which is not given")
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
            atom_decay_convention=convention, **{k: _number(k, raw[k]) for k in PARAM_KEYS}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(args) -> tuple[EnsembleConfig, str, str | None]:
    """The config file merged with the flags: (config, output directory, trace path)."""
    data = _load_config_file(args.config) if args.config else {}
    for key in (*RUN_SETTINGS, "output_dir", "trace"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    # Only the settings given reach EnsembleConfig, which checks them as given:
    # the flags are typed by argparse, and a file's value is not rounded.
    given = {key: data[key] for key in RUN_SETTINGS if key in data}
    try:
        config = EnsembleConfig(**given, amp_in=_parse_input(data.get("input")), params=_build_params(data))
        # The run solves them again; solved here, a duration out of float
        # range is a config error rather than a failed run.
        solve_pulse_times(config.resolve_params(), config.detect_lifetimes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, data.get("output_dir", "."), data.get("trace")


def _outcome_line(status, outcome) -> str:
    return f"{status:4s} {outcome.name}: {outcome.detail}"


def _run(args):
    """Resolve the settings, make the output directory and run the ensemble.

    Each validity ratio the parameters fail is warned on stderr, worded as
    ``cavtel check`` words it; the run goes ahead.
    """
    config, outdir, trace_path = _resolve(args)
    for outcome in checks.check_validity(config.resolve_params()):
        if not outcome.passed:
            print(_outcome_line("WARN", outcome), file=sys.stderr)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot create {outdir!r} ({exc.strerror or exc})") from exc
    if not trace_path:
        return run_ensemble(config), outdir, trace_path
    try:
        fh = open(trace_path, "w")
    except OSError as exc:
        raise ConfigError(f"trace: cannot open {trace_path!r} ({exc.strerror or exc})") from exc
    with fh:
        return run_ensemble(config, trace=lambda event: fh.write(json.dumps(event) + "\n")), outdir, trace_path


def cmd_run(args) -> int:
    result, outdir, trace_path = _run(args)
    config = result.config
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
          + (f", {trace_path}" if trace_path else ""))
    return 0


def cmd_check(args) -> int:
    # argparse has checked the choice.
    outcomes = checks.run_all_checks(PROFILES[args.profile or EnsembleConfig.profile]())
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
        print(_outcome_line(status, oc))
    if hard_fail or (warned and args.strict):
        return 2
    return 0


def cmd_figures(args) -> int:
    result, outdir, _ = _run(args)
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
