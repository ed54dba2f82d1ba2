"""Command-line entry point: run and validate experiment configs.

    laglearn run <config-or-preset> [--seed N] [--trials N] [--out-dir DIR]
    laglearn validate <config-or-preset>
    laglearn list-presets
    laglearn plot-script <results-dir>

Configs are INI files; `<config-or-preset>` may also name one of the
shipped presets.  The default output directory is
$LAGLEARN_OUT_DIR/<name> (falling back to ./results/<name>).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import experiments
from .experiments import ConfigFileError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="laglearn",
                                     description="delayed-context online learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config or preset")
    run.add_argument("config", help="config file path or preset name")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    run.add_argument("--out-dir", default=None, help="override the output directory")

    val = sub.add_parser("validate", help="validate a config without running it")
    val.add_argument("config", help="config file path or preset name")

    sub.add_parser("list-presets", help="list the shipped experiment presets")

    plot = sub.add_parser("plot-script", help="write a gnuplot script for a results directory")
    plot.add_argument("results_dir", help="directory containing manifest.json")

    return parser


def _load(config_arg: str):
    path = experiments.resolve_config_arg(config_arg)
    return path, experiments.parse_config(path)


def _default_out_dir(config_path: Path) -> Path:
    base = os.environ.get(experiments.OUT_DIR_ENV, "results")
    return Path(base) / config_path.stem


def _cmd_run(args) -> int:
    path, cfg = _load(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    out_dir = Path(args.out_dir) if args.out_dir else (
        Path(cfg.out_dir) if cfg.out_dir else _default_out_dir(path))
    try:
        manifest = experiments.run_experiment(cfg, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['outputs'])} files to {out_dir}")
    return 0


def _cmd_validate(args) -> int:
    _, cfg = _load(args.config)
    errors = experiments.validate_config(cfg)
    if errors:
        raise ConfigFileError(errors)
    print("OK")
    for label, arm in experiments.expand_arms(cfg):
        resolved = experiments.resolve_arm(arm)
        print(f"[{label}]")
        for key in sorted(resolved):
            print(f"  {key} = {resolved[key]}")
    return 0


def _cmd_list_presets(_args) -> int:
    for name in experiments.preset_names():
        print(name)
    return 0


def _cmd_plot_script(args) -> int:
    results = Path(args.results_dir)
    manifest_path = results / "manifest.json"
    if not manifest_path.is_file():
        print(f"error: {manifest_path} not found", file=sys.stderr)
        return 2
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    lines = [
        "set datafile separator comma",
        "set key autotitle columnheader",
        "set xlabel 't'",
        "set ylabel 'cumulative loss'",
    ]
    plots = [f"'{arm['csv']}' using 1:2 with lines title '{label}'"
             for label, arm in sorted(manifest.get("arms", {}).items())]
    lines.append("plot " + ", \\\n     ".join(plots))
    script = results / "plot.gp"
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {script}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "list-presets": _cmd_list_presets,
        "plot-script": _cmd_plot_script,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (FileNotFoundError, ValueError) as exc:  # a missing input, a bad config or bad data
        for err in exc.errors if isinstance(exc, ConfigFileError) else [exc]:
            print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # Python flushes stdout again at exit: let the rest go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
