"""Command-line entry point.

Example::

    gfdetect sweep --preset fig2 --trials 200 --out fig2.csv
    gfdetect sweep --sweep snr:-10,-5,0,5,10 --D 10 --out fig3.csv

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    PRESETS,
    apply_settings,
    emit_csv,
    parse_config_file,
    run_sweep,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfdetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and emit CSV")
    sweep.add_argument("--preset", choices=sorted(PRESETS), help="named experiment setup")
    sweep.add_argument("--config", help="path to a flat key=value configuration file")
    sweep.add_argument("--out", help="output CSV path (default: stdout)")
    group = sweep.add_argument_group("configuration keys (override preset and config file)")
    for key in CONFIG_KEYS:
        group.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                           metavar="VALUE", help=f"set {key}")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    if args.preset:
        config = ExperimentConfig(**PRESETS[args.preset])
    if args.config:
        config = apply_settings(config, parse_config_file(args.config))
    # a flag not given leaves no attribute, so only the flags given override
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS}
    config = apply_settings(config, overrides)
    config.validate()
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
    except (ConfigError, OSError) as exc:
        print(f"gfdetect: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_sweep(config)
        emit_csv(rows, args.out or sys.stdout)
    except OSError as exc:
        target = args.out or "<stdout>"
        print(f"gfdetect: I/O error writing {target}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
