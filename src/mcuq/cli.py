"""Command-line front door: run and validate experiment configs.

Exit codes: 0 on success, 2 on a configuration error (including a parameter
that only a run finds out of range), 3 when at least one replicate raised a
numerical flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bench import ConfigError, ExperimentConfig, run, write_records_csv, write_report_json
from .core import DomainError


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    try:
        cfg = ExperimentConfig.from_dict(raw)
        cfg.validate()
    except (DomainError, TypeError) as e:
        raise ConfigError(str(e)) from e
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.reps is not None:
        cfg.reps = args.reps
    if args.out is not None:
        cfg.out = args.out
    cfg.validate()
    report = run(cfg, threads=args.threads)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(report, out_dir / "records.csv")
    write_report_json(report, out_dir / "report.json")
    flagged = int(report.aggregates.get("flagged", 0))
    print(f"wrote {out_dir / 'records.csv'} and {out_dir / 'report.json'} "
          f"({len(report.records)} records, {flagged} flagged, "
          f"{report.wall_time_s:.2f}s)")
    return 3 if flagged > 0 else 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    print(f"config ok: kind={cfg.kind} model={cfg.model} "
          f"{cfg.m1}x{cfg.m2} n={cfg.n} reps={cfg.reps} seed={cfg.seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="uq",
                                     description="Monte Carlo experiments for "
                                                 "matrix-completion confidence sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--reps", type=int, default=None, help="override the replicate count")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--threads", type=int, default=1, help="worker processes")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate an experiment config")
    p_val.add_argument("--config", required=True, help="path to a JSON config")
    p_val.set_defaults(fn=_cmd_validate)

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(fn=lambda args: (print(__version__), 0)[1])

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
