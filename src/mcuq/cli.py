"""Command-line front door: run and validate experiment configs.

Exit codes: 0 on success, 2 on a configuration error (including a parameter
that only a run finds out of range), 3 when at least one replicate raised a
numerical flag.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bench import ExperimentConfig, run, write_records_csv, write_report_json
from .core import DomainError


def _keep_freed_heap() -> None:
    """On glibc, keep freed memory on the heap instead of returning it.

    A 200x200 ``matrix_lasso`` step allocates and frees several 320 KiB
    arrays; by default glibc hands such memory back to the kernel (unmapped,
    or trimmed off the top of the heap), so the next step faults it in
    again, zeroed.  Fixing the mmap threshold (``M_MMAP_THRESHOLD`` = -3)
    at glibc's own 64-bit ceiling of 32 MiB and the trim threshold
    (``M_TRIM_THRESHOLD`` = -1) at twice that keeps such blocks on the
    heap.  Setting either one turns off glibc's dynamic thresholds, so both
    are set or neither.  Other C libraries are left alone, and so are
    library callers of ``mcuq``.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if glibc:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if mallopt(-3, 32 << 20):
            mallopt(-1, 64 << 20)


def _load_config(path: str, **overrides) -> tuple[dict, ExperimentConfig]:
    """The JSON object at ``path``, with each override that is not None set on
    it, and the config built from it once, which checks itself."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise DomainError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DomainError(f"config {path} is not valid JSON: {e}") from e
    if isinstance(raw, dict):
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return raw, ExperimentConfig.from_dict(raw)


@contextlib.contextmanager
def _writing(out_dir: Path):
    """Turn an ``OSError`` met in the block into :class:`DomainError`."""
    try:
        yield
    except OSError as e:
        raise DomainError(f"cannot write to {out_dir}: {e}") from e


def _cmd_run(args) -> int:
    _, cfg = _load_config(args.config, seed=args.seed, reps=args.reps)
    out_dir = Path(args.out)
    # The directory is made before the run, so an unusable one fails before
    # any replicate; a run that fails removes the directories made here.
    with _writing(out_dir):
        made = list(itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = run(cfg, threads=args.threads)
    except BaseException:
        for d in made:  # the deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    with _writing(out_dir):
        write_records_csv(report, out_dir / "records.csv")
        write_report_json(report, out_dir / "report.json")
    flagged = int(report.aggregates.get("flagged", 0))
    print(f"wrote {out_dir / 'records.csv'} and {out_dir / 'report.json'} "
          f"({len(report.records)} records, {flagged} flagged, "
          f"{report.wall_time_s:.2f}s)")
    return 3 if flagged > 0 else 0


def _cmd_validate(args) -> int:
    raw, cfg = _load_config(args.config)
    print(f"config ok: kind={cfg.kind} model={cfg.sampling_model()} {cfg.m1}x{cfg.m2} "
          f"n={cfg.n} reps={cfg.reps} seed={cfg.seed}")
    ignored = [name for name in raw if not cfg.reads(name)]
    if ignored:
        run_of = f"kind={cfg.kind}" + (f" method={cfg.method}" if cfg.reads("method") else "")
        print(f"ignored by {run_of}: {', '.join(ignored)}")
    return 0


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(prog="uq",
                                     description="Monte Carlo experiments for "
                                                 "matrix-completion confidence sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--reps", type=int, default=None, help="override the replicate count")
    p_run.add_argument("--out", default="uq_out",
                       help="output directory (default: uq_out)")
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
    except DomainError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
