"""Command-line front door: run and validate experiment configs.

Exit codes: 0 on success, 2 on a configuration error (including a parameter
that only a run finds out of range), 3 when at least one replicate raised a
numerical flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bench import ConfigError, ExperimentConfig, run, write_records_csv, write_report_json
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


def _one_blas_thread() -> None:
    """Run both OpenBLAS copies that the numpy and scipy wheels bundle on one
    thread.

    numpy's ``libscipy_openblas64_`` serves its matrix products and scipy's
    ``libscipy_openblas`` serves ``dsyevr``; each starts one thread per CPU
    unless ``OPENBLAS_NUM_THREADS`` says otherwise.  A multithreaded
    reduction sums in another order, so ``records.csv`` would depend on the
    host and the environment, and the workers of a pool would oversubscribe
    the CPUs.  Each copy is set through its exported thread setter; a
    missing library or symbol leaves that copy alone, and so does ``import
    mcuq``, so library callers keep their own BLAS threads.
    """
    import ctypes
    import glob

    import numpy
    import scipy

    for package, lib, setter in (
            (numpy, "libscipy_openblas64_-*", "scipy_openblas_set_num_threads64_"),
            (scipy, "libscipy_openblas-*", "scipy_openblas_set_num_threads")):
        libs_dir = Path(package.__file__).parent.with_name(package.__name__ + ".libs")
        for path in glob.glob(str(libs_dir / lib)):
            try:
                set_threads = getattr(ctypes.CDLL(path), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            set_threads(1)


def _load_config(path: str) -> tuple[dict, ExperimentConfig]:
    """Parse the config at ``path`` into its JSON object and the config;
    validation is left to the command."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return raw, ExperimentConfig.from_dict(raw)


def _cmd_run(args) -> int:
    _, cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.reps is not None:
        cfg.reps = args.reps
    report = run(cfg, threads=args.threads)  # validates the overridden config
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(report, out_dir / "records.csv")
    write_report_json(report, out_dir / "report.json")
    flagged = int(report.aggregates.get("flagged", 0))
    print(f"wrote {out_dir / 'records.csv'} and {out_dir / 'report.json'} "
          f"({len(report.records)} records, {flagged} flagged, "
          f"{report.wall_time_s:.2f}s)")
    return 3 if flagged > 0 else 0


def _cmd_validate(args) -> int:
    raw, cfg = _load_config(args.config)
    cfg.validate()
    print(f"config ok: kind={cfg.kind} model={cfg.sampling_model()} {cfg.m1}x{cfg.m2} "
          f"n={cfg.n} reps={cfg.reps} seed={cfg.seed}")
    ignored = [name for name in raw if not cfg.reads(name)]
    if ignored:
        run_of = f"kind={cfg.kind}" + (f" method={cfg.method}" if cfg.reads("method") else "")
        print(f"ignored by {run_of}: {', '.join(ignored)}")
    return 0


def main(argv=None) -> int:
    _keep_freed_heap()
    _one_blas_thread()
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
    except (ConfigError, DomainError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
