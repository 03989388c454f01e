"""One measurement in a fresh interpreter, started by run.py.

Modes (each prints one JSON object as its last stdout line):

* ``setup``   -- time ``import mcuq`` plus ``bench.run`` of the workload's
  config at ``reps=0``, then a fork pool of 2 started and stopped alone;
* ``measure`` -- ``--invocations`` warm ``uq run`` invocations, untraced;
* ``trace``   -- one untraced and one traced ``uq run`` at the same seed,
  at pool size 1, with the layer metrics of the traced one.

The BLAS-thread variables are set by the parent before this interpreter
loads numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _import_mcuq():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import mcuq
    if not Path(mcuq.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mcuq was imported from {mcuq.__file__}, not from {src}")
    return mcuq


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _run_once(cli, cfg: dict, cfg_path: Path, pool: int, out_dir: Path) -> dict:
    """One ``uq run`` through ``cli.main``, timed and checked.

    A job fails when it came back flagged; every job of the invocation fails
    when it raised, exited with a code other than 0 or 3, or failed its check.
    """
    argv = ["run", "--config", str(cfg_path), "--seed", str(cfg["seed"]),
            "--out", str(out_dir), "--threads", str(pool)]
    jobs = workloads.jobs(cfg)
    result = {"seed": cfg["seed"], "jobs": jobs, "seconds": 0.0, "failed": jobs,
              "problems": [], "records_sha256": None}
    for stale in ("records.csv", "report.json"):
        (out_dir / stale).unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        finally:
            result["seconds"] = time.perf_counter() - t0
        if rc not in (0, 3):
            result["problems"].append(f"uq run exited {rc}")
            return result
        records = workloads.read_records(out_dir / "records.csv")
        report = json.loads((out_dir / "report.json").read_text())
        result["records_sha256"] = hashlib.sha256(
            (out_dir / "records.csv").read_bytes()).hexdigest()
        result["problems"] = workloads.check(cfg, report, records)
        if not result["problems"]:
            result["failed"] = workloads.flagged(records)
    except Exception:
        traceback.print_exc()
        result["problems"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
    return result


def _prepare(args) -> tuple[dict, Path, Path]:
    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = workloads.config_for(args.workload, args.seed)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    return cfg, cfg_path, out_dir


def _seed(base: int, i: int) -> int:
    return base * 1_000_000 + i


def cmd_setup(args) -> dict:
    cfg = workloads.config_for(args.workload, args.seed)
    cfg["reps"] = 0
    t0 = time.perf_counter()
    _import_mcuq()
    t1 = time.perf_counter()
    from mcuq import bench
    bench.run(bench.ExperimentConfig.from_dict(cfg), threads=args.pool)
    t2 = time.perf_counter()
    _, pool = bench._map_for(2)
    pool.close()
    pool.join()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t2 - t0, "pool_s": t3 - t2}


def cmd_measure(args) -> dict:
    _import_mcuq()
    from mcuq import cli
    from envprobe import environment

    cfg, cfg_path, out_dir = _prepare(args)
    # Invocation 0 warms up and is not timed.
    runs = [_run_once(cli, {**cfg, "seed": _seed(args.seed, i)}, cfg_path, args.pool, out_dir)
            for i in range(args.invocations + 1)]
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    timed = runs[1:]
    return {
        "reps_per_s": sum(r["jobs"] for r in timed) / sum(r["seconds"] for r in timed),
        "attempted": sum(r["jobs"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "records_sha256": runs[0]["records_sha256"],
        "invocations": [{k: r[k] for k in ("seed", "jobs", "seconds", "failed")} for r in timed],
        "peak_rss_mb": peak_kib / 1024.0,
        "environment": environment(ROOT),
    }


def cmd_trace(args) -> dict:
    _import_mcuq()
    from mcuq import cli
    from tracer import Tracer, layer_metrics

    cfg, cfg_path, out_dir = _prepare(args)
    cfg["seed"] = _seed(args.seed, 0)
    _run_once(cli, cfg, cfg_path, 1, out_dir)  # warm-up
    plain = _run_once(cli, cfg, cfg_path, 1, out_dir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_once(cli, cfg, cfg_path, 1, out_dir)
    finally:
        leftovers = tracer.restore()
    problems = plain["problems"] + traced["problems"]
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    if plain["records_sha256"] != traced["records_sha256"]:
        problems.append("tracing changed records.csv")
    with gzip.open(out_dir / "spans.json.gz", "wt") as f:
        json.dump(tracer.spans, f)
    return {
        "metrics": layer_metrics(tracer.spans),
        "overhead_share": traced["seconds"] / plain["seconds"] - 1.0,
        "attempted": plain["jobs"] + traced["jobs"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "records_sha256": traced["records_sha256"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure", "trace"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pool", type=int, default=1)
    p.add_argument("--invocations", type=int, default=workloads.MIN_INVOCATIONS)
    p.add_argument("--out", default=".perfbench-out/work")
    args = p.parse_args()
    fn = {"setup": cmd_setup, "measure": cmd_measure, "trace": cmd_trace}[args.mode]
    _emit(fn(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
