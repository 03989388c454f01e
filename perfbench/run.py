"""Benchmark of the `uq run` path, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probe-blas --seed N --seconds S

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics; the last stdout line is the JSON result.
``--probe-blas`` compares uci-large at pool 2 with the BLAS-thread variables
pinned to 1 and unset; it is reported, never gated.  Every measurement runs
in a fresh interpreter (see worker.py); details of each run are written to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from envprobe import BLAS_THREAD_VARS  # noqa: E402
from tracer import COUNT_SUFFIXES  # noqa: E402
from workloads import WORKLOADS, invocations_for, pool_for  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``; their median is reported.
SETUP_STARTS = 4
#: A run, child processes included, ends within LIMIT_BASE_S plus
#: LIMIT_PER_WINDOW times ``--seconds`` for each measuring window it holds
#: (one untraced, two traced): 110 s and 170 s at 15 s.
LIMIT_BASE_S = 50.0
LIMIT_PER_WINDOW = 4.0
#: Alternating repeats of each BLAS setting in ``--probe-blas``.
PROBE_REPEATS = 3

PINNED = {var: "1" for var in BLAS_THREAD_VARS}


class BenchError(RuntimeError):
    """A measurement could not be taken; the run prints no result."""


def _child(mode: str, workload: str, seed: int, deadline: float, *,
           pool: int = 1, invocations: int = 0, out: str = "work",
           env: dict | None = None) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line.

    The child leads its own process group, so its pool workers are killed
    with it on timeout.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--pool", str(pool), "--invocations", str(invocations),
           "--out", str((OUT / out).relative_to(ROOT))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            env=env or {**os.environ, **PINNED}, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} {workload} did not finish in time")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays, if any
        except ProcessLookupError:
            pass
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    pool = pool_for(workload)
    setups = [_child("setup", workload, seed, deadline, pool=pool) for _ in range(SETUP_STARTS)]
    meas = _child("measure", workload, seed, deadline, pool=pool,
                  invocations=invocations_for(workload, seconds), out=f"{workload}-measure")
    setup_s = [s["setup_s"] for s in setups]
    metrics = {
        "reps_per_s": meas["reps_per_s"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": meas["peak_rss_mb"],
        "ok_share": 1.0 - meas["failed"] / meas["attempted"],
    }
    details = {
        "attempted": meas["attempted"], "failed": meas["failed"],
        "problems": meas["problems"], "environment": meas["environment"],
        "records_sha256": meas["records_sha256"],
        "setup_s_samples": setup_s,
        "invocations": meas["invocations"],
    }
    return metrics, details


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups = [_child("setup", workload, seed, deadline, pool=pool_for(workload))
              for _ in range(SETUP_STARTS)]
    # Both pool sizes time the same inputs, sized to half a window at the
    # workload's own pool size.
    invocations = invocations_for(workload, seconds / 2.0)
    untraced = {pool: _child("measure", workload, seed, deadline, pool=pool,
                             invocations=invocations, out=f"{workload}-pool{pool}")
                for pool in (1, 2)}
    passes = [_child("trace", workload, seed, deadline, out=f"{workload}-trace{i}")
              for i in range(2)]

    first, second = (p["metrics"] for p in passes)
    metrics = {}
    problems = [q for p in passes for q in p["problems"]]
    for name, value in first.items():
        if name.endswith(COUNT_SUFFIXES):
            if value != second[name]:
                problems.append(f"count {name} differs between traced runs: "
                                f"{value} vs {second[name]}")
            metrics[name] = value
        else:
            metrics[name] = (value + second[name]) / 2.0

    metrics["synth.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["bench.pool_s"] = statistics.median(s["pool_s"] for s in setups)
    metrics["bench.parallel_efficiency"] = (
        untraced[2]["reps_per_s"] / (2.0 * untraced[1]["reps_per_s"]))
    metrics["trace.overhead_share"] = statistics.mean(p["overhead_share"] for p in passes)
    measured = list(untraced.values()) + passes
    details = {
        "attempted": sum(m["attempted"] for m in measured),
        "failed": sum(m["failed"] for m in measured),
        "problems": [q for m in untraced.values() for q in m["problems"]] + problems,
        "environment": untraced[1]["environment"],
        "records_sha256": passes[0]["records_sha256"],
        "traced_pool": 1,
    }
    return metrics, details


def probe_blas(seed: int, seconds: float) -> dict:
    """uci-large at pool 2, BLAS threads pinned to 1 against unset, alternating."""
    deadline = time.monotonic() + 3600.0
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    throughput = {"pinned": [], "unset": []}
    for r in range(PROBE_REPEATS):
        order = ("pinned", "unset") if r % 2 == 0 else ("unset", "pinned")
        for label in order:
            env = {**unset, **PINNED} if label == "pinned" else unset
            meas = _child("measure", "uci-large", seed + r, deadline, pool=2,
                          invocations=invocations_for("uci-large", seconds),
                          out=f"probe-{label}", env=env)
            throughput[label].append(meas["reps_per_s"])
    return {label: {"reps_per_s_median": statistics.median(v),
                    "reps_per_s_quartiles": statistics.quantiles(v, n=4), "runs": v}
            for label, v in throughput.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the uq run path.")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-blas", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (args.probe_blas or args.workload):
        p.error("give --workload or --probe-blas")
    if not (ROOT / "src" / "mcuq" / "__init__.py").is_file():
        print(f"no mcuq package under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if args.probe_blas:
            result = probe_blas(args.seed, args.seconds)
            (OUT / f"probe-blas-s{args.seed}.json").write_text(json.dumps(result, indent=2))
            print(json.dumps(result))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        windows = 2 if args.trace else 1
        deadline = time.monotonic() + LIMIT_BASE_S + LIMIT_PER_WINDOW * windows * args.seconds
        measure = per_layer if args.trace else end_to_end
        metrics, details = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"metrics do not match BENCHMARK.json: missing "
              f"{sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}",
              file=sys.stderr)
        return 1
    details["environment"]["pool"] = pool_for(args.workload)
    details["workload"] = args.workload
    details["seed"] = args.seed
    details["metrics"] = metrics
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n")

    for m in wanted:
        print(f"{m['name']:<52} {metrics[m['name']]:>14.6g} {m['unit']}")
    for problem in details["problems"]:
        print(f"check failed: {problem}")
    print("environment: " + json.dumps(details["environment"], sort_keys=True))
    print("records.csv sha256: " + str(details["records_sha256"]))
    print(json.dumps({
        "correct": not details["problems"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
