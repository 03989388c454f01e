"""The benchmark's workloads: `uq run` configs shaped like the acceptance
criteria, their pool sizes, invocation counts, job counts and output checks.

Standard library only: the orchestrator imports this module without
loading numpy.
"""

from __future__ import annotations

import csv
import math

_NOISE = {"kind": "scaled-rademacher", "sigma": 0.5, "U": 0.5}

#: name -> (config without seed, pool size, timed invocations per second of
#: ``--seconds``).  Every workload uses rademacher noise with sigma = U and
#: alpha = 0.1.  A run times a fixed number of invocations (see
#: ``invocations_for``), so the work done for one ``--seed`` never depends on
#: how fast the code is.  The rates are the invocations per second measured
#: once on a 2-CPU x86-64 host, except lbdemo-large's, which is twice that:
#: nearly all of its time is in a few heavy infimum_stat searches on the H1
#: datasets (the five costliest of an invocation's 148 calls take about 70%
#: of its time), so it needs twice the invocations for a steady figure.
WORKLOADS = {
    # Criterion 01/04 shape: matrix_lasso on 30x30, where per-call overhead
    # dominates; bypasses infimum_stat, svd_deterministic and the pool.
    "uci-small": ({"kind": "coverage", "model": "trace", "method": "u_ci",
                   "m1": 30, "m2": 30, "n": 900, "k_truth": 3, "a": 1.0,
                   "noise": _NOISE, "alpha": 0.1, "reps": 40}, 1, 2.9),
    # The same layers at 200x200, where LAPACK dominates, plus the fork pool.
    "uci-large": ({"kind": "coverage", "model": "trace", "method": "u_ci",
                   "m1": 200, "m2": 200, "n": 20000, "k_truth": 3, "a": 1.0,
                   "noise": _NOISE, "alpha": 0.1, "reps": 12}, 2, 0.58),
    # Criterion 07 shape: many small svd_deterministic calls in
    # infimum_stat, plus calibration; bypasses matrix_lasso and pair_repeats.
    "power-small": ({"kind": "test_power", "model": "bernoulli",
                     "m1": 20, "m2": 20, "n": 300, "k0": 1, "a": 30.0,
                     "noise": _NOISE, "alpha": 0.1,
                     "separation_grid": [0.0, 25.0],
                     "threshold_mode": "calibrated", "restarts": 8,
                     "reps": 30}, 1, 0.62),
    # Revealed half of criterion 09: infimum_stat at 96x96 with the pool.
    # Calibration and H0 replicates are cheap; the 24 H1 replicates carry
    # the cost.
    "lbdemo-large": ({"kind": "lbdemo", "m1": 96, "m2": 96, "n": 2304,
                      "k": 8, "k0": 1, "v": 0.5, "reveal_sigma": True,
                      "noise": _NOISE, "alpha": 0.1,
                      "reps": 24, "cal_reps": 100}, 2, 1.2),
}

#: lbdemo writes one record per built-in test, not one per job.
LBDEMO_TESTS = 4


#: Fewest timed invocations in a measurement, however short ``--seconds``.
MIN_INVOCATIONS = 3


def config_for(name: str, seed: int) -> dict:
    return {**WORKLOADS[name][0], "seed": seed}


def pool_for(name: str) -> int:
    return WORKLOADS[name][1]


def invocations_for(name: str, seconds: float) -> int:
    """Timed invocations of a measurement of ``seconds``."""
    return max(MIN_INVOCATIONS, round(seconds * WORKLOADS[name][2]))


def jobs(cfg: dict) -> int:
    """Items the harness maps for one run of ``cfg``."""
    if cfg["kind"] == "test_power":
        return cfg["reps"] * len(cfg["separation_grid"])
    if cfg["kind"] == "lbdemo":
        return cfg["reps"] + cfg["cal_reps"]
    return cfg["reps"]


def read_records(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def flagged(records: list[dict]) -> int:
    """Records that came back with a numerical flag."""
    return sum(int(rec.get("flag", "0")) for rec in records)


def check(cfg: dict, report: dict, records: list[dict]) -> list[str]:
    """Acceptance-rule checks at the run's ``reps``; returns the failures."""
    reps, alpha = cfg["reps"], cfg["alpha"]
    agg = report["aggregates"]
    bad = []
    if cfg["kind"] == "coverage":
        want = reps
        floor = 0.9 - 3.0 * math.sqrt(0.09 / reps)
        if not agg["coverage"] >= floor:
            bad.append(f"coverage {agg['coverage']} < {floor:.4f}")
    elif cfg["kind"] == "test_power":
        want = reps * len(cfg["separation_grid"])
        cap = alpha + 3.0 * math.sqrt(alpha / reps)
        if not agg["size"] <= cap:
            bad.append(f"size {agg['size']} > {cap:.4f}")
        power = agg["rejection_rate"][repr(25.0)]
        if not power >= 0.9:
            bad.append(f"power at 25 units {power} < 0.9")
    else:
        want = LBDEMO_TESTS
        if not agg["min_error_sum"] <= 0.7:
            bad.append(f"min_error_sum {agg['min_error_sum']} > 0.7")
        if any(int(rec["reps"]) != reps for rec in records):
            bad.append(f"an lbdemo row reports reps other than {reps}")
    if len(records) != want or report["n_records"] != want:
        bad.append(f"{len(records)} records, expected {want}")
    return bad
