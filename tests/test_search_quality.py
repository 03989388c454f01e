"""Quality panel of the infimum search.

``infimum_stat`` returns the smallest ``|g|`` that a multi-start local search
attains, an upper bound on the infimum.  Under scaled-rademacher noise with
``sigma = U`` the calibrated threshold is exactly 0, so the test rejects
exactly when the search fails to bracket zero: a faster but weaker search is
a correctness regression.  This panel scores a search on five groups:

* ``power-small H0``, ``power-small H1``: the null and the separated
  replicates of the benchmark's ``power-small`` workload (test_power, 20x20,
  n=300, k0=1, a=30, sigma=U=0.5, restarts 8);
* ``criterion 08``: criterion 08's rank-k0 and far truths (20x20, n=300,
  k0=1, a=2, sigma=U=0.25), searched from ``adaptive_ci``'s center;
* ``lbdemo H1``: revealed lbdemo's H1 datasets at criterion 09's shape
  (m=96, n=2304, k=8, k0=1, v=0.5, restarts 2, max_iter 60), the searches
  that carry the benchmark's ``lbdemo-large`` workload;
* ``grid 4x4``: the five 4x4 cases that criterion 07 and
  ``test_matches_rank_one_grid_oracle`` check against the rank-one grid
  oracle (a=1e6, restarts 16, max_iter 300).

Each dataset's reference is the smaller statistic of two strong searches,
the plain-step search and the momentum search without the rejoin rule
(``_infimum_stat_reference(rejoin=False)``, ``infimum_stat`` before a start
ended on rejoining an earlier start's basin), each with 16 restarts from
another seed and max_iter 600; for the 4x4 cases the grid oracle joins the
minimum.  Both come from the test helper, not from the code under test, so a
change of ``infimum_stat`` cannot move its own quality bar.  A search's
excess on a dataset is ``max(value - reference, 0)``.
``infimum_stat`` passes a group when its bracketed share is no lower than
the plain-step search's (``_infimum_stat_reference(momentum=False)``, the
search before momentum was added) and its summed excess is no higher.
No per-dataset rule is applied: any change of the search path moves some
datasets into a worse basin and others into a better one.

The tier-1 test scores the first few datasets of each group.  The full
panel (about a minute on one core) prints each group's bracketed
shares, summed excesses, projections and search seconds, and every dataset
whose statistic rose:

    PYTHONPATH=src python tests/test_search_quality.py
"""

import contextlib
import math
import sys
import time
from dataclasses import dataclass

from mcuq import bernoulli_uq, core, lbdemo
from mcuq.bench import ExperimentConfig, _power_truth, separated_truth
from mcuq.core import NoiseSpec, minimax_rate_sq
from mcuq.synth import child_seed, make_low_rank, sample_bernoulli

import test_bernoulli_uq as tbu  # the reference searches

#: Per-group slice sizes of the tier-1 test and of the full panel.
FAST = {"power_reps": (1, 10), "c08_reps": 10, "lbdemo": ((1,), 6), "grid": 3}
FULL = {"power_reps": (3, 30), "c08_reps": 300, "lbdemo": ((1, 2, 3, 4, 5, 7), 24),
        "grid": 5}

STRONG_RESTARTS, STRONG_MAX_ITER = 16, 600


@dataclass
class Case:
    group: str
    name: str
    data: object
    kw: dict
    oracle: float | None = None


def _power_small(seeds, reps):
    noise = NoiseSpec("scaled-rademacher", 0.5, 0.5)
    for seed in seeds:
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=20, m2=20,
                               n=300, k0=1, a=30.0, noise=noise, alpha=0.1,
                               separation_grid=(0.0, 25.0), restarts=8,
                               reps=reps, seed=seed)
        for j, s_mult in enumerate(cfg.separation_grid):
            for r in range(reps):
                idx = j * reps + r
                M = _power_truth(cfg, s_mult, idx)
                data = sample_bernoulli(M, cfg.n, noise=noise, seed=child_seed(seed, 11, idx))
                yield Case("power-small " + ("H0" if s_mult == 0.0 else "H1"),
                           f"seed {seed} job {idx}", data,
                           dict(k0=1, a=30.0, sigma=0.5, restarts=8,
                                seed=child_seed(seed, 12, idx), max_iter=120))


def _criterion_08(reps):
    m, n, k0, a, sigma = 20, 300, 1, 2.0, 0.25
    noise = NoiseSpec("scaled-rademacher", sigma, sigma)
    unit = math.sqrt(minimax_rate_sq(m, m, k0, n))
    for truth, (s_truth, s_data, s_search) in (("rank-k0", (802, 803, 804)),
                                               ("far", (805, 806, 807))):
        for r in range(reps):
            if truth == "rank-k0":
                M = make_low_rank(m, m, k0, a=a, seed=child_seed(s_truth, r))
            else:
                M = separated_truth(m, m, k0, a=a, rho=2.0 * unit, seed=child_seed(s_truth, r))
            data = sample_bernoulli(M, n, noise=noise, seed=child_seed(s_data, r))
            yield Case("criterion 08", f"{truth} rep {r}", data,
                       dict(k0=k0, a=a, sigma=sigma, restarts=8,
                            seed=child_seed(s_search, r), max_iter=120))


def _lbdemo_h1(seeds, reps):
    m, n, k, k0 = 96, 2304, 8, 1
    rho = lbdemo.rho_for(k, m, n, v=0.5)
    for seed in seeds:
        for r in range(reps):
            draw = lbdemo.sample_h1(m, k, rho=rho, seed=child_seed(seed, 4, r))
            data = lbdemo.h1_dataset(draw, n, seed=child_seed(seed, 5, r))
            yield Case("lbdemo H1", f"seed {seed} rep {r}", data,
                       dict(k0=k0, a=1.0, sigma=math.sqrt(1.0 - 4.0 * rho * rho),
                            restarts=2, seed=child_seed(seed, 6, r), max_iter=60))


def _grid_4x4(count):
    noise = NoiseSpec("scaled-rademacher", 0.5, 0.5)
    cases = []
    for trial, k_true in enumerate((1, 3, 2)):  # criterion 07
        M = make_low_rank(4, 4, k_true, a=1.0 + trial, seed=702 + trial)
        cases.append((f"criterion 07 trial {trial}",
                      sample_bernoulli(M, 12, noise=noise, seed=705 + trial), 708))
    for scenario, k_true, a_true, seed in (("null", 1, 1.0, 16), ("signal", 3, 3.0, 17)):
        M = make_low_rank(4, 4, k_true, a=a_true, seed=seed)
        cases.append((f"grid oracle test {scenario}",
                      sample_bernoulli(M, 12, noise=noise, seed=18), 19))
    for name, data, seed in cases[:count]:
        yield Case("grid 4x4", name, data,
                   dict(k0=1, a=1e6, sigma=0.5, restarts=16, seed=seed, max_iter=300),
                   oracle=tbu.rank_one_grid_infimum(data, 0.5))


def panel(sizes: dict) -> list:
    seeds, reps = sizes["power_reps"]
    return [*_power_small(range(1, seeds + 1), reps), *_criterion_08(sizes["c08_reps"]),
            *_lbdemo_h1(*sizes["lbdemo"]), *_grid_4x4(sizes["grid"])]


def reference(case) -> float:
    strong = dict(case.kw, restarts=STRONG_RESTARTS, seed=child_seed(case.kw["seed"], 1),
                  max_iter=STRONG_MAX_ITER)
    values = [tbu._infimum_stat_reference(case.data, momentum=False, **strong).value,
              tbu._infimum_stat_reference(case.data, rejoin=False, **strong).value]
    if case.oracle is not None:
        values.append(case.oracle)
    return min(values)


#: The scored searches: the module whose ``truncate_rank`` each calls, and
#: the search at the dataset's own settings.
SEARCHES = {
    "plain": (tbu, lambda case: tbu._infimum_stat_reference(
        case.data, momentum=False, **case.kw)),
    "momentum": (bernoulli_uq, lambda case: bernoulli_uq.infimum_stat(case.data, **case.kw)),
}


@contextlib.contextmanager
def counting_truncations(module):
    calls = []

    def counting(A, k):
        calls.append(k)
        return core.truncate_rank(A, k)

    module.truncate_rank = counting
    try:
        yield calls
    finally:
        module.truncate_rank = core.truncate_rank


def evaluate(case) -> dict:
    """The reference and, per search, the statistic, whether it bracketed
    zero, its projections and its seconds."""
    row = {"case": case, "ref": reference(case)}
    for label, (module, search) in SEARCHES.items():
        with counting_truncations(module) as calls:
            t0 = time.perf_counter()
            res = search(case)
            seconds = time.perf_counter() - t0
        row[label] = {"value": res.value, "bracketed": res.bracketed_zero,
                      "projections": len(calls), "seconds": seconds}
    return row


def summarize(rows) -> dict:
    """Per group: the rows, and per search the bracketed count, summed
    excess, projections and seconds."""
    groups = {}
    for row in rows:
        grp = groups.setdefault(row["case"].group, {"rows": [], **{
            label: dict.fromkeys(("bracketed", "excess", "projections", "seconds"), 0)
            for label in SEARCHES}})
        grp["rows"].append(row)
        for label in SEARCHES:
            got, tally = row[label], grp[label]
            tally["bracketed"] += got["bracketed"]
            tally["excess"] += max(got["value"] - row["ref"], 0.0)
            tally["projections"] += got["projections"]
            tally["seconds"] += got["seconds"]
    return groups


def passes(grp) -> bool:
    plain, new = grp["plain"], grp["momentum"]
    return new["bracketed"] >= plain["bracketed"] and new["excess"] <= plain["excess"]


def test_momentum_search_is_no_weaker_on_each_group():
    groups = summarize(evaluate(case) for case in panel(FAST))
    assert set(groups) == {"power-small H0", "power-small H1", "criterion 08",
                           "lbdemo H1", "grid 4x4"}
    for name, grp in groups.items():
        assert passes(grp), (name, grp["plain"], grp["momentum"])


def _full_panel() -> bool:
    t0 = time.perf_counter()
    groups = summarize(evaluate(case) for case in panel(FULL))
    print(f"full panel in {time.perf_counter() - t0:.0f} s")
    for name, grp in groups.items():
        plain, new = grp["plain"], grp["momentum"]
        rows = grp["rows"]
        print(f"{name}: {len(rows)} datasets, {'PASS' if passes(grp) else 'FAIL'}; "
              f"bracketed {plain['bracketed']} -> {new['bracketed']} "
              f"(reference zero on {sum(row['ref'] == 0.0 for row in rows)}); "
              f"summed excess {plain['excess']:.6g} -> {new['excess']:.6g}; "
              f"projections {plain['projections']} -> {new['projections']}; "
              f"search s {plain['seconds']:.2f} -> {new['seconds']:.2f}")
        moved = {"rose": [], "fell": [], "rounding": 0}
        for row in rows:
            old, got = row["plain"]["value"], row["momentum"]["value"]
            if abs(got - old) <= 1e-9 * abs(old):
                moved["rounding"] += got != old
            else:
                moved["rose" if got > old else "fell"].append(row)
        print(f"  {len(moved['fell'])} fell and {len(moved['rose'])} rose by more than "
              f"1e-9 relative; {moved['rounding']} moved by less")
        for row in moved["rose"]:
            print(f"  rose: {row['case'].name}: {row['plain']['value']:.9g} -> "
                  f"{row['momentum']['value']:.9g} (reference {row['ref']:.9g})")
    return all(passes(grp) for grp in groups.values())


if __name__ == "__main__":
    sys.exit(0 if _full_panel() else 1)
