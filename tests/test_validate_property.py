"""Validation fails closed: a property test over small configs of every kind.

Every config that ``uq validate`` accepts must exit 0, 2 or 3 from ``uq run``
and never end in a traceback; every config it rejects must exit 2 from both
commands with one ``config error:`` line.  The drawn values cover the edge
cases of the north star (no pairs, ``k0 = 0``, ``sigma = U``, tiny ``n``,
``n`` outside the recommended range) together with bad values: for each
field, one of the wrong JSON type and one just outside each bound that its
rule in ``bench.RULES`` declares, plus hand-listed extras.  Besides the
random draws, each bad value replaces a field of a small valid config of
every kind, so every one of them is checked on every run.
"""

import contextlib
import io
import json
import math
import reprlib
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mcuq import cli
from mcuq.bench import KINDS, METHODS, MODELS, RULES
from mcuq.core import NOISE_KINDS

#: A value of the wrong JSON type for a field of each type.
WRONG_TYPE = {"string": 5, "integer": 2.5, "number": "1", "boolean": "false", "array": 5,
              "object": "x"}


def outside(rule) -> list:
    """One value just outside each declared bound of ``rule``: a string off
    its choices, the next integer or float past a closed bound, and an open
    bound itself.  An array gets one such entry."""
    if rule.choices is not None:
        return [tuple(rule.choices)[0] + "-"]
    integer = (rule.entries or rule.json) == "integer"
    values = [float(bound) for bound in (rule.gt, rule.lt) if bound is not None]
    if rule.ge is not None:
        values.append(rule.ge - 1 if integer else math.nextafter(rule.ge, -math.inf))
    if rule.le is not None:
        values.append(rule.le + 1 if integer else math.nextafter(rule.le, math.inf))
    return [[x] if rule.entries else x for x in values]


#: Bad values that no declaration generates: booleans, integral floats and
#: null where another type belongs, non-finite and huge numbers, the bounds
#: that tie fields together (``k_truth`` 7 is past every drawn shape, and 1
#: is the diameter base's ``k0``), fields that are no longer in the config
#: (``lam``, ``z``, ``K`` and ``alpha_test``), grids that hold a cell twice,
#: and the configs of earlier fail-closed bugs.
EXTRAS = [
    ("seed", 2.0), ("m1", 4.5), ("m1", True), ("k0", -1), ("k", 0), ("restarts", 1.5),
    ("k_truth", 0), ("k_truth", 7), ("k_truth", 1),
    ("cal_reps", 0), ("alpha", 1.5), ("alpha_test", 2.0), ("alpha_test", math.nan),
    ("lam", math.inf), ("z", math.nan), ("K", math.inf), ("a", math.nan), ("a", math.inf),
    ("a", -1.0), ("k_grid", [1, 9]), ("k_grid", [1.5]),
    ("separation_grid", [math.nan]), ("separation_grid", []),
    ("noise", {"kind": "scaled-rademacher", "sigma": 0.5, "U": math.inf}),
    ("noise", {"kind": "scaled-rademacher", "sigma": math.nan, "U": 0.5}),
    ("noise", {"kind": "two-point-skewed", "sigma": 0.5, "U": 2.0}),
    ("kind", ["coverage"]), ("method", None), ("threshold_mode", 1),
    ("a", 10 ** 400), ("separation_grid", [10 ** 400]),
    ("noise", {"kind": "uniform", "sigma": 10 ** 400, "U": 1.0}),
    ("m1", 10 ** 20), ("n", 10 ** 20), ("n_grid", [10 ** 20]),
    ("reps", 10 ** 20), ("cal_reps", 10 ** 20), ("restarts", 10 ** 20),
    ("separation_grid", [0.0, 0.0]), ("separation_grid", [0, 0.0]), ("k_grid", [1, 1]),
    ("n_grid", [4, 4]), ("k", 10 ** 400),
]

#: Values that some or all kinds reject, one of which may replace a field of
#: an otherwise well-formed config: for each field a value of the wrong JSON
#: type and one just outside each declared bound, then the extras.
BAD_VALUES = [(name, value) for name, rule in RULES.items()
              for value in (WRONG_TYPE[rule.json], *outside(rule))] + EXTRAS


@st.composite
def configs(draw):
    """A small config of any kind, mostly well-formed, sometimes with one bad
    field; tiny ``n`` and ``n`` far above ``m1*m2`` (no or many pairs) are
    both drawn."""
    kind = draw(st.sampled_from(tuple(KINDS)))
    m1 = draw(st.integers(1, 6))
    m2 = m1 if kind == "lbdemo" else draw(st.integers(1, 6))
    d = min(m1, m2)
    # `model` is drawn for every kind, and so contradicts the method or kind
    # that fixes the sampling model as often as not.
    model, method = draw(st.sampled_from(MODELS)), draw(st.sampled_from(tuple(METHODS)))
    sampled = {"coverage": METHODS[method], "diameter": METHODS[method], "risk": model}
    if sampled.get(kind, "bernoulli") == "bernoulli":
        n = draw(st.integers(1, m1 * m2))
    else:
        n = draw(st.sampled_from([1, 2, 5, m1 * m2, 4 * m1 * m2]))
    k0 = draw(st.integers(0, d - 1))
    sigma = draw(st.sampled_from([0.0, 0.2, 0.5]))
    raw = {
        "kind": kind, "model": model, "m1": m1, "m2": m2, "n": n, "method": method,
        "k_truth": draw(st.integers(1, d)), "k0": k0, "k": k0 + draw(st.integers(1, 2)),
        "a": draw(st.sampled_from([0.5, 1.0, 30.0])),
        "noise": {"kind": draw(st.sampled_from(NOISE_KINDS)), "sigma": sigma,
                  "U": draw(st.sampled_from([sigma or 0.5, 1.0]))},  # sigma = U is drawn
        "reps": 1, "seed": draw(st.integers(0, 3)),
        "threshold_mode": draw(st.sampled_from(["calibrated", "theoretical"])),
        "cal_reps": 100 if kind != "lbdemo" else draw(st.integers(1, 5)),
        "restarts": draw(st.integers(0, 2)),
        "separation_grid": draw(st.sampled_from([[0.0], [0.0, 2.0], [5.0]])),
        "k_grid": draw(st.lists(st.integers(1, d), max_size=2, unique=True)),
        "n_grid": draw(st.lists(st.integers(1, m1 * m2), max_size=2, unique=True)),
        "v": draw(st.sampled_from([0.05, 0.5, 1.0])),
        "reveal_sigma": draw(st.booleans()),
    }
    # A drawn field that the config lacks would fail every example as
    # unknown, and the test would pass without checking anything else.
    assert set(raw) <= set(RULES)
    if draw(st.booleans()):
        key, value = draw(st.sampled_from(BAD_VALUES))
        raw[key] = value
    return raw


def uq(*argv: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(list(argv))
    return code, err.getvalue()


def assert_fails_closed(raw: dict) -> None:
    """Either ``uq validate`` accepts ``raw`` and ``uq run`` exits 0, 2 or 3,
    or both commands exit 2 with the same one ``config error:`` line.  Both
    write into the working directory."""
    Path("config.json").write_text(json.dumps(raw))
    code, err = uq("validate", "--config", "config.json")
    if code == 0:
        assert uq("run", "--config", "config.json")[0] in (0, 2, 3)
        return
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert uq("run", "--config", "config.json") == (2, err)


# The fixtures are set up once, so every example shares one working directory.
# 150 examples, or more under a larger profile (`--hypothesis-profile=ci`).
@settings(max_examples=max(150, settings.default.max_examples), deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(raw=configs())
# `out` is no config field, only `uq run --out`: a config that sets it, here
# with a rule between fields broken too, fails both commands as unknown.
@example(raw={"kind": "coverage", "model": "trace", "m1": 1, "m2": 1, "n": 1, "method": "u_ci",
              "reps": 1, "out": 5})
# The strategy draws k_truth past the shape only as a rare extra; this one
# breaks the rule that ties it to the shape in a kind that reads it.
@example(raw={"kind": "coverage", "model": "trace", "m1": 6, "m2": 6, "n": 36, "method": "u_ci",
              "reps": 1, "k_truth": 7})
def test_validate_fails_closed(tmp_path, monkeypatch, raw):
    # `uq run` writes into `uq_out/` of the test's working directory.
    monkeypatch.chdir(tmp_path)
    assert_fails_closed(raw)


#: A small valid config of each kind, each run cheap.
BASES = {
    "coverage": {"kind": "coverage", "m1": 4, "m2": 4, "n": 16, "reps": 1},
    "diameter": {"kind": "diameter", "method": "adaptive_ci", "m1": 4, "m2": 4, "n": 16,
                 "k0": 1, "k": 2, "k_truth": 2, "threshold_mode": "theoretical", "restarts": 1,
                 "reps": 1},
    "risk": {"kind": "risk", "model": "bernoulli", "m1": 4, "m2": 4, "n": 16, "reps": 1},
    "test_power": {"kind": "test_power", "m1": 4, "m2": 4, "n": 16, "k0": 1, "a": 30.0,
                   "separation_grid": [0.0, 2.0], "threshold_mode": "theoretical",
                   "restarts": 1, "reps": 1},
    "lbdemo": {"kind": "lbdemo", "m1": 4, "m2": 4, "n": 8, "k": 2, "k0": 1, "cal_reps": 2,
               "reps": 1},
}


def test_every_base_config_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sorted(BASES) == sorted(KINDS)
    for raw in BASES.values():
        Path("config.json").write_text(json.dumps(raw))
        assert uq("validate", "--config", "config.json") == (0, "")
        assert uq("run", "--config", "config.json")[0] == 0


@pytest.mark.parametrize("key, value", BAD_VALUES,
                         ids=[f"{key}={reprlib.repr(value)}" for key, value in BAD_VALUES])
def test_each_bad_value_fails_closed_in_every_kind(tmp_path, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    for base in BASES.values():
        assert_fails_closed({**base, key: value})
