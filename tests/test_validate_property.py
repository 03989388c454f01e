"""Validation fails closed: a property test over small configs of every kind.

Every config that ``uq validate`` accepts must exit 0, 2 or 3 from ``uq run``
and never end in a traceback; every config it rejects must exit 2 from both
commands with one ``config error:`` line.  The drawn values cover the edge
cases of the north star (no pairs, ``k0 = 0``, ``sigma = U``, tiny ``n``,
``n`` outside the recommended range) together with non-finite and mistyped
values.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcuq import cli
from mcuq.bench import KINDS, METHODS, MODELS
from mcuq.core import NOISE_KINDS

#: Values that some or all kinds reject, one of which may replace a field of
#: an otherwise well-formed config.
BAD_VALUES = [
    ("seed", -1), ("seed", 2.0), ("reps", 2.5), ("reps", -1), ("m1", 4.5), ("m1", True),
    ("n", 0), ("k0", -1), ("k", 0), ("restarts", 1.5), ("cal_reps", 0), ("alpha", 1.5),
    ("alpha_test", 2.0), ("alpha_test", math.nan), ("lam", math.inf), ("lam", 0.0),
    ("z", math.nan), ("K", math.inf), ("a", math.nan), ("a", math.inf), ("a", -1.0),
    ("v", 0.0), ("k_grid", [1, 9]), ("k_grid", [1.5]), ("n_grid", [0]),
    ("separation_grid", [math.nan]), ("separation_grid", []), ("reveal_sigma", "false"),
    ("noise", {"kind": "scaled-rademacher", "sigma": 0.5, "U": math.inf}),
    ("noise", {"kind": "scaled-rademacher", "sigma": math.nan, "U": 0.5}),
    ("noise", {"kind": "two-point-skewed", "sigma": 0.5, "U": 2.0}),
]


@st.composite
def configs(draw):
    """A small config of any kind, mostly well-formed, sometimes with one bad
    field; tiny ``n`` and ``n`` far above ``m1*m2`` (no or many pairs) are
    both drawn."""
    kind = draw(st.sampled_from(tuple(KINDS)))
    m1 = draw(st.integers(1, 6))
    m2 = m1 if kind == "lbdemo" else draw(st.integers(1, 6))
    d = min(m1, m2)
    model = draw(st.sampled_from(MODELS)) if kind in ("coverage", "diameter", "risk") \
        else "bernoulli"
    if model == "bernoulli":
        n = draw(st.integers(1, m1 * m2))
    else:
        n = draw(st.sampled_from([1, 2, 5, m1 * m2, 4 * m1 * m2]))
    k0 = draw(st.integers(0, d - 1))
    sigma = draw(st.sampled_from([0.0, 0.2, 0.5]))
    raw = {
        "kind": kind, "model": model, "m1": m1, "m2": m2, "n": n,
        "method": "adaptive_ci" if model == "bernoulli" else draw(st.sampled_from(METHODS)),
        "k_truth": draw(st.integers(1, d)), "k0": k0, "k": k0 + draw(st.integers(1, 2)),
        "a": draw(st.sampled_from([0.5, 1.0, 30.0])),
        "noise": {"kind": draw(st.sampled_from(NOISE_KINDS)), "sigma": sigma,
                  "U": draw(st.sampled_from([sigma or 0.5, 1.0]))},  # sigma = U is drawn
        "reps": 1, "seed": draw(st.integers(0, 3)),
        "threshold_mode": draw(st.sampled_from(["calibrated", "theoretical"])),
        "cal_reps": 100 if kind != "lbdemo" else draw(st.integers(1, 5)),
        "restarts": draw(st.integers(0, 2)),
        "lam": draw(st.sampled_from([None, 0.5])),
        "separation_grid": draw(st.sampled_from([[0.0], [0.0, 2.0], [5.0]])),
        "k_grid": draw(st.lists(st.integers(1, d), max_size=2, unique=True)),
        "n_grid": draw(st.lists(st.integers(1, m1 * m2), max_size=2, unique=True)),
        "v": draw(st.sampled_from([0.05, 0.5, 1.0])),
        "reveal_sigma": draw(st.booleans()),
    }
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


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_validate_fails_closed(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        run = ("run", "--config", str(path), "--out", str(Path(tmp) / "out"))
        code, err = uq("validate", "--config", str(path))
        if code == 0:
            assert uq(*run)[0] in (0, 2, 3)
            return
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert uq(*run) == (2, err)
