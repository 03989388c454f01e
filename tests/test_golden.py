"""Golden ``records.csv`` digests: one tiny config per experiment kind.

``golden_records.json`` holds one config per kind (each coverage method
once) and the sha256 of the ``records.csv`` it gives.  A pure refactor or a
kernel swap keeps those bytes, and this test checks it.  Bits depend on the
numpy and scipy builds, the machine, and the kernel that each bundled
OpenBLAS copy picks for the CPU (its core name, such as ``SkylakeX`` or
``Haswell``), so the digests are compared only on the environment they were
captured on, and the test skips with the reason elsewhere; ``test_bench.py`` runs the same configs everywhere and compares
serial and pooled records.  To re-capture them on purpose (say, after adding a record
column), run

    PYTHONPATH=src python tests/test_golden.py

which prints each entry whose digest changed, with its old and new digest,
and commit the rewritten ``golden_records.json``.
"""

import ctypes
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from mcuq.bench import ExperimentConfig, _openblas, run, write_records_csv

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def openblas_cores() -> dict:
    """The core name of each OpenBLAS copy that the numpy and scipy wheels
    bundle, keyed by package; a copy whose library or symbol is missing is
    left out."""
    cores = {}
    for package, (corename,) in _openblas("get_corename"):
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        cores[f"{package}_openblas_core"] = corename().decode()
    return cores


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **openblas_cores()}


def records_sha256(config: dict, out_dir: Path) -> str:
    report = run(ExperimentConfig.from_dict(config))
    path = out_dir / "records.csv"
    write_records_csv(report, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["records"]))
def test_records_match_golden_digest(name, tmp_path):
    if GOLDEN["environment"] != environment():
        pytest.skip(f"digests were captured on {GOLDEN['environment']}, "
                    f"this is {environment()}")
    golden = GOLDEN["records"][name]
    assert records_sha256(golden["config"], tmp_path) == golden["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, golden in sorted(GOLDEN["records"].items()):
            new = records_sha256(golden["config"], Path(tmp))
            if new != golden["sha256"]:
                print(f"{name}: {golden['sha256']} -> {new}")
            golden["sha256"] = new
    GOLDEN["environment"] = environment()
    GOLDEN_PATH.write_text(json.dumps(GOLDEN, indent=2, sort_keys=True) + "\n")
