"""Golden ``records.csv`` digests: one tiny config per experiment kind.

``golden_records.json`` holds one config per kind (each coverage method
once) and the sha256 of the ``records.csv`` it gives.  A pure refactor or a
kernel swap keeps those bytes, and this test checks it.  Bits depend on the
numpy and scipy builds and the machine, so the digests are compared only on
the environment they were captured on, and the test skips with the reason
elsewhere.  To re-capture them on purpose (say, after adding a record
column), run

    PYTHONPATH=src python tests/test_golden.py

which prints each entry whose digest changed, with its old and new digest,
and commit the rewritten ``golden_records.json``.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from mcuq.bench import ExperimentConfig, run, write_records_csv

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


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
