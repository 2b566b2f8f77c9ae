"""The report bytes of a full verification campaign, pinned against committed files.

Each file under tests/golden/ holds the parsed report of
`g2calc verify --seed S --samples 1000 --format json`, the SHA-256 of its
exact bytes and the numpy version it was made with.  A change that moves
the bytes on purpose remakes the files with

    PYTHONPATH=src python tests/test_golden.py

which prints, per file and suite, the old and new passed, failed and worst
residual, and lists each moved field in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from g2calc import Campaign, emit
from support import suite_changes

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1, 42)


def verify_report(seed: int) -> bytes:
    """The stdout of `g2calc verify --seed SEED --samples 1000 --format json`."""
    return emit(Campaign(seed=seed, samples=1000).run(), "json")


@pytest.mark.parametrize("seed", SEEDS)
def test_report_bytes_are_pinned(seed):
    golden = json.loads((GOLDEN / f"verify-seed{seed}.json").read_text())
    # The bytes depend on numpy and its BLAS, so another numpy fails here instead of being skipped.
    assert np.__version__ == golden["numpy"], (
        f"tests/golden/verify-seed{seed}.json was made under numpy {golden['numpy']}, and this "
        f"run has numpy {np.__version__}: run under that numpy, or remake the file under this "
        "one and check every field that moves")
    got = verify_report(seed)
    report = json.loads(got)
    assert report == golden["report"], "per suite, golden -> this run:\n" + suite_changes(
        golden["report"], report)
    assert hashlib.sha256(got).hexdigest() == golden["sha256"]


def write_golden() -> None:
    """Remake each file, printing per suite what moved from the file it replaces."""
    GOLDEN.mkdir(exist_ok=True)
    for seed in SEEDS:
        path = GOLDEN / f"verify-seed{seed}.json"
        old = json.loads(path.read_text())["report"] if path.exists() else []
        got = verify_report(seed)
        record = {
            "command": f"g2calc verify --seed {seed} --samples 1000 --format json",
            "numpy": np.__version__,
            "report": json.loads(got),
            "sha256": hashlib.sha256(got).hexdigest(),
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{path.name}, old -> new:\n{suite_changes(old, record['report'])}")


if __name__ == "__main__":
    write_golden()
