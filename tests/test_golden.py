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
import re
from pathlib import Path

import numpy as np
import pytest

from g2calc import Campaign, emit
from g2calc.suites import Report
from support import suite_changes

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"
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


def readme_blocks(language: str) -> list[str]:
    """The bodies of README.md's fenced code blocks tagged with the language."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
    return [body for tag, body in blocks if tag == language]


def test_readme_examples_are_the_seed_42_report():
    golden = json.loads((GOLDEN / "verify-seed42.json").read_text())["report"]
    reports = [Report(r["suite"], r["passed"], r["failed"], r["worst_residual"],
                      tuple(r["witnesses"]), r["details"]) for r in golden]
    text = emit(reports, "text", Campaign(seed=42, samples=1000)).decode().splitlines()
    command = "$ g2calc verify --seed 42 --samples 1000 --format text\n"
    (example,) = [body for body in readme_blocks("sh") if body.startswith(command)]
    # The example elides lines with "..."; the lines it shows are the command's, in order.
    shown = [line for line in example.splitlines()[1:] if line != "..."]
    assert len(shown) >= 3
    assert shown == [line for line in text if line in shown]
    # The JSON example is the command's first report, its residual rounded as the text rounds it.
    (schema,) = readme_blocks("json")
    (entry,) = json.loads(schema)
    want = golden[0]
    assert entry == {**want, "worst_residual": float(f"{want['worst_residual']:.3e}")}


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
