"""The shipped scenarios' outputs are byte-identical to the committed
reference files in tests/golden/<name>/.

A change that alters a shipped trajectory on purpose regenerates them with
``depthnav run scenarios/<name>.json --out tests/golden/<name>`` (and deletes
the copied scenario.json) and says why in CHANGES.md.
"""

import pathlib

import pytest

from depthnav.cli import cli

from conftest import SCENARIO_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, code", [("corridor", 0), ("empty", 0), ("sealed", 2)])
def test_outputs_match_golden(tmp_path, name, code):
    out = tmp_path / name
    assert cli(["run", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)]) == code
    for fname in ("trajectory.csv", "outcome.json"):
        assert (out / fname).read_bytes() == (GOLDEN_DIR / name / fname).read_bytes(), fname
