"""Golden-trajectory guard: twelve small runs must stop as recorded, at the recorded iterate.

The reference (tests/data/golden_disk16.json) is written by tests/make_golden.py.
A change that keeps the arithmetic must pass unchanged; one that moves the
iterate by more than 1e-12 or the stop by a step must say so and regenerate it.
"""

import json

import numpy as np
import pytest

from svddf import ImageGrid

from make_golden import GOLDEN, METHODS, cases, golden_config, golden_input

REFERENCE = json.loads(GOLDEN.read_text(encoding="ascii"))


def test_input_is_the_recorded_one():
    assert np.array_equal(golden_input().pixels.ravel(order="F"), REFERENCE["input"])


@pytest.mark.parametrize("run", REFERENCE["runs"], ids=lambda r: f"{r['method']}-p{r['p']}-{r['stop']}")
def test_run_matches_reference(run):
    noisy = ImageGrid(np.reshape(REFERENCE["input"], (16, 16), order="F"))
    u, log = METHODS[run["method"]][0](noisy, golden_config(run["method"], run["p"], run["stop"]))
    assert (log.stopped_by, log.steps) == (run["stopped_by"], run["steps"])
    np.testing.assert_allclose(u.pixels.ravel(order="F"), run["u"], rtol=0, atol=1e-12)


def test_reference_covers_every_case():
    assert [(r["method"], r["p"], r["stop"]) for r in REFERENCE["runs"]] == cases()
