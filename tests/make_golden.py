"""Write the golden-trajectory reference that tests/test_golden.py compares against.

Twelve runs on a noisy 16 x 16 disk: p in {1, 1.5, 2}, the damped flow at
dt 0.15 and the first-order baseline at dt 0.02 (both inside their fixed-step
bounds), each under the rde rule and under the step budget alone.  For every
run the file keeps the stop reason, the stop step and the final iterate at 17
significant digits, which round-trip float64 exactly.

Regenerate only from a commit whose outputs are trusted, and say so in the
change that does it:

    PYTHONPATH=src python tests/make_golden.py
"""

import json
from pathlib import Path

from svddf import MaxStepsOnly, RdeStop, SolverConfig, run_first_order, run_svddf
from svddf.grid import NoiseSpec, add_noise, synth_image

GOLDEN = Path(__file__).parent / "data" / "golden_disk16.json"

ETA = 2.0
RDE_TOLERANCE = 0.03
RDE_BUDGET = 400
FIXED_STEPS = 120
METHODS = {"svddf": (run_svddf, 0.15), "first-order": (run_first_order, 0.02)}
PS = (1.0, 1.5, 2.0)


def golden_input():
    return add_noise(synth_image("disk", 16, 16), NoiseSpec(0.3, seed=3))


def golden_config(method: str, p: float, stop: str) -> SolverConfig:
    rule, budget = (RdeStop(RDE_TOLERANCE), RDE_BUDGET) if stop == "rde" else (MaxStepsOnly(), FIXED_STEPS)
    dt = METHODS[method][1]
    return SolverConfig(exponent_p=p, eta=ETA, dt_rule="fixed", dt_fixed=dt, max_steps=budget, stopping=rule)


def cases():
    return [(method, p, stop) for method in METHODS for p in PS for stop in ("rde", "max-steps")]


def _numbers(values) -> str:
    return "[" + ", ".join(f"{x:.17g}" for x in values) + "]"


def main() -> None:
    noisy = golden_input()
    runs = []
    for method, p, stop in cases():
        u, log = METHODS[method][0](noisy, golden_config(method, p, stop))
        runs.append(
            f'    {{"method": "{method}", "p": {p!r}, "stop": "{stop}", '
            f'"stopped_by": "{log.stopped_by}", "steps": {log.final_step()},\n'
            f'     "u": {_numbers(u.pixels.ravel(order="F"))}}}'
        )
    text = (
        "{\n"
        f'  "input": {_numbers(noisy.pixels.ravel(order="F"))},\n'
        '  "runs": [\n' + ",\n".join(runs) + "\n  ]\n}\n"
    )
    json.loads(text)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="ascii")


if __name__ == "__main__":
    main()
