"""README's flag list, defaults, trajectory columns, stability numbers and list of public pieces against the program."""

import dataclasses
import re
from pathlib import Path

import svddf
from svddf.cli import _OPTIONS, _build_config, _parse_args, build_parser
from svddf.flow import CSV_HEADER, SAFETY, SolverConfig, step_at_bound

README = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()


def test_trajectory_header_line_is_the_csv_header():
    headers = [line.strip() for line in README if line.strip().startswith("step,")]
    assert headers == [CSV_HEADER]


def test_every_trajectory_column_has_one_table_row():
    start = README.index("### Trajectory columns")
    rows = []
    for line in README[start + 1 :]:
        if line.startswith("#"):
            break
        if line.startswith("| `"):
            rows.append(line.split("|")[1].strip().strip("`"))
    assert rows == CSV_HEADER.split(",")


def test_stability_numbers_are_the_flow_s_at_the_defaults():
    start = README.index("## Stability of the spectral step rule")
    end = next(i for i in range(start + 1, len(README)) if README[i].startswith("## "))
    section = " ".join(" ".join(README[start:end]).split())
    config = SolverConfig()
    assert config.exponent_p == 1.0
    _, svddf_limit = step_at_bound(config)
    _, euler_limit = step_at_bound(config, second_order=False)
    assert f"epsilon^((p-2)/2)` ({2.0 / euler_limit:g} at the defaults with p = 1," in section
    assert f"`dt <= 2 / sqrt(lam)` under svddf ({svddf_limit:.2g} there)" in section
    assert f"explicit Euler ({euler_limit:.2g} there)" in section
    assert f"`dt = {SAFETY:g} * eta / sqrt(lam)`" in section
    warns = f"when `{SAFETY:g} * eta > 2`, that is when `eta > {2.0 / SAFETY:.2g}`;"
    assert f"takes `{SAFETY:g} * eta / sqrt(lam)` and warns {warns}" in section
    assert f"takes `{SAFETY:g} * 2 / lam` and never warns" in section


def test_shared_flag_list_is_the_parser_s():
    start = next(i for i, line in enumerate(README) if line.startswith("Verbs: "))
    paragraph = " ".join(README[start : README.index("", start)])
    shared = paragraph.split("Shared flags:", 1)[1].split("; `--seed`", 1)[0]
    _, verbs = build_parser()

    def flags(verb):
        return {s for action in verbs[verb]._actions for s in action.option_strings if s.startswith("--")} - {"--help"}

    assert set(re.findall(r"`(--[a-z0-9-]+)", shared)) == (flags("denoise") & flags("sweep")) - {"--config"}
    # the paragraph names every other flag of either verb too
    assert flags("denoise") | flags("sweep") <= set(re.findall(r"`(--[a-z0-9-]+)", paragraph))


def test_defaults_paragraph_is_the_cli_s():
    start = README.index("## Defaults")
    end = next((i for i in range(start + 1, len(README)) if README[i].startswith("#")), len(README))
    paragraph = " ".join(README[start + 1 : end])
    for key, (_, default, _) in _OPTIONS.items():
        assert f"`--{key.replace('_', '-')} {default}`" in paragraph
    # SolverConfig() is the CLI's config but for its stop rule
    args = _parse_args(["denoise", "x.pgm"])
    config = _build_config(args, args.p, args.eta)
    assert config.stopping == svddf.RdeStop(tolerance=1e-4)
    assert dataclasses.replace(config, stopping=svddf.MaxStepsOnly()) == SolverConfig()


def test_lower_level_pieces_are_public():
    start = next(i for i, line in enumerate(README) if line.startswith("Lower-level pieces are public too"))
    sentence = " ".join(README[start : README.index("", start)]).split(".  ", 1)[0]
    names = set(re.findall(r"`(\w+)`", sentence))
    assert names and names <= set(svddf.__all__)


def test_library_example_runs_as_written(tmp_path, monkeypatch):
    start = README.index("## Library")
    first = README.index("```python", start) + 1
    block = "\n".join(README[first : README.index("```", first)])
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[0] == CSV_HEADER
