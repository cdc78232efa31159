"""README's trajectory-column documentation against the CSV the program writes."""

from pathlib import Path

from svddf.flow import CSV_HEADER

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
