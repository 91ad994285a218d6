"""Every demo runs to completion as a script and prints its results."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


PARTLY_LABELLED = (
    "language\tconcept\ttranscription\tcognate_class\n"
    "English\thand\thEnd\th1\n"
    "German\thand\thant\th1\n"
    "French\thand\tmE\th2\n"
    "English\tfoot\tfut\t\n"
    "German\tfoot\tfus\t\n"
    "French\tfoot\tpye\t\n"
)


def test_readme_library_quickstart_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "words.tsv").write_text(PARTLY_LABELLED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "\nhand " in proc.stdout
    assert "foot" not in proc.stdout
    assert "meanings_evaluated  1" in proc.stdout
