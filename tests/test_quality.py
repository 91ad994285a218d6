"""Offline cluster-quality gate on a planted word list.

No real dataset ships with the repository, so quality is measured on a word
list from the benchmark's generator (``bench/plant.py``). Its sound-change
rates are assumed, not fitted to data, so these scores say how the program
does on the planted task, not on real languages. The floors are the aggregate
B-cubed F scores the program gave when this gate was added; they guard
against regressions and are not targets.
"""

from pathlib import Path

import pytest

from cogclust.cli import main

ROOT = Path(__file__).resolve().parents[1]

FLOORS = {
    ("vanilla", "scan"): 0.8576,
    ("vanilla", "flat"): 0.9389,
    ("pmi", "scan"): 0.9009,
    ("pmi", "flat"): 0.9682,
}


@pytest.fixture
def planted(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from plant import Shape, planted_wordlist

    data = planted_wordlist(1, Shape(meanings=24, languages=30, proto_len=(3, 9), classes=(1, 8)))
    (tmp_path / "words.tsv").write_text(data.wordlist_tsv(), encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text(data.pairs_tsv(), encoding="utf-8")
    assert main(["pmi-estimate", "--input", str(tmp_path / "pairs.tsv"),
                 "--out", str(tmp_path / "pmi.tsv")]) == 0
    return tmp_path


@pytest.mark.parametrize("scorer, method", sorted(FLOORS))
def test_aggregate_f_at_or_above_floor(planted, scorer, method):
    out = planted / "partitions.tsv"
    args = ["evaluate", "--input", str(planted / "words.tsv"), "--jobs", "1", "--out", str(out)]
    if scorer == "pmi":
        args += ["--scorer", "pmi", "--pmi-matrix", str(planted / "pmi.tsv")]
    if method == "flat":
        args += ["--threshold", "1.0"]
    assert main(args) == 0
    rows = [line.split("\t") for line in Path(f"{out}.report.tsv").read_text("utf-8").splitlines()]
    f_score = float(next(row[2] for row in rows if row[:2] == ["aggregate", "f_score"]))
    assert f_score >= FLOORS[scorer, method]
