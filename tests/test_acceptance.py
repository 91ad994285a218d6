"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines inline.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cogclust import (
    ASJP_SOUNDS,
    CrpConfig,
    GapParams,
    Partition,
    Scorer,
    bcubed,
    crp_cluster,
    crp_cluster_with_history,
    estimate_pmi,
    nw_score,
    save_pmi,
)

from oracles import alignment_best_score, bcubed_brute, pmi_by_counting


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"acceptance criterion {number}: FAIL  {label}")
        raise
    print(f"acceptance criterion {number}: PASS  {label}")


def random_word(rng, symbols, low, high):
    return "".join(rng.choice(symbols, size=int(rng.integers(low, high + 1))))


def test_criterion_1_alignment_oracle_equivalence():
    """10,000 random pairs score exactly like exhaustive enumeration, < 30 s."""
    rng = np.random.default_rng(101)
    symbols = list("peko")
    started = time.perf_counter()
    with criterion(1, "alignment scores equal exhaustive enumeration exactly"):
        for trial in range(10_000):
            a = random_word(rng, symbols, 0, 5)
            b = random_word(rng, symbols, 0, 5)
            gap_open = -float(rng.uniform(0.0, 3.0))
            gap_extend = -float(rng.uniform(0.0, -gap_open)) if gap_open else 0.0
            gaps = GapParams(gap_open, gap_extend)
            if trial % 2:
                scorer = Scorer.vanilla(1.0, -1.0, gaps, alphabet=tuple("peko"))
            else:
                raw = rng.normal(size=(4, 4))
                scorer = Scorer(tuple("peko"), (raw + raw.T) / 2, gaps)
            expected = alignment_best_score(
                a, b, scorer.substitution, gap_open, gap_extend
            )
            got = nw_score(a, b, scorer)
            assert got == expected, (a, b, gap_open, gap_extend, got, expected)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_bcubed_oracle_equivalence():
    """1,000 random partition pairs match the per-item brute force to 1e-12."""
    rng = np.random.default_rng(103)
    with criterion(2, "b-cubed equals brute force; hand fixtures exact"):
        for _ in range(1_000):
            n = int(rng.integers(1, 9))
            pred = Partition.from_labels(rng.integers(0, int(rng.integers(1, n + 1)), size=n).tolist())
            gold = Partition.from_labels(rng.integers(0, int(rng.integers(1, n + 1)), size=n).tolist())
            score = bcubed(pred, gold)
            p, r, f = bcubed_brute(pred.labels, gold.labels)
            assert abs(score.precision - p) < 1e-12
            assert abs(score.recall - r) < 1e-12
            assert abs(score.f_score - f) < 1e-12
        gold = Partition.from_labels(["g1", "g1", "g2"])
        assert bcubed(Partition((0, 1, 2)), gold).f_score == 0.8
        assert bcubed(Partition((0, 0, 0)), gold).f_score == 10 / 14


def test_criterion_3_crp_recovers_block_partitions():
    """100 random block matrices are recovered exactly (B-cubed F = 1)."""
    rng = np.random.default_rng(107)
    with criterion(3, "block similarity structure recovered exactly"):
        for _ in range(100):
            k = int(rng.integers(2, 7))
            sizes = [int(rng.integers(2, 11)) for _ in range(k)]
            n = sum(sizes)
            truth = np.repeat(np.arange(k), sizes)
            rng.shuffle(truth)
            sims = np.zeros((n, n))
            for block in range(k):
                idx = np.flatnonzero(truth == block)
                # Dyadic block values in [1, 5) keep averages of equal
                # entries exact, so equal-linkage ties resolve consistently.
                value = float(rng.integers(1024, 5120)) / 1024.0
                for i in idx:
                    for j in idx:
                        if i != j:
                            sims[i, j] = value
            part = crp_cluster(sims, CrpConfig(alpha=0.01))
            expected = Partition.from_labels(truth.tolist())
            assert Partition.from_labels(part.labels) == expected
            assert bcubed(part, expected).f_score == 1.0


def test_criterion_4_crp_hand_traced_fixtures_and_convergence():
    """Hand-traced fixtures come out exactly; a zero-reassignment scan occurs
    within the three-scan budget."""
    with criterion(4, "hand-traced fixtures exact; converged within 3 scans"):
        s3 = np.zeros((3, 3))
        s3[0, 1] = s3[1, 0] = 5.0
        part, history = crp_cluster_with_history(s3, CrpConfig(max_scans=3))
        assert part.labels == (0, 0, 1)
        assert len(history) <= 3 and history[-1] == 0

        s6 = np.zeros((6, 6))
        for block in ((0, 1, 2), (3, 4, 5)):
            for i in block:
                for j in block:
                    if i != j:
                        s6[i, j] = 3.0
        part, history = crp_cluster_with_history(s6, CrpConfig(max_scans=3))
        assert part.labels == (0, 0, 0, 1, 1, 1)
        assert len(history) <= 3 and history[-1] == 0


def test_criterion_5_crp_extremes_and_scale_covariance():
    """All-zero similarities give all singletons; scaling S and alpha by the
    same factor changes nothing."""
    rng = np.random.default_rng(109)
    with criterion(5, "all-zero matrix -> singletons; scale covariance holds"):
        for _ in range(10):
            n = int(rng.integers(1, 40))
            assert crp_cluster(np.zeros((n, n))).k == n
        for _ in range(100):
            n = int(rng.integers(2, 12))
            raw = rng.uniform(0.0, 1.0, size=(n, n))
            sims = (raw + raw.T) / 2
            alpha = float(rng.uniform(0.05, 0.95))
            base = crp_cluster(sims, CrpConfig(alpha=alpha))
            for c in (0.5, 2.0, 10.0):
                scaled = crp_cluster(c * sims, CrpConfig(alpha=c * alpha))
                assert scaled.labels == base.labels


def test_criterion_6_pmi_estimator():
    """Independence corpora score zero; random corpora match the counting
    oracle to 1e-12."""
    rng = np.random.default_rng(113)
    with criterion(6, "independence -> score 0; counting oracle matched"):
        for m in range(1, 6):
            pairs = [("a", "a")] * (3 * m) + [("b", "b")] * (3 * m) + [("a", "b")] * (2 * m)
            matrix = estimate_pmi(pairs, smoothing=0, alphabet=("a", "b"))
            assert abs(matrix.substitution("a", "b")) < 1e-12
        checked = 0
        while checked < 100:
            pairs = []
            for _ in range(int(rng.integers(2, 12))):
                length = int(rng.integers(1, 7))
                left = "".join(
                    "-" if rng.random() < 0.2 else str(rng.choice(list("peko")))
                    for _ in range(length)
                )
                right = "".join(
                    str(rng.choice(list("peko"))) if ch == "-" or rng.random() < 0.8 else "-"
                    for ch in left
                )
                pairs.append((left, right))
            expected = pmi_by_counting(pairs)
            if not expected:
                continue
            matrix = estimate_pmi(pairs, smoothing=0, alphabet=tuple("peko"))
            for (x, y), value in expected.items():
                got = matrix.substitution(x, y)
                if math.isinf(value):
                    assert math.isinf(got) and got < 0
                else:
                    assert abs(got - value) < 1e-12
            checked += 1


def _write_synthetic_dataset(path, rng, languages, meanings, labelled=False):
    lines = ["language\tconcept\ttranscription\tcognate_class"]
    symbols = list(ASJP_SOUNDS)
    for m in range(meanings):
        for l in range(languages):
            word = random_word(rng, symbols, 3, 8)
            label = f"c{rng.integers(1, 6)}" if labelled else ""
            lines.append(f"L{l:03d}\tM{m:03d}\t{word}\t{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_random_pmi_matrix(path, rng):
    raw = rng.uniform(-2.0, 1.0, size=(41, 41))
    scores = (raw + raw.T) / 2
    np.fill_diagonal(scores, rng.uniform(1.0, 3.0, size=41))
    save_pmi(Scorer(ASJP_SOUNDS, scores), str(path))


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "cogclust", *args], capture_output=True, text=True
    )


def test_criterion_7_runtime_on_100_language_dataset(tmp_path):
    """PMI-scored clustering of 100 languages x 210 meanings finishes inside
    two minutes (budgeted for a 4-core desktop; this host may have fewer)."""
    rng = np.random.default_rng(127)
    words = tmp_path / "big.tsv"
    _write_synthetic_dataset(words, rng, languages=100, meanings=210)
    matrix = tmp_path / "pmi.tsv"
    _write_random_pmi_matrix(matrix, rng)
    out = tmp_path / "parts.tsv"
    with criterion(7, "100x210 dataset clusters in under two minutes"):
        started = time.perf_counter()
        proc = _run_cli([
            "cluster", "--input", str(words), "--scorer", "pmi",
            "--pmi-matrix", str(matrix), "--out", str(out),
        ])
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        rows = out.read_text(encoding="utf-8").count("\n")
        assert rows == 100 * 210 + 1
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(f"  (criterion 7 wall time: {elapsed:.1f}s on {os.cpu_count()} cores)")


def test_criterion_8_conditional_reproduction(tmp_path):
    """End-to-end run over user-supplied real datasets, when provided.

    Set COGCLUST_DATASETS to a directory of word-list TSVs (4-column, gold
    classes filled) and optionally COGCLUST_PMI_MATRIX to a matrix file.
    Reported aggregate F near published figures is a goal, not a gate: scan
    order, normalization and the exact matrix are deliberately configurable.
    """
    dataset_dir = os.environ.get("COGCLUST_DATASETS")
    if not dataset_dir:
        pytest.skip("COGCLUST_DATASETS not set; reproduction run not requested")
    matrix = os.environ.get("COGCLUST_PMI_MATRIX")
    with criterion(8, "supplied datasets evaluate end to end"):
        for name in sorted(os.listdir(dataset_dir)):
            if not name.endswith(".tsv"):
                continue
            out = tmp_path / (name + ".parts.tsv")
            args = [
                "evaluate", "--input", os.path.join(dataset_dir, name),
                "--out", str(out), "--percent",
            ]
            if matrix:
                args += ["--scorer", "pmi", "--pmi-matrix", matrix]
            proc = _run_cli(args)
            assert proc.returncode == 0, proc.stderr
            report = (tmp_path / (name + ".parts.tsv.report.txt")).read_text(
                encoding="utf-8"
            )
            agg = [line for line in report.splitlines() if line.startswith("aggregate")]
            print(f"  {name}: {agg[0]}")


def test_criterion_9_cli_determinism(tmp_path):
    """Two identical CLI runs produce byte-identical partition and report files."""
    rng = np.random.default_rng(131)
    words = tmp_path / "words.tsv"
    _write_synthetic_dataset(words, rng, languages=8, meanings=12, labelled=True)
    with criterion(9, "identical runs give byte-identical outputs"):
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.tsv"
            proc = _run_cli([
                "evaluate", "--input", str(words), "--out", str(out), "--jobs", "2",
            ])
            assert proc.returncode == 0, proc.stderr
            blobs.append(
                (
                    out.read_bytes(),
                    (tmp_path / f"{tag}.tsv.report.txt").read_bytes(),
                    (tmp_path / f"{tag}.tsv.report.tsv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]
