"""Pipeline orchestration tests: clustering over word lists, gold extraction."""

import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from cogclust import (
    CrpConfig,
    Partition,
    Scorer,
    WordForm,
    WordList,
    cluster_meaning,
    cluster_wordlist,
    gold_partitions,
    parse_wordlist,
    write_partitions,
)
from cogclust import pipeline

from oracles import crp_reference

SAMPLE = (
    "language\tconcept\ttranscription\tcognate_class\n"
    "English\tALL\tol\tc1\n"
    "German\tALL\tal3\tc1\n"
    "French\tALL\ttu\tc2\n"
    "Spanish\tALL\tto8o\tc2\n"
    "Swedish\tALL\tala\tc1\n"
    "English\tAND\tEnd\td1\n"
    "German\tAND\tunt\td1\n"
    "French\tAND\te\td2\n"
    "Spanish\tAND\ti\td2\n"
    "Swedish\tAND\tok\td3\n"
)

UNLABELLED = SAMPLE.replace("\tc1", "\t").replace("\tc2", "\t").replace("\td1", "\t").replace(
    "\td2", "\t"
).replace("\td3", "\t")


def sample_wordlist():
    return parse_wordlist(io.StringIO(SAMPLE))


class TestClusterMeaning:
    def test_matches_reference_loop(self):
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        from cogclust import similarity_matrix

        forms = wl.forms_for_meaning("ALL")
        part = cluster_meaning(forms, scorer)
        sims = similarity_matrix(forms, scorer)
        assert list(part.labels) == crp_reference(sims.values.tolist())

    def test_threshold_selects_flat_baseline(self):
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        forms = wl.forms_for_meaning("ALL")
        flat = cluster_meaning(forms, scorer, threshold=0.5)
        assert flat.n == 5


class TestClusterWordlist:
    def test_covers_every_meaning_in_order(self):
        wl = sample_wordlist()
        parts = cluster_wordlist(wl, Scorer.vanilla())
        assert list(parts) == ["ALL", "AND"]
        assert parts["ALL"].n == 5
        assert parts["AND"].n == 5

    def test_parallel_equals_serial(self):
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        serial = cluster_wordlist(wl, scorer, jobs=1)
        parallel = cluster_wordlist(wl, scorer, jobs=2)
        assert serial == parallel

    def test_config_is_honoured(self):
        wl = sample_wordlist()
        tight = cluster_wordlist(wl, Scorer.vanilla(), CrpConfig(alpha=100.0))
        assert all(p.k == p.n for p in tight.values())

    def test_jobs_bounded_by_usable_cpus_and_meanings(self, monkeypatch):
        # A pool that records its size and maps in process, so no worker starts.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        wl = WordList(
            WordForm(lang, f"M{m}", word)
            for m in range(5)
            for lang, word in (("A", "ol"), ("B", "al3"), ("C", "tu"))
        )
        scorer = Scorer.vanilla()
        serial = cluster_wordlist(wl, scorer, jobs=1)
        assert sizes == []
        for jobs in (10_000, None, 2):
            assert cluster_wordlist(wl, scorer, jobs=jobs) == serial
        assert cluster_wordlist(sample_wordlist(), scorer, jobs=10_000)
        assert sizes == [3, 3, 2, 2]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method(self, monkeypatch, method):
        # Unlike fork, these start methods pickle the worker's bound job.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                            partial(ProcessPoolExecutor, mp_context=context))
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        assert cluster_wordlist(wl, scorer, jobs=2) == cluster_wordlist(wl, scorer, jobs=1)


class TestGoldPartitions:
    def test_from_own_column(self):
        gold = gold_partitions(sample_wordlist())
        assert gold["ALL"].labels == (0, 0, 1, 1, 0)
        assert gold["AND"].labels == (0, 0, 1, 1, 2)

    def test_unlabelled_meanings_absent(self):
        wl = parse_wordlist(io.StringIO(UNLABELLED))
        assert gold_partitions(wl) == {}

    def test_from_separate_file(self):
        wl = parse_wordlist(io.StringIO(UNLABELLED))
        gold_wl = sample_wordlist()
        gold = gold_partitions(wl, gold_wl)
        assert gold["ALL"].labels == (0, 0, 1, 1, 0)

    def test_partially_covered_meaning_skipped(self):
        wl = parse_wordlist(io.StringIO(UNLABELLED))
        partial = SAMPLE.replace("Swedish\tALL\tala\tc1\n", "")
        gold = gold_partitions(wl, parse_wordlist(io.StringIO(partial)))
        assert "ALL" not in gold
        assert "AND" in gold
        all_only = "".join(line for line in SAMPLE.splitlines(True) if "\tAND\t" not in line)
        gold = gold_partitions(wl, parse_wordlist(io.StringIO(all_only)))
        assert list(gold) == ["ALL"]

    def test_identical_label_strings_in_different_meanings_stay_unrelated(self):
        text = (
            "language\tconcept\ttranscription\tcognate_class\n"
            "L1\tM1\tol\tc1\n"
            "L2\tM1\tal\tc2\n"
            "L1\tM2\ttu\tc1\n"
            "L2\tM2\tto\tc1\n"
        )
        gold = gold_partitions(parse_wordlist(io.StringIO(text)))
        assert gold["M1"].labels == (0, 1)
        assert gold["M2"].labels == (0, 0)


class TestWritePartitions:
    def test_tsv_layout(self):
        wl = sample_wordlist()
        parts = {
            "ALL": Partition((0, 0, 1, 1, 0)),
            "AND": Partition((0, 0, 1, 1, 2)),
        }
        buf = io.StringIO()
        write_partitions(wl, parts, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "meaning\tlanguage\ttranscription\tcluster_id"
        assert lines[1] == "ALL\tEnglish\tol\t0"
        assert lines[5] == "ALL\tSwedish\tala\t0"
        assert len(lines) == 11
