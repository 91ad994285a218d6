"""Pipeline orchestration tests: clustering over word lists, gold extraction."""

import io
import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import pytest

from cogclust import (
    CrpConfig,
    MeaningNotFoundError,
    Partition,
    Scorer,
    ValidationError,
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

DEMO_LIST = Path(__file__).resolve().parents[1] / "demos" / "data" / "germanic_romance.tsv"

# Six meanings, each with distinct transcriptions of lengths 1, 2 and 3 and a
# repeat: 25 alignment cells per meaning.
WORK_LIST = WordList(
    WordForm(lang, f"M{m}", word)
    for m in range(6)
    for lang, word in (("A", "a"), ("B", "ol"), ("C", "al3"), ("D", "ol"))
)

UNLABELLED = SAMPLE.replace("\tc1", "\t").replace("\tc2", "\t").replace("\td1", "\t").replace(
    "\td2", "\t"
).replace("\td3", "\t")


def sample_wordlist():
    return parse_wordlist(io.StringIO(SAMPLE))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the pools ``cluster_wordlist`` asks for; the stand-in pool maps
    in process, so no worker starts."""
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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


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

    def test_parallel_equals_serial(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CELLS_PER_WORKER", 1)
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        serial = cluster_wordlist(wl, scorer, jobs=1)
        parallel = cluster_wordlist(wl, scorer, jobs=2)
        assert serial == parallel

    def test_config_is_honoured(self):
        wl = sample_wordlist()
        tight = cluster_wordlist(wl, Scorer.vanilla(), CrpConfig(alpha=100.0))
        assert all(p.k == p.n for p in tight.values())

    def test_jobs_bounded_by_usable_cpus_and_meanings(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(pipeline, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        wl = WordList(
            WordForm(lang, f"M{m}", word)
            for m in range(5)
            for lang, word in (("A", "ol"), ("B", "al3"), ("C", "tu"))
        )
        scorer = Scorer.vanilla()
        serial = cluster_wordlist(wl, scorer, jobs=1)
        assert pool_sizes == []
        for jobs in (10_000, None, 2):
            assert cluster_wordlist(wl, scorer, jobs=jobs) == serial
        assert cluster_wordlist(sample_wordlist(), scorer, jobs=10_000)
        assert pool_sizes == [3, 3, 2, 2]

    def test_small_run_starts_no_pool(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        wl = parse_wordlist(DEMO_LIST)
        scorer = Scorer.vanilla()
        assert cluster_wordlist(wl, scorer, jobs=2) == cluster_wordlist(wl, scorer, jobs=1)
        assert pool_sizes == []

    def test_alignment_cells_count_distinct_transcriptions(self):
        # Lengths 1, 2, 3 and a repeated "ol": 1 + 2 + 3 + 4 + 6 + 9 cells.
        assert pipeline._alignment_cells(WORK_LIST) == 25 * 6

    @pytest.mark.parametrize("cells_per_worker, cpus, jobs, workers", [
        (150, 4, None, None),  # k = 1
        (76, 4, None, None),   # just short of k = 2
        (75, 4, None, 2),
        (50, 4, None, 3),
        (50, 4, 2, 2),         # jobs stays an upper bound
        (30, 4, 10_000, 4),    # k = 5, four usable CPUs
        (25, 8, None, 6),      # k = 6, six meanings
        (1, 8, None, 6),       # k = 150
    ])
    def test_workers_follow_the_alignment_work(self, monkeypatch, pool_sizes,
                                               cells_per_worker, cpus, jobs, workers):
        # WORK_LIST holds 150 cells, so k = 150 // cells_per_worker.
        monkeypatch.setattr(pipeline, "_CELLS_PER_WORKER", cells_per_worker)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        scorer = Scorer.vanilla()
        assert cluster_wordlist(WORK_LIST, scorer, jobs=jobs) == cluster_wordlist(
            WORK_LIST, scorer, jobs=1)
        assert pool_sizes == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs, cpus", [(1, 4), (None, 1), (3, 1)])
    def test_one_possible_worker_skips_the_estimate(self, monkeypatch, jobs, cpus):
        def no_estimate(wordlist):
            raise AssertionError("the alignment work was estimated")

        monkeypatch.setattr(pipeline, "_alignment_cells", no_estimate)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert cluster_wordlist(WORK_LIST, Scorer.vanilla(), jobs=jobs)

    @pytest.mark.parametrize("cpus", [1, None])
    def test_without_affinity_one_or_unknown_cpus_run_serially(self, monkeypatch, cpus):
        # macOS and Windows have no sched_getaffinity: the CPU count caps the
        # pool there, and an unknown count means one.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        assert cluster_wordlist(wl, scorer, jobs=None) == cluster_wordlist(wl, scorer, jobs=1)

    @pytest.mark.parametrize("jobs, message", [
        (0, "jobs must be at least 1"),
        (-2, "jobs must be at least 1"),
        (1.5, "jobs must be an integer"),
        ("2", "jobs must be an integer"),
    ])
    def test_jobs_below_one_or_not_an_integer_rejected(self, jobs, message):
        with pytest.raises(ValidationError) as err:
            cluster_wordlist(sample_wordlist(), Scorer.vanilla(), jobs=jobs)
        assert str(err.value) == message

    @pytest.mark.parametrize("threshold, message", [
        (float("nan"), "threshold must be a number, got nan"),
        ("0.5", "threshold must be a number, got '0.5'"),
    ])
    def test_threshold_not_a_number_rejected_even_with_no_meanings(self, threshold, message):
        with pytest.raises(ValidationError) as err:
            cluster_wordlist(WordList([]), Scorer.vanilla(), threshold=threshold)
        assert str(err.value) == message

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method(self, monkeypatch, method):
        # Unlike fork, these start methods pickle the worker's bound job.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        context = multiprocessing.get_context(method)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            partial(ProcessPoolExecutor, mp_context=context))
        monkeypatch.setattr(pipeline, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        wl = sample_wordlist()
        scorer = Scorer.vanilla()
        assert cluster_wordlist(wl, scorer, jobs=2) == cluster_wordlist(wl, scorer, jobs=1)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_worker_error_reaches_the_caller_as_in_a_serial_run(self, monkeypatch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        context = multiprocessing.get_context(method)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            partial(ProcessPoolExecutor, mp_context=context))
        monkeypatch.setattr(pipeline, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        # Word "a" scores -1 against itself, so it cannot be normalized.
        scorer = Scorer(("a", "b"), [[-1.0, -2.0], [-2.0, 3.0]])
        wl = WordList(
            WordForm(lang, f"M{m}", word)
            for m in range(4)
            for lang, word in (("A", "b"), ("B", "a" if m == 2 else "bb"))
        )
        for jobs in (1, 2):
            with pytest.raises(ValidationError) as err:
                cluster_wordlist(wl, scorer, normalize=True, jobs=jobs)
            assert str(err.value) == "cannot normalize: word 'a' has non-positive self-similarity -1.0"
            # A worker's error carries the worker's traceback as its cause.
            assert (type(err.value.__cause__).__name__ == "_RemoteTraceback") == (jobs == 2)

    def test_importing_the_cli_leaves_the_process_pool_out(self):
        # The pool module pulls in multiprocessing; only a run with jobs > 1
        # should pay for importing it.
        code = "import sys, cogclust.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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

    def test_meanings_written_in_the_order_given(self):
        wl = sample_wordlist()
        buf = io.StringIO()
        write_partitions(wl, {"AND": Partition((0,) * 5), "ALL": Partition((0,) * 5)}, buf)
        rows = buf.getvalue().strip().split("\n")[1:]
        assert [r.split("\t")[0] for r in rows] == ["AND"] * 5 + ["ALL"] * 5

    def test_partition_of_the_wrong_size_rejected(self):
        with pytest.raises(ValidationError, match="'ALL': partition covers 1 items "
                                                  "but the word list has 5 forms"):
            write_partitions(sample_wordlist(), {"ALL": Partition((0,))}, io.StringIO())

    def test_unknown_meaning_rejected(self):
        with pytest.raises(MeaningNotFoundError, match="'HAND'"):
            write_partitions(sample_wordlist(), {"HAND": Partition((0,))}, io.StringIO())
