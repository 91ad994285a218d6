"""End-to-end orchestration: word list in, per-meaning partitions out.

Meanings are independent, so clustering a word list is one bound job per
meaning, ``cluster_meaning`` with the run's scorer and settings. The jobs run
in a loop, or over a process pool when ``jobs`` allows more than one worker and
the alignment work pays for them: a small run uses one process. Results are
merged in meaning order, making output independent of worker scheduling.
"""

import os
from functools import partial
from typing import IO, Sequence

from .align import Scorer, similarity_matrix
from .crp import CrpConfig, Partition, crp_cluster, flat_cluster_threshold
from .errors import MeaningNotFoundError, ValidationError, checked_int, checked_number
from .wordlist import WordForm, WordList


def cluster_meaning(
    forms: Sequence[WordForm],
    scorer: Scorer,
    config: CrpConfig | None = None,
    *,
    threshold: float | None = None,
    normalize: bool = False,
) -> Partition:
    """Cluster one meaning's forms; a non-None ``threshold`` selects the flat
    agglomerative baseline instead of the scan-based algorithm."""
    sims = similarity_matrix(forms, scorer, normalize=normalize)
    if threshold is not None:
        return flat_cluster_threshold(sims, threshold)
    return crp_cluster(sims, config)


# Alignment cells per pool worker. On planted lists below about two of these,
# a pool of two saved little or no wall time over one process and always cost
# more CPU; CHANGES.md has the table.
_CELLS_PER_WORKER = 2_500_000


def _alignment_cells(wordlist: WordList) -> int:
    """Cells ``similarity_matrix`` fills: len(a) * len(b) for each pair a <= b
    of a meaning's distinct transcriptions, summed over meanings."""
    cells = 0
    for meaning in wordlist.meanings:
        lengths = [len(w) for w in {f.segments for f in wordlist.forms_for_meaning(meaning)}]
        cells += (sum(lengths) ** 2 + sum(n * n for n in lengths)) // 2
    return cells


_JOB: tuple | None = None


def _start_worker(wordlist, work):
    global _JOB
    _JOB = (wordlist, work)


def _run_meaning(meaning: str) -> Partition:
    wordlist, work = _JOB
    return work(wordlist.forms_for_meaning(meaning))


def cluster_wordlist(
    wordlist: WordList,
    scorer: Scorer,
    config: CrpConfig | None = None,
    *,
    threshold: float | None = None,
    normalize: bool = False,
    jobs: int | None = 1,
) -> dict[str, Partition]:
    """Cluster every meaning; returns partitions keyed in meaning order.

    ``jobs`` and ``threshold`` are checked when the call starts, even with no
    meanings: ``jobs`` must be ``None`` (all usable CPUs) or an integer of at
    least 1, an upper bound on the worker processes, and ``threshold`` a
    number, not NaN. The pool is capped at the usable CPUs, the meanings and
    one worker per ``_CELLS_PER_WORKER`` alignment cells, so a small run uses
    one process. Partitions do not depend on the worker count.
    """
    jobs = None if jobs is None else checked_int("jobs", jobs, 1)
    threshold = None if threshold is None else checked_number("threshold", threshold)
    work = partial(
        cluster_meaning, scorer=scorer, config=config,
        threshold=threshold, normalize=normalize,
    )
    meanings = wordlist.meanings
    # The pool starts every worker up front, so never ask for more than can run.
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # not available on macOS and Windows
        usable = os.cpu_count() or 1
    jobs = min(usable if jobs is None else jobs, usable, len(meanings))
    if jobs > 1:
        jobs = min(jobs, _alignment_cells(wordlist) // _CELLS_PER_WORKER)
    if jobs <= 1:
        return {m: work(wordlist.forms_for_meaning(m)) for m in meanings}
    # Imported here: the pool pulls in multiprocessing, which a serial run
    # never needs.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(meanings) // (jobs * 4))
    # Workers get meaning names, not forms: each already holds the word list.
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_start_worker, initargs=(wordlist, work)
    ) as pool:
        return dict(zip(meanings, pool.map(_run_meaning, meanings, chunksize=chunk)))


def gold_partitions(
    wordlist: WordList, gold_wordlist: WordList | None = None
) -> dict[str, Partition]:
    """Gold partitions from the cognate classes of ``gold_wordlist``.

    By default the word list supplies its own classes. Forms are joined on
    (language, meaning, transcription); a meaning is evaluable only when
    every one of its forms finds a labelled match, and is absent otherwise.
    """
    if gold_wordlist is None:
        gold_wordlist = wordlist
    out = {}
    for meaning in wordlist.meanings:
        try:
            gold_forms = gold_wordlist.forms_for_meaning(meaning)
        except MeaningNotFoundError:
            continue
        table = {(f.language, f.segments): f.gold_class for f in gold_forms}
        labels = [
            table.get((f.language, f.segments))
            for f in wordlist.forms_for_meaning(meaning)
        ]
        if all(lab is not None for lab in labels):
            out[meaning] = Partition.from_labels(labels)
    return out


def write_partitions(
    wordlist: WordList, partitions: dict[str, Partition], sink: IO
) -> None:
    """Write partitions as TSV: meaning, language, transcription, cluster_id.

    Meanings are written in the order of ``partitions``. Each must be a
    meaning of ``wordlist`` whose partition covers all of its forms.
    """
    sink.write("meaning\tlanguage\ttranscription\tcluster_id\n")
    for meaning, partition in partitions.items():
        forms = wordlist.forms_for_meaning(meaning)
        if partition.n != len(forms):
            raise ValidationError(
                f"meaning {meaning!r}: partition covers {partition.n} items "
                f"but the word list has {len(forms)} forms"
            )
        for form, label in zip(forms, partition.labels):
            sink.write(f"{meaning}\t{form.language}\t{form.segments}\t{label}\n")
