"""In-memory spans around calls into cogclust's public functions.

The tracer replaces module attributes with timing wrappers for the length of a
``with tracer.patched():`` block, so the package's own code, which looks its
collaborators up as module globals, runs through them unchanged. Nothing under
``src/`` knows about it. Spans are kept in memory and written out at the end.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import cogclust
from cogclust import cli, crp, pipeline


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def align_counts(forms) -> dict:
    """Alignments ``similarity_matrix`` runs on these forms, and their cells.

    Every pair i <= j is aligned once, self-pairs included, and a pair fills
    len_a * len_b dynamic-programming cells.
    """
    lengths = [len(getattr(f, "segments", f)) for f in forms]
    n, total = len(lengths), sum(lengths)
    return {
        "pairs": n * (n + 1) // 2,
        "cells": (total * total + sum(x * x for x in lengths)) // 2,
    }


def _scan_counts(partition, history) -> dict:
    return {
        "scans": len(history),
        "changes": sum(history),
        "visits": len(history) * partition.n,
        "unconverged": int(history[-1] != 0),
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(),
                 parent=None if parent is None else parent.id)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.children_s += s.duration

    def _wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        forms_count = lambda a, k, r: {"forms": len(r), "meanings": len(r.meanings)}
        align = lambda a, k, r: align_counts(a[0])
        scan = lambda a, k, r: _scan_counts(*r)
        plain = [
            ("wordlist.parse_wordlist", "parse_wordlist", (cogclust, cli), forms_count),
            ("pmi.estimate_pmi", "estimate_pmi", (cogclust, cli), None),
            ("pmi.save_pmi", "save_pmi", (cogclust, cli), None),
            ("pmi.load_pmi", "load_pmi", (cogclust, cli), None),
            ("align.similarity_matrix", "similarity_matrix", (cogclust, pipeline), align),
            # crp_cluster looks the scan up as a module global of crp, so the
            # program's own path runs through this span and its counts.
            ("crp.scan", "crp_cluster_with_history", (cogclust, crp), scan),
            ("crp.crp_cluster", "crp_cluster", (cogclust, pipeline), None),
            ("crp.flat_cluster_threshold", "flat_cluster_threshold", (cogclust, pipeline), None),
            ("pipeline.cluster_wordlist", "cluster_wordlist", (cogclust, cli), None),
            ("pipeline.cluster_meaning", "cluster_meaning", (cogclust, pipeline), None),
            ("pipeline.gold_partitions", "gold_partitions", (cogclust, cli), None),
            ("pipeline.write_partitions", "write_partitions", (cogclust, cli), None),
            ("evaluate.evaluate_dataset", "evaluate_dataset", (cogclust, cli), None),
            ("evaluate.render_report", "render_report", (cogclust, cli), None),
            ("evaluate.render_report_kv", "render_report_kv", (cogclust, cli), None),
        ]
        for name, attr, modules, counts in plain:
            for module in modules:
                yield module, attr, self._wrap(name, getattr(module, attr), counts)

    @contextmanager
    def patched(self):
        """Route calls into the package's public functions through spans."""
        saved = []
        try:
            for module, attr, wrapper in list(self._targets()):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def roots(self):
        return [s for s in self.spans if s.parent is None]

    def descendants(self, root: Span) -> list[Span]:
        # Spans are appended in start order and never overlap a sibling, so a
        # root's descendants are the spans that follow it up to its end.
        out = []
        for s in self.spans[root.id + 1:]:
            if s.start >= root.end:
                break
            out.append(s)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "self_s": s.self_s, "counts": s.counts}
                    for s in self.spans
                ],
                fh,
            )
